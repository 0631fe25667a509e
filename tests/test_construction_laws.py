"""The three constructions agree where they meet.

The paper draws the codec and the power-set law from one rule set, but
the package computes each by a fast path that does not call
propagation: ``expand_to_fuzzy`` reads its levels off two ladders of w,
and ``fuzzy_power_set`` multiplies a flat base's factors in name order.
Each must give, text for text and bit for bit, what propagation gives
from the same base:

- the codec law: expanding a sequence equals propagating the flat base
  {x: decode(a)} over the universe the sequence selects;
- the power-set law: listing a flat base's power set equals propagating
  the base over the listing's own texts, parsed.

A path that drifts from propagation by one ulp breaks its law here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzznest import (
    BinarySequence,
    FuzzySet,
    SolverConfig,
    construct_fuzzy_set,
    decode,
    encode,
    expand_to_fuzzy,
    fuzzy_power_set,
    parse_expr,
    sequence_to_universe,
)


def _same(got: FuzzySet, want: FuzzySet) -> bool:
    """Equal texts, and memberships equal bit for bit."""
    return got.texts == want.texts and [m.hex() for m in got.memberships] == [
        m.hex() for m in want.memberships
    ]


# ------------------------------------------------------------------ codec

# how far a sequence reaches below and above index 0: mostly near it,
# sometimes past where both of w's ladders stall
_REACH = st.one_of(st.integers(0, 8), st.integers(0, 300))


@st.composite
def _sequences(draw) -> BinarySequence:
    """A valid sequence: its bits are runs of 0s and 1s, then the bits
    at m_star, at 0 and, unless it is truncated, at its end are set."""
    low, high, truncated = draw(_REACH), draw(_REACH), draw(st.booleans())
    runs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 80)), max_size=10))
    n = low + high + 1
    bits = ([b for b, length in runs for _ in range(length)] + [0] * n)[:n]
    bits[0] = bits[low] = 1
    if not truncated:
        bits[-1] = 1
    return BinarySequence(-low, tuple(bits), truncated)


# encoder outputs for w log-uniform in [1e-12, 1], some cut short
_encoded = st.builds(
    lambda e, terms: encode(10.0 ** e, SolverConfig(max_terms=terms)),
    st.floats(min_value=-12, max_value=0),
    st.integers(min_value=1, max_value=64),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_sequences(), _encoded))
def test_expansion_is_propagation_from_the_decoded_base(a):
    base = FuzzySet.flat([("x", decode(a))])
    want = construct_fuzzy_set(base, sequence_to_universe(a))
    assert _same(expand_to_fuzzy(a), want), str(a)


# -------------------------------------------------------------- power set

# names that do not sort like the order they are drawn in
_NAMES = ("x1", "x10", "x2", "B", "a", "_z", "y", "z0", "Q9", "b_", "c", "x")
_MEMBERSHIPS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-12, 5e-324]), st.floats(min_value=0, max_value=1)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_NAMES), unique=True, max_size=10).flatmap(
        lambda names: st.lists(
            _MEMBERSHIPS, min_size=len(names), max_size=len(names)
        ).map(lambda mus: FuzzySet.flat(zip(names, mus)))
    )
)
def test_the_power_set_is_propagation_over_its_listing(base):
    listing = fuzzy_power_set(base)
    want = construct_fuzzy_set(base, [parse_expr(t) for t in listing.texts])
    assert _same(listing, want)
