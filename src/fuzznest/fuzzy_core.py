"""Fuzzy sets over set expressions.

A FuzzySet pairs canonical expressions with membership degrees in [0,1].
It stores each expression as its printed text, and parses the
expressions back only when its ``elements`` are read.
Membership propagates from base atoms to arbitrary superstructure
elements by three rules applied in order:

1. the empty set has membership 1,
2. an element listed in the base keeps its stored membership,
3. otherwise a braced atom {a}^(n) gets the n-fold level map of the
   atom's membership, and a set gets the product of (2^mu - 1) over its
   members' propagated memberships.

Each call of construct_fuzzy_set, propagate_membership or
verify_classical_degeneracy applies the rules in the one pass that
canonicalizes an element. Text takes the same path in one pass less:
_construct_from_texts, which ``fuzznest propagate`` and ``fuzznest
examples 1`` call, hands the hook to the parser, which canonicalizes as
it reads, so each text is read and valued in one walk. The hook
(_Propagation.made) applies rules 1–3 and nothing else: rule 2 looks up
the text the pass has just made, and a braced atom reads its level from
two ladders of its atom's base membership (_kernels._climb), kept for
the call, so every level of an atom is computed once per call, with the
bits level_value gives. A set's factor 2^mu - 1 is the up step u_1(mu).
One decision, _Propagation.decided, ends both paths: only an element
whose value is still a stand-in at the root (it needs an atom the base
does not list) is walked once more, to tell a foreign atom from an
unlisted one.

One validated maker, FuzzySet._from_canonical, turns canonical items and
memberships into a fuzzy set: build, fuzzyset_from_json and
construct_fuzzy_set all go through it, so the membership, universe and
duplicate checks are written once. Elements are told apart by their
printed text, as set_expr's sets tell members apart. The pass that
canonicalizes an element gives its text, and the fuzzy set keeps that
text, not the node, in ``FuzzySet.texts``. Every reader here and in the
CLI reads the texts and ``FuzzySet.memberships``, and no call here
compares or hashes a node.

Because 2^v - 1 maps [0,1] onto [0,1], every propagated value stays a
valid membership. The power set of a flat fuzzy set then has scalar
cardinality exactly 2^(scalar cardinality of the base), which
verify_power_cardinality checks numerically from the 2^n subset
products, without building the listing of 2^n expressions.

The listing itself is enumerated once, by itertools.combinations over
the sorted atom names and their factors, as columns of printed texts
and products. fuzzy_power_set makes those two columns the fuzzy set's
texts and memberships, and ``fuzznest powerset`` prints them and checks
the law on the products: neither builds a node. The listing's elements
are parsed from its texts only if they are read; comparing, hashing,
copying or pickling a listing parses nothing.

One writer, _element_array, writes every JSON array of elements, for
fuzzyset_to_json and for the CLI's --json output alike: one % over a
flat list of arguments (escaped text, membership, escaped text, ...),
with the row template and the separator as its parameters, so no
formatting call runs per row. fuzzyset_from_json parses every row with
one table of atom tokens: each distinct token becomes one node, shared
by all the rows that hold it. The atoms of those nodes are all the
atoms of the document, so one look at each tells whether the universe
holds them; the elements are walked for foreign atoms only when it
does not, which finds the first offending row as a walk of every row
would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Iterable

from ._kernels import _climb, _up
from .errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    DuplicateElementError,
    InvariantError,
    MissingMembershipError,
    ParseError,
    UniverseError,
    _shown,
)
from .set_expr import (
    AtomUniverse,
    Braced,
    Empty,
    SetExpr,
    _canonical,
    _Item,
    _parse,
    atoms_of,
    in_superstructure,
)

__all__ = [
    "FuzzySet",
    "VerificationReport",
    "scalar_cardinality",
    "propagate_membership",
    "construct_fuzzy_set",
    "fuzzy_power_set",
    "verify_power_cardinality",
    "verify_classical_degeneracy",
    "fuzzyset_to_json",
    "fuzzyset_from_json",
    "POWER_SET_CAP",
]

# the most atoms whose 2^n subsets the power-set functions enumerate
POWER_SET_CAP = 20


@dataclass(frozen=True, slots=True)
class FuzzySet:
    """Finite fuzzy set over an atom universe: its elements' printed texts
    and their memberships, each a tuple in element order.

    The universe, texts and memberships are the one stored form: what
    the constructor takes, what ``==``, ``hash``, ``repr`` and pickling
    read, and what the library reads. ``elements``, the (expression,
    membership) pairs, is the one derived view. No maker writes it: it
    is parsed from the texts at its first read, with one table of atom
    tokens, as fuzzyset_from_json parses them (a canonical expression's
    printed text parses back to it), and kept. So a fuzzy set holds no
    node until its elements are read, and a copy or a pickle of a
    power-set listing parses nothing.

    The plain constructor trusts its arguments (internal fast paths rely
    on that): texts that are canonical printed forms, and memberships,
    one per text. The older form FuzzySet(universe, pairs), whose
    (expression, membership) pairs hold canonical nodes, still works:
    it stores each node's printed text and its membership, and keeps no
    node. Use build() for validated construction from outside input.
    Propagation takes its base as build makes it: texts over its
    universe only, with memberships that are numbers in [0,1]. From a
    trusted base that breaks this, a listed foreign atom propagates its
    listed value, and a propagated value outside [0,1] or a bool raises
    InvariantError.
    """

    universe: AtomUniverse
    texts: tuple[str, ...]
    memberships: tuple[float, ...] = None  # None: texts holds the pairs
    elements: tuple[tuple[SetExpr, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str):
        # the elements, parsed at their first read and kept
        if name != "elements":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        leaves: dict[str, _Item] = {}  # one node per distinct atom token
        nodes = [_parse(text, leaves)[2] for text in self.texts]
        value = tuple(zip(nodes, self.memberships))
        object.__setattr__(self, "elements", value)
        return value

    def __post_init__(self):
        if self.memberships is None:  # FuzzySet(universe, pairs)
            pairs = tuple(self.texts)
            object.__setattr__(self, "texts", tuple(str(e) for e, _ in pairs))
            object.__setattr__(self, "memberships", tuple(mu for _, mu in pairs))

    def __reduce__(self):
        return (type(self), (self.universe, self.texts, self.memberships))

    @classmethod
    def build(
        cls,
        universe: AtomUniverse,
        pairs: Iterable[tuple[SetExpr, float]],
    ) -> "FuzzySet":
        """Validate, canonicalize, and construct.

        Raises InvariantError when pairs is not (expression, membership)
        pairs, or for memberships that are not numbers in [0,1] or a
        non-unit empty set, UniverseError for foreign atoms, and
        DuplicateElementError when two expressions share one canonical
        form.
        """
        try:
            pairs = [(expr, mu) for expr, mu in pairs]
        except (TypeError, ValueError):
            raise InvariantError("build() takes (expression, membership) pairs") from None
        return cls._from_canonical(
            universe, ((_canonical(expr), mu) for expr, mu in pairs)
        )

    @classmethod
    def _from_canonical(
        cls,
        universe: AtomUniverse,
        pairs: Iterable[tuple[_Item, float]],
        foreign: bool = True,
    ) -> "FuzzySet":
        """The one validated maker: the fuzzy set of the canonical items
        (depth, text, node) the canonicalizer gives, with their
        memberships. build, fuzzyset_from_json and construct_fuzzy_set
        build through it, in the order their pairs come. It keeps each
        item's text, not its node.

        Checks each element's membership (a number in [0,1], and 1 for
        the empty set), then its universe, then that its text is new.
        A caller that has found every atom of every item in the universe
        passes foreign=False, and no element is walked for its atoms.
        """
        seen: dict[str, None] = {}  # the texts, in element order
        mus: list[float] = []
        for item, mu in pairs:
            _, text, e = item
            if not _is_number(mu, (int, float)):
                raise InvariantError(
                    f"membership {_shown(mu)} for {text} is not a number"
                )
            if not (0 <= mu <= 1):  # exact for an int beyond the float range
                raise InvariantError(
                    f"membership {_shown(mu)} for {text} is outside [0,1]"
                )
            mu = float(mu)
            if isinstance(e, Empty) and mu != 1.0:
                raise InvariantError("the empty set must have membership 1")
            if foreign and not in_superstructure(e, universe):
                raise UniverseError(f"{text} uses atoms outside the universe")
            if text in seen:
                raise DuplicateElementError(f"duplicate element {text}")
            seen[text] = None
            mus.append(mu)
        return cls(universe, tuple(seen), tuple(mus))

    @classmethod
    def flat(cls, memberships: Iterable[tuple[str, float]]) -> "FuzzySet":
        """Fuzzy set of bare atoms; the universe is taken from the names."""
        try:
            items = [(name, mu) for name, mu in memberships]
        except (TypeError, ValueError):
            raise InvariantError("flat() takes (name, membership) pairs") from None
        universe = AtomUniverse(tuple(name for name, _ in items))
        # a name is its own canonical text, and an atom of the universe
        pairs = [((0, name, Braced(name, 0)), mu) for name, mu in items]
        return cls._from_canonical(universe, pairs, foreign=False)

    def membership_table(self) -> dict[SetExpr, float]:
        return dict(self.elements)


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one numeric check: computed vs expected at a tolerance.

    abs_diff and passed are derived from these four fields, never given.
    ConfigError unless computed, expected and the tolerance are numbers
    (not bools), and the tolerance is finite and at least 0.
    """

    label: str
    computed: float
    expected: float
    tolerance: float

    def __post_init__(self):
        for name in ("computed", "expected", "tolerance"):
            value = getattr(self, name)
            if not _is_number(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {_shown(value)}")
        if not (0.0 <= self.tolerance < math.inf):
            raise ConfigError("tolerance must be finite and at least 0")

    @property
    def abs_diff(self) -> float:
        return abs(self.computed - self.expected)

    @property
    def passed(self) -> bool:
        return self.abs_diff <= self.tolerance


def scalar_cardinality(fs: FuzzySet) -> float:
    """Sum of all membership degrees (the sigma count)."""
    return math.fsum(fs.memberships)


class _Propagation:
    """Membership propagation from one base for the span of one call.

    made, the hook of the canonical pass and of the parser, applies rules
    1–3 to each item as it is made, and does nothing else: ∅ is 1, a
    text the table (the base's texts) holds keeps its value, a braced
    atom reads its atom's up ladder (levels from 0) or down ladder, each
    from the base membership stored under the atom's name, and a set
    takes _product over its members. The pass makes no other item:
    every Braced holds an atom name, as Braced refuses one over a set or
    ∅. An atom with no base membership stands in by its name, and a set
    with such a member by the first one's, until a listed set or the
    root decides. Only a root that stays a stand-in is walked again, by
    decided, to tell a foreign atom from an unlisted one: element
    decides a node's canonical item, and _construct_from_texts each
    parsed text's.

    The base is taken as build makes it: it lists only texts over its
    universe, with memberships in [0,1]. So a foreign atom has no listed
    text and no ladder, and its stand-in reaches the root.
    """

    __slots__ = ("universe", "table", "up", "down", "values")

    def __init__(self, base: FuzzySet):
        self.universe = base.universe
        self.table = dict(zip(base.texts, base.memberships))
        self.up: dict[str, list[float]] = {}
        self.down: dict[str, list[float]] = {}
        # id(node) -> value or stand-in, for the span of the call; each
        # node is valued as it is made, so a freed node's id is rewritten
        # before a live node reads it
        self.values: dict[int, float | str] = {}

    def element(self, expr: SetExpr) -> tuple[_Item, float]:
        """expr's canonical item and membership. Raises what normalize
        raises, then what decided raises."""
        return self.decided(_canonical(expr, self.made))

    def decided(self, item: _Item) -> tuple[_Item, float]:
        """item and the value made gave its node, or, for a stand-in,
        UniverseError if the value needs an atom outside the universe,
        else MissingMembershipError if it needs an unlisted one."""
        _, text, node = item
        value = self.values[id(node)]
        if type(value) is str:
            if not in_superstructure(node, self.universe):
                raise UniverseError(f"{text} uses atoms outside the universe")
            raise MissingMembershipError(f"atom {value!r} has no base membership")
        return item, value

    def made(self, item: _Item) -> None:
        _, text, node = item
        if isinstance(node, Empty):
            value = 1.0
        elif text in self.table:
            value = self.table[text]
        elif isinstance(node, Braced):
            ladders = self.up if node.level >= 0 else self.down
            rungs = ladders.get(node.atom)
            if rungs is None and node.atom in self.table:
                rungs = ladders[node.atom] = [self.table[node.atom]]
            value = node.atom if rungs is None else _climb(rungs, node.level)
        else:
            value = _product([self.values[id(m)] for m in node.elements])
        self.values[id(node)] = value


def _product(values: Iterable[float | str]) -> float | str:
    """Rule 3 for a set: Π (2^mu - 1), left to right, or the first stand-in."""
    product = 1.0
    for value in values:
        if type(value) is str:
            return value
        product *= _up(value)
    return product


def propagate_membership(base: FuzzySet, y: SetExpr) -> float:
    """Membership of y derived from the base fuzzy set.

    y may be any superstructure element over the base universe; see the
    module docstring for the rule order. This is construct_fuzzy_set
    over the one expression y.
    """
    return construct_fuzzy_set(base, (y,)).memberships[0]


def construct_fuzzy_set(
    base: FuzzySet, universe_exprs: Iterable[SetExpr]
) -> FuzzySet:
    """New fuzzy set over the given expressions with propagated memberships.

    Input order is preserved; expressions that normalize to the same
    canonical form raise DuplicateElementError.
    """
    return FuzzySet._from_canonical(
        base.universe, map(_Propagation(base).element, universe_exprs), foreign=False
    )


def _construct_from_texts(base: FuzzySet, texts: Iterable[str]) -> FuzzySet:
    """construct_fuzzy_set(base, [parse_expr(t) for t in texts]), with the
    same elements, memberships and errors, in one walk of each text:
    _parse hands each item it makes to _Propagation.made. Every text is
    read before any is decided, so a text that does not parse is the
    error even after one whose value needs a missing atom."""
    memberships = _Propagation(base)
    leaves: dict[str, _Item] = {}  # one node per distinct atom token
    items = [_parse(text, leaves, memberships.made) for text in texts]
    pairs = map(memberships.decided, items)
    return FuzzySet._from_canonical(base.universe, pairs, foreign=False)


def _power_factors(base: FuzzySet) -> tuple[list[str], list[float]]:
    """Atom names in sorted order and their factors 2^mu - 1.

    Raises DomainError for a base that is not flat, then
    CapExceededError for more than POWER_SET_CAP atoms, before anything
    is enumerated.
    """
    names = sorted(base.universe.atoms)
    # a level-0 atom's text is its name
    mu = dict(zip(base.texts, base.memberships))
    if len(base.memberships) != len(names) or mu.keys() != set(names):
        raise DomainError(
            "operation needs a flat fuzzy set: exactly the universe atoms "
            "at level 0, nothing else"
        )
    n = len(names)
    if n > POWER_SET_CAP:
        raise CapExceededError(
            f"{n} atoms would enumerate 2^{n} subsets (cap is {POWER_SET_CAP})"
        )
    return names, [_up(mu[name]) for name in names]


def fuzzy_power_set(base: FuzzySet) -> FuzzySet:
    """Fuzzy set over all 2^n subsets of a flat base's universe.

    Each subset's membership is the product of (2^mu - 1) over its
    atoms, by math.prod left to right in name order; the empty subset
    gets 1. Elements are ordered by subset size, then lexicographically
    by atom names, the order itertools.combinations gives over the
    sorted names. CapExceededError guards the exponential blowup for
    n > POWER_SET_CAP; raises as _power_factors does.

    The listing is the printed texts ("∅", "{a}", "{a,b,...}", as
    set_expr prints them) and products of one enumeration: no node is
    built until its elements are read.
    """
    names, factors = _power_factors(base)
    texts = ["∅"]
    products = [1.0]
    for size in range(1, len(names) + 1):
        texts += ["{" + t + "}" for t in map(",".join, combinations(names, size))]
        products += map(math.prod, combinations(factors, size))
    return FuzzySet(base.universe, tuple(texts), tuple(products))


def verify_power_cardinality(base: FuzzySet, tol: float = 1e-9) -> VerificationReport:
    """Check card(power set) against 2^card(base).

    The power set's cardinality is the correctly rounded sum of the 2^n
    subset products, formed by doubling a list of products once per
    factor; the listing itself is never built. Each product is the
    left-to-right product fuzzy_power_set gives its subset, and fsum
    does not depend on the order of its terms, so the result equals the
    sum over the listing bit for bit. Raises as _power_factors does.
    """
    _, factors = _power_factors(base)
    products = [1.0]
    for f in factors:
        products += [p * f for p in products]
    return _power_report(base, products, tol)


def _power_report(
    base: FuzzySet, products: Iterable[float], tol: float
) -> VerificationReport:
    """The power-set law's report from the 2^n subset products of a flat
    base, in any order."""
    computed = math.fsum(products)
    expected = 2.0 ** scalar_cardinality(base)
    return VerificationReport("power-set cardinality law", computed, expected, tol)


def verify_classical_degeneracy(
    base: FuzzySet, probe_exprs: Iterable[SetExpr]
) -> VerificationReport:
    """Check that a 0/1-valued base propagates to 0/1 values exactly.

    A probe's expected value is 1 when it contains no membership-0 atom
    (the empty set included), else 0. The report's computed field is the
    largest deviation from that indicator over all probes, and the
    tolerance is zero: pass means bit-exact classical behavior.
    """
    pairs = list(zip(base.texts, base.memberships))
    for text, mu in pairs:
        if mu != 0.0 and mu != 1.0:
            raise DomainError(f"base is not classical: mu({text}) = {_shown(mu)}")
    # a level-0 atom's text is its name, and no other text is a name
    zero_atoms = {text for text, mu in pairs if mu == 0.0}
    memberships = _Propagation(base)
    worst = 0.0
    for probe in probe_exprs:
        item, value = memberships.element(probe)
        expected = 0.0 if any(a in zero_atoms for a in atoms_of(item[2])) else 1.0
        worst = max(worst, abs(value - expected))
    return VerificationReport("classical degeneracy", worst, 0.0, 0.0)


# ------------------------------------------------------------------- JSON


def _element_array(fs: FuzzySet, row: str, sep: str) -> str:
    """The JSON array of fs's elements, the one writer of element rows.

    row is the template of one element, with a slot for its escaped text
    and one for its membership; sep goes between rows. Each text is
    escaped as json.dumps escapes a str with its default arguments
    (encode_basestring_ascii). One % formats every row from the flat
    list text, membership, text, ...
    """
    flat = [None] * (2 * len(fs.texts))
    flat[::2] = map(encode_basestring_ascii, fs.texts)
    flat[1::2] = fs.memberships
    return ("[" + sep.join([row] * len(fs.texts)) + "]") % tuple(flat)


def fuzzyset_to_json(fs: FuzzySet) -> str:
    """Serialize with 17 significant digits so values survive round trips.

    The elements are written by _element_array, the writer the CLI's
    --json output uses too, with each membership formatted by %.17g,
    the bytes of format(mu, ".17g").
    """
    atoms = ",".join(map(encode_basestring_ascii, fs.universe.atoms))
    rows = _element_array(fs, '{"expr":%s,"mu":%.17g}', ",")
    return '{"atoms":[%s],"elements":%s}' % (atoms, rows)


def _is_number(value, kinds) -> bool:
    """value is an instance of kinds and not a bool (which is an int)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _load_object(text: str, what: str) -> dict:
    """The object text holds, or ParseError: malformed, too deep, an
    integer of more digits than int() reads, or no object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        offset = len(text[: ex.pos].encode("utf-8"))
        raise ParseError(f"invalid JSON: {ex.msg}", offset) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 0) from None
    except ValueError:  # an int past the interpreter's text-to-int digit limit
        raise ParseError("invalid JSON: an integer has too many digits", 0) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} JSON must be an object", 0)
    return doc


def fuzzyset_from_json(text: str) -> FuzzySet:
    doc = _load_object(text, "fuzzy set")
    atoms = doc.get("atoms")
    rows = doc.get("elements")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ParseError('"atoms" must be a list of names', 0)
    if not isinstance(rows, list):
        raise ParseError('"elements" must be a list', 0)
    pairs: list[tuple[_Item, float]] = []
    leaves: dict[str, _Item] = {}  # one item per distinct atom token
    for row in rows:
        if not isinstance(row, dict) or "expr" not in row or "mu" not in row:
            raise ParseError('each element needs "expr" and "mu"', 0)
        mu = row["mu"]
        if not isinstance(row["expr"], str) or not _is_number(mu, (int, float)):
            raise ParseError('"expr" must be text and "mu" a number', 0)
        item = _parse(row["expr"], leaves)
        try:
            mu = float(mu)
        except OverflowError:  # an integer beyond the float range
            raise ParseError(
                '"mu" is outside [0,1] and the float range', 0
            ) from None
        pairs.append((item, mu))
    universe = AtomUniverse(tuple(atoms))
    # every atom of every row is the atom of a leaf: one check per leaf
    # says whether any element needs the walk that finds the first
    # foreign one; parsing canonicalizes, so no second normalize pass
    foreign = not all(e.atom in universe for _, _, e in leaves.values())
    return FuzzySet._from_canonical(universe, pairs, foreign)
