"""Prefix-extension listing and the subset-product check against the
combinations-based algorithms they replaced (frozen in
legacy_power_set.py).

Seeded random flat bases with memberships 0, 1, about 1e-12 and random
values, over atom names that do not sort like their indices (x1, x10,
x2) and are listed in shuffled order. Elements, memberships and report
fields must be equal with ``==`` and bit for bit, failures must raise the
same exception class with the same message, and ``fuzznest powerset``
must write byte-identical output. Listed sets carry the text the
printer gives them, and the JSON writer is byte-identical to the one
that called json.dumps once per row (frozen in legacy_fuzzy_json.py).
The JSON reader gives the same fuzzy set, bit for bit, or the same
error as the reader that parsed each row on its own and walked every
element for foreign atoms (frozen there too), on listings, mixed sets
and broken variants of both.
"""

import json
import random

import pytest

from fuzznest import (
    POWER_SET_CAP,
    AtomUniverse,
    Braced,
    CapExceededError,
    DomainError,
    DuplicateElementError,
    Empty,
    FuzznestError,
    FuzzySet,
    InvariantError,
    LevelError,
    ParseError,
    SetOf,
    UniverseError,
    fuzzy_power_set,
    fuzzyset_from_json,
    fuzzyset_to_json,
    print_expr,
    verify_power_cardinality,
)
from fuzznest.cli import main
from helpers import ATOM_POOL, random_expr

import legacy_fuzzy_json
import legacy_power_set as legacy
import legacy_set_expr

REPORT_FIELDS = ("label", "computed", "expected", "abs_diff", "tolerance", "passed")


def _membership(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.15:
        return 0.0
    if roll < 0.3:
        return 1.0
    if roll < 0.45:
        return rng.uniform(0.5e-12, 2e-12)
    return rng.random()


def _flat_base(rng: random.Random, n: int) -> FuzzySet:
    names = [f"x{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    return FuzzySet.flat([(name, _membership(rng)) for name in names])


def _not_flat(rng: random.Random, n: int) -> FuzzySet:
    """A base over n >= 1 atoms that is not flat in one of three ways."""
    flat = _flat_base(rng, n)
    pairs = list(flat.elements)
    kind = rng.randrange(3)
    if kind == 0:  # an atom is missing
        del pairs[rng.randrange(n)]
    elif kind == 1:  # an atom also appears braced
        pairs.append((Braced(rng.choice(flat.universe.atoms), 1), rng.random()))
    else:  # a set is listed
        atoms = flat.universe.atoms
        pairs.append((SetOf(tuple(Braced(a, 0) for a in sorted(atoms)[:2])), 0.5))
    return FuzzySet.build(flat.universe, pairs)


def _bases(seed: int, count: int):
    """(base, tol): flat bases within the cap, over it (21 to 24 atoms,
    refused before anything is enumerated), and not flat."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 12)
        roll = rng.random()
        if n and roll < 0.1:
            base = _not_flat(rng, n)
        elif n and roll < 0.2:
            base = _flat_base(rng, rng.randint(POWER_SET_CAP + 1, 24))
        else:
            base = _flat_base(rng, n)
        yield base, rng.choice((1e-9, 1e-15, 0.0))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DomainError, CapExceededError) as exc:
        return type(exc), str(exc)


def test_listing_and_check_match_reference_bit_for_bit():
    outcomes = {"ok": 0, DomainError: 0, CapExceededError: 0}
    for base, tol in _bases(20261018, 300):
        want = _outcome(legacy.fuzzy_power_set, base, POWER_SET_CAP)
        got = _outcome(fuzzy_power_set, base)
        assert got[0] == want[0]
        outcomes[want[0]] += 1
        if want[0] != "ok":
            assert got == want
            assert _outcome(verify_power_cardinality, base, tol) == want
            continue
        assert got[1].universe == want[1].universe
        assert [e for e, _ in got[1].elements] == [e for e, _ in want[1].elements]
        # float ==, and the same bits (no -0.0 for 0.0)
        assert [mu.hex() for _, mu in got[1].elements] == [
            mu.hex() for _, mu in want[1].elements
        ]
        assert got[1].elements == want[1].elements
        assert fuzzyset_to_json(got[1]) == fuzzyset_to_json(want[1])

        new = verify_power_cardinality(base, tol)
        old = legacy.verify_power_cardinality(base, tol, POWER_SET_CAP)
        for field in REPORT_FIELDS:
            assert getattr(new, field) == getattr(old, field), field
        assert new.computed.hex() == old.computed.hex()
    assert outcomes["ok"] >= 200
    assert outcomes[DomainError] >= 10 and outcomes[CapExceededError] >= 10


def _cli_cases():
    """The seeded bases of up to 10 atoms or over the cap, then flat bases
    of 12 and 14."""
    for base, tol in _bases(4711, 60):
        if not 10 < len(base.universe) <= POWER_SET_CAP:
            yield base, tol
    rng = random.Random(4712)
    for n in (12, 14):
        yield _flat_base(rng, n), 1e-9


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_powerset_cli_output_is_byte_identical(as_json, tmp_path, capsys):
    checked = 0
    for i, (base, tol) in enumerate(_cli_cases()):
        path = tmp_path / f"base{i}.json"
        path.write_text(fuzzyset_to_json(base), encoding="utf-8")
        argv = ["powerset", str(path), "--verify"]
        argv += ["--tol", repr(tol)] + (["--json"] if as_json else [])
        code = main(argv)
        out, err = capsys.readouterr()
        want = _outcome(legacy.powerset_output, base, tol, POWER_SET_CAP, as_json)
        if want[0] == "ok":
            assert (out, code, err) == (want[1][0], want[1][1], "")
        else:
            assert (out, code, err) == ("", 2, f"error: {want[1]}\n")
        checked += 1
    assert checked >= 30


def test_empty_universe_matches_reference():
    base = FuzzySet(AtomUniverse(()), (), ())
    assert fuzzy_power_set(base) == legacy.fuzzy_power_set(base)
    assert verify_power_cardinality(base) == legacy.verify_power_cardinality(base)


def test_listed_sets_carry_their_printed_text():
    checked = 0
    for base, _ in _bases(20261019, 120):
        try:
            power = fuzzy_power_set(base)
        except (DomainError, CapExceededError):
            continue
        for (e, _), text in zip(power.elements, power.texts):
            if not isinstance(e, SetOf):
                continue
            fresh = SetOf(e.elements)
            assert text == print_expr(fresh) == legacy_set_expr.print_expr(fresh)
            assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
            checked += 1
    assert checked >= 10_000


def _mixed_sets(seed: int, count: int):
    """Fuzzy sets of random canonical expressions: the empty set, levels
    from -8 to 8, nested sets."""
    rng = random.Random(seed)
    for _ in range(count):
        exprs = {}
        for _ in range(rng.randint(0, 12)):
            e = random_expr(rng)
            exprs[print_expr(e)] = e
        mus = (0.0, 1.0, 5e-324, rng.random())
        pairs = [
            (e, 1.0 if isinstance(e, Empty) else rng.choice(mus))
            for e in exprs.values()
        ]
        yield FuzzySet.build(AtomUniverse(ATOM_POOL), pairs)


def test_json_writer_matches_reference():
    powers = 0
    for base, _ in _bases(20261020, 120):
        assert fuzzyset_to_json(base) == legacy_fuzzy_json.fuzzyset_to_json(base)
        try:
            power = fuzzy_power_set(base)
        except (DomainError, CapExceededError):
            continue
        assert fuzzyset_to_json(power) == legacy_fuzzy_json.fuzzyset_to_json(power)
        powers += 1
    assert powers >= 80
    seen = {"∅": 0, "^(-": 0, "{{": 0}
    for fs in _mixed_sets(20261021, 300):
        text = fuzzyset_to_json(fs)
        assert text == legacy_fuzzy_json.fuzzyset_to_json(fs)
        for e, _ in fs.elements:
            printed = print_expr(e)
            for key in seen:
                seen[key] += key in printed
    assert min(seen.values()) >= 50, seen


def _read(reader, text: str):
    """The fuzzy set a reader gives, as universe, elements and membership
    bits, or its error as class, message and offset."""
    try:
        fs = reader(text)
    except FuzznestError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return fs.universe, [e for e, _ in fs.elements], [mu.hex() for _, mu in fs.elements]


_FOREIGN = "zz"  # in no universe of these tests
_MALFORMED = ("{x1,", "{x1}^(", "x1 x2", "{{x1}^(2)}^(3)", "{x1}^(2)^(3)")


def _broken(rng: random.Random, doc: dict) -> tuple[str, dict]:
    """A copy of a document with one or two faults: a foreign atom in the
    first, a middle or the last row, or a dropped universe atom, alone or
    before or after a membership outside [0,1], a duplicate or a
    malformed row."""
    doc = json.loads(json.dumps(doc))
    rows = doc["elements"]
    n = len(rows)
    kind = rng.choice(("foreign", "dropped", "mu", "duplicate", "malformed"))
    k = rng.choice((0, n // 2, n - 1))
    if kind == "dropped":
        if doc["atoms"]:
            del doc["atoms"][rng.randrange(len(doc["atoms"]))]
        return kind, doc
    rows[k]["expr"] = "{%s,%s}" % (rows[k]["expr"], _FOREIGN)
    if kind == "foreign" or n < 2:
        return kind, doc
    j = rng.choice([i for i in range(n) if i != k])
    if kind == "mu":
        rows[j]["mu"] = rng.choice((1.5, -0.25, 2))
    elif kind == "duplicate":
        rows[j]["expr"] = rows[rng.choice([i for i in range(n) if i != j])]["expr"]
    else:
        rows[j]["expr"] = rng.choice(_MALFORMED)
    return kind, doc


def _documents(seed: int):
    """(kind, text): power-set listings and mixed sets, then broken
    variants of those with up to 256 rows."""
    rng = random.Random(seed)
    docs = []
    for base, _ in _bases(seed, 60):
        try:
            docs.append(json.loads(fuzzyset_to_json(fuzzy_power_set(base))))
        except (DomainError, CapExceededError):
            continue
    docs += [json.loads(fuzzyset_to_json(fs)) for fs in _mixed_sets(seed + 1, 150)]
    for doc in docs:
        yield "intact", json.dumps(doc, ensure_ascii=False)
        if 0 < len(doc["elements"]) <= 256:
            for _ in range(3):
                kind, broken = _broken(rng, doc)
                yield kind, json.dumps(broken, ensure_ascii=False)


def test_json_reader_matches_reference():
    kinds: dict[str, int] = {}
    errors: dict[type, int] = {}
    for kind, text in _documents(20261022):
        want = _read(legacy_fuzzy_json.fuzzyset_from_json, text)
        assert _read(fuzzyset_from_json, text) == want, (kind, text)
        kinds[kind] = kinds.get(kind, 0) + 1
        if isinstance(want[0], type):
            errors[want[0]] = errors.get(want[0], 0) + 1
    assert kinds["intact"] >= 150 and min(kinds.values()) >= 40, kinds
    assert set(errors) == {
        UniverseError, InvariantError, DuplicateElementError, ParseError, LevelError
    }, errors
    assert min(errors.values()) >= 10, errors
