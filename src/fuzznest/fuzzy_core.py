"""Fuzzy sets over set expressions.

A FuzzySet pairs canonical expressions with membership degrees in [0,1].
Membership propagates from base atoms to arbitrary superstructure
elements by three rules applied in order:

1. the empty set has membership 1,
2. an element listed in the base keeps its stored membership,
3. otherwise a braced atom {a}^(n) gets the n-fold level map of the
   atom's membership, and a set gets the product of (2^mu - 1) over its
   members' propagated memberships.

Each call of construct_fuzzy_set, propagate_membership or
verify_classical_degeneracy reads an atom's levels from ladders of its
base membership that grow as far as the call's highest level asks and
end where level_value stops, so every level of an atom is computed once
per call, with the bits level_value gives.

Because 2^v - 1 maps [0,1] onto [0,1], every propagated value stays a
valid membership. The power set of a flat fuzzy set then has scalar
cardinality exactly 2^(scalar cardinality of the base), which
verify_power_cardinality checks numerically from the 2^n subset
products, without building the listing of 2^n expressions.

The listing itself is enumerated once, as columns of member tuples,
printed texts and products, each subset extending a shorter one.
fuzzy_power_set builds its elements from those columns, its sets
carrying their texts, and ``fuzznest powerset`` prints the texts and
products without building any node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

from ._kernels import level_value
from .errors import (
    CapExceededError,
    DomainError,
    DuplicateElementError,
    InvariantError,
    MissingMembershipError,
    ParseError,
    UniverseError,
)
from .set_expr import (
    EMPTY,
    AtomUniverse,
    Braced,
    Empty,
    SetExpr,
    SetOf,
    atoms_of,
    in_superstructure,
    normalize,
    parse_expr,
    print_expr,
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

POWER_SET_CAP = 20


@dataclass(frozen=True, slots=True)
class FuzzySet:
    """Finite fuzzy set: (expression, membership) pairs over an atom universe.

    The plain constructor trusts its arguments (internal fast paths rely
    on that); use build() for validated construction from outside input.
    """

    universe: AtomUniverse
    elements: tuple[tuple[SetExpr, float], ...]

    @classmethod
    def build(
        cls,
        universe: AtomUniverse,
        pairs: Iterable[tuple[SetExpr, float]],
    ) -> "FuzzySet":
        """Validate, canonicalize, and construct.

        Raises InvariantError for memberships outside [0,1] or a
        non-unit empty set, UniverseError for foreign atoms, and
        DuplicateElementError when two expressions share one canonical
        form.
        """
        return cls._from_canonical(
            universe, ((normalize(expr), mu) for expr, mu in pairs)
        )

    @classmethod
    def _from_canonical(
        cls,
        universe: AtomUniverse,
        pairs: Iterable[tuple[SetExpr, float]],
    ) -> "FuzzySet":
        """build() for expressions that are canonical already.

        Each element is hashed once: it is added to the set of those
        seen, and a set that does not grow means a duplicate.
        """
        seen: set[SetExpr] = set()
        out: list[tuple[SetExpr, float]] = []
        for e, mu in pairs:
            mu = float(mu)
            if not (0.0 <= mu <= 1.0):
                raise InvariantError(
                    f"membership {mu!r} for {print_expr(e)} is outside [0,1]"
                )
            if isinstance(e, Empty) and mu != 1.0:
                raise InvariantError("the empty set must have membership 1")
            if not in_superstructure(e, universe):
                raise UniverseError(
                    f"{print_expr(e)} uses atoms outside the universe"
                )
            size = len(seen)
            seen.add(e)
            if len(seen) == size:
                raise DuplicateElementError(
                    f"duplicate element {print_expr(e)}"
                )
            out.append((e, mu))
        return cls(universe, tuple(out))

    @classmethod
    def flat(cls, memberships: Iterable[tuple[str, float]]) -> "FuzzySet":
        """Fuzzy set of bare atoms; the universe is taken from the names."""
        items = list(memberships)
        universe = AtomUniverse(tuple(name for name, _ in items))
        return cls.build(universe, [(Braced(name, 0), mu) for name, mu in items])

    def membership_table(self) -> dict[SetExpr, float]:
        return dict(self.elements)


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one numeric check: computed vs expected at a tolerance."""

    label: str
    computed: float
    expected: float
    abs_diff: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        if self.abs_diff != abs(self.computed - self.expected):
            raise InvariantError("abs_diff must equal |computed - expected|")
        if self.passed != (self.abs_diff <= self.tolerance):
            raise InvariantError("passed must mean abs_diff <= tolerance")

    @classmethod
    def check(
        cls, label: str, computed: float, expected: float, tolerance: float
    ) -> "VerificationReport":
        diff = abs(computed - expected)
        return cls(label, computed, expected, diff, tolerance, diff <= tolerance)


def scalar_cardinality(fs: FuzzySet) -> float:
    """Sum of all membership degrees (the sigma count)."""
    return math.fsum(mu for _, mu in fs.elements)


class _Propagation:
    """Membership propagation from one base for the span of one call.

    Rule 2 needs a table lookup only for a kind of element the base
    lists beyond its level-0 atoms: hashing a set walks its whole
    subtree, and a level-0 atom's stored value is its base membership,
    which rule 3 gives too. Rule 3 reads each atom's levels from two
    ladders of its base membership t, one for the levels above 0 and one
    for those below: rungs[j] is level_value(t, +-j), each rung one
    level_value step from the one before. A ladder grows only as far as
    a level asks, and once a step returns its input (a fixed point of
    the map) it ends with that value repeated, which stands for every
    higher level, as in level_value. So each level of an atom is
    computed once per call, bit for bit as level_value(t, k) computes it.
    """

    __slots__ = ("table", "sets_listed", "levels_listed", "up", "down")

    def __init__(self, base: FuzzySet):
        self.table = base.membership_table()
        self.sets_listed = any(isinstance(e, SetOf) for e in self.table)
        self.levels_listed = any(
            isinstance(e, Braced) and e.level != 0 for e in self.table
        )
        self.up: dict[str, list[float]] = {}
        self.down: dict[str, list[float]] = {}

    def level(self, atom: str, k: int) -> float:
        """level_value(t, k) for the atom's base membership t."""
        ladders = self.up if k >= 0 else self.down
        rungs = ladders.get(atom)
        if rungs is None:
            t = self.table.get(Braced(atom, 0))
            if t is None:
                raise MissingMembershipError(
                    f"atom {atom!r} has no base membership"
                )
            rungs = ladders[atom] = [t]
        n = abs(k)
        if n < len(rungs):
            return rungs[n]
        v = rungs[-1]
        if len(rungs) > 1 and rungs[-2] == v:
            return v  # the ladder ended on a fixed point
        step = 1 if k > 0 else -1
        for _ in range(n + 1 - len(rungs)):
            nxt = level_value(v, step)
            rungs.append(nxt)
            if nxt == v:
                break
            v = nxt
        return v

    def membership(self, y: SetExpr) -> float:
        """Membership of a canonical y under the rule order of the
        module docstring, evaluated with an explicit stack (members left
        to right, so errors and rounding match a recursive evaluation)."""
        table, levels_listed, sets_listed = (
            self.table, self.levels_listed, self.sets_listed
        )
        values: list[float] = []
        todo: list = [y]  # nodes to evaluate; an int closes a set of that many members
        while todo:
            x = todo.pop()
            if type(x) is int:
                product = 1.0
                for value in values[len(values) - x:]:
                    product *= 2.0 ** value - 1.0
                del values[len(values) - x:]
                values.append(product)
            elif isinstance(x, Empty):
                values.append(1.0)
            elif isinstance(x, Braced):
                stored = table.get(x) if levels_listed else None
                if stored is None:
                    stored = self.level(x.atom, x.level)
                values.append(stored)
            else:
                stored = table.get(x) if sets_listed else None
                if stored is not None:
                    values.append(stored)
                else:
                    todo.append(len(x.elements))
                    todo.extend(reversed(x.elements))
        return values[0]


def propagate_membership(base: FuzzySet, y: SetExpr) -> float:
    """Membership of y derived from the base fuzzy set.

    y may be any superstructure element over the base universe; see the
    module docstring for the rule order.
    """
    y = normalize(y)
    if not in_superstructure(y, base.universe):
        raise UniverseError(f"{print_expr(y)} uses atoms outside the universe")
    return _Propagation(base).membership(y)


def construct_fuzzy_set(
    base: FuzzySet, universe_exprs: Iterable[SetExpr]
) -> FuzzySet:
    """New fuzzy set over the given expressions with propagated memberships.

    Input order is preserved; expressions that normalize to the same
    canonical form raise DuplicateElementError.
    """
    memberships = _Propagation(base)
    seen: set[SetExpr] = set()
    out: list[tuple[SetExpr, float]] = []
    for expr in universe_exprs:
        e = normalize(expr)
        if e in seen:
            raise DuplicateElementError(f"duplicate element {print_expr(e)}")
        seen.add(e)
        if not in_superstructure(e, base.universe):
            raise UniverseError(
                f"{print_expr(e)} uses atoms outside the universe"
            )
        out.append((e, memberships.membership(e)))
    return FuzzySet(base.universe, tuple(out))


def _require_flat(base: FuzzySet) -> dict[str, float]:
    """Membership by atom name, or DomainError if base is not flat."""
    expected = {Braced(name, 0) for name in base.universe.atoms}
    actual = [expr for expr, _ in base.elements]
    if len(actual) != len(expected) or set(actual) != expected:
        raise DomainError(
            "operation needs a flat fuzzy set: exactly the universe atoms "
            "at level 0, nothing else"
        )
    return {expr.atom: mu for expr, mu in base.elements}  # type: ignore[union-attr]


def _power_factors(base: FuzzySet, cap: int) -> tuple[list[str], list[float]]:
    """Atom names in sorted order and their factors 2^mu - 1.

    Raises DomainError for a base that is not flat, then
    CapExceededError for more than cap atoms.
    """
    mu_by_name = _require_flat(base)
    n = len(base.universe.atoms)
    if n > cap:
        raise CapExceededError(
            f"{n} atoms would enumerate 2^{n} subsets (cap is {cap})"
        )
    names = sorted(base.universe.atoms)
    return names, [2.0 ** mu_by_name[name] - 1.0 for name in names]


def _power_columns(
    base: FuzzySet, cap: int, with_members: bool = True
) -> tuple[list[tuple[Braced, ...]] | None, list[str], list[float]]:
    """The power set of a flat base as three columns in listing order:
    each subset's level-0 atoms (None unless with_members), its printed
    text and its product of (2^mu - 1) over its atoms.

    The order is by subset size, then lexicographic by atom names. Each
    subset of size s + 1 extends one of size s by a later atom: one
    tuple concatenation, one multiply, and one string concatenation for
    its prefix text plus one to close it. The texts are those print_expr
    gives the listed elements: "∅", "{a}" and "{a,b,...}". Raises as
    _power_factors does.
    """
    names, factors = _power_factors(base, cap)
    n = len(names)
    level0 = [(Braced(name, 0),) for name in names]
    # a subset whose last atom is names[i - 1] extends by the atoms from
    # names[i] on; its prefix text lacks the closing brace
    seps_from = [["," + name for name in names[i:]] for i in range(n + 1)]
    factors_from = [factors[i:] for i in range(n + 1)]
    members_from = [level0[i:] for i in range(n + 1)]
    starts_from = [range(i + 1, n + 1) for i in range(n + 1)]

    starts = list(range(1, n + 1))
    prefixes = ["{" + name for name in names]
    products = factors
    members = level0 if with_members else None
    all_members = [()] + level0 if with_members else None
    all_texts = ["∅"] + [prefix + "}" for prefix in prefixes]
    all_products = [1.0] + factors
    while starts:
        prefixes = [
            prefix + sep
            for prefix, i in zip(prefixes, starts)
            for sep in seps_from[i]
        ]
        products = [
            product * f
            for product, i in zip(products, starts)
            for f in factors_from[i]
        ]
        if with_members:
            members = [
                atoms + atom
                for atoms, i in zip(members, starts)
                for atom in members_from[i]
            ]
            all_members += members
        starts = [j for i in starts for j in starts_from[i]]
        all_texts += [prefix + "}" for prefix in prefixes]
        all_products += products
    return all_members, all_texts, all_products


def fuzzy_power_set(base: FuzzySet, cap: int = POWER_SET_CAP) -> FuzzySet:
    """Fuzzy set over all 2^n subsets of a flat base's universe.

    Each subset's membership is the product of (2^mu - 1) over its
    atoms, taken left to right in name order; the empty subset gets 1.
    Elements are ordered by subset size, then lexicographically by atom
    names. CapExceededError guards the exponential blowup for n > cap.

    The elements come from one enumeration (_power_columns), and every
    set of two or more atoms carries the text it was built with, so
    printing the listing walks no set again.
    """
    members, texts, products = _power_columns(base, cap)
    n = len(base.universe)
    elements: list[SetExpr] = [EMPTY]
    elements += [Braced(atoms[0].atom, 1) for atoms in members[1 : n + 1]]
    elements += map(SetOf, members[n + 1 :], texts[n + 1 :])
    return FuzzySet(base.universe, tuple(zip(elements, products)))


def verify_power_cardinality(
    base: FuzzySet, tol: float = 1e-9, cap: int = POWER_SET_CAP
) -> VerificationReport:
    """Check card(power set) against 2^card(base).

    The power set's cardinality is the correctly rounded sum of the 2^n
    subset products, formed by doubling a list of products once per
    factor; the listing itself is never built. Each product is the
    left-to-right product fuzzy_power_set gives its subset, and fsum
    does not depend on the order of its terms, so the result equals the
    sum over the listing bit for bit.
    """
    _, factors = _power_factors(base, cap)
    products = [1.0]
    for f in factors:
        products += [p * f for p in products]
    computed = math.fsum(products)
    expected = 2.0 ** scalar_cardinality(base)
    return VerificationReport.check(
        "power-set cardinality law", computed, expected, tol
    )


def verify_classical_degeneracy(
    base: FuzzySet, probe_exprs: Iterable[SetExpr]
) -> VerificationReport:
    """Check that a 0/1-valued base propagates to 0/1 values exactly.

    A probe's expected value is 1 when it contains no membership-0 atom
    (the empty set included), else 0. The report's computed field is the
    largest deviation from that indicator over all probes, and the
    tolerance is zero: pass means bit-exact classical behavior.
    """
    for expr, mu in base.elements:
        if mu != 0.0 and mu != 1.0:
            raise DomainError(
                f"base is not classical: mu({print_expr(expr)}) = {mu!r}"
            )
    zero_atoms = {
        expr.atom
        for expr, mu in base.elements
        if isinstance(expr, Braced) and expr.level == 0 and mu == 0.0
    }
    memberships = _Propagation(base)
    worst = 0.0
    for probe in probe_exprs:
        e = normalize(probe)
        if not in_superstructure(e, base.universe):
            raise UniverseError(
                f"{print_expr(e)} uses atoms outside the universe"
            )
        value = memberships.membership(e)
        expected = 0.0 if any(a in zero_atoms for a in atoms_of(e)) else 1.0
        worst = max(worst, abs(value - expected))
    return VerificationReport.check("classical degeneracy", worst, 0.0, 0.0)


# ------------------------------------------------------------------- JSON


def fuzzyset_to_json(fs: FuzzySet) -> str:
    """Serialize with 17 significant digits so values survive round trips.

    Each text is escaped as json.dumps escapes a str with its default
    arguments (encode_basestring_ascii), once per row.
    """
    atoms = ",".join(map(encode_basestring_ascii, fs.universe.atoms))
    rows = ",".join([
        '{"expr":%s,"mu":%s}'
        % (encode_basestring_ascii(print_expr(expr)), format(mu, ".17g"))
        for expr, mu in fs.elements
    ])
    return '{"atoms":[%s],"elements":[%s]}' % (atoms, rows)


def fuzzyset_from_json(text: str) -> FuzzySet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        offset = len(text[: ex.pos].encode("utf-8")) if ex.pos is not None else 0
        raise ParseError(f"invalid JSON: {ex.msg}", offset) from None
    if not isinstance(doc, dict):
        raise ParseError("fuzzy set JSON must be an object", 0)
    atoms = doc.get("atoms")
    rows = doc.get("elements")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ParseError('"atoms" must be a list of names', 0)
    if not isinstance(rows, list):
        raise ParseError('"elements" must be a list', 0)
    pairs: list[tuple[SetExpr, float]] = []
    for row in rows:
        if not isinstance(row, dict) or "expr" not in row or "mu" not in row:
            raise ParseError('each element needs "expr" and "mu"', 0)
        mu = row["mu"]
        if (
            not isinstance(row["expr"], str)
            or not isinstance(mu, (int, float))
            or isinstance(mu, bool)
        ):
            raise ParseError('"expr" must be text and "mu" a number', 0)
        expr = parse_expr(row["expr"])
        try:
            mu = float(mu)
        except OverflowError:  # an integer beyond the float range
            raise ParseError(
                '"mu" is outside [0,1] and the float range', 0
            ) from None
        pairs.append((expr, mu))
    # parse_expr returns canonical expressions: no second normalize pass
    return FuzzySet._from_canonical(AtomUniverse(tuple(atoms)), pairs)
