"""The power-set algorithms as they stood before prefix extension and the
subset-product check, frozen as a reference for equivalence tests.

``fuzzy_power_set`` forms every subset with ``itertools.combinations``
and its membership with ``math.prod``; ``verify_power_cardinality`` sums
the memberships of that whole listing. ``powerset_output`` is the text
that ``fuzznest powerset --verify`` wrote to stdout, with the recursive
printer of legacy_set_expr.py. Exponential in the atom count: use on
small bases only. Node classes, FuzzySet and the errors are the
package's own, so results compare with ``==``.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

from fuzznest import (
    EMPTY,
    Braced,
    CapExceededError,
    DomainError,
    FuzzySet,
    SetExpr,
    SetOf,
    VerificationReport,
    scalar_cardinality,
)
from fuzznest.fuzzy_core import POWER_SET_CAP

import legacy_set_expr


def _require_flat(base: FuzzySet) -> dict[str, float]:
    """Membership by atom name, or DomainError if base is not flat."""
    expected = {Braced(name, 0) for name in base.universe.atoms}
    actual = [expr for expr, _ in base.elements]
    if len(actual) != len(expected) or set(actual) != expected:
        raise DomainError(
            "operation needs a flat fuzzy set: exactly the universe atoms "
            "at level 0, nothing else"
        )
    return {expr.atom: mu for expr, mu in base.elements}


def fuzzy_power_set(base: FuzzySet, cap: int = POWER_SET_CAP) -> FuzzySet:
    """Fuzzy set over all 2^n subsets of a flat base's universe."""
    mu_by_name = _require_flat(base)
    n = len(base.universe.atoms)
    if n > cap:
        raise CapExceededError(
            f"{n} atoms would enumerate 2^{n} subsets (cap is {cap})"
        )
    names = sorted(base.universe.atoms)
    factor = {name: 2.0 ** mu_by_name[name] - 1.0 for name in names}
    level0 = {name: Braced(name, 0) for name in names}

    elements: list[tuple[SetExpr, float]] = [(EMPTY, 1.0)]
    for size in range(1, n + 1):
        for combo in combinations(names, size):
            mu = math.prod(factor[name] for name in combo)
            if size == 1:
                expr: SetExpr = Braced(combo[0], 1)
            else:
                expr = SetOf(tuple(level0[name] for name in combo))
            elements.append((expr, mu))
    return FuzzySet(base.universe, tuple(elements))


def verify_power_cardinality(
    base: FuzzySet, tol: float = 1e-9, cap: int = POWER_SET_CAP
) -> VerificationReport:
    """Check card(power set) against 2^card(base) over the whole listing."""
    computed = scalar_cardinality(fuzzy_power_set(base, cap=cap))
    expected = 2.0 ** scalar_cardinality(base)
    return VerificationReport(
        "power-set cardinality law", computed, expected, tol
    )


# ------------------------------------------------------------ CLI output


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in rows) + 2
    return "\n".join(f"{label:<{width}}{value}" for label, value in rows)


def powerset_output(
    base: FuzzySet, tol: float, cap: int, as_json: bool
) -> tuple[str, int]:
    """stdout and exit status of ``fuzznest powerset --verify`` at the
    default precision, on a base it could read."""
    power = fuzzy_power_set(base, cap=cap)
    computed = scalar_cardinality(power)
    expected = 2.0 ** scalar_cardinality(base)
    report = VerificationReport(
        "power-set cardinality law", computed, expected, tol
    )
    print_expr = legacy_set_expr.print_expr
    if as_json:
        out = {
            "elements": [
                {"expr": print_expr(e), "mu": mu} for e, mu in power.elements
            ],
            "report": {
                "label": report.label,
                "computed": report.computed,
                "expected": report.expected,
                "abs_diff": report.abs_diff,
                "tolerance": report.tolerance,
                "pass": report.passed,
            },
        }
        text = json.dumps(out) + "\n"
    else:
        rows = [(print_expr(e), _fmt(mu, 6)) for e, mu in power.elements]
        verdict = "PASS" if report.passed else "FAIL"
        text = "\n".join([
            _table(rows),
            _table([
                ("computed", _fmt(report.computed, 6)),
                ("expected", _fmt(report.expected, 6)),
                ("abs diff", f"{report.abs_diff:.3e}"),
            ]),
            f"{verdict} (tol {report.tolerance:g})\n",
        ])
    return text, 0 if report.passed else 1
