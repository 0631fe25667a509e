"""Membership propagation as it stood before each atom's levels were read
from per-call ladders, frozen as a reference for equivalence tests.

Every braced atom looks its base membership up in the table and applies
level_value from scratch. Node classes, errors and level_value are the
package's own, so results compare bit for bit.
"""

from __future__ import annotations

from typing import Mapping

from fuzznest import Braced, Empty, FuzzySet, MissingMembershipError, SetExpr, SetOf
from fuzznest._kernels import level_value


def lookup_table(base: FuzzySet) -> tuple[dict[SetExpr, float], bool]:
    """The base's membership table, and whether it lists any set."""
    table = base.membership_table()
    return table, any(isinstance(e, SetOf) for e in table)


def propagate(table: Mapping[SetExpr, float], sets_listed: bool, y: SetExpr) -> float:
    """Membership of a canonical y: the empty set 1, a listed element its
    stored value, a braced atom its level map, a set the product of
    (2^mu - 1) over its members, taken left to right."""
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
            continue
        if isinstance(x, Empty):
            values.append(1.0)
            continue
        stored = table.get(x) if sets_listed or not isinstance(x, SetOf) else None
        if stored is not None:
            values.append(stored)
        elif isinstance(x, Braced):
            base = table.get(Braced(x.atom, 0))
            if base is None:
                raise MissingMembershipError(
                    f"atom {x.atom!r} has no base membership"
                )
            values.append(level_value(base, x.level))
        else:
            todo.append(len(x.elements))
            todo.extend(reversed(x.elements))
    return values[0]
