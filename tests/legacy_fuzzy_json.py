"""The fuzzy-set JSON writer as it stood before it escaped each text with
encode_basestring_ascii, and the reader as it stood before it shared
leaf nodes and checked the universe once per atom, frozen as references
for equivalence tests.

The writer makes one ``json.dumps`` call per row on the text of the
recursive printer of legacy_set_expr.py, which ignores any text a set
carries. Recursion-bound: use on shallow trees only.

The reader parses each row on its own, so every atom token becomes a
new node, and checks each element's membership, then walks it for
foreign atoms, then checks that its text is new.
"""

from __future__ import annotations

import json

from fuzznest import AtomUniverse, Empty, FuzzySet, in_superstructure, parse_expr
from fuzznest.errors import (
    DuplicateElementError,
    InvariantError,
    ParseError,
    UniverseError,
)

import legacy_set_expr


def fuzzyset_to_json(fs: FuzzySet) -> str:
    """Serialize with 17 significant digits so values survive round trips."""
    atoms = ",".join(json.dumps(name) for name in fs.universe.atoms)
    rows = ",".join(
        '{"expr":%s,"mu":%s}'
        % (json.dumps(legacy_set_expr.print_expr(expr)), format(mu, ".17g"))
        for expr, mu in fs.elements
    )
    return '{"atoms":[%s],"elements":[%s]}' % (atoms, rows)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def fuzzyset_from_json(text: str) -> FuzzySet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        offset = len(text[: ex.pos].encode("utf-8"))
        raise ParseError(f"invalid JSON: {ex.msg}", offset) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 0) from None
    if not isinstance(doc, dict):
        raise ParseError("fuzzy set JSON must be an object", 0)
    atoms = doc.get("atoms")
    rows = doc.get("elements")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ParseError('"atoms" must be a list of names', 0)
    if not isinstance(rows, list):
        raise ParseError('"elements" must be a list', 0)
    pairs = []
    for row in rows:
        if not isinstance(row, dict) or "expr" not in row or "mu" not in row:
            raise ParseError('each element needs "expr" and "mu"', 0)
        mu = row["mu"]
        if not isinstance(row["expr"], str) or not _is_number(mu):
            raise ParseError('"expr" must be text and "mu" a number', 0)
        e = parse_expr(row["expr"])
        try:
            mu = float(mu)
        except OverflowError:
            raise ParseError(
                '"mu" is outside [0,1] and the float range', 0
            ) from None
        pairs.append((e, mu))
    universe = AtomUniverse(tuple(atoms))
    seen = set()
    out = []
    for e, mu in pairs:
        text = legacy_set_expr.print_expr(e)
        if not (0 <= mu <= 1):
            raise InvariantError(f"membership {mu!r} for {text} is outside [0,1]")
        if isinstance(e, Empty) and mu != 1.0:
            raise InvariantError("the empty set must have membership 1")
        if not in_superstructure(e, universe):
            raise UniverseError(f"{text} uses atoms outside the universe")
        if text in seen:
            raise DuplicateElementError(f"duplicate element {text}")
        seen.add(text)
        out.append((e, mu))
    return __import__("helpers").trusted_fuzzy_set(universe, tuple(out))
