"""The fuzzy-set JSON writer as it stood before it escaped each text with
encode_basestring_ascii, frozen as a reference for equivalence tests.

One ``json.dumps`` call per row on the text of the recursive printer of
legacy_set_expr.py, which ignores any text a set carries. Recursion-bound:
use on shallow trees only.
"""

from __future__ import annotations

import json

from fuzznest import FuzzySet

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
