"""Fuzzy sets over nested-set universes.

Three layers:

* set_expr: hereditarily finite set expressions with integer brace
  levels, parsing, printing, canonicalization.
* fuzzy_core: fuzzy sets over those expressions, membership propagation,
  fuzzy power sets, and the card(P(A)) = 2^card(A) check.
* seq_codec: binary sequences with the index-0 bar marker, the level
  maps u_k, and encoding/decoding between sequences and membership
  values: decode solves G(t) = 1 by safeguarded Newton, encode picks
  bits greedily.
"""

from . import errors, fuzzy_core, seq_codec, set_expr
from .errors import *
from .fuzzy_core import *
from .seq_codec import *
from .set_expr import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *set_expr.__all__,
    *fuzzy_core.__all__,
    *seq_codec.__all__,
]
