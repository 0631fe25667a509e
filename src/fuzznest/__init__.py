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

from .errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    DuplicateElementError,
    FuzznestError,
    IndexCapExceededError,
    InvariantError,
    LevelError,
    MissingMembershipError,
    ParseError,
    RangeError,
    UniverseError,
)
from .fuzzy_core import (
    POWER_SET_CAP,
    FuzzySet,
    VerificationReport,
    construct_fuzzy_set,
    fuzzy_power_set,
    fuzzyset_from_json,
    fuzzyset_to_json,
    propagate_membership,
    scalar_cardinality,
    verify_classical_degeneracy,
    verify_power_cardinality,
)
from .seq_codec import (
    DEFAULT_CONFIG,
    BinarySequence,
    SolverConfig,
    decode,
    encode,
    expand_to_fuzzy,
    iterate_level,
    parse_sequence,
    print_sequence,
    sequence_from_json,
    sequence_to_json,
    sequence_to_universe,
    series_cardinality,
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
    structural_depth,
)

__version__ = "0.1.0"


__all__ = [
    "__version__",
    # errors
    "FuzznestError",
    "ParseError",
    "LevelError",
    "UniverseError",
    "MissingMembershipError",
    "DuplicateElementError",
    "CapExceededError",
    "IndexCapExceededError",
    "DomainError",
    "RangeError",
    "ConfigError",
    "InvariantError",
    # set_expr
    "Empty",
    "Braced",
    "SetOf",
    "SetExpr",
    "EMPTY",
    "AtomUniverse",
    "parse_expr",
    "print_expr",
    "normalize",
    "in_superstructure",
    "atoms_of",
    "structural_depth",
    # fuzzy_core
    "FuzzySet",
    "VerificationReport",
    "POWER_SET_CAP",
    "scalar_cardinality",
    "propagate_membership",
    "construct_fuzzy_set",
    "fuzzy_power_set",
    "verify_power_cardinality",
    "verify_classical_degeneracy",
    "fuzzyset_to_json",
    "fuzzyset_from_json",
    # seq_codec
    "BinarySequence",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "iterate_level",
    "sequence_to_universe",
    "series_cardinality",
    "decode",
    "encode",
    "expand_to_fuzzy",
    "parse_sequence",
    "print_sequence",
    "sequence_to_json",
    "sequence_from_json",
]
