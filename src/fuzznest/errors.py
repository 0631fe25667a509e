"""Exception types shared across the package.

Everything derives from FuzznestError so callers can catch the package's
failures in one clause; each class also subclasses the builtin that best
matches its meaning (ValueError for bad values, LookupError for lookups).

A message that shows a caller's value writes it with _shown, so an int
too long for repr does not turn the error into another one.
"""

from __future__ import annotations

__all__ = [
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
]


class FuzznestError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(FuzznestError, ValueError):
    """Malformed input text.

    `offset` is the byte offset (UTF-8) of the first offending character,
    or the text length when input ended too early.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class LevelError(FuzznestError, ValueError):
    """A level annotation applied where it cannot mean anything.

    A level belongs to an atom. Raised for ^(n) attached to a non-atom
    in source text, when a Braced node is built with a level that is not
    an int (a bool included) or over a set or the empty set (at any
    level), and for a level past the interpreter's int-to-text digit
    limit where it must be printed.
    """


class UniverseError(FuzznestError, ValueError):
    """An expression mentions atoms outside the declared universe."""


class MissingMembershipError(FuzznestError, LookupError):
    """An atom needed during propagation has no base membership."""


class DuplicateElementError(FuzznestError, ValueError):
    """Two element expressions normalize to the same canonical form."""


class CapExceededError(FuzznestError, ValueError):
    """A configured size cap would be exceeded (guards exponential work)."""


class IndexCapExceededError(CapExceededError):
    """The encoder's level-index search passed max_index."""


class DomainError(FuzznestError, ValueError):
    """Operation applied to a fuzzy set of the wrong kind."""


class RangeError(FuzznestError, ValueError):
    """Numeric argument outside its legal interval."""


class ConfigError(FuzznestError, ValueError):
    """Solver configuration invalid, or a solver invariant failed."""


class InvariantError(FuzznestError, ValueError):
    """A value violates its type's structural invariants."""


def _shown(value) -> str:
    """repr(value) for an error message, or, when repr raises because an
    int in it has more digits than sys.get_int_max_str_digits() lets it
    write, a stand-in that names value's type."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
