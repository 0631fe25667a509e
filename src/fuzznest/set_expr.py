"""Hereditarily finite set expressions over named atoms.

An expression is one of three immutable node kinds:

* ``Empty()``            the empty set
* ``Braced(atom, n)``    the atom wrapped in n braces; n may be negative
                         (formal unbracing), n = 0 is the bare atom
* ``SetOf(elements)``    a finite set of expressions

Canonical form rules:

* a SetOf never has exactly one element that is a Braced node (such a
  singleton is folded into the Braced level),
* SetOf elements are pairwise distinct and sorted by (structural depth,
  printed form),
* Braced.atom is an atom name; Braced over a subexpression only appears
  as normalize() input.

``parse_expr`` and ``normalize`` always return canonical expressions, so
equal sets compare equal with ``==``. Both canonicalize in one pass that
carries each subtree's depth and printed form up to its parent, and
like the printer they walk trees with explicit stacks, not recursion.

A SetOf may carry its printed form in ``text``, which ``print_expr``
then returns without walking the set. Only a producer that has the text
at hand anyway fills it: the power-set listing of ``fuzzy_core`` builds
each subset's text from its prefix's. ``parse_expr`` and ``normalize``
leave it empty. Kept on every node of a chain of depth d, the texts
would hold O(d^2) characters, while the canonicalizer holds each text
only until the parent's is formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Union

from .errors import InvariantError, LevelError, ParseError

__all__ = [
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
]


@dataclass(frozen=True, slots=True)
class Empty:
    def __str__(self) -> str:
        return print_expr(self)


@dataclass(frozen=True, slots=True)
class Braced:
    atom: Union[str, "SetExpr"]
    level: int

    def __str__(self) -> str:
        return print_expr(self)


@dataclass(frozen=True, slots=True)
class SetOf:
    """A finite set of expressions.

    ``text``, if given, must be what print_expr prints for this set; it
    is a cache and takes no part in ==, hash or repr.
    """

    elements: tuple["SetExpr", ...]
    text: str | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return print_expr(self)


SetExpr = Union[Empty, Braced, SetOf]

EMPTY = Empty()

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


@dataclass(frozen=True, slots=True)
class AtomUniverse:
    """Ordered finite collection of distinct atom names."""

    atoms: tuple[str, ...]
    # the names as a set, built once by __post_init__
    _names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for name in self.atoms:
            if not _is_identifier(name) or name == "empty":
                raise InvariantError(f"invalid atom name {name!r}")
            if name in seen:
                raise InvariantError(f"duplicate atom name {name!r}")
            seen.add(name)
        object.__setattr__(self, "_names", frozenset(seen))

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self.atoms)


def _is_identifier(name: str) -> bool:
    if not name or name[0] not in _IDENT_START:
        return False
    return all(c in _IDENT_CONT for c in name[1:])


def _post_order(e: SetExpr) -> list:
    """Every node of e, children before their parent, left before right.

    Iterative, so nesting depth is bounded by memory, not by the
    interpreter's recursion limit. Braced-over-subexpression nodes are
    walked into; anything that is not a node is returned as a leaf.
    """
    # visiting children right to left and reversing the visit order
    # gives left-to-right post-order
    order = []
    todo = [e]
    while todo:
        x = todo.pop()
        order.append(x)
        if isinstance(x, SetOf):
            todo.extend(x.elements)
        elif isinstance(x, Braced) and not isinstance(x.atom, str):
            todo.append(x.atom)
    order.reverse()
    return order


def structural_depth(e: SetExpr) -> int:
    """Nesting depth used for canonical ordering.

    The depth of a level-annotated atom is its signed level, so formally
    unbraced atoms sort before bare atoms, which sort before braced ones.
    """
    depths: list[int] = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            if isinstance(x.atom, str):
                depths.append(x.level)
            else:
                depths[-1] += x.level
        elif isinstance(x, Empty):
            depths.append(0)
        else:
            n = len(x.elements)
            deepest = 0
            if n:
                deepest = max(depths[-n:])
                del depths[-n:]
            depths.append(deepest + 1)
    return depths[0]


# ---------------------------------------------------------------- printing


def _braced_text(atom: str, level: int) -> str:
    if level == 0:
        return atom
    if level == 1:
        return "{%s}" % atom
    return "{%s}^(%d)" % (atom, level)


def print_expr(e: SetExpr) -> str:
    """Render a canonical expression.

    Levels 0 and 1 use the bare name and literal braces; every other
    level (including negatives) uses the ^(n) notation. A set that
    carries its text returns it without being walked.
    """
    if isinstance(e, Braced) and isinstance(e.atom, str):
        return _braced_text(e.atom, e.level)
    if isinstance(e, SetOf):
        if e.text is not None:
            return e.text
        # a set of braced atoms, such as every power-set subset, prints
        # in one join; a bare atom (level 0) needs no call
        texts = []
        for x in e.elements:
            if not (isinstance(x, Braced) and isinstance(x.atom, str)):
                break
            level = x.level
            texts.append(x.atom if level == 0 else _braced_text(x.atom, level))
        else:
            return "{" + ",".join(texts) + "}"
    parts: list[str] = []
    frames = [iter((e,))]  # the root, then one iterator per open set
    while frames:
        for x in frames[-1]:
            if isinstance(x, Braced):
                if not isinstance(x.atom, str):
                    raise InvariantError(
                        "cannot print a non-canonical braced expression"
                    )
                parts.append(_braced_text(x.atom, x.level))
            elif isinstance(x, Empty):
                parts.append("∅")
            else:
                parts.append("{")
                frames.append(iter(x.elements))
                break
            parts.append(",")
        else:
            frames.pop()
            if frames:
                # the closing brace takes the place of the last comma
                if parts[-1] == ",":
                    parts[-1] = "}"
                else:
                    parts.append("}")
                parts.append(",")
    parts.pop()
    return "".join(parts)


# ------------------------------------------------------------- normalizing

# The canonicalizer carries each canonical subtree as an item
# (node, structural depth, printed form), computed once from the items of
# its children. Distinct canonical trees print differently, so a set
# deduplicates its members by text and sorts them by (depth, text)
# without walking, printing or comparing any subtree again.

_Item = tuple[SetExpr, int, str]

_EMPTY_ITEM: _Item = (EMPTY, 0, "∅")
_depth_and_text = itemgetter(1, 2)


def _braced_item(atom: str, level: int) -> _Item:
    return (Braced(atom, level), level, _braced_text(atom, level))


def _set_item(items: list[_Item]) -> _Item:
    """The canonical set of canonical items: dedup, fold, sort."""
    if len(items) > 1:
        items = list({item[2]: item for item in items}.values())
    if not items:
        return _EMPTY_ITEM
    if len(items) == 1:
        node, depth, text = items[0]
        if isinstance(node, Braced):
            return _braced_item(node.atom, node.level + 1)
        return (SetOf((node,)), depth + 1, "{%s}" % text)
    items.sort(key=_depth_and_text)
    return (
        SetOf(tuple([item[0] for item in items])),
        items[-1][1] + 1,
        "{%s}" % ",".join([item[2] for item in items]),
    )


def _braced_over(inner: _Item, level: int) -> _Item:
    """The canonical item of `level` braces around a canonical item."""
    node, depth, text = inner
    if isinstance(node, Braced):
        return _braced_item(node.atom, node.level + level)
    if level < 0:
        kind = "the empty set" if isinstance(node, Empty) else "a set"
        raise LevelError(f"negative level {level} applied to {kind}")
    for _ in range(level):
        node = SetOf((node,))
    return (node, depth + level, "{" * level + text + "}" * level)


def normalize(e: SetExpr) -> SetExpr:
    """Canonicalize an expression; idempotent.

    Collapses Braced-over-Braced by adding levels, folds a singleton set
    of a Braced node into the level, deduplicates and sorts set elements.
    Raises LevelError when a negative level is attached to a set or to
    the empty set, since those cannot denote anything. One iterative
    post-order pass builds each subtree's depth and printed form once,
    from those of its members.
    """
    if isinstance(e, Braced) and isinstance(e.atom, str):
        return e
    items: list[_Item] = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            if isinstance(x.atom, str):
                items.append((x, x.level, _braced_text(x.atom, x.level)))
            else:
                items[-1] = _braced_over(items[-1], x.level)
        elif isinstance(x, SetOf):
            n = len(x.elements)
            members = items[len(items) - n:]
            del items[len(items) - n:]
            items.append(_set_item(members))
        elif isinstance(x, Empty):
            items.append(_EMPTY_ITEM)
        else:
            raise TypeError(f"not a set expression: {x!r}")
    return items[0][0]


# ----------------------------------------------------------------- parsing

# One token per match, leading whitespace skipped: a braced atom, else an
# identifier, a signed integer, or any other single non-space character.
# A braced atom token is what would otherwise be the tokens "{" ATOM "}"
# and, if present, "^" "(" INT ")": its atom is not "empty", and no
# further "^" follows it. Every other input, malformed ones included, is
# read token by token, so each error keeps its message and offset.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(
    r"\s*(\{\s*(?!empty\s*\})%s\s*\}(?:\s*\^\s*\(\s*[+-]?\d+\s*\))?(?!\s*\^)"
    r"|%s|[+-]?\d+|\S)" % (_IDENT, _IDENT)
)
_INTEGER = re.compile(r"[+-]?\d+")


def _byte_offset(text: str, token: int, shift: int = 0) -> int:
    """UTF-8 offset of a token's start (shifted by `shift` characters),
    or of the end of the text for the end-of-input token."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    at = starts[token] + shift if token < len(starts) else len(text)
    return len(text[:at].encode("utf-8"))


def _fail(text: str, token: int, message: str, shift: int = 0) -> ParseError:
    return ParseError(message, _byte_offset(text, token, shift))


def _level_misuse(text: str, token: int) -> LevelError:
    return LevelError(
        "level annotation ^(n) is only valid on a braced atom "
        f"(at byte offset {_byte_offset(text, token)})"
    )


def _level(text: str, tokens: list[str], i: int) -> tuple[int, int]:
    """Read "(" INT ")" from token i on; return the level and the next token."""
    if tokens[i] != "(":
        raise _fail(text, i, "expected '('")
    tok = tokens[i + 1]
    if not _INTEGER.fullmatch(tok):
        # a lone sign is consumed before the digits are missed
        shift = 1 if tok in ("+", "-") else 0
        raise _fail(text, i + 1, "expected an integer level", shift)
    if tokens[i + 2] != ")":
        raise _fail(text, i + 2, "expected ')'")
    return int(tok), i + 3


def parse_expr(text: str) -> SetExpr:
    """Parse expression text to its canonical SetExpr.

    Accepts "∅" and "empty" for the empty set. Raises ParseError with a
    byte offset on malformed input, LevelError when ^(n) is attached to
    anything but a braced atom.

    Grammar:  expr := "∅" | "empty" | ATOM | "{" ATOM "}" "^" "(" INT ")"
                    | "{" [expr ("," expr)*] "}"

    An iterative loop over the tokens with an explicit stack of open
    braces; each closing brace canonicalizes its set from the items of
    its members, so the result needs no further normalize pass. A braced
    atom, "{a}" or "{a}^(n)" with any whitespace the grammar allows, is
    a single token and becomes its item in one step; a unit at level 0
    is read as the bare atom it denotes, so "{{a}^(0)}^(3)" is "{a}^(3)".
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input
    frames: list[list[_Item]] = []  # the items read so far, per open brace
    # per open brace: its last item was a bare atom or {a}^(0), the only
    # single member a level annotation may follow
    atom_last: list[bool] = []
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "{":
            frames.append([])
            atom_last.append(False)
            if tokens[i] != "}":
                continue
            item = None
        elif tok == "∅" or tok == "empty":
            if tokens[i] == "^":
                raise _level_misuse(text, i)
            item, atom = _EMPTY_ITEM, False
        elif tok and tok[0] in _IDENT_START:
            if tokens[i] == "^":
                raise _level_misuse(text, i)
            item, atom = (Braced(tok, 0), 0, tok), True
        elif tok[:1] == "{":
            # a braced atom: "{" NAME "}", then "^(" INT ")" or nothing
            name, _, level = tok[1:].partition("}")
            name = name.strip()
            if level:
                # int() skips the whitespace around the integer
                level = int(level.partition("(")[2][:-1])
                item, atom = _braced_item(name, level), level == 0
            else:
                item, atom = _braced_item(name, 1), False
        elif tok:
            raise _fail(text, i - 1, f"unexpected character {tok[0]!r}")
        else:
            raise _fail(text, i - 1, "unexpected end of input")
        while frames:
            items = frames[-1]
            if item is not None:
                items.append(item)
                atom_last[-1] = atom
                if tokens[i] == ",":
                    i += 1
                    break
                if tokens[i] != "}":
                    raise _fail(text, i, "expected '}'")
            i += 1
            frames.pop()
            single_atom = atom_last.pop() and len(items) == 1
            if tokens[i] == "^":
                if not single_atom:
                    raise _level_misuse(text, i)
                level, i = _level(text, tokens, i + 1)
                item, atom = _braced_item(items[0][0].atom, level), level == 0
            else:
                item, atom = _set_item(items), False
        else:
            if tokens[i]:
                raise _fail(text, i, "unexpected trailing input")
            return item[0]


# --------------------------------------------------------------- universe


def atoms_of(e: SetExpr) -> Iterator[str]:
    """Yield every atom name occurring in the expression (with repeats)."""
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Braced):
            if isinstance(x.atom, str):
                yield x.atom
            else:
                todo.append(x.atom)
        elif isinstance(x, SetOf):
            todo.extend(reversed(x.elements))


def in_superstructure(e: SetExpr, universe: AtomUniverse) -> bool:
    """True iff every atom named in e belongs to the universe.

    Braced nodes with any integer level count as members as long as
    their atom does.
    """
    names = universe._names
    return all(a in names for a in atoms_of(e))
