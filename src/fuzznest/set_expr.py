"""Hereditarily finite set expressions over named atoms.

An expression is one of three immutable node kinds:

* ``Empty()``            the empty set
* ``Braced(atom, n)``    the atom name wrapped in n braces; n may be
                         negative (formal unbracing), n = 0 is the bare
                         atom
* ``SetOf(elements)``    a finite set of expressions

Canonical form rules:

* a SetOf never has exactly one element that is a Braced node (such a
  singleton is folded into the Braced level),
* SetOf elements are pairwise distinct and sorted by (structural depth,
  printed form),
* Braced.atom is an atom name: a level belongs to an atom, as in the
  text grammar, and a set is wrapped by nesting SetOf nodes. Braced
  makes this so when it is built, the one place that asks what a Braced
  wraps: over a Braced it folds, adding the levels, and over a set or ∅
  it raises LevelError at every level, 0 included.

``parse_expr`` and ``normalize`` always return canonical expressions, so
equal sets compare equal with ``==``. Both canonicalize in one pass that
carries each subtree's depth and printed form up to its parent. Every
tree walk here is ``_post_order``'s explicit stack, not recursion.

Distinct canonical trees print differently, so the printed form is the
package's one identity rule: a set deduplicates its members by it, and
``fuzzy_core`` tells elements apart by it, taking each element's text
from the pass that canonicalizes it. No library call compares or hashes
a node; ``==``, ``hash`` and ``repr`` keep the dataclass-generated
meaning, but read one walk of each tree, as pickling and ``copy`` do, so
they hold at any depth.

Every node is well formed when it is built, so no walk checks one
again: SetOf refuses a member that is not a node with TypeError, and
Braced a level that is not an ``int`` (a bool included) with
LevelError, before it looks at what it wraps, and a str that is not an
atom name with InvariantError, as AtomUniverse does. So every node
prints as text that parses back to it. Printing a level of more
digits than ``sys.get_int_max_str_digits()`` lets an int be written in
raises LevelError.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
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


class _Node:
    """What the node kinds share: str is the printed form, and ``==``,
    ``hash``, ``repr``, pickling and ``copy`` read one walk of each
    tree, so they hold at any depth."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_expr(self)

    def __repr__(self) -> str:
        return _repr(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _shape(self) == _shape(other)

    def __hash__(self) -> int:
        return hash(_shape(self))

    def __reduce__(self):
        return (_from_shape, (_shape(self),))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Empty(_Node):
    """The empty set."""


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Braced(_Node):
    """The atom wrapped in level braces: a level belongs to an atom.

    The level is checked first: one that is not an int (a bool included)
    raises LevelError, whatever is wrapped. A str atom must be an atom
    name (see _is_name), else InvariantError. Built over a Braced node, it
    folds into that node's atom, the levels added: so
    Braced(Braced(a, m), n) is Braced(a, m + n), and every Braced holds
    a str atom and an int level. Built over a set or ∅, at any level, it
    raises LevelError (nest SetOf nodes to wrap a set); over anything
    else, TypeError.
    """

    atom: str
    level: int

    def __post_init__(self):
        if type(self.level) is not int:
            raise LevelError(f"level must be an integer, got {self.level!r}")
        if isinstance(self.atom, str):
            if not _is_name(self.atom):
                raise InvariantError(f"invalid atom name {self.atom!r}")
            return
        if isinstance(self.atom, Braced):
            object.__setattr__(self, "level", self.atom.level + self.level)
            object.__setattr__(self, "atom", self.atom.atom)
        elif isinstance(self.atom, (SetOf, Empty)):
            kind = "the empty set" if isinstance(self.atom, Empty) else "a set"
            raise LevelError(f"a level belongs to an atom, not to {kind}")
        else:
            raise _not_a_node(self.atom)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class SetOf(_Node):
    """A finite set of expressions.

    ``elements`` may be given as any iterable of nodes and is stored as
    a tuple; a member that is not a node raises TypeError.
    """

    elements: tuple["SetExpr", ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for x in self.elements:
            if not isinstance(x, _Node):
                raise _not_a_node(x)


SetExpr = Union[Empty, Braced, SetOf]

EMPTY = Empty()

# an identifier, as the tokenizer reads it
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _is_name(s: str) -> bool:
    """s is an atom name, as Braced and AtomUniverse check it: an
    identifier the tokenizer reads (on a str, isascii and isidentifier
    are exactly _IDENT), and not ``empty``, which the parser reads as ∅."""
    return s.isascii() and s.isidentifier() and s != "empty"


@dataclass(frozen=True, slots=True)
class AtomUniverse:
    """Ordered finite collection of distinct atom names.

    ``atoms`` may be given as any iterable of names but a bare str, and
    is stored as a tuple; anything else raises InvariantError.
    """

    atoms: tuple[str, ...]
    # the names as a set, built once by __post_init__
    _names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.atoms, str) or not isinstance(self.atoms, Iterable):
            raise InvariantError(
                f"atoms must be a collection of names, not {self.atoms!r}"
            )
        object.__setattr__(self, "atoms", tuple(self.atoms))
        seen = set()
        for name in self.atoms:
            if not (isinstance(name, str) and _is_name(name)):
                raise InvariantError(f"invalid atom name {name!r}")
            if name in seen:
                raise InvariantError(f"duplicate atom name {name!r}")
            seen.add(name)
        object.__setattr__(self, "_names", frozenset(seen))

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self.atoms)


def _post_order(e: SetExpr) -> list:
    """Every node of e, children before their parent, left before right.

    Iterative, so nesting depth is bounded by memory, not by the
    interpreter's recursion limit. Every walk starts here, so this is
    where a root that is not a node raises TypeError; a node's members
    were checked when it was built.
    """
    if not isinstance(e, _Node):
        raise _not_a_node(e)
    # visiting children right to left and reversing the visit order
    # gives left-to-right post-order
    order = []
    todo = [e]
    while todo:
        x = todo.pop()
        order.append(x)
        if isinstance(x, SetOf):
            todo.extend(x.elements)
    order.reverse()
    return order


def _not_a_node(x) -> TypeError:
    return TypeError(f"not a set expression: {x!r}")


def _shape(e: SetExpr) -> tuple:
    """Each node of e in post-order as its kind and own fields, a set's
    members as their count."""
    shape = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            shape.append((Braced, x.atom, x.level))
        elif isinstance(x, SetOf):
            shape.append((SetOf, len(x.elements)))
        else:
            shape.append((Empty,))
    return tuple(shape)


def _from_shape(shape: tuple) -> SetExpr:
    """The tree whose _shape is shape; pickle and copy rebuild nodes with
    it. A set's members come back as a tuple."""
    stack: list = []
    for kind, *fields in shape:
        if kind is Braced:
            stack.append(Braced(*fields))
        elif kind is SetOf:
            n = len(stack) - fields[0]
            stack[n:] = [SetOf(tuple(stack[n:]))]
        else:
            stack.append(EMPTY)
    return stack[0]


def _repr(e: SetExpr) -> str:
    """The dataclass-generated repr of e, a set's members written as a
    tuple, carried up one post-order walk as print_expr carries text."""
    texts: list[str] = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            texts.append(f"Braced(atom={x.atom!r}, level={x.level!r})")
        elif isinstance(x, SetOf):
            n = len(texts) - len(x.elements)
            members = ", ".join(texts[n:]) + ("," if len(x.elements) == 1 else "")
            texts[n:] = [f"SetOf(elements=({members}))"]
        else:
            texts.append("Empty()")
    return texts[0]


def structural_depth(e: SetExpr) -> int:
    """Nesting depth used for canonical ordering.

    The depth of a level-annotated atom is its signed level, so formally
    unbraced atoms sort before bare atoms, which sort before braced ones.
    """
    depths: list[int] = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            depths.append(x.level)
        elif isinstance(x, SetOf):
            n = len(x.elements)
            deepest = 0
            if n:
                deepest = max(depths[-n:])
                del depths[-n:]
            depths.append(deepest + 1)
        else:
            depths.append(0)
    return depths[0]


# ---------------------------------------------------------------- printing


def _braced_text(atom: str, level: int) -> str:
    if level == 0:
        return atom
    if level == 1:
        return "{%s}" % atom
    try:
        return "{%s}^(%d)" % (atom, level)
    except ValueError:  # past the interpreter's int-to-text digit limit
        raise LevelError(f"level of {atom!r} has too many digits to print") from None


def print_expr(e: SetExpr) -> str:
    """Render a canonical expression, a set's members in the order given.

    Levels 0 and 1 use the bare name and literal braces; every other
    level (including negatives) uses the ^(n) notation. Like the
    canonical pass, one post-order walk carries each subtree's text up.
    """
    texts: list[str] = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            texts.append(_braced_text(x.atom, x.level))
        elif isinstance(x, SetOf):
            # the set's text takes the place of its members' texts
            n = len(texts) - len(x.elements)
            texts[n:] = ["{%s}" % ",".join(texts[n:])]
        else:
            texts.append("∅")
    return texts[0]


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


def normalize(e: SetExpr) -> SetExpr:
    """Canonicalize an expression; idempotent.

    Folds a singleton set of a Braced node into the level, deduplicates
    and sorts set elements; a Braced node is canonical as built (Braced
    folds one over a Braced and refuses one over a set). Every node was
    checked when it was built, so only a root that is not a node raises
    here (TypeError). One iterative post-order pass builds each
    subtree's depth and printed form once, from those of its members.
    """
    return _canonical(e)[0]


def _canonical(e: SetExpr, made: Callable[[_Item], None] | None = None) -> _Item:
    """The item of normalize(e): the canonical node, its depth and text.

    A Braced node is its own canonical node, and its level its depth.
    made(item), if given, sees each item made, members before their set.
    """
    items: list[_Item] = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            item = (x, x.level, _braced_text(x.atom, x.level))
        elif isinstance(x, SetOf):
            n = len(x.elements)
            members = items[len(items) - n:]
            del items[len(items) - n:]
            item = _set_item(members)
        else:
            item = _EMPTY_ITEM
        items.append(item)
        if made is not None:
            made(item)
    return items[0]


# ----------------------------------------------------------------- parsing

# One token per match, leading whitespace skipped: a braced atom, else an
# identifier, a signed integer, or any other single non-space character.
# A braced atom token is what would otherwise be the tokens "{" ATOM "}"
# and, if present, "^" "(" INT ")": its atom is not "empty", and no
# further "^" follows it. Every other input, malformed ones included, is
# read token by token, so each error keeps its message and offset.
_TOKEN = re.compile(
    r"\s*(\{\s*(?!empty\s*\})%s\s*\}(?:\s*\^\s*\(\s*[+-]?\d+\s*\))?(?!\s*\^)"
    r"|%s|[+-]?\d+|\S)" % (_IDENT, _IDENT)
)
_INTEGER = re.compile(r"[+-]?\d+")


def _byte_offset(pattern: re.Pattern, text: str, token: int, shift: int = 0) -> int:
    """UTF-8 offset where group 1 of the pattern's token-th match starts
    (plus `shift` characters), or of the text's end past the last match."""
    starts = [m.start(1) for m in pattern.finditer(text)]
    at = starts[token] + shift if token < len(starts) else len(text)
    return len(text[:at].encode("utf-8"))


def _fail(text: str, token: int, message: str, shift: int = 0) -> ParseError:
    return ParseError(message, _byte_offset(_TOKEN, text, token, shift))


def _level_misuse(text: str, token: int) -> LevelError:
    return LevelError(
        "level annotation ^(n) is only valid on a braced atom "
        f"(at byte offset {_byte_offset(_TOKEN, text, token)})"
    )


def _int_level(text: str, token: int, tok: str, digits: str) -> int:
    """int(digits) for the level that ends the token-th token, tok, or a
    ParseError at its sign or first digit past int()'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        shift = tok.rindex(digits.strip())
        raise _fail(text, token, "level has too many digits", shift) from None


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
    return _int_level(text, i + 1, tok, tok), i + 3


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
    return _parse(text, {})[0]


def _parse(text: str, leaves: dict[str, _Item]) -> _Item:
    """The item of parse_expr(text): the canonical node, its depth and text.

    leaves maps the text of each atom token read so far, a bare or a
    braced atom, to its item; a token found there reuses the item and
    its node. A caller that parses many texts passes one dict to all of
    them, so every distinct atom token becomes one node, shared by every
    tree that holds it, and the atoms of all the trees are the atoms of
    the dict's items.
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
            item = leaves.get(tok)
            if item is None:
                item = leaves[tok] = (Braced(tok, 0), 0, tok)
            atom = True
        elif tok[:1] == "{":
            # a braced atom: "{" NAME "}", then "^(" INT ")" or nothing
            item = leaves.get(tok)
            if item is None:
                name, _, level = tok[1:].partition("}")
                # int() skips the whitespace around the integer
                digits = level.partition("(")[2][:-1]
                level = _int_level(text, i - 1, tok, digits) if digits else 1
                item = leaves[tok] = _braced_item(name.strip(), level)
            atom = item[1] == 0  # a braced atom's depth is its level
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
            return item


# --------------------------------------------------------------- universe


def atoms_of(e: SetExpr) -> Iterator[str]:
    """Every atom name occurring in the expression, left to right, with
    repeats: the braced atoms of its post-order walk."""
    return iter([x.atom for x in _post_order(e) if isinstance(x, Braced)])


def in_superstructure(e: SetExpr, universe: AtomUniverse) -> bool:
    """True iff every atom named in e belongs to the universe.

    Braced nodes with any integer level count as members as long as
    their atom does.
    """
    names = universe._names
    return all(a in names for a in atoms_of(e))
