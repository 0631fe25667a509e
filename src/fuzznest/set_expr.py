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
carries each subtree up to its parent as an item ``(depth, text,
node)``. A set drops the items whose text it has seen, then sorts the
rest as they are: with every text distinct, comparing two items decides
on depth and text and never reaches a node, so deduplication must come
first. Every tree walk here is ``_post_order``'s explicit stack, not
recursion, and every value carried up a tree is ``_fold``'s: the one
pass from which the canonical pass, ``print_expr``, ``repr`` and
``structural_depth`` each take their value, given what an atom, a set
and ∅ are worth.

The parser reads a flat set of two or more atom tokens written with no
whitespace, "+" or leading zero (a power-set listing's ``{x1,x3,x7}``)
in one match and one split; every other text goes through its loop over
the tokens.

Distinct canonical trees print differently, so the printed form is the
package's one identity rule: a set deduplicates its members by it, and
``fuzzy_core`` tells elements apart by it, taking each element's text
from the pass that canonicalizes it. No library call compares or hashes
a node; ``==``, ``hash`` and ``repr`` keep the dataclass-generated
meaning, but read one walk of each tree, as pickling and ``copy`` do, so
they hold at any depth.

Every node is well formed when it is built, so no walk checks one
again. Braced and SetOf check in their own ``__init__``, which has the
dataclass signature and stores each field once, after its checks:
SetOf refuses a member that is not a node with TypeError, and Braced a
level that is not an ``int`` (a bool included) with LevelError, before
it looks at what it wraps, and a str that is not an atom name with
InvariantError, as AtomUniverse does. So every node prints as text that
parses back to it. Printing a level of more digits than
``sys.get_int_max_str_digits()`` lets an int be written in raises
LevelError.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import InvariantError, LevelError, ParseError, _shown

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


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
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

    def __init__(self, atom: str, level: int) -> None:
        if type(level) is not int:
            raise LevelError(f"level must be an integer, got {_shown(level)}")
        if isinstance(atom, str):
            if not _is_name(atom):
                raise InvariantError(f"invalid atom name {atom!r}")
        elif isinstance(atom, Braced):
            level = atom.level + level
            atom = atom.atom
        elif isinstance(atom, (SetOf, Empty)):
            kind = "the empty set" if isinstance(atom, Empty) else "a set"
            raise LevelError(f"a level belongs to an atom, not to {kind}")
        else:
            raise _not_a_node(atom)
        _set_atom(self, atom)
        _set_level(self, level)


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class SetOf(_Node):
    """A finite set of expressions.

    ``elements`` may be given as any iterable of nodes and is stored as
    a tuple; a member that is not a node raises TypeError.
    """

    elements: tuple["SetExpr", ...]

    def __init__(self, elements: tuple["SetExpr", ...]) -> None:
        elements = tuple(elements)
        for x in elements:
            if not isinstance(x, _Node):
                raise _not_a_node(x)
        _set_elements(self, elements)


# the slots' setters, by which each __init__ above stores a checked
# field once (the frozen nodes' own setattr refuses)
_set_atom = Braced.atom.__set__
_set_level = Braced.level.__set__
_set_elements = SetOf.elements.__set__


SetExpr = Union[Empty, Braced, SetOf]

EMPTY = Empty()

# an identifier, as the tokenizer reads it
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


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
                f"atoms must be a collection of names, not {_shown(self.atoms)}"
            )
        object.__setattr__(self, "atoms", tuple(self.atoms))
        seen = set()
        for name in self.atoms:
            if not (isinstance(name, str) and _is_name(name)):
                raise InvariantError(f"invalid atom name {_shown(name)}")
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
    return TypeError(f"not a set expression: {_shown(x)}")


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


def _fold(e: SetExpr, atom, members, empty, made=None):
    """The value of e, carried up one post-order walk: a Braced node x
    has atom(x), ∅ has empty, and a set has members(values), its
    members' values in order, which then take their place. made(value),
    if given, sees each value made, members before their set."""
    values: list = []
    for x in _post_order(e):
        if isinstance(x, Braced):
            value = atom(x)
        elif isinstance(x, SetOf):
            n = len(values) - len(x.elements)
            value = members(values[n:])
            del values[n:]
        else:
            value = empty
        values.append(value)
        if made is not None:
            made(value)
    return values[0]


def _repr(e: SetExpr) -> str:
    """The dataclass-generated repr of e, a set's members written as a
    tuple (a one-member tuple with its trailing comma)."""
    return _fold(
        e,
        lambda x: f"Braced(atom={x.atom!r}, level={x.level!r})",
        lambda texts: "SetOf(elements=(%s%s))"
        % (", ".join(texts), "," if len(texts) == 1 else ""),
        "Empty()",
    )


def structural_depth(e: SetExpr) -> int:
    """Nesting depth of the tree as given: a braced atom's depth is its
    signed level, ∅'s is 0, and a set's is one more than its deepest
    member's (1 with no members).

    For a canonical tree this is the depth the canonical pass sorts a
    set's members by, so formally unbraced atoms sort before bare atoms,
    which sort before braced ones. A raw tree is not normalized first:
    SetOf(()) has depth 1, though it normalizes to ∅ at depth 0.
    """
    return _fold(e, lambda x: x.level, lambda depths: max(depths, default=0) + 1, 0)


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


def _atom_text(x: Braced) -> str:
    return _braced_text(x.atom, x.level)


def print_expr(e: SetExpr) -> str:
    """Render a canonical expression, a set's members in the order given.

    Levels 0 and 1 use the bare name and literal braces; every other
    level (including negatives) uses the ^(n) notation. Like the
    canonical pass, one _fold carries each subtree's text up.
    """
    return _fold(e, _atom_text, lambda texts: "{%s}" % ",".join(texts), "∅")


# ------------------------------------------------------------- normalizing

# The canonicalizer carries each canonical subtree as an item
# (structural depth, printed form, node), computed once from the items of
# its children. Distinct canonical trees print differently, so a set
# deduplicates its members by text and then sorts the items as they are:
# with no two texts alike, comparing two items decides on (depth, text)
# and never reaches a node. Deduplication must come first, or two items
# of equal text would be compared by their nodes. No subtree is walked,
# printed or compared again.

_Item = tuple[int, str, SetExpr]

_EMPTY_ITEM: _Item = (0, "∅", EMPTY)


def _braced_item(atom: str, level: int) -> _Item:
    return (level, _braced_text(atom, level), Braced(atom, level))


def _atom_item(x: Braced) -> _Item:
    """A Braced node is its own canonical node, and its level its depth."""
    return (x.level, _braced_text(x.atom, x.level), x)


def _set_item(items: list[_Item]) -> _Item:
    """The canonical set of canonical items: dedup, fold, sort."""
    if len(items) > 1:
        items = list({item[1]: item for item in items}.values())
    if not items:
        return _EMPTY_ITEM
    if len(items) == 1:
        depth, text, node = items[0]
        if isinstance(node, Braced):
            return _braced_item(node.atom, node.level + 1)
        return (depth + 1, "{%s}" % text, SetOf((node,)))
    items.sort()  # texts are distinct now, so no node is compared
    depths, texts, nodes = zip(*items)
    return (depths[-1] + 1, "{%s}" % ",".join(texts), SetOf(nodes))


def normalize(e: SetExpr) -> SetExpr:
    """Canonicalize an expression; idempotent.

    Folds a singleton set of a Braced node into the level, deduplicates
    and sorts set elements; a Braced node is canonical as built (Braced
    folds one over a Braced and refuses one over a set). Every node was
    checked when it was built, so only a root that is not a node raises
    here (TypeError). One iterative post-order pass builds each
    subtree's depth and printed form once, from those of its members.
    """
    return _canonical(e)[2]


def _canonical(e: SetExpr, made: Callable[[_Item], None] | None = None) -> _Item:
    """The item of normalize(e): the canonical node, its depth and text.

    made(item), if given, sees each item made, members before their set.
    """
    return _fold(e, _atom_item, _set_item, _EMPTY_ITEM, made)


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
# A flat set of two or more atom tokens, each a name, "empty" or a braced
# atom "{" NAME "}" with "^(" INT ")" or nothing, written with no
# whitespace, "+" or leading zero, and no level past 18 digits, so none
# is past int()'s digit limit. _parse reads such a text in one match and
# one split; every other text goes through the token loop.
_FLAT_MEMBER = (
    r"(?:%s|\{(?!empty\})%s\}(?:\^\(-?[1-9][0-9]{0,17}\))?)" % (_IDENT, _IDENT)
)
_FLAT = re.compile(r"\{%s(?:,%s)+\}" % (_FLAT_MEMBER, _FLAT_MEMBER))
# the first character of a token that _leaf reads: a name's, "{" of a
# braced atom (the token "{" alone is read before), or "∅"
_LEAF_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_{∅")


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


def _leaf(tok: str, leaves: dict[str, _Item], text: str, token: int) -> _Item:
    """The item of an atom token not in leaves, the token-th of text: "∅"
    or "empty", a name, or a braced atom "{" NAME "}" followed by "^("
    INT ")" or nothing, with any whitespace the grammar allows. The item
    of a name or a braced atom is stored in leaves, so a reader that
    looks a token up there first builds one node per distinct token; ∅
    is never stored."""
    if tok == "∅" or tok == "empty":
        return _EMPTY_ITEM
    if tok[0] == "{":
        name, _, level = tok[1:].partition("}")
        # int() skips the whitespace around the integer
        digits = level.partition("(")[2][:-1]
        level = _int_level(text, token, tok, digits) if digits else 1
        item = _braced_item(name.strip(), level)
    else:
        item = (0, tok, Braced(tok, 0))
    leaves[tok] = item
    return item


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
    A flat set of two or more atom tokens written with no whitespace, "+"
    or leading zero, as "{x1,{x3},{x7}^(-2)}", is read in one match and
    one split, with no token loop; every other text, malformed ones
    included, goes through the loop, so each error keeps its message and
    offset. This is the one walk of the text: _parse's made hook, which
    the canonical pass takes too, lets a caller value each item as the
    parser makes it.
    """
    return _parse(text, {})[2]


def _parse(text: str, leaves: dict[str, _Item], made=None) -> _Item:
    """The item of parse_expr(text): the canonical node, its depth and text.

    leaves maps the text of each atom token read so far, a bare or a
    braced atom, to its item; a token found there reuses the item and
    its node. A caller that parses many texts passes one dict to all of
    them, so every distinct atom token becomes one node, shared by every
    tree that holds it, and the atoms of all the trees are the atoms of
    the dict's items.

    made(item), if given, sees every item _parse makes or takes from
    leaves, as _canonical's hook does: members before their set, the
    root last, on the flat path as in the token loop. An item taken from
    leaves again, or dropped as a duplicate or by a level annotation
    (the "a" of "{{a}^(0)}^(3)"), is seen too, each time. A text that
    raises may have shown made some of its items.
    """
    if "," in text and _FLAT.fullmatch(text):
        # a flat set: each member is an atom token, and no level of one
        # has digits enough to fail
        members = text[1:-1].split(",")
        items = [leaves.get(m) or _leaf(m, leaves, text, 0) for m in members]
        item = _set_item(items)
        if made is not None:
            for made_item in (*items, item):
                made(made_item)
        return item
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input
    frames: list[list[_Item]] = []  # the items read so far, per open brace
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "{":
            frames.append([])
            if tokens[i] != "}":
                continue
            item, atom = None, False
        elif tok[:1] in _LEAF_START:
            if tokens[i] == "^":  # never after a braced atom token
                raise _level_misuse(text, i)
            item = leaves.get(tok) or _leaf(tok, leaves, text, i - 1)
            # a bare atom or {a}^(0): the only single member a level
            # annotation may follow (a braced atom's depth is its level)
            atom = item[0] == 0 and item is not _EMPTY_ITEM
        elif tok:
            raise _fail(text, i - 1, f"unexpected character {tok[0]!r}")
        else:
            raise _fail(text, i - 1, "unexpected end of input")
        while frames:
            items = frames[-1]
            if item is not None:
                if made is not None:
                    made(item)
                items.append(item)
                if tokens[i] == ",":
                    i += 1
                    break
                if tokens[i] != "}":
                    raise _fail(text, i, "expected '}'")
            i += 1
            frames.pop()
            # atom still tells whether the set's last item was a bare
            # atom or {a}^(0) (False after "{}")
            if tokens[i] == "^":
                if not (atom and len(items) == 1):
                    raise _level_misuse(text, i)
                level, i = _level(text, tokens, i + 1)
                item, atom = _braced_item(items[0][2].atom, level), level == 0
            else:
                item, atom = _set_item(items), False
        else:
            if tokens[i]:
                raise _fail(text, i, "unexpected trailing input")
            if made is not None:
                made(item)
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
