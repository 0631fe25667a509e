"""The recursive set-expression algorithms as they stood before the
one-pass canonicalizer, frozen as a reference for equivalence tests.

Quadratic and recursion-bound: use on small trees only. Node classes and
errors are the package's own, so results compare with ``==``.
"""

from __future__ import annotations

from fuzznest import EMPTY, Braced, Empty, SetExpr, SetOf
from fuzznest.errors import InvariantError, LevelError, ParseError

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def structural_depth(e: SetExpr) -> int:
    """Nesting depth used for canonical ordering.

    The depth of a level-annotated atom is its signed level, so formally
    unbraced atoms sort before bare atoms, which sort before braced ones.
    """
    if isinstance(e, Empty):
        return 0
    if isinstance(e, Braced):
        if isinstance(e.atom, str):
            return e.level
        return structural_depth(e.atom) + e.level
    return 1 + max((structural_depth(x) for x in e.elements), default=0)


def _sort_key(e: SetExpr) -> tuple[int, str]:
    return (structural_depth(e), print_expr(e))


# ---------------------------------------------------------------- printing


def print_expr(e: SetExpr) -> str:
    """Render a canonical expression.

    Levels 0 and 1 use the bare name and literal braces; every other
    level (including negatives) uses the ^(n) notation.
    """
    if isinstance(e, Empty):
        return "∅"
    if isinstance(e, Braced):
        if not isinstance(e.atom, str):
            raise InvariantError("cannot print a non-canonical braced expression")
        if e.level == 0:
            return e.atom
        if e.level == 1:
            return "{%s}" % e.atom
        return "{%s}^(%d)" % (e.atom, e.level)
    return "{%s}" % ",".join(print_expr(x) for x in e.elements)


# ------------------------------------------------------------- normalizing


def normalize(e: SetExpr) -> SetExpr:
    """Canonicalize an expression; idempotent.

    Collapses Braced-over-Braced by adding levels, folds a singleton set
    of a Braced node into the level, deduplicates and sorts set elements.
    Raises LevelError when a negative level is attached to a set or to
    the empty set, since those cannot denote anything.
    """
    if isinstance(e, Empty):
        return EMPTY
    if isinstance(e, Braced):
        if isinstance(e.atom, str):
            return e
        inner = normalize(e.atom)
        if isinstance(inner, Braced):
            return Braced(inner.atom, inner.level + e.level)
        if e.level < 0:
            kind = "the empty set" if isinstance(inner, Empty) else "a set"
            raise LevelError(f"negative level {e.level} applied to {kind}")
        for _ in range(e.level):
            inner = SetOf((inner,))
        return inner
    if isinstance(e, SetOf):
        members: list[SetExpr] = []
        for x in e.elements:
            nx = normalize(x)
            if nx not in members:
                members.append(nx)
        if not members:
            return EMPTY
        if len(members) == 1 and isinstance(members[0], Braced):
            only = members[0]
            return Braced(only.atom, only.level + 1)
        members.sort(key=_sort_key)
        return SetOf(tuple(members))
    raise TypeError(f"not a set expression: {e!r}")


# ----------------------------------------------------------------- parsing


class Parser:
    """Recursive descent over the expression grammar.

    expr := "∅" | "empty" | ATOM | "{" ATOM "}" "^" "(" INT ")"
          | "{" [expr ("," expr)*] "}"
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        at = self.pos if pos is None else pos
        return ParseError(message, len(self.text[:at].encode("utf-8")))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> SetExpr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.fail("unexpected trailing input")
        return normalize(e)

    def expr(self) -> SetExpr:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            raise self.fail("unexpected end of input")
        if ch == "∅":
            self.pos += 1
            self.check_no_level(EMPTY)
            return EMPTY
        if ch == "{":
            return self.braces()
        if ch in _IDENT_START:
            name = self.ident()
            node = EMPTY if name == "empty" else Braced(name, 0)
            self.check_no_level(node)
            return node
        raise self.fail(f"unexpected character {ch!r}")

    def ident(self) -> str:
        start = self.pos
        self.pos += 1
        while self.peek() in _IDENT_CONT:
            self.pos += 1
        return self.text[start:self.pos]

    def braces(self) -> SetExpr:
        self.pos += 1  # consume '{'
        self.skip_ws()
        elements: list[SetExpr] = []
        if self.peek() == "}":
            self.pos += 1
        else:
            elements.append(self.expr())
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                elements.append(self.expr())
                self.skip_ws()
            self.expect("}")
        self.skip_ws()
        if self.peek() == "^":
            caret = self.pos
            self.pos += 1
            # only {ATOM}^(INT) is meaningful
            single_atom = (
                len(elements) == 1
                and isinstance(elements[0], Braced)
                and elements[0].level == 0
            )
            if not single_atom:
                raise LevelError(
                    "level annotation ^(n) is only valid on a braced atom "
                    f"(at byte offset {len(self.text[:caret].encode('utf-8'))})"
                )
            level = self.level_int()
            assert isinstance(elements[0], Braced)
            return Braced(elements[0].atom, level)
        return SetOf(tuple(elements))

    def level_int(self) -> int:
        self.expect("(")
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        if not self.peek().isdigit():
            raise self.fail("expected an integer level")
        while self.peek().isdigit():
            self.pos += 1
        value = int(self.text[start:self.pos])
        self.expect(")")
        return value

    def check_no_level(self, node: SetExpr) -> None:
        # '^' after a complete non-braced expression is a level misuse
        save = self.pos
        self.skip_ws()
        if self.peek() == "^":
            raise LevelError(
                "level annotation ^(n) is only valid on a braced atom "
                f"(at byte offset {len(self.text[:self.pos].encode('utf-8'))})"
            )
        self.pos = save


def parse_expr(text: str) -> SetExpr:
    """Parse expression text to its canonical SetExpr.

    Accepts "∅" and "empty" for the empty set. Raises ParseError with a
    byte offset on malformed input, LevelError when ^(n) is attached to
    anything but a braced atom.
    """
    return Parser(text).parse()
