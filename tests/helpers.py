"""Shared builders for the test suite."""

from __future__ import annotations

import ast
import random
import sys

from fuzznest import (
    AtomUniverse,
    Braced,
    Empty,
    FuzzySet,
    SetExpr,
    SetOf,
    normalize,
    print_expr,
)

ATOM_POOL = ("x1", "x2", "x3", "x4", "y", "z0")

# int() refuses a string of more digits than this; 0 means no limit
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# the digits of a level just past that limit (5,000 when there is none)
HUGE_LEVEL = "1" * (INT_DIGIT_LIMIT + 1 if INT_DIGIT_LIMIT else 5000)


def random_expr(rng: random.Random, depth: int = 4) -> SetExpr:
    """A random canonical expression of structural depth <= depth.

    Canonical by construction-then-normalize, so printing it and parsing
    the result must give back the same object.
    """
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return Empty()
    if roll < 0.55:
        return Braced(rng.choice(ATOM_POOL), rng.randint(-8, 8))
    n = rng.randint(0, min(4, depth))
    inner = tuple(random_expr(rng, depth - 1) for _ in range(n))
    return normalize(SetOf(inner))


def random_flat_set(rng: random.Random, n: int, zero_one: bool = False) -> FuzzySet:
    """A flat fuzzy set over n fresh atoms with random memberships."""
    atoms = tuple(f"a{i}" for i in range(n))
    if zero_one:
        mus = [float(rng.randint(0, 1)) for _ in atoms]
    else:
        mus = [rng.random() for _ in atoms]
    return FuzzySet.flat(zip(atoms, mus))


def trusted_fuzzy_set(
    universe: AtomUniverse, pairs: tuple[tuple[SetExpr, float], ...]
) -> FuzzySet:
    """The fuzzy set the trusting constructor makes of (canonical node,
    membership) pairs: the nodes' printed texts and the memberships, in
    pair order, unchecked."""
    texts = tuple(print_expr(e) for e, _ in pairs)
    return FuzzySet(universe, texts, tuple(mu for _, mu in pairs))


def sites(source: str, is_site) -> list[tuple[str, int]]:
    """(scope, line) of each AST node of the source that is_site accepts,
    in order; the scope is the dotted names of the enclosing classes and
    functions, or "<module>"."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        if is_site(node):
            found.append((".".join(scope) or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found
