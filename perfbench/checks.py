"""Independent recomputation of fuzznest results.

Nothing here calls fuzznest functions: values are recomputed from the
paper's definitions (level maps, cardinality series, the product rule),
so a checker cannot share a defect with the code it checks. Tree walks
use explicit stacks because the benchmark feeds expressions hundreds of
levels deep. The node classes are only read, through their public
fields.
"""

from __future__ import annotations

import json
import math

# Tolerances fixed by the benchmark definition.
ROUNDTRIP_TOL = 1e-10  # |decode(encode(w)) - w|, untruncated case
SERIES_TOL = 1e-9  # |G(decode(a)) - 1| and expansion cardinality vs 1
VALUE_TOL = 1e-12  # a recomputed membership or level value
POWER_TOL = 1e-9  # power-set sum vs 2^card


class CheckFailed(Exception):
    """An output failed its check; `layer` names the layer that produced it."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def require(cond: bool, layer: str, message: str) -> None:
    if not cond:
        raise CheckFailed(layer, message)


def close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    """|a - b| within tol, absolute below 1 and relative above."""
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------- codec


def level(t: float, k: int) -> float:
    """u_k(t): k-fold 2^v - 1 (k > 0) or |k|-fold log2(v + 1) (k < 0).

    Stops early once an iterate repeats, since both maps then stay at
    that value forever; this keeps huge |k| cheap without changing the
    result.
    """
    v = t
    if k > 0:
        for _ in range(k):
            nxt = 2.0 ** v - 1.0
            if nxt == v:
                break
            v = nxt
    else:
        for _ in range(-k):
            nxt = math.log2(v + 1.0)
            if nxt == v:
                break
            v = nxt
    return v


def one_indices(m_star: int, bits) -> list[int]:
    return [m_star + i for i, b in enumerate(bits) if b]


def series(m_star: int, bits, t: float) -> float:
    """G(t) = sum of u_k(t) over the 1-bits, summed exactly."""
    return math.fsum(level(t, k) for k in one_indices(m_star, bits))


def initial_index_exceeds(w: float, max_index: int) -> bool:
    """True when the greedy encoder's first level search must pass max_index.

    The first chosen index is the least k != 0 with u_k(w) + w - 1 <= 0.
    For k < 0 the left side grows with |k|; the search fails when it is
    still <= 0 one step past k = -max_index.
    """
    s0 = w - 1.0
    if math.log2(w + 1.0) + s0 > 0.0:
        return False  # the search runs upward; u_k(w) -> 0 ends it
    return level(w, -(max_index + 1)) + s0 <= 0.0


def check_decoded(value: float, m_star: int, bits, layer: str) -> None:
    require(isinstance(value, float), layer, f"decode returned {value!r}")
    require(0.0 < value <= 1.0, layer, f"decoded value {value!r} outside (0,1]")
    g = series(m_star, bits, value)
    require(abs(g - 1.0) <= SERIES_TOL, layer, f"G(decoded) = {g!r}, not 1")


def check_expansion(pairs, value: float, m_star: int, bits, atom: str) -> None:
    """pairs: (expr, mu) from expand_to_fuzzy of (m_star, bits) decoded to value."""
    layer = "seq_codec"
    ks = one_indices(m_star, bits)
    require(len(pairs) == len(ks), layer, "expansion has the wrong element count")
    for (expr, mu), k in zip(pairs, ks):
        require(
            getattr(expr, "atom", None) == atom and getattr(expr, "level", None) == k,
            layer,
            f"expansion element {expr!r} is not {{{atom}}}^({k})",
        )
        require(close(mu, level(value, k)), layer, f"membership at level {k} is {mu!r}")
    card = math.fsum(mu for _, mu in pairs)
    require(abs(card - 1.0) <= SERIES_TOL, layer, f"expansion cardinality {card!r}")


# ------------------------------------------------------------ set trees


def _kind(e) -> str:
    if hasattr(e, "elements"):
        return "set"
    if hasattr(e, "level"):
        return "atom"
    return "empty"


def children(e) -> tuple:
    return e.elements if _kind(e) == "set" else ()


def node_count(e) -> int:
    count, stack = 0, [e]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(children(node))
    return count


def depth(e) -> int:
    """structural depth: level for an atom, 0 for the empty set, 1 + max for sets."""
    memo: dict[int, int] = {}
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        kind = _kind(node)
        if kind == "atom":
            memo[id(node)] = node.level
        elif kind == "empty":
            memo[id(node)] = 0
        elif done:
            memo[id(node)] = 1 + max((memo[id(c)] for c in node.elements), default=0)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.elements)
    return memo[id(e)]


def membership(e, mu: dict[str, float]) -> float:
    """The product rule: 1 for the empty set, u_n(mu(a)) for {a}^(n),
    and the product of (2^m - 1) over a set's members."""
    memo: dict[int, float] = {}
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        kind = _kind(node)
        if kind == "atom":
            memo[id(node)] = level(mu[node.atom], node.level)
        elif kind == "empty":
            memo[id(node)] = 1.0
        elif done:
            product = 1.0
            for c in node.elements:
                product *= 2.0 ** memo[id(c)] - 1.0
            memo[id(node)] = product
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.elements)
    return memo[id(e)]


def same_tree(a, b) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        kind = _kind(x)
        if kind != _kind(y):
            return False
        if kind == "atom":
            if x.atom != y.atom or x.level != y.level:
                return False
        elif kind == "set":
            if len(x.elements) != len(y.elements):
                return False
            stack.extend(zip(x.elements, y.elements))
    return True


def check_memberships(pairs, mu: dict[str, float], layer: str) -> None:
    for expr, m in pairs:
        want = membership(expr, mu)
        require(close(m, want), layer, f"membership {m!r}, product rule gives {want!r}")


def same_fuzzy_set(a, b) -> bool:
    if tuple(a.universe.atoms) != tuple(b.universe.atoms):
        return False
    if len(a.elements) != len(b.elements):
        return False
    return all(
        ma == mb and same_tree(ea, eb)
        for (ea, ma), (eb, mb) in zip(a.elements, b.elements)
    )


# ------------------------------------------------------------ power sets


def subset_atoms(e) -> frozenset | None:
    """Atom names of a power-set element, or None if it has the wrong shape.

    Elements are the empty set, {a} (a braced atom at level 1) or a set of
    bare atoms.
    """
    kind = _kind(e)
    if kind == "empty":
        return frozenset()
    if kind == "atom":
        return frozenset([e.atom]) if e.level == 1 else None
    names = [getattr(c, "atom", None) for c in e.elements]
    if len(names) < 2 or any(
        _kind(c) != "atom" or c.level != 0 for c in e.elements
    ):
        return None
    return frozenset(names)


def subset_atoms_text(text: str) -> frozenset:
    """Atom names of a printed power-set element: ∅, {a} or {a,b,...}."""
    if text == "∅":
        return frozenset()
    return frozenset(text[1:-1].split(","))


def subset_product(names, mu: dict[str, float]) -> float:
    return math.prod(2.0 ** mu[a] - 1.0 for a in sorted(names))


def power_expected(mu: dict[str, float]) -> float:
    return 2.0 ** math.fsum(mu.values())


def check_power_listing(subsets_and_mus, mu: dict[str, float], layer: str) -> None:
    """subsets_and_mus: (frozenset of names or None, membership) per element."""
    n = len(mu)
    require(len(subsets_and_mus) == 2 ** n, layer, "listing has the wrong size")
    seen = set()
    for names, m in subsets_and_mus:
        require(names is not None, layer, "listing element has the wrong shape")
        require(names <= mu.keys() and names not in seen, layer, "bad or repeated subset")
        seen.add(names)
        require(close(m, subset_product(names, mu)), layer, f"subset membership {m!r}")
    total = math.fsum(m for _, m in subsets_and_mus)
    want = power_expected(mu)
    require(abs(total - want) <= POWER_TOL, layer, f"power-set sum {total!r} != {want!r}")


def listing_from_json(text: str, layer: str) -> list[tuple[frozenset, float]]:
    doc = json.loads(text)
    require(isinstance(doc, dict), layer, "listing JSON is not an object")
    return [(subset_atoms_text(row["expr"]), row["mu"]) for row in doc["elements"]]
