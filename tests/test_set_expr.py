"""Expression parsing, printing, normalization, and the atom universe."""

import ast
import copy
import dataclasses
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzznest import (
    EMPTY,
    AtomUniverse,
    Braced,
    Empty,
    InvariantError,
    LevelError,
    ParseError,
    SetOf,
    atoms_of,
    in_superstructure,
    normalize,
    parse_expr,
    print_expr,
    structural_depth,
)
from fuzznest import set_expr
from helpers import ATOM_POOL, HUGE_LEVEL, INT_DIGIT_LIMIT, random_expr, sites

# ------------------------------------------------------------------ parse


def test_parse_empty_forms():
    assert parse_expr("∅") == EMPTY
    assert parse_expr("empty") == EMPTY
    assert parse_expr("  ∅  ") == EMPTY
    assert parse_expr("{}") == EMPTY


def test_parse_bare_atom():
    assert parse_expr("x1") == Braced("x1", 0)
    assert parse_expr("_under") == Braced("_under", 0)


def test_parse_nested_reference_universe():
    # "{x1,{x2,{x3,{x4}}}}" nests three sets around a braced atom
    got = parse_expr("{x1,{x2,{x3,{x4}}}}")
    want = SetOf(
        (
            Braced("x1", 0),
            SetOf(
                (
                    Braced("x2", 0),
                    SetOf((Braced("x3", 0), Braced("x4", 1))),
                )
            ),
        )
    )
    assert got == want


def test_parse_level_annotations():
    assert parse_expr("{x}^(-3)") == Braced("x", -3)
    assert parse_expr("{x}^(3)") == Braced("x", 3)
    assert parse_expr("{x}^(+2)") == Braced("x", 2)
    assert parse_expr("{x}^(1)") == Braced("x", 1)
    assert parse_expr("{x}^(0)") == Braced("x", 0)
    assert parse_expr(" { x } ^ ( -2 ) ") == Braced("x", -2)


def test_parse_pure_singleton_nesting_collapses():
    assert parse_expr("{{x}}") == Braced("x", 2)
    assert parse_expr("{{{x}}}") == Braced("x", 3)
    assert parse_expr("{x}") == Braced("x", 1)


def test_parse_whitespace_insignificant():
    assert parse_expr("{ x1 , { x2 } }") == parse_expr("{x1,{x2}}")


def test_parse_deduplicates_and_sorts():
    assert parse_expr("{x2,x1,x2}") == SetOf((Braced("x1", 0), Braced("x2", 0)))


@pytest.mark.parametrize(
    "text",
    ["", "{x1", "{x1,", "}x", "x y", "{x},", "∅∅", "{x}^2", "{x}^(a)", "{x}^(2"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_parse_error_reports_byte_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("∅∅")
    # the first ∅ is three UTF-8 bytes, so the trailing one sits at byte 3
    assert exc.value.offset == 3
    assert "byte offset 3" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_expr("{x1,]}")
    assert exc.value.offset == 4


@pytest.mark.parametrize(
    "template, offset, sign",
    [
        ("{a}^(%s)", 5, ""),  # one braced-atom token
        ("{ a } ^ ( +%s )", 10, ""),
        ("{{a}^(0)}^(%s)", 11, ""),  # "(" INT ")" after a set's brace
        ("{{a}^(0)}^( -%s )", 12, "-"),
    ],
)
def test_level_past_the_int_digit_limit(template, offset, sign):
    # the offset is that of the level's sign or first digit
    text = template % HUGE_LEVEL
    if not INT_DIGIT_LIMIT:  # no limit: int() cannot fail
        assert print_expr(parse_expr(text)) == "{a}^(%s%s)" % (sign, HUGE_LEVEL)
        return
    with pytest.raises(ParseError, match="level has too many digits") as exc:
        parse_expr(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text",
    ["∅^(2)", "x^(2)", "{x,y}^(2)", "{{x}}^(2)", "empty^(1)", "{∅}^(3)"],
)
def test_level_annotation_limited_to_braced_atoms(text):
    with pytest.raises(LevelError):
        parse_expr(text)


# ------------------------------------------------------------------ print


def test_print_forms():
    assert print_expr(Braced("x", 3)) == "{x}^(3)"
    assert print_expr(Braced("x", -3)) == "{x}^(-3)"
    assert print_expr(Braced("x", -1)) == "{x}^(-1)"
    assert print_expr(EMPTY) == "∅"
    assert print_expr(Braced("x", 0)) == "x"
    assert print_expr(Braced("x", 1)) == "{x}"
    assert print_expr(SetOf((Braced("x1", 0), Braced("x2", 1)))) == "{x1,{x2}}"


def test_print_rejects_non_canonical_braced():
    # no non-canonical Braced reaches the printer: one over a Braced is
    # folded when it is built, and one over a set is refused then
    assert print_expr(Braced(Braced("x", 1), 1)) == "{x}^(2)"
    with pytest.raises(LevelError, match="^a level belongs to an atom, not to a set$"):
        print_expr(Braced(SetOf((Braced("x", 0), Braced("y", 0))), 1))


def test_str_uses_print():
    assert str(parse_expr("{x1,{x2}}")) == "{x1,{x2}}"


def test_str_of_each_node_kind():
    assert str(EMPTY) == str(Empty()) == "∅"
    assert str(Braced("x", 0)) == "x" and str(Braced("x", -2)) == "{x}^(-2)"
    # a raw set prints its members in the order given
    assert str(SetOf((Braced("y", 1), EMPTY, Braced("x", 0)))) == "{{y},∅,x}"


def test_print_meets_a_fault_inside_a_braced_subexpression_first():
    # no faulty tree reaches the printer: each node is checked when it is
    # built, so the innermost fault is met first; a Braced checks its
    # level before what it wraps
    with pytest.raises(LevelError, match="^level must be an integer, got 2.5$"):
        Braced(Braced("x", 2.5), 1.5)
    with pytest.raises(LevelError, match="^level must be an integer, got 2.5$"):
        Braced(SetOf((Braced("x", 2.5),)), 1)
    with pytest.raises(LevelError, match="^level must be an integer, got 2.5$"):
        SetOf((Braced(Braced("x", 1), 1), Braced("y", 2.5)))
    with pytest.raises(LevelError, match="^level must be an integer, got 1.5$"):
        Braced(SetOf((Braced("x", 0), Braced("y", 0))), 1.5)


# -------------------------------------------------------------- normalize


def test_normalize_collapses_braced_of_braced():
    assert normalize(Braced(Braced("x", 2), -2)) == Braced("x", 0)
    assert normalize(Braced(Braced("x", -1), 4)) == Braced("x", 3)
    assert normalize(Braced(Braced(Braced("x", 1), 1), 1)) == Braced("x", 3)


def test_normalize_folds_singleton_of_braced():
    assert normalize(SetOf((Braced("x", 1),))) == Braced("x", 2)
    assert normalize(SetOf((Braced("x", -2),))) == Braced("x", -1)


def test_normalize_leaves_canonical_sets_alone():
    e = SetOf((Braced("x1", 0), Braced("x2", 0)))
    assert normalize(e) == e


def test_normalize_empty_set_literal():
    assert normalize(SetOf(())) == EMPTY


def test_normalize_braced_empty_positive_level():
    # a level belongs to an atom: {∅} is written as a set, not as a level,
    # and a Braced over ∅ is refused when it is built, at level 0 too
    for level in (1, 2, 0):
        with pytest.raises(LevelError) as info:
            normalize(Braced(EMPTY, level))
        assert str(info.value) == "a level belongs to an atom, not to the empty set"
    assert normalize(SetOf((SetOf((EMPTY,)),))) == SetOf((SetOf((EMPTY,)),))


def test_normalize_rejects_negative_level_on_sets():
    with pytest.raises(LevelError):
        normalize(Braced(EMPTY, -1))
    with pytest.raises(LevelError):
        normalize(Braced(SetOf((Braced("x", 0), Braced("y", 0))), -2))


def test_normalize_level_composition():
    for m in range(-8, 9):
        for n in range(-8, 9):
            assert normalize(Braced(Braced("x", m), n)) == Braced("x", m + n)


def test_normalize_insertion_order_invariance():
    rng = random.Random(7)
    for _ in range(50):
        e = random_expr(rng, depth=4)
        if not isinstance(e, SetOf):
            continue
        shuffled = list(e.elements)
        rng.shuffle(shuffled)
        assert normalize(SetOf(tuple(shuffled))) == e
        assert print_expr(normalize(SetOf(tuple(shuffled)))) == print_expr(e)


def test_canonical_ordering_by_depth_then_text():
    e = parse_expr("{∅,x1}")
    # ∅ and x1 share depth 0 and order textually, "x1" < "∅" in code points
    assert print_expr(e) == "{x1,∅}"
    e = parse_expr("{{x}^(3),{x}^(-2),x,{x}}")
    assert print_expr(e) == "{{x}^(-2),x,{x},{x}^(3)}"


# ------------------------------------------------------------------ depth


def test_structural_depth():
    assert structural_depth(EMPTY) == 0
    assert structural_depth(Braced("x", 0)) == 0
    assert structural_depth(Braced("x", 5)) == 5
    assert structural_depth(Braced("x", -3)) == -3
    assert structural_depth(parse_expr("{x1,{x2,{x3,{x4}}}}")) == 4
    assert structural_depth(SetOf((EMPTY,))) == 1
    # the depth of the tree as given: a raw SetOf(()) is not ∅ here
    assert structural_depth(SetOf(())) == 1
    assert structural_depth(SetOf((SetOf(()),))) == 2


def test_structural_depth_of_a_braced_subexpression():
    # a Braced over a braced atom adds its level to the atom's; one over
    # a set is refused when it is built
    pair = SetOf((Braced("x", 0), Braced("y", 0)))
    with pytest.raises(LevelError, match="^a level belongs to an atom, not to a set$"):
        structural_depth(Braced(pair, 3))
    assert structural_depth(Braced(Braced("x", 1), -2)) == -1


# --------------------------------------------------------------- universe


def test_atom_universe_validation():
    u = AtomUniverse(("x1", "x2"))
    assert "x1" in u and "zz" not in u
    assert len(u) == 2
    with pytest.raises(InvariantError):
        AtomUniverse(("x1", "x1"))
    with pytest.raises(InvariantError):
        AtomUniverse(("empty",))
    with pytest.raises(InvariantError):
        AtomUniverse(("1x",))
    with pytest.raises(InvariantError):
        AtomUniverse(("x-y",))
    with pytest.raises(InvariantError):
        AtomUniverse(("",))


@pytest.mark.parametrize("atoms", ["xy", "x", (5,), ("x", None), (b"x",), 5, None])
def test_atom_universe_needs_names(atoms):
    with pytest.raises(InvariantError):
        AtomUniverse(atoms)


@pytest.mark.parametrize(
    "name",
    [
        "x", "_", "X_9", "x1y", "empty", "1x", "x-y", "x\n", " x", "é", "x²", "٣", "",
        "{x}", "x,y", "x y",
    ],
)
def test_atom_names_are_what_the_parser_reads_as_atoms(name):
    # one grammar: a universe accepts a name, and Braced takes it as its
    # atom, iff it parses as that bare atom
    try:
        e = parse_expr(name)
        parsed = isinstance(e, Braced) and (e.atom, e.level) == (name, 0)
    except ParseError:
        parsed = False
    for make in (lambda: AtomUniverse((name,)), lambda: Braced(name, 0)):
        try:
            make()
            accepted = True
        except InvariantError as exc:
            assert str(exc) == f"invalid atom name {name!r}"
            accepted = False
        assert accepted == parsed


def test_atom_universe_stores_a_tuple():
    u = AtomUniverse(["x", "y"])
    assert u.atoms == ("x", "y")
    assert u == AtomUniverse(("x", "y"))
    assert hash(u) == hash(AtomUniverse(("x", "y")))


def test_in_superstructure():
    u = AtomUniverse(("x1", "x2"))
    assert in_superstructure(Braced("x1", 0), u)
    assert in_superstructure(parse_expr("{x1,{x1,x2}}"), u)
    assert in_superstructure(Braced("x1", -2), u)
    assert in_superstructure(EMPTY, u)
    assert not in_superstructure(Braced("y", 1), u)
    assert not in_superstructure(parse_expr("{x1,{y}}"), u)


def test_atoms_of():
    assert sorted(atoms_of(parse_expr("{x1,{x2,{x3,{x4}}}}"))) == [
        "x1",
        "x2",
        "x3",
        "x4",
    ]
    assert list(atoms_of(EMPTY)) == []
    assert list(atoms_of(Braced("x", -4))) == ["x"]


def test_atoms_of_raw_trees_left_to_right_with_repeats():
    x, y = Braced("x", 0), Braced("y", 2)
    assert list(atoms_of(SetOf((x, y, x)))) == ["x", "y", "x"]
    # a Braced over a set is refused when it is built; a set is wrapped
    # by nesting SetOf nodes
    for wrapped in (SetOf((x, Braced(y, -1))), SetOf((y, x))):
        with pytest.raises(LevelError, match="not to a set$"):
            Braced(wrapped, 1)
    assert list(atoms_of(SetOf((SetOf((x, Braced(y, -1))),)))) == ["x", "y"]
    raw = SetOf((
        SetOf((SetOf((y, x)),)),
        EMPTY,
        x,
        SetOf((Braced(Braced("z", 1), 3), SetOf(()), y)),
    ))
    assert list(atoms_of(raw)) == ["y", "x", "x", "z", "y"]


# ------------------------------------------------------------------ walks


def test_each_question_about_a_tree_is_one_walk(monkeypatch):
    walks = []
    post_order = set_expr._post_order
    monkeypatch.setattr(
        set_expr, "_post_order", lambda e: walks.append(e) or post_order(e)
    )

    def walks_of(call, *args):
        walks.clear()
        call(*args)
        return len(walks)

    wrapped = SetOf((SetOf((parse_expr("{x1,{x2,{x3}}}"),)),))
    raw = SetOf((wrapped, EMPTY, Braced("x1", -1)))
    canonical = normalize(raw)
    for e in (raw, canonical, EMPTY, Braced("x", 3)):
        twin = normalize(e) if e is raw else parse_expr(print_expr(e))
        assert walks_of(atoms_of, e) == walks_of(structural_depth, e) == 1
        assert walks_of(normalize, e) == walks_of(hash, e) == 1
        assert walks_of(lambda: e == twin) == 2
    for e in (canonical, EMPTY, Braced("x", 3)):
        assert walks_of(print_expr, e) == 1


def test_only_post_order_reads_a_sets_members():
    # no other function can walk a tree: outside _post_order, a set's
    # members are only ever counted. SetOf.__init__ checks the members it
    # is given before it stores them through the slot SetOf.elements, so
    # it reads no built set's members
    source = Path(set_expr.__file__).read_text(encoding="utf-8")
    counted = {
        (call.args[0].lineno, call.args[0].col_offset)
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "len"
    }

    def reads_members(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "elements"
            and (node.lineno, node.col_offset) not in counted
            and getattr(node.value, "id", None) != "SetOf"  # the slot itself
        )

    readers = {scope for scope, _ in sites(source, reads_members)}
    assert readers == {"_post_order"}


@pytest.mark.parametrize(
    "make, leaf",
    [
        pytest.param(lambda: 7, "7", id="7-'7'"),
        pytest.param(lambda: SetOf(("x1",)), "'x1'", id="SetOf(elements=('x1',))-\"'x1'\""),
        # a Braced over a leaf is refused when it is built
        pytest.param(lambda: Braced(7, 1), "7", id="Braced(atom=7, level=1)-'7'"),
    ],
)
@pytest.mark.parametrize(
    "question",
    [print_expr, structural_depth, atoms_of, normalize,
     lambda e: in_superstructure(e, AtomUniverse(("x1",)))],
    ids=["print_expr", "structural_depth", "atoms_of", "normalize", "in_superstructure"],
)
def test_a_leaf_that_is_no_node_raises_one_type_error(make, leaf, question):
    # a SetOf or Braced that would hold the leaf is refused when it is
    # built; a root that is no node, by the walk every question starts
    with pytest.raises(TypeError) as exc:
        question(make())
    assert str(exc.value) == f"not a set expression: {leaf}"


def test_eq_and_hash_still_take_leaves_that_are_no_nodes():
    # no node holds a leaf that is no node, so == and hash never meet
    # one: SetOf and Braced refuse it when they are built
    for make, leaf in [
        (lambda: SetOf(("x1",)), "'x1'"),
        (lambda: Braced(7, 1), "7"),
        (lambda: SetOf(((Empty,),)), repr((Empty,))),
    ]:
        with pytest.raises(TypeError) as exc:
            make()
        assert str(exc.value) == f"not a set expression: {leaf}"


def test_a_set_keeps_the_members_it_was_built_with():
    # the members are stored as a tuple: a list given to SetOf can change
    # afterwards without changing the set, its text or its hash
    members = [Braced("x", 0)]
    s = SetOf(members)
    before = hash(s)
    members.append(Braced("y", 0))
    assert type(s.elements) is tuple and s.elements == (Braced("x", 0),)
    assert print_expr(s) == "{x}" and hash(s) == before
    assert SetOf(iter([EMPTY, Braced("x", 1)])) == SetOf((EMPTY, Braced("x", 1)))


# the dataclass-generated repr, from classes of the same names and fields
_GENERATED = {
    kind: dataclasses.make_dataclass(
        kind.__name__, [f.name for f in dataclasses.fields(kind)], frozen=True
    )
    for kind in (Empty, Braced, SetOf)
}


def _generated(x):
    """x with each node replaced by its generated twin (recursive: small
    trees only)."""
    if isinstance(x, SetOf):
        return _GENERATED[SetOf](tuple(_generated(m) for m in x.elements))
    if isinstance(x, Braced):
        return _GENERATED[Braced](x.atom, x.level)
    return _GENERATED[Empty]()


def _raw_tree(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice([EMPTY, Braced(rng.choice(ATOM_POOL), rng.randint(-3, 3))])
    if roll < 0.3:
        # a Braced over a braced atom, folded when it is built
        inner = Braced(rng.choice(ATOM_POOL), rng.randint(-3, 3))
        return Braced(inner, rng.choice([0, 1, 2, -1]))
    return SetOf(tuple(_raw_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))))


def test_repr_is_the_generated_repr_on_small_trees():
    rng = random.Random(1019)
    trees = [_raw_tree(rng, rng.randint(0, 5)) for _ in range(3000)]
    trees += [random_expr(rng) for _ in range(500)]
    trees += [EMPTY, SetOf(()), SetOf((EMPTY,)), Braced("x", -(10**20))]
    for e in trees:
        assert repr(e) == repr(_generated(e))
    # a level that is no int has no repr: it is refused when built
    with pytest.raises(LevelError, match="^level must be an integer, got '2'$"):
        Braced("x", "2")


def test_pickle_and_copy_rebuild_equal_trees():
    rng = random.Random(1020)
    for _ in range(500):
        e = SetOf(tuple(_raw_tree(rng, 4) for _ in range(3)))
        for back in (
            pickle.loads(pickle.dumps(e)),
            pickle.loads(pickle.dumps(e, protocol=0)),
            copy.deepcopy(e),
            copy.copy(e),
        ):
            assert type(back) is SetOf and back == e and repr(back) == repr(e)
    # a leaf that is no node is never copied: it is refused when built
    with pytest.raises(TypeError, match=r"^not a set expression: \['a'\]$"):
        SetOf((["a"], EMPTY))


# ------------------------------------------------------------- properties

_raw_exprs = st.recursive(
    st.one_of(
        st.just(EMPTY),
        st.builds(
            Braced,
            st.sampled_from(ATOM_POOL),
            st.integers(min_value=-8, max_value=8),
        ),
    ),
    lambda children: st.lists(children, max_size=4).map(
        lambda xs: SetOf(tuple(xs))
    ),
    max_leaves=25,
)
_exprs = _raw_exprs.map(normalize)


@given(_exprs)
def test_parse_print_roundtrip(e):
    assert parse_expr(print_expr(e)) == e


@given(_exprs)
def test_normalize_idempotent(e):
    assert normalize(e) == e


@given(_raw_exprs)
def test_canonical_items_carry_the_printed_text(raw):
    # fuzzy_core tells elements apart by the text these items carry
    depth, text, e = set_expr._canonical(raw)
    assert text == print_expr(e) and depth == structural_depth(e)
    assert set_expr._parse(text, {}) == (depth, text, e)


# flat sets of atom tokens, which parse_expr reads in one match: names,
# "empty", and braced atoms at levels of 1 to 18 digits, either sign;
# at 19 digits the token loop reads them
_FLAT_LEVELS = st.tuples(
    st.one_of(
        st.integers(min_value=1, max_value=10**17),
        st.integers(min_value=10**17, max_value=10**18 - 1),
        st.integers(min_value=10**18, max_value=10**19 - 1),
    ),
    st.sampled_from([1, -1]),
).map(lambda pair: pair[0] * pair[1])
_FLAT_MEMBERS = st.one_of(
    st.sampled_from(ATOM_POOL + ("empty",)),
    st.sampled_from(ATOM_POOL).map("{%s}".__mod__),
    st.builds("{%s}^(%d)".__mod__, st.tuples(st.sampled_from(ATOM_POOL), _FLAT_LEVELS)),
)
_FLAT_TEXTS = st.lists(_FLAT_MEMBERS, min_size=2, max_size=12).map(
    lambda members: "{%s}" % ",".join(members)
)


@given(_FLAT_TEXTS)
def test_a_flat_set_reads_as_the_token_loop_reads_it(text):
    # the text is read in one match unless a level has 19 digits; a space
    # after its first comma sends it through the token loop
    assert bool(set_expr._FLAT.fullmatch(text)) != bool(re.search(r"\d{19}", text))
    spaced = text.replace(",", ", ", 1)
    assert not set_expr._FLAT.fullmatch(spaced)
    read, looped = {}, {}
    got, want = set_expr._parse(text, read), set_expr._parse(spaced, looped)
    assert got[:2] == want[:2] and got[2] == want[2]
    assert read.keys() == looped.keys()
    assert all(read[key] == looped[key] for key in read)
    for leaves, (_, _, e) in ((read, got), (looped, want)):
        # each atom of the set is the one node of its key
        nodes = {id(node) for _, _, node in leaves.values()}
        assert len(nodes) == len(leaves)
        if isinstance(e, SetOf):
            assert all(id(x) in nodes for x in e.elements if isinstance(x, Braced))


# a recipe for a raw tree, built by _build: levels, atoms and members may
# be anything, so some recipes build no node; int levels, atom names,
# braced atoms and sets are drawn more often than the rest, so that about
# a fifth of the recipes build
_NO_NODES = st.sampled_from([7, None, "x1", 0.5, (1, "a"), Empty, ["a"]])
# strings that are no atom name: each prints as no text, or as the text
# of another node
_NO_NAMES = ("", "x y", "1bad", "{x}", "empty", "é")
_INT_LEVELS = st.integers(min_value=-5, max_value=5)
_ANY_LEVELS = st.one_of(
    _INT_LEVELS, _INT_LEVELS, _INT_LEVELS,
    st.sampled_from([1.5, 2.0, float("nan"), True, False, "2", None]),
)
_ATOMS = st.one_of(
    st.sampled_from(ATOM_POOL), st.sampled_from(ATOM_POOL), st.sampled_from(_NO_NAMES)
)
_BRACED_ATOMS = st.tuples(st.just("braced"), _ATOMS, _ANY_LEVELS)
_recipes = st.recursive(
    st.one_of(
        st.just(("empty",)), _BRACED_ATOMS, _BRACED_ATOMS,
        st.tuples(st.just("leaf"), _NO_NODES),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("set"), st.lists(children, max_size=4)),
        st.tuples(st.just("set"), st.lists(children, max_size=4)),
        st.tuples(st.just("braced"), children, _ANY_LEVELS),
    ),
    max_leaves=8,
)


def _build(recipe):
    kind, *fields = recipe
    if kind == "empty":
        return EMPTY
    if kind == "leaf":
        return fields[0]
    if kind == "set":
        return SetOf(tuple(_build(r) for r in fields[0]))
    atom, level = fields
    return Braced(atom if isinstance(atom, str) else _build(atom), level)


@given(_recipes)
def test_a_node_that_builds_is_well_formed(recipe):
    try:
        e = _build(recipe)
    except (TypeError, LevelError, InvariantError):
        return
    if not isinstance(e, (Empty, Braced, SetOf)):
        with pytest.raises(TypeError, match="^not a set expression: "):
            print_expr(e)
        return
    canonical = normalize(e)
    assert parse_expr(print_expr(canonical)) == canonical
    assert isinstance(print_expr(e), str) and type(structural_depth(e)) is int
    assert all(a in ATOM_POOL for a in atoms_of(e))
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and hash(twin) == hash(e)


# raw trees of braced atoms at int levels, over atom names and over any
# short strings of characters that the grammar reads as tokens, or not
_TEXT_ATOM_RECIPES = st.recursive(
    st.tuples(
        st.just("braced"),
        st.one_of(st.sampled_from(ATOM_POOL), st.text("x1{},^() é", max_size=4)),
        _INT_LEVELS,
    ),
    lambda children: st.tuples(st.just("set"), st.lists(children, max_size=4)),
    max_leaves=8,
)


@given(_TEXT_ATOM_RECIPES)
def test_every_node_that_builds_prints_text_that_parses_back(recipe):
    try:
        e = normalize(_build(recipe))
    except InvariantError:
        return
    assert parse_expr(print_expr(e)) == e


def test_roundtrip_random_generator_sanity():
    rng = random.Random(2026)
    for _ in range(200):
        e = random_expr(rng, depth=5)
        assert parse_expr(print_expr(e)) == e
        assert normalize(e) == e
