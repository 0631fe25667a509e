"""The contract of the two checked node constructors, Braced and SetOf.

Every refusal's class and message, the fields of each accepted build,
keyword construction, ``dataclasses.replace``, the signature and the
text of a missing argument: each is pinned here as a table, so that how
the constructors are written can change while what they do cannot.
"""

import copy
import dataclasses
import inspect
import pickle
import typing

import pytest

from fuzznest import EMPTY, Braced, InvariantError, LevelError, SetOf


class _Level(int):
    """An int subclass: refused as a level, as a bool is."""


A_SET = SetOf((Braced("x1", 0), Braced("x2", 0)))
NO_LEVELS = [1.0, 2.5, True, False, "2", None, _Level(1)]
# one atom of every kind: a name, a string that is none, a braced atom,
# a set, ∅, and things that are not nodes
ANY_ATOMS = ["x1", "", "é", Braced("x1", 1), A_SET, SetOf(()), EMPTY, 7, None]
NO_NAMES = ["", "empty", "é", "{x}", "1bad", "x y"]
NO_NODES = [7, None, 1.5, ("x1",), ["x1"], b"x1", Braced]


def _refusal(make):
    with pytest.raises(Exception) as info:
        make()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("level", NO_LEVELS, ids=repr)
@pytest.mark.parametrize("atom", ANY_ATOMS, ids=repr)
def test_a_level_that_is_no_int_is_refused_before_the_atom_is_looked_at(atom, level):
    expected = (LevelError, f"level must be an integer, got {level!r}")
    assert _refusal(lambda: Braced(atom, level)) == expected
    assert _refusal(lambda: Braced(level=level, atom=atom)) == expected


@pytest.mark.parametrize("level", [0, 1, -1, 7])
@pytest.mark.parametrize("atom", NO_NAMES)
def test_a_str_that_is_no_atom_name_is_refused(atom, level):
    assert _refusal(lambda: Braced(atom, level)) == (
        InvariantError, f"invalid atom name {atom!r}"
    )


@pytest.mark.parametrize("level", [0, 1, -1])
@pytest.mark.parametrize(
    "atom, kind",
    [(A_SET, "a set"), (SetOf(()), "a set"), (SetOf((EMPTY,)), "a set"),
     (EMPTY, "the empty set")],
    ids=["set", "empty SetOf", "set of the empty set", "empty"],
)
def test_a_level_over_a_set_or_the_empty_set_is_refused(atom, kind, level):
    assert _refusal(lambda: Braced(atom, level)) == (
        LevelError, f"a level belongs to an atom, not to {kind}"
    )


@pytest.mark.parametrize("atom", NO_NODES, ids=repr)
def test_a_braced_over_what_is_no_node_is_refused(atom):
    assert _refusal(lambda: Braced(atom, 1)) == (
        TypeError, f"not a set expression: {atom!r}"
    )


@pytest.mark.parametrize("bad", NO_NODES, ids=repr)
def test_the_first_member_that_is_no_node_is_refused(bad):
    expected = (TypeError, f"not a set expression: {bad!r}")
    members = [Braced("x1", 0), bad, "x2", 8]
    assert _refusal(lambda: SetOf(members)) == expected
    assert _refusal(lambda: SetOf(tuple(members))) == expected
    assert _refusal(lambda: SetOf(iter(members))) == expected
    assert _refusal(lambda: SetOf(elements=members)) == expected


def test_members_that_are_no_iterable_are_refused():
    assert _refusal(lambda: SetOf(7)) == (TypeError, "'int' object is not iterable")
    assert _refusal(lambda: SetOf(None)) == (
        TypeError, "'NoneType' object is not iterable"
    )


@pytest.mark.parametrize(
    "make, atom, level",
    [
        (lambda: Braced("x1", 3), "x1", 3),
        (lambda: Braced("x1", 0), "x1", 0),
        (lambda: Braced("_x", -4), "_x", -4),
        (lambda: Braced("x1", 10**40), "x1", 10**40),
        (lambda: Braced(Braced("x1", 2), -5), "x1", -3),
        (lambda: Braced(Braced("x1", -2), 2), "x1", 0),
        (lambda: Braced(Braced(Braced("y", 1), 1), 1), "y", 3),
        (lambda: Braced(atom="x2", level=4), "x2", 4),
        (lambda: Braced(level=4, atom=Braced("x2", 1)), "x2", 5),
    ],
)
def test_an_accepted_braced_holds_an_atom_name_and_an_int(make, atom, level):
    b = make()
    assert (b.atom, b.level) == (atom, level)
    assert type(b.atom) is str and type(b.level) is int


def test_members_are_stored_as_a_tuple_that_list_edits_leave_alone():
    x1, x2 = Braced("x1", 0), Braced("x2", 1)
    members = [x1, x2]
    s = SetOf(members)
    members.append(EMPTY)
    members[0] = x2
    assert type(s.elements) is tuple and s.elements == (x1, x2)
    assert s.elements[0] is x1 and s.elements[1] is x2
    g = SetOf(m for m in (x2, EMPTY, x1))
    assert type(g.elements) is tuple and g.elements == (x2, EMPTY, x1)
    assert SetOf(elements=[x1]).elements == (x1,)
    assert SetOf(()).elements == () and SetOf([]).elements == ()
    # raw members are kept as given: a set is canonical only if normalized
    assert SetOf([x1, x1]).elements == (x1, x1)


def test_replace_builds_through_the_same_checks():
    b = Braced("x1", 2)
    assert dataclasses.replace(b, level=5) == Braced("x1", 5)
    assert dataclasses.replace(b, atom=Braced("y", 1)) == Braced("y", 3)
    assert _refusal(lambda: dataclasses.replace(b, level=True)) == (
        LevelError, "level must be an integer, got True"
    )
    assert _refusal(lambda: dataclasses.replace(b, atom="empty")) == (
        InvariantError, "invalid atom name 'empty'"
    )
    s = dataclasses.replace(A_SET, elements=[EMPTY])
    assert type(s.elements) is tuple and s.elements == (EMPTY,)
    assert _refusal(lambda: dataclasses.replace(A_SET, elements=[EMPTY, 7])) == (
        TypeError, "not a set expression: 7"
    )


def test_fields_slots_frozenness_and_repr():
    assert [f.name for f in dataclasses.fields(Braced)] == ["atom", "level"]
    assert [f.name for f in dataclasses.fields(SetOf)] == ["elements"]
    assert Braced.__match_args__ == ("atom", "level")
    assert SetOf.__match_args__ == ("elements",)
    b, s = Braced("x1", 2), SetOf([Braced("x1", 0), EMPTY])
    for node, name in ((b, "atom"), (b, "level"), (s, "elements")):
        assert not hasattr(node, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert (b.atom, b.level) == ("x1", 2) and len(s.elements) == 2
    assert repr(b) == "Braced(atom='x1', level=2)"
    assert repr(s) == (
        "SetOf(elements=(Braced(atom='x1', level=0), Empty()))"
    )
    for node in (b, s, SetOf([s, b])):
        assert pickle.loads(pickle.dumps(node)) == node
        assert copy.deepcopy(node) == node and copy.copy(node) == node


@pytest.mark.parametrize(
    "kind, params, hint",
    [
        (Braced, "(atom: 'str', level: 'int')", {"atom": str, "level": int}),
        (SetOf, "(elements: \"tuple['SetExpr', ...]\")", None),
    ],
)
def test_the_signature_is_the_dataclass_one(kind, params, hint):
    sig = inspect.signature(kind)
    assert str(sig.replace(return_annotation=inspect.Signature.empty)) == params
    assert all(
        p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
        for p in sig.parameters.values()
    )
    hints = typing.get_type_hints(kind.__init__)
    assert hints["return"] is type(None)
    if hint is not None:
        assert {k: v for k, v in hints.items() if k != "return"} == hint
    assert kind.__init__.__qualname__ == f"{kind.__name__}.__init__"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Braced("x1"),
         "Braced.__init__() missing 1 required positional argument: 'level'"),
        (lambda: Braced(level=1),
         "Braced.__init__() missing 1 required positional argument: 'atom'"),
        (lambda: Braced(),
         "Braced.__init__() missing 2 required positional arguments: 'atom' and 'level'"),
        (lambda: Braced("x1", 1, 2),
         "Braced.__init__() takes 3 positional arguments but 4 were given"),
        (lambda: Braced("x1", atom="y"),
         "Braced.__init__() got multiple values for argument 'atom'"),
        (lambda: Braced("x1", 1, depth=2),
         "Braced.__init__() got an unexpected keyword argument 'depth'"),
        (lambda: SetOf(),
         "SetOf.__init__() missing 1 required positional argument: 'elements'"),
        (lambda: SetOf([], []),
         "SetOf.__init__() takes 2 positional arguments but 3 were given"),
    ],
)
def test_the_text_of_a_call_that_does_not_bind(make, message):
    assert _refusal(make) == (TypeError, message)
