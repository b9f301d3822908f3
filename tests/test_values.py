"""What the library's value classes promise: each public value class's
exact ``repr``, equality within one class only, equal hashes for equal
values, no assignment or deletion, keyword construction with defaults,
pickle round trips, and moves applied and written field by field."""

import pickle

import pytest

from ribbonlab import (
    CancelDelete,
    CancelInsert,
    CrossSlide,
    Destab,
    Equivalent,
    Handle,
    LaurentPolynomial,
    Refuted,
    RemoveTrivialHandle,
    ReverseHandle,
    RibbonData,
    Slide,
    Stab,
    TrivialHandle,
    Unknown,
    apply_move,
    dihedral_quandle,
    group_presentation,
    parse_ribbon,
    parse_script,
    quandle_presentation,
    serialize,
    serialize_script,
)
from ribbonlab.quandle import FiniteQuandle

OPEN3A = "ribbon 1\ndim 2\nbases 3\nhandle 1 2 : -1\nhandle 1 3 : -2\n"

# (a function building the value afresh, its repr)
VALUES = [
    (lambda: Handle(1, 2, ((2, -1),)), "Handle(start=1, end=2, word=(SignedLetter(base=2, sign=-1),))"),
    (
        lambda: RibbonData(2, 3, (Handle(1, 2, ((1, -1),)), Handle(1, 3))),
        "RibbonData(dim=2, base_count=3, handles=(Handle(start=1, end=2, word=(SignedLetter(base=1, sign=-1),)),"
        " Handle(start=1, end=3, word=())))",
    ),
    (lambda: Stab(1), "Stab(base=1)"),
    (lambda: Destab(1), "Destab(base=1)"),
    (lambda: CancelInsert(1, 0, 2, -1), "CancelInsert(handle=1, position=0, base=2, sign=-1)"),
    (lambda: CancelDelete(1, 0), "CancelDelete(handle=1, position=0)"),
    (lambda: Slide(1, "end", 2, "fwd"), "Slide(handle=1, which='end', along=2, direction='fwd')"),
    (lambda: CrossSlide(1, 0, 2, "rev"), "CrossSlide(handle=1, position=0, via=2, direction='rev')"),
    (lambda: TrivialHandle(1), "TrivialHandle(base=1)"),
    (lambda: RemoveTrivialHandle(1), "RemoveTrivialHandle(handle=1)"),
    (lambda: ReverseHandle(1), "ReverseHandle(handle=1)"),
    (
        lambda: dihedral_quandle(3),
        "FiniteQuandle(name='dihedral:3', table=((1, 3, 2), (3, 2, 1), (2, 1, 3)))",
    ),
    (
        lambda: quandle_presentation(parse_ribbon(OPEN3A)),
        "QuandlePresentation(generators=3, relations=(QuandleRelation(end=2, start=1, operators=((1, 1),)),"
        " QuandleRelation(end=3, start=1, operators=((2, 1),))))",
    ),
    (
        lambda: group_presentation(parse_ribbon(OPEN3A)),
        "GroupPresentation(generators=3, relations=(GroupRelation(end=2, start=1, conjugator=(1,)),"
        " GroupRelation(end=3, start=1, conjugator=(2,))))",
    ),
    (lambda: LaurentPolynomial(((0, 1), (1, -1))), "LaurentPolynomial(terms=((0, 1), (1, -1)))"),
    (
        lambda: Equivalent((Stab(1),), (), RibbonData(2, 1), 0, 0),
        "Equivalent(script_a=(Stab(base=1),), script_b=(),"
        " meet=RibbonData(dim=2, base_count=1, handles=()), weak_used_a=0, weak_used_b=0)",
    ),
    (lambda: Refuted("dihedral:3", 9, 3), "Refuted(invariant='dihedral:3', value_a=9, value_b=3)"),
    (lambda: Unknown(66, 4), "Unknown(states=66, depth=4)"),
]
IDS = [expected.split("(", 1)[0] for _, expected in VALUES]
# the fields of each kind, read off its repr
FIELDS = {
    "Handle": ("start", "end", "word"),
    "RibbonData": ("dim", "base_count", "handles"),
    "Stab": ("base",),
    "Destab": ("base",),
    "CancelInsert": ("handle", "position", "base", "sign"),
    "CancelDelete": ("handle", "position"),
    "Slide": ("handle", "which", "along", "direction"),
    "CrossSlide": ("handle", "position", "via", "direction"),
    "TrivialHandle": ("base",),
    "RemoveTrivialHandle": ("handle",),
    "ReverseHandle": ("handle",),
    "FiniteQuandle": ("name", "table"),
    "QuandlePresentation": ("generators", "relations"),
    "GroupPresentation": ("generators", "relations"),
    "LaurentPolynomial": ("terms",),
    "Equivalent": ("script_a", "script_b", "meet", "weak_used_a", "weak_used_b"),
    "Refuted": ("invariant", "value_a", "value_b"),
    "Unknown": ("states", "depth"),
}


@pytest.mark.parametrize("build, expected", VALUES, ids=IDS)
def test_repr_names_each_field_in_order(build, expected):
    assert repr(build()) == expected


@pytest.mark.parametrize("build, expected", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(build, expected):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_of_different_classes_are_never_equal():
    values = [build() for build, _ in VALUES]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j)
    assert Stab(1) != Destab(1) != TrivialHandle(1)
    assert Stab(1) != (1,) and Stab(1) != 1
    assert RemoveTrivialHandle(1) != ReverseHandle(1)


def test_values_with_different_fields_differ():
    assert Stab(1) != Stab(2)
    assert Slide(1, "end", 2, "fwd") != Slide(1, "end", 2, "rev")
    assert Handle(1, 2) != Handle(2, 1)
    assert RibbonData(2, 1) != RibbonData(3, 1)


@pytest.mark.parametrize("build, expected", VALUES, ids=IDS)
def test_values_cannot_be_assigned_or_deleted(build, expected):
    value = build()
    before = repr(value)
    for name in (*FIELDS[type(value).__name__], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_keyword_construction_and_defaults():
    assert Handle(1, 2) == Handle(start=1, end=2, word=()) == Handle(1, end=2)
    assert Handle(end=2, start=1, word=[(2, -1)]).word == ((2, -1),)
    assert RibbonData(2, 1) == RibbonData(dim=2, base_count=1, handles=[])
    assert LaurentPolynomial() == LaurentPolynomial(terms=()) and LaurentPolynomial().terms == ()
    assert Slide(handle=1, which="end", along=2, direction="fwd") == Slide(1, "end", 2, "fwd")
    assert Refuted(invariant="genus", value_a=1, value_b=0) == Refuted("genus", 1, 0)
    assert FiniteQuandle(name="q", table=[[1]]).table == ((1,),)
    with pytest.raises(TypeError):
        Stab()
    with pytest.raises(TypeError):
        Stab(1, 2)
    with pytest.raises(TypeError):
        Stab(base=1, handle=2)
    with pytest.raises(TypeError):
        Handle(1, 2, (), start=1)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_values_survive_a_pickle_round_trip(protocol):
    for build, expected in VALUES:
        value = build()
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value) and repr(copy) == expected
        with pytest.raises(AttributeError):
            setattr(copy, FIELDS[type(value).__name__][0], 0)
    parsed = parse_ribbon(OPEN3A)
    assert serialize(pickle.loads(pickle.dumps(parsed, protocol))) == OPEN3A


# every move kind once, on open3a, with the record after it
CHAIN = [
    (Stab(3), "bases 4\nhandle 1 2 : -1\nhandle 1 3 : -2\nhandle 4 3 :\n"),
    (TrivialHandle(2), "bases 4\nhandle 1 2 : -1\nhandle 1 3 : -2\nhandle 4 3 :\nhandle 2 2 :\n"),
    (Slide(1, "start", 2, "fwd"), "bases 4\nhandle 3 2 : 2 -1\nhandle 1 3 : -2\nhandle 4 3 :\nhandle 2 2 :\n"),
    (CrossSlide(1, 1, 2, "fwd"), "bases 4\nhandle 3 2 : 2 -2 -3 2\nhandle 1 3 : -2\nhandle 4 3 :\nhandle 2 2 :\n"),
    (CancelDelete(1, 0), "bases 4\nhandle 3 2 : -3 2\nhandle 1 3 : -2\nhandle 4 3 :\nhandle 2 2 :\n"),
    (CancelInsert(2, 1, 3, -1), "bases 4\nhandle 3 2 : -3 2\nhandle 1 3 : -2 -3 3\nhandle 4 3 :\nhandle 2 2 :\n"),
    (ReverseHandle(1), "bases 4\nhandle 2 3 : -2 3\nhandle 1 3 : -2 -3 3\nhandle 4 3 :\nhandle 2 2 :\n"),
    (RemoveTrivialHandle(4), "bases 4\nhandle 2 3 : -2 3\nhandle 1 3 : -2 -3 3\nhandle 4 3 :\n"),
    (Destab(4), "bases 3\nhandle 2 3 : -2 3\nhandle 1 3 : -2 -3 3\n"),
]
SCRIPT = "stab 3\ntrivh 2\nslide 1 start 2 fwd\nxslide 1 1 2 fwd\ndel 1 0\nins 2 1 -3\nrevh 1\nuntrivh 4\ndestab 4\n"


def test_each_move_kind_applies_and_writes_its_fields_in_order():
    data = parse_ribbon(OPEN3A)
    for move, after in CHAIN:
        data = apply_move(data, move)
        assert serialize(data) == "ribbon 1\ndim 2\n" + after
    script = tuple(move for move, _ in CHAIN)
    assert serialize_script(script) == SCRIPT
    assert parse_script(SCRIPT) == script
    assert [serialize_script((move,)) for move, _ in CHAIN] == [line + "\n" for line in SCRIPT.splitlines()]
