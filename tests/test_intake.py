"""Reading records in: ``parse_ribbon`` on valid and malformed text,
integers in every text format, records whose fields are not integers,
and the verdict a record keeps.

The digest pins what the parser makes of a seeded corpus of ``ribbon 1``
texts, the serialized record or the error raised, so a faster parser
must give the same records and the same messages, line numbers
included.
"""

import hashlib
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    _PUBLIC,
    Equivalent,
    FiniteQuandle,
    Handle,
    LaurentPolynomial,
    MoveError,
    RibbonData,
    RibbonFormatError,
    SignedLetter,
    Stab,
    TrivialHandle,
    alexander_polynomial,
    apply_cancel_delete,
    apply_cancel_insert,
    apply_cross_slide,
    apply_destabilize,
    apply_move,
    apply_script,
    apply_slide,
    apply_stabilize,
    apply_trivial_handle,
    builtin_quandle,
    canonical_bytes,
    canonical_form,
    certify,
    check_quandle_axioms,
    coloring_profile,
    component_count,
    count_colorings,
    dihedral_quandle,
    enumerate_moves,
    free_reduce,
    free_reduce_word,
    genus,
    group_presentation,
    is_sphere_knot,
    list_colorings,
    macro_clone_handle,
    macro_merge_bases,
    parse_quandle,
    parse_ribbon,
    parse_script,
    quandle_presentation,
    remove_trivial_handle,
    replay_canonical,
    reverse_flip,
    reverse_handle,
    reversed_handle,
    ribbon,
    search_equiv,
    serialize,
    serialize_outcome,
    serialize_quandle,
    serialize_script,
    slides,
    trivial_quandle,
    validate,
)
from ribbonlab.cli import generate
from ribbonlab.ribbon import _coded, _decimal

from oracles import random_knot, random_regular, random_ribbon

GOLDEN = Path(__file__).parent / "golden"

# Tokens a mutation writes into a text.  Tokens with ``_``, ``+`` or
# digits other than ASCII ones are left out: the corpus pins what every
# version of the parser reads alike.
NOISE = ["x", "1.5", "--1", "-", "1-", "0x1", "1e3", "-0", "00", "007", ":", "::", "handle",
         "ribbon", "dim", "bases", "1:", "99", "-99", "12345678901234567890"]


def _outcome(text) -> str:
    try:
        return serialize(parse_ribbon(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _records(rng):
    """Valid records: random presentations, knots and regular records,
    some in higher dimensions."""
    for i in range(120):
        kind = i % 3
        if kind == 0:
            data = random_ribbon(rng, max_bases=6, max_handles=6, max_len=5)
        elif kind == 1:
            data = random_knot(rng, rng.randint(1, 9), extra=rng.randint(0, 2), max_len=rng.randint(0, 4))
        else:
            data = random_regular(rng, rng.randint(1, 6), layers=rng.randint(0, 2))
        yield RibbonData(rng.choice((2, 2, 3, 4)), data.base_count, data.handles)


def _mutated(text: str, rng) -> str:
    """``text`` with one seeded fault or one change of layout."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.randrange(12)
    if kind == 0 and tokens:  # a dropped token
        del tokens[rng.randrange(len(tokens))]
    elif kind == 1:  # an extra token
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(NOISE))
    elif kind == 2 and len(tokens) > 1:  # a number out of range
        j = rng.randrange(1, len(tokens))
        tokens[j] = str(rng.choice((1, -1)) * rng.randint(5, 12))
    elif kind == 3 and len(tokens) > 4:  # a zero letter
        tokens[rng.randrange(4, len(tokens))] = rng.choice(("0", "-0", "00"))
    elif kind == 4 and len(tokens) > 1:  # a token that is no integer
        tokens[rng.randrange(1, len(tokens))] = rng.choice(NOISE[:7])
    elif kind == 5:  # a bad header
        lines[0] = rng.choice(("ribbon 2", "ribon 1", "ribbon", "ribbon 1 1", "RIBBON 1", "dim 2"))
    elif kind == 6:  # a bad dim or bases line
        j = rng.choice((1, 2)) if len(lines) > 2 else len(lines) - 1
        lines[j] = rng.choice(("dim", "dim 1", "dim 0", "dim x", "bases", "bases 0", "bases -2",
                               "bases 2 3", "dim 2 2", "handle 1 1 :"))
    elif kind == 7:  # a comment, after a line or on its own
        if rng.random() < 0.5:
            tokens.append(rng.choice(("# note", "#", "#handle 1 1 :", "# 1 2 3")))
        else:
            lines.insert(i, rng.choice(("# comment", "   # indented", "#")))
            tokens = lines[i].split()
            i = None
    elif kind == 8:  # a comment inside a token
        if tokens:
            j = rng.randrange(len(tokens))
            tokens[j] = tokens[j] + "#" + rng.choice(("", "x", "1 2"))
    elif kind == 9:  # blank and whitespace-only lines
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(("", "   ", "\t", " \t ")))
        i = None
    elif kind == 10:  # lines cut off the end
        del lines[rng.randint(0, len(lines) - 1):]
        i = None
    else:  # a handle line moved up among the header lines
        if len(lines) > 3:
            lines.insert(rng.randint(0, 2), lines.pop())
        i = None
    if i is not None:
        lines[i] = rng.choice((" ", "  ", "\t")).join(tokens)
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n"))


def parse_corpus(rng):
    """The corpus of the parse digest: every ``tests/golden/*.ribbon``
    but those that write ``_``, ``+`` or a character other than ASCII,
    then seeded records serialized and mutated, some with CRLF line ends
    and some as bytes."""
    for path in sorted(GOLDEN.glob("*.ribbon")):
        text = path.read_text(encoding="utf-8")
        if text.isascii() and "_" not in text and "+" not in text:
            yield text
    for data in _records(rng):
        text = serialize(data)
        yield text
        for _ in range(4):
            yield _mutated(text, rng)
        form = rng.randrange(3)
        if form == 1:
            text = text.replace("\n", "\r\n")
        elif form == 2:
            text = _mutated(text, rng).encode("utf-8")
        yield text
    yield ""
    yield b""
    yield " \n\t\n"
    yield "# only a comment\n"


# Recorded before the parser was made to read each handle line in one
# pass: it may get faster, but not read one text differently.
PARSE_DIGEST = "fe1ee2c5f3ba691edd56ab6c8dfa0f695879db7d2c060a80cce2d2d88b46b001"


def test_parse_outcomes_match_the_recorded_digest():
    h = hashlib.sha256()
    for text in parse_corpus(random.Random(1702)):
        h.update(_outcome(text).encode("utf-8") + b"\0")
    assert h.hexdigest() == PARSE_DIGEST


# ---------------------------------------------------------------------------
# plain decimal integers


@pytest.mark.parametrize("token", ["0", "-0", "7", "007", "-12", "123456789012345678901234567890"])
def test_a_decimal_is_an_optional_minus_and_ascii_digits(token):
    assert _decimal(token) == int(token)


@pytest.mark.parametrize("token", ["", "-", "--1", "+3", "1_0", "３", "٣", " 3", "3 ", "1.0", "0x1", "1e3"])
def test_what_int_would_also_take_is_no_decimal(token):
    with pytest.raises(ValueError):
        _decimal(token)


@pytest.mark.parametrize("token", ["1_0", "+3", "３"])
def test_every_reader_takes_plain_decimals_only(token):
    with pytest.raises(RibbonFormatError, match=re.escape(f"line 3: non-integer token '{token}'")):
        parse_ribbon(f"ribbon 1\ndim 2\nbases {token}\n")
    with pytest.raises(RibbonFormatError, match=re.escape(f"line 4: non-integer token '{token}'")):
        parse_ribbon(f"ribbon 1\ndim 2\nbases 3\nhandle 1 2 : {token}\n")
    with pytest.raises(RibbonFormatError, match=re.escape(f"line 1: non-integer token '{token}'")):
        parse_script(f"stab {token}\n")
    with pytest.raises(RibbonFormatError, match=re.escape(f"line 2: non-integer token '{token}'")):
        parse_quandle(f"quandle 1\nsize {token}\n1\n")
    with pytest.raises(RibbonFormatError, match=re.escape(f"line 3: non-integer token '{token}'")):
        parse_quandle(f"quandle 1\nsize 1\n{token}\n")
    with pytest.raises(ValueError, match="bad quandle size"):
        builtin_quandle(f"dihedral:{token}")
    with pytest.raises(ValueError, match="non-integer argument"):
        generate(f"torus:{token}")


# ---------------------------------------------------------------------------
# records whose fields are not integers


# These require a valid record and refuse any other with ``ValueError``.
# Each ``apply_*`` function checks the record before it reads the move.
REFUSING = (
    canonical_form,
    canonical_bytes,
    lambda d: count_colorings(d, dihedral_quandle(3)),
    alexander_polynomial,
    genus,
    component_count,
    is_sphere_knot,
    lambda d: apply_move(d, Stab(1)),
    lambda d: apply_script(d, (TrivialHandle(1),)),
    lambda d: search_equiv(d, d, 1, 0, 10),
    lambda d: apply_stabilize(d, 1),
    lambda d: apply_destabilize(d, 1),
    lambda d: apply_cancel_insert(d, 1, 0, 1, 1),
    lambda d: apply_cancel_delete(d, 1, 0),
    lambda d: apply_slide(d, 1, "end", 2, "fwd"),
    lambda d: apply_cross_slide(d, 1, 0, 2, "fwd"),
    lambda d: apply_trivial_handle(d, 1),
    lambda d: remove_trivial_handle(d, 1),
    lambda d: reverse_handle(d, 1),
)


class Index:
    """An integer-like value that is not an ``int``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


# A record keeps every value as given, letters too; ``validate`` reports
# each one that is not an ``int``.
NOT_INTEGERS = {
    "float end": (lambda: RibbonData(2, 2, (Handle(1.5, 2, ()),)), "handle 1: start base 1.5 is not an integer"),
    "float bases": (lambda: RibbonData(2, 2.0, (Handle(1, 2, ()),)), "bases 2.0 is not an integer"),
    "bool end": (lambda: RibbonData(2, 2, (Handle(1, True, ()),)), "handle 1: end base True is not an integer"),
    "bool dim": (lambda: RibbonData(True, 2, (Handle(1, 2, ()),)), "dim True is not an integer"),
    "string bases": (lambda: RibbonData(2, "2", (Handle(1, 2, ()),)), "bases '2' is not an integer"),
    "float letter base": (lambda: RibbonData(2, 2, (Handle(1, 2, ((2.0, -1),)),)),
                          "handle 1: letter 0 base 2.0 is not an integer"),
    "bool letter sign": (lambda: RibbonData(2, 2, (Handle(1, 2, ((1, True),)),)),
                         "handle 1: letter 0 sign True is not an integer"),
    "string letter base": (lambda: RibbonData(2, 2, (Handle(1, 2, (("2", -1),)),)),
                           "handle 1: letter 0 base '2' is not an integer"),
    "index letter base": (lambda: RibbonData(2, 2, (Handle(1, 2, ((Index(2), -1),)),)),
                          "handle 1: letter 0 base Index(2) is not an integer"),
    "tuple handle": (lambda: RibbonData(2, 2, ((1, 2, ()),)), "handle 1: (1, 2, ()) is not a Handle"),
    "letter not a pair": (lambda: RibbonData(2, 2, (Handle(1, 2, ((1, -1, 0),)),)),
                          "handle 1: letter 0 is (1, -1, 0), not a (base, sign) pair"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
def test_fields_that_are_not_integers_are_reported_and_rejected(case):
    build, message = NOT_INTEGERS[case]
    data = build()
    assert validate(data) == [message]
    for compute in REFUSING:
        with pytest.raises(ValueError):
            compute(data)


# A record that ``validate`` flags for a value out of range is refused the
# same way, with its first message: every computation reads the one
# verdict kept on it.  A bad letter is refused also where free reduction
# would delete it.
OUT_OF_RANGE = {
    "dim 1": (lambda: RibbonData(1, 1, ()), ["dim must be >= 2"]),
    "bases 0": (lambda: RibbonData(2, 0, ()), ["bases must be >= 1"]),
    "end base 3 of 2": (lambda: RibbonData(2, 2, (Handle(1, 3, ()),)), ["handle 1: end base 3 out of range 1..2"]),
    "start base 0": (lambda: RibbonData(2, 2, (Handle(0, 2, ()),)), ["handle 1: start base 0 out of range 1..2"]),
    "letter base 3 of 2": (lambda: RibbonData(2, 2, (Handle(1, 2, ((3, 1),)),)),
                           ["handle 1: letter 0 base 3 out of range 1..2"]),
    "letter base 0": (lambda: RibbonData(2, 2, (Handle(1, 2, ((0, -1),)),)),
                      ["handle 1: letter 0 base 0 out of range 1..2"]),
    "letter sign 2": (lambda: RibbonData(2, 2, (Handle(1, 2, ((1, 2),)),)),
                      ["handle 1: letter 0 has sign 2, expected +1 or -1"]),
    "cancelling pair on base 5 of 2": (lambda: RibbonData(2, 2, (Handle(1, 2, ((5, 1), (5, -1))),)),
                                       ["handle 1: letter 0 base 5 out of range 1..2",
                                        "handle 1: letter 1 base 5 out of range 1..2"]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_a_dim_below_two_or_no_bases_is_reported_and_rejected(case):
    build, messages = OUT_OF_RANGE[case]
    data = build()
    assert validate(data) == messages
    for compute in REFUSING:
        with pytest.raises(ValueError, match=re.escape(messages[0])):
            compute(data)


def test_letters_are_read_exactly_or_rejected():
    for letter in [(1.5, 1), (1, 0.5), (None, 1), (2.0, -1), (1, True), ("2", -1), (Index(2), -1)]:
        # a Handle stores the letter's values as given, coercing none
        stored = Handle(1, 2, (letter,)).word[0]
        assert type(stored) is SignedLetter
        assert all(kept is given for kept, given in zip(stored, letter))
        # and every reader of letters refuses it with ValueError
        for read in (_coded, free_reduce_word, reverse_flip):
            with pytest.raises(ValueError, match=re.escape(f"crossing letter {letter!r} is not a pair of integers")):
                read((letter,))


# ---------------------------------------------------------------------------
# parsed records are records


@st.composite
def records(draw):
    n = draw(st.integers(1, 6))
    base = st.integers(1, n)
    letter = st.tuples(base, st.sampled_from((1, -1)))
    handles = draw(st.lists(st.tuples(base, base, st.lists(letter, max_size=5)), max_size=6))
    return RibbonData(draw(st.integers(2, 5)), n, tuple(Handle(s, e, tuple(w)) for s, e, w in handles))


@settings(max_examples=150, deadline=None)
@given(data=records())
def test_a_parsed_record_is_the_record_the_public_constructors_build(data):
    parsed = parse_ribbon(serialize(data))
    assert parsed == data
    assert hash(parsed) == hash(data)
    assert repr(parsed) == repr(data)
    assert [type(h) for h in parsed.handles] == [Handle] * len(data.handles)
    for h in parsed.handles:
        assert all(type(letter) is SignedLetter and type(letter.base) is int for letter in h.word)
    copy = pickle.loads(pickle.dumps(parsed))
    assert copy == data and validate(copy) == [] and serialize(copy) == serialize(data)
    assert pickle.loads(pickle.dumps(data)) == parsed
    assert RibbonData(data.dim + 1, parsed.base_count, parsed.handles) == RibbonData(
        data.dim + 1, data.base_count, data.handles
    )
    # a changed record does not keep the verdict of the one it came from
    assert validate(RibbonData(parsed.dim, 0, parsed.handles))[0] == "bases must be >= 1"
    assert validate(RibbonData(1, parsed.base_count, parsed.handles)) == validate(
        RibbonData(1, data.base_count, data.handles)
    )


# ---------------------------------------------------------------------------
# a record's verdict is found once


def test_a_records_verdict_is_found_once_and_kept(monkeypatch):
    calls = []
    diagnose = ribbon._diagnose
    monkeypatch.setattr(ribbon, "_diagnose", lambda d: calls.append(d) or diagnose(d))
    data = RibbonData(2, 2, (Handle(1, 2, ((2, -1), (1, -1))),))
    first = validate(data)
    assert first == [] and len(calls) == 1
    first.append("changed")  # each call returns a list of its own
    assert validate(data) == []
    assert count_colorings(data, dihedral_quandle(3)) == 9
    assert str(alexander_polynomial(data)) == "t^2 - t + 1"
    assert enumerate_moves(data, 0)
    assert isinstance(search_equiv(data, data, 0, 0, 10), Equivalent)
    assert len(calls) == 1
    # parsed and canonical records are built with their verdict
    for record in (parse_ribbon(serialize(data)), canonical_form(data)):
        assert validate(record) == []
        assert count_colorings(record, dihedral_quandle(3)) == 9
        assert str(alexander_polynomial(record)) == "t^2 - t + 1"
    assert len(calls) == 1
    bad = RibbonData(2, 1, (Handle(1, 2, ()),))
    assert validate(bad) == ["handle 1: end base 2 out of range 1..1"]
    with pytest.raises(ValueError, match="out of range"):
        count_colorings(bad, dihedral_quandle(3))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# values that are not what they are read as
#
# A public constructor keeps what it is given, a container as a tuple when
# it can be made one; what reads a record, a word, a handle, a script or a
# quandle table refuses anything else with ``ValueError``, never with a
# ``TypeError`` or ``AttributeError``, and ``validate`` reports it.

NOT_CONTAINERS = st.one_of(st.sampled_from([None, 5, 1.5, "ab", object()]), st.integers(), st.floats())

KNOT = parse_ribbon("ribbon 1\ndim 2\nbases 2\nhandle 1 2 : -2 -1\n")
D3 = dihedral_quandle(3)
SAME = search_equiv(KNOT, KNOT, 0, 0, 10)
ROUTE = ((1, "fwd"),)  # from base 1 to base 2 of ``KNOT``

# each public function that reads one of those, with the value in each
# such argument
READERS = {
    "serialize": [serialize],
    "component_count": [component_count],
    "genus": [genus],
    "is_sphere_knot": [is_sphere_knot],
    "free_reduce_word": [free_reduce_word],
    "free_reduce": [free_reduce],
    "reverse_flip": [reverse_flip],
    "reversed_handle": [reversed_handle],
    "canonical_form": [canonical_form],
    "canonical_bytes": [canonical_bytes],
    "serialize_script": [serialize_script],
    "apply_move": [lambda x: apply_move(x, Stab(1)), lambda x: apply_move(KNOT, x)],
    "apply_script": [lambda x: apply_script(x, (Stab(1),)), lambda x: apply_script(KNOT, x)],
    "apply_stabilize": [lambda x: apply_stabilize(x, 1)],
    "apply_destabilize": [lambda x: apply_destabilize(x, 1)],
    "apply_cancel_insert": [lambda x: apply_cancel_insert(x, 1, 0, 1, 1)],
    "apply_cancel_delete": [lambda x: apply_cancel_delete(x, 1, 0)],
    "apply_slide": [lambda x: apply_slide(x, 1, "end", 2, "fwd")],
    "apply_cross_slide": [lambda x: apply_cross_slide(x, 1, 0, 2, "fwd")],
    "apply_trivial_handle": [lambda x: apply_trivial_handle(x, 1)],
    "remove_trivial_handle": [lambda x: remove_trivial_handle(x, 1)],
    "reverse_handle": [lambda x: reverse_handle(x, 1)],
    "slides": [slides],
    "enumerate_moves": [lambda x: enumerate_moves(x, 0), lambda x: enumerate_moves(x, 1)],
    "FiniteQuandle": [lambda x: FiniteQuandle("q", x)],
    "check_quandle_axioms": [check_quandle_axioms],
    "serialize_quandle": [serialize_quandle],
    "quandle_presentation": [quandle_presentation],
    "group_presentation": [group_presentation],
    "count_colorings": [lambda x: count_colorings(x, D3), lambda x: count_colorings(KNOT, x)],
    "list_colorings": [lambda x: list_colorings(x, D3), lambda x: list_colorings(KNOT, x)],
    "coloring_profile": [lambda x: coloring_profile(x, (D3,)), lambda x: coloring_profile(KNOT, x)],
    "alexander_polynomial": [alexander_polynomial],
    "search_equiv": [lambda x: search_equiv(x, KNOT, 1, 0, 10), lambda x: search_equiv(KNOT, x, 1, 0, 10)],
    "certify": [lambda x: certify(x, KNOT, SAME), lambda x: certify(KNOT, x, SAME)],
    "replay_canonical": [lambda x: replay_canonical(x, ()), lambda x: replay_canonical(KNOT, x)],
    "macro_merge_bases": [lambda x: macro_merge_bases(x, 1, 2, ROUTE), lambda x: macro_merge_bases(KNOT, 1, 2, x)],
    "macro_clone_handle": [lambda x: macro_clone_handle(x, KNOT.handles[0]), lambda x: macro_clone_handle(KNOT, x)],
}
# each public function that reads a text, a spec, a size, a weak budget, a
# base or an outcome, with the value in each such argument
KIND_READERS = {
    "parse_ribbon": [parse_ribbon],
    "parse_script": [parse_script],
    "parse_quandle": [parse_quandle],
    "builtin_quandle": [builtin_quandle],
    "dihedral_quandle": [dihedral_quandle],
    "trivial_quandle": [trivial_quandle],
    "serialize_outcome": [serialize_outcome],
    "enumerate_moves": [lambda x: enumerate_moves(KNOT, x)],
    "macro_merge_bases": [lambda x: macro_merge_bases(KNOT, x, 2, ROUTE), lambda x: macro_merge_bases(KNOT, 1, x, ROUTE)],
}
# values that are none of those
WRONG_KINDS = st.one_of(st.sampled_from([None, True, 1.5, object(), (), [2]]), st.floats())
# the public names that read nothing: the value classes and errors, and
# ``validate``, which reports
OTHERS = {
    "SignedLetter", "Handle", "RibbonData", "RibbonFormatError", "MoveError", "Stab",
    "Destab", "CancelInsert", "CancelDelete", "Slide", "CrossSlide", "TrivialHandle", "RemoveTrivialHandle",
    "ReverseHandle", "LaurentPolynomial", "Equivalent", "Refuted", "Unknown", "validate",
}


def test_every_public_name_is_sorted_as_a_reader_or_not():
    public = {name for names in _PUBLIC.values() for name in names}
    assert READERS.keys() | KIND_READERS.keys() | OTHERS == public
    assert not (READERS.keys() | KIND_READERS.keys()) & OTHERS


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=20, deadline=None)
@given(value=NOT_CONTAINERS)
def test_a_reader_refuses_what_it_cannot_read_with_value_error(name, value):
    for read in READERS[name]:
        with pytest.raises(ValueError):
            read(value)


@pytest.mark.parametrize("name", sorted(KIND_READERS))
@settings(max_examples=20, deadline=None)
@given(value=WRONG_KINDS)
def test_a_reader_refuses_a_value_of_another_kind_with_value_error(name, value):
    for read in KIND_READERS[name]:
        with pytest.raises(ValueError):
            read(value)


# calls that raised ``AttributeError`` or ``TypeError``, or, for
# ``dihedral_quandle(True)``, returned a one-element quandle
@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_ribbon(None),
        lambda: parse_script(None),
        lambda: parse_quandle(5),
        lambda: serialize_outcome(None),
        lambda: builtin_quandle(None),
        lambda: coloring_profile(KNOT, None),
        lambda: enumerate_moves(KNOT, "x"),
        lambda: enumerate_moves(KNOT, None),
        lambda: dihedral_quandle(1.5),
        lambda: dihedral_quandle(True),
        lambda: trivial_quandle(None),
        lambda: macro_merge_bases(KNOT, 1, None, ROUTE),
        lambda: certify(KNOT, KNOT, Equivalent(5, (), KNOT, 0, 0)),
        # ran the whole search, then raised ``AttributeError`` on ``stats``
        lambda: search_equiv(KNOT, KNOT, 1, 0, 10, stats=5),
        lambda: search_equiv(KNOT, KNOT, 1, 0, 10, stats=[]),
        # raised ``AttributeError``, and only when the certificate failed
        lambda: certify(KNOT, KNOT, Equivalent(("x",), (), KNOT, 0, 0), 5),
        lambda: certify(KNOT, KNOT, SAME, {}),
        lambda: generate(5),
        lambda: LaurentPolynomial.from_dict(5),
        # listed the budget-0 successors
        lambda: enumerate_moves(KNOT, -1),
        # accepted, the second printing as t^0.5
        lambda: LaurentPolynomial.from_dict({"a": 1}),
        lambda: LaurentPolynomial.from_dict({0.5: 1}),
        lambda: LaurentPolynomial.from_dict({0: True}),
        lambda: LaurentPolynomial.from_dict({0: 1.0}),
        lambda: LaurentPolynomial(((0, 1.5),)).evaluate(2),
        # raised ``TypeError``
        lambda: str(LaurentPolynomial(5)),
        lambda: str(LaurentPolynomial(((0, "x"),))),
        lambda: LaurentPolynomial(5).evaluate(2),
        # built, then ``as_dict`` raised ``TypeError``
        lambda: LaurentPolynomial(5),
        # built, reading back as {0.5: 1}
        lambda: LaurentPolynomial(((0.5, 1),)),
        # built, evaluating to 3 at 1 from a repeated exponent
        lambda: LaurentPolynomial(((0, 1), (0, 2))),
        # built, printing as -0*t and unequal to the zero polynomial
        lambda: LaurentPolynomial(((1, 0),)),
        lambda: LaurentPolynomial.from_dict({0: 0.0}),
    ],
)
def test_a_value_of_the_wrong_kind_is_refused_with_value_error(call):
    with pytest.raises(ValueError):
        call()


# a script is any sequence of moves: what is not a sequence is refused
# with ``ValueError``, an entry that is not a move with ``MoveError``
SCRIPT_READERS = {
    "apply_script": lambda x: apply_script(KNOT, x),
    "serialize_script": serialize_script,
    "replay_canonical": lambda x: replay_canonical(KNOT, x),
}


@pytest.mark.parametrize("name", sorted(SCRIPT_READERS))
def test_a_script_reader_refuses_a_non_sequence_and_a_non_move(name):
    read = SCRIPT_READERS[name]
    for value in (5, None):
        with pytest.raises(ValueError, match="is not a sequence of moves"):
            read(value)
    with pytest.raises(MoveError, match="unknown move 'x'"):
        read(("x",))


@settings(max_examples=50, deadline=None)
@given(value=NOT_CONTAINERS)
def test_a_value_that_is_not_a_container_is_kept_and_reported(value):
    assert validate(value) == [f"{value!r} is not a RibbonData"]
    kept = not isinstance(value, str)  # a string is a sequence, made a tuple of its characters
    handle, record = Handle(1, 2, value), RibbonData(2, 2, value)
    assert (handle.word is value, record.handles is value) == (kept, kept)
    problems = validate(RibbonData(2, 2, (handle,)))
    assert problems and all(p.startswith("handle 1: ") for p in problems)
    assert validate(record)
    for bad in (RibbonData(2, 2, (handle,)), record):
        with pytest.raises(ValueError, match="^invalid data: "):
            count_colorings(bad, D3)
