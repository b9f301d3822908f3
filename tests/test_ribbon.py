import itertools
import random

import pytest

from ribbonlab import (
    Handle,
    RibbonData,
    RibbonFormatError,
    SignedLetter,
    canonical_bytes,
    canonical_form,
    component_count,
    free_reduce,
    free_reduce_word,
    genus,
    is_sphere_knot,
    parse_ribbon,
    reverse_flip,
    reversed_handle,
    serialize,
    validate,
)
from ribbonlab.cli import generate

from oracles import graph_components, random_order_reduce, random_ribbon, random_word

UNKNOT_TEXT = "ribbon 1\ndim 2\nbases 1\n"
SPUN_TREFOIL = generate("spun-trefoil")


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_smallest_legal_file():
    assert parse_ribbon(UNKNOT_TEXT) == RibbonData(2, 1, ())


def test_parse_handle_line():
    data = parse_ribbon("ribbon 1\ndim 2\nbases 2\nhandle 1 2 : -2 -1\n")
    assert data.handles == (Handle(1, 2, (SignedLetter(2, -1), SignedLetter(1, -1))),)


def test_parse_accepts_comments_and_blank_lines():
    text = "# header\nribbon 1\n\ndim 3  # spun\nbases 2\nhandle 1 2 :  # empty word\n"
    data = parse_ribbon(text)
    assert data == RibbonData(3, 2, (Handle(1, 2, ()),))


def test_parse_accepts_bytes():
    assert parse_ribbon(UNKNOT_TEXT.encode()) == RibbonData(2, 1, ())


def test_parse_out_of_range_endpoint():
    with pytest.raises(RibbonFormatError, match="base index 3 out of range"):
        parse_ribbon("ribbon 1\ndim 2\nbases 2\nhandle 1 3 :\n")


def test_parse_out_of_range_letter():
    with pytest.raises(RibbonFormatError, match="base index 9 out of range"):
        parse_ribbon("ribbon 1\ndim 2\nbases 2\nhandle 1 2 : 9\n")


def test_parse_malformed_header():
    with pytest.raises(RibbonFormatError, match="line 1.*ribbon 1"):
        parse_ribbon("ribbons 2\n")


def test_parse_non_integer_token():
    with pytest.raises(RibbonFormatError, match="non-integer token 'x'"):
        parse_ribbon("ribbon 1\ndim x\nbases 1\n")


def test_parse_dim_below_two():
    with pytest.raises(RibbonFormatError, match="line 2.*dim must be >= 2"):
        parse_ribbon("ribbon 1\ndim 1\nbases 1\n")


def test_parse_reports_line_numbers():
    try:
        parse_ribbon("ribbon 1\ndim 2\nbases 2\nhandle 1 2 :\nhandle 4 1 :\n")
    except RibbonFormatError as exc:
        assert exc.line == 5
    else:
        pytest.fail("expected a format error")


def test_serialize_unknot_exact_bytes():
    assert serialize(RibbonData(2, 1, ())) == UNKNOT_TEXT


def test_serialize_spun_trefoil_line():
    assert "handle 1 2 : -2 -1" in serialize(SPUN_TREFOIL)


def test_round_trip_identity_on_random_data():
    rng = random.Random(1)
    for _ in range(200):
        data = random_ribbon(rng)
        assert parse_ribbon(serialize(data)) == data


def test_parse_serialize_fixed_point_on_normalized_text():
    for text in (UNKNOT_TEXT, serialize(SPUN_TREFOIL), serialize(generate("torus:2"))):
        assert serialize(parse_ribbon(text)) == text


# ---------------------------------------------------------------------------
# validation


def test_validate_unknot_clean():
    assert validate(RibbonData(2, 1, ())) == []


def test_validate_word_letter_out_of_range():
    data = RibbonData(2, 2, (Handle(1, 2, ((5, 1),)),))
    problems = validate(data)
    assert len(problems) == 1
    assert problems == ["handle 1: letter 0 base 5 out of range 1..2"]


def test_validate_dim():
    problems = validate(RibbonData(1, 1, ()))
    assert len(problems) == 1
    assert problems[0] == "dim must be >= 2"


def test_validate_bad_sign():
    data = RibbonData(2, 1, (Handle(1, 1, ((1, 2),)),))
    assert validate(data) == ["handle 1: letter 0 has sign 2, expected +1 or -1"]


@pytest.mark.parametrize(
    "word",
    [
        [(2, -1), (1, 1)],
        ((2, -1), (1, 1)),
        [SignedLetter(2, -1), SignedLetter(1, 1)],
        (SignedLetter(2, -1), (1, 1)),
        [[2, -1], [1, 1]],
        ([2, -1], SignedLetter(1, 1)),
        iter([(2, -1), (1, 1)]),
    ],
)
def test_handle_converts_words_to_int_letters(word):
    # plain pairs of ints become letters of the same ints; values that are
    # not ints are kept as given (see tests/test_intake.py)
    h = Handle(1, 2, word)
    assert h.word == ((2, -1), (1, 1))
    assert type(h.word) is tuple
    for letter in h.word:
        assert type(letter) is SignedLetter
        assert type(letter.base) is int and type(letter.sign) is int


def test_handle_keeps_a_word_that_is_already_letters():
    word = (SignedLetter(2, -1), SignedLetter(1, 1))
    assert Handle(1, 2, word).word is word


# ---------------------------------------------------------------------------
# genus and components


def test_genus_examples():
    assert genus(RibbonData(2, 1, ())) == 0
    assert genus(SPUN_TREFOIL) == 0
    assert genus(RibbonData(2, 1, (Handle(1, 1, ()),))) == 1


def test_genus_rejects_disconnected():
    with pytest.raises(ValueError, match="not a knot presentation"):
        genus(RibbonData(2, 2, ()))
    with pytest.raises(ValueError, match="not a knot presentation"):
        genus(RibbonData(2, 3, (Handle(1, 1, ()), Handle(1, 1, ()))))


def test_is_sphere_knot():
    assert is_sphere_knot(RibbonData(2, 1, ()))
    assert not is_sphere_knot(RibbonData(2, 1, (Handle(1, 1, ()),)))
    assert not is_sphere_knot(RibbonData(2, 2, ()))


def test_component_count_matches_bfs_oracle():
    rng = random.Random(2)
    for _ in range(300):
        data = random_ribbon(rng)
        assert component_count(data) == graph_components(data)


def test_component_count_follows_the_handles_not_the_base_count():
    # bases no handle end touches are counted, not visited
    assert component_count(RibbonData(2, 10**20, ())) == 10**20
    assert component_count(RibbonData(2, 10**20, (Handle(1, 2, ()), Handle(5, 2, ((7, 1),))))) == 10**20 - 2
    with pytest.raises(ValueError, match="not a knot presentation"):
        genus(RibbonData(2, 10**20, ()))


def test_crossings_do_not_join_components():
    # a handle through another base's interior leaves it a separate component
    data = RibbonData(2, 2, (Handle(1, 1, ((2, 1),)),))
    assert component_count(data) == 2


# ---------------------------------------------------------------------------
# free reduction


def test_free_reduce_examples():
    assert free_reduce_word(((1, 1), (1, -1))) == ()
    assert free_reduce_word(((2, -1), (1, 1), (1, -1), (2, 1))) == ()
    word = ((1, 1), (2, 1), (1, -1))
    assert free_reduce_word(word) == tuple(SignedLetter(b, s) for b, s in word)


def test_free_reduce_confluent():
    rng = random.Random(3)
    for _ in range(200):
        word = random_word(rng, base_count=3, max_len=30)
        expected = free_reduce_word(word)
        assert random_order_reduce(word, rng) == expected


def test_free_reduce_preserves_genus():
    rng = random.Random(4)
    for _ in range(100):
        data = random_ribbon(rng)
        if component_count(data) != 1:
            continue
        assert genus(free_reduce(data)) == genus(data)


# ---------------------------------------------------------------------------
# canonical form


def relabel(data, perm):
    """perm maps old base -> new base, 1-based."""
    handles = tuple(
        Handle(
            perm[h.start],
            perm[h.end],
            tuple(SignedLetter(perm[l.base], l.sign) for l in h.word),
        )
        for h in data.handles
    )
    return RibbonData(data.dim, data.base_count, handles)


def test_canonical_spun_trefoil_relabeling():
    swapped = relabel(SPUN_TREFOIL, (0, 2, 1))
    assert canonical_bytes(swapped) == canonical_bytes(SPUN_TREFOIL)


def test_canonical_invariant_under_all_relabelings():
    rng = random.Random(5)
    for trial in range(12):
        data = random_ribbon(rng, max_bases=6 if trial < 2 else 4, max_handles=4, max_len=3)
        reference = canonical_form(data)
        for p in itertools.permutations(range(1, data.base_count + 1)):
            assert canonical_form(relabel(data, (0,) + p)) == reference


def test_canonical_invariant_under_reversal_and_reorder():
    rng = random.Random(6)
    for _ in range(100):
        data = random_ribbon(rng)
        reference = canonical_form(data)
        if data.handles:
            i = rng.randrange(len(data.handles))
            handles = list(data.handles)
            handles[i] = reversed_handle(handles[i])
            rng.shuffle(handles)
            assert canonical_form(RibbonData(data.dim, data.base_count, tuple(handles))) == reference


def test_canonical_invariant_under_free_insertion():
    data = SPUN_TREFOIL
    h = data.handles[0]
    padded = RibbonData(
        data.dim,
        data.base_count,
        (Handle(h.start, h.end, h.word[:1] + ((1, 1), (1, -1)) + h.word[1:]),),
    )
    assert canonical_form(padded) == canonical_form(data)


def test_canonical_idempotent():
    rng = random.Random(7)
    for _ in range(1000):
        data = random_ribbon(rng, max_bases=4, max_handles=4, max_len=4)
        once = canonical_form(data)
        assert canonical_form(once) == once


def test_canonical_preserves_genus():
    rng = random.Random(8)
    for _ in range(100):
        data = random_ribbon(rng)
        if component_count(data) != 1:
            continue
        assert genus(canonical_form(data)) == genus(data)


def test_sphere_knot_iff_genus_zero_on_connected():
    rng = random.Random(9)
    for _ in range(200):
        data = random_ribbon(rng)
        if component_count(data) != 1:
            continue
        assert is_sphere_knot(data) == (genus(data) == 0)


def test_reverse_flip_involution():
    rng = random.Random(10)
    for _ in range(100):
        word = random_word(rng, 4, 10)
        assert reverse_flip(reverse_flip(word)) == word


def test_free_reduction_refuses_a_sign_other_than_plus_or_minus_one():
    with pytest.raises(ValueError, match=r"^crossing sign 2, expected \+1 or -1$"):
        free_reduce_word([(1, 2)])
