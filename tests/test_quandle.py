import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    FiniteQuandle,
    Handle,
    RibbonData,
    SignedLetter,
    builtin_quandle,
    check_quandle_axioms,
    coloring_profile,
    count_colorings,
    dihedral_quandle,
    group_presentation,
    list_colorings,
    parse_quandle,
    quandle_presentation,
    serialize_quandle,
    trivial_quandle,
)
from ribbonlab.cli import generate

from oracles import (
    alexander_quandle,
    brute_force_colorings,
    connected_sum,
    disjoint_union,
    graph_components,
    random_knot,
    random_ribbon,
    relabelled_quandle,
    s3_conjugation,
    s4_transpositions,
    satisfies_relations,
    shuffled,
)

UNKNOT = generate("unknot")
SPUN_TREFOIL = generate("spun-trefoil")


# ---------------------------------------------------------------------------
# finite quandles


def test_dihedral_three_table_matches_hand_computation():
    # x*y = 2y - x mod 3 on representatives 1..3, worked out by hand
    assert dihedral_quandle(3).table == ((1, 3, 2), (3, 2, 1), (2, 1, 3))


def test_axioms_hold_for_builtin_families():
    for m in range(2, 13):
        assert check_quandle_axioms(dihedral_quandle(m)) == []
    for m in range(1, 13):
        assert check_quandle_axioms(trivial_quandle(m)) == []


def test_dihedral_translation_is_involution():
    for m in (3, 4, 5, 6, 7):
        q = dihedral_quandle(m)
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                assert q.op(q.op(x, y), y) == x


def test_trivial_quandle_one():
    assert trivial_quandle(1).table == ((1,),)


def test_idempotence_violation_reported():
    q = FiniteQuandle("bad", ((2, 2), (1, 1)))
    problems = check_quandle_axioms(q)
    assert "1*1 = 2, expected 1" in problems


def test_distributivity_violation_reported():
    # right translations are bijections but (1*2)*2 != (1*2)*(2*2)
    q = FiniteQuandle("bad", ((1, 2, 3), (3, 2, 1), (2, 1, 3)))
    problems = check_quandle_axioms(q)
    assert problems


def test_malformed_table_rejected():
    with pytest.raises(ValueError, match="malformed quandle table"):
        FiniteQuandle("bad", ((1, 2), (1,)))
    with pytest.raises(ValueError, match="malformed quandle table"):
        FiniteQuandle("bad", ((1, 5), (2, 1)))
    # entries are kept as given, never truncated: int() would read this
    # table as trivial:2
    for bad in (1.9, True, "1"):
        with pytest.raises(ValueError, match=f"entry {bad!r} is not an integer"):
            FiniteQuandle("t", ((bad, 1.2), (2.5, 2.0)))


def test_op_inv_inverts():
    q = dihedral_quandle(7)
    for a in range(1, 8):
        for y in range(1, 8):
            assert q.op(q.op_inv(a, y), y) == a


def test_quandle_size_requires_positive():
    with pytest.raises(ValueError):
        dihedral_quandle(0)
    with pytest.raises(ValueError):
        trivial_quandle(-1)


def test_quandle_file_round_trip():
    q = dihedral_quandle(5)
    parsed = parse_quandle(serialize_quandle(q), name=q.name)
    assert parsed.table == q.table


def test_quandle_file_malformed():
    with pytest.raises(ValueError, match="malformed quandle file"):
        parse_quandle("quandle 2\nsize 1\n1\n")
    with pytest.raises(ValueError, match="malformed quandle file"):
        parse_quandle("quandle 1\nsize 2\n1 2\n")


def test_builtin_quandle_specs():
    assert builtin_quandle("dihedral:3").name == "dihedral:3"
    assert builtin_quandle("trivial:4").op(2, 3) == 2
    assert builtin_quandle("somefile.q") is None
    with pytest.raises(ValueError):
        builtin_quandle("dihedral:x")


# ---------------------------------------------------------------------------
# presented quandle


def test_presentation_unknot():
    pres = quandle_presentation(UNKNOT)
    assert pres.generators == 1
    assert pres.relations == ()


def test_presentation_spun_trefoil_relation():
    # crossing signs are -1, so both operator exponents flip to +1
    pres = quandle_presentation(SPUN_TREFOIL)
    (rel,) = pres.relations
    assert (rel.end, rel.start) == (2, 1)
    assert rel.operators == ((2, 1), (1, 1))


def test_presentation_trivial_handle_vacuous():
    pres = quandle_presentation(RibbonData(2, 1, (Handle(1, 1, ()),)))
    (rel,) = pres.relations
    assert rel.end == rel.start == 1
    assert rel.operators == ()


def test_relation_count_matches_handles():
    rng = random.Random(20)
    for _ in range(50):
        data = random_ribbon(rng)
        assert len(quandle_presentation(data).relations) == len(data.handles)


# ---------------------------------------------------------------------------
# coloring counts


def test_known_counts_verified_by_enumeration_first():
    r3, r5 = dihedral_quandle(3), dihedral_quandle(5)
    # oracle first, frozen values second, implementation third
    assert brute_force_colorings(SPUN_TREFOIL, r3) == 9
    assert brute_force_colorings(SPUN_TREFOIL, r5) == 5
    assert brute_force_colorings(UNKNOT, r3) == 3
    assert brute_force_colorings(UNKNOT, r5) == 5
    assert count_colorings(SPUN_TREFOIL, r3) == 9
    assert count_colorings(SPUN_TREFOIL, r5) == 5
    assert count_colorings(UNKNOT, r3) == 3
    assert count_colorings(UNKNOT, r5) == 5


def test_count_matches_enumeration_on_random_data():
    rng = random.Random(21)
    quandles = [dihedral_quandle(3), dihedral_quandle(4), dihedral_quandle(5), trivial_quandle(3)]
    for _ in range(60):
        data = random_ribbon(rng, max_bases=4, max_handles=4, max_len=4)
        for q in quandles:
            if q.size**data.base_count > 100_000:
                continue
            assert count_colorings(data, q) == brute_force_colorings(data, q)


def test_constant_colorings_always_exist():
    rng = random.Random(22)
    q = dihedral_quandle(5)
    for _ in range(40):
        data = random_ribbon(rng)
        assert count_colorings(data, q) >= q.size


def test_trivial_quandle_counts_powers_of_components():
    rng = random.Random(23)
    for m in (2, 3):
        q = trivial_quandle(m)
        for _ in range(40):
            data = random_ribbon(rng, max_bases=4, max_handles=4, max_len=3)
            assert count_colorings(data, q) == m ** graph_components(data)


def test_invalid_quandle_rejected():
    bad = FiniteQuandle("bad", ((2, 2), (1, 1)))
    with pytest.raises(ValueError, match="invalid quandle"):
        count_colorings(UNKNOT, bad)


def test_an_affine_quandle_with_a_unit_multiplier_skips_the_cubic_axiom_check():
    # dihedral:512 is affine with a = -1; checking its m^3 self-distributive
    # instances one by one took about 90 s on a 2-core virtual machine
    start = time.perf_counter()
    assert count_colorings(SPUN_TREFOIL, dihedral_quandle(512)) == 512
    assert time.perf_counter() - start < 1


def test_an_affine_table_whose_multiplier_is_no_unit_fails_with_the_first_diagnostic():
    q = alexander_quandle(4, 2)  # x*y = 2x - y mod 4: no right translation is a bijection
    first = check_quandle_axioms(q)[0]
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid quandle {q.name}: {first}')}$"):
        count_colorings(SPUN_TREFOIL, q)


@pytest.mark.parametrize(
    "handle, diagnostic",
    [
        (Handle(1, 2, (SignedLetter(5, 1),)), "letter 0 base 5 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(0, 1),)), "letter 0 base 0 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(2, 2),)), "letter 0 has sign 2, expected +1 or -1"),
        (Handle(1, 3, ()), "end base 3 out of range 1..2"),
    ],
)
def test_invalid_records_raise_with_the_first_diagnostic(handle, diagnostic):
    data = RibbonData(2, 2, (handle,))
    pattern = f"^{re.escape('invalid data: handle 1: ' + diagnostic)}$"
    for q in (dihedral_quandle(3), s4_transpositions()):  # affine and backtracking counts
        with pytest.raises(ValueError, match=pattern):
            count_colorings(data, q)
        with pytest.raises(ValueError, match=pattern):
            list_colorings(data, q)
        with pytest.raises(ValueError, match=pattern):
            coloring_profile(data, [q])


def test_list_colorings_matches_count_and_relations():
    q = dihedral_quandle(3)
    found = list_colorings(SPUN_TREFOIL, q)
    assert len(found) == count_colorings(SPUN_TREFOIL, q)
    assert found == sorted(found)
    for c1, c2 in found:
        assert q.op(q.op(c1, c2), c1) == c2


def test_coloring_profile_order_and_values():
    profile = coloring_profile(SPUN_TREFOIL, [dihedral_quandle(3), dihedral_quandle(5)])
    assert profile == (("dihedral:3", 9), ("dihedral:5", 5))
    assert coloring_profile(UNKNOT, [dihedral_quandle(3), dihedral_quandle(5)]) == (
        ("dihedral:3", 3),
        ("dihedral:5", 5),
    )


# ---------------------------------------------------------------------------
# presented group


def test_group_presentation_spun_trefoil():
    pres = group_presentation(SPUN_TREFOIL)
    (rel,) = pres.relations
    assert (rel.end, rel.start) == (2, 1)
    assert rel.conjugator == (2, 1)
    # b^-1 (ba)^-1 a (ba), the braid relation in disguise
    assert rel.relator() == (-2, -1, -2, 1, 2, 1)


def test_group_presentation_unknot_and_trivial_handle():
    assert group_presentation(UNKNOT).relations == ()
    pres = group_presentation(RibbonData(2, 1, (Handle(1, 1, ()),)))
    (rel,) = pres.relations
    assert rel.relator() == (-1, 1)


# ---------------------------------------------------------------------------
# the linear path for Alexander quandles against enumeration

AFFINE = [dihedral_quandle(m) for m in (2, 4, 6, 8, 9, 12)] + [
    alexander_quandle(5, 2),
    alexander_quandle(7, 3),
    trivial_quandle(2),
    trivial_quandle(5),
]
# A dihedral table under a relabelling that is not an affine map of Z/5.
RELABELLED_DIHEDRAL = relabelled_quandle(dihedral_quandle(5), (1, 2, 4, 3, 5))
# Two quandles that are not connected, so the backtracker's orbit weights
# differ from orbit to orbit and from m.
D3_PLUS_T2 = disjoint_union(dihedral_quandle(3), trivial_quandle(2))
NOT_AFFINE = [s4_transpositions(), RELABELLED_DIHEDRAL, s3_conjugation(), D3_PLUS_T2]


def test_affine_detection():
    assert dihedral_quandle(7)._affine == (7, 6)
    assert trivial_quandle(4)._affine == (4, 1)
    assert alexander_quandle(5, 2)._affine == (5, 2)
    assert trivial_quandle(1)._affine is None
    for q in NOT_AFFINE:
        assert q._affine is None
        assert check_quandle_axioms(q) == []


def test_orbits_of_the_inner_automorphism_group():
    # (least element, orbit size), worked out by hand
    assert s4_transpositions()._orbits == ((1, 6),)
    assert RELABELLED_DIHEDRAL._orbits == ((1, 5),)
    # identity; (1 2), (0 1), (0 2); the two 3-cycles
    assert s3_conjugation()._orbits == ((1, 1), (2, 3), (4, 2))
    assert D3_PLUS_T2._orbits == ((1, 3), (4, 1), (5, 1))
    assert trivial_quandle(3)._orbits == ((1, 1), (2, 1), (3, 1))


def knot_for(seed, q, max_assignments=3000):
    """A random connected presentation small enough to enumerate."""
    rng = random.Random(seed)
    bases = 1
    while q.size ** (bases + 1) <= max_assignments and bases < 6:
        bases += 1
    bases = rng.randint(1, bases)
    return random_knot(rng, bases, extra=rng.randint(0, 2), max_len=rng.randint(1, 4))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), which=st.integers(0, len(AFFINE) - 1))
def test_affine_counts_match_enumeration(seed, which):
    q = AFFINE[which]
    data = knot_for(seed, q)
    assert count_colorings(data, q) == brute_force_colorings(data, q)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), which=st.integers(0, len(NOT_AFFINE) - 1))
def test_other_quandles_take_the_backtracker_and_match(seed, which):
    q = NOT_AFFINE[which]
    data = knot_for(seed, q, max_assignments=1500)
    assert count_colorings(data, q) == brute_force_colorings(data, q)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), which=st.integers(0, len(NOT_AFFINE) - 1))
def test_listed_colorings_are_the_counted_ones(seed, which):
    # The listing branches on every color of base 1, the count once per
    # orbit; both run the same propagation.
    q = NOT_AFFINE[which]
    data = knot_for(seed, q, max_assignments=1500)
    found = list_colorings(data, q)
    assert len(found) == len(set(found)) == count_colorings(data, q)
    assert all(satisfies_relations(data, q, colors) for colors in found)


def test_orbit_weights_on_knots_with_nontrivial_colorings():
    # Random small knots mostly have constant colorings only, where a
    # count that weighted each orbit by m instead of its size would still
    # be right; these knots have dihedral:3 colorings that are not.
    s3, d3_t2 = s3_conjugation(), D3_PLUS_T2
    # identity 1 + transpositions 3 * 3 + 3-cycles 2; dihedral 9 + trivial 2
    assert (brute_force_colorings(SPUN_TREFOIL, s3), brute_force_colorings(SPUN_TREFOIL, d3_t2)) == (12, 11)
    assert (count_colorings(SPUN_TREFOIL, s3), count_colorings(SPUN_TREFOIL, d3_t2)) == (12, 11)
    rng = random.Random(27)
    knots = []
    while len(knots) < 5:
        knot = random_knot(rng, rng.randint(2, 4), extra=rng.randint(0, 2), max_len=3)
        if count_colorings(knot, dihedral_quandle(3)) > 3:
            knots.append(knot)
    for q in NOT_AFFINE:
        for knot in knots:
            assert count_colorings(knot, q) == brute_force_colorings(knot, q)


def test_alexander_quandle_tells_a_from_its_inverse():
    # The Alexander polynomial 2 - t of this knot is not symmetric, so the
    # quandles with a = 2 and a = 3 = 2^-1 mod 5 count it differently:
    # a crossing must act by a or by a^-1 according to its sign.
    data = RibbonData(
        2,
        4,
        (
            Handle(1, 4, ((1, 1), (3, 1), (4, -1))),
            Handle(1, 3, ((1, -1), (4, 1))),
            Handle(1, 2, ((4, -1),)),
        ),
    )
    for a, expected in ((2, 5), (3, 25)):
        q = alexander_quandle(5, a)
        assert brute_force_colorings(data, q) == expected
        assert count_colorings(data, q) == expected


def test_dihedral_seven_on_two_hundred_bases():
    # A connected sum multiplies affine counts and divides by m, since each
    # summand's colorings are closed under adding a constant color.  The
    # summands are copies of small knots, each counted by enumeration.
    q = dihedral_quandle(7)
    rng = random.Random(26)
    rich = []
    while len(rich) < 3:
        knot = random_knot(rng, 4, max_len=4)
        if count_colorings(knot, q) > 7:
            rich.append(knot)
    kinds = [(knot, brute_force_colorings(knot, q)) for knot in rich + [random_knot(rng, 4, max_len=4)]]
    pieces = [kinds[i % len(kinds)] for i in range(50)]
    expected = 7
    for _, count in pieces:
        expected = expected * count // 7
    data = shuffled(connected_sum([shuffled(knot, rng) for knot, _ in pieces]), rng)
    assert data.base_count == 200
    assert expected >= 7**20
    assert count_colorings(data, q) == expected



def test_an_empty_table_is_refused():
    with pytest.raises(ValueError, match="^malformed quandle table: empty$"):
        FiniteQuandle("empty", ())


def test_a_quandle_file_needs_a_size_line():
    for text in ("quandle 1\n", "quandle 1\nsize\n", "quandle 1\nsize 1 1\n1\n", "quandle 1\nrows 1\n1\n"):
        with pytest.raises(ValueError, match="^malformed quandle file: expected 'size <m>'$"):
            parse_quandle(text)


def test_op_inv_refuses_a_right_translation_that_is_no_bijection():
    q = FiniteQuandle("constant", ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="^right translation by 1 is not invertible$"):
        q.op_inv(2, 1)
