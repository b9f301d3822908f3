import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    CancelDelete,
    CancelInsert,
    CrossSlide,
    Destab,
    Handle,
    MoveError,
    RemoveTrivialHandle,
    ReverseHandle,
    RibbonData,
    SignedLetter,
    Slide,
    Stab,
    TrivialHandle,
    apply_cancel_delete,
    apply_cancel_insert,
    apply_cross_slide,
    apply_destabilize,
    apply_move,
    apply_script,
    apply_slide,
    apply_stabilize,
    apply_trivial_handle,
    canonical_form,
    component_count,
    dihedral_quandle,
    enumerate_moves,
    genus,
    parse_script,
    remove_trivial_handle,
    reverse_handle,
    serialize_script,
    slides,
    trivial_quandle,
)
from ribbonlab import moves
from ribbonlab.cli import generate

from oracles import (
    all_moves_pool,
    brute_profile,
    graph_components,
    random_ribbon,
    random_knot,
    shuffled,
    stable_walk_pool,
    with_cancelling_pairs,
)

UNKNOT = generate("unknot")
SPUN_TREFOIL = generate("spun-trefoil")
ORACLE_QUANDLES = (dihedral_quandle(3), dihedral_quandle(5), trivial_quandle(2))


def connected_random(rng, max_extra=2, max_len=4):
    b = rng.randint(1, 4)
    h = b - 1 + rng.randint(0, max_extra)
    seed = rng.randint(0, 10**6)
    return generate(f"random:{b}:{h}:{max_len}:{seed}")


# ---------------------------------------------------------------------------
# stabilize / destabilize


def test_stabilize_unknot():
    data = apply_stabilize(UNKNOT, 1)
    assert data == RibbonData(2, 2, (Handle(2, 1, ()),))


def test_stabilize_preserves_genus():
    rng = random.Random(40)
    checked = 0
    while checked < 500:
        data = random_ribbon(rng)
        if graph_components(data) != 1:
            continue
        target = rng.randint(1, data.base_count)
        assert genus(apply_stabilize(data, target)) == genus(data)
        checked += 1


def test_stabilize_preserves_colorings():
    rng = random.Random(41)
    q = dihedral_quandle(3)
    for _ in range(30):
        data = random_ribbon(rng, max_bases=3, max_handles=3, max_len=3)
        stabbed = apply_stabilize(data, rng.randint(1, data.base_count))
        assert brute_profile(stabbed, (q,)) == brute_profile(data, (q,))


def test_destabilize_undoes_stabilize():
    rng = random.Random(42)
    for _ in range(50):
        data = random_ribbon(rng)
        target = rng.randint(1, data.base_count)
        stabbed = apply_stabilize(data, target)
        assert apply_destabilize(stabbed, stabbed.base_count) == data


def test_destabilize_rejects_crossed_base():
    data = RibbonData(2, 2, (Handle(1, 2, ()), Handle(1, 1, ((2, 1),))))
    with pytest.raises(MoveError, match="base occurs in handle words"):
        apply_destabilize(data, 2)


def test_destabilize_rejects_degree_two():
    data = RibbonData(2, 2, (Handle(1, 2, ()), Handle(1, 2, ())))
    with pytest.raises(MoveError, match="degree != 1"):
        apply_destabilize(data, 2)


def test_destabilize_rejects_nonempty_word():
    data = RibbonData(2, 2, (Handle(1, 2, ((1, 1),)),))
    with pytest.raises(MoveError, match="word not empty"):
        apply_destabilize(data, 2)


# ---------------------------------------------------------------------------
# cancel insert / delete


def test_cancel_insert_into_empty_word():
    data = RibbonData(2, 1, (Handle(1, 1, ()),))
    out = apply_cancel_insert(data, 1, 0, 1, 1)
    assert out.handles[0].word == (SignedLetter(1, 1), SignedLetter(1, -1))


def test_cancel_delete_inverts_insert():
    rng = random.Random(43)
    for _ in range(100):
        data = random_ribbon(rng)
        if not data.handles:
            continue
        i = rng.randint(1, len(data.handles))
        pos = rng.randint(0, len(data.handles[i - 1].word))
        base = rng.randint(1, data.base_count)
        sign = rng.choice((1, -1))
        inserted = apply_cancel_insert(data, i, pos, base, sign)
        assert apply_cancel_delete(inserted, i, pos) == data


def test_cancel_delete_requires_cancelling_pair():
    data = RibbonData(2, 2, (Handle(1, 2, ((1, 1), (2, 1))),))
    with pytest.raises(MoveError, match="do not cancel"):
        apply_cancel_delete(data, 1, 0)


def test_cancel_moves_preserve_colorings():
    rng = random.Random(44)
    for _ in range(60):
        data = random_ribbon(rng, max_bases=3, max_handles=3, max_len=3)
        if not data.handles:
            continue
        before = brute_profile(data, ORACLE_QUANDLES)
        i = rng.randint(1, len(data.handles))
        out = apply_cancel_insert(
            data, i, rng.randint(0, len(data.handles[i - 1].word)),
            rng.randint(1, data.base_count), rng.choice((1, -1)),
        )
        assert brute_profile(out, ORACLE_QUANDLES) == before


# ---------------------------------------------------------------------------
# slides


def test_slide_empty_word():
    data = RibbonData(2, 2, (Handle(1, 1, ()), Handle(1, 2, ())))
    out = apply_slide(data, 1, "end", 2, "fwd")
    assert out.handles[0] == Handle(1, 2, ())


def test_slide_end_appends_traversed_word():
    data = RibbonData(2, 3, (Handle(2, 1, ()), Handle(1, 2, ((3, 1),))))
    out = apply_slide(data, 1, "end", 2, "fwd")
    assert out.handles[0] == Handle(2, 2, ((3, 1),))


def test_slide_start_prepends_reversed_flipped_word():
    data = RibbonData(2, 3, (Handle(1, 2, ((3, -1),)), Handle(1, 2, ((3, 1),))))
    out = apply_slide(data, 1, "start", 2, "fwd")
    assert out.handles[0] == Handle(2, 2, ((3, -1), (3, -1)))


def test_slide_rejects_self_and_wrong_base():
    data = RibbonData(2, 2, (Handle(1, 2, ()), Handle(2, 2, ())))
    with pytest.raises(MoveError, match="along itself"):
        apply_slide(data, 1, "end", 1, "fwd")
    with pytest.raises(MoveError, match="not on the traversal start"):
        apply_slide(data, 1, "start", 2, "fwd")


def test_bad_end_and_direction_words_raise_move_error():
    data = RibbonData(2, 2, (Handle(1, 2, ((1, 1),)), Handle(1, 2, ())))
    with pytest.raises(MoveError, match="slide end must be 'start' or 'end', got 'middle'"):
        apply_slide(data, 1, "middle", 2, "fwd")
    for call in (
        lambda: apply_slide(data, 1, "start", 2, "up"),
        lambda: apply_cross_slide(data, 1, 0, 2, "up"),
        lambda: apply_move(data, Slide(1, "start", 2, "up")),
    ):
        with pytest.raises(MoveError, match="direction must be 'fwd' or 'rev', got 'up'"):
            call()


# One move of each kind, each of which applies to FIELD_DATA, so that a
# refusal of a changed copy is the changed field's.
FIELD_DATA = RibbonData(
    2, 4, (Handle(1, 2, ((3, 1), (3, -1))), Handle(2, 3, ()), Handle(3, 3, ()), Handle(4, 2, ()))
)
ONE_OF_EACH = (
    Stab(1),
    Destab(4),
    CancelInsert(1, 0, 1, 1),
    CancelDelete(1, 0),
    Slide(2, "start", 4, "rev"),
    CrossSlide(1, 0, 2, "rev"),
    TrivialHandle(1),
    RemoveTrivialHandle(3),
    ReverseHandle(2),
)


@pytest.mark.parametrize("bad", [1.5, "1", None, True], ids=repr)
@pytest.mark.parametrize("move", ONE_OF_EACH, ids=lambda m: type(m).__name__)
def test_an_integer_field_that_is_not_an_int_raises_move_error(move, bad):
    assert {type(m) for m in ONE_OF_EACH} == set(moves._MOVES)
    apply = getattr(moves, moves._MOVES[type(move)][1])
    apply_move(FIELD_DATA, move)
    values = move._values()
    for i in [i for i, v in enumerate(values) if type(v) is int]:
        spoilt = values[:i] + (bad,) + values[i + 1 :]
        with pytest.raises(MoveError) as through_move:
            apply_move(FIELD_DATA, type(move)(*spoilt))
        with pytest.raises(MoveError) as through_apply:
            apply(FIELD_DATA, *spoilt)
        assert str(through_move.value) == str(through_apply.value)


def test_slides_preserve_coloring_profile():
    # validates the slide word convention against the enumeration oracle
    rng = random.Random(45)
    applied = 0
    while applied < 200:
        data = connected_random(rng)
        pool = [m for m in stable_walk_pool(data, rng) if isinstance(m, Slide)]
        if not pool:
            continue
        move = rng.choice(pool)
        out = apply_move(data, move)
        assert brute_profile(out, ORACLE_QUANDLES) == brute_profile(data, ORACLE_QUANDLES)
        applied += 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_slides_lists_every_applicable_slide_in_order(seed):
    data = random_ribbon(random.Random(seed), max_handles=6)
    n = len(data.handles)
    applicable = []
    for h in range(1, n + 1):
        for which in ("start", "end"):
            for along in range(1, n + 1):
                for direction in ("fwd", "rev"):
                    try:
                        apply_slide(data, h, which, along, direction)
                    except MoveError:
                        continue
                    applicable.append(Slide(h, which, along, direction))
    assert slides(data) == applicable


# ---------------------------------------------------------------------------
# cross slides


def test_cross_slide_empty_via():
    data = RibbonData(2, 2, (Handle(2, 2, ((1, 1),)), Handle(1, 2, ())))
    out = apply_cross_slide(data, 1, 0, 2, "fwd")
    assert out.handles[0].word == (SignedLetter(2, 1),)


def test_cross_slide_wraps_with_via_word():
    data = RibbonData(2, 3, (Handle(2, 2, ((1, -1),)), Handle(1, 2, ((3, 1),))))
    out = apply_cross_slide(data, 1, 0, 2, "fwd")
    assert out.handles[0].word == (
        SignedLetter(3, 1),
        SignedLetter(2, -1),
        SignedLetter(3, -1),
    )


def test_cross_slide_rejects_mismatch_and_self():
    data = RibbonData(2, 2, (Handle(2, 2, ((2, 1),)), Handle(1, 2, ())))
    with pytest.raises(MoveError, match="starts at 1"):
        apply_cross_slide(data, 1, 0, 2, "fwd")
    with pytest.raises(MoveError, match="through itself"):
        apply_cross_slide(data, 1, 0, 1, "fwd")


def test_cross_slides_preserve_coloring_profile():
    rng = random.Random(46)
    applied = 0
    while applied < 120:
        data = connected_random(rng)
        pool = [m for m in all_moves_pool(data, rng) if isinstance(m, CrossSlide)]
        if not pool:
            continue
        move = rng.choice(pool)
        out = apply_move(data, move)
        assert brute_profile(out, ORACLE_QUANDLES) == brute_profile(data, ORACLE_QUANDLES)
        applied += 1


def test_cross_slide_collapse_inverts_expansion():
    rng = random.Random(47)
    inverted = 0
    while inverted < 40:
        data = connected_random(rng)
        pool = [m for m in all_moves_pool(data, rng) if isinstance(m, CrossSlide)]
        if not pool:
            continue
        move = rng.choice(pool)
        expanded = apply_move(data, move)
        via = expanded.handles[move.via - 1]
        shift = len(via.word)
        back = "rev" if move.direction == "fwd" else "fwd"
        collapsed = apply_cross_slide(expanded, move.handle, move.position + shift, move.via, back)
        assert canonical_form(collapsed) == canonical_form(data)
        inverted += 1


# ---------------------------------------------------------------------------
# trivial handles and reversal


def test_trivial_handle_examples():
    out = apply_trivial_handle(UNKNOT, 1)
    assert out == RibbonData(2, 1, (Handle(1, 1, ()),))
    assert genus(out) == genus(UNKNOT) + 1
    assert remove_trivial_handle(out, 1) == UNKNOT


def test_trivial_handle_preserves_colorings():
    rng = random.Random(48)
    for _ in range(30):
        data = random_ribbon(rng, max_bases=3, max_handles=3, max_len=3)
        out = apply_trivial_handle(data, rng.randint(1, data.base_count))
        assert brute_profile(out, ORACLE_QUANDLES) == brute_profile(data, ORACLE_QUANDLES)


def test_remove_trivial_handle_rejects_nontrivial():
    with pytest.raises(MoveError, match="not a trivial handle"):
        remove_trivial_handle(SPUN_TREFOIL, 1)
    data = RibbonData(2, 1, (Handle(1, 1, ((1, 1), (1, -1))),))
    with pytest.raises(MoveError, match="not a trivial handle"):
        remove_trivial_handle(data, 1)


def test_reverse_handle_spun_trefoil():
    out = reverse_handle(SPUN_TREFOIL, 1)
    assert out.handles[0] == Handle(2, 1, ((1, 1), (2, 1)))
    assert reverse_handle(out, 1) == SPUN_TREFOIL
    assert canonical_form(out) == canonical_form(SPUN_TREFOIL)


# ---------------------------------------------------------------------------
# scripts


def test_script_stab_destab_roundtrip():
    assert apply_script(UNKNOT, (Stab(1), Destab(2))) == UNKNOT


def test_empty_script_is_identity():
    rng = random.Random(49)
    for _ in range(10):
        data = random_ribbon(rng)
        assert apply_script(data, ()) == data


def test_recorded_random_walk_replays():
    rng = random.Random(50)
    data = generate("random:3:3:3:99")
    moves = []
    current = data
    for _ in range(50):
        pool = all_moves_pool(current, rng)
        if not pool:
            break
        move = rng.choice(pool)
        moves.append(move)
        current = apply_move(current, move)
    assert apply_script(data, moves) == current
    # the text form replays identically too
    assert apply_script(data, parse_script(serialize_script(moves))) == current


def test_script_composition_associates():
    rng = random.Random(51)
    data = generate("random:3:3:2:5")
    moves = []
    current = data
    for _ in range(8):
        pool = stable_walk_pool(current, rng)
        move = rng.choice(pool)
        moves.append(move)
        current = apply_move(current, move)
    assert apply_script(data, moves) == apply_script(apply_script(data, moves[:4]), moves[4:])


def test_script_failure_reports_position():
    with pytest.raises(MoveError, match="move 1:") as info:
        apply_script(UNKNOT, (Stab(1), CancelDelete(1, 0)))
    assert info.value.script_index == 1


def test_script_text_round_trip_all_moves():
    script = (
        Stab(2),
        Destab(1),
        CancelInsert(1, 0, 3, -1),
        CancelDelete(2, 4),
        Slide(1, "start", 2, "rev"),
        CrossSlide(2, 3, 1, "fwd"),
        TrivialHandle(1),
        RemoveTrivialHandle(2),
        ReverseHandle(1),
    )
    assert parse_script(serialize_script(script)) == script


def test_every_pooled_move_round_trips_through_its_script_line():
    rng = random.Random(54)
    seen = set()
    for _ in range(200):
        data = random_ribbon(rng)
        script = tuple(all_moves_pool(data, rng, weak_left=1))
        assert parse_script(serialize_script(script)) == script
        seen.update(map(type, script))
    assert seen == set(moves._MOVES)


@pytest.mark.parametrize(
    "move",
    [
        # the first three were written as lines that read back otherwise:
        # 'ins 1 0 10' (base 10, sign +1), 'ins 1 0 -2' (base 2, sign -1)
        # and 'stab True', which is not a script line; the rest break the
        # other slots
        CancelInsert(1, 0, 2, 5),
        CancelInsert(1, 0, -2, 1),
        Stab(True),
        CancelInsert(1, 0, 0, 1),
        CancelInsert(1, True, 2, 1),
        Slide(1, "middle", 2, "fwd"),
        CrossSlide(1, 0, 2, 1),
        ReverseHandle("1"),
    ],
)
def test_a_move_that_does_not_fit_its_script_line_is_refused(move):
    with pytest.raises(MoveError, match="does not fit"):
        serialize_script((move,))


def test_is_weak_marks_trivial_handles_attached_and_removed():
    # the weak moves a script spends: trivial handles attached or removed
    script = (TrivialHandle(1), Stab(1), TrivialHandle(2), RemoveTrivialHandle(1))
    assert sum(map(moves.is_weak, script)) == 3


# ---------------------------------------------------------------------------
# bookkeeping invariants across all move types


def test_handle_base_difference_accounting():
    rng = random.Random(52)
    steps = 0
    while steps < 300:
        data = connected_random(rng)
        for _ in range(6):
            pool = all_moves_pool(data, rng)
            if not pool:
                break
            move = rng.choice(pool)
            out = apply_move(data, move)
            delta = (len(out.handles) - out.base_count) - (len(data.handles) - data.base_count)
            if isinstance(move, TrivialHandle):
                assert delta == 1
            elif isinstance(move, RemoveTrivialHandle):
                assert delta == -1
            else:
                assert delta == 0
            assert component_count(out) == component_count(data)
            data = out
            steps += 1


def test_each_move_type_has_inverse_up_to_canonical_form():
    rng = random.Random(53)
    data = generate("random:3:3:3:17")
    canon = canonical_form(data)

    # stab / destab
    out = apply_stabilize(data, 2)
    assert canonical_form(apply_destabilize(out, out.base_count)) == canon
    # trivial handle pair
    out = apply_trivial_handle(data, 1)
    assert canonical_form(remove_trivial_handle(out, len(out.handles))) == canon
    # insert / delete pair
    out = apply_cancel_insert(data, 1, 0, 2, 1)
    assert canonical_form(apply_cancel_delete(out, 1, 0)) == canon
    # reversal is an involution
    out = reverse_handle(data, 2)
    assert canonical_form(reverse_handle(out, 2)) == canon
    # slide forward then backward along the same handle
    slides = [m for m in stable_walk_pool(data, rng) if isinstance(m, Slide)]
    move = slides[0]
    out = apply_move(data, move)
    back = "rev" if move.direction == "fwd" else "fwd"
    undone = apply_slide(out, move.handle, move.which, move.along, back)
    assert canonical_form(undone) == canon


# ---------------------------------------------------------------------------
# neighbor enumeration


def test_enumerate_unknot_budgets():
    zero = enumerate_moves(UNKNOT, 0)
    assert len(zero) == 1
    move, succ = zero[0]
    assert move == Stab(1)
    assert succ == RibbonData(2, 2, (Handle(1, 2, ()),))

    one = enumerate_moves(UNKNOT, 1)
    assert [m for m, _ in one] == [Stab(1), TrivialHandle(1)]


def test_enumerate_torus_budgets():
    torus = canonical_form(generate("torus:1"))
    assert [m for m, _ in enumerate_moves(torus, 0)] == [Stab(1)]
    assert [m for m, _ in enumerate_moves(torus, 1)] == [RemoveTrivialHandle(1), Stab(1), TrivialHandle(1)]


def with_trivial_handles(rng, data, count):
    handles = list(data.handles)
    for _ in range(count):
        base = rng.randint(1, data.base_count)
        handles.insert(rng.randint(0, len(handles)), Handle(base, base, ()))
    return RibbonData(data.dim, data.base_count, tuple(handles))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), budget=st.integers(0, 2))
def test_only_weak_moves_change_genus_and_only_under_budget(seed, budget):
    rng = random.Random(seed)
    knot = random_knot(rng, rng.randint(1, 4), extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
    data = canonical_form(with_trivial_handles(rng, knot, rng.randint(0, 2)))
    for move, succ in enumerate_moves(data, budget):
        if isinstance(move, TrivialHandle):
            assert budget > 0 and genus(succ) == genus(data) + 1
        elif isinstance(move, RemoveTrivialHandle):
            assert budget > 0 and genus(succ) == genus(data) - 1
        else:
            assert genus(succ) == genus(data)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.integers(0, 2),
    kind=st.sampled_from(["canonical", "raw", "noisy"]),
)
def test_enumerated_moves_replay_to_their_states(seed, budget, kind):
    """Also from records that are not canonical: as generated, and with
    cancelling pairs under a random numbering, handle order and
    orientation, where a move leaves words unreduced that its state has
    reduced."""
    rng = random.Random(seed)
    knot = random_knot(rng, rng.randint(1, 4), extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
    data = with_trivial_handles(rng, knot, rng.randint(0, 2))
    if kind == "canonical":
        data = canonical_form(data)
    elif kind == "noisy":
        data = shuffled(with_cancelling_pairs(rng, data, rng.randint(1, 3)), rng)
    successors = enumerate_moves(data, budget)
    for move, state in successors:
        assert state == canonical_form(apply_move(data, move))
    # a Destab is listed for each base it applies to, unless an earlier
    # Destab already gave the same state
    applies = {}
    for base in range(1, data.base_count + 1):
        try:
            applies[base] = canonical_form(apply_destabilize(data, base))
        except MoveError:
            pass
    listed = {m.base: state for m, state in successors if isinstance(m, Destab)}
    assert listed.keys() <= applies.keys()
    assert set(listed.values()) == set(applies.values())


@pytest.mark.parametrize("budget", [0, 1])
@pytest.mark.parametrize(
    "handle, diagnostic",
    [
        (Handle(1, 3, ()), "end base 3 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(5, 1),)), "letter 0 base 5 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(5, 1), SignedLetter(5, -1))), "letter 0 base 5 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(2, 2),)), "letter 0 has sign 2, expected +1 or -1"),
        (Handle(1, 2, (SignedLetter(0, 1),)), "letter 0 base 0 out of range 1..2"),
    ],
)
def test_enumerate_moves_rejects_invalid_records_with_the_first_diagnostic(handle, diagnostic, budget):
    with pytest.raises(ValueError, match=f"^{re.escape('invalid data: handle 1: ' + diagnostic)}$"):
        enumerate_moves(RibbonData(2, 2, (handle,)), budget)


def test_enumerate_successors_are_canonical_and_unique():
    rng = random.Random(54)
    for _ in range(40):
        data = canonical_form(connected_random(rng))
        successors = enumerate_moves(data, 1)
        keys = [canonical_form(s) for _, s in successors]
        assert keys == [s for _, s in successors]
        assert len({id(k) for k in keys}) == len(keys)
        assert len(set(keys)) == len(keys)


def test_enumerate_successor_profiles_match_parent():
    rng = random.Random(55)
    quandles = (dihedral_quandle(3), trivial_quandle(2))
    checked_states = 0
    while checked_states < 200:
        data = canonical_form(connected_random(rng, max_extra=1, max_len=3))
        if data.base_count > 3:
            continue
        parent = brute_profile(data, quandles)
        for _, succ in enumerate_moves(data, 1):
            if succ.base_count > 3:
                continue
            assert brute_profile(succ, quandles) == parent
        checked_states += 1


def test_apply_move_refuses_what_is_not_a_move():
    for move in (None, (1,), "stab 1", Stab):
        with pytest.raises(MoveError, match="^unknown move "):
            apply_move(UNKNOT, move)
