import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    Destab,
    Equivalent,
    Handle,
    MergeWitness,
    MoveScript,
    Refuted,
    RibbonData,
    Stab,
    Unknown,
    apply_move,
    apply_script,
    apply_stabilize,
    canonical_form,
    certify,
    count_colorings,
    dihedral_quandle,
    genus,
    is_sphere_knot,
    macro_clone_handle,
    macro_merge_bases,
    parse_ribbon,
    reversed_handle,
    search,
    search_equiv,
    serialize,
    serialize_outcome,
    serialize_script,
)
from ribbonlab.cli import _random_data, _scramble, generate
from ribbonlab.moves import _successors, enumerate_moves, is_weak
from ribbonlab.ribbon import _canonical_state, _record
from ribbonlab.search import _GATE, _reduce

from oracles import GATE_ORACLES, all_moves_pool, brute_profile, random_knot, stable_walk_pool

PROFILE_QUANDLES = (dihedral_quandle(3), dihedral_quandle(5))
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("k,seed", [(1, 0), (3, 1), (6, 0), (6, 1)])
def test_stabilized_generator_is_certified_equivalent_to_unknot(k, seed):
    spec = f"stabilized:{k}:{seed}"
    data = generate(spec)
    assert data == generate(spec)
    assert is_sphere_knot(data)
    assert data.base_count == k + 1
    unknot = generate("unknot")
    outcome = search_equiv(data, unknot, k, 0, 50_000)
    assert isinstance(outcome, Equivalent)
    notes = []
    assert certify(data, unknot, outcome, notes), notes


def test_torus_needs_one_weak_move_to_reach_the_unknot():
    torus, unknot = generate("torus:1"), generate("unknot")
    outcome = search_equiv(torus, unknot, 1, 0, 100)
    assert outcome == Refuted("genus", 1, 0)
    found = search_equiv(torus, unknot, 1, 1, 100)
    assert isinstance(found, Equivalent)
    assert serialize_script(found.script_a) == "untrivh 1\n"
    assert (found.weak_used_a, found.weak_used_b) == (1, 0)
    assert certify(torus, unknot, found)


def test_the_gate_counts_through_count_colorings(monkeypatch):
    # the gate's counts go through the public entry point, so whatever
    # wraps ``count_colorings`` where the search reads it sees them
    calls = []

    def counting(data, q):
        calls.append(q.name)
        return count_colorings(data, q)

    monkeypatch.setattr(search, "count_colorings", counting)
    outcome = search_equiv(generate("spun-trefoil"), generate("unknot"), 2, 0, 100)
    assert outcome == Refuted("dihedral:3", 9, 3)
    assert calls == ["dihedral:3", "dihedral:3"]


def test_every_gate_entry_has_an_independent_oracle():
    assert list(GATE_ORACLES) == [name for name, _, _ in _GATE]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_each_gate_entry_is_kept_by_the_moves_it_claims_to_survive(seed):
    # the gate may refute by an entry only when no move the search can
    # apply changes its value; ``enumerate_moves`` yields the search's
    # moves, and the pool adds insertions, reversals and lengthening
    # cross-slides, which it never yields
    rng = random.Random(seed)
    knot = random_knot(rng, rng.randint(1, 7), extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
    moved = enumerate_moves(knot, 1)
    moved += [(move, apply_move(knot, move)) for move in all_moves_pool(knot, rng, weak_left=1)]
    for name, value, kept_by_weak in _GATE:
        before = value(knot)
        for move, after in moved:
            if kept_by_weak or not is_weak(move):
                assert value(after) == before, (name, move)
            else:
                # a weak move attaches or removes one trivial handle
                assert abs(value(after) - before) == 1, (name, move)


def test_a_huge_base_count_fails_as_disconnected():
    huge, unknot = RibbonData(2, 10**20, ()), generate("unknot")
    with pytest.raises(ValueError, match="^first input is not connected$"):
        search_equiv(huge, unknot, 1, 0, 100)
    with pytest.raises(ValueError, match="^second input is not connected$"):
        search_equiv(unknot, huge, 1, 0, 100)


def test_removing_trivial_handles_spends_the_budget():
    torus, unknot = generate("torus:3"), generate("unknot")
    # one weak move a side cannot bridge genus 3 and 0; two can
    assert isinstance(search_equiv(torus, unknot, 4, 1, 10_000), Unknown)
    found = search_equiv(torus, unknot, 3, 2, 10_000)
    assert isinstance(found, Equivalent)
    assert (found.script_a.weak_count, found.script_b.weak_count) == (found.weak_used_a, found.weak_used_b)
    assert max(found.weak_used_a, found.weak_used_b) <= 2
    assert certify(torus, unknot, found)


@pytest.mark.parametrize(
    "spec,tamper,note",
    [
        (
            "torus:1",
            lambda found: Equivalent(found.script_a, found.script_b, found.meet, 0, 0),
            "weak-handle accounting does not match the scripts",
        ),
        (
            "stabilized:3:1",
            lambda found: Equivalent(
                MoveScript(found.script_a.moves[1:]), found.script_b, found.meet, found.weak_used_a, found.weak_used_b
            ),
            "script A does not reach the meeting form",
        ),
        (
            "stabilized:3:1",
            lambda found: Equivalent(
                found.script_a,
                MoveScript(found.script_b.moves + (Stab(1),)),
                found.meet,
                found.weak_used_a,
                found.weak_used_b,
            ),
            "script B does not reach the meeting form",
        ),
        (
            "stabilized:3:1",
            lambda found: Equivalent(
                found.script_a,
                found.script_b,
                canonical_form(generate("spun-trefoil")),
                found.weak_used_a,
                found.weak_used_b,
            ),
            "script A does not reach the meeting form",
        ),
    ],
    ids=["weak-accounting", "move-dropped", "move-added", "wrong-meet"],
)
def test_certify_rejects_tampered_certificates(spec, tamper, note):
    data, unknot = generate(spec), generate("unknot")
    found = search_equiv(data, unknot, 3, 1, 1000)
    assert certify(data, unknot, found)
    notes = []
    assert not certify(data, unknot, tamper(found), notes)
    assert notes == [note]


@pytest.mark.parametrize(
    "spec_a,spec_b,depth,weak,cap,stop",
    [
        ("spun-trefoil", "unknot", 3, 0, 1000, "gate"),
        ("unknot", "unknot", 3, 0, 1000, "met"),
        ("stabilized:3:1", "unknot", 3, 0, 1000, "met"),
        ("torus:3", "unknot", 4, 1, 10_000, "depth"),
        ("torus:3", "unknot", 4, 1, 10, "cap"),
    ],
)
def test_search_stats_account_for_every_state(spec_a, spec_b, depth, weak, cap, stop):
    a, b = generate(spec_a), generate(spec_b)
    stats = {}
    outcome = search_equiv(a, b, depth, weak, cap, stats=stats)
    assert outcome == search_equiv(a, b, depth, weak, cap)
    assert stats["stop"] == stop
    stored = stats["states"]["a"] + stats["states"]["b"]
    if stop == "gate":
        assert stats["levels"] == [] and stored == 0
        assert stats["reduced"] == {"a": 0, "b": 0}
        return
    # each side stores its root, its reduction path and its new states
    for side in "ab":
        new = sum(size for s, size in stats["levels"] if s == side)
        assert stats["states"][side] == 1 + stats["reduced"][side] + new
    if isinstance(outcome, Unknown):
        # a level the cap stopped is listed but not counted as reached
        assert (outcome.states, outcome.depth) == (stored, len(stats["levels"]) - (stop == "cap"))
    if stop == "cap":
        assert stored == cap


OPEN3 = [parse_ribbon((GOLDEN / name).read_text()) for name in ("open3a.ribbon", "open3b.ribbon")]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_state_cap_is_tested_before_each_new_state(cap):
    stats = {}
    outcome = search_equiv(*OPEN3, 4, 0, cap, stats=stats)
    # the two roots are always stored; the reductions spend the rest
    assert outcome == Unknown(max(cap, 2), 0)
    assert stats["stop"] == "cap"
    assert sum(stats["states"].values()) == max(cap, 2)


def test_the_state_cap_bounds_the_reductions():
    """A 30-base knot at cap 10: a plateau search there labels hundreds
    of successors per state it expands, so the reductions stop where the
    cap runs out, having expanded at most one state past it."""
    knot = canonical_form(_random_data(30, 31, 3, 5))
    expanded = _successors.cache_info().misses
    stats = {}
    search_equiv(knot, apply_stabilize(knot, 1), 0, 0, 10, stats=stats)
    assert sum(stats["states"].values()) <= 10
    assert _successors.cache_info().misses - expanded <= 1
    assert stats["reduced"]["a"] + stats["reduced"]["b"] <= 8


def test_deep_scrambles_reduce_before_they_meet():
    """Random 3-base knots, stabilized 15 times and scrambled by 30 moves:
    each reduces back within the search and is certified."""
    for s in range(8):
        knot = _random_data(3, 2, 2, 100 + s)
        rng = random.Random(s)
        data = knot
        for _ in range(15):
            data = apply_stabilize(data, rng.randint(1, data.base_count))
        data = _scramble(data, rng, 30)
        outcome = search_equiv(data, knot, 62, 0, 30_000)
        assert isinstance(outcome, Equivalent), s
        notes = []
        assert certify(data, knot, outcome, notes), notes


def stable_walk(rng, data, steps, weak):
    """``data`` after ``steps`` random moves from ``stable_walk_pool``
    spending at most ``weak`` weak moves, and the weak moves spent."""
    used = 0
    for _ in range(steps):
        move = rng.choice(stable_walk_pool(data, rng, weak_left=weak - used))
        used += is_weak(move)
        data = apply_move(data, move)
    return data, used


def walk_pair(rng, weak):
    """A random knot, a stable walk from it, the walk's length and the
    weak moves it spent."""
    knot = random_knot(rng, rng.randint(1, 4), extra=rng.randint(0, 1), max_len=rng.randint(0, 2))
    steps = rng.randint(2, 6)
    walked, used = stable_walk(rng, knot, steps, weak)
    return knot, walked, steps, used


def ball(data, levels):
    """The canonical states within ``levels`` moves of ``data`` at weak
    budget 0: what a plain breadth-first search from it stores."""
    found = {serialize(canonical_form(data)): canonical_form(data)}
    frontier = list(found.values())
    for _ in range(levels):
        frontier = [
            child
            for state in frontier
            for _, child in enumerate_moves(state, 0)
            if found.setdefault(serialize(child), child) is child
        ]
    return set(found)


@pytest.mark.parametrize("case", ["open3", "tree-open", "walk-949"])
def test_each_side_explores_what_a_search_from_its_root_would(case):
    """The search stores each side's reduction path and the states a
    plain search from that side's root reaches in as many levels: a path
    state the search reaches is expanded as a new state would be."""
    if case == "open3":
        (a, b), depth = OPEN3, 4
    elif case == "tree-open":
        a, depth = generate("stabilized:1:0"), 4
        b = parse_ribbon("ribbon 1\ndim 2\nbases 3\nhandle 1 3 : -2 -2\nhandle 2 3 : -2 1\n")
    else:
        b, a, depth, _ = walk_pair(random.Random(949), 0)
    stats = {}
    search_equiv(a, b, depth, 0, 10_000, stats=stats)
    assert stats["stop"] in ("depth", "met") and stats["levels"]
    stored = 0
    for side, data in zip("ab", (a, b)):
        path, _ = _reduce(_canonical_state(data), 10_000)
        levels = sum(s == side for s, _ in stats["levels"])
        stored += len(ball(data, levels) | {serialize(_record(data.dim, *state)) for _, state in path})
    assert sum(stats["states"].values()) == stored


# Walks (seeded with random.Random(seed)) that a search starting from the
# reduced forms alone, not from the roots, left Unknown at depth = walk
# length: reduction took a side to a form with a crossing next to its
# handle's own end, which the move set does not leave within the depth.
STRANDED_WALKS = {
    0: [347, 652, 749, 825, 873, 998, 1005, 1116, 1338, 1365, 1453, 1484, 1559, 1584, 1627],
    1: [38, 155, 236, 271, 311, 347, 369, 381, 400, 460, 493, 533, 565, 726, 729, 790, 798, 802, 825, 833,
        853, 945, 1005, 1089, 1108, 1138, 1144, 1248, 1275, 1297, 1453, 1484, 1559, 1627, 1657, 1671, 1735,
        1755, 1756, 1770, 1790, 1956, 1993],
}


@pytest.mark.parametrize("weak", [0, 1])
def test_walks_whose_reductions_strand_are_still_certified(weak):
    for seed in STRANDED_WALKS[weak]:
        knot, walked, steps, used = walk_pair(random.Random(seed), weak)
        outcome = search_equiv(walked, knot, steps, used, 20_000)
        assert isinstance(outcome, Equivalent), seed
        notes = []
        assert certify(walked, knot, outcome, notes), (seed, notes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weak=st.integers(0, 1))
def test_stable_walks_are_certified_and_refutations_recompute(seed, weak):
    rng = random.Random(seed)
    knot, walked, steps, used = walk_pair(rng, weak)
    outcome = search_equiv(walked, knot, steps, used, 20_000)
    assert isinstance(outcome, Equivalent)
    notes = []
    assert certify(walked, knot, outcome, notes), notes

    # against an unrelated knot, a refutation recomputes by brute force
    other = random_knot(rng, rng.randint(1, 4), extra=rng.randint(0, 1), max_len=rng.randint(0, 2))
    outcome = search_equiv(knot, other, 2, weak, 2000)
    if isinstance(outcome, Refuted):
        values = tuple(GATE_ORACLES[outcome.invariant](x) for x in (knot, other))
        assert values == (outcome.value_a, outcome.value_b) and values[0] != values[1]
    elif isinstance(outcome, Equivalent):
        assert certify(knot, other, outcome)


def merge_routes(data, doomed):
    """(survivor, steps) for every base reachable from ``doomed`` by a
    first-found walk along handles whose words and far ends avoid it."""
    routes = {doomed: ()}
    queue = [doomed]
    while queue:
        base = queue.pop(0)
        for i, h in enumerate(data.handles, start=1):
            if any(letter.base == doomed for letter in h.word):
                continue
            for direction, near, far in (("fwd", h.start, h.end), ("rev", h.end, h.start)):
                if near == base and far != doomed and far not in routes:
                    routes[far] = routes[base] + ((i, direction),)
                    queue.append(far)
    del routes[doomed]
    return routes


def test_merge_bases_replays_and_keeps_colorings():
    rng = random.Random(7)
    merged = 0
    while merged < 40:
        data = random_knot(rng, rng.randint(2, 4), extra=rng.randint(0, 2))
        doomed = rng.randint(1, data.base_count)
        routes = merge_routes(data, doomed)
        if not routes:
            continue
        survivor = rng.choice(sorted(routes))
        out, script = macro_merge_bases(data, doomed, MergeWitness(survivor, routes[survivor]))
        assert apply_script(data, script) == out
        assert brute_profile(out, PROFILE_QUANDLES) == brute_profile(data, PROFILE_QUANDLES)
        merged += 1


def test_clone_handle_replays_keeps_colorings_and_adds_genus():
    rng = random.Random(8)
    for _ in range(40):
        data = random_knot(rng, rng.randint(2, 4), extra=rng.randint(0, 2))
        h = rng.choice(data.handles)
        template = h if rng.random() < 0.5 else reversed_handle(h)
        out, script = macro_clone_handle(data, template)
        assert apply_script(data, script) == out
        assert out.handles[-1] == template
        assert genus(out) == genus(data) + 1
        assert brute_profile(out, PROFILE_QUANDLES) == brute_profile(data, PROFILE_QUANDLES)


SPUN = generate("spun-trefoil")  # one handle 1 -> 2 crossing -2 -1


@pytest.mark.parametrize(
    "doomed,witness,message",
    [
        (1, MergeWitness(2, ((2, "fwd"),)), "handle 2 out of range"),
        (1, MergeWitness(2, ((1, "up"),)), "direction 'up'"),
        (1, MergeWitness(2, ((1, "rev"),)), "starts at base 2"),
        (1, MergeWitness(2, ((1, "fwd"),)), "touches doomed base"),
        (1, MergeWitness(2, ()), "ends on base 1"),
        (3, MergeWitness(2, ()), "out of range"),
        (2, MergeWitness(2, ()), "must differ"),
        ("1", MergeWitness(2, ()), "doomed base '1' is not an integer"),
        (1, MergeWitness(2.0, ()), "survivor base 2.0 is not an integer"),
        (1, MergeWitness(2, ((True, "fwd"),)), "route handle True is not an integer"),
    ],
)
def test_merge_bases_rejects_malformed_witnesses(doomed, witness, message):
    with pytest.raises(ValueError, match=message):
        macro_merge_bases(SPUN, doomed, witness)


def test_clone_handle_rejects_a_template_matching_no_handle():
    with pytest.raises(ValueError, match="no matching handle"):
        macro_clone_handle(SPUN, Handle(1, 2, ()))
    # bases out of range or not integers match no handle of a valid record
    for template in (Handle(1, 5, ()), Handle("1", 2, ((2, -1), (1, -1)))):
        with pytest.raises(ValueError, match="no matching handle"):
            macro_clone_handle(SPUN, template)


@pytest.mark.parametrize(
    "depth,weak_budget,state_cap,message",
    [
        ("1", 0, 10, "depth '1' is not an integer"),
        (1.5, 0, 10, "depth 1.5 is not an integer"),
        (True, 0, 10, "depth True is not an integer"),
        (1, 0.0, 10, "weak budget 0.0 is not an integer"),
        (1, 0, None, "state cap None is not an integer"),
        (-1, 0, 10, "depth must be >= 0"),
        (1, -1, 10, "weak budget must be >= 0"),
        (1, 0, 0, "state cap must be >= 1"),
    ],
)
def test_search_bounds_must_be_integers_in_range(depth, weak_budget, state_cap, message):
    unknot = generate("unknot")
    with pytest.raises(ValueError, match=re.escape(message)):
        search_equiv(unknot, unknot, depth, weak_budget, state_cap)


# ---------------------------------------------------------------------------
# branches the searches above never take


def test_the_reduction_memo_is_emptied_when_it_is_full(monkeypatch):
    cleared = []

    class Memo(dict):
        def clear(self):
            cleared.append(len(self))
            super().clear()

    unknot = generate("unknot")
    pairs = [(generate(f"stabilized:{k}:{seed}"), unknot) for k, seed in ((3, 1), (4, 2), (5, 3))]
    expected = [serialize_outcome(search_equiv(a, b, 0, 0, 10_000)) for a, b in pairs]
    monkeypatch.setattr(search, "_STEPS", Memo())
    monkeypatch.setattr(search, "_STEPS_HELD", 2)
    # a smaller memo changes no outcome
    assert [serialize_outcome(search_equiv(a, b, 0, 0, 10_000)) for a, b in pairs] == expected
    assert cleared and set(cleared) == {2}
    assert len(search._STEPS) <= 2


def test_records_of_different_dimensions_are_not_compared():
    with pytest.raises(ValueError, match="^dim mismatch: 2 vs 3$"):
        search_equiv(RibbonData(2, 1), RibbonData(3, 1), 1, 0, 10)


def test_certify_takes_only_an_equivalent_outcome():
    unknot = generate("unknot")
    for outcome in (Refuted("genus", 1, 0), Unknown(2, 0)):
        with pytest.raises(ValueError, match="^certify requires an Equivalent outcome$"):
            certify(unknot, unknot, outcome)


def test_certify_reports_a_script_that_does_not_replay():
    unknot = generate("unknot")
    broken = Equivalent(MoveScript((Destab(1),)), MoveScript(), unknot, 0, 0)
    notes = []
    assert certify(unknot, unknot, broken, notes) is False
    assert notes == ["replay failed: destab 1: degree != 1"]
    assert certify(unknot, unknot, broken) is False
