import random
from dataclasses import replace

import pytest

from ribbonlab import (
    Equivalent,
    Handle,
    MergeWitness,
    MoveScript,
    Refuted,
    Unknown,
    apply_script,
    canonical_form,
    certify,
    dihedral_quandle,
    genus,
    is_sphere_knot,
    macro_clone_handle,
    macro_merge_bases,
    reversed_handle,
    search_equiv,
    serialize_script,
)
from ribbonlab.cli import generate

from oracles import brute_profile, random_knot

PROFILE_QUANDLES = (dihedral_quandle(3), dihedral_quandle(5))


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
            lambda found: replace(found, weak_used_a=0, weak_used_b=0),
            "weak-handle accounting does not match the scripts",
        ),
        (
            "stabilized:3:1",
            lambda found: replace(found, script_b=MoveScript(found.script_b.moves[1:])),
            "script B does not reach the meeting form",
        ),
        (
            "stabilized:3:1",
            lambda found: replace(found, meet=canonical_form(generate("spun-trefoil"))),
            "script A does not reach the meeting form",
        ),
    ],
    ids=["weak-accounting", "move-dropped", "wrong-meet"],
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
        return
    assert stored == 2 + sum(size for _, size in stats["levels"])
    for side in "ab":
        assert stats["states"][side] == 1 + sum(size for s, size in stats["levels"] if s == side)
    if isinstance(outcome, Unknown):
        # a level the cap stopped is listed but not counted as reached
        assert (outcome.states, outcome.depth) == (stored, len(stats["levels"]) - (stop == "cap"))
    if stop == "cap":
        assert stored == cap


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
    ],
)
def test_merge_bases_rejects_malformed_witnesses(doomed, witness, message):
    with pytest.raises(ValueError, match=message):
        macro_merge_bases(SPUN, doomed, witness)


def test_clone_handle_rejects_a_template_matching_no_handle():
    with pytest.raises(ValueError, match="no matching handle"):
        macro_clone_handle(SPUN, Handle(1, 2, ()))
