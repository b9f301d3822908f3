import pytest

from ribbonlab import (
    Equivalent,
    Refuted,
    Unknown,
    certify,
    is_sphere_knot,
    search_equiv,
    serialize_script,
)
from ribbonlab.cli import generate


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


def test_certify_rejects_wrong_weak_accounting():
    torus, unknot = generate("torus:1"), generate("unknot")
    found = search_equiv(torus, unknot, 1, 1, 100)
    tampered = Equivalent(found.script_a, found.script_b, found.meet, 0, 0)
    notes = []
    assert not certify(torus, unknot, tampered, notes)
    assert notes == ["weak-handle accounting does not match the scripts"]


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
        assert (outcome.states, outcome.depth) == (stored, len(stats["levels"]))
    if stop == "cap":
        assert stored == cap
