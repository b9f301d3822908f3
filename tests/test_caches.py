"""The per-process caches of the search inner loop: the per-handle
readings the labelling reads bases from, the records built from keys,
and the serialized text kept on each record.  Each must give what an
uncached computation gives."""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    Handle,
    RibbonData,
    SignedLetter,
    canonical_bytes,
    canonical_form,
    enumerate_moves,
    free_reduce,
    parse_ribbon,
    search_equiv,
    serialize,
    serialize_outcome,
)
from ribbonlab import ribbon
from ribbonlab.cli import _random_data, generate
from ribbonlab.moves import _move_line
from ribbonlab.ribbon import _canonical_state, _record

from oracles import labelled_successors, random_knot, random_regular, random_ribbon, shuffled, with_cancelling_pairs

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_state(rng):
    """A canonical state: a random knot, sometimes with trivial handles,
    so that the weak moves have something to remove."""
    knot = random_knot(rng, rng.randint(1, 4), extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
    trivial = tuple(Handle(b, b, ()) for b in rng.choices(range(1, knot.base_count + 1), k=rng.randint(0, 2)))
    return canonical_form(RibbonData(knot.dim, knot.base_count, knot.handles + trivial))


def rebuilt(data):
    """An equal record that shares no object with ``data``."""
    handles = tuple(
        Handle(h.start, h.end, tuple(SignedLetter(l.base, l.sign) for l in h.word))
        for h in data.handles
    )
    return RibbonData(data.dim, data.base_count, handles)


def written_out(data):
    """The ``ribbon 1`` text of ``data``, formatted independently."""
    lines = ["ribbon 1", f"dim {data.dim}", f"bases {data.base_count}"]
    for h in data.handles:
        lines.append(" ".join(["handle", str(h.start), str(h.end), ":", *[str(l.sign * l.base) for l in h.word]]))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, budget=st.integers(0, 2))
def test_enumerate_moves_equals_uncached_recomputation(seed, budget):
    data = random_state(random.Random(seed))
    expected = labelled_successors(_canonical_state(data), budget > 0)
    # the search's successors of a key are the public ones of its record
    assert enumerate_moves(data, budget) == [(move, _record(data.dim, *child)) for move, child in expected]


@settings(max_examples=30, deadline=None)
@given(seed=seeds, budget=st.integers(0, 2))
def test_enumerate_moves_returns_a_fresh_list(seed, budget):
    data = random_state(random.Random(seed))
    first = enumerate_moves(data, budget)
    expected = list(first)
    first.clear()
    first.append(None)
    second = enumerate_moves(data, budget)
    assert second is not first
    assert second == expected


@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_canonical_form_ignores_cancelling_pairs(seed):
    rng = random.Random(seed)
    data = random_knot(rng, rng.randint(1, 5), extra=rng.randint(0, 2), max_len=rng.randint(1, 3))
    noisy = with_cancelling_pairs(rng, data, rng.randint(1, 4))
    form = canonical_form(noisy)
    assert form == canonical_form(free_reduce(noisy))
    assert form == canonical_form(data)
    assert canonical_form(form) == form
    assert all(type(l) is SignedLetter for h in form.handles for l in h.word)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, canonical=st.booleans())
def test_serialize_matches_an_equal_record_built_independently(seed, canonical):
    rng = random.Random(seed)
    data = with_cancelling_pairs(rng, random_knot(rng, rng.randint(1, 5), extra=rng.randint(0, 2)), rng.randint(0, 2))
    if canonical:
        data = canonical_form(data)
    copy = rebuilt(data)
    text = written_out(data)
    assert serialize(copy) == text  # the copy's text is built here
    assert serialize(data) == text
    assert serialize(data) == serialize(copy) == text  # and now both are cached
    assert copy == data and hash(copy) == hash(data) and repr(copy) == repr(data)
    assert parse_ribbon(serialize(data)) == data


def test_canonical_form_keeps_the_dimension():
    word = (SignedLetter(2, -1), SignedLetter(1, 1), SignedLetter(1, -1), SignedLetter(1, -1))
    forms = [canonical_form(RibbonData(dim, 2, (Handle(1, 2, word),))) for dim in (2, 3, 4)]
    assert [form.dim for form in forms] == [2, 3, 4]
    assert len({serialize(form) for form in forms}) == 3
    assert all(form.handles == forms[0].handles for form in forms)


def canonical_memos():
    """Every memo of ``ribbon`` (each function with ``cache_clear``)."""
    return [f for f in vars(ribbon).values() if callable(getattr(f, "cache_clear", None))]


def digest_corpus(rng):
    """Records of 1-12 bases: random knots and ribbons with cancelling
    pairs left in their words, and ``random_regular`` shapes, on which
    refinement splits little."""
    for i in range(480):
        bases = 1 + i % 12
        kind = i % 4
        if kind == 0:
            data = random_knot(rng, bases, extra=rng.randint(0, 3), max_len=rng.randint(0, 4))
        elif kind == 1:
            data = random_ribbon(rng, max_bases=bases, max_handles=bases + 2, max_len=4)
        else:
            data = random_regular(rng, bases, layers=kind - 2 + rng.randint(0, 1))
        yield with_cancelling_pairs(rng, data, rng.randint(0, 3))


def digest_searches():
    """(outcome text, stats) of seeded searches: open pairs of random
    3-base knots, and stabilized unknots against the unknot."""
    runs = [(_random_data(3, 2, 2, 100 + s), _random_data(3, 2, 2, 200 + s), 4, 0, 3000) for s in range(6)]
    runs += [(generate(f"stabilized:{k}:{s}"), generate("unknot"), k, 0, 20_000) for k in (2, 3, 4) for s in range(2)]
    runs.append((generate("torus:2"), generate("unknot"), 3, 1, 2000))
    for a, b, depth, weak, cap in runs:
        stats = {}
        outcome = search_equiv(a, b, depth, weak, cap, stats=stats)
        del stats["seconds"]  # timings differ from run to run
        yield serialize_outcome(outcome), json.dumps(stats, sort_keys=True)


# Recorded before canonical_form's per-handle memo and first-round
# shortcut: the labelling may get faster, but not change one byte.  The
# search outputs and stats were re-recorded once, when the search began
# reducing each side first (scripts, UNKNOWN counts and the "reduced"
# stat); the canonical bytes did not change.
DIGEST = "4ec694e846128764bae27601d298fe071801e2e630d50acd19ec3d60d2692bcd"


def test_canonical_bytes_and_search_outputs_match_the_recorded_digest():
    h = hashlib.sha256()
    for data in digest_corpus(random.Random(1702)):
        h.update(canonical_bytes(data) + b"\0")
        h.update(canonical_bytes(shuffled(data, random.Random(7))) + b"\0")
    for text, stats in digest_searches():
        h.update(f"{text}\0{stats}\0".encode("ascii"))
    assert h.hexdigest() == DIGEST


def successor_corpus(rng):
    """Records of 1-7 bases: raw random knots, some with an extra or a
    trivial handle, each also as its canonical form and with cancelling
    pairs inserted under a random numbering, handle order and orientation."""
    for i in range(240):
        bases = 1 + i % 7
        knot = random_knot(rng, bases, extra=rng.randint(0, 1), max_len=rng.randint(0, 3))
        trivial = tuple(Handle(b, b, ()) for b in rng.choices(range(1, bases + 1), k=rng.randint(0, 1)))
        raw = RibbonData(knot.dim, bases, knot.handles + trivial)
        yield raw
        yield canonical_form(raw)
        yield shuffled(with_cancelling_pairs(rng, raw, rng.randint(1, 3)), rng)


# Recorded before successors were built on freely reduced triples: the
# expansion may get faster, but its moves and states must not change.
SUCCESSOR_DIGEST = "edd54cc839d69457225667416625ffc0852229ebd474b6e2ebd8f8637f72899d"


def test_successors_match_the_recorded_digest():
    h = hashlib.sha256()
    for data in successor_corpus(random.Random(1703)):
        for budget in (0, 1):
            for move, state in enumerate_moves(data, budget):
                h.update(f"{_move_line(move)}|{serialize(state)}".encode("ascii"))
            h.update(b"\0")
    assert h.hexdigest() == SUCCESSOR_DIGEST


@settings(max_examples=80, deadline=None)
@given(seed=seeds, bases=st.integers(1, 12), regular=st.booleans())
def test_canonical_bytes_do_not_depend_on_what_the_memos_hold(seed, bases, regular):
    rng = random.Random(seed)
    if regular:
        data = random_regular(rng, bases, layers=rng.randint(0, 2))
    else:
        data = random_knot(rng, bases, extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
    data = with_cancelling_pairs(rng, data, rng.randint(0, 2))
    family = [shuffled(data, rng) for _ in range(3)]
    memos = canonical_memos()
    for memo in memos:
        memo.cache_clear()
    cold = canonical_bytes(rebuilt(data))
    for other in family:  # warm every memo with relabellings of the same record
        assert canonical_bytes(other) == cold
    assert canonical_bytes(rebuilt(data)) == cold
    for memo in memos:  # each memo cold while the others stay warm
        memo.cache_clear()
        assert canonical_bytes(rebuilt(data)) == cold
        for other in family:
            assert canonical_bytes(other) == cold


def with_leaves(rng, data, leaves, targets=None):
    """``data`` stabilized ``leaves`` times: each new base is joined by an
    empty handle to a base drawn from ``targets``, or, by default, from
    every base so far, the new ones too, so that leaves hang in chains."""
    n, handles = data.base_count, list(data.handles)
    for _ in range(leaves):
        n += 1
        handles.append(Handle(n, rng.choice(targets) if targets else rng.randint(1, n - 1), ()))
    return RibbonData(data.dim, n, tuple(handles))


def cycle_of(n):
    return RibbonData(2, n, tuple(Handle(i, i % n + 1, ()) for i in range(1, n + 1)))


def leaf_corpus(rng):
    """Records on which the first refinement round ties pendant leaves:
    random knots stabilized 1-8 times, on their leaves too; twin leaves on
    one base; leaves on bases that only refinement or the tree search
    tells apart (cycles and ``random_regular`` shapes); stars and spun
    trefoils with up to 150 leaves; and two bases joined by one empty
    handle, alone or beside other leaves."""
    for i in range(240):
        knot = random_knot(rng, 1 + i % 6, extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
        yield with_leaves(rng, knot, 1 + i % 8)
    for i in range(60):
        knot = random_knot(rng, 1 + i % 5, extra=rng.randint(0, 1), max_len=rng.randint(0, 2))
        twins = with_leaves(rng, knot, 2 + i % 5, [rng.randint(1, knot.base_count)])
        yield with_leaves(rng, twins, rng.randint(0, 3), list(range(1, knot.base_count + 1)))
    for i in range(60):
        bases = 3 + i % 8
        shape = random_regular(rng, bases, layers=rng.randint(0, 1)) if i % 3 else cycle_of(bases)
        yield with_leaves(rng, shape, 1 + i % 6, list(range(1, bases + 1)))
    spun = generate("spun-trefoil")
    for leaves in (2, 3, 7, 20, 60, 150):
        yield RibbonData(2, leaves + 1, tuple(Handle(1, b, ()) for b in range(2, leaves + 2)))
        yield with_leaves(rng, spun, leaves, [1, 2])
    pair = RibbonData(2, 2, (Handle(1, 2, ()),))
    yield pair
    yield with_leaves(rng, RibbonData(2, 2, (Handle(1, 2, ()), Handle(1, 2, ()))), 3, [1, 2])
    for i in range(20):
        knot = with_leaves(rng, random_knot(rng, 1 + i % 4, max_len=2), i % 4)
        n = knot.base_count
        yield RibbonData(2, n + 2, knot.handles + (Handle(n + 1, n + 2, ()),))


# Recorded before the first refinement round placed tied pendant leaves
# by their attachment bases: the labelling of leaf-heavy records may get
# faster, but not change one byte.
LEAF_DIGEST = "3a58a24d8419337e8d9ac8d19631ef80f9392d48251e509b45a496678f697738"


def test_leaf_heavy_canonical_bytes_match_the_recorded_digest():
    h = hashlib.sha256()
    rng = random.Random(1704)
    for data in leaf_corpus(random.Random(1705)):
        h.update(canonical_bytes(data) + b"\0")
        h.update(canonical_bytes(shuffled(data, rng)) + b"\0")
    assert h.hexdigest() == LEAF_DIGEST
