"""The per-process caches of the search inner loop: memoized successors,
the canonical form keyed on freely reduced words, and the serialized text
kept on each record.  Each must give what an uncached computation gives."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    Handle,
    RibbonData,
    SignedLetter,
    canonical_form,
    enumerate_moves,
    free_reduce,
    parse_ribbon,
    serialize,
)
from ribbonlab.moves import _successors

from oracles import random_knot

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_state(rng):
    """A canonical state: a random knot, sometimes with trivial handles,
    so that the weak moves have something to remove."""
    knot = random_knot(rng, rng.randint(1, 4), extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
    trivial = tuple(Handle(b, b, ()) for b in rng.choices(range(1, knot.base_count + 1), k=rng.randint(0, 2)))
    return canonical_form(RibbonData(knot.dim, knot.base_count, knot.handles + trivial))


def with_cancelling_pairs(rng, data, pairs):
    """``data`` with ``pairs`` cancelling letter pairs inserted at random
    places in its words; it freely reduces back to ``data`` reduced."""
    words = [list(h.word) for h in data.handles]
    for _ in range(pairs if words else 0):
        word = rng.choice(words)
        base, sign = rng.randint(1, data.base_count), rng.choice((1, -1))
        at = rng.randint(0, len(word))
        word[at:at] = [SignedLetter(base, sign), SignedLetter(base, -sign)]
    handles = tuple(Handle(h.start, h.end, tuple(w)) for h, w in zip(data.handles, words))
    return RibbonData(data.dim, data.base_count, handles)


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
    expected = list(_successors.__wrapped__(data, budget > 0))
    assert enumerate_moves(data, budget) == expected
    assert enumerate_moves(rebuilt(data), budget) == expected  # a cache hit by equality


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
