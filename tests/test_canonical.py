"""Canonical labelling: the class partition against the exhaustive
oracle, relabel invariance beyond the oracle's reach, symmetric and large
inputs, and the coded letters and keys the labelling and the search use."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    Handle,
    RibbonData,
    SignedLetter,
    apply_stabilize,
    canonical_bytes,
    canonical_form,
    free_reduce_word,
    reverse_flip,
)
from ribbonlab.cli import generate
from ribbonlab.ribbon import _canonical_state, _coded, _flipped, _free_reduced, _letters, _record

from oracles import (
    exhaustive_canonical_key,
    random_knot,
    random_regular,
    random_ribbon,
    shuffled,
    with_cancelling_pairs,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
letters = st.tuples(st.integers(min_value=1, max_value=20), st.sampled_from((1, -1)))


def random_input(rng, bases, regular):
    if regular:
        return random_regular(rng, bases, layers=rng.randint(0, 2))
    return random_knot(rng, bases, extra=rng.randint(0, 2), max_len=rng.choice((0, 1, 3)))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, bases=st.integers(min_value=1, max_value=6), regular=st.booleans())
def test_canonical_classes_match_exhaustive_oracle(seed, bases, regular):
    rng = random.Random(seed)
    data = random_input(rng, bases, regular)
    copy = shuffled(data, rng)
    family = [data, copy, apply_stabilize(copy, rng.randint(1, bases))]
    family += [apply_stabilize(data, b) for b in rng.sample(range(1, bases + 1), min(bases, 2))]
    keys = [exhaustive_canonical_key(x) for x in family]
    forms = [canonical_bytes(x) for x in family]
    for i in range(len(family)):
        for j in range(i):
            assert (forms[i] == forms[j]) == (keys[i] == keys[j])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, bases=st.integers(min_value=9, max_value=14), regular=st.booleans())
def test_canonical_bytes_survive_relabelling_past_the_oracle(seed, bases, regular):
    rng = random.Random(seed)
    data = random_input(rng, bases, regular)
    assert canonical_bytes(shuffled(data, rng)) == canonical_bytes(data)


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_canonical_form_is_idempotent(seed):
    data = random_ribbon(random.Random(seed), max_bases=12, max_handles=12, max_len=4)
    once = canonical_form(data)
    assert canonical_form(once) == once


def cycle(n):
    return RibbonData(2, n, tuple(Handle(i, i % n + 1, ()) for i in range(1, n + 1)))


def star(n):
    return RibbonData(2, n, tuple(Handle(1, i, ()) for i in range(2, n + 1)))


def crossed_star(n):
    """A star whose spoke to each leaf crosses the next leaf round."""
    return RibbonData(
        2, n, tuple(Handle(1, i, (SignedLetter(i % (n - 1) + 2, 1),)) for i in range(2, n + 1))
    )


def path(n):
    return RibbonData(2, n, tuple(Handle(i, i + 1, ()) for i in range(1, n)))


def frucht(n):
    """The Frucht graph (n = 12): 3-regular with no symmetry but the
    identity, so refinement splits nothing and no two leaves agree."""
    edges = [(i, i % 12 + 1) for i in range(1, 13)]
    edges += [(1, 8), (2, 12), (3, 11), (4, 6), (5, 10), (7, 9)]
    return RibbonData(2, n, tuple(Handle(s, e, ()) for s, e in edges))


@pytest.mark.parametrize("shape", [cycle, star, crossed_star, path, frucht])
def test_symmetric_shapes_have_one_form(shape):
    rng = random.Random(12)
    data = shape(12)
    forms = {canonical_bytes(shuffled(data, rng)) for _ in range(20)}
    assert forms == {canonical_bytes(data)}


@pytest.mark.parametrize(
    "base_count,handle,message",
    [
        (2, Handle(1, 3, ()), "invalid data: handle 2: end base 3 out of range 1..2"),
        (1, Handle(1, 2, ()), "invalid data: handle 2: end base 2 out of range 1..1"),
        (2, Handle(0, 2, ()), "invalid data: handle 2: start base 0 out of range 1..2"),
        (2, Handle(1, 2, (SignedLetter(3, 1),)), "invalid data: handle 2: letter 0 base 3 out of range 1..2"),
        (2, Handle(1, 2, (SignedLetter(0, -1),)), "invalid data: handle 2: letter 0 base 0 out of range 1..2"),
        (2, Handle(1, 2, (SignedLetter(1, 2),)), "invalid data: handle 2: letter 0 has sign 2, expected +1 or -1"),
        (2, Handle(1, 1, (SignedLetter(2, 0),)), "invalid data: handle 2: letter 0 has sign 0, expected +1 or -1"),
        # bad letters that free reduction would delete
        (2, Handle(1, 2, (SignedLetter(5, 1), SignedLetter(5, -1))), "invalid data: handle 2: letter 0 base 5 out of range 1..2"),
        (2, Handle(1, 2, (SignedLetter(1, 2), SignedLetter(1, -2))), "invalid data: handle 2: letter 0 has sign 2, expected +1 or -1"),
        (2, Handle(1, 2, (SignedLetter(0, 1), SignedLetter(0, -1))), "invalid data: handle 2: letter 0 base 0 out of range 1..2"),
    ],
    # each case named by its fault
    ids=[
        "2-handle0-base index 3 out of range 1..2",
        "1-handle1-base index 2 out of range 1..1",
        "2-handle2-base index 0 out of range",
        "2-handle3-base index 3 out of range 1..2",
        "2-handle4-base index 0 out of range",
        "2-handle5-crossing sign 2",
        "2-handle6-crossing sign 0",
        "2-handle7-base index 5 out of range 1..2",
        "2-handle8-crossing sign 2",
        "2-handle9-base index 0 out of range",
    ],
)
def test_canonical_form_rejects_bases_out_of_range_and_bad_signs(base_count, handle, message):
    data = RibbonData(2, base_count, (Handle(1, base_count, ()), handle))
    for _ in range(2):  # a rejected record must not be remembered as valid
        with pytest.raises(ValueError, match=re.escape(message)):
            canonical_form(data)
    assert canonical_form(RibbonData(2, base_count, (Handle(1, base_count, ()),))).base_count == base_count


@pytest.mark.parametrize(
    "data",
    [star(40), cycle(40), path(40), generate("torus:50"), random_knot(random.Random(1000), 1000)],
    ids=["star40", "cycle40", "path40", "torus50", "random1000"],
)
def test_large_inputs_canonicalize(data):
    # Past the exhaustive oracle's reach the tree search must still end
    # quickly and without deep recursion on large, highly symmetric inputs.
    assert canonical_bytes(shuffled(data, random.Random(40))) == canonical_bytes(data)


@given(a=letters, b=letters)
def test_letter_codes_order_as_base_sign_pairs(a, b):
    (x,), (y,) = _coded((a,)), _coded((b,))
    assert (x < y) == (a < b) and (x == y) == (a == b)
    assert _letters((x,)) == (SignedLetter(*a),)
    assert _letters((x ^ 1,)) == (SignedLetter(a[0], -a[1]),)


@given(word=st.lists(letters, max_size=12))
def test_coded_reduction_and_flip_agree_with_the_letter_forms(word):
    coded = _coded(word)
    assert _letters(_free_reduced(coded)) == free_reduce_word(word)
    assert _letters(_flipped(coded)) == reverse_flip(word)


@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_search_keys_agree_with_canonical_bytes(seed):
    """Small records, so that distinct draws often share a class, each
    also relabelled, with handles reversed and cancelling pairs inserted:
    two share a search key exactly when their canonical bytes agree, and
    the record built from a key is the canonical form."""
    rng = random.Random(seed)
    family = []
    for _ in range(3):
        data = random_knot(rng, rng.randint(1, 3), extra=rng.randint(0, 1), max_len=rng.randint(0, 2))
        family += [data, shuffled(with_cancelling_pairs(rng, data, rng.randint(1, 3)), rng)]
    states = [_canonical_state(x) for x in family]
    forms = [canonical_bytes(x) for x in family]
    for data, state in zip(family, states):
        assert _record(data.dim, *state) == canonical_form(data)
    for i in range(len(family)):
        for j in range(i):
            assert (states[i] == states[j]) == (forms[i] == forms[j])
