"""Canonical labelling: the class partition against the exhaustive
oracle, relabel invariance beyond the oracle's reach, symmetric and large
inputs, and the coded letters and keys the labelling and the search use."""

import random
import re
from collections import Counter

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
from ribbonlab import ribbon
from ribbonlab.cli import generate
from ribbonlab.moves import Stab, _successor_triples
from ribbonlab.ribbon import _LEAF, _canonical_state, _coded, _flipped, _free_reduced, _letters, _reading, _record

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


def leafy_knot(rng, bases, leaves):
    """A random knot with ``leaves`` leaves hung on its bases, several on
    one base, and on each other in chains."""
    knot = random_knot(rng, bases, extra=2, max_len=2)
    handles = list(knot.handles)
    for new in range(bases + 1, bases + leaves + 1):
        handles.append(Handle(new, rng.randint(1, bases if rng.random() < 0.8 else new - 1), ()))
    return RibbonData(2, bases + leaves, tuple(handles))


@pytest.mark.parametrize(
    "data",
    [star(401), leafy_knot(random.Random(6), 8, 80)],
    ids=["star400", "leafy-knot"],
)
def test_leafy_records_have_one_form(data):
    rng = random.Random(12)
    forms = {canonical_bytes(shuffled(data, rng)) for _ in range(20)}
    assert forms == {canonical_bytes(data)}


def tied_signatures(base_count, triples):
    """The first-round signatures that two or more bases hold."""
    incidences = [[] for _ in range(base_count)]
    for triple in triples:
        for b, incidence in _reading(triple).first:
            incidences[b].append(incidence)
    held = Counter(tuple(sorted(found)) for found in incidences)
    return {signature for signature, count in held.items() if count > 1}


@pytest.fixture
def labelling_paths(monkeypatch):
    """Counts of ``_Colouring.refine`` and ``_Colouring.individualized``
    calls, of search tree nodes and of leaves (refined colourings that
    ``_leaf_colours`` orders), kept while the test runs."""
    counts = Counter()
    refine = ribbon._Colouring.refine
    individualized = ribbon._Colouring.individualized
    leaf_colours = ribbon._leaf_colours

    def counted_refine(self, *args):
        counts["refine"] += 1
        return refine(self, *args)

    def counted_individualized(self, v):
        counts["individualized"] += 1
        return individualized(self, v)

    def counted_leaf_colours(*args):
        colours = leaf_colours(*args)
        counts["leaf"] += colours is not None
        return colours

    class CountedNode(ribbon._TreeNode):
        def __init__(self, *args):
            counts["tree"] += 1
            super().__init__(*args)

    monkeypatch.setattr(ribbon._Colouring, "refine", counted_refine)
    monkeypatch.setattr(ribbon._Colouring, "individualized", counted_individualized)
    monkeypatch.setattr(ribbon, "_leaf_colours", counted_leaf_colours)
    monkeypatch.setattr(ribbon, "_TreeNode", CountedNode)
    return counts


def test_tied_leaves_are_placed_without_refinement_or_tree_search(labelling_paths):
    rng = random.Random(26)
    placed = 0
    for _ in range(200):
        knot = random_knot(rng, rng.randint(2, 7), extra=rng.randint(0, 2), max_len=rng.randint(0, 3))
        n, key = _canonical_state(knot)
        if tied_signatures(n, key):
            continue  # not a discrete knot
        for move, count, triples in _successor_triples(n, key, key, False):
            if type(move) is Stab and tied_signatures(count, triples) == {_LEAF}:
                labelling_paths.clear()
                ribbon._canonical_key(count, triples)
                assert not labelling_paths
                placed += 1
    assert placed > 50


@pytest.mark.parametrize(
    "data,tree",
    [
        # two leaves on each other: twins, so the refined colouring is a leaf
        (RibbonData(2, 2, (Handle(1, 2, ()),)), False),
        # leaves on bases 1 and 3 of a square, which refinement cannot split
        (RibbonData(2, 6, tuple(Handle(s, e, ()) for s, e in ((1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (6, 3)))), True),
    ],
    ids=["pair", "square-with-two-leaves"],
)
def test_other_ties_still_refine_and_search_the_tree(labelling_paths, data, tree):
    canonical_form(data)
    assert labelling_paths["refine"]
    assert bool(labelling_paths["tree"]) == tree


def twin_record(rng, bare, loops, leaves, pair):
    """``bare`` bases crossed by nothing, ``loops`` bases with one trivial
    loop each, ``leaves`` leaves on one base and, if ``pair``, the two
    bases of ``handle 1 2 :``, shuffled: each cell that refinement leaves
    holds twins."""
    handles = [Handle(b, b, ()) for b in range(bare + 1, bare + loops + 1)]
    n = bare + loops
    if leaves:
        handles += [Handle(n + 1, n + 1 + i, ()) for i in range(1, leaves + 1)]
        n += leaves + 1
    if pair:
        handles.append(Handle(n + 1, n + 2, ()))
        n += 2
    return shuffled(RibbonData(2, n, tuple(handles)), rng)


def test_twin_bases_give_one_form_without_a_tree_search(labelling_paths):
    """Shuffled records made of bare bases, loops, leaves on one base and
    ``handle 1 2 :`` each give one form, with no tree search, and up to 7
    bases two of them share a form exactly when the exhaustive oracle's
    keys agree."""
    rng = random.Random(28)
    small = [
        (bare, loops, leaves, pair)
        for bare in range(4)
        for loops in range(4)
        for leaves in (0, 2, 3)
        for pair in (False, True)
        if 0 < bare + loops + (leaves and leaves + 1) + 2 * pair <= 7
    ]
    classes = set()
    for sizes in small + [(400, 0, 0, False), (0, 200, 0, False), (9, 9, 9, True)]:
        records = [twin_record(rng, *sizes) for _ in range(5)]
        forms = {canonical_bytes(data) for data in records}
        assert len(forms) == 1, sizes
        if sizes in small:
            classes.add((forms.pop(), exhaustive_canonical_key(records[0])))
    assert not labelling_paths["tree"]
    assert len({form for form, _ in classes}) == len({key for _, key in classes}) == len(classes)


def test_twins_below_the_root_end_the_tree_search(labelling_paths):
    """Two joined bases with two leaves each: refinement leaves the four
    leaves in one cell, and once one leaf is individualized every cell
    left holds twins, so the root is the one tree node."""
    data = RibbonData(2, 6, tuple(Handle(s, e, ()) for s, e in ((1, 2), (1, 3), (1, 4), (4, 5), (4, 6))))
    rng = random.Random(28)
    records = [shuffled(data, rng) for _ in range(10)]
    assert len({canonical_bytes(record) for record in records}) == 1
    assert labelling_paths["tree"] == len(records)


def test_bases_told_apart_by_crossing_signs_alone_are_no_twins(labelling_paths):
    """Bases 1 and 2 each cross bases 3 and 4 once, with opposite signs:
    refinement cannot split them, and no swap of two bases maps the
    handles to themselves, so the tree search orders them."""
    signs = ((1, 3, 1), (1, 4, -1), (2, 3, -1), (2, 4, 1))
    data = RibbonData(2, 4, tuple(Handle(s, e, (SignedLetter(e, sign),)) for s, e, sign in signs))
    rng = random.Random(28)
    assert len({canonical_bytes(shuffled(data, rng)) for _ in range(30)}) == 1
    assert labelling_paths["tree"]


def spider(*legs):
    """Paths of the given lengths hung on base 1."""
    handles, n = [], 1
    for length in legs:
        previous = 1
        for _ in range(length):
            n += 1
            handles.append(Handle(previous, n, ()))
            previous = n
    return RibbonData(2, n, tuple(handles))


def pendant_records(rng):
    """Records of up to 6 bases whose tied cells, after refinement, often
    hold only pendant forest bases: paths, spiders, stabilized knots, and
    trees with one crossed base or one loop."""
    records = [path(n) for n in range(2, 7)]
    records += [spider(*legs) for legs in ((1, 1, 1), (2, 2), (2, 1, 1), (2, 2, 1), (3, 1, 1), (1, 1, 1, 1, 1))]
    for bases in (1, 2, 2, 3, 3, 4):
        data = random_knot(rng, bases, extra=rng.randint(0, 1), max_len=rng.randint(0, 2))
        while data.base_count < 6:
            data = apply_stabilize(data, rng.randint(1, data.base_count))
        records.append(data)
    for n in (4, 5, 5, 6, 6, 6):
        handles = [Handle(b, rng.randint(1, b - 1), ()) for b in range(2, n + 1)]
        b = rng.randint(1, n)
        records.append(RibbonData(2, n, tuple(handles) + (Handle(b, b, ()),)))
        h = rng.randrange(len(handles))
        crossed = Handle(handles[h].start, handles[h].end, (SignedLetter(rng.randint(1, n), rng.choice((1, -1))),))
        records.append(RibbonData(2, n, tuple(handles[:h] + [crossed] + handles[h + 1 :])))
    return records


def test_pendant_forests_match_the_exhaustive_oracle(labelling_paths):
    """Shuffled records with pendant trees, up to 7 bases, share a form
    exactly when the exhaustive oracle's keys agree, and refinement plus
    one descent of the tree labels many of them."""
    rng = random.Random(32)
    classes, descents = set(), 0
    for data in pendant_records(rng):
        family = [shuffled(data, rng) for _ in range(3)]
        # the same tree grown at another base, often in another class
        family.append(shuffled(apply_stabilize(data, rng.randint(1, data.base_count)), rng))
        for record in family[-2:]:
            labelling_paths.clear()
            canonical_bytes(record)
            descents += labelling_paths["tree"] > 0 and labelling_paths["leaf"] == 1
        forms = [canonical_bytes(record) for record in family]
        assert len(set(forms[:3])) == 1
        classes.update(zip(forms[2:], map(exhaustive_canonical_key, family[2:])))
    assert len({form for form, _ in classes}) == len({key for _, key in classes}) == len(classes)
    assert descents > 10


def test_a_chain_spider_takes_one_descent(labelling_paths):
    """Refinement leaves the 20 inner and the 20 outer bases of a spider
    of 20 two-base chains in two cells, and no two are twins.  Each level
    of the descent individualizes one inner base, which splits off its
    outer base, so 19 levels end at the one leaf, with no second leaf."""
    data = shuffled(spider(*[2] * 20), random.Random(32))
    canonical_form(data)
    assert labelling_paths["individualized"] == labelling_paths["tree"] == 19
    assert labelling_paths["leaf"] == 1


@pytest.mark.parametrize(
    "data",
    [
        # two chains on base 1, whose inner bases 2 and 4 are each
        # crossed by a loop on base 1
        RibbonData(
            2,
            5,
            tuple(Handle(s, e, ()) for s, e in ((1, 2), (2, 3), (1, 4), (4, 5)))
            + (Handle(1, 1, (SignedLetter(2, 1),)), Handle(1, 1, (SignedLetter(4, 1),))),
        ),
        # bases 1 and 2 each hold a loop and a leaf
        RibbonData(2, 4, tuple(Handle(s, e, ()) for s, e in ((1, 1), (2, 2), (1, 3), (2, 4)))),
    ],
    ids=["crossed-chains", "looped-bases"],
)
def test_a_tied_base_off_the_forest_keeps_the_full_tree_search(labelling_paths, data):
    rng = random.Random(32)
    forms = {canonical_bytes(shuffled(data, rng)) for _ in range(10)}
    assert forms == {canonical_bytes(data)}
    assert labelling_paths["leaf"] >= 2 * 11


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
