"""Seeded input generators for the benchmark.

Every presentation that is equivalent to another by construction is built
from public moves only (``apply_stabilize``, and ``apply_move`` with
``Slide``, ``ReverseHandle``, ``CancelInsert`` and ``CancelDelete``), so
the benchmark never relies on ``ribbonlab.cli.generate``.  Nothing here
calls ``canonical_form``: building inputs must leave the library's caches
cold.
"""

from __future__ import annotations

import random
from collections import Counter
from math import factorial, prod

from ribbonlab import (
    CancelDelete,
    CancelInsert,
    Handle,
    ReverseHandle,
    RibbonData,
    SignedLetter,
    Slide,
    apply_move,
    apply_stabilize,
)
from ribbonlab.ribbon import free_reduce

UNKNOT = RibbonData(2, 1, ())
SPUN_TREFOIL = RibbonData(2, 2, (Handle(1, 2, (SignedLetter(2, -1), SignedLetter(1, -1))),))


def torus(g: int) -> RibbonData:
    return RibbonData(2, 1, tuple(Handle(1, 1, ()) for _ in range(g)))


def random_knot(rng: random.Random, bases: int, max_len: int) -> RibbonData:
    """A connected sphere-knot presentation: a random spanning tree of
    handles, each with a random crossing word of 1..max_len letters."""
    handles = []
    for new in range(2, bases + 1):
        ends = (rng.randint(1, new - 1), new)
        if rng.random() < 0.5:
            ends = ends[::-1]
        word = tuple(
            SignedLetter(rng.randint(1, bases), rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_len))
        )
        handles.append(Handle(ends[0], ends[1], word))
    rng.shuffle(handles)
    return RibbonData(2, bases, tuple(handles))


def _move_pool(data: RibbonData, rng: random.Random) -> list:
    moves = []
    for slider, h in enumerate(data.handles, start=1):
        for which, attached in (("start", h.start), ("end", h.end)):
            for along, other in enumerate(data.handles, start=1):
                if along == slider:
                    continue
                if other.start == attached:
                    moves.append(Slide(slider, which, along, "fwd"))
                if other.end == attached:
                    moves.append(Slide(slider, which, along, "rev"))
    for i, h in enumerate(data.handles, start=1):
        moves.append(ReverseHandle(i))
        moves.append(
            CancelInsert(i, rng.randint(0, len(h.word)), rng.randint(1, data.base_count), rng.choice((1, -1)))
        )
        for pos in range(len(h.word) - 1):
            if h.word[pos].base == h.word[pos + 1].base and h.word[pos].sign == -h.word[pos + 1].sign:
                moves.append(CancelDelete(i, pos))
    return moves


def scramble(data: RibbonData, rng: random.Random, slides: int) -> RibbonData:
    """Apply random moves until ``slides`` slides have been made.

    Reversals and cancelling pairs vanish under canonical form, so the
    number of slides bounds the depth of a certificate back to ``data``.
    """
    made = 0
    while made < slides:
        pool = _move_pool(data, rng)
        if not pool:
            break
        move = rng.choice(pool)
        data = apply_move(data, move)
        made += isinstance(move, Slide)
    return data


def stabilize_once(data: RibbonData, rng: random.Random) -> RibbonData:
    return apply_stabilize(data, rng.randint(1, data.base_count))


def stabilized(rng: random.Random, k: int) -> RibbonData:
    """k stabilizations of the unknot on random bases, then a scramble."""
    data = UNKNOT
    for _ in range(k):
        data = apply_stabilize(data, rng.randint(1, data.base_count))
    return scramble(data, rng, k)


def relabel(data: RibbonData, rng: random.Random) -> RibbonData:
    """The same presentation under a random base numbering, handle order
    and handle orientations."""
    perm = list(range(1, data.base_count + 1))
    rng.shuffle(perm)
    perm = [0] + perm
    handles = []
    for h in data.handles:
        start, end = perm[h.start], perm[h.end]
        word = tuple(SignedLetter(perm[l.base], l.sign) for l in h.word)
        if rng.random() < 0.5:
            start, end = end, start
            word = tuple(SignedLetter(l.base, -l.sign) for l in reversed(word))
        handles.append(Handle(start, end, word))
    rng.shuffle(handles)
    return RibbonData(data.dim, data.base_count, tuple(handles))


def branching_bases(data: RibbonData) -> int:
    """How many bases a coloring backtracker must branch on when it takes
    bases in numeric order and forces every base a handle relation
    determines (a relation fixes its end once its start and crossing
    bases are known, and its start once its end and crossing bases are).
    A backtracking count visits up to m ** result nodes for an m-element
    quandle, so this fixes how much work one count is."""
    watching: list[list[int]] = [[] for _ in range(data.base_count + 1)]
    for i, h in enumerate(data.handles):
        for b in {h.start, h.end, *(l.base for l in h.word)}:
            watching[b].append(i)
    known = [False] * (data.base_count + 1)
    branches = 0
    for base in range(1, data.base_count + 1):
        if known[base]:
            continue
        branches += 1
        known[base] = True
        queue = [base]
        while queue:
            for i in watching[queue.pop()]:
                h = data.handles[i]
                if not all(known[l.base] for l in h.word):
                    continue
                for src, dst in ((h.start, h.end), (h.end, h.start)):
                    if known[src] and not known[dst]:
                        known[dst] = True
                        queue.append(dst)
    return branches


def expansion_states(data: RibbonData) -> int:
    """How many column subsets a row-by-row Laplace expansion of the Fox
    matrix (last column deleted) can reach, counting only nonzero
    entries.  A memoized expansion stores about this many minors, so this
    fixes how much work and memory one Alexander polynomial takes."""
    last = data.base_count - 1
    states = {0}
    total = 0
    for h in data.handles:
        cols = {h.start - 1, h.end - 1} | {l.base - 1 for l in h.word}
        states = {s | 1 << c for s in states for c in cols if c < last and not s >> c & 1}
        total += len(states)
    return total


def canonical_fallback(data: RibbonData) -> bool:
    """Whether ``canonical_form`` of the parent commit takes the fallback
    its source documents as not relabel-invariant (ROADMAP defect (c)):
    past 8 bases it searches relabellings only inside cells of bases with
    equal end and crossing degrees, and only while the product of the
    cells' factorials is at most 8! = 40320; beyond that it keeps the
    stored order."""
    data = free_reduce(data)
    if data.base_count <= 8:
        return False
    end_deg = Counter(b for h in data.handles for b in (h.start, h.end))
    word_deg = Counter(letter.base for h in data.handles for letter in h.word)
    cells = Counter((end_deg[b], word_deg[b]) for b in range(1, data.base_count + 1))
    return prod(factorial(n) for n in cells.values()) > factorial(8)
