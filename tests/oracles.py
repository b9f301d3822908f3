"""Independent reference implementations and random walk drivers for the
test suite.  The oracles here deliberately avoid the library's solvers:
coloring counts come from full enumeration, components from a direct
breadth-first search, word reduction from randomized cancellation order,
and canonical encodings from trying every base relabelling."""

import itertools
from collections import deque

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
    apply_destabilize,
    free_reduce_word,
)


def brute_force_colorings(data, q):
    """Count colorings by enumerating every assignment of quandle elements
    to bases and checking each handle relation directly."""
    count = 0
    for assign in itertools.product(range(1, q.size + 1), repeat=data.base_count):
        ok = True
        for h in data.handles:
            v = assign[h.start - 1]
            for letter in h.word:
                c = assign[letter.base - 1]
                # a crossing of sign s acts with quandle exponent -s
                v = q.op(v, c) if letter.sign < 0 else q.op_inv(v, c)
            if v != assign[h.end - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_profile(data, quandles):
    return tuple((q.name, brute_force_colorings(data, q)) for q in quandles)


def exhaustive_canonical_key(data):
    """The dimension, the base count, and the least encoding of the freely
    reduced handles over all base relabellings: each handle in its smaller
    orientation, handles sorted.  Two inputs are equal up to relabelling,
    handle order, handle orientation and free reduction exactly when their
    keys are equal.  Tries all k! relabellings, so keep k at 7 or below."""
    triples = [(h.start, free_reduce_word(h.word), h.end) for h in data.handles]
    best = None
    for p in itertools.permutations(range(1, data.base_count + 1)):
        perm = (0,) + p
        key = []
        for s, w, e in triples:
            fwd = (perm[s], tuple((perm[b], sg) for b, sg in w), perm[e])
            rev = (perm[e], tuple((perm[b], -sg) for b, sg in reversed(w)), perm[s])
            key.append(min(fwd, rev))
        key = tuple(sorted(key))
        if best is None or key < best:
            best = key
    return data.dim, data.base_count, best


def graph_components(data):
    """Component count of the base/handle-endpoint graph by BFS."""
    adjacency = {b: [] for b in range(1, data.base_count + 1)}
    for h in data.handles:
        adjacency[h.start].append(h.end)
        adjacency[h.end].append(h.start)
    seen = set()
    components = 0
    for b in range(1, data.base_count + 1):
        if b in seen:
            continue
        components += 1
        queue = deque([b])
        seen.add(b)
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return components


def random_order_reduce(word, rng):
    """Freely reduce by deleting a randomly chosen cancelling pair until
    none remain."""
    word = list(word)
    while True:
        spots = [
            i
            for i in range(len(word) - 1)
            if word[i].base == word[i + 1].base and word[i].sign == -word[i + 1].sign
        ]
        if not spots:
            return tuple(word)
        i = rng.choice(spots)
        del word[i : i + 2]


def random_word(rng, base_count, max_len):
    return tuple(
        SignedLetter(rng.randint(1, base_count), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    )


def random_ribbon(rng, max_bases=5, max_handles=5, max_len=6):
    """Arbitrary structurally valid data, possibly disconnected."""
    b = rng.randint(1, max_bases)
    handles = tuple(
        Handle(rng.randint(1, b), rng.randint(1, b), random_word(rng, b, max_len))
        for _ in range(rng.randint(0, max_handles))
    )
    return RibbonData(2, b, handles)


def random_knot(rng, bases, extra=0, max_len=3):
    """Connected data: a random spanning tree of handles on ``bases``
    bases, ``extra`` more handles, each handle with a random crossing word
    of at most ``max_len`` letters, in random order."""
    ends = [(rng.randint(1, new - 1), new) for new in range(2, bases + 1)]
    ends += [(rng.randint(1, bases), rng.randint(1, bases)) for _ in range(extra)]
    handles = [Handle(s, e, random_word(rng, bases, max_len)) for s, e in ends]
    rng.shuffle(handles)
    return RibbonData(2, bases, tuple(handles))


def random_regular(rng, bases, layers=0):
    """Data on which colour refinement splits little: handle b runs from
    base b to base sigma(b) and crosses tau_j(b) with sign s_j for each of
    ``layers`` crossing layers, sigma and every tau_j random permutations.
    Every base then has the same degrees and crossing counts, while the
    cycle of sigma it lies on (a double handle, a triangle, ...) can still
    set it apart, so the labelling search must compare leaves that no
    automorphism relates."""
    sigma = list(range(1, bases + 1))
    rng.shuffle(sigma)
    taus = []
    for _ in range(layers):
        tau = list(range(1, bases + 1))
        rng.shuffle(tau)
        taus.append((tau, rng.choice((1, -1))))
    handles = tuple(
        Handle(b, sigma[b - 1], tuple(SignedLetter(tau[b - 1], sign) for tau, sign in taus))
        for b in range(1, bases + 1)
    )
    return RibbonData(2, bases, handles)


def shuffled(data, rng):
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


def _slides(data):
    moves = []
    n = len(data.handles)
    for slider in range(1, n + 1):
        h = data.handles[slider - 1]
        for which, attached in (("start", h.start), ("end", h.end)):
            for along in range(1, n + 1):
                if along == slider:
                    continue
                other = data.handles[along - 1]
                if other.start == attached:
                    moves.append(Slide(slider, which, along, "fwd"))
                if other.end == attached:
                    moves.append(Slide(slider, which, along, "rev"))
    return moves


def stable_walk_pool(data, rng, weak_left=0):
    """Applicable moves whose inverses the search neighbor set can always
    traverse: stabilizations, destabilizations, slides, reversals, free
    cancellations, and (under a budget) trivial handles."""
    moves = []
    for b in range(1, data.base_count + 1):
        moves.append(Stab(b))
        if weak_left > 0:
            moves.append(TrivialHandle(b))
        try:
            apply_destabilize(data, b)
            moves.append(Destab(b))
        except MoveError:
            pass
    moves.extend(_slides(data))
    for i, h in enumerate(data.handles, start=1):
        moves.append(ReverseHandle(i))
        if h.start == h.end and not h.word:
            moves.append(RemoveTrivialHandle(i))
        for pos in range(len(h.word) - 1):
            if h.word[pos].base == h.word[pos + 1].base and h.word[pos].sign == -h.word[pos + 1].sign:
                moves.append(CancelDelete(i, pos))
    return moves


def all_moves_pool(data, rng, weak_left=1, max_bases=7):
    """Every move type, including crossing reroutes and free insertions.
    Growth moves are withheld once the instance is large enough to keep
    long walks bounded."""
    moves = []
    allow_growth = data.base_count < max_bases
    for b in range(1, data.base_count + 1):
        if allow_growth:
            moves.append(Stab(b))
            if weak_left > 0:
                moves.append(TrivialHandle(b))
        try:
            apply_destabilize(data, b)
            moves.append(Destab(b))
        except MoveError:
            pass
    moves.extend(_slides(data))
    n = len(data.handles)
    for i, h in enumerate(data.handles, start=1):
        moves.append(ReverseHandle(i))
        if h.start == h.end and not h.word:
            moves.append(RemoveTrivialHandle(i))
        moves.append(
            CancelInsert(i, rng.randint(0, len(h.word)), rng.randint(1, data.base_count), rng.choice((1, -1)))
        )
        for pos in range(len(h.word) - 1):
            if h.word[pos].base == h.word[pos + 1].base and h.word[pos].sign == -h.word[pos + 1].sign:
                moves.append(CancelDelete(i, pos))
        for via in range(1, n + 1):
            if via == i:
                continue
            v = data.handles[via - 1]
            if len(h.word) + 2 * len(v.word) > 24:
                continue
            for pos, letter in enumerate(h.word):
                if letter.base == v.start:
                    moves.append(CrossSlide(i, pos, via, "fwd"))
                if letter.base == v.end:
                    moves.append(CrossSlide(i, pos, via, "rev"))
    return moves
