"""Independent reference implementations and random walk drivers for the
test suite.  The oracles here deliberately avoid the library's solvers:
coloring counts come from full enumeration, components from a direct
breadth-first search, word reduction from randomized cancellation order,
canonical encodings from trying every base relabelling, and Alexander
polynomials from every maximal minor of the Fox matrix by Laplace
expansion (or by sympy)."""

import itertools
from collections import deque
from fractions import Fraction
from math import gcd

from ribbonlab import (
    CancelDelete,
    CancelInsert,
    CrossSlide,
    Destab,
    FiniteQuandle,
    Handle,
    MoveError,
    RemoveTrivialHandle,
    ReverseHandle,
    RibbonData,
    SignedLetter,
    Stab,
    TrivialHandle,
    apply_destabilize,
    free_reduce_word,
    group_presentation,
    slides,
)


def satisfies_relations(data, q, assign):
    """True when the colors ``assign`` (base b colored assign[b-1]) satisfy
    every handle relation, each checked directly."""
    for h in data.handles:
        v = assign[h.start - 1]
        for letter in h.word:
            c = assign[letter.base - 1]
            # a crossing of sign s acts with quandle exponent -s
            v = q.op(v, c) if letter.sign < 0 else q.op_inv(v, c)
        if v != assign[h.end - 1]:
            return False
    return True


def brute_force_colorings(data, q):
    """Count colorings by enumerating every assignment of quandle elements
    to bases and checking each handle relation directly."""
    return sum(
        satisfies_relations(data, q, assign)
        for assign in itertools.product(range(1, q.size + 1), repeat=data.base_count)
    )


def brute_profile(data, quandles):
    return tuple((q.name, brute_force_colorings(data, q)) for q in quandles)


def alexander_quandle(m, a, name=None):
    """x * y = a*x + (1-a)*y mod m on the labels 0..m-1, stored as 1..m."""
    table = tuple(tuple((a * x + (1 - a) * y) % m + 1 for y in range(m)) for x in range(m))
    return FiniteQuandle(name or f"alexander:{m}:{a}", table)


# An independent oracle for each entry of the search's invariant gate, by
# the entry's name: a coloring count by enumeration over an Alexander
# quandle that is the dihedral one (x * y = 2y - x), and the genus read off
# the record's sizes.
GATE_ORACLES = {
    **{
        f"dihedral:{m}": lambda data, q=alexander_quandle(m, -1): brute_force_colorings(data, q)
        for m in (3, 5, 7)
    },
    "genus": lambda data: len(data.handles) - data.base_count + 1,
}


def relabelled_quandle(q, perm, name="relabelled"):
    """The same quandle with element x renamed perm[x-1]."""
    inv = {v: x for x, v in enumerate(perm, start=1)}
    table = tuple(
        tuple(perm[q.op(inv[x], inv[y]) - 1] for y in range(1, q.size + 1)) for x in range(1, q.size + 1)
    )
    return FiniteQuandle(name, table)


def s4_transpositions():
    """Conjugation on the six transpositions of S4, a quandle that is not
    affine: y * x = x^-1 y x, read here as x * y = y x y."""
    swaps = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def perm(swap):
        p = list(range(4))
        p[swap[0]], p[swap[1]] = p[swap[1]], p[swap[0]]
        return tuple(p)

    elems = [perm(s) for s in swaps]
    table = tuple(
        tuple(elems.index(tuple(y[x[y[i]]] for i in range(4))) + 1 for y in elems) for x in elems
    )
    return FiniteQuandle("s4-transpositions", table)


def s3_conjugation():
    """Conjugation x * y = y^-1 x y on all six permutations of three
    points, in ``itertools.permutations`` order.  Not connected: its
    orbits are the identity, the three transpositions and the two
    3-cycles."""
    elems = list(itertools.permutations(range(3)))

    def conjugate(x, y):  # y^-1 x y, composing right to left
        y_inv = tuple(y.index(i) for i in range(3))
        return tuple(y_inv[x[y[i]]] for i in range(3))

    table = tuple(tuple(elems.index(conjugate(x, y)) + 1 for y in elems) for x in elems)
    return FiniteQuandle("s3-conjugation", table)


def disjoint_union(a, b, name=None):
    """a on 1..m, b on m+1..m+n, and x * y = x across the two parts."""
    m, size = a.size, a.size + b.size

    def op(x, y):
        if x <= m and y <= m:
            return a.op(x, y)
        if x > m and y > m:
            return b.op(x - m, y - m) + m
        return x

    table = tuple(tuple(op(x, y) for y in range(1, size + 1)) for x in range(1, size + 1))
    return FiniteQuandle(name or f"{a.name}+{b.name}", table)


# Laurent polynomials as {exponent: coefficient} dicts with no zero entries.


def _ladd(a, b, factor=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + factor * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _lmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def fox_matrix(data):
    """Free-derivative rows of the presented group, every generator sent
    to t, entries as Laurent dicts."""
    pres = group_presentation(data)
    rows = []
    for rel in pres.relations:
        row = [{} for _ in range(pres.generators)]
        p = 0
        for x in rel.relator():
            if x > 0:
                row[x - 1] = _ladd(row[x - 1], {p: 1})
                p += 1
            else:
                p -= 1
                row[-x - 1] = _ladd(row[-x - 1], {p: -1})
        rows.append(row)
    return rows


def laplace_det(matrix):
    """Determinant of a square matrix of Laurent dicts by Laplace expansion
    along the rows, memoized on the set of columns left."""
    n = len(matrix)
    memo = {}

    def expand(cols):
        if not cols:
            return {0: 1}
        if cols not in memo:
            i = n - len(cols)
            total = {}
            for j, c in enumerate(cols):
                if matrix[i][c]:
                    sub = expand(cols[:j] + cols[j + 1 :])
                    total = _ladd(total, _lmul(matrix[i][c], sub), 1 if j % 2 == 0 else -1)
            memo[cols] = total
        return memo[cols]

    return expand(tuple(range(n)))


def _normalized_gcd(polys):
    """gcd over Q of integer polynomials (coefficient lists, lowest power
    first), as a primitive integer list with no power of t as a factor
    and a positive constant term; [] when every input is zero."""

    def mod(a, b):
        a = list(a)
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            for i in range(len(b)):
                a[len(a) - len(b) + i] -= factor * b[i]
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        return a

    g = []
    for poly in polys:
        a, b = [Fraction(c) for c in poly], g
        while b:
            a, b = b, mod(a, b)
        g = a
    if not g:
        return []
    while g[0] == 0:
        g = g[1:]
    denominators = 1
    for c in g:
        denominators = denominators * c.denominator // gcd(denominators, c.denominator)
    ints = [int(c * denominators) for c in g]
    content = 0
    for v in ints:
        content = gcd(content, v)
    sign = 1 if ints[0] > 0 else -1
    return [sign * v // content for v in ints]


def laplace_alexander(data):
    """The Alexander polynomial as {exponent: coefficient}: the normalized
    gcd over Q of every maximal proper minor of the Fox matrix, all row
    picks times all column picks, each by Laplace expansion.  Exponential
    in the base count; keep it to about 8 bases.  Requires connected
    data."""
    rows = [row for row in fox_matrix(data) if any(row)]
    k = group_presentation(data).generators - 1
    if k == 0:
        return {0: 1}
    minors = []
    for row_pick in itertools.combinations(rows, k):
        for col_pick in itertools.combinations(range(k + 1), k):
            minor = laplace_det([[row[j] for j in col_pick] for row in row_pick])
            if minor:
                lo = min(minor)
                minors.append([minor.get(e, 0) for e in range(lo, max(minor) + 1)])
    return {e: c for e, c in enumerate(_normalized_gcd(minors)) if c}


def sympy_alexander(data):
    """The same polynomial computed by sympy: each Fox row multiplied by
    the power of t that clears its negative exponents, every maximal minor
    by sympy's determinant, their gcd by sympy, then made primitive with
    no power of t as a factor and a positive constant term."""
    import sympy

    t = sympy.Symbol("t")
    k = group_presentation(data).generators - 1
    if k == 0:
        return {0: 1}
    rows = []
    for row in fox_matrix(data):
        if any(row):
            lo = min(e for entry in row for e in entry)
            rows.append([sum(c * t ** (e - lo) for e, c in entry.items()) for entry in row])
    g = sympy.Integer(0)
    for row_pick in itertools.combinations(rows, k):
        for col_pick in itertools.combinations(range(k + 1), k):
            g = sympy.gcd(g, sympy.Matrix([[row[j] for j in col_pick] for row in row_pick]).det())
    if g == 0:
        return {}
    coeffs = sympy.Poly(g, t).primitive()[1].all_coeffs()[::-1]
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
    sign = 1 if coeffs[0] > 0 else -1
    return {e: sign * int(c) for e, c in enumerate(coeffs) if c}


def connected_sum(pieces):
    """One knot from several: the pieces' bases numbered one after another
    and each piece's first base joined to the next piece's by a handle
    that crosses nothing."""
    handles = []
    offset = 0
    for i, piece in enumerate(pieces):
        for h in piece.handles:
            word = tuple(SignedLetter(l.base + offset, l.sign) for l in h.word)
            handles.append(Handle(h.start + offset, h.end + offset, word))
        if i:
            handles.append(Handle(previous, offset + 1, ()))
        previous = offset + 1
        offset += piece.base_count
    return RibbonData(2, offset, tuple(handles))


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
    moves.extend(slides(data))
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
    moves.extend(slides(data))
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
