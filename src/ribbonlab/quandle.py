"""
Finite quandles, presented knot quandles, and exact coloring counts.

A quandle is a set with a binary operation ``x * y`` that is idempotent,
right-invertible, and right self-distributive.  A ribbon presentation
yields a presented quandle with one generator per base and one relation
per handle: reading the handle from its start base, each signed crossing
acts on the start generator by the inverse of its sign, and the result
equals the end generator.  Counting homomorphisms from the presented
quandle into a fixed finite quandle is an exact integer invariant of the
presentation that every move preserves, which makes coloring profiles the
cheap refutation gate for equivalence questions.

Counts take one of two paths.  A quandle whose table, read on the labels
0..m-1, is ``x * y = a*x + (1-a)*y mod m`` is an Alexander (affine)
quandle; ``dihedral:m`` (a = -1) and ``trivial:m`` (a = 1) are both of
this kind.  There a crossing maps the running color by the affine map
``v -> alpha*v + (1-alpha)*c`` with ``alpha = a`` or ``a^-1``, so each
handle relation is one homogeneous linear equation mod m, and the count
is the size of the kernel of that system (Inoue, JKTR 2001).  The rows
are eliminated on their +-1 entries, the kernel of what is left is
measured mod each prime power of m, and the counts are multiplied
(Chinese remaindering); this is polynomial in the number of bases.  For
a = -1 the rows are integers that do not depend on m, so one elimination
over Z per record serves every ``dihedral:m`` count, as every Fox
coloring count reads off one integer coloring matrix (Przytycki,
*3-coloring and other elementary invariants of knots*, 1998).  Every
other table, and every listing of colorings, goes through
a backtracking search with unit propagation, which is exponential in the
number of bases it has to branch on.

The search compiles the record's relations once and then runs once per
relation part: the bases fall into parts where no handle joins or crosses
bases of two parts, a base no handle touches being a part of its own, and
the parts' counts are multiplied, so independent parts cost the sum of
their searches, not their product.  A knot is one part, and a listing is
always the one part of every base.  A count branches on a part's least
base only once per orbit of the inner automorphism group Inn(Q),
generated by the right translations ``x -> x * y``, and weights each
solution by the orbit's size.  This is exact: the axioms make every right
translation an automorphism, and composing one with a coloring is a
bijection from the colorings that give that base the color a to those
that give it a * y, so every color of one orbit starts the same number of
colorings.  On a connected quandle such as the transpositions of S4 that
is one branch instead of m.

The parallel group-presentation reading (crossings become conjugations)
lives here too; the Alexander polynomial derived from it is in
``ribbonlab.alexander``.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import _PUBLIC
from .ribbon import (
    RibbonData, RibbonFormatError, _decimal, _header, _int, _require_valid, _token_lines, _tupled, _Value,
    component_count
)

__all__ = list(_PUBLIC["quandle"])


def _classes(n: int, links) -> list[list[int]]:
    """The classes of 1..n that the pairs ``links`` join, found by
    union-find: each in increasing order, ordered by least member."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:  # a root is the least member of its class
            parent[max(rx, ry)] = min(rx, ry)
    classes: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


class FiniteQuandle(_Value):
    """An operation table on elements 1..m; ``table[x-1][y-1]`` is ``x * y``.

    The constructor stores the rows as tuples of the entries given and
    enforces only the shape: a sequence of m rows of m entries, each an
    ``int`` (a ``bool`` is not) in 1..m, else ``ValueError``.  Use
    :func:`check_quandle_axioms` to test the three axioms.
    """

    name: str
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            table = tuple(map(tuple, self.table))
        except TypeError:
            raise ValueError(f"malformed quandle table: {self.table!r} is not a sequence of rows") from None
        m = len(table)
        if m < 1:
            raise ValueError("malformed quandle table: empty")
        for x, row in enumerate(table, start=1):
            if len(row) != m:
                raise ValueError(f"malformed quandle table: row {x} has {len(row)} entries, expected {m}")
            for v in row:
                if type(v) is not int:
                    raise ValueError(f"malformed quandle table: entry {v!r} is not an integer")
                if not 1 <= v <= m:
                    raise ValueError(f"malformed quandle table: entry {v} out of range 1..{m}")
        object.__setattr__(self, "table", table)

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x - 1][y - 1]

    @cached_property
    def _inverse(self):
        # inv[a-1][y-1] = the x with x * y = a, or 0 if the translation by
        # y is not a bijection (rejected by the axiom check).
        m = self.size
        inv = [[0] * m for _ in range(m)]
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                inv[self.op(x, y) - 1][y - 1] = x
        return tuple(tuple(row) for row in inv)

    @cached_property
    def _affine(self) -> tuple[int, int] | None:
        # (m, a) when the table on labels 0..m-1 is x*y = a*x + (1-a)*y
        # mod m, else None.  a is read off 1*0 = a, or off 0*0 = 0 when m
        # is 1: every a agrees mod 1, so the one-element table is (1, 0).
        m = self.size
        a = self.table[1 % m][0] - 1
        for x, row in enumerate(self.table):
            for y, v in enumerate(row):
                if v - 1 != (a * x + (1 - a) * y) % m:
                    return None
        return m, a

    @cached_property
    def _factors(self) -> tuple[tuple[int, int], ...]:
        # (p, e) for each prime power p^e of the size, by which an affine
        # table's counts are taken
        return tuple(_prime_powers(self.size))

    @cached_property
    def _orbits(self) -> tuple[tuple[int, int], ...]:
        # (least element, size) for each orbit of Inn(Q), the group the
        # right translations x -> x * y generate: the classes of the graph
        # joining every x to every x * y.
        links = [(x, v) for x, row in enumerate(self.table, start=1) for v in row]
        return tuple((c[0], len(c)) for c in _classes(self.size, links))

    @cached_property
    def _axiom_problems(self) -> tuple[str, ...]:
        # The table is immutable, so its axiom verdict is computed once.
        # An affine table x*y = a*x + (1-a)*y mod m with a a unit mod m is
        # an Alexander quandle: idempotent, each right translation a
        # bijection, and (x*y)*z = a^2 x + a(1-a) y + (1-a) z = (x*z)*(y*z).
        # Reading that off ``_affine`` costs O(m^2), where the exhaustive
        # check costs O(m^3).
        affine = self._affine
        if affine is not None and math.gcd(affine[1], affine[0]) == 1:
            return ()
        return tuple(check_quandle_axioms(self))

    def op_inv(self, a: int, y: int) -> int:
        """The unique x with x * y = a."""
        x = self._inverse[a - 1][y - 1]
        if x == 0:
            raise ValueError(f"right translation by {y} is not invertible")
        return x


def _require_table(q: FiniteQuandle) -> FiniteQuandle:
    """``q`` when it is a ``FiniteQuandle``, else ``ValueError``."""
    if type(q) is not FiniteQuandle:
        raise ValueError(f"{q!r} is not a FiniteQuandle")
    return q


def check_quandle_axioms(q: FiniteQuandle) -> list[str]:
    """A message for every violated axiom instance, or an empty list."""
    problems = []
    m = _require_table(q).size
    for x in range(1, m + 1):
        v = q.op(x, x)
        if v != x:
            problems.append(f"{x}*{x} = {v}, expected {x}")
    for y in range(1, m + 1):
        seen = {q.op(x, y) for x in range(1, m + 1)}
        if len(seen) != m:
            problems.append(f"right translation by {y} is not a bijection")
    for x in range(1, m + 1):
        for y in range(1, m + 1):
            xy = q.op(x, y)
            for z in range(1, m + 1):
                left = q.op(xy, z)
                right = q.op(q.op(x, z), q.op(y, z))
                if left != right:
                    problems.append(f"({x}*{y})*{z} = {left} but ({x}*{z})*({y}*{z}) = {right}")
    return problems


def _affine_quandle(kind: str, m: int, a: int) -> FiniteQuandle:
    """``kind:m``: x * y = a*x + (1-a)*y mod m, on representatives 1..m."""
    if type(m) is not int:
        raise ValueError(f"quandle size {m!r} is not an integer")
    if m < 1:
        raise ValueError("quandle size must be >= 1")
    table = tuple(tuple((a * x + (1 - a) * y) % m + 1 for y in range(m)) for x in range(m))
    return FiniteQuandle(f"{kind}:{m}", table)


def dihedral_quandle(m: int) -> FiniteQuandle:
    """x * y = 2y - x mod m, on representatives 1..m."""
    return _affine_quandle("dihedral", m, -1)


def trivial_quandle(m: int) -> FiniteQuandle:
    """x * y = x."""
    return _affine_quandle("trivial", m, 1)


def builtin_quandle(spec: str) -> FiniteQuandle | None:
    """Resolve ``dihedral:<m>`` or ``trivial:<m>``, ``m`` a plain decimal;
    None when the spec, a ``str``, names neither."""
    if type(spec) is not str:
        raise ValueError(f"quandle spec {spec!r} is not a str")
    kind, _, arg = spec.partition(":")
    if kind in ("dihedral", "trivial") and arg:
        try:
            m = _decimal(arg)
        except ValueError:
            raise ValueError(f"bad quandle size in '{spec}'") from None
        return dihedral_quandle(m) if kind == "dihedral" else trivial_quandle(m)
    return None


def parse_quandle(text: str | bytes, name: str = "quandle") -> FiniteQuandle:
    """Quandle file format: ``quandle 1``, ``size <m>``, then m rows of m
    integers (row x lists x * y for y = 1..m), each an optional ``-`` and
    ASCII digits.  The header, integers and row count are refused as in a
    ``ribbon 1`` text; ``FiniteQuandle`` checks the table's shape and range."""
    rows = _token_lines(text)
    (m,) = _header(rows, "quandle", ("size <m>", 1))
    if len(rows) != 2 + m:
        lineno = rows[min(len(rows) - 1, 2 + m)][0]  # the last row, or the first extra one
        raise RibbonFormatError(f"expected {m} table rows, got {len(rows) - 2}", lineno)
    return FiniteQuandle(name, tuple([tuple([_int(t, lineno) for t in tokens]) for lineno, tokens in rows[2:]]))


def serialize_quandle(q: FiniteQuandle) -> str:
    lines = ["quandle 1", f"size {_require_table(q).size}"]
    lines += [" ".join(str(v) for v in row) for row in q.table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presented quandle and group


class QuandleRelation(_Value):
    """end = start acted on by the operator word, one per handle.

    Each operator pair is (generator, exponent); exponent +1 applies the
    quandle operation with that generator, -1 its inverse.  A crossing of
    sign s contributes exponent -s.
    """

    end: int
    start: int
    operators: tuple[tuple[int, int], ...]


class QuandlePresentation(_Value):
    generators: int
    relations: tuple[QuandleRelation, ...]


def quandle_presentation(data: RibbonData) -> QuandlePresentation:
    """One generator per base, one relation per handle."""
    _require_valid(data)
    relations = tuple(
        QuandleRelation(h.end, h.start, tuple((l.base, -l.sign) for l in h.word))
        for h in data.handles
    )
    return QuandlePresentation(data.base_count, relations)


class GroupRelation(_Value):
    """end = W^-1 start W with W the crossing word read as conjugators."""

    end: int
    start: int
    conjugator: tuple[int, ...]  # signed generators, left to right

    def relator(self) -> tuple[int, ...]:
        """The relation as a single free word equal to the identity."""
        inverse = tuple(-x for x in reversed(self.conjugator))
        return (-self.end,) + inverse + (self.start,) + self.conjugator


class GroupPresentation(_Value):
    generators: int
    relations: tuple[GroupRelation, ...]


def group_presentation(data: RibbonData) -> GroupPresentation:
    """The presented group of the complement: a crossing of sign s
    contributes the conjugating letter with exponent -s."""
    _require_valid(data)
    relations = tuple(
        GroupRelation(h.end, h.start, tuple(-l.sign * l.base for l in h.word))
        for h in data.handles
    )
    return GroupPresentation(data.base_count, relations)


# ---------------------------------------------------------------------------
# coloring counts


def _require_quandle(q: FiniteQuandle):
    problems = _require_table(q)._axiom_problems
    if problems:
        raise ValueError(f"invalid quandle {q.name}: {problems[0]}")


def _solve_colorings(data: RibbonData, q: FiniteQuandle, collect: bool):
    """Backtracking with unit propagation over base assignments, run once
    per relation part (see :func:`_relation_parts`), the parts' counts
    multiplied.

    The record's relations are compiled once, each into steps ``(base,
    rows)`` with ``rows[v][c]`` the running color after crossing a base
    colored c, read from the table or its inverse.  A relation whose start
    and crossing bases are all assigned forces the end generator; one
    assigned the other way round forces the start through the inverse
    operation.  No relation reads bases of two parts, so a part's search
    assigns only the part's bases and leaves them all unassigned when it
    ends.

    A count branches on the least base of each part once per orbit of the
    inner automorphism group Inn(Q) and weights what it finds by the
    orbit's size: a right translation ``x -> x * y`` is an automorphism
    (the axioms, checked before any count, say so), so composing it with
    a coloring of the part gives one, and this is a bijection from the
    colorings with that base colored a to those with it colored a * y.  A
    listing is the one part 1..n and branches on every color of base 1.
    A count is that one part too when the handle ends alone join every
    base, which :func:`component_count` tells without building the parts.
    Counts are exact integers.
    """
    n = data.base_count
    m = q.size
    star = [None] + [[0, *row] for row in q.table]  # star[x][y] = x * y
    under = [None] + [[0, *row] for row in q._inverse]  # under[a][y] * y = a
    watching: list[list[tuple]] = [[] for _ in range(n + 1)]
    for h in data.handles:
        forward = tuple((l.base, under if l.sign > 0 else star) for l in h.word)
        backward = tuple((l.base, star if l.sign > 0 else under) for l in reversed(h.word))
        bases = tuple({l.base for l in h.word})
        relation = (h.end, h.start, bases, forward, backward)
        for b in {h.end, h.start, *bases}:
            watching[b].append(relation)

    color = [0] * (n + 1)
    found: list[tuple[int, ...]] = []
    count = 1

    def propagate(trail, queue):
        while queue:
            b = queue.pop()
            for end, start, bases, forward, backward in watching[b]:
                for g in bases:
                    if not color[g]:
                        break
                else:
                    v = color[start]
                    if v:
                        for g, rows in forward:
                            v = rows[v][color[g]]
                        if color[end]:
                            if color[end] != v:
                                return False
                        else:
                            color[end] = v
                            trail.append(end)
                            queue.append(end)
                    elif color[end]:
                        v = color[end]
                        for g, rows in backward:
                            v = rows[v][color[g]]
                        color[start] = v
                        trail.append(start)
                        queue.append(start)
        return True

    # after[b] is the base after b in its part, 0 after the part's last
    after = [*range(1, n + 1), 0]
    # kept on measurement: building the one part of a connected record made
    # the S4 counts of the bench's invariants inputs about 10 % slower
    if collect or component_count(data) == 1:  # handle ends alone join every base
        firsts = [1]
    else:
        parts = _relation_parts(data)
        firsts = [part[0] for part in parts]
        for part in parts:
            for a, b in zip(part, [*part[1:], 0]):
                after[a] = b
    # Depth first, on an explicit stack rather than one call per unforced
    # base: each frame is [base, next color to try, last color to try,
    # bases its current color assigned].
    roots = [(v, 1) for v in range(1, m + 1)] if collect else q._orbits
    for first in firsts:
        part_count = 0
        for v, weight in roots:
            stack = [[first, v, v, None]]
            while stack:
                frame = stack[-1]
                b, c, last, trail = frame
                if trail is not None:
                    for t in trail:
                        color[t] = 0
                if c > last:
                    stack.pop()
                    continue
                color[b] = c
                trail = frame[3] = [b]
                frame[1] = c + 1
                if not propagate(trail, [b]):
                    continue
                while color[b]:  # color[0] is 0
                    b = after[b]
                if b:
                    stack.append([b, 1, m, None])
                    continue
                part_count += weight
                if collect:
                    found.append(tuple(color[1 : n + 1]))
        count *= part_count
    return count, found


def _relation_parts(data: RibbonData) -> list[list[int]]:
    """The bases of each component of the relation graph, in increasing
    order, ordered by least base.  In the relation graph a handle joins
    its start, its end and every base it crosses, so no relation reads
    bases of two parts: a coloring of ``data`` is a coloring of each part
    side by side.  A base that no handle touches is a part of its own."""
    links = [(h.start, h.end) for h in data.handles]
    links += [(h.start, l.base) for h in data.handles for l in h.word]
    return _classes(data.base_count, links)


def _affine_rows(data: RibbonData, m: int, a: int) -> list[dict[int, int]]:
    """One linear form mod m per handle, as {base: coefficient}: the start
    color carried through the word, minus the end color.  A crossing of
    sign s maps the running color v to alpha*v + (1-alpha)*c, with c the
    crossed base's color and alpha = a for s = -1, a^-1 for s = +1.  The
    coefficients are residues in (-m/2, m/2], so that a unit +-1 reads as
    it does over Z (see :func:`_dihedral_rows`); zero coefficients and
    empty rows are dropped."""
    a_inv = pow(a, -1, m)
    half = (m - 1) // 2
    rows = []
    for h in data.handles:
        row = {h.end: -1}
        scale = 1  # product of the alphas after the current letter
        for base, sign in reversed(h.word):
            alpha = a if sign < 0 else a_inv
            row[base] = row.get(base, 0) + scale * (1 - alpha)
            scale = scale * alpha % m
        row[h.start] = row.get(h.start, 0) + scale
        row = {b: (c + half) % m - half for b, c in row.items()}
        row = {b: c for b, c in row.items() if c}
        if row:
            rows.append(row)
    return rows


def _dihedral_rows(data: RibbonData) -> list[dict[int, int]]:
    """The rows of :func:`_affine_rows` when a = -1 mod m, over Z.  There
    alpha is -1 whatever the sign, so every coefficient is an integer that
    does not depend on m: -1 at the end base, +-1 at the start (the product
    of the alphas) and +-2 per crossing letter (1 - alpha = 2 times the
    alphas after it), summed where a base repeats.  One set of rows holds
    mod every m, which is what lets one elimination serve every
    ``dihedral:m`` count."""
    rows = []
    for h in data.handles:
        row = {h.end: -1}
        scale = 2  # 1 - alpha times the alphas after the current letter
        for base, _ in reversed(h.word):
            row[base] = row.get(base, 0) + scale
            scale = -scale
        row[h.start] = row.get(h.start, 0) + scale // 2
        row = {b: c for b, c in row.items() if c}
        if row:
            rows.append(row)
    return rows


def _unit_residual(rows: list[dict[int, int]], unknowns: int, m: int = 0):
    """Eliminate ``rows`` (which it edits) on entries +-1 until none is
    left, over Z when ``m`` is 0, else mod m on residues in (-m/2, m/2];
    returns the rows left, each a tuple of (base, coefficient) pairs, and
    the number of unknowns left.

    A step on the entry c = +-1 of row r in column b solves row r for base
    b: it subtracts ``row_i[b] * c`` times row r from every other row i
    with an entry in column b, then drops row r and column b.  These row
    operations have integer factors and determinant 1, and base b is then
    fixed by the others, so for every modulus dividing m (every modulus
    at all when m is 0) the solutions of the rows and of the residual in
    the unknowns left are in bijection.  An integer residual therefore
    serves every ``dihedral:m`` count; :func:`_kernel_size` takes the
    units other than +-1 and the entries that are no unit mod p.

    The order keeps fill-in down.  Leaves go first: a +-1 entry alone in
    its column, such as the end base of a handle at the tip of a tree of
    handles, drops its row and changes no other, which often leaves
    another leaf.  Then each step takes the +-1 entry of least Markowitz
    cost (row entries - 1) * (column entries - 1), a bound on the entries
    it adds.  In this order a ``dihedral:7`` count of ``gen
    random:2000:2000:8:7`` takes a quarter to a third of the time it takes
    pivoting mod 7 on the first unit of each row.
    """
    half = (m - 1) // 2
    count: dict[int, int] = {}  # base -> rows with an entry in its column
    for row in rows:
        for b in row:
            count[b] = count.get(b, 0) + 1
    pivots = 0
    while True:  # leaves, pass by pass: dropping a row can make a leaf of one passed
        kept = []
        for row in rows:
            for b, c in row.items():
                if (c == 1 or c == -1) and count[b] == 1:
                    for k in row:
                        count[k] -= 1
                    break
            else:
                kept.append(row)
        if len(kept) == len(rows):
            break
        pivots += len(rows) - len(kept)
        rows = kept
    while rows:
        best = None
        for row in rows:
            length = len(row) - 1
            for b, c in row.items():
                if c == 1 or c == -1:
                    cost = length * (count[b] - 1)
                    if best is None or cost < best[0]:
                        best = (cost, row, b)
            if best is not None and not best[0]:
                break
        if best is None:
            break
        _, pivot, b = best
        c = pivot.pop(b)
        pivots += 1
        for k in pivot:
            count[k] -= 1
        kept = []
        for row in rows:
            if row is pivot:
                continue
            factor = row.pop(b, 0) * c  # row -= factor * (pivot + c * x_b)
            if factor:
                for k, x in pivot.items():
                    had = k in row
                    y = row.get(k, 0) - factor * x
                    if m:
                        y = (y + half) % m - half
                    if y:
                        row[k] = y
                        if not had:
                            count[k] += 1
                    elif had:
                        del row[k]
                        count[k] -= 1
                if not row:
                    continue
            kept.append(row)
        rows = kept
    return tuple([tuple(row.items()) for row in rows]), unknowns - pivots


def _prime_powers(m: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _valuation(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def _kernel_size(rows, unknowns: int, p: int, e: int) -> int:
    """Number of solutions mod p^e of the homogeneous system ``rows``, each
    a sequence of (base, coefficient) pairs; ``rows`` is not changed.

    Each step pivots on an entry of least p-valuation v over the whole
    remaining system (the first unit entry when there is one), clears its
    column from the other rows, and drops the pivot row and column: every
    other entry of the pivot row is divisible by p^v, so column operations
    would clear them without touching the rest.  The system is then
    diagonal, and the count is prod p^v_i * (p^e)^(unknowns - rank).
    """
    q = p**e
    rows = [r for r in ({b: c % q for b, c in row if c % q} for row in rows) if r]
    count = 1
    rank = 0
    while rows:
        best = None
        for i, row in enumerate(rows):
            for b, c in row.items():
                v = _valuation(c, p)
                if best is None or v < best[0]:
                    best = (v, i, b)
                    if v == 0:
                        break
            if best[0] == 0:
                break
        v, i, col = best
        pivot_row = rows.pop(i)
        pv = p**v
        inv = pow(pivot_row[col] // pv, -1, q)
        count *= pv
        rank += 1
        kept = []
        for row in rows:
            c = row.get(col)
            if c:
                factor = c // pv * inv % q
                for b, x in pivot_row.items():
                    y = (row.get(b, 0) - factor * x) % q
                    if y:
                        row[b] = y
                    else:
                        row.pop(b, None)
            if row:
                kept.append(row)
        rows = kept
    return count * q ** (unknowns - rank)


def _dihedral_residual(data: RibbonData):
    """The integer residual of ``data`` at a = -1 (see :func:`_dihedral_rows`
    and :func:`_unit_residual`), eliminated on first use and kept on the
    record as its ``validate`` verdict is: the record cannot change, and
    every ``dihedral:m`` count of it reads the same residual."""
    kept = data.__dict__.get("_dihedral_residual")
    if kept is None:
        kept = data.__dict__["_dihedral_residual"] = _unit_residual(_dihedral_rows(data), data.base_count)
    return kept


def count_colorings(data: RibbonData, q: FiniteQuandle) -> int:
    """Exact number of assignments of quandle elements to bases satisfying
    every handle relation.  Raises on an invalid record or quandle.

    An Alexander quandle (Z/m, a) is counted by linear algebra: the
    handle rows are eliminated on their +-1 entries by
    :func:`_unit_residual`, and the count is the product over the prime
    powers p^e of m of the residual's solutions mod p^e
    (:func:`_kernel_size`).  When a = -1 mod m the rows are integers that
    do not depend on m (:func:`_dihedral_rows`) and each step of the
    elimination is invertible over Z, so one residual over Z, kept on the
    record, holds mod every m: the first dihedral count of a record
    eliminates, and every later one, whatever its m, reads only the
    residual.  Which path a table takes is read off its table
    (``_affine``), never off its name.  Other affine tables eliminate
    their rows mod m (:func:`_affine_rows`) on each count.

    Every other quandle is counted by the one backtracking search of
    :func:`_solve_colorings`, run once per component of the relation
    graph (see :func:`_relation_parts`) on the record's own bases, the
    counts multiplied."""
    _require_valid(data)
    _require_quandle(q)
    affine = q._affine
    if affine is not None:
        m, a = affine
        if m == 1:  # one element colors any record one way; no rows needed
            return 1
        if (a + 1) % m:
            rows, unknowns = _unit_residual(_affine_rows(data, m, a), data.base_count, m)
        else:
            rows, unknowns = _dihedral_residual(data)
        if not rows:
            return m**unknowns
        count = 1
        for p, e in q._factors:
            count *= _kernel_size(rows, unknowns, p, e)
        return count
    return _solve_colorings(data, q, collect=False)[0]


def list_colorings(data: RibbonData, q: FiniteQuandle) -> list[tuple[int, ...]]:
    """All satisfying assignments, sorted."""
    _require_valid(data)
    _require_quandle(q)
    _, found = _solve_colorings(data, q, collect=True)
    return sorted(found)


def coloring_profile(data: RibbonData, quandles) -> tuple[tuple[str, int], ...]:
    """Counts over a fixed quandle family, a sequence of ``FiniteQuandle``,
    in input order.  Differing profiles certify that no move sequence
    relates two presentations."""
    _require_valid(data)
    family = _tupled(quandles)
    if type(family) is not tuple:
        raise ValueError(f"quandle family {quandles!r} is not a sequence")
    return tuple((_require_table(q).name, count_colorings(data, q)) for q in family)
