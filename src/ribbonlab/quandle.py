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
is the size of the kernel of that system (Inoue, JKTR 2001).  The kernel
is measured by elimination mod each prime power of m, and the counts are
multiplied (Chinese remaindering); this is polynomial in the number of
bases.  Every other table, and every listing of colorings, goes through
a backtracking search with unit propagation, which is exponential in the
number of bases it has to branch on.

The parallel group-presentation reading (crossings become conjugations)
lives here too; the Alexander polynomial derived from it is in
``ribbonlab.alexander``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ribbon import Diagnostic, Handle, RibbonData, _require_valid, _token_lines

__all__ = [
    "FiniteQuandle",
    "check_quandle_axioms",
    "dihedral_quandle",
    "trivial_quandle",
    "builtin_quandle",
    "parse_quandle",
    "serialize_quandle",
    "quandle_presentation",
    "group_presentation",
    "count_colorings",
    "list_colorings",
    "coloring_profile",
]


@dataclass(frozen=True)
class FiniteQuandle:
    """An operation table on elements 1..m; ``table[x-1][y-1]`` is ``x * y``.

    The constructor enforces only the shape; use
    :func:`check_quandle_axioms` to test the three axioms.
    """

    name: str
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        table = tuple(tuple(int(v) for v in row) for row in self.table)
        m = len(table)
        if m < 1:
            raise ValueError("malformed quandle table: empty")
        for x, row in enumerate(table, start=1):
            if len(row) != m:
                raise ValueError(f"malformed quandle table: row {x} has {len(row)} entries, expected {m}")
            for v in row:
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
        # mod m, else None.  a is read off 1*0 = a.
        m = self.size
        if m < 2:
            return None
        a = self.op(2, 1) - 1
        for x, row in enumerate(self.table):
            for y, v in enumerate(row):
                if v - 1 != (a * x + (1 - a) * y) % m:
                    return None
        return m, a

    @cached_property
    def _axiom_problems(self) -> tuple[Diagnostic, ...]:
        # The table is immutable, so its axiom verdict is computed once.
        return tuple(check_quandle_axioms(self))

    def op_inv(self, a: int, y: int) -> int:
        """The unique x with x * y = a."""
        x = self._inverse[a - 1][y - 1]
        if x == 0:
            raise ValueError(f"right translation by {y} is not invertible")
        return x


def check_quandle_axioms(q: FiniteQuandle) -> list[Diagnostic]:
    """Every violated axiom instance, or an empty list."""
    diags = []
    m = q.size
    for x in range(1, m + 1):
        v = q.op(x, x)
        if v != x:
            diags.append(Diagnostic("error", f"{x}*{x} = {v}, expected {x}", f"x={x}"))
    for y in range(1, m + 1):
        seen = {q.op(x, y) for x in range(1, m + 1)}
        if len(seen) != m:
            diags.append(
                Diagnostic("error", f"right translation by {y} is not a bijection", f"y={y}")
            )
    for x in range(1, m + 1):
        for y in range(1, m + 1):
            xy = q.op(x, y)
            for z in range(1, m + 1):
                left = q.op(xy, z)
                right = q.op(q.op(x, z), q.op(y, z))
                if left != right:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"({x}*{y})*{z} = {left} but ({x}*{z})*({y}*{z}) = {right}",
                            f"x={x},y={y},z={z}",
                        )
                    )
    return diags


def dihedral_quandle(m: int) -> FiniteQuandle:
    """x * y = 2y - x mod m, on representatives 1..m."""
    if m < 1:
        raise ValueError("quandle size must be >= 1")
    table = tuple(
        tuple((2 * (y - 1) - (x - 1)) % m + 1 for y in range(1, m + 1))
        for x in range(1, m + 1)
    )
    return FiniteQuandle(f"dihedral:{m}", table)


def trivial_quandle(m: int) -> FiniteQuandle:
    """x * y = x."""
    if m < 1:
        raise ValueError("quandle size must be >= 1")
    table = tuple(tuple(x for _ in range(m)) for x in range(1, m + 1))
    return FiniteQuandle(f"trivial:{m}", table)


def builtin_quandle(spec: str) -> FiniteQuandle | None:
    """Resolve ``dihedral:<m>`` or ``trivial:<m>``; None when the spec
    names neither."""
    kind, _, arg = spec.partition(":")
    if kind in ("dihedral", "trivial") and arg:
        try:
            m = int(arg, 10)
        except ValueError:
            raise ValueError(f"bad quandle size in '{spec}'") from None
        return dihedral_quandle(m) if kind == "dihedral" else trivial_quandle(m)
    return None


def parse_quandle(text: str | bytes, name: str = "quandle") -> FiniteQuandle:
    """Quandle file format: ``quandle 1``, ``size <m>``, then m rows of m
    integers (row x lists x * y for y = 1..m)."""
    rows = _token_lines(text)
    if not rows or rows[0][1] != ["quandle", "1"]:
        raise ValueError("malformed quandle file: expected 'quandle 1' header")
    if len(rows) < 2 or rows[1][1][0] != "size" or len(rows[1][1]) != 2:
        raise ValueError("malformed quandle file: expected 'size <m>'")
    try:
        m = int(rows[1][1][1], 10)
    except ValueError:
        raise ValueError("malformed quandle file: non-integer size") from None
    if len(rows) != 2 + m:
        raise ValueError(f"malformed quandle file: expected {m} table rows, got {len(rows) - 2}")
    table = []
    for lineno, tokens in rows[2:]:
        try:
            table.append(tuple(int(t, 10) for t in tokens))
        except ValueError:
            raise ValueError(f"malformed quandle file: non-integer entry on line {lineno}") from None
    return FiniteQuandle(name, tuple(table))


def serialize_quandle(q: FiniteQuandle) -> str:
    lines = ["quandle 1", f"size {q.size}"]
    lines += [" ".join(str(v) for v in row) for row in q.table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presented quandle and group


@dataclass(frozen=True)
class QuandleRelation:
    """end = start acted on by the operator word, one per handle.

    Each operator pair is (generator, exponent); exponent +1 applies the
    quandle operation with that generator, -1 its inverse.  A crossing of
    sign s contributes exponent -s.
    """

    end: int
    start: int
    operators: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class QuandlePresentation:
    generators: int
    relations: tuple[QuandleRelation, ...]


def quandle_presentation(data: RibbonData) -> QuandlePresentation:
    """One generator per base, one relation per handle."""
    relations = tuple(
        QuandleRelation(h.end, h.start, tuple((l.base, -l.sign) for l in h.word))
        for h in data.handles
    )
    return QuandlePresentation(data.base_count, relations)


@dataclass(frozen=True)
class GroupRelation:
    """end = W^-1 start W with W the crossing word read as conjugators."""

    end: int
    start: int
    conjugator: tuple[int, ...]  # signed generators, left to right

    def relator(self) -> tuple[int, ...]:
        """The relation as a single free word equal to the identity."""
        inverse = tuple(-x for x in reversed(self.conjugator))
        return (-self.end,) + inverse + (self.start,) + self.conjugator


@dataclass(frozen=True)
class GroupPresentation:
    generators: int
    relations: tuple[GroupRelation, ...]


def group_presentation(data: RibbonData) -> GroupPresentation:
    """The presented group of the complement: a crossing of sign s
    contributes the conjugating letter with exponent -s."""
    relations = tuple(
        GroupRelation(h.end, h.start, tuple(-l.sign * l.base for l in h.word))
        for h in data.handles
    )
    return GroupPresentation(data.base_count, relations)


# ---------------------------------------------------------------------------
# coloring counts


def _require_quandle(q: FiniteQuandle):
    problems = q._axiom_problems
    if problems:
        raise ValueError(f"invalid quandle {q.name}: {problems[0].message}")


def _solve_colorings(data: RibbonData, q: FiniteQuandle, collect: bool):
    """Backtracking with unit propagation over base assignments.

    A relation whose start and crossing bases are all assigned forces the
    end generator; one assigned the other way round forces the start
    through the inverse operation.  Counts are exact integers.
    """
    n = data.base_count
    m = q.size
    relations = [
        (h.end, h.start, tuple((l.base, -l.sign) for l in h.word))
        for h in data.handles
    ]
    watching: list[list[int]] = [[] for _ in range(n + 1)]
    for ri, (end, start, ops) in enumerate(relations):
        for b in {end, start, *(g for g, _ in ops)}:
            watching[b].append(ri)

    color = [0] * (n + 1)
    found: list[tuple[int, ...]] = []
    count = 0

    def forward(start_value, ops):
        v = start_value
        for g, e in ops:
            c = color[g]
            v = q.op(v, c) if e > 0 else q.op_inv(v, c)
        return v

    def backward(end_value, ops):
        v = end_value
        for g, e in reversed(ops):
            c = color[g]
            v = q.op_inv(v, c) if e > 0 else q.op(v, c)
        return v

    def propagate(trail, queue):
        while queue:
            b = queue.pop()
            for ri in watching[b]:
                end, start, ops = relations[ri]
                ops_ready = all(color[g] for g, _ in ops)
                if not ops_ready:
                    continue
                if color[start]:
                    v = forward(color[start], ops)
                    if color[end]:
                        if color[end] != v:
                            return False
                    else:
                        color[end] = v
                        trail.append(end)
                        queue.append(end)
                elif color[end]:
                    v = backward(color[end], ops)
                    color[start] = v
                    trail.append(start)
                    queue.append(start)
        return True

    def solve(next_base):
        nonlocal count
        b = next_base
        while b <= n and color[b]:
            b += 1
        if b > n:
            count += 1
            if collect:
                found.append(tuple(color[1 : n + 1]))
            return
        for v in range(1, m + 1):
            color[b] = v
            trail = [b]
            if propagate(trail, [b]):
                solve(b + 1)
            for t in trail:
                color[t] = 0

    solve(1)
    return count, found


def _affine_rows(data: RibbonData, m: int, a: int) -> list[dict[int, int]]:
    """One linear form mod m per handle, as {base: coefficient}: the start
    color carried through the word, minus the end color.  A crossing of
    sign s maps the running color v to alpha*v + (1-alpha)*c, with c the
    crossed base's color and alpha = a for s = -1, a^-1 for s = +1.  The
    end base comes first, so elimination pivots on it when its coefficient
    is a unit, which keeps a tree of handles from filling in."""
    a_inv = pow(a, -1, m)
    rows = []
    for h in data.handles:
        row = {h.end: -1}
        scale = 1  # product of the alphas after the current letter
        for letter in reversed(h.word):
            alpha = a if letter.sign < 0 else a_inv
            row[letter.base] = row.get(letter.base, 0) + scale * (1 - alpha)
            scale = scale * alpha % m
        row[h.start] = row.get(h.start, 0) + scale
        row = {b: c % m for b, c in row.items() if c % m}
        if row:
            rows.append(row)
    return rows


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


def _kernel_size(rows: list[dict[int, int]], unknowns: int, p: int, e: int) -> int:
    """Number of solutions mod p^e of the homogeneous system ``rows``.

    Each step pivots on an entry of least p-valuation v over the whole
    remaining system (the first unit entry when there is one), clears its
    column from the other rows, and drops the pivot row and column: every
    other entry of the pivot row is divisible by p^v, so column operations
    would clear them without touching the rest.  The system is then
    diagonal, and the count is prod p^v_i * (p^e)^(unknowns - rank).
    """
    q = p**e
    rows = [r for r in ({b: c % q for b, c in row.items() if c % q} for row in rows) if r]
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


def count_colorings(data: RibbonData, q: FiniteQuandle) -> int:
    """Exact number of assignments of quandle elements to bases satisfying
    every handle relation.  Alexander quandles are counted by linear
    algebra mod m, every other quandle by backtracking.  Raises on an
    invalid record or quandle."""
    _require_valid(data)
    return _count_valid(data, q)


def _count_valid(data: RibbonData, q: FiniteQuandle) -> int:
    """``count_colorings`` on a record already validated, as the search
    gate's are, which count each side over several quandles."""
    _require_quandle(q)
    affine = q._affine
    if affine is not None:
        m, a = affine
        rows = _affine_rows(data, m, a)
        count = 1
        for p, e in _prime_powers(m):
            count *= _kernel_size(rows, data.base_count, p, e)
        return count
    count, _ = _solve_colorings(data, q, collect=False)
    return count


def list_colorings(data: RibbonData, q: FiniteQuandle) -> list[tuple[int, ...]]:
    """All satisfying assignments, sorted."""
    _require_valid(data)
    _require_quandle(q)
    _, found = _solve_colorings(data, q, collect=True)
    return sorted(found)


def coloring_profile(data: RibbonData, quandles) -> tuple[tuple[str, int], ...]:
    """Counts over a fixed quandle family, in input order.  Differing
    profiles certify that no move sequence relates two presentations."""
    _require_valid(data)
    return tuple((q.name, _count_valid(data, q)) for q in quandles)
