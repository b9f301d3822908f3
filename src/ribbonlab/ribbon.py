"""
Ribbon presentation records and their normal forms.

A ribbon presentation is a collection of disjoint base disks joined by
1-handles whose interiors may pass through base interiors.  In ambient
dimension two and above the presentation is pinned down, up to re-choosing
base interiors, by a finite record: the number of bases, and for each
handle its two attachment bases together with the ordered sequence of
signed base crossings along its core.  ``RibbonData`` is that record, and
every computation in this package is a function of it.

This module owns the record itself: the ``ribbon 1`` text format,
structural validation, free reduction of crossing words, genus bookkeeping
via the Euler characteristic, and a canonical form that quotients out base
relabelling, handle order, handle orientation, and cancelling crossing
pairs.  The canonical form picks its base numbering by
individualization-refinement, the canonical labelling scheme of nauty and
Traces, so it is canonical at every size with no exhaustive limit.
Serialized canonical forms are the state identity used by the equivalence
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "SignedLetter",
    "Handle",
    "RibbonData",
    "Diagnostic",
    "RibbonFormatError",
    "parse_ribbon",
    "serialize",
    "validate",
    "is_valid",
    "component_count",
    "genus",
    "is_sphere_knot",
    "free_reduce_word",
    "free_reduce",
    "reverse_flip",
    "reversed_handle",
    "canonical_form",
    "canonical_bytes",
]


class SignedLetter(NamedTuple):
    """One signed crossing of a handle through a base interior.

    ``sign`` is +1 when the handle passes in the direction of the base's
    normal vector and -1 otherwise.
    """

    base: int
    sign: int


def _as_letters(word) -> tuple[SignedLetter, ...]:
    return tuple(SignedLetter(int(b), int(s)) for b, s in word)


@dataclass(frozen=True)
class Handle:
    """A 1-handle: its attachment bases and the crossing word read start to end."""

    start: int
    end: int
    word: tuple[SignedLetter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "word", _as_letters(self.word))


@dataclass(frozen=True)
class RibbonData:
    """The combinatorial record of a ribbon presentation.

    ``dim`` is the ambient knot dimension; it is carried as metadata,
    validated to be at least 2, and does not influence any computation.
    Bases are numbered 1..base_count.  All values are immutable; operations
    on them are pure functions, so sharing across threads is safe.
    """

    dim: int
    base_count: int
    handles: tuple[Handle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "handles", tuple(self.handles))


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    location: str


class RibbonFormatError(ValueError):
    """Raised on malformed input text, with the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# file format


def parse_ribbon(text: str | bytes) -> RibbonData:
    """Parse the ``ribbon 1`` text format.

    Lines hold whitespace-separated tokens; ``#`` starts a comment running
    to the end of the line.  The header lines ``ribbon 1``, ``dim <n>`` and
    ``bases <k>`` are followed by zero or more ``handle <s> <e> : ...``
    lines whose trailing integers encode signed crossings (``-2`` is a
    negative crossing of base 2).  No normalization is performed; the
    returned record is exactly what was written.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            rows.append((lineno, tokens))

    if not rows:
        raise RibbonFormatError("malformed header, expected 'ribbon 1'", 1)

    def intval(token: str, lineno: int) -> int:
        try:
            return int(token, 10)
        except ValueError:
            raise RibbonFormatError(f"non-integer token '{token}'", lineno) from None

    lineno, tokens = rows[0]
    if tokens != ["ribbon", "1"]:
        raise RibbonFormatError("malformed header, expected 'ribbon 1'", lineno)

    if len(rows) < 2 or rows[1][1][0] != "dim" or len(rows[1][1]) != 2:
        raise RibbonFormatError("expected 'dim <n>'", rows[1][0] if len(rows) > 1 else lineno)
    lineno, tokens = rows[1]
    dim = intval(tokens[1], lineno)
    if dim < 2:
        raise RibbonFormatError("dim must be >= 2", lineno)

    if len(rows) < 3 or rows[2][1][0] != "bases" or len(rows[2][1]) != 2:
        raise RibbonFormatError("expected 'bases <k>'", rows[2][0] if len(rows) > 2 else lineno)
    lineno, tokens = rows[2]
    base_count = intval(tokens[1], lineno)
    if base_count < 1:
        raise RibbonFormatError("bases must be >= 1", lineno)

    handles = []
    for lineno, tokens in rows[3:]:
        if tokens[0] != "handle":
            raise RibbonFormatError(f"expected 'handle', got '{tokens[0]}'", lineno)
        if len(tokens) < 4 or tokens[3] != ":":
            raise RibbonFormatError("expected 'handle <start> <end> : ...'", lineno)
        start = intval(tokens[1], lineno)
        end = intval(tokens[2], lineno)
        for v in (start, end):
            if not 1 <= v <= base_count:
                raise RibbonFormatError(f"base index {v} out of range", lineno)
        word = []
        for token in tokens[4:]:
            v = intval(token, lineno)
            if v == 0:
                raise RibbonFormatError("crossing letter must be nonzero", lineno)
            if not 1 <= abs(v) <= base_count:
                raise RibbonFormatError(f"base index {abs(v)} out of range", lineno)
            word.append(SignedLetter(abs(v), 1 if v > 0 else -1))
        handles.append(Handle(start, end, tuple(word)))

    return RibbonData(dim, base_count, tuple(handles))


def serialize(data: RibbonData) -> str:
    """Deterministic text form: fixed field order, single spaces, one
    newline-terminated line per handle in stored order.  Round-trips
    through :func:`parse_ribbon` unchanged."""
    lines = ["ribbon 1", f"dim {data.dim}", f"bases {data.base_count}"]
    for h in data.handles:
        line = f"handle {h.start} {h.end} :"
        if h.word:
            line += " " + " ".join(str(l.sign * l.base) for l in h.word)
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation and basic topology


def validate(data: RibbonData) -> list[Diagnostic]:
    """Return one diagnostic per violated structural invariant (empty when
    the record is well formed)."""
    diags = []

    def err(message, location):
        diags.append(Diagnostic("error", message, location))

    if data.dim < 2:
        err("dim must be >= 2", "dim")
    if data.base_count < 1:
        err("bases must be >= 1", "bases")
    for i, h in enumerate(data.handles, start=1):
        where = f"handle {i}"
        if not 1 <= h.start <= data.base_count:
            err(f"start base {h.start} out of range 1..{data.base_count}", where)
        if not 1 <= h.end <= data.base_count:
            err(f"end base {h.end} out of range 1..{data.base_count}", where)
        for j, letter in enumerate(h.word):
            if letter.sign not in (1, -1):
                err(f"letter {j} has sign {letter.sign}, expected +1 or -1", where)
            if not 1 <= letter.base <= data.base_count:
                err(f"letter {j} base {letter.base} out of range 1..{data.base_count}", where)
    return diags


def is_valid(data: RibbonData) -> bool:
    return not validate(data)


def component_count(data: RibbonData) -> int:
    """Number of link components: connected components of the graph whose
    vertices are bases and whose edges are handle end attachments.
    Crossings do not join components; a handle passing through a base meets
    only its interior."""
    parent = list(range(data.base_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for h in data.handles:
        a, b = find(h.start), find(h.end)
        if a != b:
            parent[a] = b
    return len({find(b) for b in range(1, data.base_count + 1)})


def genus(data: RibbonData) -> int:
    """Genus of the presented surface: handles minus bases plus one.

    Requires a single component; a knotted sphere has genus 0.
    """
    if component_count(data) != 1:
        raise ValueError("not a knot presentation")
    return len(data.handles) - data.base_count + 1


def is_sphere_knot(data: RibbonData) -> bool:
    """True when the data is connected with exactly one fewer handle than
    bases, the Euler-characteristic condition for a knotted sphere."""
    return component_count(data) == 1 and len(data.handles) == data.base_count - 1


# ---------------------------------------------------------------------------
# word reduction and orientation


def free_reduce_word(word) -> tuple[SignedLetter, ...]:
    """Delete adjacent cancelling pairs until none remain.

    The result is the unique freely reduced form, independent of the order
    in which cancellations are performed.
    """
    out: list[SignedLetter] = []
    for letter in _as_letters(word):
        if out and out[-1].base == letter.base and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_reduce(data: RibbonData) -> RibbonData:
    handles = tuple(Handle(h.start, h.end, free_reduce_word(h.word)) for h in data.handles)
    return RibbonData(data.dim, data.base_count, handles)


def reverse_flip(word) -> tuple[SignedLetter, ...]:
    """The crossing word as seen when traversing the handle backwards:
    reversed order, flipped signs."""
    return tuple(SignedLetter(l.base, -l.sign) for l in reversed(_as_letters(word)))


def reversed_handle(h: Handle) -> Handle:
    return Handle(h.end, h.start, reverse_flip(h.word))


# ---------------------------------------------------------------------------
# canonical form
#
# Canonical labelling by individualization-refinement, the scheme of
# nauty and Traces (McKay & Piperno, "Practical graph isomorphism II",
# J. Symbolic Comput. 60, 2014).  Bases carry ordered colours.  Refinement
# splits colour classes (cells) by how their bases sit in the handles until
# nothing more splits; while a cell has more than one base, each of its
# bases in turn is given a colour of its own and the colouring is refined
# again.  Every leaf of this search tree is an ordering of the bases, and
# the canonical encoding is the least leaf encoding.  Each step depends
# only on the record and the colours, never on the stored numbering, so the
# set of leaf encodings, and with it the least one, is the same for every
# relabelling.  Leaves with equal encodings give automorphisms, which prune
# the tree without changing its least encoding.


def _oriented(triple):
    s, w, e = triple
    rev = (e, tuple((b, -sg) for b, sg in reversed(w)), s)
    return triple if triple <= rev else rev


def _relabel_key(handle_triples, perm):
    out = []
    for s, w, e in handle_triples:
        out.append(
            _oriented((perm[s], tuple((perm[b], sg) for b, sg in w), perm[e]))
        )
    out.sort()
    return tuple(out)


def _handle_readings(triples):
    """Per handle: its bases in order (start, crossings, end; numbered
    from 0), the crossing signs read forwards and backwards, and for each
    base on it the base's positions read forwards and backwards."""
    out = []
    for s, w, e in triples:
        ids = [s - 1, *[b - 1 for b, _ in w], e - 1]
        last = len(ids) - 1
        at: dict[int, list[int]] = {}
        for i, b in enumerate(ids):
            if b in at:
                at[b].append(i)
            else:
                at[b] = [i]
        spots = {b: (tuple(where), tuple([last - i for i in where[::-1]])) for b, where in at.items()}
        signs = tuple([sg for _, sg in w])
        out.append((ids, signs, tuple([-sg for sg in signs[::-1]]), spots))
    return out


class _Colouring:
    """An ordered partition of the bases 0..n-1.  A base's colour is the
    position of its cell's first base in the order, so a cell that splits
    keeps its place and the colours of all other cells stay as they are."""

    __slots__ = ("colours", "cells")

    def __init__(self, colours, cells):
        self.colours = colours  # base -> colour
        self.cells = cells  # colour -> the bases of that cell

    def individualized(self, v):
        """A copy with base ``v`` split off as the last base of its cell."""
        c = self.colours[v]
        cell = self.cells[c]
        colours = list(self.colours)
        cells = dict(self.cells)
        cells[c] = [b for b in cell if b != v]
        colours[v] = c + len(cell) - 1
        cells[colours[v]] = [v]
        return _Colouring(colours, cells)

    def refine(self, readings, handles_of, touched):
        """Split cells in place until stable, starting from the bases in
        ``touched`` whose colours changed since the colouring was last
        stable.

        A base's signature is the sorted multiset of its incidences: for
        each handle it lies on, the handle read through the current colours
        in the smaller of its two orientations, and the base's positions in
        that reading.  Each round, every cell holding a base on a handle
        through a touched base is split by signature, in signature order;
        the bases that move to a new colour are the next round's touched
        bases.  No other base's signature can have changed.
        """
        colours, cells = self.colours, self.cells
        memo: dict[int, tuple] = {}

        def signature(b):
            out = []
            for h in handles_of[b]:
                if h in memo:
                    reading, way = memo[h]
                else:
                    ids, signs, rev_signs, _ = readings[h]
                    seen = tuple([colours[x] for x in ids])
                    fwd = (seen, signs)
                    rev = (seen[::-1], rev_signs)
                    reading, way = memo[h] = (fwd, 0) if fwd < rev else (rev, 1) if rev < fwd else (fwd, 2)
                here, there = readings[h][3][b]
                # a reading equal to its reverse leaves the direction open,
                # so the base takes the smaller of its two position lists
                out.append((reading, here if way == 0 else there if way == 1 else min(here, there)))
            out.sort()
            return tuple(out)

        while touched:
            affected = {b for t in touched for h in handles_of[t] for b in readings[h][3]}
            memo.clear()
            splits = []
            for c in sorted({colours[b] for b in affected}):
                if len(cells[c]) > 1:
                    ranked = sorted((signature(b), b) for b in cells[c])
                    if ranked[0][0] != ranked[-1][0]:
                        splits.append((c, ranked))
            touched = []
            for c, ranked in splits:
                start = c
                run: list[int] = []
                for i, (sig, b) in enumerate(ranked):
                    run.append(b)
                    if i + 1 == len(ranked) or ranked[i + 1][0] != sig:
                        cells[start] = run
                        if start != c:
                            for x in run:
                                colours[x] = start
                            touched.extend(run)
                        start += len(run)
                        run = []
        return self


class _TreeNode:
    """A node of the search tree: its refined colouring, the bases
    individualized on the way to it, and its first non-singleton cell,
    whose bases are its children.  Cells before the parent's target cell
    are singletons and stay so, so the search for the target starts there."""

    __slots__ = ("colouring", "path", "target", "cell", "tried", "parent", "merged")

    def __init__(self, colouring, path, start=0):
        self.colouring = colouring
        self.path = path
        cells = colouring.cells
        while len(cells[start]) == 1:
            start += 1
        self.target = start
        self.cell = list(reversed(cells[start]))
        self.tried: list[int] = []
        self.parent: dict[int, int] = {}  # orbits of the path's stabilizer
        self.merged = 0  # generators merged into ``parent`` so far

    def _find(self, x):
        parent = self.parent
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def next_child(self, generators):
        """The next base of the cell whose branch can hold a new leaf
        encoding, or None.  A base is skipped when the automorphisms found
        so far that fix this node's path map a tried base to it: its branch
        is the image of one already searched.  Automorphisms are kept as
        maps of the bases they move."""
        while self.cell:
            v = self.cell.pop()
            if self.tried:
                for g in generators[self.merged :]:
                    if g.keys().isdisjoint(self.path):
                        for b, gb in g.items():
                            rb, rg = self._find(b), self._find(gb)
                            if rb != rg:
                                self.parent[rb] = rg
                self.merged = len(generators)
                orbit = self._find(v)
                if any(self._find(u) == orbit for u in self.tried):
                    continue
            self.tried.append(v)
            return v
        return None


def _canonical_key(base_count, triples):
    """The least relabelled encoding over the leaves of the
    individualization-refinement tree."""
    if base_count <= 1:
        return _relabel_key(triples, (0, 1))
    readings = _handle_readings(triples)
    handles_of: list[list[int]] = [[] for _ in range(base_count)]
    for h, (_, _, _, spots) in enumerate(readings):
        for b in spots:
            handles_of[b].append(h)

    def leaf_key(colours):
        return _relabel_key(triples, (0, *[c + 1 for c in colours]))

    everything = list(range(base_count))
    root = _Colouring([0] * base_count, {0: everything}).refine(readings, handles_of, everything)
    if len(root.cells) == base_count:
        return leaf_key(root.colours)
    first = best = None  # (key, colours, path) of the first and the least leaf
    generators: list[dict[int, int]] = []
    stack = [_TreeNode(root, ())]
    while stack:
        node = stack[-1]
        v = node.next_child(generators)
        if v is None:
            stack.pop()
            continue
        colouring = node.colouring.individualized(v).refine(readings, handles_of, [v])
        path = node.path + (v,)
        if len(colouring.cells) < base_count:
            stack.append(_TreeNode(colouring, path, node.target))
            continue
        colours = colouring.colours
        key = leaf_key(colours)
        if first is None:
            first = best = (key, colours, path)
            continue
        for ref_key, ref_colours, ref_path in (first, best):
            if key == ref_key:
                # The map taking the earlier leaf's ordering to this one is
                # an automorphism that fixes the common part of the two
                # paths, so this leaf's branch below the node where the
                # paths part repeats a searched one: jump back there.
                at = [0] * base_count
                for b, x in enumerate(colours):
                    at[x] = b
                generators.append({b: at[x] for b, x in enumerate(ref_colours) if at[x] != b})
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                del stack[depth + 1 :]
                break
        else:
            if key < best[0]:
                best = (key, colours, path)
    return best[0]


@lru_cache(maxsize=1 << 15)
def _canonical_reduced(data: RibbonData) -> RibbonData:
    triples = tuple((h.start, tuple(h.word), h.end) for h in data.handles)
    best = _canonical_key(data.base_count, triples)
    handles = tuple(Handle(s, e, w) for s, w, e in best)
    return RibbonData(data.dim, data.base_count, handles)


def canonical_form(data: RibbonData) -> RibbonData:
    """One representative per class of records equal up to free
    reduction, handle reversal, handle reordering, and base relabelling.

    Words are freely reduced; under a base numbering, each handle takes
    the lexicographically smaller of its two orientations and handles are
    sorted.  The numbering is chosen by individualization-refinement:
    colour refinement on how bases sit in handles, individualizing each
    base of the first non-split colour class in turn, and keeping the
    least encoding over the leaves of that search tree, with automorphisms
    found along the way pruning it.  The result is canonical at every size,
    with no exhaustive limit: two inputs share a canonical form exactly
    when they are equal up to the listed symmetries.  Idempotent.  The
    representative is the least leaf encoding, which need not be the least
    encoding over all relabellings.
    """
    return _canonical_reduced(free_reduce(data))


def canonical_bytes(data: RibbonData) -> bytes:
    """Serialized canonical form; the comparison and hash key used by the
    search layer."""
    return serialize(canonical_form(data)).encode("ascii")
