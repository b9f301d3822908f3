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
Traces, so it is canonical at every size with no exhaustive limit; what
it reads from one handle alone is kept per process, so records built from
handles met before cost little more than a sort of their bases.

A record keeps what is found from it alone: its serialized text and its
:func:`validate` verdict are each found once, on first use, and kept on
it.  The parser checks every field as it reads it, and the canonical
form starts from a valid record, so both build their records through
private constructors that store the checked fields as they are and the
empty verdict with them.  Coloring counts, Alexander polynomials, move
enumeration and the search's gate, which each require a valid record,
therefore never walk a parsed or canonical one again; each refuses an
invalid record, or a value that is not one, with the first message
:func:`validate` reports.  One intake rule holds across the library: a
public constructor stores the values it is given, and what reads a value
refuses anything that is not what it reads, such as a field that is not
an ``int`` (a ``bool`` is not), with ``ValueError``.

Inside the labelling and the move kernels a crossing letter is the integer
``2 * base + (sign > 0)`` (see :func:`_coded`).  The labelling returns a
canonical *key*: the canonical record's handles as ``(start, coded word,
end)`` triples.  The equivalence search identifies a state by its base
count and key, and builds a ``RibbonData``, with its text, only for the
states whose record or text it reads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import add, ne
from typing import NamedTuple

from . import _PUBLIC

__all__ = list(_PUBLIC["ribbon"])


class SignedLetter(NamedTuple):
    """One signed crossing of a handle through a base interior.

    ``sign`` is +1 when the handle passes in the direction of the base's
    normal vector and -1 otherwise.
    """

    base: int
    sign: int


def _tupled(values):
    """``values`` as a tuple, or as given for its reader to refuse."""
    try:
        return tuple(values)
    except TypeError:
        return values


def _as_letters(word) -> tuple[SignedLetter, ...]:
    """``word`` as a tuple: each plain pair, a tuple or list of two values,
    wrapped as a ``SignedLetter`` of those values, and every other letter
    kept as given, for :func:`validate` to report, as is a word that is not
    a sequence.  A tuple of ``SignedLetter`` values is returned as it is,
    so a handle built from another's word shares it."""
    if type(word) is tuple and all([type(letter) is SignedLetter for letter in word]):
        return word
    try:
        return tuple([SignedLetter(*l) if type(l) in (tuple, list) and len(l) == 2 else l for l in word])
    except TypeError:
        return word


class _Value:
    """The base of the library's immutable values: records, moves, scripts,
    presentations and search outcomes.

    A subclass declares its fields as annotations, in order, each default
    as the class attribute of that name.  Creating the subclass reads them
    once and generates its ``__init__``, which takes the fields by position
    or keyword, sets them with ``object.__setattr__`` and then calls the
    class's ``__post_init__``, if it has one.  A value equals only a value
    of the same class with equal fields, hashes by its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion: what a
    frozen dataclass gives, without importing ``dataclasses``, whose import
    and class creation took about a fifth of a ``ribbonlab search`` call.
    Fields live in the instance ``__dict__``, so ``cached_property``
    values can be kept beside them and instances pickle by their dict."""

    _fields: tuple[str, ...] = ()  # the field names in declared order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields + tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = fields
        params = [f"{name}=_cls.{name}" if hasattr(cls, name) else name for name in fields]
        body = [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass"), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        """The fields' values in declared order."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Handle(_Value):
    """A 1-handle: its attachment bases and the crossing word read start to
    end, a tuple of ``SignedLetter`` (see :func:`_as_letters`).  Ends, bases
    and signs are kept as given; :func:`validate` reports a non-``int``."""

    start: int
    end: int
    word: tuple[SignedLetter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "word", _as_letters(self.word))


class RibbonData(_Value):
    """The combinatorial record of a ribbon presentation.

    ``dim`` is the ambient knot dimension; it is carried as metadata,
    validated to be at least 2, and does not influence any computation.
    Bases are numbered 1..base_count.  All values are immutable; operations
    on them are pure functions.
    """

    dim: int
    base_count: int
    handles: tuple[Handle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "handles", _tupled(self.handles))

    @cached_property
    def _text(self) -> str:
        """The ``ribbon 1`` text, built on first use; see :func:`serialize`."""
        lines = ["ribbon 1", f"dim {self.dim}", f"bases {self.base_count}"]
        for h in self.handles:
            line = f"handle {h.start} {h.end} :"
            if h.word:
                line += " " + " ".join(str(l.sign * l.base) for l in h.word)
            lines.append(line)
        return "\n".join(lines) + "\n"

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """What :func:`validate` reports, found on first use and kept: the
        record cannot change, so neither can its verdict."""
        return tuple(_diagnose(self))


# The parser and the canonical form build records from fields they have
# checked themselves, through these two constructors: they store the
# fields as given, without ``__post_init__``, and the record keeps its
# empty verdict.  They set the fields as ``_Value``'s
# ``__init__`` does, so the values stay inline in the instance.
# Everything else builds through the public constructors.
_new = object.__new__
_set = object.__setattr__


def _trusted_handle(start: int, end: int, word: tuple[SignedLetter, ...]) -> Handle:
    """The ``Handle`` of int bases and a tuple of ``SignedLetter`` of ints."""
    h = _new(Handle)
    _set(h, "start", start)
    _set(h, "end", end)
    _set(h, "word", word)
    return h


def _valid_record(dim: int, base_count: int, handles: tuple[Handle, ...]) -> RibbonData:
    """The ``RibbonData`` of fields that :func:`validate` passes, its
    verdict stored."""
    data = _new(RibbonData)
    _set(data, "dim", dim)
    _set(data, "base_count", base_count)
    _set(data, "handles", handles)
    _set(data, "_problems", ())
    return data


class RibbonFormatError(ValueError):
    """Raised on malformed input text, with the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# file format


def _token_lines(text: str | bytes) -> list[tuple[int, list[str]]]:
    """The nonblank lines of a text format as (line number, tokens) pairs.
    Bytes are decoded as UTF-8; ``#`` starts a comment running to the end
    of the line.  The ``ribbon 1``, script and quandle formats share it."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [(lineno, tokens) for lineno, tokens in enumerate(map(str.split, lines), start=1) if tokens]


# Texts share their few integers: on the bench workloads 98-99 % of the
# distinct tokens of a text were read from an earlier one.  The parser reads
# every token through this per-process cache, repeats within a text too.
# A per-text table in front of it was slower on every workload's texts:
# 14.7, 9.8 and 55.9 us a text against 13.6, 9.0 and 43.5 without it
# (search-equiv, search-open, invariants; medians of 21 alternating rounds
# in one process, CPython 3.11).
@lru_cache(maxsize=1 << 10)
def _decimal(token: str) -> int:
    """``token`` read as a plain decimal integer: an optional ``-`` and
    ASCII digits.  Every integer of the text formats and of the generator
    and quandle specs is read through it.  Raises ``ValueError`` on
    anything else, also on what ``int`` would take, such as ``+3``,
    ``1_0`` or non-ASCII digits."""
    if token.isascii() and token.lstrip("-").isdigit():
        return int(token)  # raises on more than one "-"
    raise ValueError(f"not a decimal integer: {token!r}")


def _ribbon_int(token: str, lineno: int) -> int:
    """A token of a ``ribbon 1`` text read by :func:`_decimal`, or the
    format error of line ``lineno``."""
    try:
        return _decimal(token)
    except ValueError:
        raise RibbonFormatError(f"non-integer token '{token}'", lineno) from None


# ``_letter(SignedLetter, (base, sign))`` is what ``SignedLetter(base, sign)``
# returns, without the Python frame of the named tuple's ``__new__``.
_letter = tuple.__new__


def parse_ribbon(text: str | bytes) -> RibbonData:
    """Parse the ``ribbon 1`` text format.

    Lines hold whitespace-separated tokens; ``#`` starts a comment running
    to the end of the line.  The header lines ``ribbon 1``, ``dim <n>`` and
    ``bases <k>`` are followed by zero or more ``handle <s> <e> : ...``
    lines whose trailing integers encode signed crossings (``-2`` is a
    negative crossing of base 2).  An integer is an optional ``-`` and
    ASCII digits.  No normalization is performed; the returned record is
    exactly what was written.

    Each handle line is read once, its ends and then its letters, every
    token through the per-process integer cache and range-checked as it
    is read.  The checks are :func:`validate`'s, so the record is built
    through private constructors and keeps its verdict, empty: a function
    that requires a valid record does not walk a parsed one again.
    """
    rows = _token_lines(text)
    if not rows:
        raise RibbonFormatError("malformed header, expected 'ribbon 1'", 1)

    lineno, tokens = rows[0]
    if tokens != ["ribbon", "1"]:
        raise RibbonFormatError("malformed header, expected 'ribbon 1'", lineno)

    if len(rows) < 2 or rows[1][1][0] != "dim" or len(rows[1][1]) != 2:
        raise RibbonFormatError("expected 'dim <n>'", rows[1][0] if len(rows) > 1 else lineno)
    lineno, tokens = rows[1]
    dim = _ribbon_int(tokens[1], lineno)
    if dim < 2:
        raise RibbonFormatError("dim must be >= 2", lineno)

    if len(rows) < 3 or rows[2][1][0] != "bases" or len(rows[2][1]) != 2:
        raise RibbonFormatError("expected 'bases <k>'", rows[2][0] if len(rows) > 2 else lineno)
    lineno, tokens = rows[2]
    base_count = _ribbon_int(tokens[1], lineno)
    if base_count < 1:
        raise RibbonFormatError("bases must be >= 1", lineno)

    handles = []
    for lineno, tokens in rows[3:]:
        if tokens[0] != "handle":
            raise RibbonFormatError(f"expected 'handle', got '{tokens[0]}'", lineno)
        if len(tokens) < 4 or tokens[3] != ":":
            raise RibbonFormatError("expected 'handle <start> <end> : ...'", lineno)
        start = _ribbon_int(tokens[1], lineno)
        end = _ribbon_int(tokens[2], lineno)
        for v in (start, end):
            if not 1 <= v <= base_count:
                raise RibbonFormatError(f"base index {v} out of range", lineno)
        word = []
        for token in tokens[4:]:
            v = _ribbon_int(token, lineno)
            base, sign = (v, 1) if v > 0 else (-v, -1)
            if not base:
                raise RibbonFormatError("crossing letter must be nonzero", lineno)
            if base > base_count:
                raise RibbonFormatError(f"base index {base} out of range", lineno)
            word.append(_letter(SignedLetter, (base, sign)))
        handles.append(_trusted_handle(start, end, tuple(word)))
    return _valid_record(dim, base_count, tuple(handles))


def serialize(data: RibbonData) -> str:
    """Deterministic text form: fixed field order, single spaces, one
    newline-terminated line per handle in stored order.  Round-trips
    through :func:`parse_ribbon` unchanged.

    The text is built once per record and kept on it, so serializing a
    record again is a lookup.  Requires a valid record."""
    _require_valid(data)
    return data._text


# ---------------------------------------------------------------------------
# validation and basic topology


def validate(data: RibbonData) -> list[str]:
    """One message per violated structural invariant, none for a well
    formed record: a value that is not a ``RibbonData``, handles or a word
    that is not a tuple, a handle that is not a ``Handle``, a letter that
    is not a ``(base, sign)`` pair, a dim, base count, handle end, letter
    base or sign that is not an ``int`` (a ``bool`` is not), a dim below 2,
    no bases, a handle end or letter base outside 1..base_count, or a sign
    other than +-1.  One in handle i starts ``handle i: ``.  Never raises.

    The verdict is found once per record and kept on it; a parsed or
    canonical record is built with it.  Each call returns a new list."""
    if type(data) is not RibbonData:
        return [f"{data!r} is not a RibbonData"]
    return list(data._problems)


def _diagnose(data: RibbonData) -> list[str]:
    """The messages of :func:`validate`, found by walking the record."""
    problems = []
    err = problems.append
    n = data.base_count
    ranged = type(n) is int  # bases are checked against an int count only

    def check_base(where, name, b):
        if type(b) is not int:
            err(f"{where}{name} {b!r} is not an integer")
        elif ranged and not 1 <= b <= n:
            err(f"{where}{name} {b} out of range 1..{n}")

    if type(data.dim) is not int:
        err(f"dim {data.dim!r} is not an integer")
    elif data.dim < 2:
        err("dim must be >= 2")
    if not ranged:
        err(f"bases {n!r} is not an integer")
    elif n < 1:
        err("bases must be >= 1")
    if type(data.handles) is not tuple:
        err(f"handles {data.handles!r} is not a tuple")
        return problems
    for i, h in enumerate(data.handles, start=1):
        where = f"handle {i}: "
        if type(h) is not Handle:
            err(f"{where}{h!r} is not a Handle")
            continue
        check_base(where, "start base", h.start)
        check_base(where, "end base", h.end)
        if type(h.word) is not tuple:
            err(f"{where}word {h.word!r} is not a tuple")
            continue
        for j, letter in enumerate(h.word):
            if type(letter) is not SignedLetter:
                err(f"{where}letter {j} is {letter!r}, not a (base, sign) pair")
                continue
            if type(letter.sign) is not int:
                err(f"{where}letter {j} sign {letter.sign!r} is not an integer")
            elif letter.sign not in (1, -1):
                err(f"{where}letter {j} has sign {letter.sign}, expected +1 or -1")
            check_base(where, f"letter {j} base", letter.base)
    return problems


def _require_valid(data: RibbonData) -> None:
    """Raise ValueError with the first message :func:`validate` reports."""
    problems = data._problems if type(data) is RibbonData else validate(data)
    if problems:
        raise ValueError(f"invalid data: {problems[0]}")


def component_count(data: RibbonData) -> int:
    """Number of link components: connected components of the graph whose
    vertices are bases and whose edges are handle end attachments.
    Crossings do not join components; a handle passing through a base meets
    only its interior.  Bases that no handle end touches are components of
    their own and are counted, not visited, so the cost follows the handles
    whatever the base count.  Requires a valid record."""
    _require_valid(data)
    n = data.base_count
    group: dict[int, list[int]] = {}  # a touched base -> the bases joined to it
    for h in data.handles:
        s, e = h.start, h.end
        gs, ge = group.get(s), group.get(e)
        if gs is None and ge is None:
            group[s] = group[e] = [s] if s == e else [s, e]
        elif gs is None:
            ge.append(s)
            group[s] = ge
        elif ge is None:
            gs.append(e)
            group[e] = gs
        elif gs is not ge:
            if len(gs) < len(ge):
                gs, ge = ge, gs
            gs.extend(ge)
            for b in ge:
                group[b] = gs
    return n - len(group) + len({id(g) for g in group.values()})


def genus(data: RibbonData) -> int:
    """Genus of the presented surface: handles minus bases plus one.

    Requires a valid record of a single component; a knotted sphere has
    genus 0.
    """
    if component_count(data) != 1:  # raises first on an invalid record
        raise ValueError("not a knot presentation")
    return len(data.handles) - data.base_count + 1


def is_sphere_knot(data: RibbonData) -> bool:
    """True when the data is connected with exactly one fewer handle than
    bases, the Euler-characteristic condition for a knotted sphere.
    Requires a valid record."""
    return component_count(data) == 1 and len(data.handles) == data.base_count - 1


# ---------------------------------------------------------------------------
# word reduction and orientation


def _cancelling(x: SignedLetter, y: SignedLetter) -> bool:
    """True when the letters ``x`` and ``y`` cancel side by side: the same
    base, opposite signs."""
    return x.base == y.base and x.sign == -y.sign


def free_reduce_word(word) -> tuple[SignedLetter, ...]:
    """Delete adjacent cancelling pairs until none remain.

    The result is the unique freely reduced form, independent of the order
    in which cancellations are performed.  Raises ``ValueError`` on a
    letter :func:`_coded` refuses.
    """
    return _letters(_free_reduced(_coded(word)))


def free_reduce(data: RibbonData) -> RibbonData:
    _require_valid(data)
    handles = tuple(Handle(h.start, h.end, free_reduce_word(h.word)) for h in data.handles)
    return RibbonData(data.dim, data.base_count, handles)


def reverse_flip(word) -> tuple[SignedLetter, ...]:
    """The crossing word as seen when traversing the handle backwards:
    reversed order, flipped signs.  Raises ``ValueError`` on a letter
    :func:`_coded` refuses."""
    return _letters(_flipped(_coded(word)))


def reversed_handle(h: Handle) -> Handle:
    if type(h) is not Handle:
        raise ValueError(f"{h!r} is not a Handle")
    return Handle(h.end, h.start, reverse_flip(h.word))


# ---------------------------------------------------------------------------
# coded letters
#
# The labelling and the move kernels write the letter (base, sign) as the
# integer 2 * base + (sign > 0).  Codes order exactly as (base, sign)
# pairs do, so sorting and comparing coded words gives what comparing
# letter tuples gives; ``x >> 1`` is the base, ``x ^ 1`` the letter with
# its sign flipped, and two letters cancel when ``y == x ^ 1``.


def _coded(word) -> tuple[int, ...]:
    """``word``, a sequence of ``(base, sign)`` pairs, with each letter
    coded: the one letter reader of the labelling, the move kernels,
    :func:`free_reduce_word` and :func:`reverse_flip`.  Raises
    ``ValueError`` on a word that is not a sequence, a letter that is not
    a pair, a base or sign that is not an ``int`` (a ``bool`` is not) and
    a sign other than +1 or -1, which has no code."""
    out = []
    try:
        for b, sg in word:
            if type(b) is not int or type(sg) is not int or (sg != 1 and sg != -1):
                break
            out.append(2 * b + (sg > 0))
        else:
            return tuple(out)
    except (TypeError, ValueError):  # the word, or a letter in it, is not a sequence of two
        raise ValueError(f"word {word!r} is not a sequence of (base, sign) pairs") from None
    if type(b) is not int or type(sg) is not int:
        raise ValueError(f"crossing letter {(b, sg)!r} is not a pair of integers")
    raise ValueError(f"crossing sign {sg}, expected +1 or -1")


def _letters(word) -> tuple[SignedLetter, ...]:
    """The coded ``word`` as ``SignedLetter`` values."""
    return tuple([SignedLetter(x >> 1, 1 if x & 1 else -1) for x in word])


def _free_reduced(word) -> tuple[int, ...]:
    """:func:`free_reduce_word` on a coded word."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _flipped(word) -> tuple[int, ...]:
    """:func:`reverse_flip` on a coded word."""
    return tuple([x ^ 1 for x in reversed(word)])


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
#
# A search labels many records built from few distinct handles: a
# successor differs from the state expanded in at most one handle, or by
# one base and the handle on it.  The search builds its successors as
# tuples of freely reduced (start, coded word, end) triples and hands them
# to ``_canonical_key`` directly (see ``moves._successors``); only other
# records pass through ``canonical_form``, which codes and reduces their
# words.  The 216 open searches of one block of the benchmark, each process
# starting cold, label 19 000 records made of 57 500 handles, 6 300 of them
# distinct within their process.  So what depends on one handle alone is
# computed once per process and kept in ``_reading``, a bounded LRU cache
# keyed on the triple: the handle's bases, signs and base positions, and
# each of its bases' incidence in the first refinement round.  The first
# round starts from the unit colouring, where every base reads the same
# colour, so a base's signature there is made of those cached incidences
# alone, and the round is one sort of the bases.  When every signature
# differs, as for 78 % of those records, the sort is the labelling;
# otherwise refinement goes on from the bases the round moved.
#
# The key is the winning leaf's handles with coded words, so it is the
# canonical record's handle list, and the search keys its states on it.
# A ``RibbonData`` is built from a key, by ``_record``, only where a record
# or its text is read: a public result, or a tie the search breaks by
# serialized form.


class _Reading(NamedTuple):
    """What one freely reduced handle gives the labelling, whatever the
    rest of the record: its bases in order (start, crossings, end; numbered
    from 0), the sign bits of its letters read forwards and backwards, its
    crossing bases alone, forwards and backwards, each base's positions on
    it read forwards and backwards, and each base's incidence in the first
    refinement round.  A sign bit orders as the sign does."""

    ids: tuple[int, ...]
    signs: tuple[int, ...]
    rev_signs: tuple[int, ...]
    mids: tuple[int, ...]
    rev_mids: tuple[int, ...]
    spots: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]
    first: tuple[tuple[int, tuple], ...]


# A reading with its cache entry takes about 1.7 kB, so a full cache holds
# about 14 MB.  A 25000-state search of two 3-base knots
# (tests/golden/open3a.ribbon and open3b.ribbon, depth 30) read 5 073
# distinct handles, so the bound keeps every handle of a search that size.
@lru_cache(maxsize=1 << 13)
def _reading(triple) -> _Reading:
    """The reading of a valid, freely reduced ``(start, coded word, end)``
    triple."""
    s, w, e = triple
    mids = tuple([(x >> 1) - 1 for x in w])
    ids = (s - 1, *mids, e - 1)
    signs = tuple([x & 1 for x in w])
    rev_signs = tuple([1 - g for g in signs[::-1]])
    last = len(ids) - 1
    at: dict[int, list[int]] = {}
    for i, b in enumerate(ids):
        if b in at:
            at[b].append(i)
        else:
            at[b] = [i]
    spots = {b: (tuple(where), tuple([last - i for i in where[::-1]])) for b, where in at.items()}
    # Under the unit colouring both orientations read the same colours, so
    # the signs alone pick the reading, as ``_Colouring.refine`` would.  The
    # colours read, ``(0,) * len(ids)``, are written as their length, which
    # orders the same way.
    length = len(ids)
    if signs < rev_signs:
        first = tuple([(b, ((length, signs), here)) for b, (here, _) in spots.items()])
    elif rev_signs < signs:
        first = tuple([(b, ((length, rev_signs), there)) for b, (_, there) in spots.items()])
    else:
        first = tuple([(b, ((length, signs), min(here, there))) for b, (here, there) in spots.items()])
    return _Reading(ids, signs, rev_signs, mids, mids[::-1], spots, first)


class _Colouring:
    """An ordered partition of the bases 0..n-1.  A base's colour is the
    position of its cell's first base in the order, so a cell that splits
    keeps its place and the colours of all other cells stay as they are."""

    __slots__ = ("colours", "cells")

    def __init__(self, colours, cells):
        self.colours = colours  # base -> colour
        self.cells = cells  # colour -> the bases of that cell

    @classmethod
    def first_round(cls, readings, base_count):
        """The unit colouring after one round of refinement: its colours,
        and, unless every base has a colour of its own, the colouring and
        the bases that round moved (else None and None).

        Under the unit colouring a base's signature (see :meth:`refine`) is
        the sorted multiset of the first-round incidences its handles'
        readings hold, so the round is one sort of the bases.  When the
        signatures all differ, a base's colour is its place in the sort."""
        incidences: list[list[tuple]] = [[] for _ in range(base_count)]
        for reading in readings:
            for b, incidence in reading.first:
                incidences[b].append(incidence)
        for found in incidences:
            found.sort()
        ranked = sorted(zip(map(tuple, incidences), range(base_count)))
        signatures = [sig for sig, _ in ranked]
        if all(map(ne, signatures, signatures[1:])):
            colours = [0] * base_count
            for c, (_, b) in enumerate(ranked):
                colours[b] = c
            return colours, None, None
        colouring = cls([0] * base_count, {0: [b for _, b in ranked]})
        touched: list[int] = []
        if ranked[0][0] != ranked[-1][0]:
            colouring.split(0, ranked, touched)
        return colouring.colours, colouring, touched

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

    def split(self, c, ranked, touched):
        """Split cell ``c`` into runs of equal signature, in the order of
        ``ranked`` (its bases as sorted ``(signature, base)`` pairs), and
        append the bases that move to a new colour to ``touched``."""
        colours, cells = self.colours, self.cells
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
        bases.  No other base's signature can have changed.  Refinement
        stops early once every cell is a singleton.
        """
        colours, cells = self.colours, self.cells
        memo: dict[int, tuple] = {}

        def signature(b):
            out = []
            for h in handles_of[b]:
                if h in memo:
                    reading, way = memo[h]
                else:
                    ids, signs, rev_signs = readings[h][:3]
                    seen = tuple([colours[x] for x in ids])
                    fwd = (seen, signs)
                    rev = (seen[::-1], rev_signs)
                    reading, way = memo[h] = (fwd, 0) if fwd < rev else (rev, 1) if rev < fwd else (fwd, 2)
                here, there = readings[h].spots[b]
                # a reading equal to its reverse leaves the direction open,
                # so the base takes the smaller of its two position lists
                out.append((reading, here if way == 0 else there if way == 1 else min(here, there)))
            out.sort()
            return tuple(out)

        while touched and len(cells) < len(colours):
            affected = {b for t in touched for h in handles_of[t] for b in readings[h].spots}
            memo.clear()
            splits = []
            for c in sorted({colours[b] for b in affected}):
                if len(cells[c]) > 1:
                    ranked = sorted((signature(b), b) for b in cells[c])
                    if ranked[0][0] != ranked[-1][0]:
                        splits.append((c, ranked))
            touched = []
            for c, ranked in splits:
                self.split(c, ranked, touched)
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
    individualization-refinement tree, given valid, freely reduced
    ``(start, coded word, end)`` triples: the canonical record's handles,
    as such triples."""
    readings = [_reading(t) for t in triples]

    def leaf_key(colours):
        """Each handle in the orientation whose (start, word, end) is the
        smaller, which its end labels decide unless they tie, and sorted.
        A base's label is its colour plus one."""
        code = [2 * c + 2 for c in colours]  # a letter's code less its sign bit
        out = []
        for ids, signs, rev_signs, mids, rev_mids, _, _ in readings:
            s, e = colours[ids[0]] + 1, colours[ids[-1]] + 1
            if s < e:
                out.append((s, tuple(map(add, map(code.__getitem__, mids), signs)), e))
            elif e < s:
                out.append((e, tuple(map(add, map(code.__getitem__, rev_mids), rev_signs)), s))
            else:
                fwd = tuple(map(add, map(code.__getitem__, mids), signs))
                rev = tuple(map(add, map(code.__getitem__, rev_mids), rev_signs))
                out.append((s, fwd if fwd <= rev else rev, s))
        out.sort()
        return tuple(out)

    if base_count <= 1:
        return leaf_key([0] * base_count)
    colours, root, touched = _Colouring.first_round(readings, base_count)
    if root is None:
        return leaf_key(colours)
    handles_of: list[list[int]] = [[] for _ in range(base_count)]
    for h, reading in enumerate(readings):
        for b in reading.spots:
            handles_of[b].append(h)
    root.refine(readings, handles_of, touched)
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


def _record(dim: int, base_count: int, key) -> RibbonData:
    """The canonical record whose handles are the triples of ``key``, a
    key of a valid record of dimension ``dim``, so its verdict is stored
    empty.  The search builds one only where a record or its text is
    read: a meet, or the candidates of a tie broken by serialized form."""
    return _valid_record(dim, base_count, tuple([_trusted_handle(s, e, _letters(w)) for s, w, e in key]))


def _canonical_state(data: RibbonData):
    """``(base_count, key)`` of the canonical form of ``data``, the state
    the search stores.  Raises ``ValueError`` with the first message
    :func:`validate` reports, also where free reduction would delete the
    bad letter."""
    _require_valid(data)
    n = data.base_count
    return n, _canonical_key(n, tuple([(h.start, _free_reduced(_coded(h.word)), h.end) for h in data.handles]))


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

    The labelling works on coded letters (see the module docstring) and
    returns the canonical record's handles; the equivalence search keys
    its states on them and builds its successors' triples itself, so only
    the records read are built.  What the labelling reads from a freely
    reduced handle alone, down to its bases' signatures in the first
    refinement round, is kept per process in a bounded cache, so a new
    record built from handles met before mostly sorts its bases and looks
    the rest up.

    Raises ``ValueError`` on an invalid record with the first message
    :func:`validate` reports, as every function that requires a valid
    record does, also when free reduction would delete the bad letter.
    """
    n, key = _canonical_state(data)  # refuses first what is not a valid record
    return _record(data.dim, n, key)


def canonical_bytes(data: RibbonData) -> bytes:
    """The serialized canonical form as ASCII bytes, for comparing two
    presentations: equal exactly when they share a canonical form.  Records
    of one dimension have equal bytes exactly when they have the same
    canonical key, on which the search keys its states."""
    return serialize(canonical_form(data)).encode("ascii")
