"""
Elementary moves on ribbon presentation records.

The move set generates stable equivalence (stabilize/destabilize, handle
slides, crossing reroutes, free cancellation, handle reversal) plus the one
weak stabilization (attach or remove a trivial handle, which changes the
genus by one).  Every move preserves coloring counts over every finite
quandle; trivial handles additionally shift ``handles - bases`` by one.

Word conventions, fixed once here and relied on everywhere else:

* Sliding an end of handle ``h`` along ``a`` traverses ``a`` from the side
  the end sits on.  Let ``w`` be ``a``'s word as traversed.  Sliding the
  END appends ``w``; sliding the START prepends ``reverse_flip(w)``.
* Rerouting the crossing ``(b, s)`` of a word through handle ``v`` (whose
  traversal runs from ``b`` to ``b'`` with word ``w``) replaces the letter
  by ``w + [(b', s)] + reverse_flip(w)``.

Scripts are plain sequences of moves replayed left to right on the stored
handle/base numbering; see ``parse_script`` for the one-move-per-line text
format.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Union

from . import _PUBLIC
from .ribbon import (
    Handle,
    RibbonData,
    SignedLetter,
    _Value,
    _cancelling,
    _canonical_key,
    _coded,
    _decimal,
    _flipped,
    _free_reduced,
    _letters,
    _record,
    _require_valid,
    _token_lines,
    _tupled,
    reversed_handle,
)

__all__ = list(_PUBLIC["moves"])


class MoveError(ValueError):
    """A move whose preconditions fail on the given data."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"move {index}: {message}")
        self.script_index = index


class ScriptFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Stab(_Value):
    base: int


class Destab(_Value):
    base: int


class CancelInsert(_Value):
    handle: int
    position: int
    base: int
    sign: int


class CancelDelete(_Value):
    handle: int
    position: int


class Slide(_Value):
    handle: int
    which: str  # "start" | "end"
    along: int
    direction: str  # "fwd" | "rev"


class CrossSlide(_Value):
    handle: int
    position: int
    via: int
    direction: str  # "fwd" | "rev"


class TrivialHandle(_Value):
    base: int


class RemoveTrivialHandle(_Value):
    handle: int


class ReverseHandle(_Value):
    handle: int


# ---------------------------------------------------------------------------
# kernels
#
# What each move does to the handles, written once on ``(start, word,
# end)`` triples whose words are coded (see ``ribbon._coded``: the letter
# (base, sign) is 2 * base + (sign > 0)).  The ``apply_*`` functions check a
# move's preconditions, code the words the move reads, run its kernel and
# decode the handle it changes; the record's other words stay as they are,
# unreduced too.  ``_successor_triples`` runs the same kernels on the moves
# it lists, which are valid by construction, on freely reduced triples.


def _ways(triple):
    """A handle's two traversals, fwd then rev, each as (near base, far
    base, word as traversed, its reverse_flip)."""
    s, w, e = triple
    rf = _flipped(w)
    return (s, e, w, rf), (e, s, rf, w)


def _destabilized(triples, base: int):
    """The handles that do not end on ``base``, with the bases above it
    renumbered one down (a letter's code two down).  The renumbering keeps
    the order of the bases, so it keeps freely reduced words reduced."""
    cut = 2 * base  # the codes of letters on bases below ``base`` are less
    return tuple(
        (
            s if s < base else s - 1,
            tuple([x if x < cut else x - 2 for x in w]),
            e if e < base else e - 1,
        )
        for s, w, e in triples
        if s != base and e != base
    )


def _slid(triple, which: str, way):
    """The handle with its ``which`` end slid along the traversal ``way``
    to the far base: the end appends the traversed word, the start
    prepends its reverse_flip."""
    s, word, e = triple
    _, far, w, rf = way
    return (s, word + w, far) if which == "end" else (far, rf + word, e)


def _rerouted(word, position: int, way):
    """``word`` with the letter at ``position`` pushed along the traversal
    ``way`` to its far base."""
    _, far, w, rf = way
    return word[:position] + w + (2 * far + (word[position] & 1),) + rf + word[position + 1 :]


def _stabilizing(base_count: int, target: int):
    """The empty-word handle from a new base ``base_count + 1`` to ``target``."""
    return base_count + 1, (), target


def _trivial(base: int):
    """The trivial handle on ``base``."""
    return base, (), base


def _removed(handles, index: int):
    """``handles`` without the ``index``-th (1-indexed)."""
    return handles[: index - 1] + handles[index:]


def _destab_problem(triples, base: int) -> str | None:
    """Why ``base`` cannot be destabilized, or None when it can: it must
    lie on exactly one handle end, that handle must cross nothing, and no
    handle may cross it.  Words are coded."""
    found = None
    for s, w, e in triples:
        if s == base or e == base:
            if found is not None or s == e:
                return "degree != 1"
            found = w
    if found is None:
        return "degree != 1"
    if found:
        return "handle word not empty"
    if any(x >> 1 == base for _, w, _ in triples for x in w):
        return "base occurs in handle words"
    return None


# ---------------------------------------------------------------------------
# application


def _ranged(name: str, value, low: int, high: int) -> int:
    """``value``, a move's integer field, when it is an ``int`` (a ``bool``
    is not) in ``low..high``; else ``MoveError``."""
    if type(value) is not int:
        raise MoveError(f"{name} {value!r} is not an integer")
    if not low <= value <= high:
        raise MoveError(f"{name} {value} out of range {low}..{high}")
    return value


# Every ``apply_*`` function calls one of these two first, so each refuses
# an invalid record, with its first message, before it reads the move.
def _check_base(data: RibbonData, base: int):
    _require_valid(data)
    _ranged("base", base, 1, data.base_count)


def _get_handle(data: RibbonData, index: int) -> Handle:
    _require_valid(data)
    return data.handles[_ranged("handle", index, 1, len(data.handles)) - 1]


def _triple(h: Handle):
    """``h`` as a triple with its word coded."""
    return h.start, _coded(h.word), h.end


def _handle(triple) -> Handle:
    """The ``Handle`` of a triple whose word is coded."""
    s, w, e = triple
    return Handle(s, e, _letters(w))


def _replace_handle(data: RibbonData, index: int, handle: Handle) -> RibbonData:
    handles = data.handles[: index - 1] + (handle,) + data.handles[index:]
    return RibbonData(data.dim, data.base_count, handles)


def _traversal(data: RibbonData, index: int, direction: str):
    """The way of walking a handle fwd or rev; see :func:`_ways`."""
    h = _get_handle(data, index)
    if direction not in ("fwd", "rev"):
        raise MoveError(f"direction must be 'fwd' or 'rev', got {direction!r}")
    return _ways(_triple(h))[direction == "rev"]


def apply_stabilize(data: RibbonData, target: int) -> RibbonData:
    """Add a fresh base joined to ``target`` by an empty-word handle."""
    _check_base(data, target)
    handles = data.handles + (_handle(_stabilizing(data.base_count, target)),)
    return RibbonData(data.dim, data.base_count + 1, handles)


def apply_destabilize(data: RibbonData, base: int) -> RibbonData:
    """Remove a base of degree one whose handle crosses nothing, together
    with that handle.  Remaining bases are renumbered order-preservingly."""
    _check_base(data, base)
    triples = tuple(map(_triple, data.handles))
    problem = _destab_problem(triples, base)
    if problem:
        raise MoveError(f"destab {base}: {problem}")
    handles = tuple(map(_handle, _destabilized(triples, base)))
    return RibbonData(data.dim, data.base_count - 1, handles)


def apply_cancel_insert(data: RibbonData, handle: int, position: int, base: int, sign: int) -> RibbonData:
    h = _get_handle(data, handle)
    _check_base(data, base)
    if type(sign) is not int or sign not in (1, -1):
        raise MoveError(f"sign must be +1 or -1, got {sign!r}")
    _ranged("insert position", position, 0, len(h.word))
    pair = (SignedLetter(base, sign), SignedLetter(base, -sign))
    return _replace_handle(data, handle, Handle(h.start, h.end, h.word[:position] + pair + h.word[position:]))


def apply_cancel_delete(data: RibbonData, handle: int, position: int) -> RibbonData:
    h = _get_handle(data, handle)
    _ranged("delete position", position, 0, len(h.word) - 2)
    if not _cancelling(h.word[position], h.word[position + 1]):
        raise MoveError(f"letters at position {position} do not cancel")
    return _replace_handle(data, handle, Handle(h.start, h.end, h.word[:position] + h.word[position + 2 :]))


def apply_slide(data: RibbonData, handle: int, which: str, along: int, direction: str) -> RibbonData:
    """Slide one end of ``handle`` along ``along`` to its far base,
    composing the traversed crossing word into the slid handle."""
    h = _get_handle(data, handle)
    if which not in ("start", "end"):
        raise MoveError(f"slide end must be 'start' or 'end', got {which!r}")
    if handle == along:
        raise MoveError("cannot slide a handle along itself")
    way = _traversal(data, along, direction)
    attached = h.start if which == "start" else h.end
    if attached != way[0]:
        raise MoveError(
            f"slide: {which} of handle {handle} is on base {attached}, "
            f"not on the traversal start {way[0]}"
        )
    return _replace_handle(data, handle, _handle(_slid(_triple(h), which, way)))


def apply_cross_slide(data: RibbonData, handle: int, position: int, via: int, direction: str) -> RibbonData:
    """Reroute one crossing of ``handle`` through ``via``: the letter at
    ``position`` (which must cross the base where the chosen traversal of
    ``via`` begins) is pushed along ``via`` to its far base."""
    h = _get_handle(data, handle)
    if via == handle:
        raise MoveError("cannot cross-slide a handle through itself")
    _ranged("position", position, 0, len(h.word) - 1)
    way = _traversal(data, via, direction)
    if h.word[position].base != way[0]:
        raise MoveError(
            f"cross-slide: letter crosses base {h.word[position].base}, "
            f"but the traversal of handle {via} starts at {way[0]}"
        )
    return _replace_handle(data, handle, _handle((h.start, _rerouted(_coded(h.word), position, way), h.end)))


def apply_trivial_handle(data: RibbonData, base: int) -> RibbonData:
    """Attach a trivial handle (both ends on ``base``, crossing nothing).
    Raises the genus by one; the weak-stabilization move."""
    _check_base(data, base)
    return RibbonData(data.dim, data.base_count, data.handles + (_handle(_trivial(base)),))


def remove_trivial_handle(data: RibbonData, handle: int) -> RibbonData:
    h = _get_handle(data, handle)
    if h.start != h.end or h.word:
        raise MoveError(f"handle {handle} is not a trivial handle")
    return RibbonData(data.dim, data.base_count, _removed(data.handles, handle))


def reverse_handle(data: RibbonData, handle: int) -> RibbonData:
    return _replace_handle(data, handle, reversed_handle(_get_handle(data, handle)))


# The one description of each move kind.  Its script line is the syntax
# string: the keyword, then one token per field in field order, where
# ``<name>`` is an integer and ``a|b`` one of the listed words.  The
# named function applies it and takes the fields in the same order; it is
# looked up on this module at each call, so rebinding the module attribute
# reaches every move applied.  ``ins`` alone departs from the field order:
# its base and sign are written as one signed integer, ``<letter>``.
_MOVES = {
    Stab: ("stab <base>", "apply_stabilize"),
    Destab: ("destab <base>", "apply_destabilize"),
    CancelInsert: ("ins <handle> <pos> <letter>", "apply_cancel_insert"),
    CancelDelete: ("del <handle> <pos>", "apply_cancel_delete"),
    Slide: ("slide <handle> start|end <along> fwd|rev", "apply_slide"),
    CrossSlide: ("xslide <handle> <pos> <via> fwd|rev", "apply_cross_slide"),
    TrivialHandle: ("trivh <base>", "apply_trivial_handle"),
    RemoveTrivialHandle: ("untrivh <handle>", "remove_trivial_handle"),
    ReverseHandle: ("revh <handle>", "reverse_handle"),
}
_KINDS = {syntax.split()[0]: kind for kind, (syntax, _) in _MOVES.items()}
Move = Union[tuple(_MOVES)]


def _entry(move: Move) -> tuple[str, str]:
    try:
        return _MOVES[type(move)]
    except KeyError:
        raise MoveError(f"unknown move {move!r}") from None


def apply_move(data: RibbonData, move: Move) -> RibbonData:
    """``move`` applied to ``data`` by its function in ``_MOVES``, which
    takes the move's fields in declared order.  Raises ``ValueError`` with
    the first message :func:`validate` reports when ``data`` is not a valid
    record, and ``MoveError`` when the move does not apply, also when one
    of its integer fields is not an ``int``."""
    return globals()[_entry(move)[1]](data, *move._values())


# ---------------------------------------------------------------------------
# scripts


class MoveScript(_Value):
    """A replayable sequence of moves; an equivalence certificate."""

    moves: tuple[Move, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moves", _tupled(self.moves))

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)

    @property
    def weak_count(self) -> int:
        """Weak moves in the script: trivial handles attached plus trivial
        handles removed.  Each spends one unit of a weak budget."""
        return sum(is_weak(m) for m in self.moves)


def is_weak(move: Move) -> bool:
    """True for the two moves that change the genus, attaching and
    removing a trivial handle; each spends one unit of a weak budget."""
    return isinstance(move, (TrivialHandle, RemoveTrivialHandle))


def _moves_of(script: MoveScript) -> tuple[Move, ...]:
    """The moves of ``script``, a ``MoveScript`` or a sequence of moves, as
    a tuple; ``ValueError`` when they are not a sequence."""
    moves = _tupled(script.moves if type(script) is MoveScript else script)
    if type(moves) is not tuple:
        raise ValueError(f"script {script!r} is not a sequence of moves")
    return moves


def apply_script(data: RibbonData, script: MoveScript) -> RibbonData:
    """Left-to-right composition, failing fast with the index of the first
    inapplicable move.  Raises ``ValueError`` on a record that is not
    valid, as :func:`apply_move` does."""
    for i, move in enumerate(_moves_of(script)):
        try:
            data = apply_move(data, move)
        except MoveError as exc:
            raise MoveError(str(exc), index=i) from exc
    return data


def _move_line(move: Move) -> str:
    keyword = _entry(move)[0].split(maxsplit=1)[0]
    if isinstance(move, CancelInsert):
        values = (move.handle, move.position, move.sign * move.base)
    else:
        values = move._values()
    return " ".join([keyword, *map(str, values)])


def serialize_script(script: MoveScript) -> str:
    lines = [_move_line(m) for m in _moves_of(script)]
    return "\n".join(lines) + "\n" if lines else ""


def _int(token: str, lineno: int) -> int:
    try:
        return _decimal(token)
    except ValueError:
        raise ScriptFormatError(f"non-integer token '{token}'", lineno) from None


def parse_script(text: str | bytes) -> MoveScript:
    """One move per line, written as in the syntax table ``_MOVES``;
    handles are 1-indexed in stored order, positions 0-indexed, integers
    an optional ``-`` and ASCII digits, ``#`` comments allowed."""
    moves: list[Move] = []
    for lineno, tokens in _token_lines(text):
        kind = _KINDS.get(tokens[0])
        if kind is None:
            raise ScriptFormatError(f"unknown move '{tokens[0]}'", lineno)
        syntax = _MOVES[kind][0]
        slots = syntax.split()
        if len(tokens) != len(slots):
            raise ScriptFormatError(f"'{tokens[0]}' takes {len(slots) - 1} arguments", lineno)
        if any("|" in slot and token not in slot.split("|") for slot, token in zip(slots, tokens)):
            raise ScriptFormatError(f"expected '{syntax}'", lineno)
        if kind is CancelInsert:
            letter = _int(tokens[3], lineno)
            if letter == 0:
                raise ScriptFormatError("insert letter must be nonzero", lineno)
            handle, position = _int(tokens[1], lineno), _int(tokens[2], lineno)
            moves.append(CancelInsert(handle, position, abs(letter), 1 if letter > 0 else -1))
        else:
            fields = zip(slots[1:], tokens[1:])
            moves.append(kind(*(token if "|" in slot else _int(token, lineno) for slot, token in fields)))
    return MoveScript(tuple(moves))


# ---------------------------------------------------------------------------
# neighbor enumeration


def slides(data: RibbonData) -> list[Slide]:
    """Every slide that applies to ``data``: for each handle in stored
    order, its start end and then its end end, slid along each other handle
    in stored order, ``fwd`` (along a handle starting where the end sits)
    before ``rev`` (along one ending there).  Requires a valid record."""
    _require_valid(data)
    return _slides([(h.start, h.end) for h in data.handles])


def _slides(ends) -> list[Slide]:
    """:func:`slides` of handles given as ``(start, end)`` pairs."""
    found = []
    for slider, (s, e) in enumerate(ends, start=1):
        for which, attached in (("start", s), ("end", e)):
            for along, (g_start, g_end) in enumerate(ends, start=1):
                if along == slider:
                    continue
                if g_start == attached:
                    found.append(Slide(slider, which, along, "fwd"))
                if g_end == attached:
                    found.append(Slide(slider, which, along, "rev"))
    return found


def enumerate_moves(data: RibbonData, weak_budget: int):
    """All canonical successors of a state, as a new list of (move, state)
    pairs with duplicates removed.

    Includes every applicable destabilization and slide, the crossing
    reroutes that do not lengthen the freely reduced word, a stabilization
    per base, and, only when ``weak_budget`` is positive, the two weak
    moves: every trivial-handle removal and a trivial handle per base.  At
    budget 0 every successor therefore has the genus of ``data``.  Free
    insertions are never enumerated: states are kept freely reduced, and
    insertions arise implicitly through slides followed by reduction.
    Order is fixed, so the result is deterministic.

    Each successor is built as it would be by :func:`apply_move`, by the
    same per-move kernel, but on freely reduced triples with coded words:
    the words of ``data`` are coded and reduced once, each move rebuilds
    and reduces only the handle it changes (a destabilization's
    renumbering keeps reduced words reduced), and the triples go to the
    canonical labelling directly.  Moves are numbered on the stored handles
    and letters of ``data``, which need not be canonical or reduced: each
    listed state is ``canonical_form(apply_move(data, move))``.  The
    equivalence search reads the same successors of its canonical states
    as canonical keys, without records, from a per-process cache; this
    function builds a record for each successor it returns.

    Raises ``ValueError`` with the first message :func:`validate` reports
    when ``data`` is not a valid record.
    """
    _require_valid(data)
    raw = tuple(map(_triple, data.handles))
    reduced = tuple([(s, _free_reduced(w), e) for s, w, e in raw])
    return [
        (move, _record(data.dim, *state))
        for move, state in _labelled(data.base_count, raw, reduced, weak_budget > 0)
    ]


def _labelled(base_count: int, raw, reduced, weak: bool):
    """Yield ``(move, (base_count, key))`` for each successor of
    :func:`_successor_triples`, the first move to each canonical state
    only."""
    seen = set()
    for move, count, triples in _successor_triples(base_count, raw, reduced, weak):
        state = count, _canonical_key(count, triples)
        if state not in seen:
            seen.add(state)
            yield move, state


# Each entry keeps a state's successors alive, as (move, (base count,
# key)) pairs.  Within one search no state is expanded twice, so the cache
# pays off across searches in one process (a shared unknot side, the
# plateau searches of the reductions), which needs far fewer entries.
@lru_cache(maxsize=1 << 10)
def _successors(base_count: int, key, weak: bool) -> tuple:
    """The successors of the canonical state ``(base_count, key)``, as
    :func:`_labelled` yields them."""
    return tuple(_labelled(base_count, key, key, weak))


def _successor_triples(n: int, raw, reduced, weak: bool):
    """Yield ``(move, base_count, triples)`` for each move
    ``enumerate_moves`` lists, in its order and with repeats: the
    successor's freely reduced triples, with coded words, not yet
    labelled.  ``raw`` holds the stored handles with coded words, on which
    moves are numbered, and ``reduced`` the same with the words freely
    reduced; for a canonical key the two are the key.  A relabelling keeps
    the triples' sizes, so a caller can compare successors by size before
    labelling any."""

    def changed(index, triple):
        """The parent's triples with handle ``index`` (1-indexed) replaced
        by ``triple``, whose word is freely reduced."""
        return reduced[: index - 1] + (triple,) + reduced[index:]

    for base in range(1, n + 1):
        if _destab_problem(raw, base) is None:
            yield Destab(base), n - 1, _destabilized(reduced, base)

    if weak:
        for i, (s, w, e) in enumerate(raw, start=1):
            if s == e and not w:
                yield RemoveTrivialHandle(i), n, _removed(reduced, i)

    # Reducing a concatenation gives the same word whether or not its parts
    # were reduced first, so handles are slid and rerouted along the reduced
    # traversals.  A cross-slide names its letter by the stored position,
    # so it reroutes the stored word.
    ways = [_ways(t) for t in reduced]
    for move in _slides([(s, e) for s, _, e in raw]):
        s, word, e = _slid(reduced[move.handle - 1], move.which, ways[move.along - 1][move.direction == "rev"])
        yield move, n, changed(move.handle, (s, _free_reduced(word), e))

    for idx, (s, word, e) in enumerate(raw, start=1):
        if not word:
            continue
        for via, pair in enumerate(ways, start=1):
            if via == idx:
                continue
            for direction, way in zip(("fwd", "rev"), pair):
                near = way[0]
                for pos, x in enumerate(word):
                    if x >> 1 != near:
                        continue
                    spliced = _free_reduced(_rerouted(word, pos, way))
                    if len(spliced) <= len(word):
                        yield CrossSlide(idx, pos, via, direction), n, changed(idx, (s, spliced, e))

    for base in range(1, n + 1):
        yield Stab(base), n + 1, reduced + (_stabilizing(n, base),)

    if weak:
        for base in range(1, n + 1):
            yield TrivialHandle(base), n, reduced + (_trivial(base),)
