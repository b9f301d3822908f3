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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

from .ribbon import (
    Handle,
    RibbonData,
    SignedLetter,
    canonical_form,
    free_reduce_word,
    reverse_flip,
    reversed_handle,
    serialize,
)

__all__ = [
    "Move",
    "MoveError",
    "ScriptFormatError",
    "Stab",
    "Destab",
    "CancelInsert",
    "CancelDelete",
    "Slide",
    "CrossSlide",
    "TrivialHandle",
    "RemoveTrivialHandle",
    "ReverseHandle",
    "MoveScript",
    "parse_script",
    "serialize_script",
    "apply_move",
    "apply_script",
    "apply_stabilize",
    "apply_destabilize",
    "apply_cancel_insert",
    "apply_cancel_delete",
    "apply_slide",
    "apply_cross_slide",
    "apply_trivial_handle",
    "remove_trivial_handle",
    "reverse_handle",
    "slides",
    "enumerate_moves",
    "is_weak",
]


class MoveError(ValueError):
    """A move whose preconditions fail on the given data."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"move {index}: {message}")
        self.script_index = index


class ScriptFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Stab:
    base: int


@dataclass(frozen=True)
class Destab:
    base: int


@dataclass(frozen=True)
class CancelInsert:
    handle: int
    position: int
    base: int
    sign: int


@dataclass(frozen=True)
class CancelDelete:
    handle: int
    position: int


@dataclass(frozen=True)
class Slide:
    handle: int
    which: str  # "start" | "end"
    along: int
    direction: str  # "fwd" | "rev"

    def __post_init__(self):
        if self.which not in ("start", "end"):
            raise ValueError(f"slide end must be 'start' or 'end', got {self.which!r}")
        if self.direction not in ("fwd", "rev"):
            raise ValueError(f"direction must be 'fwd' or 'rev', got {self.direction!r}")


@dataclass(frozen=True)
class CrossSlide:
    handle: int
    position: int
    via: int
    direction: str

    def __post_init__(self):
        if self.direction not in ("fwd", "rev"):
            raise ValueError(f"direction must be 'fwd' or 'rev', got {self.direction!r}")


@dataclass(frozen=True)
class TrivialHandle:
    base: int


@dataclass(frozen=True)
class RemoveTrivialHandle:
    handle: int


@dataclass(frozen=True)
class ReverseHandle:
    handle: int


Move = Union[
    Stab,
    Destab,
    CancelInsert,
    CancelDelete,
    Slide,
    CrossSlide,
    TrivialHandle,
    RemoveTrivialHandle,
    ReverseHandle,
]


# ---------------------------------------------------------------------------
# application


def _check_base(data: RibbonData, base: int):
    if not 1 <= base <= data.base_count:
        raise MoveError(f"base {base} out of range 1..{data.base_count}")


def _get_handle(data: RibbonData, index: int) -> Handle:
    if not 1 <= index <= len(data.handles):
        raise MoveError(f"handle {index} out of range 1..{len(data.handles)}")
    return data.handles[index - 1]


def _replace_handle(data: RibbonData, index: int, new: Handle) -> RibbonData:
    handles = data.handles[: index - 1] + (new,) + data.handles[index:]
    return RibbonData(data.dim, data.base_count, handles)


def _traversal(data: RibbonData, index: int, direction: str):
    """(near, far, word-as-traversed) for walking a handle fwd or rev."""
    h = _get_handle(data, index)
    if direction == "fwd":
        return h.start, h.end, h.word
    return h.end, h.start, reverse_flip(h.word)


def apply_stabilize(data: RibbonData, target: int) -> RibbonData:
    """Add a fresh base joined to ``target`` by an empty-word handle."""
    _check_base(data, target)
    new_base = data.base_count + 1
    handles = data.handles + (Handle(new_base, target, ()),)
    return RibbonData(data.dim, new_base, handles)


def apply_destabilize(data: RibbonData, base: int) -> RibbonData:
    """Remove a base of degree one whose handle crosses nothing, together
    with that handle.  Remaining bases are renumbered order-preservingly."""
    _check_base(data, base)
    incident = [
        (i, h)
        for i, h in enumerate(data.handles, start=1)
        if h.start == base or h.end == base
    ]
    degree = sum((h.start == base) + (h.end == base) for _, h in incident)
    if degree != 1:
        raise MoveError(f"destab {base}: degree != 1")
    index, handle = incident[0]
    if handle.word:
        raise MoveError(f"destab {base}: handle word not empty")
    other = handle.end if handle.start == base else handle.start
    if other == base:
        raise MoveError(f"destab {base}: degree != 1")
    for h in data.handles:
        if any(l.base == base for l in h.word):
            raise MoveError(f"destab {base}: base occurs in handle words")

    def remap(b):
        return b if b < base else b - 1

    handles = []
    for i, h in enumerate(data.handles, start=1):
        if i == index:
            continue
        word = tuple(SignedLetter(remap(l.base), l.sign) for l in h.word)
        handles.append(Handle(remap(h.start), remap(h.end), word))
    return RibbonData(data.dim, data.base_count - 1, tuple(handles))


def apply_cancel_insert(data: RibbonData, handle: int, position: int, base: int, sign: int) -> RibbonData:
    h = _get_handle(data, handle)
    _check_base(data, base)
    if sign not in (1, -1):
        raise MoveError(f"sign must be +1 or -1, got {sign}")
    if not 0 <= position <= len(h.word):
        raise MoveError(f"insert position {position} out of range 0..{len(h.word)}")
    pair = (SignedLetter(base, sign), SignedLetter(base, -sign))
    word = h.word[:position] + pair + h.word[position:]
    return _replace_handle(data, handle, Handle(h.start, h.end, word))


def apply_cancel_delete(data: RibbonData, handle: int, position: int) -> RibbonData:
    h = _get_handle(data, handle)
    if not 0 <= position <= len(h.word) - 2:
        raise MoveError(f"delete position {position} out of range 0..{len(h.word) - 2}")
    a, b = h.word[position], h.word[position + 1]
    if a.base != b.base or a.sign != -b.sign:
        raise MoveError(f"letters at position {position} do not cancel")
    word = h.word[:position] + h.word[position + 2 :]
    return _replace_handle(data, handle, Handle(h.start, h.end, word))


def apply_slide(data: RibbonData, handle: int, which: str, along: int, direction: str) -> RibbonData:
    """Slide one end of ``handle`` along ``along`` to its far base,
    composing the traversed crossing word into the slid handle."""
    if which not in ("start", "end"):
        raise MoveError(f"slide end must be 'start' or 'end', got {which!r}")
    if direction not in ("fwd", "rev"):
        raise MoveError(f"direction must be 'fwd' or 'rev', got {direction!r}")
    if handle == along:
        raise MoveError("cannot slide a handle along itself")
    h = _get_handle(data, handle)
    near, far, w = _traversal(data, along, direction)
    attached = h.start if which == "start" else h.end
    if attached != near:
        raise MoveError(
            f"slide: {which} of handle {handle} is on base {attached}, "
            f"not on the traversal start {near}"
        )
    if which == "end":
        new = Handle(h.start, far, h.word + w)
    else:
        new = Handle(far, h.end, reverse_flip(w) + h.word)
    return _replace_handle(data, handle, new)


def apply_cross_slide(data: RibbonData, handle: int, position: int, via: int, direction: str) -> RibbonData:
    """Reroute one crossing of ``handle`` through ``via``: the letter at
    ``position`` (which must cross the base where the chosen traversal of
    ``via`` begins) is pushed along ``via`` to its far base."""
    if direction not in ("fwd", "rev"):
        raise MoveError(f"direction must be 'fwd' or 'rev', got {direction!r}")
    if via == handle:
        raise MoveError("cannot cross-slide a handle through itself")
    h = _get_handle(data, handle)
    if not 0 <= position < len(h.word):
        raise MoveError(f"position {position} out of range 0..{len(h.word) - 1}")
    near, far, w = _traversal(data, via, direction)
    letter = h.word[position]
    if letter.base != near:
        raise MoveError(
            f"cross-slide: letter crosses base {letter.base}, "
            f"but the traversal of handle {via} starts at {near}"
        )
    replacement = w + (SignedLetter(far, letter.sign),) + reverse_flip(w)
    word = h.word[:position] + replacement + h.word[position + 1 :]
    return _replace_handle(data, handle, Handle(h.start, h.end, word))


def apply_trivial_handle(data: RibbonData, base: int) -> RibbonData:
    """Attach a trivial handle (both ends on ``base``, crossing nothing).
    Raises the genus by one; the weak-stabilization move."""
    _check_base(data, base)
    handles = data.handles + (Handle(base, base, ()),)
    return RibbonData(data.dim, data.base_count, handles)


def remove_trivial_handle(data: RibbonData, handle: int) -> RibbonData:
    h = _get_handle(data, handle)
    if h.start != h.end or h.word:
        raise MoveError(f"handle {handle} is not a trivial handle")
    handles = data.handles[: handle - 1] + data.handles[handle:]
    return RibbonData(data.dim, data.base_count, handles)


def reverse_handle(data: RibbonData, handle: int) -> RibbonData:
    h = _get_handle(data, handle)
    return _replace_handle(data, handle, reversed_handle(h))


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


def _entry(move: Move) -> tuple[str, str]:
    try:
        return _MOVES[type(move)]
    except KeyError:
        raise MoveError(f"unknown move {move!r}") from None


def apply_move(data: RibbonData, move: Move) -> RibbonData:
    return globals()[_entry(move)[1]](data, *vars(move).values())


# ---------------------------------------------------------------------------
# scripts


@dataclass(frozen=True)
class MoveScript:
    """A replayable sequence of moves; an equivalence certificate."""

    moves: tuple[Move, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))

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


def apply_script(data: RibbonData, script: MoveScript) -> RibbonData:
    """Left-to-right composition, failing fast with the index of the first
    inapplicable move."""
    for i, move in enumerate(script):
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
        values = vars(move).values()
    return " ".join([keyword, *map(str, values)])


def serialize_script(script: MoveScript) -> str:
    lines = [_move_line(m) for m in script]
    return "\n".join(lines) + "\n" if lines else ""


def _int(token: str, lineno: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ScriptFormatError(f"non-integer token '{token}'", lineno) from None


def parse_script(text: str | bytes) -> MoveScript:
    """One move per line, written as in the syntax table ``_MOVES``;
    handles are 1-indexed in stored order, positions 0-indexed, ``#``
    comments allowed."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    moves: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
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


def _destab_target(data: RibbonData, base: int):
    incident = []
    for i, h in enumerate(data.handles, start=1):
        if h.start == base or h.end == base:
            incident.append((i, h))
            if len(incident) > 1:
                return None
    if len(incident) != 1:
        return None
    _, h = incident[0]
    if h.word or h.start == h.end:
        return None
    if any(l.base == base for g in data.handles for l in g.word):
        return None
    return incident[0][0]


def slides(data: RibbonData) -> list[Slide]:
    """Every slide that applies to ``data``: for each handle in stored
    order, its start end and then its end end, slid along each other handle
    in stored order, ``fwd`` (along a handle starting where the end sits)
    before ``rev`` (along one ending there)."""
    found = []
    for slider, h in enumerate(data.handles, start=1):
        for which, attached in (("start", h.start), ("end", h.end)):
            for along, g in enumerate(data.handles, start=1):
                if along == slider:
                    continue
                if g.start == attached:
                    found.append(Slide(slider, which, along, "fwd"))
                if g.end == attached:
                    found.append(Slide(slider, which, along, "rev"))
    return found


def enumerate_moves(data: RibbonData, weak_budget: int):
    """All canonical successors of a canonical state, as a new list of
    (move, state) pairs with duplicates removed.

    Includes every applicable destabilization and slide, the crossing
    reroutes that do not lengthen the freely reduced word, a stabilization
    per base, and, only when ``weak_budget`` is positive, the two weak
    moves: every trivial-handle removal and a trivial handle per base.  At
    budget 0 every successor therefore has the genus of ``data``.  Free
    insertions are never enumerated: states are kept freely reduced, and
    insertions arise implicitly through slides followed by reduction.
    Order is fixed, so the result is deterministic.

    The pairs are memoized per process in a bounded LRU cache keyed on the
    state and on whether any weak budget remains, which is all they depend
    on; searches that meet a state again, in the same search or in a later
    one, do not re-apply its moves.
    """
    return list(_successors(data, weak_budget > 0))


# Each entry keeps a state's successors alive.  Within one search no state
# is expanded twice, so the cache pays off across searches in one process
# (a shared unknot side, say), which needs far fewer entries; 1 << 13 entries
# held 64 MB more at peak in a 25000-state search, 1 << 10 held 3 MB more.
@lru_cache(maxsize=1 << 10)
def _successors(data: RibbonData, weak: bool) -> tuple[tuple[Move, RibbonData], ...]:
    results: list[tuple[Move, RibbonData]] = []
    seen: set[str] = set()

    def push(move, new_data):
        state = canonical_form(new_data)
        key = serialize(state)
        if key not in seen:
            seen.add(key)
            results.append((move, state))

    handles = data.handles
    for base in range(1, data.base_count + 1):
        if _destab_target(data, base) is not None:
            push(Destab(base), apply_destabilize(data, base))

    if weak:
        for i, h in enumerate(handles, start=1):
            if h.start == h.end and not h.word:
                push(RemoveTrivialHandle(i), remove_trivial_handle(data, i))

    for move in slides(data):
        push(move, apply_slide(data, move.handle, move.which, move.along, move.direction))

    # (direction, near, far, word as traversed, its reverse_flip) of each
    # handle's two traversals, read once
    traversals = []
    for h in handles:
        rf = reverse_flip(h.word)
        traversals.append((("fwd", h.start, h.end, h.word, rf), ("rev", h.end, h.start, rf, h.word)))

    for idx, h in enumerate(handles, start=1):
        word = h.word
        if not word:
            continue
        for via, ways in enumerate(traversals, start=1):
            if via == idx:
                continue
            for direction, near, far, w, rf in ways:
                for pos, letter in enumerate(word):
                    if letter.base != near:
                        continue
                    spliced = (
                        word[:pos] + w + (SignedLetter(far, letter.sign),) + rf + word[pos + 1 :]
                    )
                    if len(free_reduce_word(spliced)) <= len(word):
                        push(
                            CrossSlide(idx, pos, via, direction),
                            apply_cross_slide(data, idx, pos, via, direction),
                        )

    for base in range(1, data.base_count + 1):
        push(Stab(base), apply_stabilize(data, base))

    if weak:
        for base in range(1, data.base_count + 1):
            push(TrivialHandle(base), apply_trivial_handle(data, base))

    return tuple(results)
