"""
Bounded equivalence search with replayable certificates.

Two presentations are compared in three stages: an invariant gate
(coloring counts over a fixed quandle family, plus genus when no weak
budget is allowed) that can refute immediately; a bidirectional
breadth-first search over canonical forms that can certify equivalence by
exhibiting move scripts from both inputs to a common canonical meeting
form; and an Unknown outcome carrying the exploration statistics when the
caps run out.  Unknown is a first-class answer: the neighbor set is
deliberately finite, so the search is incomplete by design and never
claims a negative beyond what the gate recomputes.

Certificate scripts produced here are sequences of elementary moves whose
indices refer to the canonical form of each intermediate state; replay
them with :func:`replay_canonical` (apply one move, re-canonicalize,
repeat).  Everything is deterministic for fixed inputs and caps, ties
broken by serialized canonical byte order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Union

from .moves import (
    CancelDelete,
    CrossSlide,
    Destab,
    Move,
    MoveError,
    MoveScript,
    RemoveTrivialHandle,
    Slide,
    TrivialHandle,
    apply_move,
    enumerate_moves,
    is_weak,
    serialize_script,
)
from .quandle import FiniteQuandle, _count_valid, dihedral_quandle
from .ribbon import (
    Handle,
    RibbonData,
    _require_valid,
    canonical_form,
    component_count,
    genus,
    reversed_handle,
    serialize,
    validate,
)

__all__ = [
    "Equivalent",
    "Refuted",
    "Unknown",
    "MergeWitness",
    "search_equiv",
    "certify",
    "replay_canonical",
    "serialize_outcome",
    "macro_merge_bases",
    "macro_clone_handle",
]


@dataclass(frozen=True)
class Equivalent:
    """Both scripts replay (canonically) onto the same meeting form."""

    script_a: MoveScript
    script_b: MoveScript
    meet: RibbonData
    weak_used_a: int
    weak_used_b: int


@dataclass(frozen=True)
class Refuted:
    """A recomputable invariant that separates the inputs."""

    invariant: str
    value_a: int
    value_b: int


@dataclass(frozen=True)
class Unknown:
    """The caps ran out: ``states`` canonical states were stored and
    ``depth`` levels completed, both sides together."""

    states: int
    depth: int


SearchOutcome = Union[Equivalent, Refuted, Unknown]


@cache
def default_gate_quandles() -> tuple[FiniteQuandle, ...]:
    # One shared tuple, so each quandle's axiom verdict is computed once
    # per process rather than once per search.
    return (dihedral_quandle(3), dihedral_quandle(5), dihedral_quandle(7))


def _require_comparable(a: RibbonData, b: RibbonData):
    if a.dim != b.dim:
        raise ValueError(f"dim mismatch: {a.dim} vs {b.dim}")
    for name, d in (("first", a), ("second", b)):
        problems = validate(d)
        if problems:
            raise ValueError(f"{name} input invalid: {problems[0].message}")
        if component_count(d) != 1:
            raise ValueError(f"{name} input is not connected")


def invariant_gate(a: RibbonData, b: RibbonData, quandles, weak_budget: int | None = None):
    """Refute via the first quandle whose coloring counts differ, or via
    genus when the weak budget is zero: only the weak moves change genus,
    and at budget 0 neither side may apply one.  Returns None when nothing
    separates."""
    _require_comparable(a, b)
    for q in quandles:
        ca = _count_valid(a, q)
        cb = _count_valid(b, q)
        if ca != cb:
            return Refuted(q.name, ca, cb)
    if weak_budget == 0:
        ga, gb = genus(a), genus(b)
        if ga != gb:
            return Refuted("genus", ga, gb)
    return None


@dataclass
class _Node:
    data: RibbonData
    parent: str | None
    move: Move | None
    weak: int


def _script_to(visited: dict[str, _Node], key: str) -> MoveScript:
    moves = []
    node = visited[key]
    while node.move is not None:
        moves.append(node.move)
        node = visited[node.parent]
    return MoveScript(tuple(reversed(moves)))


def search_equiv(
    a: RibbonData,
    b: RibbonData,
    depth: int,
    weak_budget: int,
    state_cap: int,
    quandles=None,
    stats: dict | None = None,
) -> SearchOutcome:
    """Decide equivalence at bounded depth.

    ``depth`` caps the combined length of the two certificate scripts,
    ``weak_budget`` the weak moves (trivial handles attached or removed)
    on each side separately,
    and ``state_cap`` the total number of canonical states stored.  The
    smaller frontier is expanded level by level and levels are completed
    before meets are resolved.

    When a dict is supplied as ``stats``, it is filled in with how the
    search went: ``levels``, one ``[side, frontier size]`` pair per
    expanded level in the order expanded (side ``"a"`` or ``"b"``; the
    size counts the new states of that level); ``states``, the states
    stored per side; and ``stop``, why the search ended: ``gate`` (the
    invariant gate refuted), ``met`` (the sides met), ``depth`` (the depth
    limit was reached) or ``cap`` (the state cap was reached).

    An ``Unknown`` outcome's ``depth`` counts the levels completed on both
    sides.  A level the state cap stopped is listed in ``levels`` but not
    counted, even when the cap fell on its last new state.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if weak_budget < 0:
        raise ValueError("weak budget must be >= 0")
    if state_cap <= 0:
        raise ValueError("state cap must be > 0")
    if quandles is None:
        quandles = default_gate_quandles()
    levels: list[list] = []
    sides = []

    def stop(reason: str, outcome: SearchOutcome) -> SearchOutcome:
        if stats is not None:
            visited = [len(side["visited"]) for side in sides] or [0, 0]
            stats.update(levels=levels, states={"a": visited[0], "b": visited[1]}, stop=reason)
        return outcome

    refuted = invariant_gate(a, b, quandles, weak_budget=weak_budget)
    if refuted is not None:
        return stop("gate", refuted)

    for source in (a, b):
        root = canonical_form(source)
        key = serialize(root)
        sides.append(
            {
                "visited": {key: _Node(root, None, None, 0)},
                "frontier": [key],
                "level": 0,
            }
        )
    key_a = sides[0]["frontier"][0]
    key_b = sides[1]["frontier"][0]
    states = 2
    if key_a == key_b:
        return stop("met", Equivalent(MoveScript(), MoveScript(), sides[0]["visited"][key_a].data, 0, 0))

    while sides[0]["level"] + sides[1]["level"] < depth:
        idx = 0 if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else 1
        me, other = sides[idx], sides[1 - idx]
        visited = me["visited"]

        new_keys: list[str] = []
        cap_hit = False
        for key in me["frontier"]:
            node = visited[key]
            for move, child in enumerate_moves(node.data, weak_budget - node.weak):
                child_key = serialize(child)
                if child_key in visited:
                    continue
                weak = node.weak + is_weak(move)
                visited[child_key] = _Node(child, key, move, weak)
                new_keys.append(child_key)
                states += 1
                if states >= state_cap:
                    cap_hit = True
                    break
            if cap_hit:
                break
        me["frontier"] = new_keys
        if not cap_hit:
            me["level"] += 1
        levels.append(["ab"[idx], len(new_keys)])

        meets = sorted(k for k in new_keys if k in other["visited"])
        if meets:
            meet_key = meets[0]
            node_a = sides[0]["visited"][meet_key]
            node_b = sides[1]["visited"][meet_key]
            return stop(
                "met",
                Equivalent(
                    _script_to(sides[0]["visited"], meet_key),
                    _script_to(sides[1]["visited"], meet_key),
                    node_a.data,
                    node_a.weak,
                    node_b.weak,
                ),
            )
        if cap_hit:
            return stop("cap", Unknown(states, sides[0]["level"] + sides[1]["level"]))
    return stop("depth", Unknown(states, sides[0]["level"] + sides[1]["level"]))


def replay_canonical(data: RibbonData, script: MoveScript) -> RibbonData:
    """Replay a certificate script: canonicalize, then alternate one move
    with one re-canonicalization."""
    state = canonical_form(data)
    for move in script:
        state = canonical_form(apply_move(state, move))
    return state


def certify(a: RibbonData, b: RibbonData, outcome: SearchOutcome, diagnostics: list | None = None) -> bool:
    """Independently replay an Equivalent outcome and compare the meeting
    forms byte for byte, along with the recorded weak accounting.  Replay
    failures return False, with the reason appended to ``diagnostics``
    when a list is supplied."""
    if not isinstance(outcome, Equivalent):
        raise ValueError("certify requires an Equivalent outcome")

    def note(message):
        if diagnostics is not None:
            diagnostics.append(message)

    try:
        final_a = replay_canonical(a, outcome.script_a)
        final_b = replay_canonical(b, outcome.script_b)
    except MoveError as exc:
        note(f"replay failed: {exc}")
        return False
    meet = serialize(outcome.meet)
    if serialize(final_a) != meet:
        note("script A does not reach the meeting form")
        return False
    if serialize(final_b) != meet:
        note("script B does not reach the meeting form")
        return False
    used = (outcome.script_a.weak_count, outcome.script_b.weak_count)
    if used != (outcome.weak_used_a, outcome.weak_used_b):
        note("weak-handle accounting does not match the scripts")
        return False
    return True


def serialize_outcome(outcome: SearchOutcome) -> str:
    if isinstance(outcome, Equivalent):
        head = "EQUIVALENT"
        script_a, script_b = outcome.script_a, outcome.script_b
    elif isinstance(outcome, Refuted):
        head = f"REFUTED {outcome.invariant} {outcome.value_a} {outcome.value_b}"
        script_a = script_b = MoveScript()
    else:
        head = f"UNKNOWN {outcome.states} {outcome.depth}"
        script_a = script_b = MoveScript()
    text = head + "\n--- script A\n"
    text += serialize_script(script_a)
    text += "--- script B\n"
    text += serialize_script(script_b)
    return text


# ---------------------------------------------------------------------------
# constructive macros


@dataclass(frozen=True)
class MergeWitness:
    """How to walk a freshly attached trivial handle from the doomed base
    to the surviving one: a sequence of (handle, direction) slide steps.
    The concatenation of the traversed crossing words is the route; it
    must avoid the doomed base."""

    survivor: int
    steps: tuple[tuple[int, str], ...] = ()


def _scripted(data: RibbonData):
    state = data
    script: list[Move] = []

    def do(move: Move):
        nonlocal state
        state = apply_move(state, move)
        script.append(move)

    return (lambda: state), do, script


def macro_merge_bases(data: RibbonData, doomed: int, witness: MergeWitness):
    """Absorb one base into another through a trivial handle.

    Attach a trivial handle on the doomed base, slide its far end along the
    witness route to the survivor, reroute every crossing of the doomed
    base through it, slide every other handle end off the doomed base, and
    reduce.  When the realized route is empty the doomed base destabilizes
    away entirely; otherwise the merging handle remains and the doomed base
    is left bare (degree one, crossed by nothing).  Handles that the macro
    itself rendered trivial are removed.  Returns the transformed data and
    the replayable script.
    """
    _require_valid(data)
    if not 1 <= doomed <= data.base_count:
        raise ValueError(f"doomed base {doomed} out of range")
    if not 1 <= witness.survivor <= data.base_count:
        raise ValueError(f"survivor base {witness.survivor} out of range")
    if doomed == witness.survivor:
        raise ValueError("doomed and survivor must differ")

    current, do, script = _scripted(data)
    original = data.handles
    merge_idx = len(original) + 1

    do(TrivialHandle(doomed))

    position = doomed
    for along, direction in witness.steps:
        if not 1 <= along <= len(original):
            raise ValueError(f"route malformed: handle {along} out of range")
        if direction not in ("fwd", "rev"):
            raise ValueError(f"route malformed: direction {direction!r}")
        h = current().handles[along - 1]
        near, far = (h.start, h.end) if direction == "fwd" else (h.end, h.start)
        if near != position:
            raise ValueError(
                f"route malformed: step along handle {along} starts at base {near}, "
                f"but the moving end is on base {position}"
            )
        if far == doomed or any(l.base == doomed for l in h.word):
            raise ValueError("route touches doomed base")
        do(Slide(merge_idx, "end", along, direction))
        position = far
    if position != witness.survivor:
        raise ValueError(f"route ends on base {position}, not on survivor {witness.survivor}")

    # reroute crossings of the doomed base through the merging handle
    for idx in range(1, len(current().handles) + 1):
        if idx == merge_idx:
            continue
        spots = [
            pos
            for pos, letter in enumerate(current().handles[idx - 1].word)
            if letter.base == doomed
        ]
        for pos in reversed(spots):
            do(CrossSlide(idx, pos, merge_idx, "fwd"))

    # move every other handle end off the doomed base
    for idx in range(1, len(current().handles) + 1):
        if idx == merge_idx:
            continue
        if current().handles[idx - 1].end == doomed:
            do(Slide(idx, "end", merge_idx, "fwd"))
        if current().handles[idx - 1].start == doomed:
            do(Slide(idx, "start", merge_idx, "fwd"))

    # freely reduce every word via explicit deletions
    for idx in range(1, len(current().handles) + 1):
        while True:
            word = current().handles[idx - 1].word
            pos = next(
                (
                    p
                    for p in range(len(word) - 1)
                    if word[p].base == word[p + 1].base and word[p].sign == -word[p + 1].sign
                ),
                None,
            )
            if pos is None:
                break
            do(CancelDelete(idx, pos))

    if not current().handles[merge_idx - 1].word:
        do(Destab(doomed))

    # drop handles the macro itself made trivial; pre-existing trivial
    # handles carry genus and stay
    for idx in range(len(current().handles), 0, -1):
        h = current().handles[idx - 1]
        if h.start != h.end or h.word:
            continue
        was = original[idx - 1] if idx <= len(original) else None
        was_trivial = was is not None and was.start == was.end and not was.word
        if not was_trivial:
            do(RemoveTrivialHandle(idx))

    return current(), MoveScript(tuple(script))


def macro_clone_handle(data: RibbonData, template: Handle):
    """Duplicate a handle of the presentation.

    A trivial handle attached at the template's start slides along the
    matching handle, producing an exact copy.  The template must equal an
    existing handle up to reversal; the copy's relation is then already a
    consequence, so every coloring count is preserved while the genus goes
    up by one.
    """
    _require_valid(data)
    for v in (template.start, template.end):
        if not 1 <= v <= data.base_count:
            raise ValueError(f"invalid template: base {v} out of range")
    for letter in template.word:
        if not 1 <= letter.base <= data.base_count:
            raise ValueError(f"invalid template: base {letter.base} out of range")

    along = None
    direction = None
    for i, h in enumerate(data.handles, start=1):
        if h == template:
            along, direction = i, "fwd"
            break
        if reversed_handle(h) == template:
            along, direction = i, "rev"
            break
    if along is None:
        raise ValueError("invalid template: no matching handle to clone along")

    current, do, script = _scripted(data)
    do(TrivialHandle(template.start))
    do(Slide(len(data.handles) + 1, "end", along, direction))
    return current(), MoveScript(tuple(script))

