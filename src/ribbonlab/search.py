"""
Bounded equivalence search with replayable certificates.

Two presentations are compared in four stages.  An invariant gate can
refute immediately, by the first entry of one table of invariants whose
values differ: coloring counts over a fixed quandle family, which every
move keeps, then genus, which the weak moves change and which therefore
refutes only when no weak move is allowed.  A reduction then simplifies
each side's canonical form by moves that lower its size (bases, then total
word letters, then handles), each step searching up to two levels deep
over states no larger.  A bidirectional breadth-first search from both
canonical forms, which may also meet on either reduction path, can
certify equivalence by exhibiting move scripts from both inputs to a
common canonical meeting form.  Failing that, an Unknown outcome carries
the exploration statistics when the caps run out.
Unknown is a first-class answer: the neighbor set is deliberately finite,
so the search is incomplete by design and never claims a negative beyond
what the gate recomputes.

Certificate scripts produced here are sequences of elementary moves whose
indices refer to the canonical form of each intermediate state; replay
them with :func:`replay_canonical` (apply one move, re-canonicalize,
repeat).  Everything is deterministic for fixed inputs and caps, ties
broken by serialized canonical byte order.

The reduction and the breadth-first search hold each state as its base
count and canonical key, the canonical record's handles with coded
crossing letters (see ``ribbon._canonical_key``), and read its successors
from the key.  A ``RibbonData`` and its text are built only for a state
whose record is returned (the meet) or whose text breaks a tie.
"""

from __future__ import annotations

import time
from functools import cache
from typing import Union

from . import _PUBLIC
from .moves import (
    CancelDelete,
    CrossSlide,
    Destab,
    Move,
    MoveError,
    RemoveTrivialHandle,
    Slide,
    TrivialHandle,
    _moves_of,
    _ranged,
    _successor_triples,
    apply_move,
    is_weak,
    serialize_script,
)
from .quandle import FiniteQuandle, count_colorings, dihedral_quandle
from .ribbon import (
    Handle,
    RibbonData,
    _cancelling,
    _canonical_key,
    _canonical_state,
    _record,
    _require_valid,
    _tupled,
    _Value,
    canonical_form,
    component_count,
    genus,
    reversed_handle,
    serialize,
    validate,
)

__all__ = list(_PUBLIC["search"])


class Equivalent(_Value):
    """Both scripts, tuples of moves, replay (canonically) onto the same
    meeting form, spending the recorded weak moves."""

    script_a: tuple[Move, ...]
    script_b: tuple[Move, ...]
    meet: RibbonData
    weak_used_a: int
    weak_used_b: int


class Refuted(_Value):
    """A recomputable invariant that separates the inputs."""

    invariant: str
    value_a: int
    value_b: int


class Unknown(_Value):
    """The caps ran out: ``states`` canonical states were stored, the
    reduction paths included, and ``depth`` breadth-first levels completed,
    both sides together."""

    states: int
    depth: int


SearchOutcome = Union[Equivalent, Refuted, Unknown]


@cache
def default_gate_quandles() -> tuple[FiniteQuandle, ...]:
    # One shared tuple, so the gate and every other caller reuse each
    # quandle's axiom verdict.
    return (dihedral_quandle(3), dihedral_quandle(5), dihedral_quandle(7))


def _require_comparable(a: RibbonData, b: RibbonData):
    if type(a) is type(b) is RibbonData and a.dim != b.dim:
        raise ValueError(f"dim mismatch: {a.dim} vs {b.dim}")
    for name, d in (("first", a), ("second", b)):
        problems = validate(d)
        if problems:
            raise ValueError(f"{name} input invalid: {problems[0]}")
        if component_count(d) != 1:
            raise ValueError(f"{name} input is not connected")


def _counts_over(q: FiniteQuandle):
    # reads ``count_colorings`` from this module at each call, so whatever
    # rebinds it here sees the gate's counts
    return lambda d: count_colorings(d, q)


# The gate's invariants in the order tried, each as (name, value of a
# record, kept by weak moves).  An entry refutes only where the moves the
# search may apply keep its value: every move keeps a coloring count (the
# quandle of a record is an invariant of its moves, the paper's trivially
# embedded summands included), while a weak move changes the genus by one.
_GATE = tuple((q.name, _counts_over(q), True) for q in default_gate_quandles()) + (("genus", genus, False),)


def invariant_gate(a: RibbonData, b: RibbonData, weak_budget: int):
    """Refute by the first entry of ``_GATE`` whose values on the two
    records differ, skipping the entries weak moves do not keep when
    ``weak_budget`` allows one.  Returns None when nothing separates."""
    _require_comparable(a, b)
    for name, value, kept_by_weak in _GATE:
        if weak_budget > 0 and not kept_by_weak:
            continue
        va, vb = value(a), value(b)
        if va != vb:
            return Refuted(name, va, vb)
    return None


# The search keeps, for each state it stores, the node ``(parent state, the
# move from it, weak moves spent on the way)`` as a plain tuple, the
# root's ``(None, None, 0)``: one is built per stored state.


def _script_to(visited: dict[tuple, tuple], state) -> tuple[Move, ...]:
    """The moves from the root to ``state``."""
    moves = []
    parent, move, _ = visited[state]
    while move is not None:
        moves.append(move)
        parent, move, _ = visited[parent]
    return tuple(moves[::-1])


def _least(states):
    """The state of least serialized canonical form among ``states``, each
    a ``(base_count, key)`` pair, read at dim 2: records of one dimension
    order alike whatever it is, so ties break alike in every search."""
    return min(states, key=lambda state: serialize(_record(2, *state)))


def _size(base_count: int, triples) -> tuple[int, int, int]:
    """What a reduction lowers: bases, then total word letters, then
    handles.  Every relabelling of a record has the same size."""
    return base_count, sum([len(w) for _, w, _ in triples]), len(triples)


# How many levels of states no larger than the root a reduction step reads
# for a smaller one, the root's successors being the first.  Random 3-base
# knots stabilized 6 or 15 times and scrambled by 12 or 30 moves, 8 of
# each, searched at depth 26 or 62: by greedy steps alone, one level, the
# search decided 14 of the 16 in 14 s, with two levels all 16 in 0.2 s.
_PLATEAU_LEVELS = 2


def _reduce(root, limit: int) -> tuple[list[tuple[Move, tuple]], int]:
    """The reduction of a canonical state ``(base_count, key)``, as (move,
    state reached) pairs, and the labellings it performed:
    :func:`_reduction_step` repeated until it finds nothing or would label
    more than ``limit`` states in all.  Every step lowers the size, so the
    reduction ends."""
    path: list[tuple[Move, tuple]] = []
    spent = 0
    state = root
    while True:
        step = _reduction_step(state, limit - spent)
        if step is None or not step[0]:
            return path, spent
        path += step[0]
        spent += step[1]
        state = path[-1][1]


# Reductions of different inputs run into the same small states (the
# trees a stabilized unknot destabilizes through, say), so each state's
# finished step is memoized per process with the labellings it performed;
# a step the limit cut is not.  The memo is emptied when it holds
# _STEPS_HELD states.
_STEPS: dict[tuple, tuple[tuple[tuple[Move, tuple], ...], int]] = {}
_STEPS_HELD = 1 << 10
_steps_info = {"hits": 0, "misses": 0}


def _reduction_step(state, limit: int):
    """The moves of one reduction step from a canonical state
    ``(base_count, key)``, each with the state it reaches, and the
    labellings the step performed; the moves are empty when nothing smaller
    is found.  None when the step would label more than ``limit`` states.

    The step is a breadth-first search over states no larger than the
    root, at most ``_PLATEAU_LEVELS`` levels deep, the root's successors at
    weak budget 0 being the first.  Each level reads the sizes of its
    children from the unlabelled successor triples first, and labels only
    those of least size, in enumeration order, the first move to each state
    winning: the smaller children when some are smaller, else the children
    of the root's size, which the next level expands.  The last level
    labels nothing unless a child is smaller.  The states are canonical, so
    the step does not depend on how the input was numbered.

    The first level is the greedy step: when a child is smaller it labels
    only the first smallest one and takes it.  Destabilizations are
    enumerated first and, at weak budget 0, no other move removes a base;
    each removes one base and one empty handle, so all have one size, the
    least, and the level stops reading at the first.  A deeper level takes
    the least (size, serialized form) of its smaller children."""
    found = _STEPS.get(state)
    if found is not None:
        _steps_info["hits"] += 1
        return found if found[1] <= limit else None
    _steps_info["misses"] += 1
    size = _size(*state)
    reached = {state: ()}  # each state reached, with the moves to it; the first move wins
    frontier = [(state, ())]
    labelled = 0
    path: tuple = ()
    for level in range(_PLATEAU_LEVELS):
        least = size
        smallest: list[tuple] = []  # (moves to the parent, move, base count, triples) of size ``least``
        for (n, key), moves in frontier:
            for move, base_count, triples in _successor_triples(n, key, key, False):
                child_size = _size(base_count, triples)
                if child_size < least:
                    least = child_size
                    smallest = []
                if child_size == least:
                    smallest.append((moves, move, base_count, triples))
                if level == 0 and type(move) is Destab:
                    break
        if least == size and level == _PLATEAU_LEVELS - 1:
            break
        if least < size and level == 0:
            del smallest[1:]
        labelled += len(smallest)
        if labelled > limit:
            return None
        frontier = []
        for moves, move, base_count, triples in smallest:
            child = base_count, _canonical_key(base_count, triples)
            to = moves + ((move, child),)
            if reached.setdefault(child, to) is to:
                frontier.append((child, to))
        if least < size:
            path = frontier[0][1] if len(frontier) == 1 else reached[_least([child for child, _ in frontier])]
            break
    found = path, labelled
    if len(_STEPS) >= _STEPS_HELD:
        _STEPS.clear()
    _STEPS[state] = found
    return found


def search_equiv(
    a: RibbonData,
    b: RibbonData,
    depth: int,
    weak_budget: int,
    state_cap: int,
    stats: dict | None = None,
) -> SearchOutcome:
    """Decide equivalence at bounded depth.

    :func:`invariant_gate` runs first: it refutes by the first invariant
    in ``_GATE`` that separates the inputs and that the allowed moves
    keep, a coloring count at any ``weak_budget`` and the genus only at 0.
    Each side's canonical form is then reduced (see :func:`_reduce`) at
    weak budget 0, whatever ``weak_budget`` is.  Every state on a
    reduction path is stored, so the sides may meet anywhere on either
    path; when the paths themselves share states, the least serialized one
    is the meet.  The breadth-first search then starts from each side's
    root, and a path state it reaches joins the next frontier as a new
    state would: each side explores what a search from its root alone
    would, and the sides also meet where one reaches the other's path.  A
    certificate script is its side's reduction, or the part of it up to
    the state the search left from, followed by its side's search moves,
    so it can be longer than ``depth``.

    States are stored as their base count and canonical key (see
    ``ribbon._canonical_key``), and successors are read from the key, so
    no record is built for a state the search only stores or expands.  A
    record is built where one is read: the meet, and the candidates of a
    tie broken by serialized form.

    ``depth`` caps the breadth-first levels of both sides together,
    ``weak_budget`` the weak moves (trivial handles attached or removed)
    on each side separately, and ``state_cap`` the canonical states
    stored, reduction paths included.  The reductions spend at most the
    cap less the two roots, side A first, one for each state they label (a
    step labels the children of least size of each level it reaches, the
    first of them alone when the root has a smaller successor), and stop
    at the step that would spend more, before it labels past what is left;
    a step cut at its second level has labelled its first, which is not
    spent.
    The search tests the cap before each new state.  So a search stores
    at most the larger of the cap and 2.  The smaller frontier is expanded
    level by level and levels are completed before meets are resolved.

    When a dict is supplied as ``stats``, it is filled in with how the
    search went: ``reduced``, the reduction moves per side; ``levels``,
    one ``[side, frontier size]`` pair per breadth-first level in the
    order expanded (side ``"a"`` or ``"b"``; the size counts the new
    states of that level); ``states``, the states stored per side;
    ``stop``, why the search ended: ``gate`` (the invariant gate refuted),
    ``met`` (the sides met), ``depth`` (the depth limit was reached) or
    ``cap`` (the state cap was reached); and ``seconds``, the time spent
    in the ``gate``, in the ``reduction`` (the roots' canonical forms
    included) and in the breadth-first ``search``, 0.0 for a phase not
    reached.

    An ``Unknown`` outcome's ``states`` counts every stored state, the
    reduction paths included, and its ``depth`` the breadth-first levels
    completed on both sides.  A level the state cap stopped is listed in
    ``levels`` but not counted.
    """
    for name, value, least in (("depth", depth, 0), ("weak budget", weak_budget, 0), ("state cap", state_cap, 1)):
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an integer")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    if stats is not None and not isinstance(stats, dict):
        raise ValueError(f"stats {stats!r} is not a dict")
    levels: list[list] = []
    sides = []
    # the time per phase, read only when ``stats`` is asked for
    seconds = {"gate": 0.0, "reduction": 0.0, "search": 0.0}
    phase = "gate"
    started = time.perf_counter() if stats is not None else 0.0

    def enter(next_phase: str):
        nonlocal phase, started
        if stats is not None:
            now = time.perf_counter()
            seconds[phase] += now - started
            started = now
        phase = next_phase

    def stop(reason: str, outcome: SearchOutcome) -> SearchOutcome:
        enter(phase)
        if stats is not None:
            visited = [len(side["visited"]) for side in sides] or [0, 0]
            reduced = [side["reduced"] for side in sides] or [0, 0]
            stats.update(
                reduced={"a": reduced[0], "b": reduced[1]},
                levels=levels,
                states={"a": visited[0], "b": visited[1]},
                stop=reason,
                seconds=seconds,
            )
        return outcome

    def met(states) -> SearchOutcome:
        meet = _least(states)
        return stop(
            "met",
            Equivalent(
                _script_to(sides[0]["visited"], meet),
                _script_to(sides[1]["visited"], meet),
                _record(a.dim, *meet),
                sides[0]["visited"][meet][2],
                sides[1]["visited"][meet][2],
            ),
        )

    refuted = invariant_gate(a, b, weak_budget)
    if refuted is not None:
        return stop("gate", refuted)

    enter("reduction")
    roots = [_canonical_state(a), _canonical_state(b)]
    same = roots[0] == roots[1]
    labelled = 2  # the roots
    for root in roots:
        state = root
        visited = {root: (None, None, 0)}
        path, spent = ([], 0) if same else _reduce(root, state_cap - labelled)
        for move, reached in path:
            visited[reached] = (state, move, 0)
            state = reached
        # the search starts from the root; a path state joins a frontier
        # when the search reaches it
        unexpanded = set(visited) - {root}
        sides.append({"visited": visited, "frontier": [root], "unexpanded": unexpanded, "level": 0, "reduced": len(path)})
        labelled += spent
    states = len(sides[0]["visited"]) + len(sides[1]["visited"])
    meets = sides[0]["visited"].keys() & sides[1]["visited"].keys()
    if meets:
        return met(meets)

    enter("search")
    while sides[0]["level"] + sides[1]["level"] < depth:
        idx = 0 if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else 1
        me, other = sides[idx], sides[1 - idx]
        visited = me["visited"]

        new_states: list[tuple] = []
        reached: list[tuple] = []
        cap_hit = False
        for state in me["frontier"]:
            n, key = state
            weak = visited[state][2]
            # each child is labelled as it is read, so a level the cap cuts
            # labels nothing past the child that hit it
            for move, count, triples in _successor_triples(n, key, key, weak_budget > weak):
                child = count, _canonical_key(count, triples)
                if child in visited:
                    if child in me["unexpanded"]:
                        me["unexpanded"].discard(child)
                        reached.append(child)
                    continue
                if states >= state_cap:
                    cap_hit = True
                    break
                visited[child] = (state, move, weak + is_weak(move))
                new_states.append(child)
                states += 1
            if cap_hit:
                break
        me["frontier"] = new_states + reached
        if not cap_hit:
            me["level"] += 1
        levels.append(["ab"[idx], len(new_states)])

        meets = [child for child in new_states if child in other["visited"]]
        if meets:
            return met(meets)
        if cap_hit:
            return stop("cap", Unknown(states, sides[0]["level"] + sides[1]["level"]))
    return stop("depth", Unknown(states, sides[0]["level"] + sides[1]["level"]))


def replay_canonical(data: RibbonData, script) -> RibbonData:
    """Replay a certificate script, any sequence of moves: canonicalize,
    then alternate one move with one re-canonicalization."""
    state = canonical_form(data)
    for move in _moves_of(script):
        state = canonical_form(apply_move(state, move))
    return state


def certify(a: RibbonData, b: RibbonData, outcome: SearchOutcome, diagnostics: list | None = None) -> bool:
    """Independently replay an Equivalent outcome and compare the meeting
    forms byte for byte, along with the recorded weak accounting.  Replay
    failures return False, with the reason appended to ``diagnostics``
    when a list is supplied."""
    if not isinstance(outcome, Equivalent):
        raise ValueError("certify requires an Equivalent outcome")
    if diagnostics is not None and not isinstance(diagnostics, list):
        raise ValueError(f"diagnostics {diagnostics!r} is not a list")

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
    # both replays succeeded, so every entry is a move
    used = (sum(map(is_weak, outcome.script_a)), sum(map(is_weak, outcome.script_b)))
    if used != (outcome.weak_used_a, outcome.weak_used_b):
        note("weak-handle accounting does not match the scripts")
        return False
    return True


def serialize_outcome(outcome: SearchOutcome) -> str:
    """The outcome's head line, then each side's script under its own
    ``--- script`` line; only an ``Equivalent`` outcome has moves.
    ``ValueError`` on a value that is not a search outcome."""
    scripts = "", ""
    if isinstance(outcome, Equivalent):
        head = "EQUIVALENT"
        scripts = serialize_script(outcome.script_a), serialize_script(outcome.script_b)
    elif isinstance(outcome, Refuted):
        head = f"REFUTED {outcome.invariant} {outcome.value_a} {outcome.value_b}"
    elif isinstance(outcome, Unknown):
        head = f"UNKNOWN {outcome.states} {outcome.depth}"
    else:
        raise ValueError(f"{outcome!r} is not a search outcome")
    return f"{head}\n--- script A\n{scripts[0]}--- script B\n{scripts[1]}"


# ---------------------------------------------------------------------------
# constructive macros


def _scripted(data: RibbonData):
    state = data
    script: list[Move] = []

    def do(move: Move):
        nonlocal state
        state = apply_move(state, move)
        script.append(move)

    return (lambda: state), do, script


def macro_merge_bases(data: RibbonData, doomed: int, survivor: int, route):
    """Absorb one base into another through a trivial handle.

    Attach a trivial handle on the ``doomed`` base, slide its far end along
    ``route``, a sequence of ``(handle, direction)`` slide steps that must
    avoid the doomed base and end on the ``survivor`` (so it is never
    empty, the two bases being distinct), reroute every crossing of
    the doomed base through it, slide every other handle end off the
    doomed base, and reduce.  When the realized route (the traversed
    crossing words) is empty the doomed base destabilizes away entirely;
    otherwise the merging handle remains and the doomed base is left bare
    (degree one, crossed by nothing).  Handles that the macro itself
    rendered trivial are removed.  Returns the transformed data and the
    replayable script, a tuple of moves.
    """
    _require_valid(data)
    _ranged("doomed base", doomed, 1, data.base_count)
    _ranged("survivor base", survivor, 1, data.base_count)
    if doomed == survivor:
        raise ValueError("doomed and survivor must differ")
    steps = _tupled(route)
    if type(steps) is not tuple or not all([type(step) is tuple and len(step) == 2 for step in steps]):
        raise ValueError(f"route {route!r} is not a sequence of (handle, direction) pairs")

    current, do, script = _scripted(data)
    original = data.handles
    merge_idx = len(original) + 1

    do(TrivialHandle(doomed))

    position = doomed
    for along, direction in steps:
        _ranged("route handle", along, 1, len(original))
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
    if position != survivor:
        raise ValueError(f"route ends on base {position}, not on survivor {survivor}")

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
            pos = next((p for p in range(len(word) - 1) if _cancelling(word[p], word[p + 1])), None)
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

    return current(), tuple(script)


def macro_clone_handle(data: RibbonData, template: Handle):
    """Duplicate a handle of the presentation.

    A trivial handle attached at the template's start slides along the
    matching handle, producing an exact copy.  The template must equal an
    existing handle up to reversal; the copy's relation is then already a
    consequence, so every coloring count is preserved while the genus goes
    up by one.
    """
    _require_valid(data)
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
    return current(), tuple(script)

