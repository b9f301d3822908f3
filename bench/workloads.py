"""The benchmark's workloads: the fixed operation list of one pass, how
each operation runs, and the checks on its output.

An operation is one search pair or one invariant command on one input.
Its inputs arrive as ``ribbon 1`` text and are parsed inside the
operation, as the command line would.  Operations call the library
through module attributes so that the traced run sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ribbonlab import alexander, quandle, ribbon, search

import inputs
import oracles

COLOR_QUANDLES = ("dihedral:3", "dihedral:5", "dihedral:7", "dihedral:11", "s4-transpositions")
# Seeded coloring inputs make a backtracking count branch on exactly this
# many bases (see inputs.branching_bases).  The cost of a count grows like
# m ** branches, so fixing it keeps every pass about the same amount of
# work: at the parent commit one dihedral:11 count on a 9-14-base input
# takes up to 0.02 s with 3 branches, 0.1 s with 4, 2 s with 6 and
# minutes with 7 or more.
COLOR_BRANCHES = 3
# Seeded Alexander-only inputs have 16 bases and an expansion of this size
# (see inputs.expansion_states), which takes 0.05-0.15 s at the parent
# commit; without the band one 16-base input ranges from 0.03 to 0.3 s.
ALEX_BASES = 16
ALEX_STATES = (2000, 3500)
# The exponential cliffs of the parent commit: per pass, one 14-base
# dihedral:7 count that branches on 6 bases (7-270 ms) and two 20-base
# Alexander polynomials (0.25-0.35 s each).
CLIFF_BRANCHES = 6
CLIFF_ALEX_BASES = 20
CLIFF_ALEX_STATES = (5000, 8000)
# Caps of the search-open pairs.  The state cap is never reached: an open
# pair stores 50-70 states by depth 4, so every open search does the whole
# breadth of its depth (30-60 ms at the parent commit).  Cut by a cap, the
# work of one pair depended on how full the level the cap fell in was, and
# ranged from 0.02 to 3 s.
OPEN_DEPTH = 4
OPEN_CAP = 2000
# Invariants of the spun trefoil, whose group is the trefoil group:
# determinant 3, so p colorings by dihedral:p for p = 5, 7, 11 and 9 by
# dihedral:3; 6 constant plus 24 onto-S3 colorings by transpositions of S4.
SPUN_TREFOIL_RECORDED = {"dihedral:3": 9, "dihedral:5": 5, "dihedral:7": 7, "dihedral:11": 11,
                         "s4-transpositions": 30, "alexander": "t^2 - t + 1"}


class KnownDefect(str):
    """The reason a check failed, where the failure is a defect that the
    library's own source documents (ROADMAP defect (c)).  Runs count and
    print these apart from failures, so that ``correct`` speaks to what
    the library promises while the defect still shows in every run's
    output."""


@dataclass
class Op:
    kind: str  # "search" | "canon" | "color" | "alex"
    label: str
    texts: tuple[str, ...]
    params: dict = field(default_factory=dict)

    def cli_args(self, paths) -> list[str]:
        """Arguments of the equivalent ``python -m ribbonlab.cli`` call."""
        p = self.params
        if self.kind == "search":
            return ["search", *paths, "--depth", str(p["depth"]), "--weak", str(p["weak"]),
                    "--states", str(p["cap"])]
        if self.kind == "color":
            return ["color", paths[0], "--quandle", p["quandle_arg"]]
        return [self.kind, paths[0]]


def s4_transpositions():
    """Conjugation on the six transpositions of S4: a 6-element quandle
    that is not affine, so an affine fast path cannot count it."""
    swaps = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def perm(swap):
        p = list(range(4))
        p[swap[0]], p[swap[1]] = p[swap[1]], p[swap[0]]
        return tuple(p)

    elems = [perm(s) for s in swaps]
    # transpositions are involutions, so y^-1 x y = y x y
    table = [[elems.index(tuple(y[x[y[i]]] for i in range(4))) + 1 for y in elems] for x in elems]
    return quandle.FiniteQuandle("s4-transpositions", table)


def build_quandles():
    named = {f"dihedral:{m}": quandle.dihedral_quandle(m) for m in (3, 5, 7, 11)}
    named["s4-transpositions"] = s4_transpositions()
    return named


def _text(data) -> str:
    return ribbon.serialize(data)


def _search(label, a, b, depth, weak, cap, expect):
    return Op("search", label, (_text(a), _text(b)),
              {"depth": depth, "weak": weak, "cap": cap, "expect": expect})


def _open_pair(rng, gate, unknot_profile):
    """Two random 3-base knots with the unknot's gate profile and
    different Alexander polynomials: the gate cannot separate them and no
    search may certify them, so the search runs to its depth limit."""
    found = {}
    while len(found) < 2:
        knot = inputs.random_knot(rng, 3, 2)
        if quandle.coloring_profile(knot, gate) == unknot_profile:
            found.setdefault(str(alexander.alexander_polynomial(knot)), knot)
    return tuple(found.values())


def _knot_with(rng, bases, accept):
    while True:
        knot = inputs.random_knot(rng, bases, rng.randint(1, 2))
        if accept(knot):
            return knot


def build_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The operation list of pass ``pass_index`` of ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    unknot = inputs.UNKNOT
    # Class sizes put the median latency mid-way through one class and the
    # tail (the 11th largest of a block) inside a class that has more than
    # 11 members per block, so neither sits on a class boundary.
    # The classes whose cost varies most from input to input and that have
    # few members per block (k=5 and k=6 stabilizations, the two cliffs of
    # invariants) are drawn from the pass number alone and are the same on
    # every seed, so that a handful of inputs does not decide a run.
    # Each workload ends with one small command of a layer it otherwise
    # bypasses (an Alexander polynomial on the search workloads, a torus:1
    # search on invariants), so that every per-layer figure is measured on
    # every workload and none reads a constant 0.
    fixed = random.Random(f"{workload}:cliff:{pass_index}")
    if workload == "search-equiv":
        # The k=5 and k=6 pairs run first: the pairs against the unknot
        # share its side's states through the canonical-form cache, so
        # run after seeded pairs their cost would depend on the seed.  A
        # k=6 pair (3.5-5 s) runs in every other pass, so that a block has
        # time for 30 k=5 pairs and its tail falls among them.
        ops = [_search(f"torus{g}", inputs.torus(g), unknot, g, g, 50_000, "equivalent") for g in (1, 2)]
        for k, copies in ((5, 6), (6, 1 - pass_index % 2)):
            for _ in range(copies):
                ops.append(_search(f"stab{k}", inputs.stabilized(fixed, k), unknot, k, 0, 50_000, "equivalent"))
        for _ in range(2):
            ops.append(_search("spun", inputs.scramble(inputs.stabilize_once(inputs.SPUN_TREFOIL, rng), rng, 2),
                               inputs.SPUN_TREFOIL, 3, 0, 50_000, "equivalent"))
        for _ in range(4):
            knot = inputs.random_knot(rng, 3, 2)
            ops.append(_search("knot3", inputs.scramble(inputs.stabilize_once(knot, rng), rng, 2),
                               knot, 3, 0, 50_000, "equivalent"))
        for k, copies in ((3, 2), (4, 26)):
            for _ in range(copies):
                ops.append(_search(f"stab{k}", inputs.stabilized(rng, k), unknot, k, 0, 50_000, "equivalent"))
        ops.append(Op("alex", "alex-spun", (_text(inputs.SPUN_TREFOIL),)))
        return ops
    if workload == "search-open":
        gate = search.default_gate_quandles()
        profile = quandle.coloring_profile(unknot, gate)
        ops = [_search(f"torus{g}-refuted", inputs.torus(g), unknot, OPEN_DEPTH, 0, OPEN_CAP, "refuted")
               for g in (1, 2)]
        ops.append(_search("spun-refuted", inputs.SPUN_TREFOIL, unknot, OPEN_DEPTH, 0, OPEN_CAP, "refuted"))
        for _ in range(27):
            ops.append(_search("spun-refuted", inputs.scramble(inputs.stabilize_once(inputs.SPUN_TREFOIL, rng), rng, 2),
                               unknot, OPEN_DEPTH, 0, OPEN_CAP, "refuted"))
        for _ in range(12):
            a, b = _open_pair(rng, gate, profile)
            ops.append(_search("knot3-open", a, b, OPEN_DEPTH, 0, OPEN_CAP, "open"))
        ops.append(Op("alex", "alex3-open", (_text(a),)))
        return ops
    if workload == "invariants":
        ops = []
        for bases in (9, 10, 11, 12, 13, 14) * 2:
            knot = _knot_with(rng, bases, lambda k: inputs.branching_bases(k) == COLOR_BRANCHES)
            relabelled = inputs.relabel(knot, rng)
            ops.append(Op("canon", f"canon{bases}", (_text(knot),)))
            ops.append(Op("canon", f"canon{bases}-relabelled", (_text(relabelled),),
                          {"same_as": len(ops) - 1}))
            for name in COLOR_QUANDLES:
                ops.append(Op("color", f"color{bases}/{name}", (_text(knot),), {"quandle": name}))
            ops.append(Op("alex", f"alex{bases}", (_text(knot),)))
        for _ in range(6):
            knot = _knot_with(rng, ALEX_BASES,
                              lambda k: ALEX_STATES[0] <= inputs.expansion_states(k) <= ALEX_STATES[1])
            ops.append(Op("alex", f"alex{ALEX_BASES}", (_text(knot),)))
        knot = _knot_with(fixed, 14, lambda k: inputs.branching_bases(k) == CLIFF_BRANCHES)
        ops.append(Op("color", "cliff14/dihedral:7", (_text(knot),), {"quandle": "dihedral:7"}))
        for _ in range(2):
            knot = _knot_with(fixed, CLIFF_ALEX_BASES,
                              lambda k: CLIFF_ALEX_STATES[0] <= inputs.expansion_states(k) <= CLIFF_ALEX_STATES[1])
            ops.append(Op("alex", f"cliff-alex{CLIFF_ALEX_BASES}", (_text(knot),)))
        ops.append(_search("torus1", inputs.torus(1), unknot, 1, 1, 50_000, "equivalent"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: Op, quandles) -> tuple[str, object]:
    """Run one operation; returns its command-line output text and the
    raw result."""
    if op.kind == "search":
        p = op.params
        a = ribbon.parse_ribbon(op.texts[0])
        b = ribbon.parse_ribbon(op.texts[1])
        outcome = search.search_equiv(a, b, p["depth"], p["weak"], p["cap"])
        return search.serialize_outcome(outcome), outcome
    data = ribbon.parse_ribbon(op.texts[0])
    if op.kind == "canon":
        form = ribbon.canonical_form(data)
        return ribbon.serialize(form), form
    if op.kind == "color":
        count = quandle.count_colorings(data, quandles[op.params["quandle"]])
        return f"{count}\n", count
    poly = alexander.alexander_polynomial(data)
    return f"{poly}\n", poly


def is_decided(op: Op, result) -> bool:
    if op.kind == "search":
        return isinstance(result, (search.Equivalent, search.Refuted))
    return True


def check(op: Op, output: str, result, outputs: list, quandles) -> str | None:
    """None when the output of ``op`` is right, else the reason."""
    if op.kind == "search":
        a = ribbon.parse_ribbon(op.texts[0])
        b = ribbon.parse_ribbon(op.texts[1])
        expect = op.params["expect"]
        if isinstance(result, search.Equivalent):
            notes = []
            if expect == "open":
                return "certified a pair whose Alexander polynomials differ"
            if not search.certify(a, b, result, notes):
                return f"certificate does not replay: {notes}"
        elif isinstance(result, search.Refuted):
            if expect == "equivalent":
                return "refuted a pair that is equivalent by construction"
            if result.invariant == "genus":
                values = (oracles.genus(a), oracles.genus(b))
            else:
                table = _table(quandles[result.invariant])
                values = (oracles.brute_force_count(a, table), oracles.brute_force_count(b, table))
            if values != (result.value_a, result.value_b) or values[0] == values[1]:
                return f"refutation by {result.invariant} does not recompute: {values}"
        return None
    data = ribbon.parse_ribbon(op.texts[0])
    if op.kind == "canon":
        if "same_as" in op.params and output != outputs[op.params["same_as"]]:
            if inputs.canonical_fallback(data):
                return KnownDefect("canonical bytes differ under relabelling, in the fallback that "
                                   "canonical_form documents as not relabel-invariant (ROADMAP defect (c))")
            return "canonical bytes differ under relabelling"
        return None
    if op.kind == "color":
        name = op.params["quandle"]
        if name.startswith("dihedral:"):
            expected = oracles.dihedral_count(data, int(name.split(":")[1]))
        else:
            expected = oracles.propagated_count(data, _table(quandles[name]))
        if result != expected:
            return f"{name} count {result}, expected {expected}"
        return None
    if not oracles.alexander_matches(data, output.strip()):
        return "Alexander polynomial disagrees with the Fox minor"
    return None


def _table(q):
    return [[v - 1 for v in row] for row in q.table]


def cross_check(workload: str, ops: list[Op], outputs: list, quandles) -> list:
    """Once per run, on the smaller inputs: brute-force colorings and a
    sympy Alexander polynomial against the library's outputs, and both
    against the values recorded for the spun trefoil."""
    failures = []
    spun = inputs.SPUN_TREFOIL
    for name, q in quandles.items():
        found = {quandle.count_colorings(spun, q), oracles.brute_force_count(spun, _table(q))}
        if found != {SPUN_TREFOIL_RECORDED[name]}:
            failures.append([-1, "spun-trefoil", f"{name} counts {sorted(found)}"])
    found = {str(alexander.alexander_polynomial(spun)), oracles.sympy_alexander(spun)}
    if found != {SPUN_TREFOIL_RECORDED["alexander"]}:
        failures.append([-1, "spun-trefoil", f"Alexander polynomials {sorted(found)}"])

    def first(label):
        return next((i for i, op in enumerate(ops) if op.label == label and outputs[i] is not None), None)

    if workload == "invariants":
        i = first("color9/dihedral:3")
        if i is not None:
            data = ribbon.parse_ribbon(ops[i].texts[0])
            count = oracles.brute_force_count(data, _table(quandles["dihedral:3"]))
            if f"{count}\n" != outputs[i]:
                failures.append([i, ops[i].label, f"brute force counts {count}"])
        i = first("alex9")
        if i is not None:
            poly = oracles.sympy_alexander(ribbon.parse_ribbon(ops[i].texts[0]))
            if f"{poly}\n" != outputs[i]:
                failures.append([i, ops[i].label, f"sympy gives {poly}"])
    elif workload == "search-open":
        i = first("knot3-open")
        if i is not None:
            a, b = (oracles.sympy_alexander(ribbon.parse_ribbon(text)) for text in ops[i].texts)
            if a == b:
                failures.append([i, ops[i].label, f"sympy finds the same Alexander polynomial {a}"])
    return failures
