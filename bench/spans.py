"""Span recorder for the traced run.

The recorder rebinds public library functions at every module attribute
that holds them (their import sites), so calls made inside the library
are recorded as well as calls made by the benchmark.  Each call becomes a
span ``[name, start, end, parent, op, args, result]`` kept in memory; the
per-layer figures are computed from the spans after the timed pass, so
the only cost inside the timed region is the wrapper itself.  The
untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("ribbonlab", "ribbonlab.ribbon", "ribbonlab.moves", "ribbonlab.quandle",
           "ribbonlab.alexander", "ribbonlab.search", "ribbonlab.cli")

_APPLY = ("apply_stabilize", "apply_destabilize", "apply_cancel_insert", "apply_cancel_delete",
          "apply_slide", "apply_cross_slide", "apply_trivial_handle", "remove_trivial_handle",
          "reverse_handle")

# (module, function, span name, keep arguments and result for analysis)
TRACED = (
    [("ribbonlab.ribbon", "parse_ribbon", "ribbon.parse_ribbon", False),
     ("ribbonlab.ribbon", "serialize", "ribbon.serialize", False),
     ("ribbonlab.ribbon", "canonical_form", "ribbon.canonical_form", True),
     ("ribbonlab.moves", "enumerate_moves", "moves.enumerate_moves", True)]
    + [("ribbonlab.moves", name, "moves.apply", False) for name in _APPLY]
    + [("ribbonlab.quandle", "count_colorings", "quandle.count_colorings", False),
       ("ribbonlab.quandle", "check_quandle_axioms", "quandle.check_quandle_axioms", False),
       ("ribbonlab.alexander", "alexander_polynomial", "alexander.alexander_polynomial", False),
       ("ribbonlab.search", "search_equiv", "search.search_equiv", True),
       ("ribbonlab.search", "invariant_gate", "search.invariant_gate", False)]
)

OP_SPAN = "bench.op"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def call(self, name, fn, args, kwargs, keep):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if keep:
            span[5] = args
            span[6] = result
        return result

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        return self.call(OP_SPAN, fn, args, {}, False)


def install(recorder: Recorder):
    """Rebind every traced function at all its import sites; returns a
    function that restores the originals."""
    wrappers = {}
    for module_name, attr, name, keep in TRACED:
        fn = getattr(importlib.import_module(module_name), attr)

        def wrapper(*args, _fn=fn, _name=name, _keep=keep, **kwargs):
            return recorder.call(_name, _fn, args, kwargs, _keep)

        wrappers[id(fn)] = (fn, wrapper)
    rebound = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                rebound.append((module, attr, value))

    def restore():
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return restore


def summarize(spans: list[list]) -> dict:
    """Per-layer counts and self times of one traced pass.

    Call after ``restore``: the analysis calls library functions
    (``free_reduce``, ``serialize``, ``canonical_form``) that must not be
    recorded.  Self time is a span's duration minus its direct children.
    """
    from ribbonlab.ribbon import canonical_form, free_reduce, serialize
    from ribbonlab.search import Equivalent, Unknown

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        self_s[span[0]] += span[2] - span[1] - child_time[i]

    seen_inputs = set()
    repeats = 0
    for span in spans:
        if span[0] == "ribbon.canonical_form":
            key = free_reduce(span[5][0])
            repeats += key in seen_inputs
            seen_inputs.add(key)

    by_op = defaultdict(list)
    for span in spans:
        if span[0] in ("moves.enumerate_moves", "search.search_equiv"):
            by_op[span[4]].append(span)
    successors = revisits = searches = states = 0
    for op_spans in by_op.values():
        returned = set()
        sides = None
        for span in op_spans:
            if span[0] == "search.search_equiv":
                searches += 1
                outcome = span[6]
                if isinstance(outcome, Unknown):
                    states += outcome.states
                elif isinstance(outcome, Equivalent):
                    a, b = span[5][0], span[5][1]
                    sides = ({serialize(canonical_form(a))}, {serialize(canonical_form(b))})
                continue
            keys = [serialize(state) for _, state in span[6]]
            successors += len(keys)
            revisits += sum(k in returned for k in keys)
            returned.update(keys)
        if sides is not None:
            # Replay the stored-state bookkeeping: every successor of an
            # expanded state joins that state's side.
            for span in op_spans:
                if span[0] == "moves.enumerate_moves":
                    side = sides[0] if serialize(span[5][0]) in sides[0] else sides[1]
                    side.update(serialize(state) for _, state in span[6])
            states += len(sides[0]) + len(sides[1])

    layer_self = sum(t for name, t in self_s.items() if name != OP_SPAN)
    return {
        "calls": dict(calls),
        "self_ms": {name: t * 1000 for name, t in self_s.items()},
        "layer_self_ms": layer_self * 1000,
        "canonical_repeats": repeats,
        "successors": successors,
        "revisits": revisits,
        "searches": searches,
        "states": states,
    }
