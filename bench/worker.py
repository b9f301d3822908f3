"""One pass of a workload in a fresh interpreter.

Usage (from ``run.py``): ``python bench/worker.py '<json config>'``.
Builds the pass's inputs, writes them as ``ribbon 1`` files and reads
them back, runs every operation once in order, then checks the outputs
outside the timed region and prints one JSON object.  A fresh process per
pass keeps the library's canonical-form cache cold at the start of every
pass, the same on every commit.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Operations whose command-line form the run repeats as subprocesses.
CLI_LABELS = {
    "search-equiv": ("torus1", "spun", "knot3", "stab3"),
    "search-open": ("torus1-refuted", "spun-refuted", "torus2-refuted", "knot3-open"),
    "invariants": ("canon9", "color9/dihedral:3", "color9/s4-transpositions", "alex9"),
}
EXIT_CODES = {"Equivalent": 0, "Refuted": 3, "Unknown": 2}
# A calibration sample is taken before the first operation, after the
# last, and between operations once this much operation time has passed.
CALIBRATION_EVERY_S = 0.1
_CAL_HANDLES = ((1, ((2, 1), (3, -1)), 2), (2, ((4, 1),), 3), (3, ((1, -1), (5, 1)), 4),
                (4, ((6, 1),), 5), (5, ((2, -1),), 6), (6, ((3, 1), (1, 1)), 1))


def calibrate() -> float:
    """Milliseconds of fixed pure-Python work shaped like the library's:
    relabelling keys (as ``canonical_form``), an exhaustive count of
    solutions mod 5 (as ``count_colorings``) and products of polynomials
    held in dicts (as ``alexander_polynomial``).  It calls no library
    code, so it does the same work on every commit, and its time follows
    how fast the machine runs Python just then."""
    start = time.perf_counter()
    best = None
    for perm in itertools.permutations(range(1, 7)):
        p = (0,) + perm
        key = tuple(sorted((p[s], tuple((p[b], g) for b, g in w), p[e]) for s, w, e in _CAL_HANDLES))
        if best is None or key < best:
            best = key
    solutions = sum(1 for x in itertools.product(range(5), repeat=5)
                    if (2 * x[0] - x[1] + x[2]) % 5 == x[3] and (x[1] + 2 * x[4]) % 5 == x[0])
    poly = {0: 1}
    for _ in range(30):
        product = {}
        for e, c in poly.items():
            for de, dc in ((0, 1), (1, -1), (2, 1)):
                product[e + de] = product.get(e + de, 0) + c * dc
        poly = product
    assert solutions and poly[0] == 1
    return (time.perf_counter() - start) * 1000


def main():
    cfg = json.loads(sys.argv[1])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    started = time.perf_counter()
    import ribbonlab.cli  # noqa: F401  (the package imports its command line)

    import_ms = (time.perf_counter() - started) * 1000
    from ribbonlab.quandle import serialize_quandle

    import workloads

    ops = workloads.build_ops(cfg["workload"], cfg["seed"], cfg["pass"])
    if cfg["tiny"]:
        ops = ops[:1]
    work = ROOT / cfg["work_dir"]
    work.mkdir(parents=True, exist_ok=True)
    quandles = workloads.build_quandles()
    s4_path = work / "s4.quandle"
    s4_path.write_text(serialize_quandle(quandles["s4-transpositions"]), encoding="utf-8")
    paths = []
    for i, op in enumerate(ops):
        op_paths = [work / f"op{i}-{j}.ribbon" for j in range(len(op.texts))]
        for path, text in zip(op_paths, op.texts):
            path.write_text(text, encoding="utf-8")
        op.texts = tuple(path.read_text(encoding="utf-8") for path in op_paths)
        paths.append([str(path.relative_to(ROOT)) for path in op_paths])
        if op.kind == "color":
            name = op.params["quandle"]
            op.params["quandle_arg"] = name if name.startswith("dihedral:") else str(s4_path.relative_to(ROOT))
    setup_s = time.time() - cfg["launched"]

    recorder = None
    if cfg["trace"]:
        import spans

        recorder = spans.Recorder()
        restore = spans.install(recorder)
    outputs, results, errors, latencies = [], [], [], []
    calibration_ms = [calibrate()]
    since_calibration = 0.0
    for i, op in enumerate(ops):
        if since_calibration >= CALIBRATION_EVERY_S * 1000:
            calibration_ms.append(calibrate())
            since_calibration = 0.0
        t0 = time.perf_counter()
        try:
            if recorder is None:
                output, result = workloads.run_op(op, quandles)
            else:
                output, result = recorder.run_op(i, workloads.run_op, op, quandles)
            error = None
        except Exception as exc:  # a failed operation is a measurement, not a crash
            output, result, error = None, None, f"{type(exc).__name__}: {exc}"
        latencies.append((time.perf_counter() - t0) * 1000)
        since_calibration += latencies[-1]
        outputs.append(output)
        results.append(result)
        errors.append(error)
    wall_s = sum(latencies) / 1000
    calibration_ms.append(calibrate())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if recorder is not None:
        restore()
        layers = spans.summarize(recorder.spans)

    failures, known_defects = [], []
    for i, op in enumerate(ops):
        reason = errors[i]
        if reason is None:
            try:
                reason = workloads.check(op, outputs[i], results[i], outputs, quandles)
            except Exception as exc:  # a check that cannot run fails the operation
                reason = f"check raised {type(exc).__name__}: {exc}"
        if isinstance(reason, workloads.KnownDefect):
            known_defects.append([i, op.label, reason])
        elif reason is not None:
            failures.append([i, op.label, reason])
    if cfg["crosscheck"]:
        failures += workloads.cross_check(cfg["workload"], ops, outputs, quandles)

    cli = []
    if cfg["cli"]:
        for label in CLI_LABELS[cfg["workload"]]:
            i = next((i for i, op in enumerate(ops) if op.label == label and errors[i] is None), None)
            if i is None:
                continue
            code = EXIT_CODES[type(results[i]).__name__] if ops[i].kind == "search" else 0
            cli.append({"args": ops[i].cli_args(paths[i]), "stdout": outputs[i], "code": code})

    print(json.dumps({
        "setup_s": setup_s,
        "import_ms": import_ms,
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "labels": [op.label for op in ops],
        "decided": sum(workloads.is_decided(op, r) for op, r, e in zip(ops, results, errors) if e is None),
        "failures": failures,
        "known_defects": known_defects,
        "rss_mb": rss_mb,
        "calibration_ms": calibration_ms,
        "cli": cli,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
