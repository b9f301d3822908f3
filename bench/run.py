"""Benchmark for ribbonlab, run from the root of a checkout.

    python3 bench/run.py --workload search-equiv --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

A run repeats *blocks* of the workload while a whole block still fits in
``--seconds`` seconds; it always runs at least one.  A block is the
workload's fixed set of operations: passes 0..n-1 of the seed, each a
fresh interpreter (``bench/worker.py``) that builds its pass's inputs and
runs their operations once, closed loop, on one thread.  Every block of a
run has the same inputs.  With ``--trace 0`` the run also times a fixed
number of the same operations through ``python -m ribbonlab.cli`` in each
block and prints the end-to-end metrics, their times scaled for the host's
speed (see ``REFERENCE_CALIBRATION_MS``); with ``--trace 1`` every pass is
run twice, untraced and traced in alternating order, and the run prints
the per-layer metrics.
The last line of standard output is one JSON object.  Metric names and
units come from ``BENCHMARK.json``.  ``--smoke`` runs one operation per
workload in both modes and checks that every metric is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PASS_TIMEOUT_S = 150
# A block is the run's fixed set of operations: passes 0..n-1 of the seed,
# each pass in a fresh interpreter.  Sizes are set so that one block, with
# its interpreter starts and command-line calls, takes 25-32 s at the
# commit that added the benchmark; a faster commit runs the same block more
# often, and every latency metric is taken per block, then as the median
# over blocks, so the samples it is taken from do not depend on the
# commit's speed.
PASSES_PER_BLOCK = {"search-equiv": 5, "search-open": 18, "invariants": 10}
CLI_PER_BLOCK = 20
# On a host shared with other tenants (the 2-core virtual machine of
# BASELINE.md), how fast Python runs drifts by up to 1.7x over minutes.
# Every pass therefore times a fixed piece of library-free work
# (``worker.calibrate``) before, between and after its operations, and the
# end-to-end times are multiplied by (REFERENCE_CALIBRATION_MS / C) ** SCALE_EXPONENT, where C
# is the run's median calibration time.  The calibration slows more than
# the library's operations when the host is busy (its median moved 1.7x
# where operation times moved 1.35-1.5x), so a full correction would
# overshoot; the square root halves the drift in log terms instead.
# Both constants are fixed, so two commits are scaled alike.
REFERENCE_CALIBRATION_MS = 6.0
SCALE_EXPONENT = 0.5
SCALED_METRICS = ("wall_s", "op_p50_ms", "op_tail_ms", "cli_p50_ms", "setup_s")


class BenchError(Exception):
    pass


def _env(pass_index: int):
    """Environment of a pass's processes.  How much work a search does
    depends on the order of sets of strings, which follows the hash seed:
    with random hash seeds one k=5 pair took 0.33-0.47 s from one process
    to the next.  The hash seed is therefore fixed by the pass number, the
    same on every seed and commit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(pass_index + 1)
    return env


def _worker(cfg: dict) -> dict:
    cfg = dict(cfg, launched=time.time())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=_env(cfg["pass"]), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {cfg['pass']} ran longer than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {cfg['pass']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_call(entry: dict) -> tuple[float, str | None]:
    """Run one of pass 0's operations as ``python -m ribbonlab.cli``;
    returns its wall time and, when its exit code or output is wrong, the
    reason."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ribbonlab.cli", *entry["args"]],
        cwd=ROOT, env=_env(0), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    elapsed_ms = (time.perf_counter() - start) * 1000
    if proc.returncode != entry["code"] or proc.stdout != entry["stdout"]:
        return elapsed_ms, (f"cli {' '.join(entry['args'])}: exit {proc.returncode}, expected "
                            f"{entry['code']}; stdout matches: {proc.stdout == entry['stdout']}")
    return elapsed_ms, None


def _tail(values: list) -> tuple[float, float]:
    """The value at the highest percentile with at least 10 samples
    beyond it, and that percentile (the maximum below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    passes = 1 if tiny else PASSES_PER_BLOCK[workload]
    blocks, cli_entries = [], []

    def run_block(index):
        block = {"plain": [], "traced": [], "cli_ms": [], "cli_failures": []}
        for i in range(passes):
            first = index == 0 and i == 0
            cfg = {"workload": workload, "seed": seed, "pass": i, "tiny": tiny, "trace": False,
                   "work_dir": str((work / f"b{index}p{i}").relative_to(ROOT)),
                   "cli": first and not trace, "crosscheck": first}
            if trace and i % 2:
                block["traced"].append(_worker(dict(cfg, trace=True, cli=False, crosscheck=False)))
            block["plain"].append(_worker(cfg))
            if trace and not i % 2:
                block["traced"].append(_worker(dict(cfg, trace=True, cli=False, crosscheck=False)))
            if first:
                cli_entries.extend(block["plain"][0]["cli"])
            # The command-line calls of a block are spread over its passes,
            # so that they see the same machine as the passes do.
            while not trace and cli_entries and len(block["cli_ms"]) < CLI_PER_BLOCK * (i + 1) // passes:
                elapsed_ms, failure = _cli_call(cli_entries[len(block["cli_ms"]) % len(cli_entries)])
                block["cli_ms"].append(elapsed_ms)
                if failure:
                    block["cli_failures"].append(failure)
        return block

    started = time.perf_counter()
    try:
        while True:
            block_start = time.perf_counter()
            blocks.append(run_block(len(blocks)))
            elapsed = time.perf_counter() - started
            # Only whole blocks count, so start another one only when it
            # should end within the run's time.
            if tiny or elapsed + (time.perf_counter() - block_start) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    plain = [p for b in blocks for p in b["plain"]]
    failures = [f"block {b} pass {i} op {f[0]} ({f[1]}): {f[2]}"
                for b, block in enumerate(blocks) for i, p in enumerate(block["plain"]) for f in p["failures"]]
    failures += [f for b in blocks for f in b["cli_failures"]]
    known_defects = [f"block {b} pass {i} op {f[0]} ({f[1]}): {f[2]}"
                     for b, block in enumerate(blocks) for i, p in enumerate(block["plain"]) for f in p["known_defects"]]
    ops = sum(len(p["latencies_ms"]) for p in plain)
    attempted = ops + sum(len(b["cli_ms"]) for b in blocks)
    result = {"blocks": len(blocks), "passes": passes, "attempted": attempted,
              "failed": len(failures), "failures": failures, "known_defects": known_defects}
    if not trace:
        per_block = []
        for b in blocks:
            latencies = [x for p in b["plain"] for x in p["latencies_ms"]]
            tail, pct = _tail(latencies)
            per_block.append({"wall_s": sum(p["wall_s"] for p in b["plain"]),
                              "op_p50_ms": statistics.median(latencies), "op_tail_ms": tail,
                              "cli_p50_ms": statistics.median(b["cli_ms"])})
        result["tail_note"] = f"op_tail_ms is p{pct:.2f} of the {len(latencies)} operation latencies of a block"
        result["op_medians"] = _op_medians(plain)
        result["metrics"] = {
            **{name: statistics.median(b[name] for b in per_block)
               for name in ("wall_s", "op_p50_ms", "op_tail_ms", "cli_p50_ms")},
            "decided_share": sum(p["decided"] for p in plain) / ops,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        samples = [x for p in plain for x in p["calibration_ms"]]
        calibration_ms = statistics.median(samples)
        scale = (REFERENCE_CALIBRATION_MS / calibration_ms) ** SCALE_EXPONENT
        result["unscaled"] = {name: result["metrics"][name] for name in SCALED_METRICS}
        result["calibration_note"] = (f"calibration median {calibration_ms:.3f} ms of {len(samples)} samples; times "
                                      f"scaled by ({REFERENCE_CALIBRATION_MS}/{calibration_ms:.3f})^{SCALE_EXPONENT}"
                                      f" = {scale:.4f}")
        for name in SCALED_METRICS:
            result["metrics"][name] *= scale
    else:
        result["metrics"] = _layer_metrics(plain, [p for b in blocks for p in b["traced"]])
    return result


def _op_medians(plain) -> dict:
    """Median latency and sample count of each operation label, so that
    one class of operations can be cited on its own."""
    by_label = {}
    for p in plain:
        for label, ms in zip(p["labels"], p["latencies_ms"]):
            by_label.setdefault(label, []).append(ms)
    return {label: (statistics.median(v), len(v)) for label, v in by_label.items()}


def _layer_metrics(plain: list, traced: list) -> dict:
    n = len(traced)
    layers = [p["layers"] for p in traced]

    def total(key, name=None):
        return sum((l[key].get(name, 0) if name else l[key]) for l in layers)

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for name in ("ribbon.canonical_form", "ribbon.serialize", "moves.enumerate_moves", "moves.apply",
                 "quandle.count_colorings", "quandle.check_quandle_axioms",
                 "alexander.alexander_polynomial", "search.invariant_gate"):
        metrics[f"{name}.calls"] = total("calls", name) / n
        metrics[f"{name}.self_ms"] = total("self_ms", name) / n
    metrics["ribbon.canonical_form.repeat_share"] = share(total("canonical_repeats"),
                                                          total("calls", "ribbon.canonical_form"))
    metrics["ribbon.parse_ribbon.self_ms"] = total("self_ms", "ribbon.parse_ribbon") / n
    metrics["search.search_equiv.self_ms"] = total("self_ms", "search.search_equiv") / n
    metrics["moves.enumerate_moves.successors"] = total("successors") / n
    metrics["moves.enumerate_moves.revisit_share"] = share(total("revisits"), total("successors"))
    metrics["search.states"] = share(total("states"), total("searches"))
    metrics["cli.import_ms"] = statistics.median(p["import_ms"] for p in plain + traced)
    traced_wall = sum(p["wall_s"] for p in traced)
    plain_wall = sum(p["wall_s"] for p in plain)
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    metrics["trace.wall_s"] = traced_wall / n
    metrics["harness.self_ms"] = (traced_wall * 1000 - total("layer_self_ms")) / n
    return metrics


def _report(result: dict, kind: str) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    missing = set(units) - set(result["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def _smoke() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            # _report raises when a metric of BENCHMARK.json is missing.
            report = _report(measure(workload, 1, 0, trace, tiny=True), kind)
            for name, got in report["metrics"].items():
                if not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload}: {name} is not a number")
            if trace and report["metrics"]["harness.self_ms"]["value"] < 0:
                problems.append(f"{workload}: layer self times exceed the traced wall time")
            print(f"# smoke {workload} trace={int(trace)}: {len(report['metrics'])} metrics, "
                  f"{report['failed']}/{report['attempted']} failed")
    for p in problems:
        print(f"# smoke problem: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation per workload, check metric names")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # pass or command-line process that is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "ribbonlab" / "__init__.py").is_file():
        print(f"error: no ribbonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return _smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report = _report(result, "per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, {args.workload} seed {args.seed}: "
          f"{result['blocks']} blocks of {result['passes']} passes")
    if "tail_note" in result:
        print(f"# {result['tail_note']}")
        print(f"# {result['calibration_note']}")
        print("# unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in result["unscaled"].items()))
        for label, (ms, n) in sorted(result["op_medians"].items(), key=lambda item: item[1][0]):
            print(f"# op {label}: median {ms:.3f} ms of {n}")
    for failure in result["failures"][:20]:
        print(f"# failed: {failure}")
    print(f"# known defects met: {len(result['known_defects'])} of {result['attempted']} operations")
    for defect in result["known_defects"][:20]:
        print(f"# known defect: {defect}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
