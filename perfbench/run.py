"""triple-lab benchmark: closed-loop workloads with per-layer attribution.

    python3 perfbench/run.py --workload {envelope,battery,mobius-pairs,sweep,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from src/. One
client runs one task at a time, in fresh worker processes (perfbench/
worker.py) with TRIPLE_LAB_THREADS unset, so the program runs serially, and
with one BLAS thread.

--trace 0 prints the end-to-end metrics. Set-up time is the median over
several fresh processes; the task loop runs whole cycles for at least S
seconds in one more process.

--trace 1 prints the per-layer metrics. The digest window of the workload
runs twice, in two fresh processes: untraced, then traced. The window is a
fixed list of tasks, so counts repeat exactly at a seed and S does not
change it. The traced digest must equal the untraced one.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/NOTES.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("envelope", "battery", "mobius-pairs", "sweep")
SETUP_PROBES = 4
WORKLOAD_DEADLINE_S = 170.0  # all workers of one workload, so a run ends within 180 s
SPANS_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metrics in print order. "<function>.calls" and "<function>.self_s"
# read the traced totals of a function; "<function>.rows" its row count.
LAYER_METRICS = (
    "simplex.solve_lp_maximize.calls", "simplex.solve_lp_maximize.self_s",
    "simplex.pivots", "simplex.pivots_per_solve", "simplex.rows_per_solve",
    "weights.associated_upper_lp.calls", "weights.associated_upper_lp.self_s",
    "weights.lp_rounds", "weights.lp_rounds_per_radius",
    "weights.build_associated_estimate.calls", "weights.build_associated_estimate.self_s",
    "weights.evaluate.calls", "weights.evaluate.points", "weights.evaluate.points_per_call",
    "weights.evaluate.self_s",
    "weights.boundary_l.self_s", "weights.doubling_check.self_s",
    "weights.condition_I_check.calls", "weights.condition_I_check.self_s",
    "compop.criterion_sup_ratio.calls", "compop.criterion_sup_ratio.self_s",
    "compop.map_apply_batch.rows", "compop.map_apply_batch.self_s",
    "compop.theorem_verdict.calls", "compop.theorem_verdict.self_s",
    "compop.consistency_matrix.self_s",
    "mobius.mobius_apply.calls", "mobius.mobius_apply.self_s",
    "mobius.mobius_map.calls", "mobius.mobius_map.self_s",
    "mobius.norm_identity_residual.calls", "mobius.norm_identity_residual.self_s",
    "mobius.mobius_apply_batch.rows", "mobius.mobius_apply_batch.self_s",
    "mobius.sphere_sup.calls", "mobius.sphere_sup.self_s",
    *(f"triples.{f}.{m}" for f in ("triple_product", "box_rep", "quadratic_rep",
                                   "bergman_rep", "triple_norm", "bergman_sqrt")
      for m in ("calls", "self_s")),
    *(f"triples.{f}.{m}" for f in ("triple_norm_batch", "box_rep_batch", "sample_coords")
      for m in ("rows", "self_s")),
    "triples.op_norm_triple.calls", "triples.op_norm_triple.self_s",
    "linalg.solve_linear.calls", "linalg.solve_linear.self_s",
    "linalg.principal_sqrt.calls", "linalg.principal_sqrt.self_s",
)
# metric -> (function, count, per call?, unit) for the counts not named after a function
COUNT_METRICS = {
    "simplex.pivots": ("simplex.solve_lp_maximize", "pivots", False, "count"),
    "simplex.pivots_per_solve": ("simplex.solve_lp_maximize", "pivots", True, "pivots/solve"),
    "simplex.rows_per_solve": ("simplex.solve_lp_maximize", "rows", True, "rows/solve"),
    "weights.lp_rounds": ("weights.associated_upper_lp", "rounds", False, "count"),
    "weights.lp_rounds_per_radius": ("weights.associated_upper_lp", "rounds", True,
                                     "rounds/radius"),
    "weights.evaluate.points": ("weights.evaluate", "points", False, "count"),
    "weights.evaluate.points_per_call": ("weights.evaluate", "points", True, "points/call"),
}


def layer_metric(name: str, tr: dict) -> tuple[float, str]:
    """One per-layer metric from a traced worker's totals; 0 when never called."""
    if name in COUNT_METRICS:
        fn, count, per_call, unit = COUNT_METRICS[name]
    else:
        fn, _, count = name.rpartition(".")
        per_call, unit = False, "s" if count == "self_s" else "count"
    if count in ("calls", "self_s"):
        return tr[count][fn], unit
    total = tr["counts"][fn].get(count, 0)
    if per_call:
        calls = tr["calls"][fn]
        return (total / calls if calls else 0.0), unit
    return total, unit


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(durations_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, tasks beyond it): the highest level in TAIL_LEVELS
    with at least ten tasks beyond its nearest-rank value. Fewer than 20 tasks
    show no tail at all; the median stands in for it then, so that the value
    is as steady as task_p50_ms rather than a single slowest task."""
    xs = sorted(durations_ms)
    n = len(xs)
    for p in TAIL_LEVELS:
        k = math.ceil(p / 100.0 * n)
        if n - k >= 10:
            return xs[k - 1], p, n - k
    return statistics.median(xs), 50.0, n // 2


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRIPLE_LAB_THREADS", None)
    # One BLAS thread: the matrices are small, and on a shared host a second
    # spinning BLAS thread made sweep slower and its times less steady.
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(deadline: float, *args: str) -> dict:
    """Run one worker to completion; it is killed if it runs past the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker killed after {timeout:.0f}s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "triple_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def record(workload: str, seed: int, trace: int, child: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **child["environment"],
        "blas_threads": {v: child_env()[v] for v in BLAS_THREAD_VARS},
        "TRIPLE_LAB_THREADS": threads_note(),
        "digest": child["digest"],
        "digest_tasks": child["digest_tasks"],
    }


def threads_note() -> str:
    caller = os.environ.get("TRIPLE_LAB_THREADS")
    return "unset" if caller is None else f"unset (the caller's {caller!r} is removed)"


def report_failures(workload: str, failures: list[dict]) -> None:
    for f in failures:
        print(f"FAILED {workload} task {f['task']} ({f['kind']}) input {f['input']}: "
              + "; ".join(f["errors"]))


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    base = ("--workload", workload, "--seed", str(seed))
    probes = [run_worker(deadline, *base, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    child = run_worker(deadline, *base, "--seconds", str(seconds))
    probes.append(child["setup_s"])
    ms = [d * 1e3 for d in child["durations"]]
    tail_ms, tail_p, beyond = tail(ms)
    n = len(ms)
    metrics = {
        "tasks_per_s": (n / sum(child["durations"]), "1/s"),
        "task_p50_ms": (statistics.median(ms), "ms"),
        "task_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (child["peak_rss_mib"], "MiB"),
    }
    failed = len(child["failures"])
    notes = {
        "task_tail_ms": f"p{tail_p:g}, {beyond} of {n} tasks beyond it",
        "setup_s": f"median of {len(probes)} processes",
        "failed_fraction": f"{failed / n:.6g} ({failed} of {n})",
    }
    return child, metrics, notes


def per_layer(workload: str, seed: int) -> tuple[dict, dict, dict, list[str]]:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    base = ("--workload", workload, "--seed", str(seed), "--window")
    plain = run_worker(deadline, *base)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    traced = run_worker(deadline, *base, "--trace", "1", "--spans-out", str(spans))
    tr = traced["trace"]
    metrics = {name: layer_metric(name, tr) for name in LAYER_METRICS}
    task_s = sum(traced["durations"])
    metrics["bench.coverage"] = (tr["top_s"] / task_s, "fraction")
    metrics["bench.trace_overhead_frac"] = (task_s / sum(plain["durations"]) - 1.0, "fraction")
    problems = []
    if traced["digest"] != plain["digest"]:
        problems.append(f"traced digest {traced['digest']} != untraced {plain['digest']}")
    notes = {"window": f"{len(traced['durations'])} tasks; {tr['spans']} spans written to "
                       f"{spans.relative_to(ROOT)}"}
    return traced, metrics, notes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "triple_lab" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'triple_lab'}; run from a source tree",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    try:
        for name in names:
            if args.trace:
                child, metrics, notes, problems = per_layer(name, args.seed)
            else:
                child, metrics, notes = end_to_end(name, args.seed, args.seconds)
                problems = []
            report_failures(name, child["failures"])
            for p in problems:
                print(f"FAILED {name}: {p}")
            correct = correct and not child["failures"] and not problems
            attempted += len(child["durations"])
            failed += len(child["failures"])
            for metric, (value, unit) in metrics.items():
                note = f"  ({notes[metric]})" if metric in notes else ""
                print(f"{name}  {metric} = {value:.6g} {unit}{note}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                combined[key] = {"value": value, "unit": unit}
            for key in notes.keys() - metrics.keys():
                print(f"{name}  {key}: {notes[key]}")
            print(f"{name}  record: " + json.dumps(record(name, args.seed, args.trace, child)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
