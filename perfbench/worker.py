"""One measured process: set up, run tasks in a closed loop, check, report.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --window)
                                [--trace 0|1] [--setup-only] [--spans-out PATH]

run.py starts this script with src/ on PYTHONPATH and reads the JSON object
it prints as its last line. Set-up time runs from the first line of this
file: imports, the inputs of the digest window, and the workload's maps and
models. Only run() is timed per task; checks and input generation for later
cycles happen outside the timed region, with the tracer closed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import triple_lab  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Normal tasks take at most a few seconds; one this slow is stuck (the simplex
# can cycle for minutes), so it is abandoned and counted as failed.
TASK_LIMIT_S = 60.0


class TaskTimeout(Exception):
    """A task ran past its time limit."""


def _on_alarm(signum, frame):
    raise TaskTimeout("task exceeded its time limit")


def timed_run(wl, ctx, inp, limit: float = TASK_LIMIT_S):
    """(output, exception, seconds) of one task; only the call itself is timed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t = time.perf_counter()
    try:
        out, err = wl.run(ctx, inp), None
    except Exception as exc:
        out, err = None, exc
    finally:
        seconds = time.perf_counter() - t
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, err, seconds


def fmt_values(values) -> str:
    """Result values as text, every float with %.17g."""
    parts = []
    for v in values:
        if isinstance(v, str):
            parts.append(v)
            continue
        arr = np.asarray(v).ravel()
        if np.iscomplexobj(arr):
            arr = np.column_stack([arr.real, arr.imag]).ravel()
        parts.append(" ".join("%.17g" % x for x in arr.tolist()))
    return "|".join(parts)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "triple_lab": triple_lab.__file__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--window", action="store_true", help="run exactly the digest window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="with --trace 1, write every span here as JSON")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    ctx = wl.prepare()
    window = [inp for c in range(wl.window_cycles) for inp in wl.inputs(ctx, args.seed, c)]
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if (args.seconds is not None) == args.window:
        ap.error("give exactly one of --seconds and --window")

    rec = tracer.Recorder() if args.trace else None
    undo = tracer.install(rec) if rec else []
    durations, failures, digest_lines = [], [], []
    per_cycle = len(wl.kinds)
    started = time.perf_counter()
    cycle = 0
    try:
        while True:
            inputs = window[cycle * per_cycle:(cycle + 1) * per_cycle]
            if not inputs:
                inputs = wl.inputs(ctx, args.seed, cycle)
            for inp in inputs:
                i = len(durations)
                if rec:
                    rec.task = i
                out, err, seconds = timed_run(wl, ctx, inp)
                durations.append(seconds)
                if rec:
                    rec.task = None
                if err is None:
                    bad = wl.check(ctx, inp, out)
                    text = fmt_values(wl.values(inp, out))
                else:
                    bad = ["".join(traceback.format_exception_only(type(err), err)).strip()]
                    text = f"error:{type(err).__name__}"
                if bad:
                    failures.append({"task": i, "kind": wl.kinds[i % per_cycle],
                                     "input": repr(inp), "errors": bad})
                if i < len(window):
                    digest_lines.append(text)
            cycle += 1
            if cycle < wl.window_cycles:
                continue
            if args.window:
                break
            # whole cycles, at least S seconds: a run of the slow workloads
            # then always holds two cycles or more, so two draws of each
            # spread parameter, never a lone draw
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        tracer.uninstall(undo)

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "durations": durations,
        "failures": failures,
        "digest": hashlib.sha256("\n".join(digest_lines).encode()).hexdigest(),
        "digest_tasks": len(digest_lines),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if rec:
        result["trace"] = {
            "calls": rec.calls, "self_s": rec.self_s, "counts": rec.counts,
            "top_s": rec.top_s, "spans": len(rec.spans),
        }
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "task", "parent", "start", "end"],
                           "spans": rec.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
