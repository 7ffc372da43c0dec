"""The benchmark's workloads run and pass their own checks on one cycle.

perfbench/workloads.py calls the program by name and reads result fields;
a removed parameter or field makes every benchmark run fail. Running cycle 0
at seed 0 of each gated workload here surfaces the break in the unit tests.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["battery", "mobius-pairs", "sweep"])
def test_workload_cycle_passes_its_checks(name):
    w = workloads.WORKLOADS[name]
    ctx = w.prepare()
    for inp in w.inputs(ctx, 0, 0):
        assert w.check(ctx, inp, w.run(ctx, inp)) == []


def test_battery_task_draws_no_samples():
    """One battery row samples nothing: each of the 7 maps sends one witness
    per shell through map_apply_batch (the composite's two stages add 16
    rows), and the row checks its weight's Condition I once."""
    w = workloads.WORKLOADS["battery"]
    ctx = w.prepare()
    inp = w.inputs(ctx, 0, 0)[0]
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        rec.task = 0
        rows = w.run(ctx, inp)
    finally:
        rec.task = None
        tracer.uninstall(undo)
    assert w.check(ctx, inp, rows) == []
    assert len(ctx[1]) == 7
    assert rec.counts["triples.sample_coords"].get("rows", 0) == 0
    assert rec.counts["compop.map_apply_batch"]["rows"] == 7 * 8 + 2 * 8
    assert rec.calls["weights.condition_I_check"] == 1
