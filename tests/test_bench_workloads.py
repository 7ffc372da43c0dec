"""The benchmark's workloads run and pass their own checks on one cycle.

perfbench/workloads.py calls the program by name and reads result fields;
a removed parameter or field makes every benchmark run fail. Running cycle 0
at seed 0 of each gated workload here surfaces the break in the unit tests.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["battery", "mobius-pairs", "sweep"])
def test_workload_cycle_passes_its_checks(name):
    w = workloads.WORKLOADS[name]
    ctx = w.prepare()
    for inp in w.inputs(ctx, 0, 0):
        assert w.check(ctx, inp, w.run(ctx, inp)) == []
