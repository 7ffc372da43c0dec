"""Tests of the benchmark itself, not of the program.

    python3 -m pytest perfbench/test_bench.py

They run every workload's digest window three times and take about two
minutes.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3


def worker(workload, *args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(SEED), *args],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=600,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_and_tracing_keeps_results(workload):
    plain = worker(workload, "--window")
    first = worker(workload, "--window", "--trace", "1")
    second = worker(workload, "--window", "--trace", "1")
    assert not plain["failures"] and not first["failures"]
    assert first["digest"] == plain["digest"] == second["digest"]
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert sum(first["trace"]["calls"].values()) > 0


def test_tail_is_highest_level_with_ten_tasks_beyond():
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0, 10)
    assert run.tail([float(i) for i in range(1, 201)]) == (190.0, 95.0, 10)
    assert run.tail([float(i) for i in range(1, 11)]) == (5.5, 50.0, 5)


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mobius_check_flags_a_wrong_output():
    sys.path.insert(0, str(ROOT / "src"))
    from triple_lab.triples import element
    from workloads import WORKLOADS

    wl = WORKLOADS["mobius-pairs"]
    ctx = wl.prepare()
    inp = wl.inputs(ctx, SEED, 0)[1]
    y, y2, at_zero, back, nir = wl.run(ctx, inp)
    assert wl.check(ctx, inp, (y, y2, at_zero, back, nir)) == []
    off = y2 + element(y2.model, [1e-9] + [0.0] * (y2.model.coord_dim - 1))
    assert wl.check(ctx, inp, (y, off, at_zero, back, nir)) == [
        "routes residual 1.000e-09 > 1e-10"]


def test_stuck_task_is_abandoned_and_counted():
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    class Stuck:
        def run(self, ctx, inp):
            while True:
                pass

    out, err, seconds = worker.timed_run(Stuck(), None, None, limit=0.2)
    assert out is None and isinstance(err, worker.TaskTimeout)
    assert 0.2 <= seconds < 5.0


@pytest.mark.xfail(strict=False, reason="known defect: monomial envelope dips below v "
                   "at a knot on an estimate radius (ROADMAP 5a)")
def test_known_table_weight_defect():
    sys.path.insert(0, str(ROOT / "src"))
    from triple_lab.weights import build_associated_estimate, table_weight

    build_associated_estimate(table_weight([(0, 1), (0.5, 0.6), (0.9, 0.2), (0.99, 0.01)]))


@pytest.mark.xfail(strict=True, reason="known defect: the simplex cycles on this "
                   "expdecay LP, so the benchmark draws no expdecay weights")
def test_known_simplex_cycling_defect(monkeypatch):
    # Healthy envelope LPs take under 200 pivots; this one runs on for minutes
    # until the default cap of 100 000. When it passes, expdecay weights can
    # return to the envelope and battery workloads.
    sys.path.insert(0, str(ROOT / "src"))
    from triple_lab import simplex, weights

    monkeypatch.setattr(weights, "solve_lp_maximize",
                        functools.partial(simplex.solve_lp_maximize, max_iter=1000))
    weights.associated_upper_lp(weights.expdecay_weight(0.9187728335831057), 0.9)
