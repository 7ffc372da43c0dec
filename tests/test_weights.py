import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triple_lab
from triple_lab.compop import builtin_weights
from triple_lab.errors import UsageError
from triple_lab.sampling import THREADS_ENV
from triple_lab.weights import (
    _moment_table,
    associated_upper_lp,
    associated_upper_mono,
    boundary_l,
    build_associated_estimate,
    condition_I_check,
    constant_weight,
    doubling_check,
    expdecay_weight,
    moment,
    parse_weight,
    power_weight,
    table_weight,
    weight_domination,
    weight_eval,
)


def test_family_evaluation():
    r = np.array([0.0, 0.3, 0.9, 0.999])
    assert np.allclose(power_weight(1.0).eval(r), 1 - r * r, atol=1e-15)
    assert np.allclose(power_weight(0.5).eval(r), np.sqrt(1 - r * r), atol=1e-15)
    assert np.allclose(expdecay_weight(2.0).log_eval(r), -2.0 / (1 - r), atol=1e-12)
    assert np.allclose(constant_weight(3.0).eval(r), 3.0)


def test_parsing_and_validation():
    assert parse_weight("power:1.5").param == 1.5
    assert parse_weight("constant:2").family == "constant"
    for bad in ("power:0", "power:-1", "expdecay:0", "constant:0", "nope:1", "power:x"):
        with pytest.raises(UsageError):
            parse_weight(bad)
    with pytest.raises(UsageError):
        weight_eval(power_weight(1.0), 1.0)


def test_table_weight_interpolates():
    w = table_weight(((0.0, 1.0), (0.5, 0.5), (0.9, 0.1)))
    assert abs(weight_eval(w, 0.25) - 0.75) <= 1e-12
    assert abs(weight_eval(w, 0.7) - 0.3) <= 1e-12
    # beyond the last knot the table holds its final value
    assert abs(weight_eval(w, 0.95) - 0.1) <= 1e-12
    assert w.non_increasing
    with pytest.raises(UsageError):
        table_weight(((0.5, 1.0), (0.5, 0.9)))
    with pytest.raises(UsageError):
        table_weight(((0.0, 1.0), (0.5, 0.0)))  # zero value blocked by default
    for bad in (((0.0, 1.0), (float("nan"), 0.5)),
                ((0.0, 1.0), (float("nan"), 0.7), (0.5, 0.5)),
                ((0.0, 1.0), (0.5, float("inf")))):
        with pytest.raises(UsageError):
            table_weight(bad)


def test_table_shape_decided_from_knots():
    # a rise of 0.1 over 0.0002 in r falls between the points of any coarse grid
    rising = table_weight(((0.0, 1.0), (0.3001, 0.5), (0.3003, 0.6), (0.3005, 0.5), (0.9, 0.1)))
    assert not rising.non_increasing
    assert table_weight(((0.0, 1.0), (0.4, 1.0), (0.9, 0.2))).non_increasing


def test_table_zero_between_grid_points_rejected():
    knots = ((0.0, 1.0), (0.3003, 0.0), (0.9, 0.5))
    with pytest.raises(UsageError):
        table_weight(knots)
    rep = condition_I_check(table_weight(knots, validate=False))
    assert not rep.passed and rep.offending_radius == 0.3003


def test_weight_parameters_must_be_finite():
    # finite parameters whose log v overflows before r = 1 count as infinite
    for bad in ("power:inf", "expdecay:inf", "constant:inf", "power:nan", "constant:-inf",
                "power:1e307", "expdecay:2e292", "expdecay:8.98846567431158e+307"):
        with pytest.raises(UsageError):
            parse_weight(bad)


def test_condition_I():
    assert condition_I_check(power_weight(2.0)).passed
    assert condition_I_check(expdecay_weight(1.0)).passed  # underflows but positive
    bad = table_weight(((0.0, 1.0), (0.5, 0.0), (0.99, 0.0)), validate=False)
    rep = condition_I_check(bad)
    assert not rep.passed
    assert rep.offending_radius is not None and 0.4 <= rep.offending_radius <= 0.6


def test_moment_closed_form_power_one():
    # sup (1-s^2) s^n sits at s^2 = n/(n+2) with value (2/(n+2))(n/(n+2))^(n/2)
    w = power_weight(1.0)
    for n in (1, 2, 5, 17, 64):
        target = (2.0 / (n + 2)) * (n / (n + 2)) ** (n / 2)
        val, arg = moment(w, n)
        assert abs(val - target) <= 1e-12 * target, n
        assert abs(arg - np.sqrt(n / (n + 2))) <= 1e-6, n


def test_moment_constant_and_monotone():
    w = constant_weight(2.0)
    vals = [moment(w, n)[0] for n in range(8)]
    assert all(abs(v - 2.0) <= 1e-9 for v in vals)
    wp = power_weight(1.0)
    seq = [moment(wp, n)[0] for n in range(30)]
    assert all(a >= b - 1e-15 for a, b in zip(seq, seq[1:]))  # M_n non-increasing


def test_mono_envelope_upper_bounds_weight():
    w = power_weight(1.0)
    for r in (0.2, 0.5, 0.8, 0.95):
        env = associated_upper_mono(w, r)
        assert env >= (1 - r * r) - 1e-12
    # deep radius: envelope stays within a modest factor for power weights
    r = 0.99
    assert associated_upper_mono(w, r) <= (1 - r * r) * 1.2


def test_lp_envelope_tight_for_power():
    w = power_weight(1.0)
    for r in (0.3, 0.9):
        est = associated_upper_lp(w, r)
        v = 1 - r * r
        assert est.value >= v - 1e-12
        assert est.value <= v * 1.05
        assert est.validated_norm <= 1.0 + 1e-6
        # admissibility: nonnegative coefficients by construction
        assert np.all(est.coeffs >= 0)


def test_lp_below_matched_monomial_cap():
    w = power_weight(2.0)
    for r in (0.3, 0.5, 0.7, 0.9):
        lp = associated_upper_lp(w, r, degree=96).value
        mono = associated_upper_mono(w, r, n_max=96)
        assert lp <= mono * (1 + 1e-9) + 1e-12, r


def test_estimate_invariants():
    w = power_weight(1.0)
    est = build_associated_estimate(w)
    assert np.all(est.chosen >= est.lower * (1 - 1e-9))
    assert np.all(np.diff(est.chosen) <= 1e-12)  # non-increasing weight
    # evaluate() off the grid sits between the neighbouring grid values
    mid = 0.5 * (est.radii[3] + est.radii[4])
    val = float(est.evaluate(np.array([mid]))[0])
    hi = max(est.chosen[3], est.chosen[4]) * (1 + 1e-9)
    assert val <= hi
    assert val >= est.weight.eval(np.array([mid]))[0] - 1e-12


def test_estimate_for_table_weight():
    w = table_weight(((0.0, 1.0), (0.3, 0.8), (0.7, 0.4), (0.95, 0.1)))
    est = build_associated_estimate(w, radii=np.array([0.2, 0.5, 0.8]))
    assert np.all(est.chosen >= est.lower * (1 - 1e-9))
    assert np.all(est.chosen <= est.upper_mono + 1e-12)


def test_boundary_sources_and_labels():
    lp = boundary_l(power_weight(1.0))
    assert "exact" in lp.source
    le = boundary_l(expdecay_weight(1.0))
    assert "proxy" in le.source
    tw = table_weight(((0.0, 1.0), (0.5, 0.5), (0.99, 0.25)))
    lt = boundary_l(tw)
    assert "associated-estimate" in lt.source
    lu = boundary_l(source="user-supplied",
                    s_values=2.0 ** -np.arange(1.0, 10.0),
                    log_values=np.zeros(9))
    assert lu.source == "user-supplied"
    with pytest.raises(UsageError):
        boundary_l(source="user-supplied")


def test_doubling_power_bounded_with_alpha_rate():
    for alpha in (0.5, 1.0, 2.0):
        rep = doubling_check(boundary_l(power_weight(alpha)))
        assert rep.verdict == "bounded", alpha
        # l(s) = (2s - s^2)^alpha halves like 2^alpha deep in the tail
        assert abs(rep.M_estimate - 2.0 ** alpha) <= 0.05 * 2.0 ** alpha, alpha


def test_doubling_expdecay_diverges():
    for beta in (0.5, 1.0):
        rep = doubling_check(boundary_l(expdecay_weight(beta)))
        assert rep.verdict == "diverging", beta
        assert rep.M_estimate == np.inf or rep.M_estimate > 1e6


def test_doubling_constant_is_flat():
    rep = doubling_check(boundary_l(constant_weight(1.0)))
    assert rep.verdict == "bounded"
    assert abs(rep.M_estimate - 1.0) <= 1e-12


def test_doubling_input_validation():
    with pytest.raises(UsageError):
        doubling_check(boundary_l(power_weight(1.0), k_max=4))  # too few points


def test_domination():
    rep = weight_domination(power_weight(1.0), power_weight(1.0))
    assert rep.holds and abs(rep.kappa - 1.0) <= 1e-12
    # (1-r^2)^2 / (1-r^2) -> 0 at the boundary: domination fails
    rep = weight_domination(power_weight(2.0), power_weight(1.0))
    assert not rep.holds
    assert rep.kappa < rep.kappa_min
    assert rep.witness_radius > 0.99
    # constant target dominates anything bounded
    rep = weight_domination(constant_weight(1.0), power_weight(1.0))
    assert rep.holds and rep.kappa >= 1.0 - 1e-12


def test_weights_are_hashable_cache_keys():
    a = power_weight(1.0)
    b = power_weight(1.0)
    assert hash(a) == hash(b) and a == b
    assert power_weight(2.0) != a


FALLING_TABLE = table_weight(((0.0, 1.0), (0.3, 0.7), (0.6, 0.4), (0.8, 0.25), (0.95, 0.05)))
RISING_TABLE = table_weight(((0.0, 0.5), (0.5, 1.0), (0.9, 2.0)))


def test_closed_form_moments_reach_fine_grid_sup():
    # log M_n is the sup itself, so no point of a fine grid may beat it
    s = np.linspace(0.0, 1.0, 10**5, endpoint=False)[1:]
    log_s = np.log(s)
    for w in builtin_weights() + (power_weight(1e-17), FALLING_TABLE, RISING_TABLE):
        log_v = np.asarray(w.log_eval(s))
        log_m, arg = _moment_table(w, 512)
        for lo in range(0, 513, 64):
            ns = np.arange(lo, min(lo + 64, 513))
            grid_sup = np.max(log_v[None, :] + ns[:, None] * log_s[None, :], axis=1)
            assert np.all(log_m[ns] >= grid_sup - 1e-13), (str(w), lo)
        assert np.all((arg >= 0.0) & (arg <= 1.0)), str(w)


def test_moment_sup_at_boundary_reports_argmax_one():
    assert moment(constant_weight(2.0), 5) == (2.0, 1.0)
    val, arg = moment(RISING_TABLE, 3)
    assert arg == 1.0 and abs(val - 2.0) <= 1e-15


def test_estimate_independent_of_thread_count(monkeypatch):
    radii = np.array([0.4, 0.8, 0.95])
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, threads)
        est = build_associated_estimate(FALLING_TABLE, radii=radii)
        runs.append((est.upper_mono, est.upper_lp, est.chosen))
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


def test_import_loads_no_scipy():
    src = str(Path(triple_lab.__file__).resolve().parents[1])
    code = ("import sys, triple_lab, triple_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
