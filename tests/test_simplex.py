import functools

import numpy as np
import pytest
import scipy.optimize

from triple_lab import weights
from triple_lab.simplex import solve_lp_maximize


def test_hand_oracle():
    # max x + y subject to x <= 1, y <= 2: optimum (1, 2), value 3
    res = solve_lp_maximize(
        np.array([1.0, 1.0]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([1.0, 2.0]),
    )
    assert res.status == "optimal"
    assert abs(res.value - 3.0) <= 1e-12
    assert np.allclose(res.x, [1, 2], atol=1e-12)


def test_binding_mix():
    # max 3x + 2y st x + y <= 4, x <= 2: optimum (2, 2), value 10
    res = solve_lp_maximize(
        np.array([3.0, 2.0]),
        np.array([[1.0, 1.0], [1.0, 0.0]]),
        np.array([4.0, 2.0]),
    )
    assert abs(res.value - 10.0) <= 1e-12
    assert np.allclose(res.x, [2, 2], atol=1e-12)


def test_unbounded_detected():
    res = solve_lp_maximize(
        np.array([1.0, 0.0]),
        np.array([[0.0, 1.0]]),
        np.array([1.0]),
    )
    assert res.status == "unbounded"


def test_zero_objective():
    res = solve_lp_maximize(
        np.array([0.0, 0.0]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    assert res.status == "optimal"
    assert abs(res.value) <= 1e-15


def test_degenerate_constraints():
    # duplicated rows force degenerate pivots; must still terminate
    res = solve_lp_maximize(
        np.array([1.0, 1.0]),
        np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
        np.array([1.0, 1.0, 1.0]),
    )
    assert res.status == "optimal"
    assert abs(res.value - 1.0) <= 1e-12


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 12))
        a = rng.uniform(0.0, 2.0, size=(m, n))
        a[rng.uniform(size=(m, n)) < 0.3] = 0.0
        a += 1e-3  # keep every column bounded so the LP stays finite
        b = rng.uniform(0.5, 3.0, size=m)
        c = rng.uniform(0.1, 2.0, size=n)
        ours = solve_lp_maximize(c, a, b)
        ref = scipy.optimize.linprog(-c, A_ub=a, b_ub=b, bounds=(0, None),
                                     method="highs")
        assert ref.status == 0 and ours.status == "optimal", trial
        scale = max(1.0, abs(ref.fun))
        assert abs(ours.value - (-ref.fun)) <= 1e-9 * scale, trial
        # feasibility of the reported point
        assert np.all(a @ ours.x <= b + 1e-9), trial
        assert np.all(ours.x >= -1e-12), trial


def test_matches_scipy_on_moment_style_columns():
    # monomial columns with huge dynamic range, the hard case in production
    rng = np.random.default_rng(23)
    s = np.linspace(0.01, 0.97, 40)
    degs = np.arange(0, 25)
    a = s[:, None] ** degs[None, :]
    b = 1.0 / (1.0 - s * s)
    c = 0.9 ** degs.astype(float)
    ours = solve_lp_maximize(c, a, b)
    ref = scipy.optimize.linprog(-c, A_ub=a, b_ub=b, bounds=(0, None),
                                 method="highs")
    assert ours.status == "optimal" and ref.status == 0
    assert abs(ours.value - (-ref.fun)) <= 1e-8 * max(1.0, abs(ref.fun))
    assert np.all(a @ ours.x <= b * (1 + 1e-9) + 1e-9)


def test_input_validation():
    with pytest.raises(Exception):
        solve_lp_maximize(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))


def test_relative_stopping_rule_ends_degenerate_cycling(monkeypatch):
    # reduced costs of this envelope LP carry roundoff near 1.5e-8, above an
    # absolute 1e-9 threshold; Bland's rule then cycled until the pivot cap
    monkeypatch.setattr(weights, "solve_lp_maximize",
                        functools.partial(solve_lp_maximize, max_iter=1000))
    w = weights.expdecay_weight(0.9187728335831057)
    poly = weights.associated_upper_lp(w, 0.9)
    assert poly.value >= w.eval(0.9) * (1 - 1e-9)
