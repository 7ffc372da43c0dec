import numpy as np
import pytest

import triple_lab.linalg
from triple_lab.errors import DomainError, NumericalFailureError, UsageError
from triple_lab.linalg import principal_sqrt
from triple_lab.mobius import (
    mobius_apply,
    mobius_apply_batch,
    mobius_apply_series,
    mobius_inverse,
    mobius_map,
    norm_identity_residual,
    round_trip_residual,
    sphere_sup,
    symmetry_apply,
)
from triple_lab.sampling import SamplingBudget, stream
from triple_lab.triples import (
    bergman_rep,
    bergman_sqrt,
    element,
    parse_model,
    sample_coords,
    sample_element,
    triple_norm,
    zero,
)

MODELS = ["disc", "hilbert:2", "hilbert:3", "matrix:2x2", "matrix:2x3"]
# shapes the closed-form Bergman factors are pinned on, centers up to 0.95
PIN_MODELS = ["disc", "hilbert:2", "hilbert:5", "hilbert:16", "matrix:2x2",
              "matrix:2x3", "matrix:3x2", "matrix:3x3", "matrix:4x4"]


def test_disc_closed_form():
    # scalar Mobius map (a + x) / (1 + conj(a) x)
    disc = parse_model("disc")
    g = mobius_map(element(disc, [0.5]))
    out = mobius_apply(g, element(disc, [0.25]))
    assert abs(out.coords[0] - 2.0 / 3.0) <= 1e-15
    rng = stream(21, 0)
    for _ in range(50):
        a, x = (sample_element(disc, rng, norm=float(rng.uniform(0.05, 0.9)))
                for _ in range(2))
        got = mobius_apply(mobius_map(a), x).coords[0]
        av, xv = a.coords[0], x.coords[0]
        assert abs(got - (av + xv) / (1 + np.conj(av) * xv)) <= 1e-13


def test_center_outside_ball_rejected():
    disc = parse_model("disc")
    with pytest.raises(DomainError):
        mobius_map(element(disc, [1.0]))
    g = mobius_map(element(disc, [0.5]))
    with pytest.raises(DomainError):
        mobius_apply(g, element(disc, [1.2]))


def test_routes_agree():
    for name in MODELS:
        m = parse_model(name)
        rng = stream(22, 1)
        for _ in range(40):
            a = sample_element(m, rng, norm=float(rng.uniform(0.05, 0.85)))
            x = sample_element(m, rng, norm=float(rng.uniform(0.05, 0.85)))
            g = mobius_map(a)
            y1 = mobius_apply(g, x, route="resolvent")
            y2 = mobius_apply(g, x, route="quasi-inverse")
            assert triple_norm(y1 - y2) <= 1e-10, name


def test_maps_zero_to_center_and_inverts():
    for name in MODELS:
        m = parse_model(name)
        rng = stream(23, 2)
        for _ in range(30):
            a = sample_element(m, rng, norm=float(rng.uniform(0.05, 0.85)))
            x = sample_element(m, rng, norm=float(rng.uniform(0.05, 0.85)))
            g = mobius_map(a)
            assert triple_norm(mobius_apply(g, zero(m)) - a) <= 1e-11, name
            assert round_trip_residual(g, x) <= 1e-10, name
            gi = mobius_inverse(g)
            assert triple_norm(gi.center + a) <= 1e-15


def test_batch_matches_single():
    for name in PIN_MODELS:
        m = parse_model(name)
        rng = stream(24, 3)
        for cn in (0.05, 0.55, 0.95):
            g = mobius_map(sample_element(m, rng, norm=cn))
            xs = sample_coords(m, 16, rng, norms=rng.uniform(0.0, 0.95, 16))
            batch = mobius_apply_batch(g, xs)
            for i in range(16):
                single = mobius_apply(g, element(m, xs[i])).coords
                assert np.linalg.norm(batch[i] - single) <= 1e-13, (name, cn)


def test_batch_of_no_rows_keeps_its_shape():
    for name in ("disc", "hilbert:3", "matrix:2x3"):
        m = parse_model(name)
        g = mobius_map(sample_element(m, stream(24, 4), norm=0.5))
        assert mobius_apply_batch(g, np.zeros((0, m.coord_dim))).shape == (0, m.coord_dim)


def test_batch_checks_its_solves(monkeypatch):
    m = parse_model("matrix:2x3")
    rng = stream(24, 5)
    g = mobius_map(sample_element(m, rng, norm=0.5))
    xs = sample_coords(m, 4, rng, norms=0.5)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-9))
    with pytest.raises(NumericalFailureError):
        mobius_apply_batch(g, xs)


def test_bergman_sqrt_matches_principal_sqrt():
    for name in PIN_MODELS:
        m = parse_model(name)
        rng = stream(24, 6)
        for cn in (0.0, 0.3, 0.7, 0.95):
            a = sample_element(m, rng, norm=cn)
            oracle = principal_sqrt(bergman_rep(a, a)).entries
            assert np.max(np.abs(bergman_sqrt(a).entries - oracle)) <= 1e-13, (name, cn)


def test_bergman_roots_need_no_principal_sqrt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("principal_sqrt reached")

    monkeypatch.setattr(triple_lab.linalg, "principal_sqrt", refuse)
    for name in PIN_MODELS:
        m = parse_model(name)
        a = sample_element(m, stream(24, 7), norm=0.6)
        g = mobius_map(a)
        assert triple_norm(mobius_apply(g, zero(m)) - a) <= 1e-11, name
        assert bergman_sqrt(a).shape == (m.coord_dim, m.coord_dim)


def test_batch_rejects_non_finite_rows():
    # NaN slips past a norm gate (NaN >= 1 is False); the single path raises
    m = parse_model("hilbert:2")
    g = mobius_map(element(m, [0.3, 0.1]))
    for bad in (np.nan, np.inf):
        with pytest.raises(UsageError):
            mobius_apply_batch(g, np.array([[bad, 0.1], [0.2, 0.0]]))


def test_series_converges_with_tail_bound():
    m = parse_model("hilbert:2")
    rng = stream(25, 4)
    a = sample_element(m, rng, norm=0.4)
    x = sample_element(m, rng, norm=0.3)
    direct = mobius_apply(mobius_map(a), x)
    approx, tail = mobius_apply_series(mobius_map(a), x, terms=40)
    assert tail <= 1e-12
    assert triple_norm(approx - direct) <= tail + 1e-12


def test_series_as_printed_terminal_misses_center():
    # with the terminal factor on the center the series does not even fix 0
    disc = parse_model("disc")
    g = mobius_map(element(disc, [0.5]))
    good, _ = mobius_apply_series(g, zero(disc), terms=30, terminal="x")
    bad, _ = mobius_apply_series(g, zero(disc), terms=30, terminal="a")
    assert abs(good.coords[0] - 0.5) <= 1e-12
    assert abs(bad.coords[0] - 0.5) > 0.1


def test_symmetry_is_involution_and_fixes_center():
    for name in MODELS:
        m = parse_model(name)
        rng = stream(26, 5)
        a = sample_element(m, rng, norm=0.5)
        x = sample_element(m, rng, norm=0.6)
        g = mobius_map(a)
        assert triple_norm(symmetry_apply(g, a) - a) <= 1e-10, name
        twice = symmetry_apply(g, symmetry_apply(g, x))
        assert triple_norm(twice - x) <= 1e-9, name


def test_sphere_sup_witness_and_samples():
    for name in MODELS:
        m = parse_model(name)
        rng = stream(27, 6)
        a = sample_element(m, rng, norm=0.5)
        rep = sphere_sup(a, 0.7, SamplingBudget(samples=800, seed=5))
        formula = (0.5 + 0.7) / (1 + 0.35)
        assert abs(rep.formula_value - formula) <= 1e-12
        assert abs(rep.witness_value - rep.formula_value) <= 1e-10, name
        assert rep.max_excess <= 1e-10, name
        assert abs(triple_norm(rep.witness) - 0.7) <= 1e-12


def test_norm_identity_corrected_and_printed():
    disc = parse_model("disc")
    a = element(disc, [0.5])
    x = element(disc, [0.25])
    rep = norm_identity_residual(a, x)
    assert rep.certified
    assert abs(rep.target - 1.8) <= 1e-12
    assert rep.residual <= 1e-12
    printed = norm_identity_residual(a, x, as_printed=True)
    # 1.8 versus |1 - 0.125|^2 / 0.703125 = 1.0888...: off by 0.71
    assert printed.residual > 0.5


def test_norm_identity_random_pairs():
    for name in PIN_MODELS:
        m = parse_model(name)
        rng = stream(28, 7)
        for _ in range(40):
            a = sample_element(m, rng, norm=float(rng.uniform(0.1, 0.95)))
            x = sample_element(m, rng, norm=float(rng.uniform(0.1, 0.95)))
            rep = norm_identity_residual(a, x)
            assert rep.certified and rep.residual <= 1e-9, name
