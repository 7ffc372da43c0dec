import numpy as np
import pytest

from triple_lab.errors import DomainError, UsageError
from triple_lab.linalg import spectrum
from triple_lab.sampling import SamplingBudget, stream
from triple_lab.triples import (
    axiom_suite,
    basis_element,
    bergman_rep,
    bergman_sqrt,
    box_rep,
    box_rep_batch,
    element,
    hilbert,
    matrix,
    op_norm_triple,
    parse_model,
    quadratic_rep,
    sample_coords,
    sample_element,
    triple_norm,
    triple_norm_batch,
    triple_product,
    zero,
)

ALL_MODELS = ["disc", "hilbert:2", "hilbert:3", "matrix:2x2", "matrix:2x3"]
# shapes the closed-form operators are checked on against the basis oracle
ORACLE_MODELS = ALL_MODELS + ["hilbert:5", "matrix:3x2", "matrix:1x3"]


def _columns(model, column):
    """The matrix whose j-th column is column(e_j), e_j the j-th basis element."""
    return np.stack([column(basis_element(model, j)).coords
                     for j in range(model.coord_dim)], axis=1)


def _box_oracle(x, y):
    return _columns(x.model, lambda e: triple_product(x, y, e))


def _quadratic_oracle(x):
    # Q_x is conjugate-linear, so its stored matrix has columns Q_x e_j
    return _columns(x.model, lambda e: triple_product(x, e, x))


def test_parse_model_descriptors():
    assert parse_model("disc").coord_dim == 1
    assert parse_model("hilbert:4").coord_dim == 4
    assert parse_model("matrix:2x3").coord_dim == 6
    for bad in ("hilbert:0", "matrix:2x0", "wedge", "matrix:ab"):
        with pytest.raises(UsageError):
            parse_model(bad)


def test_model_dimensions_must_be_integers():
    assert hilbert(np.int64(3)) == parse_model("hilbert:3")
    assert matrix(2, np.int32(3)).shape == (2, 3)
    for bad in (lambda: hilbert(2.5), lambda: hilbert(3.0), lambda: matrix(True, 3),
                lambda: matrix(2, 3.9), lambda: hilbert(float("nan")), lambda: hilbert("3")):
        with pytest.raises(UsageError):
            bad()


def test_matrix_unit_triple_product():
    # {e11, e11, e12} = (e11 e11* e12 + e12 e11* e11)/2 = (e12 + 0)/2
    m = parse_model("matrix:2x2")
    e11 = basis_element(m, 0)
    e12 = basis_element(m, 1)
    out = triple_product(e11, e11, e12)
    assert np.allclose(out.coords, 0.5 * e12.coords, atol=1e-15)


def test_hilbert_box_spectrum_example():
    # x = (1/2, 0): x box x has eigenvalues 1/4 on span x, 1/8 on complement
    m = parse_model("hilbert:2")
    x = element(m, [0.5, 0.0])
    evs = spectrum(box_rep(x, x)).eigenvalues
    assert np.allclose(sorted(evs.real, reverse=True), [0.25, 0.125], atol=1e-14)
    assert np.max(np.abs(evs.imag)) <= 1e-14


def test_hilbert_bergman_spectrum_example():
    m = parse_model("hilbert:2")
    x = element(m, [0.5, 0.0])
    evs = spectrum(bergman_rep(x, x)).eigenvalues.real
    # (1 - 1/4)^2 = 9/16 on span x, (1 - 1/4) = 3/4 off it
    assert np.allclose(sorted(evs), [0.5625, 0.75], atol=1e-14)
    bsq = spectrum(bergman_sqrt(x)).eigenvalues.real
    assert np.allclose(sorted(bsq), [0.75, np.sqrt(0.75)], atol=1e-12)


def test_matrix_bergman_closed_form():
    # B(x,y) z = (1 - x y*) z (1 - y* x), and B(x,y) = I - 2 x [] y + Q_x Q_y
    for name in ORACLE_MODELS:
        m = parse_model(name)
        rng = stream(3, 1)
        x = sample_element(m, rng, norm=0.6)
        y = sample_element(m, rng, norm=0.5)
        xm, ym = x.as_matrix(), y.as_matrix()
        p, q = xm.shape
        left = np.eye(p) - xm @ ym.conj().T
        right = np.eye(q) - ym.conj().T @ xm
        expect = np.kron(left, right.T)
        got = bergman_rep(x, y).entries
        assert np.linalg.norm(got - expect) <= 1e-13, name
        defining = (np.eye(m.coord_dim) - 2.0 * _box_oracle(x, y)
                    + _quadratic_oracle(x) @ np.conj(_quadratic_oracle(y)))
        assert np.linalg.norm(got - defining) <= 1e-13, name


def test_outer_symmetry_is_bitwise():
    # IEEE addition is commutative, so swapping the outer slots is exact
    for name in ALL_MODELS:
        m = parse_model(name)
        rng = stream(11, 0)
        x, y, z = (sample_element(m, rng) for _ in range(3))
        a = triple_product(x, y, z).coords
        b = triple_product(z, y, x).coords
        assert np.array_equal(a, b), name


def test_box_batch_matches_basis_route():
    for name in ORACLE_MODELS:
        m = parse_model(name)
        rng = stream(5, 2)
        xs = sample_coords(m, 8, rng)
        y = sample_element(m, rng)
        batch = box_rep_batch(m, xs, y)
        for i in range(8):
            x = element(m, xs[i])
            oracle = _box_oracle(x, y)
            assert np.linalg.norm(batch[i] - oracle) <= 1e-13, name
            assert np.linalg.norm(box_rep(x, y).entries - oracle) <= 1e-13, name


def test_quadratic_rep_agrees_with_triple_product():
    for name in ORACLE_MODELS:
        m = parse_model(name)
        rng = stream(9, 4)
        x = sample_element(m, rng)
        q = quadratic_rep(x)
        assert np.linalg.norm(q.matrix.entries - _quadratic_oracle(x)) <= 1e-13, name
        for _ in range(100):
            z = sample_element(m, rng)
            via_q = q.apply(z.coords)
            direct = triple_product(x, z, x).coords
            assert np.linalg.norm(via_q - direct) <= 1e-12, name


def test_triple_norms():
    m = parse_model("matrix:2x2")
    x = element(m, [0, 2, 0, 0])  # singular values {2, 0}
    assert abs(triple_norm(x) - 2.0) <= 1e-14
    h = parse_model("hilbert:2")
    assert abs(triple_norm(element(h, [3, 4])) - 5.0) <= 1e-14
    batch = triple_norm_batch(h, np.array([[3, 4], [0, 1]], dtype=np.complex128))
    assert np.allclose(batch, [5, 1])


def test_sample_coords_hit_requested_norms():
    for name in ALL_MODELS:
        m = parse_model(name)
        rng = stream(2, 8)
        target = np.array([0.3, 0.7, 0.95])
        xs = sample_coords(m, 3, rng, norms=target)
        assert np.allclose(triple_norm_batch(m, xs), target, atol=1e-12), name


def test_bergman_sqrt_domain():
    m = parse_model("hilbert:2")
    with pytest.raises(DomainError):
        bergman_sqrt(element(m, [1.0, 0.0]))


def test_op_norm_certified_euclidean():
    m = parse_model("hilbert:3")
    rng = stream(4, 4)
    x = sample_element(m, rng, norm=0.5)
    est = op_norm_triple(bergman_rep(x, x), m)
    assert est.certified
    # largest eigenvalue of B(x,x) is 1 - ||x||^2 here
    assert abs(est.estimate - 0.75) <= 1e-12


def test_op_norm_sampled_close_to_exact_on_square_matrix_model():
    # matrix(n,n) shares coordinates with hilbert(n^2); use an operator
    # whose spectral-norm operator norm is known: B_a^(-1) with norm
    # 1/(1-||a||^2), witness the top singular pair
    from triple_lab.linalg import CMatrix, solve_linear

    m = parse_model("matrix:2x2")
    rng = stream(6, 1)
    a = sample_element(m, rng, norm=0.6)
    binv = CMatrix.from_array(
        solve_linear(bergman_sqrt(a), np.eye(4, dtype=np.complex128)))
    est = op_norm_triple(binv, m, SamplingBudget(samples=4000, seed=3))
    target = 1.0 / (1.0 - 0.36)
    assert not est.certified
    assert est.estimate <= target * (1 + 1e-9)  # lower bound cannot exceed
    assert est.estimate >= 0.95 * target
    # the witness realizes the reported value
    out = triple_norm(element(m, est.witness.coords @ binv.entries.T))
    assert abs(out / triple_norm(est.witness) - est.estimate) <= 1e-9


def test_axiom_suite_smoke():
    for name in ALL_MODELS:
        rep = axiom_suite(parse_model(name), trials=120, seed=1)
        assert rep.passed, f"{name}: " + ", ".join(
            c.name for c in rep.checks if not c.passed)
        names = {c.name for c in rep.checks}
        assert "jordan-identity" in names
        assert "opnorm-square-upper" in names


def test_zero_and_neg():
    m = parse_model("hilbert:2")
    z = zero(m)
    assert triple_norm(z) == 0.0
    x = element(m, [0.1, 0.2])
    assert np.allclose((x - x).coords, 0)
    assert np.allclose((-x).coords, -x.coords)
