import numpy as np
import pytest
import scipy.linalg

from triple_lab.errors import DomainError, SingularMatrixError, UsageError
from triple_lab.linalg import (
    CMatrix,
    principal_sqrt,
    solve_linear,
    spectral_norm,
    spectrum,
)


def test_solve_against_hand_back_substitution():
    # [[1,1],[0,1]] v = (2,1): back-substitute by hand: v2=1, v1=2-1=1
    m = CMatrix.from_array(np.array([[1, 1], [0, 1]], dtype=np.complex128))
    v = solve_linear(m, np.array([2, 1], dtype=np.complex128))
    assert np.allclose(v, [1, 1], atol=1e-14)


def test_solve_matrix_rhs_gives_inverse():
    m = CMatrix.from_array(np.array([[2, 1], [1, 3]], dtype=np.complex128))
    inv = solve_linear(m, np.eye(2, dtype=np.complex128))
    assert np.allclose(m.entries @ inv, np.eye(2), atol=1e-13)


def test_solve_rejects_singular():
    m = CMatrix.from_array(np.array([[1, 2], [2, 4]], dtype=np.complex128))
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear(m, np.array([1, 0], dtype=np.complex128))
    assert exc.value.condition is None or exc.value.condition > 1e14


def test_solve_shape_errors():
    m = CMatrix.from_array(np.array([[1, 0], [0, 1]], dtype=np.complex128))
    with pytest.raises(UsageError):
        solve_linear(m, np.zeros(3, dtype=np.complex128))


def test_spectral_norm_nilpotent():
    # [[0,2],[0,0]] has singular values {2, 0}
    m = CMatrix.from_array(np.array([[0, 2], [0, 0]], dtype=np.complex128))
    assert abs(spectral_norm(m) - 2.0) <= 1e-14


def test_spectrum_canonical_order_and_residual():
    m = CMatrix.from_array(np.diag([1.0 + 0j, 3.0, 2.0]))
    sp = spectrum(m)
    assert np.allclose(sp.eigenvalues, [3, 2, 1])
    assert sp.max_residual <= 1e-12


def test_spectrum_orders_by_real_then_imag():
    m = CMatrix.from_array(np.diag([1 + 1j, 1 + 2j, 2 + 0j]))
    sp = spectrum(m)
    assert np.allclose(sp.eigenvalues, [2 + 0j, 1 + 2j, 1 + 1j])


def test_principal_sqrt_scalar():
    m = CMatrix.from_array(np.array([[0.5625]], dtype=np.complex128))
    s = principal_sqrt(m)
    assert abs(s.entries[0, 0] - 0.75) <= 1e-12


def test_principal_sqrt_matches_scipy_on_random():
    rng = np.random.default_rng(7)
    for k in range(25):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        # shift well away from the negative real axis
        a = a @ a.conj().T + (0.5 + 0.1 * k) * np.eye(n)
        ours = principal_sqrt(CMatrix.from_array(a)).entries
        ref = scipy.linalg.sqrtm(a)
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert np.linalg.norm(ours - ref) <= 1e-8 * scale, f"trial {k}"


def test_principal_sqrt_nonnormal_matches_scipy():
    a = np.array([[4.0, 10.0], [0.0, 9.0]], dtype=np.complex128)
    ours = principal_sqrt(CMatrix.from_array(a)).entries
    ref = scipy.linalg.sqrtm(a)
    assert np.linalg.norm(ours - ref) <= 1e-10
    assert np.linalg.norm(ours @ ours - a) <= 1e-10


def test_principal_sqrt_rejects_negative_axis():
    with pytest.raises(DomainError):
        principal_sqrt(CMatrix.from_array(np.array([[-1.0 + 0j]])))
    with pytest.raises(DomainError):
        principal_sqrt(CMatrix.from_array(np.diag([1.0 + 0j, -2.0])))


def test_principal_sqrt_rejects_singular():
    with pytest.raises(DomainError):
        principal_sqrt(CMatrix.from_array(np.zeros((2, 2), dtype=np.complex128)))


def test_cmatrix_arithmetic():
    a = CMatrix.from_array(np.array([[1, 2], [3, 4]], dtype=np.complex128))
    b = CMatrix.identity(2)
    assert np.allclose((a - b).entries, [[0, 2], [3, 3]])
    assert np.allclose((a @ b).entries, a.entries)


def test_cmatrix_entries_read_only():
    a = CMatrix.identity(2)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0
