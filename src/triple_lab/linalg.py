"""Small dense complex linear algebra with checked contracts.

Thin layer over numpy.linalg: every operation validates its inputs, checks
the accuracy it promises, and raises typed errors instead of returning junk.
Matrices are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalFailureError, SingularMatrixError, UsageError

SOLVE_RTOL = 1e-12
SQRT_RTOL = 1e-10
SPECTRUM_TOL = 1e-8
COND_SINGULAR = 1e14


def _as_complex_matrix(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2:
        raise UsageError(f"matrix entries must be 2-dimensional, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise UsageError(f"matrix must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise UsageError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class CMatrix:
    """Immutable complex matrix, row-major storage."""

    rows: int
    cols: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _as_complex_matrix(self.entries)
        if a.shape != (self.rows, self.cols):
            raise UsageError(f"declared shape ({self.rows},{self.cols}) != entries shape {a.shape}")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_array(cls, entries) -> "CMatrix":
        a = _as_complex_matrix(entries)
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls(n, n, np.eye(n, dtype=np.complex128))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise UsageError(f"cannot multiply {self.shape} by {other.shape}")
        return CMatrix.from_array(self.entries @ other.entries)

    def __add__(self, other: "CMatrix") -> "CMatrix":
        if self.shape != other.shape:
            raise UsageError(f"shape mismatch {self.shape} vs {other.shape}")
        return CMatrix.from_array(self.entries + other.entries)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        if self.shape != other.shape:
            raise UsageError(f"shape mismatch {self.shape} vs {other.shape}")
        return CMatrix.from_array(self.entries - other.entries)

    def __repr__(self):
        return f"CMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in canonical order plus a backward-error bound.

    Order: descending real part, ties by descending imaginary part.
    max_residual: max_i ||A u_i - lambda_i u_i||_2 over unit eigenvectors,
    relative to max(1, ||A||_F).
    """

    eigenvalues: np.ndarray
    max_residual: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.complex128)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)


def _canonical_eig_order(values: np.ndarray) -> np.ndarray:
    # lexsort uses the LAST key as primary
    return np.lexsort((-values.imag, -values.real))


def solve_linear(m: CMatrix, b: np.ndarray, rtol: float = SOLVE_RTOL) -> np.ndarray:
    """Solve m v = b with a verified residual ||m v - b|| <= rtol ||b||.

    Singular-to-tolerance systems raise SingularMatrixError carrying the
    condition estimate; a residual that refuses to shrink below the target
    raises NumericalFailureError.
    """
    if m.rows != m.cols:
        raise UsageError(f"solve requires a square matrix, got {m.shape}")
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (1, 2) or b.shape[0] != m.rows:
        raise UsageError(f"right-hand side shape {b.shape} incompatible with {m.shape}")
    a = m.entries
    try:
        cond = float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > COND_SINGULAR:
        raise SingularMatrixError(
            f"matrix singular to working precision (condition estimate {cond:.3e})", cond
        )
    try:
        v = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}", cond) from exc
    bnorm = float(np.linalg.norm(b))
    target = rtol * bnorm
    # iterative refinement in working precision; cheap and usually one pass
    for _ in range(3):
        r = b - a @ v
        if float(np.linalg.norm(r)) <= target:
            return v
        v = v + np.linalg.solve(a, r)
    if float(np.linalg.norm(b - a @ v)) <= target:
        return v
    raise NumericalFailureError(
        f"residual {float(np.linalg.norm(b - a @ v)):.3e} above {target:.3e} "
        f"after refinement (condition {cond:.3e})"
    )


def spectrum(m: CMatrix, tol: float = SPECTRUM_TOL) -> Spectrum:
    """Full eigenvalue set with residual certification."""
    if m.rows != m.cols:
        raise UsageError(f"spectrum requires a square matrix, got {m.shape}")
    a = m.entries
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration did not converge: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(a)))
    resid = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    vnorms = np.linalg.norm(vectors, axis=0)
    max_residual = float(np.max(resid / np.maximum(vnorms, 1e-300))) / scale
    if max_residual > tol:
        raise NumericalFailureError(
            f"eigenpair residual {max_residual:.3e} above tolerance {tol:.3e}"
        )
    order = _canonical_eig_order(values)
    return Spectrum(values[order], max_residual)


def spectral_norm(m: CMatrix) -> float:
    """Largest singular value."""
    try:
        return float(np.linalg.norm(m.entries, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc


def _sqrt_residual(s: np.ndarray, a: np.ndarray) -> float:
    return float(np.linalg.norm(s @ s - a) / max(np.linalg.norm(a), 1e-300))


def _principal_sqrt_eig(a: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(a)
    root = np.sqrt(values.astype(np.complex128))
    return vectors @ (root[:, None] * np.linalg.solve(vectors, np.eye(a.shape[0], dtype=np.complex128)))


def principal_sqrt(m: CMatrix, rtol: float = SQRT_RTOL, max_iter: int = 100) -> CMatrix:
    """Principal matrix square root.

    Coupled Newton iteration (Denman-Beavers) with determinantal scaling;
    falls back to an eigendecomposition route if the iteration stalls. The
    result S satisfies ||S^2 - m|| <= rtol ||m|| and has spectrum in the open
    right half-plane. Matrices with an eigenvalue on the closed negative real
    axis are rejected: no principal root exists there.
    """
    if m.rows != m.cols:
        raise UsageError(f"square root requires a square matrix, got {m.shape}")
    a = m.entries.astype(np.complex128)
    n = m.rows
    ev = np.linalg.eigvals(a)
    scale = float(np.max(np.abs(ev))) if n else 0.0
    if scale == 0.0:
        raise DomainError("zero matrix has no principal square root (0 is in the spectrum)")
    on_cut = (ev.real <= 0.0) & (np.abs(ev.imag) <= 1e-12 * scale)
    near_zero = np.abs(ev) <= 1e-14 * scale
    if np.any(on_cut | near_zero):
        bad = ev[on_cut | near_zero][0]
        raise DomainError(
            f"eigenvalue {bad:.6g} lies on the closed negative real axis; "
            "principal square root undefined"
        )

    eye = np.eye(n, dtype=np.complex128)
    y, z = a.copy(), eye.copy()
    converged = False
    for _ in range(max_iter):
        try:
            yinv = np.linalg.solve(y, eye)
            zinv = np.linalg.solve(z, eye)
        except np.linalg.LinAlgError:
            break
        # determinantal scaling accelerates the pre-asymptotic phase
        _, logdet_y = np.linalg.slogdet(y)
        _, logdet_z = np.linalg.slogdet(z)
        g = np.exp(-(logdet_y + logdet_z) / (2.0 * n))
        if not np.isfinite(g) or g <= 0.0:
            g = 1.0
        y_next = 0.5 * (g * y + zinv / g)
        z_next = 0.5 * (g * z + yinv / g)
        step = float(np.linalg.norm(y_next - y) / max(np.linalg.norm(y_next), 1e-300))
        y, z = y_next, z_next
        if step < 1e-14:
            converged = True
            break
    if converged and _sqrt_residual(y, a) <= rtol:
        return CMatrix.from_array(y)

    s = _principal_sqrt_eig(a)
    if _sqrt_residual(s, a) <= rtol:
        return CMatrix.from_array(s)
    raise NumericalFailureError(
        f"square-root residual {_sqrt_residual(s, a):.3e} above tolerance {rtol:.3e}"
    )
