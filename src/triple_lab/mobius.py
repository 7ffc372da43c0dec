"""Mobius transvections of the open unit ball of a triple model.

For a center a with ||a|| < 1 the map

    g_a(x) = a + B_a (id + x [] a)^(-1) x,      B_a = B(a, a)^(1/2)

is a biholomorphic automorphism of the open unit ball with g_a(0) = a and
inverse g_{-a}. On the disc model it collapses to the classical
(a + x) / (1 + conj(a) x). Two independent evaluation routes are provided
(the resolvent form above and a Bergman quasi-inverse form), a truncated
geometric series exists as a cross-check, and the key norm identity

    1 / (1 - ||g_a(x)||^2) = || B_a^(-1) B(a, -x) B_x^(-1) ||

is computed exactly on every model: on p-by-q matrices each Bergman-type
operator is Z -> L Z R with p-by-p and q-by-q factors in closed form. The
sign in B(a, -x) matters; the variant with B(a, x) is exposed behind a flag
because it demonstrably fails already on the disc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalFailureError, SingularMatrixError, UsageError
from .linalg import SOLVE_RTOL, CMatrix, solve_linear
from .sampling import SamplingBudget, stream
from .triples import (
    TripleElement,
    TripleModel,
    _defect_powers,
    basis_element,
    bergman_rep,
    bergman_sqrt,
    box_rep,
    quadratic_rep,
    sample_coords,
    triple_norm,
    triple_norm_batch,
)


@dataclass(frozen=True, eq=False)
class MobiusMap:
    """Transvection g_a; carries the center and the cached square root B_a."""

    center: TripleElement
    bs: CMatrix = field(repr=False)

    @property
    def model(self) -> TripleModel:
        return self.center.model

    def __repr__(self):
        return f"MobiusMap({self.model}, ||a||={triple_norm(self.center):.6g})"


def mobius_map(a: TripleElement) -> MobiusMap:
    """g_a; bergman_sqrt raises DomainError unless ||a|| < 1."""
    return MobiusMap(a, bergman_sqrt(a))


def mobius_inverse(g: MobiusMap) -> MobiusMap:
    # B(-a, -a) = B(a, a), so the cached square root carries over
    return MobiusMap(-g.center, g.bs)


def _check_in_ball(x: TripleElement) -> None:
    n = triple_norm(x)
    if n >= 1.0:
        raise DomainError(f"argument must lie in the open unit ball, got norm {n:.6g}")


def mobius_apply(g: MobiusMap, x: TripleElement, route: str = "resolvent") -> TripleElement:
    """Evaluate g_a(x) by one of two independent routes.

    "resolvent":      a + B_a (id + x [] a)^(-1) x
    "quasi-inverse":  a + B_a B(x, -a)^(-1) (x + Q_x a)

    Both agree to solver accuracy; the second exercises the Bergman operator
    instead of the box resolvent. ||x [] a|| <= ||x|| ||a|| < 1 keeps the
    resolvent invertible; a singular system still surfaces as a numerical
    failure rather than silence.
    """
    if x.model != g.model:
        raise UsageError(f"model mismatch: {x.model} vs {g.model}")
    _check_in_ball(x)
    a = g.center
    try:
        if route == "resolvent":
            m = CMatrix.identity(g.model.coord_dim) + box_rep(x, a)
            y = solve_linear(m, x.coords)
        elif route == "quasi-inverse":
            rhs = x.coords + quadratic_rep(x).apply(a.coords)
            y = solve_linear(bergman_rep(x, -a), rhs)
        else:
            raise UsageError(f"unknown route {route!r}")
    except SingularMatrixError as exc:
        raise NumericalFailureError(f"Mobius resolvent singular: {exc}") from exc
    return TripleElement(g.model, a.coords + g.bs.entries @ y)


def mobius_apply_batch(g: MobiusMap, coords: np.ndarray) -> np.ndarray:
    """g_a over rows of an (n, coord_dim) array in Harris's form
    (I - A A*)^(-1/2) (X + A) M^(-1), M = (I - A* A)^(-1/2) (I + A* X); each
    row's q-by-q solve must meet solve_linear's residual bound SOLVE_RTOL."""
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.ndim != 2 or coords.shape[1] != g.model.coord_dim:
        raise UsageError(f"batch shape {coords.shape} does not match {g.model}")
    if not np.all(np.isfinite(coords)):
        raise UsageError("batch coordinates must be finite")
    norms = triple_norm_batch(g.model, coords)
    if norms.size and float(np.max(norms)) >= 1.0:
        raise DomainError(f"batch contains a point of norm {float(np.max(norms)):.6g} >= 1")
    p, q = g.model.shape
    left, right = _defect_powers(g.center, -0.5)
    am = g.center.as_matrix()
    # Y M = X + A solved as M^T Y^T = (X + A)^T: in the transposed frame the
    # constant factors multiply from the right, one 2-D product for all rows
    xt = coords.reshape(-1, p, q).transpose(0, 2, 1)
    mt = right.T + (xt.reshape(-1, p) @ (right @ am.conj().T).T).reshape(-1, q, q)
    nt = xt + am.T
    try:  # one-by-one systems (disc, hilbert) need no LAPACK call per row
        yt = nt / mt if q == 1 else np.linalg.solve(mt, nt)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"batched Mobius solve failed: {exc}") from exc
    resid = np.linalg.norm(mt @ yt - nt, axis=(1, 2))
    if not np.all(resid <= SOLVE_RTOL * np.linalg.norm(nt, axis=(1, 2))):
        raise NumericalFailureError(f"batched Mobius solve residual {resid.max():.3e} too large")
    out = (yt.reshape(-1, p) @ left.T).reshape(-1, q, p)  # (L Y)^T
    return out.transpose(0, 2, 1).reshape(len(coords), p * q)


def mobius_apply_series(
    g: MobiusMap, x: TripleElement, terms: int = 64, terminal: str = "x"
) -> tuple[TripleElement, float]:
    """Truncated series a + B_a sum_n (-x [] a)^n t, t = x or a.

    Returns the truncation and a rigorous tail bound
    ||x|| t^(N+1) / (1 - t) with t = ||x|| ||a||; B_a is a contraction so the
    bound survives the final multiplication. terminal="a" reproduces a
    defective variant that fails g_a(0) = a; it exists only so the failure
    can be demonstrated.
    """
    if terminal not in ("x", "a"):
        raise UsageError(f"terminal must be 'x' or 'a', got {terminal!r}")
    if terms < 1:
        raise UsageError("terms must be >= 1")
    _check_in_ball(x)
    a = g.center
    t = triple_norm(x) * triple_norm(a)
    if t >= 1.0:
        raise DomainError("series requires ||x|| ||a|| < 1")
    box = box_rep(x, a).entries
    vec = x.coords if terminal == "x" else a.coords
    acc = vec.copy()
    term = vec.copy()
    for _ in range(terms):
        term = -(box @ term)
        acc = acc + term
    tail = triple_norm(x) * t ** (terms + 1) / (1.0 - t)
    return TripleElement(g.model, a.coords + g.bs.entries @ acc), tail


def round_trip_residual(g: MobiusMap, x: TripleElement) -> float:
    """|| g_{-a}(g_a(x)) - x || in the triple norm."""
    back = mobius_apply(mobius_inverse(g), mobius_apply(g, x))
    diff = TripleElement(g.model, back.coords - x.coords)
    return triple_norm(diff)


def symmetry_apply(g: MobiusMap, x: TripleElement) -> TripleElement:
    """The symmetry s_a = g_a o (-id) o g_{-a}; an involution fixing a."""
    return mobius_apply(g, -mobius_apply(mobius_inverse(g), x))


@dataclass(frozen=True, eq=False)
class SphereSupReport:
    """sup of ||g_a|| over the sphere ||x|| = r versus the closed formula.

    formula_value = (||a|| + r) / (1 + r ||a||); the witness (r/||a||) a
    attains it exactly, random sphere samples can only fall short.
    """

    model_descriptor: str
    center_norm: float
    radius: float
    formula_value: float
    witness: TripleElement
    witness_value: float
    sup_estimate: float
    max_excess: float
    samples: int
    seed: int


def sphere_sup(a: TripleElement, r: float, budget: SamplingBudget | None = None) -> SphereSupReport:
    """Estimate sup_{||x|| = r} ||g_a(x)|| and compare with the formula."""
    if not 0.0 < r < 1.0:
        raise UsageError(f"radius must lie in (0, 1), got {r}")
    budget = budget or SamplingBudget()
    g = mobius_map(a)
    na = triple_norm(a)
    formula = (na + r) / (1.0 + r * na)
    if na > 0.0:
        witness = TripleElement(a.model, (r / na) * a.coords)
    else:
        witness = TripleElement(a.model, r * basis_element(a.model, 0).coords)
    witness_value = triple_norm(mobius_apply(g, witness))
    rng = stream(budget.seed, 0x5A)
    xs = sample_coords(a.model, budget.samples, rng, norms=r)
    vals = triple_norm_batch(a.model, mobius_apply_batch(g, xs))
    sup_estimate = max(float(np.max(vals)), witness_value)
    return SphereSupReport(
        model_descriptor=a.model.descriptor(),
        center_norm=na,
        radius=r,
        formula_value=formula,
        witness=witness,
        witness_value=witness_value,
        sup_estimate=sup_estimate,
        max_excess=sup_estimate - formula,
        samples=budget.samples,
        seed=budget.seed,
    )


@dataclass(frozen=True, eq=False)
class NormIdentityReport:
    """Both sides of 1/(1 - ||g_a(x)||^2) = ||B_a^(-1) B(a, -x) B_x^(-1)||.

    residual is |target - estimate|; relative_residual divides by the target
    (which is always >= 1, so relative <= absolute).
    """

    target: float
    estimate: float
    residual: float
    relative_residual: float
    certified: bool
    as_printed: bool


def norm_identity_residual(
    a: TripleElement, x: TripleElement, as_printed: bool = False
) -> NormIdentityReport:
    """Check the displacement-norm identity at one pair (a, x).

    as_printed=True swaps B(a, -x) for B(a, x), a sign variant that fails
    already on the disc (a = 0.5, x = 0.25 gives 1.8 against ~1.089). With
    y = -x (or x), B_a^(-1) B(a, y) B_x^(-1) is Z -> L Z R for
    L = (I - A A*)^(-1/2) (I - A Y*) (I - X X*)^(-1/2) and
    R = (I - X* X)^(-1/2) (I - Y* A) (I - A* A)^(-1/2); its norm is exactly
    ||L|| ||R|| on every model, so certified is always True.
    """
    gx = mobius_apply(mobius_map(a), x)
    target = 1.0 / (1.0 - triple_norm(gx) ** 2)
    am, yh = a.as_matrix(), (x if as_printed else -x).as_matrix().conj().T
    (la, ra), (lx, rx) = _defect_powers(a, -0.5), _defect_powers(x, -0.5)
    est = float(np.linalg.norm(la @ (np.eye(len(la)) - am @ yh) @ lx, 2)
                * np.linalg.norm(rx @ (np.eye(len(ra)) - yh @ am) @ ra, 2))
    resid = abs(target - est)
    return NormIdentityReport(target, est, resid, resid / abs(target), True, as_printed)
