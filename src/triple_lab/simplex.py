"""Dense simplex for small inequality-form LPs.

Solves   maximize c.x   subject to  A x <= b,  x >= 0,  with b >= 0
so the slack basis is feasible from the start.

Pivoting: Dantzig entering with a largest-pivot tie break for leaving rows,
which keeps the arithmetic healthy, plus Bland's smallest-index rule as an
anti-cycling fallback whenever the objective stalls on a degenerate plateau.
Bland terminates every plateau, and the objective is monotone, so the hybrid
terminates; everything is deterministic. The tableau is refactorized from
the original data every few pivots (and before declaring optimality), so
row-operation roundoff never accumulates into the answer: final solutions
satisfy their active constraints to machine precision instead of drifting
by 1e-6 after a few hundred pivots, which a carried tableau demonstrably
does on monomial-basis problems.

Stopping rule: optimal once no reduced cost is below -tol * max(1, |objective|).
Reduced costs carry roundoff in proportion to the objective; an absolute
threshold can sit below that noise, and Bland's rule then pivots on it forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError, UsageError


@dataclass(frozen=True, eq=False)
class LPResult:
    x: np.ndarray = field(repr=False)
    value: float
    iterations: int
    status: str  # "optimal" or "unbounded"


def solve_lp_maximize(
    c,
    a,
    b,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    refactor_every: int = 25,
) -> LPResult:
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise UsageError("constraint matrix must be 2-dimensional")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise UsageError(f"LP shape mismatch: A {a.shape}, c {c.shape}, b {b.shape}")
    if np.any(b < 0):
        raise UsageError("right-hand side must be non-negative (slack basis start)")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise UsageError("LP data must be finite")

    f = np.hstack([a, np.eye(m)])                 # pristine columns
    cost = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)

    def build(basis: np.ndarray) -> np.ndarray:
        bm = f[:, basis]
        try:
            body = np.linalg.solve(bm, np.column_stack([f, b]))
            y = np.linalg.solve(bm.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"simplex basis became singular: {exc}") from exc
        t = np.empty((m + 1, n + m + 1))
        t[:m] = body
        t[-1, :-1] = y @ f - cost
        t[-1, -1] = y @ b
        return t

    t = build(basis)
    it = 0
    since_refactor = 0
    stall = 0
    bland = False
    last_obj = t[-1, -1]
    while True:
        reduced = t[-1, :-1]
        neg = np.flatnonzero(reduced < -tol * max(1.0, abs(t[-1, -1])))
        if neg.size == 0:
            t = build(basis)  # optimality must hold on clean numbers
            reduced = t[-1, :-1]
            neg = np.flatnonzero(reduced < -tol * max(1.0, abs(t[-1, -1])))
            if neg.size == 0:
                break
        if it >= max_iter:
            raise NumericalFailureError(f"simplex exceeded {max_iter} pivots")
        j = int(neg[0]) if bland else int(neg[np.argmin(reduced[neg])])
        col = t[:m, j]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            return LPResult(np.full(n, np.nan), np.inf, it, "unbounded")
        ratios = t[rows, -1] / col[rows]
        best = float(ratios.min())
        tied = rows[np.abs(ratios - best) <= 1e-12 * max(1.0, abs(best))]
        if bland:
            r = int(tied[np.argmin(basis[tied])])
        else:
            r = int(tied[np.argmax(col[tied])])
        t[r] /= t[r, j]
        keep = np.arange(m + 1) != r
        t[keep] -= np.outer(t[keep, j], t[r])
        basis[r] = j
        it += 1
        since_refactor += 1
        if since_refactor >= refactor_every:
            t = build(basis)
            since_refactor = 0
        obj = t[-1, -1]
        if obj > last_obj + 1e-13 * max(1.0, abs(obj)):
            last_obj = obj
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > 2 * (m + n):
                bland = True

    try:
        xb = np.linalg.solve(f[:, basis], b)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"final simplex basis singular: {exc}") from exc
    x = np.zeros(n + m)
    x[basis] = xb
    return LPResult(x[:n].copy(), float(cost[basis] @ xb), it, "optimal")
