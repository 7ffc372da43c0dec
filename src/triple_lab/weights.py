"""Radial weights and certified envelopes for their associated weights.

A weight here is a positive function v on [0, 1) evaluated at the triple
norm. The associated weight at radius r is

    assoc(v)(r) = 1 / sup { |f(r)| : f holomorphic on the disc, ||f||_v <= 1 }

and is generally not computable in closed form, so this module produces
certified UPPER bounds for it from two sides:

  * monomial envelope  min_n M_n / r^n  with moments M_n = sup_s v(s) s^n,
    valid for every n because s^n / M_n is a competitor of v-norm <= 1; M_n
    comes in closed form from the maximizers of v(s) s^n, exact to rounding;
  * an LP envelope: maximize p(r) over polynomials p with non-negative
    coefficients subject to v(s) p(s) <= 1 on a grid, validated on a finer
    grid with cutting-plane repair, then 1 / p(r) bounds assoc(v)(r).

Raw v is always a LOWER bound (the constant competitor). For the calibrated
power family (1 - r^2)^alpha and for constants the associated weight equals
v itself, which the tests pin down.

Deep-boundary diagnostics (the doubling check that drives the composition
operator verdicts) run on log values throughout: exp(-beta/(1-r)) underflows
float64 long before the geometric shell grid bottoms out.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError, UsageError
from .sampling import worker_count
from .simplex import solve_lp_maximize

LOG_TINY = -745.0  # below log of the smallest subnormal


@dataclass(frozen=True)
class Weight:
    """Radial weight: a family with its parameter, or a table of knots."""

    family: str
    param: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    non_increasing: bool = True

    def eval(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = np.exp(self.log_eval(r))
        return out if out.ndim else float(out)

    def log_eval(self, r):
        """log v(r); exact per family, never an exp/log round trip."""
        r = np.asarray(r, dtype=np.float64)
        if self.family == "power":
            out = self.param * np.log1p(-r * r)
        elif self.family == "expdecay":
            out = -self.param / (1.0 - r)
        elif self.family == "constant":
            out = np.full_like(r, np.log(self.param))
        else:
            ks = np.array([k[0] for k in self.knots])
            vs = np.array([k[1] for k in self.knots])
            with np.errstate(divide="ignore"):
                out = np.log(np.interp(r, ks, vs))
        return out if out.ndim else float(out)

    def descriptor(self) -> str:
        if self.family == "table":
            return f"table:{len(self.knots)} knots"
        return f"{self.family}:{self.param:g}"

    def __str__(self):
        return self.descriptor()


def _finite_to_the_edge(w: Weight) -> Weight:
    """w itself, or a UsageError when log v overflows below r = 1.

    |log v| of the power and expdecay families grows toward r = 1, so the
    last float64 below 1 decides whether log v is finite on all of [0, 1).
    """
    with np.errstate(over="ignore"):
        edge = w.log_eval(np.nextafter(1.0, 0.0))
    if not np.isfinite(edge):
        raise UsageError(f"{w.family} weight parameter {w.param:g} overflows log v near r = 1")
    return w


def power_weight(alpha: float) -> Weight:
    if not 0 < alpha < np.inf:
        raise UsageError(f"power weight needs a finite alpha > 0, got {alpha}")
    return _finite_to_the_edge(Weight("power", float(alpha)))


def expdecay_weight(beta: float) -> Weight:
    if not 0 < beta < np.inf:
        raise UsageError(f"expdecay weight needs a finite beta > 0, got {beta}")
    return _finite_to_the_edge(Weight("expdecay", float(beta)))


def constant_weight(c: float) -> Weight:
    if not 0 < c < np.inf:
        raise UsageError(f"constant weight needs a finite c > 0, got {c}")
    return Weight("constant", float(c))


def table_weight(knots, validate: bool = True) -> Weight:
    """Piecewise-linear weight from (r, v) knots with increasing r in [0, 1).

    validate=False skips the positivity gate so that diagnostic checks can
    exercise their failure paths on bad tables.
    """
    ks = tuple((float(r), float(v)) for r, v in knots)
    if len(ks) < 2:
        raise UsageError("table weight needs at least two knots")
    rs, vs = np.array(ks).T
    if not np.all(np.isfinite(ks)):
        raise UsageError("table radii and values must be finite")
    if np.any(np.diff(rs) <= 0):
        raise UsageError("table radii must be strictly increasing")
    if rs[0] < 0.0 or rs[-1] >= 1.0:
        raise UsageError("table radii must lie in [0, 1)")
    # linear interpolation (held flat past the end knots) is positive and
    # non-increasing exactly when the knot values are
    if validate and np.any(vs <= 0.0):
        raise UsageError(f"table values must be positive, got {vs.min():g}")
    return Weight("table", None, ks, bool(np.all(np.diff(vs) <= 0.0)))


def parse_weight(text: str) -> Weight:
    """Parse "power:A", "expdecay:B", "constant:C", or "table:PATH.csv"."""
    t = text.strip()
    head, _, tail = t.partition(":")
    head = head.lower()
    if not tail:
        raise UsageError(f"bad weight descriptor {text!r}")
    if head == "table":
        return table_weight(_read_table_csv(tail))
    try:
        value = float(tail)
    except ValueError:
        raise UsageError(f"bad weight parameter in {text!r}")
    if head == "power":
        return power_weight(value)
    if head == "expdecay":
        return expdecay_weight(value)
    if head == "constant":
        return constant_weight(value)
    raise UsageError(f"unknown weight family {head!r}")


def _read_table_csv(path: str):
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except (ValueError, IndexError):
                    if not rows:
                        continue  # header line
                    raise UsageError(f"bad table row {line!r} in {path}")
    except (OSError, ValueError) as exc:  # ValueError: NUL in path, undecodable bytes
        raise UsageError(f"cannot read weight table {path}: {exc}") from exc
    if len(rows) < 2:
        raise UsageError(f"weight table {path} needs at least two data rows")
    return rows


def weight_eval(w: Weight, r: float) -> float:
    if not 0.0 <= r < 1.0:
        raise UsageError(f"weight domain is [0, 1), got r={r}")
    return float(w.eval(r))


@dataclass(frozen=True, eq=False)
class ConditionIReport:
    """Positivity of inf v over [0, r] for r up to each probe radius."""

    passed: bool
    minima: tuple[tuple[float, float], ...]
    offending_radius: float | None


def condition_I_check(
    w: Weight, radii: tuple[float, ...] = (0.9, 0.99, 0.999), grid: int = 4096
) -> ConditionIReport:
    radii = tuple(sorted(radii))
    if any(not 0.0 < r < 1.0 for r in radii):
        raise UsageError("probe radii must lie in (0, 1)")
    g = np.linspace(0.0, radii[-1], grid)
    if w.knots:  # a table's zeros sit at its knots, which a grid can miss
        g = np.union1d(g, [k for k, _ in w.knots if k <= radii[-1]])
    # positivity is decided in log space: fast-decaying weights underflow
    # float64 well inside (0, 1) yet remain strictly positive
    logs = np.asarray(w.log_eval(g), dtype=np.float64)
    minima = []
    offending = None
    passed = True
    for r in radii:
        sub = logs[g <= r + 1e-15]
        m = float(np.min(sub))
        minima.append((r, float(np.exp(m)) if m > -745.0 else 0.0))
        if not np.isfinite(m) and offending is None:
            offending = float(g[: len(sub)][int(np.argmin(sub))])
            passed = False
    return ConditionIReport(passed, tuple(minima), offending)


def _moment_points(w: Weight, ns: np.ndarray) -> np.ndarray:
    """Candidate maximizers of v(s) s^n in [0, 1], one row per order n.

    Each row contains the maximizer: the stationary point of the family, or
    for a table its knots, the clipped stationary point of (c + d s) s^n on
    each piece, and s = 1 for the flat tail (a sup approached, not attained).
    """
    n = ns[:, None].astype(np.float64)
    if w.family == "power":  # s^2 = n / (n + 2 alpha), kept below 1 for tiny alpha
        return np.minimum(np.sqrt(n / (n + 2.0 * w.param)), np.nextafter(1.0, 0.0))
    if w.family == "expdecay":
        b = w.param  # smaller root of n (1 - s)^2 = b s, free of cancellation
        return 2.0 * n / (2.0 * n + b + np.sqrt(b * b + 4.0 * n * b))
    if w.family == "constant":
        return np.ones_like(n)
    ks, vs = np.array(w.knots).T
    lo, hi = ks[:-1], ks[1:]
    d = np.diff(vs) / np.diff(ks)
    c = vs[:-1] - d * lo
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(d != 0.0, -n * c / ((n + 1.0) * d), lo)
    pieces = np.clip(stat, lo, hi)
    return np.hstack([np.broadcast_to(ks, (len(ns), len(ks))), pieces, np.ones_like(n)])


def _moment_table(w: Weight, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(log M_n, argmax_s) for n = 0..n_max: the best candidate of _moment_points.

    The candidates lie in [0, 1] and include the maximizer: the sup up to rounding.
    """
    ns = np.arange(n_max + 1)
    pts = _moment_points(w, ns)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_log_s = np.where(ns[:, None] == 0, 0.0, ns[:, None] * np.log(pts))
        objective = w.log_eval(pts) + n_log_s
    idx = np.argmax(objective, axis=1)
    return objective[ns, idx], pts[ns, idx]


def moment(w: Weight, n: int) -> tuple[float, float]:
    """M_n = sup_s v(s) s^n and its maximizer, in closed form.

    The maximizer is 1.0 where the sup is only approached at the boundary
    (constants, and the flat tail of a table).
    """
    if n < 0:
        raise UsageError("moment order must be >= 0")
    log_m, arg = _moment_table(w, n)
    return float(np.exp(log_m[n])), float(arg[n])


def _log_mono_envelope(w: Weight, radii: np.ndarray, n_max: int) -> np.ndarray:
    log_m, _ = _moment_table(w, n_max)
    radii = np.asarray(radii, dtype=np.float64)
    with np.errstate(divide="ignore"):
        logr = np.log(radii)
    logr = np.where(radii > 0.0, logr, LOG_TINY)
    ns = np.arange(n_max + 1)
    vals = log_m[None, :] - ns[None, :] * logr[:, None]
    return np.min(vals, axis=1)


def associated_upper_mono(w: Weight, r: float, n_max: int = 512) -> float:
    """Monomial envelope min_{n <= n_max} M_n / r^n, an upper bound of assoc(v)."""
    if not 0.0 <= r < 1.0:
        raise UsageError(f"radius must lie in [0, 1), got {r}")
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    return float(np.exp(_log_mono_envelope(w, np.array([r]), n_max)[0]))


@dataclass(frozen=True, eq=False)
class AdmissiblePolynomial:
    """LP certificate: p has non-negative coefficients, v |p| <= 1 validated.

    value = 1 / p(radius) is then an upper bound for assoc(v)(radius).
    """

    coeffs: np.ndarray = field(repr=False)
    radius: float
    value: float
    validated_norm: float
    rounds: int

    def eval_poly(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = np.polynomial.polynomial.polyval(r, self.coeffs)
        return out if out.ndim else float(out)


def _lp_base_grid(r: float, grid_size: int) -> np.ndarray:
    uniform = np.linspace(0.0, 1.0, grid_size + 1)[:-1]
    tail = 1.0 - 2.0 ** -np.arange(1.0, 21.0)
    return np.unique(np.concatenate([uniform, tail, [r]]))


def _refine_grid(g: np.ndarray, factor: int = 4) -> np.ndarray:
    steps = np.arange(factor) / factor
    pts = g[:-1, None] + np.diff(g)[:, None] * steps[None, :]
    return np.unique(np.concatenate([pts.ravel(), g[-1:]]))


def associated_upper_lp(
    w: Weight,
    r: float,
    degree: int = 96,
    grid_size: int = 256,
    tol: float = 1e-9,
    max_rounds: int = 12,
) -> AdmissiblePolynomial:
    """Best admissible polynomial competitor at radius r via the simplex.

    Cutting-plane outer loop: solve on the constraint grid, validate on a
    4x finer grid (always containing r), append violated points, repeat.
    The final rescale by the validated norm keeps the certificate honest:
    value >= v(r) structurally, and value <= the monomial envelope capped
    at the same degree, to within tol.
    """
    if not 0.0 <= r < 1.0:
        raise UsageError(f"radius must lie in [0, 1), got {r}")
    if degree < 1 or degree > 1024:
        raise UsageError(f"degree must be in [1, 1024], got {degree}")
    ns = np.arange(degree + 1)
    obj = np.power(r, ns)
    grid = _lp_base_grid(r, grid_size)
    last = None
    for rounds in range(1, max_rounds + 1):
        vg = np.asarray(w.eval(grid), dtype=np.float64)
        a = vg[:, None] * np.power.outer(grid, ns)
        # equilibrate columns: s^n spans hundreds of orders of magnitude and
        # would otherwise poison the pivoting; the scale is a grid moment
        col_scale = np.maximum(a.max(axis=0), 1e-300)
        res = solve_lp_maximize(obj / col_scale, a / col_scale[None, :], np.ones(len(grid)))
        if res.status != "optimal":
            raise NumericalFailureError(f"envelope LP came back {res.status}")
        coeffs = np.maximum(res.x, 0.0) / col_scale
        val_grid = np.unique(np.concatenate([_refine_grid(grid), [r]]))
        vv = np.asarray(w.eval(val_grid), dtype=np.float64)
        prod = vv * np.polynomial.polynomial.polyval(val_grid, coeffs)
        norm = float(np.max(prod))
        last = (coeffs, val_grid, norm, rounds)
        if norm <= 1.0 + tol:
            break
        # every equioscillation bulge needs its peak cut off, so take all
        # violators (worst first, capped) rather than a token few
        bad = np.flatnonzero(prod > 1.0 + 0.25 * tol)
        bad = bad[np.argsort(prod[bad])[::-1][:64]]
        grid = np.unique(np.concatenate([grid, val_grid[bad]]))
    coeffs, val_grid, norm, rounds = last
    if norm > 1.0 + 1e-6:
        raise NumericalFailureError(
            f"LP envelope validation stuck at norm {norm - 1.0:.3e} above 1 after {rounds} rounds"
        )
    scale = max(norm, 1.0)
    coeffs = coeffs / scale
    validated = norm / scale
    pr = float(np.polynomial.polynomial.polyval(r, coeffs))
    if pr <= 0.0:
        raise NumericalFailureError("LP produced a vanishing competitor polynomial")
    coeffs.setflags(write=False)
    return AdmissiblePolynomial(coeffs, r, 1.0 / pr, validated, rounds)


@dataclass(frozen=True, eq=False)
class AssociatedWeightEstimate:
    """Two-sided numerical picture of an associated weight on a radius grid.

    lower = raw v (always below assoc(v)); upper_mono and upper_lp are the
    certified upper bounds; chosen is their running minimum, non-increasing
    by construction for non-increasing weights.
    """

    weight: Weight
    radii: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    upper_mono: np.ndarray = field(repr=False)
    upper_lp: np.ndarray = field(repr=False)
    chosen: np.ndarray = field(repr=False)
    mono_nmax: int
    lp_degree: int
    polynomials: tuple[AdmissiblePolynomial, ...] = field(repr=False)

    def evaluate(self, r):
        """Certified upper bound of assoc(v) at arbitrary radii.

        Minimum of the monomial envelope and every stored LP certificate;
        each ingredient bounds assoc(v) at every radius, not only on the
        construction grid.
        """
        r = np.asarray(r, dtype=np.float64)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        if np.any((rr < 0.0) | (rr >= 1.0)):
            raise UsageError("radii must lie in [0, 1)")
        best = np.exp(_log_mono_envelope(self.weight, rr, self.mono_nmax))
        for poly in self.polynomials:
            pv = np.polynomial.polynomial.polyval(rr, poly.coeffs)
            with np.errstate(divide="ignore"):
                bound = np.where(pv > 0.0, 1.0 / np.maximum(pv, 1e-300), np.inf)
            best = np.minimum(best, bound)
        return float(best[0]) if scalar else best


def default_estimate_radii() -> np.ndarray:
    shells = 1.0 - 2.0 ** -np.arange(1.0, 9.0)
    return np.unique(np.concatenate([np.linspace(0.05, 0.95, 19), shells]))


def build_associated_estimate(
    w: Weight,
    radii=None,
    mono_nmax: int = 512,
    lp_degree: int = 96,
    lp_grid: int = 256,
) -> AssociatedWeightEstimate:
    """Run both estimators over a radius grid (threaded when allowed)."""
    rr = np.unique(np.asarray(default_estimate_radii() if radii is None else radii, dtype=np.float64))
    if rr.size == 0 or np.any((rr < 0.0) | (rr >= 1.0)):
        raise UsageError("estimate radii must be a non-empty subset of [0, 1)")
    lower = np.asarray(w.eval(rr), dtype=np.float64)
    upper_mono = np.exp(_log_mono_envelope(w, rr, mono_nmax))

    def one(r: float) -> AdmissiblePolynomial:
        return associated_upper_lp(w, float(r), degree=lp_degree, grid_size=lp_grid)

    workers = worker_count()
    if workers > 1 and rr.size > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            polys = tuple(pool.map(one, rr))
    else:
        polys = tuple(one(r) for r in rr)
    upper_lp = np.array([p.value for p in polys])

    both = np.minimum(upper_mono, upper_lp)
    chosen = np.minimum.accumulate(both) if w.non_increasing else both
    if np.any(chosen < lower * (1.0 - 1e-9) - 1e-300):
        k = int(np.argmax(lower - chosen))
        raise NumericalFailureError(
            f"envelope dipped below the weight at r={rr[k]:.6g}: "
            f"{chosen[k]:.6g} < {lower[k]:.6g}"
        )
    for arr in (rr, lower, upper_mono, upper_lp, chosen):
        arr.setflags(write=False)
    return AssociatedWeightEstimate(
        w, rr, lower, upper_mono, upper_lp, chosen, mono_nmax, lp_degree, polys
    )


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """l(s) = estimate of assoc(v) at radius 1 - s on a geometric s-grid.

    log_l is the authoritative data; l_values = exp(log_l) may underflow to
    zero for fast-decaying weights and is kept only for reporting.
    """

    s_values: np.ndarray = field(repr=False)
    l_values: np.ndarray = field(repr=False)
    log_l: np.ndarray = field(repr=False)
    source: str

    def __post_init__(self):
        s = np.asarray(self.s_values, dtype=np.float64)
        ll = np.asarray(self.log_l, dtype=np.float64)
        if s.ndim != 1 or s.shape != ll.shape:
            raise UsageError("boundary grids must be matching 1-d arrays")
        if np.any(np.diff(s) >= 0) or np.any(s <= 0) or np.any(s > 0.5):
            raise UsageError("s grid must be decreasing inside (0, 0.5]")
        if np.any(np.isnan(ll)) or np.any(np.isposinf(ll)):
            raise UsageError("boundary function must be finite and positive")


def auto_boundary_source(w: Weight) -> tuple[str, str]:
    """(source, label) that boundary_l(w, source="auto") uses for w's family."""
    if w.family in ("power", "constant"):
        return "raw-weight", f"raw-weight (exact: assoc = v for {w.family})"
    if w.family == "expdecay":
        return "raw-weight", "raw-weight (proxy: envelope saturates at depth)"
    return "associated-estimate", "associated-estimate (depth capped)"


def boundary_l(
    w: Weight | None = None,
    source: str = "auto",
    k_max: int = 20,
    estimate: AssociatedWeightEstimate | None = None,
    s_values=None,
    log_values=None,
) -> BoundaryFunction:
    """Boundary decay function on the geometric grid s_k = 2^-k, k = 1..k_max.

    Sources:
      raw-weight            l(s) = v(1 - s); exact for the power/constant
                            families where assoc(v) = v, a labeled proxy
                            otherwise
      associated-estimate   l(s) = certified envelope at 1 - s (depth capped:
                            the polynomial estimators saturate at deep shells)
      user-supplied         pass s_values and log_values directly
      auto                  picks per family and labels the choice
    """
    if source == "user-supplied":
        if s_values is None or log_values is None:
            raise UsageError("user-supplied boundary needs s_values and log_values")
        return BoundaryFunction(
            np.asarray(s_values, dtype=np.float64),
            np.exp(np.asarray(log_values, dtype=np.float64)),
            np.asarray(log_values, dtype=np.float64),
            "user-supplied",
        )
    if w is None:
        raise UsageError("boundary_l needs a weight unless source='user-supplied'")
    if k_max < 2:
        raise UsageError("k_max must be >= 2")
    if source == "auto":
        source, label = auto_boundary_source(w)
    else:
        label = source
    s = 2.0 ** -np.arange(1.0, k_max + 1.0)
    if source == "raw-weight":
        ll = np.asarray(w.log_eval(1.0 - s), dtype=np.float64)
    elif source == "associated-estimate":
        depth = min(k_max, 10)
        s = 2.0 ** -np.arange(1.0, depth + 1.0)
        est = estimate or build_associated_estimate(w, radii=1.0 - s)
        ll = np.log(np.maximum(est.evaluate(1.0 - s), 1e-300))
        if "associated-estimate" not in label:
            label = "associated-estimate (depth capped)"
    else:
        raise UsageError(f"unknown boundary source {source!r}")
    return BoundaryFunction(s, np.exp(ll), ll, label)


@dataclass(frozen=True, eq=False)
class DoublingReport:
    """Halving ratios rho_k = l(s_k) / l(s_k / 2) and their verdict.

    bounded:      last five ratios agree within 10 percent
    diverging:    last five ratios each grow by more than 20 percent
    inconclusive: anything else
    M_estimate = max rho_k over shells with s_k < s0 (inf if it overflows).
    """

    M_estimate: float
    verdict: str
    s0: float
    ratios: np.ndarray = field(repr=False)
    log_ratios: np.ndarray = field(repr=False)
    source: str = ""


def doubling_check(l: BoundaryFunction, s0: float = 0.25) -> DoublingReport:
    s = l.s_values
    if len(s) < 6:
        raise UsageError(f"doubling check needs at least 6 grid points, got {len(s)}")
    if not 0.0 < s0 <= 0.5:
        raise UsageError(f"s0 must lie in (0, 0.5], got {s0}")
    halves = s[1:] / s[:-1]
    if np.any(np.abs(halves - 0.5) > 1e-9):
        raise UsageError("doubling check needs a geometric grid with ratio 1/2")
    lam = l.log_l[:-1] - l.log_l[1:]  # log of rho_k
    with np.errstate(over="ignore"):
        ratios = np.exp(lam)
    usable = s[:-1] < s0 - 1e-15
    if not np.any(usable):
        raise UsageError(f"no ratio has s_k < s0 = {s0}")
    m_log = float(np.max(lam[usable]))
    m_est = float(np.exp(m_log)) if m_log < 700.0 else float("inf")
    tail = lam[-5:]
    if len(tail) < 5:
        verdict = "inconclusive"
    elif float(np.max(tail) - np.min(tail)) <= np.log(1.1):
        verdict = "bounded"
    elif np.all(np.diff(tail) > np.log(1.2)):
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return DoublingReport(m_est, verdict, s0, ratios, lam, l.source)


@dataclass(frozen=True, eq=False)
class DominationReport:
    """kappa = inf_r vZ(r) / vX(r) on a grid reaching 1 - 2^-20.

    holds=False (kappa below kappa_min) means no positive constant K can
    satisfy vZ >= K vX up to the boundary; witness_radius is the argmin.
    """

    kappa: float
    witness_radius: float
    holds: bool
    kappa_min: float
    vz_non_increasing: bool


def weight_domination(
    vz: Weight, vx: Weight, grid=None, kappa_min: float = 1e-4
) -> DominationReport:
    if grid is None:
        grid = np.unique(np.concatenate([
            np.linspace(0.0, 0.999, 2048),
            1.0 - 2.0 ** -np.arange(1.0, 21.0),
        ]))
    grid = np.asarray(grid, dtype=np.float64)
    if np.any((grid < 0.0) | (grid >= 1.0)):
        raise UsageError("domination grid must lie in [0, 1)")
    diff = np.asarray(vz.log_eval(grid)) - np.asarray(vx.log_eval(grid))
    k = int(np.argmin(diff))
    kappa = float(np.exp(diff[k]))
    return DominationReport(kappa, float(grid[k]), kappa >= kappa_min, kappa_min, vz.non_increasing)
