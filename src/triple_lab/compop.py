"""Continuity diagnostics for composition operators between weighted spaces.

A holomorphic self-map phi of the unit ball induces C_phi(f) = f o phi. For
radial weights vX (domain side) and vZ (target side), boundedness of
C_phi between the associated weighted sup-norm spaces is governed by

    sup_x  vX(||x||) / assoc(vZ)(||phi(x)||).

This module evaluates that supremum on geometric boundary shells
r_k = 1 - 2^-k. Two denominators are tracked: the raw weight vZ (a lower
bound of assoc(vZ), so the ratio is an upper bound and "continuous"
verdicts stay conservative) and the certified associated-weight envelope
(a secondary diagnostic; the polynomial estimators saturate at deep shells
for fast-decaying weights, so it never drives the verdict by itself; its LPs
are paid only by a caller that passes an estimate, and without one the
secondary trend is NaN; the envelope is non-increasing in r, so a shell
evaluates it at its largest image norm only). Nothing is sampled: a shell
needs only its largest image norm, which sphere_max bounds in closed form,
and one witness per shell checks that the bound is attained, as a
"not-continuous" verdict requires.

The global theorem route: if vZ dominates vX up to a constant along equal
norms and the boundary doubling of vZ is bounded, EVERY composition
operator of the family is continuous. Both gates are computed here, and a
Mobius-family spot check exercises the converse direction.

Shell trends use log values throughout; exp(-beta/(1-r)) underflows long
before shell 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidMapError, NumericalFailureError, UsageError
from .linalg import CMatrix
from .mobius import MobiusMap, mobius_apply_batch, mobius_map
from .sampling import SamplingBudget, stream
from .triples import (
    TripleElement,
    TripleModel,
    op_norm_triple,
    parse_model,
    sample_coords,
    triple_norm,
    triple_norm_batch,
    zero,
)
from .weights import (
    AssociatedWeightEstimate,
    BoundaryFunction,
    DoublingReport,
    DominationReport,
    Weight,
    auto_boundary_source,
    boundary_l,
    build_associated_estimate,
    condition_I_check,
    doubling_check,
    weight_domination,
)

_TREND_FLAT = np.log(1.1)   # "within 10 percent" band for bounded verdicts
_TREND_GROW = np.log(1.2)   # "grows by 20 percent" steps for divergence


@dataclass(frozen=True, eq=False)
class HoloMap:
    """A ball-to-ball holomorphic map assembled from validated pieces.

    kinds: identity, linear (contraction matrix), mobius (transvection),
    power (coordinatewise k-th power; a Schur-product argument keeps it
    inside the ball on every model), compose (parts applied left to right).
    """

    kind: str
    domain: TripleModel
    codomain: TripleModel
    label: str
    matrix: CMatrix | None = None
    mob: MobiusMap | None = None
    exponent: int | None = None
    parts: tuple["HoloMap", ...] = ()


def identity_map(model: TripleModel) -> HoloMap:
    return HoloMap("identity", model, model, "identity")


def linear_map(
    matrix: CMatrix,
    domain: TripleModel,
    codomain: TripleModel | None = None,
    budget: SamplingBudget | None = None,
) -> HoloMap:
    """Linear contraction between models; rejected unless op-norm <= 1.

    The norm gate is exact (SVD) when both norms are euclidean-type and a
    sampled lower bound otherwise; per-application range checks back it up.
    """
    codomain = codomain or domain
    if matrix.shape != (codomain.coord_dim, domain.coord_dim):
        raise UsageError(
            f"linear map shape {matrix.shape} does not send {domain} to {codomain}"
        )
    est = _cross_norm_estimate(matrix, domain, codomain, budget)
    if est > 1.0 + 1e-12:
        raise InvalidMapError(f"linear factor has operator norm estimate {est:.6g} > 1")
    return HoloMap("linear", domain, codomain, "linear", matrix=matrix)


def _cross_norm_estimate(
    matrix: CMatrix, domain: TripleModel, codomain: TripleModel, budget: SamplingBudget | None
) -> float:
    if domain.norm_kind != "spectral" and codomain.norm_kind != "spectral":
        return float(np.linalg.norm(matrix.entries, 2))
    budget = budget or SamplingBudget(samples=2048, ascent_steps=60, probes=16, seed=0)
    if domain == codomain:
        return op_norm_triple(matrix, domain, budget).estimate
    rng = stream(budget.seed, 0x11)
    xs = sample_coords(domain, budget.samples, rng, 1.0)
    return float(np.max(triple_norm_batch(codomain, xs @ matrix.entries.T)))


def mobius_holo(center: TripleElement) -> HoloMap:
    g = mobius_map(center)
    return HoloMap(
        "mobius", center.model, center.model,
        f"mobius(||a||={triple_norm(center):.3g})", mob=g,
    )


def power_map(model: TripleModel, exponent: int) -> HoloMap:
    if exponent < 1:
        raise UsageError(f"power map exponent must be >= 1, got {exponent}")
    return HoloMap("power", model, model, f"pow:{exponent}", exponent=int(exponent))


def compose_maps(parts) -> HoloMap:
    """Composition; parts listed in application order (first acts first)."""
    parts = tuple(parts)
    if not parts:
        raise UsageError("compose needs at least one map")
    for f, g in zip(parts, parts[1:]):
        if f.codomain != g.domain:
            raise UsageError(f"composition mismatch: {f.codomain} feeds {g.domain}")
    label = " -> ".join(p.label for p in parts)
    return HoloMap("compose", parts[0].domain, parts[-1].codomain, label, parts=parts)


def parse_map(text: str, model: TripleModel) -> HoloMap:
    """Parse a map descriptor on a model.

    "identity" | "mobius:C" (center C along the first basis direction)
    | "pow:K" | "linear:PATH.csv" (complex matrix entries)
    | "compose:[D1;D2;...]" applied left to right, where a Dk may itself
    be a compose descriptor.
    """
    t = text.strip()
    low = t.lower()
    if low == "identity":
        return identity_map(model)
    if low.startswith("mobius:"):
        try:
            c = float(t.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad mobius descriptor {text!r}")
        if not 0.0 <= abs(c) < 1.0:
            raise UsageError(f"mobius center norm must be < 1, got {c}")
        coords = np.zeros(model.coord_dim, dtype=np.complex128)
        coords[0] = c
        return mobius_holo(TripleElement(model, coords))
    if low.startswith("pow:"):
        try:
            return power_map(model, int(t.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad power descriptor {text!r}")
    if low.startswith("linear:"):
        return linear_map(_read_matrix_csv(t.split(":", 1)[1], model.coord_dim), model)
    if low.startswith("compose:"):
        body = t.split(":", 1)[1].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise UsageError(f"compose descriptor needs [...], got {text!r}")
        # split at the semicolons outside nested brackets only
        inner, depth, start = [], 0, 1
        for i, ch in enumerate(body[1:-1], 1):
            depth += (ch == "[") - (ch == "]")
            if depth < 0:
                break
            if ch == ";" and depth == 0:
                inner.append(body[start:i])
                start = i + 1
        if depth != 0:
            raise UsageError(f"unbalanced brackets in compose descriptor {text!r}")
        inner = [s for s in inner + [body[start:-1]] if s.strip()]
        if not inner:
            raise UsageError(f"empty compose descriptor {text!r}")
        return compose_maps(parse_map(s, model) for s in inner)
    raise UsageError(f"unknown map descriptor {text!r}")


def _read_matrix_csv(path: str, dim: int) -> CMatrix:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([complex(p.strip().replace(" ", "")) for p in line.split(",")])
                except ValueError:
                    raise UsageError(f"bad matrix row {line!r} in {path}")
    except (OSError, ValueError) as exc:  # ValueError: NUL in path, undecodable bytes
        raise UsageError(f"cannot read matrix {path}: {exc}") from exc
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise UsageError(f"matrix in {path} has row lengths {[len(r) for r in rows]}, "
                         f"expected {dim}x{dim}")
    return CMatrix.from_array(rows)


def map_apply(phi: HoloMap, x: TripleElement) -> TripleElement:
    """Evaluate the map; output escaping the closed ball is rejected."""
    if x.model != phi.domain:
        raise UsageError(f"map domain {phi.domain} does not accept {x.model}")
    out = TripleElement(phi.codomain, map_apply_batch(phi, x.coords[None, :])[0])
    return out


def map_apply_batch(phi: HoloMap, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.ndim != 2 or coords.shape[1] != phi.domain.coord_dim:
        raise UsageError(f"batch shape {coords.shape} does not match {phi.domain}")
    out = _apply_kind(phi, coords)
    norms = triple_norm_batch(phi.codomain, out)
    if norms.size and float(np.max(norms)) >= 1.0 + 1e-12:
        raise InvalidMapError(
            f"map {phi.label!r} left the closed unit ball (norm {float(np.max(norms)):.6g})"
        )
    return out


def _apply_kind(phi: HoloMap, coords: np.ndarray) -> np.ndarray:
    if phi.kind == "identity":
        return coords
    if phi.kind == "linear":
        return coords @ phi.matrix.entries.T
    if phi.kind == "power":
        return coords ** phi.exponent
    if phi.kind == "mobius":
        try:
            return mobius_apply_batch(phi.mob, coords)
        except DomainError as exc:
            raise InvalidMapError(f"mobius stage received points outside the ball: {exc}") from exc
    out = coords
    for part in phi.parts:
        out = map_apply_batch(part, out)
    return out


def sphere_max(phi: HoloMap, r) -> np.ndarray:
    """Rigorous upper bound of max ||phi(x)|| over ||x|| = r, vectorised over r.

    identity r; pow:k r**k (Schur product inequality on spectral models,
    sum |x_i|^(2k) <= (sum |x_i|^2)^k on euclidean ones); mobius
    (r + c)/(1 + r c) with c = ||a||; linear ||T||_2 r on euclidean domains
    and min(1, sqrt(min(p, q)) ||T||_2) r on spectral ones, where the cap 1
    is the contraction linear_map's norm gate admitted; compose chains its
    stages, each nondecreasing in r.
    """
    r = np.asarray(r, dtype=np.float64)
    if phi.kind == "identity":
        return r
    if phi.kind == "power":
        return r ** phi.exponent
    if phi.kind == "mobius":
        c = triple_norm(phi.mob.center)
        return (r + c) / (1.0 + r * c)
    if phi.kind == "linear":
        gain = float(np.linalg.norm(phi.matrix.entries, 2))
        if phi.domain.norm_kind == "spectral":
            gain = min(1.0, float(np.sqrt(min(phi.domain.shape))) * gain)
        return gain * r
    for part in phi.parts:
        r = sphere_max(part, r)
    return r


def _direction(phi: HoloMap) -> np.ndarray:
    """Unit witness direction: the Mobius center of the first non-identity
    stage, the top right singular vector of a linear map, e1 otherwise."""
    if phi.kind == "compose":
        return _direction(next((p for p in phi.parts if p.kind != "identity"), phi.parts[0]))
    v = np.zeros(phi.domain.coord_dim, dtype=np.complex128)
    v[0] = 1.0
    if phi.kind == "mobius" and triple_norm(phi.mob.center) > 0.0:
        v = phi.mob.center.coords
    elif phi.kind == "linear":
        v = np.linalg.svd(phi.matrix.entries)[2][0].conj()
    return v / triple_norm(TripleElement(phi.domain, v))


def _shell_maxima(phi: HoloMap, radii: np.ndarray) -> tuple[np.ndarray, bool]:
    """sphere_max on every shell, and whether one witness per shell reaches it."""
    top = sphere_max(phi, radii)
    witnesses = radii[:, None] * _direction(phi)[None, :]
    reached = triple_norm_batch(phi.codomain, map_apply_batch(phi, witnesses))
    return top, bool(np.all(reached >= top * (1.0 - 1e-12)))


def normalize_at_origin(phi: HoloMap) -> tuple[HoloMap, TripleElement]:
    """Factor out the image of the origin: returns (psi, a) with
    psi = g_{-a} o phi, psi(0) = 0, a = phi(0)."""
    a = map_apply(phi, zero(phi.domain))
    if triple_norm(a) <= 1e-14:
        return phi, a
    g_back = mobius_holo(-a)
    psi = compose_maps([phi, g_back])
    resid = triple_norm(map_apply(psi, zero(phi.domain)))
    if resid > 1e-10:
        raise NumericalFailureError(f"origin normalization left ||psi(0)|| = {resid:.3e}")
    return psi, a


@dataclass(frozen=True, eq=False)
class SchwarzReport:
    """Random verification of ||phi(x)|| <= ||x|| for origin-fixing maps."""

    map_label: str
    model_descriptor: str
    precondition_ok: bool
    origin_norm: float
    max_excess: float
    max_ratio: float
    violations: int
    samples: int
    seed: int
    passed: bool


def schwarz_check(
    phi: HoloMap, samples: int = 10_000, seed: int = 0, tol: float = 1e-10
) -> SchwarzReport:
    origin_norm = triple_norm(map_apply(phi, zero(phi.domain)))
    pre_ok = origin_norm <= 1e-12
    rng = stream(seed, 0x5C)
    radii = rng.uniform(1e-3, 0.999, size=samples)
    xs = sample_coords(phi.domain, samples, rng, norms=radii)
    out = triple_norm_batch(phi.codomain, map_apply_batch(phi, xs))
    excess = out - radii
    max_excess = float(np.max(excess))
    max_ratio = float(np.max(out / radii))
    violations = int(np.sum(excess > tol))
    return SchwarzReport(
        phi.label, phi.domain.descriptor(), pre_ok, origin_norm,
        max_excess, max_ratio, violations, samples, seed,
        pre_ok and max_excess <= tol,
    )


def _trend_verdict(log_vals: np.ndarray) -> str:
    if len(log_vals) < 6:
        return "inconclusive"
    tail = log_vals[-5:]
    if float(np.max(tail) - np.min(tail)) <= _TREND_FLAT:
        return "bounded"
    if np.all(np.diff(tail) <= 1e-9):
        return "bounded"  # decaying toward the boundary: sup sits on earlier shells
    if np.all(np.diff(tail) > _TREND_GROW):
        return "diverging"
    return "inconclusive"


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    """Shell evaluation of the boundedness criterion for one map.

    image_maxima holds sphere_max per shell (clipped at 1 - 1e-15); attained
    says a witness reached it on every shell. primary_log_trend uses the raw target weight in the denominator (an
    upper bound of the true criterion ratio: conservative toward
    "continuous"); secondary_log_trend uses the certified associated
    envelope passed as assoc_z, and is all NaN when none was passed.
    verdict comes from the primary trend only; "not-continuous" needs
    attained maxima and a non-increasing vZ, where that trend is exact.
    """

    criterion: str
    map_label: str
    weight_x: str
    weight_z: str
    shell_radii: np.ndarray = field(repr=False)
    image_maxima: np.ndarray = field(repr=False)
    primary_log_trend: np.ndarray = field(repr=False)
    secondary_log_trend: np.ndarray = field(repr=False)
    trend: np.ndarray = field(repr=False)
    sup_estimate: float = np.nan
    diverged: bool = False
    verdict: str = "inconclusive"
    attained: bool = False
    r0: float | None = None
    notes: str = ""


def _shell_radii(shells: int) -> np.ndarray:
    """Radii r_k = 1 - 2^-k, k = 1..shells.

    Past 53 shells r rounds to 1 in float64, where power weights read
    log v = -inf, so such counts are refused. The deepest accepted shells
    still misread for Mobius maps and composites: their image norms round
    toward 1 and are clipped at 1 - 1e-15, which only carrying s = 1 - r in
    place of r would mend.
    """
    if shells < 2:
        raise UsageError("need at least 2 shells")
    radii = 1.0 - 2.0 ** -np.arange(1.0, shells + 1.0)
    if not radii[-1] < 1.0:
        raise UsageError(f"{shells} shells put r = 1 in float64; use at most 53")
    return radii


def criterion_sup_ratio(
    phi: HoloMap,
    v_x: Weight,
    v_z: Weight,
    assoc_z: AssociatedWeightEstimate | None = None,
    budget: SamplingBudget | None = None,
    shells: int = 8,
) -> ContinuityReport:
    """Shell evaluation of sup vX(||x||) / vZ(||phi(x)||).

    Requires both weights to satisfy Condition I. budget is ignored; the
    acceptance battery (c8) still passes one.
    """
    return _criterion(phi, v_x, v_z, assoc_z, shells, tail_r0=None)


def criterion_tail(
    phi: HoloMap,
    v_x: Weight,
    v_z: Weight,
    r0: float = 0.9,
    assoc_z: AssociatedWeightEstimate | None = None,
    shells: int = 8,
) -> ContinuityReport:
    """Tail variant: only image norms > r0 enter the ratio.

    A map whose image never reaches past r0 satisfies the criterion
    vacuously and is reported continuous with a note.
    """
    if not 0.0 < r0 < 1.0:
        raise UsageError(f"r0 must lie in (0, 1), got {r0}")
    return _criterion(phi, v_x, v_z, assoc_z, shells, tail_r0=r0)


def _require_condition_I(name: str, w: Weight) -> None:
    chk = condition_I_check(w)
    if not chk.passed:
        raise UsageError(
            f"{name} weight {w.descriptor()} violates positivity near r={chk.offending_radius}"
        )


def _criterion(phi, v_x, v_z, assoc_z, shells, tail_r0):
    _require_condition_I("domain", v_x)
    _require_condition_I("target", v_z)
    radii = _shell_radii(shells)
    return _report(phi.label, v_x, v_z, assoc_z, radii, *_shell_maxima(phi, radii), tail_r0)


def _min_log_weight(w: Weight, lo: float, top: np.ndarray) -> np.ndarray:
    """Per shell, min of log w over [lo, top], which holds the shell's image
    norms: the sphere's image is connected and reaches top. A non-increasing
    w takes it at top; any other w is a table, minimal at an end or a knot."""
    if w.non_increasing:
        return w.log_eval(top)
    knots = np.array([k[0] for k in w.knots])
    return np.array([
        np.min(w.log_eval(np.concatenate(([lo], knots[(knots > lo) & (knots < t)], [t]))))
        for t in top
    ])


def _report(label, v_x, v_z, assoc_z, radii, maxima, attained, tail_r0):
    """The trend and verdict of one map's shell maxima under one weight pair."""
    shells = len(radii)
    top = np.minimum(maxima, 1.0 - 1e-15)
    usable = np.ones(shells, dtype=bool) if tail_r0 is None else top > tail_r0
    log_vx = np.asarray(v_x.log_eval(radii[usable]))
    primary = np.full(shells, np.nan)
    primary[usable] = log_vx - _min_log_weight(v_z, tail_r0 or 0.0, top[usable])
    secondary = np.full(shells, np.nan)
    if assoc_z is not None and np.any(usable):  # the envelope is smallest at the largest norm
        secondary[usable] = log_vx - np.log(np.maximum(assoc_z.evaluate(top[usable]), 1e-300))

    notes = ""
    if tail_r0 is not None and not np.any(usable):
        verdict = "continuous"
        notes = f"image never exceeds r0={tail_r0}; criterion holds vacuously"
        sup_est, diverged = 0.0, False
        trend = np.full(shells, np.nan)
    else:
        ulog = primary[usable]
        tv = _trend_verdict(ulog)
        verdict = {"bounded": "continuous", "diverging": "not-continuous"}.get(tv, "inconclusive")
        if verdict == "not-continuous" and not (attained and v_z.non_increasing):
            verdict = "inconclusive"
            notes = "the trend bounds the ratio from above only; divergence is not shown"
        if tail_r0 is not None and np.sum(usable) < 6:
            notes = "fewer than 6 shells reach past r0; verdict stays inconclusive"
            verdict = "inconclusive"
        with np.errstate(over="ignore"):
            trend = np.exp(primary)
        m = float(np.max(ulog))
        diverged = m > 700.0
        sup_est = float("inf") if diverged else float(np.exp(m))

    return ContinuityReport(
        criterion="sup-ratio" if tail_r0 is None else "tail",
        map_label=label,
        weight_x=v_x.descriptor(),
        weight_z=v_z.descriptor(),
        shell_radii=radii.copy(),  # one radii array serves every report of a call
        image_maxima=top,
        primary_log_trend=primary,
        secondary_log_trend=secondary,
        trend=trend,
        sup_estimate=sup_est,
        diverged=diverged,
        verdict=verdict,
        attained=attained,
        r0=tail_r0,
        notes=notes,
    )


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Global verdict for the whole family of composition operators.

    applicable requires the target weight to dominate the domain weight
    (positive kappa) and to be non-increasing. Then bounded doubling of the
    target boundary function certifies every C_phi continuous; a diverging
    doubling reports "not all continuous" (the Mobius family realizes the
    divergence, see spot_check_mobius_family).
    """

    weight_x: str
    weight_z: str
    applicable: bool
    reason: str
    verdict: str
    domination: DominationReport
    boundary: BoundaryFunction | None
    doubling: DoublingReport | None


def theorem_verdict(
    v_x: Weight,
    v_z: Weight,
    s0: float = 0.25,
    boundary_source: str = "auto",
    k_max: int = 20,
    assoc_z: AssociatedWeightEstimate | None = None,
) -> TheoremReport:
    dom = weight_domination(v_z, v_x)
    if not dom.holds:
        return TheoremReport(
            v_x.descriptor(), v_z.descriptor(), False,
            f"target weight degenerates relative to domain weight "
            f"(kappa ~ {dom.kappa:.3e} at r={dom.witness_radius:.6g})",
            "inapplicable", dom, None, None,
        )
    if not v_z.non_increasing:
        return TheoremReport(
            v_x.descriptor(), v_z.descriptor(), False,
            "target weight is not non-increasing", "inapplicable", dom, None, None,
        )
    l = boundary_l(v_z, source=boundary_source, k_max=k_max, estimate=assoc_z)
    db = doubling_check(l, s0=s0)
    verdict = {
        "bounded": "all continuous",
        "diverging": "not all continuous",
    }.get(db.verdict, "inconclusive")
    return TheoremReport(
        v_x.descriptor(), v_z.descriptor(), True,
        f"domination kappa = {dom.kappa:.6g}; boundary source: {l.source}",
        verdict, dom, l, db,
    )


def spot_check_mobius_family(
    v_z: Weight,
    model: TripleModel | None = None,
    center_norms: tuple[float, ...] = (0.2, 0.4, 0.6),
    shells: int = 8,
    assoc_z: AssociatedWeightEstimate | None = None,
) -> tuple[tuple[float, ContinuityReport], ...]:
    """Criterion reports for g_a across center norms, vX = vZ.

    The transvection family is the canonical stress test: when the theorem
    route reports bounded doubling these must all come back continuous, and
    for fast-decaying weights they realize the divergence.
    """
    model = model or parse_model("disc")
    _require_condition_I("domain", v_z)
    radii = _shell_radii(shells)
    out = []
    for c in center_norms:
        coords = np.zeros(model.coord_dim, dtype=np.complex128)
        coords[0] = c
        phi = mobius_holo(TripleElement(model, coords))
        rep = _report(phi.label, v_z, v_z, assoc_z, radii, *_shell_maxima(phi, radii), None)
        out.append((float(c), rep))
    return tuple(out)


def builtin_maps(model: TripleModel) -> tuple[HoloMap, ...]:
    """The stock test maps on a model (mixed origin-fixing and moving)."""
    half = CMatrix.from_array(0.5 * np.eye(model.coord_dim, dtype=np.complex128))

    def center(c):
        coords = np.zeros(model.coord_dim, dtype=np.complex128)
        coords[0] = c
        return TripleElement(model, coords)

    return (
        identity_map(model),
        power_map(model, 2),
        linear_map(half, model),
        mobius_holo(center(0.2)),
        mobius_holo(center(0.4)),
        mobius_holo(center(0.6)),
        compose_maps([power_map(model, 2), mobius_holo(center(0.4))]),
    )


def builtin_weights() -> tuple[Weight, ...]:
    from .weights import constant_weight, expdecay_weight, power_weight

    return (
        power_weight(0.5),
        power_weight(1.0),
        power_weight(2.0),
        constant_weight(1.0),
        expdecay_weight(0.5),
        expdecay_weight(1.0),
    )


@dataclass(frozen=True, eq=False)
class ConsistencyRow:
    weight: str
    theorem: TheoremReport
    map_reports: tuple[ContinuityReport, ...]
    contradictions: tuple[str, ...]


def consistency_matrix(
    model: TripleModel | None = None,
    weights: tuple[Weight, ...] | None = None,
    maps: tuple[HoloMap, ...] | None = None,
    budget: SamplingBudget | None = None,
    shells: int = 8,
) -> tuple[ConsistencyRow, ...]:
    """Cross the built-in maps with the built-in weights (vX = vZ per row).

    A contradiction is a per-map "not-continuous" under a theorem-level
    "all continuous": the conservative primary trend should never produce
    one. The reverse pattern (theorem says not-all, a particular map still
    continuous) is expected and benign. budget is ignored; c8 and the
    benchmark's battery workload still pass one.
    """
    model = model or parse_model("disc")
    weights = weights or builtin_weights()
    maps = maps or builtin_maps(model)
    assocs, theorems = [], []
    for w in weights:
        # theorem_verdict reads an estimate only past its non_increasing gate
        reads = w.non_increasing and auto_boundary_source(w)[0] == "associated-estimate"
        assocs.append(build_associated_estimate(w) if reads else None)
        theorems.append(theorem_verdict(w, w, assoc_z=assocs[-1]))
        _require_condition_I("domain", w)
    radii = _shell_radii(shells)
    reports = [[] for _ in weights]
    for phi in maps:
        maxima, attained = _shell_maxima(phi, radii)
        for w, assoc, reps in zip(weights, assocs, reports):
            reps.append(_report(phi.label, w, w, assoc, radii, maxima, attained, None))
    rows = []
    for w, thm, reps in zip(weights, theorems, reports):
        contra = tuple(
            f"{r.map_label}: {r.verdict} vs theorem {thm.verdict}"
            for r in reps
            if thm.verdict == "all continuous" and r.verdict == "not-continuous"
        )
        rows.append(ConsistencyRow(w.descriptor(), thm, tuple(reps), contra))
    return tuple(rows)
