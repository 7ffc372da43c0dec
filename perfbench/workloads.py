"""The four benchmark workloads: seeded inputs, the timed call, the check.

A workload runs in cycles. A cycle is a fixed list of task kinds (one per
weight family, per model, or per sweep kind), so a run of any length has the
same mix of work. The inputs of cycle c depend only on (seed, c).

Each workload provides:

  prepare()               objects built once per process (models, maps)
  inputs(ctx, seed, c)    the task inputs of cycle c, in cycle order
  run(ctx, inp)           the timed calls into the program; returns outputs
  check(ctx, inp, out)    failed output checks as strings (empty when fine)
  values(inp, out)        the result values that enter the digest

run() reaches every program function through its module object at call
time, so the tracer's rebinding of module attributes sees these calls too.
The tolerances in check() are the literals of tests/test_acceptance.py.
"""

from __future__ import annotations

import math

import numpy as np

from triple_lab import compop, linalg, mobius, sampling, triples, weights

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread_draw(seed: int, tag: int, k: int, lo: float, hi: float) -> float:
    """k-th seeded low-discrepancy draw in [lo, hi).

    The offset comes from the seed; each draw steps by the golden ratio, so
    the draws of one run cover the range evenly instead of clustering.
    """
    u = float(sampling.stream(seed, tag).uniform())
    return lo + (hi - lo) * ((u + k * GOLDEN) % 1.0)


def task_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Envelope:
    """One task per weight: the associated-weight envelope and its doubling check."""

    name = "envelope"
    # No expdecay weights: the simplex cycles on about 1% of them (NOTES.md,
    # "Known defect: the simplex cycles"). Power three times in five: the
    # median task then sits inside the power cluster, not on the gap between
    # the slow power tasks and the fast constant and table ones.
    kinds = ("power", "power", "power", "constant", "table")
    window_cycles = 1
    tag = 0xE1

    def prepare(self):
        return None

    def inputs(self, ctx, seed, cycle):
        # A table's cost grows steeply with its last knot radius (0.4 s to
        # 16 s), so that radius is spread over the cycles like the parameters
        # and the inner knots are drawn below it; with three independent
        # radii, runs swung on whether one of their tables came out slow.
        last = spread_draw(seed, self.tag + 3, cycle, 0.05, 0.99)
        middle = last * spread_draw(seed, self.tag + 4, cycle, 0.2, 1.0)
        radii = [middle * spread_draw(seed, self.tag + 5, cycle, 0.2, 1.0), middle, last]
        values = sorted((spread_draw(seed, self.tag + 6 + i, cycle, 0.01, 1.0) for i in range(3)),
                        reverse=True)
        knots = [(0.0, 1.0)] + list(zip(radii, values))
        powers = [weights.power_weight(spread_draw(seed, self.tag, 3 * cycle + k, 0.5, 2.0))
                  for k in range(3)]
        return powers + [
            weights.constant_weight(spread_draw(seed, self.tag + 2, cycle, 0.5, 2.0)),
            weights.table_weight(knots),
        ]

    def run(self, ctx, w):
        est = weights.build_associated_estimate(w)
        bl = weights.boundary_l(w, estimate=est)
        return est, bl, weights.doubling_check(bl)

    def check(self, ctx, w, out):
        est, _, db = out
        bad = []
        if not np.all(est.chosen >= est.lower * (1 - 1e-9)):
            bad.append("envelope below the weight")
        # as c6: against the monomial envelope at the LP's own degree cap
        # everywhere, and against the default (deeper) one at r <= 0.9
        matched = np.array([weights.associated_upper_mono(w, float(r), n_max=est.lp_degree)
                            for r in est.radii])
        if not np.all(est.upper_lp <= matched * (1 + 1e-9) + 1e-12):
            bad.append("LP envelope above the monomial envelope of the same degree")
        near = est.radii <= 0.9
        if not np.all(est.upper_lp[near] <= est.upper_mono[near] * (1 + 1e-9) + 1e-12):
            bad.append("LP envelope above the monomial envelope at r <= 0.9")
        if w.family == "power":
            v = (1.0 - est.radii[near] ** 2) ** w.param
            rel = float(np.max(np.abs(est.upper_lp[near] - v) / v))
            if rel > 0.05:
                bad.append(f"LP off (1-r^2)^a by {rel:.3%}")
        forced = {"power": "bounded", "constant": "bounded"}
        if w.family in forced and db.verdict != forced[w.family]:
            bad.append(f"doubling verdict {db.verdict}, family forces {forced[w.family]}")
        if w.family == "constant" and abs(db.M_estimate - 1.0) > 1e-12:
            bad.append(f"constant weight doubling M = {db.M_estimate!r}")
        return bad

    def values(self, w, out):
        est, bl, db = out
        return (est.lower, est.upper_mono, est.upper_lp, est.chosen, bl.log_l,
                db.M_estimate, db.verdict)


class Battery:
    """One task per consistency-matrix row on the disc: a weight against the 7 maps."""

    name = "battery"
    # no expdecay rows, for the simplex defect named at Envelope; power twice
    # in three, so the median row is a power row
    kinds = ("power", "power", "constant")
    window_cycles = 1
    tag = 0xB1

    def prepare(self):
        disc = triples.parse_model("disc")
        return disc, compop.builtin_maps(disc)

    def inputs(self, ctx, seed, cycle):
        rng = sampling.stream(seed, self.tag, cycle)
        ws = (
            weights.power_weight(spread_draw(seed, self.tag, 2 * cycle, 0.5, 2.0)),
            weights.power_weight(spread_draw(seed, self.tag, 2 * cycle + 1, 0.5, 2.0)),
            weights.constant_weight(spread_draw(seed, self.tag + 2, cycle, 0.5, 2.0)),
        )
        return [(w, sampling.SamplingBudget(samples=2000, seed=task_seed(rng))) for w in ws]

    def run(self, ctx, inp):
        disc, maps = ctx
        w, budget = inp
        return compop.consistency_matrix(model=disc, weights=(w,), maps=maps,
                                         budget=budget, shells=8)

    def check(self, ctx, inp, rows):
        row = rows[0]
        # power and constant weights both force "all continuous"
        bad = [f"contradiction: {c}" for c in row.contradictions]
        if row.theorem.verdict != "all continuous":
            bad.append(f"theorem verdict {row.theorem.verdict!r}, family forces 'all continuous'")
        return bad

    def values(self, inp, rows):
        row = rows[0]
        out = [row.theorem.verdict]
        for rep in row.map_reports:
            out += [rep.verdict, rep.sup_estimate, rep.image_maxima,
                    rep.primary_log_trend, rep.secondary_log_trend]
        return out


MOBIUS_MODELS = ("disc", "hilbert:2", "hilbert:5", "matrix:2x2", "matrix:2x3")


class MobiusPairs:
    """One task per pair (a, x): transvection identities element by element."""

    name = "mobius-pairs"
    kinds = MOBIUS_MODELS
    window_cycles = 100
    tag = 0x3C

    def prepare(self):
        return [triples.parse_model(m) for m in MOBIUS_MODELS]

    def inputs(self, ctx, seed, cycle):
        rng = sampling.stream(seed, self.tag, cycle)
        out = []
        for m in ctx:
            # [0.05, 0.8] meets the norm ranges of both c3 and c5
            a = triples.sample_element(m, rng, norm=float(rng.uniform(0.05, 0.8)))
            x = triples.sample_element(m, rng, norm=float(rng.uniform(0.05, 0.8)))
            out.append((a, x))
        return out

    def run(self, ctx, inp):
        a, x = inp
        g = mobius.mobius_map(a)
        y = mobius.mobius_apply(g, x)
        y2 = mobius.mobius_apply(g, x, route="quasi-inverse")
        at_zero = mobius.mobius_apply(g, triples.zero(a.model))
        back = mobius.mobius_apply(mobius.mobius_map(-a), y)
        nir = None
        if a.model.norm_kind != "spectral":
            nir = mobius.norm_identity_residual(a, x)
        return y, y2, at_zero, back, nir

    def check(self, ctx, inp, out):
        a, x = inp
        y, y2, at_zero, back, nir = out
        bad = []
        for label, resid, tol in (
            ("g_a(0)=a", triples.triple_norm(at_zero - a), 1e-9),
            ("round trip", triples.triple_norm(back - x), 1e-9),
            ("routes", triples.triple_norm(y - y2), 1e-10),
        ):
            if not resid <= tol:
                bad.append(f"{label} residual {resid:.3e} > {tol:g}")
        if nir is not None:
            if not nir.certified:
                bad.append("norm identity not certified on a euclidean model")
            if not nir.residual <= 1e-9:
                bad.append(f"norm identity residual {nir.residual:.3e} > 1e-9")
        return bad

    def values(self, inp, out):
        y, y2, at_zero, back, nir = out
        vals = [y.coords, y2.coords, at_zero.coords, back.coords]
        if nir is not None:
            vals += [nir.target, nir.estimate]
        return vals


class Sweep:
    """Batched paths: sphere sups on five models, sampled inverse-Bergman norms."""

    name = "sweep"
    # The median task must sit inside one kind's cluster of times, far from
    # the next: the matrix kinds lie within 1.5x of each other and swap order
    # under the machine's jitter, which made the median jump between them.
    # hilbert:5 (about 20 ms) lies 3x from both neighbours; with every
    # euclidean model twice, four tasks of a cycle run below its two and four
    # above them.
    SPHERE_MODELS = ("disc", "disc", "hilbert:2", "hilbert:2", "hilbert:5", "hilbert:5",
                     "matrix:2x2", "matrix:2x3")
    OP_NORM_MODELS = ("matrix:2x2", "matrix:2x3")
    kinds = tuple(f"sphere_sup {m}" for m in SPHERE_MODELS) + tuple(
        f"op_norm {m}" for m in OP_NORM_MODELS)
    window_cycles = 6
    tag = 0x5E

    def prepare(self):
        return {m: triples.parse_model(m) for m in MOBIUS_MODELS}

    def inputs(self, ctx, seed, cycle):
        rng = sampling.stream(seed, self.tag, cycle)
        out = []
        for m in self.SPHERE_MODELS:
            # c4 ranges: center norms 0.2..0.8, radii 0.1..0.9
            a = triples.sample_element(ctx[m], rng, norm=float(rng.uniform(0.2, 0.8)))
            budget = sampling.SamplingBudget(samples=10_000, seed=task_seed(rng))
            out.append(("sphere_sup", a, float(rng.uniform(0.1, 0.9)), budget))
        for m in self.OP_NORM_MODELS:
            # c2 range: center norms 0.1..0.85
            a = triples.sample_element(ctx[m], rng, norm=float(rng.uniform(0.1, 0.85)))
            budget = sampling.SamplingBudget(samples=10_000, seed=task_seed(rng))
            out.append(("op_norm", a, None, budget))
        return out

    def run(self, ctx, inp):
        kind, a, r, budget = inp
        if kind == "sphere_sup":
            return mobius.sphere_sup(a, r, budget)
        eye = np.eye(a.model.coord_dim, dtype=np.complex128)
        binv = linalg.CMatrix.from_array(linalg.solve_linear(triples.bergman_sqrt(a), eye))
        return triples.op_norm_triple(binv, a.model, budget)

    def check(self, ctx, inp, rep):
        kind, a, _, _ = inp
        if kind == "sphere_sup":
            bad = []
            dw = abs(rep.witness_value - rep.formula_value)
            if not dw <= 1e-9:
                bad.append(f"witness off the formula by {dw:.3e}")
            if not rep.max_excess <= 1e-9:
                bad.append(f"sample excess {rep.max_excess:.3e}")
            return bad
        na = triples.triple_norm(a)
        ratio = rep.estimate / (1.0 / (1.0 - na * na))
        return [] if 0.95 <= ratio <= 1.001 else [f"sampled norm ratio {ratio:.6f}"]

    def values(self, inp, rep):
        if inp[0] == "sphere_sup":
            return (rep.formula_value, rep.witness_value, rep.sup_estimate, rep.max_excess)
        return (rep.estimate, rep.witness.coords)


WORKLOADS = {w.name: w for w in (Envelope(), Battery(), MobiusPairs(), Sweep())}
