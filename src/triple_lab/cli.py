"""Command line front end.

Subcommands cover the main laboratory workflows: triple-axiom sweeps,
Bergman-inverse norm checks, Mobius geometry diagnostics, the sup lemma,
associated-weight envelopes, composition-operator continuity analysis, and
the built-in map-by-weight consistency battery.

Output is deterministic for fixed flags and seed: no timestamps, floats
rendered with %.17g in csv mode. Exit codes: 0 all checks passed, 1 a
mathematical check failed (axiom violation, bracket miss, contradiction),
2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .compop import (
    builtin_maps,
    consistency_matrix,
    criterion_sup_ratio,
    criterion_tail,
    normalize_at_origin,
    parse_map,
    schwarz_check,
    theorem_verdict,
)
from .errors import DomainError, NumericalFailureError, UsageError
from .linalg import CMatrix, solve_linear
from .mobius import (
    mobius_apply,
    mobius_map,
    norm_identity_residual,
    round_trip_residual,
    sphere_sup,
)
from .sampling import SamplingBudget, stream
from .triples import (
    axiom_suite,
    bergman_sqrt,
    op_norm_triple,
    parse_model,
    sample_element,
    triple_norm,
    zero,
)
from .weights import (
    boundary_l,
    build_associated_estimate,
    condition_I_check,
    doubling_check,
    parse_weight,
)

_DEFAULT_MODELS = ("disc", "hilbert:2", "hilbert:5", "matrix:2x2", "matrix:2x3")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Writer:
    """Collects human or csv lines; headers carry the reproducing command."""

    def __init__(self, fmt: str, argv: list[str]):
        self.fmt = fmt
        self.lines: list[str] = []
        if fmt == "csv":
            shown = []
            skip = False
            for a in argv:  # the output path is not part of the analysis
                if skip:
                    skip = False
                    continue
                if a == "--out":
                    skip = True
                    continue
                shown.append(a)
            self.lines.append(f"# triple-lab {__version__}")
            self.lines.append("# command: " + " ".join(shown))

    def note(self, text: str) -> None:
        self.lines.append(("# " + text) if self.fmt == "csv" else text)

    def table(self, name: str, headers: list[str], rows: list[list]) -> None:
        if self.fmt == "csv":
            self.lines.append(f"# table: {name}")
            self.lines.append(",".join(headers))
            for row in rows:
                self.lines.append(",".join(
                    _fmt(c) if isinstance(c, float) else str(c) for c in row))
            return
        self.lines.append("")
        self.lines.append(f"[{name}]")
        cells = [[c if isinstance(c, str) else (f"{c:.6g}" if isinstance(c, float) else str(c))
                  for c in row] for row in rows]
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(headers)]
        self.lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in cells:
            self.lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))

    def dump(self, out_path: str | None) -> None:
        text = "\n".join(self.lines) + "\n"
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _cfg_get(ns, cfg: dict, key: str, default):
    val = getattr(ns, key, None)
    if val is not None:
        return val
    return cfg.get(key, default)


def _models(ns, cfg) -> list:
    names = _cfg_get(ns, cfg, "model", None) or list(_DEFAULT_MODELS)
    return [parse_model(n) for n in names]


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated floats, got {text!r}")


# ---------------------------------------------------------------- commands


def cmd_axioms(ns, cfg, w: _Writer) -> int:
    trials = int(_cfg_get(ns, cfg, "trials", 1000))
    tol = float(_cfg_get(ns, cfg, "tol", 1e-10))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    failed = False
    for model in _models(ns, cfg):
        rep = axiom_suite(model, trials=trials, seed=seed, tol=tol)
        rows = [[c.name, "pass" if c.passed else "FAIL",
                 float(c.worst_residual), float(c.threshold), c.worst_trial]
                for c in rep.checks]
        w.table(f"axioms {model.descriptor()}",
                ["check", "status", "worst_residual", "threshold", "worst_trial"], rows)
        failed = failed or not rep.passed
    w.note(f"axioms: {'FAIL' if failed else 'pass'} "
           f"(trials={trials}, tol={_fmt(tol)}, seed={seed})")
    return 1 if failed else 0


def cmd_eq1(ns, cfg, w: _Writer) -> int:
    centers = int(_cfg_get(ns, cfg, "centers", 20))
    samples = int(_cfg_get(ns, cfg, "samples", 10_000))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    failed = False
    for model in _models(ns, cfg):
        rows = []
        for i in range(centers):
            rng = stream(seed, 0xE1, i)
            a = sample_element(model, rng, norm=float(rng.uniform(0.1, 0.9)))
            na = triple_norm(a)
            target = 1.0 / (1.0 - na * na)
            binv = CMatrix.from_array(solve_linear(
                bergman_sqrt(a), np.eye(model.coord_dim, dtype=np.complex128)))
            est = op_norm_triple(binv, model,
                                 SamplingBudget(samples=samples, seed=seed + i))
            ratio = est.estimate / target
            if est.certified:
                ok = abs(ratio - 1.0) <= 1e-10
            else:
                ok = 0.95 <= ratio <= 1.001
            rows.append([float(na), target, float(est.estimate), float(ratio),
                         "exact" if est.certified else "sampled",
                         "pass" if ok else "FAIL"])
            failed = failed or not ok
        w.table(f"bergman-inverse-norm {model.descriptor()}",
                ["center_norm", "target", "estimate", "ratio", "mode", "status"], rows)
    w.note(f"eq1: {'FAIL' if failed else 'pass'} (centers={centers}, samples={samples})")
    return 1 if failed else 0


def cmd_mobius(ns, cfg, w: _Writer) -> int:
    pairs = int(_cfg_get(ns, cfg, "pairs", 200))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    failed = False
    for model in _models(ns, cfg):
        worst = {"origin": 0.0, "roundtrip": 0.0, "routes": 0.0, "identity": 0.0}
        for i in range(pairs):
            rng = stream(seed, 0x30, i)
            a = sample_element(model, rng, norm=float(rng.uniform(0.05, 0.85)))
            x = sample_element(model, rng, norm=float(rng.uniform(0.05, 0.85)))
            g = mobius_map(a)
            worst["origin"] = max(worst["origin"],
                                  triple_norm(mobius_apply(g, zero(model)) - a))
            worst["roundtrip"] = max(worst["roundtrip"], round_trip_residual(g, x))
            y1 = mobius_apply(g, x, route="resolvent")
            y2 = mobius_apply(g, x, route="quasi-inverse")
            worst["routes"] = max(worst["routes"], triple_norm(y1 - y2))
            worst["identity"] = max(worst["identity"],
                                    norm_identity_residual(a, x).relative_residual)
        rows = [[k, float(v),
                 "pass" if v <= {"routes": 1e-10}.get(k, 1e-9) else "FAIL"]
                for k, v in worst.items()]
        w.table(f"mobius {model.descriptor()}",
                ["check", "worst_residual", "status"], rows)
        failed = failed or any(r[2] == "FAIL" for r in rows)
    w.note(f"mobius: {'FAIL' if failed else 'pass'} (pairs={pairs}, seed={seed})")
    return 1 if failed else 0


def cmd_lemma_sup(ns, cfg, w: _Writer) -> int:
    center_norms = _cfg_get(ns, cfg, "center_norms", (0.2, 0.4, 0.6, 0.8))
    radii = _cfg_get(ns, cfg, "radii", (0.1, 0.3, 0.5, 0.7, 0.9))
    samples = int(_cfg_get(ns, cfg, "samples", 2000))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    failed = False
    for model in _models(ns, cfg):
        rows = []
        for cn in center_norms:
            rng = stream(seed, 0x50)
            a = sample_element(model, rng, norm=float(cn))
            for r in radii:
                rep = sphere_sup(a, float(r),
                                 SamplingBudget(samples=samples, seed=seed))
                ok = (abs(rep.witness_value - rep.formula_value) <= 1e-9
                      and rep.max_excess <= 1e-9)
                rows.append([float(cn), float(r), rep.formula_value,
                             rep.witness_value, rep.sup_estimate,
                             rep.max_excess, "pass" if ok else "FAIL"])
                failed = failed or not ok
        w.table(f"sphere-sup {model.descriptor()}",
                ["center_norm", "radius", "formula", "witness", "sample_sup",
                 "max_excess", "status"], rows)
    w.note(f"lemma-sup: {'FAIL' if failed else 'pass'} (samples={samples})")
    return 1 if failed else 0


def cmd_weights(ns, cfg, w: _Writer) -> int:
    wt = parse_weight(_cfg_get(ns, cfg, "weight", "power:1"))
    mono_nmax = int(_cfg_get(ns, cfg, "mono_nmax", 512))
    lp_degree = int(_cfg_get(ns, cfg, "lp_degree", 96))
    s0 = float(_cfg_get(ns, cfg, "s0", 0.25))
    cond = condition_I_check(wt)
    w.note(f"weight {wt.descriptor()}: positivity "
           f"{'pass' if cond.passed else f'FAIL near r={cond.offending_radius}'}")
    est = build_associated_estimate(wt, mono_nmax=mono_nmax, lp_degree=lp_degree)
    rows = [[float(r), float(lo), float(um), float(ul), float(ch)]
            for r, lo, um, ul, ch in zip(
                est.radii, est.lower, est.upper_mono, est.upper_lp, est.chosen)]
    w.table(f"associated-envelope {wt.descriptor()}",
            ["radius", "weight", "upper_mono", "upper_lp", "chosen"], rows)
    l = boundary_l(wt)
    db = doubling_check(l, s0=s0)
    w.note(f"boundary source: {l.source}")
    ratio_rows = [[float(s), float(lg), float(rr)]
                  for s, lg, rr in zip(l.s_values[:-1], db.log_ratios, db.ratios)]
    w.table("doubling", ["s", "log_ratio", "ratio"], ratio_rows)
    w.note(f"doubling verdict: {db.verdict} (M_estimate={_fmt(db.M_estimate)}, "
           f"s0={_fmt(s0)})")
    return 0 if cond.passed else 1


def cmd_compop(ns, cfg, w: _Writer) -> int:
    model = parse_model((_cfg_get(ns, cfg, "model", None) or ["disc"])[0])
    vx = parse_weight(_cfg_get(ns, cfg, "weight_x", "power:1"))
    vz = parse_weight(_cfg_get(ns, cfg, "weight_z",
                               _cfg_get(ns, cfg, "weight_x", "power:1")))
    phi = parse_map(_cfg_get(ns, cfg, "map", "identity"), model)
    shells = int(_cfg_get(ns, cfg, "shells", 8))
    samples = int(_cfg_get(ns, cfg, "samples", 2000))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    crit = _cfg_get(ns, cfg, "criterion", "sup-ratio")
    r0 = float(_cfg_get(ns, cfg, "r0", 0.9))
    budget = SamplingBudget(samples=samples, seed=seed)

    assoc = build_associated_estimate(vz)
    if crit == "tail":
        rep = criterion_tail(phi, vx, vz, r0=r0, assoc_z=assoc,
                             budget=budget, shells=shells)
    else:
        rep = criterion_sup_ratio(phi, vx, vz, assoc_z=assoc,
                                  budget=budget, shells=shells)
    rows = [[int(k + 1), float(r), float(mx), float(p), float(s), float(t)]
            for k, (r, mx, p, s, t) in enumerate(zip(
                rep.shell_radii, rep.image_maxima, rep.primary_log_trend,
                rep.secondary_log_trend, rep.trend))]
    w.table(f"criterion {rep.criterion} | {phi.label} | "
            f"{vx.descriptor()} -> {vz.descriptor()}",
            ["shell", "radius", "image_max", "primary_log", "secondary_log",
             "trend"], rows)
    w.note(f"criterion verdict: {rep.verdict}"
           + (f" ({rep.notes})" if rep.notes else ""))
    if rep.sup_estimate == rep.sup_estimate:  # not nan
        w.note(f"sup estimate: {_fmt(rep.sup_estimate)}")

    thm = theorem_verdict(vx, vz, assoc_z=assoc)
    w.note(f"theorem verdict: {thm.verdict} ({thm.reason})")
    contradiction = thm.verdict == "all continuous" and rep.verdict == "not-continuous"
    if contradiction:
        w.note("CONTRADICTION: per-map divergence under an all-continuous theorem verdict")
    return 1 if contradiction else 0


def cmd_schwarz(ns, cfg, w: _Writer) -> int:
    samples = int(_cfg_get(ns, cfg, "samples", 10_000))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    failed = False
    for model in _models(ns, cfg):
        rows = []
        for phi in builtin_maps(model):
            psi, a = normalize_at_origin(phi)
            rep = schwarz_check(psi, samples=samples, seed=seed)
            rows.append([phi.label + ("" if triple_norm(a) == 0 else " (normalized)"),
                         float(rep.max_excess), float(rep.max_ratio),
                         rep.violations, "pass" if rep.passed else "FAIL"])
            failed = failed or not rep.passed
        w.table(f"schwarz {model.descriptor()}",
                ["map", "max_excess", "max_ratio", "violations", "status"], rows)
    w.note(f"schwarz: {'FAIL' if failed else 'pass'} (samples={samples})")
    return 1 if failed else 0


def cmd_battery(ns, cfg, w: _Writer) -> int:
    model = parse_model((_cfg_get(ns, cfg, "model", None) or ["disc"])[0])
    samples = int(_cfg_get(ns, cfg, "samples", 2000))
    seed = int(_cfg_get(ns, cfg, "seed", 0))
    rows_out = []
    bad = False
    for row in consistency_matrix(model=model,
                                  budget=SamplingBudget(samples=samples, seed=seed)):
        flagged = {c.split(":", 1)[0] for c in row.contradictions}
        for rep in row.map_reports:
            rows_out.append([row.weight, rep.map_label, rep.verdict,
                             row.theorem.verdict,
                             "CONTRADICTION" if rep.map_label in flagged else "ok"])
        bad = bad or bool(row.contradictions)
    w.table(f"consistency battery {model.descriptor()}",
            ["weight", "map", "criterion_verdict", "theorem_verdict", "status"],
            rows_out)
    w.note(f"battery: {'CONTRADICTIONS FOUND' if bad else 'consistent'}")
    return 1 if bad else 0


def cmd_all(ns, cfg, w: _Writer) -> int:
    rc = 0
    for fn in (cmd_axioms, cmd_eq1, cmd_mobius, cmd_lemma_sup, cmd_schwarz,
               cmd_battery):
        rc = max(rc, fn(ns, cfg, w))
    return rc


# ------------------------------------------------------------------ driver


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="triple-lab",
        description="numerical laboratory for JB*-triples, Mobius geometry, "
                    "radial weights, and composition-operator continuity",
    )
    p.add_argument("--version", action="version", version=f"triple-lab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, models=True):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=("human", "csv"), default="human")
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.add_argument("--config", default=None,
                        help="JSON file with default overrides (flags win)")
        if models:
            sp.add_argument("--model", action="append", default=None,
                            help="model descriptor (repeatable): disc | "
                                 "hilbert:N | matrix:PxQ")

    sp = sub.add_parser("axioms", help="triple-system axiom sweep")
    common(sp)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(fn=cmd_axioms)

    sp = sub.add_parser("eq1", help="Bergman inverse operator-norm identity")
    common(sp)
    sp.add_argument("--centers", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_eq1)

    sp = sub.add_parser("mobius", help="Mobius map diagnostics")
    common(sp)
    sp.add_argument("--pairs", type=int, default=None)
    sp.set_defaults(fn=cmd_mobius)

    sp = sub.add_parser("lemma-sup", help="sup of ||g_a|| over spheres")
    common(sp)
    sp.add_argument("--center-norms", dest="center_norms", type=_floats, default=None)
    sp.add_argument("--radii", type=_floats, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_lemma_sup)

    sp = sub.add_parser("weights", help="associated-weight envelope and doubling")
    common(sp, models=False)
    sp.add_argument("--weight", default=None,
                    help="power:A | expdecay:B | constant:C | table:PATH.csv")
    sp.add_argument("--mono-nmax", dest="mono_nmax", type=int, default=None)
    sp.add_argument("--lp-degree", dest="lp_degree", type=int, default=None)
    sp.add_argument("--s0", type=float, default=None)
    sp.set_defaults(fn=cmd_weights)

    sp = sub.add_parser("compop", help="composition-operator continuity analysis")
    common(sp)
    sp.add_argument("--map", default=None,
                    help="identity | mobius:C | pow:K | linear:PATH.csv | "
                         "compose:[D1;D2;...]")
    sp.add_argument("--weight-x", dest="weight_x", default=None)
    sp.add_argument("--weight-z", dest="weight_z", default=None)
    sp.add_argument("--criterion", choices=("sup-ratio", "tail"), default=None)
    sp.add_argument("--r0", type=float, default=None)
    sp.add_argument("--shells", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_compop)

    sp = sub.add_parser("schwarz", help="||phi(x)|| <= ||x|| for origin-fixing maps")
    common(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_schwarz)

    sp = sub.add_parser("battery", help="built-in map-by-weight consistency matrix")
    common(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_battery)

    sp = sub.add_parser("all", help="run every diagnostic with defaults")
    common(sp)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_all)

    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = {}
        if getattr(ns, "config", None):
            try:
                with open(ns.config, "r", encoding="utf-8") as fh:
                    cfg = json.load(fh)
            except (OSError, ValueError) as exc:  # JSON errors, NUL in path, undecodable bytes
                raise UsageError(f"cannot read config {ns.config}: {exc}")
            if not isinstance(cfg, dict):
                raise UsageError(f"config {ns.config} must hold a JSON object")
        w = _Writer(ns.format, argv)
        if w.fmt == "csv":
            w.note(f"seed: {_cfg_get(ns, cfg, 'seed', 0)}")
            if cfg:
                w.note("config: " + json.dumps(cfg, sort_keys=True))
        rc = ns.fn(ns, cfg, w)
        w.dump(ns.out)
        return rc
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
