import numpy as np
import pytest

from triple_lab import compop
from triple_lab.compop import (
    _shell_radii,
    builtin_maps,
    compose_maps,
    consistency_matrix,
    criterion_sup_ratio,
    criterion_tail,
    identity_map,
    linear_map,
    map_apply,
    map_apply_batch,
    mobius_holo,
    normalize_at_origin,
    parse_map,
    power_map,
    schwarz_check,
    sphere_max,
    spot_check_mobius_family,
    theorem_verdict,
)
from triple_lab.errors import InvalidMapError, UsageError
from triple_lab.linalg import CMatrix
from triple_lab.mobius import sphere_sup
from triple_lab.sampling import SamplingBudget, stream
from triple_lab.triples import (
    element,
    parse_model,
    sample_coords,
    sample_element,
    triple_norm,
    triple_norm_batch,
    zero,
)
from triple_lab.weights import (
    build_associated_estimate,
    constant_weight,
    expdecay_weight,
    power_weight,
    table_weight,
)

DISC = parse_model("disc")


@pytest.fixture(scope="module")
def assoc_power1():
    return build_associated_estimate(power_weight(1.0))


@pytest.fixture(scope="module")
def assoc_exp05():
    return build_associated_estimate(expdecay_weight(0.5))


def test_parse_map_forms():
    assert parse_map("identity", DISC).kind == "identity"
    assert parse_map("pow:3", DISC).exponent == 3
    assert parse_map("mobius:0.4", DISC).kind == "mobius"
    comp = parse_map("compose:[pow:2; mobius:0.4]", DISC)
    assert comp.kind == "compose" and len(comp.parts) == 2
    for bad in ("pow:x", "mobius:1.0", "compose:[]", "compose:pow:2", "wat",
                "compose:[[pow:2]", "compose:[pow:2]]", "compose:[pow:2];[identity]"):
        with pytest.raises(UsageError):
            parse_map(bad, DISC)


def test_nested_compose_parses():
    for name in ("disc", "hilbert:2", "matrix:2x2"):
        m = parse_model(name)
        nested = parse_map("compose:[compose:[pow:2;mobius:0.4];identity]", m)
        flat = parse_map("compose:[pow:2;mobius:0.4]", m)
        xs = sample_coords(m, 20, stream(9, 1), norms=0.7)
        assert np.max(np.abs(map_apply_batch(nested, xs) - map_apply_batch(flat, xs))) <= 1e-15


def test_map_apply_oracles():
    out = map_apply(parse_map("mobius:0.5", DISC), element(DISC, [0.25]))
    assert abs(out.coords[0] - 2.0 / 3.0) <= 1e-14
    out = map_apply(parse_map("pow:2", DISC), element(DISC, [0.3 + 0.4j]))
    assert abs(out.coords[0] - (0.3 + 0.4j) ** 2) <= 1e-15
    comp = parse_map("compose:[pow:2; mobius:0.4]", DISC)
    x = element(DISC, [0.5j])
    step = map_apply(parse_map("pow:2", DISC), x)
    manual = map_apply(parse_map("mobius:0.4", DISC), step)
    assert abs(map_apply(comp, x).coords[0] - manual.coords[0]) <= 1e-14


def test_power_map_stays_in_ball_on_matrix_model():
    # coordinatewise powers contract every model norm (Schur products)
    m = parse_model("matrix:2x3")
    phi = power_map(m, 3)
    from triple_lab.sampling import stream
    from triple_lab.triples import sample_coords, triple_norm_batch

    xs = sample_coords(m, 500, stream(31, 0), norms=0.97)
    out = triple_norm_batch(m, map_apply_batch(phi, xs))
    assert np.max(out) < 0.97 ** 3 + 1e-9


def test_linear_map_norm_gate():
    ok = linear_map(CMatrix.from_array(np.array([[0.5]], dtype=complex)), DISC)
    assert ok.kind == "linear"
    with pytest.raises(InvalidMapError):
        linear_map(CMatrix.from_array(np.array([[1.2]], dtype=complex)), DISC)
    with pytest.raises(UsageError):
        linear_map(CMatrix.from_array(np.eye(2, dtype=complex)), DISC)


def test_compose_model_mismatch():
    with pytest.raises(UsageError):
        compose_maps([identity_map(DISC), identity_map(parse_model("hilbert:2"))])


def test_normalize_at_origin():
    phi = parse_map("compose:[pow:2; mobius:0.4]", DISC)
    psi, a = normalize_at_origin(phi)
    assert abs(a.coords[0] - 0.4) <= 1e-14
    assert triple_norm(map_apply(psi, zero(DISC))) <= 1e-12
    # already centered maps come back unchanged
    same, b = normalize_at_origin(identity_map(DISC))
    assert same.kind == "identity" and triple_norm(b) == 0.0


def test_schwarz_origin_fixing_maps():
    for name in ("disc", "matrix:2x2"):
        m = parse_model(name)
        for phi in builtin_maps(m):
            psi, _ = normalize_at_origin(phi)
            rep = schwarz_check(psi, samples=1500, seed=4)
            assert rep.passed, f"{name} {phi.label}: excess {rep.max_excess}"


def test_schwarz_flags_uncentered():
    rep = schwarz_check(mobius_holo(element(DISC, [0.3])), samples=200, seed=1)
    assert not rep.precondition_ok and not rep.passed


def test_criterion_shell_trend_hits_mobius_limit(assoc_power1):
    w = power_weight(1.0)
    assoc = assoc_power1
    for c in (0.2, 0.6):
        rep = criterion_sup_ratio(parse_map(f"mobius:{c}", DISC), w, w, assoc_z=assoc)
        limit = (1 + c) / (1 - c)
        assert rep.verdict == "continuous", c
        assert rep.attained
        assert abs(rep.trend[-1] - limit) <= 0.02 * limit, c


def test_criterion_expdecay_rejects_mobius(assoc_exp05):
    w = expdecay_weight(0.5)
    assoc = assoc_exp05
    rep = criterion_sup_ratio(parse_map("mobius:0.4", DISC), w, w, assoc_z=assoc)
    assert rep.verdict == "not-continuous"
    rep = criterion_sup_ratio(parse_map("identity", DISC), w, w, assoc_z=assoc)
    assert rep.verdict == "continuous"


def test_criterion_decaying_ratio_is_bounded(assoc_power1):
    # a strict linear contraction sends shells well inside; its ratio decays
    w = power_weight(1.0)
    assoc = assoc_power1
    half = linear_map(CMatrix.from_array(np.array([[0.5]], dtype=complex)), DISC)
    rep = criterion_sup_ratio(half, w, w, assoc_z=assoc)
    assert rep.verdict == "continuous"
    assert rep.sup_estimate <= 1.0


def test_criterion_tail_vacuous_and_active(assoc_power1):
    w = power_weight(1.0)
    assoc = assoc_power1
    half = linear_map(CMatrix.from_array(np.array([[0.5]], dtype=complex)), DISC)
    rep = criterion_tail(half, w, w, r0=0.9, assoc_z=assoc)
    assert rep.verdict == "continuous" and "vacuous" in rep.notes
    rep = criterion_tail(parse_map("mobius:0.6", DISC), w, w, r0=0.9, assoc_z=assoc)
    assert rep.verdict == "continuous"
    assert np.sum(~np.isnan(rep.primary_log_trend)) >= 6


def test_criterion_rejects_degenerate_weight():
    bad = table_weight(((0.0, 1.0), (0.5, 0.0), (0.99, 0.0)), validate=False)
    with pytest.raises(UsageError):
        criterion_sup_ratio(identity_map(DISC), bad, bad)


def test_theorem_verdicts():
    assert theorem_verdict(power_weight(1.0), power_weight(1.0)).verdict == "all continuous"
    assert theorem_verdict(constant_weight(1.0), constant_weight(1.0)).verdict == "all continuous"
    assert theorem_verdict(expdecay_weight(1.0), expdecay_weight(1.0)).verdict == "not all continuous"
    rep = theorem_verdict(power_weight(1.0), power_weight(2.0))
    assert rep.verdict == "inapplicable" and not rep.applicable
    # cross-family with healthy domination stays decidable
    rep = theorem_verdict(power_weight(2.0), power_weight(1.0))
    assert rep.applicable and rep.verdict == "all continuous"


def test_spot_check_family_follows_weight():
    reports = spot_check_mobius_family(power_weight(1.0))
    assert all(rep.verdict == "continuous" for _, rep in reports)
    reports = spot_check_mobius_family(expdecay_weight(1.0))
    assert all(rep.verdict == "not-continuous" for _, rep in reports)


def test_map_output_validated():
    # a hand-built HoloMap that escapes the ball must be caught at apply time
    from triple_lab.compop import HoloMap

    bad = HoloMap("linear", DISC, DISC, "bad",
                  matrix=CMatrix.from_array(np.array([[2.0]], dtype=complex)))
    with pytest.raises(InvalidMapError):
        map_apply(bad, element(DISC, [0.9]))


LADDER = ("disc", "hilbert:2", "hilbert:5", "hilbert:16", "hilbert:64",
          "matrix:2x2", "matrix:2x3", "matrix:3x2", "matrix:3x3", "matrix:4x4")
EXTRA_MAPS = ("compose:[mobius:-0.4;mobius:0.4]", "compose:[mobius:0.6;pow:3]",
              "compose:[identity;mobius:-0.3]")


def _sweep_image_norms(phi, shells, budget):
    """The sampled oracle: per shell, the image norms of budget.samples
    points of norm r_k."""
    radii = _shell_radii(shells)
    return radii, [
        triple_norm_batch(phi.codomain, map_apply_batch(
            phi, sample_coords(phi.domain, budget.samples, stream(budget.seed, 0xC0, k), norms=r)))
        for k, r in enumerate(radii)
    ]


def test_verdicts_do_not_depend_on_the_model():
    # the paper's criterion holds on every JB*-triple, whatever its dimension
    def verdicts(name):
        return [(row.weight, row.theorem.verdict, [rep.verdict for rep in row.map_reports])
                for row in consistency_matrix(model=parse_model(name))]

    disc = verdicts("disc")
    assert len(disc) == 6 and all(len(maps) == 7 for _, _, maps in disc)
    for name in LADDER[1:]:
        assert verdicts(name) == disc, name


def test_sampled_shell_maxima_stay_below_sphere_max():
    budget = SamplingBudget(samples=300, seed=9)
    for name in LADDER:
        m = parse_model(name)
        for phi in builtin_maps(m) + tuple(parse_map(d, m) for d in EXTRA_MAPS):
            radii, norms = _sweep_image_norms(phi, 8, budget)
            sampled = np.array([np.max(n) for n in norms])
            assert np.all(sampled <= sphere_max(phi, radii) + 1e-12), (name, phi.label)


def test_shell_maxima_attained_where_the_bound_is_exact():
    w = power_weight(1.0)
    for name in LADDER:
        m = parse_model(name)
        (row,) = consistency_matrix(model=m, weights=(w,))
        for rep in row.map_reports:
            # linear maps on spectral models carry the sqrt(min(p, q)) bound
            expected = rep.map_label != "linear" or m.norm_kind == "euclidean"
            assert rep.attained == expected, (name, rep.map_label)
    # g_{0.4} o g_{-0.4} is the identity; the chained bound overshoots it
    for name in ("disc", "hilbert:5", "matrix:2x3"):
        m = parse_model(name)
        phi = parse_map(EXTRA_MAPS[0], m)
        for row in consistency_matrix(model=m, maps=(phi,)):
            (rep,) = row.map_reports
            assert not rep.attained and rep.verdict != "not-continuous", (name, row.weight)


def test_sphere_max_is_the_sphere_sup_formula():
    for name in ("disc", "hilbert:5", "matrix:2x3"):
        m = parse_model(name)
        rng = stream(11, 0)
        for _ in range(5):
            a = sample_element(m, rng, norm=float(rng.uniform(0.05, 0.9)))
            for r in (0.1, 0.5, 0.9):
                formula = sphere_sup(a, r, SamplingBudget(samples=10)).formula_value
                assert sphere_max(mobius_holo(a), r) == formula, (name, r)


def _grid_min_trends(phi, w, assoc, shells, r0=None):
    """Per shell, the ratios against the minima of vZ over a dense grid plus
    the knots of [lo, max], and of its envelope over a coarser grid: the
    oracle of the evaluation at the maximum and of the knot shortcut."""
    radii = _shell_radii(shells)
    lo = 0.0 if r0 is None else r0
    knots = np.array([k[0] for k in w.knots or ()])
    primary, secondary = np.full(shells, np.nan), np.full(shells, np.nan)
    for k, (r, top) in enumerate(zip(radii, np.minimum(sphere_max(phi, radii), 1.0 - 1e-15))):
        if top <= lo:
            continue
        grid = np.concatenate([np.linspace(lo, top, 4001), knots[(knots > lo) & (knots < top)]])
        primary[k] = w.log_eval(r) - np.min(w.log_eval(grid))
        coarse = np.linspace(lo, top, 65)
        secondary[k] = w.log_eval(r) - np.min(np.log(np.maximum(assoc.evaluate(coarse), 1e-300)))
    return primary, secondary


def _criterion_report(phi, w, r0, assoc):
    if r0 is None:
        return criterion_sup_ratio(phi, w, w, assoc_z=assoc)
    return criterion_tail(phi, w, w, r0=r0, assoc_z=assoc)


RISING_TABLE = ((0.0, 1.0), (0.3001, 0.5), (0.3003, 0.6), (0.3005, 0.5), (0.9, 0.1))


def test_shell_max_shortcut_matches_full_minima(assoc_power1, assoc_exp05):
    cases = [
        (power_weight(1.0), assoc_power1),
        (expdecay_weight(0.5), assoc_exp05),
    ]
    for w in (constant_weight(1.0),
              table_weight(((0.0, 1.0), (0.3, 0.8), (0.7, 0.4), (0.95, 0.1))),
              table_weight(RISING_TABLE)):
        cases.append((w, build_associated_estimate(w, radii=(0.5, 0.9))))
    assert not cases[-1][0].non_increasing
    for name in ("disc", "hilbert:5", "matrix:2x2"):
        m = parse_model(name)
        for w, assoc in cases:
            for phi in builtin_maps(m):
                for r0 in (None, 0.9):
                    rep = _criterion_report(phi, w, r0, assoc)
                    primary, secondary = _grid_min_trends(phi, w, assoc, 8, r0)
                    where = f"{name} {w} {phi.label} r0={r0}"
                    assert np.array_equal(rep.primary_log_trend, primary, equal_nan=True), where
                    assert np.array_equal(rep.secondary_log_trend, secondary, equal_nan=True), where
                    if not w.non_increasing:
                        assert rep.verdict != "not-continuous", where
                    # without an estimate only the secondary trend goes
                    bare = _criterion_report(phi, w, r0, None)
                    assert np.all(np.isnan(bare.secondary_log_trend)), where
                    assert np.array_equal(bare.primary_log_trend, primary, equal_nan=True), where
                    assert bare.verdict == rep.verdict, where


def _counting_builds(monkeypatch):
    """Route compop's envelope builds through a counter; each build is a cheap
    two-radius estimate, so the test pays no default-grid LPs."""
    calls = []

    def counting(w, *args, **kwargs):
        calls.append((w, args, kwargs))
        return build_associated_estimate(w, radii=(0.5, 0.9))

    monkeypatch.setattr(compop, "build_associated_estimate", counting)
    return calls


def _assert_same_report(rep, ref, where):
    """Every ContinuityReport field equal, arrays and floats bit for bit (NaN = NaN)."""
    for name in rep.__dataclass_fields__:
        a, b = getattr(rep, name), getattr(ref, name)
        if isinstance(a, (float, np.ndarray)):
            assert np.array_equal(a, b, equal_nan=True), (where, name)
        else:
            assert a == b, (where, name)


def test_consistency_matrix_builds_envelope_only_for_table_weights(
        monkeypatch, assoc_power1, assoc_exp05):
    calls = _counting_builds(monkeypatch)
    known = {"power:1": assoc_power1, "expdecay:0.5": assoc_exp05}
    ws = (power_weight(1.0), constant_weight(1.0), expdecay_weight(0.5))
    for model in ("disc", "hilbert:5", "matrix:2x3"):
        m = parse_model(model)
        maps = builtin_maps(m)
        rows = consistency_matrix(model=m, weights=ws, maps=maps)
        assert calls == []
        for w, row in zip(ws, rows):
            assoc = known.get(w.descriptor()) or build_associated_estimate(w, radii=(0.5, 0.9))
            assert row.theorem.verdict == theorem_verdict(w, w, assoc_z=assoc).verdict
            for phi, rep in zip(maps, row.map_reports):
                # the per-map route without an estimate: the row passes none either
                ref = criterion_sup_ratio(phi, w, w)
                _assert_same_report(rep, ref, (model, str(w), phi.label))
                assert np.all(np.isnan(rep.secondary_log_trend))

    maps = builtin_maps(DISC)
    table = table_weight(((0.0, 1.0), (0.3, 0.8), (0.7, 0.4), (0.95, 0.1)))
    (row,) = consistency_matrix(model=DISC, weights=(table,), maps=maps)
    assert len(calls) == 1 and calls[0] == (table, (), {})
    assoc = build_associated_estimate(table, radii=(0.5, 0.9))
    thm = theorem_verdict(table, table, assoc_z=assoc)
    assert row.theorem.verdict == thm.verdict
    assert np.array_equal(row.theorem.boundary.log_l, thm.boundary.log_l)
    for phi, rep in zip(maps, row.map_reports):
        ref = criterion_sup_ratio(phi, table, table, assoc_z=assoc)
        _assert_same_report(rep, ref, phi.label)
        assert not np.all(np.isnan(rep.secondary_log_trend))

    # a rising table stops at the theorem's non_increasing gate, so nothing reads an envelope
    (row,) = consistency_matrix(model=DISC, weights=(table_weight(RISING_TABLE),),
                                maps=maps[:1])
    assert len(calls) == 1 and row.theorem.verdict == "inapplicable"
    assert np.all(np.isnan(row.map_reports[0].secondary_log_trend))


def test_spot_check_builds_no_envelope(monkeypatch):
    calls = _counting_builds(monkeypatch)
    reports = spot_check_mobius_family(power_weight(1.0), center_norms=(0.4,))
    assert calls == []
    assert all(np.all(np.isnan(rep.secondary_log_trend)) for _, rep in reports)


def _counting(monkeypatch, name):
    """Wrap compop's reference to a function with a call counter."""
    calls = []
    orig = getattr(compop, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    monkeypatch.setattr(compop, name, counting)
    return calls


def test_consistency_matrix_draws_no_samples(monkeypatch):
    maps = builtin_maps(DISC)
    ws = (power_weight(1.0), constant_weight(1.0), expdecay_weight(0.5))
    draws = _counting(monkeypatch, "sample_coords")
    checks = _counting(monkeypatch, "condition_I_check")
    # a budget is still accepted, and changes nothing
    rows = consistency_matrix(model=DISC, weights=ws, maps=maps,
                              budget=SamplingBudget(samples=100, seed=1), shells=8)
    assert len(maps) == 7 and [len(row.map_reports) for row in rows] == [7, 7, 7]
    assert draws == []
    assert checks == list(ws)
    for row, ref in zip(rows, consistency_matrix(model=DISC, weights=ws, maps=maps)):
        for rep, rep_ref in zip(row.map_reports, ref.map_reports):
            _assert_same_report(rep, rep_ref, (row.weight, rep.map_label))


def test_spot_check_matches_per_center_criterion(assoc_power1):
    w = power_weight(1.0)
    for model in ("disc", "matrix:2x2"):
        m = parse_model(model)
        for c, rep in spot_check_mobius_family(w, model=m, assoc_z=assoc_power1):
            coords = np.zeros(m.coord_dim, dtype=np.complex128)
            coords[0] = c
            phi = mobius_holo(element(m, coords))
            ref = criterion_sup_ratio(phi, w, w, assoc_z=assoc_power1)
            _assert_same_report(rep, ref, (model, c))


def test_shell_counts_past_float64_refused():
    w = power_weight(1.0)
    # shell 53 sits at 1 - 2^-53, the last float64 below 1
    rep = criterion_sup_ratio(identity_map(DISC), w, w, shells=53)
    assert rep.shell_radii[-1] < 1.0 and np.all(np.isfinite(rep.primary_log_trend))
    for shells in (54, 60):
        with pytest.raises(UsageError, match="at most 53"):
            criterion_sup_ratio(identity_map(DISC), w, w, shells=shells)
        with pytest.raises(UsageError, match="at most 53"):
            consistency_matrix(model=DISC, weights=(w,), maps=(identity_map(DISC),),
                               shells=shells)


def test_consistency_matrix_draws_per_map_domain():
    # maps need not live on `model`: each is evaluated on its own domain
    w = power_weight(1.0)
    maps = (parse_map("mobius:0.4", DISC), parse_map("mobius:0.4", parse_model("hilbert:2")),
            parse_map("pow:2", parse_model("matrix:2x2")))
    (row,) = consistency_matrix(model=DISC, weights=(w,), maps=maps)
    for phi, rep in zip(maps, row.map_reports):
        _assert_same_report(rep, criterion_sup_ratio(phi, w, w), phi.label)


def test_deep_shells_read_by_closed_forms():
    w = power_weight(1.0)
    # the identity's ratio is 1 on every shell; sampled norms misread it at 50
    rep = criterion_sup_ratio(identity_map(DISC), w, w, shells=50)
    assert rep.verdict == "continuous" and rep.attained
    # the witness has norm exactly r < 1, where sampled points rounded to 1
    rep = criterion_sup_ratio(parse_map("mobius:0.4", DISC), w, w, shells=53)
    assert rep.shell_radii[-1] < 1.0 and np.all(np.isfinite(rep.primary_log_trend))
