"""disc, hilbert:n, matrix:nx1 and matrix:1xn are one ball in different shapes.

On the same coordinates every operation must give the same numbers, whatever
shape carries them: a row and a column of length n hold the same euclidean
ball, and disc is the 1-by-1 case of both.
"""

import numpy as np
import pytest

from triple_lab.mobius import mobius_apply, mobius_map
from triple_lab.sampling import stream
from triple_lab.triples import (
    bergman_rep,
    box_rep,
    disc,
    element,
    hilbert,
    matrix,
    op_norm_triple,
    parse_model,
    quadratic_rep,
    triple_norm,
    triple_norm_batch,
    triple_product,
)

GROUPS = {
    1: ["disc", "hilbert:1", "matrix:1x1"],
    3: ["hilbert:3", "matrix:3x1", "matrix:1x3"],
    5: ["hilbert:5", "matrix:5x1", "matrix:1x5"],
}


def test_shapes_and_aliases():
    assert disc() == hilbert(1) == matrix(1, 1) == parse_model("matrix:1x1")
    assert hilbert(3) == matrix(3, 1) == parse_model("matrix:3x1")
    assert matrix(1, 3) != hilbert(3)
    assert str(matrix(1, 1)) == "disc"
    assert parse_model("hilbert:1").descriptor() == "disc"
    assert parse_model("matrix:4x1").descriptor() == "hilbert:4"
    assert parse_model("matrix:1x4").descriptor() == "matrix:1x4"
    assert matrix(1, 3).norm_kind == hilbert(3).norm_kind == disc().norm_kind == "euclidean"
    assert matrix(2, 2).norm_kind == "spectral"


def _coords(n, seed):
    """Five points of the open ball of C^n with norms in [0.1, 0.7]."""
    rng = stream(seed, n)
    raw = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    norms = rng.uniform(0.1, 0.7, size=5)
    return raw * (norms / np.linalg.norm(raw, axis=1))[:, None]


def _results(model, cs):
    x, y, z, a, w = (element(model, c) for c in cs)
    g = mobius_map(a)
    op = op_norm_triple(bergman_rep(x, x), model)
    return {
        "triple_product": triple_product(x, y, z).coords,
        "triple_norm": np.array([triple_norm(e) for e in (x, y, z, a, w)]),
        "triple_norm_batch": triple_norm_batch(model, cs),
        "box_rep": box_rep(x, y).entries,
        "quadratic_rep": quadratic_rep(x).matrix.entries,
        "bergman_rep": bergman_rep(x, y).entries,
        "mobius resolvent": mobius_apply(g, w).coords,
        "mobius quasi-inverse": mobius_apply(g, w, route="quasi-inverse").coords,
        "op_norm_triple": np.array([op.estimate]),
        "op_norm certified": op.certified,
    }


@pytest.mark.parametrize("n", sorted(GROUPS))
def test_same_coordinates_same_numbers(n):
    cs = _coords(n, seed=41)
    ref_name, *others = GROUPS[n]
    ref = _results(parse_model(ref_name), cs)
    assert ref["op_norm certified"], ref_name
    for name in others:
        got = _results(parse_model(name), cs)
        assert got["op_norm certified"], name
        for key, want in ref.items():
            if key == "op_norm certified":
                continue
            assert np.max(np.abs(got[key] - want)) <= 1e-13, (name, key)
