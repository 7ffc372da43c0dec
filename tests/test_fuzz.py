"""Parsers and constructors on arbitrary input: a valid object or a typed error.

Any other exception escaping from text or numbers a user can supply would
reach the CLI as a crash instead of exit code 2.
"""

import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from triple_lab.compop import HoloMap, parse_map
from triple_lab.errors import TripleLabError, UsageError
from triple_lab.triples import TripleModel, hilbert, matrix, parse_model
from triple_lab.weights import Weight, parse_weight

FUZZ = settings(max_examples=150, deadline=None)

NUMBERS = st.one_of(
    st.integers(-3, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(-3, 8).map(np.int64),
    st.text(max_size=3),
    st.none(),
)


def _model_text():
    dims = st.one_of(st.integers(-2, 6).map(str), st.text(max_size=4))
    return st.one_of(
        st.text(max_size=12),
        st.builds(lambda n: f"hilbert:{n}", dims),
        st.builds(lambda p, q: f"matrix:{p}x{q}", dims, dims),
        st.sampled_from(["disc", " DISC ", "hilbert:", "matrix:x", "matrix:2x3x4"]),
    )


def _weight_text():
    number = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["inf", "-inf", "nan", "1e999", "0", "-0", "1_0", "0x1"]),
        st.text(max_size=6),
    )
    head = st.sampled_from(["power", "expdecay", "constant", "POWER", "table", "wat", ""])
    return st.one_of(st.text(max_size=16), st.builds(lambda h, n: f"{h}:{n}", head, number))


def _valid_model(m):
    assert isinstance(m, TripleModel)
    assert type(m.p) is int and type(m.q) is int and m.p >= 1 and m.q >= 1


@FUZZ
@given(_model_text())
def test_parse_model_fuzz(text):
    try:
        m = parse_model(text)
    except UsageError:
        return
    _valid_model(m)


@FUZZ
@given(NUMBERS, NUMBERS)
def test_model_constructors_fuzz(p, q):
    for build in (lambda: hilbert(p), lambda: matrix(p, q)):
        try:
            m = build()
        except UsageError:
            continue
        _valid_model(m)


@FUZZ
@given(_weight_text())
@example("expdecay:8.98846567431158e+307")
@example("power:1e307")
def test_parse_weight_fuzz(text):
    try:
        w = parse_weight(text)
    except UsageError:
        return
    assert isinstance(w, Weight)
    if w.family == "table":
        assert all(v > 0 for _, v in w.knots)
    else:
        assert math.isfinite(w.param) and w.param > 0
        assert np.isfinite(w.log_eval(0.5))


def _matrix_file_bytes():
    token = st.sampled_from(["0", "0.5", "-1", "0.5j", "1e999", "nan", "", "x", "# c"])
    row = st.lists(token, max_size=3).map(",".join)
    text = st.lists(row, max_size=3).map("\n".join)
    return st.one_of(st.binary(max_size=64), text.map(str.encode))


@FUZZ
@given(_matrix_file_bytes())
def test_parse_map_linear_file_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            phi = parse_map("linear:" + path, hilbert(2))
        except TripleLabError:
            return
    assert isinstance(phi, HoloMap)


def _compose_text(stage, min_size=0):
    return st.lists(stage, min_size=min_size, max_size=3).map(
        lambda parts: "compose:[" + ";".join(parts) + "]")


def _map_text():
    """(descriptor, well_formed): well-formed ones nest valid maps in compose:[...]."""
    valid = st.recursive(st.sampled_from(["identity", "pow:2", "mobius:0.4"]),
                         lambda inner: _compose_text(inner, min_size=1), max_leaves=8)
    noise = st.one_of(
        st.sampled_from(["pow:-1", "mobius:1.5", "wat", "", "[", "]", ";", "compose:"]),
        st.text(alphabet="[];:pow2", max_size=6),
    )
    junk = st.recursive(st.one_of(valid, noise), lambda inner: st.one_of(
        _compose_text(inner), st.builds(str.__add__, inner, inner)), max_leaves=8)
    return st.one_of(valid.map(lambda t: (t, True)), junk.map(lambda t: (t, False)))


@FUZZ
@given(_map_text())
def test_parse_map_nested_compose_fuzz(case):
    text, well_formed = case
    try:
        phi = parse_map(text, hilbert(2))
    except TripleLabError:
        assert not well_formed, text
        return
    assert isinstance(phi, HoloMap)
