"""Tail-factor catalog: closed forms, branch logic, dominance, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from gesdispatch.cantelli import ShapeClass, cantelli_bound, parse_shape, student_t
from gesdispatch.errors import InvalidGamma, InvalidSpec

NA = ShapeClass("no_assumption")
S = ShapeClass("symmetric")
U = ShapeClass("unimodal")
SU = ShapeClass("symmetric_unimodal")
NORMAL = ShapeClass("normal")
T5 = student_t(5.0)

GRID = np.arange(1, 1000) / 1000.0


def oracle(shape: ShapeClass, g: float) -> float:
    """Independent closed-form evaluation of every catalog entry."""
    if shape.kind == "no_assumption":
        return math.sqrt((1.0 - g) / g)
    if shape.kind == "symmetric":
        # at g = 1/2 exactly, the median of any symmetric zero-mean law is 0
        return math.sqrt(1.0 / (2.0 * g)) if g < 0.5 else 0.0
    if shape.kind == "unimodal":
        if g <= 1.0 / 6.0:
            return math.sqrt((4.0 - 9.0 * g) / (9.0 * g))
        return math.sqrt((3.0 - 3.0 * g) / (1.0 + 3.0 * g))
    if shape.kind == "symmetric_unimodal":
        if g <= 1.0 / 6.0:
            return math.sqrt(2.0 / (9.0 * g))
        if g <= 0.5:
            return math.sqrt(3.0) * (1.0 - 2.0 * g)
        return 0.0
    if shape.kind == "student_t":
        q = stats.t.ppf(1.0 - g, shape.nu)
        return q / math.sqrt(shape.nu / (shape.nu - 2.0))
    return stats.norm.ppf(1.0 - g)


@pytest.mark.parametrize("shape", [NA, S, U, SU, NORMAL, T5], ids=lambda s: s.kind)
def test_matches_closed_form_on_grid(shape):
    for g in GRID:
        assert cantelli_bound(shape, float(g)) == pytest.approx(oracle(shape, float(g)), abs=1e-12)


def test_paper_values():
    assert cantelli_bound(NA, 0.05) == pytest.approx(math.sqrt(19.0), abs=1e-12)
    assert cantelli_bound(S, 0.5) == 0.0
    assert cantelli_bound(NORMAL, 0.05) == pytest.approx(1.6448536269514722, abs=1e-9)


def test_branch_continuity():
    for g in (1.0 / 6.0, 0.5):
        eps = 1e-13
        for shape in (U, SU):
            lo = cantelli_bound(shape, g - eps)
            hi = cantelli_bound(shape, g + eps)
            assert abs(lo - hi) < 1e-6
    # exact equality of the two symmetric-unimodal branch formulas at 1/6
    g = 1.0 / 6.0
    assert math.sqrt(2.0 / (9.0 * g)) == pytest.approx(math.sqrt(3.0) * (1.0 - 2.0 * g), abs=1e-12)
    assert cantelli_bound(SU, g) == pytest.approx(1.1547005383792517, abs=1e-9)


def test_dominance_on_grid():
    for g in GRID:
        g = float(g)
        na, s, u, su = (cantelli_bound(k, g) for k in (NA, S, U, SU))
        assert na >= s - 1e-12
        assert na >= u - 1e-12
        assert u >= su - 1e-12
        assert s >= su - 1e-12


def test_monotone_nonincreasing_in_gamma():
    for shape in (NA, S, U, SU, NORMAL, T5):
        vals = [cantelli_bound(shape, float(g)) for g in GRID]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_dominance_property(g):
    assert cantelli_bound(NA, g) >= cantelli_bound(U, g) - 1e-12
    assert cantelli_bound(U, g) >= cantelli_bound(SU, g) - 1e-12
    assert cantelli_bound(S, g) >= cantelli_bound(SU, g) - 1e-12


def test_invalid_gamma():
    for g in (0.0, -0.1, 1.0 + 1e-9):
        with pytest.raises(InvalidGamma):
            cantelli_bound(NA, g)
    # gamma = 1 is allowed and gives the slackest (zero) factor
    assert cantelli_bound(NA, 1.0) == 0.0


@pytest.mark.parametrize("nu", [2.5, 3.0, 5.0, 30.0])
def test_student_t_bound_is_the_scaled_t_ppf_bit_for_bit(nu):
    for g in [*GRID, 1.0]:
        got = cantelli_bound(student_t(nu), float(g))
        want = float(stats.t.ppf(1.0 - g, nu)) * math.sqrt((nu - 2.0) / nu)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert cantelli_bound(student_t(nu), 1.0) == -math.inf


@pytest.mark.parametrize("nu", [2.0, 1.5, 0.0, -3.0, math.nan, math.inf])
def test_student_t_needs_a_finite_nu_above_two(nu):
    with pytest.raises(InvalidSpec, match="must be a finite number above 2"):
        student_t(nu)


def test_parse_shape_aliases():
    assert parse_shape("na").kind == "no_assumption"
    assert parse_shape("unimodal").kind == "unimodal"
    assert parse_shape("su").kind == "symmetric_unimodal"
    assert parse_shape("t", nu=5).kind == "student_t"
    with pytest.raises(InvalidSpec):
        ShapeClass("bogus")
    with pytest.raises(InvalidSpec):
        ShapeClass("student_t")  # nu required
