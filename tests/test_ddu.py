"""Decision-dependent bound model: discomfort, expansion, contraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats as sstats

from gesdispatch.ddu import (
    MEAN_FLOOR,
    DduSpec,
    bound_ends,
    contraction_distribution,
    contraction_quantile_vec,
    ddu_bound_distribution,
    expansion_anchor,
    response_discomfort,
    response_discomfort_series,
    standardized_h_quantile,
)
from gesdispatch.distributions import DistributionSpec, mean, normalized_quantile, quantile, sample, std
from gesdispatch.errors import DimensionMismatch, InvalidSpec, NonTighteningCoefficient, OrderingViolation
from gesdispatch.ges import GesParams, UnitSchedule

T = 10

PAPER = DduSpec(sigma_g=0.5, sigma_h=0.1, beta_up=3.0, beta_lo=6.0, lam=0.7,
                c_bar=1.5, q_g_level=0.05)


def make_params(horizon=T, deadband=0.1):
    return GesParams(
        unit_id="u", S=10.0, eta_c=1.0, eta_d=1.0, eps=0.0, dt=1.0,
        p_c_max=np.full(horizon, 5.0), p_d_max=np.full(horizon, 5.0),
        soc_lo=np.zeros(horizon), soc_hi=np.ones(horizon),
        alpha=np.zeros(horizon), soc_init=0.5,
        soc_baseline=np.full(horizon, 0.5), soc_baseline_avg=np.full(horizon, 0.5),
        deadband=np.full(horizon, deadband), on_prob=np.ones(horizon),
    )


def schedule(p_c=0.0, p_d=0.0, soc=0.5, horizon=T):
    return UnitSchedule(
        p_c=np.broadcast_to(np.asarray(p_c, float), (horizon,)).copy(),
        p_d=np.broadcast_to(np.asarray(p_d, float), (horizon,)).copy(),
        soc=np.broadcast_to(np.asarray(soc, float), (horizon + 1,)).copy(),
    )


# --- discomfort ------------------------------------------------------------


def test_rd_zero_at_rest():
    p = make_params()
    assert response_discomfort(schedule(), p, DduSpec(), T - 1) == 0.0


def test_rd_f1_full_rating():
    p = make_params()
    spec = DduSpec(discomfort_variant="F1")
    s = schedule(p_d=5.0)  # full discharge rating every step
    rd = response_discomfort_series(s, p, spec)
    for t in range(T):
        assert rd[t] == pytest.approx((t + 1) / T, abs=1e-12)


def test_rd_f2_deviation_term():
    p = make_params(deadband=0.1)
    spec = DduSpec(lam=0.7, discomfort_variant="F2")
    s = schedule(soc=0.65)  # |soc - avg| = 0.15, deadband/2 = 0.05
    rd = response_discomfort_series(s, p, spec)
    assert rd[0] == pytest.approx(0.3 * (0.15 - 0.05), abs=1e-12)
    assert rd[0] == pytest.approx(0.03, abs=1e-12)


def test_rd_f3_one_sided():
    p = make_params(deadband=0.1)
    spec = DduSpec(lam=0.7, discomfort_variant="F3")
    above = response_discomfort_series(schedule(soc=0.7), p, spec)
    below = response_discomfort_series(schedule(soc=0.3), p, spec)
    assert np.all(above == 0.0)
    assert np.allclose(below, 0.3 * 0.2)


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=0.0, max_value=4.9), st.floats(min_value=0.0, max_value=0.4))
def test_rd_monotone_in_power_and_deviation(extra_power, extra_dev):
    p = make_params()
    spec = DduSpec()
    base = response_discomfort(schedule(p_d=0.1, soc=0.58), p, spec, T - 1)
    more_power = response_discomfort(schedule(p_d=0.1 + extra_power, soc=0.58), p, spec, T - 1)
    more_dev = response_discomfort(schedule(p_d=0.1, soc=0.58 + extra_dev), p, spec, T - 1)
    assert more_power >= base - 1e-12
    assert more_dev >= base - 1e-12


# --- expansion anchor ------------------------------------------------------


def test_anchor_zero_price_median():
    # mu_g = 0; the median of a normal truncated to [0, 1] with center 0 is
    # small, so the anchor stays near the identified bound
    spec = DduSpec(q_g_level=0.5)
    a = expansion_anchor(0.9, 1.0, 0.0, spec)
    g = sstats.truncnorm.ppf(0.5, 0.0, 1.0 / spec.sigma_g, loc=0.0, scale=spec.sigma_g)
    assert a == pytest.approx(0.9 + 0.1 * g, abs=1e-9)
    assert a < 0.95


def test_anchor_between_identified_and_physical():
    for price in (0.0, 0.3, 0.6, 1.5):
        a = expansion_anchor(0.8, 1.0, price, PAPER)
        assert 0.8 - 1e-12 <= a <= 1.0 + 1e-12
        lo = expansion_anchor(0.2, 0.0, price, PAPER)
        assert 0.0 - 1e-12 <= lo <= 0.2 + 1e-12


def test_anchor_monotone_in_price():
    vals = [expansion_anchor(0.8, 1.0, c, PAPER) for c in (0.0, 0.3, 0.6, 0.9)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# --- contraction distribution ----------------------------------------------


def test_contraction_moments():
    spec = DduSpec()
    for rd in (0.05, 0.2, 0.6):
        for side in ("upper", "lower"):
            h = contraction_distribution(rd, side, spec)
            m = spec.beta_side(side) * rd
            assert mean(h) == pytest.approx(m, rel=1e-9)
            assert std(h) == pytest.approx(spec.sigma_h, rel=1e-9)


def test_contraction_zero_rd_is_pointmass():
    h = contraction_distribution(0.0, "upper", DduSpec())
    assert std(h) == 0.0
    assert mean(h) == 0.0


def test_contraction_beta_family():
    spec = DduSpec(h_family="beta")
    h = contraction_distribution(0.2, "upper", spec)
    assert mean(h) == pytest.approx(0.6, rel=1e-6)
    assert std(h) == pytest.approx(0.1, rel=1e-3)


def test_contraction_quantile_vec_matches_scalar():
    spec = DduSpec()
    m = np.array([0.0, 0.1, 0.5, 1.2])
    u = np.array([0.2, 0.5, 0.8, 0.95])
    out = contraction_quantile_vec(m, spec, u)
    for k in range(m.size):
        if m[k] <= 1e-9:
            assert out[k] == m[k]
        else:
            h = contraction_distribution(m[k] / spec.beta_up, "upper", spec)
            assert out[k] == pytest.approx(float(quantile(h, u[k])), rel=1e-9)
    # precomputed standard normal scores give the same result
    assert np.array_equal(contraction_quantile_vec(m, spec, u, z=special.ndtri(u)), out)
    # one row of means broadcasts against a matrix of uniforms
    grid = contraction_quantile_vec(m, spec, np.tile(u, (3, 1)))
    assert grid.shape == (3, m.size) and np.array_equal(grid[1], out)
    # scores of one row of uniforms would broadcast silently against the matrix
    with pytest.raises(DimensionMismatch, match="ndtri"):
        contraction_quantile_vec(m, spec, np.tile(u, (3, 1)), z=special.ndtri(u))


def test_standardized_quantile_closed_form():
    spec = DduSpec()
    rd = 0.1
    h = contraction_distribution(rd, "upper", spec)
    q = quantile(h, 0.95)
    expected = (q - mean(h)) / std(h)
    assert standardized_h_quantile(rd, "upper", spec, 0.95) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("family", ["lognormal", "beta"])
def test_standardized_quantile_is_elementwise(family):
    spec = DduSpec(h_family=family)
    rd = np.concatenate(([0.0, MEAN_FLOOR / 10, MEAN_FLOOR / spec.beta_lo], np.linspace(0.0, 0.9, 91)[1:]))
    for side in ("upper", "lower"):
        for level in (0.5, 0.95, 0.99):
            got = standardized_h_quantile(rd, side, spec, level)
            want = [normalized_quantile(contraction_distribution(r, side, spec), level) for r in rd]
            assert got.shape == rd.shape
            assert np.max(np.abs(got - want)) <= 1e-12, (side, level)
            assert np.all(got[:3] == 0.0)
    scalar = standardized_h_quantile(0.3, "upper", spec, 0.95)
    assert type(scalar) is float and scalar == standardized_h_quantile(np.array([0.3]), "upper", spec, 0.95)[0]
    with pytest.raises(InvalidSpec):
        standardized_h_quantile(np.array([0.1, -1e-6]), "upper", spec, 0.95)


# --- realized bound distribution -------------------------------------------


def test_realized_bound_ordering_check():
    with pytest.raises(OrderingViolation):
        ddu_bound_distribution("upper", 0.5, 1.0, 0.9, 0.3, 0.1, PAPER)  # comfort above diu
    with pytest.raises(OrderingViolation):
        ddu_bound_distribution("lower", 0.5, 1.0, 0.9, 0.3, 0.1, PAPER)  # phys above diu
    with pytest.raises(InvalidSpec):
        ddu_bound_distribution("sideways", 0.5, 1.0, 0.9, 0.3, 0.1, PAPER)


def test_realized_bound_moments():
    rb = ddu_bound_distribution("upper", 0.9, 1.0, 0.6, 0.3, 0.1, PAPER)
    gap = 0.6 - rb.anchor
    assert rb.mean == pytest.approx(rb.anchor + gap * PAPER.beta_up * 0.1, rel=1e-9)
    assert rb.sigma == pytest.approx(abs(gap) * PAPER.sigma_h, rel=1e-9)


def test_realized_bound_zero_rd_equals_anchor():
    rb = ddu_bound_distribution("upper", 0.9, 1.0, 0.6, 0.3, 0.0, PAPER)
    assert rb.mean == pytest.approx(rb.anchor, abs=1e-9)
    assert rb.sigma == 0.0


def test_paper_parameters_keep_bounds_ordered():
    # upper: comfort 0.6 <= identified 0.9 <= physical 1.0, charge price 0.3
    # lower: physical 0.0 <= identified 0.1 <= comfort 0.4, discharge price 0.6
    n = 100_000
    rd = 0.2
    up = ddu_bound_distribution("upper", 0.9, 1.0, 0.6, 0.3, rd, PAPER)
    lo = ddu_bound_distribution("lower", 0.1, 0.0, 0.4, 0.6, rd, PAPER)
    rng = np.random.default_rng(0)
    hu = sample(up.h, n, rng.spawn(1)[0])
    hl = sample(lo.h, n, rng.spawn(1)[0])
    upper = up.anchor + (up.comfort - up.anchor) * hu
    lower = lo.anchor + (lo.comfort - lo.anchor) * hl
    assert np.mean(lower <= upper) >= 0.99


def test_comfort_bounds_clipped():
    p = make_params(deadband=0.3)
    ident_hi, hi = bound_ends("upper", p.soc_hi, p.soc_phys_hi, p.soc_baseline_avg, p.deadband)
    ident_lo, lo = bound_ends("lower", p.soc_lo, p.soc_phys_lo, p.soc_baseline_avg, p.deadband)
    assert np.allclose(lo, 0.35) and np.allclose(hi, 0.65)
    assert np.all(ident_lo == 0.0) and np.all(ident_hi == 1.0)
    # an identified bound beyond the physical one is clipped to it, and the
    # comfort edge to the identified bound
    assert bound_ends("upper", 1.2, 0.6, 0.5, 0.3) == (0.6, 0.6)
    assert bound_ends("lower", -0.1, 0.4, 0.5, 0.3) == (0.4, 0.4)


unit_floats = st.floats(min_value=0.0, max_value=1.0)


@settings(deadline=None, max_examples=200)
@given(soc_bound=st.floats(min_value=-0.5, max_value=1.5), phys=unit_floats, avg=unit_floats,
       deadband=unit_floats, price=st.floats(min_value=-2.0, max_value=5.0),
       sigma_g=st.floats(min_value=1e-3, max_value=3.0), c_bar=st.floats(min_value=0.05, max_value=5.0),
       q_g_level=st.floats(min_value=1e-6, max_value=1.0 - 1e-6), beta=st.floats(min_value=0.0, max_value=20.0))
def test_discomfort_never_widens_a_bound(soc_bound, phys, avg, deadband, price, sigma_g, c_bar, q_g_level,
                                         beta):
    # upper: comfort <= identified <= anchor <= physical; lower mirrored.  So
    # the LP slope d(mean bound)/d(rd) = (comfort - anchor) * beta is <= 0 on
    # the upper side and >= 0 on the lower
    spec = DduSpec(sigma_g=sigma_g, c_bar=c_bar, q_g_level=q_g_level, beta_up=beta, beta_lo=beta)
    ident, comfort = bound_ends("upper", soc_bound, phys, avg, deadband)
    anchor = expansion_anchor(ident, phys, price, spec)
    assert comfort <= ident <= anchor <= phys + 1e-12
    assert (comfort - anchor) * beta <= 0.0
    ident, comfort = bound_ends("lower", soc_bound, phys, avg, deadband)
    anchor = expansion_anchor(ident, phys, price, spec)
    assert phys - 1e-12 <= anchor <= ident <= comfort
    assert (comfort - anchor) * beta >= 0.0


def test_spec_validation():
    with pytest.raises(NonTighteningCoefficient):
        DduSpec(beta_up=5.0, beta_lo=2.0)
    with pytest.raises(InvalidSpec):
        DduSpec(sigma_h=0.0)
    with pytest.raises(InvalidSpec):
        DduSpec(discomfort_variant="F9")
