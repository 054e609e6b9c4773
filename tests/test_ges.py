"""Device-to-storage mapping, aggregation, and the scalar SoC recursion and
feasibility check that hold the LP's schedules to it."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesdispatch.errors import EmptyFleet, InvalidDevice, LengthMismatch
from gesdispatch.ges import DeviceDescription, GesParams, UnitSchedule, aggregate_fleet, map_device_to_ges
from gesdispatch.optimizer import solve_cco_diu

from util import bes_device, make_scenario, make_unit, step_soc

T = 24


@dataclass
class Violation:
    constraint: str
    t: int
    magnitude: float
    unit_id: str = ""


class ComplementarityWarning(UserWarning):
    """Simultaneous charge and discharge in a schedule (relaxed constraint)."""


def unroll_soc(p_c: np.ndarray, p_d: np.ndarray, params: GesParams, soc0: float | None = None) -> np.ndarray:
    """SoC trajectory implied by a power schedule."""
    horizon = p_c.shape[0]
    soc = np.empty(horizon + 1)
    soc[0] = params.soc_init if soc0 is None else soc0
    for t in range(horizon):
        soc[t + 1] = step_soc(soc[t], float(p_c[t]), float(p_d[t]), params, t)
    return soc


def check_feasibility(sched: UnitSchedule, params: GesParams, tol: float = 1e-9) -> list[Violation]:
    """Deterministic feasibility check; one entry per violated constraint."""
    horizon = params.horizon
    if sched.p_c.shape[0] != horizon or sched.soc.shape[0] != horizon + 1:
        raise LengthMismatch(
            f"{params.unit_id}: schedule horizon {sched.p_c.shape[0]} vs params horizon {horizon}"
        )
    out: list[Violation] = []
    uid = params.unit_id
    for t in range(horizon):
        d = sched.soc[t + 1] - sched.soc[t]
        if d > params.soc_ramp_up + tol:
            out.append(Violation("RampUp", t, d - params.soc_ramp_up, uid))
        if -d > params.soc_ramp_dn + tol:
            out.append(Violation("RampDown", t, -d - params.soc_ramp_dn, uid))
        if sched.p_c[t] < -tol or sched.p_c[t] > params.p_c_max[t] + tol:
            mag = max(-sched.p_c[t], sched.p_c[t] - params.p_c_max[t])
            out.append(Violation("PowerBound", t, float(mag), uid))
        if sched.p_d[t] < -tol or sched.p_d[t] > params.p_d_max[t] + tol:
            mag = max(-sched.p_d[t], sched.p_d[t] - params.p_d_max[t])
            out.append(Violation("PowerBound", t, float(mag), uid))
        lo, hi = params.soc_lo[t], params.soc_hi[t]
        # bound series indexed by step t constrains the post-step state soc[t+1]
        s = sched.soc[t + 1]
        if s < lo - tol or s > hi + tol:
            out.append(Violation("SocBound", t, float(max(lo - s, s - hi)), uid))
        pred = step_soc(float(sched.soc[t]), float(sched.p_c[t]), float(sched.p_d[t]), params, t)
        if abs(sched.soc[t + 1] - pred) > tol:
            out.append(Violation("Recursion", t, float(abs(sched.soc[t + 1] - pred)), uid))
        if sched.p_c[t] * sched.p_d[t] > tol:
            warnings.warn(
                f"{uid}: simultaneous charge and discharge at t={t}",
                ComplementarityWarning,
                stacklevel=2,
            )
    gap = sched.soc[-1] - sched.soc[0]
    if abs(gap) > tol:
        out.append(Violation("EnergySustainability", horizon, float(abs(gap)), uid))
    return out


def tcl_device(**kw):
    base = dict(
        kind="TCL_IVA", unit_id="tcl", thermal_resistance=2.0, thermal_capacity=2.0,
        conversion_efficiency=2.5, t_comfort_lo=22.0, t_comfort_hi=26.0,
        t_in_baseline=24.0, p_min=0.0, p_max=5.0, baseline_power=2.0,
    )
    base.update(kw)
    return DeviceDescription(**base)


def simple_params(eps=0.0, S=10.0, alpha=0.0, eta=1.0, horizon=T, soc_init=0.5):
    z = np.zeros(horizon)
    return GesParams(
        unit_id="u", S=S, eta_c=eta, eta_d=eta, eps=eps, dt=1.0,
        p_c_max=np.full(horizon, 10.0), p_d_max=np.full(horizon, 10.0),
        soc_lo=z.copy(), soc_hi=np.ones(horizon),
        alpha=np.full(horizon, float(alpha)), soc_init=soc_init,
        soc_baseline=np.full(horizon, 0.5), soc_baseline_avg=np.full(horizon, 0.5),
        deadband=np.full(horizon, 0.1), on_prob=np.ones(horizon),
    )


# --- mapping ---------------------------------------------------------------


def test_tcl_eps_closed_form():
    p = map_device_to_ges(tcl_device(), 1.0, T)
    assert p.eps == pytest.approx(1.0 - math.exp(-0.25), abs=1e-12)
    assert p.eps == pytest.approx(0.221199, abs=1e-6)


def test_tcl_capacity_and_soc():
    p = map_device_to_ges(tcl_device(), 1.0, T)
    eps = 1.0 - math.exp(-0.25)
    # S = dt * span / (K * R * eps), span = 4 degC
    assert p.S == pytest.approx(1.0 * 4.0 / (2.5 * 2.0 * eps), rel=1e-12)
    assert p.eta_c == 1.0 and p.eta_d == 1.0
    # indoor temperature at 24 degC in a [22, 26] band maps to SoC 0.5
    assert np.allclose(p.soc_baseline, (26.0 - 24.0) / (26.0 - 22.0))
    assert np.allclose(p.alpha, eps * 0.5)


def test_tcl_eps_first_order_in_dt():
    for dt in (1.0, 0.5, 0.25):
        p = map_device_to_ges(tcl_device(), dt, T)
        assert p.eps / dt == pytest.approx(1.0 / 4.0, rel=dt / 4.0)


def test_bes_identity():
    dev = DeviceDescription(
        kind="BES", unit_id="b", s_capacity=10.0, eps=0.01, eta_c=0.9, eta_d=0.9,
        p_c_rating=5.0, p_d_rating=5.0, soc_lo=0.1, soc_hi=0.9, soc_init=0.5,
    )
    p = map_device_to_ges(dev, 1.0, T)
    assert p.S == 10.0 and p.eps == 0.01
    assert np.all(p.alpha == 0.0)
    assert np.all(p.p_c_max == 5.0) and np.all(p.p_d_max == 5.0)


def test_ev_baseline_adjustment():
    dev = DeviceDescription(
        kind="EV", unit_id="e", s_capacity=40.0, eta_c=0.95, eta_d=0.95,
        p_c_rating=7.0, p_d_rating=7.0, soc_lo=0.2, soc_hi=0.9, soc_init=0.55,
        ev_base_p_c=3.0, ev_dsoc=3.0 * 0.95 / 40.0,
    )
    p = map_device_to_ges(dev, 1.0, T)
    assert np.allclose(p.p_c_max, 4.0)  # rating minus baseline charging
    assert np.allclose(p.alpha, 3.0 * 0.95 / 40.0)


def test_invalid_device():
    with pytest.raises(InvalidDevice):
        map_device_to_ges(tcl_device(thermal_resistance=-1.0), 1.0, T)
    with pytest.raises(InvalidDevice):
        map_device_to_ges(DeviceDescription(kind="BES", s_capacity=-5.0), 1.0, T)


def test_a_tcl_soc_band_is_clipped_to_the_physical_range():
    # the band comes from the comfort temperatures, so a narrower physical range may cut it
    wide, narrow = (map_device_to_ges(tcl_device(soc_phys_lo=lo, soc_phys_hi=hi), 1.0, T) for lo, hi in
                    ((0.0, 1.0), (0.2, 0.8)))
    assert wide.soc_lo.min() < 0.2 and wide.soc_hi.max() > 0.8
    assert np.array_equal(narrow.soc_lo, np.maximum(wide.soc_lo, 0.2))
    assert np.array_equal(narrow.soc_hi, np.minimum(wide.soc_hi, 0.8))


# --- recursion -------------------------------------------------------------


def test_step_soc_examples():
    p = simple_params()
    assert step_soc(0.5, 1.0, 0.0, p, 0) == pytest.approx(0.6, abs=1e-12)
    assert step_soc(0.5, 0.0, 0.0, p, 0) == 0.5
    p2 = simple_params(eps=0.2, alpha=0.1)
    assert step_soc(0.5, 0.0, 0.0, p2, 0) == pytest.approx(0.5, abs=1e-12)


def test_unroll_matches_step():
    p = simple_params(eps=0.05, alpha=0.02, eta=0.9)
    rng = np.random.default_rng(0)
    p_c = rng.uniform(0, 2, T)
    p_d = rng.uniform(0, 2, T)
    soc = unroll_soc(p_c, p_d, p)
    assert soc[0] == p.soc_init
    for t in range(T):
        assert soc[t + 1] == pytest.approx(step_soc(soc[t], p_c[t], p_d[t], p, t), abs=1e-12)


# --- feasibility -----------------------------------------------------------


def null_schedule(p):
    soc = np.full(p.horizon + 1, p.soc_init)
    return UnitSchedule(p_c=np.zeros(p.horizon), p_d=np.zeros(p.horizon), soc=soc)


def test_null_schedule_feasible():
    p = simple_params()
    assert check_feasibility(null_schedule(p), p) == []


def test_power_bound_violation():
    p = simple_params()
    s = null_schedule(p)
    s.p_c[3] = p.p_c_max[3] + 0.5
    s.soc = unroll_soc(s.p_c, s.p_d, p)
    out = [v for v in check_feasibility(s, p) if v.constraint == "PowerBound"]
    assert len(out) == 1
    assert out[0].t == 3
    assert out[0].magnitude == pytest.approx(0.5, abs=1e-9)


def test_sustainability_violation():
    p = simple_params()
    s = null_schedule(p)
    s.p_c[0] = 2.0  # adds 0.2 SoC with eta=1, S=10
    s.soc = unroll_soc(s.p_c, s.p_d, p)
    out = [v for v in check_feasibility(s, p) if v.constraint == "EnergySustainability"]
    assert len(out) == 1
    assert out[0].magnitude == pytest.approx(0.2, abs=1e-9)


def test_length_mismatch():
    p = simple_params()
    s = null_schedule(simple_params(horizon=T - 1))
    with pytest.raises(LengthMismatch):
        check_feasibility(s, p)


def test_feasible_schedule_roundtrip():
    p = simple_params(eps=0.01, alpha=0.01 * 0.5)
    rng = np.random.default_rng(1)
    p_c = rng.uniform(0, 0.5, T)
    p_c[-1] = 0.0
    p_d = np.zeros(T)
    soc = unroll_soc(p_c, p_d, p)
    # restore the terminal state exactly so sustainability holds
    need = soc[-1] - p.soc_init
    assert need > 0
    p_d[-1] = need * p.S * p.eta_d / p.dt
    sched = UnitSchedule(p_c=p_c, p_d=p_d, soc=unroll_soc(p_c, p_d, p))
    assert check_feasibility(sched, p) == []
    # one SoC entry off the recursion breaks the step into it and the step out of it
    sched.soc[5] += 1e-3
    assert [(v.constraint, v.t) for v in check_feasibility(sched, p)] == [("Recursion", 4), ("Recursion", 5)]


# --- aggregation -----------------------------------------------------------


def test_aggregate_identity():
    p = simple_params()
    q = aggregate_fleet([p])
    for name in ("S", "eta_c", "eta_d", "eps", "soc_init"):
        assert getattr(q, name) == getattr(p, name)
    assert np.allclose(q.p_c_max, p.p_c_max)
    assert np.allclose(q.soc_lo, p.soc_lo)


def test_aggregate_two_identical():
    p = simple_params(S=10.0, eps=0.1)
    q = aggregate_fleet([p, replace(p, unit_id="u2")])
    assert q.S == 20.0
    assert q.eps == pytest.approx(0.1)
    assert np.allclose(q.p_c_max, 2 * p.p_c_max)
    assert q.soc_init == pytest.approx(p.soc_init)


def test_aggregate_weighted_eps():
    a = simple_params(S=10.0, eps=0.1)
    b = replace(simple_params(S=30.0, eps=0.3), unit_id="u2")
    q = aggregate_fleet([a, b])
    assert q.eps == pytest.approx((10.0 * 0.1 + 30.0 * 0.3) / 40.0, abs=1e-12)


def test_aggregate_empty():
    with pytest.raises(EmptyFleet):
        aggregate_fleet([])


# --- properties ------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=0.5, max_value=1.0),
    st.integers(min_value=1, max_value=12),
)
def test_unroll_roundtrip_property(eps, eta, horizon):
    p = simple_params(eps=eps, eta=eta, horizon=horizon, alpha=eps * 0.5)
    rng = np.random.default_rng(horizon)
    p_c = rng.uniform(0, 1, horizon)
    p_d = rng.uniform(0, 1, horizon)
    soc = unroll_soc(p_c, p_d, p)
    sched = UnitSchedule(p_c=p_c, p_d=p_d, soc=soc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ComplementarityWarning)
        recursion = [v for v in check_feasibility(sched, p) if v.constraint == "Recursion"]
    assert recursion == []


def test_lp_schedules_satisfy_the_recursion():
    # the LP's dynamics, power, SoC and sustainability rows hold the schedule
    # the scalar check holds it to
    units = [make_unit(bes_device(uid=f"b{k}", eps=eps, eta=eta), T) for k, (eps, eta) in
             enumerate([(0.0, 0.95), (0.02, 0.9)])]
    strategy = solve_cco_diu(make_scenario(units, T, tou=np.linspace(0.2, 1.4, T)))
    for u in units:
        sched = strategy.schedules[u.unit_id]
        assert np.any(sched.p_c + sched.p_d > 0)  # it responds
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ComplementarityWarning)
            assert check_feasibility(sched, u.params, tol=1e-7) == []
