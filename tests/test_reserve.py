"""Reserve-backed dispatch: pricing formulas and portfolio behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gesdispatch.errors import InvalidProbability, MissingOnProb
from gesdispatch.optimizer import robust_solve_r1
from gesdispatch.reserve import required_reliability, reserve_price, solve_with_reserve
from gesdispatch.scenario import ReserveSpec

from util import reserve_problem


def test_required_reliability_examples():
    assert required_reliability(0.83, 0.05) == pytest.approx(1.0 - 0.05 / 0.17, abs=1e-9)
    assert required_reliability(0.83, 0.05) == pytest.approx(0.70588, abs=1e-4)
    assert required_reliability(0.99, 0.05) == 0.0
    assert required_reliability(0.5, 0.5) == 0.0


def test_required_reliability_validation():
    with pytest.raises(InvalidProbability):
        required_reliability(1.0, 0.05)
    with pytest.raises(InvalidProbability):
        required_reliability(0.8, 0.0)


def test_reserve_price_examples():
    assert reserve_price(1.0, 0.7, 2.0) == pytest.approx(0.7)
    assert reserve_price(0.5, 1.0, 2.0) == pytest.approx(0.25, abs=1e-12)
    assert reserve_price(0.0, 1.0, 2.0) == 0.0
    with pytest.raises(InvalidProbability):
        reserve_price(1.5, 1.0, 2.0)


def test_required_reliability_monotone():
    gammas = np.linspace(0.01, 0.9, 30)
    for p_on in (0.0, 0.3, 0.83, 0.95):
        vals = [required_reliability(p_on, float(g)) for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for g in (0.05, 0.3):
        # nondecreasing in the outage probability 1 - p_on
        vals = [required_reliability(p, g) for p in (0.9, 0.6, 0.3, 0.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_reserve_price_convex_in_r():
    rs = np.linspace(0.0, 1.0, 41)
    vals = np.array([reserve_price(float(r), 1.0, 2.0) for r in rs])
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(np.diff(vals, 2) >= -1e-12)


def test_always_on_fleet_has_no_reserve(smoke3):
    # smoke fleet units default to on_prob = 1: the reserve never engages
    strat = solve_with_reserve(smoke3, ReserveSpec(mode="S1", a=1.0, b=2.0))
    for rs in strat.reserve_schedule.values():
        assert np.allclose(rs, 0.0, atol=1e-9)
    assert strat.reserve_diag["reserve_energy_kwh"] == pytest.approx(0.0, abs=1e-9)
    base = robust_solve_r1(smoke3)
    assert strat.objective_value == pytest.approx(base.objective_value, abs=1e-6)


def test_missing_on_prob(smoke3):
    scn = replace(smoke3)
    bad = replace(scn.units[0], params=replace(
        scn.units[0].params, on_prob=np.full(scn.horizon, np.nan)))
    scn = replace(scn, units=[bad] + scn.units[1:])
    with pytest.raises(MissingOnProb):
        solve_with_reserve(scn, ReserveSpec(mode="S2"))


def test_s2_never_costlier_than_s1(tcl100):
    s1 = solve_with_reserve(tcl100, ReserveSpec(mode="S1", a=1.0, b=2.0))
    s2 = solve_with_reserve(tcl100, ReserveSpec(mode="S2", a=1.0, b=2.0))
    assert s2.objective_value <= s1.objective_value + 1e-6
    assert s1.reserve_diag["mode"] == "S1"
    assert s2.reserve_diag["mode"] == "S2"


def test_reserve_links_to_net_response(tcl100):
    strat = solve_with_reserve(tcl100, ReserveSpec(mode="S2", a=1.0, b=2.0))
    g = tcl100.gamma
    for u in tcl100.units[:5]:
        w = 1.0 - float(u.params.on_prob[0]) * (1.0 - g)
        sched = strat.schedules[u.unit_id]
        expect = w * (sched.p_d - sched.p_c)
        assert np.allclose(strat.reserve_schedule[u.unit_id], expect, atol=1e-6)


@pytest.mark.parametrize("p_lo, p_hi", [(-math.inf, math.inf), (-30.0, 12.5)], ids=["default", "finite"])
def test_reserve_power_bounds_reach_the_lp_as_given(smoke3, p_lo, p_hi):
    prob = reserve_problem(smoke3, ReserveSpec(mode="S1", p_lo=p_lo, p_hi=p_hi))
    bounds = prob.arrays().bounds[prob.columns("rs", [u.unit_id for u in smoke3.units])]
    assert (bounds[..., 0] == p_lo).all() and (bounds[..., 1] == p_hi).all()


def test_reserve_spec_validation():
    issues = ReserveSpec(mode="S9", a=-1.0).validate()
    assert len(issues) == 2


def test_reserve_spec_refuses_a_negative_flat_price():
    assert ReserveSpec(mode="S1", s1_price=0.0).validate() == []
    assert ReserveSpec(mode="S1", s1_price=-1.0).validate() == ["reserve s1_price must be >= 0, got -1.0"]


def test_reserve_spec_keeps_infinite_limits_and_refuses_what_the_lp_cannot_use():
    # no limit on the power or the ramps is the default; scenario.yaml states it as -.inf and .inf
    assert ReserveSpec(p_lo=-math.inf, p_hi=math.inf, ramp_up=math.inf, ramp_dn=math.inf).validate() == []
    for field, value in [("p_lo", math.inf), ("p_hi", -math.inf), ("ramp_up", math.nan), ("ramp_dn", math.nan),
                         ("p_lo", math.nan), ("a", math.inf), ("b", math.nan), ("s1_price", math.inf)]:
        issues = ReserveSpec(mode="S1", **{field: value}).validate()
        assert len(issues) == 1 and field in issues[0], (field, value, issues)
