"""Dispatch builders and solvers: objective, tightening, fixed point, nesting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from gesdispatch import distributions as dist
from gesdispatch.cantelli import ShapeClass, parse_shape
from gesdispatch.ddu import DduSpec
from gesdispatch.diu import LEVELS, BoundStats, UnitBoundStats, propagate_diu
from gesdispatch.distributions import DistributionSpec
from gesdispatch.errors import InfeasibleBounds, MaxIterationsExceeded
from gesdispatch.ges import DeviceDescription, UnitSchedule
from gesdispatch.optimizer import (
    DispatchStrategy,
    SolveMetadata,
    aggregate_scenario,
    balance_requirements,
    build_cco_ddu,
    build_cco_diu,
    ddu_row_data,
    deterministic_scenario,
    evaluate_objective,
    iterative_solve_r2,
    robust_f_inv,
    robust_solve_r1,
    solve_cco_diu,
    solve_deterministic_m1,
    solve_lp,
)

from gesdispatch.reliability import VIOLATION_TOL, _noise_states, _unit_noise
from gesdispatch.reserve import solve_with_reserve
from gesdispatch.scenario import ReserveSpec

from util import PROPAGATION_SAMPLES, bes_device, make_scenario, make_unit, reserve_problem, stat_threshold

T = 24


def inert_scenario(load=10.0, tou=0.9, horizon=T):
    """One zero-rated unit: the grid must serve the whole load."""
    dev = bes_device(rating=0.0, soc_lo=0.0, soc_hi=1.0, deadband=0.2)
    u = make_unit(dev, horizon)
    return make_scenario([u], horizon, tou=tou, load=load)


def zero_strategy(scn):
    schedules = {
        u.unit_id: UnitSchedule(
            p_c=np.zeros(scn.horizon),
            p_d=np.zeros(scn.horizon),
            soc=np.full(scn.horizon + 1, u.params.soc_init),
        )
        for u in scn.units
    }
    return DispatchStrategy(
        schedules=schedules, grid_import=np.zeros(scn.horizon),
        rd={u.unit_id: np.zeros(scn.horizon) for u in scn.units},
        objective_value=0.0, metadata=SolveMetadata(mode="M2"),
    )


# --- objective -------------------------------------------------------------


def test_objective_grid_only():
    scn = inert_scenario(load=10.0, tou=0.9)
    strat = solve_cco_diu(scn)
    assert np.allclose(strat.grid_import, 10.0)
    assert strat.objective_value == pytest.approx(216.0, abs=1e-6)


def test_objective_single_discharge():
    scn = make_scenario([make_unit(bes_device(), T)], T)
    strat = zero_strategy(scn)
    strat.schedules["bes"].p_d[5] = 2.0
    assert evaluate_objective(scn, strat) == pytest.approx(1.2, abs=1e-12)


def test_objective_zero_point():
    scn = make_scenario([make_unit(bes_device(), T)], T)
    assert evaluate_objective(scn, zero_strategy(scn)) == 0.0


# --- exogenous tightening --------------------------------------------------


def normal_table(mu, sigma, horizon):
    from scipy import stats as sstats

    z = sstats.norm.ppf(LEVELS)
    return BoundStats(
        mu=np.full(horizon, mu), sigma=np.full(horizon, sigma),
        table=np.tile(z[:, None], (1, horizon)),
    )


def stats_with_soc_hi(u, mu, sigma):
    det = UnitBoundStats.deterministic(u.params)
    det.soc_hi = normal_table(mu, sigma, u.params.horizon)
    return det


def test_soc_row_tightening_value():
    u = make_unit(bes_device(soc_lo=0.0, soc_hi=1.0), T)
    u.stats = stats_with_soc_hi(u, 0.9, 0.05)
    scn = make_scenario([u], T, gamma=0.05)
    prob = build_cco_diu(scn)
    soc_ub = prob.arrays().bounds[prob.columns("soc", "bes")[4], 1]  # SoC at time 5
    assert soc_ub == pytest.approx(0.9 - 1.6448536269514722 * 0.05, abs=1e-6)
    assert soc_ub == pytest.approx(0.8178, abs=1e-3)


def test_soc_row_no_tightening_at_half():
    u = make_unit(bes_device(soc_lo=0.0, soc_hi=1.0), T)
    u.stats = stats_with_soc_hi(u, 0.9, 0.05)
    scn = make_scenario([u], T, gamma=0.5)
    prob = build_cco_diu(scn)
    # the normalized median of a symmetric distribution is 0: row equals mean
    assert prob.arrays().bounds[prob.columns("soc", "bes")[4], 1] == pytest.approx(0.9, abs=1e-3)


def comfort_noise_scenario():
    """Two thermal units whose comfort limits and baseline draw are
    lognormal: unit "hi" has an uncertain SoC ceiling, unit "lo" an
    uncertain SoC floor, and both have skewed power ratings."""
    band = 0.5 + 0.5 * np.sin(np.arange(T) / 4.0)
    units = []
    for uid, fixed, series, noisy, center in (("hi", "t_comfort_lo", 21.0 + band, "t_comfort_hi", 27.0),
                                              ("lo", "t_comfort_hi", 25.0 - band, "t_comfort_lo", 19.0)):
        dev = DeviceDescription(
            kind="TCL_IVA", unit_id=uid, thermal_resistance=2.0, thermal_capacity=2.0,
            conversion_efficiency=2.5, t_in_baseline=23.0, p_min=0.0, p_max=6.0,
            baseline_power=3.0, **{fixed: series, noisy: center})
        unit_dists = {noisy: DistributionSpec.lognormal(math.log(center), 0.03)}
        baseline = dist.LognormalSeries(np.full(T, math.log(3.0)), np.full(T, 0.3))
        u = make_unit(dev, T, unit_dists=unit_dists, baseline=baseline)
        u.stats = propagate_diu(unit_dists, dev, baseline, 1.0, T, n=PROPAGATION_SAMPLES, seed=5)
        units.append(u)
    return make_scenario(units, T)


@pytest.mark.parametrize("name", ["smoke3", "comfort_noise"])
def test_exogenous_rows_hold_at_gamma_in_fresh_draws(request, name):
    # a schedule on a row's own bound violates the realized bound in at most
    # a gamma share of fresh noise draws (a seed the statistics did not use)
    scn = request.getfixturevalue("smoke3") if name == "smoke3" else comfort_noise_scenario()
    draws = 20_000
    prob = build_cco_diu(scn)
    bounds = prob.arrays().bounds
    worst = {}
    for u, states in zip(scn.units, _noise_states(scn.units, 2024, scn.horizon)):
        real = {key: value[0] for key, value in _unit_noise([u], scn, draws, [states]).items()}
        pc, pd, soc = (bounds[prob.columns(kind, u.unit_id)] for kind in ("pc", "pd", "soc"))
        for kind, violated in (("p_c_max", pc[:, 1] > real["p_c_max"] + VIOLATION_TOL),
                               ("p_d_max", pd[:, 1] > real["p_d_max"] + VIOLATION_TOL),
                               ("soc_lo", soc[:, 0] < real["soc_lo"] - VIOLATION_TOL),
                               ("soc_hi", soc[:, 1] > real["soc_hi"] + VIOLATION_TOL)):
            share = float(np.broadcast_to(violated, (draws, T)).mean(axis=0).max())
            worst[kind] = max(worst.get(kind, 0.0), share)
    thresh = stat_threshold(scn.gamma, draws)
    assert {k: v for k, v in worst.items() if v > thresh} == {}
    if name == "comfort_noise":  # every row kind is live here
        assert min(worst.values()) > 0.02


def test_renewable_credit_is_the_lower_quantile():
    res = [DistributionSpec.lognormal(math.log(5.0), 0.6)] * T
    scn = make_scenario([make_unit(bes_device(), T)], T, gamma=0.05)
    scn = replace(scn, res_dist=res)
    _, res_q = balance_requirements(scn)
    assert np.allclose(res_q, dist.quantile(res[0], 0.05), rtol=1e-12)


def test_sigma_zero_equals_mean_value_program():
    dev = bes_device(soc_lo=0.0, soc_hi=1.0, eps=0.0, deadband=0.2)
    u = make_unit(dev, T)
    scn = make_scenario([u], T, tou=0.9, load=12.0)
    a = build_cco_diu(scn).arrays()
    b = build_cco_diu(deterministic_scenario(scn)).arrays()
    assert np.array_equal(a.c, b.c)
    np.testing.assert_allclose(a.bounds, b.bounds)
    for ma, mb in ((a.A_ub, b.A_ub), (a.A_eq, b.A_eq)):
        assert ma.shape == mb.shape
        assert np.array_equal(ma.indptr, mb.indptr) and np.array_equal(ma.indices, mb.indices)
        assert np.array_equal(ma.data, mb.data)
    np.testing.assert_allclose(a.b_ub, b.b_ub, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.b_eq, b.b_eq, rtol=0, atol=1e-12)


# --- decision-dependent rows -----------------------------------------------


def ddu_unit(beta_up=3.0, beta_lo=6.0, **kw):
    spec = DduSpec(beta_up=beta_up, beta_lo=beta_lo, q_g_level=0.05, **kw)
    dev = bes_device(soc_lo=0.1, soc_hi=0.9, deadband=0.4)
    return make_unit(dev, T, ddu=spec)


def test_beta_zero_reduces_to_anchor_bounds():
    u = ddu_unit(beta_up=0.0, beta_lo=0.0)
    scn = make_scenario([u], T, tou=[0.5] * 18 + [1.3] * 6, load=20.0,
                        shape_class=ShapeClass("no_assumption"))
    strat = iterative_solve_r2(scn, delta=1e-3)
    # one post-initialization iteration: robust factors drop to the exact
    # (decision-independent) zero factors, after which nothing moves
    assert strat.metadata.converged
    assert strat.metadata.iterations == 1

    rows = ddu_row_data(scn.units)
    assert np.all(rows.slope_up == 0.0) and np.all(rows.slope_lo == 0.0)
    u2 = make_unit(
        bes_device(soc_lo=0.1, soc_hi=0.9, deadband=0.4), T, ddu=u.ddu,
    )
    u2.params = replace(u2.params, soc_lo=rows.q_lo[0], soc_hi=rows.q_up[0])
    scn2 = make_scenario([u2], T, tou=[0.5] * 18 + [1.3] * 6, load=20.0)
    base = solve_cco_diu(scn2)
    assert strat.objective_value == pytest.approx(base.objective_value, abs=1e-6)


def test_null_window_row_limits():
    u = ddu_unit()
    mask = np.zeros(T, dtype=bool)
    scn = make_scenario([u], T, load=20.0, dispatch_window=mask,
                        shape_class=ShapeClass("unimodal"))
    f = robust_f_inv(scn)
    prob = build_cco_ddu(scn, f)
    rows = ddu_row_data([u])
    bound = f["upper"][0, 0]
    matrix, i = prob.row("socup", "bes", 7)
    assert matrix == "ub"
    rhs = prob.arrays().b_ub[i]
    assert rhs == pytest.approx(rows.q_up[0, 7] - bound * rows.sigma_up[0, 7], abs=1e-12)
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    # with a null dispatch window, the unit cannot move at all
    assert np.all(sol.x[prob.columns("pc", "bes")] == 0.0)
    assert np.all(sol.x[prob.columns("pd", "bes")] == 0.0)


def test_m3_discharges_less_than_m2(smoke3):
    m2 = solve_cco_diu(smoke3)
    m3 = robust_solve_r1(smoke3)
    total = lambda s: sum(float(np.sum(sch.p_d)) for sch in s.schedules.values())  # noqa: E731
    assert total(m3) < total(m2)


# --- robust and iterative solves -------------------------------------------


def test_shape_information_ordering(smoke3):
    na = robust_solve_r1(replace(smoke3, shape_class=ShapeClass("no_assumption")))
    nm = robust_solve_r1(replace(smoke3, shape_class=ShapeClass("normal")))
    assert na.objective_value >= nm.objective_value - 1e-6


def _scaled_f_inv(f, scale):
    return {side: scale * arr for side, arr in f.items()}


def _bits(arrays):
    """Every array the solver receives, as bytes (so -0.0 != 0.0)."""
    out = [arrays.c, arrays.b_ub, arrays.b_eq, arrays.bounds]
    for mat in (arrays.A_ub, arrays.A_eq):
        out += [mat.data, mat.indices, mat.indptr]
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


def test_r2_rhs_update_equals_fresh_build(smoke3):
    f = robust_f_inv(smoke3)
    f_next = _scaled_f_inv(f, 0.37)
    f_next["lower"][0, 5] = 0.0
    prob = build_cco_ddu(smoke3, f)
    solve_lp(prob)  # assembled: the update must write into the solver's arrays
    assert build_cco_ddu(smoke3, f_next, update=prob) is prob
    assert _bits(prob.arrays()) == _bits(build_cco_ddu(smoke3, f_next).arrays())


# linprog forwards the scaling option, which it does not know, to HiGHS and warns about it
@pytest.mark.filterwarnings("ignore:Unrecognized options detected:scipy.optimize.OptimizeWarning")
@pytest.mark.parametrize("fixture, build", [
    ("smoke3", build_cco_diu), ("smoke3", lambda scn: build_cco_ddu(scn, robust_f_inv(scn))),
    ("tcl100", lambda scn: reserve_problem(scn, ReserveSpec(mode="S1"))),
    ("tcl100", lambda scn: reserve_problem(scn, ReserveSpec(mode="S2"))),
    ("tcl100", lambda scn: build_cco_ddu(scn, robust_f_inv(scn))),
], ids=["M2", "R1", "reserve-S1", "reserve-S2", "tcl100-R1"])
def test_cold_solve_equals_linprog(request, fixture, build):
    prob = build(request.getfixturevalue(fixture))
    a = prob.arrays()
    ref = linprog(a.c, A_ub=a.A_ub, b_ub=a.b_ub, A_eq=a.A_eq, b_eq=a.b_eq, bounds=a.bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9,
                           "simplex_scale_strategy": 0})
    sol = solve_lp(prob)
    assert (ref.status, sol.status) == (0, "optimal")
    assert sol.x.tobytes() == ref.x.tobytes() and sol.objective == ref.fun
    assert sol.nit == ref.nit > 0


def test_r2_rhs_update_resolves_warm(smoke3):
    f = robust_f_inv(smoke3)
    prob = build_cco_ddu(smoke3, f)
    solve_lp(prob)
    f_next = _scaled_f_inv(f, 0.37)
    warm = solve_lp(build_cco_ddu(smoke3, f_next, update=prob))
    cold = solve_lp(build_cco_ddu(smoke3, f_next))
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.nit < cold.nit
    assert solve_lp(prob).nit == 0


def test_r2_rhs_update_raises_the_build_crossings(smoke3):
    f = robust_f_inv(smoke3)
    crossing = _scaled_f_inv(f, 1.0)
    uid = smoke3.units[1].unit_id
    crossing["upper"][1, 3] = crossing["lower"][1, 3] = 1e6
    with pytest.raises(InfeasibleBounds) as fresh:
        build_cco_ddu(smoke3, crossing)
    prob = build_cco_ddu(smoke3, f)
    before = _bits(prob.arrays())
    with pytest.raises(InfeasibleBounds) as update:
        build_cco_ddu(smoke3, crossing, update=prob)
    assert [e[:2] for e in fresh.value.entries] == [(uid, 3)]
    assert update.value.entries == fresh.value.entries
    assert _bits(prob.arrays()) == before  # a refused update writes nothing


def _with_soc_init(scn, soc_init):
    """`scn` whose first unit (smoke3's bes1, band 0.1-0.9) starts at, and by
    the sustain row ends at, `soc_init`."""
    u = scn.units[0]
    return replace(scn, units=[replace(u, params=replace(u.params, soc_init=soc_init)), *scn.units[1:]])


@pytest.mark.parametrize("solve", [solve_cco_diu, robust_solve_r1, iterative_solve_r2,
                                   lambda scn: solve_with_reserve(scn, ReserveSpec(mode="S1"))],
                         ids=["M2", "M3-R1", "M3-R2", "reserve"])
def test_a_soc_init_outside_the_final_soc_bounds_raises_infeasible_bounds(smoke3, solve):
    # the LP would only report itself infeasible, without the unit or the step
    with pytest.raises(InfeasibleBounds) as exc:
        solve(_with_soc_init(smoke3, 0.95))
    ((uid, t, lo, hi),) = exc.value.entries
    assert (uid, t, lo) == ("bes1", smoke3.horizon - 1, 0.95) and hi < 0.95
    # M1 bounds the SoC by the physical range [0, 1] alone
    assert solve_deterministic_m1(_with_soc_init(smoke3, 0.95)).metadata.mode == "M1"


def test_a_final_soc_bound_missed_within_the_lp_tolerance_is_not_refused(smoke3):
    # HiGHS accepts a final SoC up to 1e-9 beyond bes1's tightened M2 ceiling
    u = smoke3.units[0]
    hi = min(u.params.soc_phys_hi, float(u.stats.soc_hi.quantile(smoke3.gamma)[-1]))
    build_cco_diu(_with_soc_init(smoke3, hi + 5e-10))
    with pytest.raises(InfeasibleBounds):
        build_cco_diu(_with_soc_init(smoke3, hi + 2e-9))


def test_r2_rhs_update_raises_when_the_final_soc_bounds_exclude_soc_init(smoke3):
    f = robust_f_inv(smoke3)
    prob = build_cco_ddu(smoke3, f)
    before = _bits(prob.arrays())
    rows = ddu_row_data(smoke3.units)
    # bes1's last upper bound at 0.3: below its soc_init 0.5, still above its lower bound
    narrow = _scaled_f_inv(f, 1.0)
    narrow["upper"][0, -1] = (rows.q_up[0, -1] - 0.3) / rows.sigma_up[0, -1]
    with pytest.raises(InfeasibleBounds) as exc:
        build_cco_ddu(smoke3, narrow, update=prob)
    ((uid, t, lo, hi),) = exc.value.entries
    assert (uid, t, lo) == ("bes1", smoke3.horizon - 1, 0.5) and hi == pytest.approx(0.3)
    assert _bits(prob.arrays()) == before  # a refused update writes nothing


def test_zero_bound_equals_mean_value_ddu(smoke3):
    scn = replace(smoke3, gamma=0.5, gamma_balance=0.5,
                  shape_class=ShapeClass("symmetric_unimodal"))
    f = robust_f_inv(scn)
    assert all(np.all(f[side] == 0.0) for side in ("upper", "lower"))
    r1 = robust_solve_r1(scn)
    sol = solve_lp(build_cco_ddu(scn, f))
    assert r1.objective_value == pytest.approx(sol.objective, abs=1e-9)


def test_r2_converges_on_smoke(smoke3):
    strat = iterative_solve_r2(smoke3, delta=1e-3)
    meta = strat.metadata
    assert meta.converged
    assert meta.iterations <= 10
    deltas = [d for _, d in meta.trace[2:]]
    assert all(a >= b - 1e-9 for a, b in zip(deltas, deltas[1:]))
    objs = [o for o, _ in meta.trace]
    assert all(a >= b - 1e-6 for a, b in zip(objs, objs[1:]))


def test_r1_dominates_r2(smoke3):
    u_obj = robust_solve_r1(replace(smoke3, shape_class=ShapeClass("unimodal")))
    r2 = iterative_solve_r2(smoke3, delta=1e-3)
    assert u_obj.objective_value >= r2.objective_value - 1e-6


def random_scenario(seed):
    rng = np.random.default_rng(seed)
    horizon = 8
    units = []
    for k in range(rng.integers(1, 3)):
        dev = bes_device(
            uid=f"b{k}", S=float(rng.uniform(20, 60)), rating=float(rng.uniform(4, 12)),
            soc_lo=0.1, soc_hi=0.9, soc_init=float(rng.uniform(0.4, 0.6)),
            deadband=float(rng.uniform(0.2, 0.5)),
        )
        spec = DduSpec(q_g_level=0.05, lam=0.7)
        units.append(make_unit(dev, horizon, ddu=spec,
                               price_c=float(rng.uniform(0.2, 0.4)),
                               price_d=float(rng.uniform(0.5, 0.7))))
    tou = rng.uniform(0.6, 1.3, horizon)
    load = rng.uniform(5.0, 25.0, horizon)
    return make_scenario(units, horizon, tou=tou, load=load,
                         shape_class=ShapeClass("no_assumption"))


def test_r2_trace_nonincreasing_random_scenarios():
    for seed in range(20):
        scn = random_scenario(seed)
        strat = iterative_solve_r2(scn, delta=1e-3, max_iter=25)
        objs = [o for o, _ in strat.metadata.trace]
        assert all(a >= b - 1e-6 for a, b in zip(objs, objs[1:])), f"seed {seed}: {objs}"


def test_max_iter_carries_best_iterate(smoke3):
    with pytest.raises(MaxIterationsExceeded) as err:
        iterative_solve_r2(smoke3, delta=1e-12, max_iter=1)
    strategy = err.value.strategy  # the last iterate, marked unconverged
    assert strategy.metadata.converged is False and strategy.metadata.iterations == 1
    assert len(strategy.metadata.trace) == 2  # the start and the one iteration


# --- invariants ------------------------------------------------------------


def test_feasible_region_nesting(smoke3):
    f = robust_f_inv(smoke3)
    tight = _scaled_f_inv(f, 1.1)
    a = solve_lp(build_cco_ddu(smoke3, f)).objective
    b = solve_lp(build_cco_ddu(smoke3, tight)).objective
    assert b >= a - 1e-9


def test_window_restriction(smoke3):
    mask = np.zeros(smoke3.horizon, dtype=bool)
    mask[19:23] = True
    scn = replace(smoke3, dispatch_window=mask)
    strat = robust_solve_r1(scn)
    for sched in strat.schedules.values():
        assert np.all(sched.p_c[~mask] == 0.0)
        assert np.all(sched.p_d[~mask] == 0.0)


def test_energy_sustainability(smoke3):
    for strat in (solve_deterministic_m1(smoke3), solve_cco_diu(smoke3),
                  robust_solve_r1(smoke3)):
        for sched in strat.schedules.values():
            assert abs(sched.soc[-1] - sched.soc[0]) < 1e-7


def test_model_nesting_objectives(smoke3):
    m1 = solve_deterministic_m1(smoke3).objective_value
    m2 = solve_cco_diu(smoke3).objective_value
    m3 = robust_solve_r1(smoke3).objective_value
    assert m1 <= m2 + 1e-6
    assert m2 <= m3 + 1e-6


def test_epigraph_exactness(smoke3):
    strat = robust_solve_r1(smoke3)
    f = robust_f_inv(smoke3)
    rows = ddu_row_data(smoke3.units)
    for i, u in enumerate(smoke3.units):
        rd = strat.rd[u.unit_id]
        soc = strat.schedules[u.unit_id].soc[1:]
        hi = rows.q_up[i] - f["upper"][i] * rows.sigma_up[i] + rows.slope_up[i] * rd
        lo = rows.q_lo[i] + f["lower"][i] * rows.sigma_lo[i] + rows.slope_lo[i] * rd
        assert np.all(soc <= hi + 1e-6)
        assert np.all(soc >= lo - 1e-6)


def test_aggregate_scenario(smoke3):
    agg = aggregate_scenario(smoke3)
    assert len(agg.units) == 1
    assert agg.units[0].params.S == pytest.approx(sum(u.params.S for u in smoke3.units))
    caps = np.array([u.params.S for u in smoke3.units])
    w = caps / caps.sum()
    expect = sum(wi * u.price_c[0] for wi, u in zip(w, smoke3.units))
    assert agg.units[0].price_c[0] == pytest.approx(expect, abs=1e-12)
    # the aggregated scenario still solves
    strat = robust_solve_r1(agg)
    assert math.isfinite(strat.objective_value)


def test_m1_flat_prices_zero_load():
    dev = bes_device(soc_lo=0.0, soc_hi=1.0)
    scn = make_scenario([make_unit(dev, T)], T, tou=0.9, load=0.0)
    strat = solve_deterministic_m1(scn)
    assert strat.objective_value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(strat.grid_import, 0.0)
