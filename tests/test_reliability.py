"""Ex-post Monte-Carlo scoring: realized bounds, LORP/ERNS, penalties."""

import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from gesdispatch import reliability
from gesdispatch.ddu import DduSpec
from gesdispatch.errors import DimensionMismatch, InvalidSpec
from gesdispatch.ges import UnitSchedule
from gesdispatch.optimizer import (
    DispatchStrategy,
    SolveMetadata,
    aggregate_scenario,
    solve_cco_diu,
    solve_deterministic_m1,
)
from gesdispatch.pool import POOL_MIN_ELEMENTS
from gesdispatch.reliability import (
    OVER_RESPONSE_MULT,
    UNDER_RESPONSE_MULT,
    VIOLATION_TOL,
    RealizationBatch,
    UnitRealization,
    average_contraction,
    compute_lorp_erns,
    evaluate_many,
    evaluate_reliability,
    expost_row_frequencies,
    penalty_cost,
    realize_practical_bounds,
    realize_unit,
)

from util import bes_device, largest_task, make_scenario, make_unit

T = 8


def ddu_scenario(sigma_g=0.5, sigma_h=0.1, beta_up=3.0, beta_lo=6.0, **kw):
    spec = DduSpec(sigma_g=sigma_g, sigma_h=sigma_h, beta_up=beta_up,
                   beta_lo=beta_lo, q_g_level=0.05)
    dev = bes_device(soc_lo=0.1, soc_hi=0.9, deadband=0.4)
    return make_scenario([make_unit(dev, T, ddu=spec)], T, load=15.0, **kw)


def strategy_with(scn, soc=None, p_c=None, p_d=None):
    horizon = scn.horizon
    schedules = {}
    for u in scn.units:
        s = np.full(horizon + 1, u.params.soc_init) if soc is None else np.asarray(soc, float)
        schedules[u.unit_id] = UnitSchedule(
            p_c=np.zeros(horizon) if p_c is None else np.asarray(p_c, float),
            p_d=np.zeros(horizon) if p_d is None else np.asarray(p_d, float),
            soc=s.copy(),
        )
    from gesdispatch.ddu import response_discomfort_series

    return DispatchStrategy(
        schedules=schedules, grid_import=np.zeros(horizon),
        rd={u.unit_id: response_discomfort_series(schedules[u.unit_id], u.params, u.ddu)
            for u in scn.units},
        objective_value=0.0, metadata=SolveMetadata(mode="M2"),
    )


# --- realization -----------------------------------------------------------


def test_degenerate_bounds_equal_anchors():
    # no parameter noise, (nearly) no expansion/contraction spread, zero
    # response: every draw must sit at the deterministic anchor
    scn = ddu_scenario(sigma_g=1e-12, sigma_h=1e-12)
    strat = strategy_with(scn)  # rest at baseline: rd = 0
    batch = realize_practical_bounds(strat, scn, draws=64, seed=0)
    real = batch.units["bes"]
    from gesdispatch.optimizer import ddu_row_data

    rows = ddu_row_data(scn.units)
    assert np.allclose(real.upper, rows.q_up, atol=1e-6)
    assert np.allclose(real.lower, rows.q_lo, atol=1e-6)


def test_lp_rows_model_the_realized_mean_bound_at_positive_discomfort():
    # the LP's mean bound q + slope * rd is the evaluator's per-step mean over
    # draws: both take the same bound ends, expansion anchor and slope sign
    from gesdispatch.optimizer import ddu_row_data

    scn = ddu_scenario(sigma_g=1e-12)  # the expansion factor is a point: only H varies
    strat = strategy_with(scn, p_d=np.full(T, 3.0))
    rd = strat.rd["bes"]
    assert np.all(rd > 0)
    draws = 20_000
    real = realize_practical_bounds(strat, scn, draws=draws, seed=0).units["bes"]
    assert real.crossings == 0
    rows = ddu_row_data(scn.units)
    assert np.all(rows.slope_up < 0) and np.all(rows.slope_lo > 0)
    for realized, q, slope, sigma in ((real.upper, rows.q_up, rows.slope_up, rows.sigma_up),
                                      (real.lower, rows.q_lo, rows.slope_lo, rows.sigma_lo)):
        z = (realized.mean(axis=0) - (q[0] + slope[0] * rd)) / (sigma[0] / np.sqrt(draws))
        assert np.all(np.abs(z) <= 4.0), z


def test_beta_doubling_contracts_bounds():
    scn1 = ddu_scenario()
    scn2 = ddu_scenario(beta_up=6.0, beta_lo=12.0)
    strat = strategy_with(scn1, p_d=np.full(T, 3.0))  # positive rd
    b1 = realize_practical_bounds(strat, scn1, draws=500, seed=7)
    b2 = realize_practical_bounds(strat, scn2, draws=500, seed=7)
    up1 = b1.units["bes"].upper.mean(axis=0)
    up2 = b2.units["bes"].upper.mean(axis=0)
    lo1 = b1.units["bes"].lower.mean(axis=0)
    lo2 = b2.units["bes"].lower.mean(axis=0)
    # doubling the aversion pulls the mean bounds comfort-ward at every step
    assert np.all(up2 <= up1 + 1e-9)
    assert np.all(lo2 >= lo1 - 1e-9)


def test_rd_zero_strategy_independence():
    scn = ddu_scenario()
    a = strategy_with(scn)
    soc = np.full(T + 1, 0.55)  # inside the deadband: still rd = 0
    b = strategy_with(scn, soc=soc)
    assert np.all(a.rd["bes"] == 0.0) and np.all(b.rd["bes"] == 0.0)
    ba = realize_practical_bounds(a, scn, draws=100, seed=3)
    bb = realize_practical_bounds(b, scn, draws=100, seed=3)
    assert np.array_equal(ba.units["bes"].upper, bb.units["bes"].upper)
    assert np.array_equal(ba.units["bes"].lower, bb.units["bes"].lower)


# --- metrics on constructed batches ----------------------------------------


def fixed_batch(scn, upper, lower, draws=4):
    horizon = scn.horizon
    units = {
        u.unit_id: UnitRealization(
            upper=np.tile(np.asarray(upper, float), (draws, 1)),
            lower=np.tile(np.asarray(lower, float), (draws, 1)),
            p_c_max=np.tile(u.params.p_c_max, (draws, 1)),
            p_d_max=np.tile(u.params.p_d_max, (draws, 1)),
            crossings=0,
        )
        for u in scn.units
    }
    return RealizationBatch(units=units, draws=draws, seed=0)


def test_inside_bounds_zero_metrics():
    scn = ddu_scenario()
    strat = strategy_with(scn)
    batch = fixed_batch(scn, np.full(T, 0.9), np.full(T, 0.1))
    rep = compute_lorp_erns(strat, batch, scn)
    assert rep.lorp == 0.0
    assert np.all(rep.erns == 0.0)
    assert penalty_cost(strat, batch, scn) == 0.0


def test_erns_arithmetic():
    scn = ddu_scenario()  # S = 50
    scn.units[0].params.S = 10.0
    strat = strategy_with(scn)  # soc 0.5 everywhere
    upper = np.full(T, 0.9)
    upper[3] = 0.45  # exceeded by exactly 0.05 in every draw
    batch = fixed_batch(scn, upper, np.full(T, 0.1))
    rep = compute_lorp_erns(strat, batch, scn)
    assert rep.lorp == 1.0
    assert rep.erns[3] == pytest.approx(0.5, abs=1e-12)
    assert rep.erns_total_signed == pytest.approx(0.5, abs=1e-12)


def test_penalty_under_response():
    scn = ddu_scenario(tou=0.9)
    scn.units[0].params.S = 10.0
    strat = strategy_with(scn)
    lower = np.full(T, 0.1)
    lower[2] = 0.6  # soc 0.5 sits 0.1 below the lower bound: 1 kWh under
    batch = fixed_batch(scn, np.full(T, 0.9), lower)
    assert penalty_cost(strat, batch, scn) == pytest.approx(1.3 * 0.9, abs=1e-9)


def test_penalty_over_response():
    scn = ddu_scenario(tou=1.4)
    scn.units[0].params.S = 10.0
    strat = strategy_with(scn)
    upper = np.full(T, 0.9)
    upper[2] = 0.4  # soc 0.5 sits 0.1 above the upper bound: 1 kWh over
    batch = fixed_batch(scn, upper, np.full(T, 0.1))
    assert penalty_cost(strat, batch, scn) == pytest.approx(0.3 * 1.4, abs=1e-9)


def test_erns_sign_contract():
    scn = ddu_scenario()
    up = strategy_with(scn, soc=np.full(T + 1, 0.95))
    dn = strategy_with(scn, soc=np.full(T + 1, 0.05))
    batch = fixed_batch(scn, np.full(T, 0.9), np.full(T, 0.1))
    assert compute_lorp_erns(up, batch, scn).erns_total_signed > 0
    assert compute_lorp_erns(dn, batch, scn).erns_total_signed < 0


def test_dimension_mismatch():
    scn = ddu_scenario()
    strat = strategy_with(scn)
    batch = fixed_batch(scn, np.full(T, 0.9), np.full(T, 0.1))
    batch.draws = 99
    with pytest.raises(DimensionMismatch):
        compute_lorp_erns(strat, batch, scn)


# --- end-to-end evaluation -------------------------------------------------


def test_evaluation_deterministic(smoke3, smoke3_m2):
    a = evaluate_reliability(smoke3_m2, smoke3, draws=300, seed=11)
    b = evaluate_reliability(smoke3_m2, smoke3, draws=300, seed=11)
    assert a.lorp == b.lorp
    assert np.array_equal(a.erns, b.erns)
    assert a.cost_rt == b.cost_rt


def assert_same_report(a, b):
    assert (a.lorp, a.cost_rt, a.crossings) == (b.lorp, b.cost_rt, b.crossings)
    assert np.array_equal(a.erns, b.erns)
    assert a.violation_freq.keys() == b.violation_freq.keys()
    for uid, freq in a.violation_freq.items():
        assert np.array_equal(freq, b.violation_freq[uid])


def test_evaluate_many_matches_single(smoke3, smoke3_m2):
    many = evaluate_many({"m2": smoke3_m2}, smoke3, draws=300, seed=11)["m2"]
    one = evaluate_reliability(smoke3_m2, smoke3, draws=300, seed=11)
    assert_same_report(many, one)


def test_crossed_bounds_collapse_alike_in_every_evaluator():
    # strong discomfort aversion under an active schedule pushes the lower
    # bound above the upper one in many draws
    scn = ddu_scenario(beta_up=10.0, beta_lo=20.0)
    strat = strategy_with(scn, p_d=np.full(T, 3.0))
    one = evaluate_reliability(strat, scn, draws=400, seed=2)
    assert one.crossings > 0
    assert_same_report(one, evaluate_many({"s": strat}, scn, draws=400, seed=2)["s"])
    batch = realize_practical_bounds(strat, scn, draws=400, seed=2)
    assert np.all(batch.units["bes"].lower <= batch.units["bes"].upper)
    assert_same_report(one, compute_lorp_erns(strat, batch, scn))
    assert penalty_cost(strat, batch, scn) == one.cost_rt


def test_units_with_different_prices_realize_as_if_alone():
    # the expansion factor is shared between units only when their price
    # inputs are equal
    spec = DduSpec(q_g_level=0.05)
    units = [make_unit(bes_device(uid="cheap"), T, ddu=spec, price_c=0.1, price_d=0.2),
             make_unit(bes_device(uid="dear"), T, ddu=spec, price_c=1.2, price_d=1.4)]
    scn = make_scenario(units, T, load=15.0)
    strat = strategy_with(scn, p_d=np.full(T, 3.0))
    both = realize_practical_bounds(strat, scn, draws=200, seed=4).units
    assert not np.array_equal(both["cheap"].upper, both["dear"].upper)
    assert not np.array_equal(both["cheap"].lower, both["dear"].lower)
    for u in units:
        alone = realize_practical_bounds(strat, replace(scn, units=[u]), draws=200, seed=4)
        assert np.array_equal(both[u.unit_id].upper, alone.units[u.unit_id].upper)
        assert np.array_equal(both[u.unit_id].lower, alone.units[u.unit_id].lower)


def test_aggregated_fleet_is_not_evaluated(smoke3):
    # the virtual unit keeps its first member's device beside the merged storage view
    agg = aggregate_scenario(smoke3)
    strategy = solve_cco_diu(agg)
    with pytest.raises(InvalidSpec, match="aggregate"):
        evaluate_reliability(strategy, agg, draws=50, seed=1)
    with pytest.raises(InvalidSpec, match="aggregate"):
        expost_row_frequencies(strategy, agg, draws=50, seed=1)


def test_lorp_weakly_increases_with_gamma(smoke3):
    lorps = []
    for g in (0.05, 0.25, 0.45):
        scn = replace(smoke3, gamma=g, gamma_balance=g)
        strat = solve_cco_diu(scn)
        lorps.append(evaluate_reliability(strat, scn, draws=2000, seed=5).lorp)
    assert all(a <= b + 0.02 for a, b in zip(lorps, lorps[1:]))


def test_cost_accounting(smoke3, smoke3_m2):
    rep = evaluate_reliability(smoke3_m2, smoke3, draws=200, seed=1)
    assert rep.cost_tc == pytest.approx(rep.cost_da + rep.cost_rt, abs=1e-9)
    assert 0.0 <= rep.lorp <= 1.0


def test_average_contraction_zero_at_rest():
    scn = ddu_scenario()
    assert average_contraction(strategy_with(scn), scn) == 0.0
    active = strategy_with(scn, p_d=np.full(T, 3.0))
    assert average_contraction(active, scn) > 0.0


# --- the evaluator's unit pool ---------------------------------------------

#: the fewest draws at which a one-unit task runs on the pool (24 steps in
#: both fixtures)
POOL_DRAWS = -(-POOL_MIN_ELEMENTS // 24)


def serial_reference(strategies, scn, draws, seed):
    """Each strategy realized unit by unit, each unit a run of its own in
    fresh arrays, with no pool and no workspace, and scored with the metric
    definitions."""
    worlds = reliability._Worlds(seed, draws, scn)
    states = reliability._noise_states(scn.units, seed, scn.horizon)
    noise = [reliability._unit_noise([u], scn, draws, [s]) for u, s in zip(scn.units, states)]
    out = {}
    for name, strategy in strategies.items():
        any_violation = np.zeros(draws, dtype=bool)
        erns = np.zeros(scn.horizon)
        freq, cost_rt, crossings = {}, 0.0, 0
        for u, unit_noise in zip(scn.units, noise):
            real = realize_unit([u], reliability._schedules(strategy, [u]), unit_noise, draws, worlds).unit(0)
            soc = strategy.schedules[u.unit_id].soc[1:][None, :]
            over = np.maximum(soc - real.upper, 0.0)
            under = np.maximum(real.lower - soc, 0.0)
            violated = (over > VIOLATION_TOL) | (under > VIOLATION_TOL)
            any_violation |= violated.any(axis=1)
            erns += (over - under).mean(axis=0) * u.params.S
            freq[u.unit_id] = violated.mean(axis=0)
            crossings += real.crossings
            e_over = over.mean(axis=0) * u.params.S
            e_under = under.mean(axis=0) * u.params.S
            cost_rt += float(np.dot(scn.tou_price,
                                    UNDER_RESPONSE_MULT * e_under + OVER_RESPONSE_MULT * e_over))
        out[name] = (float(any_violation.mean()), erns, freq, cost_rt, crossings)
    return out


@pytest.mark.parametrize("fixture, draws, pooled", [
    ("tcl100", POOL_DRAWS, True), ("smoke3", 300, False),
    # tasks of 25, 25 and 10 units
    ("fleet60", 200, True),
    # runs of one and two units of every sampler branch
    ("mixed_fleet", 500, True),
])
def test_pooled_evaluation_equals_a_serial_reference_bit_for_bit(request, monkeypatch, two_cpus,
                                                                  fixture, draws, pooled):
    if fixture in ("fleet60", "mixed_fleet"):
        scn, strategies = request.getfixturevalue(fixture)
    else:
        scn = request.getfixturevalue(fixture)
    if fixture == "tcl100":
        scn = replace(scn, units=scn.units[:40])
        strategies = {k: request.getfixturevalue("tcl100_strategies")[k] for k in ("M2", "M3")}
    elif fixture == "smoke3":
        strategies = {"M1": solve_deterministic_m1(scn), "M2": request.getfixturevalue("smoke3_m2")}
    assert (largest_task(scn, draws) >= POOL_MIN_ELEMENTS) == pooled
    threads = set()
    units_per_call = []

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        units_per_call.append(len(args[0]))
        return realize_unit(*args, **kwargs)

    monkeypatch.setattr(reliability, "realize_unit", recording)
    reports = evaluate_many(strategies, scn, draws, seed=9)
    assert (threading.get_ident() not in threads) == pooled
    assert sum(units_per_call) == len(strategies) * len(scn.units)
    if fixture == "fleet60":
        assert sorted(set(units_per_call)) == [10, 25]
    for name, (lorp, erns, freq, cost_rt, crossings) in serial_reference(strategies, scn, draws, 9).items():
        got = reports[name]
        assert (got.lorp, got.cost_rt, got.crossings) == (lorp, cost_rt, crossings), name
        assert got.erns.tobytes() == erns.tobytes(), name
        assert got.violation_freq.keys() == freq.keys()
        assert all(got.violation_freq[uid].tobytes() == f.tobytes() for uid, f in freq.items()), name


def test_aggregate_units_fail_alike_on_and_off_the_pool(tcl100, tcl100_strategies, two_cpus):
    # two virtual units, each keeping its first member's device; the one
    # earlier in file order must raise, whichever task fails first
    units = list(tcl100.units[:6])
    for i in (2, 4):
        units[i] = aggregate_scenario(replace(tcl100, units=tcl100.units[i:i + 2])).units[0]
    scn = replace(tcl100, units=units)
    # the largest task holds the first two units
    sides = (POOL_DRAWS // 2 - 1, POOL_DRAWS // 2)
    assert [largest_task(scn, draws) >= POOL_MIN_ELEMENTS for draws in sides] == [False, True]
    errors = []
    for draws in sides:
        with pytest.raises(InvalidSpec, match="aggregated fleets cannot be evaluated") as exc:
            evaluate_many(tcl100_strategies, scn, draws, seed=1)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert f"the device of unit {tcl100.units[2].unit_id!r}" in errors[0]


def noise_free_pair():
    units = [make_unit(bes_device(uid="cheap"), T, price_c=0.1, price_d=0.2),
             make_unit(bes_device(uid="dear"), T, price_c=1.2, price_d=1.4)]
    return make_scenario(units, T, load=15.0)


@pytest.mark.parametrize("fixture", ["smoke3", "tcl100", "noise_free"])
def test_realized_units_share_no_memory(request, fixture):
    if fixture == "noise_free":
        scn = noise_free_pair()
    else:
        scn = request.getfixturevalue(fixture)
        scn = replace(scn, units=scn.units[:8])
    batch = realize_practical_bounds(strategy_with(scn), scn, draws=POOL_DRAWS, seed=3)
    arrays = [(uid, getattr(real, name)) for uid, real in batch.units.items()
              for name in ("upper", "lower", "p_c_max", "p_d_max")]
    shared = [(a, b) for (a, x), (b, y) in itertools.combinations(arrays, 2)
              if a != b and np.shares_memory(x, y)]
    assert shared == []
