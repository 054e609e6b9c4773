"""The dispatch LPs are assembled per run of units, bit-identical to the
per-unit assembly they replaced.

The reference builders below add every row family and column block one unit
at a time, in unit order, as the package did before its builders became
(units, T) arithmetic.  HiGHS must receive the same arrays from both: the LP
is degenerate, so any other layout moves the solution.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gesdispatch import lp
from gesdispatch.ddu import expansion_anchor, rating_refs
from gesdispatch.diu import UnitBoundStats
from gesdispatch.lp import LpSolution
from gesdispatch.optimizer import (
    GRID,
    SolveMetadata,
    _update_f_inv,
    balance_requirements,
    build_cco_ddu,
    build_cco_diu,
    deterministic_scenario,
    extract_strategy,
    robust_f_inv,
)
from gesdispatch.reserve import _coverage_share, _unit_reserve_price
from gesdispatch.scenario import ReserveSpec

from util import contraction_distribution, contraction_normalized_quantile, reserve_problem, response_discomfort_series

# ---------------------------------------------------------------------------
# Per-unit reference builders


def ref_stats(u):
    return u.stats if u.stats is not None else UnitBoundStats.deterministic(u.params)


def ref_skeleton(scn, soc_bounds=None):
    prob = lp.LpProblem()
    horizon, dt, window = scn.horizon, scn.dt, scn.window_mask()
    grid = prob.add_columns(GRID, {"g": (0.0, scn.grid_cap)}, horizon)["g"]
    prob.add_objective(grid, scn.tou_price * dt)
    for u in scn.units:
        uid, p, stats = u.unit_id, u.params, ref_stats(u)
        pc_ub = np.maximum(0.0, stats.p_c_max.quantile(scn.gamma))
        pd_ub = np.maximum(0.0, stats.p_d_max.quantile(scn.gamma))
        cols = prob.add_columns(uid, {
            "pc": (0.0, np.where(window, pc_ub, 0.0)),
            "pd": (0.0, np.where(window, pd_ub, 0.0)),
            "soc": (soc_bounds or {}).get(uid, (p.soc_phys_lo, p.soc_phys_hi)),
        }, horizon)
        pc, pd, soc = cols["pc"], cols["pd"], cols["soc"]
        prob.add_objective([pc, pd], [u.price_c * dt, u.price_d * dt])
        keep = 1.0 - p.eps
        initial = np.zeros(horizon)
        initial[0] = p.soc_init
        dyn = prob.add_rows(uid, {"dyn": "=="}, horizon)
        dyn.add("dyn", soc, 1.0).add("dyn", pc, -(p.eta_c * p.dt / p.S))
        dyn.add("dyn", pd, p.dt / (p.eta_d * p.S)).add("dyn", soc[:-1], -keep, at=slice(1, None))
        dyn.set_rhs("dyn", stats.alpha.mu + keep * initial)
        ramps = {f: (sense, limit) for f, sense, limit in (
            ("rampup", "<=", p.soc_ramp_up), ("rampdn", ">=", -p.soc_ramp_dn)) if math.isfinite(limit)}
        if ramps:
            block = prob.add_rows(uid, {f: sense for f, (sense, _) in ramps.items()}, horizon)
            for family, (_, limit) in ramps.items():
                block.add(family, soc, 1.0).add(family, soc[:-1], -1.0, at=slice(1, None))
                block.set_rhs(family, limit + initial)
        prob.add_rows(uid, {"sustain": "=="}).add("sustain", soc[-1:], 1.0).set_rhs("sustain", p.soc_init)
    load_q, res_q = balance_requirements(scn)
    balance = prob.add_rows(GRID, {"balance": ">="}, horizon)
    balance.add("balance", grid, 1.0)
    balance.add("balance", np.stack([prob.columns("pd", u.unit_id) for u in scn.units]), 1.0)
    balance.add("balance", np.stack([prob.columns("pc", u.unit_id) for u in scn.units]), -1.0)
    balance.set_rhs("balance", load_q - res_q)
    return prob


def ref_build_cco_diu(scn):
    soc_bounds = {}
    for u in scn.units:
        p, stats = u.params, ref_stats(u)
        soc_bounds[u.unit_id] = (np.maximum(p.soc_phys_lo, stats.soc_lo.quantile(1.0 - scn.gamma)),
                                 np.minimum(p.soc_phys_hi, stats.soc_hi.quantile(scn.gamma)))
    return ref_skeleton(scn, soc_bounds)


def ref_ddu_row_data(u, horizon):
    p, stats = u.params, ref_stats(u)
    c_lo = np.clip(p.soc_baseline_avg - p.deadband / 2.0, p.soc_phys_lo, None)
    c_hi = np.clip(p.soc_baseline_avg + p.deadband / 2.0, None, p.soc_phys_hi)
    diu_hi = np.minimum(stats.soc_hi.mu[:horizon], p.soc_phys_hi)
    diu_lo = np.maximum(stats.soc_lo.mu[:horizon], p.soc_phys_lo)
    q_up = expansion_anchor(diu_hi, p.soc_phys_hi, u.price_c[:horizon], u.ddu)
    q_lo = expansion_anchor(diu_lo, p.soc_phys_lo, u.price_d[:horizon], u.ddu)
    gap_up = np.minimum(c_hi[:horizon], diu_hi) - q_up
    gap_lo = np.maximum(c_lo[:horizon], diu_lo) - q_lo
    return (q_up, q_lo, gap_up * u.ddu.beta_up, gap_lo * u.ddu.beta_lo,
            np.abs(gap_up) * u.ddu.sigma_h, np.abs(gap_lo) * u.ddu.sigma_h)


def ref_build_cco_ddu(scn, f_inv, update=None):
    horizon = scn.horizon
    prob = ref_skeleton(scn) if update is None else update
    sides = []
    for i, u in enumerate(scn.units):
        rows = ref_ddu_row_data(u, horizon)
        hi = rows[0] - f_inv["upper"][i] * rows[4]
        lo = rows[1] + f_inv["lower"][i] * rows[5]
        sides.append((rows, hi, lo))
    if update is not None:
        for u, (_, hi, lo) in zip(scn.units, sides):
            update.set_rhs("socup", u.unit_id, hi)
            update.set_rhs("soclo", u.unit_id, lo)
        return update
    steps, taus = np.tril_indices(horizon)
    for u, (rows, hi, lo) in zip(scn.units, sides):
        uid, spec = u.unit_id, u.ddu
        variant = spec.discomfort_variant
        lam = 1.0 if variant == "F1" else spec.lam
        pc_ref, pd_ref = rating_refs(u.params.p_c_max, u.params.p_d_max)
        avg, half_db = u.params.soc_baseline_avg, u.params.deadband / 2.0
        dev = {"F1": [], "F3": [("dev", 1.0, avg)],
               "F2": [("dev+", -1.0, -avg - half_db), ("dev-", 1.0, avg - half_db)]}[variant]
        cols = prob.add_columns(uid, {"rd": (0.0, math.inf), **({"d": (0.0, math.inf)} if dev else {})}, horizon)
        rd = cols["rd"]
        pc, pd, soc = (prob.columns(kind, uid) for kind in ("pc", "pd", "soc"))
        block = prob.add_rows(uid, {"rd": ">=", **{f: ">=" for f, _, _ in dev},
                                    "socup": "<=", "soclo": ">="}, horizon)
        block.add("rd", rd, 1.0).set_rhs("rd", 0.0)
        if dev:
            block.add("rd", cols["d"], -(1.0 - lam))
        if pc_ref > 0:
            block.add("rd", pc[taus], -lam / (horizon * pc_ref), at=steps)
        if pd_ref > 0:
            block.add("rd", pd[taus], -lam / (horizon * pd_ref), at=steps)
        for family, soc_coeff, rhs in dev:
            block.add(family, cols["d"], 1.0).add(family, soc, soc_coeff).set_rhs(family, rhs)
        block.add("socup", soc, 1.0).add("socup", rd, -rows[2]).set_rhs("socup", hi)
        block.add("soclo", soc, 1.0).add("soclo", rd, -rows[3]).set_rhs("soclo", lo)
    return prob


def ref_reserve(scn, spec):
    prob = ref_build_cco_ddu(scn, robust_f_inv(scn))
    horizon, dt = scn.horizon, scn.dt
    ramps = {f: (sense, limit) for f, sense, limit in (
        ("rsru", "<=", spec.ramp_up), ("rsrd", ">=", -spec.ramp_dn)) if math.isfinite(limit)}
    for u in scn.units:
        uid = u.unit_id
        w = np.array([_coverage_share(float(p), scn.gamma) for p in u.params.on_prob])
        c_rs = np.array([_unit_reserve_price(float(p), scn, spec) for p in u.params.on_prob])
        cols = prob.add_columns(uid, {"rs": (spec.p_lo, spec.p_hi),
                                      "rs+": (0.0, math.inf), "rs-": (0.0, math.inf)}, horizon)
        rs = cols["rs"]
        link = prob.add_rows(uid, {"rslink": "==", "rssplit": "=="}, horizon)
        link.add("rslink", rs, 1.0).add("rslink", prob.columns("pd", uid), -w)
        link.add("rslink", prob.columns("pc", uid), w)
        link.add("rssplit", rs, 1.0).add("rssplit", cols["rs+"], -1.0).add("rssplit", cols["rs-"], 1.0)
        prob.add_objective([cols["rs+"], cols["rs-"]], c_rs * dt)
        if ramps:
            block = prob.add_rows(uid, {f: sense for f, (sense, _) in ramps.items()}, horizon - 1)
            for family, (_, limit) in ramps.items():
                block.add(family, rs[1:], 1.0).add(family, rs[:-1], -1.0).set_rhs(family, limit)
    return prob


# ---------------------------------------------------------------------------
# Helpers


def assert_no_repeated_entry(prob):
    """No (row, column) pair is added twice, so the row-wise hand-off does
    not depend on the order of the pieces."""
    for matrix, pieces in prob._pieces.items():
        rows, cols = (np.concatenate(part) for part in list(zip(*pieces))[:2])
        pairs = rows.astype(np.int64) * prob._num_cols + cols
        assert np.unique(pairs).size == pairs.size, matrix


def assert_same_arrays(got, want):
    got, want = got.arrays(), want.arrays()
    for name in ("c", "b_ub", "b_eq", "bounds"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("A_ub", "A_eq"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        for part in ("indptr", "indices", "data"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), (name, part)


def mixed(scn, n=12):
    """F1/F3/F2 interleaved, finite SoC ramps on some units, and one unit
    rated 0 for charging (no charging intensity term)."""
    units = []
    for i, u in enumerate(scn.units[:n]):
        p = u.params
        if i % 3 == 1:
            p = replace(p, soc_ramp_up=0.3)
        if i % 4 == 2:
            p = replace(p, soc_ramp_dn=0.25)
        stats = u.stats
        if i == 4:
            p, stats = replace(p, p_c_max=np.zeros_like(p.p_c_max)), None
        units.append(replace(u, params=p, stats=stats,
                             ddu=replace(u.ddu, discomfort_variant=("F1", "F3", "F2", "F2", "F1")[i % 5])))
    return replace(scn, units=units)


@pytest.fixture(params=["smoke3", "tcl100", "mixed"])
def scenario(request):
    if request.param == "mixed":
        return mixed(request.getfixturevalue("tcl100"))
    return request.getfixturevalue(request.param)


# ---------------------------------------------------------------------------
# Tests


def build(scn, mode, diu, ddu):
    if mode == "M3":
        return ddu(scn, robust_f_inv(scn))
    return diu(deterministic_scenario(scn) if mode == "M1" else scn)


@pytest.mark.parametrize("mode", ["M1", "M2", "M3"])
def test_models_equal_the_per_unit_assembly(scenario, mode):
    got = build(scenario, mode, build_cco_diu, build_cco_ddu)
    assert_no_repeated_entry(got)
    assert_same_arrays(got, build(scenario, mode, ref_build_cco_diu, ref_build_cco_ddu))


def test_r2_update_equals_the_per_unit_update(scenario):
    f = robust_f_inv(scenario)
    got, want = build_cco_ddu(scenario, f), ref_build_cco_ddu(scenario, f)
    assert_same_arrays(got, want)
    moved = {side: 0.5 * v + 0.01 * np.arange(v.shape[1]) for side, v in f.items()}
    assert build_cco_ddu(scenario, moved, update=got) is got
    ref_build_cco_ddu(scenario, moved, update=want)
    assert_same_arrays(got, want)


def test_tail_factor_update_equals_the_per_unit_update(scenario):
    # contraction parameters that change from unit to unit split the update into runs
    units = [replace(u, ddu=replace(u.ddu, h_family="beta" if i % 3 == 2 else "lognormal",
                                    sigma_h=0.05 if i % 4 == 1 else 0.1, beta_up=2.0 if i % 5 == 3 else 3.0))
             for i, u in enumerate(scenario.units)]
    scn = replace(scenario, units=units)
    rng = np.random.default_rng(5)
    rd = {u.unit_id: np.where(rng.random(scn.horizon) < 0.2, 0.0, 0.3 * rng.random(scn.horizon)) for u in units}
    got = _update_f_inv(scn, SimpleNamespace(rd=rd))
    for side in ("upper", "lower"):
        want = [[contraction_normalized_quantile(contraction_distribution(r, side, u.ddu), 1.0 - scn.gamma)
                 for r in rd[u.unit_id]]
                for u in units]
        assert got[side].shape == (len(units), scn.horizon)
        assert np.max(np.abs(got[side] - want)) <= 1e-12, side


@pytest.mark.parametrize("spec", [ReserveSpec(mode="S1"), ReserveSpec(mode="S2"),
                                  ReserveSpec(mode="S2", p_lo=-30.0, ramp_up=2.0, ramp_dn=1.5)],
                         ids=["S1", "S2", "S2-ramps"])
def test_reserve_equals_the_per_unit_assembly(scenario, spec):
    got = reserve_problem(scenario, spec)
    assert_no_repeated_entry(got)
    assert_same_arrays(got, ref_reserve(scenario, spec))


def test_extraction_equals_the_per_unit_extraction(scenario):
    prob = build_cco_ddu(scenario, robust_f_inv(scenario))
    x = np.random.default_rng(3).random(prob.arrays().c.size)
    got = extract_strategy(scenario, prob, LpSolution("optimal", 1.0, x, 0, "", 0, 0, 0), SolveMetadata(mode="M3"))
    assert got.grid_import.tobytes() == x[prob.columns("g", GRID)].tobytes()
    for u in scenario.units:
        uid, s = u.unit_id, got.schedules[u.unit_id]
        assert s.p_c.tobytes() == x[prob.columns("pc", uid)].tobytes()
        assert s.p_d.tobytes() == x[prob.columns("pd", uid)].tobytes()
        assert s.soc.tobytes() == np.concatenate(([u.params.soc_init], x[prob.columns("soc", uid)])).tobytes()
        assert got.rd[uid].tobytes() == response_discomfort_series(s, u.params, u.ddu).tobytes(), uid


def test_assembly_work_does_not_grow_with_the_fleet(monkeypatch, tcl100):
    adds = []
    original = lp.RowBlock.add
    monkeypatch.setattr(lp.RowBlock, "add", lambda self, *a, **kw: adds.append(1) or original(self, *a, **kw))
    counts = []
    for n in (10, 100):
        adds.clear()
        scn = replace(tcl100, units=tcl100.units[:n])
        prob = build_cco_ddu(scn, robust_f_inv(scn))
        counts.append((sum(len(blocks) for blocks in prob._row_blocks.values()), len(adds)))
    assert counts[0] == counts[1]
    assert counts[1][0] <= 10 and counts[1][1] <= 40
