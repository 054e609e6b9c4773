"""Day-ahead dispatch builders and solvers.

Three model levels share one LP skeleton:

* M1 — deterministic dispatch with time-averaged parameters and physical
  SoC bounds (no uncertainty margins);
* M2 — chance-constrained dispatch against exogenous uncertainty only:
  every uncertain bound is tightened by its tail quantile times its spread;
* M3 — adds the decision-dependent SoC bounds.  The realized bound's mean is
  affine in the unit's response discomfort, so the rows stay linear; the
  unknown tail factor is either replaced by its worst-case shape-class value
  (one-shot robust solve) or iterated to a fixed point (iterative solve).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cantelli import cantelli_bound
from .ddu import comfort_bounds, expansion_anchor, response_discomfort_series, standardized_h_quantile
from .diu import UnitBoundStats, analytic_series_stats
from .errors import (
    InfeasibleBounds,
    MaxIterationsExceeded,
    NonTighteningCoefficient,
    NumericalFailure,
)
from .ges import UnitSchedule, aggregate_fleet  # noqa: F401  (fleet merge re-exported here)
from .lp import INFEASIBLE, LpProblem, LpSolution, OPTIMAL, solve_lp
from .scenario import ScenarioBundle, UnitSpec


@dataclass
class SolveMetadata:
    mode: str
    reformulation: str | None = None
    iterations: int = 0
    converged: bool = True
    gamma: float = math.nan
    wall_time: float = 0.0
    trace: list[tuple[float, float]] = field(default_factory=list)  # (objective, max |Δf_inv|)


@dataclass
class DispatchStrategy:
    """The decision vector: per-unit schedules, grid import, discomfort."""

    schedules: dict[str, UnitSchedule]
    grid_import: np.ndarray
    rd: dict[str, np.ndarray]
    objective_value: float
    metadata: SolveMetadata
    reserve_schedule: dict[str, np.ndarray] | None = None
    reserve_diag: dict[str, float] | None = None


# ---------------------------------------------------------------------------
# Variable naming


def _pc(uid, t):
    return f"pc:{uid}:{t}"


def _pd(uid, t):
    return f"pd:{uid}:{t}"


def _soc(uid, t):
    return f"soc:{uid}:{t}"


def _rd(uid, t):
    return f"rd:{uid}:{t}"


def _dv(uid, t):
    return f"d:{uid}:{t}"


def _g(t):
    return f"g:{t}"


def _unit_stats(u: UnitSpec) -> UnitBoundStats:
    return u.stats if u.stats is not None else UnitBoundStats.deterministic(u.params)


# ---------------------------------------------------------------------------
# Objective


def build_objective(scn: ScenarioBundle, prob: LpProblem) -> None:
    """Incentive payments to units plus grid energy purchase."""
    dt = scn.dt
    for t in range(scn.horizon):
        prob.set_objective_coeff(_g(t), scn.tou_price[t] * dt)
        for u in scn.units:
            prob.set_objective_coeff(_pc(u.unit_id, t), float(u.price_c[t]) * dt)
            prob.set_objective_coeff(_pd(u.unit_id, t), float(u.price_d[t]) * dt)


def evaluate_objective(scn: ScenarioBundle, strategy: DispatchStrategy) -> float:
    """Recompute the day-ahead cost of a strategy directly from its schedule."""
    dt = scn.dt
    total = float(np.dot(scn.tou_price, strategy.grid_import)) * dt
    for u in scn.units:
        s = strategy.schedules[u.unit_id]
        total += float(np.dot(u.price_c, s.p_c) + np.dot(u.price_d, s.p_d)) * dt
    return total


# ---------------------------------------------------------------------------
# Shared LP skeleton


def _build_skeleton(scn: ScenarioBundle) -> LpProblem:
    """Variables, dynamics, ramps, sustainability, balance, grid cap, window."""
    prob = LpProblem()
    horizon = scn.horizon
    window = scn.window_mask()
    for t in range(horizon):
        prob.add_var(_g(t), 0.0, scn.grid_cap)
    for u in scn.units:
        uid = u.unit_id
        p = u.params
        stats = _unit_stats(u)
        level = 1.0 - scn.gamma
        f_pc = stats.p_c_max.inv_cdf(level)
        f_pd = stats.p_d_max.inv_cdf(level)
        for t in range(horizon):
            pc_ub = max(0.0, stats.p_c_max.mu[t] - f_pc[t] * stats.p_c_max.sigma[t])
            pd_ub = max(0.0, stats.p_d_max.mu[t] - f_pd[t] * stats.p_d_max.sigma[t])
            prob.add_var(_pc(uid, t), 0.0, pc_ub)
            prob.add_var(_pd(uid, t), 0.0, pd_ub)
            prob.add_var(_soc(uid, t + 1), p.soc_phys_lo, p.soc_phys_hi)
            if not window[t]:
                prob.fix_var(_pc(uid, t), 0.0)
                prob.fix_var(_pd(uid, t), 0.0)
        a_c = p.eta_c * p.dt / p.S
        a_d = p.dt / (p.eta_d * p.S)
        keep = 1.0 - p.eps
        alpha_mu = stats.alpha.mu
        for t in range(horizon):
            row = {_soc(uid, t + 1): 1.0, _pc(uid, t): -a_c, _pd(uid, t): a_d}
            rhs = float(alpha_mu[t])
            if t == 0:
                rhs += keep * p.soc_init
            else:
                row[_soc(uid, t)] = -keep
            prob.add_eq(row, rhs, f"dyn:{uid}:{t}")
            if math.isfinite(p.soc_ramp_up) or math.isfinite(p.soc_ramp_dn):
                diff = {_soc(uid, t + 1): 1.0}
                base = 0.0
                if t == 0:
                    base = p.soc_init
                else:
                    diff[_soc(uid, t)] = -1.0
                if math.isfinite(p.soc_ramp_up):
                    prob.add_leq(dict(diff), p.soc_ramp_up + base, f"rampup:{uid}:{t}")
                if math.isfinite(p.soc_ramp_dn):
                    prob.add_geq(dict(diff), -p.soc_ramp_dn + base, f"rampdn:{uid}:{t}")
        prob.add_eq({_soc(uid, horizon): 1.0}, p.soc_init, f"sustain:{uid}")

    load_q, res_q = balance_requirements(scn)
    for t in range(horizon):
        row = {_g(t): 1.0}
        for u in scn.units:
            row[_pd(u.unit_id, t)] = 1.0
            row[_pc(u.unit_id, t)] = -1.0
        prob.add_geq(row, float(load_q[t] - res_q[t]), f"balance:{t}")
    build_objective(scn, prob)
    return prob


def balance_requirements(scn: ScenarioBundle) -> tuple[np.ndarray, np.ndarray]:
    """Tail-adjusted load requirement and renewable credit per step."""
    level = 1.0 - scn.gamma_balance
    load = analytic_series_stats(scn.load_dist, level)
    res = analytic_series_stats(scn.res_dist, level)
    load_q = load.mu + load.f_inv * load.sigma
    res_q = res.mu - res.f_inv * res.sigma
    return load_q, res_q


# ---------------------------------------------------------------------------
# M2: exogenous-uncertainty chance constraints


def build_cco_diu(scn: ScenarioBundle) -> LpProblem:
    """Chance-constrained LP with tail-tightened exogenous bounds."""
    prob = _build_skeleton(scn)
    level = 1.0 - scn.gamma
    bad: list[tuple[str, int, float, float]] = []
    for u in scn.units:
        uid = u.unit_id
        p = u.params
        stats = _unit_stats(u)
        f_lo = stats.soc_lo.inv_cdf(level)
        f_hi = stats.soc_hi.inv_cdf(level)
        for t in range(scn.horizon):
            lo = max(p.soc_phys_lo, stats.soc_lo.mu[t] + f_lo[t] * stats.soc_lo.sigma[t])
            hi = min(p.soc_phys_hi, stats.soc_hi.mu[t] - f_hi[t] * stats.soc_hi.sigma[t])
            if lo > hi + 1e-12:
                bad.append((uid, t, lo, hi))
                continue
            prob.set_bounds(_soc(uid, t + 1), lo, hi)
    if bad:
        raise InfeasibleBounds(bad)
    return prob


# ---------------------------------------------------------------------------
# M3: decision-dependent SoC bounds


@dataclass
class DduRowData:
    """Per-step affine pieces of one unit's decision-dependent SoC rows."""

    q_up: np.ndarray  # price-expanded upper anchor
    q_lo: np.ndarray
    slope_up: np.ndarray  # d(mean bound)/d(rd); <= 0 for upper, >= 0 for lower
    slope_lo: np.ndarray
    sigma_up: np.ndarray  # fixed spread of the realized bound
    sigma_lo: np.ndarray


def ddu_row_data(u: UnitSpec, horizon: int) -> DduRowData:
    p = u.params
    stats = _unit_stats(u)
    c_lo, c_hi = comfort_bounds(p)
    q_up = np.empty(horizon)
    q_lo = np.empty(horizon)
    slope_up = np.empty(horizon)
    slope_lo = np.empty(horizon)
    sig_up = np.empty(horizon)
    sig_lo = np.empty(horizon)
    for t in range(horizon):
        diu_hi = min(float(stats.soc_hi.mu[t]), p.soc_phys_hi)
        diu_lo = max(float(stats.soc_lo.mu[t]), p.soc_phys_lo)
        cu = min(float(c_hi[t]), diu_hi)
        cl = max(float(c_lo[t]), diu_lo)
        q_up[t] = expansion_anchor(diu_hi, p.soc_phys_hi, float(u.price_c[t]), u.ddu)
        q_lo[t] = expansion_anchor(diu_lo, p.soc_phys_lo, float(u.price_d[t]), u.ddu)
        gap_up = cu - q_up[t]
        gap_lo = cl - q_lo[t]
        slope_up[t] = gap_up * u.ddu.beta_up
        slope_lo[t] = gap_lo * u.ddu.beta_lo
        sig_up[t] = abs(gap_up) * u.ddu.sigma_h
        sig_lo[t] = abs(gap_lo) * u.ddu.sigma_h
        if slope_up[t] > 1e-12 or slope_lo[t] < -1e-12:
            raise NonTighteningCoefficient(
                f"unit {u.unit_id} t={t}: discomfort would widen a SoC bound "
                f"(upper slope {slope_up[t]}, lower slope {slope_lo[t]})"
            )
    return DduRowData(q_up, q_lo, slope_up, slope_lo, sig_up, sig_lo)


def build_cco_ddu(scn: ScenarioBundle, f_inv: dict[str, dict[str, np.ndarray]]) -> LpProblem:
    """Extend the exogenous program with discomfort-coupled SoC bound rows.

    `f_inv[uid][side]` holds the per-step tail factor of the contraction
    distribution for that unit and bound side.
    """
    prob = _build_skeleton(scn)
    horizon = scn.horizon
    bad: list[tuple[str, int, float, float]] = []
    for u in scn.units:
        uid = u.unit_id
        spec = u.ddu
        rows = ddu_row_data(u, horizon)
        f_up = np.asarray(f_inv[uid]["upper"], dtype=float)
        f_lo = np.asarray(f_inv[uid]["lower"], dtype=float)
        lam = 1.0 if spec.discomfort_variant == "F1" else spec.lam
        pc_ref = float(np.mean(u.params.p_c_max))
        pd_ref = float(np.mean(u.params.p_d_max))
        for t in range(horizon):
            prob.add_var(_rd(uid, t), 0.0, math.inf)
            if spec.discomfort_variant != "F1":
                prob.add_var(_dv(uid, t), 0.0, math.inf)
        avg = u.params.soc_baseline_avg
        half_db = u.params.deadband / 2.0
        for t in range(horizon):
            # discomfort epigraph: rd >= lam * cumulative intensity + (1-lam) * d
            row = {_rd(uid, t): 1.0}
            if spec.discomfort_variant != "F1":
                row[_dv(uid, t)] = -(1.0 - lam)
            for tau in range(t + 1):
                if pc_ref > 0:
                    row[_pc(uid, tau)] = row.get(_pc(uid, tau), 0.0) - lam / (horizon * pc_ref)
                if pd_ref > 0:
                    row[_pd(uid, tau)] = row.get(_pd(uid, tau), 0.0) - lam / (horizon * pd_ref)
            prob.add_geq(row, 0.0, f"rd:{uid}:{t}")
            if spec.discomfort_variant == "F2":
                prob.add_geq({_dv(uid, t): 1.0, _soc(uid, t + 1): -1.0},
                             -float(avg[t]) - float(half_db[t]), f"dev+:{uid}:{t}")
                prob.add_geq({_dv(uid, t): 1.0, _soc(uid, t + 1): 1.0},
                             float(avg[t]) - float(half_db[t]), f"dev-:{uid}:{t}")
            elif spec.discomfort_variant == "F3":
                prob.add_geq({_dv(uid, t): 1.0, _soc(uid, t + 1): 1.0},
                             float(avg[t]), f"dev:{uid}:{t}")
            hi = rows.q_up[t] - f_up[t] * rows.sigma_up[t]
            lo = rows.q_lo[t] + f_lo[t] * rows.sigma_lo[t]
            if lo > hi + 1e-12:
                bad.append((uid, t, lo, hi))
                continue
            prob.add_leq({_soc(uid, t + 1): 1.0, _rd(uid, t): -rows.slope_up[t]},
                         hi, f"socup:{uid}:{t}")
            prob.add_geq({_soc(uid, t + 1): 1.0, _rd(uid, t): -rows.slope_lo[t]},
                         lo, f"soclo:{uid}:{t}")
    if bad:
        raise InfeasibleBounds(bad)
    return prob


# ---------------------------------------------------------------------------
# Solution extraction


def _extract(scn: ScenarioBundle, sol: LpSolution, meta: SolveMetadata) -> DispatchStrategy:
    horizon = scn.horizon
    schedules = {}
    rd = {}
    for u in scn.units:
        uid = u.unit_id
        p_c = np.array([sol[_pc(uid, t)] for t in range(horizon)])
        p_d = np.array([sol[_pd(uid, t)] for t in range(horizon)])
        soc = np.empty(horizon + 1)
        soc[0] = u.params.soc_init
        soc[1:] = [sol[_soc(uid, t + 1)] for t in range(horizon)]
        sched = UnitSchedule(p_c=p_c, p_d=p_d, soc=soc)
        schedules[uid] = sched
        rd[uid] = response_discomfort_series(sched, u.params, u.ddu)
    grid = np.array([sol[_g(t)] for t in range(horizon)])
    return DispatchStrategy(
        schedules=schedules,
        grid_import=grid,
        rd=rd,
        objective_value=sol.objective,
        metadata=meta,
    )


def _solve_or_raise(prob: LpProblem, context: str) -> LpSolution:
    sol = solve_lp(prob)
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"{context}: LP returned {sol.status}")
    return sol


# ---------------------------------------------------------------------------
# Model-level drivers


def solve_cco_diu(scn: ScenarioBundle) -> DispatchStrategy:
    """M2 solve: chance constraints on exogenous uncertainty only."""
    start = time.perf_counter()
    sol = _solve_or_raise(build_cco_diu(scn), "M2")
    meta = SolveMetadata(mode="M2", gamma=scn.gamma, wall_time=time.perf_counter() - start)
    return _extract(scn, sol, meta)


def robust_f_inv(scn: ScenarioBundle) -> dict[str, dict[str, np.ndarray]]:
    bound = cantelli_bound(scn.shape_class, scn.gamma)
    full = np.full(scn.horizon, bound)
    return {u.unit_id: {"upper": full.copy(), "lower": full.copy()} for u in scn.units}


def robust_solve_r1(scn: ScenarioBundle) -> DispatchStrategy:
    """M3 one-shot solve with worst-case shape-class tail factors."""
    start = time.perf_counter()
    sol = _solve_or_raise(build_cco_ddu(scn, robust_f_inv(scn)), "M3-R1")
    meta = SolveMetadata(
        mode="M3", reformulation="R1", iterations=0, gamma=scn.gamma,
        wall_time=time.perf_counter() - start,
    )
    return _extract(scn, sol, meta)


def _update_f_inv(scn: ScenarioBundle, strategy: DispatchStrategy) -> dict[str, dict[str, np.ndarray]]:
    level = 1.0 - scn.gamma
    out = {}
    for u in scn.units:
        rd = strategy.rd[u.unit_id]
        out[u.unit_id] = {
            side: np.array([standardized_h_quantile(float(r), side, u.ddu, level) for r in rd])
            for side in ("upper", "lower")
        }
    return out


def _f_inv_delta(a, b) -> float:
    return max(
        float(np.max(np.abs(a[uid][side] - b[uid][side])))
        for uid in a
        for side in ("upper", "lower")
    )


def iterative_solve_r2(
    scn: ScenarioBundle,
    delta: float = 1e-3,
    max_iter: int = 25,
    on_max_iter: str = "raise",
) -> DispatchStrategy:
    """M3 fixed-point solve: alternate LP solves with tail-factor re-estimation.

    Starts from the worst-case factors, then replaces them with the exact
    standardized quantile of the contraction distribution evaluated at the
    last solution's discomfort trajectory, until the factors stop moving.
    """
    if not delta > 0:
        raise NumericalFailure(f"delta must be > 0, got {delta}")
    if max_iter < 1:
        raise NumericalFailure(f"max_iter must be >= 1, got {max_iter}")
    start = time.perf_counter()
    f = robust_f_inv(scn)
    sol = _solve_or_raise(build_cco_ddu(scn, f), "M3-R2 init")
    meta = SolveMetadata(mode="M3", reformulation="R2", gamma=scn.gamma)
    strategy = _extract(scn, sol, meta)
    meta.trace.append((strategy.objective_value, math.nan))
    converged = False
    while True:
        f_new = _update_f_inv(scn, strategy)
        step = _f_inv_delta(f_new, f)
        f = f_new
        if step <= delta:
            converged = True
            break
        if meta.iterations >= max_iter:
            break
        sol = _solve_or_raise(build_cco_ddu(scn, f), "M3-R2")
        strategy = _extract(scn, sol, meta)
        meta.iterations += 1
        meta.trace.append((strategy.objective_value, step))
    meta.converged = converged
    meta.wall_time = time.perf_counter() - start
    if not converged and on_max_iter == "raise":
        raise MaxIterationsExceeded(
            f"no fixed point within {max_iter} iterations (last step {meta.trace[-1][1]:.3g})",
            strategy,
            meta.trace,
        )
    return strategy


def deterministic_scenario(scn: ScenarioBundle) -> ScenarioBundle:
    """Margin-free mean-value variant of a scenario (the naive baseline view).

    Unit parameters are flattened to their time averages, SoC bounds relaxed
    to the physical interval, and the exogenous series replaced by their
    per-step means; no uncertainty margin of any kind remains.
    """
    from dataclasses import replace
    from .distributions import DistributionSpec
    from . import distributions as dist

    units = []
    for u in scn.units:
        p = u.params
        horizon = p.horizon
        flat = lambda v: np.full(horizon, float(np.mean(v)))  # noqa: E731
        params = replace(
            p,
            p_c_max=flat(p.p_c_max),
            p_d_max=flat(p.p_d_max),
            soc_lo=np.full(horizon, p.soc_phys_lo),
            soc_hi=np.full(horizon, p.soc_phys_hi),
            alpha=flat(p.alpha),
        )
        units.append(replace(u, params=params, stats=None))
    load_pt = [DistributionSpec.point(dist.mean(d)) for d in scn.load_dist]
    res_pt = [DistributionSpec.point(dist.mean(d)) for d in scn.res_dist]
    return replace(scn, units=units, load_dist=load_pt, res_dist=res_pt, model_mode="M1")


def solve_deterministic_m1(scn: ScenarioBundle) -> DispatchStrategy:
    """M1 solve: no margins, constant parameters, physical SoC bounds."""
    start = time.perf_counter()
    det = deterministic_scenario(scn)
    sol = _solve_or_raise(build_cco_diu(det), "M1")
    meta = SolveMetadata(mode="M1", gamma=scn.gamma, wall_time=time.perf_counter() - start)
    return _extract(det, sol, meta)


def aggregate_scenario(scn: ScenarioBundle) -> ScenarioBundle:
    """Collapse the fleet into one virtual unit (fleet-level acceleration).

    Intensive parameters are capacity-weighted; bound statistics are dropped
    (the virtual unit is treated as identified exactly).
    """
    from dataclasses import replace as _replace

    merged = aggregate_fleet([u.params for u in scn.units])
    caps = np.array([u.params.S for u in scn.units])
    w = caps / caps.sum()
    price_c = np.tensordot(w, np.stack([u.price_c for u in scn.units]), axes=1)
    price_d = np.tensordot(w, np.stack([u.price_d for u in scn.units]), axes=1)
    unit = _replace(
        scn.units[0], params=merged, price_c=price_c, price_d=price_d,
        unit_dists={}, baseline_dist=None, stats=None,
    )
    return _replace(scn, units=[unit])
