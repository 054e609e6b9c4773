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
from collections import namedtuple
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import distributions as dist
from .cantelli import cantelli_bound
from .ddu import bound_ends, discomfort, expansion_anchor, rating_refs, standardized_h_quantile
from .distributions import DistributionSpec
from .diu import UnitBoundStats, analytic_series_stats
from .errors import InfeasibleBounds, MaxIterationsExceeded, NumericalFailure
from .ges import UnitSchedule, aggregate_fleet
from .lp import FEASIBILITY_TOL, LpProblem, LpSolution, OPTIMAL, solve_lp
from .scenario import ScenarioBundle, UnitSpec, runs


@dataclass
class SolveMetadata:
    mode: str
    reformulation: str | None = None
    iterations: int = 0
    converged: bool = True
    gamma: float = math.nan
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
# LP layout
#
# Columns: the grid block ("g", GRID), then per unit ("pc", "pd", "soc") with
# "soc" at step t the state of charge at the end of step t; M3 adds per unit
# ("rd"[, "d"]).  Rows carry the family names of the constraints below.  Each
# family is added once per run of consecutive units sharing its row template.

#: unit label of the fleet-level columns and rows (grid import, balance)
GRID = ""


def _unit_stats(u: UnitSpec) -> UnitBoundStats:
    return u.stats if u.stats is not None else UnitBoundStats.deterministic(u.params)


def _stack(values) -> np.ndarray:
    """Per-unit values on a leading unit axis: (units, 1) scalars, (units, T) series."""
    a = np.array(values, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def _fields(objs, names, **fixed) -> SimpleNamespace:
    """The named fields of `objs`, stacked, for the elementwise functions of `ddu`."""
    return SimpleNamespace(**{n: _stack([getattr(o, n) for o in objs]) for n in names}, **fixed)


# ---------------------------------------------------------------------------
# Objective


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


def _build_skeleton(scn: ScenarioBundle, soc_bounds: tuple | None = None) -> LpProblem:
    """Variables, dynamics, ramps, sustainability, balance, grid cap, window.

    The objective is incentive payments to units plus grid energy purchase.
    SoC columns take `soc_bounds` = (lo, hi), (units, T), else the physical range.
    """
    prob = LpProblem()
    horizon = scn.horizon
    dt = scn.dt
    window = scn.window_mask()
    grid = prob.add_columns(GRID, {"g": (0.0, scn.grid_cap)}, horizon)["g"]
    prob.add_objective(grid, scn.tou_price * dt)
    uids = [u.unit_id for u in scn.units]
    p = _fields([u.params for u in scn.units], ("S", "eta_c", "eta_d", "eps", "dt", "soc_init", "soc_phys_lo",
                                                "soc_phys_hi", "soc_ramp_up", "soc_ramp_dn"))
    stats = [_unit_stats(u) for u in scn.units]
    # each bound holds with probability 1 - gamma: an upper limit at its gamma-quantile
    pc_ub = np.maximum(0.0, _stack([s.p_c_max.quantile(scn.gamma) for s in stats]))
    pd_ub = np.maximum(0.0, _stack([s.p_d_max.quantile(scn.gamma) for s in stats]))
    cols = prob.add_columns(uids, {
        "pc": (0.0, np.where(window, pc_ub, 0.0)),
        "pd": (0.0, np.where(window, pd_ub, 0.0)),
        "soc": soc_bounds or (p.soc_phys_lo, p.soc_phys_hi),
    }, horizon)
    pc, pd, soc = cols["pc"], cols["pd"], cols["soc"]
    prob.add_objective([pc, pd], [_stack([u.price_c for u in scn.units]) * dt,
                                  _stack([u.price_d for u in scn.units]) * dt])

    # soc[t] = keep * soc[t-1] + a_c * pc[t] - a_d * pd[t] + alpha[t]; soc[T-1] = soc_init
    keep = 1.0 - p.eps
    initial = np.zeros((len(uids), horizon))
    initial[:, :1] = p.soc_init
    eq = prob.add_rows(uids, {"dyn": "==", "sustain": ("==", 1)}, horizon)
    eq.add("dyn", soc, 1.0).add("dyn", pc, -(p.eta_c * p.dt / p.S))
    eq.add("dyn", pd, p.dt / (p.eta_d * p.S)).add("dyn", soc[:, :-1], -keep, at=slice(1, None))
    eq.set_rhs("dyn", _stack([s.alpha.mu for s in stats]) + keep * initial)
    eq.add("sustain", soc[:, -1:], 1.0).set_rhs("sustain", p.soc_init)
    ramps = {"rampup": ("<=", p.soc_ramp_up), "rampdn": (">=", -p.soc_ramp_dn)}
    for finite, run in runs(zip(*(np.isfinite(limit[:, 0]) for _, limit in ramps.values()))):
        families = {f: sense for (f, (sense, _)), on in zip(ramps.items(), finite) if on}
        if families:
            block = prob.add_rows(uids[run], families, horizon)
            for family in families:
                block.add(family, soc[run], 1.0).add(family, soc[run, :-1], -1.0, at=slice(1, None))
                block.set_rhs(family, ramps[family][1][run] + initial[run])

    load_q, res_q = balance_requirements(scn)
    balance = prob.add_rows(GRID, {"balance": ">="}, horizon)
    balance.add("balance", grid, 1.0).add("balance", pd, 1.0).add("balance", pc, -1.0)
    balance.set_rhs("balance", load_q - res_q)
    return prob


def balance_requirements(scn: ScenarioBundle) -> tuple[np.ndarray, np.ndarray]:
    """Tail-adjusted load requirement and renewable credit per step: the
    (1 - gamma_balance)-quantile of load and the gamma_balance-quantile of
    renewables."""
    load = analytic_series_stats(scn.load_dist, 1.0 - scn.gamma_balance)
    res = analytic_series_stats(scn.res_dist, scn.gamma_balance)
    return load.mu + load.f_inv * load.sigma, res.mu + res.f_inv * res.sigma


def _raise_crossed(units: list[UnitSpec], lo: np.ndarray, hi: np.ndarray) -> None:
    """InfeasibleBounds with the (uid, t, lo, hi) entries of empty SoC intervals, if any.

    `lo` and `hi` are the units' loosest SoC bounds, (units, T).  An interval
    is empty where lo exceeds hi by more than 1e-12.  At the last step the
    `sustain` row also pins the SoC to `soc_init`, so the interval there is
    ``[max(lo, soc_init), min(hi, soc_init)]``, empty when it crosses by more
    than HiGHS's primal feasibility tolerance; its entry carries those ends.
    """
    final = lo.shape[1] - 1
    soc_init = np.array([u.params.soc_init for u in units])
    end_lo, end_hi = np.maximum(lo[:, final], soc_init), np.minimum(hi[:, final], soc_init)
    crossed = lo > hi + 1e-12
    pinned = ~crossed[:, final] & (end_lo > end_hi + FEASIBILITY_TOL)
    entries = [(i, t, lo[i, t], hi[i, t]) for i, t in np.argwhere(crossed).tolist()]
    entries += [(i, final, end_lo[i], end_hi[i]) for i in np.flatnonzero(pinned).tolist()]
    if entries:
        raise InfeasibleBounds([(units[i].unit_id, t, float(a), float(b)) for i, t, a, b in sorted(entries)])


# ---------------------------------------------------------------------------
# M2: exogenous-uncertainty chance constraints


def build_cco_diu(scn: ScenarioBundle) -> LpProblem:
    """Chance-constrained LP with tail-tightened exogenous bounds."""
    p = _fields([u.params for u in scn.units], ("soc_phys_lo", "soc_phys_hi"))
    stats = [_unit_stats(u) for u in scn.units]
    lo = np.maximum(p.soc_phys_lo, _stack([s.soc_lo.quantile(1.0 - scn.gamma) for s in stats]))
    hi = np.minimum(p.soc_phys_hi, _stack([s.soc_hi.quantile(scn.gamma) for s in stats]))
    _raise_crossed(scn.units, lo, hi)
    return _build_skeleton(scn, (lo, hi))


# ---------------------------------------------------------------------------
# M3: decision-dependent SoC bounds


#: per-step affine pieces of the units' decision-dependent SoC rows, each (units, horizon): the
#: price-expanded anchors, d(mean bound)/d(rd) (<= 0 upper, >= 0 lower), the fixed spreads of the bounds
DduRowData = namedtuple("DduRowData", "q_up q_lo slope_up slope_lo sigma_up sigma_lo")


def ddu_row_data(units: list[UnitSpec]) -> DduRowData:
    p = _fields([u.params for u in units], ("soc_phys_lo", "soc_phys_hi", "soc_baseline_avg", "deadband"))
    spec = _fields([u.ddu for u in units], ("sigma_g", "sigma_h", "beta_up", "beta_lo", "c_bar", "q_g_level"))
    stats = [_unit_stats(u) for u in units]
    diu_hi, c_hi = bound_ends("upper", _stack([s.soc_hi.mu for s in stats]), p.soc_phys_hi,
                              p.soc_baseline_avg, p.deadband)
    diu_lo, c_lo = bound_ends("lower", _stack([s.soc_lo.mu for s in stats]), p.soc_phys_lo,
                              p.soc_baseline_avg, p.deadband)
    q_up = expansion_anchor(diu_hi, p.soc_phys_hi, _stack([u.price_c for u in units]), spec)
    q_lo = expansion_anchor(diu_lo, p.soc_phys_lo, _stack([u.price_d for u in units]), spec)
    # comfort <= identified <= anchor on the upper side (mirrored on the lower)
    # and beta >= 0, so discomfort never widens a bound: slope_up <= 0 <= slope_lo
    gap_up, gap_lo = c_hi - q_up, c_lo - q_lo
    return DduRowData(q_up, q_lo, gap_up * spec.beta_up, gap_lo * spec.beta_lo,
                      np.abs(gap_up) * spec.sigma_h, np.abs(gap_lo) * spec.sigma_h)


def build_cco_ddu(
    scn: ScenarioBundle,
    f_inv: dict[str, np.ndarray],
    update: LpProblem | None = None,
) -> LpProblem:
    """Extend the exogenous program with discomfort-coupled SoC bound rows.

    `f_inv[side]` holds the tail factors of the contraction distribution for
    that bound side, (units, T) in `scn.units` order.  It enters only the
    right-hand sides ``q_up - f_inv*sigma_up`` of the `socup` rows and
    ``q_lo + f_inv*sigma_lo`` of the `soclo` rows.  So with `update`, an LP
    this function built for the same scenario, only those right-hand sides
    are rewritten, in place, and `update` is returned.  A crossed pair raises
    `InfeasibleBounds` either way, and leaves `update` untouched.
    """
    horizon = scn.horizon
    prob = _build_skeleton(scn) if update is None else update
    uids = [u.unit_id for u in scn.units]
    rows = ddu_row_data(scn.units)
    hi = rows.q_up - f_inv["upper"] * rows.sigma_up
    lo = rows.q_lo + f_inv["lower"] * rows.sigma_lo
    _raise_crossed(scn.units, lo, hi)
    p = _fields([u.params for u in scn.units], ("p_c_max", "p_d_max", "soc_baseline_avg", "deadband"))
    pc_ref, pd_ref = (ref[:, None] for ref in rating_refs(p.p_c_max, p.p_d_max))
    # a run's template: the discomfort variant, and which rating references (intensity terms) are > 0
    templates = list(runs(zip((u.ddu.discomfort_variant for u in scn.units), pc_ref[:, 0] > 0, pd_ref[:, 0] > 0)))
    if update is not None:
        for _, run in templates:
            update.set_rhs("socup", uids[run], hi[run])
            update.set_rhs("soclo", uids[run], lo[run])
        return update

    lam = _stack([u.ddu.lam for u in scn.units])
    pc, pd, soc = (prob.columns(kind, uids) for kind in ("pc", "pd", "soc"))
    steps, taus = np.tril_indices(horizon)
    for (variant, has_pc, has_pd), run in templates:
        w = 1.0 if variant == "F1" else lam[run]
        # SoC deviation rows d + soc_coeff * soc >= rhs (F2 outside the deadband, F3 below avg)
        avg, half_db = p.soc_baseline_avg[run], p.deadband[run] / 2.0
        dev = {"F1": [], "F3": [("dev", 1.0, avg)],
               "F2": [("dev+", -1.0, -avg - half_db), ("dev-", 1.0, avg - half_db)]}[variant]
        cols = prob.add_columns(uids[run], {"rd": (0.0, math.inf), **({"d": (0.0, math.inf)} if dev else {})},
                                horizon)
        rd = cols["rd"]
        block = prob.add_rows(uids[run], {"rd": ">=", **{f: ">=" for f, _, _ in dev},
                                          "socup": "<=", "soclo": ">="}, horizon)
        # discomfort epigraph: rd >= lam * cumulative intensity + (1-lam) * d
        block.add("rd", rd, 1.0).set_rhs("rd", 0.0)
        if dev:
            block.add("rd", cols["d"], -(1.0 - w))
        if has_pc:
            block.add("rd", pc[run][:, taus], -w / (horizon * pc_ref[run]), at=steps)
        if has_pd:
            block.add("rd", pd[run][:, taus], -w / (horizon * pd_ref[run]), at=steps)
        for family, soc_coeff, rhs in dev:
            block.add(family, cols["d"], 1.0).add(family, soc[run], soc_coeff).set_rhs(family, rhs)
        block.add("socup", soc[run], 1.0).add("socup", rd, -rows.slope_up[run]).set_rhs("socup", hi[run])
        block.add("soclo", soc[run], 1.0).add("soclo", rd, -rows.slope_lo[run]).set_rhs("soclo", lo[run])
    return prob


# ---------------------------------------------------------------------------
# Solution extraction


def extract_strategy(scn: ScenarioBundle, prob: LpProblem, sol: LpSolution,
                     meta: SolveMetadata) -> DispatchStrategy:
    """Per-unit schedules and grid import of a solved `prob` built for `scn`."""
    x = sol.x
    uids = [u.unit_id for u in scn.units]
    p = _fields([u.params for u in scn.units], ("soc_init", "p_c_max", "p_d_max", "soc_baseline_avg", "deadband"))
    p_c, p_d, soc = (x[prob.columns(kind, uids)] for kind in ("pc", "pd", "soc"))
    soc = np.hstack((p.soc_init, soc))
    pc_ref, pd_ref = (ref[:, None] for ref in rating_refs(p.p_c_max, p.p_d_max))
    rd = np.empty_like(p_c)
    for variant, run in runs(u.ddu.discomfort_variant for u in scn.units):
        spec = _fields([u.ddu for u in scn.units[run]], ("lam",), discomfort_variant=variant)
        rd[run] = discomfort(UnitSchedule(p_c[run], p_d[run], soc[run]), pc_ref[run], pd_ref[run],
                             p.soc_baseline_avg[run], p.deadband[run], spec)
    schedules = {uid: UnitSchedule(p_c=p_c[i], p_d=p_d[i], soc=soc[i]) for i, uid in enumerate(uids)}
    return DispatchStrategy(schedules=schedules, grid_import=x[prob.columns("g", GRID)], rd=dict(zip(uids, rd)),
                            objective_value=sol.objective, metadata=meta)


def solve_or_raise(prob: LpProblem, context: str) -> LpSolution:
    """Solve `prob`; anything but an optimal verdict is a NumericalFailure."""
    sol = solve_lp(prob)
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"{context}: LP returned {sol.status}")
    return sol


# ---------------------------------------------------------------------------
# Model-level drivers


def solve_cco_diu(scn: ScenarioBundle) -> DispatchStrategy:
    """M2 solve: chance constraints on exogenous uncertainty only."""
    prob = build_cco_diu(scn)
    sol = solve_or_raise(prob, "M2")
    meta = SolveMetadata(mode="M2", gamma=scn.gamma)
    return extract_strategy(scn, prob, sol, meta)


def robust_f_inv(scn: ScenarioBundle) -> dict[str, np.ndarray]:
    """The worst-case shape-class tail factor on every (unit, step) of both sides."""
    bound = cantelli_bound(scn.shape_class, scn.gamma)
    return {side: np.full((len(scn.units), scn.horizon), bound) for side in ("upper", "lower")}


def robust_solve_r1(scn: ScenarioBundle) -> DispatchStrategy:
    """M3 one-shot solve with worst-case shape-class tail factors."""
    prob = build_cco_ddu(scn, robust_f_inv(scn))
    sol = solve_or_raise(prob, "M3-R1")
    meta = SolveMetadata(mode="M3", reformulation="R1", iterations=0, gamma=scn.gamma)
    return extract_strategy(scn, prob, sol, meta)


def _update_f_inv(scn: ScenarioBundle, strategy: DispatchStrategy) -> dict[str, np.ndarray]:
    """Tail factors at the strategy's discomfort: one quantile call per side
    for each run of units whose contraction distributions share parameters."""
    rd = np.stack([strategy.rd[u.unit_id] for u in scn.units])
    out = {side: np.empty_like(rd) for side in ("upper", "lower")}
    for _, run in runs((u.ddu.h_family, u.ddu.sigma_h, u.ddu.beta_up, u.ddu.beta_lo) for u in scn.units):
        for side, f in out.items():
            f[run] = standardized_h_quantile(rd[run], side, scn.units[run.start].ddu, 1.0 - scn.gamma)
    return out


def iterative_solve_r2(scn: ScenarioBundle, delta: float = 1e-3, max_iter: int = 25) -> DispatchStrategy:
    """M3 fixed-point solve: alternate LP solves with tail-factor re-estimation.

    Starts from the worst-case factors, then replaces them with the exact
    standardized quantile of the contraction distribution evaluated at the
    last solution's discomfort trajectory, until the factors stop moving.
    The LP is assembled once; each iteration rewrites only the SoC-row
    right-hand sides that the factors enter.  A loop that reaches `max_iter`
    without a fixed point raises `MaxIterationsExceeded`, whose `strategy`
    is the last iterate, marked unconverged; the CLI's `--a2` keeps it.
    """
    if not delta > 0:
        raise NumericalFailure(f"delta must be > 0, got {delta}")
    if max_iter < 1:
        raise NumericalFailure(f"max_iter must be >= 1, got {max_iter}")
    f = robust_f_inv(scn)
    prob = build_cco_ddu(scn, f)
    sol = solve_or_raise(prob, "M3-R2 init")
    meta = SolveMetadata(mode="M3", reformulation="R2", gamma=scn.gamma)
    strategy = extract_strategy(scn, prob, sol, meta)
    meta.trace.append((strategy.objective_value, math.nan))
    while True:
        f_new = _update_f_inv(scn, strategy)
        step = max(float(np.max(np.abs(f_new[side] - f[side]))) for side in f)
        f = f_new
        if step <= delta:
            return strategy
        if meta.iterations >= max_iter:
            meta.converged = False
            raise MaxIterationsExceeded(
                f"no fixed point within {max_iter} iterations (last step {meta.trace[-1][1]:.3g})", strategy)
        sol = solve_or_raise(build_cco_ddu(scn, f, update=prob), "M3-R2")
        strategy = extract_strategy(scn, prob, sol, meta)
        meta.iterations += 1
        meta.trace.append((strategy.objective_value, step))


def deterministic_scenario(scn: ScenarioBundle) -> ScenarioBundle:
    """Margin-free mean-value variant of a scenario (the naive baseline view).

    Unit parameters are flattened to their time averages, SoC bounds relaxed
    to the physical interval, and the exogenous series replaced by their
    per-step means; no uncertainty margin of any kind remains.
    """
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
    return replace(scn, units=units, load_dist=load_pt, res_dist=res_pt)


def solve_deterministic_m1(scn: ScenarioBundle) -> DispatchStrategy:
    """M1 solve: no margins, constant parameters, physical SoC bounds."""
    det = deterministic_scenario(scn)
    prob = build_cco_diu(det)
    sol = solve_or_raise(prob, "M1")
    meta = SolveMetadata(mode="M1", gamma=scn.gamma)
    return extract_strategy(det, prob, sol, meta)


def aggregate_scenario(scn: ScenarioBundle) -> ScenarioBundle:
    """Collapse the fleet into one virtual unit (fleet-level acceleration).

    Intensive parameters are capacity-weighted; bound statistics are dropped
    (the virtual unit is treated as identified exactly).
    """
    merged = aggregate_fleet([u.params for u in scn.units])
    caps = np.array([u.params.S for u in scn.units])
    w = caps / caps.sum()
    price_c = np.tensordot(w, np.stack([u.price_c for u in scn.units]), axes=1)
    price_d = np.tensordot(w, np.stack([u.price_d for u in scn.units]), axes=1)
    unit = replace(
        scn.units[0], params=merged, price_c=price_c, price_d=price_d,
        unit_dists={}, baseline=None, stats=None,
    )
    return replace(scn, units=[unit])
