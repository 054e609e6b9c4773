"""Ex-post Monte-Carlo evaluation of a dispatch strategy.

For each scenario draw the practical SoC bounds are re-realized under the
full generative model — parameter and baseline noise pushed through the
device mapping, a price-driven expansion draw, and a discomfort-driven
contraction draw — and the day-ahead schedule is scored against them:
violation probability, signed energy not served, and real-time penalty cost.

Two kinds of draws enter a realization:

- per-unit: identification and baseline noise, from a substream keyed by
  (master seed, unit id);
- fleet-common: the expansion and contraction shock uniforms, one per
  (draw, step) and side, keyed by the master seed alone.  The willingness
  shocks behind them are modeled as common to the whole fleet in each draw
  (a shared behavioral or weather cause); per-unit independent shocks would
  make the any-violation draw event saturate with fleet size regardless of
  the per-row confidence.

Two strategies evaluated with the same seed therefore face identical random
worlds.  Where a draw's realized lower bound lies above its upper bound, the
pair collapses to its midpoint; redrawing the shocks of the crossed unit
alone would give it unit-specific shocks, against the model above.

Every evaluator realizes the units in the same tasks (`_tasks`: runs of
consecutive units that share a realization template, cut to about
`pool.TASK_ELEMENTS`), through the same noise sampler (`_unit_noise`) and
realization kernel (`realize_unit`) over (units, draws, horizon) blocks, and
scores them the same way: `evaluate_reliability(s)` is
`evaluate_many({name: s})[name]`, and `compute_lorp_erns`/`penalty_cost`
score a realized batch through the same scoring, one unit per run.  Every
step is elementwise or reduces within a unit, so no number depends on the
task a unit falls in.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .ddu import bound_ends, contraction_quantile_vec, discomfort, expansion_fraction, rating_refs
from .errors import DimensionMismatch, InvalidSpec
from .diu import sample_bounds, sampler_branch, unit_states
from .diu import tcl_baseline_bound_samples  # noqa: F401  (a wrap target of bench/tracing.py)
from .ges import UnitSchedule
from .ges import map_device_to_ges  # noqa: F401  (a wrap target of bench/tracing.py)
from .optimizer import DispatchStrategy
from .pool import TASK_ELEMENTS, map_in_workspaces
from .scenario import ScenarioBundle, UnitSpec, runs

#: numeric slack before a bound crossing counts as a violation
VIOLATION_TOL = 1e-9

#: real-time price multipliers on the ToU price
UNDER_RESPONSE_MULT = 1.3
OVER_RESPONSE_MULT = 0.3


@dataclass
class UnitRealization:
    """Per-draw realized bounds of one unit, arrays (draws, horizon); or of a
    run of units (`realize_unit`), arrays (units, draws, horizon) and one
    `crossings` count per unit."""

    upper: np.ndarray
    lower: np.ndarray
    p_c_max: np.ndarray
    p_d_max: np.ndarray
    crossings: int | np.ndarray

    def unit(self, i: int) -> "UnitRealization":
        """Unit `i` of a run's realization."""
        return UnitRealization(upper=self.upper[i], lower=self.lower[i], p_c_max=self.p_c_max[i],
                               p_d_max=self.p_d_max[i], crossings=int(self.crossings[i]))


@dataclass
class RealizationBatch:
    units: dict[str, UnitRealization]
    draws: int
    seed: int


@dataclass
class ReliabilityReport:
    lorp: float
    erns: np.ndarray  # signed kWh per step
    erns_total_signed: float
    erns_total_abs: float
    cost_da: float
    cost_rt: float
    cost_tc: float
    violation_freq: dict[str, np.ndarray]  # per unit, per step
    crossings: int
    gamma: float
    draws: int
    seed: int


# ---------------------------------------------------------------------------
# Realization


def _noise_states(units: Sequence[UnitSpec], seed: int, horizon: int) -> list[np.ndarray]:
    """Seed states of each unit's noise streams, hashed in one pass: the
    children of spawn child 0 of the stream keyed by (master seed, unit id).
    Every evaluator starts here, so this refuses, first in unit order, a
    unit whose device is not its own, such as the virtual unit of
    `aggregate_scenario`, which keeps its first member's device."""
    for u in units:
        if u.dev.unit_id != u.unit_id:
            raise InvalidSpec(f"unit {u.unit_id!r} carries the device of unit {u.dev.unit_id!r}, "
                              "so its noise cannot be realized (aggregated fleets cannot be evaluated)")
    return unit_states(seed, [(u.unit_id, u.unit_dists, u.baseline_dist) for u in units], horizon, prefix=(0,))


def _template(u: UnitSpec) -> tuple:
    """What a run of units realizes alike: the sampler branch, the DDU spec
    and both price inputs, so that the expansion factor of `_Worlds` is
    shared by the run."""
    return (sampler_branch(u.dev, u.unit_dists, u.baseline_dist), u.ddu,
            _price(u, "upper").tobytes(), _price(u, "lower").tobytes())


def _tasks(units: Sequence[UnitSpec], m: int, horizon: int) -> list[slice]:
    """The evaluator's tasks over `units`, in order: each maximal run of
    consecutive units sharing a `_template`, cut into slices of at most
    ``max(1, TASK_ELEMENTS // (m * horizon))`` units."""
    size = max(1, TASK_ELEMENTS // (m * horizon))
    return [slice(i, min(i + size, run.stop))
            for _, run in runs(_template(u) for u in units) for i in range(run.start, run.stop, size)]


def _unit_noise(units: Sequence[UnitSpec], scn: ScenarioBundle, m: int, states: Sequence[np.ndarray],
                workspace: Sequence[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Per-draw parameter/baseline-noise realization of a run of units (one
    `_tasks` slice) from their blocks of `_noise_states`: the keys of
    `diu.sample_bounds`, (units, m, horizon) or (units, 1, horizon), and the
    per-draw rating references `pc_ref`, `pd_ref` (units, m) of the
    discomfort's intensity term.  With a `workspace` the sampler writes into
    its first two buffers."""
    noise = sample_bounds(units, scn.dt, scn.horizon, m, states, workspace)
    noise["pc_ref"], noise["pd_ref"] = rating_refs(noise["p_c_max"], noise["p_d_max"])
    return noise


def _system_uniforms(seed: int, m: int, horizon: int) -> dict[str, np.ndarray]:
    """Fleet-common expansion/contraction shock uniforms, one per (draw, step)."""
    names = ("g_upper", "g_lower", "h_upper", "h_lower")
    states = dist.spawn_states([(int(seed), zlib.crc32(b"system"))], [len(names)])[0]
    return dict(zip(names, dist.uniform_streams(states, (m, horizon))))


def _price(u: UnitSpec, side: str) -> np.ndarray:
    return np.asarray(u.price_c if side == "upper" else u.price_d, dtype=float)


class _Worlds:
    """The fleet-common state of one evaluation, computed once and shared by
    every unit and strategy: the contraction shocks in the form each
    contraction family reads (the uniforms for beta, their standard normal
    scores for lognormal), and the expansion factor g of every distinct
    price input of the scenario's units.  Nothing here changes after
    construction, so the evaluator's worker threads only read it."""

    def __init__(self, seed: int, m: int, scn: ScenarioBundle):
        self.m = m
        self.horizon = scn.horizon
        sysu = _system_uniforms(seed, m, scn.horizon)
        families = {u.ddu.h_family for u in scn.units}
        # keyword arguments of contraction_quantile_vec per (family, side)
        self.h_shocks: dict[tuple[str, str], dict[str, np.ndarray]] = {}
        for side in ("upper", "lower"):
            u_h = sysu[f"h_{side}"]
            if "beta" in families:
                self.h_shocks["beta", side] = {"u": u_h}
            if "lognormal" in families:
                self.h_shocks["lognormal", side] = {"z": special.ndtri(u_h)}
        self._g: dict[tuple, np.ndarray] = {}
        for u in scn.units:
            for side in ("upper", "lower"):
                key = self._key(u, side)
                if key not in self._g:
                    self._g[key] = expansion_fraction(_price(u, side)[None, :], u.ddu, sysu[f"g_{side}"])

    @staticmethod
    def _key(u: UnitSpec, side: str) -> tuple:
        return side, _price(u, side).tobytes(), float(u.ddu.c_bar), float(u.ddu.sigma_g)

    def g(self, u: UnitSpec, side: str) -> np.ndarray:
        """Expansion factor of unit `u` per (draw, step); depends only on the
        unit's price input for `side`, `c_bar` and `sigma_g`."""
        return self._g[self._key(u, side)]


def _column(units: Sequence[UnitSpec], attr: str) -> np.ndarray:
    """GesParams field `attr` of each unit as a (units, 1, 1) column."""
    return np.array([getattr(u.params, attr) for u in units], dtype=float)[:, None, None]


def _schedules(strategy: DispatchStrategy, units: Sequence[UnitSpec]) -> UnitSchedule:
    """The schedules of `units` stacked as (units, 1, ·) rows: the form in
    which the realization kernel and the scoring read a strategy.  Stacked
    once per evaluation, a task takes its rows out without a copy (`_rows`)."""
    scheds = [strategy.schedules[u.unit_id] for u in units]
    return UnitSchedule(**{name: np.stack([getattr(s, name) for s in scheds])[:, None, :]
                           for name in ("p_c", "p_d", "soc")})


def _rows(sched: UnitSchedule, task: slice) -> UnitSchedule:
    """The stacked schedules (`_schedules`) of one task's units."""
    return UnitSchedule(p_c=sched.p_c[task], p_d=sched.p_d[task], soc=sched.soc[task])


def _side_bound(units: Sequence[UnitSpec], noise, rd, side: str, worlds: _Worlds,
                out: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
    """Realized bound of a run for one side, written into `out`: expansion
    draw, then contraction draw.  `h` and `scratch` are overwritten;
    `scratch` may be `rd`, which is read before it."""
    spec = units[0].ddu
    end = "hi" if side == "upper" else "lo"
    phys = _column(units, f"soc_phys_{end}")
    diu, comfort = bound_ends(side, noise[f"soc_{end}"], phys, noise["avg"], noise["deadband"])
    # anchor = diu + (phys - diu) * g
    anchor = np.multiply(phys - diu, worlds.g(units[0], side), out=out)
    anchor += diu
    np.multiply(rd, spec.beta_side(side), out=h)
    contraction_quantile_vec(h, spec, **worlds.h_shocks[spec.h_family, side], out=h)
    # bound = anchor + (comfort - anchor) * h
    pull = np.subtract(comfort, anchor, out=scratch)
    pull *= h
    anchor += pull


#: (units, draws, horizon) buffers of the realization kernel: discomfort,
#: upper and lower bound, contraction factor
KERNEL_BUFFERS = 4


def realize_unit(
    units: Sequence[UnitSpec], sched: UnitSchedule, noise: dict[str, np.ndarray], m: int,
    worlds: _Worlds, workspace: Sequence[np.ndarray] | None = None,
) -> UnitRealization:
    """Per-draw practical bounds of a run of units (one `_tasks` slice) over
    the `m` draws of `worlds`, given the run's schedules (`_schedules`) and
    noise realization (`_unit_noise`): the realization kernel of every
    evaluator.  A crossed (upper, lower) pair collapses to its midpoint.
    Every step is elementwise over the run, so a unit's bounds do not depend
    on the run it is realized in.

    `workspace` holds KERNEL_BUFFERS (units, m, horizon) buffers that the
    kernel overwrites; the returned bounds are its second and third, so the
    next call overwrites them.  Without one the kernel allocates its own.
    """
    if m != worlds.m:
        raise DimensionMismatch(f"unit {units[0].unit_id}: {m} draws vs {worlds.m} in the shared worlds")
    if workspace is None:
        workspace = [np.empty((len(units), m, worlds.horizon)) for _ in range(KERNEL_BUFFERS)]
    rd, upper, lower, h = workspace
    # discomfort per draw and step, from each draw's realized references
    discomfort(sched, noise["pc_ref"][..., None], noise["pd_ref"][..., None],
               noise["avg"], noise["deadband"], units[0].ddu, out=rd, scratch=upper)
    _side_bound(units, noise, rd, "upper", worlds, out=upper, h=h, scratch=lower)
    _side_bound(units, noise, rd, "lower", worlds, out=lower, h=h, scratch=rd)
    crossed = lower > upper
    crossings = np.zeros(len(units), dtype=int)
    if np.count_nonzero(crossed):
        crossings = np.count_nonzero(crossed, axis=(1, 2))
        mid = 0.5 * (upper[crossed] + lower[crossed])
        upper[crossed] = mid
        lower[crossed] = mid
    return UnitRealization(
        upper=upper,
        lower=lower,
        p_c_max=noise["p_c_max"],
        p_d_max=noise["p_d_max"],
        crossings=crossings,
    )


def realize_practical_bounds(
    strategy: DispatchStrategy, scn: ScenarioBundle, draws: int, seed: int
) -> RealizationBatch:
    """Realize every unit's practical bounds and keep them in memory.

    The expansion and contraction shocks are fleet-common (one set for all
    units), the parameter and baseline noise is per unit, and a crossed
    (upper, lower) pair collapses to its midpoint: the kernel that
    `evaluate_many` runs on the same `_tasks`, so `compute_lorp_erns` of the
    batch equals `evaluate_reliability` at the same draws and seed.  No
    workspace is lent, and no two units' arrays overlap.
    """
    worlds = _Worlds(seed, draws, scn)
    states = _noise_states(scn.units, seed, scn.horizon)
    sched = _schedules(strategy, scn.units)
    units = {}
    for task in _tasks(scn.units, draws, scn.horizon):
        run = scn.units[task]
        real = realize_unit(run, _rows(sched, task), _unit_noise(run, scn, draws, states[task]), draws, worlds)
        units.update((u.unit_id, real.unit(i)) for i, u in enumerate(run))
    return RealizationBatch(units=units, draws=draws, seed=seed)


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class _UnitScore:
    """One unit's share of a strategy's metrics, before it is folded in."""

    any_violation: np.ndarray  # (draws,) bool
    erns: np.ndarray  # signed kWh per step
    freq: np.ndarray  # violation frequency per step
    cost_rt: float
    crossings: int


def _score_run(scn: ScenarioBundle, units: Sequence[UnitSpec], sched: UnitSchedule,
               upper: np.ndarray, lower: np.ndarray, crossings: Sequence[int],
               over: np.ndarray | None = None, under: np.ndarray | None = None) -> list[_UnitScore]:
    """Score the realized (units, draws, horizon) bounds of a run against
    its schedules (`_schedules`), one `_UnitScore` per unit; the excess and
    shortfall go into `over` and `under` when they are given, buffers of the
    bounds' shape that alias neither.  Every reduction runs once over the
    run; the real-time cost takes one `np.dot` per unit, which a batched
    product might sum in another order."""
    soc = sched.soc[..., 1:]
    size = _column(units, "S")[:, 0]
    over = np.maximum(np.subtract(soc, upper, out=over), 0.0, out=over)
    under = np.maximum(np.subtract(lower, soc, out=under), 0.0, out=under)
    violated = over > VIOLATION_TOL
    violated |= under > VIOLATION_TOL
    # undelivered response is bought back at a markup, excess response
    # loses part of its day-ahead revenue
    e_over = over.mean(axis=1) * size
    e_under = under.mean(axis=1) * size
    rt = UNDER_RESPONSE_MULT * e_under + OVER_RESPONSE_MULT * e_over
    over -= under
    any_violation = violated.any(axis=2)
    erns = over.mean(axis=1) * size
    freq = violated.mean(axis=1)
    return [_UnitScore(any_violation=any_violation[i], erns=erns[i], freq=freq[i],
                       cost_rt=float(np.dot(scn.tou_price, rt[i])), crossings=int(crossings[i]))
            for i in range(len(units))]


class _Score:
    """Running LORP, signed ERNS, violation frequencies and real-time cost of
    one strategy, fed one unit at a time in unit order."""

    def __init__(self, strategy: DispatchStrategy, scn: ScenarioBundle, draws: int, seed: int):
        self.strategy = strategy
        self.scn = scn
        self.draws = draws
        self.seed = seed
        self.any_violation = np.zeros(draws, dtype=bool)
        self.erns = np.zeros(scn.horizon)
        self.freq: dict[str, np.ndarray] = {}
        self.cost_rt = 0.0
        self.crossings = 0

    def add(self, u: UnitSpec, real: UnitRealization) -> None:
        if real.upper.shape != (self.draws, self.scn.horizon):
            raise DimensionMismatch(
                f"unit {u.unit_id}: batch shape {real.upper.shape} vs ({self.draws}, {self.scn.horizon})"
            )
        (part,) = _score_run(self.scn, [u], _schedules(self.strategy, [u]), real.upper[None], real.lower[None],
                             [real.crossings])
        self.fold(u, part)

    def fold(self, u: UnitSpec, part: _UnitScore) -> None:
        self.any_violation |= part.any_violation
        self.erns += part.erns
        self.freq[u.unit_id] = part.freq
        self.crossings += part.crossings
        self.cost_rt += part.cost_rt

    def report(self) -> ReliabilityReport:
        cost_da = self.strategy.objective_value
        return ReliabilityReport(
            lorp=float(self.any_violation.mean()),
            erns=self.erns,
            erns_total_signed=float(self.erns.sum()),
            erns_total_abs=float(np.abs(self.erns).sum()),
            cost_da=cost_da,
            cost_rt=self.cost_rt,
            cost_tc=cost_da + self.cost_rt,
            violation_freq=self.freq,
            crossings=self.crossings,
            gamma=self.strategy.metadata.gamma,
            draws=self.draws,
            seed=self.seed,
        )


def compute_lorp_erns(
    strategy: DispatchStrategy, batch: RealizationBatch, scn: ScenarioBundle
) -> ReliabilityReport:
    """Full reliability report of a realized batch."""
    score = _Score(strategy, scn, batch.draws, batch.seed)
    for u in scn.units:
        score.add(u, batch.units[u.unit_id])
    return score.report()


def penalty_cost(strategy: DispatchStrategy, batch: RealizationBatch, scn: ScenarioBundle) -> float:
    """Expected real-time cost of a realized batch."""
    return compute_lorp_erns(strategy, batch, scn).cost_rt


def evaluate_many(
    strategies: dict[str, DispatchStrategy], scn: ScenarioBundle, draws: int, seed: int
) -> dict[str, ReliabilityReport]:
    """Evaluate several strategies against the same random worlds.

    The expansion and contraction shocks are fleet-common: drawn once per
    call and shared by every unit and strategy.  Parameter and baseline
    noise is per unit: drawn once per unit and shared by the strategies.
    Each strategy is realized through `realize_unit`, where a crossed
    (upper, lower) pair collapses to its midpoint.

    The seed states of every unit's noise streams are hashed in one pass
    (`_noise_states`) before the `_tasks` run through
    `pool.map_in_workspaces`.  A task realizes its run's noise, and every
    strategy's bounds, as (units, draws, horizon) blocks in one workspace of
    `2 + KERNEL_BUFFERS` buffers of the largest task's shape, allocated by
    this thread, and returns small per-unit scores.  This thread folds them
    in unit order, so a report depends only on (strategy, scenario, draws,
    seed), not on the tasks or the pool; `evaluate_reliability(s)` is this
    function with `s` alone.
    """
    worlds = _Worlds(seed, draws, scn)
    scores = {name: _Score(s, scn, draws, seed) for name, s in strategies.items()}
    states = _noise_states(scn.units, seed, scn.horizon)
    tasks = _tasks(scn.units, draws, scn.horizon)
    width = max(task.stop - task.start for task in tasks)
    scheds = [_schedules(s, scn.units) for s in strategies.values()]

    def score_task(task: slice, workspace: list[np.ndarray]) -> list[list[_UnitScore]]:
        run = scn.units[task]
        buffers = [w[:len(run)] for w in workspace]
        noise = _unit_noise(run, scn, draws, states[task], buffers)
        kernel = buffers[2:]
        rd, _, _, h = kernel  # free once the bounds are realized
        parts = []
        for strategy_sched in scheds:
            sched = _rows(strategy_sched, task)
            real = realize_unit(run, sched, noise, draws, worlds, kernel)
            parts.append(_score_run(scn, run, sched, real.upper, real.lower, real.crossings, rd, h))
        return parts

    parts = map_in_workspaces(score_task, tasks,
                              lambda: [np.empty((width, draws, scn.horizon)) for _ in range(2 + KERNEL_BUFFERS)],
                              width * draws * scn.horizon)
    for task, task_parts in zip(tasks, parts):
        for score, run_parts in zip(scores.values(), task_parts):
            for u, part in zip(scn.units[task], run_parts):
                score.fold(u, part)
    return {name: score.report() for name, score in scores.items()}


def evaluate_reliability(
    strategy: DispatchStrategy, scn: ScenarioBundle, draws: int, seed: int
) -> ReliabilityReport:
    """Evaluate one strategy: `evaluate_many` with this strategy alone."""
    return evaluate_many({"strategy": strategy}, scn, draws, seed)["strategy"]


def average_contraction(strategy: DispatchStrategy, scn: ScenarioBundle) -> float:
    """Mean contraction magnitude over units, steps, and sides.

    The contraction factor has mean beta * rd per side; its average is a
    schedule-level measure of how far the practical bounds are pulled toward
    the comfort band by the scheduled response.
    """
    total = 0.0
    count = 0
    for u in scn.units:
        rd = strategy.rd[u.unit_id]
        total += float(np.sum(u.ddu.beta_up * rd) + np.sum(u.ddu.beta_lo * rd))
        count += 2 * rd.size
    return total / count if count else 0.0


# ---------------------------------------------------------------------------
# Per-row ex-post check of the exogenous chance constraints


def expost_row_frequencies(
    strategy: DispatchStrategy, scn: ScenarioBundle, draws: int, seed: int
) -> dict[str, np.ndarray]:
    """Violation frequency of every reformulated exogenous row.

    Keys: "pc:<uid>", "pd:<uid>", "soc_lo:<uid>", "soc_hi:<uid>" (per-step
    arrays) and "balance" (per-step array).  Under M3 the decision-dependent
    rows replace the exogenous SoC rows, so there the "soc_lo:"/"soc_hi:"
    frequencies describe no imposed row and must not be read against gamma.
    """
    out: dict[str, np.ndarray] = {}
    states = _noise_states(scn.units, seed, scn.horizon)
    scheds = _schedules(strategy, scn.units)
    for task in _tasks(scn.units, draws, scn.horizon):
        run = scn.units[task]
        real = _unit_noise(run, scn, draws, states[task])
        sched = _rows(scheds, task)
        soc = sched.soc[..., 1:]
        rows = {"pc": sched.p_c > real["p_c_max"] + VIOLATION_TOL,
                "pd": sched.p_d > real["p_d_max"] + VIOLATION_TOL,
                "soc_hi": soc > real["soc_hi"] + VIOLATION_TOL,
                "soc_lo": soc < real["soc_lo"] - VIOLATION_TOL}
        freq = {row: violated.mean(axis=1) for row, violated in rows.items()}
        for i, u in enumerate(run):
            out.update((f"{row}:{u.unit_id}", f[i]) for row, f in freq.items())

    def exogenous(dists, tag: bytes) -> np.ndarray:
        states = dist.spawn_states([(int(seed), zlib.crc32(tag))], [len(dists)])[0]
        return dist.sample_columns(dists, draws, states)

    load = exogenous(scn.load_dist, b"load")
    res = exogenous(scn.res_dist, b"res")
    net_supply = strategy.grid_import[None, :] + res
    for u in scn.units:
        s = strategy.schedules[u.unit_id]
        net_supply = net_supply + (s.p_d - s.p_c)[None, :]
    out["balance"] = (net_supply < load - VIOLATION_TOL).mean(axis=0)
    return out
