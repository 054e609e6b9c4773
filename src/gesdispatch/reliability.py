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

`evaluate_many` is the one evaluator: `evaluate_reliability(s)` is
`evaluate_many({name: s})[name]`.  It realizes the units in tasks (`_tasks`:
runs of consecutive units that share a realization template, cut to about
`pool.TASK_ELEMENTS`), through the noise sampler (`_unit_noise`) and the
realization kernel (`realize_unit`), and scores each run (`_score_run`).
Every step is elementwise or reduces within a unit, so no number depends on
the task a unit falls in.

Layout: the noise sampler writes draws-major (units, draws, horizon) blocks,
and the kernel and the scoring work on time-major (units, horizon, draws)
blocks, draws innermost, so that a step of every draw is one contiguous
row.  A unit's bound moves off its price-expanded anchor only where its
discomfort is nonzero, and the fixtures respond only late in the day, so the
kernel draws and applies the contraction only from the first step at which
any unit and draw of its run has nonzero discomfort; before it the bound is
the anchor, bit for bit (`_side_bound`).  The means over draws add in draw
order, as over draws-major arrays (`_score_run`).
"""

from __future__ import annotations

import operator
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import distributions as dist
from .ddu import (bound_ends, contraction_quantile_vec, contraction_shock, discomfort, expansion_fraction,
                  rating_refs)
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
    return unit_states(seed, [(u.unit_id, u.unit_dists, u.baseline) for u in units], horizon, prefix=(0,))


def _template(u: UnitSpec) -> tuple:
    """What a run of units realizes alike: the sampler branch, the DDU spec
    and both price inputs, so that the expansion factor of `_Worlds` is
    shared by the run."""
    return (sampler_branch(u.dev, u.unit_dists, u.baseline), u.ddu,
            _price(u, "upper").tobytes(), _price(u, "lower").tobytes())


def _check_draws(draws: int) -> None:
    """Refuse a Monte-Carlo draw count below one."""
    if draws < 1:
        raise InvalidSpec(f"draw count must be >= 1, got {draws}")


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
    """Fleet-common expansion/contraction shock uniforms, one per (draw,
    step), drawn draws-major and returned time-major, (horizon, m): each
    stream is transposed as it is drawn, so one draws-major stream is alive
    at a time."""
    names = ("g_upper", "g_lower", "h_upper", "h_lower")
    states = dist.spawn_states([(int(seed), zlib.crc32(b"system"))], [len(names)])[0]
    return {name: np.ascontiguousarray(u.T) for name, u in zip(names, dist.uniform_streams(states, (m, horizon)))}


def _price(u: UnitSpec, side: str) -> np.ndarray:
    return np.asarray(u.price_c if side == "upper" else u.price_d, dtype=float)


class _Worlds:
    """The fleet-common state of one evaluation, computed once and shared by
    every unit and strategy: the contraction shock of each family and side
    (`ddu.contraction_shock`), and the expansion factor g of every distinct
    price input of the scenario's units, each (horizon, m).  Nothing here
    changes after construction, so the evaluator's worker threads only read
    it."""

    def __init__(self, seed: int, m: int, scn: ScenarioBundle):
        self.m = m
        self.horizon = scn.horizon
        sysu = _system_uniforms(seed, m, scn.horizon)
        self.h_shocks = {(family, side): contraction_shock(family, sysu[f"h_{side}"])
                         for family in {u.ddu.h_family for u in scn.units} for side in ("upper", "lower")}
        self._g: dict[tuple, np.ndarray] = {}
        for u in scn.units:
            for side in ("upper", "lower"):
                key = self._key(u, side)
                if key not in self._g:
                    self._g[key] = expansion_fraction(_price(u, side)[:, None], u.ddu, sysu[f"g_{side}"])

    @staticmethod
    def _key(u: UnitSpec, side: str) -> tuple:
        return side, _price(u, side).tobytes(), float(u.ddu.c_bar), float(u.ddu.sigma_g)

    def g(self, u: UnitSpec, side: str) -> np.ndarray:
        """Expansion factor of unit `u` per (step, draw); depends only on the
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


def _first_step(mask: np.ndarray) -> int:
    """The first step (axis 1) at which `mask` holds for some unit and draw,
    or the number of steps when it holds nowhere."""
    steps = np.flatnonzero(mask.any(axis=(0, 2)))
    return int(steps[0]) if steps.size else mask.shape[1]


def _side_bound(units: Sequence[UnitSpec], noise, rd, t0: int, side: str, worlds: _Worlds,
                out: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
    """Realized bound of a run for one side, written into `out`: expansion
    draw, then contraction draw on the steps from `t0`, before which every
    discomfort is zero.  All arrays are time-major.  `h` and `scratch` are
    overwritten; `scratch` may be `rd`, which is read before it."""
    spec = units[0].ddu
    end = "hi" if side == "upper" else "lo"
    phys = _column(units, f"soc_phys_{end}")
    # the draws-major (units, m | 1, horizon) noise read through time-major views
    soc_bound, avg, deadband = (noise[key].swapaxes(1, 2) for key in (f"soc_{end}", "soc_baseline_avg", "deadband"))
    diu, comfort = bound_ends(side, soc_bound, phys, avg, deadband)
    # anchor = diu + (phys - diu) * g
    anchor = np.multiply(phys - diu, worlds.g(units[0], side), out=out)
    anchor += diu
    # Before t0 the discomfort is +-0, so H is +-0 (the aversion is finite)
    # and the bound anchor + (comfort - anchor) * H is the anchor itself,
    # unless the anchor is -0.0 and the pull +0.0.  A sum is -0.0 only when
    # both terms are, so that needs an identified bound of -0.0: such steps
    # join the window.
    t0 = _first_step(np.signbit(diu[:, :t0]) & (diu[:, :t0] == 0))
    window = slice(t0, None)
    hw = np.multiply(rd[:, window], spec.beta_side(side), out=h[:, window])
    contraction_quantile_vec(hw, spec, worlds.h_shocks[spec.h_family, side][window], out=hw)
    # bound = anchor + (comfort - anchor) * h
    pull = np.subtract(comfort[:, window], anchor[:, window], out=scratch[:, window])
    pull *= hw
    bound = anchor[:, window]
    bound += pull


#: time-major (units, horizon, draws) buffers of the realization kernel:
#: discomfort, upper and lower bound, contraction factor
KERNEL_BUFFERS = 4


def realize_unit(
    units: Sequence[UnitSpec], sched: UnitSchedule, noise: dict[str, np.ndarray], m: int,
    worlds: _Worlds, workspace: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw practical bounds of a run of units (one `_tasks` slice) over
    the `m` draws of `worlds`, given the run's schedules (`_schedules`) and
    noise realization (`_unit_noise`): the evaluator's realization
    kernel.  Returns the realized (upper, lower) bounds, each time-major,
    (units, horizon, m), and the number of crossed (draw, step) pairs of each
    unit; a crossed pair collapses to its midpoint.  Every step is
    elementwise over the run, so a unit's bounds do not depend on the run it
    is realized in.

    The contraction is drawn and applied only from the first step at which
    some unit and draw of the run has nonzero discomfort; the bounds before
    it are the price-expanded anchors, which is what the contraction gives
    there (`_side_bound`).

    `workspace` holds KERNEL_BUFFERS C-contiguous (units, horizon, m) buffers
    that the kernel overwrites; the returned bounds are its second and third,
    so the next call overwrites them.
    """
    if m != worlds.m:
        raise DimensionMismatch(f"unit {units[0].unit_id}: {m} draws vs {worlds.m} in the shared worlds")
    rd, upper, lower, h = workspace
    # discomfort per draw and step, from each draw's realized references;
    # `discomfort` reads the steps on the last axis, so it writes through
    # draws-major views, and cumulates over contiguous rows of draws
    discomfort(sched, noise["pc_ref"][..., None], noise["pd_ref"][..., None], noise["soc_baseline_avg"],
               noise["deadband"], units[0].ddu, out=rd.swapaxes(1, 2), scratch=upper.swapaxes(1, 2))
    t0 = _first_step(rd != 0)
    _side_bound(units, noise, rd, t0, "upper", worlds, out=upper, h=h, scratch=lower)
    _side_bound(units, noise, rd, t0, "lower", worlds, out=lower, h=h, scratch=rd)
    crossed = lower > upper
    crossings = np.zeros(len(units), dtype=int)
    if np.count_nonzero(crossed):
        crossings = np.count_nonzero(crossed, axis=(1, 2))
        mid = 0.5 * (upper[crossed] + lower[crossed])
        upper[crossed] = mid
        lower[crossed] = mid
    return upper, lower, crossings


# ---------------------------------------------------------------------------
# Metrics


def _draws_major(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A C-contiguous (units, draws, horizon) copy of the time-major array
    `a`, written into the memory of `out` (C-contiguous, of `a`'s size)."""
    dm = out.reshape(a.swapaxes(1, 2).shape)
    np.copyto(dm, a.swapaxes(1, 2))
    return dm


def _score_run(scn: ScenarioBundle, units: Sequence[UnitSpec], sched: UnitSchedule,
               upper: np.ndarray, lower: np.ndarray,
               buffers: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score the realized time-major (units, horizon, draws) bounds of a run
    against its schedules (`_schedules`): per unit, whether each draw
    violates a bound at some step (units, draws), the signed energy not
    served and the violation frequency per step (units, horizon), and the
    real-time cost (units,).

    The excess, shortfall and violations are computed time-major.  The three
    means over draws take draws-major copies of the excess and shortfall, so
    that they add in draw order as they always have; over a contiguous axis
    numpy would add pairwise, in other bits.  `buffers` are four C-contiguous
    arrays of the bounds' size that the scoring overwrites: the excess and
    shortfall go into the first two and their draws-major copies into the
    last two, which may be `upper` and `lower`.  Every reduction runs once
    over the run; the real-time cost takes one `np.dot` per unit, which a
    batched product might sum in another order."""
    over, under, over_dm, under_dm = buffers
    soc = sched.soc[..., 1:].swapaxes(1, 2)
    size = _column(units, "S")[:, 0]
    over = np.maximum(np.subtract(soc, upper, out=over), 0.0, out=over)
    under = np.maximum(np.subtract(lower, soc, out=under), 0.0, out=under)
    violated = over > VIOLATION_TOL
    violated |= under > VIOLATION_TOL
    any_violation = violated.any(axis=1)
    freq = violated.mean(axis=2)  # a count over draws: exact in any order
    over = _draws_major(over, over_dm)
    under = _draws_major(under, under_dm)
    # undelivered response is bought back at a markup, excess response
    # loses part of its day-ahead revenue
    e_over = over.mean(axis=1) * size
    e_under = under.mean(axis=1) * size
    rt = UNDER_RESPONSE_MULT * e_under + OVER_RESPONSE_MULT * e_over
    over -= under
    erns = over.mean(axis=1) * size
    return any_violation, erns, freq, np.array([np.dot(scn.tou_price, r) for r in rt])


def _report(strategy: DispatchStrategy, units: Sequence[UnitSpec], draws: int, seed: int,
            scores: Sequence[tuple]) -> ReliabilityReport:
    """The report of `strategy` over `units` from the `_score_run` arrays of
    consecutive runs of them, each followed by the run's crossings per unit
    (`realize_unit`).  The units' signed energy not served and real-time
    costs add one unit at a time, in unit order, from zero: numpy's pairwise
    sum and Python 3.12's compensated builtin `sum` would round otherwise."""
    any_violation, unit_erns, freq, unit_cost_rt, crossings = (np.concatenate(a) for a in zip(*scores))
    erns = reduce(np.add, unit_erns, np.zeros(unit_erns.shape[1]))
    cost_rt = reduce(operator.add, unit_cost_rt.tolist(), 0.0)
    cost_da = strategy.objective_value
    return ReliabilityReport(
        lorp=float(any_violation.any(axis=0).mean()),
        erns=erns,
        erns_total_signed=float(erns.sum()),
        erns_total_abs=float(np.abs(erns).sum()),
        cost_da=cost_da,
        cost_rt=cost_rt,
        cost_tc=cost_da + cost_rt,
        violation_freq={u.unit_id: f for u, f in zip(units, freq)},
        crossings=int(crossings.sum()),
        gamma=strategy.metadata.gamma,
        draws=draws,
        seed=seed,
    )


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
    strategy's bounds, in one workspace of `2 + KERNEL_BUFFERS` buffers of
    the largest task's size, allocated by this thread: two draws-major ones
    for the noise sampler and the kernel's time-major ones.  It returns each
    strategy's per-unit scores of its run, from which this thread builds the
    reports in unit order (`_report`), so a report depends only on
    (strategy, scenario, draws, seed), not on the tasks or the pool;
    `evaluate_reliability(s)` is this function with `s` alone.  With no
    strategies nothing is sampled.
    """
    _check_draws(draws)
    if not strategies:
        return {}
    worlds = _Worlds(seed, draws, scn)
    states = _noise_states(scn.units, seed, scn.horizon)
    tasks = _tasks(scn.units, draws, scn.horizon)
    width = max(task.stop - task.start for task in tasks)
    scheds = [_schedules(s, scn.units) for s in strategies.values()]

    def score_task(task: slice, workspace: list[np.ndarray]) -> list[tuple]:
        run = scn.units[task]
        buffers = [w[:len(run)] for w in workspace]
        noise = _unit_noise(run, scn, draws, states[task], buffers)
        kernel = buffers[2:]
        rd, _, _, h = kernel  # free once the bounds are realized
        parts = []
        for strategy_sched in scheds:
            sched = _rows(strategy_sched, task)
            upper, lower, crossings = realize_unit(run, sched, noise, draws, worlds, kernel)
            parts.append((*_score_run(scn, run, sched, upper, lower, (rd, h, upper, lower)), crossings))
        return parts

    def new_workspace() -> list[np.ndarray]:
        return ([np.empty((width, draws, scn.horizon)) for _ in range(2)]
                + [np.empty((width, scn.horizon, draws)) for _ in range(KERNEL_BUFFERS)])

    parts = map_in_workspaces(score_task, tasks, new_workspace, width * draws * scn.horizon)
    return {name: _report(s, scn.units, draws, seed, [task_parts[k] for task_parts in parts])
            for k, (name, s) in enumerate(strategies.items())}


def evaluate_reliability(
    strategy: DispatchStrategy, scn: ScenarioBundle, draws: int, seed: int
) -> ReliabilityReport:
    """Evaluate one strategy: `evaluate_many` with this strategy alone."""
    return evaluate_many({"strategy": strategy}, scn, draws, seed)["strategy"]
