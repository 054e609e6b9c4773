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

Every evaluator runs the same realization kernel (`realize_unit`) and the
same scoring: `evaluate_reliability(s)` is `evaluate_many({name: s})[name]`,
and `compute_lorp_erns`/`penalty_cost` score a realized batch the same way.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .ddu import contraction_quantile_vec, discomfort
from .errors import DimensionMismatch, InvalidSpec
from .diu import sample_bounds, unit_states
from .diu import tcl_baseline_bound_samples  # noqa: F401  (a wrap target of bench/tracing.py)
from .ges import map_device_to_ges  # noqa: F401  (a wrap target of bench/tracing.py)
from .optimizer import DispatchStrategy
from .pool import map_in_workspaces
from .scenario import ScenarioBundle, UnitSpec

#: numeric slack before a bound crossing counts as a violation
VIOLATION_TOL = 1e-9

#: real-time price multipliers on the ToU price
UNDER_RESPONSE_MULT = 1.3
OVER_RESPONSE_MULT = 0.3


@dataclass
class UnitRealization:
    """Per-draw realized bounds for one unit; arrays are (draws, horizon)."""

    upper: np.ndarray
    lower: np.ndarray
    p_c_max: np.ndarray
    p_d_max: np.ndarray
    crossings: int


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
    children of spawn child 0 of the stream keyed by (master seed, unit id)."""
    return unit_states(seed, [(u.unit_id, u.unit_dists, u.baseline_dist) for u in units], horizon, prefix=(0,))


def _unit_noise(u: UnitSpec, scn: ScenarioBundle, m: int, states: np.ndarray,
                workspace: Sequence[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Per-draw parameter/baseline-noise realization of unit `u` from its
    block of `_noise_states`, with the per-draw rating references `pc_ref`,
    `pd_ref` (m,) of the discomfort's intensity term.  With a `workspace`
    the sampler writes into its first two buffers.  Refuses a unit whose
    device is not its own, such as the virtual unit of `aggregate_scenario`,
    which keeps its first member's device."""
    if u.dev.unit_id != u.unit_id:
        raise InvalidSpec(f"unit {u.unit_id!r} carries the device of unit {u.dev.unit_id!r}, "
                          "so its noise cannot be realized (aggregated fleets cannot be evaluated)")
    noise = sample_bounds(u.dev, u.params, u.unit_dists, u.baseline_dist, scn.dt, scn.horizon, m, states,
                          workspace)
    noise["pc_ref"] = noise["p_c_max"].mean(axis=1)
    noise["pd_ref"] = noise["p_d_max"].mean(axis=1)
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
                    price = _price(u, side)
                    self._g[key] = dist.truncnorm_quantile(price[None, :] / u.ddu.c_bar, u.ddu.sigma_g,
                                                           0.0, 1.0, sysu[f"g_{side}"])

    @staticmethod
    def _key(u: UnitSpec, side: str) -> tuple:
        return side, _price(u, side).tobytes(), float(u.ddu.c_bar), float(u.ddu.sigma_g)

    def g(self, u: UnitSpec, side: str) -> np.ndarray:
        """Expansion factor of unit `u` per (draw, step); depends only on the
        unit's price input for `side`, `c_bar` and `sigma_g`."""
        return self._g[self._key(u, side)]


def _side_bound(u: UnitSpec, noise, rd, side: str, worlds: _Worlds,
                out: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
    """Realized bound for one side, written into `out`: expansion draw, then
    contraction draw.  `h` and `scratch` are overwritten; `scratch` may be
    `rd`, which is read before it."""
    spec = u.ddu
    p = u.params
    if side == "upper":
        diu = np.minimum(noise["soc_hi"], p.soc_phys_hi)
        phys = p.soc_phys_hi
        comfort = np.minimum(noise["avg"] + noise["deadband"] / 2.0, diu)
    else:
        diu = np.maximum(noise["soc_lo"], p.soc_phys_lo)
        phys = p.soc_phys_lo
        comfort = np.maximum(noise["avg"] - noise["deadband"] / 2.0, diu)
    # anchor = diu + (phys - diu) * g
    anchor = np.multiply(phys - diu, worlds.g(u, side), out=out)
    anchor += diu
    np.multiply(rd, spec.beta_side(side), out=h)
    contraction_quantile_vec(h, spec, **worlds.h_shocks[spec.h_family, side], out=h)
    # bound = anchor + (comfort - anchor) * h
    pull = np.subtract(comfort, anchor, out=scratch)
    pull *= h
    anchor += pull


#: (draws, horizon) buffers of the realization kernel: discomfort, upper and
#: lower bound, contraction factor
KERNEL_BUFFERS = 4


def realize_unit(
    u: UnitSpec, strategy: DispatchStrategy, noise: dict[str, np.ndarray], m: int, worlds: _Worlds,
    workspace: Sequence[np.ndarray] | None = None,
) -> UnitRealization:
    """Per-draw practical bounds of one unit over the `m` draws of `worlds`,
    given the unit's noise realization (`_unit_noise`): the realization
    kernel of every evaluator.  A crossed (upper, lower) pair collapses to
    its midpoint.

    `workspace` holds KERNEL_BUFFERS (m, horizon) buffers that the kernel
    overwrites; the returned bounds are its second and third, so the next
    call overwrites them.  Without one the kernel allocates its own.
    """
    if m != worlds.m:
        raise DimensionMismatch(f"unit {u.unit_id}: {m} draws vs {worlds.m} in the shared worlds")
    if workspace is None:
        workspace = [np.empty((m, worlds.horizon)) for _ in range(KERNEL_BUFFERS)]
    rd, upper, lower, h = workspace
    # discomfort per draw and step, from each draw's realized references
    discomfort(strategy.schedules[u.unit_id], noise["pc_ref"][:, None], noise["pd_ref"][:, None],
               noise["avg"], noise["deadband"], u.ddu, out=rd, scratch=upper)
    _side_bound(u, noise, rd, "upper", worlds, out=upper, h=h, scratch=lower)
    _side_bound(u, noise, rd, "lower", worlds, out=lower, h=h, scratch=rd)
    crossed = lower > upper
    crossings = int(np.count_nonzero(crossed))
    if crossings:
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
    `evaluate_many` runs, so `compute_lorp_erns` of the batch equals
    `evaluate_reliability` at the same draws and seed.  Every unit's arrays
    are its own; no workspace is lent.
    """
    worlds = _Worlds(seed, draws, scn)
    units = {u.unit_id: realize_unit(u, strategy, _unit_noise(u, scn, draws, states), draws, worlds)
             for u, states in zip(scn.units, _noise_states(scn.units, seed, scn.horizon))}
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


def _score_unit(strategy: DispatchStrategy, scn: ScenarioBundle, u: UnitSpec, real: UnitRealization,
                over: np.ndarray | None = None, under: np.ndarray | None = None) -> _UnitScore:
    """Score one unit's realization; the excess and shortfall go into
    `over` and `under` when they are given, buffers of the batch's shape
    that alias no bound of `real`."""
    soc = strategy.schedules[u.unit_id].soc[1:][None, :]
    over = np.maximum(np.subtract(soc, real.upper, out=over), 0.0, out=over)
    under = np.maximum(np.subtract(real.lower, soc, out=under), 0.0, out=under)
    violated = over > VIOLATION_TOL
    violated |= under > VIOLATION_TOL
    # undelivered response is bought back at a markup, excess response
    # loses part of its day-ahead revenue
    e_over = over.mean(axis=0) * u.params.S
    e_under = under.mean(axis=0) * u.params.S
    over -= under
    return _UnitScore(
        any_violation=violated.any(axis=1),
        erns=over.mean(axis=0) * u.params.S,
        freq=violated.mean(axis=0),
        cost_rt=float(np.dot(scn.tou_price, UNDER_RESPONSE_MULT * e_under + OVER_RESPONSE_MULT * e_over)),
        crossings=real.crossings,
    )


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
        self.fold(u, _score_unit(self.strategy, self.scn, u, real))

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
            gamma=self.scn.gamma,
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
    (`_noise_states`) before the units run through `pool.map_in_workspaces`.
    A unit's task realizes its noise from its block of states, and every
    strategy's bounds, in one workspace of
    `2 + KERNEL_BUFFERS` (draws, horizon) buffers, allocated by this thread,
    and returns small per-strategy scores.  This thread folds them in unit
    order, so a report depends only on (strategy, scenario, draws, seed),
    not on the pool; `evaluate_reliability(s)` is this function with `s`
    alone.
    """
    worlds = _Worlds(seed, draws, scn)
    scores = {name: _Score(s, scn, draws, seed) for name, s in strategies.items()}

    def score_unit(item: tuple[UnitSpec, np.ndarray], workspace: list[np.ndarray]) -> list[_UnitScore]:
        u, states = item
        noise = _unit_noise(u, scn, draws, states, workspace)
        kernel = workspace[2:]
        rd, _, _, h = kernel  # free once the bounds are realized
        return [_score_unit(s, scn, u, realize_unit(u, s, noise, draws, worlds, kernel), rd, h)
                for s in strategies.values()]

    parts = map_in_workspaces(score_unit, zip(scn.units, _noise_states(scn.units, seed, scn.horizon)),
                              lambda: [np.empty((draws, scn.horizon)) for _ in range(2 + KERNEL_BUFFERS)],
                              draws * scn.horizon)
    for u, unit_parts in zip(scn.units, parts):
        for score, part in zip(scores.values(), unit_parts):
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
    for u, states in zip(scn.units, _noise_states(scn.units, seed, scn.horizon)):
        real = _unit_noise(u, scn, draws, states)
        sched = strategy.schedules[u.unit_id]
        soc = sched.soc[1:][None, :]
        out[f"pc:{u.unit_id}"] = (sched.p_c[None, :] > real["p_c_max"] + VIOLATION_TOL).mean(axis=0)
        out[f"pd:{u.unit_id}"] = (sched.p_d[None, :] > real["p_d_max"] + VIOLATION_TOL).mean(axis=0)
        out[f"soc_hi:{u.unit_id}"] = (soc > real["soc_hi"] + VIOLATION_TOL).mean(axis=0)
        out[f"soc_lo:{u.unit_id}"] = (soc < real["soc_lo"] - VIOLATION_TOL).mean(axis=0)

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
