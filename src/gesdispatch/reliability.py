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
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .ddu import contraction_quantile_vec, discomfort
from .errors import DimensionMismatch, InvalidSpec
from .diu import sample_bounds
from .diu import tcl_baseline_bound_samples  # noqa: F401  (a wrap target of bench/tracing.py)
from .ges import map_device_to_ges  # noqa: F401  (a wrap target of bench/tracing.py)
from .optimizer import DispatchStrategy
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


def _unit_noise(u: UnitSpec, scn: ScenarioBundle, m: int, seed: int) -> dict[str, np.ndarray]:
    """Per-draw parameter/baseline-noise realization of unit `u`, from spawn
    child 0 of the stream keyed by (master seed, unit id).  Refuses a unit
    whose device is not its own, such as the virtual unit of
    `aggregate_scenario`, which keeps its first member's device."""
    if u.dev.unit_id != u.unit_id:
        raise InvalidSpec(f"unit {u.unit_id!r} carries the device of unit {u.dev.unit_id!r}, "
                          "so its noise cannot be realized (aggregated fleets cannot be evaluated)")
    ss = np.random.SeedSequence([int(seed), zlib.crc32(u.unit_id.encode())]).spawn(1)[0]
    return sample_bounds(u.dev, u.unit_dists, u.baseline_dist, scn.dt, scn.horizon, m, ss)


def _system_uniforms(seed: int, m: int, horizon: int) -> dict[str, np.ndarray]:
    """Fleet-common expansion/contraction shock uniforms, one per (draw, step)."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(b"system")])
    names = ("g_upper", "g_lower", "h_upper", "h_lower")
    return {
        name: np.random.default_rng(c).random((m, horizon))
        for name, c in zip(names, ss.spawn(len(names)))
    }


class _Worlds:
    """The fleet-common state of one evaluation, computed once and shared by
    every unit and strategy: the shock uniforms, the standard normal scores
    of the contraction uniforms, the expansion factor g per distinct price
    input, and the per-unit noise realization of the unit last realized."""

    def __init__(self, seed: int, m: int, horizon: int):
        self.seed = int(seed)
        self.m = m
        sysu = _system_uniforms(seed, m, horizon)
        self.u_g = {"upper": sysu["g_upper"], "lower": sysu["g_lower"]}
        self.u_h = {"upper": sysu["h_upper"], "lower": sysu["h_lower"]}
        # ndtri(u_h): the `z` fast path of contraction_quantile_vec
        self.z_h = {side: special.ndtri(u) for side, u in self.u_h.items()}
        self._g: dict[tuple, np.ndarray] = {}
        self._diu: tuple[UnitSpec | None, dict | None] = (None, None)

    def g(self, side: str, price: np.ndarray, c_bar: float, sigma_g: float) -> np.ndarray:
        """Expansion factor per (draw, step); depends only on its arguments."""
        key = (side, price.tobytes(), float(c_bar), float(sigma_g))
        g = self._g.get(key)
        if g is None:
            g = self._g[key] = dist.truncnorm_quantile(price[None, :] / c_bar, sigma_g, 0.0, 1.0, self.u_g[side])
        return g

    def diu(self, u: UnitSpec, scn: ScenarioBundle) -> dict:
        """Per-draw parameter/baseline-noise realization of unit `u`."""
        last, real = self._diu
        if last is not u:
            real = _unit_noise(u, scn, self.m, self.seed)
            self._diu = (u, real)
        return real


def _side_bound(u: UnitSpec, real, rd, side: str, worlds: _Worlds) -> np.ndarray:
    """Realized bound for one side: expansion draw then contraction draw."""
    spec = u.ddu
    p = u.params
    if side == "upper":
        diu = np.minimum(real["soc_hi"], p.soc_phys_hi)
        phys = p.soc_phys_hi
        comfort = np.minimum(real["avg"] + real["deadband"] / 2.0, diu)
        price = np.asarray(u.price_c, dtype=float)
    else:
        diu = np.maximum(real["soc_lo"], p.soc_phys_lo)
        phys = p.soc_phys_lo
        comfort = np.maximum(real["avg"] - real["deadband"] / 2.0, diu)
        price = np.asarray(u.price_d, dtype=float)
    g = worlds.g(side, price, spec.c_bar, spec.sigma_g)
    anchor = diu + (phys - diu) * g
    h = contraction_quantile_vec(
        spec.beta_side(side) * rd, spec, worlds.u_h[side], z=worlds.z_h[side]
    )
    return anchor + (comfort - anchor) * h


def realize_unit(
    u: UnitSpec, strategy: DispatchStrategy, scn: ScenarioBundle, m: int, worlds: _Worlds
) -> UnitRealization:
    """Per-draw practical bounds of one unit over the `m` draws of `worlds`:
    the realization kernel of every evaluator.  A crossed (upper, lower)
    pair collapses to its midpoint."""
    if m != worlds.m:
        raise DimensionMismatch(f"unit {u.unit_id}: {m} draws vs {worlds.m} in the shared worlds")
    real = worlds.diu(u, scn)
    # discomfort per draw and step, from each draw's realized references
    rd = discomfort(strategy.schedules[u.unit_id], real["pc_ref"][:, None], real["pd_ref"][:, None],
                    real["avg"], real["deadband"], u.ddu)
    upper = _side_bound(u, real, rd, "upper", worlds)
    lower = _side_bound(u, real, rd, "lower", worlds)
    crossed = lower > upper
    crossings = int(np.count_nonzero(crossed))
    if crossings:
        mid = 0.5 * (upper[crossed] + lower[crossed])
        upper[crossed] = mid
        lower[crossed] = mid
    return UnitRealization(
        upper=upper,
        lower=lower,
        p_c_max=real["p_c_max"],
        p_d_max=real["p_d_max"],
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
    `evaluate_reliability` at the same draws and seed.
    """
    worlds = _Worlds(seed, draws, scn.horizon)
    units = {u.unit_id: realize_unit(u, strategy, scn, draws, worlds) for u in scn.units}
    return RealizationBatch(units=units, draws=draws, seed=seed)


# ---------------------------------------------------------------------------
# Metrics


class _Score:
    """Running LORP, signed ERNS, violation frequencies and real-time cost of
    one strategy, fed one unit's realization at a time."""

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
        uid = u.unit_id
        if real.upper.shape != (self.draws, self.scn.horizon):
            raise DimensionMismatch(
                f"unit {uid}: batch shape {real.upper.shape} vs ({self.draws}, {self.scn.horizon})"
            )
        soc = self.strategy.schedules[uid].soc[1:][None, :]
        over = np.maximum(soc - real.upper, 0.0)
        under = np.maximum(real.lower - soc, 0.0)
        violated = (over > VIOLATION_TOL) | (under > VIOLATION_TOL)
        self.any_violation |= violated.any(axis=1)
        self.erns += (over - under).mean(axis=0) * u.params.S
        self.freq[uid] = violated.mean(axis=0)
        self.crossings += real.crossings
        # undelivered response is bought back at a markup, excess response
        # loses part of its day-ahead revenue
        e_over = over.mean(axis=0) * u.params.S
        e_under = under.mean(axis=0) * u.params.S
        self.cost_rt += float(
            np.dot(self.scn.tou_price, UNDER_RESPONSE_MULT * e_under + OVER_RESPONSE_MULT * e_over)
        )

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
    (upper, lower) pair collapses to its midpoint, and scored one unit at a
    time, so memory stays at one unit's draws.  A report depends only on
    (strategy, scenario, draws, seed); `evaluate_reliability(s)` is this
    function with `s` alone.
    """
    worlds = _Worlds(seed, draws, scn.horizon)
    scores = {name: _Score(s, scn, draws, seed) for name, s in strategies.items()}
    for u in scn.units:
        for name, strategy in strategies.items():
            scores[name].add(u, realize_unit(u, strategy, scn, draws, worlds))
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
    arrays) and "balance" (per-step array).
    """
    out: dict[str, np.ndarray] = {}
    for u in scn.units:
        real = _unit_noise(u, scn, draws, seed)
        sched = strategy.schedules[u.unit_id]
        soc = sched.soc[1:][None, :]
        out[f"pc:{u.unit_id}"] = (sched.p_c[None, :] > real["p_c_max"] + VIOLATION_TOL).mean(axis=0)
        out[f"pd:{u.unit_id}"] = (sched.p_d[None, :] > real["p_d_max"] + VIOLATION_TOL).mean(axis=0)
        out[f"soc_hi:{u.unit_id}"] = (soc > real["soc_hi"] + VIOLATION_TOL).mean(axis=0)
        out[f"soc_lo:{u.unit_id}"] = (soc < real["soc_lo"] - VIOLATION_TOL).mean(axis=0)

    def exogenous(dists, tag: bytes) -> np.ndarray:
        children = np.random.SeedSequence([seed, zlib.crc32(tag)]).spawn(len(dists))
        return dist.sample_columns(dists, draws, children)

    load = exogenous(scn.load_dist, b"load")
    res = exogenous(scn.res_dist, b"res")
    net_supply = strategy.grid_import[None, :] + res
    for u in scn.units:
        s = strategy.schedules[u.unit_id]
        net_supply = net_supply + (s.p_d - s.p_c)[None, :]
    out["balance"] = (net_supply < load - VIOLATION_TOL).mean(axis=0)
    return out
