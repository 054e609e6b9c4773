"""Shared builders for small in-memory scenarios used across the test suite."""

from __future__ import annotations

import math
import zlib
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats as sstats

from gesdispatch import ddu, diu, reliability, reserve
from gesdispatch import distributions as dist
from gesdispatch.ddu import DduSpec, bound_ends, contraction_quantile_vec, contraction_shock, discomfort, rating_refs
from gesdispatch.distributions import DistributionSpec
from gesdispatch.errors import InvalidSpec
from gesdispatch.ges import DeviceDescription, map_device_to_ges
from gesdispatch.reliability import (
    OVER_RESPONSE_MULT,
    UNDER_RESPONSE_MULT,
    VIOLATION_TOL,
    ReliabilityReport,
    _tasks,
)
from gesdispatch.scenario import ScenarioBundle, UnitSpec


PROPAGATION_SAMPLES = 4000  # diu.samples in both bundled fixtures


def stat_threshold(gamma, draws):
    """Largest violation share consistent with a row that holds at `gamma`:
    gamma plus three standard errors of the evaluation sample and of the
    bound statistics (PROPAGATION_SAMPLES draws)."""
    return gamma + 3.0 * math.sqrt(gamma * (1.0 - gamma) * (1.0 / draws + 1.0 / PROPAGATION_SAMPLES))


def bes_device(uid="bes", S=50.0, rating=10.0, soc_lo=0.1, soc_hi=0.9,
               soc_init=0.5, eps=0.0, eta=0.95, deadband=0.2, on_prob=1.0):
    return DeviceDescription(
        kind="BES", unit_id=uid, s_capacity=S, eta_c=eta, eta_d=eta, eps=eps,
        p_c_rating=rating, p_d_rating=rating, soc_lo=soc_lo, soc_hi=soc_hi,
        soc_init=soc_init, deadband=deadband, on_prob=on_prob,
    )


def make_unit(dev, horizon, dt=1.0, ddu=None, price_c=0.3, price_d=0.6,
              unit_dists=None, baseline=None, stats=None):
    params = map_device_to_ges(dev, dt, horizon)
    if ddu is None:
        ddu = DduSpec()
    return UnitSpec(
        dev=dev, params=params, ddu=ddu,
        price_c=np.full(horizon, float(price_c)),
        price_d=np.full(horizon, float(price_d)),
        unit_dists=unit_dists or {}, baseline=baseline, stats=stats,
    )


def make_scenario(units, horizon, tou=0.8, load=20.0, res=0.0, grid_cap=1000.0,
                  gamma=0.05, **kw):
    def series_dists(x):
        arr = np.broadcast_to(np.asarray(x, dtype=float), (horizon,))
        return [DistributionSpec.point(float(v)) for v in arr]

    return ScenarioBundle(
        units=units,
        horizon=horizon,
        dt=1.0,
        tou_price=np.broadcast_to(np.asarray(tou, dtype=float), (horizon,)).copy(),
        load_dist=series_dists(load),
        res_dist=series_dists(res),
        grid_cap=grid_cap,
        gamma=gamma,
        **kw,
    )


def largest_task(scn, draws):
    """Elements (units × draws × steps) of the evaluator's largest task over
    `scn` at `draws`: its tasks run on the pool when this reaches
    `pool.POOL_MIN_ELEMENTS`."""
    return max(t.stop - t.start for t in _tasks(scn.units, draws, scn.horizon)) * draws * scn.horizon


class Realized(NamedTuple):
    """One unit's realized bounds, C-contiguous draws-major (draws, horizon)
    arrays, and its number of crossed (draw, step) pairs."""

    upper: np.ndarray
    lower: np.ndarray
    crossings: int


def kernel_workspace(units, horizon, draws):
    """Fresh time-major buffers for one `reliability.realize_unit` call."""
    return [np.empty((units, horizon, draws)) for _ in range(reliability.KERNEL_BUFFERS)]


def realized_bounds(strategy, scn, draws, seed):
    """{unit id: Realized} of `strategy` from the evaluator's own kernel: its
    `_tasks`, noise sampler and `realize_unit`, each task in a workspace of
    its own, the bounds copied out draws-major."""
    worlds = reliability._Worlds(seed, draws, scn)
    states = reliability._noise_states(scn.units, seed, scn.horizon)
    scheds = reliability._schedules(strategy, scn.units)
    out = {}
    for task in _tasks(scn.units, draws, scn.horizon):
        run = scn.units[task]
        noise = reliability._unit_noise(run, scn, draws, states[task])
        upper, lower, crossings = reliability.realize_unit(run, reliability._rows(scheds, task), noise, draws, worlds,
                                                           kernel_workspace(len(run), scn.horizon, draws))
        out.update((u.unit_id, Realized(np.ascontiguousarray(upper[i].T), np.ascontiguousarray(lower[i].T),
                                        int(crossings[i])))
                   for i, u in enumerate(run))
    return out


def score_bounds(strategy, scn, bounds, seed=0):
    """The report of `strategy` against given bounds {unit id: Realized}: the
    evaluator's scoring (`reliability._score_run`), one unit per run in
    buffers of its own, and its report builder (`reliability._report`)."""
    draws = len(next(iter(bounds.values())).upper)
    scores = []
    for u in scn.units:
        real = bounds[u.unit_id]
        upper, lower = (np.ascontiguousarray(np.asarray(b, dtype=float).T)[None] for b in (real.upper, real.lower))
        buffers = [np.empty_like(upper) for _ in range(4)]
        scores.append((*reliability._score_run(scn, [u], reliability._schedules(strategy, [u]), upper, lower, buffers),
                       [real.crossings]))
    return reliability._report(strategy, scn.units, draws, seed, scores)


def reserve_problem(scn, spec):
    """The LP `solve_with_reserve` builds, taken before it is solved."""
    built = []

    def capture(prob, context):
        built.append(prob)
        raise StopIteration

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reserve, "solve_or_raise", capture)
        with pytest.raises(StopIteration):
            reserve.solve_with_reserve(scn, spec)
    return built[0]


# ---------------------------------------------------------------------------
# Scalar and serial references of the package's models
#
# Each computes one entry, one unit or one row at a time what the package
# computes only inside its vectorized paths, for the tests to compare.


def response_discomfort_series(sched, params, spec):
    """Vector of discomfort values over the whole horizon, from the rating
    references and comfort anchors of the unit's GesParams."""
    pc_ref, pd_ref = rating_refs(params.p_c_max, params.p_d_max)
    return discomfort(sched, pc_ref, pd_ref, params.soc_baseline_avg, params.deadband, spec)


def sample(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """`n` draws of `spec`: its quantiles of ``np.random.default_rng(seed).random(n)``."""
    return dist.quantile(spec, np.random.default_rng(seed).random(n))


def contraction_distribution(rd: float, side: str, spec: DduSpec):
    """Distribution of the contraction factor H with mean beta_side * rd.

    The standard deviation is sigma_h regardless of rd; both supported
    families are matched to these two moments: a lognormal
    `DistributionSpec`, or a frozen ``scipy.stats.beta`` on [0, BETA_CAP].
    A mean at or below the numeric floor collapses to a point mass (no
    contraction).
    """
    if rd < -1e-12:
        raise InvalidSpec(f"response discomfort must be >= 0, got {rd}")
    m = spec.beta_side(side) * max(rd, 0.0)
    if m <= ddu.MEAN_FLOOR:
        return DistributionSpec.point(m)
    s = spec.sigma_h
    if spec.h_family == "lognormal":
        s2 = math.log1p((s / m) ** 2)
        return DistributionSpec.lognormal(math.log(m) - s2 / 2.0, math.sqrt(s2))
    mf, _, k = (float(v) for v in ddu._beta_fit(m, s))
    return sstats.beta(mf * k, (1.0 - mf) * k, scale=ddu.BETA_CAP)


def contraction_normalized_quantile(h, level: float) -> float:
    """Quantile of (H - mean) / std at `level` of a `contraction_distribution`
    law; 0 for a point mass."""
    if isinstance(h, DistributionSpec):
        return dist.normalized_quantile(h, level)
    return (float(h.ppf(level)) - h.mean()) / h.std()


def point_baseline(value, horizon):
    """Baseline noise with no spread: every draw of every step is
    ``exp(log(value))``, which is `value` for 4.0."""
    return dist.LognormalSeries(np.full(horizon, math.log(value)), np.zeros(horizon))


def lognormal_steps(series) -> list[DistributionSpec]:
    """The per-step lognormal specs of a `distributions.LognormalSeries`."""
    return [DistributionSpec.lognormal(mu, sigma) for mu, sigma in zip(series.mu.tolist(), series.sigma.tolist())]


def step_soc(soc: float, p_c: float, p_d: float, params, t: int) -> float:
    """One step of the SoC recursion."""
    return (
        (1.0 - params.eps) * soc
        + params.eta_c * p_c * params.dt / params.S
        - p_d * params.dt / (params.eta_d * params.S)
        + float(params.alpha[t])
    )


def nearest_rank(samples, level):
    """The order statistic of `samples` that `diu` tabulates at `level`, one
    of `diu.LEVELS`: rank ``ceil(level * n)`` of n (`diu._ranks`)."""
    ranks = diu._ranks(len(samples))
    return float(np.sort(samples)[ranks[list(diu.LEVELS).index(level)]])


def average_contraction(strategy, scn) -> float:
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


def expost_row_frequencies(strategy, scn, draws: int, seed: int) -> dict[str, np.ndarray]:
    """Violation frequency of every reformulated exogenous row, over the
    evaluator's own tasks and noise draws, serially.

    Keys: "pc:<uid>", "pd:<uid>", "soc_lo:<uid>", "soc_hi:<uid>" (per-step
    arrays) and "balance" (per-step array).  Under M3 the decision-dependent
    rows replace the exogenous SoC rows, so there the "soc_lo:"/"soc_hi:"
    frequencies describe no imposed row and must not be read against gamma.
    """
    reliability._check_draws(draws)
    out: dict[str, np.ndarray] = {}
    states = reliability._noise_states(scn.units, seed, scn.horizon)
    scheds = reliability._schedules(strategy, scn.units)
    for task in _tasks(scn.units, draws, scn.horizon):
        run = scn.units[task]
        real = reliability._unit_noise(run, scn, draws, states[task])
        sched = reliability._rows(scheds, task)
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


# ---------------------------------------------------------------------------
# The draws-major realization kernel and scoring, frozen as a reference
#
# A copy of the evaluator as it was before its kernel went time-major and
# began skipping the steps with no discomfort: every block is (units, draws,
# horizon), the contraction is drawn at every step, the discomfort
# cumulates through np.cumsum, and nothing is written into borrowed
# buffers.  It shares only the noise sampler, the system uniforms and the
# elementwise model functions of `ddu` with the evaluator under test.


class ReferenceWorlds:
    """The fleet-common expansion factors and contraction shocks of one
    evaluation, draws-major (m, horizon)."""

    def __init__(self, seed, m, scn):
        self.uniforms = {name: np.ascontiguousarray(u.T)
                         for name, u in reliability._system_uniforms(seed, m, scn.horizon).items()}

    def g(self, u, side):
        price = u.price_c if side == "upper" else u.price_d
        return ddu.expansion_fraction(np.asarray(price, dtype=float)[None, :], u.ddu, self.uniforms[f"g_{side}"])

    def h_shock(self, family, side):
        return contraction_shock(family, self.uniforms[f"h_{side}"])


def reference_discomfort(sched, pc_ref, pd_ref, avg, deadband, spec):
    horizon = sched.p_c.shape[-1]
    pc_ref = np.where(np.asarray(pc_ref) > 0, pc_ref, np.inf)
    pd_ref = np.where(np.asarray(pd_ref) > 0, pd_ref, np.inf)
    intensity = np.divide(sched.p_c, pc_ref)
    intensity += np.divide(sched.p_d, pd_ref)
    cum = np.cumsum(intensity, axis=-1)
    cum /= horizon
    lam = 1.0 if spec.discomfort_variant == "F1" else spec.lam
    soc = sched.soc[..., 1:]
    if spec.discomfort_variant == "F1":
        dev = 0.0
    elif spec.discomfort_variant == "F2":
        dev = np.maximum(np.abs(soc - avg) - deadband / 2.0, 0.0)
    else:
        dev = np.maximum(avg - soc, 0.0)
    cum *= lam
    cum += (1.0 - lam) * dev
    return cum


def reference_realize(units, sched, noise, worlds):
    """(upper, lower, crossings) of a run: (units, draws, horizon) bounds and
    the crossed pairs per unit, each crossed pair at its midpoint."""
    spec = units[0].ddu
    rd = reference_discomfort(sched, noise["pc_ref"][..., None], noise["pd_ref"][..., None],
                              noise["soc_baseline_avg"], noise["deadband"], spec)
    bounds = []
    for side, end in (("upper", "hi"), ("lower", "lo")):
        phys = np.array([getattr(u.params, f"soc_phys_{end}") for u in units], dtype=float)[:, None, None]
        diu, comfort = bound_ends(side, noise[f"soc_{end}"], phys, noise["soc_baseline_avg"], noise["deadband"])
        anchor = np.multiply(phys - diu, worlds.g(units[0], side))
        anchor += diu
        h = contraction_quantile_vec(np.multiply(rd, spec.beta_side(side)), spec, worlds.h_shock(spec.h_family, side))
        pull = np.subtract(comfort, anchor)
        pull *= h
        anchor += pull
        bounds.append(anchor)
    upper, lower = bounds
    crossed = lower > upper
    crossings = np.count_nonzero(crossed, axis=(1, 2))
    mid = 0.5 * (upper[crossed] + lower[crossed])
    upper[crossed] = mid
    lower[crossed] = mid
    return upper, lower, crossings


def reference_score_run(scn, units, sched, upper, lower):
    """(any_violation, erns, freq, cost_rt) of each unit of a run from its
    draws-major bounds."""
    soc = sched.soc[..., 1:]
    size = np.array([u.params.S for u in units], dtype=float)[:, None]
    over = np.maximum(np.subtract(soc, upper), 0.0)
    under = np.maximum(np.subtract(lower, soc), 0.0)
    violated = over > VIOLATION_TOL
    violated |= under > VIOLATION_TOL
    e_over = over.mean(axis=1) * size
    e_under = under.mean(axis=1) * size
    rt = UNDER_RESPONSE_MULT * e_under + OVER_RESPONSE_MULT * e_over
    over -= under
    any_violation = violated.any(axis=2)
    erns = over.mean(axis=1) * size
    freq = violated.mean(axis=1)
    return [(any_violation[i], erns[i], freq[i], float(np.dot(scn.tou_price, rt[i]))) for i in range(len(units))]


def reference_evaluation(strategies, scn, draws, seed):
    """Each strategy's report, and its realized bounds {unit id: (upper,
    lower, crossings)}, from the frozen kernel, one unit per run."""
    worlds = ReferenceWorlds(seed, draws, scn)
    states = reliability._noise_states(scn.units, seed, scn.horizon)
    noise = [reliability._unit_noise([u], scn, draws, [s]) for u, s in zip(scn.units, states)]
    reports, batches = {}, {}
    for name, strategy in strategies.items():
        any_violation = np.zeros(draws, dtype=bool)
        erns = np.zeros(scn.horizon)
        freq, cost_rt, crossings, batch = {}, 0.0, 0, {}
        for u, unit_noise in zip(scn.units, noise):
            sched = strategy.schedules[u.unit_id]
            rows = type(sched)(p_c=sched.p_c[None, None], p_d=sched.p_d[None, None], soc=sched.soc[None, None])
            upper, lower, unit_crossings = reference_realize([u], rows, unit_noise, worlds)
            batch[u.unit_id] = (upper[0], lower[0], int(unit_crossings[0]))
            ((unit_any, unit_erns, unit_freq, unit_rt),) = reference_score_run(scn, [u], rows, upper, lower)
            any_violation |= unit_any
            erns += unit_erns
            freq[u.unit_id] = unit_freq
            crossings += int(unit_crossings[0])
            cost_rt += unit_rt
        cost_da = strategy.objective_value
        reports[name] = ReliabilityReport(
            lorp=float(any_violation.mean()), erns=erns, erns_total_signed=float(erns.sum()),
            erns_total_abs=float(np.abs(erns).sum()), cost_da=cost_da, cost_rt=cost_rt, cost_tc=cost_da + cost_rt,
            violation_freq=freq, crossings=crossings, gamma=strategy.metadata.gamma, draws=draws, seed=seed)
        batches[name] = batch
    return reports, batches


def report_bits(report):
    """Every field of a ReliabilityReport in a form that compares bit for bit."""
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, dict):
            return {key: bits(v) for key, v in value.items()}
        if isinstance(value, float):
            return value.hex()
        return value
    return {name: bits(value) for name, value in vars(report).items()}
