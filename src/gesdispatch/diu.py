"""Decision-independent uncertainty propagated into storage-bound statistics.

Device identification errors and baseline-power noise are pushed through the
device-to-storage mapping by Monte-Carlo sampling.  `sample_bounds` is the one
sampler of that model: load-time propagation reduces its draws to per-bound
statistics (mean, standard deviation, and a table of normalized quantiles
that the chance-constraint rows read at their level), and the ex-post
evaluator realizes the same draws again.  A draw-invariant row has no spread,
and its table is one read-only array of zeros shared by every such row of
the same horizon.

Load-time propagation runs in a *workspace*: three (n, horizon) buffers
(`new_workspace`) that one unit at a time borrows.  For a thermal unit with
baseline noise (the fast path), in order:

- the second buffer, read as (horizon, n), takes each step's uniforms as a
  contiguous row, and the first takes the baseline draws
  (`distributions.sample_blocks`);
- the third, read as (horizon, n), takes the baseline draws sorted per
  step, from which both ratings' order statistics are read (`propagate_diu`);
- the charge rating goes into the second, and the discharge rating
  overwrites the baseline draws in the first;
- the third then holds each rating's squared deviations in turn
  (`_column_stats`).

Any other noisy unit samples into arrays of its own, and the third buffer
holds the deviations and then the sorted draws of each bound in turn.
Nothing the statistics return points into the workspace, so the next unit
may overwrite it.  A unit propagated without one allocates one for itself;
on a worker thread glibc hands that memory back to the OS between units,
so every unit would fault its pages in afresh.  The workspaces are
allocated by the thread that starts the workers (`pool.map_in_workspaces`):
buffers allocated inside a worker would stay in that worker's malloc arena
after the pool ends.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec
from .errors import InvalidSpec
from .ges import TCL_KINDS, DeviceDescription, GesParams, map_device_to_ges, thermal_ratings

#: below this spread a bound is treated as deterministic
SIGMA_FLOOR = 1e-9

#: default Monte-Carlo sample count for bound statistics
DEFAULT_SAMPLES = 10_000

BOUND_KINDS = ("p_c_max", "p_d_max", "soc_lo", "soc_hi", "alpha")

#: percent grid at which normalized empirical quantiles are tabulated
LEVELS = np.arange(1, 100) / 100.0

#: tolerance beyond a tabulated level within which a request still uses it
LEVEL_SLACK = 1e-9


def tabulated(level: float) -> bool:
    """Whether `BoundStats.inv_cdf` can read `level` (LEVELS is symmetric: gamma and 1 - gamma alike)."""
    return LEVELS[0] - LEVEL_SLACK <= level <= LEVELS[-1] + LEVEL_SLACK


@dataclass
class BoundStats:
    """Per-step statistics of one uncertain bound series."""

    mu: np.ndarray
    sigma: np.ndarray
    table: np.ndarray | None = None  # normalized quantiles, shape (len(LEVELS), T)

    def inv_cdf(self, level: float) -> np.ndarray:
        """Normalized quantile per step at `level`, from the tabulated grid.

        Rounds toward the tail the level serves: down for a level below 0.5,
        up for one above, so a tail factor is never less conservative than
        the one requested on either side; the 1e-9 slack keeps on-grid levels
        such as 0.05 and 1 - 0.05 on their own row.
        """
        if self.table is None:
            return np.zeros_like(self.mu)
        if not tabulated(level):
            raise InvalidSpec(f"quantile level {level} is outside the tabulated levels [{LEVELS[0]}, {LEVELS[-1]}], "
                              f"so gamma must lie in [{LEVELS[0]}, {LEVELS[-1]}]")
        if level < 0.5:
            return self.table[int(np.searchsorted(LEVELS, level + LEVEL_SLACK, side="right")) - 1]
        return self.table[int(np.searchsorted(LEVELS, level - LEVEL_SLACK))]

    def quantile(self, level: float) -> np.ndarray:
        """Per-step `level`-quantile of the bound, ``mu + inv_cdf(level) * sigma``."""
        return self.mu + self.inv_cdf(level) * self.sigma

    @classmethod
    def deterministic(cls, values: np.ndarray) -> "BoundStats":
        values = np.asarray(values, dtype=float)
        return cls(mu=values.copy(), sigma=np.zeros_like(values))


@dataclass
class UnitBoundStats:
    """Bound statistics for one unit, keyed by bound kind."""

    unit_id: str
    p_c_max: BoundStats
    p_d_max: BoundStats
    soc_lo: BoundStats
    soc_hi: BoundStats
    alpha: BoundStats

    def get(self, kind: str) -> BoundStats:
        if kind not in BOUND_KINDS:
            raise InvalidSpec(f"unknown bound kind {kind!r}")
        return getattr(self, kind)

    @classmethod
    def deterministic(cls, params: GesParams) -> "UnitBoundStats":
        return cls(
            unit_id=params.unit_id,
            p_c_max=BoundStats.deterministic(params.p_c_max),
            p_d_max=BoundStats.deterministic(params.p_d_max),
            soc_lo=BoundStats.deterministic(params.soc_lo),
            soc_hi=BoundStats.deterministic(params.soc_hi),
            alpha=BoundStats.deterministic(params.alpha),
        )


@lru_cache(maxsize=None)
def _zero_table(horizon: int) -> np.ndarray:
    """The read-only all-zero quantile table shared by the draw-invariant rows.

    Two threads that miss the cache at once each build one; both are equal.
    """
    table = np.zeros((LEVELS.size, horizon))
    table.flags.writeable = False
    return table


def _ranks(n: int) -> np.ndarray:
    """The 0-based ranks among `n` sorted draws that tabulate LEVELS
    (nearest rank, ``ceil(level * n)``)."""
    return np.minimum(np.ceil(LEVELS * n).astype(int), n) - 1


def _sort_draws(draws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each step's draws of `draws` (..., n, horizon) in ascending order, as
    the contiguous rows of `out` (..., horizon, n), which is returned."""
    np.copyto(out, np.swapaxes(draws, -1, -2))
    out.sort(axis=-1)
    return out


def _column_stats(samples: np.ndarray, scratch: np.ndarray | None = None,
                  mu: np.ndarray | None = None, ranked: np.ndarray | None = None) -> BoundStats:
    """Empirical mean/sd and normalized quantile table for each column of `samples`.

    A row broadcast over the draws (stride 0 on axis 0) that lies within
    SIGMA_FLOOR/2 of its mean everywhere has a zero sd and the shared
    read-only zero table: `std` of n equal values is their distance to the
    same mean, up to rounding.  Any other input gets a table of its own.

    `samples` is only read.  The squared deviations go into `scratch`, a
    C-contiguous array of the same shape that the caller lends (one is
    allocated when it is None); in that layout
    ``sqrt(sum((x - mu)**2, axis=0) / n)`` is bit-identical to
    ``samples.std(axis=0)``.  The table reads the LEVELS ranks of each
    sorted column: `ranked`, (len(LEVELS), horizon), when the caller has
    them, else a transposed copy in `scratch` sorted along its contiguous
    axis (`_sort_draws`).  `mu`, when given, is ``samples.mean(axis=0)``
    computed by the caller.  Sorting picks values, not positions, so the
    table does not depend on the layout in which it was sorted.
    """
    n, horizon = samples.shape
    if mu is None:
        mu = samples.mean(axis=0)
    if samples.strides[0] == 0 and np.all(np.abs(samples[0] - mu) < SIGMA_FLOOR / 2):
        return BoundStats(mu=mu, sigma=np.zeros(horizon), table=_zero_table(horizon))
    work = np.subtract(samples, mu, out=scratch)
    np.multiply(work, work, out=work)
    sigma = np.sqrt(work.sum(axis=0) / n)
    live = sigma >= SIGMA_FLOOR
    sigma[~live] = 0.0
    if ranked is None:
        # normalizing is monotone, so sorting first picks the same ranks
        ranked = _sort_draws(samples, work.reshape(horizon, n))[:, _ranks(n)].T
    table = np.zeros((LEVELS.size, horizon))
    table[:, live] = (ranked[:, live] - mu[live]) / sigma[live]
    return BoundStats(mu=mu, sigma=sigma, table=table)


def tcl_baseline_bound_samples(dev, params: GesParams, base: np.ndarray,
                               p_c_max: np.ndarray | None = None,
                               p_d_max: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Vectorized bound realizations for a thermal unit whose only uncertain
    input is its baseline power draw `base` of shape (n, horizon).

    Matches map_device_to_ges row-by-row: the thermal coefficients and SoC
    coordinates do not depend on the baseline, so only the power ratings vary
    and every other bound is the row of the unit's mapping `params`
    (``map_device_to_ges(dev, dt, horizon)``), one (horizon,) row shared by
    all draws.  The power ratings are (n, horizon), written into `p_c_max`
    and `p_d_max` when those buffers are given (`p_d_max` may be `base` itself).
    Elementwise, so `dev` and `params` may hold fields stacked over a run of
    units (`_stacked`) against a (units, n, horizon) `base`.
    """
    p_c_max, p_d_max = thermal_ratings(dev.p_max, dev.p_min, base, base, p_c_max, p_d_max)
    rows = {key: np.asarray(getattr(params, attr), dtype=float) for key, attr in _SAMPLED.items() if attr in _ROWS}
    return {"p_c_max": p_c_max, "p_d_max": p_d_max, **rows}


#: sampled per-step keys and the GesParams attribute each one reads
_SAMPLED = {"p_c_max": "p_c_max", "p_d_max": "p_d_max", "soc_lo": "soc_lo", "soc_hi": "soc_hi",
            "alpha": "alpha", "avg": "soc_baseline_avg", "deadband": "deadband"}
#: the GesParams rows that the thermal fast path shares by all draws: all but the ratings
_ROWS = tuple(attr for key, attr in _SAMPLED.items() if key not in ("p_c_max", "p_d_max"))


def unit_states(seed: int, units: Sequence[tuple[str, dict, list | None]], horizon: int,
                prefix: tuple[int, ...] = ()) -> list[np.ndarray]:
    """The seed states of the streams `sample_bounds` draws, for each
    (unit id, `unit_dists`, `baseline_dist`) of `units`, in one pass.

    A unit's streams are the SeedSequence children ``(*prefix, j)`` of
    ``[seed, crc32(unit id)]`` (`distributions.spawn_states`): one per entry
    of `unit_dists`, in name order, then one per step when `baseline_dist`
    is given.  The blocks are read-only, so worker threads may share them.
    """
    return dist.spawn_states([(int(seed), zlib.crc32(uid.encode())) for uid, _, _ in units],
                             [len(unit_dists) + (horizon if baseline_dist is not None else 0)
                              for _, unit_dists, baseline_dist in units], prefix)


def sampler_branch(dev: DeviceDescription, unit_dists: dict, baseline_dist: list | None) -> str:
    """The branch of `sample_bounds` that realizes a unit: ``"fixed"`` (no
    noise), ``"tcl"`` (a thermal unit with baseline noise only, the fast
    path) or ``"map"`` (every draw mapped through `map_device_to_ges`)."""
    if not unit_dists:
        if baseline_dist is None:
            return "fixed"
        if dev.kind in TCL_KINDS:
            return "tcl"
    return "map"


def _stacked(objs, names) -> SimpleNamespace:
    """The named fields of `objs` on a leading units axis, broadcasting
    against (units, n, horizon): (units, 1, 1) scalars, (units, 1, horizon) rows."""
    return SimpleNamespace(**{name: np.array([getattr(o, name) for o in objs], dtype=float)
                              .reshape(len(objs), 1, -1) for name in names})


class RunMember(NamedTuple):
    """What `sample_bounds` reads of one unit of a run; a `scenario.UnitSpec`
    has the same attributes."""

    dev: DeviceDescription
    params: GesParams  # map_device_to_ges(dev, dt, horizon)
    unit_dists: dict[str, DistributionSpec]
    baseline_dist: list[DistributionSpec] | None


def sample_bounds(
    run: Sequence[RunMember],
    dt: float,
    horizon: int,
    n: int,
    states: Sequence[np.ndarray],
    workspace: Sequence[np.ndarray] | None = None,
    sorted_base: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """`n` draws of the storage parameters of a run of units under
    identification and baseline noise: the one sampler of the DIU model.

    Every unit of `run` takes the same `sampler_branch`, and ``states[i]``
    is unit i's block of `unit_states`.  Returns the bounds `p_c_max`,
    `p_d_max`, `soc_lo`, `soc_hi`, `alpha` and the comfort anchors `avg`
    (baseline SoC average) and `deadband`, each (units, n, horizon) where it
    varies by draw and (units, 1, horizon) where it does not; the ratings
    are always (units, n, horizon), read-only broadcasts of the rows in a
    noise-free run.  Per unit and draw, the values do not depend on which
    run the unit is sampled in.  With a `workspace` of two C-contiguous
    (units, n, horizon) buffers the thermal fast path writes into them: the
    uniforms (as (units, horizon, n) rows) and then the charge rating into
    the second, the baseline draws and then the discharge rating into the
    first.  Given `sorted_base`, a C-contiguous (units, horizon, n) buffer,
    the fast path also writes each step's baseline draws into it in
    ascending order (`_sort_draws`) before the discharge rating overwrites
    them; the other branches leave it alone.
    """
    k = len(run)
    branch = sampler_branch(run[0].dev, run[0].unit_dists, run[0].baseline_dist)
    if branch == "fixed":
        out = vars(_stacked([m.params for m in run], _SAMPLED.values()))
        out = {key: out[attr] for key, attr in _SAMPLED.items()}
        for key in ("p_c_max", "p_d_max"):
            out[key] = np.broadcast_to(out[key], (k, n, horizon))
        return out
    if branch == "tcl":
        buffers = (None, None) if workspace is None else workspace[:2]
        uniforms = None if buffers[1] is None else buffers[1].reshape(k, horizon, n)
        base = dist.sample_blocks([m.baseline_dist for m in run], n, states, out=buffers[0], uniforms=uniforms)
        if sorted_base is not None:
            _sort_draws(base, sorted_base)
        # nothing reads the baseline draws after the discharge rating
        return tcl_baseline_bound_samples(_stacked([m.dev for m in run], ("p_max", "p_min")),
                                          _stacked([m.params for m in run], _ROWS),
                                          base, p_c_max=buffers[1], p_d_max=base)

    out = {key: np.empty((k, n, horizon)) for key in _SAMPLED}
    for i, member in enumerate(run):
        names = sorted(member.unit_dists)
        draws = dist.sample_columns([member.unit_dists[name] for name in names], n, states[i][:len(names)])
        base = (None if member.baseline_dist is None
                else dist.sample_columns(member.baseline_dist, n, states[i][len(names):]))
        for j in range(n):
            kw = dict(zip(names, draws[j].tolist()))
            if base is not None:
                kw["baseline_power"] = base[j]
            draw_params = map_device_to_ges(replace(member.dev, **kw), dt, horizon)
            for key, attr in _SAMPLED.items():
                out[key][i, j] = getattr(draw_params, attr)
    return out


def propagate_diu(
    unit_dists: dict[str, DistributionSpec],
    dev: DeviceDescription,
    baseline_dist: list[DistributionSpec] | None,
    dt: float,
    horizon: int,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workspace: np.ndarray | None = None,
    states: np.ndarray | None = None,
    params: GesParams | None = None,
) -> UnitBoundStats:
    """Monte-Carlo statistics of the storage bounds under parameter noise.

    `unit_dists` maps DeviceDescription field names to distributions of the
    identified parameters; `baseline_dist` optionally gives one distribution
    per step for the baseline power draw.  The statistics do not depend on
    a violation level: the chance rows read quantiles from the table.
    `workspace`, from `new_workspace(n, horizon)`, is scratch that the call
    overwrites (see the module docstring for what it holds when); the
    statistics are bit-identical with or without it.
    `states` (the unit's block of `unit_states` at `seed`) and `params`
    (``map_device_to_ges(dev, dt, horizon)``) are computed here when a
    caller that has them for many units does not pass them.
    """
    if n < 1:
        raise InvalidSpec(f"sample count must be >= 1, got {n}")
    valid_fields = {f.name for f in fields(DeviceDescription)}
    for name in unit_dists:
        if name not in valid_fields:
            raise InvalidSpec(f"unknown device parameter {name!r}")
    if baseline_dist is not None and len(baseline_dist) != horizon:
        raise InvalidSpec("baseline_dist must have one distribution per step")

    if states is None:
        states = unit_states(seed, [(dev.unit_id, unit_dists, baseline_dist)], horizon)[0]
    if params is None:
        params = map_device_to_ges(dev, dt, horizon)
    if workspace is None:
        workspace = new_workspace(n, horizon)
    scratch = workspace[2]
    fast = sampler_branch(dev, unit_dists, baseline_dist) == "tcl"
    samples = sample_bounds([RunMember(dev, params, unit_dists, baseline_dist)], dt, horizon, n, [states],
                            workspace[:2, None], sorted_base=scratch.reshape(1, horizon, n) if fast else None)
    ranked = {}
    if fast:
        # p_c_max falls and p_d_max rises with the baseline draw b, so rank r
        # of p_c_max is the rating of b's rank n-1-r, and rank r of p_d_max
        # that of b's rank r: one sort gives both, read before `scratch`
        # takes the deviations
        order, ranks = scratch.reshape(horizon, n), _ranks(n)
        ranked["p_c_max"], ranked["p_d_max"] = thermal_ratings(dev.p_max, dev.p_min, order[:, n - 1 - ranks].T,
                                                               order[:, ranks].T)
    draws = {kind: np.broadcast_to(samples[kind][0], (n, horizon)) for kind in BOUND_KINDS}
    # the rows shared by all draws are averaged in one call: a stride-0
    # axis sums in order, so each row's mean keeps the bits of its own call
    invariant = [kind for kind in BOUND_KINDS if draws[kind].strides[0] == 0]
    mus = {}
    if invariant:
        rows = np.concatenate([draws[kind][0] for kind in invariant])
        mus = dict(zip(invariant, np.split(np.broadcast_to(rows, (n, rows.size)).mean(axis=0), len(invariant))))
    return UnitBoundStats(
        unit_id=dev.unit_id,
        **{kind: _column_stats(draws[kind], scratch, mu=mus.get(kind), ranked=ranked.get(kind))
           for kind in BOUND_KINDS},
    )


def new_workspace(n: int, horizon: int) -> np.ndarray:
    """Scratch for `propagate_diu` of `n` draws: three (n, horizon) buffers."""
    if n < 1:
        raise InvalidSpec(f"sample count must be >= 1, got {n}")
    return np.empty((3, n, horizon))


def series_stats(dists_per_t: list[DistributionSpec], n: int = DEFAULT_SAMPLES, seed: int = 0) -> BoundStats:
    """Empirical statistics of an exogenous per-step series (load, renewables)."""
    states = dist.spawn_states([[seed]], [len(dists_per_t)])[0]
    return _column_stats(dist.sample_columns(dists_per_t, n, states))


class SeriesQuantile(NamedTuple):
    """Closed-form per-step mean, sd and normalized quantile at one level."""

    mu: np.ndarray
    sigma: np.ndarray
    f_inv: np.ndarray  # quantile of (X - mu)/sigma at the requested level


def analytic_series_stats(dists_per_t: list[DistributionSpec], level: float) -> SeriesQuantile:
    """Closed-form mean/sd/normalized quantile per step (no sampling)."""
    mu = np.array([dist.mean(s) for s in dists_per_t])
    sigma = np.array([dist.std(s) for s in dists_per_t])
    f_inv = np.array([dist.normalized_quantile(s, level) for s in dists_per_t])
    sigma = np.where(sigma < SIGMA_FLOOR, 0.0, sigma)
    f_inv = np.where(sigma == 0.0, 0.0, f_inv)
    return SeriesQuantile(mu=mu, sigma=sigma, f_inv=f_inv)
