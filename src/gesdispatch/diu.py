"""Decision-independent uncertainty propagated into storage-bound statistics.

Device identification errors and baseline-power noise are pushed through the
device-to-storage mapping by Monte-Carlo sampling.  The output per bound is
the empirical mean, standard deviation, and normalized tail quantile that the
chance-constraint rows consume.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec
from .errors import InvalidSpec
from .ges import DeviceDescription, GesParams, map_device_to_ges

#: below this spread a bound is treated as deterministic
SIGMA_FLOOR = 1e-9

#: default Monte-Carlo sample count for bound statistics
DEFAULT_SAMPLES = 10_000

BOUND_KINDS = ("p_c_max", "p_d_max", "soc_lo", "soc_hi", "alpha")

#: percent grid at which normalized empirical quantiles are tabulated
LEVELS = np.arange(1, 100) / 100.0

#: tolerance below a tabulated level within which a request still uses it
LEVEL_SLACK = 1e-9


@dataclass
class BoundStats:
    """Per-step statistics of one uncertain bound series."""

    mu: np.ndarray
    sigma: np.ndarray
    f_inv: np.ndarray  # normalized empirical quantile of (X - mu)/sigma at 1 - gamma
    sample_count: int
    seed: int
    table: np.ndarray | None = None  # normalized quantiles, shape (len(LEVELS), T)

    def inv_cdf(self, level: float) -> np.ndarray:
        """Normalized quantile per step at `level`, from the tabulated grid.

        Rounds up to the smallest tabulated level at or above `level`, so a
        tail factor is never less conservative than the one requested; the
        1e-9 slack keeps on-grid levels such as 1 - 0.05 on their own row.
        """
        if self.table is None:
            return np.zeros_like(self.mu)
        if level > LEVELS[-1] + LEVEL_SLACK:
            raise InvalidSpec(
                f"quantile level {level} is above the largest tabulated level "
                f"{LEVELS[-1]}; the smallest supported gamma is {1.0 - LEVELS[-1]:.2f}"
            )
        return self.table[int(np.searchsorted(LEVELS, level - LEVEL_SLACK))]

    @classmethod
    def deterministic(cls, values: np.ndarray, seed: int = 0) -> "BoundStats":
        values = np.asarray(values, dtype=float)
        z = np.zeros_like(values)
        return cls(mu=values.copy(), sigma=z, f_inv=z.copy(), sample_count=0, seed=seed)


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


def _column_stats(samples: np.ndarray, gamma: float, sample_count: int, seed: int) -> BoundStats:
    """Empirical mean/sd/normalized tail quantile for each column of `samples`."""
    n, horizon = samples.shape
    mu = samples.mean(axis=0)
    sigma = samples.std(axis=0)
    f_inv = np.zeros_like(mu)
    table = np.zeros((LEVELS.size, horizon))
    ranks = np.minimum(np.ceil(LEVELS * n).astype(int), n) - 1
    gamma_rank = min(int(np.ceil((1.0 - gamma) * n)), n) - 1
    for t in range(horizon):
        if sigma[t] >= SIGMA_FLOOR:
            z = np.sort((samples[:, t] - mu[t]) / sigma[t])
            table[:, t] = z[ranks]
            f_inv[t] = z[gamma_rank]
        else:
            sigma[t] = 0.0
    return BoundStats(mu=mu, sigma=sigma, f_inv=f_inv, sample_count=sample_count, seed=seed, table=table)


def tcl_baseline_bound_samples(dev, base: np.ndarray, dt: float, horizon: int) -> dict[str, np.ndarray]:
    """Vectorized bound realizations for a thermal unit whose only uncertain
    input is its baseline power draw `base` of shape (n, horizon).

    Matches map_device_to_ges row-by-row: the thermal coefficients and SoC
    coordinates do not depend on the baseline, so only the power ratings vary.
    The power ratings are (n, horizon); every other bound is the same in all
    draws and is returned as one (horizon,) row.
    """
    params = map_device_to_ges(dev, dt, horizon)
    p_c_max = np.clip(dev.p_max - base, 0.0, None)
    p_d_max = np.clip(base - dev.p_min, 0.0, None)
    row = lambda v: np.asarray(v, dtype=float)  # noqa: E731
    return {
        "p_c_max": p_c_max,
        "p_d_max": p_d_max,
        "soc_lo": row(params.soc_lo),
        "soc_hi": row(params.soc_hi),
        "alpha": row(params.alpha),
        "avg": row(params.soc_baseline_avg),
        "deadband": row(params.deadband),
        "pc_ref": p_c_max.mean(axis=1),
        "pd_ref": p_d_max.mean(axis=1),
    }


def baseline_only_fast_path(dev, unit_dists) -> bool:
    """True when the vectorized thermal-unit sampling path applies."""
    return dev.kind.startswith("TCL") and not unit_dists


def propagate_diu(
    unit_dists: dict[str, DistributionSpec],
    dev: DeviceDescription,
    baseline_dist: list[DistributionSpec] | None,
    dt: float,
    horizon: int,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    gamma: float = 0.05,
) -> UnitBoundStats:
    """Monte-Carlo statistics of the storage bounds under parameter noise.

    `unit_dists` maps DeviceDescription field names to distributions of the
    identified parameters; `baseline_dist` optionally gives one distribution
    per step for the baseline power draw.
    """
    if n < 1:
        raise InvalidSpec(f"sample count must be >= 1, got {n}")
    valid_fields = {f.name for f in fields(DeviceDescription)}
    for name in unit_dists:
        if name not in valid_fields:
            raise InvalidSpec(f"unknown device parameter {name!r}")
    if baseline_dist is not None and len(baseline_dist) != horizon:
        raise InvalidSpec("baseline_dist must have one distribution per step")

    ss = np.random.SeedSequence([seed, zlib.crc32(dev.unit_id.encode())])
    children = ss.spawn(len(unit_dists) + (horizon if baseline_dist is not None else 0))
    draws = {
        name: dist.sample(spec, n, children[k])
        for k, (name, spec) in enumerate(sorted(unit_dists.items()))
    }
    base = None
    if baseline_dist is not None:
        base = dist.sample_columns(baseline_dist, n, children[len(unit_dists):])

    if base is not None and baseline_only_fast_path(dev, unit_dists):
        fast = tcl_baseline_bound_samples(dev, base, dt, horizon)
        cols = {kind: np.broadcast_to(fast[kind], (n, horizon)) for kind in BOUND_KINDS}
    else:
        cols = {kind: np.empty((n, horizon)) for kind in BOUND_KINDS}
        for j in range(n):
            kw = {name: float(vals[j]) for name, vals in draws.items()}
            if base is not None:
                kw["baseline_power"] = base[j]
            params = map_device_to_ges(replace(dev, **kw), dt, horizon)
            for kind in BOUND_KINDS:
                cols[kind][j] = getattr(params, kind)

    return UnitBoundStats(
        unit_id=dev.unit_id,
        **{kind: _column_stats(cols[kind], gamma, n, seed) for kind in BOUND_KINDS},
    )


def series_stats(
    dists_per_t: list[DistributionSpec],
    gamma: float,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> BoundStats:
    """Empirical statistics of an exogenous per-step series (load, renewables)."""
    children = np.random.SeedSequence([seed]).spawn(len(dists_per_t))
    return _column_stats(dist.sample_columns(dists_per_t, n, children), gamma, n, seed)


def analytic_series_stats(dists_per_t: list[DistributionSpec], level: float) -> BoundStats:
    """Closed-form mean/sd/normalized quantile per step (no sampling)."""
    mu = np.array([dist.mean(s) for s in dists_per_t])
    sigma = np.array([dist.std(s) for s in dists_per_t])
    f_inv = np.array([dist.normalized_quantile(s, level) for s in dists_per_t])
    sigma = np.where(sigma < SIGMA_FLOOR, 0.0, sigma)
    f_inv = np.where(sigma == 0.0, 0.0, f_inv)
    return BoundStats(mu=mu, sigma=sigma, f_inv=f_inv, sample_count=0, seed=0)
