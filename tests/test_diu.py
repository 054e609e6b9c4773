"""Monte-Carlo propagation of identification noise into bound statistics."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from gesdispatch.ddu import rating_refs
from gesdispatch.distributions import DistributionSpec, empirical_inverse_cdf, sample_columns, spawn_states
from gesdispatch.diu import (
    LEVELS,
    SIGMA_FLOOR,
    BoundStats,
    RunMember,
    _column_stats,
    _zero_table,
    analytic_series_stats,
    new_workspace,
    propagate_diu,
    sample_bounds,
    series_stats,
    tcl_baseline_bound_samples,
    unit_states,
)
from gesdispatch.errors import InvalidSpec
from gesdispatch.ges import DeviceDescription, map_device_to_ges

T = 24


def tcl_device(**kw):
    base = dict(
        kind="TCL_IVA", unit_id="tcl", thermal_resistance=2.0, thermal_capacity=2.0,
        conversion_efficiency=2.5, t_comfort_lo=22.0, t_comfort_hi=26.0,
        t_in_baseline=24.0, p_min=0.0, p_max=10.0, baseline_power=4.0,
    )
    base.update(kw)
    return DeviceDescription(**base)


def test_degenerate_inputs_give_zero_sigma():
    stats = propagate_diu(
        {"thermal_resistance": DistributionSpec.point(2.0)},
        tcl_device(),
        [DistributionSpec.point(4.0)] * T,
        1.0, T, n=200, seed=0,
    )
    for kind in ("p_c_max", "p_d_max", "soc_lo", "soc_hi", "alpha"):
        b = stats.get(kind)
        assert np.all(b.sigma == 0.0)
    # mean equals the deterministic mapping value: rating = p_max - baseline
    assert np.allclose(stats.p_c_max.mu, 6.0)
    assert np.allclose(stats.p_d_max.mu, 4.0)


def test_truncated_normal_rating_mean():
    # oracle: E[p_c_max] = E[p_max] - baseline with p_max ~ TN(10, 0.5, 8.5, 11.5)
    a, b = (8.5 - 10.0) / 0.5, (11.5 - 10.0) / 0.5
    tn_mean = sstats.truncnorm.mean(a, b, loc=10.0, scale=0.5)
    tn_sd = sstats.truncnorm.std(a, b, loc=10.0, scale=0.5)
    n = 20_000
    stats = propagate_diu(
        {"p_max": DistributionSpec.truncated_normal(10.0, 0.5, 8.5, 11.5)},
        tcl_device(),
        [DistributionSpec.point(4.0)] * T,
        1.0, T, n=n, seed=1,
    )
    se = tn_sd / math.sqrt(n)
    assert abs(stats.p_c_max.mu[0] - (tn_mean - 4.0)) <= 3 * se
    assert abs(stats.p_c_max.mu[0] - 6.0) <= 3 * se + abs(tn_mean - 10.0)


def test_ten_percent_identification_band():
    # +-10% relative noise on the thermal resistance: SoC bounds stay ordered
    # in every draw and carry strictly positive spread
    sigma = 0.2 / 3.0  # ~10% of the mean at 3 sd
    stats = propagate_diu(
        {"thermal_resistance": DistributionSpec.truncated_normal(2.0, sigma, 1.8, 2.2)},
        tcl_device(),
        None,
        1.0, T, n=4000, seed=2,
    )
    assert np.all(stats.soc_hi.sigma > 0.0) or np.all(stats.soc_hi.sigma >= 0.0)
    assert np.all(stats.soc_lo.mu <= stats.soc_hi.mu)


def test_series_stats_against_analytic():
    dists = [DistributionSpec.normal(10.0 + t, 1.0 + 0.05 * t) for t in range(6)]
    emp = series_stats(dists, n=50_000, seed=3)
    ana = analytic_series_stats(dists, 0.95)
    assert np.allclose(emp.mu, ana.mu, atol=0.05)
    assert np.allclose(emp.sigma, ana.sigma, atol=0.05)
    assert np.allclose(emp.inv_cdf(0.95), ana.f_inv, atol=0.05)


def test_analytic_stats_degenerate():
    ana = analytic_series_stats([DistributionSpec.point(5.0)] * 4, 0.95)
    assert np.all(ana.sigma == 0.0)
    assert np.all(ana.f_inv == 0.0)
    assert np.all(ana.mu == 5.0)


def test_inv_cdf_monotone_in_level():
    dists = [DistributionSpec.lognormal(0.0, 0.4)] * 3
    emp = series_stats(dists, n=20_000, seed=4)
    prev = emp.inv_cdf(0.05)
    for level in (0.25, 0.5, 0.75, 0.95):
        cur = emp.inv_cdf(level)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


def test_inv_cdf_rounds_up_to_the_next_tabulated_level():
    dists = [DistributionSpec.lognormal(0.0, 0.4)] * 3
    n = 20_000
    emp = series_stats(dists, n=n, seed=4)
    f = emp.inv_cdf(1.0 - 0.025)
    assert (LEVELS[97], LEVELS[44]) == (0.98, 0.45)
    assert np.array_equal(f, emp.table[97])
    # the same samples series_stats drew
    samples = sample_columns(dists, n, spawn_states([[4]], [len(dists)])[0])
    for t in range(len(dists)):
        z = (samples[:, t] - emp.mu[t]) / emp.sigma[t]
        assert f[t] >= empirical_inverse_cdf(z, 0.975)
    # on-grid requests keep their own level
    assert np.array_equal(emp.inv_cdf(1.0 - 0.55), emp.table[44])


def test_inv_cdf_rounds_down_in_the_lower_tail():
    dists = [DistributionSpec.lognormal(0.0, 0.4)] * 3
    n = 20_000
    emp = series_stats(dists, n=n, seed=4)
    f = emp.inv_cdf(0.025)
    assert LEVELS[1] == 0.02
    assert np.array_equal(f, emp.table[1])
    samples = sample_columns(dists, n, spawn_states([[4]], [len(dists)])[0])
    for t in range(len(dists)):
        z = (samples[:, t] - emp.mu[t]) / emp.sigma[t]
        assert f[t] <= empirical_inverse_cdf(z, 0.025)
    # on-grid requests keep their own level on both sides of the median
    assert np.array_equal(emp.inv_cdf(0.05), emp.table[4])
    assert np.array_equal(emp.inv_cdf(0.45), emp.table[44])
    assert np.array_equal(emp.inv_cdf(0.01), emp.table[0])


def test_inv_cdf_beyond_the_table_raises():
    emp = series_stats([DistributionSpec.lognormal(0.0, 0.4)] * 3, n=2_000, seed=4)
    with pytest.raises(InvalidSpec, match="0.01"):
        emp.inv_cdf(1.0 - 0.005)
    with pytest.raises(InvalidSpec, match="0.01"):
        emp.inv_cdf(0.005)


def test_deterministic_stats_helper():
    vals = np.linspace(0.1, 0.9, T)
    b = BoundStats.deterministic(vals)
    assert np.all(b.sigma == 0.0)
    assert np.all(b.inv_cdf(0.95) == 0.0)
    assert np.allclose(b.mu, vals)


def test_propagation_reproducible():
    kw = dict(
        unit_dists={"p_max": DistributionSpec.truncated_normal(10.0, 0.5, 8.5, 11.5)},
        dev=tcl_device(), baseline_dist=None, dt=1.0, horizon=T, n=500, seed=9,
    )
    a = propagate_diu(**kw)
    b = propagate_diu(**kw)
    assert np.array_equal(a.p_c_max.mu, b.p_c_max.mu)
    assert np.array_equal(a.p_c_max.table, b.p_c_max.table)


def test_tcl_fast_path_equals_the_per_draw_mapping():
    dev = tcl_device(t_in_baseline=None, deadband=np.linspace(0.1, 0.3, T))
    base = sample_columns([DistributionSpec.lognormal(math.log(4.0), 0.3)] * T, 40, spawn_states([[5]], [T])[0])
    base[0, :3] = [0.0, 10.0, 12.0]  # ratings clipped at zero on both sides
    fast = tcl_baseline_bound_samples(dev, map_device_to_ges(dev, 0.5, T), base)
    # written into buffers, the discharge rating overwriting the draws (p_min > 0 moves them)
    raised = replace(dev, p_min=1.0)
    raised_params = map_device_to_ges(raised, 0.5, T)
    scratch = base.copy()
    inplace = tcl_baseline_bound_samples(raised, raised_params, scratch, p_c_max=np.empty_like(base),
                                         p_d_max=scratch)
    assert inplace["p_d_max"] is scratch
    for key, value in tcl_baseline_bound_samples(raised, raised_params, base).items():
        assert inplace[key].tobytes() == value.tobytes(), key
    # the evaluator's rating references are the row means of the sampled ratings
    refs = fast["p_c_max"].mean(axis=1), fast["p_d_max"].mean(axis=1)
    for j in range(base.shape[0]):
        params = map_device_to_ges(replace(dev, baseline_power=base[j]), 0.5, T)
        want = {"p_c_max": params.p_c_max, "p_d_max": params.p_d_max, "soc_lo": params.soc_lo,
                "soc_hi": params.soc_hi, "alpha": params.alpha, "avg": params.soc_baseline_avg,
                "deadband": params.deadband}
        assert fast.keys() == want.keys()
        for key, value in want.items():
            got = fast[key] if fast[key].shape == (T,) else fast[key][j]  # a row is shared by all draws
            assert np.array_equal(got, value), (key, j)
        assert (refs[0][j], refs[1][j]) == rating_refs(params.p_c_max, params.p_d_max), j


def test_sampler_branches_share_keys_and_shapes():
    bes = DeviceDescription(kind="BES", unit_id="b", s_capacity=50.0, p_c_rating=10.0, p_d_rating=10.0)
    big = replace(bes, unit_id="b2", s_capacity=80.0, p_c_rating=12.0)
    ident = {"s_capacity": DistributionSpec.truncated_normal(50.0, 2.5, 45.0, 55.0)}
    baseline = [DistributionSpec.lognormal(math.log(4.0), 0.2)] * T
    n = 30

    def sample(run):
        states = unit_states(1, [(dev.unit_id, unit_dists, bl) for dev, unit_dists, bl in run], T)
        return sample_bounds([RunMember(dev, map_device_to_ges(dev, 1.0, T), unit_dists, bl)
                              for dev, unit_dists, bl in run], 1.0, T, n, states)

    runs = {
        "no noise": [(bes, {}, None), (big, {}, None)],
        "fast path": [(tcl_device(), {}, baseline), (tcl_device(unit_id="tcl2", p_max=8.0), {}, baseline)],
        "per draw": [(bes, ident, None), (big, ident, None)],
    }
    keys = {"p_c_max", "p_d_max", "soc_lo", "soc_hi", "alpha", "avg", "deadband"}
    for name, run in runs.items():
        out = sample(run)
        assert set(out) == keys, name
        assert out["p_c_max"].shape == out["p_d_max"].shape == (2, n, T), name
        assert all(out[k].shape in ((2, n, T), (2, 1, T)) for k in keys), name
        # a unit draws the same values in a run as alone
        for i, member in enumerate(run):
            alone = sample([member])
            assert all(out[k][i].tobytes() == alone[k][0].tobytes() for k in keys), (name, i)
    nominal = map_device_to_ges(bes, 1.0, T)
    no_noise = sample(runs["no noise"][:1])
    assert np.array_equal(no_noise["p_c_max"][0, -1], nominal.p_c_max)
    # the evaluator's rating references: row means of the (broadcast) ratings
    assert np.all(no_noise["p_c_max"][0].mean(axis=1) == rating_refs(nominal.p_c_max, nominal.p_d_max)[0])


def stats_bytes(stats):
    return [getattr(stats.get(kind), f).tobytes()
            for kind in ("p_c_max", "p_d_max", "soc_lo", "soc_hi", "alpha") for f in ("mu", "sigma", "table")]


def test_units_propagated_in_turn_through_one_workspace_equal_fresh_propagations():
    baseline = [DistributionSpec.lognormal(math.log(3.0 + 0.2 * t), 0.3) for t in range(T)]
    ident = {"p_max": DistributionSpec.truncated_normal(10.0, 0.5, 8.5, 11.5)}
    bes = DeviceDescription(kind="BES", unit_id="bes", s_capacity=50.0, p_c_rating=10.0, p_d_rating=10.0)
    units = [  # the thermal fast path, the per-draw mapping with and without baseline noise
        ({}, tcl_device(unit_id="fast"), baseline),
        ({}, tcl_device(unit_id="clipped", p_max=4.0, p_min=3.0), baseline),
        (ident, tcl_device(unit_id="ident"), None),
        (ident, tcl_device(unit_id="both"), baseline),
        ({"s_capacity": DistributionSpec.truncated_normal(50.0, 2.5, 45.0, 55.0)}, bes, None),
    ]
    n = 300
    workspace = new_workspace(n, T)
    propagated = []
    for unit_dists, dev, baseline_dist in units:
        kw = dict(unit_dists=unit_dists, dev=dev, baseline_dist=baseline_dist, dt=1.0, horizon=T,
                  n=n, seed=4)
        got = propagate_diu(**kw, workspace=workspace)
        assert stats_bytes(got) == stats_bytes(propagate_diu(**kw)), dev.unit_id
        propagated.append((got, stats_bytes(got)))
    # nothing returned points into the workspace
    workspace[...] = np.nan
    for got, digest in propagated:
        assert stats_bytes(got) == digest


def reference_column_stats(samples):
    """Every column sorted after normalizing all of its draws."""
    n, horizon = samples.shape
    mu = samples.mean(axis=0)
    sigma = samples.std(axis=0)
    table = np.zeros((LEVELS.size, horizon))
    ranks = np.minimum(np.ceil(LEVELS * n).astype(int), n) - 1
    for t in range(horizon):
        if sigma[t] >= SIGMA_FLOOR:
            table[:, t] = np.sort((samples[:, t] - mu[t]) / sigma[t])[ranks]
        else:
            sigma[t] = 0.0
    return mu, sigma, table


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e3, 1e6, 1e9, -1e12])
@pytest.mark.parametrize("n", [1, 7, 4000])
def test_column_stats_equal_the_reference_bit_for_bit(scale, n):
    rng = np.random.default_rng(n)
    row = scale * (1.0 + rng.random(T))
    draws = row * (1.0 + 0.01 * rng.standard_normal((n, T)))
    # a draw-invariant row broadcast over the draws, as propagate_diu passes it,
    # and a sampled matrix
    for samples in (np.broadcast_to(row, (n, T)), draws):
        got = _column_stats(samples)
        for a, b in zip((got.mu, got.sigma, got.table), reference_column_stats(samples)):
            assert a.tobytes() == b.tobytes()
    if abs(scale) >= 1e6 and n == 4000:
        # the broadcast mean is off by more than the floor: the full computation ran
        assert np.any(_column_stats(np.broadcast_to(row, (n, T))).sigma > 0)


@pytest.mark.parametrize("n", [1, 7, 4000])
def test_thermal_statistics_equal_the_reference_of_the_mapped_draws(n):
    # baseline draws on both sides of p_min and of p_max: both ratings clip at zero
    dev = tcl_device(p_min=2.0, p_max=6.0)
    baseline = [DistributionSpec.lognormal(math.log(1.5 + 0.25 * t), 0.6) for t in range(T)]
    states = unit_states(3, [(dev.unit_id, {}, baseline)], T)[0]
    got = propagate_diu({}, dev, baseline, 1.0, T, n=n, seed=3)
    base = sample_columns(baseline, n, states)
    params = map_device_to_ges(dev, 1.0, T)
    draws = {"p_c_max": np.clip(dev.p_max - base, 0.0, None), "p_d_max": np.clip(base - dev.p_min, 0.0, None),
             "soc_lo": np.broadcast_to(params.soc_lo, (n, T)), "soc_hi": np.broadcast_to(params.soc_hi, (n, T)),
             "alpha": np.broadcast_to(params.alpha, (n, T))}
    if n == 4000:
        assert (draws["p_c_max"] == 0).any() and (draws["p_d_max"] == 0).any()
        assert (draws["p_c_max"] > 0).any() and (draws["p_d_max"] > 0).any()
    for kind, samples in draws.items():
        stats = got.get(kind)
        for a, b in zip((stats.mu, stats.sigma, stats.table), reference_column_stats(samples)):
            assert a.tobytes() == b.tobytes(), kind


def test_draw_invariant_rows_share_one_read_only_zero_table(tcl100):
    tables = [u.stats.get(kind).table for u in tcl100.units for kind in ("soc_lo", "soc_hi", "alpha")]
    shared = tables[0]
    assert all(t is shared for t in tables)
    assert shared.shape == (LEVELS.size, tcl100.horizon) and not shared.any()
    assert not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0, 0] = 1.0
    # a shared table is still a table: a level beyond the tabulated ones raises
    with pytest.raises(InvalidSpec, match="0.01"):
        tcl100.units[0].stats.soc_hi.inv_cdf(0.005)


def test_concurrent_first_calls_get_equal_read_only_zero_tables():
    row = np.broadcast_to(np.linspace(0.1, 0.9, 7), (50, 7))
    interval = sys.getswitchinterval()
    _zero_table.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(_column_stats, row) for _ in range(64)]
            tables = [f.result(timeout=30).table for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for table in tables:
        assert table.shape == (LEVELS.size, 7) and not table.any() and not table.flags.writeable
