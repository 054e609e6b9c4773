"""Sampling, quantiles, moments and the nearest-rank order statistics."""

import math
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from gesdispatch.distributions import (
    FAMILIES,
    DistributionSpec,
    LognormalSeries,
    mean,
    normalized_quantile,
    quantile,
    sample,
    sample_blocks,
    sample_columns,
    spawn_states,
    std,
    uniform_streams,
)
from gesdispatch.diu import _ranks
from gesdispatch.errors import InvalidSpec
from gesdispatch.optimizer import balance_requirements
from gesdispatch.scenario_io import load_scenario

from util import nearest_rank

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_bernoulli_degenerate():
    out = sample(DistributionSpec.bernoulli(1.0), 5, seed=123)
    assert np.array_equal(out, np.ones(5))


def test_normal_moments_large_sample():
    x = sample(DistributionSpec.normal(0.0, 1.0), 10**6, seed=7)
    assert abs(x.mean() - 0.0) < 0.005
    assert abs(x.std() - 1.0) < 0.005


def test_half_normal_mean():
    # oracle: E[X | X > 0] for a standard normal = sqrt(2/pi)
    spec = DistributionSpec.truncated_normal(0.0, 1.0, 0.0, math.inf)
    x = sample(spec, 10**6, seed=11)
    assert abs(x.mean() - math.sqrt(2.0 / math.pi)) < 0.01


def test_empirical_inverse_cdf_examples():
    assert nearest_rank([5.0], 0.3) == 5.0
    assert nearest_rank(np.arange(1.0, 101.0), 0.95) == 95.0
    x = sample(DistributionSpec.normal(0.0, 1.0), 10**6, seed=3)
    assert abs(nearest_rank(x, 0.95) - 1.6448536269514722) < 0.01


def test_empirical_inverse_cdf_convergence_at_1e5():
    x = sample(DistributionSpec.normal(0.0, 1.0), 10**5, seed=5)
    assert abs(nearest_rank(x, 0.95) - 1.6448536269514722) <= 0.02


def test_sampling_deterministic():
    spec = DistributionSpec.lognormal(0.1, 0.4)
    a = sample(spec, 1000, seed=42)
    b = sample(spec, 1000, seed=42)
    assert np.array_equal(a, b)


ONE_PER_FAMILY = {
    "point": DistributionSpec.point(2.5),
    "normal": DistributionSpec.normal(1.0, 0.3),
    "truncated_normal": DistributionSpec.truncated_normal(1.0, 0.3, 0.5, 1.6),
    "lognormal": DistributionSpec.lognormal(0.2, 0.4),
    "beta": DistributionSpec.beta(2.0, 5.0, 1.0, 3.0),
    "student_t": DistributionSpec.student_t(4.0, 1.0, 0.5),
    "bernoulli": DistributionSpec.bernoulli(0.3),
    "uniform": DistributionSpec.uniform(-1.0, 2.0),
}


LOGNORMAL_STEPS = [DistributionSpec.lognormal(0.1 * t, 0.2 + 0.05 * t) for t in range(5)]


@pytest.mark.parametrize("specs", [[spec] * 5 for spec in ONE_PER_FAMILY.values()]
                         + [list(ONE_PER_FAMILY.values()), LOGNORMAL_STEPS],
                         ids=[*ONE_PER_FAMILY, "mixed", "lognormal per step"])
def test_sample_columns_into_a_buffer_equal_the_stacked_samples(specs):
    assert set(ONE_PER_FAMILY) == set(FAMILIES)
    n = 257
    children = np.random.SeedSequence(12).spawn(len(specs))
    want = np.column_stack([sample(spec, n, child) for spec, child in zip(specs, children)])
    states = spawn_states([12], [len(specs)])[0]
    out = np.full((n, len(specs)), np.nan)
    assert sample_columns(specs, n, states, out=out) is out
    assert out.tobytes() == want.tobytes()
    fresh = sample_columns(specs, n, states)
    assert fresh.flags.c_contiguous and fresh.tobytes() == want.tobytes()


def as_series(specs):
    """The LognormalSeries of per-step lognormal specs."""
    return LognormalSeries(*(np.array([spec.params[key] for spec in specs]) for key in ("mu", "sigma")))


@pytest.mark.parametrize("blocks", [[LOGNORMAL_STEPS, LOGNORMAL_STEPS[::-1]]], ids=["lognormal only"])
def test_sample_blocks_equal_the_quantiles_of_each_stream(blocks):
    # each block is one series: the draws of step t are the step-t spec's quantiles of its stream
    n = 31
    states = spawn_states([3, 4], [5, 5])
    want = np.stack([np.column_stack([quantile(spec, u) for spec, u in zip(specs, uniform_streams(block_states, n))])
                     for specs, block_states in zip(blocks, states)])
    series = [as_series(specs) for specs in blocks]
    # the scratch for the uniforms may hold anything, and is only read once the draws are out
    uniforms = np.full((2, 5, n), np.nan)
    out = np.full((2, n, 5), np.nan)
    assert sample_blocks(series, n, states, out=out, uniforms=uniforms) is out
    assert out.tobytes() == want.tobytes()
    assert sample_blocks(series, n, states).tobytes() == want.tobytes()


def test_beta_quantile_matches_scipy():
    levels = np.array([0.1, 0.5, 0.9])
    got = quantile(DistributionSpec.beta(2.0, 3.0, 0.0, 2.0), levels)
    assert np.allclose(got, 2.0 * stats.beta.ppf(levels, 2.0, 3.0), rtol=1e-12)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.5, 4.0, 30.0])
def test_student_t_quantile_is_loc_plus_scale_t_ppf(nu):
    # bit for bit, also at level 0, where the quantile is -inf
    levels = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(7).random(1000)])
    spec = DistributionSpec.student_t(nu, 1.0, 0.5)
    assert quantile(spec, levels).tobytes() == (1.0 + 0.5 * stats.t.ppf(levels, nu)).tobytes()
    assert quantile(spec, 0.0) == -math.inf and quantile(spec, 1.0) == math.inf


def test_normal_quantile():
    spec = DistributionSpec.normal(2.0, 3.0)
    assert quantile(spec, 0.95) == pytest.approx(2.0 + 3.0 * 1.6448536269514722, abs=1e-9)
    assert normalized_quantile(spec, 0.95) == pytest.approx(1.6448536269514722, abs=1e-9)


def test_lognormal_closed_form_examples():
    def lognormal_quantile(mu, sigma, level):
        return quantile(DistributionSpec.lognormal(mu, sigma), level)

    assert lognormal_quantile(0.0, 0.7, 0.5) == pytest.approx(1.0, abs=1e-12)
    z95 = stats.norm.ppf(0.95)
    assert lognormal_quantile(0.0, 0.1, 0.95) == pytest.approx(math.exp(0.1 * z95), abs=1e-9)
    assert lognormal_quantile(0.3, 0.1, 0.95) == pytest.approx(math.exp(0.3) * math.exp(0.1 * z95), abs=1e-9)
    assert lognormal_quantile(0.0, 0.1, 0.95) == pytest.approx(1.1787, abs=1e-3)


def test_lognormal_quantile_convex_in_mu():
    mus = np.linspace(0.0, 3.0, 61)
    vals = np.array([quantile(DistributionSpec.lognormal(m, 0.1), 0.95) for m in mus])
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)


def test_moments_match_scipy():
    cases = [
        (DistributionSpec.lognormal(0.2, 0.5), stats.lognorm(0.5, scale=math.exp(0.2))),
        (DistributionSpec.uniform(1.0, 3.0), stats.uniform(1.0, 2.0)),
        (DistributionSpec.student_t(5.0), stats.t(5.0)),
    ]
    # truncated normals (mu, sigma, a, b), an infinite end among them, where x * phi(x) must read 0
    for mu, sigma, a, b in [(1.0, 0.3, 0.5, 1.6), (5.0, 2.0, -1.0, 4.0), (0.0, 1.0, 2.5, 6.0),
                            (0.0, 1.0, 0.0, math.inf), (2.0, 0.5, -math.inf, 2.3), (0.0, 1.0, -math.inf, math.inf)]:
        cases.append((DistributionSpec.truncated_normal(mu, sigma, a, b),
                      stats.truncnorm((a - mu) / sigma, (b - mu) / sigma, loc=mu, scale=sigma)))
    for spec, rv in cases:
        assert mean(spec) == pytest.approx(rv.mean(), abs=1e-9)
        assert std(spec) == pytest.approx(rv.std(), abs=1e-9)
        assert quantile(spec, 0.9) == pytest.approx(rv.ppf(0.9), abs=1e-9)


def test_point_mass():
    spec = DistributionSpec.point(4.2)
    assert mean(spec) == 4.2
    assert std(spec) == 0.0
    assert np.all(sample(spec, 10, seed=0) == 4.2)


def test_invalid_spec():
    with pytest.raises(InvalidSpec):
        sample(DistributionSpec("normal", {"mu": 0.0, "sigma": -1.0}), 10, seed=0)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
def test_empirical_quantile_monotone_in_level(xs):
    # the nearest ranks that diu tabulates rise with the level, inside the sample
    ranks = _ranks(len(xs))
    assert 0 <= ranks[0] and ranks[-1] < len(xs) and np.all(np.diff(ranks) >= 0)
    assert np.all(np.diff(np.sort(xs)[ranks]) >= 0)


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
def test_quantile_monotone_in_level(l1, l2):
    lo, hi = sorted((l1, l2))
    spec = DistributionSpec.lognormal(0.0, 0.3)
    assert quantile(spec, lo) <= quantile(spec, hi) + 1e-12


# seeds of one, two and four words; 2**96 + 3 with a unit key makes five
# entropy words, more than the SeedSequence pool holds
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**96 + 3]


@pytest.mark.parametrize("prefix", [(), (0,)])
def test_spawn_states_and_their_draws_equal_numpy(prefix):
    uids = [f"unit{i:03d}" for i in range(8)]
    crcs = [zlib.crc32(uid.encode()) for uid in uids]
    assert any(crc >> 31 for crc in crcs) and not all(crc >> 31 for crc in crcs)
    entropy = [(seed, crc) for seed in STREAM_SEEDS for crc in crcs]
    counts = [(3 * p) % 7 for p in range(len(entropy))]  # zero children included
    blocks = spawn_states(entropy, counts, prefix)
    assert len(blocks) == len(entropy)
    for key, count, block in zip(entropy, counts, blocks):
        parent = np.random.SeedSequence(list(key))
        children = (parent.spawn(1)[0] if prefix else parent).spawn(count)
        want = np.array([c.generate_state(4, np.uint64) for c in children], dtype=np.uint64).reshape(count, 4)
        assert block.dtype == np.uint64 and not block.flags.writeable
        assert block.tobytes() == want.tobytes(), (key, prefix)
        for uniforms, child in zip(uniform_streams(block, 33), children, strict=True):
            assert uniforms.tobytes() == np.random.default_rng(child).random(33).tobytes()


def test_uniform_streams_take_a_shape_and_spawn_states_refuse_negative_seeds():
    block = spawn_states([[5, 7]], [2])[0]
    for uniforms, child in zip(uniform_streams(block, (3, 4)), np.random.SeedSequence([5, 7]).spawn(2)):
        assert uniforms.tobytes() == np.random.default_rng(child).random((3, 4)).tobytes()
    with pytest.raises(ValueError, match="non-negative"):
        spawn_states([(-1, 3)], [1])


def test_truncated_normal_load_reaches_the_balance_requirement(tmp_path):
    # a timeseries.csv `load_family: truncated_normal` row is truncated at mean -/+ 3 sigma
    dst = tmp_path / "scn"
    shutil.copytree(FIXTURES / "smoke3", dst)
    ts = dst / "timeseries.csv"
    ts.write_text(ts.read_text().replace(",normal,", ",truncated_normal,", 1))
    scn = load_scenario(dst, compute_stats=False)
    load_mean, load_sigma = 30.0, 0.6  # step 0 of smoke3
    assert scn.load_dist[0].family == "truncated_normal"
    rv = stats.truncnorm(-3.0, 3.0, loc=load_mean, scale=load_sigma)
    assert mean(scn.load_dist[0]) == pytest.approx(rv.mean(), rel=1e-12)
    assert std(scn.load_dist[0]) == pytest.approx(rv.std(), rel=1e-12)
    load, _ = balance_requirements(scn)
    assert load[0] == pytest.approx(rv.ppf(1.0 - scn.gamma_balance), rel=1e-9)
