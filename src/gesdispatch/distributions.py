"""Univariate distribution toolkit.

Every stochastic quantity in a scenario is described by a tagged
:class:`DistributionSpec`, except a unit's baseline-power noise, which is one
:class:`LognormalSeries` (two arrays) per unit.  Sampling is deterministic
given (spec, n, seed), which is the reproducibility contract the Monte-Carlo
layers rely on.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

from .errors import InvalidSpec

FAMILIES = (
    "point",
    "normal",
    "truncated_normal",
    "lognormal",
    "beta",
    "student_t",
    "bernoulli",
    "uniform",
)


@dataclass
class DistributionSpec:
    family: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        validate_spec(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, value: float) -> "DistributionSpec":
        return cls("point", {"value": float(value)})

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls("normal", {"mu": float(mu), "sigma": float(sigma)})

    @classmethod
    def truncated_normal(cls, mu, sigma, a, b) -> "DistributionSpec":
        return cls(
            "truncated_normal",
            {"mu": float(mu), "sigma": float(sigma), "a": float(a), "b": float(b)},
        )

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "DistributionSpec":
        """Log-scale parameterization: log X ~ N(mu, sigma)."""
        return cls("lognormal", {"mu": float(mu), "sigma": float(sigma)})

    @classmethod
    def beta(cls, alpha, beta, low=0.0, high=1.0) -> "DistributionSpec":
        return cls(
            "beta",
            {"alpha": float(alpha), "beta": float(beta), "low": float(low), "high": float(high)},
        )

    @classmethod
    def student_t(cls, nu, loc=0.0, scale=1.0) -> "DistributionSpec":
        return cls("student_t", {"nu": float(nu), "loc": float(loc), "scale": float(scale)})

    @classmethod
    def bernoulli(cls, p: float) -> "DistributionSpec":
        return cls("bernoulli", {"p": float(p)})

    @classmethod
    def uniform(cls, low: float, high: float) -> "DistributionSpec":
        return cls("uniform", {"low": float(low), "high": float(high)})


def validate_spec(spec: DistributionSpec) -> None:
    fam, p = spec.family, spec.params
    if fam not in FAMILIES:
        raise InvalidSpec(f"unknown family {fam!r}")
    try:
        if fam == "point":
            _require_finite(p["value"])
        elif fam == "normal":
            if not p["sigma"] > 0:
                raise InvalidSpec(f"normal sigma must be > 0, got {p['sigma']}")
        elif fam == "truncated_normal":
            if not p["sigma"] > 0:
                raise InvalidSpec(f"truncated normal sigma must be > 0, got {p['sigma']}")
            if not p["a"] < p["b"]:
                raise InvalidSpec(f"truncation requires a < b, got [{p['a']}, {p['b']}]")
        elif fam == "lognormal":
            if not p["sigma"] > 0:
                raise InvalidSpec(f"lognormal sigma must be > 0, got {p['sigma']}")
        elif fam == "beta":
            if not (p["alpha"] > 0 and p["beta"] > 0):
                raise InvalidSpec("beta shapes must be > 0")
            if not p["low"] < p["high"]:
                raise InvalidSpec("beta support requires low < high")
        elif fam == "student_t":
            if not p["nu"] > 0:
                raise InvalidSpec(f"student t nu must be > 0, got {p['nu']}")
            if not p["scale"] > 0:
                raise InvalidSpec("student t scale must be > 0")
        elif fam == "bernoulli":
            if not 0.0 <= p["p"] <= 1.0:
                raise InvalidSpec(f"bernoulli p must lie in [0, 1], got {p['p']}")
        elif fam == "uniform":
            if not p["low"] < p["high"]:
                raise InvalidSpec("uniform requires low < high")
    except KeyError as exc:
        raise InvalidSpec(f"family {fam!r} missing parameter {exc}") from exc


def _require_finite(x):
    if not math.isfinite(x):
        raise InvalidSpec(f"non-finite parameter {x}")


# ---------------------------------------------------------------------------
# Sampling


def sample(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. draws; bit-identical for identical (spec, n, seed)."""
    _check_count(n)
    return quantile(spec, np.random.default_rng(seed).random(n))


def _check_count(n: int) -> None:
    if n < 1:
        raise InvalidSpec(f"sample count must be >= 1, got {n}")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), a fixed
# algorithm that numpy keeps stream-compatible
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _words(x: int) -> list[int]:
    """The uint32 words numpy's SeedSequence makes of a non-negative int."""
    x = int(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash_states(entropy: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64: row r is ``generate_state(4, np.uint64)`` of the
    SeedSequence whose assembled entropy words are ``entropy[r]``.

    The hash constants advance the same way for every row, so the whole
    hash is a fixed sequence of wrapping uint32 operations on columns.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> np.uint32(16))

    width = entropy.shape[1]
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # numpy reads the word pairs as little-endian uint64
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(words[::2], words[1::2])], axis=1)


def spawn_states(entropy, counts, prefix: tuple[int, ...] = ()) -> list[np.ndarray]:
    """Seed states of the spawned children of many SeedSequences, in one pass.

    Block p is a read-only (counts[p], 4) uint64 array whose row j equals
    ``np.random.SeedSequence(entropy[p], spawn_key=(*prefix, j)).generate_state(4, np.uint64)``:
    with no `prefix`, the state of ``SeedSequence(entropy[p]).spawn(counts[p])[j]``;
    with prefix ``(0,)``, that of child j of its first child.  Each
    ``entropy[p]`` is a non-negative int or a sequence of them, as
    SeedSequence takes it.  `uniform_streams` draws from the rows.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ends = np.cumsum(counts)
    parent = np.repeat(np.arange(counts.size), counts)
    child = np.arange(parent.size) - (ends - counts)[parent]  # j: one word, below 2**32
    key = [w for x in prefix for w in _words(x)]
    # a spawn key zero-pads the run entropy to the pool size; parents whose
    # assembled entropy has one width hash together
    runs: dict[int, list[list[int]]] = {}
    members: dict[int, list[int]] = {}
    for p, entropy_p in enumerate(entropy):
        run = [w for x in ((entropy_p,) if isinstance(entropy_p, (int, np.integer)) else entropy_p)
               for w in _words(x)]
        run += [0] * (_POOL_SIZE - len(run)) + key
        runs.setdefault(len(run), []).append(run)
        members.setdefault(len(run), []).append(p)
    states = np.empty((parent.size, 4), dtype=np.uint64)
    for width, group in members.items():
        rows = np.isin(parent, group)
        words = np.repeat(np.array(runs[width], dtype=np.uint32), counts[group], axis=0)
        states[rows] = _hash_states(np.column_stack([words, child[rows].astype(np.uint32)]))
    states.flags.writeable = False
    return [states[end - count:end] for end, count in zip(ends.tolist(), counts.tolist())]


class _Row(ISeedSequence):
    """A seed sequence whose state is one row of `spawn_states`: the four
    uint64 words that PCG64 asks for."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.row


def _generator(row: np.ndarray) -> np.random.Generator:
    """``np.random.default_rng(child)``, where `child` is the SeedSequence
    that the `spawn_states` row was hashed from: numpy's own PCG64 seeding
    runs on the row."""
    return np.random.Generator(np.random.PCG64(_Row(row)))


def uniform_streams(states: np.ndarray, size) -> Iterator[np.ndarray]:
    """For each row of `states` (from `spawn_states`), in order, the
    ``random(size)`` uniforms of its generator (`_generator`)."""
    for row in states:
        yield _generator(row).random(size)


def sample_columns(specs: list[DistributionSpec], n: int, states: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """(n, len(specs)) draws whose column t is ``quantile(specs[t], u)`` of
    the `n` uniforms `u` of stream ``states[t]`` (`uniform_streams`),
    written into `out` when it is given (and returned)."""
    _check_count(n)
    if out is None:
        out = np.empty((n, len(specs)))
    for t, (spec, u) in enumerate(zip(specs, uniform_streams(states, n))):
        out[:, t] = quantile(spec, u)
    return out


class LognormalSeries(NamedTuple):
    """One lognormal law per step, log-scale: ``log X[t] ~ N(mu[t], sigma[t])``,
    two float64 (T,) arrays.  A scenario's sigmas are > 0; a step of sigma 0
    draws ``exp(mu[t])`` alone."""

    mu: np.ndarray
    sigma: np.ndarray


def lognormal_log_params(mean: float, sd: float) -> tuple[float, float]:
    """Log-scale (mu, sigma) of the lognormal law with this mean (> 0) and
    standard deviation.  sigma is 0 when ``sd / mean`` is too small to move
    ``log1p((sd / mean) ** 2)`` off 0."""
    s2 = math.log1p((sd / mean) ** 2)
    return math.log(mean) - s2 / 2.0, math.sqrt(s2)


def sample_blocks(series: Sequence[LognormalSeries], n: int, states: Sequence[np.ndarray],
                  out: np.ndarray | None = None, uniforms: np.ndarray | None = None) -> np.ndarray:
    """(len(series), n, T) draws: column t of block i is the step-t lognormal
    quantile of ``series[i]`` at the `n` uniforms of stream ``states[i][t]``
    (`uniform_streams`), written into `out` when it is given (and returned).
    Every series has the same T.

    Each stream's `n` uniforms go into a contiguous row of `uniforms`, a
    C-contiguous (len(series), T, n) scratch buffer (allocated when it is
    None; only read once the quantile transform has run).  The transform is
    one call per ufunc over all blocks, the first of which, ``ndtri``, reads
    the rows and writes the columns of `out`: per element it is the
    arithmetic of `quantile` of a lognormal spec, with far fewer short calls
    that each release the GIL.  Every value is computed elementwise, so the
    layout of the scratch moves no bit of the draws.
    """
    _check_count(n)
    horizon = len(series[0].mu)
    if out is None:
        out = np.empty((len(series), n, horizon))
    if uniforms is None:
        uniforms = np.empty((len(series), horizon, n))
    for rows, block_states in zip(uniforms, states):
        for row, state in zip(rows, block_states):
            _generator(state).random(out=row)
    special.ndtri(uniforms.transpose(0, 2, 1), out=out)
    out *= np.array([s.sigma for s in series])[:, None, :]
    out += np.array([s.mu for s in series])[:, None, :]
    np.exp(out, out=out)
    return out


def quantile(spec: DistributionSpec, level) -> np.ndarray | float:
    """Inverse CDF, vectorized over `level`; the common-random-number hook."""
    fam, p = spec.family, spec.params
    level = np.asarray(level, dtype=float)
    if fam == "point":
        out = np.full_like(level, p["value"])
    elif fam == "normal":
        out = p["mu"] + p["sigma"] * special.ndtri(level)
    elif fam == "truncated_normal":
        out = truncnorm_quantile(p["mu"], p["sigma"], p["a"], p["b"], level)
    elif fam == "lognormal":
        out = np.exp(p["mu"] + p["sigma"] * special.ndtri(level))
    elif fam == "beta":
        out = p["low"] + (p["high"] - p["low"]) * special.betaincinv(p["alpha"], p["beta"], level)
    elif fam == "student_t":
        # stdtrit is what scipy.stats.t.ppf computes, except at level 0,
        # where it gives +inf instead of the lower end of the support
        t = np.where(level == 0.0, -np.inf, special.stdtrit(p["nu"], level))
        out = p["loc"] + p["scale"] * t
    elif fam == "bernoulli":
        out = (level > 1.0 - p["p"]).astype(float)
    elif fam == "uniform":
        out = p["low"] + (p["high"] - p["low"]) * level
    else:  # pragma: no cover
        raise InvalidSpec(fam)
    return out if out.ndim else float(out)


def truncnorm_quantile(mu, sigma, a, b, level):
    """Inverse CDF of a normal(mu, sigma) truncated to [a, b], elementwise over
    broadcast `mu` and `level`."""
    fa, fb = special.ndtr((a - mu) / sigma), special.ndtr((b - mu) / sigma)
    return np.clip(mu + sigma * special.ndtri(fa + level * (fb - fa)), a, b)


# ---------------------------------------------------------------------------
# Analytical moments


def mean(spec: DistributionSpec) -> float:
    fam, p = spec.family, spec.params
    if fam == "point":
        return p["value"]
    if fam == "normal":
        return p["mu"]
    if fam == "truncated_normal":
        return _truncnorm_moments(p)[0]
    if fam == "lognormal":
        return math.exp(p["mu"] + p["sigma"] ** 2 / 2.0)
    if fam == "beta":
        a, b = p["alpha"], p["beta"]
        return p["low"] + (p["high"] - p["low"]) * a / (a + b)
    if fam == "student_t":
        if p["nu"] <= 1:
            raise InvalidSpec("student t mean undefined for nu <= 1")
        return p["loc"]
    if fam == "bernoulli":
        return p["p"]
    if fam == "uniform":
        return 0.5 * (p["low"] + p["high"])
    raise InvalidSpec(fam)  # pragma: no cover


def std(spec: DistributionSpec) -> float:
    fam, p = spec.family, spec.params
    if fam == "point":
        return 0.0
    if fam == "normal":
        return p["sigma"]
    if fam == "truncated_normal":
        return _truncnorm_moments(p)[1]
    if fam == "lognormal":
        s2 = p["sigma"] ** 2
        return math.exp(p["mu"] + s2 / 2.0) * math.sqrt(math.expm1(s2))
    if fam == "beta":
        a, b = p["alpha"], p["beta"]
        return (p["high"] - p["low"]) * math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    if fam == "student_t":
        if p["nu"] <= 2:
            raise InvalidSpec("student t variance undefined for nu <= 2")
        return p["scale"] * math.sqrt(p["nu"] / (p["nu"] - 2.0))
    if fam == "bernoulli":
        return math.sqrt(p["p"] * (1.0 - p["p"]))
    if fam == "uniform":
        return (p["high"] - p["low"]) / math.sqrt(12.0)
    raise InvalidSpec(fam)  # pragma: no cover


def _truncnorm_moments(p) -> tuple[float, float]:
    mu, sg, a, b = p["mu"], p["sigma"], p["a"], p["b"]
    al, be = (a - mu) / sg, (b - mu) / sg
    z = special.ndtr(be) - special.ndtr(al)
    pa, pb = _phi(al), _phi(be)
    # x * phi(x) is 0 at an infinite end, where inf * 0 would be nan
    ta, tb = (0.0 if math.isinf(x) else x * px for x, px in ((al, pa), (be, pb)))
    m = mu + sg * (pa - pb) / z
    var = sg * sg * (1.0 + (ta - tb) / z - ((pa - pb) / z) ** 2)
    return m, math.sqrt(max(var, 0.0))


def _phi(x: float) -> float:
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normalized_quantile(spec: DistributionSpec, level: float) -> float:
    """Quantile of (X - mean) / std; 0 for a degenerate spec."""
    s = std(spec)
    if s <= 0.0:
        return 0.0
    return (float(quantile(spec, level)) - mean(spec)) / s
