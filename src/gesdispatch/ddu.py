"""Decision-dependent uncertainty of the flexible SoC bounds.

Each unit's available SoC range is random in two coupled ways: an incentive
price *expands* it from the identified range toward the physical range, and
accumulated response discomfort *contracts* it back toward the comfort range.
The contraction factor H is a nonnegative random variable whose mean grows
linearly with response discomfort, so the mean of every realized bound is an
affine function of the dispatch decision — which is what keeps the
chance-constrained program a linear program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .errors import InvalidSpec, NonTighteningCoefficient
from .ges import UnitSchedule

H_FAMILIES = ("lognormal", "beta")
DISCOMFORT_VARIANTS = ("F1", "F2", "F3")

#: contraction means below this are treated as an exact zero contraction
MEAN_FLOOR = 1e-9

#: support cap for the beta-family contraction factor
BETA_CAP = 3.0


@dataclass
class DduSpec:
    """Parameters of the decision-dependent bound model."""

    sigma_g: float = 0.5  # spread of the price-driven expansion factor
    sigma_h: float = 0.1  # spread of the discomfort-driven contraction factor
    beta_up: float = 3.0  # discomfort aversion of the upper bound
    beta_lo: float = 6.0  # discomfort aversion of the lower bound
    lam: float = 0.7  # weight of response intensity vs SoC discomfort
    c_bar: float = 1.5  # price normalizer, currency/kWh
    q_g_level: float = 0.5  # quantile level at which the expansion anchor sits
    h_family: str = "lognormal"
    discomfort_variant: str = "F2"

    def __post_init__(self):
        if not (self.sigma_g > 0 and self.sigma_h > 0):
            raise InvalidSpec("sigma_g and sigma_h must be > 0")
        if not 0.0 <= self.beta_up <= self.beta_lo:
            raise NonTighteningCoefficient(
                f"need 0 <= beta_up <= beta_lo, got ({self.beta_up}, {self.beta_lo})"
            )
        if not math.isfinite(self.beta_lo):
            # an infinite aversion times zero discomfort is NaN
            raise InvalidSpec(f"beta_lo must be finite, got {self.beta_lo}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidSpec(f"lambda weight must lie in [0, 1], got {self.lam}")
        if not self.c_bar > 0:
            raise InvalidSpec(f"c_bar must be > 0, got {self.c_bar}")
        if not 0.0 < self.q_g_level < 1.0:
            raise InvalidSpec(f"q_g_level must lie in (0, 1), got {self.q_g_level}")
        if self.h_family not in H_FAMILIES:
            raise InvalidSpec(f"unknown h_family {self.h_family!r}")
        if self.discomfort_variant not in DISCOMFORT_VARIANTS:
            raise InvalidSpec(f"unknown discomfort_variant {self.discomfort_variant!r}")

    def beta_side(self, side: str) -> float:
        if side == "upper":
            return self.beta_up
        if side == "lower":
            return self.beta_lo
        raise InvalidSpec(f"side must be 'upper' or 'lower', got {side!r}")


# ---------------------------------------------------------------------------
# Response discomfort


def rating_refs(p_c_max, p_d_max) -> tuple:
    """Time-averaged power ratings used to normalize response intensity: the
    mean of each rating series over its last axis (the steps), so one per
    unit, or per unit and draw, for ratings stacked over leading axes."""
    return np.mean(p_c_max, axis=-1), np.mean(p_d_max, axis=-1)


def discomfort(sched: UnitSchedule, pc_ref, pd_ref, avg, deadband, spec: DduSpec,
               out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Discomfort of `sched` over the horizon (the last axis).

    Broadcasts over leading axes: the Monte-Carlo evaluator passes per-draw
    rating references of shape (m, 1) and per-draw comfort anchors `avg`,
    `deadband` of shape (m, T) and gets one row per draw; the optimizer
    passes schedules, references and a `spec.lam` stacked over units of one
    variant.  A reference at or below zero drops its intensity term.  The
    result is written into `out` when it is given, and the discharge
    intensities into `scratch`; both have the result's shape, and may be
    views of time-major storage, as in the evaluator.

    The intensities cumulate in place with one add per step, in the order
    in which `np.cumsum` adds, so the bits are those of a cumsum; each add
    spans the leading axes, which are contiguous in time-major storage.
    """
    horizon = sched.p_c.shape[-1]
    pc_ref = np.where(np.asarray(pc_ref) > 0, pc_ref, np.inf)
    pd_ref = np.where(np.asarray(pd_ref) > 0, pd_ref, np.inf)
    cum = np.divide(sched.p_c, pc_ref, out=out)
    cum += np.divide(sched.p_d, pd_ref, out=scratch)
    for t in range(1, horizon):
        np.add(cum[..., t - 1], cum[..., t], out=cum[..., t])
    cum /= horizon

    lam = 1.0 if spec.discomfort_variant == "F1" else spec.lam
    soc = sched.soc[..., 1:]
    if spec.discomfort_variant == "F1":
        dev = 0.0
    elif spec.discomfort_variant == "F2":
        dev = np.maximum(np.abs(soc - avg) - deadband / 2.0, 0.0)
    else:  # F3: one-sided shortfall below the baseline average
        dev = np.maximum(avg - soc, 0.0)
    cum *= lam
    cum += (1.0 - lam) * dev
    return cum


# ---------------------------------------------------------------------------
# Bound ends, expansion anchor and contraction distribution


def bound_ends(side: str, soc_bound, phys, avg, deadband) -> tuple:
    """The fixed ends of one side ("upper" or "lower") of the realized SoC
    bound: the identified bound `soc_bound` clipped to the physical one
    `phys`, and the comfort edge ``avg +/- deadband / 2`` clipped to that.
    Elementwise; the LP rows pass bound means, the evaluator draws."""
    if side == "upper":
        identified = np.minimum(soc_bound, phys)
        return identified, np.minimum(avg + deadband / 2.0, identified)
    identified = np.maximum(soc_bound, phys)
    return identified, np.maximum(avg - deadband / 2.0, identified)


def expansion_fraction(price, spec: DduSpec, level):
    """The price-driven expansion factor G at quantile `level`: a normal with
    mean price / c_bar and spread sigma_g, truncated to [0, 1]; elementwise,
    also over `spec` fields stacked over units, (units, 1)."""
    return dist.truncnorm_quantile(np.asarray(price, dtype=float) / spec.c_bar, spec.sigma_g, 0.0, 1.0, level)


def expansion_anchor(diu_bound, phys_bound, price, spec: DduSpec):
    """Price-expanded bound between the identified and physical values, at
    the q_g_level-quantile of the expansion factor, which lies in [0, 1] so
    the anchor never leaves the physical range.  Elementwise over arrays of
    bounds and prices, and over `spec` fields stacked over units, (units, 1).
    """
    anchor = diu_bound + (phys_bound - diu_bound) * expansion_fraction(price, spec, spec.q_g_level)
    return anchor if np.ndim(anchor) else float(anchor)


def _beta_fit(m, s: float):
    """Mean `mf` and variance `vf` of the beta-family H on [0, 1] (H / BETA_CAP)
    for means `m` and spread `s`, clipped to keep the shapes positive, and
    the shape sum `k`; elementwise over `m`."""
    mf = np.clip(m / BETA_CAP, 1e-9, 1.0 - 1e-6)
    vf = np.minimum((s / BETA_CAP) ** 2, 0.99 * mf * (1.0 - mf))
    return mf, vf, mf * (1.0 - mf) / vf - 1.0


def contraction_shock(family: str, u):
    """The standard variate of the `family` contraction at uniforms `u`: the
    normal score ndtri(u) for the lognormal family, `u` itself for the beta
    family.  `contraction_quantile_vec` reads H from it."""
    return special.ndtri(u) if family == "lognormal" else u


def contraction_quantile_vec(m: np.ndarray, spec: DduSpec, shock, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized inverse CDF of H over elementwise means `m` at the shocks
    ``contraction_shock(spec.h_family, u)`` of uniforms `u`.

    H has mean `m` and sd sigma_h: a lognormal matched to both moments, or a
    beta on [0, BETA_CAP] (`_beta_fit`); a mean at or below MEAN_FLOOR is a
    point mass (no contraction).  A caller that applies one set of uniforms
    to many means (the Monte-Carlo evaluator) transforms them once.  The
    result is written into `out` when
    it is given, which may be `m` itself.  Only the live entries (mean above
    MEAN_FLOOR) are gathered and transformed.
    """
    m = np.asarray(m, dtype=float)
    shape = np.broadcast_shapes(m.shape, np.shape(shock))
    if out is None:
        out = np.broadcast_to(m, shape).copy()
    elif out is not m:
        np.copyto(out, np.broadcast_to(m, shape))
    live = out > MEAN_FLOOR
    if not np.any(live):
        return out
    s = spec.sigma_h
    mm, shock = out[live], np.broadcast_to(shock, out.shape)
    if spec.h_family == "lognormal":
        # exp(log(mm) - s2 / 2 + sqrt(s2) * shock), evaluated in place on the
        # gathered entries, so at most three of them are alive at once
        s2 = np.divide(s, mm)
        np.square(s2, out=s2)
        np.log1p(s2, out=s2)
        np.log(mm, out=mm)
        mm -= s2 / 2.0
        np.sqrt(s2, out=s2)
        s2 *= shock[live]
        mm += s2
        out[live] = np.exp(mm, out=mm)
    else:
        mf, _, k = _beta_fit(mm, s)
        out[live] = BETA_CAP * special.betaincinv(mf * k, (1.0 - mf) * k, shock[live])
    return out


def standardized_h_quantile(rd, side: str, spec: DduSpec, level: float):
    """Quantile of (H - mean) / sd at `level`: the fixed-point update of the
    tail factor.  Elementwise over discomforts `rd` (a scalar gives a float),
    through the evaluator's kernel `contraction_quantile_vec`, standardized by
    the moments H was fitted to; zero where the mean is at the floor."""
    rd = np.asarray(rd, dtype=float)
    if np.any(rd < -1e-12):
        raise InvalidSpec(f"response discomfort must be >= 0, got {rd.min()}")
    m = spec.beta_side(side) * np.maximum(rd, 0.0)
    q = contraction_quantile_vec(m, spec, contraction_shock(spec.h_family, level))
    if spec.h_family == "lognormal":
        mean, sd = m, spec.sigma_h
    else:
        mf, vf, _ = _beta_fit(m, spec.sigma_h)
        mean, sd = BETA_CAP * mf, BETA_CAP * np.sqrt(vf)
    z = np.where(m > MEAN_FLOOR, (q - mean) / sd, 0.0)
    return z if z.ndim else float(z)
