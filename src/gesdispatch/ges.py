"""Generic-energy-storage core model.

Maps device-level descriptions (battery, thermostatic load, EV) onto a common
storage abstraction and aggregates a fleet into one virtual unit.  The
state-of-charge recursion over these parameters is written once, as the
LP's `dyn` rows (`optimizer._build_skeleton`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFleet, InvalidDevice, LengthMismatch, NonFiniteResult

TCL_KINDS = ("TCL_IVA", "TCL_FFA")
DEVICE_KINDS = ("BES", "EV") + TCL_KINDS


def _series(x, horizon: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = np.full(horizon, float(arr))
    if arr.shape != (horizon,):
        raise InvalidDevice(f"{name} must be a scalar or length-{horizon} series, got shape {arr.shape}")
    return arr


@dataclass
class DeviceDescription:
    """Physical description of one flexibility resource."""

    kind: str
    unit_id: str = "unit"
    # TCL (thermal RC model)
    thermal_resistance: float | None = None  # degC/kW
    thermal_capacity: float | None = None  # kWh/degC
    conversion_efficiency: float | None = None  # dimensionless COP
    t_comfort_lo: object = None  # degC, scalar or per-t
    t_comfort_hi: object = None
    t_in_baseline: object = None  # baseline indoor temperature trajectory
    p_min: float | None = None  # kW
    p_max: float | None = None
    baseline_power: object = None  # kW, scalar or per-t
    # BES / EV
    s_capacity: float | None = None  # kWh
    eta_c: float = 1.0
    eta_d: float = 1.0
    eps: float = 0.0
    p_c_rating: object = None
    p_d_rating: object = None
    soc_lo: object = 0.0
    soc_hi: object = 1.0
    ev_base_p_c: object = None  # EV baseline charge profile, kW
    ev_base_p_d: object = None
    ev_dsoc: object = None  # EV baseline SoC increments per step
    # common
    soc_init: float | None = None
    soc_phys_lo: float = 0.0
    soc_phys_hi: float = 1.0
    soc_ramp_up: float = math.inf
    soc_ramp_dn: float = math.inf
    soc_baseline: object = None
    deadband: object = 0.1
    on_prob: object = 1.0

    def validate(self) -> None:
        if self.kind not in DEVICE_KINDS:
            raise InvalidDevice(f"unknown device kind {self.kind!r}")
        if self.kind in TCL_KINDS:
            for name in ("thermal_resistance", "thermal_capacity", "conversion_efficiency"):
                v = getattr(self, name)
                if v is None or not v > 0:
                    raise InvalidDevice(f"{self.unit_id}: {name} must be > 0, got {v}")
            if self.p_min is None or self.p_max is None or self.p_min > self.p_max:
                raise InvalidDevice(f"{self.unit_id}: need p_min <= p_max, got [{self.p_min}, {self.p_max}]")
            lo = np.atleast_1d(np.asarray(self.t_comfort_lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.t_comfort_hi, dtype=float))
            if np.any(lo >= hi):
                raise InvalidDevice(f"{self.unit_id}: comfort band requires t_lo < t_hi everywhere")
        else:
            if self.s_capacity is None or not self.s_capacity > 0:
                raise InvalidDevice(f"{self.unit_id}: s_capacity must be > 0")
            for name in ("eta_c", "eta_d"):
                v = getattr(self, name)
                if not 0.0 < v <= 1.0:
                    raise InvalidDevice(f"{self.unit_id}: {name} must lie in (0, 1], got {v}")
            if not 0.0 <= self.eps < 1.0:
                raise InvalidDevice(f"{self.unit_id}: eps must lie in [0, 1), got {self.eps}")
        if not 0.0 <= self.soc_phys_lo < self.soc_phys_hi <= 1.0:
            raise InvalidDevice(f"{self.unit_id}: physical SoC bounds must satisfy 0 <= lo < hi <= 1")
        if self.soc_init is not None and not self.soc_phys_lo <= self.soc_init <= self.soc_phys_hi:
            raise InvalidDevice(f"{self.unit_id}: soc_init must lie in [soc_phys_lo, soc_phys_hi] = "
                                f"[{self.soc_phys_lo}, {self.soc_phys_hi}], got {self.soc_init}")


@dataclass
class GesParams:
    """Unit parameters in generic-storage coordinates (SoC in per-unit of S)."""

    unit_id: str
    S: float  # kWh
    eta_c: float
    eta_d: float
    eps: float
    dt: float  # hours
    p_c_max: np.ndarray  # kW per step
    p_d_max: np.ndarray
    soc_lo: np.ndarray
    soc_hi: np.ndarray
    alpha: np.ndarray
    soc_init: float
    soc_baseline: np.ndarray
    soc_baseline_avg: np.ndarray
    deadband: np.ndarray
    on_prob: np.ndarray
    soc_phys_lo: float = 0.0
    soc_phys_hi: float = 1.0
    soc_ramp_up: float = math.inf
    soc_ramp_dn: float = math.inf

    @property
    def horizon(self) -> int:
        return self.p_c_max.shape[0]

    def validate(self) -> None:
        if not self.S > 0:
            raise InvalidDevice(f"{self.unit_id}: capacity must be > 0")
        if np.any(self.p_c_max < 0) or np.any(self.p_d_max < 0):
            raise InvalidDevice(f"{self.unit_id}: power ratings must be >= 0")
        if not (0.0 <= self.soc_phys_lo and self.soc_phys_hi <= 1.0):
            raise InvalidDevice(f"{self.unit_id}: physical SoC bounds must lie in [0, 1]")
        if np.any(self.soc_lo < self.soc_phys_lo - 1e-12) or np.any(self.soc_hi > self.soc_phys_hi + 1e-12):
            raise InvalidDevice(f"{self.unit_id}: available SoC bounds must lie inside physical bounds")
        if np.any(self.soc_lo > self.soc_hi):
            raise InvalidDevice(f"{self.unit_id}: soc_lo must not exceed soc_hi")
        if self.soc_ramp_up < 0 or self.soc_ramp_dn < 0:
            raise InvalidDevice(f"{self.unit_id}: ramp limits must be >= 0")
        if np.any((self.on_prob < 0) | (self.on_prob > 1)):
            raise InvalidDevice(f"{self.unit_id}: on_prob must lie in [0, 1]")


@dataclass
class UnitSchedule:
    """Charge/discharge powers over T steps and the SoC path over T+1 points."""

    p_c: np.ndarray
    p_d: np.ndarray
    soc: np.ndarray


# ---------------------------------------------------------------------------


def thermal_ratings(p_max, p_min, base_c, base_d, p_c_max: np.ndarray | None = None,
                    p_d_max: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A thermal unit's power ratings at baseline power draws: the charge
    rating ``clip(p_max - base_c, 0)`` into `p_c_max`, then the discharge
    rating ``clip(base_d - p_min, 0)`` into `p_d_max` (which may be `base_d`).
    Elementwise; new arrays where no buffer is given."""
    p_c_max = np.subtract(p_max, base_c, out=p_c_max)
    p_d_max = np.subtract(base_d, p_min, out=p_d_max)
    return np.clip(p_c_max, 0.0, None, out=p_c_max), np.clip(p_d_max, 0.0, None, out=p_d_max)


def map_device_to_ges(dev: DeviceDescription, dt: float, horizon: int) -> GesParams:
    """Translate a device description into generic-storage parameters."""
    dev.validate()
    if not dt > 0:
        raise InvalidDevice(f"dt must be > 0, got {dt}")

    deadband = _series(dev.deadband, horizon, "deadband")
    on_prob = _series(dev.on_prob, horizon, "on_prob")

    if dev.kind in TCL_KINDS:
        rc = dev.thermal_resistance * dev.thermal_capacity
        eps = -math.expm1(-dt / rc)
        t_hi = _series(dev.t_comfort_hi, horizon, "t_comfort_hi")
        t_lo = _series(dev.t_comfort_lo, horizon, "t_comfort_lo")
        t_ref_hi = float(np.max(t_hi))
        t_ref_lo = float(np.min(t_lo))
        span = t_ref_hi - t_ref_lo
        s_cap = dt * span / (dev.conversion_efficiency * dev.thermal_resistance * eps)
        if not (math.isfinite(s_cap) and s_cap > 0 and 0.0 < eps < 1.0):
            raise NonFiniteResult(f"{dev.unit_id}: degenerate TCL mapping (eps={eps}, S={s_cap})")
        p_base = _series(dev.baseline_power if dev.baseline_power is not None else 0.0, horizon, "baseline_power")
        p_c_max, p_d_max = thermal_ratings(dev.p_max, dev.p_min, p_base, p_base)
        soc_lo = (t_ref_hi - t_hi) / span
        soc_hi = (t_ref_hi - t_lo) / span
        if dev.soc_baseline is not None:
            soc_b = _series(dev.soc_baseline, horizon, "soc_baseline")
        elif dev.t_in_baseline is not None:
            t_b = _series(dev.t_in_baseline, horizon, "t_in_baseline")
            soc_b = (t_ref_hi - t_b) / span
        else:
            soc_b = 0.5 * (soc_lo + soc_hi)
        alpha = eps * soc_b
        eta_c = eta_d = 1.0
    else:
        p_c_max = _series(dev.p_c_rating if dev.p_c_rating is not None else 0.0, horizon, "p_c_rating")
        p_d_max = _series(dev.p_d_rating if dev.p_d_rating is not None else 0.0, horizon, "p_d_rating")
        if dev.kind == "EV":
            base_c = _series(dev.ev_base_p_c if dev.ev_base_p_c is not None else 0.0, horizon, "ev_base_p_c")
            base_d = _series(dev.ev_base_p_d if dev.ev_base_p_d is not None else 0.0, horizon, "ev_base_p_d")
            p_c_max = np.clip(p_c_max - base_c, 0.0, None)
            p_d_max = np.clip(p_d_max - base_d, 0.0, None)
            alpha = _series(dev.ev_dsoc if dev.ev_dsoc is not None else 0.0, horizon, "ev_dsoc")
        else:
            alpha = np.zeros(horizon)
        soc_lo = _series(dev.soc_lo, horizon, "soc_lo")
        soc_hi = _series(dev.soc_hi, horizon, "soc_hi")
        soc_b = (
            _series(dev.soc_baseline, horizon, "soc_baseline")
            if dev.soc_baseline is not None
            else 0.5 * (soc_lo + soc_hi)
        )
        s_cap, eta_c, eta_d, eps = dev.s_capacity, dev.eta_c, dev.eta_d, dev.eps
    params = GesParams(
        unit_id=dev.unit_id,
        S=s_cap,
        eta_c=eta_c,
        eta_d=eta_d,
        eps=eps,
        dt=dt,
        p_c_max=p_c_max,
        p_d_max=p_d_max,
        soc_lo=np.maximum(soc_lo, dev.soc_phys_lo),
        soc_hi=np.minimum(soc_hi, dev.soc_phys_hi),
        alpha=alpha,
        soc_init=dev.soc_init if dev.soc_init is not None else float(soc_b[0]),
        soc_baseline=soc_b,
        soc_baseline_avg=np.full(horizon, float(np.mean(soc_b))),
        deadband=deadband,
        on_prob=on_prob,
        soc_phys_lo=dev.soc_phys_lo,
        soc_phys_hi=dev.soc_phys_hi,
        soc_ramp_up=dev.soc_ramp_up,
        soc_ramp_dn=dev.soc_ramp_dn,
    )
    params.validate()
    return params


def aggregate_fleet(units: list[GesParams]) -> GesParams:
    """Merge a fleet into one virtual unit (capacity-weighted intensive params)."""
    if not units:
        raise EmptyFleet("cannot aggregate an empty fleet")
    horizon = units[0].horizon
    for u in units:
        if u.horizon != horizon:
            raise LengthMismatch("all units must share one horizon")
    caps = np.array([u.S for u in units])
    w = caps / caps.sum()

    def wmean_scalar(vals):
        return float(np.dot(w, vals))

    def wmean_series(attr):
        return np.tensordot(w, np.stack([getattr(u, attr) for u in units]), axes=1)

    ramp_up = [u.soc_ramp_up for u in units]
    ramp_dn = [u.soc_ramp_dn for u in units]
    agg = GesParams(
        unit_id="aggregate",
        S=float(caps.sum()),
        eta_c=wmean_scalar([u.eta_c for u in units]),
        eta_d=wmean_scalar([u.eta_d for u in units]),
        eps=wmean_scalar([u.eps for u in units]),
        dt=units[0].dt,
        p_c_max=np.sum([u.p_c_max for u in units], axis=0),
        p_d_max=np.sum([u.p_d_max for u in units], axis=0),
        soc_lo=wmean_series("soc_lo"),
        soc_hi=wmean_series("soc_hi"),
        alpha=wmean_series("alpha"),
        soc_init=wmean_scalar([u.soc_init for u in units]),
        soc_baseline=wmean_series("soc_baseline"),
        soc_baseline_avg=wmean_series("soc_baseline_avg"),
        deadband=wmean_series("deadband"),
        on_prob=wmean_series("on_prob"),
        soc_phys_lo=min(u.soc_phys_lo for u in units),
        soc_phys_hi=max(u.soc_phys_hi for u in units),
        soc_ramp_up=math.inf if any(math.isinf(r) for r in ramp_up) else wmean_scalar(ramp_up),
        soc_ramp_dn=math.inf if any(math.isinf(r) for r in ramp_dn) else wmean_scalar(ramp_dn),
    )
    agg.validate()
    return agg
