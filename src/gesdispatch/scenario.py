"""Scenario container and validation.

A scenario bundles the fleet (devices, storage parameters, uncertainty
descriptions, incentive prices), the system-level time series (ToU price,
load and renewable forecast distributions), and the solver configuration.
Validation collects every violation before failing so a broken file reports
all of its problems at once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .cantelli import ShapeClass, UNIMODAL
from .ddu import DduSpec
from .diu import LEVELS, UnitBoundStats, tabulated
from .distributions import DistributionSpec
from .errors import ValidationError
from .ges import DeviceDescription, GesParams

RESERVE_MODES = ("S1", "S2")


def runs(keys: Iterable) -> Iterator[tuple[object, slice]]:
    """(key, slice) of each maximal run of equal consecutive `keys`: how the
    LP builders and the evaluator group a fleet's units."""
    start = 0
    for key, group in itertools.groupby(keys):
        stop = start + sum(1 for _ in group)
        yield key, slice(start, stop)
        start = stop


@dataclass
class ReserveSpec:
    """Reserve-market configuration for the availability-backed dispatch."""

    mode: str = "S2"  # S1 = flat deterministic price, S2 = reliability-priced
    p_lo: float = -math.inf  # kW, reserve power bounds
    p_hi: float = math.inf
    ramp_up: float = math.inf  # kW per step
    ramp_dn: float = math.inf
    a: float = 1.0  # price at full reliability, currency/kWh
    b: float = 2.0  # price-curve exponent
    s1_price: float | None = None  # flat price for S1; defaults to `a`

    def validate(self) -> list[str]:
        issues = []
        if self.mode not in RESERVE_MODES:
            issues.append(f"reserve mode must be S1 or S2, got {self.mode!r}")
        if not self.p_lo <= self.p_hi:
            issues.append("reserve power bounds must satisfy p_lo <= p_hi")
        if self.a < 0 or self.b < 0:
            issues.append("reserve price coefficients a, b must be >= 0")
        if self.ramp_up < 0 or self.ramp_dn < 0:
            issues.append("reserve ramp limits must be >= 0")
        return issues

    @property
    def flat_price(self) -> float:
        return self.a if self.s1_price is None else self.s1_price


@dataclass
class UnitSpec:
    """One fleet member: device, storage view, uncertainty, and prices."""

    dev: DeviceDescription
    params: GesParams
    ddu: DduSpec
    price_c: np.ndarray  # incentive paid per charged kWh
    price_d: np.ndarray  # incentive paid per discharged kWh
    unit_dists: dict[str, DistributionSpec] = field(default_factory=dict)
    baseline_dist: list[DistributionSpec] | None = None
    stats: UnitBoundStats | None = None

    @property
    def unit_id(self) -> str:
        return self.params.unit_id


@dataclass
class ScenarioBundle:
    units: list[UnitSpec]
    horizon: int
    dt: float
    tou_price: np.ndarray  # currency/kWh per step
    load_dist: list[DistributionSpec]
    res_dist: list[DistributionSpec]  # aggregated renewable in-feed per step
    grid_cap: float
    gamma: float = 0.05
    gamma_balance: float | None = None
    dispatch_window: np.ndarray | None = None  # boolean mask over steps; None = all
    shape_class: ShapeClass = UNIMODAL
    reserve: ReserveSpec | None = None

    def __post_init__(self):
        if self.gamma_balance is None:
            self.gamma_balance = self.gamma
        self.tou_price = np.asarray(self.tou_price, dtype=float)
        if self.dispatch_window is not None:
            self.dispatch_window = np.asarray(self.dispatch_window, dtype=bool)

    def window_mask(self) -> np.ndarray:
        if self.dispatch_window is None:
            return np.ones(self.horizon, dtype=bool)
        return self.dispatch_window

    def validate(self) -> None:
        """Raise ValidationError listing every problem found."""
        issues: list[str] = []
        if not self.units:
            issues.append("EmptyFleet: scenario contains no units")
        if self.horizon < 1:
            issues.append(f"horizon must be >= 1, got {self.horizon}")
        if not self.dt > 0:
            issues.append(f"dt must be > 0, got {self.dt}")
        for name, g in (("gamma", self.gamma), ("gamma_balance", self.gamma_balance)):
            if not 0.0 < g < 1.0:
                issues.append(f"{name} must lie in (0, 1), got {g}")
        if 0.0 < self.gamma < 1.0 and not tabulated(self.gamma) and any(
                u.unit_dists or u.baseline_dist is not None for u in self.units):
            issues.append(f"gamma {self.gamma} is outside [{LEVELS[0]}, {LEVELS[-1]}], the levels at which the "
                          "bound quantiles of units with identification or baseline noise are tabulated")
        if self.tou_price.shape != (self.horizon,):
            issues.append(f"tou_price must have length {self.horizon}")
        elif np.any(self.tou_price <= 0):
            for t in np.flatnonzero(self.tou_price <= 0):
                issues.append(f"tou_price must be > 0 at t={t}")
        if len(self.load_dist) != self.horizon:
            issues.append(f"load_dist must have length {self.horizon}")
        if len(self.res_dist) != self.horizon:
            issues.append(f"res_dist must have length {self.horizon}")
        if not self.grid_cap > 0:
            issues.append(f"grid_cap must be > 0, got {self.grid_cap}")
        if self.dispatch_window is not None and self.dispatch_window.shape != (self.horizon,):
            issues.append(f"dispatch_window must have length {self.horizon}")
        seen = set()
        for u in self.units:
            uid = u.unit_id
            if uid in seen:
                issues.append(f"duplicate unit_id {uid!r}")
            seen.add(uid)
            if u.params.horizon != self.horizon:
                issues.append(f"unit {uid}: horizon {u.params.horizon} != scenario horizon {self.horizon}")
                continue
            for name, arr in (("price_c", u.price_c), ("price_d", u.price_d)):
                if np.asarray(arr).shape != (self.horizon,):
                    issues.append(f"unit {uid}: {name} must have length {self.horizon}")
            if np.asarray(u.price_c).shape == (self.horizon,) == np.asarray(u.price_d).shape:
                # charging must be priced strictly below discharging so the
                # dropped charge/discharge complementarity cannot pay off
                bad = np.flatnonzero(np.asarray(u.price_c) >= np.asarray(u.price_d))
                for t in bad:
                    issues.append(
                        f"unit {uid}: price_c {u.price_c[t]} >= price_d {u.price_d[t]} at t={t}"
                    )
        if issues:
            raise ValidationError(issues)
