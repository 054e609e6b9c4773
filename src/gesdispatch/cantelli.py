"""Robust catalog of worst-case normalized inverse-CDF values.

For a zero-mean unit-variance random variable constrained only by a shape
class, returns the largest possible value of F^{-1}(1 - gamma).  These are
the tail bounds behind the one-shot robust reformulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

from . import distributions as dist
from .errors import InvalidGamma, InvalidSpec


@dataclass(frozen=True)
class ShapeClass:
    kind: str  # one of KINDS
    nu: float | None = None

    KINDS = (
        "no_assumption",
        "symmetric",
        "unimodal",
        "symmetric_unimodal",
        "student_t",
        "normal",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidSpec(f"unknown shape class {self.kind!r}")
        if self.kind == "student_t":
            # the unit-variance rescaling needs a finite variance
            if self.nu is None or not (math.isfinite(self.nu) and self.nu > 2.0):
                raise InvalidSpec(f"{self.nu} must be a finite number above 2 (the student_t nu)")
        elif self.nu is not None:
            raise InvalidSpec(f"shape class {self.kind!r} takes no nu")


NO_ASSUMPTION = ShapeClass("no_assumption")
SYMMETRIC = ShapeClass("symmetric")
UNIMODAL = ShapeClass("unimodal")
SYMMETRIC_UNIMODAL = ShapeClass("symmetric_unimodal")
NORMAL = ShapeClass("normal")


def student_t(nu: float) -> ShapeClass:
    return ShapeClass("student_t", nu=float(nu))


def cantelli_bound(shape: ShapeClass, gamma: float) -> float:
    """Worst-case F^{-1}(1 - gamma) over the shape class, gamma in (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise InvalidGamma(f"gamma must lie in (0, 1], got {gamma}")
    k = shape.kind
    if k == "no_assumption":
        return math.sqrt((1.0 - gamma) / gamma)
    if k == "symmetric":
        return math.sqrt(1.0 / (2.0 * gamma)) if gamma < 0.5 else 0.0
    if k == "unimodal":
        if gamma <= 1.0 / 6.0:
            return math.sqrt((4.0 - 9.0 * gamma) / (9.0 * gamma))
        return math.sqrt((3.0 - 3.0 * gamma) / (1.0 + 3.0 * gamma))
    if k == "symmetric_unimodal":
        if gamma <= 1.0 / 6.0:
            return math.sqrt(2.0 / (9.0 * gamma))
        if gamma <= 0.5:
            return math.sqrt(3.0) * (1.0 - 2.0 * gamma)
        return 0.0
    if k == "student_t":
        # unit-variance rescaling of the standard t quantile
        t = dist.quantile(dist.DistributionSpec.student_t(shape.nu), 1.0 - gamma)
        return t * math.sqrt((shape.nu - 2.0) / shape.nu)
    if k == "normal":
        return float(special.ndtri(1.0 - gamma))
    raise InvalidSpec(k)  # pragma: no cover


def parse_shape(name: str, nu: float | None = None) -> ShapeClass:
    """CLI-facing parser: 'na', 'symmetric', 'unimodal', 'su', 't', 'normal'."""
    alias = {
        "na": "no_assumption",
        "no_assumption": "no_assumption",
        "s": "symmetric",
        "symmetric": "symmetric",
        "u": "unimodal",
        "unimodal": "unimodal",
        "su": "symmetric_unimodal",
        "symmetric_unimodal": "symmetric_unimodal",
        "t": "student_t",
        "student_t": "student_t",
        "n": "normal",
        "normal": "normal",
    }
    key = alias.get(name.lower())
    if key is None:
        raise InvalidSpec(f"unknown shape class name {name!r}")
    if key == "student_t":
        return student_t(nu if nu is not None else 5.0)
    return ShapeClass(key)
