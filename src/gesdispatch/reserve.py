"""Reserve-backed dispatch for fleets with on-off availability risk.

A unit that is on with probability p delivers its response with real-time
security p*(1-gamma); the uncovered share of the response is backed by a
market reserve product.  The reserve is priced either flat (deterministic
product, S1) or by the reliability level actually required of it (S2), which
decreases as the dispatch confidence loosens.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidProbability, MissingOnProb, ValidationError
from .optimizer import (
    DispatchStrategy,
    SolveMetadata,
    build_cco_ddu,
    extract_strategy,
    robust_f_inv,
    solve_or_raise,
)
from .scenario import ReserveSpec, ScenarioBundle

#: above this on-probability a unit is treated as always available
ALWAYS_ON = 1.0 - 1e-12


def required_reliability(p_on: float, gamma: float) -> float:
    """Reliability the reserve must supply so that the joint failure rate,
    unavailability times reserve shortfall, stays within gamma."""
    if not 0.0 <= p_on < 1.0:
        raise InvalidProbability(f"p_on must lie in [0, 1), got {p_on}")
    if not 0.0 < gamma < 1.0:
        raise InvalidProbability(f"gamma must lie in (0, 1), got {gamma}")
    return max(0.0, 1.0 - gamma / (1.0 - p_on))


def reserve_price(r: float, a: float, b: float) -> float:
    """Price of reserve capacity at reliability r: a * r**b."""
    if not 0.0 <= r <= 1.0:
        raise InvalidProbability(f"reliability must lie in [0, 1], got {r}")
    return a * r**b


def _coverage_share(p_on: float, gamma: float) -> float:
    """Fraction of a unit's response that reserve must back.

    The unit itself covers p_on*(1-gamma) of the committed response; the
    remainder, 1 - p_on*(1-gamma), is bought as reserve.  Fully available
    units need no reserve at all.
    """
    if p_on >= ALWAYS_ON:
        return 0.0
    return 1.0 - p_on * (1.0 - gamma)


def _unit_reserve_price(p_on: float, scn: ScenarioBundle, spec: ReserveSpec) -> float:
    if spec.mode == "S1":
        return spec.flat_price
    if p_on >= ALWAYS_ON:
        return spec.flat_price  # unused: the coverage share is zero
    return reserve_price(required_reliability(p_on, scn.gamma), spec.a, spec.b)


def solve_with_reserve(scn: ScenarioBundle, spec: ReserveSpec) -> DispatchStrategy:
    """Dispatch with reserve backing, on top of the robust bound model.

    Adds per-unit reserve power variables linked to the net response by the
    coverage share, with reserve power/ramp limits; the objective prices the
    unit-covered share at the unit's incentive and the reserve share at the
    reserve price.
    """
    issues = spec.validate()
    if issues:
        raise ValidationError(issues)
    for u in scn.units:
        if u.params.on_prob is None or np.any(~np.isfinite(u.params.on_prob)):
            raise MissingOnProb(f"unit {u.unit_id} lacks a finite on_prob series")

    prob = build_cco_ddu(scn, robust_f_inv(scn))
    horizon, dt = scn.horizon, scn.dt
    uids = [u.unit_id for u in scn.units]
    shares = np.array([[_coverage_share(float(p), scn.gamma) for p in u.params.on_prob] for u in scn.units])
    prices = np.array([[_unit_reserve_price(float(p), scn, spec) for p in u.params.on_prob] for u in scn.units])
    cols = prob.add_columns(uids, {"rs": (spec.p_lo, spec.p_hi),
                                   "rs+": (0.0, math.inf), "rs-": (0.0, math.inf)}, horizon)
    rs = cols["rs"]
    link = prob.add_rows(uids, {"rslink": "==", "rssplit": "=="}, horizon)
    # rslink: reserve covers the w-share of the unit's net response; rssplit: rs = rs+ - rs-
    link.add("rslink", rs, 1.0).add("rslink", prob.columns("pd", uids), -shares)
    link.add("rslink", prob.columns("pc", uids), shares)
    link.add("rssplit", rs, 1.0).add("rssplit", cols["rs+"], -1.0).add("rssplit", cols["rs-"], 1.0)
    # the reserve premium is an additional insurance cost on top of
    # the unit incentives, priced per backed kWh
    prob.add_objective([cols["rs+"], cols["rs-"]], prices * dt)
    ramps = {f: (sense, limit) for f, sense, limit in (
        ("rsru", "<=", spec.ramp_up), ("rsrd", ">=", -spec.ramp_dn)) if math.isfinite(limit)}
    if ramps:  # step t of these rows bounds rs[t + 1] - rs[t]
        block = prob.add_rows(uids, {f: sense for f, (sense, _) in ramps.items()}, horizon - 1)
        for family, (_, limit) in ramps.items():
            block.add(family, rs[:, 1:], 1.0).add(family, rs[:, :-1], -1.0).set_rhs(family, limit)

    sol = solve_or_raise(prob, f"reserve-{spec.mode}")
    meta = SolveMetadata(mode="M3", reformulation="R1", gamma=scn.gamma)
    strategy = extract_strategy(scn, prob, sol, meta)
    strategy.reserve_schedule = dict(zip(uids, sol.x[rs]))
    reserve_energy = ges_energy = reserve_cost = 0.0
    for uid, w, c_rs in zip(uids, shares, prices):
        s = strategy.schedules[uid]
        resp = s.p_c + s.p_d
        reserve_energy += float(np.dot(w, resp)) * dt
        ges_energy += float(np.dot(1.0 - w, resp)) * dt
        reserve_cost += float(np.dot(c_rs * w, resp)) * dt
    strategy.reserve_diag = {
        "mode": spec.mode,
        "reserve_energy_kwh": reserve_energy,
        "ges_energy_kwh": ges_energy,
        "reserve_cost": reserve_cost,
    }
    return strategy
