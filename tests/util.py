"""Shared builders for small in-memory scenarios used across the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gesdispatch import reserve
from gesdispatch.ddu import DduSpec
from gesdispatch.distributions import DistributionSpec
from gesdispatch.ges import DeviceDescription, map_device_to_ges
from gesdispatch.reliability import _tasks
from gesdispatch.scenario import ScenarioBundle, UnitSpec


PROPAGATION_SAMPLES = 4000  # diu.samples in both bundled fixtures


def stat_threshold(gamma, draws):
    """Largest violation share consistent with a row that holds at `gamma`:
    gamma plus three standard errors of the evaluation sample and of the
    bound statistics (PROPAGATION_SAMPLES draws)."""
    return gamma + 3.0 * math.sqrt(gamma * (1.0 - gamma) * (1.0 / draws + 1.0 / PROPAGATION_SAMPLES))


def bes_device(uid="bes", S=50.0, rating=10.0, soc_lo=0.1, soc_hi=0.9,
               soc_init=0.5, eps=0.0, eta=0.95, deadband=0.2, on_prob=1.0):
    return DeviceDescription(
        kind="BES", unit_id=uid, s_capacity=S, eta_c=eta, eta_d=eta, eps=eps,
        p_c_rating=rating, p_d_rating=rating, soc_lo=soc_lo, soc_hi=soc_hi,
        soc_init=soc_init, deadband=deadband, on_prob=on_prob,
    )


def make_unit(dev, horizon, dt=1.0, ddu=None, price_c=0.3, price_d=0.6,
              unit_dists=None, baseline_dist=None, stats=None):
    params = map_device_to_ges(dev, dt, horizon)
    if ddu is None:
        ddu = DduSpec()
    return UnitSpec(
        dev=dev, params=params, ddu=ddu,
        price_c=np.full(horizon, float(price_c)),
        price_d=np.full(horizon, float(price_d)),
        unit_dists=unit_dists or {}, baseline_dist=baseline_dist, stats=stats,
    )


def make_scenario(units, horizon, tou=0.8, load=20.0, res=0.0, grid_cap=1000.0,
                  gamma=0.05, **kw):
    def series_dists(x):
        arr = np.broadcast_to(np.asarray(x, dtype=float), (horizon,))
        return [DistributionSpec.point(float(v)) for v in arr]

    return ScenarioBundle(
        units=units,
        horizon=horizon,
        dt=1.0,
        tou_price=np.broadcast_to(np.asarray(tou, dtype=float), (horizon,)).copy(),
        load_dist=series_dists(load),
        res_dist=series_dists(res),
        grid_cap=grid_cap,
        gamma=gamma,
        **kw,
    )


def largest_task(scn, draws):
    """Elements (units × draws × steps) of the evaluator's largest task over
    `scn` at `draws`: its tasks run on the pool when this reaches
    `pool.POOL_MIN_ELEMENTS`."""
    return max(t.stop - t.start for t in _tasks(scn.units, draws, scn.horizon)) * draws * scn.horizon


def reserve_problem(scn, spec):
    """The LP `solve_with_reserve` builds, taken before it is solved."""
    built = []

    def capture(prob, context):
        built.append(prob)
        raise StopIteration

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reserve, "solve_or_raise", capture)
        with pytest.raises(StopIteration):
            reserve.solve_with_reserve(scn, spec)
    return built[0]
