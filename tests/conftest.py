import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "scripts"))

from gesdispatch.scenario_io import load_scenario

FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def smoke3():
    return load_scenario(FIXTURES / "smoke3")


@pytest.fixture(scope="session")
def tcl100():
    return load_scenario(FIXTURES / "synthetic_100tcl")


@pytest.fixture(scope="session")
def tcl100_strategies(tcl100):
    """The three model levels solved once on the 100-unit fixture."""
    from gesdispatch.optimizer import (
        robust_solve_r1,
        solve_cco_diu,
        solve_deterministic_m1,
    )

    return {
        "M1": solve_deterministic_m1(tcl100),
        "M2": solve_cco_diu(tcl100),
        "M3": robust_solve_r1(tcl100),
    }


@pytest.fixture(scope="session")
def smoke3_m2(smoke3):
    from gesdispatch.optimizer import solve_cco_diu

    return solve_cco_diu(smoke3)


@pytest.fixture
def two_cpus(monkeypatch):
    """Size `pool.map_in_workspaces` for two CPUs whatever the host has."""
    from gesdispatch import pool

    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)


def _solved(scn):
    from gesdispatch.optimizer import robust_solve_r1, solve_cco_diu

    return scn, {"M2": solve_cco_diu(scn), "M3": robust_solve_r1(scn)}


@pytest.fixture(scope="session")
def fleet60(tmp_path_factory):
    """A generated 60-unit thermal fleet and its M2 and M3 strategies: one
    run of units, so at 200 draws the evaluator's tasks hold 25, 25 and 10."""
    from generate_fixtures import make_100tcl

    path = tmp_path_factory.mktemp("fleet60")
    make_100tcl(path, n_units=60)
    return _solved(load_scenario(path))


@pytest.fixture(scope="session")
def mixed_fleet(smoke3):
    """smoke3's units with renamed copies and two noise-free units, ordered
    so that runs of one realization template hold one or two units:
    bes1 | tcl1 tcl1b | ev1 bes1b | quiet1 quiet2; and its M2 and M3 strategies."""
    from util import bes_device, make_unit

    def renamed(u, uid):
        return replace(u, dev=replace(u.dev, unit_id=uid), params=replace(u.params, unit_id=uid))

    bes1, tcl1, ev1 = smoke3.units
    quiet = [make_unit(bes_device(uid=f"quiet{i}"), smoke3.horizon, dt=smoke3.dt) for i in (1, 2)]
    units = [bes1, tcl1, renamed(tcl1, "tcl1b"), ev1, renamed(bes1, "bes1b"), *quiet]
    return _solved(replace(smoke3, units=units))
