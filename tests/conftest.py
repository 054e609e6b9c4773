import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gesdispatch.scenario_io import load_scenario

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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
