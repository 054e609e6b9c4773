"""Day-ahead chance-constrained dispatch of generic-energy-storage fleets."""

__version__ = "0.1.0"

from .cantelli import (  # noqa: F401
    NO_ASSUMPTION,
    NORMAL,
    SYMMETRIC,
    SYMMETRIC_UNIMODAL,
    UNIMODAL,
    ShapeClass,
    cantelli_bound,
    student_t,
)
from .ddu import DduSpec, standardized_h_quantile  # noqa: F401
from .distributions import DistributionSpec, quantile  # noqa: F401
from .diu import BoundStats, UnitBoundStats, propagate_diu  # noqa: F401
from .errors import GesDispatchError  # noqa: F401
from .ges import DeviceDescription, GesParams, UnitSchedule, aggregate_fleet, map_device_to_ges  # noqa: F401
from .lp import LpProblem, solve_lp  # noqa: F401
from .optimizer import (  # noqa: F401
    DispatchStrategy,
    build_cco_ddu,
    build_cco_diu,
    iterative_solve_r2,
    robust_solve_r1,
    solve_cco_diu,
    solve_deterministic_m1,
)
from .reliability import ReliabilityReport, evaluate_many, evaluate_reliability  # noqa: F401
from .reserve import required_reliability, reserve_price, solve_with_reserve  # noqa: F401
from .scenario import ReserveSpec, ScenarioBundle, UnitSpec  # noqa: F401
from .scenario_io import load_scenario  # noqa: F401
