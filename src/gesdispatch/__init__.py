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
from .ddu import (  # noqa: F401
    DduSpec,
    RealizedBound,
    ddu_bound_distribution,
    response_discomfort_series,
    standardized_h_quantile,
)
from .distributions import (  # noqa: F401
    DistributionSpec,
    empirical_inverse_cdf,
    lognormal_inverse_cdf_closed_form,
    quantile,
    sample,
)
from .diu import BoundStats, UnitBoundStats, propagate_diu  # noqa: F401
from .errors import GesDispatchError  # noqa: F401
from .ges import (  # noqa: F401
    DeviceDescription,
    GesParams,
    UnitSchedule,
    aggregate_fleet,
    check_feasibility,
    map_device_to_ges,
    step_soc,
    unroll_soc,
)
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
from .reliability import (  # noqa: F401
    ReliabilityReport,
    average_contraction,
    evaluate_many,
    evaluate_reliability,
)
from .reserve import required_reliability, reserve_price, solve_with_reserve  # noqa: F401
from .scenario import ReserveSpec, ScenarioBundle, UnitSpec  # noqa: F401
from .scenario_io import load_scenario, serialize  # noqa: F401
