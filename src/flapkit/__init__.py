"""flapkit: minimum-snap planning and closed-loop tracking for a
flapping-wing aerial vehicle."""

from .attitude import rotz, wrap_angle
from .control import (
    ControllerGains,
    Measurement,
    TrackingController,
    TrackingErrors,
    compose_reduced_attitude,
    decompose,
    desired_acceleration,
    desired_velocity,
    gamma_y_command,
    heading_rate_command,
    heading_stability_margin,
    hysteresis_update,
    inner_attitude,
)
from .dynamics import (
    FwavParams,
    VerticalParams,
    full_rhs,
    simulate_vertical,
    vertical_rhs,
)
from .flatness import FlatInputSchedule, flat_to_full
from .identify import identify_drag, identify_drag_from_log
from .metrics import MetricsReport, compute_metrics, reference_tracking_errors
from .planning import (
    BoundaryConditions,
    ConstraintSet,
    CylinderX,
    ObjectiveWeights,
    PlanOptions,
    Sphere,
    Waypoint,
    case_library,
    constraint_residuals,
    plan,
    solve_qp_equality,
)
from .simulate import run_closed_loop
from .trajectory import FlatSample, PiecewiseTrajectory, PolySegment, snap_objective

__version__ = "0.1.0"
