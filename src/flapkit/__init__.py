"""flapkit: minimum-snap planning and closed-loop tracking for a
flapping-wing aerial vehicle."""

from .attitude import (
    UnitQuaternion,
    quat_to_rot,
    recover_attitude,
    reduced_attitude,
    rotz,
    skew,
    split_azimuth,
    wrap_angle,
)
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
    lyapunov_monitors,
)
from .dynamics import (
    ActuatorCommands,
    FwavParams,
    FwavState,
    VerticalInputs,
    VerticalParams,
    VerticalState,
    body_drag,
    deflection_torque,
    full_rhs,
    simulate_full,
    simulate_vertical,
    thrust_magnitude,
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
