"""Exception types shared across the toolkit.

Every named failure mode raised by the library derives from FlapkitError so
callers can catch toolkit errors without swallowing programming mistakes.
"""

from __future__ import annotations


class FlapkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(FlapkitError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateAttitudeError(FlapkitError):
    """Reduced attitude is antipodal to +Z; the tilt quaternion is singular."""


class PropagationError(FlapkitError):
    """Integration hit a non-finite state.  Carries the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class DegenerateHeadingError(FlapkitError):
    """Horizontal speed too small to define the velocity azimuth."""


class NegligibleThrustError(FlapkitError):
    """Recovered flapping frequency fell below the validity floor."""


class InfeasibleHeadingAccelerationError(FlapkitError):
    """Demanded yaw acceleration needs |lateral tilt| > 1."""


class UnrecoverableDeflectionError(FlapkitError):
    """Deflection torque gain vanished; rudder/elevator angles undefined."""


class TrajectoryDomainError(FlapkitError):
    """Evaluation time outside the trajectory's [0, M*T] domain."""


class RankDeficientConstraintsError(FlapkitError):
    """Equality constraint rows are linearly dependent.

    ``rows`` lists human-readable labels of the offending constraints.
    """

    def __init__(self, message: str, rows: list[str]):
        super().__init__(f"{message}: {', '.join(rows)}")
        self.rows = rows


class PlanInfeasibleError(FlapkitError):
    """No restart reached the residual tolerance.

    Carries the worst aggregate residual and the sample time it occurred at.
    """

    def __init__(self, message: str, worst_residual: float, worst_time: float):
        super().__init__(
            f"{message}: worst residual {worst_residual:.3e} at t={worst_time:.3f} s"
        )
        self.worst_residual = worst_residual
        self.worst_time = worst_time


class DegenerateDecompositionError(FlapkitError):
    """Combined acceleration demand too small to decompose into tilt/thrust."""


class InsufficientExcitationError(FlapkitError):
    """Flight log does not excite the regressor enough for identification."""
