"""Least-squares identification of the forward drag coefficient over mass.

Forward flight obeys vvx_dot = u_known - (k_d/m) * sgn(vvx) * vvx^2, where
u_known collects the thrust and frame terms.  Regressing the measured
residual y = vvx_dot - u_known on phi = -sgn(vvx) * vvx^2 over samples with
enough forward speed gives k_d/m in one linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import VerticalLog, VerticalParams, _vertical_terms
from .errors import InsufficientExcitationError, InvalidInputError

MIN_FORWARD_SPEED = 0.2  # m/s, span filter for usable samples


@dataclass
class DragEstimate:
    k_d_over_m: float
    residual_norm: float
    sample_count: int


def identify_drag(
    times: np.ndarray,
    vvx: np.ndarray,
    known_accel: np.ndarray,
    vvx_dot: np.ndarray | None = None,
) -> DragEstimate:
    """Estimate k_d/m from a forward-flight log.

    ``known_accel`` is the modeled non-drag part of vvx_dot (thrust plus
    frame coupling).  ``vvx_dot`` defaults to central differences of vvx.
    Raises InvalidInputError unless the arrays are one axis each, of one
    length of at least 2, with strictly increasing times, and
    InsufficientExcitationError when too few samples exceed
    ``MIN_FORWARD_SPEED`` or the regressor is numerically degenerate.
    """
    times = np.asarray(times, dtype=float)
    vvx = np.asarray(vvx, dtype=float)
    known_accel = np.asarray(known_accel, dtype=float)
    given = {"times": times, "vvx": vvx, "known_accel": known_accel}
    if vvx_dot is not None:
        given["vvx_dot"] = vvx_dot = np.asarray(vvx_dot, dtype=float)
    shapes = {name: array.shape for name, array in given.items()}
    if len(set(shapes.values())) > 1 or times.ndim != 1:
        raise InvalidInputError(f"need one axis of samples per array, of one length, got {shapes}")
    if times.size < 2:
        raise InvalidInputError(f"need at least 2 samples, got {times.size}")
    steps = np.diff(times)
    if not np.all(steps > 0.0):  # a NaN time fails too
        k = int(np.argmin(steps > 0.0))
        raise InvalidInputError(f"need strictly increasing times: t[{k + 1}] = "
                                f"{float(times[k + 1])!r} follows t[{k}] = {float(times[k])!r}")
    if vvx_dot is None:
        vvx_dot = np.gradient(vvx, times)

    mask = np.abs(vvx) > MIN_FORWARD_SPEED
    # drop the log edges where the finite difference is one-sided
    mask[0] = mask[-1] = False
    n = int(np.count_nonzero(mask))
    if n < 10:
        raise InsufficientExcitationError(
            f"only {n} samples exceed {MIN_FORWARD_SPEED} m/s forward speed"
        )
    phi = -np.sign(vvx[mask]) * vvx[mask] ** 2
    y = vvx_dot[mask] - known_accel[mask]
    denom = float(phi @ phi)
    rms = math.sqrt(denom / n)
    if rms < 1e-6:
        raise InsufficientExcitationError(
            f"regressor RMS {rms:.2e} too small for a conditioned solve"
        )
    k = float(phi @ y) / denom
    residual = float(np.linalg.norm(y - k * phi))
    return DragEstimate(k_d_over_m=k, residual_norm=residual, sample_count=n)


def identify_drag_from_log(log: VerticalLog, params: VerticalParams) -> DragEstimate:
    """Run the drag regression on a vertical-model log with applied inputs.

    The known part of the forward acceleration is the model's forward thrust
    term under the logged tilt/frequency inputs plus the frame-rate coupling.
    """
    _, _, _, vvx, vvy, _, _, w = log.states.T
    thrust = _vertical_terms(params, False, *log.inputs.T)[0]
    return identify_drag(log.t, vvx, thrust - w * vvy)
