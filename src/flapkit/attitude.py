"""Attitude algebra: angle wrapping, the azimuth rotation, and the azimuth
split of a unit quaternion on floats.

Conventions
-----------
Quaternions are scalar-first rows q = (eta, ex, ey, ez), the column order
of the full model's state and log, with R(q) mapping body-frame vectors into
the inertial frame:

    R(q) = I + 2*eta*[eps]x + 2*[eps]x^2

The reduced attitude is the yaw-invariant unit vector Gamma = R(q)^T e3.  The
azimuth (vertical-frame) rotation is a plain rotation about inertial Z by psi,
wrapped to (-pi, pi].  A full attitude splits as R = Rz(psi) * R_e where R_e
is the tilt factor rebuilt from Gamma alone; ``azimuth_of_quat`` takes that
split on the quaternion's floats.  The matrix forms of these maps (R(q), the
tilt factor, the split of a matrix) are the tests' oracles, in
``tests/helpers.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateAttitudeError, InvalidInputError

ANTIPODAL_TOL = 1e-6


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.atan2(math.sin(angle), math.cos(angle))
    return math.pi if a <= -math.pi else a


def rotz(psi: float) -> np.ndarray:
    """Rotation about inertial Z by the azimuth angle psi."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def azimuth_of_quat(q, omega) -> tuple[float, tuple[float, float, float], float]:
    """Azimuth psi, reduced attitude Gamma and inertial yaw rate (R omega)_z
    of a scalar-first quaternion (normalized here) and a body rate, on floats.

    The split R = Rz(psi) R_e of R(q) without the matrices: Gamma is the
    third row of R, and since R_e is a tilt about a horizontal axis,
    q = (cos psi/2, 0, 0, sin psi/2) (x) q_e with q_e free of a z part, so
    psi = 2 atan2(qz, qw).
    """
    qw, qx, qy, qz = q
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if n == 0.0:
        raise InvalidInputError("cannot normalize a zero quaternion")
    qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
    gx, gy = 2.0 * (qx * qz - qw * qy), 2.0 * (qy * qz + qw * qx)
    gz = 1.0 - 2.0 * (qx * qx + qy * qy)
    if gz + 1.0 < ANTIPODAL_TOL:
        raise DegenerateAttitudeError("reduced attitude antipodal to +Z")
    wx, wy, wz = omega
    return wrap_angle(2.0 * math.atan2(qz, qw)), (gx, gy, gz), gx * wx + gy * wy + gz * wz
