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
split on the quaternion's floats, reading R(q) from ``_attitude`` as the
full model's law does.  The matrix forms of these maps (R(q), the tilt
factor, the split of a matrix) are the tests' oracles, in
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


def _attitude(qw, qx, qy, qz, vx, vy, vz):
    """Normalized quaternion, row-major R(q) (body to inertial) and body
    velocity R^T v, as one flat 16-tuple.  RK4 stage states carry small
    quaternion drift, so the model is always evaluated on the unit sphere."""
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if n == 0.0:
        raise InvalidInputError("cannot normalize a zero quaternion")
    qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wx, wy, wz = qw * qx, qw * qy, qw * qz
    r00, r01, r02 = 1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)
    r10, r11, r12 = 2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)
    r20, r21, r22 = 2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)
    return (
        qw, qx, qy, qz, r00, r01, r02, r10, r11, r12, r20, r21, r22,
        r00 * vx + r10 * vy + r20 * vz, r01 * vx + r11 * vy + r21 * vz,
        r02 * vx + r12 * vy + r22 * vz,
    )


def azimuth_of_quat(q, omega) -> tuple[float, tuple[float, float, float], float]:
    """Azimuth psi, reduced attitude Gamma and inertial yaw rate (R omega)_z
    of a scalar-first quaternion (normalized here) and a body rate, on floats.

    The split R = Rz(psi) R_e of R(q) without the matrices: Gamma is the
    third row of R (``_attitude``'s), and since R_e is a tilt about a
    horizontal axis, q = (cos psi/2, 0, 0, sin psi/2) (x) q_e with q_e free
    of a z part, so psi = 2 atan2(qz, qw).
    """
    qw, _, _, qz, _, _, _, _, _, _, gx, gy, gz, _, _, _ = _attitude(*q, 0.0, 0.0, 0.0)
    if gz + 1.0 < ANTIPODAL_TOL:
        raise DegenerateAttitudeError("reduced attitude antipodal to +Z")
    wx, wy, wz = omega
    return wrap_angle(2.0 * math.atan2(qz, qw)), (gx, gy, gz), gx * wx + gy * wy + gz * wz
