"""Attitude algebra: unit quaternions, rotation matrices, reduced attitude.

Conventions
-----------
Quaternions are scalar-first rows q = (eta, ex, ey, ez), the column order
of the full model's state and log, with R(q) mapping body-frame vectors into
the inertial frame:

    R(q) = I + 2*eta*[eps]x + 2*[eps]x^2

The reduced attitude is the yaw-invariant unit vector Gamma = R(q)^T e3.  The
azimuth (vertical-frame) rotation is a plain rotation about inertial Z by psi,
wrapped to (-pi, pi].  A full attitude splits as R = Rz(psi) * R_e where R_e
is the tilt factor rebuilt from Gamma alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateAttitudeError, InvalidInputError

E3 = np.array([0.0, 0.0, 1.0])

UNIT_TOL = 1e-6
ANTIPODAL_TOL = 1e-6


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion row (eta, ex, ey, ez).

    Raises InvalidInputError when ``q`` is not a 4-row or deviates from unit
    norm by more than 1e-6.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise InvalidInputError("quaternion must have shape (4,)")
    norm = math.sqrt(q[0] ** 2 + float(q[1:] @ q[1:]))
    if abs(norm - 1.0) > UNIT_TOL:
        raise InvalidInputError(f"quaternion norm {norm:.8f} is not 1")
    s = skew(q[1:])
    return np.eye(3) + 2.0 * q[0] * s + 2.0 * (s @ s)


def reduced_attitude(q) -> np.ndarray:
    """Yaw-invariant reduced attitude Gamma = R(q)^T e3."""
    return quat_to_rot(q).T @ E3


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.atan2(math.sin(angle), math.cos(angle))
    return math.pi if a <= -math.pi else a


def rotz(psi: float) -> np.ndarray:
    """Rotation about inertial Z by the azimuth angle psi."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def tilt_quaternion(gamma: np.ndarray, sign: int = 1) -> np.ndarray:
    """Zero-yaw quaternion row whose reduced attitude equals ``gamma``.

    Built from the unnormalized pair s_e * [Gamma.e3 + 1, Gamma x e3]; both
    sign choices represent the same rotation.  Raises
    DegenerateAttitudeError when Gamma is antipodal to e3.
    """
    gamma = np.asarray(gamma, dtype=float)
    if abs(np.linalg.norm(gamma) - 1.0) > UNIT_TOL:
        raise InvalidInputError("reduced attitude must be a unit vector")
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    w = float(gamma @ E3) + 1.0
    if w < ANTIPODAL_TOL:
        raise DegenerateAttitudeError("reduced attitude antipodal to +Z")
    eta, eps = sign * w, sign * np.array([gamma[1], -gamma[0], 0.0])  # Gamma x e3
    return np.concatenate(([eta], eps)) / math.sqrt(eta**2 + float(eps @ eps))


def recover_attitude(gamma: np.ndarray, psi: float, sign: int = 1) -> np.ndarray:
    """Full rotation matrix R = Rz(psi) * R(q_e) from reduced attitude and azimuth."""
    q_e = tilt_quaternion(gamma, sign)
    return rotz(psi) @ quat_to_rot(q_e)


def split_azimuth(rot: np.ndarray) -> tuple[float, np.ndarray]:
    """Split R into (psi, gamma) such that recover_attitude(gamma, psi) == R.

    Inverse of recover_attitude for non-antipodal attitudes.
    """
    rot = np.asarray(rot, dtype=float)
    gamma = rot.T @ E3
    r_e = quat_to_rot(tilt_quaternion(gamma))
    rz = rot @ r_e.T
    psi = math.atan2(rz[1, 0], rz[0, 0])
    return wrap_angle(psi), gamma


def azimuth_of_quat(q, omega) -> tuple[float, tuple[float, float, float], float]:
    """Azimuth psi, reduced attitude Gamma and inertial yaw rate (R omega)_z
    of a scalar-first quaternion (normalized here) and a body rate, on floats.

    The same split as ``split_azimuth(quat_to_rot(q))`` without the matrices:
    Gamma is the third row of R, and since R = Rz(psi) R_e with a tilt R_e
    about a horizontal axis, q = (cos psi/2, 0, 0, sin psi/2) (x) q_e with
    q_e free of a z part, so psi = 2 atan2(qz, qw).
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
