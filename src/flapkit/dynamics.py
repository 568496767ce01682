"""Rigid-body and vertical-frame flight dynamics with fixed-step integrators.

Two models are provided:

* the full 16-state model (position, velocity, unit quaternion, body rates,
  flapping frequency, rudder and elevator deflections) driven by commanded
  actuator values through first-order lags, and
* the simplified vertical-frame model (position, vertical-frame velocity,
  azimuth and azimuth rate) driven directly by the reduced attitude and the
  flapping frequency.

Thrust is quadratic in flapping frequency, drag is componentwise quadratic
with sign, and the deflection torque combines a velocity-induced and a
flapping-induced gain on each axis.  sgn(0) is taken as 0 everywhere so that
rest states are exact equilibria.

States and inputs are rows of floats, in the column order of the logs
(``FULL_LOG_HEADER`` and ``VERTICAL_LOG_HEADER`` after ``t``):

* a full state is (px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz,
  fflap, thrud, thele): inertial position and velocity, the scalar-first
  attitude quaternion, body rates and the three actuator states;
* a full-model command is (f_flap_c, theta_rud_c, theta_ele_c);
* a vertical state is (px, py, pz, vvx, vvy, vvz, psi, omegapsi), the
  velocity in the azimuth frame;
* a vertical input is (gx, gy, gz, fflap), the log's input columns: the
  reduced attitude and the flapping frequency.

Each model's equations are written once, on arguments that are already
checked, each reading its parameters as one tuple
(``FwavParams._constants``, ``VerticalParams._constants``): ``_full_law`` on
floats, and the vertical model in two texts, its dynamic rows
``_vertical_dynamics`` (the rates of vvx, vvy, vvz and w, on floats or
arrays) and its kinematic rows ``_vertical_kinematics`` (psi_dot = w and
p_dot = R_z(psi) vv).  The vertical rows read their input through
``_vertical_terms``, the terms that depend on the input alone, written once
for floats and arrays.  The right-hand sides ``full_rhs`` and
``vertical_rhs`` take a state row and an input row, check them and call
them.  Thrust, drag (``_drag``) and the deflection torque
(``_deflection``) are terms of the full law, read only through it.  Each
model's RK4 step is written once too, over a block of steps: ``_full_steps``
(one held command, the quaternion projected onto the unit sphere after each
step) and ``_vertical_steps`` (one held gamma-proxy input, the pose inline at
every step) for the closed loop, one block per controller tick, and
``_vertical_replay`` for the replay, one block per 1,024 table steps.  The
replay's float loop steps only (vvx, vvy, vvz, w), because no dynamic row
reads the azimuth or the position; one array pass per block then recovers
them from the stage states.  All keep ``rk4_flat``'s floating-point
operation order, so every driver logs ``rk4_flat``'s states bit for bit.
Inputs are checked where they change, not at every stage: the replay checks
its table a block at a time and the closed loop its held input once per tick.
The vertical input terms are computed there too: once per table row in the
replay, as arrays, and once per tick in the closed loop.
``simulate_vertical`` reads its schedule once at each half-step time and
runs the replay on that table.  The full model's stage states keep
``full_rhs``'s state checks.  Every fixed-step simulator, here and in
``simulate``, takes its steps and controller ticks from ``_schedule``.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .attitude import _attitude
from .errors import InvalidInputError, PropagationError

FULL_LOG_HEADER = (
    "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,fflap,thrud,thele"
)
VERTICAL_LOG_HEADER = "t,px,py,pz,vvx,vvy,vvz,psi,omegapsi,gx,gy,gz,fflap"

GRAVITY = 9.81


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _finite(name: str, value) -> np.ndarray:
    """``value`` as a float array; InvalidInputError naming ``name`` when an
    entry is not finite."""
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise InvalidInputError(f"{name} must be finite, not {array.tolist()!r}")
    return array


def _require_finite(params) -> None:
    """Raise InvalidInputError naming the first numeric field of the dataclass
    ``params`` with a NaN or an infinity in it."""
    for fld in fields(params):
        _finite(fld.name, getattr(params, fld.name))


@dataclass
class FwavParams:
    """Physical coefficients of the full model (SI units).

    The numeric defaults are nominal bench values for a 29 g vehicle; none of
    them come from identified hardware, so treat them as placeholders to be
    replaced by measured coefficients.
    """

    m: float = 0.029
    g: float = GRAVITY
    J: np.ndarray = field(
        default_factory=lambda: np.diag([8.0e-5, 6.0e-5, 9.0e-5])
    )
    k_tf: float = 1.25e-3
    k_d_x: float = 0.0174
    k_d_y: float = 0.030
    k_d_z: float = 0.004
    k_tau_x: float = 2.0e-4
    k_tau_y: float = 2.5e-4
    k_tau_z: float = 2.0e-5
    k_flap_x: float = 4.0e-5
    k_flap_y: float = 5.0e-5
    k_flap_z: float = 4.0e-6
    k_flap_c: float = 0.10
    k_rud_c: float = 0.05
    k_ele_c: float = 0.05

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        _require_finite(self)
        if min(self.m, self.g, self.k_tf, self.k_flap_c, self.k_rud_c, self.k_ele_c) <= 0:
            raise InvalidInputError("m, g, k_tf and time constants must be positive")
        if self.J.shape != (3, 3) or not np.allclose(self.J, self.J.T, atol=1e-12):
            raise InvalidInputError("inertia matrix must be symmetric 3x3")
        if np.any(np.linalg.eigvalsh(self.J) <= 0):
            raise InvalidInputError("inertia matrix must be positive definite")
        if min(self.k_d_x, self.k_d_y, self.k_d_z) < 0:
            raise InvalidInputError("drag coefficients must be non-negative")
        self._inertia = (None,)

    @property
    def hover_frequency(self) -> float:
        return math.sqrt(self.m * self.g / self.k_tf)

    def _constants(self) -> tuple:
        """What the full model's law reads, in one tuple: m, g, k_tf, the drag,
        deflection and flapping-torque gains per axis, the three actuator time
        constants, and J and J^-1 as row-major 9-tuples.  J^-1 is recomputed
        only when the entries of J change, so an edited J is honoured."""
        j = np.asarray(self.J, dtype=float)
        key = j.tobytes()
        if key != self._inertia[0]:
            inv = np.linalg.inv(j)
            self._inertia = (key, tuple(j.ravel().tolist()), tuple(inv.ravel().tolist()))
        return (self.m, self.g, self.k_tf, (self.k_d_x, self.k_d_y, self.k_d_z),
                (self.k_tau_x, self.k_tau_y, self.k_tau_z),
                (self.k_flap_x, self.k_flap_y, self.k_flap_z), self.k_flap_c, self.k_rud_c,
                self.k_ele_c, *self._inertia[1:])


@dataclass
class VerticalParams:
    """Coefficients of the simplified vertical-frame model.

    The frame's lateral velocity is frozen (vv_y == const), the
    non-holonomic idealization the flatness map relies on.  ``vk_gamma`` is
    the wind vane's velocity yaw gain, the law the flatness map inverts;
    ``kbar_gamma``/``kbar_flap_x`` are the lumped gains of the tilt-proxy
    yaw torque, whose control-gain bounds are the controller's
    (``ControllerGains``).
    """

    m: float = 0.029
    g: float = GRAVITY
    k_tf: float = 1.25e-3
    vk_d_x: float = 0.0174
    vk_d_z: float = 0.004
    vk_gamma: float = 20.0
    vk_damp: float = 0.4
    kbar_gamma: float = 0.5
    kbar_flap_x: float = 0.06

    def __post_init__(self):
        _require_finite(self)
        if min(self.m, self.g, self.k_tf) <= 0:
            raise InvalidInputError("m, g, k_tf must be positive")
        if min(self.vk_d_x, self.vk_d_z, self.vk_gamma, self.vk_damp, self.kbar_gamma,
               self.kbar_flap_x) < 0:
            raise InvalidInputError("model coefficients must be non-negative")

    @property
    def hover_frequency(self) -> float:
        return math.sqrt(self.m * self.g / self.k_tf)

    def _constants(self) -> tuple:
        """What the vertical law reads besides the input terms, in one tuple:
        m, g, the forward and vertical drag gains, the tilt proxy's velocity
        yaw gain and the yaw damping."""
        return self.m, self.g, self.vk_d_x, self.vk_d_z, self.kbar_gamma, self.vk_damp


# ---------------------------------------------------------------------------
# scalar terms of the full model's law; x * abs(x) is sgn(x) * x**2 with
# sgn(0) = 0
# ---------------------------------------------------------------------------


def _drag(c, ux, uy, uz):
    """Body-frame drag -k_d,i sgn(u_i) u_i^2; ``c`` is FwavParams._constants()."""
    k_x, k_y, k_z = c[3]
    return -k_x * (ux * abs(ux)), -k_y * (uy * abs(uy)), -k_z * (uz * abs(uz))


def _deflection(c, ux, uz, f2, theta_rud, theta_ele):
    """Body-frame torque from the rudder/elevator deflections (small-deflection
    regime): each axis combines a velocity-induced gain sgn(uz) ux^2 and a
    flapping-induced gain f^2; x/z rows are driven by the rudder, the y row
    by the elevator."""
    sv = 0.0 if uz == 0.0 else math.copysign(ux * ux, uz)
    (t_x, t_y, t_z), (f_x, f_y, f_z) = c[4], c[5]
    return (
        -(t_x * sv + f_x * f2) * theta_rud,
        -(t_y * sv + f_y * f2) * theta_ele,
        -(t_z * sv + f_z * f2) * theta_rud,
    )


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


_NON_UNIT_GAMMA = "reduced attitude input must be unit norm"
_NEGATIVE_FLAP = "flapping frequency must be non-negative"

# the name and the columns of each kind of row
_FULL_STATE = "full state", FULL_LOG_HEADER.split(",")[1:]
_FULL_COMMAND = "full-model command", ["f_flap_c", "theta_rud_c", "theta_ele_c"]
_VERTICAL_STATE = "vertical state", VERTICAL_LOG_HEADER.split(",")[1:9]
_VERTICAL_INPUT = "vertical input", VERTICAL_LOG_HEADER.split(",")[9:]


def _checked(row, layout):
    """``row`` if it has one entry per column of ``layout``; otherwise raises
    InvalidInputError naming the layout."""
    name, columns = layout
    if len(row) != len(columns):
        raise InvalidInputError(
            f"a {name} row is {len(columns)} floats ({', '.join(columns)}), not {len(row)}")
    return row


def full_rhs(state, cmd, params: FwavParams) -> tuple[float, ...]:
    """Time derivative of the full state row (16 floats incl. quaternion).

    ``state`` is a full state row, ``cmd`` a command row (f_flap_c,
    theta_rud_c, theta_ele_c); an ndarray is read through ``tolist``.  The
    quaternion is normalized before use.  Raises InvalidInputError for a row
    of another length, a negative flapping frequency or a zero quaternion and
    PropagationError for a non-finite state.
    """
    y = _checked(state.tolist() if isinstance(state, np.ndarray) else state, _FULL_STATE)
    f_c, rud_c, ele_c = _checked(cmd, _FULL_COMMAND)
    if _stage_stops(y):
        raise PropagationError("non-finite state", step=-1)
    return _full_law(params._constants(), y, (f_c, rud_c, ele_c))


def _stage_stops(y) -> bool:
    """``full_rhs``'s state checks, in its order, on a flat state: raises for a
    negative flapping frequency, and is True if an entry is non-finite."""
    if y[13] < 0:
        raise InvalidInputError(_NEGATIVE_FLAP)
    # a finite sum has only finite terms; an overflowing one is rechecked
    return not math.isfinite(sum(y)) and not all(map(math.isfinite, y))


def _full_law(c, y, u):
    """The full-model equations on the floats of a checked flat state y under the
    command row u = (f_flap_c, theta_rud_c, theta_ele_c), ``c`` from
    ``FwavParams._constants``; no row reads the position."""
    m, g, k_tf, _, _, _, k_flap_c, k_rud_c, k_ele_c, j, jinv = c
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, f, theta_rud, theta_ele = y
    f_c, rud_c, ele_c = u
    qw, qx, qy, qz, r00, r01, r02, r10, r11, r12, r20, r21, r22, ux, uy, uz = _attitude(
        qw, qx, qy, qz, vx, vy, vz)
    f2 = f * f
    fx, fy, fz = _drag(c, ux, uy, uz)
    fz += k_tf * f2

    # omega_dot = J^-1 (tau - omega x J omega)
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = j
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    tx, ty, tz = _deflection(c, ux, uz, f2, theta_rud, theta_ele)
    tx -= wy * hz - wz * hy
    ty -= wz * hx - wx * hz
    tz -= wx * hy - wy * hx
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = jinv

    return (
        vx, vy, vz,
        (r00 * fx + r01 * fy + r02 * fz) / m,
        (r10 * fx + r11 * fy + r12 * fz) / m,
        (r20 * fx + r21 * fy + r22 * fz) / m - g,
        # q_dot = q (x) (0, omega) / 2
        -0.5 * (qx * wx + qy * wy + qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy + qz * wx - qx * wz),
        0.5 * (qw * wz + qx * wy - qy * wx),
        i00 * tx + i01 * ty + i02 * tz,
        i10 * tx + i11 * ty + i12 * tz,
        i20 * tx + i21 * ty + i22 * tz,
        (f_c - f) / k_flap_c,
        (rud_c - theta_rud) / k_rud_c,
        (ele_c - theta_ele) / k_ele_c,
    )


def vertical_rhs(
    state,
    inputs,
    params: VerticalParams,
    rudder_mode: str = "gamma-proxy",
) -> tuple[float, ...]:
    """Time derivative of the vertical-frame state row (8 floats).

    ``state`` is a vertical state row, ``inputs`` an input row (gx, gy, gz,
    fflap); an ndarray state is read through ``tolist``.  The thrust enters
    the forward/vertical rows as -k_tf f^2 Gx and +k_tf f^2 Gz, and the
    lateral velocity is frozen, the idealization the flatness construction
    assumes.  The yaw law is the tilt proxy's by default; ``rudder_mode``
    "explicit-rudder" is the wind vane the flatness map inverts, the rudder
    at neutral.  Raises InvalidInputError for a row of another length or an
    invalid input and PropagationError for a non-finite state.
    """
    y = state.tolist() if isinstance(state, np.ndarray) else state
    _, _, _, vvx, vvy, vvz, psi, w = _checked(y, _VERTICAL_STATE)
    # a finite sum has only finite terms; an overflowing one is rechecked
    if not math.isfinite(sum(y)) and not all(map(math.isfinite, y)):
        raise PropagationError("non-finite state", step=-1)
    explicit = _explicit_rudder(rudder_mode)
    terms = _vertical_terms(params, explicit, *_input_row(inputs))
    ax, ay, az, w_dot = _vertical_dynamics(params._constants(), explicit, vvx, vvy, vvz, w, *terms)
    return (*_vertical_kinematics(math.cos(psi), math.sin(psi), vvx, vvy, vvz),
            ax, ay, az, w, w_dot)


def _input_row(inputs) -> tuple:
    """The checked input row (gx, gy, gz, fflap)."""
    gx, gy, gz, f = _checked(inputs, _VERTICAL_INPUT)
    bad_gamma, bad_f = _input_faults(gx, gy, gz, f)
    if bad_gamma or bad_f:
        raise InvalidInputError(_NON_UNIT_GAMMA if bad_gamma else _NEGATIVE_FLAP)
    return gx, gy, gz, f


def _input_faults(gx, gy, gz, f):
    """The vertical input check, on floats or the columns of a table: whether
    the reduced attitude is not unit norm to 1e-6 and whether fflap is
    negative, NaN failing both."""
    n = (gx * gx + gy * gy + gz * gz) ** 0.5
    return (abs(n - 1.0) > 1e-6) | (n != n), (f < 0) | (f != f)


def _explicit_rudder(rudder_mode: str) -> bool:
    """True for "explicit-rudder" (the wind vane, rudder at neutral), False for
    "gamma-proxy"."""
    if rudder_mode == "explicit-rudder":
        return True
    if rudder_mode == "gamma-proxy":
        return False
    raise InvalidInputError(f"unknown rudder mode {rudder_mode!r}")


def _vertical_terms(params, explicit, gx, gy, gz, f):
    """The vertical law's input-only terms of the checked input (gx, gy, gz, f),
    floats or arrays: the thrust's forward and vertical accelerations
    -k_tf f^2 Gx / m and k_tf f^2 Gz / m, the yaw gain (vk_gamma Gy for the
    wind vane, the flapping gain kbar_flap_x f^2 Gz under the tilt proxy)
    and Gy."""
    f2 = f * f
    thrust = params.k_tf * f2
    yaw = params.vk_gamma * gy if explicit else params.kbar_flap_x * f2 * gz
    return -thrust * gx / params.m, thrust * gz / params.m, yaw, gy


def _vertical_dynamics(c, explicit, vvx, vvy, vvz, w, ax_thrust, az_thrust, yaw, gy):
    """The vertical model's dynamic rows, the rates of (vvx, vvy, vvz, w) under
    an input's ``_vertical_terms``, ``c`` from ``VerticalParams._constants``:
    the lateral velocity is frozen, and the yaw rate follows the wind vane
    vk_gamma Gy vvx|vvx| or the tilt proxy -(kbar_gamma vvz|vvz| +
    kbar_flap_x f^2 Gz) Gy, both damped by vk_damp w|w|.  Neither the azimuth
    nor the position is an argument, because no dynamic row reads them.
    Arithmetic and ``abs`` only, so floats and arrays run the same text to
    the same bits."""
    m, g, d_x, d_z, kbar_gamma, damp = c
    dx, dz = vvx * abs(vvx), vvz * abs(vvz)
    ax = ax_thrust - d_x * dx / m - w * vvy
    az = az_thrust - d_z * dz / m - g
    w_dot = yaw * dx if explicit else -(kbar_gamma * dz + yaw) * gy
    return ax, 0.0, az, w_dot - damp * (w * abs(w))


def _vertical_kinematics(cos, sin, vvx, vvy, vvz):
    """The vertical model's position rows R_z(psi) vv from cos psi and sin psi,
    on floats, arrays or jets; the azimuth row is psi_dot = w.  With -sin it
    is R_z(psi)^T, the vertical-frame velocity of an inertial one: the
    controller tick, the vertical plant's measurement and the flatness frame
    read it.  Three copies stay written out: ``_vertical_steps``' inline pose
    (the closed loop's hot loop), ``run_closed_loop``'s start state
    ``rotz(psi0).T @ v0`` (a matrix product that rounds differently, which
    moves case a's ill-conditioned flight) and ``metrics.error_components``
    (one more full-length temporary)."""
    return cos * vvx - sin * vvy, sin * vvx + cos * vvy, vvz


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------


def rk4_flat(rhs, y: list, dt: float, u0, um, u1, *args) -> list:
    """One classical RK4 step of ``rhs(y, u, *args)`` on a list of floats.

    The input is u0 on the first stage, um on the two midpoint stages and
    u1 on the last.  Returns a new list.
    """
    h = 0.5 * dt
    k1 = rhs(y, u0, *args)
    k2 = rhs([a + h * b for a, b in zip(y, k1)], um, *args)
    k3 = rhs([a + h * b for a, b in zip(y, k2)], um, *args)
    k4 = rhs([a + dt * b for a, b in zip(y, k3)], u1, *args)
    c = dt / 6.0
    return [
        a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]


def _vertical_steps(params, y, terms, first, n, dt, states, k0, radius):
    """``rk4_flat`` on ``vertical_rhs`` under one held gamma-proxy input, unrolled,
    the pose computed inline at every step: n steps from the flat state y at row k0,
    ``terms`` the input's ``_vertical_terms`` and ``first`` the derivative at y.
    Writes rows k0 + 1.. of ``states``, in one slice, up to the first non-finite
    state or position norm beyond ``radius``; returns the last state, its row and
    whether it stopped there.  An infinite stage azimuth makes its step's position
    NaN, as ``np.cos`` would.  The closed loop's stepper: its blocks are a
    controller tick long, too short for ``_vertical_replay``'s array pass to pay."""
    px, py, pz, vvx, vvy, vvz, psi, w = y
    tx, tz, yaw, gy = terms
    h, c6, dyn, cos, sin = 0.5 * dt, dt / 6.0, _vertical_dynamics, math.cos, math.sin
    isfinite, sqrt = math.isfinite, math.sqrt
    c, out, stopped = params._constants(), [], False
    k, last = k0, k0 + n
    stage = first[3:6] + first[7:]
    for k in range(k0 + 1, last + 1):
        a1, b1, c1, e1 = stage
        # no more than three names an assignment: CPython builds no tuple for those
        vx2, vy2, vz2 = vvx + h * a1, vvy + h * b1, vvz + h * c1
        w2 = w + h * e1
        a2, b2, c2, e2 = dyn(c, False, vx2, vy2, vz2, w2, tx, tz, yaw, gy)
        vx3, vy3, vz3 = vvx + h * a2, vvy + h * b2, vvz + h * c2
        w3 = w + h * e2
        a3, b3, c3, e3 = dyn(c, False, vx3, vy3, vz3, w3, tx, tz, yaw, gy)
        vx4, vy4, vz4 = vvx + dt * a3, vvy + dt * b3, vvz + dt * c3
        w4 = w + dt * e3
        a4, b4, c4, e4 = dyn(c, False, vx4, vy4, vz4, w4, tx, tz, yaw, gy)
        # _vertical_kinematics, inline, at the stage azimuths psi, psi + h w, psi + h w2
        # and psi + dt w3
        psi2, psi3, psi4 = psi + h * w, psi + h * w2, psi + dt * w3
        try:
            cos1, sin1 = cos(psi), sin(psi)
            cos2, sin2 = cos(psi2), sin(psi2)
            cos3, sin3 = cos(psi3), sin(psi3)
            cos4, sin4 = cos(psi4), sin(psi4)
        except ValueError:  # math.cos of an infinity
            cos1 = sin1 = cos2 = sin2 = cos3 = sin3 = cos4 = sin4 = math.nan
        px = px + c6 * ((cos1 * vvx - sin1 * vvy) + 2.0 * (cos2 * vx2 - sin2 * vy2)
                        + 2.0 * (cos3 * vx3 - sin3 * vy3) + (cos4 * vx4 - sin4 * vy4))
        py = py + c6 * ((sin1 * vvx + cos1 * vvy) + 2.0 * (sin2 * vx2 + cos2 * vy2)
                        + 2.0 * (sin3 * vx3 + cos3 * vy3) + (sin4 * vx4 + cos4 * vy4))
        pz = pz + c6 * (vvz + 2.0 * vz2 + 2.0 * vz3 + vz4)
        vvx = vvx + c6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        vvy = vvy + c6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        vvz = vvz + c6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        psi = psi + c6 * (w + 2.0 * w2 + 2.0 * w3 + w4)
        w = w + c6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        y = px, py, pz, vvx, vvy, vvz, psi, w
        out.append(y)
        # a finite sum has only finite terms; an overflowing one is rechecked
        if (not isfinite(px + py + pz + vvx + vvy + vvz + psi + w) and not all(map(isfinite, y))
                or sqrt(px * px + py * py + pz * pz) > radius):
            stopped = True
            break
        if k < last:
            stage = dyn(c, False, vvx, vvy, vvz, w, tx, tz, yaw, gy)
    if out:
        states[k0 + 1:k + 1] = out
    return y, k, stopped


def _vertical_replay(c, explicit, y, terms, dt) -> np.ndarray:
    """``rk4_flat`` on ``vertical_rhs`` over one table block, in two passes: n steps
    from the flat state y over ``terms``, the ``_vertical_terms`` arrays of 2n + 1
    checked half-step input rows.  Returns the n state rows after y, up to and past
    a non-finite one.

    The float loop steps only (vvx, vvy, vvz, w), the states that feed back: no
    dynamic row reads the pose.  One array pass then replays its RK4 stage states
    through the same ``_vertical_dynamics`` text, takes the stage azimuths' cosines
    and sines, and sums the azimuth and position increments in step order with
    ``np.cumsum`` (``np.add.accumulate`` adds in sequence), so every row is
    ``rk4_flat``'s bit for bit.  Run under an errstate that ignores overflow and
    invalid operations, which floats do silently."""
    h, c6, dyn = 0.5 * dt, dt / 6.0, _vertical_dynamics
    vvx, vvy, vvz, w = y[3], y[4], y[5], y[7]
    dynamic, rows = [vvx, vvy, vvz, w], list(zip(*(t.tolist() for t in terms)))
    for (t1, z1, yaw1, gy1), (tm, zm, yawm, gym), (t2, z2, yaw2, gy2) \
            in zip(rows[0::2], rows[1::2], rows[2::2]):
        a1, b1, c1, e1 = dyn(c, explicit, vvx, vvy, vvz, w, t1, z1, yaw1, gy1)
        a2, b2, c2, e2 = dyn(c, explicit, vvx + h * a1, vvy + h * b1, vvz + h * c1,
                             w + h * e1, tm, zm, yawm, gym)
        a3, b3, c3, e3 = dyn(c, explicit, vvx + h * a2, vvy + h * b2, vvz + h * c2,
                             w + h * e2, tm, zm, yawm, gym)
        a4, b4, c4, e4 = dyn(c, explicit, vvx + dt * a3, vvy + dt * b3, vvz + dt * c3,
                             w + dt * e3, t2, z2, yaw2, gy2)
        vvx = vvx + c6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        vvy = vvy + c6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        vvz = vvz + c6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        w = w + c6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        dynamic += vvx, vvy, vvz, w  # one flat list: np.array reads it 3x faster

    v = np.array(dynamic).reshape(-1, 4)
    n = len(v) - 1
    vx1, vy1, vz1, w1 = v[:-1].T
    a1, b1, c1, e1 = dyn(c, explicit, vx1, vy1, vz1, w1, *(t[0:2 * n:2] for t in terms))
    mid = [t[1::2] for t in terms]
    vx2, vy2, vz2, w2 = vx1 + h * a1, vy1 + h * b1, vz1 + h * c1, w1 + h * e1
    a2, b2, c2, e2 = dyn(c, explicit, vx2, vy2, vz2, w2, *mid)
    vx3, vy3, vz3, w3 = vx1 + h * a2, vy1 + h * b2, vz1 + h * c2, w1 + h * e2
    a3, b3, c3, e3 = dyn(c, explicit, vx3, vy3, vz3, w3, *mid)
    vx4, vy4, vz4, w4 = vx1 + dt * a3, vy1 + dt * b3, vz1 + dt * c3, w1 + dt * e3
    out = np.empty((n + 1, 8))
    out[0] = y
    out[1:, 3:6], out[1:, 7] = v[1:, 0:3], v[1:, 3]
    out[1:, 6] = c6 * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
    psi = np.cumsum(out[:, 6], out=out[:, 6])[:-1]
    stage_psi = np.stack([psi, psi + h * w1, psi + h * w2, psi + dt * w3])
    dp = _vertical_kinematics(np.cos(stage_psi), np.sin(stage_psi),
                              np.stack([vx1, vx2, vx3, vx4]), np.stack([vy1, vy2, vy3, vy4]),
                              np.stack([vz1, vz2, vz3, vz4]))
    for col, d in enumerate(dp):
        out[1:, col] = c6 * (d[0] + 2.0 * d[1] + 2.0 * d[2] + d[3])
        np.cumsum(out[:, col], out=out[:, col])
    return out[1:]


def _full_steps(params, y, u, n, dt, states, k0, first, radius):
    """``rk4_flat`` on ``full_rhs`` under one held command row u, the quaternion
    projected onto the unit sphere after each step: n steps from the flat state y
    at row k0, ``first`` the derivative at y.  Stages keep ``full_rhs``'s checks; a
    non-finite one stops the run before its step is logged, a non-finite state or
    a position norm beyond ``radius`` after.  Writes rows k0 + 1.. of ``states``;
    returns the last logged state, its row and the row the run stopped at or
    None.  The closed loop's stepper, one block per controller tick."""
    c, h, c6, isfinite, sqrt = params._constants(), 0.5 * dt, dt / 6.0, math.isfinite, math.sqrt
    k, last, d1 = k0, k0 + n, first
    for k in range(k0 + 1, last + 1):
        d2 = _full_stage(c, y, h, d1, u)
        d3 = d2 and _full_stage(c, y, h, d2, u)
        d4 = d3 and _full_stage(c, y, dt, d3, u)
        if d4 is None:
            return y, k - 1, k
        y = [a + c6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, d1, d2, d3, d4)]
        norm = sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8] + y[9] * y[9])
        if norm > 0:
            y[6:10] = y[6] / norm, y[7] / norm, y[8] / norm, y[9] / norm
        states[k] = y
        if (sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) > radius
                or not isfinite(sum(y)) and not all(map(isfinite, y))):
            return y, k, k
        if k < last:
            if y[13] < 0:
                raise InvalidInputError(_NEGATIVE_FLAP)
            d1 = _full_law(c, y, u)
    return y, k, None


def _full_stage(c, y, h, d, u):
    """The derivative at the RK4 stage state y + h d under the command row u, or
    None if that state is not finite; ``full_rhs``'s checks, unrolled on floats."""
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, f, ru, el = y
    dpx, dpy, dpz, ax, ay, az, dqw, dqx, dqy, dqz, dwx, dwy, dwz, df, dru, dele = d
    s = (px + h * dpx, py + h * dpy, pz + h * dpz, vx + h * ax, vy + h * ay, vz + h * az,
         qw + h * dqw, qx + h * dqx, qy + h * dqy, qz + h * dqz, wx + h * dwx, wy + h * dwy,
         wz + h * dwz, f + h * df, ru + h * dru, el + h * dele)
    return None if _stage_stops(s) else _full_law(c, s, u)


def _schedule(dt: float, duration: float, rate_hz: float | None = None) -> tuple[int, int]:
    """(n_steps, n_sub) of a fixed-step run: round(duration / dt) steps, and the
    steps per controller tick, 1 without a rate.  dt and a given rate must be
    finite and positive, dt must divide the period 1 / rate_hz (a whole number
    of steps, at least one, to 1e-9) and the duration must be finite and
    non-negative, with at most sys.maxsize steps; the first that fails raises
    InvalidInputError ("need ...")."""
    if not (0.0 < dt < math.inf and (rate_hz is None or 0.0 < rate_hz < math.inf)):
        need = "dt > 0" if rate_hz is None else "dt > 0 and rate > 0"
        rate = "" if rate_hz is None else f", rate={rate_hz}"
        raise InvalidInputError(f"need finite {need}, got dt={dt}{rate}")
    ticks = 1.0 if rate_hz is None else rate_hz * dt  # controller ticks per step
    sub = 1.0 / ticks if ticks > 0.0 else math.inf  # steps per tick; ticks may underflow
    n_sub = round(sub) if sub < math.inf else 0
    if n_sub < 1 or abs(sub - n_sub) > 1e-9:
        raise InvalidInputError(f"need dt={dt} to divide the controller period {1.0 / rate_hz}")
    if not 0.0 <= duration < math.inf:
        raise InvalidInputError(f"need a finite duration >= 0, got {duration}")
    if not duration / dt <= sys.maxsize:
        raise InvalidInputError(f"need at most {sys.maxsize} steps, got {duration / dt}")
    return round(duration / dt), n_sub


@dataclass
class FullLog:
    """Time-indexed log of a full-model run (one row per step)."""

    t: np.ndarray
    states: np.ndarray  # columns: p(3) v(3) q(4) omega(3) f thrud thele

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, 0:3]

    def to_csv(self, path) -> None:
        rows = np.column_stack([self.t, self.states])
        _write_csv(path, FULL_LOG_HEADER, rows)


@dataclass
class VerticalLog:
    """Time-indexed log of a vertical-model run, including applied inputs."""

    t: np.ndarray
    states: np.ndarray  # columns: p(3) vv(3) psi omegapsi
    inputs: np.ndarray  # columns: gx gy gz fflap

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, 0:3]

    def to_csv(self, path) -> None:
        """The log as CSV; the input columns are held cells of ``_write_csv``,
        formatted once per run of rows that hold the same input."""
        rows = np.column_stack([self.t, self.states, self.inputs])
        _write_csv(path, VERTICAL_LOG_HEADER, rows, held=self.inputs.shape[1])


def _write_csv(path, header: str, rows: np.ndarray, held: int = 0) -> None:
    """Header line, then one line per row with every cell as %.12g.

    The last ``held`` columns are held cells: where consecutive rows repeat
    them bit for bit, they are formatted once per run of such rows, and each
    row of the run is its leading cells plus that cached text.  The bytes are
    those of one %.12g per cell.  A table whose runs are shorter than two rows
    on average is written one row at a time."""
    rows = np.ascontiguousarray(rows)
    n, width = rows.shape
    line = ",".join(["%.12g"] * width) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        if held:
            # each row's held cells as one item of raw bytes
            bits = rows[:, width - held:].view(np.dtype((np.void, held * rows.itemsize)))[:, 0]
            changed = bits[1:] != bits[:-1]
        if not held or 2 * (np.count_nonzero(changed) + 1) > n:
            fh.writelines(line % tuple(row.tolist()) for row in rows)
            return
        lead = "%.12g," * (width - held)
        starts = (np.flatnonzero(changed) + 1).tolist()
        for a, b in zip([0, *starts], [*starts, n]):
            run = lead + line[len(lead):] % tuple(rows[a, width - held:].tolist())
            fh.writelines(run % tuple(row) for row in rows[a:b, :width - held].tolist())


@contextlib.contextmanager
def _open_text(path):
    """``path`` opened for reading as UTF-8 text; a byte that does not decode
    raises InvalidInputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as err:
        raise InvalidInputError(f"{path}: not UTF-8 text ({err.reason})") from None


def _half_steps(dt: float, duration: float) -> list[float]:
    """The half-step times j dt/2, j = 0..2n, of an n-step run: the RK4 stage times."""
    return (np.arange(2 * _schedule(dt, duration)[0] + 1) * (0.5 * dt)).tolist()


def simulate_vertical(
    state0,
    params: VerticalParams,
    inputs: Callable[[float], tuple],
    rudder_mode: str = "gamma-proxy",
    dt: float = 1e-3,
    duration: float = 1.0,
) -> VerticalLog:
    """Integrate the vertical-frame model from the state row ``state0`` under a
    schedule of input rows (gx, gy, gz, fflap), read once at each half-step
    time: ``integrate_vertical_tabulated`` on that table."""
    rows = (_checked(u, _VERTICAL_INPUT) for u in map(inputs, _half_steps(dt, duration)))
    table = np.fromiter(rows, (float, 4))
    return integrate_vertical_tabulated(state0, params, table[:, 0:3], table[:, 3], dt,
                                        rudder_mode)


_TABLE_BLOCK = 1024  # steps of the input table checked at once


def integrate_vertical_tabulated(
    state0,
    params: VerticalParams,
    gamma_grid: np.ndarray,
    f_grid: np.ndarray,
    dt: float,
    rudder_mode: str = "gamma-proxy",
) -> VerticalLog:
    """RK4 on the vertical model from the state row ``state0`` with inputs
    tabulated at half-step spacing.

    ``gamma_grid`` (2*n_steps+1, 3) and ``f_grid`` (2*n_steps+1,) hold the
    inputs at times k*dt/2, the exact abscissae RK4 stages use; dt must be
    positive and finite.  The rudder mode is resolved once, and the table is
    read from the grids and checked with ``vertical_rhs``'s ``_input_faults``
    one block of steps at a time (no copy of the whole table);
    ``_vertical_replay`` runs each block on the ``_vertical_terms`` of its
    rows.  The log is ``rk4_flat`` over ``vertical_rhs`` on the same samples
    bit for bit.  An invalid sample raises InvalidInputError after the steps
    before the one that first reads it, and a non-finite state raises
    PropagationError naming its step.
    """
    shape = np.shape(gamma_grid)
    if len(shape) != 2 or shape[1] != 3:
        raise InvalidInputError(f"gamma_grid must be (2 n_steps + 1, 3), not {shape}")
    if np.shape(f_grid) != shape[:1]:
        raise InvalidInputError(
            f"f_grid needs one sample per row of gamma_grid: {np.shape(f_grid)}, not {shape[:1]}")
    if shape[0] % 2 == 0:
        raise InvalidInputError("need an odd number of half-step input samples")
    _schedule(dt, 0.0)  # the step check; the table sets the step count
    explicit, c = _explicit_rudder(rudder_mode), params._constants()
    n_steps = (shape[0] - 1) // 2
    states = np.empty((n_steps + 1, 8))
    states[0] = [float(v) for v in _checked(state0, _VERTICAL_STATE)]
    for start in range(0, n_steps, _TABLE_BLOCK):
        stop = min(start + _TABLE_BLOCK, n_steps)
        lo, hi = 2 * start, 2 * stop + 1
        block = np.column_stack([gamma_grid[lo:hi], f_grid[lo:hi]]).astype(float)
        bad_gamma, bad_f = _input_faults(*block.T)
        bad = np.flatnonzero(bad_gamma | bad_f)
        if bad.size:
            # sample j of the block is first read in step start + max(j - 1, 0) // 2
            stop = start + max(int(bad[0]) - 1, 0) // 2
        # float products overflow to inf and NaN silently; the arrays' must too
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _vertical_terms(params, explicit, *block[:2 * (stop - start) + 1].T)
            rows = _vertical_replay(c, explicit, states[start].tolist(), terms, dt)
        states[start + 1:stop + 1] = rows
        non_finite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if non_finite.size:
            raise PropagationError("integration produced non-finite state",
                                   step=start + 1 + int(non_finite[0]))
        if bad.size:
            j = int(bad[0])
            raise InvalidInputError(_NON_UNIT_GAMMA if bad_gamma[j] else _NEGATIVE_FLAP)
    applied = np.column_stack([gamma_grid[::2], f_grid[::2]])
    return VerticalLog(np.arange(n_steps + 1) * dt, states, applied)

