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

Each model's equations are written once, on floats whose arguments are
already checked: ``_full_law`` and ``_vertical_law``, each reading its
parameters as one tuple (``FwavParams._constants``,
``VerticalParams._constants``).  The vertical law reads its input through
``_vertical_terms``, the terms that depend on the input alone, written once
for floats and arrays.  The right-hand sides ``full_rhs`` and
``vertical_rhs`` take a state view or a flat vector, check it and call
them.  Thrust, drag (``_drag``) and the deflection torque
(``_deflection``) are terms of the full law, read only through it.  Each
model's RK4 step is written once too, over a block of steps: ``_full_steps``
(the quaternion projected onto the unit sphere after each step) and
``_vertical_steps``.  Both keep ``rk4_flat``'s floating-point operation
order, so every driver logs ``rk4_flat``'s states bit for bit.
Inputs are checked where they change, not at every stage: the replay checks
its table a block at a time and the closed loop its held input once per tick.
The vertical input terms are computed there too: once per table row in the
replay, as arrays, and once per tick in the closed loop.
``simulate_full`` and ``simulate_vertical`` read their schedule once at each
half-step time and run one block over that table (``simulate_vertical`` is
the replay on it).  The full model's stage states keep ``full_rhs``'s state
checks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attitude import UnitQuaternion
from .errors import InvalidInputError, PropagationError

FULL_LOG_HEADER = (
    "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,fflap,thrud,thele"
)
VERTICAL_LOG_HEADER = "t,px,py,pz,vvx,vvy,vvz,psi,omegapsi,gx,gy,gz,fflap"

GRAVITY = 9.81


# ---------------------------------------------------------------------------
# parameter and state containers
# ---------------------------------------------------------------------------


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
class FwavState:
    """Full model state; p, v inertial, omega body frame."""

    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    q: UnitQuaternion = field(default_factory=UnitQuaternion.identity)
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))
    f_flap: float = 0.0
    theta_rud: float = 0.0
    theta_ele: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        if self.f_flap < 0:
            raise InvalidInputError("flapping frequency must be non-negative")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([
            self.p, self.v, self.q.as_array(), self.omega,
            [self.f_flap, self.theta_rud, self.theta_ele],
        ])


@dataclass
class VerticalParams:
    """Coefficients of the simplified vertical-frame model.

    ``vk_tau_x``/``vk_flap_x`` drive the explicit rudder yaw torque;
    ``kbar_gamma``/``kbar_flap_x`` are the lumped gains of the tilt-proxy
    yaw torque, whose effective control gain is bounded by
    [l_gamma_min, l_gamma_max].  ``lateral_mode`` selects how the frame's
    lateral velocity is treated: "constrained" enforces vv_y == const (the
    non-holonomic idealization the flatness map relies on) while "free"
    integrates the relaxed lateral dynamics.
    """

    m: float = 0.029
    g: float = GRAVITY
    k_tf: float = 1.25e-3
    vk_d_x: float = 0.0174
    vk_d_y: float = 0.030
    vk_d_z: float = 0.004
    vk_gamma: float = 20.0
    vk_damp: float = 0.4
    vk_tau_x: float = 0.5
    vk_flap_x: float = 0.02
    kbar_gamma: float = 0.5
    kbar_flap_x: float = 0.06
    l_gamma_min: float = 5.0
    l_gamma_max: float = 25.0
    lateral_mode: str = "constrained"

    def __post_init__(self):
        if min(self.m, self.g, self.k_tf) <= 0:
            raise InvalidInputError("m, g, k_tf must be positive")
        if not 0 < self.l_gamma_min <= self.l_gamma_max:
            raise InvalidInputError("need 0 < l_gamma_min <= l_gamma_max")
        coeffs = (
            self.vk_d_x, self.vk_d_y, self.vk_d_z, self.vk_gamma, self.vk_damp,
            self.vk_tau_x, self.vk_flap_x, self.kbar_gamma, self.kbar_flap_x,
        )
        if min(coeffs) < 0:
            raise InvalidInputError("model coefficients must be non-negative")
        if self.lateral_mode not in ("constrained", "free"):
            raise InvalidInputError("lateral_mode must be 'constrained' or 'free'")

    @property
    def hover_frequency(self) -> float:
        return math.sqrt(self.m * self.g / self.k_tf)

    def _constants(self) -> tuple:
        """What the vertical law reads besides the input terms, in one tuple:
        m, g, the drag gains per axis, the explicit rudder's and the tilt
        proxy's velocity yaw gains, the yaw damping and whether the lateral
        velocity is constrained."""
        return (self.m, self.g, self.vk_d_x, self.vk_d_y, self.vk_d_z, self.vk_tau_x,
                self.kbar_gamma, self.vk_damp, self.lateral_mode == "constrained")


@dataclass
class VerticalState:
    """Vertical-frame model state; p inertial, vv in the azimuth frame."""

    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vv: np.ndarray = field(default_factory=lambda: np.zeros(3))
    psi: float = 0.0
    omega_psi: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.vv = np.asarray(self.vv, dtype=float)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.p, self.vv, [self.psi, self.omega_psi]])


@dataclass
class VerticalInputs:
    """Inputs of the vertical-frame model; theta_rud only matters in
    explicit-rudder mode."""

    gamma: np.ndarray
    f_flap: float
    theta_rud: float = 0.0

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)


@dataclass
class ActuatorCommands:
    """Commanded flapping frequency and deflections of the full model."""

    f_flap_c: float = 0.0
    theta_rud_c: float = 0.0
    theta_ele_c: float = 0.0

    def __iter__(self):
        return iter((self.f_flap_c, self.theta_rud_c, self.theta_ele_c))


# ---------------------------------------------------------------------------
# scalar terms of the full model's law; x * abs(x) is sgn(x) * x**2 with
# sgn(0) = 0
# ---------------------------------------------------------------------------


def _floats(state, view):
    """The flat state of a view or of a float sequence."""
    if isinstance(state, view):
        state = state.as_vector()
    return state.tolist() if isinstance(state, np.ndarray) else state


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


def full_rhs(state, cmd, params: FwavParams) -> tuple[float, ...]:
    """Time derivative of the full state (16 floats incl. quaternion).

    ``state`` is an FwavState or a flat 16-vector; ``cmd`` is an
    ActuatorCommands or a flat (f_flap_c, theta_rud_c, theta_ele_c).  The
    quaternion is normalized before use.  Raises InvalidInputError for a
    negative flapping frequency or a zero quaternion and PropagationError
    for a non-finite state.
    """
    y = state if isinstance(state, (list, tuple)) else _floats(state, FwavState)
    f_c, rud_c, ele_c = cmd
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
    """Time derivative of the vertical-frame state (8 floats).

    ``state`` is a VerticalState or a flat 8-vector; ``inputs`` is a
    VerticalInputs or a flat (gx, gy, gz, f_flap, theta_rud).  The thrust
    enters the forward/vertical rows as -k_tf f^2 Gx and +k_tf f^2 Gz.  In
    "free" lateral mode the lateral row integrates the relaxed
    non-holonomic dynamics vvy_dot = w_psi*vvx - (vk_d_y/m)*sgn*vvy^2; in
    "constrained" mode (default) the lateral velocity is frozen, which is
    the idealization the flatness construction assumes.
    """
    y = state if isinstance(state, (list, tuple)) else _floats(state, VerticalState)
    _, _, _, vvx, vvy, vvz, psi, w = y
    explicit = _explicit_rudder(rudder_mode)
    terms = _vertical_terms(params, explicit, *_input_row(inputs))
    return _vertical_law(params._constants(), explicit, vvx, vvy, vvz, psi, w, *terms)


def _input_row(inputs) -> tuple:
    """Checked (gx, gy, gz, f_flap, theta_rud) of a VerticalInputs or 5-vector."""
    if isinstance(inputs, VerticalInputs):
        (gx, gy, gz), f, theta_rud = inputs.gamma.tolist(), inputs.f_flap, inputs.theta_rud
    else:
        gx, gy, gz, f, theta_rud = inputs
    if abs(math.sqrt(gx * gx + gy * gy + gz * gz) - 1.0) > 1e-6:
        raise InvalidInputError(_NON_UNIT_GAMMA)
    if f < 0:
        raise InvalidInputError(_NEGATIVE_FLAP)
    return gx, gy, gz, f, theta_rud


def _explicit_rudder(rudder_mode: str) -> bool:
    """True for "explicit-rudder", False for "gamma-proxy"."""
    if rudder_mode == "explicit-rudder":
        return True
    if rudder_mode == "gamma-proxy":
        return False
    raise InvalidInputError(f"unknown rudder mode {rudder_mode!r}")


def _vertical_terms(params, explicit, gx, gy, gz, f, theta_rud):
    """The vertical law's input-only terms of the checked input (gx, gy, gz, f,
    theta_rud), floats or arrays: the thrust's forward and vertical
    accelerations -k_tf f^2 Gx / m and k_tf f^2 Gz / m, the flapping yaw
    gain f^2 Gz, the lever of the yaw torque (theta_rud with the explicit
    rudder, Gy under the tilt proxy) and vk_gamma Gy."""
    f2 = f * f
    thrust = params.k_tf * f2
    if explicit:
        yaw, lever = params.vk_flap_x * f2 * gz, theta_rud
    else:
        yaw, lever = params.kbar_flap_x * f2 * gz, gy
    return -thrust * gx / params.m, thrust * gz / params.m, yaw, lever, params.vk_gamma * gy


def _vertical_law(c, explicit, vvx, vvy, vvz, psi, w, ax_thrust, az_thrust, yaw, lever, gam):
    """The vertical-frame equations on floats under an input's
    ``_vertical_terms``, ``c`` from ``VerticalParams._constants``; position is
    not an argument because no row depends on it."""
    m, g, d_x, d_y, d_z, tau_x, kbar_gamma, damp, constrained = c
    dx, dz = vvx * abs(vvx), vvz * abs(vvz)
    ax = ax_thrust - d_x * dx / m - w * vvy
    ay = 0.0 if constrained else w * vvx - d_y * (vvy * abs(vvy)) / m
    az = az_thrust - d_z * dz / m - g
    if explicit:
        w_dot = -(tau_x * dz + yaw) * lever + gam * dx
    else:
        w_dot = -(kbar_gamma * dz + yaw) * lever
    w_dot -= damp * (w * abs(w))
    cos, sin = math.cos(psi), math.sin(psi)
    return cos * vvx - sin * vvy, sin * vvx + cos * vvy, vvz, ax, ay, az, w, w_dot


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


def _vertical_steps(params, explicit, y, rows, dt, states, k0, first=None, radius=math.inf):
    """``rk4_flat`` on ``vertical_rhs``, unrolled: n steps from the flat state y at row
    k0 over the ``_vertical_terms`` of 2n + 1 checked half-step input rows, ``first``
    the derivative at y and rows[0] if known.  Writes rows k0 + 1.. of ``states``, in
    one slice, up to the first non-finite state or position norm beyond ``radius``;
    returns the last state, its row and whether it stopped there.  Stage states carry
    no position."""
    px, py, pz, vvx, vvy, vvz, psi, w = y
    h, c6, law, isfinite, sqrt = 0.5 * dt, dt / 6.0, _vertical_law, math.isfinite, math.sqrt
    c, out, stopped = params._constants(), [], False
    k, last = k0, k0 + len(rows) // 2
    stage = first or law(c, explicit, vvx, vvy, vvz, psi, w, *rows[0])
    for k, (txm, tzm, yawm, leverm, gamm), (tx, tz, yaw, lever, gam) in zip(
            range(k0 + 1, last + 1), rows[1::2], rows[2::2]):
        dpx1, dpy1, dpz1, a1, b1, c1, d1, e1 = stage
        dpx2, dpy2, dpz2, a2, b2, c2, d2, e2 = law(
            c, explicit, vvx + h * a1, vvy + h * b1, vvz + h * c1,
            psi + h * d1, w + h * e1, txm, tzm, yawm, leverm, gamm)
        dpx3, dpy3, dpz3, a3, b3, c3, d3, e3 = law(
            c, explicit, vvx + h * a2, vvy + h * b2, vvz + h * c2,
            psi + h * d2, w + h * e2, txm, tzm, yawm, leverm, gamm)
        dpx4, dpy4, dpz4, a4, b4, c4, d4, e4 = law(
            c, explicit, vvx + dt * a3, vvy + dt * b3, vvz + dt * c3,
            psi + dt * d3, w + dt * e3, tx, tz, yaw, lever, gam)
        px = px + c6 * (dpx1 + 2.0 * dpx2 + 2.0 * dpx3 + dpx4)
        py = py + c6 * (dpy1 + 2.0 * dpy2 + 2.0 * dpy3 + dpy4)
        pz = pz + c6 * (dpz1 + 2.0 * dpz2 + 2.0 * dpz3 + dpz4)
        vvx = vvx + c6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        vvy = vvy + c6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        vvz = vvz + c6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        psi = psi + c6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        w = w + c6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        y = px, py, pz, vvx, vvy, vvz, psi, w
        out.append(y)
        # a finite sum has only finite terms; an overflowing one is rechecked
        if (not isfinite(px + py + pz + vvx + vvy + vvz + psi + w) and not all(map(isfinite, y))
                or sqrt(px * px + py * py + pz * pz) > radius):
            stopped = True
            break
        if k < last:
            stage = law(c, explicit, vvx, vvy, vvz, psi, w, tx, tz, yaw, lever, gam)
    if out:
        states[k0 + 1:k + 1] = out
    return y, k, stopped


def _full_steps(params, y, rows, dt, states, k0, first=None, radius=math.inf):
    """``rk4_flat`` on ``full_rhs``, the quaternion projected onto the unit sphere
    after each step: n steps from the flat state y at row k0 over 2n + 1 half-step
    command rows, ``first`` the derivative at y and rows[0] if known.  Stages keep
    ``full_rhs``'s checks; a non-finite one stops the run before its step is
    logged, a non-finite state or a position norm beyond ``radius`` after.  Writes
    rows k0 + 1.. of ``states``; returns the last logged state, its row and the
    row the run stopped at or None."""
    c, h, c6, isfinite, sqrt = params._constants(), 0.5 * dt, dt / 6.0, math.isfinite, math.sqrt
    k, last = k0, k0 + len(rows) // 2
    if first is None and _stage_stops(y):
        return y, k, k + 1
    d1 = first or _full_law(c, y, rows[0])
    for k, um, u1 in zip(range(k0 + 1, last + 1), rows[1::2], rows[2::2]):
        d2 = _full_stage(c, y, h, d1, um)
        d3 = d2 and _full_stage(c, y, h, d2, um)
        d4 = d3 and _full_stage(c, y, dt, d3, u1)
        if d4 is None:
            return y, k - 1, k
        y = [a + c6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, d1, d2, d3, d4)]
        n = sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8] + y[9] * y[9])
        if n > 0:
            y[6:10] = y[6] / n, y[7] / n, y[8] / n, y[9] / n
        states[k] = y
        if (sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) > radius
                or not isfinite(sum(y)) and not all(map(isfinite, y))):
            return y, k, k
        if k < last:
            if y[13] < 0:
                raise InvalidInputError(_NEGATIVE_FLAP)
            d1 = _full_law(c, y, u1)
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


def _stage_times(k: int, dt: float) -> tuple[float, float, float]:
    """Start, midpoint and end times of step k."""
    t = k * dt
    return t, t + 0.5 * dt, t + dt


def _step_count(dt: float, duration: float) -> int:
    if dt <= 0 or duration < dt:
        raise InvalidInputError("need dt > 0 and duration >= dt")
    return int(round(duration / dt))


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
        rows = np.column_stack([self.t, self.states, self.inputs])
        _write_csv(path, VERTICAL_LOG_HEADER, rows)


def _write_csv(path, header: str, rows: np.ndarray) -> None:
    """Header line, then one line per row with every cell as %.12g."""
    rows = np.asarray(rows)
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line % tuple(row.tolist()) for row in rows)


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
    return (np.arange(2 * _step_count(dt, duration) + 1) * (0.5 * dt)).tolist()


def simulate_full(
    state0: FwavState,
    params: FwavParams,
    commands: Callable[[float], ActuatorCommands],
    dt: float = 1e-3,
    duration: float = 1.0,
) -> FullLog:
    """Integrate the full model under a commanded actuator schedule, read once at
    each half-step time."""
    rows = [(f, rud, ele) for f, rud, ele in map(commands, _half_steps(dt, duration))]
    n_steps = len(rows) // 2
    states = np.empty((n_steps + 1, 16))
    states[0] = y = [float(v) for v in _floats(state0, FwavState)]
    _, _, stop = _full_steps(params, y, rows, dt, states, 0)
    if stop is not None:
        raise PropagationError("integration produced non-finite state", step=stop)
    return FullLog(np.arange(n_steps + 1) * dt, states)


def simulate_vertical(
    state0: VerticalState,
    params: VerticalParams,
    inputs: Callable[[float], VerticalInputs],
    rudder_mode: str = "gamma-proxy",
    dt: float = 1e-3,
    duration: float = 1.0,
) -> VerticalLog:
    """Integrate the vertical-frame model under a reduced-attitude schedule, read
    once at each half-step time: ``integrate_vertical_tabulated`` on that table."""
    table = np.fromiter(((*u.gamma, u.f_flap, u.theta_rud)
                         for u in map(inputs, _half_steps(dt, duration))), (float, 5))
    return integrate_vertical_tabulated(state0, params, table[:, 0:3], table[:, 3], dt,
                                        rudder_mode, table[:, 4])


_TABLE_BLOCK = 1024  # steps of the input table checked at once


def integrate_vertical_tabulated(
    state0: VerticalState,
    params: VerticalParams,
    gamma_grid: np.ndarray,
    f_grid: np.ndarray,
    dt: float,
    rudder_mode: str = "gamma-proxy",
    theta_rud_grid: np.ndarray | None = None,
) -> VerticalLog:
    """RK4 on the vertical model with inputs tabulated at half-step spacing.

    ``gamma_grid`` (2*n_steps+1, 3) and ``f_grid`` hold the inputs at times
    k*dt/2, the exact abscissae RK4 stages use.  The rudder mode is resolved
    once, and the table is read from the grids and checked with
    ``vertical_rhs``'s predicates one block of steps at a time (no copy of
    the whole table); ``_vertical_steps`` runs each block on the
    ``_vertical_terms`` of its rows.  The log is ``rk4_flat`` over
    ``vertical_rhs`` on the same samples bit for bit.  An invalid sample
    raises InvalidInputError after the steps before the one that first reads
    it, and a non-finite state raises PropagationError naming its step.
    """
    if gamma_grid.shape[0] != f_grid.shape[0] or gamma_grid.shape[0] % 2 == 0:
        raise InvalidInputError("need an odd number of half-step input samples")
    if theta_rud_grid is not None and np.shape(theta_rud_grid)[:1] != gamma_grid.shape[:1]:
        raise InvalidInputError("theta_rud_grid needs one sample per half-step input sample")
    explicit = _explicit_rudder(rudder_mode)
    n_steps = (gamma_grid.shape[0] - 1) // 2
    states = np.empty((n_steps + 1, 8))
    states[0] = y = [float(v) for v in _floats(state0, VerticalState)]
    for start in range(0, n_steps, _TABLE_BLOCK):
        stop = min(start + _TABLE_BLOCK, n_steps)
        lo, hi = 2 * start, 2 * stop + 1
        rud = np.zeros(hi - lo) if theta_rud_grid is None else theta_rud_grid[lo:hi]
        block = np.column_stack([gamma_grid[lo:hi], f_grid[lo:hi], rud]).astype(float)
        bad_gamma, bad_f = _invalid_samples(block)
        bad = np.flatnonzero(bad_gamma | bad_f)
        if bad.size:
            # sample j of the block is first read in step start + max(j - 1, 0) // 2
            stop = start + max(int(bad[0]) - 1, 0) // 2
        # float products overflow to inf and NaN silently; the arrays' must too
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _vertical_terms(params, explicit, *block[:2 * (stop - start) + 1].T)
        rows = list(zip(*(t.tolist() for t in terms)))
        y, k, stopped = _vertical_steps(params, explicit, y, rows, dt, states, start)
        if stopped:
            raise PropagationError("integration produced non-finite state", step=k)
        if bad.size:
            j = int(bad[0])
            raise InvalidInputError(_NON_UNIT_GAMMA if bad_gamma[j] else _NEGATIVE_FLAP)
    applied = np.column_stack([gamma_grid[::2], f_grid[::2]])
    return VerticalLog(np.arange(n_steps + 1) * dt, states, applied)


def _invalid_samples(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``vertical_rhs``'s input checks on the rows (gx, gy, gz, f, theta_rud)
    of a table: masks of the non-unit reduced attitudes and negative f."""
    gx, gy, gz, f = u[:, 0], u[:, 1], u[:, 2], u[:, 3]
    return np.abs(np.sqrt(gx * gx + gy * gy + gz * gz) - 1.0) > 1e-6, f < 0
