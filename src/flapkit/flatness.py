"""Differential-flatness map: flat outputs -> states and physical inputs.

Given a flat output sigma(t) = (x, y, z) and its derivatives, one chain
recovers, in order:

1. the vertical frame: the azimuth psi from the horizontal velocity
   direction (or an explicit constant-rate azimuth where the velocity does
   not define it), its rate, and the vertical-frame velocity Rz(psi)^T v;
2. the tilt components and flapping frequency by inverting the forward and
   vertical force rows together with the wind-vane yaw row, using the unit
   norm of the reduced attitude and f >= 0 to disambiguate;
3. the full rotation R(t) = Rz(psi) R_e(Gamma), exact body rates from the jet
   of the tilt quaternion, and the rudder/elevator deflections by inverting
   the x- and y-rows of the torque model (the yaw row is treated as
   negligible).

The chain runs on truncated Taylor jets (``Jet``) over a sample axis, so one
code path serves one time and a whole time grid, and every derivative is
exact.  It has two entry points: ``flat_to_full`` (one time or an array of
times) for the full state and all three inputs, and
``FlatInputSchedule.tabulate`` for the reduced attitude and flapping frequency
over a replay grid.

States and quaternions are rows of floats in the column order of the logs
(see ``dynamics``): ``FlatStateResult.quaternion`` is scalar-first (eta, ex,
ey, ez), and ``FlatInputSchedule.initial_vertical_state`` is a vertical
state row.

Everything below the azimuth floor ``V_EPS`` is degenerate: the heading is
not defined by the velocity and the caller must supply it explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attitude import ANTIPODAL_TOL
from .dynamics import FULL_LOG_HEADER, FwavParams, VerticalParams, _write_csv
from .errors import (
    DegenerateAttitudeError,
    DegenerateHeadingError,
    InfeasibleHeadingAccelerationError,
    NegligibleThrustError,
    UnrecoverableDeflectionError,
)
from .trajectory import PiecewiseTrajectory

V_EPS = 0.05  # m/s, horizontal-speed floor for a defined azimuth
MIN_SPEED = 0.3  # m/s, speed above which a schedule's azimuth follows the velocity
_SCAN_DT = 1e-3  # s, grid on which a schedule finds its valid span
F_EPS = 1.0  # Hz, flapping-frequency validity floor
_BLOCK = 4096  # samples per chain evaluation in tabulate (bounds its memory)


class Jet:
    """Truncated Taylor jet over a sample axis: ``c[k] = f^(k)(t) / k!``.

    ``c`` has shape (K+1, N).  Binary operations truncate to the lower
    order; ``d()`` is the derivative, one order lower.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # ndarray (op) Jet defers to the Jet operators

    def __init__(self, c):
        self.c = c

    def _pair(self, other: "Jet"):
        n = min(len(self.c), len(other.c))
        return self.c[:n], other.c[:n]

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(np.add(*self._pair(other)))
        c = self.c.copy()
        c[0] += other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        a, b = self._pair(other)
        out = a * b[0]
        for i in range(1, len(a)):
            out[i:] += a[:-i] * b[i]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet"):
        a, b = self._pair(other)
        q = np.empty(a.shape)
        for k in range(len(q)):
            q[k] = (a[k] - (b[k:0:-1] * q[:k]).sum(0)) / b[0]
        return Jet(q)

    def sqrt(self) -> "Jet":
        a, s = self.c, np.empty(self.c.shape)
        s[0] = np.sqrt(a[0])
        # a zero root divides 0/0 here; callers floor the root before using it
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(1, len(a)):
                s[k] = (a[k] - (s[1:k] * s[k - 1 : 0 : -1]).sum(0)) / (2.0 * s[0])
        return Jet(s)

    def xabsx(self) -> "Jet":
        """x|x| with sgn(0) = 0."""
        return self * self * np.sign(self.c[0])

    def d(self) -> "Jet":
        return Jet(self.c[1:] * np.arange(1, len(self.c))[:, None])

    def where(self, mask, other: float) -> "Jet":
        return Jet(np.where(mask, self.c, other))


def _velocity_jet(taylor: np.ndarray) -> list[Jet]:
    """(vx, vy, vz) jets of order K from the position's Taylor coefficients
    of orders 1..K+1, shape (K+1, N, 3)."""
    scale = np.arange(1, len(taylor) + 1)[:, None]
    return [Jet(taylor[:, :, axis] * scale) for axis in range(3)]


def _wrap(angle):
    """Wrap to (-pi, pi], as ``attitude.wrap_angle``, over arrays."""
    a = np.arctan2(np.sin(angle), np.cos(angle))
    return np.where(a <= -math.pi, math.pi, a)


def _index(mask: np.ndarray):
    """Index of the samples in ``mask``: None if none, a view if all."""
    return None if not mask.any() else slice(None) if mask.all() else mask


class _Frame(NamedTuple):
    """Frame step of the chain: wrapped azimuth, then jets of vv and of the
    azimuth rate, one order below the velocity jets."""

    psi: np.ndarray
    vv: list[Jet]
    rate: Jet


def _frame(v: list[Jet], explicit, psi, rate) -> _Frame:
    """Vertical frame of velocity jets ``v``.

    The azimuth is the velocity direction where ``explicit`` is False and
    the explicit ramp psi + rate*(t - t_i) elsewhere (``rate`` 0 freezes the
    frame); ``psi`` and ``rate`` are per-sample arrays.
    """
    vx, vy, vz = v
    order, n = len(vx.c) - 1, vx.c.shape[1]
    ang, c, s, w = np.empty(n), np.empty((order, n)), np.empty((order, n)), np.zeros((order, n))
    on, ramp = _index(~explicit), _index(explicit)
    if on is not None:
        hx, hy = Jet(vx.c[:-1, on]), Jet(vy.c[:-1, on])
        h2 = hx * hx + hy * hy
        norm = h2.sqrt()
        ang[on] = np.arctan2(hy.c[0], hx.c[0])
        c[:, on], s[:, on] = (hx / norm).c, (hy / norm).c
        w[:, on] = ((hx * Jet(vy.c[:, on]).d() - hy * Jet(vx.c[:, on]).d()) / h2).c
    if ramp is not None:
        ang[ramp], w[0, ramp] = psi[ramp], rate[ramp]
        # cos + i sin of psi + r tau has Taylor coefficients e^(i psi) (i r)^k / k!
        k = np.arange(order)[:, None]
        z = np.exp(1j * psi[ramp]) * (1j * rate[ramp]) ** k / np.cumprod(np.maximum(k, 1), axis=0)
        c[:, ramp], s[:, ramp] = z.real, z.imag
    c, s = Jet(c), Jet(s)
    return _Frame(_wrap(ang), [c * vx + s * vy, c * vy - s * vx, Jet(vz.c[:-1])], Jet(w))


def _flat_frame(v: list[Jet], psi: float | None) -> _Frame:
    """Frame step of ``flat_to_full``: the velocity azimuth, frozen at ``psi``
    where the horizontal speed is below ``V_EPS``."""
    speed = np.hypot(v[0].c[0], v[1].c[0])
    slow = speed < V_EPS
    if psi is None and slow.any():
        raise DegenerateHeadingError(f"horizontal speed {np.min(speed):.4f} m/s below "
                                     f"{V_EPS}; supply the azimuth explicitly")
    return _frame(v, slow, np.full(slow.size, psi or 0.0), np.zeros(slow.size))


def _inputs(frame: _Frame, params: VerticalParams):
    """Force/tilt step of the chain: (Gamma jets, f^2 jet).

    Inverts the forward/vertical force rows for f^2*Gx and f^2*Gz, the
    wind-vane yaw row for Gy, then resolves f^2 from the unit-norm
    condition with f >= 0.  Without wind-vane authority Gy is 0.
    """
    p = params
    (vvx, vvy, vvz), w = frame.vv, frame.rate
    vvx_abs = vvx.xabsx()  # vvx |vvx|
    f2_gx = -(vvx.d() + vvx_abs * (p.vk_d_x / p.m) + w * vvy) * (p.m / p.k_tf)
    f2_gz = (vvz.d() + vvz.xabsx() * (p.vk_d_z / p.m) + p.g) * (p.m / p.k_tf)
    vane = vvx_abs * p.vk_gamma
    demand = w.d() + w.xabsx() * p.vk_damp
    authority = np.abs(vane.c[0]) >= p.vk_gamma * V_EPS**2
    gy = (demand / vane.where(authority, 1.0)).where(authority, 0.0)
    if np.any(np.abs(gy.c[0]) > 1.0):
        raise InfeasibleHeadingAccelerationError(f"|Gamma_y| = {np.max(np.abs(gy.c[0])):.3f}"
                                                 " exceeds 1")
    f2 = ((f2_gx * f2_gx + f2_gz * f2_gz) / (1.0 - gy * gy)).sqrt()
    if np.any(f2.c[0] <= F_EPS**2):
        raise NegligibleThrustError(f"recovered f^2 = {np.min(f2.c[0]):.3f} Hz^2 at or below"
                                    f" the {F_EPS} Hz floor")
    return [f2_gx / f2, gy, f2_gz / f2], f2


@dataclass
class FlatStateResult:
    """Full state and inputs recovered from the flat output at one instant;
    for an array of times every field gains a leading sample axis."""

    p: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    psi: float
    omega_psi: float
    vv: np.ndarray
    quaternion: np.ndarray  # scalar-first yaw(psi) (x) tilt(Gamma)
    rotation: np.ndarray
    omega: np.ndarray  # body frame
    omega_dot: np.ndarray
    f_flap: float
    theta_rud: float
    theta_ele: float


def flat_to_full(traj: PiecewiseTrajectory, t, vparams: VerticalParams, fparams: FwavParams,
                 psi: float | None = None) -> FlatStateResult:
    """Full state and all three inputs of a flat trajectory at t.

    ``t`` is one time or an array of times.  The chain runs on velocity jets
    of order 4 (sigma derivatives 1-5), so the body rate
    omega = psi' Gamma + 2 vec(conj(q_e) (x) q_e') of the tilt quaternion q_e
    and its derivative are exact.  The tilt quaternion's scalar part is
    positive.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    taylor = traj.taylor(times, 5)
    v = _velocity_jet(taylor[1:])
    frame = _flat_frame(v, psi)
    (gx, gy, gz), f2 = _inputs(frame, vparams)

    # tilt quaternion q_e = (1 + Gz, Gy, -Gx, 0) / sqrt(2 (1 + Gz)), body rates
    lift = gz + 1.0
    if np.any(lift.c[0] < ANTIPODAL_TOL):
        raise DegenerateAttitudeError("reduced attitude antipodal to +Z")
    norm = (lift * 2.0).sqrt()
    eta, e1, e2 = lift / norm, gy / norm, -gx / norm
    w = frame.rate
    omega = [
        w * gx + (eta * e1.d() - eta.d() * e1) * 2.0,
        w * gy + (eta * e2.d() - eta.d() * e2) * 2.0,
        w * gz - (e1 * e2.d() - e2 * e1.d()) * 2.0,
    ]
    om = np.stack([o.c[0] for o in omega], axis=1)
    om_dot = np.stack([o.c[1] for o in omega], axis=1)

    # q = yaw(psi) (x) q_e and R = (2 qw^2 - 1) I + 2 eps eps^T + 2 qw [eps]x
    ch, sh = np.cos(frame.psi / 2.0), np.sin(frame.psi / 2.0)
    eta0, e10, e20 = eta.c[0], e1.c[0], e2.c[0]
    q = np.stack([ch * eta0, ch * e10 - sh * e20, ch * e20 + sh * e10, sh * eta0], axis=1)
    qw, eps = q[:, 0, None, None], q[:, 1:]
    rot = ((2.0 * qw * qw - 1.0) * np.eye(3) + 2.0 * eps[:, :, None] * eps[:, None, :]
           + 2.0 * qw * np.cross(np.eye(3), eps[:, None, :]))

    # torque inversion: x-row gives the rudder, y-row the elevator
    J = fparams.J
    tau = om_dot @ J.T + np.cross(om, om @ J.T)
    vel = np.stack([j.c[0] for j in v], axis=1)
    v_body = np.einsum("nji,nj->ni", rot, vel)
    sv = np.sign(v_body[:, 2]) * v_body[:, 0] ** 2
    gain_x = fparams.k_tau_x * sv + fparams.k_flap_x * f2.c[0]
    gain_y = fparams.k_tau_y * sv + fparams.k_flap_y * f2.c[0]
    if np.any(np.abs(gain_x) < 1e-12) or np.any(np.abs(gain_y) < 1e-12):
        raise UnrecoverableDeflectionError("deflection torque gain vanished")

    fields = dict(
        p=taylor[0], v=vel, gamma=np.stack([gx.c[0], gy.c[0], gz.c[0]], axis=1),
        psi=frame.psi, omega_psi=w.c[0],
        vv=np.stack([j.c[0] for j in frame.vv], axis=1),
        quaternion=q, rotation=rot, omega=om, omega_dot=om_dot, f_flap=np.sqrt(f2.c[0]),
        theta_rud=-tau[:, 0] / gain_x, theta_ele=-tau[:, 1] / gain_y,
    )
    if np.ndim(t) == 0:
        fields = {key: value[0] for key, value in fields.items()}
    return FlatStateResult(**fields)


def dump_flat_states(traj: PiecewiseTrajectory, vparams: VerticalParams, fparams: FwavParams,
                     path, dt: float = 0.01) -> int:
    """Write recovered full states along a trajectory to CSV.

    Uses the dynamics state-log schema extended with the azimuth, azimuth
    rate, and reduced-attitude columns.  Rows cover the span where the
    azimuth is defined by the velocity; returns the number of rows written.
    """
    sched = FlatInputSchedule(traj, vparams)
    times = np.arange(sched.t_lo, sched.t_hi, dt)
    r = flat_to_full(traj, times, vparams, fparams)
    rows = np.column_stack([
        times, r.p, r.v, r.quaternion, r.omega, r.f_flap, r.theta_rud, r.theta_ele,
        r.psi, r.omega_psi, r.gamma,
    ])
    _write_csv(path, FULL_LOG_HEADER + ",psi,omegapsi,gx,gy,gz", rows)
    return len(rows)


class FlatInputSchedule:
    """Reduced-attitude/frequency schedule along a flat trajectory.

    The azimuth is defined by the velocity only above ``MIN_SPEED``.  On
    the slow launch window [0, t_lo) the schedule supplies the azimuth
    explicitly as a constant-rate ramp that back-extrapolates the first
    valid azimuth and azimuth rate, so frame angle and rate are both
    continuous at t_lo; the trailing window (t_hi, end] continues the last
    valid azimuth at its exit rate.  In those windows the lateral tilt only
    compensates the yaw damping (zero where the wind vane has no
    authority), which matches what the model can actually do at low speed.

    Interior dips below ``MIN_SPEED`` are rejected: there the heading is
    dynamically significant and no explicit-azimuth policy is faithful.
    """

    def __init__(self, traj: PiecewiseTrajectory, params: VerticalParams):
        self.traj = traj
        self.params = params
        grid = np.minimum(np.arange(0.0, traj.duration + _SCAN_DT / 2, _SCAN_DT), traj.duration)
        vel = traj.eval_many(grid, 1)
        speed = np.hypot(vel[:, 0], vel[:, 1])
        valid = speed >= MIN_SPEED
        if not np.any(valid):
            raise DegenerateHeadingError(
                "trajectory never reaches the azimuth-defining speed"
            )
        first, last = int(np.argmax(valid)), int(len(valid) - 1 - np.argmax(valid[::-1]))
        if not np.all(valid[first : last + 1]):
            bad = grid[first:last + 1][~valid[first:last + 1]]
            raise DegenerateHeadingError(
                f"horizontal speed dips below {MIN_SPEED} m/s inside the"
                f" valid span (first at t={bad[0]:.3f} s)"
            )
        self.t_lo = float(grid[first])
        self.t_hi = float(grid[last])
        ends = traj.taylor(np.array([self.t_lo, self.t_hi]), 2, first=1)
        ends = _flat_frame(_velocity_jet(ends), None)
        self._psi_lo, self._psi_hi = ends.psi
        self._rate_lo, self._rate_hi = ends.rate.c[0]

    def _frame(self, times: np.ndarray) -> _Frame:
        """Frame step at ``times`` (velocity jets of order 2): the velocity
        azimuth on [t_lo, t_hi], the ramps outside; samples are clamped to
        the trajectory."""
        lead, trail = times < self.t_lo, times > self.t_hi
        psi = np.where(lead, self._psi_lo - self._rate_lo * (self.t_lo - times),
                       self._psi_hi + self._rate_hi * (times - self.t_hi))
        rate = np.where(lead, self._rate_lo, self._rate_hi)
        v = _velocity_jet(self.traj.taylor(np.clip(times, 0.0, self.traj.duration), 3, first=1))
        return _frame(v, lead | trail, psi, rate)

    def initial_vertical_state(self) -> list[float]:
        """The vertical state row at t = 0, on the schedule's frame."""
        frame = self._frame(np.array([0.0]))
        return [*self.traj.eval(0.0, 0).tolist(), *(float(j.c[0, 0]) for j in frame.vv),
                float(frame.psi[0]), float(frame.rate.c[0, 0])]

    def tabulate(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gamma, f_flap) at each of ``times``, shape (N, 3) and (N,); the
        chain runs on ``_BLOCK`` samples at once."""
        times = np.asarray(times, dtype=float)
        gamma, f_flap = np.empty((times.size, 3)), np.empty(times.size)
        for lo in range(0, times.size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            g, f2 = _inputs(self._frame(times[block]), self.params)
            gamma[block] = np.stack([gi.c[0] for gi in g], axis=1)
            f_flap[block] = np.sqrt(f2.c[0])
        return gamma, f_flap
