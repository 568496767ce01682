"""Closed-loop simulation harness.

Wires a planned trajectory into the tracking controller against either
dynamics model.  One loop flies both: the controller ticks every few plant
steps, and a small plant adapter supplies what differs between the models:
the ``Measurement`` built from the state, the plant inputs built from the
controller output, the block of RK4 steps to the next tick with the input
held (``_vertical_steps`` or ``_full_steps``) and the log.  The reference is
evaluated once per flight, at every tick time.

Also here are the certification simulations used by the stability checks,
each on the controller's own law with the ideal inner loop:

* the ideal vertical loop, the positional law and V1 under the exactly
  enforced acceleration expectation (the premise of the positional
  stability claim), and
* the hybrid heading loop, the heading tick (``HybridHeading``) and V2 with
  the unclipped lateral-tilt command applied directly, for jump-decrease
  checks at hysteresis flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attitude import azimuth_of_quat, rotz, wrap_angle
from .control import (
    CONTROL_LOG_HEADER,
    ControllerGains,
    HybridHeading,
    Measurement,
    TrackingController,
    candidate_v1,
    candidate_v2,
    desired_acceleration,
    desired_velocity,
    heading_rate_command,
)
from .dynamics import (
    FwavParams,
    FullLog,
    VerticalLog,
    VerticalParams,
    full_rhs,
    rk4_flat,
    _full_steps,
    _schedule,
    vertical_rhs,
    _vertical_kinematics,
    _vertical_steps,
    _vertical_terms,
    _write_csv,
)
from .errors import InvalidInputError, PropagationError
from .flatness import V_EPS
from .trajectory import PiecewiseTrajectory

# The deflection-torque model produces torque opposite the deflection sign,
# while the inner attitude law assumes torque along its command.  The full-
# model harness bridges the two conventions here, exactly like setting servo
# polarity on the bench.
DEFLECTION_POLARITY = -1.0


_HEADING_SCAN_DT = 1e-2  # s, grid on which the start heading is found
_EPISODE_GAP = 0.5  # s, hysteresis jumps closer than this are one episode
_CONTROL_COLUMNS = CONTROL_LOG_HEADER.count(",") + 1  # t and the log row


def initial_heading(traj: PiecewiseTrajectory) -> float:
    """Azimuth at the first instant the reference moves fast enough."""
    dt = _HEADING_SCAN_DT
    grid = np.minimum(np.arange(0.0, traj.duration + dt / 2, dt), traj.duration)
    vel = traj.eval_many(grid, 1)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    idx = np.flatnonzero(speed >= V_EPS)
    if idx.size == 0:
        return 0.0
    return float(math.atan2(vel[idx[0], 1], vel[idx[0], 0]))


@dataclass
class ClosedLoopResult:
    """State and controller logs of one run plus discrete-event records."""

    state_log: VerticalLog | FullLog
    control_t: np.ndarray
    control_rows: np.ndarray
    jump_times: list[float]
    ff_sat_times: list[float]
    abort_time: float | None = None

    @property
    def diverged(self) -> bool:
        """Whether the run was aborted before its end."""
        return self.abort_time is not None

    def control_to_csv(self, path) -> None:
        rows = np.column_stack([self.control_t, self.control_rows])
        _write_csv(path, CONTROL_LOG_HEADER, rows)

    def jump_episodes(self) -> int:
        """Count hysteresis-jump episodes, merging events closer than 0.5 s."""
        count = 0
        last = -math.inf
        for t in self.jump_times:
            if t - last > _EPISODE_GAP:
                count += 1
            last = t
        return count


def run_closed_loop(
    traj: PiecewiseTrajectory,
    model: str = "vertical",
    vparams: VerticalParams | None = None,
    fparams: FwavParams | None = None,
    gains: ControllerGains | None = None,
    dt: float = 1e-3,
    rate_hz: float = 100.0,
    duration: float | None = None,
    perturb_pos=(0.0, 0.0, 0.0),
    perturb_vel=(0.0, 0.0, 0.0),
    divergence_radius: float = 100.0,
) -> ClosedLoopResult:
    """Track a planned trajectory in closed loop.

    The vehicle starts on the (possibly perturbed) reference with the
    reference heading.  The controller runs at rate_hz with zero-order hold;
    the plant integrates at dt.  A position norm beyond divergence_radius
    aborts the run and flags the result instead of raising.  The steps and
    ticks are ``_schedule``'s, and the start offsets must be finite.
    """
    vparams = vparams or VerticalParams()
    gains = gains or ControllerGains()
    n_steps, n_sub = _schedule(dt, traj.duration if duration is None else duration, rate_hz)
    p0 = traj.eval(0.0) + np.asarray(perturb_pos, dtype=float)
    v0 = traj.eval(0.0, 1) + np.asarray(perturb_vel, dtype=float)
    if not (np.isfinite(p0).all() and np.isfinite(v0).all()):
        raise InvalidInputError("start offsets must be finite")

    psi0 = initial_heading(traj)
    controller = TrackingController(gains, vparams, rate_hz=rate_hz, initial_psi_d=psi0)

    if model == "vertical":
        plant = _VerticalPlant(vparams)
        y0 = [*p0.tolist(), *(rotz(psi0).T @ v0).tolist(), psi0, 0.0]
    elif model == "full":
        plant = _FullPlant(fparams or FwavParams())
        half = psi0 / 2.0  # level attitude at the reference heading: pure yaw
        y0 = [*p0.tolist(), *v0.tolist(), math.cos(half), 0.0, 0.0, math.sin(half),
              0.0, 0.0, 0.0, plant.params.hover_frequency, 0.0, 0.0]
    else:
        raise InvalidInputError(f"unknown model {model!r}")
    return _fly(traj, controller, plant, y0, dt, n_steps, n_sub, divergence_radius)


class _VerticalPlant:
    """Vertical-frame model for the closed loop under the tilt proxy: inputs
    (gx, gy, gz, fflap), the log's input columns."""

    def __init__(self, params: VerticalParams):
        self.params = params
        self.hold = (0.0, 0.0, 1.0, params.hover_frequency)

    def measure(self, y, u) -> Measurement:
        psi, w = y[6], y[7]
        v = _vertical_kinematics(math.cos(psi), math.sin(psi), y[3], y[4], y[5])  # R_z(psi) vv
        # p, v, psi, omega_psi, gamma, omega: by position, a third of the keyword cost
        return Measurement(y[0:3], v, psi, w, u[0:3], (0.0, 0.0, w))

    def inputs(self, out):
        return (*out.gamma_cmd, out.f_flap_cmd)

    def advance(self, y, u, dt, states, k, n, radius):
        first = vertical_rhs(y, u, self.params)  # checks the held input once
        terms = _vertical_terms(self.params, False, *u)
        y, k, stopped = _vertical_steps(self.params, y, terms, first, n, dt, states, k, radius)
        return y, k, k if stopped else None

    def log(self, t, states, held, counts):
        """The state log with its applied inputs: input row i of ``held``
        repeated ``counts[i]`` times, one per logged state it led to."""
        return VerticalLog(t, states, np.repeat(np.array(held), counts, axis=0))


class _FullPlant:
    """16-state model for the closed loop: inputs (f_flap_c, theta_rud_c,
    theta_ele_c); the quaternion is renormalized after every step."""

    def __init__(self, params: FwavParams):
        self.params = params
        self.hold = (params.hover_frequency, 0.0, 0.0)

    def measure(self, y, u) -> Measurement:
        omega = y[10:13]
        psi, gamma, omega_psi = azimuth_of_quat(y[6:10], omega)
        return Measurement(y[0:3], y[3:6], psi, omega_psi, gamma, omega)

    def inputs(self, out):
        polarity = DEFLECTION_POLARITY
        return out.f_flap_cmd, polarity * out.theta_rud_cmd, polarity * out.theta_ele_cmd

    def advance(self, y, u, dt, states, k, n, radius):
        try:
            first = full_rhs(y, u, self.params)  # checks the held input once
        except PropagationError:
            return y, k, k + 1  # a non-finite stage: step k + 1 is not logged
        return _full_steps(self.params, y, u, n, dt, states, k, first, radius)

    def log(self, t, states, held, counts):
        return FullLog(t, states)


def _fly(traj, controller, plant, y, dt, n_steps, n_sub, radius) -> ClosedLoopResult:
    """The closed loop: the controller ticks every n_sub plant steps, and the
    plant advances the block of steps up to the next tick with the input held;
    the reference is held at its end past its duration.

    A non-finite RK4 stage ends the run before its step is logged; a
    position beyond ``radius`` or a non-finite state ends it after.  A plant's
    ``advance`` returns the last logged state, its row and the abort row or None.
    The applied inputs are kept once per tick, with the number of logged steps
    each was held, for the plant's ``log`` to repeat, and each tick's control
    log row whole, its time the first column.
    """
    u = plant.hold
    states = np.empty((n_steps + 1, len(y)))
    states[0] = y
    held, counts = [u], [1]  # each applied input and the logged steps it was held
    rows = []
    jump_times, sat_times = [], []
    abort_time = None

    ticks = range(0, n_steps, n_sub)
    t_ref = np.minimum(np.array(ticks) * dt, traj.duration)
    refs = traj.eval_many(t_ref, 0).tolist(), traj.eval_many(t_ref, 1).tolist()
    for k, sigma_r, sigma_r_dot in zip(ticks, *refs):
        t = k * dt
        out = controller.update(sigma_r, sigma_r_dot, plant.measure(y, u))
        u = plant.inputs(out)
        rows.append(out.log_row(t))
        if out.jumped:
            jump_times.append(t)
        if out.ff_saturated:
            sat_times.append(t)
        y, end, abort = plant.advance(y, u, dt, states, k, min(n_sub, n_steps - k), radius)
        held.append(u)
        counts.append(end - k)
        if abort is not None:
            abort_time = abort * dt
            break

    n = sum(counts)
    control = np.array(rows).reshape(-1, _CONTROL_COLUMNS)
    return ClosedLoopResult(
        state_log=plant.log(np.arange(n) * dt, states[:n], held, counts),
        control_t=control[:, 0],
        control_rows=control[:, 1:],
        jump_times=jump_times,
        ff_sat_times=sat_times,
        abort_time=abort_time,
    )


# ---------------------------------------------------------------------------
# certification simulations
# ---------------------------------------------------------------------------


def _positional_law(gains: ControllerGains, reference, t: float, y):
    """Ideal-loop positional law at time t for a flat state y = (p, v, ...).

    Returns the errors e_p and e_v, the exactly enforced acceleration a_d
    (analytic desired-velocity derivative, no filter) and the candidate V1.
    """
    kp, kv = gains.kp.tolist(), gains.kv.tolist()
    p, v = y[0:3], y[3:6]
    sigma, sigma_dot, sigma_ddot = reference(t)
    e_p = [a - b for a, b in zip(sigma, p)]
    v_d_dot = [a + k / math.cosh(e) ** 2 * (b - c)
               for a, k, e, b, c in zip(sigma_ddot, kp, e_p, sigma_dot, v)]
    e_v = [a - b for a, b in zip(desired_velocity(sigma_dot, e_p, kp), v)]
    a_d = desired_acceleration(v_d_dot, e_p, e_v, kp, kv)
    return e_p, e_v, a_d, candidate_v1(e_p, e_v, gains)


@dataclass
class IdealVerticalResult:
    t: np.ndarray
    e_p: np.ndarray
    e_v: np.ndarray
    V1: np.ndarray


def simulate_ideal_vertical(
    gains: ControllerGains,
    p0,
    v0,
    reference=None,
    dt: float = 2e-3,
    duration: float = 20.0,
    stop_when_ep_below: float | None = None,
) -> IdealVerticalResult:
    """Positional subsystem of the vertical model with the ideal inner loop.

    The positions and velocities evolve under the exactly-enforced
    acceleration expectation (analytic desired-velocity derivative, no
    filter), so the V1 decrease holds to integration accuracy.  The
    acceleration is enforced at every RK4 stage, so there is no controller
    tick; the steps are ``_schedule``'s.  The reference defaults to hovering
    at the origin; otherwise pass a callable t -> (sigma_r, sigma_r_dot,
    sigma_r_ddot).  The heading, which the positional states do not read,
    is ``simulate_heading_loop``'s.
    """
    n_steps, _ = _schedule(dt, duration)
    if reference is None:
        reference = lambda t: ((0.0, 0.0, 0.0),) * 3

    y = [float(x) for x in (*p0, *v0)]
    last = [None, None, None]  # t, y, law: the next step's first stage reuses a record's law

    def law(t, y):
        if last[1] is not y or last[0] != t:
            last[:] = t, y, _positional_law(gains, reference, t, y)
        return last[2]

    def rhs(y, t):
        return [*y[3:6], *law(t, y)[2]]

    rows = n_steps + 1  # trimmed at the stop row
    e_p, e_v, v1 = np.empty((rows, 3)), np.empty((rows, 3)), np.empty(rows)

    def record(k, y):
        e_p[k], e_v[k], _, v1[k] = law(k * dt, y)

    record(0, y)
    for k in range(n_steps):
        t = k * dt
        y = rk4_flat(rhs, y, dt, t, t + 0.5 * dt, t + dt)
        record(k + 1, y)
        if stop_when_ep_below is not None and np.linalg.norm(e_p[k + 1]) < stop_when_ep_below:
            rows = k + 2
            break

    return IdealVerticalResult(
        t=np.arange(rows) * dt, e_p=e_p[:rows], e_v=e_v[:rows], V1=v1[:rows],
    )


def _heading_flow(y, gamma_yd: float, l_gain: float):
    return y[1], -l_gain * gamma_yd


@dataclass
class HeadingJumpEvent:
    t: float
    v2_before: float
    v2_after: float
    omega_psi: float


@dataclass
class HeadingLoopResult:
    t: np.ndarray
    psi: np.ndarray
    omega_psi: np.ndarray
    delta_psi: np.ndarray
    V2: np.ndarray
    jumps: list[HeadingJumpEvent]


def simulate_heading_loop(
    gains: ControllerGains,
    psi_d_fn,
    l_gain: float | None = None,
    psi0: float = 0.0,
    omega0: float = 0.0,
    dt: float = 1e-3,
    rate_hz: float = 100.0,
    duration: float = 10.0,
) -> HeadingLoopResult:
    """Hybrid heading subsystem alone: psi' = w, w' = -l * gamma_yd.

    The lateral-tilt command is applied un-normalized (the ideal inner
    loop of the heading analysis); the control gain l defaults to the
    geometric mean of its bounds.  Records the candidate function before
    and after every hysteresis jump.

    Every tick passes psi_d' = 0 to ``HybridHeading.tick``, and V2 is
    evaluated with psi_d' = 0 too: the loop certifies a constant reference.
    A moving ``psi_d_fn`` is flown without its rate feedforward.  The
    steps and ticks are ``_schedule``'s.
    """
    n_steps, n_sub = _schedule(dt, duration, rate_hz)
    if l_gain is None:
        l_gain = math.sqrt(gains.l_gamma_min * gains.l_gamma_max)

    heading = HybridHeading(gains, 1.0 / rate_hz)
    gamma_yd = 0.0
    psi, w = float(psi0), float(omega0)
    # the log, one row per step: psi, omega_psi, delta_psi and h
    psis, ws, dpsis = np.empty(n_steps + 1), np.empty(n_steps + 1), np.empty(n_steps + 1)
    hs = np.empty(n_steps + 1, dtype=int)
    psis[0], ws[0], dpsis[0], hs[0] = psi, w, wrap_angle(psi_d_fn(0.0) - psi), heading.h_psi
    jumps: list[HeadingJumpEvent] = []

    def v2_of(h, delta_psi, omega_psi):  # on floats at a jump, on the arrays of the log
        w_d = heading_rate_command(delta_psi, 0.0, h, gains.k_psi, gains.psi_rate_ff_cap)
        return candidate_v2(delta_psi, w_d - omega_psi, h, gains)

    for k in range(n_steps):
        t = k * dt
        if k % n_sub == 0:
            delta_psi = wrap_angle(psi_d_fn(t) - psi)
            tick = heading.tick(delta_psi, 0.0, w)
            if tick.jumped:
                jumps.append(HeadingJumpEvent(
                    t=t,
                    v2_before=v2_of(tick.h_before, delta_psi, w),
                    v2_after=v2_of(tick.h_psi, delta_psi, w),
                    omega_psi=w,
                ))
            gamma_yd = tick.gamma_yd

        # flow: psi' = w, w' = -l * gamma_yd (zero-order-hold input)
        psi, w = rk4_flat(_heading_flow, [psi, w], dt, gamma_yd, gamma_yd, gamma_yd, l_gain)

        psis[k + 1], ws[k + 1], hs[k + 1] = psi, w, heading.h_psi
        dpsis[k + 1] = wrap_angle(psi_d_fn((k + 1) * dt) - psi)

    return HeadingLoopResult(
        t=np.arange(n_steps + 1) * dt, psi=psis, omega_psi=ws,
        delta_psi=dpsis, V2=v2_of(hs, dpsis, ws), jumps=jumps,
    )
