"""Cascaded trajectory-tracking controller.

Outer position loop with tanh saturation, decomposition of the desired
acceleration into azimuth / forward tilt / thrust, a hybrid hysteretic
heading loop with a robust sign term, and the simplified proportional inner
attitude laws for rudder and elevator.  Derivative signals (vdot_d, psid_dot,
omega_psid_dot) come from second-order low-pass command filters; the
omega_psid filter is reset whenever the hysteresis logic jumps or the command
jumps, so neither differentiates into a spike.

``HybridHeading.tick`` is the hybrid heading law: the controller and the
heading loop in ``simulate`` run it, so the certified law is the flown law.
The ideal vertical loop there takes the positional law (``desired_velocity``,
``desired_acceleration``) and ``candidate_v1`` from here, and the heading
loop ``candidate_v2``.

The controller is a deterministic state machine: one ``update`` per tick
on floats, all state on the ``TrackingController``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .attitude import wrap_angle
from .dynamics import VerticalParams, _require_finite, _vertical_kinematics
from .errors import DegenerateDecompositionError, InvalidInputError

A_EPS = 0.1  # m/s^2, decomposition floor on the combined acceleration demand
PSI_D_FLOOR = 0.05  # m/s^2, horizontal-acceleration floor for a live psi_d
OMEGA_PSI_D_JUMP = 0.5  # rad/s between ticks counts as a command jump

CONTROL_LOG_HEADER = (
    "t,epx,epy,epz,evx,evy,evz,dpsi,hpsi,omegapsid,gammayd,"
    "fflapcmd,thrudcmd,thelecmd,V1,V2"
)


@dataclass
class ControllerGains:
    """Feedback gains and filter parameters (diagonal entries for Kp/Kv)."""

    kp: np.ndarray = field(default_factory=lambda: np.array([0.8, 0.8, 0.8]))
    kv: np.ndarray = field(default_factory=lambda: np.array([2.0, 2.0, 4.0]))
    k_psi: float = 1.5
    k_omega: float = 2.0
    delta: float = 0.05
    l_gamma_min: float = 5.0
    l_gamma_max: float = 25.0
    k_rud: float = 0.8
    k_ele: float = 0.8
    k_omega_x: float = 0.1
    k_omega_y: float = 0.1
    filter_wn: float = 20.0
    filter_zeta: float = 1.0
    psi_rate_ff_cap: float = 2.0
    # lateral-tilt clip: the normalization-based composition assumes the
    # lateral demand stays small, and the vehicle cannot fly on its side
    gamma_yd_limit: float = 0.2

    def __post_init__(self):
        self.kp = np.asarray(self.kp, dtype=float)
        self.kv = np.asarray(self.kv, dtype=float)
        _require_finite(self)
        if np.any(self.kp <= 0) or np.any(self.kv <= 0):
            raise InvalidInputError("Kp/Kv diagonal entries must be positive")
        if min(self.k_psi, self.k_omega, self.k_rud, self.k_ele,
               self.k_omega_x, self.k_omega_y, self.filter_wn,
               self.psi_rate_ff_cap, self.gamma_yd_limit) <= 0:
            raise InvalidInputError("controller gains must be positive")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError("hysteresis threshold delta must be in (0, 1)")
        if not 0.0 < self.l_gamma_min <= self.l_gamma_max:
            raise InvalidInputError("need 0 < l_gamma_min <= l_gamma_max")
        if not 0.0 < self.filter_zeta <= 2.0:
            raise InvalidInputError("filter damping must be in (0, 2]")


def _channels(x) -> tuple:
    """A filter input, a float or a sequence of floats, as a tuple of floats:
    one per channel."""
    return (float(x),) if isinstance(x, (int, float)) else tuple(map(float, x))


def _sign(x: float) -> float:
    """Signum with sgn(0) = 0, on floats."""
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0


def _xp(x):
    """numpy for an array, math for a float (sin, cos and sqrt of either)."""
    return np if isinstance(x, np.ndarray) else math


class SecondOrderFilter:
    """Critically-configurable low-pass used to generate derivative signals.

    Discrete update is the exact zero-order-hold discretization of
    x'' = wn^2 (u - x) - 2 zeta wn x', on floats.  With A the system matrix,
    a = -zeta wn its eigenvalues' real part and mu^2 = wn^2 (zeta^2 - 1),
    e^{A dt} = e^{a dt} (C I + S (A - a I)) in closed form: C = cosh(mu dt)
    and S = sinh(mu dt)/mu when over-damped, C = cos(|mu| dt) and
    S = sin(|mu| dt)/|mu| when under-damped, C = 1 and S = dt when
    critically damped.  A constant input is a fixed point (x = u, x' = 0),
    which gives the input column.  The input is one channel, a float, or
    three, a sequence of three floats; the first ``update`` primes the state
    from it, and ``reset`` snaps the state to the input with zero rate (used
    at declared jumps of the input).
    """

    def __init__(self, wn: float, zeta: float, dt: float):
        a = -zeta * wn
        mu2 = wn * wn * (zeta * zeta - 1.0)
        if mu2 > 0.0:
            mu = math.sqrt(mu2)
            c, s = math.cosh(mu * dt), math.sinh(mu * dt) / mu
        elif mu2 < 0.0:
            mu = math.sqrt(-mu2)
            c, s = math.cos(mu * dt), math.sin(mu * dt) / mu
        else:
            c, s = 1.0, dt
        decay = math.exp(a * dt)
        # A - a I = [[-a, 1], [-wn^2, a]]
        a00, a01 = decay * (c - s * a), decay * s
        a10, a11 = -decay * s * wn * wn, decay * (c + s * a)
        self.ad = ((a00, a01), (a10, a11))
        self.bd = (1.0 - a00, -a10)
        self.value = self.rate = ()
        self._primed = False

    def reset(self, u) -> None:
        self.value = _channels(u)
        self.rate = (0.0,) * len(self.value)
        self._primed = True

    def update(self, u) -> tuple[tuple, tuple]:
        """Advance one tick; returns (filtered values, filtered derivatives),
        a tuple of one float or of three."""
        if not self._primed:
            self.reset(u)
            return self.value, self.rate
        (a00, a01), (a10, a11) = self.ad
        b0, b1 = self.bd
        if isinstance(u, (int, float)):
            (x,), (r,) = self.value, self.rate
            self.value = (x * a00 + r * a01 + u * b0,)
            self.rate = (x * a10 + r * a11 + u * b1,)
        else:
            (x0, x1, x2), (r0, r1, r2) = self.value, self.rate
            w0, w1, w2 = u
            self.value = (x0 * a00 + r0 * a01 + w0 * b0, x1 * a00 + r1 * a01 + w1 * b0,
                          x2 * a00 + r2 * a01 + w2 * b0)
            self.rate = (x0 * a10 + r0 * a11 + w0 * b1, x1 * a10 + r1 * a11 + w1 * b1,
                         x2 * a10 + r2 * a11 + w2 * b1)
        return self.value, self.rate


@dataclass
class TrackingErrors:
    e_p: tuple = (0.0, 0.0, 0.0)
    e_v: tuple = (0.0, 0.0, 0.0)
    delta_psi: float = 0.0
    e_omega_psi: float = 0.0


def desired_velocity(sigma_r_dot, e_p, kp) -> tuple:
    """v_d = reference velocity plus tanh-saturated position feedback, over
    three channels."""
    s0, s1, s2 = sigma_r_dot
    e0, e1, e2 = e_p
    k0, k1, k2 = kp
    tanh = math.tanh
    return s0 + k0 * tanh(e0), s1 + k1 * tanh(e1), s2 + k2 * tanh(e2)


def desired_acceleration(v_d_dot, e_p, e_v, kp, kv) -> tuple:
    """a_d = vdot_d + Kv Kp^-1 tanh(e_p) + Kv tanh(e_v), over three channels."""
    a0, a1, a2 = v_d_dot
    p0, p1, p2 = e_p
    v0, v1, v2 = e_v
    kp0, kp1, kp2 = kp
    kv0, kv1, kv2 = kv
    tanh = math.tanh
    return (
        a0 + kv0 / kp0 * tanh(p0) + kv0 * tanh(v0),
        a1 + kv1 / kp1 * tanh(p1) + kv1 * tanh(v1),
        a2 + kv2 / kp2 * tanh(p2) + kv2 * tanh(v2),
    )


@dataclass
class Decomposition:
    psi_d: float
    f_flap_cmd: float
    gamma_xd: float
    gamma_zd: float


def decompose(
    a_d, vv, params: VerticalParams, forward_gate: float = 1.0
) -> Decomposition:
    """Split the desired acceleration into azimuth, tilt, and thrust.

    The combined rates add forward drag compensation (from the measured
    vertical-frame forward speed) and gravity; the vertical drag term is
    deliberately dropped.  ``forward_gate`` scales the forward-acceleration
    demand (callers pass the heading-alignment factor so a misaligned frame
    never tilts the thrust the wrong way); drag compensation acts on the
    actual frame and stays ungated.  Raises DegenerateDecompositionError
    below the A_EPS floor; the caller holds the previous outputs there.
    """
    ax, ay, az = a_d
    vvx = float(vv[0])
    v_cx = forward_gate * math.hypot(ax, ay) \
        + params.vk_d_x * _sign(vvx) * vvx**2 / params.m
    v_cz = az + params.g
    norm = math.hypot(v_cx, v_cz)
    if norm <= A_EPS:
        raise DegenerateDecompositionError(
            f"combined acceleration {norm:.4f} m/s^2 at or below {A_EPS}"
        )
    return Decomposition(
        psi_d=math.atan2(ay, ax),
        f_flap_cmd=math.sqrt(params.m * norm / params.k_tf),
        gamma_xd=-v_cx / norm,
        gamma_zd=v_cz / norm,
    )


def heading_rate_command(
    delta_psi: float, psi_d_dot: float, h_psi: int, k_psi: float,
    psi_rate_ff_cap: float,
) -> float:
    """omega_psi_d = saturated feedforward + k_psi h sqrt(1 - cos(delta)),
    on floats or elementwise on arrays of delta_psi and h_psi."""
    xp = _xp(delta_psi)
    ff = min(max(psi_d_dot, -psi_rate_ff_cap), psi_rate_ff_cap)
    return ff + k_psi * h_psi * xp.sqrt(abs(1.0 - xp.cos(delta_psi)))


def hysteresis_update(h_psi: int, delta_psi: float, delta: float) -> int:
    """Hybrid logic update of the heading commitment variable.

    Realigns h with sign(sin(delta_psi)) when either the vehicle is deep on
    the wrong side near the antipode (h*sin <= -delta with cos <= 0) or the
    error is in the front half-plane (cos > 0); holds otherwise.  The
    set-valued sign at sin = 0 selects the current h (fewest jumps).
    """
    if h_psi not in (-1, 1):
        raise InvalidInputError("h_psi must be -1 or +1")
    s = math.sin(delta_psi)
    c = math.cos(delta_psi)
    if (h_psi * s <= -delta and c <= 0.0) or c > 0.0:
        return h_psi if s == 0.0 else (1 if s > 0.0 else -1)
    return h_psi


def gamma_y_command(
    e_omega_psi: float,
    delta_psi: float,
    h_psi: int,
    omega_psi_d_dot: float,
    gains: ControllerGains,
) -> float:
    """Lateral-tilt demand: robust sign term, feedforward, linear feedback."""
    ff = 0.5 / gains.k_psi * h_psi * math.sqrt(max(1.0 - math.cos(delta_psi), 0.0)) \
        + omega_psi_d_dot
    gain_gap = gains.k_omega / gains.l_gamma_min - gains.k_omega / gains.l_gamma_max
    return (
        -gain_gap * _sign(e_omega_psi) * abs(ff)
        - gains.k_omega / gains.l_gamma_max * ff
        - gains.k_omega * e_omega_psi
    )


def compose_reduced_attitude(gamma_xd: float, gamma_yd: float, gamma_zd: float) -> tuple:
    """Unit-normalize the three tilt demands into a reduced attitude."""
    n = math.sqrt(gamma_xd * gamma_xd + gamma_yd * gamma_yd + gamma_zd * gamma_zd)
    if n == 0.0:
        raise InvalidInputError("cannot normalize a zero tilt demand")
    return gamma_xd / n, gamma_yd / n, gamma_zd / n


def inner_attitude(gamma_p, gamma, omega, gains: ControllerGains) -> tuple[float, float]:
    """Simplified proportional attitude laws for rudder and elevator."""
    gp0, gp1, gp2 = gamma_p
    g0, g1, g2 = gamma
    theta_rud = gains.k_rud * (gp1 * g2 - gp2 * g1) - gains.k_omega_x * omega[0]
    theta_ele = gains.k_ele * (gp2 * g0 - gp0 * g2) - gains.k_omega_y * omega[1]
    return theta_rud, theta_ele


@dataclass
class HeadingMargin:
    omega_bar_psi: float
    omega_psi_max: float
    margin_ok: bool


def heading_stability_margin(gains: ControllerGains) -> HeadingMargin:
    """Worst-case azimuth-rate bounds of the hybrid heading loop.

    omega_bar_psi is the jump-decrease threshold; omega_psi_max is the
    initial-rate ball that keeps every jump decreasing.  A non-real
    omega_psi_max is reported as margin_ok = False with value 0.
    """
    d2 = gains.delta**2
    root = math.sqrt(1.0 - d2)
    omega_bar = (
        gains.k_omega / gains.k_psi**2 * math.sqrt(1.0 - root)
        / (gains.psi_rate_ff_cap * math.sqrt(1.0 + root))
    )
    radicand = (
        omega_bar**2
        - gains.psi_rate_ff_cap**2
        - 2.0 * math.sqrt(2.0) * gains.k_omega / gains.k_psi
    )
    ok = radicand > 0.0
    return HeadingMargin(
        omega_bar_psi=omega_bar,
        omega_psi_max=math.sqrt(radicand) if ok else 0.0,
        margin_ok=ok,
    )


def candidate_v1(e_p, e_v, gains: ControllerGains) -> float:
    """Positional candidate V1 = 1/2 e_p' Kp^-1 e_p + 1/2 e_v' Kv^-1 e_v."""
    return _candidate_v1(e_p, e_v, gains.kp.tolist(), gains.kv.tolist())


def _candidate_v1(e_p, e_v, kp, kv) -> float:
    """``candidate_v1`` over three channels, the diagonals as floats."""
    p0, p1, p2 = e_p
    v0, v1, v2 = e_v
    kp0, kp1, kp2 = kp
    kv0, kv1, kv2 = kv
    return (
        0.5 * (p0 * (p0 / kp0) + p1 * (p1 / kp1) + p2 * (p2 / kp2))
        + 0.5 * (v0 * (v0 / kv0) + v1 * (v1 / kv1) + v2 * (v2 / kv2))
    )


def candidate_v2(delta_psi, e_omega_psi, h_psi, gains: ControllerGains):
    """Hysteretic heading candidate V2 = (sqrt(2) - h sel sqrt(1 + cos(delta_psi)))
    / k_psi + e_omega_psi^2 / (2 k_omega), sel = sgn(sin(delta_psi)) or, at
    sin = 0, the current h (the minimum when aligned); floats or arrays."""
    xp = _xp(delta_psi)
    s = xp.sin(delta_psi)
    sel = 1.0 * (s > 0.0) - 1.0 * (s < 0.0) + h_psi * (s == 0.0)
    return (
        (math.sqrt(2.0) - h_psi * sel * xp.sqrt(abs(1.0 + xp.cos(delta_psi)))) / gains.k_psi
        + 0.5 * e_omega_psi**2 / gains.k_omega
    )


@dataclass
class HeadingTick:
    """One tick of the hybrid heading law; gamma_yd is unclipped."""

    h_before: int
    h_psi: int
    jumped: bool
    omega_psi_d: float
    e_omega_psi: float
    gamma_yd: float


class HybridHeading:
    """The hybrid heading law, one tick at a time.

    Owns the hysteresis logic variable h, the omega_psi_d command filter and
    the last command.  The filter is reset at a hysteresis jump (h flips
    with cos(delta_psi) <= 0) and at a command jump (|change of
    omega_psi_d| > OMEGA_PSI_D_JUMP between ticks).
    """

    def __init__(self, gains: ControllerGains, dt: float):
        self.gains = gains
        self.h_psi = 1
        self._wd_filter = SecondOrderFilter(gains.filter_wn, gains.filter_zeta, dt)
        self._last_omega_psi_d: float | None = None

    def tick(self, delta_psi: float, psi_d_rate: float, omega_psi: float) -> HeadingTick:
        g = self.gains
        h_before = self.h_psi
        h = hysteresis_update(h_before, delta_psi, g.delta)
        jumped = h != h_before and math.cos(delta_psi) <= 0.0
        self.h_psi = h

        omega_psi_d = heading_rate_command(
            delta_psi, psi_d_rate, h, g.k_psi, g.psi_rate_ff_cap
        )
        last = self._last_omega_psi_d
        if jumped or (last is not None and abs(omega_psi_d - last) > OMEGA_PSI_D_JUMP):
            self._wd_filter.reset(omega_psi_d)
        (wd_rate,) = self._wd_filter.update(omega_psi_d)[1]
        self._last_omega_psi_d = omega_psi_d

        e_omega_psi = omega_psi_d - omega_psi
        gamma_yd = gamma_y_command(e_omega_psi, delta_psi, h, wd_rate, g)
        return HeadingTick(h_before, h, jumped, omega_psi_d, e_omega_psi, gamma_yd)


# ---------------------------------------------------------------------------
# tick orchestration
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """Controller inputs at one tick: p, v, gamma and omega are sequences of
    three floats, read as given; omega is the body rate (for vertical runs
    pass [0, 0, omega_psi])."""

    p: Sequence[float]
    v: Sequence[float]
    psi: float
    omega_psi: float
    gamma: Sequence[float]
    omega: Sequence[float]


@dataclass
class ControllerOutput:
    gamma_cmd: tuple
    gamma_yd: float
    f_flap_cmd: float
    theta_rud_cmd: float
    theta_ele_cmd: float
    errors: TrackingErrors
    V1: float
    V2: float
    h_psi: int
    omega_psi_d: float
    jumped: bool
    ff_saturated: bool

    def log_row(self, t: float) -> list[float]:
        e = self.errors
        return [
            t, *e.e_p, *e.e_v, e.delta_psi, self.h_psi, self.omega_psi_d,
            self.gamma_yd, self.f_flap_cmd, self.theta_rud_cmd,
            self.theta_ele_cmd, self.V1, self.V2,
        ]


class TrackingController:
    """One-tick-at-a-time cascaded controller around the vertical frame; its
    memory is the heading law, the desired-velocity and azimuth command
    filters, the unwrap-tracked azimuth command and the held decomposition.
    The Kp and Kv diagonals are read once, at construction."""

    def __init__(
        self,
        gains: ControllerGains,
        params: VerticalParams,
        rate_hz: float = 100.0,
        initial_psi_d: float = 0.0,
    ):
        if not 0 < rate_hz < math.inf:
            raise InvalidInputError("controller rate must be positive and finite")
        self.gains = gains
        self.params = params
        self.dt = 1.0 / rate_hz
        self.heading = HybridHeading(gains, self.dt)
        self.vd_filter = SecondOrderFilter(gains.filter_wn, gains.filter_zeta, self.dt)
        self.psid_filter = SecondOrderFilter(gains.filter_wn, gains.filter_zeta, self.dt)
        self.psi_d_cont = initial_psi_d
        self.held = Decomposition(initial_psi_d, params.hover_frequency, 0.0, 1.0)
        self._kp, self._kv = gains.kp.tolist(), gains.kv.tolist()

    def update(self, sigma_r, sigma_r_dot, meas: Measurement) -> ControllerOutput:
        """One tick on floats: what the control log reads."""
        g = self.gains
        kp, kv = self._kp, self._kv
        r0, r1, r2 = sigma_r
        p0, p1, p2 = meas.p
        e_p = r0 - p0, r1 - p1, r2 - p2  # p_d - p
        v_d = desired_velocity(sigma_r_dot, e_p, kp)
        d0, d1, d2 = v_d
        vx, vy, vz = meas.v
        e_v = d0 - vx, d1 - vy, d2 - vz  # v_d - v
        a_d = desired_acceleration(self.vd_filter.update(v_d)[1], e_p, e_v, kp, kv)

        psi = meas.psi
        # measured velocity in the vertical frame: R_z(psi)^T v = R_z(-psi) v
        vv = _vertical_kinematics(math.cos(psi), -math.sin(psi), vx, vy, vz)
        if math.hypot(a_d[0], a_d[1]) < PSI_D_FLOOR:
            # horizontal demand too weak to define an azimuth: hold it
            psi_d = self.held.psi_d
        else:
            psi_d = math.atan2(a_d[1], a_d[0])
        delta_psi = wrap_angle(psi_d - psi)
        try:
            # signed along-frame projection of the horizontal demand: a
            # misaligned frame tilts only as far as it helps, and a reversed
            # frame tilts backward instead of pushing the wrong way
            dec = decompose(a_d, vv, self.params, math.cos(delta_psi))
            dec.psi_d = psi_d
            self.held = dec
        except DegenerateDecompositionError:
            dec = self.held
            delta_psi = wrap_angle(dec.psi_d - psi)

        # continuous (unwrap-tracked) psi_d into the derivative filter
        self.psi_d_cont += wrap_angle(dec.psi_d - self.psi_d_cont)
        (psi_d_rate,) = self.psid_filter.update(self.psi_d_cont)[1]
        heading = self.heading.tick(delta_psi, psi_d_rate, meas.omega_psi)
        e_omega_psi, h = heading.e_omega_psi, heading.h_psi

        limit = g.gamma_yd_limit
        gamma_yd = min(max(heading.gamma_yd, -limit), limit)
        gamma_p = compose_reduced_attitude(dec.gamma_xd, gamma_yd, dec.gamma_zd)
        theta_rud, theta_ele = inner_attitude(gamma_p, meas.gamma, meas.omega, g)

        # the fields in their order: by keyword, the two constructions cost
        # the tick ~0.6 us more
        return ControllerOutput(
            gamma_p, gamma_yd, dec.f_flap_cmd, theta_rud, theta_ele,
            TrackingErrors(e_p, e_v, delta_psi, e_omega_psi),
            _candidate_v1(e_p, e_v, kp, kv), candidate_v2(delta_psi, e_omega_psi, h, g),
            h, heading.omega_psi_d, heading.jumped, abs(psi_d_rate) > g.psi_rate_ff_cap,
        )
