"""Cascaded trajectory-tracking controller.

Outer position loop with tanh saturation, decomposition of the desired
acceleration into azimuth / forward tilt / thrust, a hybrid hysteretic
heading loop with a robust sign term, and the simplified proportional inner
attitude laws for rudder and elevator.  Derivative signals (vdot_d, psid_dot,
omega_psid_dot) come from second-order low-pass command filters; the
omega_psid filter is reset whenever the hysteresis logic jumps or the command
jumps, so neither differentiates into a spike.

``HybridHeading.tick`` is the hybrid heading law: the controller and both
certification simulations in ``simulate`` run it, so the certified law is
the flown law.  Those simulations also take the positional law
(``desired_velocity``, ``desired_acceleration``) and its candidate V1
(``candidate_v1``) from here.

The controller is a deterministic state machine: one ``update`` per tick,
all state lives in ``ControllerState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .attitude import rotz, wrap_angle
from .dynamics import VerticalParams, sgn
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


class SecondOrderFilter:
    """Critically-configurable low-pass used to generate derivative signals.

    Discrete update is the exact zero-order-hold discretization of
    x'' = wn^2 (u - x) - 2 zeta wn x'.  ``reset`` snaps the state to the
    input with zero rate (used at declared jumps of the input).
    """

    def __init__(self, wn: float, zeta: float, dt: float, channels: int = 1):
        a = np.array([[0.0, 1.0], [-wn**2, -2.0 * zeta * wn]])
        b = np.array([[0.0], [wn**2]])
        block = np.zeros((3, 3))
        block[:2, :2] = a * dt
        block[:2, 2:] = b * dt
        expm = scipy.linalg.expm(block)
        self.ad = expm[:2, :2]
        self.bd = expm[:2, 2]
        self.state = np.zeros((channels, 2))
        self._primed = False

    def reset(self, u) -> None:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        self.state[:, 0] = u
        self.state[:, 1] = 0.0
        self._primed = True

    def update(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Advance one tick; returns (filtered value, filtered derivative)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not self._primed:
            self.reset(u)
            return self.state[:, 0].copy(), self.state[:, 1].copy()
        self.state = self.state @ self.ad.T + np.outer(u, self.bd)
        return self.state[:, 0].copy(), self.state[:, 1].copy()


@dataclass
class TrackingErrors:
    e_p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    e_v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    delta_psi: float = 0.0
    e_psi: float = 0.0
    e_omega_psi: float = 0.0


def position_errors(p, v, sigma_r, sigma_r_dot, v_d) -> TrackingErrors:
    """Positional error part: e_p = p_d - p, e_v = v_d - v."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    return TrackingErrors(
        e_p=np.asarray(sigma_r, dtype=float) - p,
        e_v=np.asarray(v_d, dtype=float) - v,
    )


def azimuth_error(delta_psi: float) -> float:
    """e_psi = sqrt(2) - sqrt(1 + cos(delta_psi)), zero iff aligned."""
    return math.sqrt(2.0) - math.sqrt(max(1.0 + math.cos(delta_psi), 0.0))


def desired_velocity(sigma_r_dot, e_p, kp) -> np.ndarray:
    """v_d = reference velocity plus tanh-saturated position feedback."""
    return np.asarray(sigma_r_dot, dtype=float) + np.asarray(kp) * np.tanh(e_p)


def desired_acceleration(v_d_dot, e_p, e_v, kp, kv) -> np.ndarray:
    """a_d = vdot_d + Kv Kp^-1 tanh(e_p) + Kv tanh(e_v)."""
    kp = np.asarray(kp, dtype=float)
    kv = np.asarray(kv, dtype=float)
    return (
        np.asarray(v_d_dot, dtype=float)
        + kv / kp * np.tanh(e_p)
        + kv * np.tanh(e_v)
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
    a_d = np.asarray(a_d, dtype=float)
    vvx = float(vv[0])
    v_cx = forward_gate * math.hypot(a_d[0], a_d[1]) \
        + params.vk_d_x * float(sgn(vvx)) * vvx**2 / params.m
    v_cz = a_d[2] + params.g
    norm = math.hypot(v_cx, v_cz)
    if norm <= A_EPS:
        raise DegenerateDecompositionError(
            f"combined acceleration {norm:.4f} m/s^2 at or below {A_EPS}"
        )
    psi_d = math.atan2(a_d[1], a_d[0])
    return Decomposition(
        psi_d=psi_d,
        f_flap_cmd=math.sqrt(params.m * norm / params.k_tf),
        gamma_xd=-v_cx / norm,
        gamma_zd=v_cz / norm,
    )


def heading_rate_command(
    delta_psi: float, psi_d_dot: float, h_psi: int, k_psi: float,
    psi_rate_ff_cap: float,
) -> float:
    """omega_psi_d = saturated feedforward + k_psi h sqrt(1 - cos(delta))."""
    ff = min(max(psi_d_dot, -psi_rate_ff_cap), psi_rate_ff_cap)
    return ff + k_psi * h_psi * math.sqrt(max(1.0 - math.cos(delta_psi), 0.0))


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
        -gain_gap * float(sgn(e_omega_psi)) * abs(ff)
        - gains.k_omega / gains.l_gamma_max * ff
        - gains.k_omega * e_omega_psi
    )


def compose_reduced_attitude(gamma_xd: float, gamma_yd: float, gamma_zd: float) -> np.ndarray:
    """Unit-normalize the three tilt demands into a reduced attitude."""
    g = np.array([gamma_xd, gamma_yd, gamma_zd], dtype=float)
    n = np.linalg.norm(g)
    if n == 0.0:
        raise InvalidInputError("cannot normalize a zero tilt demand")
    return g / n


def inner_attitude(gamma_p, gamma, omega, gains: ControllerGains) -> tuple[float, float]:
    """Simplified proportional attitude laws for rudder and elevator."""
    gp = np.asarray(gamma_p, dtype=float)
    g = np.asarray(gamma, dtype=float)
    theta_rud = gains.k_rud * (gp[1] * g[2] - gp[2] * g[1]) - gains.k_omega_x * omega[0]
    theta_ele = gains.k_ele * (gp[2] * g[0] - gp[0] * g[2]) - gains.k_omega_y * omega[1]
    return float(theta_rud), float(theta_ele)


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
    return 0.5 * float(e_p @ (e_p / gains.kp)) + 0.5 * float(e_v @ (e_v / gains.kv))


@dataclass
class LyapunovReport:
    V1: float
    V1_dot_expected: float
    V2: float
    flow_bound: float
    jump_delta: float


def lyapunov_monitors(
    errors: TrackingErrors,
    h_psi: int,
    gains: ControllerGains,
    psi_d_dot: float = 0.0,
    omega_psi: float = 0.0,
) -> LyapunovReport:
    """Numeric stability monitors for the two candidate functions.

    V2 uses the hysteretic form; the set-valued sign at sin(delta_psi) = 0
    selects the current h so the candidate sits at its minimum when
    aligned.  jump_delta is the worst-case candidate change of a logic jump
    evaluated at the hysteresis boundary.
    """
    e_p, e_v = errors.e_p, errors.e_v
    v1 = candidate_v1(e_p, e_v, gains)
    v1_dot = -float(e_p @ np.tanh(e_p)) - float(e_v @ np.tanh(e_v))

    s = math.sin(errors.delta_psi)
    c = math.cos(errors.delta_psi)
    sel = float(sgn(s)) if s != 0.0 else float(h_psi)
    v2 = (
        (math.sqrt(2.0) - h_psi * sel * math.sqrt(max(1.0 + c, 0.0))) / gains.k_psi
        + 0.5 * errors.e_omega_psi**2 / gains.k_omega
    )
    flow_bound = -0.5 * (1.0 - c) ** 2 - errors.e_omega_psi**2

    root = math.sqrt(1.0 - gains.delta**2)
    jump_delta = (
        2.0 * gains.k_psi / gains.k_omega * math.sqrt(1.0 + root)
        * abs(psi_d_dot) * abs(omega_psi)
        - 2.0 / gains.k_psi * math.sqrt(1.0 - root)
    )
    return LyapunovReport(v1, v1_dot, v2, flow_bound, jump_delta)


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
        self._wd_filter = SecondOrderFilter(gains.filter_wn, gains.filter_zeta, dt, 1)
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
        command_jumped = (
            self._last_omega_psi_d is not None
            and abs(omega_psi_d - self._last_omega_psi_d) > OMEGA_PSI_D_JUMP
        )
        if jumped or command_jumped:
            self._wd_filter.reset(omega_psi_d)
        _, wd_rate = self._wd_filter.update(omega_psi_d)
        self._last_omega_psi_d = omega_psi_d

        e_omega_psi = omega_psi_d - omega_psi
        gamma_yd = gamma_y_command(e_omega_psi, delta_psi, h, float(wd_rate[0]), g)
        return HeadingTick(h_before, h, jumped, omega_psi_d, e_omega_psi, gamma_yd)


# ---------------------------------------------------------------------------
# tick orchestration
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """Controller inputs at one tick; omega is the body rate (for vertical
    runs pass [0, 0, omega_psi])."""

    p: np.ndarray
    v: np.ndarray
    psi: float
    omega_psi: float
    gamma: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)


@dataclass
class ControllerOutput:
    gamma_cmd: np.ndarray
    gamma_yd: float
    f_flap_cmd: float
    theta_rud_cmd: float
    theta_ele_cmd: float
    errors: TrackingErrors
    monitors: LyapunovReport
    h_psi: int
    omega_psi_d: float
    psi_d: float
    jumped: bool
    ff_saturated: bool

    def log_row(self, t: float) -> list[float]:
        e = self.errors
        return [
            t, *e.e_p, *e.e_v, e.delta_psi, self.h_psi, self.omega_psi_d,
            self.gamma_yd, self.f_flap_cmd, self.theta_rud_cmd,
            self.theta_ele_cmd, self.monitors.V1, self.monitors.V2,
        ]


@dataclass
class ControllerState:
    """Mutable controller memory: the hybrid heading law, the desired-velocity
    and azimuth command filters, the unwrap-tracked azimuth command, and the
    held decomposition."""

    heading: HybridHeading
    vd_filter: SecondOrderFilter
    psid_filter: SecondOrderFilter
    psi_d_cont: float
    held: Decomposition


class TrackingController:
    """One-tick-at-a-time cascaded controller around the vertical frame."""

    def __init__(
        self,
        gains: ControllerGains,
        params: VerticalParams,
        rate_hz: float = 100.0,
        initial_psi_d: float = 0.0,
        psi_d_floor: float = PSI_D_FLOOR,
    ):
        if rate_hz <= 0:
            raise InvalidInputError("controller rate must be positive")
        self.gains = gains
        self.params = params
        self.dt = 1.0 / rate_hz
        self.psi_d_floor = psi_d_floor
        self.state = ControllerState(
            heading=HybridHeading(gains, self.dt),
            vd_filter=SecondOrderFilter(gains.filter_wn, gains.filter_zeta, self.dt, 3),
            psid_filter=SecondOrderFilter(gains.filter_wn, gains.filter_zeta, self.dt, 1),
            psi_d_cont=initial_psi_d,
            held=Decomposition(
                psi_d=initial_psi_d, f_flap_cmd=params.hover_frequency,
                gamma_xd=0.0, gamma_zd=1.0,
            ),
        )

    @property
    def h_psi(self) -> int:
        return self.state.heading.h_psi

    def update(self, sigma_r, sigma_r_dot, meas: Measurement) -> ControllerOutput:
        g = self.gains
        st = self.state
        v_d = desired_velocity(sigma_r_dot, np.asarray(sigma_r) - meas.p, g.kp)
        errors = position_errors(meas.p, meas.v, sigma_r, sigma_r_dot, v_d)
        _, v_d_dot = st.vd_filter.update(v_d)
        a_d = desired_acceleration(v_d_dot, errors.e_p, errors.e_v, g.kp, g.kv)

        vv = rotz(meas.psi).T @ meas.v
        if math.hypot(a_d[0], a_d[1]) < self.psi_d_floor:
            # horizontal demand too weak to define an azimuth: hold it
            psi_d = st.held.psi_d
        else:
            psi_d = math.atan2(a_d[1], a_d[0])
        delta_psi = wrap_angle(psi_d - meas.psi)
        try:
            # signed along-frame projection of the horizontal demand: a
            # misaligned frame tilts only as far as it helps, and a reversed
            # frame tilts backward instead of pushing the wrong way
            gate = math.cos(delta_psi)
            dec = decompose(a_d, vv, self.params, forward_gate=gate)
            dec = Decomposition(psi_d, dec.f_flap_cmd, dec.gamma_xd, dec.gamma_zd)
            st.held = dec
        except DegenerateDecompositionError:
            dec = st.held
            delta_psi = wrap_angle(dec.psi_d - meas.psi)

        # continuous (unwrap-tracked) psi_d into the derivative filter
        st.psi_d_cont += wrap_angle(dec.psi_d - st.psi_d_cont)
        _, psi_d_rate = st.psid_filter.update(st.psi_d_cont)
        psi_d_rate = float(psi_d_rate[0])
        ff_saturated = abs(psi_d_rate) > g.psi_rate_ff_cap
        heading = st.heading.tick(delta_psi, psi_d_rate, meas.omega_psi)

        errors.delta_psi = delta_psi
        errors.e_psi = azimuth_error(delta_psi)
        errors.e_omega_psi = heading.e_omega_psi

        gamma_yd = min(max(heading.gamma_yd, -g.gamma_yd_limit), g.gamma_yd_limit)
        gamma_p = compose_reduced_attitude(dec.gamma_xd, gamma_yd, dec.gamma_zd)
        theta_rud, theta_ele = inner_attitude(gamma_p, meas.gamma, meas.omega, g)

        monitors = lyapunov_monitors(
            errors, heading.h_psi, g, psi_d_dot=psi_d_rate, omega_psi=meas.omega_psi
        )
        return ControllerOutput(
            gamma_cmd=gamma_p,
            gamma_yd=gamma_yd,
            f_flap_cmd=dec.f_flap_cmd,
            theta_rud_cmd=theta_rud,
            theta_ele_cmd=theta_ele,
            errors=errors,
            monitors=monitors,
            h_psi=heading.h_psi,
            omega_psi_d=heading.omega_psi_d,
            psi_d=dec.psi_d,
            jumped=heading.jumped,
            ff_saturated=ff_saturated,
        )
