import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkit.attitude import rotz, wrap_angle
from flapkit.dynamics import FwavParams, VerticalParams, integrate_vertical_tabulated
from flapkit.errors import (
    DegenerateHeadingError,
    InfeasibleHeadingAccelerationError,
    NegligibleThrustError,
    UnrecoverableDeflectionError,
)
from flapkit.flatness import FlatInputSchedule, flat_to_full

from helpers import constant_trajectory, full_row, recover_attitude, simulate_full, single_segment


@pytest.fixture
def vparams():
    return VerticalParams()


def flat_point(sigma, d1=(0.0, 0.0, 0.0), d2=(0.0, 0.0, 0.0), d3=(0.0, 0.0, 0.0)):
    """Degree-6 one-segment trajectory whose flat output and first three
    derivatives at t = 0 are sigma, d1, d2, d3: its Taylor coefficients there
    are (sigma, d1, d2/2, d3/6) and the higher ones are zero."""
    coeffs = np.zeros((3, 7))
    coeffs[:, :4] = np.column_stack([sigma, d1, np.divide(d2, 2), np.divide(d3, 6)])
    return single_segment(coeffs, 1.0)


def at_point(vparams, *derivs, psi=None):
    """flat_to_full at t = 0 of ``flat_point(*derivs)``."""
    return flat_to_full(flat_point(*derivs), 0.0, vparams, FwavParams(), psi=psi)


def yaw_acceleration(r, vp):
    """omega_psi' recovered from Gamma_y by the wind-vane yaw row
    Gamma_y k_gamma vvx|vvx| = omega_psi' + k_damp omega_psi|omega_psi|."""
    vvx, w = r.vv[0], r.omega_psi
    return r.gamma[1] * vp.vk_gamma * vvx * abs(vvx) - vp.vk_damp * w * abs(w)


HOVER = [0.0, 0.0, 1.0]


class TestFlatToVertical:
    """The frame step of the chain, read through ``flat_to_full`` at one time."""

    def test_straight_line(self, vparams):
        v = at_point(vparams, [0, 0, 0], [1.0, 0.0, 0.0])
        assert v.psi == pytest.approx(0.0)
        assert np.allclose(v.vv, [1.0, 0.0, 0.0])
        assert v.omega_psi == pytest.approx(0.0)

    def test_analytic_circle(self, vparams):
        # x = cos t, y = sin t: the azimuth rotates at exactly 1 rad/s
        for t in [0.0, 0.7, 2.0, 4.5]:
            v = at_point(
                vparams,
                [math.cos(t), math.sin(t), 0.0],
                [-math.sin(t), math.cos(t), 0.0],
                [-math.cos(t), -math.sin(t), 0.0],
                [math.sin(t), -math.cos(t), 0.0],
            )
            assert v.omega_psi == pytest.approx(1.0, abs=1e-9)
            assert yaw_acceleration(v, vparams) == pytest.approx(0.0, abs=1e-9)
            assert v.vv[0] == pytest.approx(1.0, abs=1e-9)
            assert v.vv[1] == pytest.approx(0.0, abs=1e-9)

    def test_vertical_climb_degenerate(self, vparams):
        climb = ([0, 0, 0], [0.0, 0.0, 0.5])
        with pytest.raises(DegenerateHeadingError):
            at_point(vparams, *climb)
        # explicit azimuth makes it well-defined
        v = at_point(vparams, *climb, psi=0.3)
        assert v.psi == pytest.approx(0.3)
        assert v.omega_psi == 0.0


class TestFlatToAttitudeAndThrust:
    """The force/tilt step of the chain, read through ``flat_to_full`` at one
    time."""

    def test_hover(self, vparams):
        u = at_point(vparams, HOVER, psi=0.0)
        assert np.allclose(u.gamma, [0, 0, 1], atol=1e-12)
        assert u.f_flap == pytest.approx(vparams.hover_frequency)

    def test_constant_forward_cruise_tilt(self, vparams):
        # closed-form force balance: -Gx/Gz = v_cx / v_cz with
        # v_cx = vk_d_x V^2 / m and v_cz = g
        V = 1.0
        u = at_point(vparams, [0, 0, 0], [V, 0.0, 0.0])
        v_cx = vparams.vk_d_x * V**2 / vparams.m
        assert u.gamma[1] == pytest.approx(0.0, abs=1e-12)
        assert -u.gamma[0] / u.gamma[2] == pytest.approx(v_cx / vparams.g)

    def test_constant_rate_turn_gamma_y(self, vparams):
        # steady turn: yaw row gives Gy = vk_damp w^2 / (vk_gamma vvx^2)
        w, V = 0.8, 1.2
        t = 0.4
        r = V / w
        u = at_point(
            vparams,
            [r * math.sin(w * t), -r * math.cos(w * t), 0.0],
            [V * math.cos(w * t), V * math.sin(w * t), 0.0],
            [-V * w * math.sin(w * t), V * w * math.cos(w * t), 0.0],
            [-V * w**2 * math.cos(w * t), -V * w**2 * math.sin(w * t), 0.0],
        )
        assert u.omega_psi == pytest.approx(w, abs=1e-9)
        expected = vparams.vk_damp * w**2 / (vparams.vk_gamma * V**2)
        assert u.gamma[1] == pytest.approx(expected, rel=1e-9)

    def test_infeasible_lateral_tilt(self, vparams):
        # tiny forward speed with a hard yaw acceleration demand
        with pytest.raises(InfeasibleHeadingAccelerationError):
            at_point(vparams, [0, 0, 0], [0.06, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])

    def test_negligible_thrust(self, vparams):
        # free-fall demand at rest: both force rows vanish, so f^2 = 0 exactly
        # and the root's recurrence divides 0/0; the floor raises, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegligibleThrustError, match="at or below the"):
                at_point(vparams, [0, 0, 0], [0, 0, 0], [0.0, 0.0, -vparams.g], psi=0.0)

    def test_yaw_shift_equivariance(self, vparams):
        rng = np.random.default_rng(6)
        base = (
            rng.standard_normal(3),
            np.array([0.8, 0.1, 0.05]),
            rng.standard_normal(3) * 0.3,
            rng.standard_normal(3) * 0.2,
        )
        u0 = at_point(vparams, *base)
        for alpha in [0.4, -1.2, 2.9]:
            rot = rotz(alpha)
            u1 = at_point(vparams, *(rot @ d for d in base))
            assert abs(wrap_angle(u1.psi - u0.psi - alpha)) < 1e-9
            assert np.allclose(u1.gamma, u0.gamma, atol=1e-9)
            assert u1.f_flap == pytest.approx(u0.f_flap, rel=1e-12)

    def test_frequency_scales_with_mass(self, vparams):
        # doubling the mass doubles the required f^2 (quadratic thrust law);
        # zero speed so the specific force demand is mass-independent
        rest = ([0, 0, 0], [0, 0, 0], [0.2, 0.0, 0.1])
        u1 = at_point(vparams, *rest, psi=0.0)
        heavy = VerticalParams(m=2 * vparams.m)
        u2 = at_point(heavy, *rest, psi=0.0)
        assert u2.f_flap**2 == pytest.approx(2.0 * u1.f_flap**2, rel=1e-9)
        assert np.allclose(u1.gamma, u2.gamma, atol=1e-12)


def smooth_forward_trajectory(T=1.5, heading=0.0):
    """Gentle forward flight (speed >= 0.45 m/s) with mild climb, heading
    fixed by construction so the full-model round trip stays planar."""
    coeffs = np.zeros((3, 7))
    # s(t) = 0.5 t + 0.08 t^2 - 0.03 t^3 along the heading
    along = np.array([0.0, 0.5, 0.08, -0.03, 0.0, 0.0, 0.0])
    coeffs[0] = math.cos(heading) * along
    coeffs[1] = math.sin(heading) * along
    coeffs[2] = np.array([0.0, 0.0, 0.05, -0.02, 0.0, 0.0, 0.0])
    return single_segment(coeffs, T)


class TestFlatToFull:
    def test_hover_like_slow_cruise_small_deflections(self, vparams):
        traj = smooth_forward_trajectory()
        result = flat_to_full(traj, 0.7, vparams, FwavParams())
        assert abs(result.theta_rud) < 0.05
        assert np.linalg.norm(result.omega) < 0.5
        assert result.f_flap > 10.0

    def test_planar_climb_zero_rudder(self, vparams):
        # x-z plane motion: roll/yaw symmetric, rudder stays zero
        traj = smooth_forward_trajectory(heading=0.0)
        result = flat_to_full(traj, 0.6, vparams, FwavParams())
        assert result.theta_rud == pytest.approx(0.0, abs=1e-8)
        assert result.omega[0] == pytest.approx(0.0, abs=1e-6)
        assert result.omega[2] == pytest.approx(0.0, abs=1e-6)

    def test_pure_climb_with_explicit_azimuth(self, vparams):
        # z-only cubic with the azimuth supplied: upright attitude, zero
        # deflections, zero body rates
        coeffs = np.zeros((3, 7))
        coeffs[2] = [0.0, 0.0, 0.3, -0.05, 0.0, 0.0, 0.0]
        traj = single_segment(coeffs, 2.0)
        result = flat_to_full(traj, 1.0, vparams, FwavParams(), psi=0.0)
        assert np.allclose(result.gamma, [0, 0, 1], atol=1e-9)
        assert result.theta_rud == pytest.approx(0.0, abs=1e-9)
        assert result.theta_ele == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(result.omega, 0.0, atol=1e-9)

    def test_full_model_round_trip(self, vparams):
        # feed recovered actuator histories into the full model; the flown
        # position must reproduce the flat output within 2 cm
        fparams = FwavParams(k_flap_c=1e-3, k_rud_c=1e-3, k_ele_c=1e-3)
        traj = smooth_forward_trajectory()

        r0 = flat_to_full(traj, 0.0, vparams, fparams)

        # every RK4 stage time of the flight (steps and midpoints), in one call
        dt = 1e-3
        grid = np.minimum(np.arange(2 * round(traj.duration / dt) + 1) * dt / 2, traj.duration)
        r = flat_to_full(traj, grid, vparams, fparams)
        samples = {
            round(t, 6): (f, rud, ele)
            for t, f, rud, ele in zip(grid.tolist(), r.f_flap, r.theta_rud, r.theta_ele)
        }

        def commands(t):
            return samples[round(t, 6)]

        state0 = full_row(
            p=r0.p, v=r0.v, q=r0.quaternion,
            omega=r0.omega, f_flap=r0.f_flap, theta_rud=r0.theta_rud, theta_ele=r0.theta_ele,
        )
        log = simulate_full(state0, fparams, commands, dt=dt, duration=traj.duration)
        ref = traj.eval_many(log.t, 0)
        dev = np.linalg.norm(log.states[:, 0:3] - ref, axis=1)
        assert dev.max() < 0.02


HYPOTHESIS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def forward_flights(draw):
    """The family of ``smooth_forward_trajectory``: straight flight along a
    drawn heading with a drawn speed profile (speed >= 0.36 m/s on [0, 1.5])
    and a mild drawn climb."""
    heading = draw(st.floats(-math.pi, math.pi))
    along = [0.0, draw(st.floats(0.45, 0.6)), draw(st.floats(0.04, 0.1)),
             draw(st.floats(-0.03, 0.0))]
    climb = [0.0, 0.0, draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.02, 0.02))]
    coeffs = np.zeros((3, 7))
    coeffs[0, :4] = np.multiply(math.cos(heading), along)
    coeffs[1, :4] = np.multiply(math.sin(heading), along)
    coeffs[2, :4] = climb
    return single_segment(coeffs, 1.5)


@st.composite
def feasible_polynomials(draw):
    """Start-from-rest climbing turns: slow launch (ramp window), then
    forward flight above the schedule's speed floor."""
    heading = draw(st.floats(-math.pi, math.pi))
    along = [0.0, 0.0, draw(st.floats(0.2, 0.4)), draw(st.floats(-0.05, 0.0))]
    lateral = [0.0, 0.0, 0.0, draw(st.floats(-0.02, 0.02))]
    climb = [0.0, 0.0, draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.01, 0.01))]
    c, s = math.cos(heading), math.sin(heading)
    coeffs = np.zeros((3, 7))
    coeffs[0, :4] = [c * a - s * b for a, b in zip(along, lateral)]
    coeffs[1, :4] = [s * a + c * b for a, b in zip(along, lateral)]
    coeffs[2, :4] = climb
    return single_segment(coeffs, 1.5)


class TestRoundTripProperty:
    @settings(HYPOTHESIS, max_examples=50)
    @given(traj=st.one_of(forward_flights(), feasible_polynomials()))
    def test_vertical_round_trip_random_headings(self, traj):
        # feasible flat outputs reintegrate to within 1e-3 m of drift per
        # second: straight flights (azimuth-steady) and climbing turns from
        # rest (through the launch ramp)
        vparams = VerticalParams()
        sched = FlatInputSchedule(traj, vparams)
        dt = 1e-4
        n = int(round(traj.duration / dt))
        grid = np.minimum(np.arange(2 * n + 1) * dt / 2, traj.duration)
        gam, f = sched.tabulate(grid)
        log = integrate_vertical_tabulated(
            sched.initial_vertical_state(), vparams, gam, f, dt,
            rudder_mode="explicit-rudder",
        )
        ref = traj.eval_many(log.t[:: 50], 0)
        dev = np.linalg.norm(log.states[:: 50, 0:3] - ref, axis=1)
        assert dev.max() < 1e-3 * traj.duration

    def test_tabulate_matches_pointwise_inputs(self, vparams, case_a):
        # a grid and each of its times alone give the same inputs, bit for bit
        sched = FlatInputSchedule(case_a.traj, vparams)
        times = np.linspace(0.0, case_a.traj.duration, 41)
        gam, f = sched.tabulate(times)
        for i, t in enumerate(times):
            one_gamma, one_f = sched.tabulate(np.array([t]))
            assert np.array_equal(one_gamma[0], gam[i])
            assert one_f[0] == f[i]

    def test_interior_speed_dip_rejected(self, vparams):
        # out-and-back along x dips through zero speed mid-trajectory
        coeffs = np.zeros((3, 7))
        coeffs[0] = [0.0, 1.0, -0.5, 0.0, 0.0, 0.0, 0.0]  # x = t - t^2/2 on [0,2]
        traj = single_segment(coeffs, 2.0)
        with pytest.raises(DegenerateHeadingError):
            FlatInputSchedule(traj, vparams)

    @pytest.mark.parametrize("rudder_mode", ["explicit-rudder", "gamma-proxy"])
    def test_integrator_fast_path_matches_generic(self, rk4_vertical, rudder_mode):
        """integrate_vertical_tabulated on a tabulated schedule logs the states of
        rk4_flat over vertical_rhs on the same samples, and their start inputs,
        bit for bit."""
        vparams = VerticalParams()
        traj = smooth_forward_trajectory()
        sched = FlatInputSchedule(traj, vparams)
        dt = 1e-3
        n = int(round(0.5 / dt))
        grid = np.minimum(np.arange(2 * n + 1) * dt / 2, traj.duration)
        gam, f = sched.tabulate(grid)
        state0 = sched.initial_vertical_state()
        state0[4] = 0.05  # vvy: exercise the frame coupling of the forward row
        fast = integrate_vertical_tabulated(state0, vparams, gam, f, dt, rudder_mode=rudder_mode)
        samples = np.column_stack([gam, f]).tolist()
        assert np.array_equal(fast.t, np.arange(n + 1) * dt)
        assert np.array_equal(fast.states, rk4_vertical(state0, vparams, samples, dt, rudder_mode))
        assert np.array_equal(fast.inputs, np.column_stack([gam, f])[::2])


# ---------------------------------------------------------------------------
# one chain over jets: oracles and equivalences
# ---------------------------------------------------------------------------

T_SYM = sp.Symbol("t", real=True)
DIGITS = 40


def _derivs(expr, known, order):
    """expr and its first ``order`` t-derivatives at t0 by symbolic
    differentiation; ``known`` maps functions of t to [value, d1, d2, ...]."""
    table = {}
    for f, vals in known.items():
        table[f] = vals[0]
        for k in range(1, len(vals)):
            table[f.diff(T_SYM, k)] = vals[k]
    out = []
    for _ in range(order + 1):
        out.append(sp.N(expr.xreplace(table), DIGITS))
        expr = expr.diff(T_SYM)
    return out


def symbolic_flat_state(coeffs, t0, vp):
    """Gamma, f, psi', omega and omega' at t0 by symbolic differentiation.

    Each stage is written in unknown functions of t and differentiated by
    sympy; the values of those functions and their derivatives at t0 come
    from the stage before (40 digits).  The rotation is
    R(t) = Rz(psi(t)) Re(Gamma(t)) with Re the tilt factor of
    ``helpers.recover_attitude``, and omega = vee(R^T R').
    """
    fn = lambda name: sp.Function(name)(T_SYM)  # noqa: E731
    d = lambda f: f.diff(T_SYM)  # noqa: E731
    t0 = sp.Rational(str(t0))
    polys = [sum(sp.Rational(str(c)) * T_SYM**i for i, c in enumerate(row)) for row in coeffs]
    vx, vy, vz = fn("vx"), fn("vy"), fn("vz")
    known = {f: [sp.Float(p.diff(T_SYM, k + 1).subs(T_SYM, t0), DIGITS) for k in range(5)]
             for f, p in zip((vx, vy, vz), polys)}
    m, ktf, kdx, kdz, kg, kdamp, g = (sp.Rational(str(v)) for v in (
        vp.m, vp.k_tf, vp.vk_d_x, vp.vk_d_z, vp.vk_gamma, vp.vk_damp, vp.g))
    c, s, rate, vvx, vvy = (fn(n) for n in ("c", "s", "rate", "vvx", "vvy"))
    h = sp.sqrt(vx**2 + vy**2)
    known[c] = _derivs(vx / h, known, 3)
    known[s] = _derivs(vy / h, known, 3)
    known[rate] = _derivs((vx * d(vy) - vy * d(vx)) / h**2, known, 3)
    known[vvx] = _derivs(c * vx + s * vy, known, 3)
    known[vvy] = _derivs(c * vy - s * vx, known, 3)
    # x|x| = sgn(x(t0)) x^2 near t0 when x(t0) != 0
    sgn = {f: int(sp.sign(known[f][0])) for f in (vvx, vz, rate)}
    assert all(sgn.values())
    A, B, gx, gy, gz, f2 = (fn(n) for n in ("A", "B", "gx", "gy", "gz", "f2"))
    known[A] = _derivs(-(d(vvx) + kdx / m * sgn[vvx] * vvx**2 + rate * vvy) * m / ktf, known, 2)
    known[B] = _derivs((d(vz) + kdz / m * sgn[vz] * vz**2 + g) * m / ktf, known, 2)
    known[gy] = _derivs((d(rate) + kdamp * sgn[rate] * rate**2) / (kg * sgn[vvx] * vvx**2),
                        known, 2)
    known[f2] = _derivs(sp.sqrt((A**2 + B**2) / (1 - gy**2)), known, 2)
    known[gx] = _derivs(A / f2, known, 2)
    known[gz] = _derivs(B / f2, known, 2)
    w = 1 + gz
    n = sp.sqrt(2 * w)
    eta, e1, e2 = w / n, gy / n, -gx / n
    ex = sp.Matrix([[0, 0, e2], [0, 0, -e1], [-e2, e1, 0]])
    rot = sp.Matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]]) * (sp.eye(3) + 2 * eta * ex + 2 * ex * ex)
    W = rot.T * rot.diff(T_SYM)
    omega = [_derivs(e, known, 1) for e in (W[2, 1], W[0, 2], W[1, 0])]
    values = {
        "gamma": [known[q][0] for q in (gx, gy, gz)],
        "f_flap": sp.sqrt(known[f2][0]),
        "omega_psi": known[rate][0],
        "omega": [o[0] for o in omega],
        "omega_dot": [o[1] for o in omega],
    }
    return {key: np.array(val, dtype=float) for key, val in values.items()}


def climbing_turn():
    coeffs = np.zeros((3, 7))
    coeffs[0] = [0.0, 0.55, 0.08, -0.03, 0.004, 0.0, 0.0]
    coeffs[1] = [0.0, 0.2, -0.1, 0.05, 0.0, -0.002, 0.0005]
    coeffs[2] = [0.0, 0.1, 0.05, -0.02, 0.0, 0.0, 0.0]
    return coeffs


def descending_turn():
    # heading in the third quadrant, sinking, turning the other way
    coeffs = np.zeros((3, 7))
    coeffs[0] = [0.3, -0.45, -0.06, 0.02, 0.0, 0.001, 0.0]
    coeffs[1] = [-0.2, -0.35, 0.12, -0.04, 0.003, 0.0, -0.0004]
    coeffs[2] = [1.0, -0.12, 0.03, 0.01, -0.002, 0.0, 0.0]
    return coeffs


class TestSymbolicOracle:
    @pytest.mark.parametrize("make", [climbing_turn, descending_turn])
    def test_jets_match_symbolic_differentiation(self, vparams, make):
        coeffs = make()
        traj = single_segment(coeffs, 1.5)
        for t0 in (0.35, 1.1):
            ref = symbolic_flat_state(coeffs, t0, vparams)
            result = flat_to_full(traj, t0, vparams, FwavParams())
            for key, expected in ref.items():
                got = np.asarray(getattr(result, key))
                err = np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))
                assert err <= 1e-12, (key, t0, got, expected)
            assert np.linalg.norm(ref["omega_dot"]) > 0.1  # not a trivial check


def finite_difference_state(traj, t, vparams, fparams, h=1e-4):
    """The former flat_to_full: body rates and their derivative from a
    5-point stencil of the analytically evaluated rotation R(t)."""

    # rotation from the reduced attitude and azimuth alone; rates by the stencil
    stencil = flat_to_full(traj, t + h * np.arange(-2, 3), vparams, fparams)
    rots = [recover_attitude(g, psi) for g, psi in zip(stencil.gamma, stencil.psi)]

    def body_rate(r_mid, r_minus, r_plus):
        w_mat = (r_plus - r_minus) / (2.0 * h) @ r_mid.T
        anti = 0.5 * (w_mat - w_mat.T)
        return r_mid.T @ np.array([anti[2, 1], anti[0, 2], anti[1, 0]])

    omega = body_rate(rots[2], rots[1], rots[3])
    omega_dot = (body_rate(rots[3], rots[2], rots[4]) - body_rate(rots[1], rots[0], rots[2])) / (
        2.0 * h
    )
    tau = fparams.J @ omega_dot + np.cross(omega, fparams.J @ omega)
    v_body = rots[2].T @ traj.eval(t, 1)
    sv = float(np.sign(v_body[2])) * v_body[0] ** 2
    f2 = stencil.f_flap[2] ** 2
    theta_rud = -tau[0] / (fparams.k_tau_x * sv + fparams.k_flap_x * f2)
    theta_ele = -tau[1] / (fparams.k_tau_y * sv + fparams.k_flap_y * f2)
    return rots[2], omega, omega_dot, theta_rud, theta_ele


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_exact_rates_match_former_stencil(self, vparams, which, case_a, case_b):
        traj = (case_a if which == "a" else case_b).traj
        fparams = FwavParams()
        sched = FlatInputSchedule(traj, vparams)
        times = np.linspace(sched.t_lo, sched.t_hi, 27)[1:-1]
        # the stencil needs a smooth flat output across t +- 2h
        junctions = traj.T * np.arange(1, traj.M)
        times = [t for t in times if np.all(np.abs(t - junctions) > 1e-3)]
        batch = flat_to_full(traj, np.array(times), vparams, fparams)
        for i, t in enumerate(times):
            rot, omega, omega_dot, theta_rud, theta_ele = finite_difference_state(
                traj, t, vparams, fparams
            )
            assert np.max(np.abs(batch.rotation[i] - rot)) < 1e-12
            assert np.linalg.norm(batch.omega[i] - omega) <= 1e-6 * max(
                1.0, np.linalg.norm(omega))
            assert np.linalg.norm(batch.omega_dot[i] - omega_dot) <= 1e-5 * max(
                1.0, np.linalg.norm(omega_dot))
            assert abs(batch.theta_rud[i] - theta_rud) <= 1e-6
            assert abs(batch.theta_ele[i] - theta_ele) <= 1e-6


class TestBatchedEqualsPerSample:
    @HYPOTHESIS
    @given(traj=feasible_polynomials(), psi=st.floats(-math.pi, math.pi))
    def test_flat_to_full(self, traj, psi):
        # t = 0 is at rest, so the batch mixes the frozen explicit azimuth
        # with the velocity azimuth
        times = np.linspace(0.0, traj.duration, 9)
        vparams, fparams = VerticalParams(), FwavParams()
        batch = flat_to_full(traj, times, vparams, fparams, psi=psi)
        for i, t in enumerate(times):
            one = flat_to_full(traj, float(t), vparams, fparams, psi=psi)
            for key in ("p", "v", "gamma", "psi", "omega_psi", "vv", "quaternion",
                        "rotation", "omega", "omega_dot", "f_flap", "theta_rud", "theta_ele"):
                np.testing.assert_allclose(
                    getattr(batch, key)[i], getattr(one, key), rtol=1e-13, atol=1e-13,
                    err_msg=key,
                )

    @HYPOTHESIS
    @given(traj=feasible_polynomials())
    def test_tabulate(self, traj):
        sched = FlatInputSchedule(traj, VerticalParams())
        assert sched.t_lo > 0.0  # the launch window uses the ramp
        grid = np.linspace(0.0, traj.duration, 5001)  # more than one block
        gamma, f_flap = sched.tabulate(grid)
        lo = int(np.searchsorted(grid, sched.t_lo))
        for i in sorted({0, 1, lo - 1, lo, 2500, 4095, 4096, 4097, 5000}):
            one_gamma, one_f = sched.tabulate(grid[i : i + 1])
            assert np.array_equal(gamma[i], one_gamma[0])
            assert f_flap[i] == one_f[0]


def turning_launch_and_landing():
    """Rest to rest along the parabola y = 0.2 x^2, so that both ramp windows
    carry a nonzero azimuth rate: x = 3t^2/4 - t^3/4 on [0, 2]."""
    x = np.polynomial.Polynomial([0.0, 0.0, 0.75, -0.25])
    coeffs = np.zeros((3, 7))
    coeffs[0, :4] = x.coef
    coeffs[1] = (0.2 * x**2).coef
    return single_segment(coeffs, 2.0)


class TestRampWindow:
    def test_ramp_kinematics_match_closed_form(self, vparams, case_a):
        # explicit azimuth psi0 + r (t - t0): vv_dot = Rz^T a - r e3 x vv.
        # The schedule returns inputs only, so its frame step is read directly.
        # Case a's plan is planar (r = 0); the second trajectory turns.
        for traj in (case_a.traj, turning_launch_and_landing()):
            sched = FlatInputSchedule(traj, vparams)
            ends = flat_to_full(traj, np.array([sched.t_lo, sched.t_hi]), vparams, FwavParams())
            (psi_lo, psi_hi), (rate_lo, rate_hi) = ends.psi, ends.omega_psi
            for t in (0.0, 0.5 * sched.t_lo, sched.t_hi + 0.5 * (traj.duration - sched.t_hi)):
                frame = sched._frame(np.array([t]))
                vv_jet = np.array([j.c[:2, 0] for j in frame.vv])  # (vv, vv_dot / 1!)
                if t < sched.t_lo:
                    psi, rate = psi_lo - rate_lo * (sched.t_lo - t), rate_lo
                else:
                    psi, rate = psi_hi + rate_hi * (t - sched.t_hi), rate_hi
                assert frame.rate.c[0, 0] == rate
                rot_t = rotz(psi).T
                vv = rot_t @ traj.eval(t, 1)
                assert abs(wrap_angle(frame.psi[0] - psi)) < 1e-12
                np.testing.assert_allclose(vv_jet[:, 0], vv, atol=1e-12)
                np.testing.assert_allclose(
                    vv_jet[:, 1],
                    rot_t @ traj.eval(t, 2) - rate * np.array([-vv[1], vv[0], 0.0]),
                    atol=1e-12,
                )
                assert frame.rate.c[1, 0] == 0.0
            # the replay starts on the ramp's closed form
            start = sched.initial_vertical_state()
            psi0 = psi_lo - rate_lo * sched.t_lo
            p, vv, psi, omega_psi = start[0:3], start[3:6], start[6], start[7]
            assert p == traj.eval(0.0).tolist()
            assert abs(wrap_angle(psi - psi0)) < 1e-12
            assert omega_psi == rate_lo
            np.testing.assert_allclose(vv, rotz(psi0).T @ traj.eval(0.0, 1), atol=1e-12)


class TestErrorParity:
    def test_hover_without_azimuth(self, vparams):
        with pytest.raises(DegenerateHeadingError):
            at_point(vparams, HOVER)
        with pytest.raises(DegenerateHeadingError):
            flat_to_full(constant_trajectory([0.0, 0.0, 1.0]), 0.5, vparams, FwavParams())
        # one slow sample in a batch is enough
        traj = smooth_forward_trajectory()
        coeffs = traj.segments[0].coeffs.copy()
        coeffs[:, 1] = 0.0  # starts at rest
        with pytest.raises(DegenerateHeadingError):
            flat_to_full(single_segment(coeffs, 1.5), np.array([0.0, 1.0]), vparams,
                         FwavParams())

    def test_lateral_tilt_beyond_one(self, vparams):
        with pytest.raises(InfeasibleHeadingAccelerationError, match="exceeds 1"):
            at_point(vparams, [0, 0, 0], [0.06, 0.0, 0.0], [0.0, 1.0, 0.0])
        # the same sample in the middle of a trajectory, batched
        coeffs = np.zeros((3, 7))
        coeffs[0, 1], coeffs[1, 2] = 0.06, 0.5
        with pytest.raises(InfeasibleHeadingAccelerationError):
            flat_to_full(single_segment(coeffs, 1.0), np.array([0.0, 0.5]), vparams,
                         FwavParams())

    def test_frequency_floor(self, vparams):
        coeffs = np.zeros((3, 7))
        coeffs[0, 1], coeffs[2, 2] = 0.06, -vparams.g / 2  # free fall, slow forward drift
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegligibleThrustError):
                at_point(vparams, [0, 0, 0], [0, 0, 0], [0.0, 0.0, -vparams.g], psi=0.0)
            with pytest.raises(NegligibleThrustError):
                flat_to_full(single_segment(coeffs, 1.0), 0.0, vparams, FwavParams())

    def test_yaw_demand_without_vane_authority(self, vparams):
        # below V_EPS the explicit azimuth freezes the frame, so there is no
        # yaw demand; vvx^2 < V_EPS^2 leaves no authority: the lateral tilt is 0
        u = at_point(vparams, HOVER, [0.01, 0.0, 0.0], psi=0.0)
        assert u.vv[0] == 0.01 and u.omega_psi == 0.0
        assert u.gamma[1] == 0.0

    def test_vanishing_deflection_gain(self, vparams):
        traj = smooth_forward_trajectory()
        with pytest.raises(UnrecoverableDeflectionError):
            flat_to_full(traj, 0.7, vparams, FwavParams(k_tau_x=0.0, k_flap_x=0.0))
        with pytest.raises(UnrecoverableDeflectionError):
            flat_to_full(traj, np.array([0.2, 0.7]), vparams,
                         FwavParams(k_tau_y=0.0, k_flap_y=0.0))
        # without the flapping term the gain vanishes only where the body
        # is at rest: one such sample in a batch is enough
        coeffs = traj.segments[0].coeffs.copy()
        coeffs[:, 1] = 0.0
        with pytest.raises(UnrecoverableDeflectionError):
            flat_to_full(single_segment(coeffs, 1.5), np.array([0.0, 1.0]), vparams,
                         FwavParams(k_flap_x=0.0), psi=0.0)
