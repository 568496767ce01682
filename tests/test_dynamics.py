import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkit.attitude import UnitQuaternion, quat_to_rot, rotz
from flapkit.dynamics import (
    ActuatorCommands,
    FwavParams,
    FwavState,
    VerticalInputs,
    VerticalParams,
    VerticalState,
    full_rhs,
    _explicit_rudder,
    _full_steps,
    integrate_vertical_tabulated,
    rk4_flat,
    simulate_full,
    simulate_vertical,
    vertical_rhs,
    _vertical_steps,
    _vertical_terms,
    _write_csv,
)
from flapkit.errors import InvalidInputError, PropagationError

from helpers import hamilton


@pytest.fixture
def params():
    return FwavParams()


@pytest.fixture
def vparams():
    return VerticalParams()


def law(params, **state):
    """``full_rhs`` at a level ``FwavState(**state)`` under zero commands,
    checked against ``oracle_full_rhs``.  Thrust, drag and the deflection
    torque are read through it: the state is level, so R = I, and its body
    rates are zero, so there is no gyroscopic term."""
    s = FwavState(**state)
    derivative = np.array(full_rhs(s, ActuatorCommands(), params))
    oracle, scales = oracle_full_rhs(s, ActuatorCommands(), params)
    assert_blocks_close(derivative, oracle, scales, FULL_BLOCKS)
    return derivative


def thrust(f_flap, params):
    return params.m * (law(params, f_flap=f_flap)[5] + params.g)


def drag(v, params):
    return params.m * (law(params, v=np.asarray(v, dtype=float))[3:6] + [0.0, 0.0, params.g])


def torque(params, **state):
    return params.J @ law(params, **state)[10:13]


class TestThrust:
    def test_zero_frequency(self, params):
        assert thrust(0.0, params) == 0.0

    def test_arithmetic(self):
        p = FwavParams(k_tf=1e-5)
        assert thrust(20.0, p) == pytest.approx(4e-3)

    def test_quadratic_law(self, params):
        assert thrust(10.0, params) * 4 == pytest.approx(thrust(20.0, params))

    def test_negative_frequency_rejected(self, params):
        state = FwavState().as_vector()
        state[13] = -1.0
        with pytest.raises(InvalidInputError):
            full_rhs(state, (0.0, 0.0, 0.0), params)


class TestBodyDrag:
    def test_zero_velocity(self, params):
        assert np.allclose(drag(np.zeros(3), params), 0.0)

    def test_odd_symmetry(self, params):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.standard_normal(3)
            assert np.allclose(drag(-v, params), -drag(v, params))

    def test_arithmetic(self):
        p = FwavParams(k_d_x=0.02)
        assert np.allclose(drag([3.0, 0, 0], p), [-0.18, 0, 0])


class TestDeflectionTorque:
    def test_zero_deflections(self, params):
        assert np.allclose(torque(params, v=np.array([1.0, 0, 0.5]), f_flap=10.0), 0.0)

    def test_no_gain_without_flow_or_flapping(self, params):
        assert np.allclose(torque(params, theta_rud=0.3, theta_ele=-0.2), 0.0)

    def test_rudder_sign_flip_affects_x_and_z_only(self, params):
        v = np.array([1.0, 0, 0.2])
        tau0 = torque(params, v=v, f_flap=12.0, theta_rud=0.1, theta_ele=0.05)
        tau1 = torque(params, v=v, f_flap=12.0, theta_rud=-0.1, theta_ele=0.05)
        assert tau1[0] == pytest.approx(-tau0[0])
        assert tau1[2] == pytest.approx(-tau0[2])
        assert tau1[1] == pytest.approx(tau0[1])


class TestFullRhs:
    def test_free_fall(self, params):
        d = full_rhs(FwavState(), ActuatorCommands(), params)
        assert np.allclose(d[3:6], [0, 0, -params.g])
        assert np.allclose(np.delete(d, [3, 4, 5]), 0.0)

    def test_hover_balance(self, params):
        s = FwavState(f_flap=params.hover_frequency)
        d = full_rhs(s, ActuatorCommands(f_flap_c=s.f_flap), params)
        assert np.allclose(d[3:6], 0.0, atol=1e-12)
        assert np.allclose(d[10:13], 0.0, atol=1e-12)

    def test_actuator_lag(self):
        p = FwavParams(k_flap_c=0.1)
        d = full_rhs(FwavState(), ActuatorCommands(f_flap_c=10.0), p)
        assert d[13] == pytest.approx(100.0)

    def test_nonfinite_state_rejected(self, params):
        s = FwavState(p=np.array([np.nan, 0, 0]))
        with pytest.raises(PropagationError):
            full_rhs(s, ActuatorCommands(), params)


class TestVerticalRhs:
    def test_hover_equilibrium(self, vparams):
        s = VerticalState()
        u = VerticalInputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        assert np.allclose(vertical_rhs(s, u, vparams), 0.0, atol=1e-12)

    def test_lateral_row_self_consistent(self, vparams):
        s = VerticalState(vv=np.array([0.8, 0.0, 0.0]), omega_psi=0.0)
        u = VerticalInputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        d = vertical_rhs(s, u, vparams)
        assert d[4] == 0.0

    def test_wind_vane_sign_forward_flight(self):
        # positive lateral tilt with forward speed yaws positive (vk_damp = 0)
        p = VerticalParams(vk_damp=0.0)
        gy = 0.05
        gamma = np.array([0.0, gy, math.sqrt(1 - gy**2)])
        s = VerticalState(vv=np.array([1.0, 0.0, 0.0]))
        d = vertical_rhs(s, VerticalInputs(gamma=gamma, f_flap=p.hover_frequency), p,
                         rudder_mode="explicit-rudder")
        assert d[7] > 0.0

    def test_gamma_proxy_opposes_lateral_tilt(self, vparams):
        gy = 0.05
        gamma = np.array([0.0, gy, math.sqrt(1 - gy**2)])
        s = VerticalState(vv=np.array([1.0, 0.0, 0.0]))
        d = vertical_rhs(s, VerticalInputs(gamma=gamma, f_flap=vparams.hover_frequency),
                         vparams, rudder_mode="gamma-proxy")
        assert d[7] < 0.0

    def test_sgn_mirror_symmetry(self, vparams):
        gx = 0.1
        gz = math.sqrt(1 - gx**2)
        s_fwd = VerticalState(vv=np.array([0.7, 0.0, 0.0]))
        s_bwd = VerticalState(vv=np.array([-0.7, 0.0, 0.0]))
        d_fwd = vertical_rhs(s_fwd, VerticalInputs(gamma=[gx, 0, gz], f_flap=12.0), vparams)
        d_bwd = vertical_rhs(s_bwd, VerticalInputs(gamma=[-gx, 0, gz], f_flap=12.0), vparams)
        assert d_bwd[3] == pytest.approx(-d_fwd[3])

    def test_non_unit_gamma_rejected(self, vparams):
        with pytest.raises(InvalidInputError):
            vertical_rhs(VerticalState(), VerticalInputs(gamma=[0, 0, 2.0], f_flap=10.0), vparams)

    def test_free_mode_relaxed_lateral_row(self):
        p = VerticalParams(lateral_mode="free")
        s = VerticalState(vv=np.array([1.0, 0.2, 0.0]), omega_psi=0.3)
        d = vertical_rhs(s, VerticalInputs(gamma=[0, 0, 1], f_flap=p.hover_frequency), p)
        expected = 0.3 * 1.0 - p.vk_d_y * 0.04 / p.m
        assert d[4] == pytest.approx(expected)


class TestIntegrate:
    def test_zero_field_constant_state(self):
        # level hover with thrust exactly m g (k_tf = m = 1, g = 4, f = 2) at rest:
        # every derivative is zero, so every logged state is the start state
        p = FwavParams(m=1.0, g=4.0, k_tf=1.0)
        state0 = FwavState(p=np.array([1.0, -2.0, 0.5]), f_flap=2.0)
        log = simulate_full(state0, p, lambda t: ActuatorCommands(2.0), dt=0.01, duration=0.5)
        assert np.array_equal(log.states, np.tile(state0.as_vector(), (51, 1)))
        assert log.t[-1] == pytest.approx(0.5)

    def test_free_fall_exact(self):
        # drag off: the velocity field is linear in t, so RK4 is exact
        p = FwavParams(k_d_x=0.0, k_d_y=0.0, k_d_z=0.0)
        log = simulate_full(FwavState(), p, lambda t: ActuatorCommands(),
                            dt=1e-3, duration=1.0)
        assert log.states[-1, 5] == pytest.approx(-p.g, abs=1e-9)
        assert log.states[-1, 2] == pytest.approx(-p.g / 2, abs=1e-9)

    def test_simulate_vertical_reads_each_input_once(self, vparams, rk4_vertical):
        # inputs is read once at each half-step time j dt/2, j = 0..2n: 2n + 1
        # calls, and the log is the one of rk4_flat over vertical_rhs on those samples
        calls = []

        def inputs(t):
            calls.append(t)
            a = 0.1 * math.sin(7.0 * t)
            return VerticalInputs([math.sin(a), 0.0, math.cos(a)],
                                  vparams.hover_frequency + math.cos(5.0 * t))

        n, dt = 40, 1e-3
        state0 = VerticalState(vv=np.array([0.3, 0.0, 0.1]), omega_psi=0.2)
        log = simulate_vertical(state0, vparams, inputs, dt=dt, duration=n * dt)
        assert calls == [j * dt / 2 for j in range(2 * n + 1)]

        samples = [inputs(t) for t in list(calls)]
        assert np.array_equal(log.t, np.arange(n + 1) * dt)
        assert np.array_equal(log.states, rk4_vertical(state0, vparams, samples, dt))
        assert np.array_equal(log.inputs, [[*u.gamma, u.f_flap] for u in samples[::2]])

    def test_richardson_fourth_order(self, params):
        # smooth regime: body-velocity components stay positive so every
        # sgn() is constant and the field is C-infinity along the run
        state0 = FwavState(
            v=np.array([0.8, 0.6, 0.5]),
            omega=np.array([0.05, -0.04, 0.03]),
            f_flap=16.0,
            theta_rud=0.02,
            theta_ele=-0.03,
        )
        cmd = lambda t: ActuatorCommands(16.0, 0.02, -0.03)

        def endpoint(dt):
            return simulate_full(state0, params, cmd, dt=dt, duration=0.3).states[-1, :6]

        e1 = endpoint(4e-3)
        e2 = endpoint(2e-3)
        e3 = endpoint(1e-3)
        err1 = np.linalg.norm(e1 - e3)
        err2 = np.linalg.norm(e2 - e3)
        # halving dt shrinks the endpoint error by ~2^4 (Richardson ratio 16)
        ratio = err1 / err2
        assert 8.0 < ratio < 32.0

    def test_nan_abort_names_step(self, params):
        def cmd(t):
            return ActuatorCommands(f_flap_c=float("nan") if t > 0.05 else 10.0)

        with pytest.raises(PropagationError) as err:
            simulate_full(FwavState(), params, cmd, dt=1e-3, duration=0.2)
        assert err.value.step > 0

    def test_bad_step_arguments(self, params, vparams):
        with pytest.raises(InvalidInputError):
            simulate_vertical(VerticalState(), vparams, lambda t: VerticalInputs([0, 0, 1], 10.0),
                              dt=-1e-3, duration=1.0)
        with pytest.raises(InvalidInputError):
            simulate_full(FwavState(), params, lambda t: ActuatorCommands(),
                          dt=-1e-3, duration=1.0)


class TestModelInvariants:
    def test_energy_conservation_without_forces(self):
        # zero drag/thrust/torque: ||v||^2/2 + g z conserved over 5 s at dt=1e-3
        p = FwavParams(k_d_x=0.0, k_d_y=0.0, k_d_z=0.0)
        state0 = FwavState(v=np.array([1.0, -0.5, 2.0]), omega=np.array([0.3, 0.2, -0.1]))
        log = simulate_full(state0, p, lambda t: ActuatorCommands(), dt=1e-3, duration=5.0)
        v = log.states[:, 3:6]
        z = log.states[:, 2]
        energy = 0.5 * np.sum(v**2, axis=1) + p.g * z
        assert np.max(np.abs(energy - energy[0])) < 1e-6

    def test_quaternion_norm_after_every_step(self, params):
        state0 = FwavState(omega=np.array([2.0, -1.0, 0.5]), f_flap=12.0)
        log = simulate_full(state0, params, lambda t: ActuatorCommands(12.0), dt=1e-3, duration=1.0)
        norms = np.linalg.norm(log.states[:, 6:10], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_vertical_matches_full_for_yaw_free_run(self, params):
        # model-reduction sanity: 5% of path length over 2 s, loose by design.
        # Constant 0.1 rad pitch tilt with zero deflections keeps the full
        # model torque-free, so the run exercises only the translational
        # reduction the vertical model makes.
        alpha = 0.1
        q0 = UnitQuaternion(math.cos(alpha / 2), np.array([0.0, math.sin(alpha / 2), 0.0]))
        f0 = math.sqrt(params.m * params.g / (params.k_tf * math.cos(alpha)))
        s0 = FwavState(q=q0, f_flap=f0)
        cmd = lambda t: ActuatorCommands(f_flap_c=f0)
        full_log = simulate_full(s0, params, cmd, dt=1e-3, duration=2.0)

        vparams = VerticalParams(m=params.m, g=params.g, k_tf=params.k_tf, vk_d_x=params.k_d_x,
                                 vk_d_y=params.k_d_y, vk_d_z=params.k_d_z)
        t_grid = full_log.t

        def inputs(t):
            i = min(int(round(t / 1e-3)), len(t_grid) - 1)
            row = full_log.states[i]
            rot = quat_to_rot(UnitQuaternion(row[6], row[7:10]))
            gamma = rot.T @ np.array([0.0, 0.0, 1.0])
            return VerticalInputs(gamma=gamma / np.linalg.norm(gamma), f_flap=max(row[13], 0.0))

        vert_log = simulate_vertical(VerticalState(), vparams, inputs, dt=1e-3, duration=2.0)
        p_full = full_log.states[:, 0:3]
        p_vert = vert_log.states[:, 0:3]
        path_len = np.sum(np.linalg.norm(np.diff(p_full, axis=0), axis=1))
        deviation = np.max(np.linalg.norm(p_full - p_vert, axis=1))
        assert deviation <= 0.05 * max(path_len, 1e-9)


class TestLogCsv:
    def test_full_header_and_roundtrip(self, tmp_path, params):
        log = simulate_full(FwavState(f_flap=params.hover_frequency), params,
                            lambda t: ActuatorCommands(params.hover_frequency),
                            dt=1e-3, duration=0.05)
        out = tmp_path / "state.csv"
        log.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,fflap,thrud,thele"
        assert len(lines) == len(log.t) + 1

    def test_vertical_header(self, tmp_path, vparams):
        u = VerticalInputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        log = simulate_vertical(VerticalState(), vparams, lambda t: u, dt=1e-3, duration=0.05)
        out = tmp_path / "vert.csv"
        log.to_csv(out)
        assert out.read_text().splitlines()[0] == (
            "t,px,py,pz,vvx,vvy,vvz,psi,omegapsi,gx,gy,gz,fflap"
        )


class TestParamValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidInputError):
            FwavParams(m=-1.0)

    def test_asymmetric_inertia_rejected(self):
        J = np.diag([1e-4, 1e-4, 1e-4])
        J[0, 1] = 1e-5
        with pytest.raises(InvalidInputError):
            FwavParams(J=J)

    def test_gain_bounds_ordering(self):
        with pytest.raises(InvalidInputError):
            VerticalParams(l_gamma_min=2.0, l_gamma_max=1.0)


# ---------------------------------------------------------------------------
# the scalar core against the object-path formulas it replaced
# ---------------------------------------------------------------------------

HYPOTHESIS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def quat_derivative(q: UnitQuaternion, omega_body: np.ndarray) -> np.ndarray:
    """Kinematics qdot = 0.5 * q (x) (0, omega_body).  Not normalized."""
    return 0.5 * hamilton(q.as_array(), [0.0, *omega_body])


def oracle_full_rhs(state, cmd, params):
    """Full-model derivative through UnitQuaternion, quat_to_rot,
    quat_derivative, np.cross and np.linalg.solve, with sgn = np.sign."""
    q = state.q.normalized()
    rot = quat_to_rot(q)
    v_body = rot.T @ state.v
    k = np.array([params.k_d_x, params.k_d_y, params.k_d_z])
    force_body = -k * np.sign(v_body) * v_body**2
    force_body[2] += params.k_tf * state.f_flap**2
    v_dot = np.array([0.0, 0.0, -params.g]) + rot @ force_body / params.m
    q_dot = quat_derivative(q, state.omega)
    sv = float(np.sign(v_body[2])) * v_body[0] ** 2
    f2 = state.f_flap**2
    tau = np.array([
        -(params.k_tau_x * sv + params.k_flap_x * f2) * state.theta_rud,
        -(params.k_tau_y * sv + params.k_flap_y * f2) * state.theta_ele,
        -(params.k_tau_z * sv + params.k_flap_z * f2) * state.theta_rud,
    ])
    j_omega = params.J @ state.omega
    omega_dot = np.linalg.solve(params.J, tau - np.cross(state.omega, j_omega))
    lags = [
        (cmd.f_flap_c - state.f_flap) / params.k_flap_c,
        (cmd.theta_rud_c - state.theta_rud) / params.k_rud_c,
        (cmd.theta_ele_c - state.theta_ele) / params.k_ele_c,
    ]
    derivative = np.concatenate([state.v, v_dot, q_dot, omega_dot, lags])
    # size of the terms each block sums, for a relative error measure;
    # l1 norms, so that tiny components do not underflow when squared
    l1 = lambda x: float(np.sum(np.abs(x)))
    scales = [
        l1(state.v),
        params.g + l1(force_body) / params.m,
        l1(state.omega),
        np.max(np.sum(np.abs(np.linalg.inv(params.J)), axis=1))
        * (l1(tau) + l1(state.omega) * l1(j_omega)),
        max(abs(c) + abs(x) for c, x in zip(
            (cmd.f_flap_c, cmd.theta_rud_c, cmd.theta_ele_c),
            (state.f_flap, state.theta_rud, state.theta_ele),
        )) / min(params.k_flap_c, params.k_rud_c, params.k_ele_c),
    ]
    return derivative, scales


def oracle_vertical_rhs(state, inputs, params, rudder_mode):
    """Vertical-model derivative through rotz and np.sign."""
    gx, gy, gz = inputs.gamma
    m = params.m
    f2 = inputs.f_flap**2
    vvx, vvy, vvz = state.vv
    w = state.omega_psi
    sx, sy, sz, sw = (float(np.sign(x)) for x in (vvx, vvy, vvz, w))
    p_dot = rotz(state.psi) @ state.vv
    ax = -params.k_tf * f2 * gx / m - params.vk_d_x * sx * vvx**2 / m - w * vvy
    az = params.k_tf * f2 * gz / m - params.vk_d_z * sz * vvz**2 / m - params.g
    if params.lateral_mode == "constrained":
        ay = 0.0
    else:
        ay = w * vvx - params.vk_d_y * sy * vvy**2 / m
    if rudder_mode == "explicit-rudder":
        yaw_terms = [
            (params.vk_tau_x * sz * vvz**2 + params.vk_flap_x * f2 * gz) * inputs.theta_rud,
            params.vk_gamma * gy * sx * vvx**2,
        ]
        w_dot = -yaw_terms[0] + yaw_terms[1]
    else:
        yaw_terms = [(params.kbar_gamma * sz * vvz**2 + params.kbar_flap_x * f2 * gz) * gy]
        w_dot = -yaw_terms[0]
    yaw_terms.append(params.vk_damp * sw * w**2)
    w_dot -= yaw_terms[-1]
    derivative = np.concatenate([p_dot, [ax, ay, az], [w, w_dot]])
    speed = float(np.sum(np.abs(state.vv)))
    scales = [
        speed,
        (params.k_tf * f2 + max(params.vk_d_x, params.vk_d_y, params.vk_d_z) * speed * speed) / m
        + params.g + abs(w) * speed,
        abs(w),
        sum(abs(x) for x in yaw_terms),
    ]
    return derivative, scales


def assert_blocks_close(derivative, oracle, scales, blocks, rtol=1e-12):
    """Each block agrees to rtol relative to the size of its terms; below
    the normal range (tiny) floats carry no relative precision."""
    derivative = np.asarray(derivative, dtype=float)
    assert derivative.shape == oracle.shape
    for (lo, hi), scale in zip(blocks, scales):
        gap = np.max(np.abs(derivative[lo:hi] - oracle[lo:hi]))
        assert gap <= rtol * scale + np.finfo(float).tiny, (lo, hi, gap, scale)


FULL_BLOCKS = [(0, 3), (3, 6), (6, 10), (10, 13), (13, 16)]
VERTICAL_BLOCKS = [(0, 3), (3, 6), (6, 7), (7, 8)]

# exact zeros (both signs) in every component, otherwise moderate values
component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
quaternion = st.one_of(
    # axis-aligned attitudes keep body-frame zeros exact
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.6, 0.8, 0.0, 0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(x * x for x in q) > 1e-2),
).flatmap(lambda q: st.floats(0.8, 1.25).map(lambda s: tuple(s * x for x in q)))
inertia = st.sampled_from([
    np.diag([8.0e-5, 6.0e-5, 9.0e-5]),
    np.array([[8.0e-5, 1.0e-5, -2.0e-6], [1.0e-5, 6.0e-5, 3.0e-6], [-2.0e-6, 3.0e-6, 9.0e-5]]),
])


class TestScalarCoreOracle:
    @HYPOTHESIS
    @given(
        v=st.tuples(component, component, component),
        q=quaternion,
        omega=st.tuples(component, component, component),
        f=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
        deflections=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        cmd=st.tuples(st.floats(0.0, 30.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        J=inertia,
    )
    def test_full_rhs_matches_object_path(self, v, q, omega, f, deflections, cmd, J):
        params = FwavParams(J=J)
        state = FwavState(
            p=np.array([0.3, -1.0, 2.0]), v=np.array(v),
            q=UnitQuaternion(q[0], np.array(q[1:])), omega=np.array(omega),
            f_flap=f, theta_rud=deflections[0], theta_ele=deflections[1],
        )
        oracle, scales = oracle_full_rhs(state, ActuatorCommands(*cmd), params)
        assert_blocks_close(
            full_rhs(state, ActuatorCommands(*cmd), params), oracle, scales, FULL_BLOCKS
        )
        assert_blocks_close(
            full_rhs(state.as_vector(), cmd, params), oracle, scales, FULL_BLOCKS
        )

    @pytest.mark.parametrize("rudder_mode", ["gamma-proxy", "explicit-rudder"])
    @pytest.mark.parametrize("lateral_mode", ["constrained", "free"])
    @HYPOTHESIS
    @given(
        vv=st.tuples(component, component, component),
        psi=st.floats(-4.0, 4.0),
        w=component,
        gamma=st.tuples(component, component, component).filter(
            lambda g: sum(x * x for x in g) > 1e-2
        ),
        f=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
        theta_rud=st.floats(-0.5, 0.5),
    )
    def test_vertical_rhs_matches_object_path(
        self, rudder_mode, lateral_mode, vv, psi, w, gamma, f, theta_rud
    ):
        params = VerticalParams(lateral_mode=lateral_mode)
        gamma = np.array(gamma) / np.linalg.norm(gamma)
        state = VerticalState(p=np.array([1.0, 2.0, -0.5]), vv=np.array(vv), psi=psi, omega_psi=w)
        inputs = VerticalInputs(gamma=gamma, f_flap=f, theta_rud=theta_rud)
        oracle, scales = oracle_vertical_rhs(state, inputs, params, rudder_mode)
        assert_blocks_close(
            vertical_rhs(state, inputs, params, rudder_mode), oracle, scales, VERTICAL_BLOCKS
        )
        flat_inputs = (*gamma.tolist(), f, theta_rud)
        assert_blocks_close(
            vertical_rhs(state.as_vector(), flat_inputs, params, rudder_mode),
            oracle, scales, VERTICAL_BLOCKS,
        )

    def test_tilted_torque_and_signed_zero_drag(self, params):
        state = FwavState(
            v=np.array([0.7, -0.2, 0.4]), q=UnitQuaternion(0.9, np.array([0.1, -0.3, 0.2])),
            f_flap=14.0, theta_rud=0.1, theta_ele=-0.05,
        )
        oracle, _ = oracle_full_rhs(state, ActuatorCommands(), params)
        omega_dot = full_rhs(state, ActuatorCommands(), params)[10:13]
        assert np.allclose(omega_dot, oracle[10:13], rtol=1e-12, atol=0.0)
        # sgn(-0.0) = 0: a signed zero drags nothing, level and at f = 0
        v_dot = law(params, v=np.array([0.0, -0.0, 2.0]))[3:6]
        assert np.array_equal(v_dot, [0.0, 0.0, -params.k_d_z * 4.0 / params.m - params.g])


def _flat_or_view(view, flat: bool):
    return view.as_vector() if flat else view


class TestScalarCoreErrors:
    @pytest.mark.parametrize("flat", [False, True])
    def test_nonfinite_state(self, params, flat):
        for bad in (np.nan, np.inf):
            state = FwavState(v=np.array([0.0, bad, 0.0]))
            with pytest.raises(PropagationError):
                full_rhs(_flat_or_view(state, flat), ActuatorCommands(), params)

    @pytest.mark.parametrize("flat", [False, True])
    def test_negative_flap_frequency(self, params, vparams, flat):
        state = FwavState(f_flap=5.0)
        state.f_flap = -1.0
        with pytest.raises(InvalidInputError):
            full_rhs(_flat_or_view(state, flat), ActuatorCommands(), params)
        inputs = VerticalInputs(gamma=[0.0, 0.0, 1.0], f_flap=-1.0)
        vinputs = (0.0, 0.0, 1.0, -1.0, 0.0) if flat else inputs
        with pytest.raises(InvalidInputError):
            vertical_rhs(_flat_or_view(VerticalState(), flat), vinputs, vparams)

    @pytest.mark.parametrize("flat", [False, True])
    def test_zero_quaternion(self, params, flat):
        state = FwavState(q=UnitQuaternion(0.0, np.zeros(3)))
        with pytest.raises(InvalidInputError):
            full_rhs(_flat_or_view(state, flat), ActuatorCommands(), params)

    @pytest.mark.parametrize("flat", [False, True])
    def test_non_unit_gamma(self, vparams, flat):
        inputs = (0.0, 0.0, 1.01, 10.0, 0.0) if flat else VerticalInputs(
            gamma=[0.0, 0.0, 1.01], f_flap=10.0
        )
        with pytest.raises(InvalidInputError):
            vertical_rhs(_flat_or_view(VerticalState(), flat), inputs, vparams)

    def test_unknown_rudder_mode(self, vparams):
        u = VerticalInputs(gamma=[0.0, 0.0, 1.0], f_flap=10.0)
        with pytest.raises(InvalidInputError):
            vertical_rhs(VerticalState(), u, vparams, rudder_mode="aileron")


def _hover_table(vparams, n_steps):
    """Half-step input table of n_steps steps holding the hover inputs."""
    gamma = np.tile([0.0, 0.0, 1.0], (2 * n_steps + 1, 1))
    return gamma, np.full(2 * n_steps + 1, vparams.hover_frequency)


class TestTabulatedErrors:
    """The tabulated path checks its table a block of 1,024 steps at a time;
    samples past the first block must still be caught."""

    N_STEPS = 1500

    def run(self, vparams, gamma, f, rudder_mode="explicit-rudder"):
        return integrate_vertical_tabulated(
            VerticalState(), vparams, gamma, f, 1e-3, rudder_mode=rudder_mode,
        )

    def test_even_length_table(self, vparams):
        gamma, f = _hover_table(vparams, 10)
        with pytest.raises(InvalidInputError, match="odd number"):
            self.run(vparams, gamma[:-1], f[:-1])

    def test_unknown_rudder_mode(self, vparams):
        gamma, f = _hover_table(vparams, 10)
        with pytest.raises(InvalidInputError, match="unknown rudder mode"):
            self.run(vparams, gamma, f, rudder_mode="aileron")

    def test_non_unit_gamma_after_first_block(self, vparams):
        gamma, f = _hover_table(vparams, self.N_STEPS)
        gamma[2 * 1024 + 101] = [0.0, 0.0, 1.01]
        with pytest.raises(InvalidInputError, match="unit norm"):
            self.run(vparams, gamma, f)

    def test_negative_f_after_first_block(self, vparams):
        gamma, f = _hover_table(vparams, self.N_STEPS)
        f[2 * 1024 + 500] = -1.0
        with pytest.raises(InvalidInputError, match="non-negative"):
            self.run(vparams, gamma, f)

    def test_overflowing_f_names_the_step(self, vparams):
        # samples up to 2k are flyable; step k reads sample 2k + 1 first
        k = 1100
        gamma, _ = _hover_table(vparams, self.N_STEPS)
        f = np.where(np.arange(len(gamma)) <= 2 * k, 14.0, 1e200)
        with pytest.raises(PropagationError) as err:
            self.run(vparams, gamma, f)
        assert err.value.step == k + 1

    @pytest.mark.parametrize("delta", [-1, 1, -2])
    def test_rudder_table_length_mismatch_is_named(self, vparams, delta):
        gamma, f = _hover_table(vparams, 10)
        rud = np.zeros(len(gamma) + delta)
        with pytest.raises(InvalidInputError, match="theta_rud_grid"):
            integrate_vertical_tabulated(VerticalState(), vparams, gamma, f, 1e-3,
                                         rudder_mode="explicit-rudder", theta_rud_grid=rud)

    def test_rudder_table_read_across_blocks(self, vparams, rk4_vertical):
        """A rudder table over three blocks drives the replay, and
        ``simulate_vertical`` fed the same samples, exactly as ``rk4_flat``
        over ``vertical_rhs``."""
        dt, n = 1e-3, 2500
        gamma, f = _hover_table(vparams, n)
        grid = np.arange(2 * n + 1) * dt / 2
        f = f + 0.5 * np.sin(3.0 * grid)
        rud = 0.05 * np.sin(7.0 * grid)
        fast = integrate_vertical_tabulated(VerticalState(), vparams, gamma, f, dt,
                                            rudder_mode="explicit-rudder", theta_rud_grid=rud)

        def inputs(t):
            idx = min(int(round(2 * t / dt)), len(grid) - 1)
            return VerticalInputs(gamma=gamma[idx], f_flap=float(f[idx]), theta_rud=float(rud[idx]))

        slow = simulate_vertical(VerticalState(), vparams, inputs, rudder_mode="explicit-rudder",
                                 dt=dt, duration=n * dt)
        samples = np.column_stack([gamma, f, rud]).tolist()
        want = rk4_vertical(VerticalState(), vparams, samples, dt, "explicit-rudder")
        assert fast.states.shape == (n + 1, 8)
        assert np.array_equal(fast.t, slow.t)
        assert np.array_equal(fast.states, want)
        assert np.array_equal(slow.states, want)


unit_gamma = st.tuples(st.floats(0.0, 1.2), st.floats(-math.pi, math.pi)).map(
    lambda a: (math.sin(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.sin(a[1]), math.cos(a[0]))
)
input_row = st.tuples(unit_gamma, st.floats(0.0, 30.0), st.floats(-0.5, 0.5)).map(
    lambda r: (*r[0], r[1], r[2])
)


@st.composite
def input_rows(draw):
    """2n + 1 half-step input rows of n steps, held or varying."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(input_row)] * (2 * n + 1)
    return draw(st.lists(input_row, min_size=2 * n + 1, max_size=2 * n + 1))


class TestVerticalSteps:
    @pytest.mark.parametrize("rudder_mode", ["gamma-proxy", "explicit-rudder"])
    @pytest.mark.parametrize("lateral_mode", ["constrained", "free"])
    @HYPOTHESIS
    @given(
        p=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        vv=st.tuples(component, component, component),
        psi=st.floats(-4.0, 4.0),
        w=component,
        rows=input_rows(),
        dt=st.sampled_from([1e-4, 1e-3, 5e-3]),
        given_first=st.booleans(),
        radius=st.one_of(st.just(math.inf), st.floats(0.0, 6.0)),
    )
    def test_equals_rk4_flat_bit_for_bit(
        self, rudder_mode, lateral_mode, p, vv, psi, w, rows, dt, given_first, radius
    ):
        params = VerticalParams(lateral_mode=lateral_mode)
        y0 = [*p, *vv, psi, w]
        want = [y0]
        for k in range(len(rows) // 2):
            want.append(rk4_flat(vertical_rhs, want[-1], dt, *rows[2 * k : 2 * k + 3], params,
                                 rudder_mode))
        # the run stops after the first state beyond the radius
        beyond = [k for k, (x, y, z, *_) in enumerate(want[1:], 1)
                  if math.sqrt(x * x + y * y + z * z) > radius]
        last = beyond[0] if beyond else len(want) - 1

        # the stepper reads the rows' input terms, computed once per row
        explicit = _explicit_rudder(rudder_mode)
        terms = [_vertical_terms(params, explicit, *row) for row in rows]
        states = np.full((len(want), 8), np.nan)
        states[0] = y0
        first = vertical_rhs(y0, rows[0], params, rudder_mode) if given_first else None
        y, k, stopped = _vertical_steps(params, explicit, y0, terms, dt, states, 0, first,
                                        radius)
        assert (k, stopped) == (last, bool(beyond))
        assert list(y) == want[last]
        assert np.array_equal(states[: last + 1], np.array(want[: last + 1]))
        assert np.isnan(states[last + 1 :]).all()


signed_cell = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
term_inputs = st.lists(
    st.tuples(signed_cell, signed_cell, signed_cell,
              st.one_of(st.sampled_from([0.0, -0.0, 1e150, 1e200]), st.floats(0.0, 1e200)),
              signed_cell),
    min_size=1, max_size=8,
)


class TestVerticalTerms:
    @pytest.mark.parametrize("rudder_mode", ["gamma-proxy", "explicit-rudder"])
    @HYPOTHESIS
    @given(rows=term_inputs)
    def test_arrays_equal_floats_bit_for_bit(self, rudder_mode, rows):
        # the replay computes a block's terms as arrays under its errstate, the
        # closed loop a tick's on floats: the same bits, signed zeros, infinities
        # and NaNs of an overflowing f included, and no warning from the arrays
        params, explicit = VerticalParams(), _explicit_rudder(rudder_mode)
        floats = [_vertical_terms(params, explicit, *row) for row in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = _vertical_terms(params, explicit, *np.array(rows).T)
        assert np.array_equal(bits(np.column_stack(arrays)), bits(floats))


def parent_full_steps(params, y0, rows, dt, radius):
    """The full model's block of steps as first written: ``rk4_flat`` on ``full_rhs`` per
    step, then the quaternion projected onto the unit sphere.  Returns the logged states,
    the step the run stopped at (or None) and why: "stage" for a non-finite stage (the
    step is not logged), "state" for a non-finite state or one beyond ``radius`` (it is)
    and "invalid" for an InvalidInputError."""
    want = [list(y0)]
    for k in range(1, len(rows) // 2 + 1):
        try:
            y = rk4_flat(full_rhs, want[-1], dt, *rows[2 * k - 2 : 2 * k + 1], params)
        except PropagationError:
            return want, k, "stage"
        except InvalidInputError:
            return want, k, "invalid"
        n = math.sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8] + y[9] * y[9])
        if n > 0:
            y[6:10] = [v / n for v in y[6:10]]
        want.append(y)
        if math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) > radius or not all(
                map(math.isfinite, y)):
            return want, k, "state"
    return want, None, None


def bits(rows) -> np.ndarray:
    return np.array(rows, dtype=float).view(np.int64)


moderate_state = st.tuples(
    st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    st.tuples(component, component, component),
    quaternion,
    st.tuples(component, component, component),
    st.floats(0.0, 30.0),
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
).map(lambda s: [*s[0], *s[1], *s[2], *s[3], s[4], *s[5]])


@st.composite
def full_state(draw):
    """A flat full state; in half of them one position, velocity or rate is
    large enough that a stage or a step overflows."""
    y = draw(moderate_state)
    if draw(st.booleans()):
        y[draw(st.sampled_from([0, 1, 2, 3, 4, 5, 10, 11, 12]))] = draw(
            st.sampled_from([1e6, -1e6, 3e154, -1e200, 1.7e308]))
    return y


# negative commanded frequencies drive stage frequencies below zero; NaN poisons a stage
command_row = st.tuples(
    st.one_of(st.floats(0.0, 30.0), st.floats(-300.0, 0.0), st.just(math.nan)),
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
)


@st.composite
def command_rows(draw):
    """2n + 1 half-step command rows of n steps, held or varying."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(command_row)] * (2 * n + 1)
    return draw(st.lists(command_row, min_size=2 * n + 1, max_size=2 * n + 1))


class TestFullSteps:
    @HYPOTHESIS
    @given(
        y0=full_state(),
        rows=command_rows(),
        dt=st.sampled_from([1e-4, 1e-3, 5e-3]),
        given_first=st.booleans(),
        radius=st.one_of(st.just(math.inf), st.floats(0.0, 6.0)),
        margin=st.one_of(st.none(), st.floats(0.0, 0.01)),
    )
    def test_equals_rk4_flat_bit_for_bit(self, y0, rows, dt, given_first, radius, margin):
        params = FwavParams()
        if margin is not None:  # a radius the flight may cross after a few steps
            radius = math.sqrt(y0[0] * y0[0] + y0[1] * y0[1] + y0[2] * y0[2]) + margin
        want, stop, why = parent_full_steps(params, y0, rows, dt, radius)
        states = np.full((len(rows) // 2 + 1, 16), np.nan)
        states[0] = y0
        first = full_rhs(y0, rows[0], params) if given_first else None
        if why == "invalid":
            with pytest.raises(InvalidInputError):
                _full_steps(params, y0, rows, dt, states, 0, first, radius)
        else:
            y, k, got = _full_steps(params, y0, rows, dt, states, 0, first, radius)
            assert (k, got) == (len(want) - 1, stop)
            assert np.array_equal(bits(y), bits(want[-1]))
        assert np.array_equal(bits(states[: len(want)]), bits(want))
        assert np.isnan(states[len(want):]).all()


class TestInertia:
    def test_changed_inertia_is_honoured(self):
        params = FwavParams()
        state = FwavState(omega=np.array([1.0, -2.0, 0.5]), f_flap=10.0,
                          theta_rud=0.1, theta_ele=0.2, v=np.array([0.5, 0.0, 0.3]))
        before = np.array(full_rhs(state, ActuatorCommands(), params))

        params.J = np.diag([2.0e-4, 6.0e-5, 9.0e-5])  # reassigned
        after = np.array(full_rhs(state, ActuatorCommands(), params))
        oracle, _ = oracle_full_rhs(state, ActuatorCommands(), params)
        assert not np.allclose(after[10:13], before[10:13])
        assert np.allclose(after[10:13], oracle[10:13], rtol=1e-12, atol=0.0)

        params.J[1, 1] = 3.0e-5  # edited in place
        edited = np.array(full_rhs(state, ActuatorCommands(), params))
        oracle, _ = oracle_full_rhs(state, ActuatorCommands(), params)
        assert not np.allclose(edited[10:13], after[10:13])
        assert np.allclose(edited[10:13], oracle[10:13], rtol=1e-12, atol=0.0)


def _per_cell_csv(path, header, rows):
    """The cell-by-cell writer the logs used before: one f-string per cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


class TestCsvBytes:
    def test_special_values_byte_identical(self, tmp_path):
        special = [0.0, -0.0, 1e-300, 5e-324, 1e17, -1e17, np.nan, np.inf, -np.inf,
                   1.0 / 3.0, -2.5e-7, 123456789012.5, 0.1]
        rng = np.random.default_rng(5)
        rows = np.vstack([
            np.array(special).reshape(1, -1),
            rng.standard_normal((50, len(special))) * 10.0 ** rng.integers(-300, 300, (50, 1)),
        ])
        _write_csv(tmp_path / "new.csv", "h", rows)
        _per_cell_csv(tmp_path / "old.csv", "h", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_numpy_scalar_rows_byte_identical(self, tmp_path):
        rows = [
            [np.float64(0.25), np.float32(0.1), np.float64(-0.0), 3],
            [np.float32(1e17), np.float64(np.nan), np.float64(-np.inf), 10**17],
        ]
        _write_csv(tmp_path / "new.csv", "a,b,c,d", rows)
        _per_cell_csv(tmp_path / "old.csv", "a,b,c,d", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
