import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkit.attitude import rotz
from flapkit.control import ControllerGains, decompose
from flapkit.dynamics import (
    FwavParams,
    VerticalParams,
    full_rhs,
    _explicit_rudder,
    _full_steps,
    integrate_vertical_tabulated,
    rk4_flat,
    simulate_vertical,
    vertical_rhs,
    _vertical_dynamics,
    _vertical_kinematics,
    _vertical_steps,
    _vertical_terms,
    _write_csv,
)
from flapkit.errors import InvalidInputError, PropagationError
from flapkit.flatness import FlatInputSchedule

from helpers import (
    commands,
    full_row,
    full_steps,
    hamilton,
    quat_to_rot,
    simulate_full,
    single_segment,
    vertical_inputs,
    vertical_row,
)


@pytest.fixture
def params():
    return FwavParams()


@pytest.fixture
def vparams():
    return VerticalParams()


def law(params, **state):
    """``full_rhs`` at a level ``full_row(**state)`` under zero commands,
    checked against ``oracle_full_rhs``.  Thrust, drag and the deflection
    torque are read through it: the state is level, so R = I, and its body
    rates are zero, so there is no gyroscopic term."""
    s = full_row(**state)
    derivative = np.array(full_rhs(s, commands(), params))
    oracle, scales = oracle_full_rhs(s, commands(), params)
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
        state = full_row()
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
        d = full_rhs(full_row(), commands(), params)
        assert np.allclose(d[3:6], [0, 0, -params.g])
        assert np.allclose(np.delete(d, [3, 4, 5]), 0.0)

    def test_hover_balance(self, params):
        s = full_row(f_flap=params.hover_frequency)
        d = full_rhs(s, commands(f_flap_c=params.hover_frequency), params)
        assert np.allclose(d[3:6], 0.0, atol=1e-12)
        assert np.allclose(d[10:13], 0.0, atol=1e-12)

    def test_actuator_lag(self):
        p = FwavParams(k_flap_c=0.1)
        d = full_rhs(full_row(), commands(f_flap_c=10.0), p)
        assert d[13] == pytest.approx(100.0)

    def test_nonfinite_state_rejected(self, params):
        s = full_row(p=[np.nan, 0, 0])
        with pytest.raises(PropagationError):
            full_rhs(s, commands(), params)


class TestVerticalRhs:
    def test_hover_equilibrium(self, vparams):
        s = vertical_row()
        u = vertical_inputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        assert np.allclose(vertical_rhs(s, u, vparams), 0.0, atol=1e-12)

    def test_lateral_row_self_consistent(self, vparams):
        # the frame-lateral velocity is frozen, turning or not
        s = vertical_row(vv=[0.8, 0.2, 0.0], omega_psi=0.3)
        u = vertical_inputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        d = vertical_rhs(s, u, vparams)
        assert d[4] == 0.0

    def test_wind_vane_sign_forward_flight(self):
        # positive lateral tilt with forward speed yaws positive (vk_damp = 0)
        p = VerticalParams(vk_damp=0.0)
        gy = 0.05
        gamma = np.array([0.0, gy, math.sqrt(1 - gy**2)])
        s = vertical_row(vv=[1.0, 0.0, 0.0])
        d = vertical_rhs(s, vertical_inputs(gamma=gamma, f_flap=p.hover_frequency), p,
                         rudder_mode="explicit-rudder")
        assert d[7] > 0.0

    def test_gamma_proxy_opposes_lateral_tilt(self, vparams):
        gy = 0.05
        gamma = np.array([0.0, gy, math.sqrt(1 - gy**2)])
        s = vertical_row(vv=[1.0, 0.0, 0.0])
        d = vertical_rhs(s, vertical_inputs(gamma=gamma, f_flap=vparams.hover_frequency),
                         vparams, rudder_mode="gamma-proxy")
        assert d[7] < 0.0

    def test_sgn_mirror_symmetry(self, vparams):
        gx = 0.1
        gz = math.sqrt(1 - gx**2)
        s_fwd = vertical_row(vv=[0.7, 0.0, 0.0])
        s_bwd = vertical_row(vv=[-0.7, 0.0, 0.0])
        d_fwd = vertical_rhs(s_fwd, vertical_inputs(gamma=[gx, 0, gz], f_flap=12.0), vparams)
        d_bwd = vertical_rhs(s_bwd, vertical_inputs(gamma=[-gx, 0, gz], f_flap=12.0), vparams)
        assert d_bwd[3] == pytest.approx(-d_fwd[3])

    def test_non_unit_gamma_rejected(self, vparams):
        with pytest.raises(InvalidInputError):
            vertical_rhs(vertical_row(), vertical_inputs(gamma=[0, 0, 2.0], f_flap=10.0), vparams)

    @pytest.mark.parametrize("entry, match", [(0, "unit norm"), (3, "non-negative")])
    def test_nan_input_rejected(self, vparams, entry, match):
        # a NaN fails the input check, as a non-unit attitude or a negative
        # frequency does, instead of flowing into the rates
        u = [0.0, 0.0, 1.0, 10.0]
        u[entry] = math.nan
        with pytest.raises(InvalidInputError, match=match):
            vertical_rhs(vertical_row(), u, vparams)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", range(8))
    def test_non_finite_state_rejected(self, vparams, entry, bad):
        # as full_rhs: a non-finite entry anywhere, the pose included, stops it
        s = vertical_row(vv=[0.5, 0.1, 0.0], omega_psi=0.3)
        s[entry] = bad
        u = vertical_inputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        for state in (s, np.array(s)):
            with pytest.raises(PropagationError, match=r"^non-finite state \(step -1\)$") as err:
                vertical_rhs(state, u, vparams)
            assert err.value.step == -1

    def test_overflowing_sum_of_finite_state_accepted(self, vparams):
        # the entries' sum overflows, so each entry is rechecked: all are finite
        s = vertical_row(p=[1e308, 1e308, 0.0], vv=[0.5, 0.0, 0.0])
        d = vertical_rhs(s, vertical_inputs(gamma=[0, 0, 1], f_flap=10.0), vparams)
        assert all(map(math.isfinite, d))


class TestIntegrate:
    def test_zero_field_constant_state(self):
        # level hover with thrust exactly m g (k_tf = m = 1, g = 4, f = 2) at rest:
        # every derivative is zero, so every logged state is the start state
        p = FwavParams(m=1.0, g=4.0, k_tf=1.0)
        state0 = full_row(p=[1.0, -2.0, 0.5], f_flap=2.0)
        log = simulate_full(state0, p, lambda t: commands(2.0), dt=0.01, duration=0.5)
        assert np.array_equal(log.states, np.tile(state0, (51, 1)))
        assert log.t[-1] == pytest.approx(0.5)

    def test_free_fall_exact(self):
        # drag off: the velocity field is linear in t, so RK4 is exact
        p = FwavParams(k_d_x=0.0, k_d_y=0.0, k_d_z=0.0)
        log = simulate_full(full_row(), p, lambda t: commands(),
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
            return vertical_inputs([math.sin(a), 0.0, math.cos(a)],
                                   vparams.hover_frequency + math.cos(5.0 * t))

        n, dt = 40, 1e-3
        state0 = vertical_row(vv=[0.3, 0.0, 0.1], omega_psi=0.2)
        log = simulate_vertical(state0, vparams, inputs, dt=dt, duration=n * dt)
        assert calls == [j * dt / 2 for j in range(2 * n + 1)]

        samples = [inputs(t) for t in list(calls)]
        assert np.array_equal(log.t, np.arange(n + 1) * dt)
        assert np.array_equal(log.states, rk4_vertical(state0, vparams, samples, dt))
        assert np.array_equal(log.inputs, samples[::2])

    def test_richardson_fourth_order(self, params):
        # smooth regime: body-velocity components stay positive so every
        # sgn() is constant and the field is C-infinity along the run
        state0 = full_row(
            v=[0.8, 0.6, 0.5],
            omega=[0.05, -0.04, 0.03],
            f_flap=16.0,
            theta_rud=0.02,
            theta_ele=-0.03,
        )
        cmd = lambda t: commands(16.0, 0.02, -0.03)

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
            return commands(f_flap_c=float("nan") if t > 0.05 else 10.0)

        with pytest.raises(PropagationError) as err:
            simulate_full(full_row(), params, cmd, dt=1e-3, duration=0.2)
        assert err.value.step > 0

    def test_non_finite_start_stops_at_step_one(self, params):
        for bad in (math.nan, math.inf):
            with pytest.raises(PropagationError) as err:
                simulate_full(full_row(v=[0.0, bad, 0.0]), params, lambda t: commands(),
                              dt=1e-3, duration=0.01)
            assert err.value.step == 1

    def test_bad_step_arguments(self, params, vparams):
        with pytest.raises(InvalidInputError):
            simulate_vertical(vertical_row(), vparams, lambda t: vertical_inputs([0, 0, 1], 10.0),
                              dt=-1e-3, duration=1.0)
        with pytest.raises(InvalidInputError):
            simulate_full(full_row(), params, lambda t: commands(),
                          dt=-1e-3, duration=1.0)
        for dt, duration, message in ((math.nan, 1.0, "need finite dt > 0, got dt=nan"),
                                      (1e-3, math.nan, "need a finite duration >= 0, got nan"),
                                      (1e-3, math.inf, "need a finite duration >= 0, got inf")):
            with pytest.raises(InvalidInputError, match=message):
                simulate_full(full_row(), params, lambda t: commands(), dt=dt, duration=duration)

    @pytest.mark.parametrize("duration", [0.0, 4e-4])
    def test_duration_under_one_step_logs_the_start(self, vparams, duration):
        # the duration is rounded to whole steps, as the loops round theirs
        state0 = vertical_row(vv=(0.5, 0.0, 0.1))
        log = simulate_vertical(state0, vparams, lambda t: vertical_inputs([0, 0, 1], 10.0),
                                dt=1e-3, duration=duration)
        assert log.t.tolist() == [0.0]
        assert log.states.tolist() == [state0]
        assert log.inputs.tolist() == [[0.0, 0.0, 1.0, 10.0]]


class TestModelInvariants:
    def test_energy_conservation_without_forces(self):
        # zero drag/thrust/torque: ||v||^2/2 + g z conserved over 5 s at dt=1e-3
        p = FwavParams(k_d_x=0.0, k_d_y=0.0, k_d_z=0.0)
        state0 = full_row(v=[1.0, -0.5, 2.0], omega=[0.3, 0.2, -0.1])
        log = simulate_full(state0, p, lambda t: commands(), dt=1e-3, duration=5.0)
        v = log.states[:, 3:6]
        z = log.states[:, 2]
        energy = 0.5 * np.sum(v**2, axis=1) + p.g * z
        assert np.max(np.abs(energy - energy[0])) < 1e-6

    def test_quaternion_norm_after_every_step(self, params):
        state0 = full_row(omega=[2.0, -1.0, 0.5], f_flap=12.0)
        log = simulate_full(state0, params, lambda t: commands(12.0), dt=1e-3, duration=1.0)
        norms = np.linalg.norm(log.states[:, 6:10], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_vertical_matches_full_for_yaw_free_run(self, params):
        # model-reduction sanity: 5% of path length over 2 s, loose by design.
        # Constant 0.1 rad pitch tilt with zero deflections keeps the full
        # model torque-free, so the run exercises only the translational
        # reduction the vertical model makes.
        alpha = 0.1
        q0 = (math.cos(alpha / 2), 0.0, math.sin(alpha / 2), 0.0)
        f0 = math.sqrt(params.m * params.g / (params.k_tf * math.cos(alpha)))
        s0 = full_row(q=q0, f_flap=f0)
        cmd = lambda t: commands(f_flap_c=f0)
        full_log = simulate_full(s0, params, cmd, dt=1e-3, duration=2.0)

        vparams = VerticalParams(m=params.m, g=params.g, k_tf=params.k_tf, vk_d_x=params.k_d_x,
                                 vk_d_z=params.k_d_z)
        t_grid = full_log.t

        def inputs(t):
            i = min(int(round(t / 1e-3)), len(t_grid) - 1)
            row = full_log.states[i]
            rot = quat_to_rot(row[6:10])
            gamma = rot.T @ np.array([0.0, 0.0, 1.0])
            return vertical_inputs(gamma=gamma / np.linalg.norm(gamma), f_flap=max(row[13], 0.0))

        vert_log = simulate_vertical(vertical_row(), vparams, inputs, dt=1e-3, duration=2.0)
        p_full = full_log.states[:, 0:3]
        p_vert = vert_log.states[:, 0:3]
        path_len = np.sum(np.linalg.norm(np.diff(p_full, axis=0), axis=1))
        deviation = np.max(np.linalg.norm(p_full - p_vert, axis=1))
        assert deviation <= 0.05 * max(path_len, 1e-9)


class TestLogCsv:
    def test_full_header_and_roundtrip(self, tmp_path, params):
        log = simulate_full(full_row(f_flap=params.hover_frequency), params,
                            lambda t: commands(params.hover_frequency),
                            dt=1e-3, duration=0.05)
        out = tmp_path / "state.csv"
        log.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,fflap,thrud,thele"
        assert len(lines) == len(log.t) + 1

    def test_vertical_header(self, tmp_path, vparams):
        u = vertical_inputs(gamma=[0, 0, 1], f_flap=vparams.hover_frequency)
        log = simulate_vertical(vertical_row(), vparams, lambda t: u, dt=1e-3, duration=0.05)
        out = tmp_path / "vert.csv"
        log.to_csv(out)
        assert out.read_text().splitlines()[0] == (
            "t,px,py,pz,vvx,vvy,vvz,psi,omegapsi,gx,gy,gz,fflap"
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lead=st.integers(0, 4), held=st.integers(1, 4), data=st.data())
    def test_held_cells_written_as_one_format_per_row(self, tmp_path_factory, lead, held, data):
        # runs of rows that repeat their held cells, drawn from few values so
        # that neighbouring runs often differ only in their bits (-0.0 against
        # 0.0, the sign of a NaN), beside leading cells of any value
        special = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                   5e-324, 2.5e-310, 1e300, 1.0])
        runs = data.draw(st.lists(st.tuples(st.lists(special, min_size=held, max_size=held),
                                            st.integers(1, 6)), max_size=12))
        cell = st.one_of(special, st.floats())
        rows = np.array([data.draw(st.lists(cell, min_size=lead, max_size=lead)) + tail
                         for tail, count in runs for _ in range(count)]).reshape(-1, lead + held)
        path = tmp_path_factory.mktemp("csv")
        _write_csv(path / "held.csv", "h", rows, held=held)
        _write_csv(path / "plain.csv", "h", rows)
        assert (path / "held.csv").read_bytes() == (path / "plain.csv").read_bytes()


class TestParamValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidInputError):
            FwavParams(m=-1.0)

    def test_asymmetric_inertia_rejected(self):
        J = np.diag([1e-4, 1e-4, 1e-4])
        J[0, 1] = 1e-5
        with pytest.raises(InvalidInputError):
            FwavParams(J=J)

    @pytest.mark.parametrize("cls", [FwavParams, VerticalParams, ControllerGains])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, cls, bad):
        for fld in dataclasses.fields(cls):
            value = getattr(cls(), fld.name)
            if isinstance(value, np.ndarray):
                value.flat[-1] = bad
            else:
                value = bad
            with pytest.raises(InvalidInputError, match=f"^{fld.name} must be finite, not "):
                cls(**{fld.name: value})


def perturbed(params):
    """(field name, a copy of ``params`` with that field scaled by 1.25) for
    each field."""
    for fld in dataclasses.fields(params):
        value = getattr(params, fld.name)
        yield fld.name, dataclasses.replace(params, **{fld.name: value * 1.25})


def vertical_model_outputs(params: VerticalParams) -> list:
    """What the vertical model's readers make of ``params``: ``vertical_rhs`` in
    both rudder modes, ``decompose`` and ``FlatInputSchedule.tabulate`` on a
    climbing turn."""
    state = vertical_row(p=[0.1, -0.2, 0.3], vv=[0.8, 0.3, -0.2], psi=0.3, omega_psi=0.4)
    u = vertical_inputs(gamma=[0.1, 0.2, math.sqrt(0.95)], f_flap=12.0)
    out = [vertical_rhs(state, u, params, rudder) for rudder in ("gamma-proxy", "explicit-rudder")]
    out.append(dataclasses.astuple(decompose([0.5, -0.3, 0.2], [0.8, 0.3, -0.2], params)))
    turn = single_segment([[0.0, 1.0, 0.2], [0.0, 0.5, -0.3], [0.0, 0.1, 0.05]], 2.0)
    out += FlatInputSchedule(turn, params).tabulate(np.linspace(0.0, 2.0, 9))
    return [np.asarray(x).tolist() for x in out]


class TestEveryModelSettingIsRead:
    """A model coefficient that no equation reads does nothing when a file sets
    it: each numeric field, scaled, changes what the model computes."""

    def test_vertical_params(self):
        base = vertical_model_outputs(VerticalParams())
        unread = [name for name, params in perturbed(VerticalParams())
                  if vertical_model_outputs(params) == base]
        assert unread == []

    def test_fwav_params(self, params):
        state = full_row(p=[0.1, -0.2, 0.3], v=[0.8, 0.3, -0.2], q=[0.9, 0.1, -0.2, 0.3],
                         omega=[0.4, -0.5, 0.6], f_flap=12.0, theta_rud=0.1, theta_ele=-0.2)
        cmd = commands(f_flap_c=15.0, theta_rud_c=-0.1, theta_ele_c=0.2)
        base = full_rhs(state, cmd, params)
        unread = [name for name, changed in perturbed(params)
                  if full_rhs(state, cmd, changed) == base]
        assert unread == []


# ---------------------------------------------------------------------------
# the scalar core against the object-path formulas it replaced
# ---------------------------------------------------------------------------

HYPOTHESIS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def quat_derivative(q: np.ndarray, omega_body: np.ndarray) -> np.ndarray:
    """Kinematics qdot = 0.5 * q (x) (0, omega_body).  Not normalized."""
    return 0.5 * hamilton(q, [0.0, *omega_body])


def oracle_full_rhs(state, cmd, params):
    """Full-model derivative of a state row through quat_to_rot,
    quat_derivative, np.cross and np.linalg.solve, with sgn = np.sign."""
    state = np.asarray(state, dtype=float)
    v, q, omega = state[3:6], state[6:10], state[10:13]
    f_flap, theta_rud, theta_ele = state[13:16]
    q = q / np.linalg.norm(q)
    rot = quat_to_rot(q)
    v_body = rot.T @ v
    k = np.array([params.k_d_x, params.k_d_y, params.k_d_z])
    force_body = -k * np.sign(v_body) * v_body**2
    force_body[2] += params.k_tf * f_flap**2
    v_dot = np.array([0.0, 0.0, -params.g]) + rot @ force_body / params.m
    q_dot = quat_derivative(q, omega)
    sv = float(np.sign(v_body[2])) * v_body[0] ** 2
    f2 = f_flap**2
    tau = np.array([
        -(params.k_tau_x * sv + params.k_flap_x * f2) * theta_rud,
        -(params.k_tau_y * sv + params.k_flap_y * f2) * theta_ele,
        -(params.k_tau_z * sv + params.k_flap_z * f2) * theta_rud,
    ])
    j_omega = params.J @ omega
    omega_dot = np.linalg.solve(params.J, tau - np.cross(omega, j_omega))
    f_flap_c, theta_rud_c, theta_ele_c = cmd
    lags = [
        (f_flap_c - f_flap) / params.k_flap_c,
        (theta_rud_c - theta_rud) / params.k_rud_c,
        (theta_ele_c - theta_ele) / params.k_ele_c,
    ]
    derivative = np.concatenate([v, v_dot, q_dot, omega_dot, lags])
    # size of the terms each block sums, for a relative error measure;
    # l1 norms, so that tiny components do not underflow when squared
    l1 = lambda x: float(np.sum(np.abs(x)))
    scales = [
        l1(v),
        params.g + l1(force_body) / params.m,
        l1(omega),
        np.max(np.sum(np.abs(np.linalg.inv(params.J)), axis=1))
        * (l1(tau) + l1(omega) * l1(j_omega)),
        max(abs(c) + abs(x) for c, x in zip(cmd, state[13:16]))
        / min(params.k_flap_c, params.k_rud_c, params.k_ele_c),
    ]
    return derivative, scales


def oracle_vertical_rhs(state, inputs, params, rudder_mode):
    """Vertical-model derivative of a state and an input row through rotz and
    np.sign."""
    gx, gy, gz, f_flap = inputs
    m = params.m
    f2 = f_flap**2
    vv = np.asarray(state[3:6], dtype=float)
    vvx, vvy, vvz = vv
    psi, w = state[6:8]
    sx, sz, sw = (float(np.sign(x)) for x in (vvx, vvz, w))
    p_dot = rotz(psi) @ vv
    ax = -params.k_tf * f2 * gx / m - params.vk_d_x * sx * vvx**2 / m - w * vvy
    az = params.k_tf * f2 * gz / m - params.vk_d_z * sz * vvz**2 / m - params.g
    if rudder_mode == "explicit-rudder":
        yaw_terms = [params.vk_gamma * gy * sx * vvx**2]
        w_dot = yaw_terms[0]
    else:
        yaw_terms = [(params.kbar_gamma * sz * vvz**2 + params.kbar_flap_x * f2 * gz) * gy]
        w_dot = -yaw_terms[0]
    yaw_terms.append(params.vk_damp * sw * w**2)
    w_dot -= yaw_terms[-1]
    derivative = np.concatenate([p_dot, [ax, 0.0, az], [w, w_dot]])
    speed = float(np.sum(np.abs(vv)))
    scales = [
        speed,
        (params.k_tf * f2 + max(params.vk_d_x, params.vk_d_z) * speed * speed) / m
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
        state = full_row(
            p=[0.3, -1.0, 2.0], v=v, q=q, omega=omega,
            f_flap=f, theta_rud=deflections[0], theta_ele=deflections[1],
        )
        oracle, scales = oracle_full_rhs(state, cmd, params)
        assert_blocks_close(full_rhs(state, cmd, params), oracle, scales, FULL_BLOCKS)
        assert_blocks_close(
            full_rhs(np.array(state), cmd, params), oracle, scales, FULL_BLOCKS
        )

    @pytest.mark.parametrize("rudder_mode", ["gamma-proxy", "explicit-rudder"])
    @HYPOTHESIS
    @given(
        vv=st.tuples(component, component, component),
        psi=st.floats(-4.0, 4.0),
        w=component,
        gamma=st.tuples(component, component, component).filter(
            lambda g: sum(x * x for x in g) > 1e-2
        ),
        f=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    )
    def test_vertical_rhs_matches_object_path(self, rudder_mode, vv, psi, w, gamma, f):
        params = VerticalParams()
        gamma = np.array(gamma) / np.linalg.norm(gamma)
        state = vertical_row(p=[1.0, 2.0, -0.5], vv=vv, psi=psi, omega_psi=w)
        inputs = vertical_inputs(gamma=gamma, f_flap=f)
        oracle, scales = oracle_vertical_rhs(state, inputs, params, rudder_mode)
        assert_blocks_close(
            vertical_rhs(state, inputs, params, rudder_mode), oracle, scales, VERTICAL_BLOCKS
        )
        assert_blocks_close(
            vertical_rhs(np.array(state), inputs, params, rudder_mode),
            oracle, scales, VERTICAL_BLOCKS,
        )

    def test_tilted_torque_and_signed_zero_drag(self, params):
        state = full_row(
            v=[0.7, -0.2, 0.4], q=(0.9, 0.1, -0.3, 0.2),
            f_flap=14.0, theta_rud=0.1, theta_ele=-0.05,
        )
        oracle, _ = oracle_full_rhs(state, commands(), params)
        omega_dot = full_rhs(state, commands(), params)[10:13]
        assert np.allclose(omega_dot, oracle[10:13], rtol=1e-12, atol=0.0)
        # sgn(-0.0) = 0: a signed zero drags nothing, level and at f = 0
        v_dot = law(params, v=[0.0, -0.0, 2.0])[3:6]
        assert np.array_equal(v_dot, [0.0, 0.0, -params.k_d_z * 4.0 / params.m - params.g])


def _row(row, array: bool):
    """The row as a list, used as given, or as an ndarray, read through tolist."""
    return np.array(row) if array else row


class TestScalarCoreErrors:
    @pytest.mark.parametrize("array", [False, True])
    def test_nonfinite_state(self, params, array):
        for bad in (np.nan, np.inf):
            with pytest.raises(PropagationError):
                full_rhs(_row(full_row(v=[0.0, bad, 0.0]), array), commands(), params)

    @pytest.mark.parametrize("array", [False, True])
    def test_negative_flap_frequency(self, params, vparams, array):
        with pytest.raises(InvalidInputError):
            full_rhs(_row(full_row(f_flap=-1.0), array), commands(), params)
        with pytest.raises(InvalidInputError):
            vertical_rhs(_row(vertical_row(), array), (0.0, 0.0, 1.0, -1.0), vparams)

    @pytest.mark.parametrize("array", [False, True])
    def test_zero_quaternion(self, params, array):
        with pytest.raises(InvalidInputError):
            full_rhs(_row(full_row(q=(0.0, 0.0, 0.0, 0.0)), array), commands(), params)

    @pytest.mark.parametrize("array", [False, True])
    def test_non_unit_gamma(self, vparams, array):
        with pytest.raises(InvalidInputError):
            vertical_rhs(_row(vertical_row(), array), (0.0, 0.0, 1.01, 10.0), vparams)

    def test_unknown_rudder_mode(self, vparams):
        u = vertical_inputs(gamma=[0.0, 0.0, 1.0], f_flap=10.0)
        with pytest.raises(InvalidInputError):
            vertical_rhs(vertical_row(), u, vparams, rudder_mode="aileron")


class TestRowLengths:
    """A state or input row of another length than its layout raises
    InvalidInputError naming the layout, at each entry point."""

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_full_rhs(self, params, cut):
        with pytest.raises(InvalidInputError, match="full state row is 16 floats"):
            full_rhs(_resize(full_row(), cut), commands(), params)
        with pytest.raises(InvalidInputError, match="command row is 3 floats"):
            full_rhs(full_row(), _resize(commands(), cut), params)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_vertical_rhs(self, vparams, cut):
        u = vertical_inputs(gamma=[0.0, 0.0, 1.0], f_flap=10.0)
        with pytest.raises(InvalidInputError, match="vertical state row is 8 floats"):
            vertical_rhs(_resize(vertical_row(), cut), u, vparams)
        with pytest.raises(InvalidInputError, match="vertical input row is 4 floats"):
            vertical_rhs(vertical_row(), _resize(u, cut), vparams)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_simulate_full(self, params, cut):
        with pytest.raises(InvalidInputError, match="full state row is 16 floats"):
            simulate_full(_resize(full_row(), cut), params, lambda t: commands(), 1e-3, 0.01)
        with pytest.raises(InvalidInputError, match="command row is 3 floats"):
            simulate_full(full_row(), params, lambda t: _resize(commands(), cut), 1e-3, 0.01)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_simulate_vertical(self, vparams, cut):
        u = vertical_inputs(gamma=[0.0, 0.0, 1.0], f_flap=vparams.hover_frequency)
        with pytest.raises(InvalidInputError, match="vertical state row is 8 floats"):
            simulate_vertical(_resize(vertical_row(), cut), vparams, lambda t: u, dt=1e-3,
                              duration=0.01)
        with pytest.raises(InvalidInputError, match="vertical input row is 4 floats"):
            simulate_vertical(vertical_row(), vparams, lambda t: _resize(u, cut), dt=1e-3,
                              duration=0.01)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_integrate_vertical_tabulated(self, vparams, cut):
        gamma, f = _hover_table(vparams, 10)
        with pytest.raises(InvalidInputError, match="vertical state row is 8 floats"):
            integrate_vertical_tabulated(_resize(vertical_row(), cut), vparams, gamma, f, 1e-3)


def _resize(row, cut: int) -> list:
    """``row`` one entry short (cut -1) or with a zero more (cut 1)."""
    return list(row)[:cut] if cut < 0 else [*row, 0.0]


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
            vertical_row(), vparams, gamma, f, 1e-3, rudder_mode=rudder_mode,
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

    def test_nan_sample_after_first_block(self, vparams):
        # a NaN sample is an input error, not a non-finite state at its step
        gamma, f = _hover_table(vparams, self.N_STEPS)
        f[2 * 1024 + 500] = math.nan
        with pytest.raises(InvalidInputError, match="non-negative"):
            self.run(vparams, gamma, f)
        gamma, f = _hover_table(vparams, self.N_STEPS)
        gamma[2 * 1024 + 101, 1] = math.nan
        with pytest.raises(InvalidInputError, match="unit norm"):
            self.run(vparams, gamma, f)

    def test_nan_schedule_rejected(self, vparams):
        with pytest.raises(InvalidInputError, match="non-negative"):
            simulate_vertical(vertical_row(), vparams, lambda t: (0.0, 0.0, 1.0, math.nan))

    def test_overflowing_f_names_the_step(self, vparams):
        # samples up to 2k are flyable; step k reads sample 2k + 1 first
        k = 1100
        gamma, _ = _hover_table(vparams, self.N_STEPS)
        f = np.where(np.arange(len(gamma)) <= 2 * k, 14.0, 1e200)
        with pytest.raises(PropagationError) as err:
            self.run(vparams, gamma, f)
        assert err.value.step == k + 1

    @pytest.mark.parametrize("shape", [(21, 2), (21, 4), (21,), (21, 3, 1)])
    def test_gamma_grid_shape_is_named(self, vparams, shape):
        _, f = _hover_table(vparams, 10)
        with pytest.raises(InvalidInputError, match="gamma_grid"):
            self.run(vparams, np.ones(shape), f)

    @pytest.mark.parametrize("shape", [(21, 1), (20,), ()])
    def test_f_grid_shape_is_named(self, vparams, shape):
        gamma, _ = _hover_table(vparams, 10)
        with pytest.raises(InvalidInputError, match="f_grid"):
            self.run(vparams, gamma, np.full(shape, vparams.hover_frequency))

    @pytest.mark.parametrize("dt", [0.0, -0.0, -1e-3, math.nan, math.inf])
    def test_step_is_named(self, vparams, dt):
        gamma, f = _hover_table(vparams, 10)
        with pytest.raises(InvalidInputError, match=re.escape(f"need finite dt > 0, got dt={dt}")):
            integrate_vertical_tabulated(vertical_row(), vparams, gamma, f, dt)

    def test_overflowing_stage_azimuth_names_the_step(self, vparams):
        # the yaw damping of w = 1e100 overflows, so step 1's last RK4 stage has an
        # infinite azimuth: its position is NaN, not a math.cos domain error
        gamma, f = _hover_table(vparams, 10)
        state0 = vertical_row(vv=(0.1, 0.0, 0.0), omega_psi=1e100)
        with pytest.raises(PropagationError) as err:
            integrate_vertical_tabulated(state0, vparams, gamma, f, 1e-3)
        assert err.value.step == 1

    @pytest.mark.parametrize("pose", [dict(p=(math.inf, 0.0, 0.0)), dict(p=(0.0, math.nan, 0.0)),
                                      dict(psi=math.nan), dict(psi=-math.inf)])
    def test_non_finite_start_pose_names_step_one(self, vparams, pose):
        # the dynamic states stay finite; the array pass finds the pose
        gamma, f = _hover_table(vparams, 10)
        with pytest.raises(PropagationError) as err:
            integrate_vertical_tabulated(vertical_row(**pose), vparams, gamma, f, 1e-3)
        assert err.value.step == 1

    @pytest.mark.parametrize("k, bad", [(1030, 2100), (1500, 3500), (2046, 4096)])
    def test_non_finite_state_in_mid_block_names_the_step(self, vparams, k, bad):
        # an overflowing f at sample 2k + 1 of the second block makes state k + 1
        # non-finite; a negative f later in the same block must not hide it
        gamma, _ = _hover_table(vparams, 2500)
        f = np.where(np.arange(len(gamma)) == 2 * k + 1, 1e200, 14.0)
        f[bad] = -1.0
        with pytest.raises(PropagationError) as err:
            self.run(vparams, gamma, f)
        samples = np.column_stack([gamma, f])[:2 * k + 3].tolist()
        assert err.value.step == first_non_finite_step(vertical_row(), vparams, samples, 1e-3) \
            == k + 1

    def test_diverging_state_names_the_step(self, vparams):
        # at 5 km/s the RK4 stages of the quadratic drag overshoot until the
        # state overflows a few steps in, with no input at fault
        gamma, f = _hover_table(vparams, self.N_STEPS)
        state0 = vertical_row(vv=(5000.0, 0.0, 0.0))
        samples = np.column_stack([gamma, f]).tolist()
        with pytest.raises(PropagationError) as err:
            integrate_vertical_tabulated(state0, vparams, gamma, f, 1e-3,
                                         rudder_mode="explicit-rudder")
        assert err.value.step == first_non_finite_step(state0, vparams, samples, 1e-3) == 4

    def test_input_table_read_across_blocks(self, vparams, rk4_vertical):
        """An input table over three blocks drives the replay, and
        ``simulate_vertical`` fed the same samples, exactly as ``rk4_flat``
        over ``vertical_rhs``."""
        dt, n = 1e-3, 2500
        _, f = _hover_table(vparams, n)
        grid = np.arange(2 * n + 1) * dt / 2
        gx = 0.05 * np.sin(7.0 * grid)
        gamma = np.column_stack([gx, 0.1 * gx, np.sqrt(1.0 - 1.01 * gx * gx)])
        f = f + 0.5 * np.sin(3.0 * grid)
        fast = integrate_vertical_tabulated(vertical_row(), vparams, gamma, f, dt,
                                            rudder_mode="explicit-rudder")

        def inputs(t):
            idx = min(int(round(2 * t / dt)), len(grid) - 1)
            return vertical_inputs(gamma=gamma[idx], f_flap=f[idx])

        slow = simulate_vertical(vertical_row(), vparams, inputs, rudder_mode="explicit-rudder",
                                 dt=dt, duration=n * dt)
        samples = np.column_stack([gamma, f]).tolist()
        want = rk4_vertical(vertical_row(), vparams, samples, dt, "explicit-rudder")
        assert fast.states.shape == (n + 1, 8)
        assert np.array_equal(fast.t, slow.t)
        assert np.array_equal(fast.states, want)
        assert np.array_equal(slow.states, want)


unit_gamma = st.tuples(st.floats(0.0, 1.2), st.floats(-math.pi, math.pi)).map(
    lambda a: (math.sin(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.sin(a[1]), math.cos(a[0]))
)
input_row = st.tuples(unit_gamma, st.floats(0.0, 30.0)).map(lambda r: (*r[0], r[1]))


def first_non_finite_step(state0, params, samples, dt, rudder_mode="explicit-rudder"):
    """The step of the first non-finite state of ``rk4_flat`` over ``vertical_rhs``
    on the half-step input rows ``samples``, or None; a step with a non-finite RK4
    stage, which ``vertical_rhs`` rejects, is that step."""
    y = [float(v) for v in state0]
    for k in range(len(samples) // 2):
        try:
            y = rk4_flat(vertical_rhs, y, dt, *samples[2 * k:2 * k + 3], params, rudder_mode)
        except PropagationError:
            return k + 1
        if not all(map(math.isfinite, y)):
            return k + 1
    return None


class TestTabulatedReplay:
    @pytest.mark.parametrize("rudder_mode", ["gamma-proxy", "explicit-rudder"])
    def test_three_blocks_equal_rk4_flat(self, rk4_vertical, rudder_mode):
        # the float loop carries (vvx, vvy, vvz, w) across the blocks and each
        # block's array pass sums the azimuth and the position from the block's
        # start pose: every row is rk4_flat's over vertical_rhs, bit for bit
        vparams = VerticalParams()
        dt, n = 1e-3, 2 * 1024 + 300
        grid = np.arange(2 * n + 1) * dt / 2
        gx, gy = 0.2 * np.sin(2.0 * grid), 0.15 * np.cos(3.0 * grid)
        gamma = np.column_stack([gx, gy, np.sqrt(1.0 - gx * gx - gy * gy)])
        f = vparams.hover_frequency + 0.5 * np.sin(5.0 * grid)
        state0 = vertical_row(p=(0.3, -0.2, 1.0), vv=(0.8, 0.05, -0.1), psi=2.5, omega_psi=-0.4)
        log = integrate_vertical_tabulated(state0, vparams, gamma, f, dt, rudder_mode)
        samples = np.column_stack([gamma, f]).tolist()
        assert np.array_equal(log.states, rk4_vertical(state0, vparams, samples, dt, rudder_mode))
        assert np.isfinite(log.states).all() and np.ptp(log.states[:, 6]) > 0.1


class TestVerticalSteps:
    @HYPOTHESIS
    @given(
        p=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        vv=st.tuples(component, component, component),
        psi=st.floats(-4.0, 4.0),
        w=component,
        row=input_row,
        n=st.integers(1, 6),
        dt=st.sampled_from([1e-4, 1e-3, 5e-3]),
        radius=st.one_of(st.just(math.inf), st.floats(0.0, 6.0)),
    )
    def test_equals_rk4_flat_bit_for_bit(self, p, vv, psi, w, row, n, dt, radius):
        # the closed loop's block: one gamma-proxy input held over n steps
        params = VerticalParams()
        y0 = [*p, *vv, psi, w]
        want = [y0]
        for _ in range(n):
            want.append(rk4_flat(vertical_rhs, want[-1], dt, row, row, row, params))
        # the run stops after the first state beyond the radius
        beyond = [k for k, (x, y, z, *_) in enumerate(want[1:], 1)
                  if math.sqrt(x * x + y * y + z * z) > radius]
        last = beyond[0] if beyond else n

        # the stepper reads the input's terms and the derivative at y0, computed once
        states = np.full((n + 1, 8), np.nan)
        states[0] = y0
        y, k, stopped = _vertical_steps(params, y0, _vertical_terms(params, False, *row),
                                        vertical_rhs(y0, row, params), n, dt, states, 0, radius)
        assert (k, stopped) == (last, bool(beyond))
        assert list(y) == want[last]
        assert np.array_equal(states[: last + 1], np.array(want[: last + 1]))
        assert np.isnan(states[last + 1 :]).all()

    def test_overflowing_stage_azimuth_stops_the_step(self, vparams):
        # the closed loop's inline pose: step 1's last stage azimuth is infinite,
        # so that step's position is NaN and the run stops there, as the replay's
        y0 = vertical_row(vv=(0.1, 0.0, 0.0), omega_psi=1e100)
        u = (0.0, 0.0, 1.0, vparams.hover_frequency)
        states = np.full((11, 8), np.nan)
        y, k, stopped = _vertical_steps(vparams, y0, _vertical_terms(vparams, False, *u),
                                        vertical_rhs(y0, u, vparams), 10, 1e-3, states, 0,
                                        math.inf)
        assert (k, stopped) == (1, True)
        assert math.isnan(y[0]) and math.isnan(y[1])


signed_cell = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
term_inputs = st.lists(
    st.tuples(signed_cell, signed_cell, signed_cell,
              st.one_of(st.sampled_from([0.0, -0.0, 1e150, 1e200]), st.floats(0.0, 1e200))),
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


wild_cell = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                      st.floats(-4.0, 4.0), st.floats(-1e200, 1e200))
dynamic_inputs = st.lists(st.tuples(*[wild_cell] * 8), min_size=1, max_size=8)
azimuth = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]),
                    st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))


class TestVerticalDynamics:
    @pytest.mark.parametrize("rudder_mode", ["gamma-proxy", "explicit-rudder"])
    @HYPOTHESIS
    @given(rows=dynamic_inputs)
    def test_arrays_equal_floats_bit_for_bit(self, rudder_mode, rows):
        # the replay's float loop and its array pass run the same dynamic rows on
        # (vvx, vvy, vvz, w) and an input's four terms: the same bits, signed
        # zeros, infinities and NaNs included, and no warning under its errstate
        c = VerticalParams()._constants()
        explicit = _explicit_rudder(rudder_mode)
        floats = [_vertical_dynamics(c, explicit, *row) for row in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = _vertical_dynamics(c, explicit, *np.array(rows).T)
        columns = np.column_stack(np.broadcast_arrays(*arrays))  # ay is the float 0.0
        assert np.array_equal(nan_bits(columns), nan_bits(floats))

    @HYPOTHESIS
    @given(psi=st.lists(azimuth, min_size=1, max_size=8),
           vv=st.lists(st.tuples(wild_cell, wild_cell, wild_cell), min_size=8, max_size=8))
    def test_array_kinematics_equal_float_kinematics(self, psi, vv):
        # the array pass takes np.cos and np.sin of the stage azimuths where
        # vertical_rhs takes math.cos and math.sin: the replay is rk4_flat's bit
        # for bit only while they agree on every finite azimuth
        vv = vv[:len(psi)]
        floats = [_vertical_kinematics(math.cos(a), math.sin(a), *v) for a, v in zip(psi, vv)]
        a = np.array(psi)
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = _vertical_kinematics(np.cos(a), np.sin(a), *np.array(vv).T)
        assert np.array_equal(nan_bits(np.column_stack(arrays)), nan_bits(floats))


def bits(rows) -> np.ndarray:
    return np.array(rows, dtype=float).view(np.int64)


def nan_bits(rows) -> np.ndarray:
    """``bits`` with every NaN made one NaN: which of two NaN operands' sign an
    operation keeps is the hardware's choice, and a NaN state ends a run."""
    rows = np.array(rows, dtype=float)
    return bits(np.where(np.isnan(rows), math.nan, rows))


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


class TestFullSteps:
    @HYPOTHESIS
    @given(
        y0=full_state(),
        u=command_row,
        n=st.integers(1, 6),
        dt=st.sampled_from([1e-4, 1e-3, 5e-3]),
        radius=st.one_of(st.just(math.inf), st.floats(0.0, 6.0)),
        margin=st.one_of(st.none(), st.floats(0.0, 0.01)),
    )
    def test_equals_rk4_flat_bit_for_bit(self, y0, u, n, dt, radius, margin):
        # the closed loop's block: one command row held over n steps
        params = FwavParams()
        if margin is not None:  # a radius the flight may cross after a few steps
            radius = math.sqrt(y0[0] * y0[0] + y0[1] * y0[1] + y0[2] * y0[2]) + margin
        want, stop, why = full_steps(params, y0, [u] * (2 * n + 1), dt, radius)
        states = np.full((n + 1, 16), np.nan)
        states[0] = y0
        # the stepper reads the derivative at y0, computed once
        first = full_rhs(y0, u, params)
        if isinstance(why, InvalidInputError):
            with pytest.raises(InvalidInputError, match=re.escape(str(why))):
                _full_steps(params, y0, u, n, dt, states, 0, first, radius)
        else:
            y, k, got = _full_steps(params, y0, u, n, dt, states, 0, first, radius)
            assert (k, got) == (len(want) - 1, stop)
            assert np.array_equal(bits(y), bits(want[-1]))
        assert np.array_equal(bits(states[: len(want)]), bits(want))
        assert np.isnan(states[len(want):]).all()


class TestInertia:
    def test_changed_inertia_is_honoured(self):
        params = FwavParams()
        state = full_row(omega=[1.0, -2.0, 0.5], f_flap=10.0,
                         theta_rud=0.1, theta_ele=0.2, v=[0.5, 0.0, 0.3])
        before = np.array(full_rhs(state, commands(), params))

        params.J = np.diag([2.0e-4, 6.0e-5, 9.0e-5])  # reassigned
        after = np.array(full_rhs(state, commands(), params))
        oracle, _ = oracle_full_rhs(state, commands(), params)
        assert not np.allclose(after[10:13], before[10:13])
        assert np.allclose(after[10:13], oracle[10:13], rtol=1e-12, atol=0.0)

        params.J[1, 1] = 3.0e-5  # edited in place
        edited = np.array(full_rhs(state, commands(), params))
        oracle, _ = oracle_full_rhs(state, commands(), params)
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
