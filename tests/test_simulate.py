import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flapkit.dynamics
import flapkit.simulate
from flapkit.attitude import rotz, wrap_angle
from flapkit.control import ControllerGains, TrackingController
from flapkit.dynamics import (
    FwavParams,
    VerticalParams,
    full_rhs,
    integrate_vertical_tabulated,
    rk4_flat,
    simulate_vertical,
    vertical_rhs,
)
from flapkit.errors import InsufficientExcitationError, InvalidInputError
from flapkit.flatness import _BLOCK
from flapkit.identify import identify_drag, identify_drag_from_log
from flapkit.metrics import (
    ChannelStats,
    compute_metrics,
    error_components,
    reference_tracking_errors,
)
from flapkit.simulate import (
    initial_heading,
    run_closed_loop,
    simulate_heading_loop,
    simulate_ideal_vertical,
)
from flapkit.trajectory import PiecewiseTrajectory, PolySegment

from helpers import (
    constant_trajectory,
    error_components_oracle,
    full_row,
    vertical_inputs,
    vertical_row,
)


@pytest.fixture
def vparams():
    return VerticalParams()


def reference_vertical_flight(traj, n_steps, offset, dt=1e-3, n_sub=10):
    """The vertical closed loop at its defaults, stepped one RK4 step at a
    time by ``rk4_flat`` over ``vertical_rhs``: state log, applied inputs
    (gx, gy, gz, fflap) and controller log."""
    vparams = VerticalParams()
    psi0 = initial_heading(traj)
    controller = TrackingController(ControllerGains(), vparams, initial_psi_d=psi0)
    plant = flapkit.simulate._VerticalPlant(vparams)
    v0 = rotz(psi0).T @ traj.eval(0.0, 1)
    y = vertical_row(p=traj.eval(0.0) + offset, vv=v0, psi=psi0)
    u, states, applied, control = plant.hold, [y], [plant.hold], []
    for k in range(n_steps):
        if k % n_sub == 0:
            t = k * dt
            out = controller.update(traj.eval(t).tolist(), traj.eval(t, 1).tolist(),
                                    plant.measure(y, u))
            u = plant.inputs(out)
            control.append(out.log_row(t)[1:])
        y = rk4_flat(vertical_rhs, y, dt, u, u, u, vparams)
        states.append(y)
        applied.append(u)
    return np.array(states), np.array(applied), np.array(control)


def reference_full_flight(traj, offset, dt=1e-3, n_sub=10):
    """The full-model closed loop at its defaults, stepped one RK4 step at a
    time by ``rk4_flat`` over ``full_rhs`` with the quaternion projected onto
    the unit sphere after each step: state log and controller log."""
    fparams = FwavParams()
    psi0 = initial_heading(traj)
    controller = TrackingController(ControllerGains(), VerticalParams(), initial_psi_d=psi0)
    plant = flapkit.simulate._FullPlant(fparams)
    q0 = (math.cos(psi0 / 2), 0.0, 0.0, math.sin(psi0 / 2))
    y = full_row(p=traj.eval(0.0) + offset, v=traj.eval(0.0, 1), q=q0,
                 f_flap=fparams.hover_frequency)
    u, states, control = plant.hold, [y], []
    for k in range(int(round(traj.duration / dt))):
        if k % n_sub == 0:
            t = k * dt
            out = controller.update(traj.eval(t).tolist(), traj.eval(t, 1).tolist(),
                                    plant.measure(y, u))
            u = plant.inputs(out)
            control.append(out.log_row(t)[1:])
        y = rk4_flat(full_rhs, y, dt, u, u, u, fparams)
        n = math.sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8] + y[9] * y[9])
        if n > 0:
            y[6:10] = [v / n for v in y[6:10]]
        states.append(y)
    return np.array(states), np.array(control)


class TestClosedLoop:
    def test_hover_equilibrium_hold(self):
        traj = constant_trajectory([0.4, -0.3, 1.2], T=3.0)
        res = run_closed_loop(traj, model="vertical", duration=3.0)
        e_p = np.linalg.norm(res.control_rows[:, 0:3], axis=1)
        assert np.max(e_p) < 1e-6
        assert not res.diverged

    def test_line_no_flips_bounded_errors(self, case_line, run_line):
        assert len(run_line.jump_times) == 0
        err = case_line.traj.eval_many(run_line.state_log.t, 0) \
            - run_line.state_log.positions
        assert np.max(np.linalg.norm(err, axis=1)) < 0.05
        assert not run_line.diverged

    def test_divergence_flagged(self):
        traj = constant_trajectory([0.0, 0.0, 0.0], T=1.0)
        res = run_closed_loop(traj, model="vertical", perturb_pos=(150.0, 0.0, 0.0),
                              duration=1.0)
        assert res.diverged
        assert res.abort_time is not None

    def test_full_model_hover_smoke(self):
        # the full model has no wind-vane yaw torque, so the heading loop
        # has little authority there and lateral wander is expected; the
        # run must stay bounded with the altitude channel converging
        traj = constant_trajectory([0.0, 0.0, 0.5], T=6.0)
        res = run_closed_loop(
            traj, model="full", duration=6.0, perturb_pos=(0.1, 0.05, -0.1)
        )
        err = traj.eval_many(res.state_log.t, 0) - res.state_log.states[:, 0:3]
        assert not res.diverged
        assert np.max(np.linalg.norm(err, axis=1)) < 0.6
        assert abs(err[-1, 2]) < 0.05

    def test_full_input_checked_once_per_tick(self, monkeypatch):
        # the full plant checks its held input where it changes: full_rhs,
        # read from the module global at call time, runs once per controller
        # tick, and its derivative is the first RK4 stage of the tick's block;
        # the law runs once per stage
        calls = {"vertical_rhs": 0, "full_rhs": 0, "_full_law": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(flapkit.simulate, "vertical_rhs")
        counting(flapkit.simulate, "full_rhs")
        counting(flapkit.dynamics, "_full_law")
        traj = constant_trajectory([0.0, 0.0, 0.5], T=0.25)
        res = run_closed_loop(traj, model="full", duration=0.25, perturb_pos=(0.0, 0.0, 0.01))
        steps, ticks = len(res.state_log.t) - 1, len(res.control_t)
        assert (steps, ticks) == (250, 25) and not res.diverged
        assert calls == {"vertical_rhs": 0, "full_rhs": ticks, "_full_law": 4 * steps}

    @pytest.mark.parametrize("case", ["a", "c", "line"])
    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (0.03, -0.02, 0.04)])
    def test_full_block_stepper_flies_like_rk4_flat(self, request, case, offset):
        # the closed loop's full-model blocks equal a tick followed by rk4_flat
        # over full_rhs and the quaternion projection at every step, bit for bit
        traj = request.getfixturevalue(f"case_{case}").traj
        res = run_closed_loop(traj, model="full", perturb_pos=offset)
        states, control = reference_full_flight(traj, offset)
        assert not res.diverged
        assert np.array_equal(res.state_log.states, states)
        assert np.array_equal(res.control_rows, control)

    def test_vertical_input_checked_once_per_tick(self, monkeypatch):
        # the held input is checked where it changes: vertical_rhs runs once
        # per controller tick, and its derivative is the first RK4 stage of
        # the tick's block; the block's input terms are computed once per
        # tick too, and the dynamic rows run once per stage
        calls = {"vertical_rhs": 0, "_vertical_terms": 0, "_vertical_dynamics": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(flapkit.simulate, "vertical_rhs")
        counting(flapkit.simulate, "_vertical_terms")
        counting(flapkit.dynamics, "_vertical_dynamics")
        traj = constant_trajectory([0.0, 0.0, 0.5], T=0.25)
        res = run_closed_loop(traj, duration=0.25, perturb_pos=(0.0, 0.0, 0.01))
        steps, ticks = len(res.state_log.t) - 1, len(res.control_t)
        assert (steps, ticks) == (250, 25) and not res.diverged
        assert calls == {"vertical_rhs": ticks, "_vertical_terms": ticks,
                         "_vertical_dynamics": 4 * steps}

    def test_replay_steps_only_dynamic_rows_on_floats(self, monkeypatch, vparams):
        # the replay's float loop runs the dynamic rows once per stage and no
        # trigonometric function; each table block's array pass replays the
        # first three stages and runs the kinematics once
        calls = dict.fromkeys(["dynamics floats", "dynamics arrays", "kinematics floats",
                               "kinematics arrays", "trig"], 0)

        def counting(name, key, arg):
            original = getattr(flapkit.dynamics, name)

            def wrapper(*args):
                calls[f"{key} {'arrays' if isinstance(args[arg], np.ndarray) else 'floats'}"] += 1
                return original(*args)

            monkeypatch.setattr(flapkit.dynamics, name, wrapper)

        def trig(original):
            def wrapper(x):
                calls["trig"] += 1
                return original(x)
            return wrapper

        counting("_vertical_dynamics", "dynamics", 2)
        counting("_vertical_kinematics", "kinematics", 0)
        monkeypatch.setattr(math, "cos", trig(math.cos))
        monkeypatch.setattr(math, "sin", trig(math.sin))
        steps, blocks = 2500, 3  # table blocks of 1,024 steps
        gamma = np.tile([0.0, 0.0, 1.0], (2 * steps + 1, 1))
        f = np.full(2 * steps + 1, vparams.hover_frequency)
        log = integrate_vertical_tabulated(vertical_row(), vparams, gamma, f, 1e-3)
        assert len(log.t) == steps + 1
        assert calls == {"dynamics floats": 4 * steps, "dynamics arrays": 3 * blocks,
                         "kinematics floats": 0, "kinematics arrays": blocks, "trig": 0}

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (0.03, -0.02, 0.04)])
    def test_block_stepper_flies_like_rk4_flat(self, case_c, offset):
        # the closed loop's vertical blocks equal a tick followed by
        # rk4_flat over vertical_rhs at every step, bit for bit
        res = run_closed_loop(case_c.traj, duration=0.5, perturb_pos=offset)
        states, inputs, control = reference_vertical_flight(case_c.traj, 500, offset)
        assert np.array_equal(res.state_log.states, states)
        assert np.array_equal(res.state_log.inputs, inputs)
        assert np.array_equal(res.control_rows, control)

    def test_unknown_model(self):
        traj = constant_trajectory([0, 0, 0], T=1.0)
        with pytest.raises(InvalidInputError):
            run_closed_loop(traj, model="planar")

    def test_perturbed_case_a_errors_decay(self, case_a):
        # positional transient decays monotonically under the ideal loop
        traj = case_a.traj

        def reference(t):
            tt = min(t, traj.duration)
            return traj.eval(tt), traj.eval(tt, 1), traj.eval(tt, 2)

        res = simulate_ideal_vertical(
            ControllerGains(), p0=traj.eval(0.0) + [0.2, 0.0, 0.0],
            v0=traj.eval(0.0, 1), reference=reference, duration=6.0,
        )
        # the positional poles are lightly complex, so |e_p| spirals; the
        # envelope (block maxima) decays monotonically and V1 decays per step
        # the positional poles are lightly complex, so |e_p| spirals; the
        # envelope (block maxima) decays while V1 decays per step
        e_norm = np.linalg.norm(res.e_p, axis=1)
        block = len(res.t) // 12
        envelope = [e_norm[k : k + block].max() for k in range(0, block * 12, block)]
        assert all(b <= 1.2 * a for a, b in zip(envelope, envelope[1:]))
        assert envelope[-1] < 0.01 * envelope[0]
        assert np.all(np.diff(res.V1) <= 1e-6)
        assert e_norm[-1] < 1e-3

    def test_jump_episode_merging(self, case_line, run_line):
        assert run_line.jump_episodes() == 0
        # jumps closer than 0.5 s are one episode
        run = dataclasses.replace(run_line, jump_times=[0.0, 0.3, 0.9, 1.0, 1.4, 2.0])
        assert run.jump_episodes() == 3

    def test_control_log_csv(self, tmp_path, run_line):
        path = tmp_path / "control.csv"
        run_line.control_to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "t,epx,epy,epz,evx,evy,evz,dpsi,hpsi,omegapsid,gammayd,"
            "fflapcmd,thrudcmd,thelecmd,V1,V2"
        )

    def test_full_plant_stops_before_a_non_finite_state(self):
        # a non-finite state fails full_rhs's check: no step is logged, and the
        # run stops at row 1
        plant = flapkit.simulate._FullPlant(FwavParams())
        y = full_row(p=[math.nan, 0.0, 0.0], f_flap=plant.params.hover_frequency)
        states = np.full((11, 16), -1.0)
        assert plant.advance(y, plant.hold, 1e-3, states, 0, 10, math.inf) == (y, 0, 1)
        assert (states == -1.0).all()

    def test_initial_heading_of_line(self, case_line):
        assert initial_heading(case_line.traj) == pytest.approx(0.0, abs=1e-9)


STEP_SETTINGS = [dict(dt=math.nan), dict(dt=0.0), dict(dt=-1e-3), dict(dt=math.inf),
                 dict(duration=math.inf), dict(duration=-1.0), dict(duration=math.nan)]
RATE_SETTINGS = [dict(rate_hz=0.0), dict(rate_hz=-1.0), dict(rate_hz=math.nan),
                 dict(rate_hz=math.inf),
                 # a 3 ms step does not divide the 10 ms period of a 100 Hz tick, and a
                 # 1 ps period is shorter than a step
                 dict(dt=3e-3), dict(rate_hz=1e12)]


def _loop_settings(loops, settings):
    return [pytest.param(loop, setting, id="{}-{}={}".format(loop, *next(iter(setting.items()))))
            for loop in loops for setting in settings]


@pytest.mark.parametrize("loop, setting", [
    *_loop_settings(["closed", "heading"], STEP_SETTINGS + RATE_SETTINGS),
    # the ideal loop has no controller tick, so no rate
    *_loop_settings(["ideal"], STEP_SETTINGS),
])
def test_invalid_step_settings_rejected(loop, setting):
    # every loop takes dt (and a ticking loop rate_hz) finite and positive, dt
    # dividing the controller period, and the duration finite and
    # non-negative, and names a bad one with InvalidInputError
    gains = ControllerGains()
    flight = {  # the ticking loops at their default 100 Hz
        "closed": lambda **kw: run_closed_loop(constant_trajectory([0, 0, 1], T=1.0), **kw),
        "ideal": lambda **kw: simulate_ideal_vertical(gains, [0.1, 0, 0], [0, 0, 0], **kw),
        "heading": lambda **kw: simulate_heading_loop(gains, lambda t: 0.5, **kw),
    }[loop]
    with pytest.raises(InvalidInputError, match="need"):
        flight(**{"dt": 1e-3, "duration": 0.1, **setting})


def test_overflowing_step_count_rejected():
    # a step count past sys.maxsize, infinite or finite, is a "need" error,
    # not an OverflowError or an allocation of that many rows
    with pytest.raises(InvalidInputError, match="need at most"):
        flapkit.dynamics._schedule(1e-320, 1.0)
    with pytest.raises(InvalidInputError, match="need at most"):
        run_closed_loop(constant_trajectory([0, 0, 1], T=1.0), dt=1e-300, rate_hz=1e300)


class TestIdealVertical:
    def test_v1_monotone_and_converges(self):
        res = simulate_ideal_vertical(
            ControllerGains(), p0=[0.4, -0.2, 0.1], v0=[0, 0, 0],
            stop_when_ep_below=1e-3,
        )
        assert np.all(np.diff(res.V1) <= 1e-6)
        assert np.linalg.norm(res.e_p[-1]) < 1e-3
        assert res.t[-1] < 20.0

    def test_heading_jumps_and_converges(self):
        # the positional loop next to the heading loop it does not read:
        # psi0 = 3.0 starts deep on the wrong side (a jump at the first
        # tick); omega0 = 12 then spins the heading through the antipode
        # again, which is a second, mid-run jump
        res = simulate_ideal_vertical(
            ControllerGains(), p0=[0.2, -0.1, 0.05], v0=[0, 0, 0], duration=10.0,
        )
        heading = simulate_heading_loop(ControllerGains(), lambda t: 0.0, None, 3.0, 12.0,
                                        dt=2e-3, duration=10.0)
        assert len(heading.jumps) == 2
        assert heading.psi.max() > math.pi  # through the antipode mid-run
        assert abs(wrap_angle(heading.psi[-1])) < 1e-3
        assert abs(heading.omega_psi[-1]) < 1e-3
        assert np.all(np.diff(res.V1) <= 1e-6)

    def test_recorded_law_reused_by_the_next_stage(self, monkeypatch):
        # the law at a recorded state is the first RK4 stage of the next
        # step: 4 evaluations per step plus the initial record, not 5
        law = flapkit.simulate._positional_law
        calls = []

        def counting(*args):
            calls.append(args[2])
            return law(*args)

        monkeypatch.setattr(flapkit.simulate, "_positional_law", counting)
        res = simulate_ideal_vertical(
            ControllerGains(), p0=[0.2, -0.1, 0.05], v0=[0, 0, 0], duration=0.1
        )
        assert len(res.t) == 51
        assert len(calls) == 4 * 50 + 1


class TestHeadingLoop:
    def test_flow_bound_respected_with_unit_rate_gain(self):
        # idealized heading flow (analytic feedforward, continuous-rate
        # application): the candidate's finite-difference derivative
        # respects -0.5*(1-cos d)^2 - e^2 within 1e-2.  The candidate's
        # cross-term algebra closes only for k_omega = 1; for other gains
        # V2 still decreases strictly but the printed bound has slack of
        # the wrong sign (see the gain-bookkeeping note in the gamma_yd
        # law), which the second case documents.
        import math as m

        from flapkit.attitude import wrap_angle
        from flapkit.control import (
            candidate_v2,
            gamma_y_command,
            heading_rate_command,
            hysteresis_update,
        )

        def run(k_omega):
            g = ControllerGains(k_psi=1.0, k_omega=k_omega, delta=0.4,
                                psi_rate_ff_cap=0.05)
            l_gain = m.sqrt(g.l_gamma_min * g.l_gamma_max)
            psi_d, dt = 0.8, 1e-4
            psi, w, h = -1.2, 2.0, 1
            v2s, dpsis, errs = [], [], []
            for _ in range(int(6.0 / dt)):
                dpsi = wrap_angle(psi_d - psi)
                h = hysteresis_update(h, dpsi, g.delta)
                wd = heading_rate_command(dpsi, 0.0, h, g.k_psi, g.psi_rate_ff_cap)
                s, c = m.sin(dpsi), m.cos(dpsi)
                root = m.sqrt(max(1.0 - c, 1e-12))
                wd_dot = g.k_psi * h * s * (-w) / (2.0 * root)
                e = wd - w
                gy = gamma_y_command(e, dpsi, h, wd_dot, g)
                v2s.append(candidate_v2(dpsi, e, h, g))
                dpsis.append(dpsi)
                errs.append(e)
                w += dt * (-l_gain * gy)
                psi += dt * w
            v2s, dpsis, errs = map(np.array, (v2s, dpsis, errs))
            dv2 = np.diff(v2s) / dt
            bound = -0.5 * (1 - np.cos(dpsis[:-1])) ** 2 - errs[:-1] ** 2
            return dv2, bound

        dv2, bound = run(k_omega=1.0)
        assert np.max(dv2 - bound) <= 1e-2
        assert np.all(dv2 < 0.0)

        dv2, _ = run(k_omega=2.0)
        assert np.all(dv2 < 0.0)

    def test_reversal_converges_with_single_jump(self):
        gains = ControllerGains(k_psi=1.0, k_omega=2.0, delta=0.05,
                                psi_rate_ff_cap=0.05)
        res = simulate_heading_loop(
            gains, lambda t: -0.6 + (math.pi if t >= 1.0 else 0.0),
            psi0=-0.6, omega0=-4.0, duration=15.0,
        )
        assert 1 <= len(res.jumps) <= 2
        for jump in res.jumps:
            assert jump.v2_after < jump.v2_before
        assert abs(res.delta_psi[-1]) < 0.01


# three 1 s segments: a turn from rest, whose horizontal speed crosses V_EPS,
# a hover and a vertical climb, both split on the inertial axes
HOVER_TURN_CLIMB = PiecewiseTrajectory([
    PolySegment([[0.0, 0.0, 0.3, -0.1], [0.0, 0.0, 0.1, 0.05], [1.0, 0.0, 0.0, 0.0]], 1.0),
    PolySegment([[0.2, 0.0, 0.0, 0.0], [0.15, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], 1.0),
    PolySegment([[0.2, 0.0, 0.0, 0.0], [0.15, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]], 1.0),
])


class TestMetrics:
    def test_zero_error_log(self, case_line):
        traj = case_line.traj
        t = np.linspace(0, traj.duration, 100)
        m = compute_metrics(traj.eval_many(t, 0), t, traj, case="line")
        assert m.along.max == 0.0 and m.cross.rms == 0.0 and m.altitude.max == 0.0

    def test_constant_altitude_offset(self, case_line):
        traj = case_line.traj
        t = np.linspace(0, traj.duration, 100)
        pos = traj.eval_many(t, 0)
        pos[:, 2] -= 0.1  # vehicle flying 0.1 m low
        m = compute_metrics(pos, t, traj, case="line")
        assert m.altitude.max == pytest.approx(0.1)
        assert m.altitude.rms == pytest.approx(0.1)
        assert m.along.max == pytest.approx(0.0, abs=1e-12)
        assert m.cross.max == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_decomposition(self, case_a):
        rng = np.random.default_rng(3)
        traj = case_a.traj
        t = np.linspace(0, traj.duration, 60)
        pos = traj.eval_many(t, 0) + rng.standard_normal((60, 3)) * 0.1
        comps = error_components(pos, t, traj)
        err = traj.eval_many(t, 0) - pos
        assert np.allclose(
            np.sum(comps**2, axis=1), np.sum(err**2, axis=1), atol=1e-12
        )

    def test_fallback_axes_when_hovering(self):
        traj = constant_trajectory([0, 0, 0], T=1.0)
        t = np.linspace(0, 1.0, 10)
        pos = np.tile([0.3, -0.4, 0.0], (10, 1))
        comps = error_components(pos, t, traj)
        assert np.allclose(comps[:, 0], -0.3)
        assert np.allclose(comps[:, 1], 0.4)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3 * _BLOCK + 5), seed=st.integers(0, 2**32 - 1),
           ordered=st.booleans())
    @example(n=3 * _BLOCK + 5, seed=0, ordered=True)
    @example(n=_BLOCK, seed=1, ordered=False)
    @example(n=_BLOCK + 1, seed=2, ordered=True)
    def test_blocked_split_is_the_one_pass_split(self, n, seed, ordered):
        # the blocks change no bit of the split or of the report: logs over
        # several blocks, samples on and within 1e-13 of segment junctions,
        # past the end, at rest (the inertial-axes fallback) and on the path
        traj = HOVER_TURN_CLIMB
        rng = np.random.default_rng(seed)
        junctions = np.arange(traj.M + 1) * traj.T
        times = np.select(
            [rng.random(n) < 0.2, rng.random(n) < 0.1],
            [rng.choice(junctions, n) + rng.choice([-1e-13, 0.0, 1e-13], n),
             traj.duration + rng.random(n)],
            rng.uniform(0.0, traj.duration, n),
        ).clip(0.0)
        if ordered:
            times.sort()
        pos = traj.eval_many(np.minimum(times, traj.duration), 0)
        pos += rng.normal(0.0, 0.1, (n, 3)) * (rng.random((n, 1)) < 0.8)
        got = error_components(pos, times, traj)
        want = error_components_oracle(pos, times, traj)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        row = []
        for col in want.T:
            row += [float(np.max(np.abs(col))), float(math.sqrt(np.mean(col**2)))]
        assert compute_metrics(pos, times, traj).row() == row

    def test_memory_bounded_by_the_block(self, case_b):
        # a 60,001-sample log, the flat replay's case b: the pass holds the
        # (n, 3) split and a block's temporaries, not ten log-long arrays
        traj = case_b.traj
        t = np.linspace(0.0, traj.duration, 60_001)
        pos = traj.eval_many(t, 0) + [0.01, -0.02, 0.005]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            compute_metrics(pos, t, traj, case="b")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("shape", [(99, 3), (101, 3), (100, 2), (100,), (3, 100)])
    def test_positions_must_match_the_times(self, case_line, shape):
        traj = case_line.traj
        t = np.linspace(0, traj.duration, 100)
        with pytest.raises(InvalidInputError, match=r"want \(100, 3\)"):
            error_components(np.zeros(shape), t, traj)
        with pytest.raises(InvalidInputError, match=r"want \(100, 3\)"):
            compute_metrics(np.zeros(shape), t, traj)

    def test_times_must_be_one_axis(self, case_line):
        with pytest.raises(InvalidInputError, match="do not match"):
            error_components(np.zeros((4, 3)), np.zeros((4, 1)), case_line.traj)

    def test_rms_le_max_enforced(self):
        with pytest.raises(InvalidInputError):
            ChannelStats(max=0.1, rms=0.2)

    def test_reference_table_values(self):
        ref = reference_tracking_errors()
        assert ref["a"].along.max == pytest.approx(0.311)
        assert ref["a"].altitude.rms == pytest.approx(0.202)
        assert ref["b"].cross.rms == pytest.approx(0.312)
        assert ref["line"].along.rms == pytest.approx(0.113)


def forward_flight_log(vparams, duration=30.0, noise=None, seed=0):
    """Synthetic vertical-model log sweeping forward speed 0.3..1.2 m/s."""
    tilt = lambda t: 0.10 + 0.06 * math.sin(0.4 * t)

    def inputs(t):
        gx = -tilt(t)
        gz = math.sqrt(1.0 - gx**2)
        return vertical_inputs(gamma=[gx, 0.0, gz],
                               f_flap=vparams.hover_frequency / math.sqrt(gz))

    state0 = vertical_row(vv=[0.5, 0.0, 0.0])
    return simulate_vertical(state0, vparams, inputs, dt=1e-2, duration=duration)


class TestIdentifyDrag:
    def test_noiseless_within_one_percent(self, vparams):
        log = forward_flight_log(vparams)
        est = identify_drag_from_log(log, vparams)
        truth = vparams.vk_d_x / vparams.m
        assert est.k_d_over_m == pytest.approx(truth, rel=0.01)

    def test_zero_velocity_insufficient(self, vparams):
        t = np.linspace(0, 10, 1000)
        with pytest.raises(InsufficientExcitationError):
            identify_drag(t, np.zeros_like(t), np.zeros_like(t))

    def test_noisy_within_five_percent(self, vparams):
        log = forward_flight_log(vparams)
        vvx = log.states[:, 3]
        gx = log.inputs[:, 0]
        f2 = log.inputs[:, 3] ** 2
        known = -vparams.k_tf * f2 * gx / vparams.m
        exact_dot = np.gradient(vvx, log.t)
        rng = np.random.default_rng(42)
        noisy_dot = exact_dot + rng.normal(0.0, 0.01, size=exact_dot.shape)
        est = identify_drag(log.t, vvx, known, vvx_dot=noisy_dot)
        truth = vparams.vk_d_x / vparams.m
        assert est.k_d_over_m == pytest.approx(truth, rel=0.05)

    def test_insufficient_excitation_reports_regressor(self, vparams):
        t = np.linspace(0, 10, 1000)
        vvx = np.full_like(t, 0.21)  # barely above the gate, almost constant
        with pytest.raises(InsufficientExcitationError):
            identify_drag(t, vvx * 0.0, np.zeros_like(t))
