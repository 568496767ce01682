import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flapkit.control
from flapkit.control import (
    OMEGA_PSI_D_JUMP,
    ControllerGains,
    HybridHeading,
    Measurement,
    SecondOrderFilter,
    TrackingController,
    TrackingErrors,
    compose_reduced_attitude,
    decompose,
    desired_acceleration,
    desired_velocity,
    gamma_y_command,
    heading_rate_command,
    heading_stability_margin,
    hysteresis_update,
    inner_attitude,
    lyapunov_monitors,
)
from flapkit.dynamics import VerticalParams
from flapkit.errors import DegenerateDecompositionError, InvalidInputError
from flapkit.simulate import run_closed_loop, simulate_heading_loop, simulate_ideal_vertical
from flapkit.trajectory import single_segment


@pytest.fixture
def gains():
    return ControllerGains()


@pytest.fixture
def vparams():
    return VerticalParams()


def tick_errors(p, v, sigma_r, sigma_r_dot) -> TrackingErrors:
    """The positional errors of a first controller tick at level attitude."""
    ctrl = TrackingController(ControllerGains(), VerticalParams())
    meas = Measurement(p=p, v=v, psi=0.0, omega_psi=0.0, gamma=[0.0, 0.0, 1.0],
                       omega=[0.0, 0.0, 0.0])
    return ctrl.update(sigma_r, sigma_r_dot, meas).errors


class TestErrors:
    def test_on_trajectory_zero(self):
        # on the reference with its velocity: v_d = sigma_r_dot, so e_v = 0 too
        e = tick_errors([1, 2, 3], [0.1, 0, 0], [1, 2, 3], [0.1, 0, 0])
        assert e.e_p == (0, 0, 0) and e.e_v == (0, 0, 0)

    def test_sign_convention(self):
        # vehicle one meter past the reference: e_p = p_d - p = -1, and
        # e_v = v_d - v with v_d = Kp tanh(e_p)
        e = tick_errors([1, 0, 0], [0.5, 0, 0], [0, 0, 0], [0, 0, 0])
        assert e.e_p == (-1, 0, 0)
        assert e.e_v == (-0.8 * math.tanh(1.0) - 0.5, 0, 0)


class TestDesiredVelocity:
    def test_zero_error_passthrough(self, gains):
        v_d = desired_velocity([0.4, 0, 0], np.zeros(3), gains.kp)
        assert np.allclose(v_d, [0.4, 0, 0])

    def test_saturation_bound(self, gains):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e_p = rng.standard_normal(3) * 10
            v_d = desired_velocity(np.zeros(3), e_p, gains.kp)
            assert np.max(np.abs(v_d)) <= np.max(gains.kp) + 1e-12

    def test_large_error_limit(self):
        v_d = desired_velocity(np.zeros(3), [50.0, 0, 0], np.array([0.5, 0.5, 0.5]))
        assert v_d[0] == pytest.approx(0.5)


class TestDesiredAcceleration:
    def test_zero_errors_passthrough(self, gains):
        a = desired_acceleration([0.3, -0.1, 0.2], np.zeros(3), np.zeros(3),
                                 gains.kp, gains.kv)
        assert np.allclose(a, [0.3, -0.1, 0.2])

    def test_bound(self, gains):
        rng = np.random.default_rng(3)
        for _ in range(100):
            e_p, e_v = rng.standard_normal(3) * 5, rng.standard_normal(3) * 5
            a = desired_acceleration(np.zeros(3), e_p, e_v, gains.kp, gains.kv)
            bound = np.max(gains.kv / gains.kp) * math.sqrt(3) \
                + np.max(gains.kv) * math.sqrt(3)
            assert np.linalg.norm(a) <= bound + 1e-9

    def test_axis_separation(self, gains):
        a = desired_acceleration([0.0, 0.0, 0.5], [0.3, 0, 0], [-0.2, 0, 0],
                                 gains.kp, gains.kv)
        assert a[1] == 0.0
        assert a[2] == pytest.approx(0.5)


class TestDecompose:
    def test_hover(self, vparams):
        dec = decompose(np.zeros(3), np.zeros(3), vparams)
        assert dec.f_flap_cmd == pytest.approx(vparams.hover_frequency)
        assert dec.gamma_xd == pytest.approx(0.0)
        assert dec.gamma_zd == pytest.approx(1.0)

    def test_tilt_normalized(self, vparams):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a_d = rng.standard_normal(3) * 2
            dec = decompose(a_d, [0.5, 0, 0], vparams)
            assert dec.gamma_xd**2 + dec.gamma_zd**2 == pytest.approx(1.0)

    def test_forward_cruise_tilt(self, vparams):
        V = 1.0
        dec = decompose(np.zeros(3), [V, 0, 0], vparams)
        v_cx = vparams.vk_d_x * V**2 / vparams.m
        assert math.atan2(-dec.gamma_xd, dec.gamma_zd) == pytest.approx(
            math.atan2(v_cx, vparams.g)
        )

    def test_degenerate_raises(self, vparams):
        with pytest.raises(DegenerateDecompositionError):
            decompose([0.0, 0.0, -vparams.g], np.zeros(3), vparams)

    def test_forward_gate_scales_demand_only(self, vparams):
        a_d = np.array([1.0, 0.0, 0.0])
        vv = np.array([0.8, 0.0, 0.0])
        full = decompose(a_d, vv, vparams, forward_gate=1.0)
        gated = decompose(a_d, vv, vparams, forward_gate=0.0)
        drag_only = vparams.vk_d_x * 0.64 / vparams.m
        assert -gated.gamma_xd * math.hypot(drag_only, vparams.g) == pytest.approx(
            drag_only
        )
        assert full.gamma_xd < gated.gamma_xd  # more forward tilt when gated open


class TestHeadingRateCommand:
    def test_aligned_feedforward_only(self, gains):
        assert heading_rate_command(0.0, 0.7, 1, gains.k_psi, 2.0) == pytest.approx(0.7)

    def test_antipodal_magnitude(self):
        assert heading_rate_command(math.pi, 0.0, 1, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_h_flips_feedback_sign(self, gains):
        up = heading_rate_command(1.0, 0.0, 1, gains.k_psi, 2.0)
        dn = heading_rate_command(1.0, 0.0, -1, gains.k_psi, 2.0)
        assert up == pytest.approx(-dn)

    def test_feedforward_saturation(self, gains):
        out = heading_rate_command(0.0, 100.0, 1, gains.k_psi, 2.0)
        assert out == pytest.approx(2.0)


class TestHysteresis:
    def test_deep_wrong_side_flips(self):
        # sin = -0.1, cos = -0.99, threshold 0.05: flip to -1
        d = math.atan2(-0.1, -0.995)
        assert hysteresis_update(1, d, 0.05) == -1

    def test_shallow_wrong_side_holds(self):
        d = math.atan2(-0.03, -0.9995)
        assert hysteresis_update(1, d, 0.05) == 1

    def test_front_half_plane_realigns(self):
        d = math.atan2(0.2, 0.98)
        assert hysteresis_update(-1, d, 0.05) == 1
        assert hysteresis_update(1, d, 0.05) == 1

    def test_set_valued_selection_keeps_current(self):
        assert hysteresis_update(-1, 0.0, 0.05) == -1
        assert hysteresis_update(1, 0.0, 0.05) == 1

    def test_invalid_h(self):
        with pytest.raises(InvalidInputError):
            hysteresis_update(0, 0.0, 0.05)

    def test_no_chatter_under_noise(self):
        # slow crossing of the antipode with measurement noise below half
        # the threshold: at most one flip in 1e4 steps
        rng = np.random.default_rng(5)
        delta = 0.05
        h = 1
        flips = 0
        n = 10_000
        for k in range(n):
            s_true = 0.04 - 0.08 * k / n  # drifts +0.04 -> -0.04
            s_meas = s_true + rng.uniform(-0.02, 0.02)
            d = math.atan2(s_meas, -math.sqrt(max(1 - s_meas**2, 0.0)))
            h_new = hysteresis_update(h, d, delta)
            if h_new != h:
                flips += 1
            h = h_new
        assert flips <= 1


class TestGammaYCommand:
    def test_all_zero(self, gains):
        assert gamma_y_command(0.0, 0.0, 1, 0.0, gains) == 0.0

    def test_equal_bounds_kill_robust_term(self):
        g = ControllerGains(l_gamma_min=10.0, l_gamma_max=10.0)
        # with ff nonzero the robust term would otherwise contribute
        out = gamma_y_command(0.0, math.pi / 2, 1, 0.3, g)
        ff = 0.5 / g.k_psi * math.sqrt(1.0 - math.cos(math.pi / 2)) + 0.3
        assert out == pytest.approx(-g.k_omega / 10.0 * ff)

    def test_sign_with_positive_rate_error(self, gains):
        assert gamma_y_command(0.5, 0.0, 1, 0.0, gains) < 0.0

    def test_gain_scaling_preserves_sign(self, gains):
        rng = np.random.default_rng(6)
        for _ in range(100):
            e = rng.standard_normal() * 2
            d = rng.uniform(-math.pi, math.pi)
            wd = rng.standard_normal()
            h = rng.choice([-1, 1])
            base = gamma_y_command(e, d, h, wd, gains)
            scaled_gains = ControllerGains(
                l_gamma_min=3 * gains.l_gamma_min, l_gamma_max=3 * gains.l_gamma_max
            )
            scaled = gamma_y_command(e, d, h, wd, scaled_gains)
            if abs(base) > 1e-12:
                assert np.sign(base) == np.sign(scaled)


class _HeadingBlockReference:
    """The heading block of ``TrackingController.update`` as it stood before
    the law moved into ``HybridHeading``: the reference the tick must match
    bit for bit."""

    def __init__(self, gains, dt):
        self.gains = gains
        self.h_psi = 1
        self.wd_filter = SecondOrderFilter(gains.filter_wn, gains.filter_zeta, dt, 1)
        self.last_omega_psi_d = None

    def step(self, delta_psi, psi_d_rate, omega_psi):
        g = self.gains
        h_before = self.h_psi
        h_new = hysteresis_update(self.h_psi, delta_psi, g.delta)
        jumped = h_new != self.h_psi and math.cos(delta_psi) <= 0.0
        self.h_psi = h_new

        omega_psi_d = heading_rate_command(
            delta_psi, psi_d_rate, h_new, g.k_psi, g.psi_rate_ff_cap
        )
        command_jumped = (
            self.last_omega_psi_d is not None
            and abs(omega_psi_d - self.last_omega_psi_d) > OMEGA_PSI_D_JUMP
        )
        if jumped or command_jumped:
            self.wd_filter.reset(omega_psi_d)
        _, wd_rate = self.wd_filter.update(omega_psi_d)
        wd_rate = float(wd_rate[0])
        self.last_omega_psi_d = omega_psi_d

        e_omega_psi = omega_psi_d - omega_psi
        gamma_yd = gamma_y_command(e_omega_psi, delta_psi, h_new, wd_rate, g)
        return h_before, h_new, jumped, omega_psi_d, e_omega_psi, gamma_yd


_ANGLE = st.floats(-math.pi, math.pi)
_NEAR_ANTIPODE = st.floats(math.pi - 0.3, math.pi) | st.floats(-math.pi, -math.pi + 0.3)
_TICK = st.tuples(
    _ANGLE | _NEAR_ANTIPODE,
    st.just(0.0) | st.floats(-3.0, 3.0),
    st.floats(-15.0, 15.0),
)
# crossing the antipode from +pi - 0.2 to -pi + 0.2 flips h (a jump and a
# command jump), then a step of the azimuth-rate feedforward by 1.5 rad/s
# at a fixed error is a command jump without a hysteresis jump
_CRAFTED = [
    (math.pi - 0.2, 0.0, 0.0),
    (-math.pi + 0.2, 0.0, 1.0),
    (-math.pi + 0.4, 0.0, 1.0),
    (-math.pi + 0.4, 1.5, 1.0),
    (0.3, 1.5, -2.0),
    (-0.3, -1.5, 2.0),
]


class TestHybridHeading:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ticks=st.lists(_TICK, min_size=1, max_size=60))
    @example(ticks=_CRAFTED)
    def test_tick_matches_former_controller_block(self, ticks):
        gains = ControllerGains()
        law = HybridHeading(gains, 0.01)
        ref = _HeadingBlockReference(gains, 0.01)
        for delta_psi, psi_d_rate, omega_psi in ticks:
            t = law.tick(delta_psi, psi_d_rate, omega_psi)
            got = (t.h_before, t.h_psi, t.jumped, t.omega_psi_d, t.e_omega_psi, t.gamma_yd)
            assert got == ref.step(delta_psi, psi_d_rate, omega_psi)
            assert law.h_psi == ref.h_psi

    def test_crafted_sequence_jumps(self):
        law = HybridHeading(ControllerGains(), 0.01)
        ticks = [law.tick(*x) for x in _CRAFTED]
        assert [t.jumped for t in ticks] == [False, True, False, False, False, False]
        steps = [abs(b.omega_psi_d - a.omega_psi_d) for a, b in zip(ticks, ticks[1:])]
        assert steps[0] > OMEGA_PSI_D_JUMP and steps[2] > OMEGA_PSI_D_JUMP


class TestComposeReducedAttitude:
    def test_examples(self):
        assert np.allclose(compose_reduced_attitude(0, 0, 1), [0, 0, 1])
        assert np.allclose(compose_reduced_attitude(0.6, 0, 0.8), [0.6, 0, 0.8])
        out = compose_reduced_attitude(0.0, 0.1, 1.0)
        assert np.allclose(out, [0.0, 0.0995, 0.9950], atol=1e-4)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            compose_reduced_attitude(0, 0, 0)

    def test_always_unit(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.standard_normal(3)
            if np.linalg.norm(g) < 1e-6:
                continue
            assert np.linalg.norm(compose_reduced_attitude(*g)) == pytest.approx(1.0)

    def test_small_lateral_accuracy(self):
        # |Gy| <= 0.1 perturbs the (x, z) components by at most 0.01
        rng = np.random.default_rng(8)
        for _ in range(200):
            angle = rng.uniform(0, 2 * math.pi)
            gx, gz = math.sin(angle), math.cos(angle)
            gy = rng.uniform(-0.1, 0.1)
            out = compose_reduced_attitude(gx, gy, gz)
            assert math.hypot(out[0] - gx, out[2] - gz) <= 0.01


class TestCommandFilter:
    def test_constant_converges(self):
        f = SecondOrderFilter(wn=20.0, zeta=1.0, dt=0.01)
        f.reset(0.0)
        for _ in range(300):
            val, rate = f.update(2.0)
        assert val[0] == pytest.approx(2.0, abs=1e-4)
        assert rate[0] == pytest.approx(0.0, abs=1e-3)

    def test_ramp_slope_recovered(self):
        # sampled ramp is a staircase, so the steady rate carries O(dt) bias
        f = SecondOrderFilter(wn=20.0, zeta=1.0, dt=0.01)
        slope = 0.7
        for k in range(400):
            val, rate = f.update(slope * k * 0.01)
        assert rate[0] == pytest.approx(slope, rel=1e-2)

    def test_reset_zeroes_derivative_at_step(self):
        f = SecondOrderFilter(wn=20.0, zeta=1.0, dt=0.01)
        f.update(0.0)
        f.reset(5.0)
        val, rate = f.update(5.0)
        assert val[0] == pytest.approx(5.0, abs=1e-9)
        assert abs(rate[0]) < 1e-9

    def test_first_update_primes(self):
        f = SecondOrderFilter(wn=20.0, zeta=1.0, dt=0.01, channels=3)
        val, rate = f.update([1.0, -2.0, 3.0])
        assert np.allclose(val, [1.0, -2.0, 3.0])
        assert np.allclose(rate, 0.0)

    def test_closed_form_zoh_matches_expm(self):
        """The closed-form discretization against scipy's expm of the
        augmented matrix [[A, B], [0, 0]] dt, in every damping regime and
        within a hair of critical damping: 1e-12 relative to max(1, |x|)."""
        near_critical = [1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-6, 1.0 + 1e-6]
        zetas = np.concatenate([np.linspace(0.01, 2.0, 199), near_critical, [1e-3]])
        for wn in (1.0, 5.0, 20.0, 60.0, 200.0):
            for dt in (1e-4, 1e-3, 0.01, 0.02):
                for zeta in zetas:
                    aug = np.array([[0.0, 1.0, 0.0], [-wn**2, -2.0 * zeta * wn, wn**2],
                                    [0.0, 0.0, 0.0]]) * dt
                    want = scipy.linalg.expm(aug)[:2]
                    f = SecondOrderFilter(wn, zeta, dt)
                    got = np.column_stack([np.array(f.ad), np.array(f.bd)])
                    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                    assert err.max() <= 1e-12, (wn, dt, zeta, err.max())


class TestFloatLawsAgainstArrayForms:
    """The tick runs on floats; its former numpy forms are the reference.
    Only the rounding differs (tanh, the filter's products and sums), so
    the values agree to a few ulps: 1e-13 absolute on values of order 1-10."""

    TOL = dict(rtol=1e-13, atol=1e-13)

    def test_filter_matches_matrix_update(self):
        rng = np.random.default_rng(21)
        f = SecondOrderFilter(wn=20.0, zeta=1.0, dt=0.01, channels=3)
        ad, bd = np.array(f.ad), np.array(f.bd)
        state = None
        for k in range(300):
            u = rng.standard_normal(3) * 5.0
            if k == 150:  # a reset mid-run: value snaps to the input, rate to 0
                f.reset(u)
                state = np.column_stack([u, np.zeros(3)])
            value, rate = f.update(u)
            state = (np.column_stack([u, np.zeros(3)]) if state is None
                     else state @ ad.T + np.outer(u, bd))
            np.testing.assert_allclose(np.column_stack([value, rate]), state, **self.TOL)

    def test_position_law_matches_array_form(self, gains):
        rng = np.random.default_rng(22)
        kp, kv = gains.kp.tolist(), gains.kv.tolist()
        for _ in range(300):
            sd, vdd, e_p, e_v = rng.standard_normal((4, 3)) * 3.0
            np.testing.assert_allclose(
                desired_velocity(sd.tolist(), e_p.tolist(), kp), sd + gains.kp * np.tanh(e_p),
                **self.TOL,
            )
            np.testing.assert_allclose(
                desired_acceleration(vdd.tolist(), e_p.tolist(), e_v.tolist(), kp, kv),
                vdd + gains.kv / gains.kp * np.tanh(e_p) + gains.kv * np.tanh(e_v),
                **self.TOL,
            )
            assert lyapunov_monitors(TrackingErrors(e_p.tolist(), e_v.tolist()), 1, gains).V1 \
                == pytest.approx(0.5 * e_p @ (e_p / gains.kp) + 0.5 * e_v @ (e_v / gains.kv),
                                 rel=1e-14)


class TestInnerAttitude:
    def test_aligned_zero(self, gains):
        g = np.array([0.1, 0.0, math.sqrt(1 - 0.01)])
        rud, ele = inner_attitude(g, g, np.zeros(3), gains)
        assert rud == pytest.approx(0.0)
        assert ele == pytest.approx(0.0)

    def test_lateral_offset_drives_rudder(self, gains):
        alpha = 0.2
        gp = np.array([0.0, math.sin(alpha), math.cos(alpha)])
        g = np.array([0.0, 0.0, 1.0])
        rud, ele = inner_attitude(gp, g, np.zeros(3), gains)
        assert rud == pytest.approx(gains.k_rud * math.sin(alpha))
        assert ele == pytest.approx(0.0)

    def test_rate_damping_sign(self, gains):
        g = np.array([0.0, 0.0, 1.0])
        rud, _ = inner_attitude(g, g, np.array([0.5, 0.0, 0.0]), gains)
        assert rud < 0.0


class TestHeadingMargin:
    def cert_gains(self, **over):
        base = dict(k_psi=1.0, k_omega=2.0, delta=0.4, psi_rate_ff_cap=0.05)
        base.update(over)
        return ControllerGains(**base)

    def test_margin_real_for_cert_gains(self):
        m = heading_stability_margin(self.cert_gains())
        assert m.margin_ok
        assert m.omega_psi_max > 1.0

    def test_k_omega_monotonicity(self):
        m1 = heading_stability_margin(self.cert_gains(k_omega=2.0))
        m2 = heading_stability_margin(self.cert_gains(k_omega=4.0))
        assert m2.omega_psi_max > m1.omega_psi_max

    def test_margin_collapses_with_delta(self):
        m_small = heading_stability_margin(self.cert_gains(delta=1e-4))
        m_large = heading_stability_margin(self.cert_gains(delta=0.4))
        assert m_small.omega_bar_psi < 1e-2 * m_large.omega_bar_psi

    def test_balance_identity(self):
        # plugging omega_psi_max back reproduces the candidate balance
        g = self.cert_gains()
        m = heading_stability_margin(g)
        lhs = (
            0.5 / g.k_omega * m.omega_psi_max**2
            + 0.5 / g.k_omega * g.psi_rate_ff_cap**2
            + math.sqrt(2.0) / g.k_psi
        )
        rhs = 0.5 / g.k_omega * m.omega_bar_psi**2
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, rhs))

    def test_violated_margin_flagged(self):
        m = heading_stability_margin(ControllerGains())  # nominal gains: cap 2.0
        assert not m.margin_ok
        assert m.omega_psi_max == 0.0


class TestLyapunovMonitors:
    def test_zero_errors_zero_candidates(self, gains):
        rep = lyapunov_monitors(TrackingErrors(), 1, gains)
        assert rep.V1 == 0.0
        assert rep.V2 == pytest.approx(0.0)

    def test_v1_positive_definite(self, gains):
        rng = np.random.default_rng(9)
        for _ in range(100):
            e = TrackingErrors(e_p=rng.standard_normal(3), e_v=rng.standard_normal(3))
            assert lyapunov_monitors(e, 1, gains).V1 > 0.0

    def test_v1_rate_matches_expected_in_ideal_loop(self, gains):
        # finite-difference oracle at dt = 1e-4 against the closed form;
        # modest offsets keep the cubic tanh mismatch of the enforced
        # expectation below the stated tolerance
        res = simulate_ideal_vertical(
            gains, p0=[0.12, -0.08, 0.05], v0=[0.05, 0, 0], dt=1e-4, duration=0.5
        )
        v1_dot_fd = np.gradient(res.V1, res.t)
        expected = np.array([
            -float(ep @ np.tanh(ep)) - float(ev @ np.tanh(ev))
            for ep, ev in zip(res.e_p, res.e_v)
        ])
        assert np.max(np.abs(v1_dot_fd[1:-1] - expected[1:-1])) < 1e-3

    def test_flow_bound_nonpositive(self, gains):
        rng = np.random.default_rng(10)
        for _ in range(50):
            e = TrackingErrors(
                delta_psi=rng.uniform(-math.pi, math.pi),
                e_omega_psi=rng.standard_normal(),
            )
            assert lyapunov_monitors(e, 1, gains).flow_bound <= 0.0


class TestTrackingControllerTick:
    def test_hover_tick_is_equilibrium(self, gains, vparams):
        ctrl = TrackingController(gains, vparams)
        meas = Measurement(
            p=np.zeros(3), v=np.zeros(3), psi=0.0, omega_psi=0.0,
            gamma=np.array([0, 0, 1.0]), omega=np.zeros(3),
        )
        out = ctrl.update(np.zeros(3), np.zeros(3), meas)
        assert out.f_flap_cmd == pytest.approx(vparams.hover_frequency)
        assert np.allclose(out.gamma_cmd, [0, 0, 1], atol=1e-12)
        assert out.theta_rud_cmd == pytest.approx(0.0)
        assert out.theta_ele_cmd == pytest.approx(0.0)

    def test_gamma_yd_clipped(self, vparams):
        gains = ControllerGains(gamma_yd_limit=0.2)
        ctrl = TrackingController(gains, vparams, initial_psi_d=0.0)
        meas = Measurement(
            p=np.zeros(3), v=np.array([0.5, 0, 0]), psi=2.0, omega_psi=-3.0,
            gamma=np.array([0, 0, 1.0]), omega=np.zeros(3),
        )
        out = ctrl.update(np.array([1.0, 0, 0]), np.array([0.5, 0, 0]), meas)
        assert abs(out.gamma_yd) <= 0.2 + 1e-12

    def test_log_row_layout(self, gains, vparams):
        ctrl = TrackingController(gains, vparams)
        meas = Measurement(
            p=np.zeros(3), v=np.zeros(3), psi=0.0, omega_psi=0.0,
            gamma=np.array([0, 0, 1.0]), omega=np.zeros(3),
        )
        out = ctrl.update(np.zeros(3), np.zeros(3), meas)
        row = out.log_row(1.25)
        assert len(row) == 16
        assert row[0] == 1.25

    def test_flight_loops_skip_the_stability_monitors(self, monkeypatch, gains, vparams):
        # the tick logs V1 and V2 through the candidate functions alone; the
        # full monitors are computed on demand, never in a flight loop
        monitors = flapkit.control.lyapunov_monitors

        def forbidden(*args, **kwargs):
            raise AssertionError("lyapunov_monitors called in a flight loop")

        monkeypatch.setattr(flapkit.control, "lyapunov_monitors", forbidden)
        coeffs = np.zeros((3, 7))
        coeffs[:, 1] = [0.4, 0.3, 0.05]  # a straight, slowly climbing line
        res = run_closed_loop(single_segment(coeffs, 2.0), perturb_pos=(0.05, -0.1, 0.02))
        assert len(res.control_rows) == 200 and not res.diverged
        simulate_heading_loop(gains, lambda t: 2.5, psi0=-0.5, omega0=3.0, duration=1.0)
        simulate_ideal_vertical(gains, p0=[0.1, 0.0, 0.0], v0=[0, 0, 0], psi0=3.0, duration=1.0)

        ctrl = TrackingController(gains, vparams)
        meas = Measurement(
            p=[0.1, -0.2, 0.05], v=[0.3, 0.1, 0.0], psi=2.5, omega_psi=-1.0,
            gamma=[0.0, 0.0, 1.0], omega=[0.0, 0.0, -1.0],
        )
        for sigma_r in ([1.0, 0.0, 0.0], [0.9, 0.2, 0.1], [-0.5, -0.5, 0.0]):
            out = ctrl.update(sigma_r, [0.5, 0.0, 0.0], meas)
            rep = monitors(out.errors, out.h_psi, gains)
            assert (out.V1, out.V2) == (rep.V1, rep.V2)
