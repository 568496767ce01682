"""Acceptance suite: one test per release criterion, one printed verdict per
criterion.  Tolerances are fixed here and nowhere else."""

import math

import numpy as np
import pytest

from flapkit.control import ControllerGains, heading_stability_margin
from flapkit.dynamics import VerticalParams, integrate_vertical_tabulated, simulate_vertical
from flapkit.flatness import FlatInputSchedule
from flapkit.identify import identify_drag, identify_drag_from_log
from flapkit.metrics import compute_metrics, reference_tracking_errors
from flapkit.planning import (
    BoundaryConditions,
    ConstraintSet,
    PlanOptions,
    plan,
    sample_times,
    solve_qp_equality,
)
from flapkit.simulate import simulate_heading_loop, simulate_ideal_vertical
from flapkit.trajectory import ObjectiveWeights, snap_objective


def verdict(number: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


CERT_GAINS = ControllerGains(k_psi=1.0, k_omega=2.0, delta=0.4, psi_rate_ff_cap=0.05)
REVERSAL_GAINS = ControllerGains(k_psi=1.0, k_omega=2.0, delta=0.05, psi_rate_ff_cap=0.05)


class TestAcceptance:
    def test_01_planner_feasibility_case_a(self, case_a):
        traj, report = case_a.traj, case_a.report
        boundary_ok = report.residuals.max_equality < 1e-8
        tau = sample_times(traj.duration, 0.15)
        dist = np.linalg.norm(traj.eval_many(tau, 0) - [0.5, 0.5, 0.5], axis=1)
        dense = sample_times(traj.duration, 0.015)
        dist_dense = np.linalg.norm(
            traj.eval_many(dense, 0) - [0.5, 0.5, 0.5], axis=1
        )
        ok = (
            boundary_ok
            and len(tau) == 19
            and dist.min() >= 0.5
            and dist_dense.min() >= 0.45
            and case_a.opts.restarts == 16
            and report.runtime_s < 30.0
        )
        verdict(
            1, ok, "case (a) plans feasibly",
            f"boundary {report.residuals.max_equality:.1e}, "
            f"clearance {dist.min():.3f} m at samples / {dist_dense.min():.3f} m dense, "
            f"{report.runtime_s:.1f} s with {case_a.opts.restarts} restarts",
        )

    def test_02_planner_feasibility_case_b(self, case_b):
        traj = case_b.traj
        dense = sample_times(traj.duration, 0.015)
        pos = traj.eval_many(dense, 0)
        clearances = [cyl.distance(pos).min() for cyl in case_b.cons.obstacles]
        continuity = float(np.max(traj.continuity_residuals()))
        ok = min(clearances) >= 0.3 and continuity < 1e-6
        verdict(
            2, ok, "case (b) clears both cylinders with a smooth junction",
            f"clearances {clearances[0]:.3f}/{clearances[1]:.3f} m, "
            f"continuity {continuity:.1e}",
        )

    def test_03_qp_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        weights = ObjectiveWeights(mu_p=1.0, mu_v=0.0)
        worst = 0.0
        for trial in range(20):
            start = rng.uniform(-0.5, 0.5, 3)
            end = start + rng.uniform(-0.5, 0.5, 3)
            vel_s = rng.uniform(-0.2, 0.2, 3)
            vel_e = rng.uniform(-0.2, 0.2, 3)
            # inequality constraints deliberately inactive: the equivalence
            # claim covers the quadratic core alone
            cons = ConstraintSet(
                boundary=BoundaryConditions(
                    start_pos=start, start_vel=vel_s, end_pos=end, end_vel=vel_e,
                ),
                v_h_max=50.0, v_v_max=50.0, psi_rate_max=1e6,
            )
            opts = PlanOptions(restarts=4, seed=trial)
            _, report = plan(cons, weights, opts)
            oracle = snap_objective(solve_qp_equality(cons, None, opts), weights)
            gap = abs(report.objective - oracle) / max(abs(oracle), 1e-12)
            worst = max(worst, gap)
        verdict(
            3, worst <= 1e-6, "planner matches the KKT oracle on 20 random boundaries",
            f"worst relative gap {worst:.2e}",
        )

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_04_flatness_round_trip(self, which, case_a, case_b, request):
        case = case_a if which == "a" else case_b
        vparams = VerticalParams()
        sched = FlatInputSchedule(case.traj, vparams)
        dt = 1e-4
        n_steps = int(round(case.traj.duration / dt))
        grid = np.minimum(np.arange(2 * n_steps + 1) * dt / 2, case.traj.duration)
        gamma, f_flap = sched.tabulate(grid)
        log = integrate_vertical_tabulated(
            sched.initial_vertical_state(), vparams, gamma, f_flap, dt,
            rudder_mode="explicit-rudder",
        )
        ref = case.traj.eval_many(log.t[::10], 0)
        deviation = float(np.max(np.linalg.norm(log.states[::10, 0:3] - ref, axis=1)))
        verdict(
            4, deviation < 0.02,
            f"flatness round trip reproduces case ({which})",
            f"max deviation {deviation * 100:.3f} cm at dt=1e-4",
        )

    def test_05_lyapunov_flow_decrease(self):
        margin = heading_stability_margin(CERT_GAINS)
        assert margin.margin_ok
        rng = np.random.default_rng(55)
        worst_dv = -np.inf
        worst_ep = 0.0
        worst_time = 0.0
        for _ in range(10):
            direction = rng.standard_normal(3)
            offset = direction / np.linalg.norm(direction) * rng.uniform(0.1, 0.5)
            omega0 = rng.uniform(-1.0, 1.0) * min(margin.omega_psi_max, 3.0)
            res = simulate_ideal_vertical(
                CERT_GAINS, p0=offset, v0=[0.0, 0.0, 0.0],
                psi0=rng.uniform(-math.pi, math.pi), omega0=omega0,
                stop_when_ep_below=1e-3, duration=20.0,
            )
            worst_dv = max(worst_dv, float(np.max(np.diff(res.V1))))
            worst_ep = max(worst_ep, float(np.linalg.norm(res.e_p[-1])))
            worst_time = max(worst_time, float(res.t[-1]))
        ok = worst_dv <= 1e-6 and worst_ep < 1e-3 and worst_time < 20.0
        verdict(
            5, ok, "V1 decreases along every ideal-inner-loop run",
            f"max dV1 {worst_dv:.1e}, worst terminal |e_p| {worst_ep:.1e} m "
            f"by {worst_time:.1f} s",
        )

    def test_06_hybrid_jump_decrease(self):
        res = simulate_heading_loop(
            REVERSAL_GAINS,
            lambda t: -0.6 + (math.pi if t >= 1.0 else 0.0),
            psi0=-0.6, omega0=-4.0, duration=15.0,
        )
        jumps_ok = 1 <= len(res.jumps) <= 2
        decrease_ok = all(j.v2_after < j.v2_before for j in res.jumps)
        converged = abs(res.delta_psi[-1]) < 0.01
        deltas = ", ".join(f"{j.v2_after - j.v2_before:+.4f}" for j in res.jumps)
        verdict(
            6, jumps_ok and decrease_ok and converged,
            "forced reversal jumps decrease V2",
            f"{len(res.jumps)} jump(s), dV2 at jumps [{deltas}]",
        )

    def test_07_tracking_metrics_sanity(self, case_a, case_b, case_line,
                                        run_a, run_b, run_line):
        reference = reference_tracking_errors()
        ok = True
        details = []
        for case, run in [(case_a, run_a), (case_b, run_b), (case_line, run_line)]:
            m = compute_metrics(
                run.state_log.positions, run.state_log.t, case.traj, case=case.name
            )
            ref = reference[case.name]
            case_ok = (
                m.along.rms <= ref.along.rms
                and m.cross.rms <= ref.cross.rms
                and m.altitude.rms <= ref.altitude.rms
            )
            ok = ok and case_ok and not run.diverged
            details.append(
                f"{case.name}: {m.along.rms:.3f}/{m.cross.rms:.3f}/{m.altitude.rms:.3f}"
                f" vs {ref.along.rms}/{ref.cross.rms}/{ref.altitude.rms}"
            )
        verdict(7, ok, "simulated RMS errors within the published envelope",
                "; ".join(details))

    def test_08_case_c_failure_mode(self, run_c):
        sat = np.array(run_c.ff_sat_times)
        near_wp3 = int(np.sum((sat >= 1.5) & (sat <= 4.5))) if sat.size else 0
        near_wp5 = int(np.sum((sat >= 4.5) & (sat <= 7.5))) if sat.size else 0
        episodes = run_c.jump_episodes()
        ok = (
            not run_c.diverged
            and episodes >= 2
            and near_wp3 > 0
            and near_wp5 > 0
        )
        verdict(
            8, ok, "case (c) reproduces the heading-reversal failure mode",
            f"{episodes} jump episodes, rate-cap saturations near waypoint 3/5: "
            f"{near_wp3}/{near_wp5}",
        )

    def test_09_drag_identification(self):
        vparams = VerticalParams()
        truth = vparams.vk_d_x / vparams.m

        tilt = lambda t: 0.10 + 0.06 * math.sin(0.4 * t)

        def inputs(t):
            gx = -tilt(t)
            gz = math.sqrt(1.0 - gx**2)
            # the input row (gx, gy, gz, fflap)
            return gx, 0.0, gz, vparams.hover_frequency / math.sqrt(gz)

        # the state row (p, vv, psi, omega_psi): 0.5 m/s forward at the origin
        log = simulate_vertical(
            [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0], vparams, inputs,
            dt=1e-2, duration=30.0,
        )
        clean = identify_drag_from_log(log, vparams)
        clean_err = abs(clean.k_d_over_m - truth) / truth

        vvx = log.states[:, 3]
        known = -vparams.k_tf * log.inputs[:, 3] ** 2 * log.inputs[:, 0] / vparams.m
        rng = np.random.default_rng(42)
        noisy_dot = np.gradient(vvx, log.t) + rng.normal(0.0, 0.01, size=vvx.shape)
        noisy = identify_drag(log.t, vvx, known, vvx_dot=noisy_dot)
        noisy_err = abs(noisy.k_d_over_m - truth) / truth

        ok = clean_err < 0.01 and noisy_err < 0.05
        verdict(
            9, ok, "drag coefficient recovered from synthetic logs",
            f"clean {clean_err * 100:.2f}%, sigma=0.01 noise {noisy_err * 100:.2f}%",
        )

    def test_10_determinism(self, tmp_path):
        from flapkit.cli import main

        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code = main([
                "track", "--case", "a", "--seed", "7", "--out-dir", str(out_dir),
            ])
            assert code == 0
            outputs.append({
                name: (out_dir / name).read_bytes()
                for name in ("metrics.csv", "traj.csv", "state.csv")
            })
        identical = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
        verdict(10, identical, "repeated seeded runs are byte-identical",
                "metrics.csv, traj.csv, state.csv compared")
