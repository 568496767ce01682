import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from flapkit.dynamics import VerticalParams
from flapkit.errors import (
    InvalidInputError,
    PlanInfeasibleError,
    RankDeficientConstraintsError,
)
from flapkit.flatness import FlatInputSchedule
from flapkit.planning import (
    SPEED_FLOOR,
    BoundaryConditions,
    ConstraintSet,
    CylinderX,
    PlanOptions,
    Sphere,
    Waypoint,
    build_equality_system,
    case_library,
    constraint_residuals,
    plan,
    sample_times,
    solve_qp_equality,
    solve_qp_equality_full,
    _FINAL_TOL,
    _STAGE_TOL,
    _PenaltyProblem,
    _SampledLaw,
    _relative_to,
    _worst,
)
from flapkit.trajectory import (
    ObjectiveWeights,
    constant_trajectory,
    snap_objective,
)


def rest_to_rest(end, T=3.0, segments=1):
    cons = ConstraintSet(boundary=BoundaryConditions(end_pos=end))
    opts = PlanOptions(segments=segments, T=T, restarts=4)
    return cons, opts


class TestSampleTimes:
    def test_published_grid(self):
        # 0.15 s spacing over (0, 3): 19 interior points 0.15 .. 2.85
        tau = sample_times(3.0, 0.15)
        assert len(tau) == 19
        assert tau[0] == pytest.approx(0.15)
        assert tau[-1] == pytest.approx(2.85)

    def test_endpoints_excluded(self):
        tau = sample_times(1.0, 0.25)
        assert np.all(tau > 0.0)
        assert np.all(tau < 1.0)


class TestQpOracle:
    def test_rest_to_rest_boundary_exact(self):
        cons, opts = rest_to_rest([1.0, 0.0, 0.0])
        traj, kkt_residual = solve_qp_equality_full(cons, None, opts)
        assert kkt_residual < 1e-10
        assert np.allclose(traj.eval(0.0), [0, 0, 0], atol=1e-10)
        assert np.allclose(traj.eval(3.0), [1, 0, 0], atol=1e-10)
        for order in (1, 2):
            assert np.allclose(traj.eval(0.0, order), 0.0, atol=1e-10)
            assert np.allclose(traj.eval(3.0, order), 0.0, atol=1e-10)

    def test_stationarity_in_null_space(self):
        # gradient check: projected snap gradient vanishes at the minimizer
        cons, opts = rest_to_rest([1.0, -0.5, 0.25])
        traj, _ = solve_qp_equality_full(cons, None, opts)
        a_mat, _, _ = build_equality_system(cons, opts)
        z = scipy.linalg.null_space(a_mat)
        from flapkit.planning import _snap_block

        q = _snap_block(opts)
        for axis in range(3):
            c = np.concatenate([seg.coeffs[axis] for seg in traj.segments])
            assert np.max(np.abs(z.T @ (2 * q @ c))) < 1e-8

    def test_zero_boundary_gives_zero_polynomial(self):
        cons, opts = rest_to_rest([0.0, 0.0, 0.0])
        traj = solve_qp_equality(cons, None, opts)
        assert np.max(np.abs(traj.segments[0].coeffs)) < 1e-10

    def test_beats_random_feasible_interpolants(self):
        cons, opts = rest_to_rest([1.0, 0.4, -0.3])
        traj, _ = solve_qp_equality_full(cons, None, opts)
        a_mat, _, _ = build_equality_system(cons, opts)
        z = scipy.linalg.null_space(a_mat)
        weights = ObjectiveWeights(mu_p=1.0, mu_v=0.0)
        best = snap_objective(traj, weights)
        rng = np.random.default_rng(11)
        from flapkit.trajectory import PiecewiseTrajectory, PolySegment

        for _ in range(1000):
            coeffs = np.stack([
                np.concatenate([seg.coeffs[axis] for seg in traj.segments])
                + z @ rng.standard_normal(z.shape[1])
                for axis in range(3)
            ])
            other = PiecewiseTrajectory([PolySegment(coeffs, opts.T)])
            assert snap_objective(other, weights) >= best - 1e-9

    def test_rank_deficiency_names_rows(self):
        cons, opts = rest_to_rest([1.0, 0.0, 0.0])
        # waypoint duplicating the start-position boundary row
        cons.waypoints.append(Waypoint(0, 0.0, [0.0, 0.0, 0.0]))
        with pytest.raises(RankDeficientConstraintsError) as err:
            solve_qp_equality(cons, None, opts)
        assert any("waypoint0" in row for row in err.value.rows)

    def test_rejects_velocity_weight(self):
        cons, opts = rest_to_rest([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            solve_qp_equality(cons, ObjectiveWeights(mu_p=1.0, mu_v=0.1), opts)


class TestNumpyKernelsMatchScipy:
    """The planner's numpy null space and block-diagonal snap matrix equal
    scipy's bit for bit, so plans do not move."""

    @pytest.mark.parametrize("case", ["a", "b", "c", "line"])
    def test_null_space(self, case):
        from flapkit.planning import _null_space

        cons, opts, _ = case_library(case)
        a_mat, _, _ = build_equality_system(cons, opts)
        got, want = _null_space(a_mat), scipy.linalg.null_space(a_mat)
        assert np.array_equal(got, want)
        # the layout too: the BLAS products that read the basis round by it
        assert got.strides == want.strides

    @pytest.mark.parametrize("segments", [1, 2, 3, 5])
    def test_snap_block(self, segments):
        from flapkit.planning import _snap_block
        from flapkit.trajectory import snap_gram_matrix

        opts = PlanOptions(segments=segments, order=6, T=1.7)
        want = scipy.linalg.block_diag(*[snap_gram_matrix(7, 1.7)] * segments)
        assert np.array_equal(_snap_block(opts), want)


class TestConstraintResiduals:
    def test_stationary_trajectory_all_zero(self):
        traj = constant_trajectory([5.0, 5.0, 5.0], T=3.0)
        cons = ConstraintSet(
            boundary=BoundaryConditions(
                start_pos=[5, 5, 5], end_pos=[5, 5, 5]
            ),
            obstacles=[Sphere(center=[0, 0, 0], radius=0.5)],
        )
        report = constraint_residuals(traj, cons)
        assert report.max_equality < 1e-12
        assert report.max_aggregate == 0.0

    def test_line_through_sphere_penetrates(self):
        # straight x-line passing through a sphere centered at the midpoint
        coeffs = np.zeros((3, 7))
        coeffs[0, 1] = 1.0  # x = t over [0, 3]
        from flapkit.trajectory import single_segment

        traj = single_segment(coeffs, 3.0)
        cons = ConstraintSet(
            boundary=BoundaryConditions(
                end_pos=[3, 0, 0], start_vel=[1, 0, 0], end_vel=[1, 0, 0]
            ),
            obstacles=[Sphere(center=[1.5, 0.0, 0.0], radius=0.5)],
        )
        report = constraint_residuals(traj, cons)
        assert report.obstacles[0] > 0.0
        # worst sample sits near the midpoint
        assert abs(report.worst_sample_time - 1.5) < 0.5

    def test_speed_aggregates(self):
        coeffs = np.zeros((3, 7))
        coeffs[0, 1] = 2.0  # 2 m/s along x exceeds the 1.5 default
        from flapkit.trajectory import single_segment

        traj = single_segment(coeffs, 3.0)
        cons = ConstraintSet(boundary=BoundaryConditions())
        report = constraint_residuals(traj, cons)
        assert report.h_speed == pytest.approx(19 * 0.5)
        assert report.v_speed == 0.0


def azimuth_rate(vel, acc, floor=SPEED_FLOOR):
    """Oracle: rate of the horizontal velocity azimuth, with the squared
    horizontal speed floored at floor^2 where the heading is undefined."""
    vel = np.atleast_2d(vel)
    acc = np.atleast_2d(acc)
    num = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
    den = np.maximum(vel[:, 0] ** 2 + vel[:, 1] ** 2, floor**2)
    return num / den


class TestAzimuthRate:
    def test_circle_rate(self):
        # unit circle at unit angular rate
        t = np.linspace(0, 1, 20)
        vel = np.column_stack([-np.sin(t), np.cos(t), np.zeros_like(t)])
        acc = np.column_stack([-np.cos(t), -np.sin(t), np.zeros_like(t)])
        assert np.allclose(azimuth_rate(vel, acc), 1.0, atol=1e-12)

    def test_floor_below_speed_eps(self):
        vel = np.array([[1e-4, 0.0, 0.0]])
        acc = np.array([[0.0, 1.0, 0.0]])
        # floored denominator: 1e-4 * 1 / 0.05^2 = 0.04
        assert azimuth_rate(vel, acc)[0] == pytest.approx(0.04)


def every_family_constraints() -> ConstraintSet:
    """Tight limits and obstacles about the start so that random reduced
    coordinates activate every residual family; the nonzero start
    acceleration puts the first samples below the azimuth speed floor."""
    return ConstraintSet(
        boundary=BoundaryConditions(
            start_pos=[0.3, -0.2, 0.1], start_acc=[0.6, 0.3, 0.0],
            end_pos=[1.3, 0.8, 0.6],
        ),
        obstacles=[
            Sphere(center=[0.8, 0.3, 0.35], radius=0.3),
            Sphere(center=[0.0, 0.0, 0.0], radius=0.6),
            CylinderX(center_yz=[0.3, 0.4], radius=0.25),
        ],
        v_h_max=0.6,
        v_v_max=0.3,
        psi_rate_max=0.6,
        sample_interval=0.02,
    )


def rec(x):
    """Rectifier max(x, 0)."""
    return np.maximum(x, 0.0)


def oracle_excess(traj, cons, opts):
    """Rectified residuals recomputed from the trajectory at the sample
    times with the margined limits, one array per family; the azimuth rate
    is split where the speed floor holds and where it does not."""
    tau = sample_times(traj.duration, cons.sample_interval)
    pos, vel, acc = (traj.eval_many(tau, order) for order in range(3))
    rate = np.abs(azimuth_rate(vel, acc))
    floored = np.hypot(vel[:, 0], vel[:, 1]) < SPEED_FLOOR
    rate_excess = rec(rate - (cons.psi_rate_max - opts.rate_margin))
    excess = {
        "h_speed": rec(np.hypot(vel[:, 0], vel[:, 1]) - (cons.v_h_max - opts.speed_margin)),
        "v_speed": rec(np.abs(vel[:, 2]) - (cons.v_v_max - opts.speed_margin)),
        "rate_floored": rate_excess * floored,
        "rate_unfloored": rate_excess * ~floored,
    }
    for j, ob in enumerate(cons.obstacles):
        excess[f"obstacle{j}"] = rec(ob.radius + opts.obstacle_margin - ob.distance(pos))
    return excess


def oracle_value(traj, cons, opts, weights, rho):
    """Penalized objective recomputed from the trajectory at the sample
    times with the margined limits, and the per-family activity."""
    excess = oracle_excess(traj, cons, opts)
    penalty = sum(float(e @ e) for e in excess.values())
    value = snap_objective(traj, weights) + rho * penalty
    return value, {name: bool(np.any(e > 0)) for name, e in excess.items()}


FAMILIES = ("h_speed", "v_speed", "rate", "obstacle0", "obstacle1", "obstacle2")
LIVE_SETS = (
    [frozenset(FAMILIES) - {name} for name in FAMILIES]
    + [frozenset({name}) for name in FAMILIES]
    + [frozenset()]
)


def live_set_id(live) -> str:
    if not live:
        return "none"
    if len(live) == 1:
        return f"only_{next(iter(live))}"
    return "all_but_" + "".join(set(FAMILIES) - live)


def live_families_constraints(live) -> ConstraintSet:
    """every_family_constraints() with the families outside ``live`` out of
    reach: their limits raised to 1e6, their obstacles moved 1 km away."""
    cons = every_family_constraints()

    def far(ob):
        if isinstance(ob, Sphere):
            return Sphere(center=[1e3, 1e3, 1e3], radius=ob.radius)
        return CylinderX(center_yz=[1e3, 1e3], radius=ob.radius)

    return replace(
        cons,
        v_h_max=cons.v_h_max if "h_speed" in live else 1e6,
        v_v_max=cons.v_v_max if "v_speed" in live else 1e6,
        psi_rate_max=cons.psi_rate_max if "rate" in live else 1e6,
        obstacles=[
            ob if f"obstacle{j}" in live else far(ob) for j, ob in enumerate(cons.obstacles)
        ],
    )


def central_differences(problem, xi, rho) -> np.ndarray:
    fd = np.empty_like(xi)
    for i in range(xi.size):
        step = 1e-6 * max(1.0, abs(xi[i]))
        up, down = xi.copy(), xi.copy()
        up[i] += step
        down[i] -= step
        fd[i] = (problem.evaluate(up, rho)[0] - problem.evaluate(down, rho)[0]) / (2 * step)
    return fd


class TestPenaltyEvaluation:
    @pytest.mark.parametrize("segments", [1, 2])
    @pytest.mark.parametrize("mu_v", [0.0, 0.1])
    def test_matches_recomputation_and_differences(self, segments, mu_v):
        cons = every_family_constraints()
        opts = PlanOptions(segments=segments, T=1.0)
        weights = ObjectiveWeights(mu_p=1.0, mu_v=mu_v)
        problem = _PenaltyProblem(cons, weights, opts)
        rng = np.random.default_rng(segments * 10 + int(mu_v * 10))
        active = {}
        for _ in range(6):
            xi = rng.normal(scale=2.0, size=3 * problem.k)
            rho = 10.0 ** rng.integers(0, 5)
            value, grad = problem.value_and_grad(xi, rho)
            expected, flags = oracle_value(problem.trajectory(xi), cons, opts, weights, rho)
            # the soft-abs path term exceeds |v| by at most 1e-8 per axis
            assert value == pytest.approx(
                expected, rel=1e-12, abs=3 * segments * opts.T * mu_v * 1e-8 + 1e-12
            )
            for name, flag in flags.items():
                active[name] = active.get(name, False) or flag

            fd = np.empty_like(xi)
            for i in range(xi.size):
                step = 1e-6 * max(1.0, abs(xi[i]))
                up, down = xi.copy(), xi.copy()
                up[i] += step
                down[i] -= step
                fd[i] = (
                    problem.value_and_grad(up, rho)[0] - problem.value_and_grad(down, rho)[0]
                ) / (2 * step)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd)))
        assert all(active.values()), active

    @pytest.mark.parametrize("live", LIVE_SETS, ids=live_set_id)
    def test_families_active_in_turn(self, live):
        # evaluate() builds a family's gradient block only where one of
        # its samples is active: each family, and each obstacle, inactive
        # in turn; one family alone active; none active
        cons = live_families_constraints(live)
        opts = PlanOptions(segments=2, T=1.0)
        weights = ObjectiveWeights(mu_p=1.0, mu_v=0.0)
        problem = _PenaltyProblem(cons, weights, opts)
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(500):
            # random points at several scales, kept where exactly the live
            # families have an active sample
            xi = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=3 * problem.k)
            rho = 10.0 ** rng.integers(0, 5)
            traj = problem.trajectory(xi)
            expected, flags = oracle_value(traj, cons, opts, weights, rho)
            active = {"rate" if name.startswith("rate") else name for name, f in flags.items() if f}
            if active != live:
                continue
            checked += 1
            value, grad, excess = problem.evaluate(xi, rho)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

            oracle = oracle_excess(traj, cons, opts)
            rows = [oracle["h_speed"], oracle["v_speed"]]
            rows.append(oracle["rate_floored"] + oracle["rate_unfloored"])
            rows += [oracle[f"obstacle{j}"] for j in range(len(cons.obstacles))]
            assert excess.shape == (len(rows), rows[0].size)
            for row, want in zip(excess, rows):
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)

            fd = central_differences(problem, xi, rho)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd)))
            # the solver's reads return this same evaluation
            assert problem.value(xi, rho) == value
            assert np.array_equal(problem.gradient(xi, rho), grad)
            assert problem.worst_excess(xi) == excess.max()
            if checked == 3:
                break
        assert checked == 3

    def test_cached_reads_key_on_point_and_rho(self):
        cons = every_family_constraints()
        problem = _PenaltyProblem(cons, ObjectiveWeights(), PlanOptions(segments=2, T=1.0))
        rng = np.random.default_rng(3)
        xi = rng.normal(scale=2.0, size=3 * problem.k)
        other = rng.normal(scale=2.0, size=3 * problem.k)
        # a stage starts where the previous rho stage stopped: the same point
        # read at another rho must not return the cached value
        for point, rho in ((xi, 1.0), (xi, 1e3), (other, 1e3), (xi, 1e3), (xi, 1.0)):
            value, grad, excess = problem.evaluate(point, rho)
            assert problem.value(point, rho) == value
            assert np.array_equal(problem.gradient(point, rho), grad)
            assert problem.worst_excess(point) == excess.max()


class TestOneLaw:
    """The penalty and the residual report read one sampled-constraint law."""

    @pytest.mark.parametrize("segments", [1, 2])
    def test_penalty_rows_are_the_report(self, segments):
        # with zero margins the penalty's excess table, sampled through
        # S0 + X B^T, sums to the report's fields, sampled by Horner's rule
        cons = every_family_constraints()
        opts = PlanOptions(
            segments=segments, T=1.0, speed_margin=0.0, rate_margin=0.0, obstacle_margin=0.0
        )
        problem = _PenaltyProblem(cons, ObjectiveWeights(), opts)
        rng = np.random.default_rng(segments)
        for _ in range(8):
            xi = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=3 * problem.k)
            sums = problem.evaluate(xi, 0.0)[2].sum(axis=1)
            report = constraint_residuals(problem.trajectory(xi), cons)
            fields = [report.h_speed, report.v_speed, report.psi_rate, *report.obstacles]
            assert fields == pytest.approx(sums.tolist(), rel=1e-12, abs=1e-12)

    def test_obstacle_distance_is_the_law_distance(self):
        cons = every_family_constraints()
        problem = _PenaltyProblem(cons, ObjectiveWeights(), PlanOptions(segments=2, T=1.0))
        traj = problem.trajectory(np.random.default_rng(5).normal(size=3 * problem.k))
        samples = [traj.eval_many(problem.tau, k) for k in range(3)]
        dist = _SampledLaw(cons).excess(*(x.T for x in samples))[6]
        for ob, row in zip(cons.obstacles, dist):
            assert row.min() > 1e-9
            np.testing.assert_array_equal(ob.distance(samples[0]), row)

    def test_feasible_worst_sample_time_is_zero(self, case_line):
        report = case_line.report.residuals
        assert report.max_aggregate == 0.0
        assert (report.worst_sample_residual, report.worst_sample_time) == (0.0, 0.0)


class TestEmptySampleGrid:
    def cons(self):
        return ConstraintSet(
            boundary=BoundaryConditions(end_pos=[1.0, 0.0, 0.0]), sample_interval=5.0
        )

    def test_worst_of_an_empty_table(self):
        assert _worst(np.empty((4, 0)), np.empty(0)) == (0.0, 0.0)

    def test_residuals_on_an_empty_grid(self):
        report = constraint_residuals(solve_qp_equality(self.cons()), self.cons())
        assert report.sample_t.size == 0
        assert report.max_aggregate == 0.0
        assert (report.worst_sample_residual, report.worst_sample_time) == (0.0, 0.0)

    def test_plan_rejects_it_before_the_first_restart(self, monkeypatch):
        solves = []
        monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **kw: solves.append(a))
        with pytest.raises(InvalidInputError, match="sample interval 5 s leaves no sample"):
            plan(self.cons(), ObjectiveWeights(), PlanOptions(restarts=2))
        assert solves == []


HYPOTHESIS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def vectors(bound):
    return st.lists(st.floats(-bound, bound), min_size=3, max_size=3)


@st.composite
def equality_problems(draw):
    """Random boundary states, 1-3 segments of random duration, and at most
    one waypoint strictly inside each segment."""
    opts = PlanOptions(segments=draw(st.integers(1, 3)), T=draw(st.floats(0.5, 3.0)))
    boundary = BoundaryConditions(
        start_pos=draw(vectors(2.0)), start_vel=draw(vectors(1.0)),
        start_acc=draw(vectors(1.0)), end_pos=draw(vectors(2.0)),
        end_vel=draw(vectors(1.0)), end_acc=draw(vectors(1.0)),
    )
    waypoints = [
        Waypoint(seg, draw(st.floats(0.05, 0.95)) * opts.T, draw(vectors(2.0)))
        for seg in range(opts.segments)
        if draw(st.booleans())
    ]
    return ConstraintSet(boundary=boundary, waypoints=waypoints), opts


class TestEqualityProperties:
    @HYPOTHESIS
    @given(problem=equality_problems(), data=st.data())
    def test_equality_rows_hold(self, problem, data):
        cons, opts = problem
        qp = solve_qp_equality(cons, None, opts)
        assert constraint_residuals(qp, cons).max_equality <= 1e-9
        # the null-space map the penalty reads keeps every equality row
        penalty = _PenaltyProblem(cons, ObjectiveWeights(), opts)
        size = 3 * penalty.k
        xi = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=size, max_size=size)))
        assert constraint_residuals(penalty.trajectory(xi), cons).max_equality <= 1e-8


class TestPlan:
    def test_qp_equivalence_without_inequalities(self):
        cons = ConstraintSet(
            boundary=BoundaryConditions(end_pos=[0.4, -0.3, 0.2], end_vel=[0.1, 0, 0])
        )
        opts = PlanOptions(restarts=4, seed=3)
        weights = ObjectiveWeights(mu_p=1.0, mu_v=0.0)
        traj, report = plan(cons, weights, opts)
        qp = solve_qp_equality(cons, None, opts)
        ref = snap_objective(qp, weights)
        assert report.objective == pytest.approx(ref, rel=1e-6)

    def test_determinism_bit_identical(self):
        cons, opts_base = rest_to_rest([1.0, 1.0, 1.0])
        cons.obstacles.append(Sphere(center=[0.5, 0.5, 0.5], radius=0.3))
        cons.v_v_max = 1.0
        results = []
        for _ in range(2):
            opts = PlanOptions(restarts=4, seed=9)
            traj, _ = plan(cons, ObjectiveWeights(), opts)
            results.append(np.stack([seg.coeffs for seg in traj.segments]))
        assert np.array_equal(results[0], results[1])

    def test_translation_equivariance(self):
        shift = np.array([2.0, -1.0, 0.5])
        cons1 = ConstraintSet(
            boundary=BoundaryConditions(end_pos=[1, 1, 1]),
            obstacles=[Sphere(center=[0.5, 0.5, 0.5], radius=0.3)],
            v_v_max=1.0,
        )
        cons2 = ConstraintSet(
            boundary=BoundaryConditions(
                start_pos=shift, end_pos=shift + [1, 1, 1]
            ),
            obstacles=[Sphere(center=shift + [0.5, 0.5, 0.5], radius=0.3)],
            v_v_max=1.0,
        )
        opts = PlanOptions(restarts=4, seed=1)
        traj1, _ = plan(cons1, ObjectiveWeights(), opts)
        traj2, _ = plan(cons2, ObjectiveWeights(), PlanOptions(restarts=4, seed=1))
        times = np.linspace(0, traj1.duration, 40)
        p1 = traj1.eval_many(times, 0)
        p2 = traj2.eval_many(times, 0)
        # equivariant up to the penalty solver's convergence tolerance
        assert np.allclose(p2, p1 + shift, atol=2e-3)
        # objective invariant under rigid translation
        assert snap_objective(traj1, ObjectiveWeights()) == pytest.approx(
            snap_objective(traj2, ObjectiveWeights()), rel=1e-4
        )

    def test_translation_equivariance_exact(self):
        # restart 0 starts on the saddle through the sphere's center; with
        # binary-exact shifts the start-relative inputs are bit-identical,
        # so every shift leaves the saddle the same way
        def scenario(shift):
            return ConstraintSet(
                boundary=BoundaryConditions(
                    start_pos=shift, end_pos=shift + [1.0, 1.0, 1.0]
                ),
                obstacles=[
                    Sphere(center=shift + [0.5, 0.5, 0.5], radius=0.3),
                    CylinderX(center_yz=shift[1:] + [0.75, 0.5], radius=0.125),
                ],
                v_v_max=1.0,
            )

        def plan_positions(shift):
            traj, _ = plan(scenario(shift), ObjectiveWeights(), PlanOptions(restarts=3, seed=2))
            return traj.eval_many(np.linspace(0.0, traj.duration, 40), 0)

        base = plan_positions(np.zeros(3))
        for shift in ([2.0, -1.0, 0.5], [-0.75, 3.25, -8.0]):
            shift = np.array(shift)
            assert np.allclose(plan_positions(shift), base + shift, rtol=0, atol=1e-12)

    def test_infeasible_reports_worst_residual(self):
        # sphere fully enclosing both endpoints cannot be escaped
        cons = ConstraintSet(
            boundary=BoundaryConditions(end_pos=[0.2, 0.0, 0.0]),
            obstacles=[Sphere(center=[0.1, 0.0, 0.0], radius=2.0)],
        )
        opts = PlanOptions(restarts=2, seed=0, rho_schedule=(1e2, 1e3))
        with pytest.raises(PlanInfeasibleError) as err:
            plan(cons, ObjectiveWeights(), opts)
        assert err.value.worst_residual > 0.1


class TestCaseLibrary:
    def test_case_a_geometry(self):
        cons, opts, _ = case_library("a")
        assert opts.segments == 1
        sphere = cons.obstacles[0]
        assert np.allclose(sphere.center, [0.5, 0.5, 0.5])
        assert sphere.radius == 0.5
        assert np.allclose(cons.boundary.end_pos, [1, 1, 1])

    def test_case_b_geometry(self):
        cons, opts, _ = case_library("b")
        assert opts.segments == 2
        assert np.allclose(cons.boundary.end_pos, [0, 2, 0])
        assert np.allclose(cons.obstacles[0].center_yz, [0.5, -0.2])
        assert np.allclose(cons.obstacles[1].center_yz, [1.5, 0.1])
        assert all(ob.radius == 0.3 for ob in cons.obstacles)

    def test_case_c_waypoints(self):
        cons, opts, _ = case_library("c")
        assert opts.segments == 3
        wp2 = cons.waypoints[0]
        assert wp2.segment == 0 and wp2.t_local == pytest.approx(opts.T / 2)
        assert np.allclose(
            wp2.position,
            [0.3 * math.cos(math.pi / 3), 0.3 * math.sin(math.pi / 3), 0.0],
        )
        assert np.allclose(cons.boundary.start_pos, [1.5, 0, 0])
        assert np.allclose(cons.boundary.end_pos, [1.5, 0, 0])

    def test_case_line_speed(self):
        cons, opts, _ = case_library("line")
        assert np.allclose(cons.boundary.start_vel, [0.5, 0, 0])
        assert np.allclose(cons.boundary.end_pos, [1.5, 0, 0])

    def test_unknown_case(self):
        with pytest.raises(InvalidInputError):
            case_library("z")


class TestPlannedCases:
    def test_case_a_clearance(self, case_a):
        traj = case_a.traj
        tau = sample_times(traj.duration, 0.15)
        assert len(tau) == 19
        dist = np.linalg.norm(traj.eval_many(tau, 0) - [0.5, 0.5, 0.5], axis=1)
        assert dist.min() >= 0.5
        dense = sample_times(traj.duration, 0.015)
        dist_d = np.linalg.norm(traj.eval_many(dense, 0) - [0.5, 0.5, 0.5], axis=1)
        assert dist_d.min() >= 0.45

    def test_case_a_feasibility_invariant(self, case_a):
        assert case_a.report.residuals.max_aggregate <= 1e-6
        assert case_a.report.residuals_dense.max_aggregate <= 1e-3

    def test_case_b_clearance_and_continuity(self, case_b):
        traj = case_b.traj
        dense = sample_times(traj.duration, 0.015)
        pos = traj.eval_many(dense, 0)
        for cyl in case_b.cons.obstacles:
            assert cyl.distance(pos).min() >= 0.3
        assert np.max(traj.continuity_residuals()) < 1e-6

    def test_case_line_is_uniform_speed(self, case_line):
        traj = case_line.traj
        times = np.linspace(0, traj.duration, 30)
        vel = traj.eval_many(times, 1)
        assert np.allclose(vel, [[0.5, 0.0, 0.0]] * 30, atol=1e-8)

    def test_case_c_feasible_and_heading_hot(self, case_c):
        traj = case_c.traj
        assert case_c.report.residuals.max_aggregate <= 1e-6
        dense = sample_times(traj.duration, 0.01)
        vel = traj.eval_many(dense, 1)
        acc = traj.eval_many(dense, 2)
        rate = np.abs(azimuth_rate(vel, acc))
        # fast heading swings concentrate at the outer waypoints (t = 3, 6)
        assert rate.max() > 2.0
        peak_times = dense[rate > 0.8 * rate.max()]
        assert np.any(np.abs(peak_times - 3.0) < 0.5) or np.any(
            np.abs(peak_times - 6.0) < 0.5
        )


# case a's planar detour over the sphere; the sideways swerve basin is at
# 549.0655 and its flat inputs demand |Gamma_y| > 1
CASE_A_PLANAR_BELOW = 549.063
CASE_B_OBJECTIVE = 3.0547072


def check_case_plan(name, traj, report):
    """The winner is in the case's known basin: for a, the planar detour
    with trackable flat inputs; for b, the single basin at 3.0547072."""
    if name == "a":
        assert report.objective < CASE_A_PLANAR_BELOW
        grid = np.minimum(np.arange(0.0, traj.duration + 5e-4, 1e-3), traj.duration)
        FlatInputSchedule(traj, VerticalParams()).tabulate(grid)
    else:
        assert report.objective == pytest.approx(CASE_B_OBJECTIVE, rel=1e-6)


def plan_case(name, seed):
    cons, opts, weights = case_library(name)
    opts.seed = seed
    return plan(cons, weights, opts)


@pytest.fixture(scope="module")
def recorded_plans():
    """Cases a and b planned at seed 3 (the fixtures plan seed 0), with the
    rho and L-BFGS options of every inner solve, split by restart."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        solves, restarts = [], []
        minimize, finish = scipy.optimize.minimize, _PenaltyProblem.restart_result

        def record_minimize(fun, x0, args=(), **kw):
            solves.append((args[0], kw["options"]))
            return minimize(fun, x0, args=args, **kw)

        def record_restart(self, index, xi, rho):
            restarts.append(solves[:])
            solves.clear()
            return finish(self, index, xi, rho)

        mp.setattr(scipy.optimize, "minimize", record_minimize)
        mp.setattr(_PenaltyProblem, "restart_result", record_restart)
        for name in ("a", "b"):
            traj, report = plan_case(name, 3)
            out[name] = traj, report, restarts[:]
            restarts.clear()
    return out


class TestInexactStages:
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_winner_basin_at_another_seed(self, recorded_plans, name):
        traj, report, _ = recorded_plans[name]
        check_case_plan(name, traj, report)

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_only_the_stage_that_ends_a_restart_is_solved_tight(self, recorded_plans, name):
        _, report, restarts = recorded_plans[name]
        assert len(restarts) == len(report.restarts) == 16
        # the finish is solved to the tolerances every stage used before
        assert _FINAL_TOL == {"ftol": 1e-14, "gtol": 1e-10}
        assert all(_STAGE_TOL[key] > _FINAL_TOL[key] for key in _FINAL_TOL)
        loose, tight = {"maxiter": 200, **_STAGE_TOL}, {"maxiter": 200, **_FINAL_TOL}
        # no restart here has a feasible stage whose tight finish turns
        # infeasible, so the finish is the one tight solve of each restart
        for result, solves in zip(report.restarts, restarts):
            rhos, options = zip(*solves)
            assert list(options) == [loose] * (len(solves) - 1) + [tight]
            # the finish continues the stage that ends the restart
            assert rhos[-1] == rhos[-2] == result.rho

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_every_restart_reports_first_order_measures(self, recorded_plans, name):
        cons, opts, weights = case_library(name)
        problem = _PenaltyProblem(_relative_to(cons, cons.boundary.start_pos), weights, opts)
        _, report, _ = recorded_plans[name]
        for r in report.restarts:
            assert r.rho in opts.rho_schedule
            _, grad_f, _ = problem.evaluate(r.xi, 0.0)
            _, grad_q, _ = problem.evaluate(r.xi, r.rho)
            assert r.stationarity == pytest.approx(
                np.linalg.norm(grad_q) / max(1.0, np.linalg.norm(grad_f)), rel=1e-12
            )
            assert r.complementarity == pytest.approx(2.0 * r.rho * r.max_excess**2, rel=1e-12)
        best = report.restarts[report.restart_index]
        assert (report.stationarity, report.complementarity) == (
            best.stationarity, best.complementarity
        )

    def test_each_point_is_evaluated_once(self):
        # L-BFGS-B asks for the value and the gradient at every point; both
        # must come from one evaluation, and nfev must count them all
        solves, calls = [], [0]
        with pytest.MonkeyPatch.context() as mp:
            minimize, evaluate = scipy.optimize.minimize, _PenaltyProblem.evaluate

            def count_evaluate(self, xi, rho):
                calls[0] += 1
                return evaluate(self, xi, rho)

            def record_minimize(*args, **kw):
                before = calls[0]
                res = minimize(*args, **kw)
                solves.append((calls[0] - before, res.nfev))
                return res

            mp.setattr(_PenaltyProblem, "evaluate", count_evaluate)
            mp.setattr(scipy.optimize, "minimize", record_minimize)
            cons, opts, weights = case_library("a")
            opts.restarts = 4
            plan(cons, weights, opts)
        assert len(solves) >= 2 * opts.restarts
        counts, nfevs = zip(*solves)
        assert counts == nfevs

    def test_case_a_winner_is_stationary(self, case_a):
        # measured 1.8e-11 at seed 0 (9.5e-6 with every stage solved tight);
        # pinned with a 50x margin
        assert case_a.report.stationarity < 1e-9


@pytest.mark.slow
@pytest.mark.parametrize("name", ["a", "b"])
def test_seed_sweep_keeps_the_basins(name):
    """Seeds 0-19 (pytest -m slow): the winner stays in its basin, and at
    least 8 of the 16 restarts end feasible."""
    for seed in range(20):
        traj, report = plan_case(name, seed)
        check_case_plan(name, traj, report)
        feasible = sum(r.max_excess <= PlanOptions().feas_tol for r in report.restarts)
        assert feasible >= 8, (seed, feasible)


class TestObstacles:
    def test_sphere_distance(self):
        s = Sphere(center=[1.0, 0.0, 0.0], radius=0.5)
        assert s.distance(np.array([[2.0, 0, 0]]))[0] == pytest.approx(1.0)

    def test_cylinder_distance_ignores_x(self):
        c = CylinderX(center_yz=[1.0, -1.0], radius=0.3)
        pts = np.array([[100.0, 1.0, -1.0], [-5.0, 1.0, 0.0]])
        assert np.allclose(c.distance(pts), [0.0, 1.0])

    def test_radius_validation(self):
        with pytest.raises(InvalidInputError):
            Sphere(center=[0, 0, 0], radius=0.0)
