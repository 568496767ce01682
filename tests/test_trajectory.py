import hashlib
import math
import re

import numpy as np
import pytest
from scipy.integrate import simpson

from flapkit.errors import InvalidInputError, TrajectoryDomainError
from flapkit.trajectory import (
    FlatSample,
    ObjectiveWeights,
    PiecewiseTrajectory,
    PolySegment,
    snap_gram_matrix,
    snap_objective,
)

from helpers import constant_trajectory, single_segment


def axis_poly(coeffs, T=3.0, order=6):
    """One-axis trajectory with the remaining axes zero."""
    full = np.zeros((3, order + 1))
    full[0, : len(coeffs)] = coeffs
    return single_segment(full, T)


class TestEval:
    def test_constant_polynomial(self):
        traj = constant_trajectory([1.0, -2.0, 0.5], T=2.0)
        for t in [0.0, 0.3, 1.7, 2.0]:
            assert np.allclose(traj.eval(t), [1.0, -2.0, 0.5])

    def test_cubic_third_derivative(self):
        traj = axis_poly([0, 0, 0, 1.0])  # t^3
        assert traj.eval(2.0, order=3)[0] == pytest.approx(6.0)

    def test_fourth_derivative_of_cubic_vanishes(self):
        traj = axis_poly([0.3, -1.0, 2.0, 1.5])
        assert np.allclose(traj.eval(1.2, order=4), 0.0)

    def test_domain_error(self):
        traj = constant_trajectory([0, 0, 0], T=1.0)
        with pytest.raises(TrajectoryDomainError):
            traj.eval(1.5)
        with pytest.raises(TrajectoryDomainError):
            traj.eval(-0.1)

    @pytest.mark.parametrize("times", [[0.5, 1.5], [-0.1, 0.5], [1.0 + 1e-9], [math.nan],
                                       [0.5, math.nan, 0.2]])
    def test_eval_many_domain_error(self, times):
        traj = constant_trajectory([0, 0, 0], T=1.0)
        with pytest.raises(TrajectoryDomainError, match="outside"):
            traj.eval_many(times)
        with pytest.raises(TrajectoryDomainError, match="outside"):
            traj.taylor(np.array(times), 2)
        # within the 1e-12 rounding margin, a time is clamped to the span
        assert np.array_equal(traj.eval_many([-1e-13, 1.0 + 1e-13], 1), np.zeros((2, 3)))

    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("times", [0.5, np.array(0.5), np.array([[0.25], [0.75]]),
                                       np.array([[0.25, 0.75]]), np.zeros((0, 2)),
                                       [[0.25], [0.75]]])
    def test_times_of_another_shape_than_one_axis_rejected(self, segments, times):
        traj = PiecewiseTrajectory([PolySegment(np.ones((3, 4)), 1.0)] * segments)
        shape = re.escape(str(np.shape(times)))
        with pytest.raises(InvalidInputError, match=f"one axis.*{shape}"):
            traj.eval_many(times)
        with pytest.raises(InvalidInputError, match=f"one axis.*{shape}"):
            traj.taylor(times, 2)
        # the same times on one axis evaluate
        flat = np.ravel(times)
        assert traj.eval_many(flat, 1).shape == (flat.size, 3)
        assert np.array_equal(traj.eval_many(iter(flat.tolist()), 1), traj.eval_many(flat, 1))
        assert traj.taylor(flat, 2).shape == (3, flat.size, 3)

    def test_junction_resolves_to_later_segment(self):
        seg1 = PolySegment(np.array([[0.0, 1.0], [0, 0], [0, 0]]), T=1.0)
        seg2 = PolySegment(np.array([[1.0, -1.0], [0, 0], [0, 0]]), T=1.0)
        traj = PiecewiseTrajectory([seg1, seg2])
        # velocity at the junction comes from the later segment
        assert traj.eval(1.0, order=1)[0] == pytest.approx(-1.0)

    def test_eval_many_matches_pointwise(self):
        rng = np.random.default_rng(2)
        segs = [PolySegment(rng.standard_normal((3, 7)), T=1.5) for _ in range(3)]
        traj = PiecewiseTrajectory(segs)
        times = rng.uniform(0, traj.duration, 50)
        for order in range(5):
            batch = traj.eval_many(times, order)
            single = np.array([traj.eval(float(t), order) for t in times])
            assert np.allclose(batch, single, atol=1e-12)


def per_coefficient_polyval_derivative(coeffs, t, order):
    """Oracle: the order-th derivative of sum_i c_i t^i at t, one
    math.perm call per coefficient."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    if order >= n:
        return np.zeros_like(np.asarray(t, dtype=float))
    d = np.array([coeffs[i] * math.perm(i, order) for i in range(order, n)])
    return np.polynomial.polynomial.polyval(t, d)


class TestEvalBitIdentity:
    def test_matches_per_axis_formula(self):
        rng = np.random.default_rng(41)
        seg = PolySegment(rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-3, 3, (3, 7)), 1.7)
        points = [0.0, 1e-9, 0.3, 1.7, 2.5, -0.4]
        grids = [np.linspace(0.0, 1.7, 11), np.array([0.25]), np.zeros((2, 3)) + 0.6]
        for order in range(0, 9):  # orders past the degree evaluate to zeros
            for t in points + grids:
                old = np.stack([
                    per_coefficient_polyval_derivative(seg.coeffs[axis], t, order)
                    for axis in range(3)
                ])
                new = seg.eval(t, order)
                assert new.shape == old.shape and new.dtype == old.dtype
                assert np.array_equal(new, old), (order, t)

    def test_taylor_coefficients(self):
        traj = PiecewiseTrajectory([
            PolySegment(np.arange(21.0).reshape(3, 7) / 7.0, 1.5),
            PolySegment(-np.arange(21.0).reshape(3, 7) / 9.0, 1.5),
        ])
        times = np.array([0.0, 0.7, 1.5, 2.9, 3.0])
        taylor = traj.taylor(times, 5)
        assert taylor.shape == (6, 5, 3)
        for k, fact in enumerate([1, 1, 2, 6, 24, 120]):
            pointwise = np.array([traj.eval(t, k) for t in times])
            assert np.array_equal(taylor[k], pointwise / fact)
            assert np.array_equal(traj.eval_many(times, k), pointwise)


class TestScalarEval:
    def test_scalar_eval_equals_eval_many_bitwise(self):
        rng = np.random.default_rng(43)
        segs = [
            PolySegment(rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-3, 3, (3, 7)), 1.3)
            for _ in range(4)
        ]
        traj = PiecewiseTrajectory(segs)
        junctions = np.arange(traj.M + 1) * traj.T  # both ends included
        times = np.concatenate([
            rng.uniform(0.0, traj.duration, 300),
            junctions,
            junctions[1:-1] - 5e-13,  # within the junction tolerance: later segment
            [1e-13, traj.duration - 1e-13],
        ])
        for order in (0, 1, 2, 3, 4, 7, 8, 11):  # degree 6: orders >= 7 are zeros
            batch = traj.eval_many(times, order)
            single = np.array([traj.eval(t, order) for t in times.tolist()])
            assert single.shape == batch.shape == (times.size, 3)
            assert np.array_equal(single, batch), order
            if order > 6:
                assert not np.any(single)
        for t in times[::10].tolist():
            sample = traj.flat_sample(t)
            for order, value in enumerate((sample.sigma, sample.d1, sample.d2, sample.d3)):
                assert np.array_equal(value, traj.eval(t, order))

    def test_taylor_from_a_later_order(self):
        traj = PiecewiseTrajectory([
            PolySegment(np.arange(21.0).reshape(3, 7) / 7.0, 1.5),
            PolySegment(-np.arange(21.0).reshape(3, 7) / 9.0, 1.5),
        ])
        times = np.array([0.0, 0.7, 1.5, 2.9, 3.0])
        assert np.array_equal(traj.taylor(times, 4, first=1), traj.taylor(times, 4)[1:])
        assert traj.taylor(times, 4, first=2).shape == (3, 5, 3)


class TestSnapObjective:
    def test_cubic_has_zero_snap(self):
        traj = axis_poly([0.5, 1.0, -2.0, 0.7])
        assert snap_objective(traj, ObjectiveWeights(mu_p=1.0, mu_v=0.0)) == 0.0

    def test_unit_snap_quartic(self):
        # sigma = t^4/24 on one axis, T = 1: fourth derivative is 1
        traj = axis_poly([0, 0, 0, 0, 1.0 / 24.0], T=1.0)
        assert snap_objective(traj, ObjectiveWeights(mu_p=1.0, mu_v=0.0)) == pytest.approx(1.0)

    def test_closed_form_matches_dense_quadrature(self):
        # oracle: 1e4-point Simpson quadrature of the squared 4th derivative
        rng = np.random.default_rng(7)
        for _ in range(5):
            coeffs = rng.standard_normal((3, 7))
            T = rng.uniform(0.5, 4.0)
            traj = single_segment(coeffs, T)
            t = np.linspace(0.0, T, 10_001)
            snap = np.array([
                per_coefficient_polyval_derivative(coeffs[axis], t, 4) for axis in range(3)
            ])
            oracle = simpson(np.sum(snap**2, axis=0), x=t)
            closed = snap_objective(traj, ObjectiveWeights(mu_p=1.0, mu_v=0.0))
            assert closed == pytest.approx(oracle, abs=1e-8 * max(1.0, abs(oracle)))

    def test_velocity_term_matches_dense_quadrature(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((3, 7)) * 0.5
        T = 2.0
        traj = single_segment(coeffs, T)
        t = np.linspace(0.0, T, 20_001)
        vel = np.array([
            per_coefficient_polyval_derivative(coeffs[axis], t, 1) for axis in range(3)
        ])
        oracle = simpson(np.sum(np.abs(vel), axis=0), x=t)
        value = snap_objective(traj, ObjectiveWeights(mu_p=1.0, mu_v=1.0))
        assert value - snap_objective(traj, ObjectiveWeights(mu_p=1.0, mu_v=0.0)) \
            == pytest.approx(oracle, rel=1e-4)

    def test_gram_matrix_zero_below_fourth_order(self):
        q = snap_gram_matrix(7, 2.0)
        assert np.allclose(q[:4, :], 0.0)
        assert np.allclose(q[:, :4], 0.0)


class TestCsv:
    def test_coeff_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        traj = PiecewiseTrajectory(
            [PolySegment(rng.standard_normal((3, 7)), T=3.0) for _ in range(2)]
        )
        path = tmp_path / "traj.csv"
        traj.to_coeff_csv(path)
        back = PiecewiseTrajectory.from_coeff_csv(path)
        assert back.M == 2
        for s0, s1 in zip(traj.segments, back.segments):
            assert np.array_equal(s0.coeffs, s1.coeffs)
            assert s0.T == s1.T

    def test_sampled_csv_header(self, tmp_path):
        traj = constant_trajectory([0, 0, 0], T=1.0)
        path = tmp_path / "sampled.csv"
        traj.to_sampled_csv(path, dt=0.25)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,z,vx,vy,vz,ax,ay,az,jx,jy,jz,sx,sy,sz"
        assert len(lines) == 2 + 4  # header + samples at 0, .25, .5, .75, 1.0

    # sha256 of each planned case's sampled CSV at the default dt, recorded at
    # commit 46fb866, where every row was written from scalar evaluations
    SAMPLED_DIGESTS = {
        "a": "b2d7bac3182c7aed4742b30c4113ecaa8cf7f198a204aa430a6be36012bd3c9c",
        "b": "1b19c70ffb7c7b96597bde59f7cdcfe1de8256fd05f8ec9a1a291d03532583d2",
        "c": "65ba609c88b03ff92bd2bd974308df9e37d3efb012ce63aaa8b8d3c37c5b1e09",
        "line": "e04975af87dcab9bad57feef1aaabf319d5b54687c6950f62a7d7d8febd755d5",
    }

    @pytest.mark.parametrize("case", sorted(SAMPLED_DIGESTS))
    def test_sampled_csv_matches_recorded_digest(self, request, tmp_path, case):
        path = tmp_path / "sampled.csv"
        request.getfixturevalue(f"case_{case}").traj.to_sampled_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SAMPLED_DIGESTS[case]


class TestValidation:
    def test_flat_sample_requires_finite_3vectors(self):
        with pytest.raises(InvalidInputError):
            FlatSample(sigma=[np.inf, 0, 0])
        with pytest.raises(InvalidInputError):
            FlatSample(sigma=[0, 0])

    def test_segment_duration_positive(self):
        with pytest.raises(InvalidInputError):
            PolySegment(np.zeros((3, 7)), T=0.0)

    def test_weights_validation(self):
        with pytest.raises(InvalidInputError):
            ObjectiveWeights(mu_p=0.0)
        with pytest.raises(InvalidInputError):
            ObjectiveWeights(mu_v=-0.1)

    def test_continuity_residuals_zero_for_smooth_join(self):
        import math

        # second segment built to match value and first three derivatives
        rng = np.random.default_rng(4)
        seg1 = PolySegment(rng.standard_normal((3, 7)), T=1.0)
        coeffs2 = np.zeros((3, 7))
        for axis in range(3):
            for order in range(4):
                val = per_coefficient_polyval_derivative(seg1.coeffs[axis], 1.0, order)
                coeffs2[axis, order] = val / math.factorial(order)
        traj = PiecewiseTrajectory([seg1, PolySegment(coeffs2, T=1.0)])
        assert np.max(traj.continuity_residuals()) < 1e-12
