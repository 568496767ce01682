import math

import numpy as np
import pytest

from flapkit.attitude import azimuth_of_quat, rotz, wrap_angle
from flapkit.errors import (
    DegenerateAttitudeError,
    InvalidInputError,
)

from helpers import (
    IDENTITY_Q,
    hamilton,
    quat_to_rot,
    recover_attitude,
    reduced_attitude,
    skew,
    split_azimuth,
    tilt_quaternion,
)


def random_unit_quaternions(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestQuatToRot:
    def test_identity(self):
        assert np.allclose(quat_to_rot(IDENTITY_Q), np.eye(3))

    def test_half_turn_about_x(self):
        q = (0.0, 1.0, 0.0, 0.0)
        assert np.allclose(quat_to_rot(q), np.diag([1.0, -1.0, -1.0]))

    def test_quarter_turn_about_z_maps_e1_to_e2(self):
        q = (math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4))
        r = quat_to_rot(q)
        assert np.allclose(r @ np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            quat_to_rot((1.0, 0.1, 0, 0))

    @pytest.mark.parametrize("q", [(1.0, 0.0, 0.0), np.eye(4)[:1], (1.0, 0.0, 0.0, 0.0, 0.0)])
    def test_rejects_a_row_of_another_shape(self, q):
        with pytest.raises(InvalidInputError, match=r"shape \(4,\)"):
            quat_to_rot(q)

    def test_rejects_zero_norm(self):
        with pytest.raises(InvalidInputError, match="is not 1"):
            quat_to_rot((0.0, 0.0, 0.0, 0.0))

    def test_orthonormal_det_one_random(self):
        # 1e4 random samples: R^T R = I and det R = 1 within 1e-9
        rng = np.random.default_rng(7)
        for arr in random_unit_quaternions(rng, 10_000):
            r = quat_to_rot(arr)
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_conjugate_transposes(self):
        rng = np.random.default_rng(3)
        for arr in random_unit_quaternions(rng, 50):
            q, q_bar = arr, np.concatenate(([arr[0]], -arr[1:]))
            assert np.allclose(quat_to_rot(q), quat_to_rot(q_bar).T, atol=1e-12)


class TestSkew:
    def test_zero(self):
        assert np.allclose(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_cross_products(self):
        assert np.allclose(skew([1, 0, 0]) @ np.array([0, 1, 0]), [0, 0, 1])
        assert np.allclose(skew([0, 0, 1]) @ np.array([1, 0, 0]), [0, 1, 0])

    def test_antisymmetry_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(skew(v) @ w, -(skew(w) @ v), atol=1e-12)
            assert np.allclose(skew(v).T, -skew(v))


class TestReducedAttitude:
    def test_identity(self):
        assert np.allclose(reduced_attitude(IDENTITY_Q), [0, 0, 1])

    def test_quarter_turn_about_x(self):
        # oracle: build R explicitly, then Gamma = R^T e3
        q = (math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0)
        expected = quat_to_rot(q).T @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(reduced_attitude(q), expected, atol=1e-12)
        assert np.allclose(expected, [0.0, 1.0, 0.0], atol=1e-12)

    def test_yaw_invariance(self):
        rng = np.random.default_rng(5)
        for arr in random_unit_quaternions(rng, 200):
            yaw = np.array([math.cos(rng.uniform(-np.pi, np.pi) / 2), 0.0, 0.0,
                            math.sin(rng.uniform(-np.pi, np.pi) / 2)])
            yaw /= np.linalg.norm(yaw)
            yawed = hamilton(yaw, arr)
            q_yawed = yawed / np.linalg.norm(yawed)
            assert np.allclose(
                reduced_attitude(q_yawed), reduced_attitude(arr), atol=1e-9
            )


class TestRecoverAttitude:
    def test_upright_identity(self):
        assert np.allclose(recover_attitude([0, 0, 1], 0.0), np.eye(3), atol=1e-12)

    def test_pure_yaw(self):
        assert np.allclose(
            recover_attitude([0, 0, 1], math.pi / 2), rotz(math.pi / 2), atol=1e-12
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            g = rng.standard_normal(3)
            g[2] = abs(g[2]) + 0.1
            g /= np.linalg.norm(g)
            psi = rng.uniform(-np.pi, np.pi)
            r = recover_attitude(g, psi)
            assert np.allclose(r.T @ np.array([0.0, 0.0, 1.0]), g, atol=1e-9)

    def test_sign_choice_same_rotation(self):
        g = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        assert np.allclose(
            recover_attitude(g, 0.7, sign=1), recover_attitude(g, 0.7, sign=-1), atol=1e-12
        )

    def test_antipodal_rejected(self):
        with pytest.raises(DegenerateAttitudeError):
            recover_attitude([0.0, 0.0, -1.0], 0.0)

    def test_tilt_quaternion_sign_validation(self):
        with pytest.raises(InvalidInputError):
            tilt_quaternion([0, 0, 1], sign=2)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tilt_quaternion_is_a_unit_row(self, sign):
        g = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        q = tilt_quaternion(g, sign)
        assert q.shape == (4,)
        assert math.copysign(1.0, q[0]) == sign and q[3] == 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        assert np.allclose(reduced_attitude(q), g, atol=1e-12)


class TestSplitAzimuth:
    def test_inverse_of_recover(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = rng.standard_normal(3)
            g[2] = abs(g[2]) + 0.1
            g /= np.linalg.norm(g)
            psi = rng.uniform(-np.pi, np.pi)
            psi_out, g_out = split_azimuth(recover_attitude(g, psi))
            assert abs(wrap_angle(psi_out - psi)) < 1e-9
            assert np.allclose(g_out, g, atol=1e-9)


class TestAzimuthOfQuat:
    def test_matches_matrix_split(self):
        # the float split equals split_azimuth(quat_to_rot(q)) and (R omega)_z
        # on random non-unit quaternions away from the antipode
        rng = np.random.default_rng(23)
        for q in random_unit_quaternions(rng, 300) * rng.uniform(0.5, 2.0, (300, 1)):
            omega = rng.standard_normal(3)
            rot = quat_to_rot(q / math.sqrt(q[0] ** 2 + q[1:] @ q[1:]))
            if rot[2, 2] < -0.9:
                continue
            psi, gamma, omega_psi = azimuth_of_quat(q.tolist(), omega.tolist())
            psi_m, gamma_m = split_azimuth(rot)
            assert abs(wrap_angle(psi - psi_m)) < 1e-12
            assert -math.pi < psi <= math.pi
            np.testing.assert_allclose(gamma, gamma_m, rtol=0.0, atol=1e-15)
            assert omega_psi == pytest.approx((rot @ omega)[2], abs=1e-14)

    def test_degenerate_inputs(self):
        with pytest.raises(InvalidInputError, match="zero quaternion"):
            azimuth_of_quat([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(DegenerateAttitudeError):
            azimuth_of_quat([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0])  # upside down


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi / 2, -math.pi / 2)],
    )
    def test_range_convention(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected)
        assert -math.pi < wrap_angle(angle) <= math.pi


class TestAzimuthRotation:
    def test_orthonormal_and_z_only(self):
        rng = np.random.default_rng(23)
        e3 = np.array([0.0, 0.0, 1.0])
        for psi in rng.uniform(-2 * np.pi, 2 * np.pi, 100):
            r = rotz(psi)
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)
            assert np.allclose(r @ e3, e3)
