import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeloc import geometry as geo


def random_twists(rng, n, rot_scale=3.0):
    out = []
    for _ in range(n):
        rho = rng.uniform(-5.0, 5.0, 3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, rot_scale)
        out.append(np.concatenate([rho, axis * angle]))
    return out


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        k = geo.CameraIntrinsics(100, 100, 320, 200, 640, 400)
        assert geo.project(np.array([0.0, 0.0, 2.0]), k) == (320.0, 200.0)

    def test_pinhole_formula(self):
        k = geo.CameraIntrinsics(100, 100, 320, 200, 640, 400)
        u, v = geo.project(np.array([1.0, 0.0, 2.0]), k)
        assert u == 370.0 and v == 200.0

    def test_point_behind_camera_raises(self):
        k = geo.CameraIntrinsics(100, 100, 320, 200, 640, 400)
        with pytest.raises(geo.PointBehindCamera):
            geo.project(np.array([0.0, 0.0, -1.0]), k)

    def test_scale_invariance_in_depth(self):
        k = geo.CameraIntrinsics(240, 250, 310, 190, 640, 400)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 50)])
            lam = rng.uniform(0.1, 10.0)
            u0, v0 = geo.project(p, k)
            u1, v1 = geo.project(lam * p, k)
            assert math.isclose(u0, u1, abs_tol=1e-9)
            assert math.isclose(v0, v1, abs_tol=1e-9)

    def test_batch_matches_scalar(self):
        k = geo.CameraIntrinsics(240, 250, 310, 190, 640, 400)
        rng = np.random.default_rng(1)
        pts = np.column_stack(
            [rng.uniform(-3, 3, 20), rng.uniform(-3, 3, 20), rng.uniform(0.5, 50, 20)]
        )
        uv, valid = geo.project_points(pts, k)
        assert valid.all()
        for i in range(20):
            u, v = geo.project(pts[i], k)
            assert math.isclose(uv[i, 0], u) and math.isclose(uv[i, 1], v)


class TestExpLog:
    def test_exp_of_zero_is_identity(self):
        pose = geo.exp(np.zeros(6))
        assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(pose.translation, 0.0, atol=1e-15)

    def test_pure_translation(self):
        pose = geo.exp(np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(pose.translation, [0.1, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn_about_z_matches_rodrigues_oracle(self):
        # Oracle: R = I + sin(a) K + (1 - cos(a)) K^2 with K = skew(z_hat).
        angle = math.pi / 2.0
        k = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        oracle = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        pose = geo.exp(np.array([0.0, 0.0, 0.0, 0.0, 0.0, angle]))
        assert np.allclose(pose.rotation, oracle, atol=1e-12)
        assert np.allclose(oracle, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_log_of_identity_is_zero(self):
        assert np.allclose(geo.log(geo.Pose.identity()), 0.0, atol=1e-15)

    def test_log_of_quarter_turn(self):
        pose = geo.Pose(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))
        xi = geo.log(pose)
        assert np.allclose(xi, [0, 0, 0, 0, 0, math.pi / 2.0], atol=1e-12)

    def test_round_trip_up_to_three_radians(self):
        rng = np.random.default_rng(2)
        for xi in random_twists(rng, 200, rot_scale=3.0):
            assert np.linalg.norm(geo.log(geo.exp(xi)) - xi) < 1e-9

    def test_small_angle_round_trip(self):
        rng = np.random.default_rng(3)
        for scale in (1e-10, 1e-7, 1e-4):
            xi = np.concatenate([rng.uniform(-1, 1, 3), rng.normal(size=3) * scale])
            assert np.linalg.norm(geo.log(geo.exp(xi)) - xi) < 1e-9

    def test_near_pi_rotation_raises(self):
        rot = geo.so3_exp(np.array([0.0, 0.0, math.pi - 1e-9]))
        with pytest.raises(geo.RotationNearPi):
            geo.log(geo.Pose(rot, np.zeros(3)))


class TestComposeInverse:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(4)
        pose = geo.exp(random_twists(rng, 1)[0])
        out = geo.compose(pose, geo.Pose.identity())
        assert np.allclose(out.rotation, pose.rotation, atol=1e-15)
        assert np.allclose(out.translation, pose.translation, atol=1e-15)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for xi in random_twists(rng, 20):
            pose = geo.exp(xi)
            out = geo.compose(pose, geo.inverse(pose))
            assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(out.translation).max() < 1e-9

    def test_two_pure_translations(self):
        a = geo.Pose(np.eye(3), [1.0, 0.0, 0.0])
        b = geo.Pose(np.eye(3), [0.0, 2.0, 0.0])
        out = geo.compose(a, b)
        assert np.allclose(out.translation, [1.0, 2.0, 0.0])

    def test_associativity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b, c = (geo.exp(xi) for xi in random_twists(rng, 3))
            left = geo.compose(geo.compose(a, b), c)
            right = geo.compose(a, geo.compose(b, c))
            assert np.abs(left.rotation - right.rotation).max() < 1e-12
            assert np.abs(left.translation - right.translation).max() < 1e-12

    def test_determinant_preserved_over_many_compositions(self):
        rng = np.random.default_rng(7)
        pose = geo.Pose.identity()
        step = geo.exp(np.concatenate([rng.uniform(-0.1, 0.1, 3), rng.normal(size=3) * 0.05]))
        for i in range(10_000):
            pose = geo.compose(pose, step)
            if (i + 1) % 100 == 0:
                pose = geo.orthonormalize(pose)
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-6


class TestSkew:
    def test_zero_vector(self):
        assert np.array_equal(geo.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_cross_product_identity(self):
        assert np.allclose(geo.skew(np.array([1.0, 0.0, 0.0])) @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        rng = np.random.default_rng(8)
        for _ in range(20):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(geo.skew(v) @ w, np.cross(v, w), atol=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = geo.skew(rng.normal(size=3))
            assert np.array_equal(s + s.T, np.zeros((3, 3)))


class TestPoseType:
    def test_rotation_orthonormal_within_tolerance(self):
        rng = np.random.default_rng(10)
        pose = geo.exp(random_twists(rng, 1)[0])
        assert np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max() < 1e-9

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            geo.Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_nan_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            geo.Pose(np.full((3, 3), np.nan), np.zeros(3))

    def test_rejects_nan_translation(self):
        with pytest.raises(ValueError, match="finite"):
            geo.Pose(np.eye(3), [np.nan, 0.0, 0.0])

    def test_rejects_infinite_translation(self):
        with pytest.raises(ValueError, match="finite"):
            geo.Pose(np.eye(3), [np.inf, 0.0, 0.0])

    def test_immutable_arrays(self):
        pose = geo.Pose.identity()
        with pytest.raises(ValueError):
            pose.translation[0] = 1.0

    def test_apply_matches_manual(self):
        rng = np.random.default_rng(11)
        pose = geo.exp(random_twists(rng, 1)[0])
        pts = rng.normal(size=(5, 3))
        expected = (pose.rotation @ pts.T).T + pose.translation
        assert np.allclose(pose.apply(pts), expected, atol=1e-12)


class TestIntrinsicsType:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            geo.CameraIntrinsics(0.0, 100.0, 10.0, 10.0, 100, 100)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            geo.CameraIntrinsics(10.0, 10.0, 120.0, 10.0, 100, 100)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_rejects_non_finite(self, index, value):
        args = [10.0, 10.0, 50.0, 50.0]
        args[index] = value
        with pytest.raises(ValueError, match="finite"):
            geo.CameraIntrinsics(*args, 100, 100)


class TestQuaternions:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for xi in random_twists(rng, 50):
            rot = geo.exp(xi).rotation
            qx, qy, qz, qw = geo.rotation_to_quat(rot)
            back = geo.quat_to_rotation(qx, qy, qz, qw)
            assert np.abs(back - rot).max() < 1e-12

    def test_canonical_sign(self):
        rng = np.random.default_rng(13)
        for xi in random_twists(rng, 20):
            _, _, _, qw = geo.rotation_to_quat(geo.exp(xi).rotation)
            assert qw >= 0.0


class TestEuler:
    def test_zyx_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            yaw = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-1.4, 1.4)
            roll = rng.uniform(-math.pi / 2, math.pi / 2)
            rot = geo.rotation_zyx(yaw, pitch, roll)
            y2, p2, r2 = geo.euler_zyx(rot)
            assert math.isclose(yaw, y2, abs_tol=1e-9)
            assert math.isclose(pitch, p2, abs_tol=1e-9)
            assert math.isclose(roll, r2, abs_tol=1e-9)


def rotation_vectors(max_angle=math.pi - 1e-2):
    """Rotation vectors of angle below ``max_angle``, tiny ones included.

    so3_log's rounding error grows like 1 / (pi - angle)^2 (6.5e-10 rad at
    1e-3 rad from a half turn, 4e-12 at 1e-2), so "away from pi" here
    means at least 1e-2 rad from it."""
    component = st.floats(-1.0, 1.0, allow_nan=False)
    scale = st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2, 1.0])

    def build(args):
        x, y, z, s, angle = args
        axis = np.array([x, y, z])
        norm = np.linalg.norm(axis)
        assume(norm > 1e-3)
        return axis / norm * (s * angle)

    return st.tuples(component, component, component, scale, st.floats(0.0, max_angle)).map(build)


class TestRoundTripProperties:
    @settings(deadline=None, max_examples=300)
    @given(rotation_vectors())
    def test_so3_log_inverts_exp_away_from_pi(self, theta):
        back = geo.so3_log(geo.so3_exp(theta))
        assert np.abs(back - theta).max() <= 1e-9 * max(1.0, np.linalg.norm(theta))

    @settings(deadline=None, max_examples=300)
    @given(rotation_vectors(), st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
    def test_pose_log_inverts_exp(self, theta, rho):
        xi = np.concatenate([rho, theta])
        pose = geo.exp(xi)
        back = geo.log(pose)
        assert np.abs(back[3:] - theta).max() <= 1e-9
        assert np.abs(back[:3] - xi[:3]).max() <= 1e-9 * (1.0 + np.abs(xi[:3]).max())

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_quaternion_round_trip_up_to_sign(self, q):
        q = np.array(q)
        norm = np.linalg.norm(q)
        assume(norm > 1e-3)
        rotation = geo.quat_to_rotation(*q)
        back = np.array(geo.rotation_to_quat(rotation))
        unit = q / norm
        assert min(np.abs(back - unit).max(), np.abs(back + unit).max()) <= 1e-12
        assert np.abs(geo.quat_to_rotation(*back) - rotation).max() <= 1e-12
