import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeloc import geometry as geo


def random_poses(rng, n):
    out = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        out.append(geo.Pose(geo.so3_exp(axis * rng.uniform(0.0, 3.0)), rng.uniform(-5.0, 5.0, 3)))
    return out


def rodrigues(theta):
    """Independent oracle: R = I + sin(a) K + (1 - cos(a)) K^2, where K is
    the cross-product matrix of the unit axis, written out here."""
    angle = math.sqrt(sum(x * x for x in theta))
    if angle == 0.0:
        return np.eye(3)
    x, y, z = (c / angle for c in theta)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


class TestProject:
    K = geo.CameraIntrinsics(100, 100, 320, 200, 640, 400)

    def test_optical_axis_maps_to_principal_point(self):
        u, v, in_front = geo.project_points(np.array([0.0, 0.0, 2.0]), self.K)
        assert (u, v) == (320.0, 200.0) and in_front

    def test_pinhole_formula(self):
        u, v, in_front = geo.project_points(np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 4.0]]), self.K)
        assert u.tolist() == [370.0, 320.0] and v.tolist() == [200.0, 175.0]
        assert in_front.all()

    def test_points_at_or_behind_camera_are_not_in_front(self):
        points = np.array([[0.0, 0.0, -1.0], [1.0, 1.0, 0.0], [0.0, 0.0, geo.MIN_PROJECTION_DEPTH], [0.0, 0.0, 1.0]])
        u, v, in_front = geo.project_points(points, self.K)
        assert in_front.tolist() == [False, False, False, True]
        assert np.isfinite(u).all() and np.isfinite(v).all()

    def test_scale_invariance_in_depth(self):
        k = geo.CameraIntrinsics(240, 250, 310, 190, 640, 400)
        rng = np.random.default_rng(0)
        p = np.column_stack([rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50), rng.uniform(0.5, 50, 50)])
        lam = rng.uniform(0.1, 10.0, (50, 1))
        u0, v0, _ = geo.project_points(p, k)
        u1, v1, _ = geo.project_points(lam * p, k)
        assert np.allclose(u0, u1, rtol=0.0, atol=1e-9)
        assert np.allclose(v0, v1, rtol=0.0, atol=1e-9)

    def test_leading_axes_are_kept(self):
        # Probe rounds project a (poses, samples, 3) block in one call.
        rng = np.random.default_rng(1)
        points = rng.uniform(-3.0, 3.0, (4, 5, 3))
        u, v, in_front = geo.project_points(points, self.K)
        flat = geo.project_points(points.reshape(-1, 3), self.K)
        assert u.shape == v.shape == in_front.shape == (4, 5)
        for block, row in zip((u, v, in_front), flat):
            assert np.array_equal(block.reshape(-1), row)


class TestSo3Exp:
    def test_zero_is_identity(self):
        assert np.array_equal(geo.so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        rotation = geo.so3_exp(np.array([0.0, 0.0, math.pi / 2.0]))
        assert np.allclose(rotation, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    @pytest.mark.parametrize("angle", [1e-12, 1e-10, 0.99 * geo.SMALL_ANGLE, geo.SMALL_ANGLE, 1e-6])
    def test_matches_rodrigues_on_both_sides_of_the_series_switch(self, angle):
        theta = np.array([0.6, -0.8, 0.0]) * angle
        rotation = geo.so3_exp(theta)
        assert np.abs(rotation - rodrigues(theta)).max() <= 1e-15
        assert rotation[2, 1] == pytest.approx(0.6 * angle, rel=1e-9)

    @settings(deadline=None, max_examples=300)
    @given(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), st.floats(0.0, 3.5))
    def test_matches_rodrigues_oracle(self, direction, angle):
        norm = np.linalg.norm(direction)
        assume(norm > 1e-3)
        theta = np.array(direction) / norm * angle
        rotation = geo.so3_exp(theta)
        assert np.abs(rotation - rodrigues(theta)).max() <= 1e-12
        assert np.abs(rotation.T @ rotation - np.eye(3)).max() <= 1e-12


def so3_exp_with_eye(theta):
    """so3_exp as it was written with a fresh np.eye(3) and skew per call:
    its oracle, bit for bit."""
    theta = np.asarray(theta, dtype=float)
    angle = math.sqrt(float(theta @ theta))
    x, y, z = theta
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    k2 = k @ k
    if angle < geo.SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * k2
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return np.eye(3) + a * k + b * k2


class TestSo3ExpBits:
    """so3_exp adds a shared read-only identity and reads theta once: the
    same bits as the formula written out, on both sides of SMALL_ANGLE."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        st.sampled_from([0.0, 1e-12, 0.5, 0.999, 1.0, 1.001, 2.0, 1e4, 1e7, 3e8]),
    )
    def test_equals_the_written_out_formula(self, direction, scale):
        theta = np.array(direction) * geo.SMALL_ANGLE * scale
        assert geo.so3_exp(theta).tobytes() == so3_exp_with_eye(theta).tobytes()
        assert geo.so3_exp(list(direction)).tobytes() == so3_exp_with_eye(list(direction)).tobytes()

    def test_at_the_series_switch(self):
        below = np.nextafter(geo.SMALL_ANGLE, 0.0)
        for theta in ([geo.SMALL_ANGLE, 0.0, 0.0], [0.0, -geo.SMALL_ANGLE, 0.0], [0.0, 0.0, below]):
            assert geo.so3_exp(theta).tobytes() == so3_exp_with_eye(theta).tobytes()

    def test_results_are_fresh_and_the_identity_stays_read_only(self):
        first = geo.so3_exp(np.array([0.1, 0.2, 0.3]))
        small = geo.so3_exp(np.zeros(3))
        assert first.flags.writeable and not np.shares_memory(first, small)
        first[:] = 7.0
        small[:] = 7.0
        assert np.array_equal(geo.so3_exp(np.zeros(3)), np.eye(3))
        assert not geo._IDENTITY.flags.writeable and np.array_equal(geo._IDENTITY, np.eye(3))
        assert np.array_equal(geo.skew([1.0, 2.0, 3.0]), [[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])


class TestComposeInverse:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(4)
        pose = random_poses(rng, 1)[0]
        out = pose.compose(geo.Pose.identity())
        assert np.allclose(out.rotation, pose.rotation, atol=1e-15)
        assert np.allclose(out.translation, pose.translation, atol=1e-15)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for pose in random_poses(rng, 20):
            for out in (pose.compose(pose.inverse()), pose.inverse().compose(pose)):
                assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
                assert np.abs(out.translation).max() < 1e-9

    def test_two_pure_translations(self):
        a = geo.Pose(np.eye(3), [1.0, 0.0, 0.0])
        b = geo.Pose(np.eye(3), [0.0, 2.0, 0.0])
        out = a.compose(b)
        assert np.allclose(out.translation, [1.0, 2.0, 0.0])

    def test_compose_applies_right_pose_first(self):
        rng = np.random.default_rng(15)
        a, b = random_poses(rng, 2)
        points = rng.normal(size=(5, 3))
        assert np.allclose(a.compose(b).apply(points), a.apply(b.apply(points)), atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b, c = random_poses(rng, 3)
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert np.abs(left.rotation - right.rotation).max() < 1e-12
            assert np.abs(left.translation - right.translation).max() < 1e-12

    def test_determinant_preserved_over_many_compositions(self):
        rng = np.random.default_rng(7)
        pose = geo.Pose.identity()
        step = geo.Pose(geo.so3_exp(rng.normal(size=3) * 0.05), rng.uniform(-0.1, 0.1, 3))
        for i in range(10_000):
            pose = pose.compose(step)
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
        pose = random_poses(rng, 1)[0]
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
        pose = random_poses(rng, 1)[0]
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
        for pose in random_poses(rng, 50):
            rot = pose.rotation
            qx, qy, qz, qw = geo.rotation_to_quat(rot)
            back = geo.quat_to_rotation(qx, qy, qz, qw)
            assert np.abs(back - rot).max() < 1e-12

    def test_canonical_sign(self):
        rng = np.random.default_rng(13)
        for pose in random_poses(rng, 20):
            _, _, _, qw = geo.rotation_to_quat(pose.rotation)
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


class TestRoundTripProperties:
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
