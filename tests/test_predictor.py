import numpy as np
import pytest

from edgeloc.geometry import Pose, orthonormalize, so3_exp
from edgeloc.predictor import AnchorNotSet, MissingFrame, PosePredictor


def pose_of(tx, ty=0.0, tz=0.0, yaw=0.0):
    return Pose(so3_exp([0.0, 0.0, yaw]), [tx, ty, tz])


def random_pose(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Pose(so3_exp(axis * rng.uniform(0, 2.0)), rng.uniform(-5, 5, 3))


class TestPredict:
    def test_identity_delta_returns_anchor(self):
        odom = pose_of(7.0, yaw=0.3)
        p = PosePredictor({0: odom, 1: odom})  # no motion between frames
        anchor = pose_of(100.0, 5.0, yaw=1.0)
        p.set_anchor(0, anchor)
        prior = p.predict_prior(1)
        assert np.allclose(prior.rotation, anchor.rotation, atol=1e-12)
        assert np.allclose(prior.translation, anchor.translation, atol=1e-12)

    def test_direct_substitution(self):
        # anchor R=I, t=0; odometry delta t=(1,0,0) -> prior t=(1,0,0)
        p = PosePredictor({0: Pose.identity(), 1: pose_of(1.0)})
        p.set_anchor(0, Pose.identity())
        prior = p.predict_prior(1)
        assert np.allclose(prior.translation, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(prior.rotation, np.eye(3), atol=1e-12)

    def test_pose_added_after_construction_is_predicted(self):
        odometry = {0: Pose.identity()}
        p = PosePredictor(odometry)
        p.set_anchor(0, pose_of(10.0))
        odometry[1] = pose_of(1.0)  # a live feed adds the next frame's pose
        prior = p.predict_prior(1)
        assert np.allclose(prior.translation, [11.0, 0.0, 0.0], atol=1e-12)

    def test_prediction_skips_dropped_frames(self):
        # Oracle: composing the anchor with the direct odometry delta 1->3.
        rng = np.random.default_rng(0)
        odom = {fid: random_pose(rng) for fid in (1, 2, 3)}
        anchor = random_pose(rng)
        p = PosePredictor(odom)
        p.set_anchor(1, anchor)
        # frame 2 dropped: never committed
        prior = p.predict_prior(3)
        oracle = anchor.compose(odom[1].inverse().compose(odom[3]))
        assert np.abs(prior.rotation - oracle.rotation).max() < 1e-12
        assert np.abs(prior.translation - oracle.translation).max() < 1e-12

    def test_exact_prediction_with_exact_odometry(self):
        # With odometry equal to ground truth (up to a gauge) and exact
        # anchors, prediction reproduces ground truth regardless of drops.
        rng = np.random.default_rng(1)
        gauge = random_pose(rng)
        gt = {fid: random_pose(rng) for fid in range(6)}
        p = PosePredictor({fid: gauge.compose(gt[fid]) for fid in range(6)})
        p.set_anchor(0, gt[0])
        for fid in (3, 5):  # frames 1, 2, 4 dropped
            prior = p.predict_prior(fid)
            assert np.abs(prior.translation - gt[fid].translation).max() < 1e-9
            assert np.abs(prior.rotation - gt[fid].rotation).max() < 1e-10

    def test_prior_at_anchored_frame_is_anchor(self):
        rng = np.random.default_rng(2)
        p = PosePredictor({4: random_pose(rng)})
        anchor = random_pose(rng)
        p.set_anchor(4, anchor)
        prior = p.predict_prior(4)
        assert np.abs(prior.translation - anchor.translation).max() < 1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(3)
        odom = {fid: random_pose(rng) for fid in range(4)}
        anchor = random_pose(rng)
        gauge = random_pose(rng)

        def predict(prefix):
            p = PosePredictor({fid: prefix.compose(odom[fid]) if prefix else odom[fid] for fid in range(4)})
            p.set_anchor(0, anchor)
            return p.predict_prior(3)

        plain = predict(None)
        gauged = predict(gauge)
        assert np.abs(plain.translation - gauged.translation).max() < 1e-9
        assert np.abs(plain.rotation - gauged.rotation).max() < 1e-10

    def test_missing_frame_raises(self):
        p = PosePredictor({0: Pose.identity()})
        p.set_anchor(0, Pose.identity())
        with pytest.raises(MissingFrame):
            p.predict_prior(9)

    def test_anchor_not_set_raises(self):
        p = PosePredictor({0: Pose.identity()})
        with pytest.raises(AnchorNotSet):
            p.predict_prior(0)


class TestCommit:
    def test_accept_moves_anchor(self):
        p = PosePredictor({fid: pose_of(fid) for fid in range(6)})
        p.set_anchor(0, Pose.identity())
        target = pose_of(50.0)
        p.commit(5, target)
        assert p.anchor_pose is target
        assert np.allclose(p.predict_prior(5).translation, target.translation)

    def test_accept_reject_accept_sequence(self):
        p = PosePredictor({fid: pose_of(fid) for fid in range(4)})
        p.set_anchor(0, Pose.identity())
        p.commit(1, pose_of(101.0))
        # frame 2 rejected: the pipeline does not commit it
        last = pose_of(103.0)
        p.commit(3, last)
        assert p.anchor_pose is last
        assert np.allclose(p.predict_prior(3).translation, [103.0, 0.0, 0.0])

    def test_commit_missing_frame_raises(self):
        p = PosePredictor({0: Pose.identity()})
        p.set_anchor(0, Pose.identity())
        with pytest.raises(MissingFrame):
            p.commit(3, Pose.identity())

    def test_every_hundredth_commit_is_orthonormalized(self):
        # A rotation 1e-9 off SO(3): within Pose's guard, and moved by orthonormalize.
        skewed = Pose(so3_exp([0.1, -0.2, 0.3]) + 1e-9 * np.arange(9.0).reshape(3, 3), [1.0, 2.0, 3.0])
        projected = orthonormalize(skewed)
        assert projected.rotation.tobytes() != skewed.rotation.tobytes()
        p = PosePredictor({fid: pose_of(fid) for fid in range(101)})
        p.set_anchor(0, Pose.identity())
        for fid in range(1, 100):
            p.commit(fid, skewed)
        assert p.anchor_pose.rotation.tobytes() == skewed.rotation.tobytes()  # commit 99
        p.commit(100, skewed)
        assert p.anchor_pose.rotation.tobytes() == projected.rotation.tobytes()
        assert p.anchor_pose.translation.tobytes() == projected.translation.tobytes()


class TestDriftRate:
    """predicted_error_m is d * r: d the odometry distance from the anchor to
    the prior, r the largest |estimate.t - prior.t| / d over the last 5
    accepted frames whose anchor was accepted too."""

    def test_no_rate_before_a_second_accepted_frame(self):
        # Unit steps along x. The first commit replaces the unchecked initial
        # pose, so it records no rate; the second records 0.02 / 1.
        p = PosePredictor({fid: pose_of(fid) for fid in range(4)})
        p.set_anchor(0, Pose.identity())
        assert p.predicted_error_m(p.predict_prior(1)) is None
        p.commit(1, pose_of(1.5))
        assert p.predicted_error_m(p.predict_prior(2)) is None
        p.commit(2, pose_of(2.52))
        assert p.predicted_error_m(p.predict_prior(3)) == pytest.approx(0.02)
        assert p.predicted_error_m(p.predict_prior(2)) == 0.0  # d = 0 at the anchor

    def test_no_rate_when_the_odometry_did_not_move(self):
        odometry = {0: pose_of(0.0), 1: pose_of(1.0), 2: pose_of(1.0, yaw=0.2), 3: pose_of(3.0)}
        p = PosePredictor(odometry)
        p.set_anchor(0, Pose.identity())
        p.commit(1, pose_of(1.0))
        p.commit(2, pose_of(1.3))  # d = 0: turned in place, no rate for 0.3 m
        assert p.predicted_error_m(p.predict_prior(3)) is None

    def test_rate_is_the_largest_of_the_last_five(self):
        # Unit steps along x, each fix ``rate`` m ahead of its prior: the 0.5
        # leaves the window of five with the sixth rate.
        rates = (0.5, 0.1, 0.2, 0.1, 0.1, 0.1)
        p = PosePredictor({fid: pose_of(fid) for fid in range(len(rates) + 4)})
        p.set_anchor(0, Pose.identity())
        p.commit(1, pose_of(1.0))
        seen = []
        for fid, rate in enumerate(rates, start=2):
            p.commit(fid, pose_of(p.predict_prior(fid).translation[0] + rate))
            seen.append(p.predicted_error_m(p.predict_prior(fid + 1)))  # d = 1
        assert seen == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.5, 0.2])
        assert p.predicted_error_m(p.predict_prior(len(rates) + 3)) == pytest.approx(2 * 0.2)  # d = 2
