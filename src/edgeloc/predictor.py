"""Prior-pose prediction from the run's odometry and the last reliable fix.

Odometry arrives as per-frame poses in the odometry module's own arbitrary
frame. The prior for frame r is the last accepted global pose composed with
the relative odometry motion anchor->r, which makes prediction exact across
any run of dropped frames and invariant to the odometry gauge.

The prior's predicted error is d * r: d is the odometry distance from the
anchor to the prior, and r the drift rate, estimated online from the
innovations (Mehra, IEEE TAC 1970) as the largest ``|estimate.t - prior.t| / d``
over the last ``_RATE_WINDOW`` accepted frames whose anchor was itself an
accepted frame.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping

from .geometry import Pose, orthonormalize

_REORTHONORMALIZE_EVERY = 100
_RATE_WINDOW = 5


class MissingFrame(KeyError):
    """Requested frame id has no odometry."""


class AnchorNotSet(RuntimeError):
    """predict_prior called before an initial global pose was provided."""


class PosePredictor:
    """Single-writer predictor state over a frame id -> odometry pose mapping.

    The mapping is read, never copied: a live feed may keep adding poses to
    it. Frame order is the caller's to keep (the dataset manifest lists the
    frames in increasing id order). Reads are safe when no writer is active.
    """

    def __init__(self, odometry: Mapping[int, Pose]):
        self._odometry = odometry
        self._anchor_pose: Pose | None = None
        self._anchor_odometry: Pose | None = None
        self._anchor_accepted = False  # the initial pose is unchecked
        self._commits = 0
        self._rates: deque[float] = deque(maxlen=_RATE_WINDOW)

    @property
    def anchor_pose(self) -> Pose | None:
        return self._anchor_pose

    def _odometry_of(self, frame_id: int) -> Pose:
        try:
            return self._odometry[frame_id]
        except KeyError:
            raise MissingFrame(f"no odometry for frame {frame_id}") from None

    def set_anchor(self, frame_id: int, pose: Pose) -> None:
        """Install the externally supplied initial global pose."""
        self._anchor_odometry = self._odometry_of(frame_id)
        self._anchor_pose = pose
        self._anchor_accepted = False

    def predict_prior(self, frame_id: int) -> Pose:
        """Prior global pose for a frame: anchor composed with odometry delta."""
        return self._prior(frame_id)

    def _prior(self, frame_id: int) -> Pose:
        # ``commit`` predicts through here, so ``predict_prior`` is called
        # once per frame, by the frame loop (perfbench counts its calls).
        if self._anchor_pose is None or self._anchor_odometry is None:
            raise AnchorNotSet("no initial global pose committed yet")
        delta = self._anchor_odometry.inverse().compose(self._odometry_of(frame_id))
        return self._anchor_pose.compose(delta)

    def _distance(self, prior: Pose) -> float:
        """d: the odometry distance from the anchor to ``prior``."""
        return math.hypot(*(prior.translation - self._anchor_pose.translation))

    def predicted_error_m(self, prior: Pose) -> float | None:
        """d * r for a prior this predictor gave from its current anchor;
        None while no drift rate has been recorded."""
        if not self._rates:
            return None
        return self._distance(prior) * max(self._rates)

    def commit(self, frame_id: int, pose: Pose) -> None:
        """Record an accepted localization result: it becomes the anchor.

        When the anchor it replaces was an accepted frame too, and the
        odometry moved (d > 0), the drift rate ``|pose.t - prior.t| / d`` is
        recorded for ``predicted_error_m``.
        """
        odometry = self._odometry_of(frame_id)
        if self._anchor_accepted:
            prior = self._prior(frame_id)
            distance = self._distance(prior)
            if distance > 0.0:
                self._rates.append(math.hypot(*(pose.translation - prior.translation)) / distance)
        self._anchor_accepted = True
        self._commits += 1
        if self._commits % _REORTHONORMALIZE_EVERY == 0:
            pose = orthonormalize(pose)
        self._anchor_pose = pose
        self._anchor_odometry = odometry
