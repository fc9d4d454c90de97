"""Prior-pose prediction from buffered odometry and the last reliable fix.

Odometry arrives as per-frame poses in the odometry module's own arbitrary
frame. The prior for frame r is the last accepted global pose composed with
the relative odometry motion anchor->r, which makes prediction exact across
any run of dropped frames and invariant to the odometry gauge.
"""

from __future__ import annotations

from collections import OrderedDict

from .geometry import Pose, orthonormalize

DEFAULT_WINDOW = 1000
_REORTHONORMALIZE_EVERY = 100


class OutOfOrderFrame(ValueError):
    """Odometry frame ids must be strictly increasing."""


class MissingFrame(KeyError):
    """Requested frame id has no buffered odometry."""


class AnchorNotSet(RuntimeError):
    """predict_prior called before an initial global pose was provided."""


class PosePredictor:
    """Single-writer predictor state; reads are safe when no writer is active."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._odometry: OrderedDict[int, Pose] = OrderedDict()
        self._anchor_frame: int | None = None
        self._anchor_pose: Pose | None = None
        self._anchor_odometry: Pose | None = None
        self._commits = 0

    @property
    def anchor_frame(self) -> int | None:
        return self._anchor_frame

    @property
    def anchor_pose(self) -> Pose | None:
        return self._anchor_pose

    def buffered_frames(self) -> tuple[int, ...]:
        return tuple(self._odometry.keys())

    def push_odometry(self, frame_id: int, pose: Pose) -> None:
        """Buffer the odometry pose of a new frame; trims to the window."""
        if self._odometry:
            last = next(reversed(self._odometry))
            if frame_id <= last:
                raise OutOfOrderFrame(f"frame {frame_id} pushed after frame {last}")
        self._odometry[frame_id] = pose
        while len(self._odometry) > self.window:
            self._odometry.popitem(last=False)

    def set_anchor(self, frame_id: int, pose: Pose) -> None:
        """Install the externally supplied initial global pose."""
        if frame_id not in self._odometry:
            raise MissingFrame(f"no odometry buffered for frame {frame_id}")
        self._anchor_frame = frame_id
        self._anchor_pose = pose
        self._anchor_odometry = self._odometry[frame_id]

    def predict_prior(self, frame_id: int) -> Pose:
        """Prior global pose for a frame: anchor composed with odometry delta."""
        if self._anchor_pose is None or self._anchor_odometry is None:
            raise AnchorNotSet("no initial global pose committed yet")
        if frame_id not in self._odometry:
            raise MissingFrame(f"no odometry buffered for frame {frame_id}")
        delta = self._anchor_odometry.inverse().compose(self._odometry[frame_id])
        return self._anchor_pose.compose(delta)

    def commit(self, frame_id: int, pose: Pose) -> None:
        """Record an accepted localization result: it becomes the anchor."""
        if frame_id not in self._odometry:
            raise MissingFrame(f"no odometry buffered for frame {frame_id}")
        self._commits += 1
        if self._commits % _REORTHONORMALIZE_EVERY == 0:
            pose = orthonormalize(pose)
        self._anchor_frame = frame_id
        self._anchor_pose = pose
        self._anchor_odometry = self._odometry[frame_id]
