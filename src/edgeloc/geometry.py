"""Rigid-body transforms on SE(3) and the pinhole camera model.

Conventions used throughout the package:
  - A Pose (R, t) maps points from its own frame into the parent frame:
    p_parent = R @ p_own + t.
  - Image coordinates are (u, v) with u along the width axis and v along the
    height axis; arrays are indexed [v, u].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points closer than this to the camera plane are considered degenerate.
MIN_PROJECTION_DEPTH = 1e-6

# Below this rotation angle so3_exp switches to its 2nd-order series.
SMALL_ANGLE = 1e-8

_ORTHONORMAL_GUARD = 1e-6


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


_IDENTITY = np.eye(3)
_IDENTITY.setflags(write=False)


def so3_exp(theta: np.ndarray) -> np.ndarray:
    """Rotation matrix for a rotation vector, via the Rodrigues formula
    I + a K + b K^2 with K = skew(theta); below SMALL_ANGLE, a = 1 and
    b = 1/2 (the 2nd-order series)."""
    theta = np.asarray(theta, dtype=float)
    angle = math.sqrt(theta @ theta)
    k = skew(theta)
    k2 = k @ k
    if angle < SMALL_ANGLE:
        a, b = 1.0, 0.5
    else:
        a = math.sin(angle) / angle
        b = (1.0 - math.cos(angle)) / (angle * angle)
    return _IDENTITY + a * k + b * k2


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: 3x3 rotation plus 3-vector translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.array(self.rotation, dtype=float)
        translation = np.array(self.translation, dtype=float).reshape(3)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        err = np.abs(rotation.T @ rotation - np.eye(3)).max()
        # Written so that a NaN error fails the guard.
        if not err <= _ORTHONORMAL_GUARD or np.linalg.det(rotation) < 0.0:
            raise ValueError(f"rotation is not orthonormal (error {err:.3e})")
        if not np.isfinite(translation).all():
            raise ValueError(f"translation must be finite, got {translation}")
        rotation.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def _trusted(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """A Pose from a float64 (3, 3) rotation and (3,) translation that are
        known to be valid, such as an orthonormal R times so3_exp: no copy and
        no check. The arrays are made read-only, as in a checked Pose."""
        rotation.setflags(write=False)
        translation.setflags(write=False)
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) array into the parent frame."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.translation + self.rotation @ other.translation,
        )

    def inverse(self) -> "Pose":
        rot_t = self.rotation.T
        return Pose(rot_t, -rot_t @ self.translation)


def orthonormalize(pose: Pose) -> Pose:
    """Project the rotation back onto SO(3) via polar decomposition."""
    u, _, vt = np.linalg.svd(pose.rotation)
    if np.linalg.det(u @ vt) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    return Pose(u @ vt, pose.translation)


def rotation_angle(rotation: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, in radians."""
    cos_angle = min(1.0, max(-1.0, 0.5 * (np.trace(rotation) - 1.0)))
    return math.acos(cos_angle)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics for undistorted images. Units: pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError("fx, fy, cx and cy must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def project_points(points: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel coordinates (u, v) of camera-frame points (..., 3), and which of
    them are in front of the camera. Where ``in_front`` is False, u and v
    hold garbage and must be masked by the caller."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    in_front = z > MIN_PROJECTION_DEPTH
    safe_z = np.where(in_front, z, 1.0)
    u = intrinsics.fx * points[..., 0] / safe_z + intrinsics.cx
    v = intrinsics.fy * points[..., 1] / safe_z + intrinsics.cy
    return u, v, in_front


def quat_to_rotation(qx: float, qy: float, qz: float, qw: float) -> np.ndarray:
    """Rotation matrix from a Hamilton quaternion (x, y, z, w order)."""
    norm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    if norm < 1e-12:
        raise ValueError("zero-norm quaternion")
    if norm == math.inf:
        raise ValueError("quaternion norm overflows")
    x, y, z, w = qx / norm, qy / norm, qz / norm, qw / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(rotation: np.ndarray) -> tuple[float, float, float, float]:
    """Quaternion (x, y, z, w) of a rotation matrix, with qw >= 0 canonical sign."""
    r = np.asarray(rotation, dtype=float)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        w = 0.25 * s
        x = (r[2, 1] - r[1, 2]) / s
        y = (r[0, 2] - r[2, 0]) / s
        z = (r[1, 0] - r[0, 1]) / s
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        w = (r[2, 1] - r[1, 2]) / s
        x = 0.25 * s
        y = (r[0, 1] + r[1, 0]) / s
        z = (r[0, 2] + r[2, 0]) / s
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        w = (r[0, 2] - r[2, 0]) / s
        x = (r[0, 1] + r[1, 0]) / s
        y = 0.25 * s
        z = (r[1, 2] + r[2, 1]) / s
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        w = (r[1, 0] - r[0, 1]) / s
        x = (r[0, 2] + r[2, 0]) / s
        y = (r[1, 2] + r[2, 1]) / s
        z = 0.25 * s
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / norm, y / norm, z / norm, w / norm
    if w < 0.0:
        x, y, z, w = -x, -y, -z, -w
    return (x, y, z, w)


def euler_zyx(rotation: np.ndarray) -> tuple[float, float, float]:
    """Z-Y-X Euler angles (yaw, pitch, roll) in radians, R = Rz @ Ry @ Rx."""
    r = np.asarray(rotation, dtype=float)
    pitch = math.asin(min(1.0, max(-1.0, -r[2, 0])))
    if abs(r[2, 0]) < 1.0 - 1e-9:
        yaw = math.atan2(r[1, 0], r[0, 0])
        roll = math.atan2(r[2, 1], r[2, 2])
    else:
        yaw = math.atan2(-r[0, 1], r[1, 1])
        roll = 0.0
    return yaw, pitch, roll


def rotation_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation matrix from Z-Y-X Euler angles: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return so3_exp([0.0, 0.0, yaw]) @ so3_exp([0.0, pitch, 0.0]) @ so3_exp([roll, 0.0, 0.0])
