"""Rigid-body transforms on SE(3), se(3) exp/log maps, and the pinhole camera model.

Conventions used throughout the package:
  - A Pose (R, t) maps points from its own frame into the parent frame:
    p_parent = R @ p_own + t.
  - Twists are 6-vectors with the translational part first: xi = [rho, theta],
    rho in meters, theta in radians.
  - Image coordinates are (u, v) with u along the width axis and v along the
    height axis; arrays are indexed [v, u].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A twist is a plain 6-vector [rho, theta]: translational part first
# (meters), rotational part second (radians).
Twist = np.ndarray

# Points closer than this to the camera plane are considered degenerate.
MIN_PROJECTION_DEPTH = 1e-6

# Below this rotation angle the exp/log maps switch to 2nd-order series.
SMALL_ANGLE = 1e-8

_ORTHONORMAL_GUARD = 1e-6


class PointBehindCamera(ValueError):
    """Raised when projecting a point at or behind the camera plane."""


class RotationNearPi(ValueError):
    """Raised by the log map for rotations too close to 180 degrees."""


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(theta: np.ndarray) -> np.ndarray:
    """Rotation matrix for a rotation vector, via the Rodrigues formula."""
    theta = np.asarray(theta, dtype=float)
    angle = math.sqrt(float(theta @ theta))
    k = skew(theta)
    k2 = k @ k
    if angle < SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * k2
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return np.eye(3) + a * k + b * k2


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix.

    The angle is atan2(|w|, (tr R - 1) / 2), where w = sin(angle) * axis is
    the antisymmetric part of R. Past a quarter turn the axis comes from the
    symmetric part, with its sign from w. Raises RotationNearPi within 1e-6
    rad of a half turn, where that sign becomes numerically ambiguous.
    """
    r = np.asarray(rotation, dtype=float)
    w = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_angle = math.sqrt(float(w @ w))
    cos_angle = 0.5 * (np.trace(r) - 1.0)
    angle = math.atan2(sin_angle, cos_angle)
    if angle > math.pi - 1e-6:
        raise RotationNearPi(f"rotation angle {angle:.9f} rad is too close to pi")
    if angle < SMALL_ANGLE:
        return w
    if angle <= 0.5 * math.pi:
        return w * (angle / sin_angle)
    # (R + R^T) / 2 - cos(angle) I = (1 - cos(angle)) axis axis^T; its column with
    # the largest diagonal entry is the best-conditioned multiple of the axis.
    outer = 0.5 * (r + r.T) - cos_angle * np.eye(3)
    axis = outer[:, np.argmax(np.diag(outer))]
    return axis * (math.copysign(angle, float(axis @ w)) / math.sqrt(float(axis @ axis)))


# The closed-form V / V^-1 coefficients divide differences of cosines by
# angle powers and lose all precision below ~1e-3 rad; the series below are
# accurate to ~1e-12 at the 1e-2 switch point.
_JACOBIAN_SERIES_ANGLE = 1e-2


def _so3_left_jacobian(theta: np.ndarray) -> np.ndarray:
    angle = math.sqrt(float(theta @ theta))
    k = skew(theta)
    k2 = k @ k
    a2 = angle * angle
    if angle < _JACOBIAN_SERIES_ANGLE:
        c1 = 0.5 - a2 / 24.0 + a2 * a2 / 720.0
        c2 = 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0
    else:
        c1 = (1.0 - math.cos(angle)) / a2
        c2 = (angle - math.sin(angle)) / (a2 * angle)
    return np.eye(3) + c1 * k + c2 * k2


def _so3_left_jacobian_inv(theta: np.ndarray) -> np.ndarray:
    angle = math.sqrt(float(theta @ theta))
    k = skew(theta)
    k2 = k @ k
    a2 = angle * angle
    if angle < _JACOBIAN_SERIES_ANGLE:
        c = 1.0 / 12.0 + a2 / 720.0 + a2 * a2 / 30240.0
    else:
        c = (1.0 - (angle * math.sin(angle)) / (2.0 * (1.0 - math.cos(angle)))) / a2
    return np.eye(3) - 0.5 * k + c * k2


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

    def matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out


def compose(a: Pose, b: Pose) -> Pose:
    return a.compose(b)


def inverse(pose: Pose) -> Pose:
    return pose.inverse()


def exp(xi: np.ndarray) -> Pose:
    """se(3) exponential map of a twist [rho, theta]."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    rho, theta = xi[:3], xi[3:]
    return Pose(so3_exp(theta), _so3_left_jacobian(theta) @ rho)


def log(pose: Pose) -> np.ndarray:
    """se(3) logarithm; inverse of exp for rotation angles below pi."""
    theta = so3_log(pose.rotation)
    rho = _so3_left_jacobian_inv(theta) @ pose.translation
    return np.concatenate([rho, theta])


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


def project(point: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[float, float]:
    """Project a camera-frame 3D point to sub-pixel image coordinates."""
    x, y, z = np.asarray(point, dtype=float)
    if z <= MIN_PROJECTION_DEPTH:
        raise PointBehindCamera(f"point depth {z:.3e} m is at or behind the camera")
    return (
        intrinsics.fx * x / z + intrinsics.cx,
        intrinsics.fy * y / z + intrinsics.cy,
    )


def project_points(points: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of (N, 3) camera-frame points.

    Returns (uv, valid); rows of uv with valid == False hold garbage and
    must be masked by the caller.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    z = points[:, 2]
    valid = z > MIN_PROJECTION_DEPTH
    safe_z = np.where(valid, z, 1.0)
    uv = np.empty((points.shape[0], 2))
    uv[:, 0] = intrinsics.fx * points[:, 0] / safe_z + intrinsics.cx
    uv[:, 1] = intrinsics.fy * points[:, 1] / safe_z + intrinsics.cy
    return uv, valid


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
