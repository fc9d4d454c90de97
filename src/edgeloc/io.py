"""Dataset file formats: binary PGM rasters, trajectory text files,
intrinsics, and the initial-pose record.

Trajectory lines are ``<frame_id> <tx> <ty> <tz> <qx> <qy> <qz> <qw>``
(Hamilton quaternion, camera-to-world). The same format is used for
odometry input, ground truth, and estimated output.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, Pose, quat_to_rotation, rotation_to_quat


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write an 8-bit single-channel image as binary (P5) PGM."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        if image.max(initial=0) > 255 or image.min(initial=0) < 0:
            raise ValueError("image values outside uint8 range")
        image = image.astype(np.uint8)
    height, width = image.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(image.tobytes())


_PGM_HEADER = re.compile(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s")


def _pgm_header(data: bytes, path) -> tuple[int, int, int]:
    """(height, width, pixel offset) from the header at the start of ``data``."""
    match = _PGM_HEADER.match(data)
    if not match:
        raise ValueError(f"{path}: not a binary P5 PGM")
    width, height, maxval = (int(g) for g in match.groups())
    if maxval > 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    return height, width, match.end()


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM."""
    data = Path(path).read_bytes()
    height, width, offset = _pgm_header(data, path)
    if len(data) - offset < width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset).reshape(height, width).copy()


def read_pgm_shape(path: str | Path) -> tuple[int, int]:
    """(height, width) of a binary (P5) 8-bit PGM, read from its header alone."""
    with open(path, "rb") as handle:
        data = handle.read(4096)
        if not _PGM_HEADER.match(data):
            data += handle.read()  # a header longer than the first block, or none
    return _pgm_header(data, path)[:2]


def format_pose_line(frame_id: int, pose: Pose) -> str:
    qx, qy, qz, qw = rotation_to_quat(pose.rotation)
    tx, ty, tz = pose.translation
    return (
        f"{frame_id} {tx:.9f} {ty:.9f} {tz:.9f} "
        f"{qx:.9f} {qy:.9f} {qz:.9f} {qw:.9f}"
    )


def parse_pose_line(line: str) -> tuple[int, Pose]:
    tokens = line.split()
    if len(tokens) != 8:
        raise ValueError(f"expected 8 fields, got {len(tokens)}: {line!r}")
    frame_id = int(tokens[0])
    values = [float(tok) for tok in tokens[1:]]
    if not all(math.isfinite(value) for value in values):
        raise ValueError(f"non-finite pose value: {line!r}")
    tx, ty, tz, qx, qy, qz, qw = values
    return frame_id, Pose(quat_to_rotation(qx, qy, qz, qw), np.array([tx, ty, tz]))


def write_trajectory(path: str | Path, items: list[tuple[int, Pose]]) -> None:
    text = "".join(format_pose_line(fid, pose) + "\n" for fid, pose in items)
    Path(path).write_text(text, encoding="ascii")


def _pose_lines(path: str | Path):
    """(frame_id, Pose) per non-comment line; errors, a repeated frame id
    among them, name ``path:line``."""
    first_line = {}
    for line_number, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            frame_id, pose = parse_pose_line(line)
            if frame_id in first_line:
                raise ValueError(f"frame {frame_id} repeats line {first_line[frame_id]}")
        except ValueError as err:
            raise ValueError(f"{path}:{line_number}: {err}") from None
        first_line[frame_id] = line_number
        yield frame_id, pose


def read_trajectory(path: str | Path) -> dict[int, Pose]:
    """Read a trajectory file into an ordered frame_id -> Pose mapping."""
    return dict(_pose_lines(path))


def write_intrinsics(path: str | Path, intrinsics: CameraIntrinsics) -> None:
    k = intrinsics
    Path(path).write_text(
        f"{k.fx:.9f} {k.fy:.9f} {k.cx:.9f} {k.cy:.9f} {k.width} {k.height}\n",
        encoding="ascii",
    )


def read_intrinsics(path: str | Path) -> CameraIntrinsics:
    """The first non-comment line, ``fx fy cx cy width height``; errors name ``path:line``."""
    for line_number, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if len(tokens) != 6:
                raise ValueError("expected 'fx fy cx cy width height'")
            fx, fy, cx, cy = (float(tok) for tok in tokens[:4])
            return CameraIntrinsics(fx, fy, cx, cy, width=int(tokens[4]), height=int(tokens[5]))
        except ValueError as err:
            raise ValueError(f"{path}:{line_number}: {err}") from None
    raise ValueError(f"{path}: empty intrinsics file")


def read_initial_pose(path: str | Path) -> tuple[int, Pose]:
    for item in _pose_lines(path):
        return item
    raise ValueError(f"{path}: empty initial-pose file")
