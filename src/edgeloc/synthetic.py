"""Synthetic verification scenes: compact maps with known landmark mixes,
smooth ground-truth trajectories, rendered per-frame semantic edge rasters,
and drifting odometry.

All randomness flows from a single 64-bit seed through counter-based
Philox streams keyed by (seed, purpose, index), so scenes and rendered
frames are reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compact_map import (
    CompactMap,
    LineSegmentLandmark,
    SemanticLabel,
    WireframeLandmark,
    serialize_map,
)
from .config import PipelineConfig
from .geometry import CameraIntrinsics, Pose, rotation_zyx, so3_exp
from .io import format_pose_line, write_intrinsics, write_pgm, write_trajectory
from .selection import rasterize_occluders, rasterize_polygons, select_landmarks, visible_samples

# Philox stream purposes.
_STREAM_MAP = 1
_STREAM_RENDER = 2
_STREAM_ODOMETRY = 3

# Camera axes in the vehicle frame: z forward, x right, y down.
_CAM_IN_VEHICLE = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])

_RENDER_SPACING_PX = 0.45
# A scene is regenerated until every trajectory pose sees this many landmarks.
_MIN_LANDMARK_VISIBILITY = 8
# The dynamic wall: its distance ahead of the camera, its width and height (m).
_WALL_DISTANCE_M, _WALL_WIDTH_M, _WALL_HEIGHT_M = 6.0, 24.0, 14.0

PRESET_NAMES = ("urban-straight", "urban-corner", "sparse")

# Landmark mix per preset: lane lines dominate, wireframes are road marks
# and signs, a handful of poles and building edges.
_PRESET_COUNTS = {
    "urban-straight": {
        "lane_line": 315,
        "rectangle_mark": 81,
        "lamp_pole": 5,
        "traffic_sign": 5,
        "building_edge": 13,
    },
    "urban-corner": {
        "lane_line": 85,
        "rectangle_mark": 46,
        "lamp_pole": 3,
        "traffic_sign": 3,
        "building_edge": 7,
    },
    "sparse": {
        "lane_line": 40,
        "rectangle_mark": 26,
        "lamp_pole": 5,
        "traffic_sign": 3,
        "building_edge": 0,
    },
}

_ROAD_LENGTH = {"urban-straight": 300.0, "urban-corner": 160.0, "sparse": 150.0}

DEFAULT_INTRINSICS = CameraIntrinsics(fx=520.0, fy=520.0, cx=319.5, cy=199.5, width=640, height=400)


@dataclass(frozen=True)
class OccluderBox:
    """Axis-aligned dynamic box active over an inclusive frame window."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    first_frame: int
    last_frame: int

    def active(self, frame_id: int) -> bool:
        return self.first_frame <= frame_id <= self.last_frame

    def faces(self) -> np.ndarray:
        cx, cy, cz = self.center
        hx, hy, hz = (s / 2.0 for s in self.size)
        x0, x1 = cx - hx, cx + hx
        y0, y1 = cy - hy, cy + hy
        z0, z1 = cz - hz, cz + hz
        return np.array(
            [
                [[x0, y0, z0], [x0, y1, z0], [x0, y1, z1], [x0, y0, z1]],
                [[x1, y0, z0], [x1, y1, z0], [x1, y1, z1], [x1, y0, z1]],
                [[x0, y0, z0], [x1, y0, z0], [x1, y0, z1], [x0, y0, z1]],
                [[x0, y1, z0], [x1, y1, z0], [x1, y1, z1], [x0, y1, z1]],
                [[x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0]],
                [[x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1]],
            ]
        )


@dataclass(frozen=True)
class NoiseConfig:
    odometry_drift_per_m: float = 0.0
    edge_jitter_px: float = 0.0
    edge_dropout: float = 0.0
    occluders: tuple[OccluderBox, ...] = ()

    def __post_init__(self):
        # A negative or NaN drift or jitter would silently mean none.
        for name in ("odometry_drift_per_m", "edge_jitter_px", "edge_dropout"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.edge_dropout > 1:
            raise ValueError(f"edge_dropout must be <= 1, got {self.edge_dropout}")


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    preset: str
    seed: int
    compact_map: CompactMap
    trajectory: tuple[tuple[int, Pose], ...]
    intrinsics: CameraIntrinsics
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def pose_of(self, frame_id: int) -> Pose:
        for fid, pose in self.trajectory:
            if fid == frame_id:
                return pose
        raise ValueError(f"frame {frame_id} not in trajectory")


def _rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((purpose << 32) | index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quantize(values: np.ndarray) -> np.ndarray:
    """Snap coordinates to the map format's 6-decimal (micrometer) grid."""
    return np.round(np.asarray(values, dtype=float), 6)


def _split_count(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


def _centerline(preset: str, s: float) -> tuple[float, float, float]:
    """Road centerline position (x, y) and heading at arclength s."""
    if preset != "urban-corner":
        return s, 0.0, 0.0
    leg = 20.0
    radius = 15.0
    arc = radius * math.pi / 2.0
    if s <= leg:
        return s, 0.0, 0.0
    if s <= leg + arc:
        phi = (s - leg) / radius
        return leg + radius * math.sin(phi), radius * (1.0 - math.cos(phi)), phi
    extra = s - leg - arc
    return leg + radius, radius + extra, math.pi / 2.0


def _lateral(heading: float) -> np.ndarray:
    """Unit vector 90 degrees left of the heading, in the ground plane."""
    return np.array([-math.sin(heading), math.cos(heading), 0.0])


def _path_point(preset: str, s: float, offset: float) -> np.ndarray:
    x, y, heading = _centerline(preset, s)
    return np.array([x, y, 0.0]) + offset * _lateral(heading)


def _build_map(preset: str, counts: dict[str, int], rng: np.random.Generator) -> CompactMap:
    labels = (
        SemanticLabel("lane_line", "road"),
        SemanticLabel("rectangle_mark", "road"),
        SemanticLabel("lamp_pole", "nonroad"),
        SemanticLabel("traffic_sign", "nonroad"),
        SemanticLabel("building_edge", "nonroad"),
    )
    by_name = {lab.name: lab for lab in labels}
    road_length = _ROAD_LENGTH[preset]
    landmarks: list = []
    # Lane lines: outer boundaries solid (abutting segments), inner lines
    # dashed. Dash ends anchor the along-road direction.
    lane_offsets = [-5.25, -1.75, 1.75, 5.25]
    dashed = {-1.75, 1.75}
    per_line = _split_count(counts["lane_line"], len(lane_offsets))
    for offset, n_segments in zip(lane_offsets, per_line):
        if n_segments == 0:
            continue
        breaks = np.linspace(0.0, road_length, n_segments + 1)
        breaks[1:-1] += rng.uniform(-0.3, 0.3, size=max(0, n_segments - 1))
        for i in range(n_segments):
            s0, s1 = breaks[i], breaks[i + 1]
            if offset in dashed:
                s1 = s0 + 0.55 * (s1 - s0)  # dash + gap
            p0 = _path_point(preset, s0, offset + rng.normal(0.0, 0.02))
            p1 = _path_point(preset, s1, offset + rng.normal(0.0, 0.02))
            lane = LineSegmentLandmark(by_name["lane_line"], _quantize(p0), _quantize(p1), landmark_id=len(landmarks))
            landmarks.append(lane)

    # Rectangle marks: crosswalk-style stripes, wide across the road and
    # short along it, cycling across lane centers. Each stripe is yawed a
    # few degrees so its projected edges cross pixel rows obliquely.
    n_rect = counts["rectangle_mark"]
    rect_lanes = [0.0, -3.5, 3.5]
    for i in range(n_rect):
        s = 3.0 + (road_length - 8.0) * i / max(1, n_rect - 1) + rng.uniform(-0.4, 0.4)
        offset = rect_lanes[i % len(rect_lanes)]
        along = 0.6
        across = 2.8
        x, y, heading = _centerline(preset, s)
        skewed = heading + (0.12 if i % 2 == 0 else -0.12) + rng.uniform(-0.04, 0.04)
        forward = np.array([math.cos(skewed), math.sin(skewed), 0.0])
        left = np.array([-math.sin(skewed), math.cos(skewed), 0.0])
        center = np.array([x, y, 0.0]) + offset * _lateral(heading)
        base = center - (across / 2.0) * left - (along / 2.0) * forward
        corners = np.array(
            [
                base,
                base + along * forward,
                base + along * forward + across * left,
                base + across * left,
            ]
        )
        landmarks.append(WireframeLandmark(by_name["rectangle_mark"], _quantize(corners), landmark_id=len(landmarks)))

    # Lamp poles: vertical segments on alternating roadsides.
    n_pole = counts["lamp_pole"]
    for i in range(n_pole):
        s = road_length * (i + 1.0) / (n_pole + 1.0) + rng.uniform(-2.0, 2.0)
        side = 6.5 if i % 2 == 0 else -6.5
        foot = _path_point(preset, s, side)
        height = 6.0 + rng.uniform(-0.5, 0.5)
        radius = 0.15 if i % 2 == 0 else None  # exercise the default-radius path
        landmarks.append(
            LineSegmentLandmark(
                by_name["lamp_pole"],
                _quantize(foot),
                _quantize(foot + np.array([0.0, 0.0, height])),
                pole_radius=radius,
                landmark_id=len(landmarks),
            )
        )

    # Traffic signs: vertical rectangles facing oncoming traffic.
    n_sign = counts["traffic_sign"]
    for i in range(n_sign):
        s = road_length * (i + 1.0) / (n_sign + 1.0) + rng.uniform(-2.0, 2.0)
        offset = 1.75 if i % 2 == 0 else -1.75
        x, y, heading = _centerline(preset, s)
        left = _lateral(heading)
        center = np.array([x, y, 0.0]) + offset * left
        z0 = 2.8
        half_w = 0.6
        corners = np.array(
            [
                center - half_w * left + np.array([0.0, 0.0, z0]),
                center + half_w * left + np.array([0.0, 0.0, z0]),
                center + half_w * left + np.array([0.0, 0.0, z0 + 0.8]),
                center - half_w * left + np.array([0.0, 0.0, z0 + 0.8]),
            ]
        )
        landmarks.append(WireframeLandmark(by_name["traffic_sign"], _quantize(corners), landmark_id=len(landmarks)))

    # Building edges: tall verticals set back from the road.
    n_building = counts["building_edge"]
    for i in range(n_building):
        s = road_length * (i + 1.0) / (n_building + 1.0) + rng.uniform(-3.0, 3.0)
        side = (10.0 + rng.uniform(0.0, 4.0)) * (1 if i % 2 == 0 else -1)
        foot = _path_point(preset, s, side)
        height = 8.0 + rng.uniform(0.0, 4.0)
        landmarks.append(
            LineSegmentLandmark(
                by_name["building_edge"],
                _quantize(foot),
                _quantize(foot + np.array([0.0, 0.0, height])),
                landmark_id=len(landmarks),
            )
        )

    return CompactMap(labels, tuple(landmarks))


def _build_trajectory(preset: str, n_frames: int) -> tuple[tuple[int, Pose], ...]:
    """Smooth drive along the road: gentle lane wander and attitude sway."""
    step = 0.5
    start = 4.0
    frames = []
    for k in range(n_frames):
        s = start + step * k
        x, y, heading = _centerline(preset, s)
        wander = 0.25 * math.sin(2.0 * math.pi * k / 60.0)
        position = np.array([x, y, 0.0]) + wander * _lateral(heading)
        position[2] = 1.55 + 0.01 * math.sin(2.0 * math.pi * k / 35.0)
        yaw = heading + 0.01 * math.cos(2.0 * math.pi * k / 60.0)
        pitch_down = 0.06 + 0.005 * math.sin(2.0 * math.pi * k / 25.0)
        roll = 0.003 * math.sin(2.0 * math.pi * k / 50.0)
        rotation = rotation_zyx(yaw, pitch_down, roll) @ _CAM_IN_VEHICLE
        frames.append((k, Pose(rotation, position)))
    return tuple(frames)


def generate_scene(
    seed: int,
    preset: str = "urban-straight",
    n_frames: int = 100,
    noise: NoiseConfig | None = None,
) -> SyntheticScene:
    """Deterministic synthetic scene for a preset landmark mix.

    Regenerates with a derived seed (up to 20 attempts) if any trajectory
    pose sees fewer than ``_MIN_LANDMARK_VISIBILITY`` landmarks.
    """
    if preset not in PRESET_NAMES:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESET_NAMES}")
    if n_frames < 1:
        raise ValueError(f"a scene needs at least 1 frame, got {n_frames}")
    noise = noise or NoiseConfig()
    trajectory = _build_trajectory(preset, n_frames)
    config = PipelineConfig()
    for attempt in range(20):
        rng = _rng(seed, _STREAM_MAP, attempt)
        compact_map = _build_map(preset, _PRESET_COUNTS[preset], rng)
        scene = SyntheticScene(preset, seed, compact_map, trajectory, DEFAULT_INTRINSICS, noise)
        visible_ok = True
        for _, pose in trajectory:
            samples = select_landmarks(compact_map, pose, scene.intrinsics, config)
            if len(samples.landmark_ids()) < _MIN_LANDMARK_VISIBILITY:
                visible_ok = False
                break
        if visible_ok:
            return scene
    raise RuntimeError(f"could not generate a scene with {_MIN_LANDMARK_VISIBILITY} visible landmarks per frame")


def make_occluder_wall(scene: SyntheticScene, first_frame: int, last_frame: int) -> OccluderBox:
    """A dynamic wall ahead of the camera over [first_frame, last_frame];
    ValueError unless that window is non-empty and inside the scene's frames."""
    frame_ids = [frame_id for frame_id, _ in scene.trajectory]
    if not min(frame_ids) <= first_frame <= last_frame <= max(frame_ids):
        raise ValueError(
            f"occluder window [{first_frame}, {last_frame}] is not inside the scene's frames "
            f"[{min(frame_ids)}, {max(frame_ids)}]"
        )
    mid = (first_frame + last_frame) // 2
    pose = scene.pose_of(mid)
    forward = pose.rotation @ np.array([0.0, 0.0, 1.0])
    center = pose.translation + _WALL_DISTANCE_M * forward
    return OccluderBox(
        center=(float(center[0]), float(center[1]), float(center[2])),
        size=(0.4, _WALL_WIDTH_M, _WALL_HEIGHT_M),
        first_frame=first_frame,
        last_frame=last_frame,
    )


def _render_boxes(boxes, pose: Pose, intrinsics: CameraIntrinsics, depth: np.ndarray) -> np.ndarray:
    """Rasterize active boxes into ``depth`` and return their silhouette mask."""
    box_depth = np.full(depth.shape, np.inf)
    faces = np.array([box.faces() for box in boxes]).reshape(-1, 4, 3)
    rasterize_polygons(box_depth, pose.inverse().apply(faces), intrinsics)
    # Depth fills are exact minima, so one min over the boxes' own buffer
    # equals filling every face into ``depth`` as well.
    np.minimum(depth, box_depth, out=depth)
    return np.isfinite(box_depth)


def render_frame(scene: SyntheticScene, frame_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Render (labels, edges, dynamic) rasters for one trajectory frame.

    Edge pixels are the depth-tested projections of landmark edges (1 px
    wide); the label raster holds 1-based registry indices at edge pixels;
    the dynamic raster is the silhouette of active occluder boxes.
    """
    pose = scene.pose_of(frame_id)
    intrinsics = scene.intrinsics
    config = PipelineConfig()
    height, width = intrinsics.height, intrinsics.width
    packed = scene.compact_map.packed

    depth = rasterize_occluders(packed, pose, intrinsics, config)[0]
    active_boxes = [box for box in scene.noise.occluders if box.active(frame_id)]
    dynamic = _render_boxes(active_boxes, pose, intrinsics, depth)

    points, owner, iv, iu = visible_samples(packed, pose, intrinsics, depth, spacing=_RENDER_SPACING_PX, config=config)
    # Where edges of different landmarks fall on the same pixel, the nearest
    # one owns the pixel's label, like a real segmentation would; ties go to
    # the earlier landmark.
    pixel = iv * width + iu
    order = np.lexsort((owner, points[:, 2], pixel))
    pixel, owner = pixel[order], owner[order]
    first = np.ones(pixel.shape, dtype=bool)
    first[1:] = pixel[1:] != pixel[:-1]
    label_index = (packed.label + 1).astype(np.uint8)
    edges = np.zeros((height, width), dtype=bool)
    labels = np.zeros((height, width), dtype=np.uint8)
    edges.flat[pixel[first]] = True
    labels.flat[pixel[first]] = label_index[owner[first]]

    if scene.noise.edge_jitter_px > 0.0 or scene.noise.edge_dropout > 0.0:
        rng = _rng(scene.seed, _STREAM_RENDER, frame_id)
        pix = np.argwhere(edges)  # (N, 2) as (v, u), row-major order
        values = labels[pix[:, 0], pix[:, 1]]
        if scene.noise.edge_jitter_px > 0.0:
            pix = jitter_pixels(pix, scene.noise.edge_jitter_px, rng, (height, width))
        if scene.noise.edge_dropout > 0.0:
            keep = rng.random(pix.shape[0]) >= scene.noise.edge_dropout
            pix, values = pix[keep], values[keep]
        edges = np.zeros((height, width), dtype=bool)
        labels = np.zeros((height, width), dtype=np.uint8)
        edges[pix[:, 0], pix[:, 1]] = True
        labels[pix[:, 0], pix[:, 1]] = values

    return labels, np.where(edges, 255, 0).astype(np.uint8), np.where(dynamic, 255, 0).astype(np.uint8)


def jitter_pixels(pixels: np.ndarray, sigma: float, rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Displace integer pixel coordinates by N(0, sigma^2) per axis and re-round."""
    offsets = rng.normal(0.0, sigma, size=pixels.shape)
    out = np.rint(pixels + offsets).astype(int)
    out[:, 0] = np.clip(out[:, 0], 0, shape[0] - 1)
    out[:, 1] = np.clip(out[:, 1], 0, shape[1] - 1)
    return out


def corrupt_odometry(trajectory, drift_rate: float, seed: int) -> str:
    """Odometry file content: gauged ground truth with random-walk drift.

    The accumulated drift magnitude grows roughly linearly with distance
    travelled at ``drift_rate`` (m per m), with a per-seed lognormal scale
    and white random-walk spread on top.
    """
    if drift_rate < 0.0:
        raise ValueError("drift_rate must be >= 0")
    rng = _rng(seed, _STREAM_ODOMETRY)
    gauge = Pose(
        so3_exp([0.0, 0.0, rng.uniform(0.0, 2.0 * math.pi)]),
        rng.uniform(-10.0, 10.0, size=3),
    )
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    scale = math.exp(rng.normal(0.0, 0.3))
    drift_translation = np.zeros(3)
    drift_yaw = 0.0
    previous = None
    lines = []
    for frame_id, pose in trajectory:
        if previous is not None and drift_rate > 0.0:
            ds = float(np.linalg.norm(pose.translation - previous))
            drift_translation = drift_translation + drift_rate * ds * (
                scale * direction + 0.35 * rng.normal(size=3)
            )
            drift_yaw += drift_rate * ds * 0.02 * rng.normal()
        previous = pose.translation
        drift = Pose(so3_exp([0.0, 0.0, drift_yaw]), drift_translation)
        odom = gauge.compose(drift.compose(pose))
        lines.append(format_pose_line(frame_id, odom))
    return "\n".join(lines) + "\n"


def perturb_pose_random(pose: Pose, translation_m: float, rotation_rad: float, rng: np.random.Generator) -> Pose:
    """Perturb by exactly the given magnitudes in random directions."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Pose(
        pose.rotation @ so3_exp(axis * rotation_rad),
        pose.translation + direction * translation_m,
    )


def write_dataset(scene: SyntheticScene, out_dir: str | Path) -> Path:
    """Write the dataset layout the pipeline consumes.

    out_dir/
      map.cmap  intrinsics.txt  odometry.txt  initial_pose.txt  groundtruth.txt
      frames/<frame_id:06d>/{labels,edges,dynamic}.pgm

    ``out_dir`` must be new or empty: ValueError, before anything is written,
    names one that holds files, whose frames would mix with these.
    """
    out = Path(out_dir)
    if out.is_dir() and any(out.iterdir()):
        raise ValueError(f"output directory is not empty: {out}")
    (out / "frames").mkdir(parents=True, exist_ok=True)
    (out / "map.cmap").write_bytes(serialize_map(scene.compact_map))
    write_intrinsics(out / "intrinsics.txt", scene.intrinsics)
    (out / "odometry.txt").write_text(
        corrupt_odometry(scene.trajectory, scene.noise.odometry_drift_per_m, scene.seed),
        encoding="ascii",
    )
    write_trajectory(out / "groundtruth.txt", list(scene.trajectory))
    write_trajectory(out / "initial_pose.txt", [scene.trajectory[0]])
    for frame_id, _ in scene.trajectory:
        frame_dir = out / "frames" / f"{frame_id:06d}"
        frame_dir.mkdir(parents=True, exist_ok=True)
        labels, edges, dynamic = render_frame(scene, frame_id)
        write_pgm(frame_dir / "labels.pgm", labels)
        write_pgm(frame_dir / "edges.pgm", edges)
        write_pgm(frame_dir / "dynamic.pgm", dynamic)
    return out
