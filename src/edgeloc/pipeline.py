"""Per-frame localization pipeline over an on-disk dataset:
predict -> select -> extract -> align -> validate -> commit.

Dataset layout (what the synthetic harness emits):

    dataset/
      map.cmap            compact landmark map
      intrinsics.txt      fx fy cx cy width height
      odometry.txt        <frame_id> <tx> <ty> <tz> <qx> <qy> <qz> <qw>
      initial_pose.txt    single line, same fields as odometry
      groundtruth.txt     optional, same format
      frames/<frame_id:06d>/{labels,edges,dynamic}.pgm
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import AlignmentProblem, align_frame
from .compact_map import CompactMap, parse_map
from .config import PipelineConfig
from .edge_features import SemanticEdgeField, build_edge_masks, build_fields, coarsen_mask
from .geometry import CameraIntrinsics, Pose
from .io import read_initial_pose, read_intrinsics, read_pgm, read_trajectory, write_pgm
from .predictor import PosePredictor
from .selection import select_landmarks

_log = logging.getLogger(__name__)


class ManifestError(ValueError):
    """Dataset directory is missing required files or is inconsistent."""


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    root: Path
    map_path: Path
    frames_dir: Path
    odometry_path: Path
    intrinsics: CameraIntrinsics
    initial_frame: int
    initial_pose: Pose
    groundtruth_path: Path | None

    @classmethod
    def from_directory(cls, root: str | Path, map_path: str | Path | None = None) -> "DatasetManifest":
        root = Path(root)
        if not root.is_dir():
            raise ManifestError(f"dataset directory not found: {root}")
        map_file = Path(map_path) if map_path is not None else root / "map.cmap"
        frames_dir = root / "frames"
        odometry = root / "odometry.txt"
        intrinsics_file = root / "intrinsics.txt"
        initial_file = root / "initial_pose.txt"
        for required in (map_file, odometry, intrinsics_file, initial_file):
            if not required.is_file():
                raise ManifestError(f"missing dataset file: {required}")
        if not frames_dir.is_dir():
            raise ManifestError(f"missing frames directory: {frames_dir}")
        frame_dirs = _frame_ids(frames_dir)
        if not frame_dirs:
            raise ManifestError(f"frames directory is empty: {frames_dir}")
        intrinsics = read_intrinsics(intrinsics_file)
        first_labels = frames_dir / f"{frame_dirs[0]:06d}" / "labels.pgm"
        if first_labels.is_file():
            shape = read_pgm(first_labels).shape
            if shape != (intrinsics.height, intrinsics.width):
                raise ManifestError(
                    f"intrinsics {intrinsics.width}x{intrinsics.height} do not match "
                    f"frame rasters {shape[1]}x{shape[0]}"
                )
        initial_frame, initial_pose = read_initial_pose(initial_file)
        gt = root / "groundtruth.txt"
        return cls(
            root=root,
            map_path=map_file,
            frames_dir=frames_dir,
            odometry_path=odometry,
            intrinsics=intrinsics,
            initial_frame=initial_frame,
            initial_pose=initial_pose,
            groundtruth_path=gt if gt.is_file() else None,
        )


def _frame_ids(frames_dir: Path) -> list[int]:
    ids = []
    for entry in frames_dir.iterdir():
        if entry.is_dir() and entry.name.isdigit():
            ids.append(int(entry.name))
    return sorted(ids)


@dataclass(frozen=True)
class FrameRecord:
    frame_id: int
    status: str  # accepted | dropped:<reason> | skipped:<detail>
    iterations: int
    mean_reproj_error: float
    sample_count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "frame_id": self.frame_id,
                "status": self.status,
                "iterations": self.iterations,
                "mean_reproj_error": self.mean_reproj_error,
                "sample_count": self.sample_count,
            },
            sort_keys=True,
        )


def _load_fields(
    frames_dir: Path,
    frame_id: int,
    label_names: tuple[str, ...],
    config: PipelineConfig,
) -> tuple[dict[str, SemanticEdgeField], dict[str, SemanticEdgeField]]:
    """Read one frame's rasters; build fine and coarse per-label fields."""
    frame_dir = frames_dir / f"{frame_id:06d}"
    labels_img = read_pgm(frame_dir / "labels.pgm")
    edges_img = read_pgm(frame_dir / "edges.pgm")
    dynamic_img = read_pgm(frame_dir / "dynamic.pgm")
    masks = build_edge_masks(
        labels_img,
        edges_img,
        dynamic_img,
        label_names,
        boundary_margin=config.boundary_margin_px,
        frame_id=frame_id,
    )
    fine = build_fields(masks, d_max=config.dt_truncation_px)
    coarse = build_fields([coarsen_mask(m) for m in masks], d_max=config.dt_truncation_px)
    return fine, coarse


def write_debug_overlay(path, fields, samples, prior, pose, intrinsics) -> None:
    """Debug raster: combined distance field with reprojected samples.

    The per-label fields are collapsed with a minimum (dark = close to an
    edge) and the landmark samples (held in the prior camera frame) are
    reprojected under ``pose`` and marked bright, which makes converged and
    failed frames easy to tell apart.
    """
    from .geometry import project_points

    stack = np.stack([f.distance / max(f.d_max, 1e-9) for f in fields.values()])
    canvas = (stack.min(axis=0) * 200.0).astype(np.uint8)
    height, width = canvas.shape
    camera = pose.inverse()
    uv, valid = project_points(camera.apply(prior.apply(samples.points)), intrinsics)
    uv = uv[valid]
    iu = np.rint(uv[:, 0]).astype(int)
    iv = np.rint(uv[:, 1]).astype(int)
    keep = (iu >= 0) & (iu < width) & (iv >= 0) & (iv < height)
    canvas[iv[keep], iu[keep]] = 255
    write_pgm(path, canvas)


def run_dataset(
    manifest: DatasetManifest,
    config: PipelineConfig | None = None,
    compact_map: CompactMap | None = None,
    prefetch_workers: int = 0,
    debug_dir: str | Path | None = None,
) -> tuple[list[tuple[int, Pose]], list[FrameRecord]]:
    """Run the frame chain; returns (accepted trajectory, per-frame log).

    ``prefetch_workers`` > 0 overlaps feature extraction of upcoming frames
    with alignment of the current one; results are identical to the serial
    run because field construction is a pure function of the frame files.
    ``debug_dir`` writes a reprojection overlay raster per processed frame.
    A frame whose selection or alignment raises is logged with its traceback
    and gets a ``skipped:error:<Type>`` record; the predictor is not
    committed and the run goes on.
    """
    config = config or PipelineConfig()
    if compact_map is None:
        compact_map = parse_map(manifest.map_path.read_bytes())
    odometry = read_trajectory(manifest.odometry_path)
    frame_ids = _frame_ids(manifest.frames_dir)
    label_names = compact_map.label_names

    predictor = PosePredictor(window=config.odometry_window)
    trajectory: list[tuple[int, Pose]] = []
    records: list[FrameRecord] = []

    executor = ThreadPoolExecutor(max_workers=prefetch_workers) if prefetch_workers > 0 else None
    futures: dict[int, object] = {}

    def fields_for(frame_id: int):
        if executor is None:
            return _load_fields(manifest.frames_dir, frame_id, label_names, config)
        future = futures.pop(frame_id)
        return future.result()

    try:
        if executor is not None:
            lookahead = prefetch_workers + 2
            for fid in frame_ids[:lookahead]:
                futures[fid] = executor.submit(_load_fields, manifest.frames_dir, fid, label_names, config)
            next_submit = len(futures)

        for frame_id in frame_ids:
            if executor is not None and next_submit < len(frame_ids):
                fid = frame_ids[next_submit]
                futures[fid] = executor.submit(_load_fields, manifest.frames_dir, fid, label_names, config)
                next_submit += 1

            if frame_id in odometry:
                predictor.push_odometry(frame_id, odometry[frame_id])
            else:
                if executor is not None:
                    futures.pop(frame_id, None)
                records.append(FrameRecord(frame_id, "skipped:missing-odometry", 0, float("inf"), 0))
                continue
            if frame_id == manifest.initial_frame:
                predictor.set_anchor(frame_id, manifest.initial_pose)
            if predictor.anchor_pose is None:
                if executor is not None:
                    futures.pop(frame_id, None)
                records.append(FrameRecord(frame_id, "dropped:not-initialized", 0, float("inf"), 0))
                continue

            prior = predictor.predict_prior(frame_id)
            try:
                fields, coarse_fields = fields_for(frame_id)
            except (OSError, ValueError) as err:
                records.append(FrameRecord(frame_id, f"skipped:io:{err}", 0, float("inf"), 0))
                continue

            try:
                samples = select_landmarks(compact_map, prior, manifest.intrinsics, config)
                problem = AlignmentProblem(
                    samples=samples,
                    fields=fields,
                    prior=prior,
                    intrinsics=manifest.intrinsics,
                    config=config,
                )
                result = align_frame(problem, coarse_fields)
            except Exception as err:
                _log.exception("frame %d skipped", frame_id)
                records.append(FrameRecord(frame_id, f"skipped:error:{type(err).__name__}", 0, float("inf"), 0))
                continue
            if debug_dir is not None:
                out_dir = Path(debug_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                write_debug_overlay(
                    out_dir / f"{frame_id:06d}.pgm", fields, samples, prior, result.pose, manifest.intrinsics
                )
            if result.accepted:
                predictor.commit(frame_id, result.pose, True)
                trajectory.append((frame_id, result.pose))
                status = "accepted"
            else:
                status = f"dropped:{result.reject_reason}"
            records.append(
                FrameRecord(
                    frame_id=frame_id,
                    status=status,
                    iterations=result.iterations,
                    mean_reproj_error=result.mean_reproj_error,
                    sample_count=samples.total_count(),
                )
            )
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    return trajectory, records
