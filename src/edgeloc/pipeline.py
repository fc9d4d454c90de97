"""Per-frame localization pipeline over an on-disk dataset:
predict -> select -> extract -> align -> validate -> commit.

``iter_frames`` is the frame loop: over the frame ids the manifest lists,
it yields each frame's record, and its pose when accepted, as the frame
finishes; ``run_dataset`` collects it.

Per frame, extraction reads the rasters, builds the per-label edge masks
and one fine stack of distance fields; selection tests the packed map,
which is built once per map, against the prior; alignment reads the field
stacks in place. The coarse stage runs only where the prior may be far
off: it is skipped when the last frame that ran the chain was accepted and
the prior's predicted error (``PosePredictor.predicted_error_m``) is at
most ``_COARSE_TRIGGER_M``. Only a frame that runs it builds the coarse
masks (from the edge pixels alone) and the coarse stack, and is aligned
coarse-to-fine; any other frame is one fine solve from the prior. So the
first frame, whose start is the unchecked initial pose, and every frame
after a drop run the stage.

Memory: one frame's arrays are alive at a time, and none of them when its
record is yielded.

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
import math
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .alignment import COARSE_SKIPPED, AlignmentProblem, align_frame
from .compact_map import CompactMap, read_map
from .config import PipelineConfig
from .edge_features import FieldStack, build_edge_masks, build_fields, coarsen_mask
from .geometry import CameraIntrinsics, Pose, project_points
from .io import read_initial_pose, read_intrinsics, read_pgm, read_pgm_shape, read_trajectory, write_pgm
from .predictor import PosePredictor
from .selection import select_landmarks

_log = logging.getLogger(__name__)

# A prior whose predicted error is larger than this runs the coarse stage.
_COARSE_TRIGGER_M = 0.05


class ManifestError(ValueError):
    """Dataset directory is missing required files or is inconsistent."""


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    root: Path
    map_path: Path
    frames_dir: Path
    frame_ids: tuple[int, ...]  # increasing
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
        frame_ids = _frame_ids(frames_dir)
        if not frame_ids:
            raise ManifestError(f"frames directory is empty: {frames_dir}")
        intrinsics = read_intrinsics(intrinsics_file)
        first_labels = frames_dir / f"{frame_ids[0]:06d}" / "labels.pgm"
        if first_labels.is_file():
            shape = read_pgm_shape(first_labels)
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
            frame_ids=frame_ids,
            odometry_path=odometry,
            intrinsics=intrinsics,
            initial_frame=initial_frame,
            initial_pose=initial_pose,
            groundtruth_path=gt if gt.is_file() else None,
        )


def _frame_ids(frames_dir: Path) -> tuple[int, ...]:
    """The ids of the digit-named directories in ``frames_dir``, increasing.
    Frame rasters are read from ``{id:06d}``: ManifestError names a
    digit-named directory with any other name, such as ``1`` or ``²``."""
    ids = []
    with os.scandir(frames_dir) as entries:  # DirEntry.is_dir stats only symlinks
        for entry in entries:
            name = entry.name
            if name.isdigit() and entry.is_dir():
                if not (name.isascii() and name == f"{int(name):06d}"):
                    raise ManifestError(
                        f"frame directory name is not a zero-padded 6-digit frame id: {frames_dir / name}"
                    )
                ids.append(int(name))
    return tuple(sorted(ids))


@dataclass(frozen=True)
class FrameRecord:
    frame_id: int
    status: str  # accepted | dropped:<reason> | skipped:<detail>
    iterations: int
    mean_reproj_error: float
    sample_count: int
    coarse: str = COARSE_SKIPPED  # AlignmentResult.coarse: skipped | unused (a coarse reject) | used

    def to_json(self) -> str:
        # JSON has no Infinity or NaN: a frame without an estimate logs null.
        record = {key: None if isinstance(value, float) and not math.isfinite(value) else value
                  for key, value in asdict(self).items()}
        return json.dumps(record, sort_keys=True, allow_nan=False)


def _load_fields(
    manifest: DatasetManifest,
    frame_id: int,
    label_names: tuple[str, ...],
    config: PipelineConfig,
    coarse: bool,
) -> tuple[FieldStack, FieldStack | None]:
    """Read one frame's rasters and build the fine per-label fields, and the
    coarse ones when ``coarse`` (None otherwise); ValueError if the label
    raster's shape is not the intrinsics'."""
    frame_dir = manifest.frames_dir / f"{frame_id:06d}"
    labels_img = read_pgm(frame_dir / "labels.pgm")
    shape = (manifest.intrinsics.height, manifest.intrinsics.width)
    if labels_img.shape != shape:
        raise ValueError(f"{frame_dir / 'labels.pgm'}: raster shape {labels_img.shape}, intrinsics {shape}")
    edges_img = read_pgm(frame_dir / "edges.pgm")
    dynamic_img = read_pgm(frame_dir / "dynamic.pgm")
    masks = build_edge_masks(
        labels_img,
        edges_img,
        dynamic_img,
        label_names,
        boundary_margin=config.boundary_margin_px,
    )
    fine = build_fields(masks, d_max=config.dt_truncation_px)
    if not coarse:
        return fine, None
    return fine, build_fields([coarsen_mask(m) for m in masks], d_max=config.dt_truncation_px)


def write_debug_overlay(path, fields, samples, prior, pose, intrinsics) -> None:
    """Debug raster: combined distance field with reprojected samples.

    The per-label fields are collapsed with a minimum (dark = close to an
    edge) and the landmark samples (held in the prior camera frame) are
    reprojected under ``pose`` and marked bright, which makes converged and
    failed frames easy to tell apart.
    """
    height, width = intrinsics.height, intrinsics.width
    # A map with no labels gives a stack with no layers: the field is d_max everywhere.
    field = fields.stack.min(axis=0) if len(fields.stack) else np.full((height, width), fields.d_max)
    canvas = (field / fields.d_max * 200.0).astype(np.uint8)
    camera = pose.inverse()
    u, v, in_front = project_points(camera.apply(prior.apply(samples.points)), intrinsics)
    iu = np.rint(u[in_front]).astype(int)
    iv = np.rint(v[in_front]).astype(int)
    keep = (iu >= 0) & (iu < width) & (iv >= 0) & (iv < height)
    canvas[iv[keep], iu[keep]] = 255
    write_pgm(path, canvas)


def iter_frames(
    manifest: DatasetManifest,
    config: PipelineConfig | None = None,
    compact_map: CompactMap | None = None,
    debug_dir: str | Path | None = None,
) -> Iterator[tuple[FrameRecord, Pose | None]]:
    """Run the frame chain over ``manifest.frame_ids``, yielding (record,
    accepted pose or None) as each frame finishes.

    The map and odometry are read, and the initial frame's odometry
    checked, before the generator is returned, so bad input raises here and
    not at the first frame. The initial pose anchors the predictor at the
    first listed frame at or after the initial frame, so the run starts even
    when the initial frame has no rasters. ``debug_dir`` writes a
    reprojection overlay raster per processed frame. A frame's arrays
    (rasters, masks, fields, samples, solver state) are alive only while it
    is processed: none of them when its record is yielded or while the next
    frame loads; a skipped frame reads no raster.
    A frame whose selection or alignment raises is logged with its traceback
    and gets a ``skipped:error:<Type>`` record; the predictor is not
    committed and the run goes on.
    """
    config = config or PipelineConfig()
    if compact_map is None:
        compact_map = read_map(manifest.map_path)
    odometry = read_trajectory(manifest.odometry_path)
    if manifest.initial_frame not in odometry:
        raise ValueError(
            f"{manifest.root / 'initial_pose.txt'}: initial frame {manifest.initial_frame} "
            f"has no odometry in {manifest.odometry_path}"
        )
    return _frame_loop(manifest, config, compact_map, odometry, debug_dir)


def _frame_loop(manifest, config, compact_map, odometry, debug_dir):
    predictor = PosePredictor(odometry)
    last_accepted = False  # whether the last frame that ran the chain was accepted
    for frame_id in manifest.frame_ids:
        if frame_id not in odometry:
            yield FrameRecord(frame_id, "skipped:missing-odometry", 0, math.inf, 0), None
            continue
        if predictor.anchor_pose is None and frame_id >= manifest.initial_frame:
            predictor.set_anchor(manifest.initial_frame, manifest.initial_pose)
        if predictor.anchor_pose is None:
            yield FrameRecord(frame_id, "dropped:not-initialized", 0, math.inf, 0), None
            continue

        prior = predictor.predict_prior(frame_id)
        predicted_error = predictor.predicted_error_m(prior)
        coarse = not last_accepted or predicted_error is None or predicted_error > _COARSE_TRIGGER_M
        status, result, sample_count = _run_frame(manifest, config, compact_map, frame_id, prior, coarse, debug_dir)
        last_accepted = result is not None and result.accepted
        if result is None:
            yield FrameRecord(frame_id, status, 0, math.inf, 0), None
            continue
        if result.accepted:
            predictor.commit(frame_id, result.pose)
        record = FrameRecord(frame_id, status, result.iterations, result.mean_reproj_error, sample_count, result.coarse)
        yield record, result.pose if result.accepted else None


def _run_frame(manifest, config, compact_map, frame_id, prior, coarse, debug_dir):
    """One frame's extraction, selection, alignment and debug overlay; the
    coarse stage runs when ``coarse``.

    Returns (status, AlignmentResult, sample count); the result is None
    when extraction, selection or alignment raised, and the status is then
    the frame's ``skipped:`` status. The frame's arrays are locals of this
    call alone, so they are freed when it returns, before the frame's
    record is built.
    """
    try:
        fields, coarse_fields = _load_fields(manifest, frame_id, compact_map.label_names, config, coarse)
    except (OSError, ValueError) as err:
        return f"skipped:io:{err}", None, 0
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
        return f"skipped:error:{type(err).__name__}", None, 0
    if debug_dir is not None:
        out_dir = Path(debug_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_debug_overlay(out_dir / f"{frame_id:06d}.pgm", fields, samples, prior, result.pose, manifest.intrinsics)
    status = "accepted" if result.accepted else f"dropped:{result.reject_reason}"
    return status, result, samples.total_count()


def run_dataset(
    manifest: DatasetManifest,
    config: PipelineConfig | None = None,
    compact_map: CompactMap | None = None,
    prefetch_workers: int = 0,
    debug_dir: str | Path | None = None,
) -> tuple[list[tuple[int, Pose]], list[FrameRecord]]:
    """``iter_frames`` run to the end; returns (accepted trajectory, per-frame log).

    Extraction is always serial: ``prefetch_workers`` is kept for callers
    that pass it, and a positive value changes nothing; a negative one is
    still a ValueError, raised here before any frame is read.
    """
    if prefetch_workers < 0:
        raise ValueError(f"prefetch_workers must be >= 0, got {prefetch_workers}")
    frames = list(iter_frames(manifest, config, compact_map, debug_dir))
    trajectory = [(record.frame_id, pose) for record, pose in frames if pose is not None]
    return trajectory, [record for record, _ in frames]
