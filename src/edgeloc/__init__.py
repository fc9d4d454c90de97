"""edgeloc: monocular localization against compact semantic line-segment maps.

A camera pose is refined by reprojecting 3D landmark edge samples into
per-label Euclidean distance transforms of detected semantic edges and
minimizing the summed squared distances with damped Gauss-Newton on SE(3).
"""

from .alignment import AlignmentProblem, AlignmentResult, align_frame, solve, solve_two_scale, validate
from .compact_map import (
    CompactMap,
    LineSegmentLandmark,
    MapFormatError,
    SemanticLabel,
    WireframeLandmark,
    map_statistics,
    parse_map,
    serialize_map,
)
from .config import PipelineConfig, parse_config_text
from .edge_features import (
    FieldStack,
    SemanticEdgeField,
    SemanticEdgeMask,
    build_edge_masks,
    build_fields,
    coarsen_mask,
)
from .evaluation import ErrorReport, evaluate_trajectories
from .geometry import CameraIntrinsics, Pose, skew
from .pipeline import DatasetManifest, FrameRecord, iter_frames, run_dataset
from .predictor import PosePredictor
from .selection import LandmarkSamples, select_landmarks
from .synthetic import NoiseConfig, SyntheticScene, generate_scene, render_frame, write_dataset

__version__ = "0.1.0"

__all__ = [
    "AlignmentProblem",
    "AlignmentResult",
    "CameraIntrinsics",
    "CompactMap",
    "DatasetManifest",
    "ErrorReport",
    "FieldStack",
    "FrameRecord",
    "LandmarkSamples",
    "LineSegmentLandmark",
    "MapFormatError",
    "NoiseConfig",
    "PipelineConfig",
    "Pose",
    "PosePredictor",
    "SemanticEdgeField",
    "SemanticEdgeMask",
    "SemanticLabel",
    "SyntheticScene",
    "WireframeLandmark",
    "align_frame",
    "build_edge_masks",
    "build_fields",
    "coarsen_mask",
    "evaluate_trajectories",
    "generate_scene",
    "iter_frames",
    "map_statistics",
    "parse_config_text",
    "parse_map",
    "render_frame",
    "run_dataset",
    "select_landmarks",
    "serialize_map",
    "skew",
    "solve",
    "solve_two_scale",
    "validate",
]
