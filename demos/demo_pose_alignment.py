"""One frame of semantic edge alignment, step by step.

Generates a synthetic scene, renders a frame from the true camera pose,
perturbs that pose, and watches the damped Gauss-Newton solver pull the
estimate back: per-iteration energy, and the final pose error in
millimeters and millidegrees.
"""

import math

import numpy as np

from edgeloc import AlignmentProblem, PipelineConfig, generate_scene, render_frame, select_landmarks
from edgeloc.alignment import align_frame
from edgeloc.edge_features import build_edge_masks, build_fields, coarsen_mask
from edgeloc.geometry import rotation_angle
from edgeloc.synthetic import perturb_pose_random


def main():
    scene = generate_scene(seed=5, preset="urban-straight", n_frames=3)
    cfg = PipelineConfig()
    frame_id = 1
    truth = scene.pose_of(frame_id)

    rng = np.random.Generator(np.random.Philox(key=np.array([5, 1], np.uint64)))
    prior = perturb_pose_random(truth, 0.3, math.radians(1.0), rng)
    print(f"prior offset: {np.linalg.norm(prior.translation - truth.translation):.3f} m, "
          f"{math.degrees(rotation_angle(prior.rotation.T @ truth.rotation)):.2f} deg")

    labels, edges, dynamic = render_frame(scene, frame_id)
    print(f"rendered frame: {(edges > 0).sum()} edge pixels across "
          f"{len(scene.compact_map.label_names)} labels")

    masks = build_edge_masks(labels, edges, dynamic, scene.compact_map.label_names)
    fields = build_fields(masks, d_max=cfg.dt_truncation_px)
    coarse = build_fields([coarsen_mask(m) for m in masks], d_max=cfg.dt_truncation_px)

    samples = select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg)
    counts = dict(zip(samples.labels, np.bincount(samples.label).tolist()))
    print(f"selected {samples.total_count()} edge samples: {counts}")

    problem = AlignmentProblem(
        samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg
    )
    result = align_frame(problem, coarse)

    print("\nenergy per accepted iteration:")
    for i, e in enumerate(result.energy_history):
        print(f"  {i:2d}: {e:12.2f}  (active samples {result.active_counts[i]})")

    err_t = np.linalg.norm(result.pose.translation - truth.translation)
    err_r = math.degrees(rotation_angle(truth.rotation.T @ result.pose.rotation))
    print(f"\naccepted: {result.accepted} ({result.reject_reason})")
    print(f"mean squared reprojection error: {result.mean_reproj_error:.3f} px^2")
    print(f"pose error vs ground truth: {err_t * 1000:.2f} mm, {err_r * 1000:.2f} mdeg")


if __name__ == "__main__":
    main()
