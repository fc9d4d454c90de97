"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Budgets and tolerances are fixed
here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from edgeloc import alignment as al
from edgeloc import edge_features as ef
from edgeloc import synthetic as syn
from edgeloc.compact_map import CompactMap, LineSegmentLandmark, SemanticLabel, map_statistics, parse_map, serialize_map
from edgeloc.config import PipelineConfig
from edgeloc.edge_features import SemanticEdgeMask, build_edge_masks, build_fields, coarsen_mask
from edgeloc.evaluation import evaluate_trajectories
from edgeloc.geometry import Pose, rotation_angle, so3_exp
from edgeloc.io import format_pose_line
from edgeloc.pipeline import DatasetManifest, run_dataset
from edgeloc.selection import LandmarkSamples, select_landmarks


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_distance_transform_exactness():
    """100 random masks up to 64x64: squared distances equal brute force."""
    started = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.array([100, 1], np.uint64)))
    checked = 0
    exact = True
    while checked < 100:
        height = int(rng.integers(1, 65))
        width = int(rng.integers(1, 65))
        mask = rng.random((height, width)) < rng.uniform(0.0, 0.25)
        ours = ef.squared_edge_distance(mask)
        ys, xs = np.nonzero(mask)
        if len(ys) == 0:
            oracle = np.full((height, width), np.inf)
        else:
            vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
            oracle = ((vv[..., None] - ys) ** 2 + (uu[..., None] - xs) ** 2).min(axis=-1).astype(float)
        exact &= np.array_equal(ours, oracle)  # 0 ULP: both are exact integers
        checked += 1
    elapsed = time.time() - started
    ok = exact and elapsed < 10.0
    _report("criterion 1 (distance-transform exactness)", ok, f"{checked} masks exact={exact} in {elapsed:.2f}s (< 10s)")
    assert exact
    assert elapsed < 10.0


def _planarity_screen(distance: np.ndarray, u: float, v: float) -> bool:
    """True when the 5x5 neighborhood of (u, v) is affine, i.e. at least
    2 px from any distance-transform ridge or crease."""
    iu, iv = int(round(u)), int(round(v))
    height, width = distance.shape
    if not (2 <= iu < width - 2 and 2 <= iv < height - 2):
        return False
    window = distance[iv - 2:iv + 3, iu - 2:iu + 3]
    vv, uu = np.meshgrid(np.arange(5, dtype=float), np.arange(5, dtype=float), indexing="ij")
    basis = np.column_stack([uu.ravel(), vv.ravel(), np.ones(25)])
    coeff, _, _, _ = np.linalg.lstsq(basis, window.ravel(), rcond=None)
    residual = np.abs(basis @ coeff - window.ravel()).max()
    return residual < 1e-9


def _line_mask_field(rng, label="x", shape=(240, 320)):
    """One-label FieldStack: the distance field of a few random axis-aligned
    lines (untruncated)."""
    mask = np.zeros(shape, dtype=bool)
    for _ in range(int(rng.integers(2, 5))):
        if rng.random() < 0.5:
            mask[int(rng.integers(10, shape[0] - 10)), :] = True
        else:
            mask[:, int(rng.integers(10, shape[1] - 10))] = True
    return ef.build_fields([SemanticEdgeMask(label, mask)], d_max=float(sum(shape)))


def _ramp_field(rng, label="x", shape=(240, 320)):
    """One-label FieldStack of a random affine surface."""
    vv, uu = np.meshgrid(np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float), indexing="ij")
    a, b = rng.uniform(-1.0, 1.0, 2)
    grid = a * uu + b * vv + rng.uniform(100.0, 400.0)
    return ef.FieldStack([label], grid[None], d_max=1e9)


def test_criterion_2_jacobian_matches_finite_differences():
    """1000 random (pose, sample, field) triples: analytic rows match
    central finite differences to a relative 1e-3, at least 2 px away from
    distance-transform ridges (checked via a local planarity screen)."""
    from edgeloc.geometry import CameraIntrinsics

    k = CameraIntrinsics(fx=250.0, fy=250.0, cx=159.5, cy=119.5, width=320, height=240)
    started = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.array([100, 2], np.uint64)))
    step = 1e-5
    checked = 0
    worst = 0.0
    field_pool = [_line_mask_field(rng) for _ in range(30)] + [_ramp_field(rng) for _ in range(30)]
    while checked < 1000:
        fields = field_pool[int(rng.integers(0, len(field_pool)))]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        pose = Pose(so3_exp(axis * rng.uniform(0.0, 2.5)), rng.uniform(-4.0, 4.0, 3))
        cam = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), rng.uniform(2.0, 40.0)])
        cam[:2] *= cam[2]
        world = pose.apply(cam)
        samples = LandmarkSamples(("x",), world.reshape(1, 3), np.zeros(1, dtype=int), np.zeros(1, dtype=int))
        problem = al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=k)
        u = k.fx * cam[0] / cam[2] + k.cx
        v = k.fy * cam[1] / cam[2] + k.cy
        if not (0 <= u <= k.width - 1 and 0 <= v <= k.height - 1):
            continue
        if not _planarity_screen(fields["x"].distance, u, v):
            continue
        prepared = al._Prepared(problem)
        _, count, _, rows = al._evaluate(prepared, pose)[:4]
        if count == 0:
            continue
        row = rows()[0]
        if np.linalg.norm(row) < 1e-6:
            continue
        fd = np.zeros(6)
        ok = True
        for i in range(6):
            delta = np.zeros(6)
            delta[i] = step
            plus = al._evaluate(prepared, al.perturb_pose(pose, delta))
            minus = al._evaluate(prepared, al.perturb_pose(pose, -delta))
            if plus[1] == 0 or minus[1] == 0:
                ok = False
                break
            fd[i] = (plus[2][0] - minus[2][0]) / (2.0 * step)
        if not ok:
            continue
        rel = np.linalg.norm(row - fd) / max(np.linalg.norm(row), np.linalg.norm(fd))
        worst = max(worst, rel)
        assert rel < 1e-3
        checked += 1
    elapsed = time.time() - started
    ok = worst < 1e-3 and elapsed < 30.0
    _report(
        "criterion 2 (analytic Jacobian vs finite differences)",
        ok,
        f"{checked} triples, worst rel err {worst:.2e} (< 1e-3), {elapsed:.1f}s (< 30s)",
    )
    assert elapsed < 30.0


def test_criterion_3_noiseless_closed_loop():
    """100-frame noiseless scene, priors perturbed 0.3 m / 1 deg: at least
    99% accepted, accepted RMSE below 5 mm and 0.05 deg, within 60 s."""
    started = time.time()
    scene = syn.generate_scene(11, "urban-straight", n_frames=100)
    cfg = PipelineConfig()
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 99], np.uint64)))
    translation_errors = []
    rotation_errors = []
    accepted = 0
    for frame_id, gt in scene.trajectory:
        prior = syn.perturb_pose_random(gt, 0.3, math.radians(1.0), rng)
        labels, edges, dynamic = syn.render_frame(scene, frame_id)
        masks = build_edge_masks(labels, edges, dynamic, scene.compact_map.label_names)
        fields = build_fields(masks, d_max=cfg.dt_truncation_px)
        coarse = build_fields([coarsen_mask(m) for m in masks], d_max=cfg.dt_truncation_px)
        samples = select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg)
        problem = al.AlignmentProblem(
            samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg
        )
        result = al.align_frame(problem, coarse)
        if result.accepted:
            accepted += 1
            translation_errors.append(np.linalg.norm(result.pose.translation - gt.translation))
            rotation_errors.append(math.degrees(rotation_angle(gt.rotation.T @ result.pose.rotation)))
    elapsed = time.time() - started
    rmse_t = float(np.sqrt(np.mean(np.square(translation_errors))))
    rmse_r = float(np.sqrt(np.mean(np.square(rotation_errors))))
    ok = accepted >= 99 and rmse_t < 5e-3 and rmse_r < 0.05 and elapsed < 60.0
    _report(
        "criterion 3 (noiseless closed loop)",
        ok,
        f"accepted {accepted}/100 (>= 99), rmse {rmse_t * 1000:.2f} mm (< 5), "
        f"{rmse_r:.4f} deg (< 0.05), {elapsed:.1f}s (< 60s)",
    )
    assert accepted >= 99
    assert rmse_t < 5e-3
    assert rmse_r < 0.05
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def noisy_dataset(tmp_path_factory):
    """Criterion 4 scenario: 300 frames, 1 px jitter, 10% dropout, 0.5%/m
    odometry drift."""
    started = time.time()
    noise = syn.NoiseConfig(odometry_drift_per_m=0.005, edge_jitter_px=1.0, edge_dropout=0.1)
    scene = syn.generate_scene(21, "urban-straight", n_frames=300, noise=noise)
    root = syn.write_dataset(scene, tmp_path_factory.mktemp("noisy") / "ds")
    return scene, root, time.time() - started


@pytest.fixture(scope="module")
def noisy_run(noisy_dataset):
    """One run over the criterion-4 dataset, shared by criteria 4 and 8:
    (trajectory, records, wall seconds of the run)."""
    _, root, _ = noisy_dataset
    started = time.time()
    trajectory, records = run_dataset(DatasetManifest.from_directory(root))
    return trajectory, records, time.time() - started


def test_criterion_4_noisy_desk_scale_analogue(noisy_dataset, noisy_run):
    """Accepted-frame position RMSE < 0.30 m, rotation RMSE < 0.6 deg,
    drop rate < 20%, all within 5 minutes."""
    scene, _, generation_seconds = noisy_dataset
    trajectory, _, run_seconds = noisy_run
    elapsed = generation_seconds + run_seconds
    report = evaluate_trajectories(dict(trajectory), dict(scene.trajectory))
    ok = (
        report.rmse_norm < 0.30
        and report.rmse_angle_deg < 0.6
        and report.drop_rate < 0.20
        and elapsed < 300.0
    )
    _report(
        "criterion 4 (noisy desk-scale analogue)",
        ok,
        f"rmse {report.rmse_norm:.4f} m (< 0.30), {report.rmse_angle_deg:.4f} deg (< 0.6), "
        f"drop rate {report.drop_rate:.3f} (< 0.20), {elapsed:.0f}s (< 300s)",
    )
    assert report.rmse_norm < 0.30
    assert report.rmse_angle_deg < 0.6
    assert report.drop_rate < 0.20
    assert elapsed < 300.0


def test_criterion_5_occlusion_robustness(tmp_path):
    """A wall masking > 80% of landmarks for 10 frames: those frames are
    dropped rather than accepted wrong, and tracking resumes within 3
    frames of the wall clearing."""
    noise = syn.NoiseConfig(odometry_drift_per_m=0.003)
    scene = syn.generate_scene(9, "urban-straight", n_frames=50, noise=noise)
    wall = syn.make_occluder_wall(scene, 20, 29)
    scene = replace(scene, noise=replace(noise, occluders=(wall,)))

    # confirm the scenario is as stated: most selected samples fall in the
    # dynamic mask during the occlusion window
    cfg = PipelineConfig()
    from edgeloc.geometry import project_points

    covered_fractions = []
    for frame_id in range(20, 30):
        _, _, dynamic = syn.render_frame(scene, frame_id)
        pose = scene.pose_of(frame_id)
        samples = select_landmarks(scene.compact_map, pose, scene.intrinsics, cfg)
        u, v, _ = project_points(samples.points, scene.intrinsics)
        iu = np.clip(np.rint(u).astype(int), 0, scene.intrinsics.width - 1)
        iv = np.clip(np.rint(v).astype(int), 0, scene.intrinsics.height - 1)
        covered_fractions.append(int((dynamic[iv, iu] > 0).sum()) / samples.total_count())
    assert min(covered_fractions) > 0.8

    root = syn.write_dataset(scene, tmp_path / "ds")
    trajectory, records = run_dataset(DatasetManifest.from_directory(root))
    status = {r.frame_id: r.status for r in records}
    occluded_dropped = all(status[fid] != "accepted" for fid in range(20, 30))
    recovered_within = next(
        (fid - 30 for fid in range(30, 34) if status.get(fid) == "accepted"), None
    )
    gt = dict(scene.trajectory)
    worst_accepted = max(
        (float(np.linalg.norm(pose.translation - gt[fid].translation)) for fid, pose in trajectory),
        default=0.0,
    )
    ok = occluded_dropped and recovered_within is not None and recovered_within <= 2 and worst_accepted < 0.5
    _report(
        "criterion 5 (occlusion robustness)",
        ok,
        f"coverage >= {min(covered_fractions):.2f}, occluded frames dropped={occluded_dropped}, "
        f"recovery after {recovered_within} frames (<= 3), worst accepted error {worst_accepted:.3f} m (< 0.5)",
    )
    assert occluded_dropped
    assert recovered_within is not None and recovered_within <= 2
    assert worst_accepted < 0.5


def test_criterion_6_map_compaction():
    """A trial-1-scale synthetic map (419 landmarks) serializes below 30 KB
    and reports a compression factor above 7000 against a declared 220 MB
    original."""
    from edgeloc.compact_map import maps_equal

    scene = syn.generate_scene(1, "urban-straight", n_frames=2)
    data = serialize_map(scene.compact_map)
    parsed = parse_map(data)
    assert maps_equal(parsed, scene.compact_map)  # lossless round trip
    stats = map_statistics(parsed, original_size_bytes=220_000_000)
    ok = stats.total_landmarks == 419 and len(data) < 30_000 and stats.compression_factor > 7000
    _report(
        "criterion 6 (map compaction)",
        ok,
        f"{stats.total_landmarks} landmarks, {len(data)} bytes (< 30000), "
        f"factor {stats.compression_factor:.0f} (> 7000)",
    )
    assert stats.total_landmarks == 419
    assert len(data) < 30_000
    assert stats.compression_factor > 7000


def test_criterion_7_degenerate_scene_gating():
    """A single-lane-line world: every frame is rejected through the
    min-information gate, no pose is ever accepted."""
    lab = SemanticLabel("lane_line", "road")
    segments = tuple(
        LineSegmentLandmark(lab, [i * 5.0, -1.75, 0.0], [(i + 1) * 5.0, -1.75, 0.0], landmark_id=i)
        for i in range(40)
    )
    degenerate_map = CompactMap((lab,), segments)
    scene = replace(syn.generate_scene(1, "sparse", n_frames=10), compact_map=degenerate_map)
    cfg = PipelineConfig()
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 7], np.uint64)))
    reasons = []
    for frame_id, gt in scene.trajectory:
        prior = syn.perturb_pose_random(gt, 0.1, math.radians(0.3), rng)
        labels, edges, dynamic = syn.render_frame(scene, frame_id)
        masks = build_edge_masks(labels, edges, dynamic, degenerate_map.label_names)
        fields = build_fields(masks, d_max=cfg.dt_truncation_px)
        coarse = build_fields([coarsen_mask(m) for m in masks], d_max=cfg.dt_truncation_px)
        samples = select_landmarks(degenerate_map, prior, scene.intrinsics, cfg)
        problem = al.AlignmentProblem(
            samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg
        )
        result = al.align_frame(problem, coarse)
        reasons.append((result.accepted, result.reject_reason))
    all_rejected = all(not accepted for accepted, _ in reasons)
    all_low_information = all(reason == al.REJECT_LOW_INFORMATION for _, reason in reasons)
    ok = all_rejected and all_low_information
    _report(
        "criterion 7 (degenerate-scene gating)",
        ok,
        f"{len(reasons)} frames, all rejected={all_rejected}, all via min-information gate={all_low_information}",
    )
    assert all_rejected
    assert all_low_information


def test_criterion_8_determinism(noisy_dataset, noisy_run):
    """Two runs over the criterion-4 dataset produce byte-identical
    trajectories and logs: the run criterion 4 checks, and one more."""
    _, root, _ = noisy_dataset
    t1, r1, _ = noisy_run
    t2, r2 = run_dataset(DatasetManifest.from_directory(root))
    trajectory_bytes_1 = "\n".join(format_pose_line(f, p) for f, p in t1).encode()
    trajectory_bytes_2 = "\n".join(format_pose_line(f, p) for f, p in t2).encode()
    log_bytes_1 = "\n".join(r.to_json() for r in r1).encode()
    log_bytes_2 = "\n".join(r.to_json() for r in r2).encode()
    ok = trajectory_bytes_1 == trajectory_bytes_2 and log_bytes_1 == log_bytes_2
    _report(
        "criterion 8 (determinism)",
        ok,
        f"trajectory bytes identical={trajectory_bytes_1 == trajectory_bytes_2}, "
        f"log bytes identical={log_bytes_1 == log_bytes_2}",
    )
    assert trajectory_bytes_1 == trajectory_bytes_2
    assert log_bytes_1 == log_bytes_2
