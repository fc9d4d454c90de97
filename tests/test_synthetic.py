import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edgeloc import synthetic as syn
from edgeloc.compact_map import maps_equal
from edgeloc.config import PipelineConfig
from edgeloc.geometry import Pose, project_points
from edgeloc.io import parse_pose_line, read_trajectory
from edgeloc.selection import sample_landmark_edges, select_landmarks


class TestGenerateScene:
    def test_same_seed_identical(self):
        a = syn.generate_scene(7, "urban-straight", n_frames=10)
        b = syn.generate_scene(7, "urban-straight", n_frames=10)
        assert maps_equal(a.compact_map, b.compact_map)
        for (fa, pa), (fb, pb) in zip(a.trajectory, b.trajectory):
            assert fa == fb
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)
        ra = syn.render_frame(a, 3)
        rb = syn.render_frame(b, 3)
        for xa, xb in zip(ra, rb):
            assert np.array_equal(xa, xb)

    def test_different_seeds_differ(self):
        a = syn.generate_scene(7, "sparse", n_frames=2)
        b = syn.generate_scene(8, "sparse", n_frames=2)
        assert not maps_equal(a.compact_map, b.compact_map)

    def test_sparse_preset_is_small(self):
        scene = syn.generate_scene(0, "sparse", n_frames=2)
        assert len(scene.compact_map.landmarks) <= 80

    def test_urban_straight_label_mix(self):
        scene = syn.generate_scene(1, "urban-straight", n_frames=2)
        counts = Counter(lm.label.name for lm in scene.compact_map.landmarks)
        total = sum(counts.values())
        assert total == 419
        # lane lines are about three quarters of the mix
        assert abs(counts["lane_line"] / total - 0.75) < 0.10

    def test_urban_corner_counts(self):
        scene = syn.generate_scene(1, "urban-corner", n_frames=2)
        assert len(scene.compact_map.landmarks) == 144

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            syn.generate_scene(0, "suburbia")

    def test_map_coordinates_survive_serialization(self):
        from edgeloc.compact_map import parse_map, serialize_map

        scene = syn.generate_scene(3, "sparse", n_frames=2)
        data = serialize_map(scene.compact_map)
        assert maps_equal(parse_map(data), scene.compact_map)

    def test_every_frame_sees_landmarks(self):
        scene = syn.generate_scene(2, "urban-straight", n_frames=25)
        cfg = PipelineConfig()
        for fid, pose in scene.trajectory:
            samples = select_landmarks(scene.compact_map, pose, scene.intrinsics, cfg)
            assert len(samples.landmark_ids()) >= 8


class TestRenderFrame:
    def test_noiseless_edges_lie_on_projected_landmarks(self):
        scene = syn.generate_scene(4, "sparse", n_frames=3)
        labels, edges, dynamic = syn.render_frame(scene, 0)
        assert dynamic.sum() == 0
        ys, xs = np.nonzero(edges)
        assert len(ys) > 100
        # oracle: distance from each edge pixel to the densely projected
        # landmark edges must be below one pixel of rasterization error
        pose = scene.pose_of(0)
        cfg = PipelineConfig()
        pts, _ = sample_landmark_edges(scene.compact_map.packed, pose, scene.intrinsics, spacing=0.2, config=cfg)
        cloud_u, cloud_v, _ = project_points(pts, scene.intrinsics)
        for v, u in zip(ys[::23], xs[::23]):
            d = np.hypot(cloud_u - u, cloud_v - v).min()
            assert d < 0.75

    def test_labels_cover_exactly_edge_pixels(self):
        scene = syn.generate_scene(4, "sparse", n_frames=2)
        labels, edges, _ = syn.render_frame(scene, 1)
        assert np.array_equal(labels > 0, edges > 0)
        assert labels.max() <= len(scene.compact_map.label_names)

    def test_full_dropout_empties_edges(self):
        scene = syn.generate_scene(4, "sparse", n_frames=2, noise=syn.NoiseConfig(edge_dropout=1.0))
        _, edges, _ = syn.render_frame(scene, 0)
        assert edges.sum() == 0

    def test_partial_dropout_thins_edges(self):
        clean = syn.generate_scene(4, "sparse", n_frames=2)
        noisy = replace(clean, noise=syn.NoiseConfig(edge_dropout=0.5))
        _, e0, _ = syn.render_frame(clean, 0)
        _, e1, _ = syn.render_frame(noisy, 0)
        ratio = (e1 > 0).sum() / (e0 > 0).sum()
        assert 0.35 < ratio < 0.65

    def test_unknown_frame_rejected(self):
        scene = syn.generate_scene(4, "sparse", n_frames=2)
        with pytest.raises(ValueError):
            syn.render_frame(scene, 99)

    def test_jitter_mean_displacement_matches_half_normal(self):
        # Rayleigh mean for an isotropic 2-D normal displacement is
        # sigma * sqrt(pi / 2); verified on a sparse grid so the nearest
        # original pixel is the true source.
        sigma = 1.0
        rng = np.random.Generator(np.random.Philox(key=np.array([0, 1], np.uint64)))
        grid = np.stack(
            np.meshgrid(np.arange(10, 1990, 14), np.arange(10, 1990, 14), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        assert grid.shape[0] > 10_000
        moved = syn.jitter_pixels(grid, sigma, rng, shape=(2000, 2000))
        displacement = np.hypot(*(moved - grid).T)
        expected = sigma * math.sqrt(math.pi / 2.0)
        assert abs(displacement.mean() - expected) / expected < 0.10

    def test_occluder_box_masks_and_hides(self):
        scene = syn.generate_scene(4, "sparse", n_frames=4)
        wall = syn.make_occluder_wall(scene, 1, 2)
        occluded = replace(scene, noise=syn.NoiseConfig(occluders=(wall,)))
        _, edges_before, dyn_before = syn.render_frame(occluded, 0)
        _, edges_during, dyn_during = syn.render_frame(occluded, 1)
        assert dyn_before.sum() == 0
        assert (dyn_during > 0).mean() > 0.8
        assert (edges_during > 0).sum() < (edges_before > 0).sum()


    @pytest.mark.parametrize("first, last", [(2, 1), (-1, 2), (1, 4), (5, 9)])
    def test_occluder_window_outside_the_scene_rejected(self, first, last):
        scene = syn.generate_scene(4, "sparse", n_frames=4)
        window = rf"occluder window \[{first}, {last}\] is not inside the scene's frames \[0, 3\]"
        with pytest.raises(ValueError, match=window):
            syn.make_occluder_wall(scene, first, last)

class TestCorruptOdometry:
    def make_trajectory(self, n=201, step=0.5):
        return tuple((i, Pose(np.eye(3), [i * step, 0.0, 0.0])) for i in range(n))

    def test_zero_drift_equals_ground_truth_up_to_gauge(self, tmp_path):
        traj = self.make_trajectory(50)
        text = syn.corrupt_odometry(traj, 0.0, seed=3)
        lines = text.strip().splitlines()
        assert len(lines) == 50
        path = tmp_path / "odom.txt"
        path.write_text(text)
        odom = read_trajectory(path)
        # relative motion must match ground truth exactly (gauge cancels)
        for fid in (10, 30, 49):
            rel = odom[0].inverse().compose(odom[fid])
            gt_rel = traj[0][1].inverse().compose(traj[fid][1])
            assert np.abs(rel.translation - gt_rel.translation).max() < 1e-7
            assert np.abs(rel.rotation - gt_rel.rotation).max() < 1e-9

    def test_same_seed_identical_output(self):
        traj = self.make_trajectory(30)
        assert syn.corrupt_odometry(traj, 0.01, seed=5) == syn.corrupt_odometry(traj, 0.01, seed=5)

    def test_negative_drift_rejected(self):
        with pytest.raises(ValueError):
            syn.corrupt_odometry(self.make_trajectory(3), -0.1, seed=0)

    def test_drift_magnitude_statistics(self):
        # 0.01 / m over 100 m: final relative-to-start offset in [0.5, 2.0] m
        # for at least 90% of seeds.
        traj = self.make_trajectory(201, step=0.5)  # 100 m
        hits = 0
        seeds = 100
        for seed in range(seeds):
            text = syn.corrupt_odometry(traj, 0.01, seed=seed)
            poses = {}
            for line in text.strip().splitlines():
                fid, pose = parse_pose_line(line)
                poses[fid] = pose
            rel = poses[0].inverse().compose(poses[200])
            gt_rel = traj[0][1].inverse().compose(traj[200][1])
            offset = np.linalg.norm(rel.translation - gt_rel.translation)
            if 0.5 <= offset <= 2.0:
                hits += 1
        assert hits >= 90


class TestWriteDataset(object):
    def test_layout_and_reload(self, tmp_path):
        scene = syn.generate_scene(6, "sparse", n_frames=4)
        out = syn.write_dataset(scene, tmp_path / "ds")
        assert (out / "map.cmap").is_file()
        assert (out / "odometry.txt").is_file()
        assert (out / "groundtruth.txt").is_file()
        assert (out / "initial_pose.txt").is_file()
        assert (out / "intrinsics.txt").is_file()
        for fid in range(4):
            frame = out / "frames" / f"{fid:06d}"
            for name in ("labels.pgm", "edges.pgm", "dynamic.pgm"):
                assert (frame / name).is_file()

    def test_written_rasters_round_trip(self, tmp_path):
        from edgeloc.io import read_pgm

        scene = syn.generate_scene(6, "sparse", n_frames=2)
        out = syn.write_dataset(scene, tmp_path / "ds")
        labels, edges, dynamic = syn.render_frame(scene, 0)
        frame = out / "frames" / "000000"
        assert np.array_equal(read_pgm(frame / "labels.pgm"), labels)
        assert np.array_equal(read_pgm(frame / "edges.pgm"), edges)
        assert np.array_equal(read_pgm(frame / "dynamic.pgm"), dynamic)


class TestSelectorRendererConsistency:
    def test_samples_land_on_rendered_edges(self):
        scene = syn.generate_scene(8, "urban-straight", n_frames=3)
        cfg = PipelineConfig()
        _, edges, _ = syn.render_frame(scene, 2)
        ys, xs = np.nonzero(edges)
        edge_points = np.column_stack([xs, ys]).astype(float)
        pose = scene.pose_of(2)
        samples = select_landmarks(scene.compact_map, pose, scene.intrinsics, cfg)
        us, vs, _ = project_points(samples.points, scene.intrinsics)
        for u, v in zip(us, vs):
            d = np.hypot(edge_points[:, 0] - u, edge_points[:, 1] - v).min()
            assert d <= 1.0
        assert len(us) > 50


class TestPinnedRender:
    def test_rasters_are_pinned(self):
        # Digest of the (labels, edges, dynamic) rasters of a clean frame, a
        # frame behind an occluder wall and a jittered frame with dropout,
        # as the per-landmark renderer produced them.
        scene = syn.generate_scene(5, "urban-corner", n_frames=16)
        wall = syn.make_occluder_wall(scene, 6, 9)
        noisy = replace(scene, noise=syn.NoiseConfig(edge_jitter_px=1.0, edge_dropout=0.1, occluders=(wall,)))
        h = hashlib.sha256()
        for frame_scene, frame_id in ((scene, 2), (noisy, 7), (noisy, 12)):
            for raster in syn.render_frame(frame_scene, frame_id):
                h.update(raster.tobytes())
        assert h.hexdigest() == "7c1b1cc6c093ab04eb4971e30d93c506c28b26cb2986d69b4532ed0a89f84710"

    def test_nearest_landmark_owns_a_shared_pixel(self):
        # A far line crossed by a nearer one listed after it: the crossing
        # pixel takes the nearer one's label. A twin of the far line, at
        # equal depth everywhere, leaves every pixel to the earlier landmark.
        from edgeloc.compact_map import CompactMap, LineSegmentLandmark, SemanticLabel

        base = syn.generate_scene(4, "sparse", n_frames=1)
        pose = base.pose_of(0)
        first, second = SemanticLabel("first", "road"), SemanticLabel("second", "road")

        def line(label, p0, p1, lid):
            return LineSegmentLandmark(label, pose.apply(p0), pose.apply(p1), landmark_id=lid)

        far = line(first, [-3.0, 0.5, 12.0], [3.0, 0.5, 12.0], 0)
        near = line(second, [0.1, -2.0, 6.0], [0.1, 2.0, 6.0], 1)
        twin = line(second, [-3.0, 0.5, 12.0], [3.0, 0.5, 12.0], 1)
        u, v, _ = project_points(np.array([[0.2, 0.5, 12.0], [-1.0, 0.5, 12.0]]), base.intrinsics)
        (u_cross, u_far), v = np.rint(u).astype(int), int(np.rint(v[0]))

        scene = replace(base, compact_map=CompactMap((first, second), (far, near)))
        labels, _, _ = syn.render_frame(scene, 0)
        assert labels[v, u_cross] == 2 and labels[v, u_far] == 1

        scene = replace(base, compact_map=CompactMap((first, second), (far, twin)))
        labels, edges, _ = syn.render_frame(scene, 0)
        assert edges[v, u_far] and set(np.unique(labels[edges > 0])) == {1}
