import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloc import alignment as al
from edgeloc import edge_features as ef
from edgeloc import synthetic as syn
from edgeloc.config import PipelineConfig
from edgeloc.edge_features import build_edge_masks, build_fields, coarsen_mask
from edgeloc.geometry import CameraIntrinsics, Pose, rotation_angle, rotation_zyx, so3_exp
from edgeloc.selection import LandmarkSamples, select_landmarks

K = CameraIntrinsics(fx=250.0, fy=250.0, cx=159.5, cy=119.5, width=320, height=240)


def ramp_field(label, a, b, c, shape=(240, 320)):
    """An affine distance surface: gradients are exact, no ridges anywhere."""
    vv, uu = np.meshgrid(np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float), indexing="ij")
    grid = a * uu + b * vv + c
    return ef.SemanticEdgeField(label, grid, d_max=1e9)


def block_samples(blocks):
    """LandmarkSamples of ``{label: points}`` blocks, in dict order; landmark ids are 0."""
    labels = tuple(blocks)
    points = [np.asarray(blocks[name], float).reshape(-1, 3) for name in labels]
    label = np.repeat(np.arange(len(labels)), [len(p) for p in points])
    points = np.concatenate(points or [np.empty((0, 3))])
    return LandmarkSamples(labels, points, label, np.zeros(label.size, dtype=int))


def single_sample_problem(field, point_r, prior=None, config=None):
    samples = block_samples({field.label: point_r})
    return al.AlignmentProblem(
        samples=samples,
        fields={field.label: field},
        prior=prior or Pose.identity(),
        intrinsics=K,
        config=config or PipelineConfig(),
    )


class TestResidual:
    def test_zero_on_edge_pixel(self):
        mask = np.zeros((240, 320), dtype=bool)
        mask[120, :] = True
        field = ef.build_field(ef.SemanticEdgeMask("lane", mask))
        # a point projecting exactly onto row 120: v = cy + fy*y/z = 120
        y = (120 - K.cy) * 4.0 / K.fy
        problem = single_sample_problem(field, [0.0, y, 4.0])
        value = al.residual(problem, Pose.identity(), [0.0, y, 4.0], "lane")
        assert abs(value) < 1e-12

    def test_empty_mask_gives_truncation_value(self):
        field = ef.build_field(ef.SemanticEdgeMask("lane", np.zeros((240, 320), bool)), d_max=20.0)
        problem = single_sample_problem(field, [0.0, 0.0, 5.0])
        value = al.residual(problem, Pose.identity(), [0.0, 0.0, 5.0], "lane")
        assert value == 20.0

    def test_hand_built_field_bilinear_value(self):
        grid = np.zeros((8, 8))
        grid[2, 3] = 4.0
        grid[2, 4] = 8.0
        grid[3, 3] = 2.0
        grid[3, 4] = 6.0
        field = ef.SemanticEdgeField("lane", grid, d_max=100.0)
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=3.0, cy=2.0, width=8, height=8)
        # choose a camera point projecting to (u, v) = (3.5, 2.25)
        point = np.array([0.5 / 10.0, 0.25 / 10.0, 1.0])
        samples = block_samples({"lane": point})
        problem = al.AlignmentProblem(samples=samples, fields={"lane": field}, prior=Pose.identity(), intrinsics=k)
        # manual bilinear at (3.5, 2.25): rows 2,3 cols 3,4
        expected = (4.0 * 0.5 + 8.0 * 0.5) * 0.75 + (2.0 * 0.5 + 6.0 * 0.5) * 0.25
        value = al.residual(problem, Pose.identity(), point, "lane")
        assert abs(value - expected) < 1e-12

    def test_behind_camera_dropped(self):
        field = ramp_field("lane", 0.1, 0.0, 5.0)
        problem = single_sample_problem(field, [0.0, 0.0, 5.0])
        assert al.residual(problem, Pose.identity(), [0.0, 0.0, -5.0], "lane") is None

    def test_out_of_bounds_dropped(self):
        field = ramp_field("lane", 0.1, 0.0, 5.0)
        problem = single_sample_problem(field, [50.0, 0.0, 5.0])
        assert al.residual(problem, Pose.identity(), [50.0, 0.0, 5.0], "lane") is None


class TestEnergy:
    def test_zero_when_all_residuals_zero(self):
        field = ramp_field("lane", 0.0, 0.0, 0.0)
        problem = single_sample_problem(field, [0.0, 0.0, 5.0])
        value, count = al.energy(problem, Pose.identity())
        assert value == 0.0 and count == 1

    def test_three_four_gives_twenty_five(self):
        field_a = ramp_field("a", 0.0, 0.0, 3.0)
        field_b = ramp_field("b", 0.0, 0.0, 4.0)
        samples = block_samples({"a": [[0.0, 0.0, 5.0]], "b": [[0.1, 0.0, 5.0]]})
        problem = al.AlignmentProblem(
            samples=samples, fields={"a": field_a, "b": field_b}, prior=Pose.identity(), intrinsics=K
        )
        value, count = al.energy(problem, Pose.identity())
        assert abs(value - 25.0) < 1e-12 and count == 2

    def test_matches_independent_resummation(self):
        rng = np.random.default_rng(0)
        fields = {}
        points = {}
        for label in ("a", "b", "c"):
            mask = rng.random((240, 320)) < 0.01
            fields[label] = ef.build_field(ef.SemanticEdgeMask(label, mask))
            pts = np.column_stack(
                [rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.0, 1.0, 40), rng.uniform(2.0, 20.0, 40)]
            )
            points[label] = pts
        weights = (("a", 2.0), ("b", 0.5))
        cfg = PipelineConfig(label_weights=weights)
        samples = block_samples(points)
        problem = al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K, config=cfg)
        pose = Pose.identity()
        value, count = al.energy(problem, pose)
        # oracle: per-sample scalar residuals, summed with weights
        total = 0.0
        n = 0
        for label, pts in points.items():
            for p in pts:
                r = al.residual(problem, pose, p, label)
                if r is not None:
                    total += cfg.weight_for(label) * r * r
                    n += 1
        assert abs(value - total) < 1e-9
        assert count == n


class TestJacobianRow:
    def test_zero_gradient_gives_zero_row(self):
        field = ramp_field("lane", 0.0, 0.0, 7.0)
        problem = single_sample_problem(field, [0.2, 0.1, 5.0])
        row = al.jacobian_row(problem, Pose.identity(), [0.2, 0.1, 5.0], "lane")
        assert np.allclose(row, 0.0, atol=1e-15)

    def test_frontoparallel_translation_entry(self):
        # identity pose, G = (1, 0): translation-x entry must be -fx/Z
        field = ramp_field("lane", 1.0, 0.0, 3.0)
        point = np.array([0.0, 0.0, 5.0])
        problem = single_sample_problem(field, point)
        row = al.jacobian_row(problem, Pose.identity(), point, "lane")
        assert abs(row[0] - (-K.fx / 5.0)) < 1e-9

    def test_matches_finite_differences_on_ramps(self):
        rng = np.random.default_rng(1)
        step = 1e-5
        checked = 0
        while checked < 200:
            field = ramp_field("lane", rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(20, 60))
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            pose = Pose(so3_exp(axis * rng.uniform(0, 2.5)), rng.uniform(-3, 3, 3))
            point_cam = np.array(
                [rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), rng.uniform(2.0, 30.0)]
            )
            point_cam[:2] *= point_cam[2]
            prior = Pose.identity()
            world = pose.apply(point_cam)  # in frame r == world here
            problem = single_sample_problem(field, world, prior=prior)
            row = al.jacobian_row(problem, pose, world, "lane")
            if row is None:
                continue
            fd = np.zeros(6)
            ok = True
            for i in range(6):
                delta = np.zeros(6)
                delta[i] = step
                plus = al.residual(problem, al.perturb_pose(pose, delta), world, "lane")
                minus = al.residual(problem, al.perturb_pose(pose, -delta), world, "lane")
                if plus is None or minus is None:
                    ok = False
                    break
                fd[i] = (plus - minus) / (2.0 * step)
            if not ok:
                continue
            checked += 1
            denom = max(np.linalg.norm(row), np.linalg.norm(fd), 1e-9)
            assert np.linalg.norm(row - fd) / denom < 1e-3


def noiseless_grid_setup():
    """A scene whose samples reproject exactly onto integer pixel rows and
    columns, so the rendered mask zeroes every residual identically."""
    mask = np.zeros((240, 320), dtype=bool)
    rows = [80, 120, 160]
    cols = [100, 160, 220]
    for r in rows:
        mask[r, :] = True
    for c in cols:
        mask[:, c] = True
    field = ef.build_field(ef.SemanticEdgeMask("lane", mask))
    pts = []
    z = 5.0
    for r in rows:
        for u in np.linspace(10, 300, 30):
            pts.append([(u - K.cx) * z / K.fx, (r - K.cy) * z / K.fy, z])
    for c in cols:
        for v in np.linspace(10, 230, 30):
            pts.append([(c - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])
    samples = block_samples({"lane": pts})
    return al.AlignmentProblem(
        samples=samples, fields={"lane": field}, prior=Pose.identity(), intrinsics=K
    )


class TestSolve:
    def test_fixed_point_converges_immediately(self):
        problem = noiseless_grid_setup()
        result = al.solve(problem)
        assert result.converged
        assert result.iterations <= 2
        assert np.linalg.norm(result.pose.translation) < 1e-6
        assert result.energy < 1e-12

    def test_recovers_perturbed_pose_on_synthetic_scene(self):
        # Single-frame sanity bound; the tighter RMSE budget over a full
        # sequence lives in the acceptance suite.
        scene = syn.generate_scene(2, "urban-straight", n_frames=3)
        cfg = PipelineConfig()
        rng = np.random.Generator(np.random.Philox(key=np.array([2, 42], np.uint64)))
        gt = scene.pose_of(1)
        prior = syn.perturb_pose_random(gt, 0.3, math.radians(1.0), rng)
        labels, edges, dynamic = syn.render_frame(scene, 1)
        masks = build_edge_masks(labels, edges, dynamic, scene.compact_map.label_names)
        fields = build_fields(masks, d_max=cfg.dt_truncation_px)
        coarse = build_fields([coarsen_mask(m) for m in masks], d_max=cfg.dt_truncation_px)
        samples = select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg)
        problem = al.AlignmentProblem(
            samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg
        )
        result = al.align_frame(problem, coarse)
        assert result.accepted
        assert np.linalg.norm(result.pose.translation - gt.translation) < 1e-2
        assert math.degrees(rotation_angle(gt.rotation.T @ result.pose.rotation)) < 0.05

    def test_rejected_frame_gets_one_coarse_and_one_fine_solve(self, monkeypatch):
        # A prior 1.5 m off to the side cannot be pulled back in; the frame
        # is dropped after its single coarse-to-fine attempt, with no retry.
        scene = syn.generate_scene(2, "urban-straight", n_frames=3)
        cfg = PipelineConfig()
        gt = scene.pose_of(1)
        prior = Pose(gt.rotation, gt.translation + gt.rotation @ np.array([1.5, 0.0, 0.0]))
        labels, edges, dynamic = syn.render_frame(scene, 1)
        masks = build_edge_masks(labels, edges, dynamic, scene.compact_map.label_names)
        fields = build_fields(masks, d_max=cfg.dt_truncation_px)
        coarse = build_fields([coarsen_mask(m) for m in masks], d_max=cfg.dt_truncation_px)
        samples = select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg)
        problem = al.AlignmentProblem(
            samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg
        )
        single = al.validate(al.solve_two_scale(problem, coarse), prior, cfg)
        assert not single.accepted

        solved = []
        original = al.solve
        monkeypatch.setattr(al, "solve", lambda p: solved.append(p.intrinsics.width) or original(p))
        result = al.align_frame(problem, coarse)
        assert solved == [scene.intrinsics.width // ef.COARSE_SCALE, scene.intrinsics.width]
        assert not result.accepted
        assert result.reject_reason == single.reject_reason
        assert np.array_equal(result.pose.translation, single.pose.translation)
        assert np.array_equal(result.pose.rotation, single.pose.rotation)

    def test_single_lane_line_not_accepted(self):
        from dataclasses import replace

        from edgeloc.compact_map import CompactMap, LineSegmentLandmark, SemanticLabel

        lab = SemanticLabel("lane_line", "road")
        segs = tuple(
            LineSegmentLandmark(lab, [i * 5.0, -1.75, 0.0], [(i + 1) * 5.0, -1.75, 0.0], landmark_id=i)
            for i in range(40)
        )
        cmap = CompactMap((lab,), segs)
        scene = replace(syn.generate_scene(1, "sparse", n_frames=2), compact_map=cmap)
        cfg = PipelineConfig()
        gt = scene.pose_of(0)
        labels, edges, dynamic = syn.render_frame(scene, 0)
        masks = build_edge_masks(labels, edges, dynamic, cmap.label_names)
        fields = build_fields(masks, d_max=cfg.dt_truncation_px)
        samples = select_landmarks(cmap, gt, scene.intrinsics, cfg)
        problem = al.AlignmentProblem(samples=samples, fields=fields, prior=gt, intrinsics=scene.intrinsics, config=cfg)
        result = al.validate(al.solve(problem), gt, cfg)
        assert not result.accepted
        assert result.reject_reason == al.REJECT_LOW_INFORMATION

    def test_too_few_samples(self):
        field = ramp_field("lane", 0.2, 0.0, 5.0)
        problem = single_sample_problem(field, [0.0, 0.0, 5.0])
        result = al.solve(problem)
        assert result.reject_reason == al.REJECT_TOO_FEW_SAMPLES
        validated = al.validate(result, Pose.identity(), problem.config)
        assert not validated.accepted

    def test_energy_monotone_across_accepted_iterations(self):
        problem = _small_synthetic_problem()
        result = al.solve(problem)
        history = np.array(result.energy_history)
        assert (np.diff(history) <= 1e-12).all()

    def test_active_counts_never_exceed_input(self):
        problem = _small_synthetic_problem()
        result = al.solve(problem)
        assert len(result.active_counts) == len(result.energy_history)
        assert max(result.active_counts) <= problem.samples.total_count()

    def test_bitwise_determinism(self):
        problem = _small_synthetic_problem()
        a = al.solve(problem)
        b = al.solve(problem)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert a.energy == b.energy and a.iterations == b.iterations

    def test_gauge_equivariance_of_energy_and_step(self):
        # The mathematically exact part: moving the whole world frame by a
        # rigid transform leaves the energy unchanged and maps the first
        # normal-equation step by the same transform.
        problem = _small_synthetic_problem()
        gauge = Pose(rotation_zyx(0.7, 0.1, -0.2), np.array([10.0, -4.0, 2.0]))
        moved = al.AlignmentProblem(
            samples=problem.samples,
            fields=problem.fields,
            prior=gauge.compose(problem.prior),
            intrinsics=problem.intrinsics,
            config=problem.config,
        )
        pose = problem.start_pose
        moved_pose = gauge.compose(pose)
        e0, n0 = al.energy(problem, pose)
        e1, n1 = al.energy(moved, moved_pose)
        assert n0 == n1
        assert abs(e0 - e1) <= 1e-9 * max(e0, 1.0)

        prep0 = al._Prepared(problem)
        prep1 = al._Prepared(moved)
        _, _, r0, rows0 = al._evaluate(prep0, pose)
        _, _, r1, rows1 = al._evaluate(prep1, moved_pose)
        j0, j1 = rows0(), rows1()
        step0 = np.linalg.solve(j0.T @ j0 + 1e-6 * np.eye(6), -j0.T @ r0)
        step1 = np.linalg.solve(j1.T @ j1 + 1e-6 * np.eye(6), -j1.T @ r1)
        # translation block transforms with the gauge rotation, rotation
        # block is frame-local
        mapped = np.concatenate([gauge.rotation @ step0[:3], step0[3:]])
        assert np.abs(mapped - step1).max() < 1e-6 * max(1.0, np.abs(step0).max())

    def test_gauge_equivariance_of_full_solve(self):
        # The full iteration stalls somewhere inside the kink-scale valley
        # of the rasterized field, and rounding differences between gauge
        # frames change the path, so the end poses agree only to that scale.
        problem = _small_synthetic_problem()
        result = al.solve(problem)
        gauge = Pose(rotation_zyx(0.7, 0.1, -0.2), np.array([10.0, -4.0, 2.0]))
        moved = al.AlignmentProblem(
            samples=problem.samples,
            fields=problem.fields,
            prior=gauge.compose(problem.prior),
            intrinsics=problem.intrinsics,
            config=problem.config,
        )
        moved_result = al.solve(moved)
        expected = gauge.compose(result.pose)
        assert np.abs(moved_result.pose.translation - expected.translation).max() < 2e-3
        assert rotation_angle(moved_result.pose.rotation.T @ expected.rotation) < 2e-4


def _small_synthetic_problem():
    scene = syn.generate_scene(4, "sparse", n_frames=2)
    cfg = PipelineConfig()
    gt = scene.pose_of(0)
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 4], np.uint64)))
    prior = syn.perturb_pose_random(gt, 0.1, math.radians(0.5), rng)
    labels, edges, dynamic = syn.render_frame(scene, 0)
    masks = build_edge_masks(labels, edges, dynamic, scene.compact_map.label_names)
    fields = build_fields(masks, d_max=cfg.dt_truncation_px)
    samples = select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg)
    return al.AlignmentProblem(
        samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg
    )


class TestValidate:
    def _result(self, **kwargs):
        base = dict(
            pose=Pose.identity(),
            converged=True,
            iterations=5,
            mean_reproj_error=0.5,
            inlier_count=200,
            energy=100.0,
            info_min_eig=10.0,
        )
        base.update(kwargs)
        return al.AlignmentResult(**base)

    def test_estimate_equal_to_prior_accepted(self):
        cfg = PipelineConfig()
        out = al.validate(self._result(), Pose.identity(), cfg)
        assert out.accepted and out.reject_reason == al.REJECT_NONE

    def test_five_meter_jump_rejected(self):
        cfg = PipelineConfig()
        moved = Pose(np.eye(3), [5.0, 0.0, 0.0])
        out = al.validate(self._result(pose=moved), Pose.identity(), cfg)
        assert not out.accepted and out.reject_reason == al.REJECT_POSE_INCONSISTENT

    def test_rotation_jump_rejected(self):
        cfg = PipelineConfig()
        turned = Pose(so3_exp([0.0, 0.0, math.radians(5.0)]), np.zeros(3))
        out = al.validate(self._result(pose=turned), Pose.identity(), cfg)
        assert out.reject_reason == al.REJECT_POSE_INCONSISTENT

    def test_high_reprojection_rejected(self):
        cfg = PipelineConfig()
        out = al.validate(self._result(mean_reproj_error=10.0), Pose.identity(), cfg)
        assert out.reject_reason == al.REJECT_HIGH_REPROJ

    def test_low_information_rejected(self):
        cfg = PipelineConfig()
        out = al.validate(self._result(info_min_eig=1e-9), Pose.identity(), cfg)
        assert out.reject_reason == al.REJECT_LOW_INFORMATION

    def test_not_converged_rejected(self):
        cfg = PipelineConfig()
        out = al.validate(self._result(converged=False), Pose.identity(), cfg)
        assert out.reject_reason == al.REJECT_DIVERGED

    def test_accepted_implies_gates(self):
        cfg = PipelineConfig()
        out = al.validate(self._result(), Pose.identity(), cfg)
        assert out.converged
        assert out.mean_reproj_error <= cfg.max_mean_reproj_px
        assert out.info_min_eig >= cfg.min_information


class TestProblemType:
    def test_missing_field_rejected(self):
        samples = block_samples({"lane": np.zeros((1, 3))})
        with pytest.raises(ValueError):
            al.AlignmentProblem(samples=samples, fields={}, prior=Pose.identity(), intrinsics=K)

    def test_missing_field_of_one_sampled_label_rejected(self):
        samples = block_samples({"lane": np.zeros((1, 3)), "pole": np.zeros((2, 3))})
        fields = {"lane": ramp_field("lane", 0.0, 0.0, 1.0)}
        with pytest.raises(ValueError, match="'pole'"):
            al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K)

    def test_initial_defaults_to_prior(self):
        field = ramp_field("lane", 0.1, 0.0, 5.0)
        prior = Pose(np.eye(3), [1.0, 2.0, 3.0])
        problem = single_sample_problem(field, [0.0, 0.0, 5.0], prior=prior)
        assert problem.start_pose is prior


def reference_probe_escape(prepared, pose, energy_now, count_now, min_samples, magnitudes):
    """The probe scan as one ``_evaluate`` per candidate: the oracle of the batched scan."""
    best = None
    count_floor = max(min_samples, int(0.95 * count_now))
    for direction in al._PROBE_DIRECTIONS:
        for magnitude in magnitudes:
            candidate = Pose(pose.rotation, pose.translation + pose.rotation @ (magnitude * direction))
            energy_new, count_new, _, _ = al._evaluate(prepared, candidate)
            if count_new >= count_floor and energy_new < energy_now - 1e-9:
                if best is None or energy_new < best[0]:
                    best = (energy_new, count_new, candidate)
    return best


def probe_key(best):
    if best is None:
        return None
    energy_value, count, pose = best
    return energy_value, count, pose.translation.tobytes(), pose.rotation.tobytes()


def assert_probe_matches_reference(prepared, pose, energy_now, count_now, min_samples, magnitudes):
    got = al._probe_escape(prepared, pose, energy_now, count_now, min_samples, magnitudes)
    want = reference_probe_escape(prepared, pose, energy_now, count_now, min_samples, magnitudes)
    assert probe_key(got) == probe_key(want)
    return got


def prepared_problem(grids, blocks, intrinsics, config=None):
    """_Prepared of world-frame samples, one field per label."""
    fields = {
        label: ef.SemanticEdgeField(label, grid, d_max=float(grid.max(initial=0.0))) for label, grid in zip(blocks, grids)
    }
    problem = al.AlignmentProblem(
        samples=block_samples(blocks),
        fields=fields,
        prior=Pose.identity(),
        intrinsics=intrinsics,
        config=config or PipelineConfig(),
    )
    return al._Prepared(problem)


@st.composite
def probe_scans(draw):
    """Random fields, samples, pose and scan thresholds for one probe scan.

    Grids are small and their values few, so plateaus and exact energy ties
    are common; samples reach behind the camera and off the image."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    intrinsics = CameraIntrinsics(
        fx=draw(st.floats(2.0, 40.0)), fy=draw(st.floats(2.0, 40.0)),
        cx=(width - 1) / 2.0, cy=(height - 1) / 2.0, width=width, height=height,
    )
    n_labels = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))
    grids = [
        rng.integers(0, levels, size=(height, width)).astype(float) * draw(st.sampled_from([0.5, 1.0, 3.0]))
        for _ in range(n_labels)
    ]
    weights = tuple((f"l{i}", draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))) for i in range(n_labels))
    pose = Pose(so3_exp(rng.normal(size=3) * draw(st.sampled_from([0.0, 0.05, 1.0]))), rng.normal(size=3))
    blocks = {}
    for label, _ in weights:
        n = draw(st.integers(0, 25))
        cam = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n), rng.uniform(-0.5, 4.0, n)])
        blocks[label] = pose.apply(cam)
    prepared = prepared_problem(grids, blocks, intrinsics, PipelineConfig(label_weights=weights))
    energy_here, count_here, _, _ = al._evaluate(prepared, pose)
    energy_now = draw(st.sampled_from([energy_here, math.inf, energy_here * 0.5]))
    count_now = draw(st.sampled_from([count_here, 0, prepared.total_samples]))
    min_samples = draw(st.sampled_from([0, 1, 5, 30]))
    magnitudes = draw(st.sampled_from([al._PROBE_MAGNITUDES_NEAR_M, al._PROBE_MAGNITUDES_FAR_M]))
    return prepared, pose, energy_now, count_now, min_samples, magnitudes


SMALL_K = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=11.5, width=32, height=24)


def constant_field_scan(points=None):
    """Samples on a field of 2.0 everywhere, so a candidate's energy is 4.0
    per active sample. By default nine samples 2 m ahead: every candidate
    that keeps them all active has the same energy."""
    if points is None:
        points = [[x, y, 2.0] for x in (-0.2, 0.0, 0.2) for y in (-0.2, 0.0, 0.2)]
    return prepared_problem([np.full((24, 32), 2.0)], {"lane": points}, SMALL_K)


def points_at_pixels(u, v, z):
    """Camera-frame points that project to pixels (u, v) at depths z under SMALL_K."""
    u, v, z = (np.asarray(a, float) for a in (u, v, z))
    return np.column_stack([(u - SMALL_K.cx) * z / SMALL_K.fx, (v - SMALL_K.cy) * z / SMALL_K.fy, z])


class TestProbeScan:
    @settings(deadline=None, max_examples=200)
    @given(probe_scans())
    def test_matches_per_candidate_reference(self, scan):
        assert_probe_matches_reference(*scan)

    @pytest.mark.parametrize("magnitudes", [al._PROBE_MAGNITUDES_NEAR_M, al._PROBE_MAGNITUDES_FAR_M])
    def test_exact_tie_goes_to_the_first_candidate(self, magnitudes):
        prepared = constant_field_scan()
        pose = Pose.identity()
        best = assert_probe_matches_reference(prepared, pose, math.inf, 9, 0, magnitudes)
        first = pose.translation + pose.rotation @ (magnitudes[0] * al._PROBE_DIRECTIONS[0])
        assert best[:2] == (36.0, 9)
        assert best[2].translation.tobytes() == first.tobytes()

    def test_ties_are_broken_direction_major(self):
        # Four samples near the left border. Every sample is lost, for the
        # lowest energy 0.0, first by direction 18 at 0.1 m in
        # direction-major order; magnitude-major order would reach
        # direction 21 at 0.05 m first.
        prepared = constant_field_scan(points_at_pixels([2.6, 0.2, 1.0, 0.5], [10, 18, 5, 1], [0.5, 2.5, 2.4, 0.9]))
        pose = Pose.identity()
        for index, magnitude in ((18, 0.1), (21, 0.05)):
            moved = Pose(np.eye(3), magnitude * al._PROBE_DIRECTIONS[index])
            assert al._evaluate(prepared, moved)[:2] == (0.0, 0)
        best = assert_probe_matches_reference(prepared, pose, math.inf, 0, 0, al._PROBE_MAGNITUDES_NEAR_M)
        assert best[2].translation.tobytes() == (0.1 * al._PROBE_DIRECTIONS[18]).tobytes()

    def test_count_floor_is_95_percent_of_the_current_count(self):
        # Eleven samples: some candidates keep 9, none keep 10. The floor
        # int(0.95 * 11) = 10 rules the 9s out, so a candidate keeping all
        # 11 wins even though a 9 has less energy.
        prepared = constant_field_scan(
            points_at_pixels(
                [0.2, 2.6, 2.8, 0.8, 0.0, 1.4, 0.5, 2.9, 2.7, 2.9, 1.8],
                [12, 19, 15, 6, 21, 10, 18, 12, 4, 7, 13],
                [1.9, 1.2, 1.1, 1.8, 2.0, 1.9, 1.3, 1.8, 3.0, 1.5, 2.6],
            )
        )
        kept = {
            al._evaluate(prepared, Pose(np.eye(3), magnitude * direction))[1]
            for direction in al._PROBE_DIRECTIONS
            for magnitude in al._PROBE_MAGNITUDES_NEAR_M
        }
        assert 9 in kept and 10 not in kept
        best = assert_probe_matches_reference(prepared, Pose.identity(), math.inf, 11, 0, al._PROBE_MAGNITUDES_NEAR_M)
        assert best[:2] == (44.0, 11)

    def test_energy_must_be_lower_by_the_margin(self):
        prepared = constant_field_scan()
        pose = Pose.identity()
        assert assert_probe_matches_reference(prepared, pose, 36.0, 9, 0, al._PROBE_MAGNITUDES_NEAR_M) is None
        # The least energy_now that a 36.0 candidate beats, and the float below it.
        edge = 36.0 + 1e-9
        for _ in range(4):
            edge = np.nextafter(edge, 0.0)
        while not 36.0 < edge - 1e-9:
            edge = np.nextafter(edge, math.inf)
        short = np.nextafter(edge, 0.0)
        assert not 36.0 < short - 1e-9
        assert assert_probe_matches_reference(prepared, pose, edge, 9, 0, al._PROBE_MAGNITUDES_NEAR_M) is not None
        assert assert_probe_matches_reference(prepared, pose, short, 9, 0, al._PROBE_MAGNITUDES_NEAR_M) is None

    def test_count_floor_is_inclusive(self):
        prepared = constant_field_scan()
        pose = Pose.identity()
        # int(0.95 * 9) = 8 and min_samples 9: every candidate keeps all 9.
        assert assert_probe_matches_reference(prepared, pose, math.inf, 9, 9, al._PROBE_MAGNITUDES_NEAR_M) is not None
        assert assert_probe_matches_reference(prepared, pose, math.inf, 9, 10, al._PROBE_MAGNITUDES_NEAR_M) is None

    def test_candidates_behind_the_camera_or_off_the_image_lose_samples(self):
        # A sample 4 cm ahead at the left image border: candidates that move
        # forward put it behind the camera, those that move right push it
        # off the image.
        grid = np.arange(24 * 32, dtype=float).reshape(24, 32) % 7.0 + 1.0
        points = [[-0.0124, 0.0, 0.04], [0.0, 0.0, 3.0], [0.3, 0.1, 2.0]]
        prepared = prepared_problem([grid], {"lane": points}, SMALL_K)
        pose = Pose.identity()
        for magnitudes in (al._PROBE_MAGNITUDES_NEAR_M, al._PROBE_MAGNITUDES_FAR_M):
            for min_samples in (0, 2, 3):
                assert_probe_matches_reference(prepared, pose, math.inf, 0, min_samples, magnitudes)
        forward = Pose(np.eye(3), [0.0, 0.0, 0.05])  # the sample ends up 1 cm behind the camera
        right = Pose(np.eye(3), [0.05, 0.0, 0.0])  # and off the left border here
        for moved in (forward, right):
            assert al._evaluate(prepared, moved)[1] == 2

    def test_zero_min_samples_lets_an_empty_candidate_win(self):
        # One sample at the left border on a field that is positive
        # everywhere: a candidate that moves right (or forward) loses it and
        # scores 0.0, the lowest energy there is.
        prepared = prepared_problem([np.full((24, 32), 3.0)], {"lane": [[-15.4 / 50.0, 0.0, 1.0]]}, SMALL_K)
        pose = Pose.identity()
        best = assert_probe_matches_reference(prepared, pose, 9.0, 0, 0, al._PROBE_MAGNITUDES_NEAR_M)
        assert best[:2] == (0.0, 0)
        first_right = Pose(np.eye(3), al._PROBE_MAGNITUDES_NEAR_M[0] * al._PROBE_DIRECTIONS[17])  # (1, -1, -1)
        assert al._evaluate(prepared, first_right)[:2] == (0.0, 0)

    def test_no_samples(self):
        prepared = prepared_problem([np.ones((24, 32))], {"lane": np.empty((0, 3))}, K)
        assert prepared.total_samples == 0
        pose = Pose(so3_exp([0.1, -0.2, 0.3]), [1.0, 2.0, 3.0])
        for magnitudes in (al._PROBE_MAGNITUDES_NEAR_M, al._PROBE_MAGNITUDES_FAR_M):
            best = assert_probe_matches_reference(prepared, pose, 1.0, 0, 0, magnitudes)
            assert best[:2] == (0.0, 0)
            assert assert_probe_matches_reference(prepared, pose, 1.0, 0, 1, magnitudes) is None
            assert assert_probe_matches_reference(prepared, pose, 0.0, 0, 0, magnitudes) is None

    def test_matches_reference_on_a_rendered_frame(self):
        # A real frame with the prior 1 m off, where probes matter.
        problem = _small_synthetic_problem()
        prepared = al._Prepared(problem)
        rng = np.random.default_rng(5)
        for offset in (0.0, 0.3, 1.0):
            pose = syn.perturb_pose_random(problem.prior, offset, 0.01, rng)
            energy_here, count_here, _, _ = al._evaluate(prepared, pose)
            for magnitudes in (al._PROBE_MAGNITUDES_NEAR_M, al._PROBE_MAGNITUDES_FAR_M):
                assert_probe_matches_reference(prepared, pose, energy_here, count_here, 30, magnitudes)


class TestEvaluationReuse:
    """The solver finishes Jacobian rows from the evaluation that accepted a
    pose instead of projecting that pose again."""

    @settings(deadline=None, max_examples=200)
    @given(probe_scans(), st.integers(0, 2**32 - 1))
    def test_kept_evaluation_finishes_the_rows_of_a_fresh_one(self, scan, seed):
        # probe_scans draws samples behind the camera and off the image.
        prepared, pose = scan[:2]
        kept = al._evaluate(prepared, pose)
        rng = np.random.default_rng(seed)
        for _ in range(3):  # other poses evaluated and finished in between, as in solve
            al._evaluate(prepared, al.perturb_pose(pose, rng.normal(size=6) * 0.2))[3]()
        fresh = al._evaluate(prepared, Pose(pose.rotation.copy(), pose.translation.copy()))
        assert kept[:2] == fresh[:2]
        assert kept[2].tobytes() == fresh[2].tobytes()
        rows = kept[3]()
        assert rows.shape == (kept[1], 6)
        assert rows.tobytes() == fresh[3]().tobytes()

    def test_rows_of_a_pose_that_loses_samples(self):
        # Nine samples, one behind the camera and one beyond the right border.
        points = points_at_pixels([4.0, 10.0, 16.5, 22.0, 28.0, 31.0, 5.0, 12.0, 20.0], [11.5] * 9, [2.0] * 9)
        points[7, 2] = -1.0
        points[8, 0] = 3.0
        prepared = prepared_problem([np.add.outer(np.arange(24.0), np.arange(32.0) ** 1.5)], {"lane": points}, SMALL_K)
        pose = Pose.identity()
        energy_value, count, residuals, rows = al._evaluate(prepared, pose)
        assert count == 7 and rows().shape == (7, 6)
        fresh = al._evaluate(prepared, Pose(np.eye(3), np.zeros(3)))
        assert (energy_value, count, residuals.tobytes()) == (fresh[0], fresh[1], fresh[2].tobytes())
        assert rows().tobytes() == fresh[3]().tobytes()

    def test_solve_evaluates_each_pose_once(self, monkeypatch):
        # A pinned frame with the prior 1 m off, so steps are rejected and a
        # probe escapes.
        scene = syn.generate_scene(4, "urban-corner", n_frames=2)
        cfg = PipelineConfig()
        prior = syn.perturb_pose_random(scene.pose_of(0), 1.0, math.radians(1.0), np.random.default_rng(0))
        masks = build_edge_masks(*syn.render_frame(scene, 0), scene.compact_map.label_names)
        problem = al.AlignmentProblem(
            samples=select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg),
            fields=build_fields(masks, d_max=cfg.dt_truncation_px),
            prior=prior,
            intrinsics=scene.intrinsics,
            config=cfg,
        )
        seen = []
        evaluate = al._evaluate

        def recording(prepared, pose):
            seen.append(pose.rotation.tobytes() + pose.translation.tobytes())
            return evaluate(prepared, pose)

        monkeypatch.setattr(al, "_evaluate", recording)
        result = al.solve(problem)
        probe_rounds = len(result.energy_history) - 1 - result.iterations
        assert result.iterations > 0 and probe_rounds > 0
        assert len(seen) > result.iterations + probe_rounds
        assert len(set(seen)) == len(seen)
