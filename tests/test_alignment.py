import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloc import alignment as al
from edgeloc import edge_features as ef
from edgeloc import synthetic as syn
from edgeloc.config import PipelineConfig
from edgeloc.edge_features import build_edge_masks, build_fields, coarsen_mask
from edgeloc.geometry import MIN_PROJECTION_DEPTH, CameraIntrinsics, Pose, rotation_angle, rotation_zyx, so3_exp
from edgeloc.pipeline import FrameRecord
from edgeloc.selection import LandmarkSamples, select_landmarks

from test_edge_features import three_index_gather

K = CameraIntrinsics(fx=250.0, fy=250.0, cx=159.5, cy=119.5, width=320, height=240)


def ramp_grid(a, b, c, shape=(240, 320)):
    """An affine distance surface: gradients are exact, no ridges anywhere."""
    vv, uu = np.meshgrid(np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float), indexing="ij")
    return a * uu + b * vv + c


def ramp_field(label, a, b, c, shape=(240, 320)):
    """A one-label FieldStack of ramp_grid."""
    return ef.FieldStack([label], ramp_grid(a, b, c, shape)[None], d_max=1e9)


def mask_field(label, mask, d_max=ef.DEFAULT_TRUNCATION_PX):
    """A one-label FieldStack of a mask's distance field."""
    return build_fields([ef.SemanticEdgeMask(label, mask)], d_max=d_max)


def block_samples(blocks):
    """LandmarkSamples of ``{label: points}`` blocks, in dict order; landmark ids are 0."""
    labels = tuple(blocks)
    points = [np.asarray(blocks[name], float).reshape(-1, 3) for name in labels]
    label = np.repeat(np.arange(len(labels)), [len(p) for p in points])
    points = np.concatenate(points or [np.empty((0, 3))])
    return LandmarkSamples(labels, points, label, np.zeros(label.size, dtype=int))


def single_sample_problem(fields, point_r, prior=None, config=None):
    """One sample of the only label of ``fields``, a one-label FieldStack."""
    (label,) = fields
    samples = block_samples({label: point_r})
    return al.AlignmentProblem(
        samples=samples,
        fields=fields,
        prior=prior or Pose.identity(),
        intrinsics=K,
        config=config or PipelineConfig(),
    )


def sample_residual(problem, pose):
    """The residual of a one-sample problem at ``pose``, scaled by sqrt(weight);
    None when the sample is dropped."""
    _, count, residuals = al._evaluate(al._Prepared(problem), pose)[:3]
    return float(residuals[0]) if count else None


def sample_row(problem, pose):
    """The Jacobian row of a one-sample problem at ``pose``; None when the sample is dropped."""
    _, count, _, rows = al._evaluate(al._Prepared(problem), pose)[:4]
    return rows()[0] if count else None


def energy(problem, pose):
    """Total weighted squared residual and the active-sample count."""
    return al._evaluate(al._Prepared(problem), pose)[:2]


class TestResidual:
    def test_zero_on_edge_pixel(self):
        mask = np.zeros((240, 320), dtype=bool)
        mask[120, :] = True
        field = mask_field("lane", mask)
        # a point projecting exactly onto row 120: v = cy + fy*y/z = 120
        y = (120 - K.cy) * 4.0 / K.fy
        problem = single_sample_problem(field, [0.0, y, 4.0])
        value = sample_residual(problem, Pose.identity())
        assert abs(value) < 1e-12

    def test_empty_mask_gives_truncation_value(self):
        field = mask_field("lane", np.zeros((240, 320), bool), d_max=20.0)
        problem = single_sample_problem(field, [0.0, 0.0, 5.0])
        value = sample_residual(problem, Pose.identity())
        assert value == 20.0

    def test_hand_built_field_bilinear_value(self):
        grid = np.zeros((8, 8))
        grid[2, 3] = 4.0
        grid[2, 4] = 8.0
        grid[3, 3] = 2.0
        grid[3, 4] = 6.0
        fields = ef.FieldStack(["lane"], grid[None], d_max=100.0)
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=3.0, cy=2.0, width=8, height=8)
        # choose a camera point projecting to (u, v) = (3.5, 2.25)
        point = np.array([0.5 / 10.0, 0.25 / 10.0, 1.0])
        samples = block_samples({"lane": point})
        problem = al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=k)
        # manual bilinear at (3.5, 2.25): rows 2,3 cols 3,4
        expected = (4.0 * 0.5 + 8.0 * 0.5) * 0.75 + (2.0 * 0.5 + 6.0 * 0.5) * 0.25
        value = sample_residual(problem, Pose.identity())
        assert abs(value - expected) < 1e-12

    def test_behind_camera_dropped(self):
        field = ramp_field("lane", 0.1, 0.0, 5.0)
        problem = single_sample_problem(field, [0.0, 0.0, -5.0])
        assert sample_residual(problem, Pose.identity()) is None

    def test_out_of_bounds_dropped(self):
        field = ramp_field("lane", 0.1, 0.0, 5.0)
        problem = single_sample_problem(field, [50.0, 0.0, 5.0])
        assert sample_residual(problem, Pose.identity()) is None


class TestEnergy:
    def test_zero_when_all_residuals_zero(self):
        field = ramp_field("lane", 0.0, 0.0, 0.0)
        problem = single_sample_problem(field, [0.0, 0.0, 5.0])
        value, count = energy(problem, Pose.identity())
        assert value == 0.0 and count == 1

    def test_three_four_gives_twenty_five(self):
        fields = ef.FieldStack(["a", "b"], np.stack([ramp_grid(0.0, 0.0, 3.0), ramp_grid(0.0, 0.0, 4.0)]), d_max=1e9)
        samples = block_samples({"a": [[0.0, 0.0, 5.0]], "b": [[0.1, 0.0, 5.0]]})
        problem = al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K)
        value, count = energy(problem, Pose.identity())
        assert abs(value - 25.0) < 1e-12 and count == 2

    def test_matches_independent_resummation(self):
        rng = np.random.default_rng(0)
        masks = []
        points = {}
        for label in ("a", "b", "c"):
            mask = rng.random((240, 320)) < 0.01
            masks.append(ef.SemanticEdgeMask(label, mask))
            pts = np.column_stack(
                [rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.0, 1.0, 40), rng.uniform(2.0, 20.0, 40)]
            )
            points[label] = pts
        weights = (("a", 2.0), ("b", 0.5))
        cfg = PipelineConfig(label_weights=weights)
        samples = block_samples(points)
        fields = build_fields(masks)
        problem = al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K, config=cfg)
        pose = Pose.identity()
        value, count = energy(problem, pose)
        # oracle: per-sample residuals, each already scaled by sqrt(weight), summed
        total = 0.0
        n = 0
        for label, pts in points.items():
            for p in pts:
                r = sample_residual(replace(problem, samples=block_samples({label: p})), pose)
                if r is not None:
                    total += r * r
                    n += 1
        assert abs(value - total) < 1e-9
        assert count == n


class TestJacobianRow:
    def test_zero_gradient_gives_zero_row(self):
        field = ramp_field("lane", 0.0, 0.0, 7.0)
        problem = single_sample_problem(field, [0.2, 0.1, 5.0])
        row = sample_row(problem, Pose.identity())
        assert np.allclose(row, 0.0, atol=1e-15)

    def test_frontoparallel_translation_entry(self):
        # identity pose, G = (1, 0): translation-x entry must be -fx/Z
        field = ramp_field("lane", 1.0, 0.0, 3.0)
        point = np.array([0.0, 0.0, 5.0])
        problem = single_sample_problem(field, point)
        row = sample_row(problem, Pose.identity())
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
            row = sample_row(problem, pose)
            if row is None:
                continue
            fd = np.zeros(6)
            ok = True
            for i in range(6):
                delta = np.zeros(6)
                delta[i] = step
                plus = sample_residual(problem, al.perturb_pose(pose, delta))
                minus = sample_residual(problem, al.perturb_pose(pose, -delta))
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
    fields = mask_field("lane", mask)
    pts = []
    z = 5.0
    for r in rows:
        for u in np.linspace(10, 300, 30):
            pts.append([(u - K.cx) * z / K.fx, (r - K.cy) * z / K.fy, z])
    for c in cols:
        for v in np.linspace(10, 230, 30):
            pts.append([(c - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])
    samples = block_samples({"lane": pts})
    return al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K)


# A jump gate wide enough for a solve from a prior 1 m off to reach a probe round.
WIDE_GATE = PipelineConfig(max_translation_jump_m=5.0, max_rotation_jump_deg=10.0)


def side_offset_problem():
    """A rendered frame whose prior is 1.5 m to the side of the truth:
    (scene, problem, coarse fields)."""
    scene = syn.generate_scene(2, "urban-straight", n_frames=3)
    cfg = PipelineConfig()
    gt = scene.pose_of(1)
    prior = Pose(gt.rotation, gt.translation + gt.rotation @ np.array([1.5, 0.0, 0.0]))
    labels, edges, dynamic = syn.render_frame(scene, 1)
    masks = build_edge_masks(labels, edges, dynamic, scene.compact_map.label_names)
    fields = build_fields(masks, d_max=cfg.dt_truncation_px)
    coarse = build_fields([coarsen_mask(m) for m in masks], d_max=cfg.dt_truncation_px)
    samples = select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg)
    problem = al.AlignmentProblem(samples=samples, fields=fields, prior=prior, intrinsics=scene.intrinsics, config=cfg)
    return scene, problem, coarse


class TestSolve:
    def test_fixed_point_converges_immediately(self):
        problem = noiseless_grid_setup()
        result = al.solve(problem)
        assert result.reject_reason == al.REJECT_NONE
        assert result.iterations <= 2
        assert np.linalg.norm(result.pose.translation) < 1e-6
        assert result.energy_history[-1] < 1e-12

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
        assert result.accepted and result.coarse == al.COARSE_USED
        assert np.linalg.norm(result.pose.translation - gt.translation) < 1e-2
        assert math.degrees(rotation_angle(gt.rotation.T @ result.pose.rotation)) < 0.05

    def test_rejected_frame_gets_one_coarse_solve_only(self, monkeypatch):
        # A prior 1.5 m off to the side cannot be pulled back in: the coarse
        # solve stops at the pose gate, and its verdict and pose are the
        # frame's, with no fine solve after it.
        scene, problem, coarse = side_offset_problem()
        solves = []
        original = al.solve
        monkeypatch.setattr(al, "solve", lambda p: solves.append((p.intrinsics.width, original(p))) or solves[-1][1])
        result = al.align_frame(problem, coarse)
        [(width, coarse_result)] = solves
        assert width == scene.intrinsics.width // ef.COARSE_SCALE
        assert coarse_result.reject_reason == al.REJECT_POSE_INCONSISTENT
        assert not result.accepted and result.reject_reason == coarse_result.reject_reason
        assert result.pose is coarse_result.pose

    def test_frame_without_coarse_fields_gets_one_validated_fine_solve(self, monkeypatch):
        # The coarse stage skipped: align_frame is validate(solve(problem)).
        problem = _small_synthetic_problem()
        single = al.validate(al.solve(problem), problem.prior, problem.config)
        solved = []
        original = al.solve
        monkeypatch.setattr(al, "solve", lambda p: solved.append(p.intrinsics.width) or original(p))
        result = al.align_frame(problem, None)
        assert solved == [problem.intrinsics.width]
        assert result.accepted and single.accepted
        assert result.coarse == al.COARSE_SKIPPED
        assert result_digest(result) == result_digest(single)

    def test_coarse_stop_at_the_gate_is_the_result_with_no_residual(self, monkeypatch):
        # From 1.5 m off, the coarse solve stops at the pose gate. Its result
        # is returned with the coarse stage unused, its iterations and pose
        # kept, and no mean residual: one in coarse pixels compares with none.
        _, problem, coarse = side_offset_problem()
        solves = []
        original = al.solve
        monkeypatch.setattr(al, "solve", lambda p: solves.append(original(p)) or solves[-1])
        result = al.solve_two_scale(problem, coarse)
        [coarse_result] = solves
        assert coarse_result.reject_reason == al.REJECT_POSE_INCONSISTENT
        assert math.isfinite(coarse_result.mean_reproj_error)
        assert result.coarse == al.COARSE_UNUSED and result.mean_reproj_error == math.inf
        assert result.iterations == coarse_result.iterations and result.pose is coarse_result.pose
        assert result.reject_reason == al.REJECT_POSE_INCONSISTENT

    def test_a_stop_at_the_iteration_cap_goes_to_the_gates(self):
        # Three iterations leave the prior 0.1 m off 8 mm from the truth; the
        # gates accept that pose rather than dropping the frame as diverged.
        problem = replace(_small_synthetic_problem(), config=PipelineConfig(max_iterations=3))
        truth = syn.generate_scene(4, "sparse", n_frames=2).pose_of(0)
        result = al.align_frame(problem, None)
        assert result.iterations == 3 and result.accepted
        assert np.linalg.norm(result.pose.translation - truth.translation) < 0.01

    def test_coarse_stop_at_the_cap_hands_its_pose_over(self, monkeypatch):
        problem = replace(_small_synthetic_problem(), config=PipelineConfig(max_iterations=3))
        scene = syn.generate_scene(4, "sparse", n_frames=2)
        masks = build_edge_masks(*syn.render_frame(scene, 0), scene.compact_map.label_names)
        coarse = build_fields([coarsen_mask(m) for m in masks], d_max=problem.config.dt_truncation_px)
        solves = []
        original = al.solve
        monkeypatch.setattr(al, "solve", lambda p: solves.append((p.start_pose, original(p))) or solves[-1][1])
        assert al.solve_two_scale(problem, coarse).coarse == al.COARSE_USED
        (_, coarse_result), (fine_start, _) = solves
        assert coarse_result.iterations == 3 and coarse_result.reject_reason == al.REJECT_NONE
        assert fine_start is coarse_result.pose

    def test_a_step_that_loses_samples_ends_too_few_samples(self):
        # On a ramp that falls to the left, 40 samples from the left border
        # rightwards: the first accepted step carries two of them out of view,
        # below min_samples = 40. Such a frame logs no mean residual.
        z = 5.0
        u, v = np.linspace(0.0, 30.0, 40), np.linspace(20.0, 220.0, 40)
        points = np.column_stack([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, np.full(40, z)])
        field = ramp_field("lane", 1.0, 0.0, 5.0)
        problem = single_sample_problem(field, points, config=PipelineConfig(min_samples=40))
        result = al.align_frame(problem, None)
        assert not result.accepted and result.reject_reason == al.REJECT_TOO_FEW_SAMPLES
        assert result.iterations == 1 and result.active_counts == (40, 38)
        record = FrameRecord(0, f"dropped:{result.reject_reason}", result.iterations, result.mean_reproj_error, 40)
        assert json.loads(record.to_json())["mean_reproj_error"] is None

    def test_accepted_step_divides_the_damping_by_3(self, monkeypatch):
        # Each damped system is H + damping * (diag(H) + floor); the damping
        # is read back from its diagonal, with H rebuilt at the trial's pose.
        problem = _small_synthetic_problem()
        systems, bases = [], []
        linalg_solve, perturb = np.linalg.solve, al.perturb_pose
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: systems.append(a.copy()) or linalg_solve(a, b))
        monkeypatch.setattr(al, "perturb_pose", lambda pose, xi: bases.append(pose) or perturb(pose, xi))
        result = al.solve(problem)
        assert result.probe_rounds == 0 and len(systems) == len(bases)

        prepared = al._Prepared(problem)
        dampings = []
        for system, pose in zip(systems, bases):
            rows = al._evaluate(prepared, pose)[3]()
            hessian = rows.T @ rows
            floor = 1e-12 * max(float(np.trace(hessian)), 1.0)
            dampings.append((system[0, 0] - hessian[0, 0]) / (hessian[0, 0] + floor))
        assert dampings[0] == pytest.approx(al._LAMBDA_INIT, rel=1e-6)
        accepted = rejected = 0
        for i in range(1, len(dampings)):
            if dampings[i - 1] < 1e-9:
                break  # the clamp at 1e-12 is below what the diagonal resolves
            if bases[i] is bases[i - 1]:
                assert dampings[i] == pytest.approx(dampings[i - 1] * 10.0, rel=1e-6)
                rejected += 1
            else:
                assert dampings[i] == pytest.approx(dampings[i - 1] / 3.0, rel=1e-6)
                accepted += 1
        assert accepted >= 3 and rejected >= 1

    def test_solve_stops_at_the_pose_gate(self):
        # From the prior 1.5 m off, the iteration leaves the 1 m jump gate;
        # it stops at the first pose outside it rather than iterating on.
        _, problem, _ = side_offset_problem()
        result = al.solve(problem)
        assert result.reject_reason == al.REJECT_POSE_INCONSISTENT
        assert not al._within_jump(result.pose, problem.prior, problem.config)
        assert result.iterations < problem.config.max_iterations
        validated = al.validate(result, problem.prior, problem.config)
        assert not validated.accepted and validated.reject_reason == al.REJECT_POSE_INCONSISTENT

    def test_no_solvable_system_is_diverged(self, monkeypatch):
        # solve itself sets the reason, and validate passes it through.
        def singular(a, b):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(al.np.linalg, "solve", singular)
        problem = _small_synthetic_problem()
        result = al.solve(problem)
        assert result.reject_reason == al.REJECT_DIVERGED
        assert result.iterations == 0 and result.probe_rounds == 0
        validated = al.validate(result, problem.prior, problem.config)
        assert not validated.accepted and validated.reject_reason == al.REJECT_DIVERGED

    def test_every_step_rejected_converges_at_the_start_pose(self, monkeypatch):
        monkeypatch.setattr(al, "_ENERGY_SLACK", -math.inf)
        monkeypatch.setattr(al, "_MAX_PROBE_ROUNDS", 0)
        problem = _small_synthetic_problem()
        result = al.solve(problem)
        assert result.reject_reason == al.REJECT_NONE and result.iterations == 0
        assert result.pose is problem.start_pose
        assert result.energy_history == (energy(problem, problem.start_pose)[0],)

    def test_long_solve_reorthonormalizes(self, monkeypatch):
        # Small step caps keep the iteration going past the re-orthonormalization
        # at iteration 100; the energy recorded there is the orthonormal pose's.
        monkeypatch.setattr(al, "_MAX_STEP_TRANSLATION_M", 5e-4)
        monkeypatch.setattr(al, "_MAX_STEP_ROTATION_RAD", 5e-5)
        problem = _small_synthetic_problem()
        cut = al.solve(replace(problem, config=replace(problem.config, max_iterations=100)))
        assert cut.iterations == 100 and cut.energy_history[-1] == energy(problem, cut.pose)[0]
        result = al.solve(replace(problem, config=replace(problem.config, max_iterations=150)))
        assert result.iterations > 100
        assert len(result.energy_history) == 1 + result.iterations + result.probe_rounds
        steps = np.array(result.energy_history[: 1 + result.iterations])
        assert (np.diff(steps) <= 1e-12).all()
        assert_checked_and_read_only(result.pose)

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
        assert a.energy_history == b.energy_history and a.iterations == b.iterations

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
        e0, n0 = energy(problem, pose)
        e1, n1 = energy(moved, moved_pose)
        assert n0 == n1
        assert abs(e0 - e1) <= 1e-9 * max(e0, 1.0)

        prep0 = al._Prepared(problem)
        prep1 = al._Prepared(moved)
        _, _, r0, rows0 = al._evaluate(prep0, pose)[:4]
        _, _, r1, rows1 = al._evaluate(prep1, moved_pose)[:4]
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


CAP = 20.0


def cap_plateau_problem(grids=None, weights=(("a", 0.5), ("b", 2.0))):
    """200 samples of each weighted label at random sub-pixel locations 5 m
    ahead of an identity prior, on fields of ``CAP`` everywhere unless
    ``grids`` gives a label its own grid."""
    rng = np.random.default_rng(3)
    labels = [label for label, _ in weights]
    blocks = {}
    for label in labels:
        u, v, z = rng.uniform(0.5, K.width - 1.5, 200), rng.uniform(0.5, K.height - 1.5, 200), np.full(200, 5.0)
        blocks[label] = np.column_stack([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])
    stack = np.stack([(grids or {}).get(label, np.full((K.height, K.width), CAP)) for label in labels])
    return al.AlignmentProblem(
        samples=block_samples(blocks),
        fields=ef.FieldStack(labels, stack, d_max=CAP),
        prior=Pose.identity(),
        intrinsics=K,
        config=PipelineConfig(label_weights=weights),
    )


def sample_values(problem):
    """Every sample's field value at the prior, as the solver reads it."""
    prepared = al._Prepared(problem)
    u, v, valid = al._project(K, prepared.world.T)
    assert valid.all()
    return ef.bilinear_gather(prepared.distance, prepared.offset, u, v)[0]


class TestCapPlateau:
    """No escape probe when every active sample with a positive weight reads
    the truncation cap: a probe there can only win by losing samples."""

    def test_no_probe_round_and_no_samples_shed(self):
        problem = cap_plateau_problem()
        values = sample_values(problem)
        # Bilinear weights make some reads miss the cap by an ulp either way.
        assert np.any(values < CAP) and np.any(values > CAP)
        assert np.all(np.abs(values - CAP) <= 4 * np.spacing(CAP))
        result = al.solve(problem)
        assert result.probe_rounds == 0
        assert all(count >= 0.95 * result.active_counts[0] for count in result.active_counts)
        validated = al.validate(result, problem.prior, problem.config)
        assert validated.reject_reason == al.REJECT_LOW_INFORMATION

    def test_one_sample_below_the_cap_still_probes(self):
        # The first sample reads CAP - 0.5 on a flat patch, so the mean
        # residual stays within 0.01% of the cap.
        problem = cap_plateau_problem()
        u, v, _ = al._project(K, al._Prepared(problem).world.T[:1])
        grid = np.full((K.height, K.width), CAP)
        grid[int(v[0]) - 2:int(v[0]) + 4, int(u[0]) - 2:int(u[0]) + 4] = CAP - 0.5
        problem = cap_plateau_problem(grids={"a": grid})
        values = sample_values(problem)
        assert values[0] == CAP - 0.5 and np.all(values[1:] >= CAP - 4 * np.spacing(CAP))
        assert al.solve(problem).probe_rounds > 0

    def test_a_weight_zero_label_below_the_cap_is_ignored(self):
        weights = (("a", 0.5), ("b", 2.0), ("c", 0.0))
        problem = cap_plateau_problem(grids={"c": ramp_grid(0.01, 0.02, 1.0)}, weights=weights)
        assert np.all(sample_values(problem)[400:] < 10.0)
        result = al.solve(problem)
        assert result.probe_rounds == 0
        assert result.active_counts == (600,) * len(result.active_counts)


class TestValidate:
    def _result(self, **kwargs):
        base = dict(
            pose=Pose.identity(),
            iterations=5,
            mean_reproj_error=0.5,
            inlier_count=200,
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

    def test_reason_set_by_the_solve_passes_through(self):
        cfg = PipelineConfig()
        for reason in (al.REJECT_DIVERGED, al.REJECT_TOO_FEW_SAMPLES, al.REJECT_POSE_INCONSISTENT):
            out = al.validate(self._result(reject_reason=reason), Pose.identity(), cfg)
            assert not out.accepted and out.reject_reason == reason

    def test_accepted_implies_gates(self):
        cfg = PipelineConfig()
        out = al.validate(self._result(), Pose.identity(), cfg)
        assert out.accepted
        assert out.mean_reproj_error <= cfg.max_mean_reproj_px
        assert out.info_min_eig >= cfg.min_information


class TestProblemType:
    def test_missing_field_rejected(self):
        samples = block_samples({"lane": np.zeros((1, 3))})
        with pytest.raises(ValueError):
            al.AlignmentProblem(samples=samples, fields=build_fields([]), prior=Pose.identity(), intrinsics=K)

    def test_missing_field_of_one_sampled_label_rejected(self):
        samples = block_samples({"lane": np.zeros((1, 3)), "pole": np.zeros((2, 3))})
        fields = ramp_field("lane", 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="'pole'"):
            al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K)

    def test_plain_dict_of_fields_rejected(self):
        samples = block_samples({"lane": np.zeros((1, 3))})
        fields = dict(ramp_field("lane", 0.0, 0.0, 1.0))
        with pytest.raises(TypeError, match="FieldStack"):
            al.AlignmentProblem(samples=samples, fields=fields, prior=Pose.identity(), intrinsics=K)
        problem = single_sample_problem(ramp_field("lane", 0.0, 0.0, 1.0), [0.0, 0.0, 5.0])
        with pytest.raises(TypeError, match="FieldStack"):
            al.solve_two_scale(problem, dict(problem.fields))

    def test_hand_built_stack_is_a_read_only_view(self):
        grids = np.stack([ramp_grid(0.1, 0.0, 5.0)])
        fields = ef.FieldStack(["lane"], grids, d_max=1e9)
        assert not fields.stack.flags.writeable and not fields["lane"].distance.flags.writeable
        assert np.shares_memory(fields.stack, grids) and grids.flags.writeable
        problem = single_sample_problem(fields, [0.0, 0.0, 5.0])
        assert al._Prepared(problem).distance is fields.stack

    def test_stack_must_hold_one_layer_per_label(self):
        grid = ramp_grid(0.1, 0.0, 5.0)
        for labels, stack in ((["lane"], grid), (["lane", "pole"], grid[None])):
            with pytest.raises(ValueError, match="stack"):
                ef.FieldStack(labels, stack, d_max=1e9)

    def test_initial_defaults_to_prior(self):
        field = ramp_field("lane", 0.1, 0.0, 5.0)
        prior = Pose(np.eye(3), [1.0, 2.0, 3.0])
        problem = single_sample_problem(field, [0.0, 0.0, 5.0], prior=prior)
        assert problem.start_pose is prior


def reference_probe_escape(prepared, pose, energy_now, count_now, min_samples, offsets):
    """The probe scan as one ``_evaluate`` per candidate: the oracle of the batched scan."""
    best = None
    count_floor = max(min_samples, int(0.95 * count_now))
    for offset in offsets:
        candidate = Pose(pose.rotation, pose.translation + pose.rotation @ offset)
        energy_new, count_new = al._evaluate(prepared, candidate)[:2]
        if count_new >= count_floor and energy_new < energy_now - 1e-9:
            if best is None or energy_new < best[0]:
                best = (energy_new, count_new, candidate)
    return best


def probe_key(best):
    if best is None:
        return None
    energy_value, count, pose = best
    return energy_value, count, pose.translation.tobytes(), pose.rotation.tobytes()


def assert_probe_matches_reference(prepared, pose, energy_now, count_now, min_samples, offsets):
    got = al._probe_escape(prepared, pose, energy_now, count_now, min_samples, offsets)
    want = reference_probe_escape(prepared, pose, energy_now, count_now, min_samples, offsets)
    assert probe_key(got) == probe_key(want)
    return got


def prepared_problem(grids, blocks, intrinsics, config=None):
    """_Prepared of world-frame samples, one grid per label."""
    stack = np.stack(grids)
    problem = al.AlignmentProblem(
        samples=block_samples(blocks),
        fields=ef.FieldStack(list(blocks), stack, d_max=float(stack.max(initial=0.0))),
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
    energy_here, count_here = al._evaluate(prepared, pose)[:2]
    energy_now = draw(st.sampled_from([energy_here, math.inf, energy_here * 0.5]))
    count_now = draw(st.sampled_from([count_here, 0, prepared.total_samples]))
    min_samples = draw(st.sampled_from([0, 1, 5, 30]))
    offsets = draw(st.sampled_from([al._PROBE_OFFSETS_NEAR, al._PROBE_OFFSETS_FAR]))
    return prepared, pose, energy_now, count_now, min_samples, offsets


SMALL_K = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=11.5, width=32, height=24)
# The near magnitudes on all 26 lattice directions, for the tests whose
# candidate indices refer to that lattice.
LATTICE_NEAR = al._probe_offsets(al._PROBE_DIRECTIONS, al._PROBE_MAGNITUDES_NEAR_M)


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

    @pytest.mark.parametrize("offsets", [al._PROBE_OFFSETS_NEAR, al._PROBE_OFFSETS_FAR], ids=["near", "far"])
    def test_exact_tie_goes_to_the_first_candidate(self, offsets):
        prepared = constant_field_scan()
        pose = Pose.identity()
        best = assert_probe_matches_reference(prepared, pose, math.inf, 9, 0, offsets)
        first = pose.translation + pose.rotation @ offsets[0]
        assert best[:2] == (36.0, 9)
        assert best[2].translation.tobytes() == first.tobytes()

    def test_tables_are_pinned_row_for_row(self):
        # Direction-major rows of magnitude * unit direction: the near table
        # on the 6 axis directions, the far one on the 26 lattice directions,
        # each direction list in lattice order.
        lattice = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1) if dx or dy or dz]
        axes = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        for table, directions, magnitudes, rows in (
            (al._PROBE_OFFSETS_NEAR, axes, (0.05, 0.1), 12),
            (al._PROBE_OFFSETS_FAR, lattice, (0.05, 0.1, 0.2, 0.3, 0.45), 130),
        ):
            want = np.array(
                [
                    magnitude * (np.array(direction, dtype=float) / math.sqrt(sum(c * c for c in direction)))
                    for direction in directions
                    for magnitude in magnitudes
                ]
            )
            assert table.shape == want.shape == (rows, 3)
            assert table.tobytes() == want.tobytes()

    def test_solve_scores_12_candidates_after_a_plausible_fit_and_130_after_a_poor_one(self, monkeypatch):
        # Counts the candidate rows that reach _probe_block in each round.
        rounds = []
        escape, block = al._probe_escape, al._probe_block

        def recording_escape(prepared, pose, energy_now, count_now, min_samples, offsets):
            rounds.append([count_now > 0 and energy_now / count_now <= PipelineConfig().max_mean_reproj_px, 0])
            return escape(prepared, pose, energy_now, count_now, min_samples, offsets)

        def recording_block(prepared, rotation, translations):
            rounds[-1][1] += len(translations)
            return block(prepared, rotation, translations)

        monkeypatch.setattr(al, "_probe_escape", recording_escape)
        monkeypatch.setattr(al, "_probe_block", recording_block)
        for problem in (_small_synthetic_problem(), corner_probe_problem()):
            al.solve(problem)
        assert {plausible for plausible, _ in rounds} == {True, False}
        for plausible, rows in rounds:
            assert rows == (12 if plausible else 130)

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
        best = assert_probe_matches_reference(prepared, pose, math.inf, 0, 0, LATTICE_NEAR)
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
        kept = {al._evaluate(prepared, Pose(np.eye(3), offset))[1] for offset in al._PROBE_OFFSETS_NEAR}
        assert 9 in kept and 10 not in kept
        best = assert_probe_matches_reference(prepared, Pose.identity(), math.inf, 11, 0, al._PROBE_OFFSETS_NEAR)
        assert best[:2] == (44.0, 11)

    def test_energy_must_be_lower_by_the_margin(self):
        prepared = constant_field_scan()
        pose = Pose.identity()
        assert assert_probe_matches_reference(prepared, pose, 36.0, 9, 0, al._PROBE_OFFSETS_NEAR) is None
        # The least energy_now that a 36.0 candidate beats, and the float below it.
        edge = 36.0 + 1e-9
        for _ in range(4):
            edge = np.nextafter(edge, 0.0)
        while not 36.0 < edge - 1e-9:
            edge = np.nextafter(edge, math.inf)
        short = np.nextafter(edge, 0.0)
        assert not 36.0 < short - 1e-9
        assert assert_probe_matches_reference(prepared, pose, edge, 9, 0, al._PROBE_OFFSETS_NEAR) is not None
        assert assert_probe_matches_reference(prepared, pose, short, 9, 0, al._PROBE_OFFSETS_NEAR) is None

    def test_count_floor_is_inclusive(self):
        prepared = constant_field_scan()
        pose = Pose.identity()
        # int(0.95 * 9) = 8 and min_samples 9: every candidate keeps all 9.
        assert assert_probe_matches_reference(prepared, pose, math.inf, 9, 9, al._PROBE_OFFSETS_NEAR) is not None
        assert assert_probe_matches_reference(prepared, pose, math.inf, 9, 10, al._PROBE_OFFSETS_NEAR) is None

    def test_candidates_behind_the_camera_or_off_the_image_lose_samples(self):
        # A sample 4 cm ahead at the left image border: candidates that move
        # forward put it behind the camera, those that move right push it
        # off the image.
        grid = np.arange(24 * 32, dtype=float).reshape(24, 32) % 7.0 + 1.0
        points = [[-0.0124, 0.0, 0.04], [0.0, 0.0, 3.0], [0.3, 0.1, 2.0]]
        prepared = prepared_problem([grid], {"lane": points}, SMALL_K)
        pose = Pose.identity()
        for offsets in (al._PROBE_OFFSETS_NEAR, al._PROBE_OFFSETS_FAR):
            for min_samples in (0, 2, 3):
                assert_probe_matches_reference(prepared, pose, math.inf, 0, min_samples, offsets)
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
        best = assert_probe_matches_reference(prepared, pose, 9.0, 0, 0, LATTICE_NEAR)
        assert best[:2] == (0.0, 0)
        first_right = Pose(np.eye(3), al._PROBE_MAGNITUDES_NEAR_M[0] * al._PROBE_DIRECTIONS[17])  # (1, -1, -1)
        assert al._evaluate(prepared, first_right)[:2] == (0.0, 0)

    def test_no_samples(self):
        prepared = prepared_problem([np.ones((24, 32))], {"lane": np.empty((0, 3))}, K)
        assert prepared.total_samples == 0
        pose = Pose(so3_exp([0.1, -0.2, 0.3]), [1.0, 2.0, 3.0])
        for offsets in (al._PROBE_OFFSETS_NEAR, al._PROBE_OFFSETS_FAR):
            best = assert_probe_matches_reference(prepared, pose, 1.0, 0, 0, offsets)
            assert best[:2] == (0.0, 0)
            assert assert_probe_matches_reference(prepared, pose, 1.0, 0, 1, offsets) is None
            assert assert_probe_matches_reference(prepared, pose, 0.0, 0, 0, offsets) is None

    def test_matches_reference_on_a_rendered_frame(self):
        # A real frame with the prior 1 m off, where probes matter.
        problem = _small_synthetic_problem()
        prepared = al._Prepared(problem)
        rng = np.random.default_rng(5)
        for offset in (0.0, 0.3, 1.0):
            pose = syn.perturb_pose_random(problem.prior, offset, 0.01, rng)
            energy_here, count_here = al._evaluate(prepared, pose)[:2]
            for offsets in (al._PROBE_OFFSETS_NEAR, al._PROBE_OFFSETS_FAR):
                assert_probe_matches_reference(prepared, pose, energy_here, count_here, 30, offsets)

    def test_block_size_changes_no_result(self, monkeypatch):
        # One candidate per block against every candidate in one block, on a
        # real frame with the prior up to 1 m off.
        problem = _small_synthetic_problem()
        prepared = al._Prepared(problem)
        samples = prepared.total_samples
        rng = np.random.default_rng(5)
        winners = 0
        for offset in (0.0, 0.3, 1.0):
            pose = syn.perturb_pose_random(problem.prior, offset, 0.01, rng)
            energy_here, count_here = al._evaluate(prepared, pose)[:2]
            for offsets in (al._PROBE_OFFSETS_NEAR, al._PROBE_OFFSETS_FAR):
                candidates = len(offsets)
                for energy_now in (energy_here, math.inf):
                    scans = []
                    for block in (samples, candidates * samples):
                        monkeypatch.setattr(al, "_PROBE_BLOCK_POINTS", block)
                        scans.append(probe_key(al._probe_escape(prepared, pose, energy_now, count_here, 30, offsets)))
                    assert scans[0] == scans[1]
                    winners += scans[0] is not None
        assert winners >= 6  # every energy_now = inf scan has a winner


def reference_evaluate(k, world, stack, layer, weight, cap, pose):
    """``_evaluate``'s outputs in array-of-structures form: C-ordered (N, 3)
    world points projected column by column, a (layer, row, column) read per
    corner (test_edge_features' oracle of bilinear_gather), and the Jacobian
    rows from np.stack and np.cross. Returns (energy, count, residuals,
    rows, at_cap): the oracle of _evaluate."""
    rotation = pose.rotation
    cam = (world - pose.translation) @ rotation
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
    in_front = z > MIN_PROJECTION_DEPTH
    safe_z = np.where(in_front, z, 1.0)
    u = k.fx * x / safe_z + k.cx
    v = k.fy * y / safe_z + k.cy
    valid = in_front & (u >= 0.0) & (u <= k.width - 1) & (v >= 0.0) & (v <= k.height - 1)
    values, grad_u, grad_v = three_index_gather(u[valid], v[valid], stack, layer[valid])
    weights = weight[valid]
    sqrt_w = np.sqrt(weights)
    cam_v = cam[valid]
    zv = cam_v[:, 2]
    a = grad_u * k.fx / zv
    b = grad_v * k.fy / zv
    c = -(a * cam_v[:, 0] + b * cam_v[:, 1]) / zv
    g3 = np.stack([a, b, c], axis=1)
    rows = np.empty((zv.size, 6))
    rows[:, :3] = -(g3 @ rotation.T)
    rows[:, 3:] = np.cross(g3, cam_v)
    rows *= sqrt_w[:, None]
    at_cap = bool(np.all((values >= cap) | (weights == 0.0)))
    return float(weights @ (values * values)), int(valid.sum()), sqrt_w * values, rows, at_cap


def reference_of_problem(problem, pose):
    """reference_evaluate of an AlignmentProblem, from its own fields."""
    samples, fields = problem.samples, problem.fields
    layer = np.array([fields.layer[label] for label in samples.labels], dtype=int)[samples.label]
    weight = np.array([problem.config.weight_for(label) for label in samples.labels], dtype=float)[samples.label]
    cap = fields.d_max * (1.0 - al._CAP_RTOL)
    world = problem.prior.apply(samples.points)
    return reference_evaluate(problem.intrinsics, world, fields.stack, layer, weight, cap, pose)


def reference_of_prepared(prepared, pose):
    """reference_evaluate of a _Prepared, its points copied to (N, 3)."""
    layer = prepared.offset // (prepared.distance.shape[1] * prepared.distance.shape[2])
    world = np.ascontiguousarray(prepared.world.T)
    return reference_evaluate(prepared.intrinsics, world, prepared.distance, layer, prepared.weight, prepared.cap, pose)


def assert_evaluate_matches_reference(problem, prepared, pose):
    energy_value, count, residuals, rows, at_cap = al._evaluate(prepared, pose)
    want = reference_of_problem(problem, pose)
    assert np.float64(energy_value).tobytes() == np.float64(want[0]).tobytes()
    assert count == want[1]
    assert residuals.tobytes() == want[2].tobytes()
    assert rows().tobytes() == want[3].tobytes()
    assert rows().flags.c_contiguous and rows().shape == (count, 6)
    assert at_cap() == want[4]
    return count


@st.composite
def evaluation_cases(draw):
    """A problem on a small camera and poses to evaluate it at.

    Samples lie in front of the camera, behind it and off the image, and at
    an identity prior some sit exactly on the image border: u = W - 1,
    v = 0 or both (power-of-two focal lengths and depths keep those
    projections exact). Grids are small with few values, weights include 0.
    The poses are the prior, small and large steps from it, and one at
    random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    fx, fy = draw(st.sampled_from([1.0, 4.0, 32.0])), draw(st.sampled_from([1.0, 4.0, 32.0]))
    k = CameraIntrinsics(fx=fx, fy=fy, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0, width=width, height=height)
    n_labels = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
    grids = [rng.integers(0, levels, size=(height, width)) * scale for _ in range(n_labels)]
    weights = tuple((f"l{i}", draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))) for i in range(n_labels))
    blocks = {}
    for label, _ in weights:
        n = draw(st.integers(0, 25))
        points = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n), rng.uniform(-0.5, 4.0, n)])
        depth = rng.choice([0.5, 1.0, 2.0], size=6)
        inner_u, inner_v = rng.uniform(0.0, width - 1, 6), rng.uniform(0.0, height - 1, 6)
        border_u = np.where(np.arange(6) % 3 == 1, inner_u, width - 1.0)
        border_v = np.where(np.arange(6) % 3 == 0, inner_v, 0.0)
        border = np.column_stack([(border_u - k.cx) * depth / fx, (border_v - k.cy) * depth / fy, depth])
        blocks[label] = np.concatenate([points, border])
    stack = np.stack(grids).astype(float)
    prior = Pose.identity()
    if draw(st.booleans()):
        prior = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
    problem = al.AlignmentProblem(
        samples=block_samples(blocks),
        fields=ef.FieldStack(list(blocks), stack, d_max=float(levels - 1) * scale),
        prior=prior,
        intrinsics=k,
        config=PipelineConfig(label_weights=weights),
    )
    poses = [prior] + [al.perturb_pose(prior, rng.normal(size=6) * step) for step in (1e-3, 0.05, 1.0)]
    poses.append(Pose(so3_exp(rng.normal(size=3) * 2.0), rng.normal(size=3)))
    return problem, poses


class TestJacobianRowsReference:
    @settings(deadline=None, max_examples=200)
    @given(probe_scans(), st.integers(0, 2**32 - 1))
    def test_rows_equal_the_stack_and_cross_form(self, scan, seed):
        prepared, pose = scan[:2]
        rng = np.random.default_rng(seed)
        poses = [pose] + [al.perturb_pose(pose, rng.normal(size=6) * scale) for scale in (0.01, 0.2, 1.0)]
        for candidate in poses:
            _, count, _, rows = al._evaluate(prepared, candidate)[:4]
            if count:
                assert rows().tobytes() == reference_of_prepared(prepared, candidate)[3].tobytes()

    def test_rows_of_a_rendered_frame(self):
        problem = _small_synthetic_problem()
        prepared = al._Prepared(problem)
        rng = np.random.default_rng(12)
        for _ in range(5):
            pose = al.perturb_pose(problem.prior, rng.normal(size=6) * [0.05, 0.05, 0.05, 0.005, 0.005, 0.005])
            assert assert_evaluate_matches_reference(problem, prepared, pose) > 100


class TestEvaluateReference:
    """_evaluate reads its (3, N) points row by row; every output equals the
    array-of-structures reference bit for bit, and a probe block scores each
    candidate as _evaluate does."""

    @settings(deadline=None, max_examples=200)
    @given(evaluation_cases())
    def test_outputs_equal_the_reference(self, case):
        problem, poses = case
        prepared = al._Prepared(problem)
        for pose in poses:
            assert_evaluate_matches_reference(problem, prepared, pose)

    def test_border_samples_are_active(self):
        k = CameraIntrinsics(fx=4.0, fy=4.0, cx=3.5, cy=2.5, width=8, height=6)
        on_border = [[3.5 / 4.0, 0.0, 1.0], [0.0, -2.5 / 4.0, 1.0], [3.5 / 4.0, -2.5 / 4.0, 1.0]]
        past = [[3.5 / 4.0 + 1e-9, 0.0, 1.0], [0.0, np.nextafter(-2.5 / 4.0, -1.0), 1.0]]
        behind = [[0.0, 0.0, -1.0], [0.0, 0.0, MIN_PROJECTION_DEPTH]]
        grid = np.arange(48.0).reshape(6, 8)
        problem = al.AlignmentProblem(
            samples=block_samples({"lane": on_border + past + behind}),
            fields=ef.FieldStack(["lane"], grid[None], d_max=50.0),
            prior=Pose.identity(),
            intrinsics=k,
        )
        count = assert_evaluate_matches_reference(problem, al._Prepared(problem), problem.prior)
        assert count == 3
        # The grid is 8 v + u, read at (u, v) = (7, 2.5), (3.5, 0) and (7, 0).
        residuals = al._evaluate(al._Prepared(problem), problem.prior)[2]
        assert (residuals / math.sqrt(problem.config.weight_for("lane"))).tolist() == [27.0, 3.5, 7.0]

    @settings(deadline=None, max_examples=100)
    @given(evaluation_cases(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 3.0]))
    def test_probe_block_scores_each_candidate_as_evaluate(self, case, seed, turn):
        problem = case[0]
        prepared = al._Prepared(problem)
        rng = np.random.default_rng(seed)
        rotation = so3_exp(rng.normal(size=3) * turn)
        translations = problem.prior.translation + rng.normal(size=(int(rng.integers(1, 8)), 3))
        counts, energies = al._probe_block(prepared, rotation, translations)
        for candidate, translation in enumerate(translations):
            energy_value, count = al._evaluate(prepared, Pose(rotation, translation))[:2]
            assert counts[candidate] == count
            assert energies[candidate].tobytes() == np.float64(energy_value).tobytes()


def assert_checked_and_read_only(pose):
    """``pose`` passes the full Pose validation and its arrays are read-only."""
    checked = Pose(pose.rotation, pose.translation)
    assert checked.rotation.tobytes() == pose.rotation.tobytes()
    assert checked.translation.tobytes() == pose.translation.tobytes()
    assert pose.rotation.dtype == pose.translation.dtype == np.float64
    assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable


class TestTrustedPoses:
    """The solver builds its own poses without Pose's copy and check; every
    pose it hands out still passes that check and is read-only."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_perturbed_poses(self, seed):
        rng = np.random.default_rng(seed)
        pose = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        for scale in (1e-6, 0.03, 1.0):
            pose = al.perturb_pose(pose, rng.normal(size=6) * scale)
            assert_checked_and_read_only(pose)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-12, 0.9e-8, 1e-8, 1.1e-8, 1e-3, 1.0]))
    def test_perturbed_poses_equal_the_written_out_retraction(self, seed, rotation_step):
        # Steps on both sides of the series switch in so3_exp (SMALL_ANGLE).
        rng = np.random.default_rng(seed)
        pose = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        direction = rng.normal(size=3)
        xi = np.concatenate([rng.normal(size=3), direction / np.linalg.norm(direction) * rotation_step])
        before = xi.tobytes()
        moved = al.perturb_pose(pose, xi)
        assert moved.rotation.tobytes() == (pose.rotation @ so3_exp(xi[3:])).tobytes()
        assert moved.translation.tobytes() == (pose.translation + xi[:3]).tobytes()
        assert xi.tobytes() == before
        assert_checked_and_read_only(moved)
        assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable

    @settings(deadline=None, max_examples=100)
    @given(probe_scans())
    def test_probe_winner(self, scan):
        best = al._probe_escape(*scan)
        if best is not None:
            assert_checked_and_read_only(best[2])

    def test_solved_poses(self):
        scene = syn.generate_scene(4, "urban-corner", n_frames=2)
        cfg = WIDE_GATE
        masks = build_edge_masks(*syn.render_frame(scene, 0), scene.compact_map.label_names)
        fields = build_fields(masks, d_max=cfg.dt_truncation_px)
        probes = 0
        for offset in (0.1, 1.0):
            prior = syn.perturb_pose_random(scene.pose_of(0), offset, math.radians(1.0), np.random.default_rng(0))
            problem = al.AlignmentProblem(
                samples=select_landmarks(scene.compact_map, prior, scene.intrinsics, cfg),
                fields=fields,
                prior=prior,
                intrinsics=scene.intrinsics,
                config=cfg,
            )
            for config in (cfg, replace(cfg, max_iterations=3)):
                result = al.solve(replace(problem, config=config))
                probes += len(result.energy_history) - 1 - result.iterations
                assert_checked_and_read_only(result.pose)
        assert probes > 0
        result = al.solve(_small_synthetic_problem())
        assert result.iterations > 0
        assert_checked_and_read_only(result.pose)


def corner_probe_problem():
    """A pinned frame with the prior 1 m off, so steps are rejected and a
    probe escapes; the gate is wide enough for the solve to reach it."""
    scene = syn.generate_scene(4, "urban-corner", n_frames=2)
    prior = syn.perturb_pose_random(scene.pose_of(0), 1.0, math.radians(1.0), np.random.default_rng(0))
    masks = build_edge_masks(*syn.render_frame(scene, 0), scene.compact_map.label_names)
    return al.AlignmentProblem(
        samples=select_landmarks(scene.compact_map, prior, scene.intrinsics, WIDE_GATE),
        fields=build_fields(masks, d_max=WIDE_GATE.dt_truncation_px),
        prior=prior,
        intrinsics=scene.intrinsics,
        config=WIDE_GATE,
    )


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
        energy_value, count, residuals, rows = al._evaluate(prepared, pose)[:4]
        assert count == 7 and rows().shape == (7, 6)
        fresh = al._evaluate(prepared, Pose(np.eye(3), np.zeros(3)))
        assert (energy_value, count, residuals.tobytes()) == (fresh[0], fresh[1], fresh[2].tobytes())
        assert rows().tobytes() == fresh[3]().tobytes()

    def test_solve_evaluates_each_pose_once(self, monkeypatch):
        problem = corner_probe_problem()
        seen = []
        evaluate = al._evaluate

        def recording(prepared, pose):
            seen.append(pose.rotation.tobytes() + pose.translation.tobytes())
            return evaluate(prepared, pose)

        monkeypatch.setattr(al, "_evaluate", recording)
        result = al.solve(problem)
        assert result.iterations > 0 and result.probe_rounds > 0
        # Each step and each probe round adds one entry to the history.
        assert len(result.energy_history) == 1 + result.iterations + result.probe_rounds
        assert len(seen) > result.iterations + result.probe_rounds
        assert len(set(seen)) == len(seen)

    def test_information_reads_the_rows_of_the_returned_pose_once(self, monkeypatch):
        # A solve that ends on the pose of its last normal equations (damping
        # exhausted, with or without a losing probe scan) reads info_min_eig
        # from that matrix; either way it equals a fresh evaluation's, bit for bit.
        _, offset_problem, _ = side_offset_problem()
        problems = [
            noiseless_grid_setup(),
            _small_synthetic_problem(),
            offset_problem,
            replace(offset_problem, config=WIDE_GATE),
            cap_plateau_problem(),
        ]
        builds = []
        evaluate = al._evaluate

        def counting(prepared, pose):
            energy_value, count, residuals, rows, at_cap = evaluate(prepared, pose)
            built = [0]
            builds.append(built)

            def counted_rows():
                built[0] += 1
                return rows()

            return energy_value, count, residuals, counted_rows, at_cap

        results = []
        with monkeypatch.context() as patch:
            patch.setattr(al, "_evaluate", counting)
            for problem in problems:
                results.append(al.solve(problem))
        assert max(built for built, in builds) == 1
        for problem, result in zip(problems, results):
            _, count, _, rows = al._evaluate(al._Prepared(problem), result.pose)[:4]
            assert count == result.inlier_count > 0
            jacobian = rows()
            assert result.info_min_eig == float(np.linalg.eigvalsh(jacobian.T @ jacobian)[0])


def no_sample_problem():
    """A problem with no samples at all."""
    return al.AlignmentProblem(block_samples({}), ramp_field("lane", 0.2, 0.0, 5.0), Pose.identity(), K)


def out_of_view_problem():
    """Forty samples, every one behind the camera or beyond an image border."""
    behind = [[0.1 * i, 0.0, -2.0] for i in range(10)]
    beside = [[x, 0.1 * i, 2.0] for i in range(10) for x in (-9.0, 9.0)]
    below = [[0.1 * i, 9.0, 2.0] for i in range(10)]
    return single_sample_problem(ramp_field("lane", 0.2, 0.0, 5.0), behind + beside + below)


# One problem of each solve exit: a fixed point, steps to convergence, the
# iteration cap, a stop at the pose gate, probe rounds, the cap plateau and
# too few samples (one active sample, none at all, and none in view).
PINNED_SOLVES = {
    "noiseless-grid": (
        noiseless_grid_setup,
        "ed09cedf0fe58beae70fb59322c3c5bba3340ade39ea95a2392b7c0439e00ea7",
    ),
    "small-synthetic": (
        _small_synthetic_problem,
        "50f9629e704b9aac7a31b794fbc4ebb452929c49ca1b55a6c26beeb056dd2af6",
    ),
    "small-synthetic-3-iterations": (
        lambda: replace(_small_synthetic_problem(), config=PipelineConfig(max_iterations=3)),
        "1dd21b6b164410f5b6b1238f56994810da009b9f7c81cce827279775f08cdbbe",
    ),
    "side-offset": (
        lambda: side_offset_problem()[1],
        "55f96e0a7ef525d1f74d2d5431eaea63ab3a7b7ab0aac81ec590345d5cfdd811",
    ),
    "side-offset-wide-gate": (
        lambda: replace(side_offset_problem()[1], config=WIDE_GATE),
        "f1ab8f4387f085ee228ca90f2ec7ce5a40a0405438d8cf45a94843e2d798c4a1",
    ),
    "corner-probe": (
        corner_probe_problem,
        "fabb8cbddb96c010a9140dfff830bf246126b4d0a7c25f2ec74ca158546cf146",
    ),
    "cap-plateau": (
        cap_plateau_problem,
        "c374e9fd66f2411d44eab8008c119e51d582614897c2fa1d49d212dfcd5bfc06",
    ),
    "too-few-samples": (
        lambda: single_sample_problem(ramp_field("lane", 0.2, 0.0, 5.0), [0.0, 0.0, 5.0]),
        "d8e1306e91509ea940b6de410f633d5c890e74fc045c4b1a82f3c1531167ff48",
    ),
    "no-samples": (no_sample_problem, "fdcae9e3560e43de1eb6d22375d496902c6fe5f3e3a882991dfd3101eb830c2d"),
    "all-out-of-view": (out_of_view_problem, "fdcae9e3560e43de1eb6d22375d496902c6fe5f3e3a882991dfd3101eb830c2d"),
}


def result_digest(result):
    """SHA-256 of the pose bytes and every other field ``solve`` sets."""
    fields = (
        result.iterations,
        result.probe_rounds,
        result.energy_history[-1],
        result.energy_history,
        result.active_counts,
        result.inlier_count,
        result.info_min_eig,
        result.mean_reproj_error,
        result.reject_reason,
    )
    pose = result.pose.rotation.tobytes() + result.pose.translation.tobytes()
    return hashlib.sha256(pose + repr(fields).encode()).hexdigest()


class TestPinnedSolves:
    """The whole AlignmentResult of each solve exit is pinned: the trajectory
    and log digests do not see the history, the probe rounds or info_min_eig."""

    @pytest.mark.parametrize("name", list(PINNED_SOLVES))
    def test_result_is_pinned(self, name):
        build, digest = PINNED_SOLVES[name]
        assert result_digest(al.solve(build())) == digest

    @pytest.mark.parametrize("build", [no_sample_problem, out_of_view_problem])
    def test_no_active_sample_evaluates_to_nothing(self, build):
        problem = build()
        prepared = al._Prepared(problem)
        assert prepared.total_samples == len(problem.samples.points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy_value, count, residuals, rows, at_cap = al._evaluate(prepared, problem.prior)
            assert (type(energy_value), energy_value, count) == (float, 0.0, 0)
            assert residuals.shape == (0,)
            assert rows().shape == (0, 6)
            assert at_cap() is True
