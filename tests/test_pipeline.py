import hashlib
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloc import alignment as al
from edgeloc import pipeline
from edgeloc import synthetic as syn
from edgeloc.config import PipelineConfig, parse_config_text
from edgeloc.evaluation import TrajectoryOverlapError, evaluate_trajectories
from edgeloc.geometry import Pose, quat_to_rotation, rotation_zyx
from edgeloc.io import (
    format_pose_line,
    parse_pose_line,
    read_initial_pose,
    read_intrinsics,
    read_trajectory,
    write_trajectory,
)
from edgeloc.pipeline import DatasetManifest, ManifestError, run_dataset


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    scene = syn.generate_scene(13, "sparse", n_frames=12, noise=syn.NoiseConfig(odometry_drift_per_m=0.002))
    out = syn.write_dataset(scene, tmp_path_factory.mktemp("data") / "ds")
    return scene, out


class TestManifest:
    def test_loads_valid_dataset(self, small_dataset):
        scene, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        assert manifest.intrinsics == scene.intrinsics
        assert manifest.initial_frame == 0
        assert manifest.groundtruth_path is not None

    def test_missing_directory(self):
        with pytest.raises(ManifestError):
            DatasetManifest.from_directory("/nonexistent/nowhere")

    def test_missing_map_file(self, tmp_path, small_dataset):
        _, root = small_dataset
        with pytest.raises(ManifestError):
            DatasetManifest.from_directory(root, map_path=tmp_path / "absent.cmap")

    def test_empty_frames_directory_is_clean_error(self, tmp_path, small_dataset):
        _, root = small_dataset
        clone = tmp_path / "empty"
        clone.mkdir()
        for name in ("map.cmap", "odometry.txt", "intrinsics.txt", "initial_pose.txt"):
            (clone / name).write_bytes((root / name).read_bytes())
        (clone / "frames").mkdir()
        with pytest.raises(ManifestError) as err:
            DatasetManifest.from_directory(clone)
        assert "empty" in str(err.value)

    def test_intrinsics_raster_mismatch(self, tmp_path, small_dataset):
        _, root = small_dataset
        clone = tmp_path / "mismatch"
        clone.mkdir()
        import shutil

        for name in ("map.cmap", "odometry.txt", "initial_pose.txt"):
            (clone / name).write_bytes((root / name).read_bytes())
        (clone / "intrinsics.txt").write_text("100 100 50 50 128 96\n")
        shutil.copytree(root / "frames", clone / "frames")
        with pytest.raises(ManifestError):
            DatasetManifest.from_directory(clone)


class TestRun:
    def test_noiseless_closed_loop_accepts_all(self, small_dataset):
        scene, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        trajectory, records = run_dataset(manifest)
        accepted = [r for r in records if r.status == "accepted"]
        assert len(records) == 12
        assert len(accepted) >= 11
        gt = dict(scene.trajectory)
        for fid, pose in trajectory:
            assert np.linalg.norm(pose.translation - gt[fid].translation) < 0.05

    def test_rerun_is_byte_identical(self, small_dataset):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        t1, r1 = run_dataset(manifest)
        t2, r2 = run_dataset(manifest)
        lines1 = [rec.to_json() for rec in r1]
        lines2 = [rec.to_json() for rec in r2]
        assert lines1 == lines2
        from edgeloc.io import format_pose_line

        out1 = [format_pose_line(f, p) for f, p in t1]
        out2 = [format_pose_line(f, p) for f, p in t2]
        assert out1 == out2

    def test_prefetch_matches_serial(self, small_dataset):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        t1, r1 = run_dataset(manifest, prefetch_workers=0)
        t2, r2 = run_dataset(manifest, prefetch_workers=2)
        assert [rec.to_json() for rec in r1] == [rec.to_json() for rec in r2]
        for (f1, p1), (f2, p2) in zip(t1, t2):
            assert f1 == f2
            assert np.array_equal(p1.translation, p2.translation)
            assert np.array_equal(p1.rotation, p2.rotation)

    def test_every_frame_logged_once_with_status(self, small_dataset):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        _, records = run_dataset(manifest)
        seen = [r.frame_id for r in records]
        assert seen == sorted(set(seen))
        for record in records:
            head = record.status.split(":")[0]
            assert head in ("accepted", "dropped", "skipped")
            payload = json.loads(record.to_json())
            assert set(payload) == {
                "frame_id",
                "status",
                "iterations",
                "mean_reproj_error",
                "sample_count",
            }

    def test_corner_preset_tracks_through_the_turn(self, tmp_path):
        scene = syn.generate_scene(5, "urban-corner", n_frames=60, noise=syn.NoiseConfig(odometry_drift_per_m=0.004))
        first = scene.pose_of(0).rotation[:, 2]
        last = scene.pose_of(59).rotation[:, 2]
        # optical axis must actually rotate through the corner
        yaw_sweep = math.degrees(
            abs(math.atan2(last[1], last[0]) - math.atan2(first[1], first[0]))
        )
        assert yaw_sweep > 30.0
        root = syn.write_dataset(scene, tmp_path / "corner")
        trajectory, records = run_dataset(DatasetManifest.from_directory(root))
        accepted = sum(1 for r in records if r.status == "accepted")
        assert accepted >= 57
        report = evaluate_trajectories(dict(trajectory), dict(scene.trajectory))
        assert report.rmse_norm < 0.05
        assert report.rmse_angle_deg < 0.2

    def test_unreadable_frame_is_skipped_and_logged(self, tmp_path, small_dataset):
        import shutil

        _, root = small_dataset
        clone = tmp_path / "broken"
        shutil.copytree(root, clone)
        (clone / "frames" / "000005" / "edges.pgm").write_bytes(b"garbage")
        manifest = DatasetManifest.from_directory(clone)
        _, records = run_dataset(manifest)
        by_id = {r.frame_id: r for r in records}
        assert by_id[5].status.startswith("skipped:io")
        assert by_id[6].status == "accepted"

    @pytest.mark.parametrize("stage", ["select_landmarks", "align_frame"])
    def test_exception_in_a_frame_is_skipped_and_logged(self, monkeypatch, caplog, small_dataset, stage):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        clean_trajectory, clean_records = run_dataset(manifest)
        original = getattr(pipeline, stage)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:  # frame 4
                raise ZeroDivisionError("injected")
            return original(*args, **kwargs)

        committed = []
        commit = pipeline.PosePredictor.commit

        def recording_commit(self, frame_id, *args, **kwargs):
            committed.append(frame_id)
            return commit(self, frame_id, *args, **kwargs)

        monkeypatch.setattr(pipeline, stage, failing)
        monkeypatch.setattr(pipeline.PosePredictor, "commit", recording_commit)
        trajectory, records = run_dataset(manifest)
        by_id = {r.frame_id: r for r in records}
        assert by_id[4].status == "skipped:error:ZeroDivisionError"
        assert [r.exc_info[0] for r in caplog.records] == [ZeroDivisionError]
        assert [r.frame_id for r in records] == [r.frame_id for r in clean_records]
        assert 4 not in committed and 4 not in dict(trajectory)
        assert by_id[5].status == "accepted"
        assert [f for f, _ in trajectory] == [f for f, _ in clean_trajectory if f != 4]


class TestPinnedCornerRecovery:
    def test_probe_rounds_trajectory_and_log_are_pinned(self, monkeypatch, tmp_path):
        # Urban corner, 0.3 m/m odometry drift and a wall over frames 22-27:
        # priors land far off and solves take far probe rounds. Digests of
        # the trajectory and log as the per-candidate probe scan gave them.
        noise = syn.NoiseConfig(odometry_drift_per_m=0.3, edge_jitter_px=1.0, edge_dropout=0.1)
        scene = syn.generate_scene(5, "urban-corner", n_frames=30, noise=noise)
        scene = replace(scene, noise=replace(noise, occluders=(syn.make_occluder_wall(scene, 22, 27),)))
        root = syn.write_dataset(scene, tmp_path / "corner")
        solves, far_rounds = [], []
        solve, probe = al.solve, al._probe_escape

        def recording_solve(problem):
            solves.append(solve(problem))
            return solves[-1]

        def recording_probe(*args):
            escape = probe(*args)
            far_rounds.append(escape is not None and args[-1] == al._PROBE_MAGNITUDES_FAR_M)
            return escape

        monkeypatch.setattr(al, "solve", recording_solve)
        monkeypatch.setattr(al, "_probe_escape", recording_probe)
        trajectory, records = run_dataset(DatasetManifest.from_directory(root))
        assert any(len(r.energy_history) - 1 - r.iterations > 0 for r in solves)
        assert any(far_rounds)
        trajectory_text = "".join(format_pose_line(f, p) + "\n" for f, p in trajectory)
        log_text = "".join(r.to_json() + "\n" for r in records)
        trajectory_sha = hashlib.sha256(trajectory_text.encode()).hexdigest()
        log_sha = hashlib.sha256(log_text.encode()).hexdigest()
        assert trajectory_sha == "bb9a99ed7472b506fc62caca4a147d185e7c6baa2e88f4a306ba6fc978352158"
        assert log_sha == "0816f0fdedd7be23c52298699f8bb9ab11185aa3e3891e09940dd5f02ca93ea2"


class TestEvaluate:
    def make(self, offsets):
        gt = {}
        est = {}
        for fid in range(len(offsets)):
            pose = Pose(rotation_zyx(0.01 * fid, 0.0, 0.0), [fid * 0.5, 0.0, 1.5])
            gt[fid] = pose
            est[fid] = Pose(pose.rotation, pose.translation + offsets[fid])
        return est, gt

    def test_identical_trajectories_zero_error(self):
        est, gt = self.make([np.zeros(3)] * 5)
        report = evaluate_trajectories(est, gt)
        assert report.rmse_norm == 0.0
        assert report.rmse_angle_deg == 0.0
        assert report.drop_rate == 0.0

    def test_constant_offset_arithmetic(self):
        est, gt = self.make([np.array([0.1, 0.0, 0.0])] * 8)
        report = evaluate_trajectories(est, gt)
        assert math.isclose(report.rmse_x, 0.1, abs_tol=1e-12)
        assert report.rmse_y == 0.0 and report.rmse_z == 0.0
        assert math.isclose(report.rmse_norm, 0.1, abs_tol=1e-12)

    def test_norm_relation_recomputation(self):
        rng = np.random.default_rng(0)
        est, gt = self.make(list(rng.normal(0, 0.2, (10, 3))))
        report = evaluate_trajectories(est, gt)
        assert report.rmse_x >= 0 and report.rmse_y >= 0 and report.rmse_z >= 0
        recomputed = math.sqrt(report.rmse_x**2 + report.rmse_y**2 + report.rmse_z**2)
        assert math.isclose(report.rmse_norm, recomputed, rel_tol=1e-12)

    def test_rotation_errors(self):
        gt = {0: Pose(rotation_zyx(0.0, 0.0, 0.0), np.zeros(3))}
        est = {0: Pose(rotation_zyx(math.radians(2.0), 0.0, 0.0), np.zeros(3))}
        report = evaluate_trajectories(est, gt)
        assert math.isclose(report.rmse_yaw_deg, 2.0, abs_tol=1e-9)
        assert math.isclose(report.rmse_angle_deg, 2.0, abs_tol=1e-9)

    def test_no_overlap_raises(self):
        est, gt = self.make([np.zeros(3)] * 3)
        shifted = {fid + 100: pose for fid, pose in est.items()}
        with pytest.raises(TrajectoryOverlapError):
            evaluate_trajectories(shifted, gt)

    def test_partial_overlap_and_drop_rate(self):
        est, gt = self.make([np.zeros(3)] * 10)
        for fid in (2, 5, 7):
            del est[fid]
        report = evaluate_trajectories(est, gt)
        assert report.n_common == 7
        assert math.isclose(report.drop_rate, 0.3, abs_tol=1e-12)

    def test_line_order_irrelevant(self, tmp_path):
        est, gt = self.make([np.array([0.02, -0.01, 0.005])] * 6)
        fwd = tmp_path / "fwd.txt"
        rev = tmp_path / "rev.txt"
        write_trajectory(fwd, sorted(est.items()))
        write_trajectory(rev, sorted(est.items(), reverse=True))
        a = evaluate_trajectories(read_trajectory(fwd), gt)
        b = evaluate_trajectories(read_trajectory(rev), gt)
        assert a.rmse_norm == b.rmse_norm
        assert a.rmse_angle_deg == b.rmse_angle_deg

    def test_report_text_documents_norm_convention(self):
        est, gt = self.make([np.zeros(3)] * 2)
        text = evaluate_trajectories(est, gt).to_text()
        assert "norm RMSE" in text
        assert "rmse_norm_m" in text


# Number tokens of every size and spelling, for fuzzing the text parsers.
numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["1e400", "-1e400", "1_0", "0x10", "infinity", "-0", "1e-320", "٣"]),
)


class TestPoseFiles:
    LINE = "3 1.0 2.0 3.0 0.0 0.0 0.0 1.0"

    @settings(deadline=None, max_examples=300)
    @given(st.lists(numbers | st.text(max_size=4), min_size=7, max_size=9).map(" ".join) | st.text())
    def test_fuzzed_line_raises_only_value_errors(self, line):
        try:
            parse_pose_line(line)
        except ValueError:
            pass

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_rotation_is_that_of_the_normalized_quaternion(self, q):
        try:
            _, pose = parse_pose_line("0 0 0 0 " + " ".join(repr(x) for x in q))
        except ValueError:
            return  # a norm too small or too large to normalize is rejected
        unit = np.array(q) / max(abs(x) for x in q)
        unit /= np.linalg.norm(unit)
        assert np.abs(pose.rotation - quat_to_rotation(*unit)).max() <= 1e-9

    def test_quaternion_whose_norm_overflows_rejected(self):
        # Its squares overflow to inf, and q / inf would give the identity rotation.
        with pytest.raises(ValueError, match="quaternion"):
            parse_pose_line("0 0 0 0 1e200 0 0 0")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("field", [1, 3, 4, 7])
    def test_non_finite_value_rejected(self, token, field):
        tokens = self.LINE.split()
        tokens[field] = token
        with pytest.raises(ValueError, match="non-finite"):
            parse_pose_line(" ".join(tokens))

    def test_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "odometry.txt"
        path.write_text(f"# header\n{self.LINE}\n\n4 1.0 nan 3.0 0.0 0.0 0.0 1.0\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: non-finite"):
            read_trajectory(path)
        path.write_text("# header\n3 1.0 2.0 3.0 0.0 0.0 0.0 0.0\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: zero-norm quaternion"):
            read_initial_pose(path)

    def test_intrinsics_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "intrinsics.txt"
        path.write_text("# fx fy cx cy width height\n\n250 nan 159.5 119.5 320 240\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: .*finite"):
            read_intrinsics(path)
        path.write_text("# fx fy cx cy width height\n250 250 159.5\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: expected 'fx fy cx cy width height'"):
            read_intrinsics(path)
        path.write_text("250 250 159.5 119.5 320 240\n", encoding="ascii")
        assert read_intrinsics(path).fy == 250.0


BAD_CONFIG_LINES = [
    "max_iterations = -5",
    "max_iterations = 0",
    "dt_truncation_px = nan",
    "dt_truncation_px = 0",
    "sample_spacing_px = 0.0",
    "lambda_init = 0",
    "depth_tolerance_m = -0.1",
    "max_translation_jump_m = inf",
    "min_samples = -1",
    "label_weights = lane_line:2.0, lamp_pole:-1",
    "label_weights = lane_line:nan",
]


class TestConfigFile:
    def test_parse_and_override(self):
        text = """
        # tuning
        sample_spacing_px = 3.0
        max_iterations = 40
        label_weights = lane_line:2.0, lamp_pole:0.5
        """
        cfg = parse_config_text(text)
        assert cfg.sample_spacing_px == 3.0
        assert cfg.max_iterations == 40
        assert cfg.weight_for("lane_line") == 2.0
        assert cfg.weight_for("lamp_pole") == 0.5
        assert cfg.weight_for("traffic_sign") == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("definitely_not_a_key = 3\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words\n")

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_out_of_range_value_rejected_with_line(self, line):
        with pytest.raises(ValueError, match=r"^config line 3: .*must be"):
            parse_config_text(f"# tuning\nmax_iterations = 40\n{line}\n")

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_out_of_range_value_rejected_in_code(self, line):
        key, _, text = (part.strip() for part in line.partition("="))
        if key == "label_weights":
            value = tuple((name.strip(), float(weight)) for name, weight in (item.split(":") for item in text.split(",")))
        else:
            value = type(getattr(PipelineConfig(), key))(float(text))
        with pytest.raises(ValueError, match="must be"):
            PipelineConfig(**{key: value})

    @settings(deadline=None, max_examples=500)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([field.name for field in fields(PipelineConfig)]) | st.text(max_size=4),
                st.sampled_from([" = ", "=", " "]),
                numbers | numbers.map(lambda number: "lane_line:" + number) | st.text(max_size=6),
            ).map("".join),
            max_size=4,
        ).map("\n".join)
        | st.text()
    )
    def test_fuzzed_text_raises_only_value_errors(self, text):
        try:
            parse_config_text(text)
        except ValueError:
            pass

    def test_integer_too_large_for_a_float_rejected(self):
        # Converted to float it raises OverflowError; it must be a ValueError naming the line.
        with pytest.raises(ValueError, match="^config line 1: max_iterations must be finite"):
            parse_config_text("max_iterations = 1" + "0" * 400)

    def test_zero_allowed_where_only_non_negative_required(self):
        cfg = parse_config_text("min_samples = 0\nstep_tol = 0\nlabel_weights = pole:0\n")
        assert cfg.min_samples == 0 and cfg.step_tol == 0.0 and cfg.weight_for("pole") == 0.0

    def test_defaults_match_documented_values(self):
        cfg = PipelineConfig()
        assert cfg.sample_spacing_px == 4.0
        assert cfg.depth_tolerance_m == 0.1
        assert cfg.default_pole_radius_m == 0.15
        assert cfg.max_selection_range_m == 150.0
        assert cfg.dt_truncation_px == 20.0
        assert cfg.max_iterations == 50
        assert cfg.min_samples == 30
        assert cfg.step_tol == 1e-6
        assert cfg.energy_tol == 1e-9
        assert cfg.lambda_init == 1e-4
        assert cfg.max_translation_jump_m == 1.0
        assert cfg.max_rotation_jump_deg == 3.0
        assert cfg.max_mean_reproj_px == 3.0
        assert cfg.min_information == 1e-4
        assert cfg.odometry_window == 1000
