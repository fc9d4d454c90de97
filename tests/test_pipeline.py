import hashlib
import json
import math
import re
import shutil
import threading
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloc import alignment as al
from edgeloc import compact_map as cm
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
    read_pgm,
    read_pgm_shape,
    read_trajectory,
    write_pgm,
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

    @pytest.mark.parametrize("name", ["1", "\u00b2"], ids=["unpadded", "superscript-two"])
    def test_frame_directory_not_named_by_its_padded_id(self, tmp_path, small_dataset, name):
        # Beside frames/000001, frames/1 would run frame 1 twice; the rasters
        # are read from frames/{id:06d}, so any other digit name is rejected.
        _, root = small_dataset
        clone = tmp_path / "misnamed"
        clone.mkdir()
        for item in ("map.cmap", "odometry.txt", "intrinsics.txt", "initial_pose.txt"):
            (clone / item).write_bytes((root / item).read_bytes())
        (clone / "frames" / "000001").mkdir(parents=True)
        (clone / "frames" / name).mkdir()
        with pytest.raises(ManifestError) as err:
            DatasetManifest.from_directory(clone)
        assert str(clone / "frames" / name) in str(err.value)

    def test_frame_ids_are_the_frame_directories_in_order(self, small_dataset):
        _, root = small_dataset
        assert DatasetManifest.from_directory(root).frame_ids == tuple(range(12))

    def test_symlinked_frame_directories_are_followed(self, tmp_path, small_dataset):
        # A digit-named file and a dangling link are not frames.
        _, root = small_dataset
        clone = tmp_path / "linked"
        clone.mkdir()
        for item in ("map.cmap", "odometry.txt", "intrinsics.txt", "initial_pose.txt"):
            (clone / item).write_bytes((root / item).read_bytes())
        frames = clone / "frames"
        frames.mkdir()
        for frame_id in (0, 3):
            (frames / f"{frame_id:06d}").symlink_to(root / "frames" / f"{frame_id:06d}", target_is_directory=True)
        (frames / "000005").write_bytes(b"")
        (frames / "000007").symlink_to(tmp_path / "missing", target_is_directory=True)
        assert DatasetManifest.from_directory(clone).frame_ids == (0, 3)

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

    def test_frame_raster_with_truncated_pixels_passes_and_is_skipped(self, monkeypatch, tmp_path, small_dataset):
        # The manifest reads frame 0's header alone: a valid header with
        # too few pixels passes it, and frame 0 gets a skipped:io record.
        import shutil

        _, root = small_dataset
        clone = tmp_path / "truncated"
        shutil.copytree(root, clone)
        labels = clone / "frames" / "000000" / "labels.pgm"
        labels.write_bytes(labels.read_bytes()[:1000])
        monkeypatch.setattr(pipeline, "read_pgm", None)  # the manifest reads no whole raster
        manifest = DatasetManifest.from_directory(clone)
        monkeypatch.undo()
        _, records = run_dataset(manifest)
        assert records[0].frame_id == 0 and records[0].status.startswith("skipped:io:")
        assert str(labels) in records[0].status


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

    def test_prefetch_workers_change_nothing(self, monkeypatch, small_dataset):
        # Extraction is always serial: a positive count is accepted and ignored.
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        t1, r1 = run_dataset(manifest, prefetch_workers=0)
        load, threads = pipeline._load_fields, set()

        def recording(*args):
            threads.add(threading.current_thread())
            return load(*args)

        monkeypatch.setattr(pipeline, "_load_fields", recording)
        t2, r2 = run_dataset(manifest, prefetch_workers=2)
        assert threads == {threading.current_thread()}
        assert [rec.to_json() for rec in r1] == [rec.to_json() for rec in r2]
        assert [format_pose_line(f, p) for f, p in t1] == [format_pose_line(f, p) for f, p in t2]

    @pytest.mark.parametrize("workers", [-1, -3])
    def test_negative_prefetch_workers_fail_before_any_frame_is_read(self, monkeypatch, small_dataset, workers):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        loads = []
        monkeypatch.setattr(pipeline, "_load_fields", lambda *args: loads.append(args))
        with pytest.raises(ValueError, match=f"^prefetch_workers must be >= 0, got {workers}$"):
            run_dataset(manifest, prefetch_workers=workers)
        assert loads == []

    def test_first_frame_reads_only_its_own_rasters(self, monkeypatch, small_dataset):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)  # reads frame 0's labels header to check the shape
        reads = []
        read = pipeline.read_pgm

        def counting(path):
            reads.append(Path(path))
            return read(path)

        monkeypatch.setattr(pipeline, "read_pgm", counting)
        record, pose = next(pipeline.iter_frames(manifest))
        assert record.frame_id == 0 and record.status == "accepted" and pose is not None
        assert sorted(path.name for path in reads) == ["dynamic.pgm", "edges.pgm", "labels.pgm"]
        assert {path.parent.name for path in reads} == {"000000"}

    def test_frame_fields_are_freed_before_its_record(self, monkeypatch, small_dataset):
        _, root = small_dataset
        manifest = DatasetManifest.from_directory(root)
        stacks = {}  # frame id -> weakrefs to its fine and coarse FieldStacks and their arrays
        coarse_built = {}  # frame id -> whether it built a coarse stack
        load = pipeline._load_fields

        def recording(manifest, frame_id, *args):
            # The frame before this one is gone before this one loads.
            assert not [frame for frame, refs in stacks.items() if any(ref() is not None for ref in refs)]
            fine, coarse = load(manifest, frame_id, *args)
            built = (fine, fine.stack) if coarse is None else (fine, coarse, fine.stack, coarse.stack)
            stacks[frame_id] = [weakref.ref(item) for item in built]
            coarse_built[frame_id] = coarse is not None
            return fine, coarse

        monkeypatch.setattr(pipeline, "_load_fields", recording)
        records = 0
        for record, _ in pipeline.iter_frames(manifest):
            assert all(ref() is None for ref in stacks[record.frame_id])
            # The coarse stack is None exactly where the coarse stage was skipped.
            assert coarse_built[record.frame_id] == (record.coarse != al.COARSE_SKIPPED)
            records += 1
        assert records == len(stacks) == 12
        assert coarse_built[0] and not all(coarse_built.values())

    def test_bad_odometry_fails_at_the_call(self, tmp_path, small_dataset):
        import shutil

        _, root = small_dataset
        clone = tmp_path / "nan-odometry"
        shutil.copytree(root, clone)
        odometry = clone / "odometry.txt"
        lines = odometry.read_text(encoding="ascii").splitlines()
        lines[4] = " ".join(lines[4].split()[:3] + ["nan"] + lines[4].split()[4:])
        odometry.write_text("\n".join(lines) + "\n", encoding="ascii")
        manifest = DatasetManifest.from_directory(clone)
        with pytest.raises(ValueError, match=f"{re.escape(str(odometry))}:5"):
            pipeline.iter_frames(manifest)  # no next(): the set-up runs before the generator is returned

    def test_initial_frame_without_odometry_fails_at_the_call(self, tmp_path, small_dataset):
        # Without it no frame can be anchored, so the run must not start.
        _, root = small_dataset
        clone = tmp_path / "no-initial-odometry"
        shutil.copytree(root, clone)
        odometry = clone / "odometry.txt"
        lines = odometry.read_text(encoding="ascii").splitlines()
        odometry.write_text("\n".join(line for line in lines if line.split()[0] != "0") + "\n", encoding="ascii")
        manifest = DatasetManifest.from_directory(clone)
        with pytest.raises(ValueError, match=r"initial_pose\.txt: initial frame 0 has no odometry"):
            pipeline.iter_frames(manifest)

    def test_run_without_the_initial_frame_anchors_at_the_next_frame(self, tmp_path, small_dataset):
        # The initial pose anchors the first listed frame at or after frame 0.
        _, root = small_dataset
        clone = tmp_path / "no-initial-frame"
        shutil.copytree(root, clone)
        shutil.rmtree(clone / "frames" / "000000")
        _, records = run_dataset(DatasetManifest.from_directory(clone))
        assert [r.frame_id for r in records] == list(range(1, 12))
        assert sum(r.status == "accepted" for r in records) >= 10

    def test_map_is_packed_once_per_run(self, monkeypatch, small_dataset):
        _, root = small_dataset
        calls = []
        pack = cm.pack_map

        def counting(compact_map):
            calls.append(compact_map)
            return pack(compact_map)

        monkeypatch.setattr(cm, "pack_map", counting)
        _, records = run_dataset(DatasetManifest.from_directory(root))
        assert len(records) > 1 and len(calls) == 1

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
                "coarse",
            }
            assert payload["coarse"] in (al.COARSE_SKIPPED, al.COARSE_UNUSED, al.COARSE_USED)

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

    def test_frame_raster_of_the_wrong_shape_is_skipped(self, tmp_path, small_dataset):
        # Frame 10's rasters shrunk from 640x400 to 320x200: alignment must not
        # run against fields of the wrong shape; the frame gets a skipped:io
        # record that names the file and both shapes, and the run goes on.
        import shutil

        _, root = small_dataset
        clone = tmp_path / "shrunk"
        shutil.copytree(root, clone)
        frame_dir = clone / "frames" / "000010"
        for name in ("labels.pgm", "edges.pgm", "dynamic.pgm"):
            write_pgm(frame_dir / name, read_pgm(frame_dir / name)[::2, ::2])
        manifest = DatasetManifest.from_directory(clone)
        assert (manifest.intrinsics.width, manifest.intrinsics.height) == (640, 400)
        _, records = run_dataset(manifest)
        by_id = {r.frame_id: r for r in records}
        status = by_id[10].status
        assert status.startswith("skipped:io:")
        assert str(frame_dir / "labels.pgm") in status
        assert "(200, 320)" in status and "(400, 640)" in status
        assert by_id[11].status == "accepted"

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


def trajectory_sha(trajectory):
    return hashlib.sha256("".join(format_pose_line(f, p) + "\n" for f, p in trajectory).encode()).hexdigest()


class TestCoarseTrigger:
    """The coarse stage runs unless the last frame that ran the chain was
    accepted and the prior's predicted error is at most 5 cm."""

    @staticmethod
    def coarse_frames(monkeypatch, tmp_path, preset, seed, drift, n_frames):
        """Run a dataset; the ids of the frames that built coarse masks, and the records."""
        scene = syn.generate_scene(seed, preset, n_frames=n_frames, noise=syn.NoiseConfig(odometry_drift_per_m=drift))
        root = syn.write_dataset(scene, tmp_path / preset)
        coarsened = []
        coarsen = pipeline.coarsen_mask
        monkeypatch.setattr(pipeline, "coarsen_mask", lambda mask: coarsened.append(mask) or coarsen(mask))
        frames, records = [], []
        for record, _ in pipeline.iter_frames(DatasetManifest.from_directory(root)):
            if coarsened:
                frames.append(record.frame_id)
                coarsened.clear()
            records.append(record)
        # The log says where the stage ran.
        assert [r.frame_id for r in records if r.coarse != al.COARSE_SKIPPED] == frames
        return frames, records

    def test_low_drift_runs_the_stage_on_the_first_two_frames_only(self, monkeypatch, tmp_path):
        # Frame 0 starts from the unchecked initial pose, and frame 1 from the
        # first fix, which has no drift rate yet.
        frames, records = self.coarse_frames(monkeypatch, tmp_path, "urban-straight", 7, 0.005, 8)
        assert frames == [0, 1]
        assert all(r.status == "accepted" for r in records)

    def test_high_drift_runs_the_stage_on_every_frame(self, monkeypatch, tmp_path):
        frames, records = self.coarse_frames(monkeypatch, tmp_path, "urban-corner", 5, 0.3, 6)
        assert frames == list(range(6))
        assert all(r.status == "accepted" for r in records)

    def test_frame_after_a_drop_runs_the_stage(self, monkeypatch, tmp_path):
        # Frame 4 is dropped; frame 5 runs the stage although its predicted
        # error is small, and frame 6, after an accepted frame, skips it again.
        align, aligned = pipeline.align_frame, []

        def dropping_frame_4(problem, coarse_fields):
            result = align(problem, coarse_fields)
            aligned.append(result)
            return replace(result, accepted=False, reject_reason=al.REJECT_DIVERGED) if len(aligned) == 5 else result

        monkeypatch.setattr(pipeline, "align_frame", dropping_frame_4)
        frames, records = self.coarse_frames(monkeypatch, tmp_path, "urban-straight", 7, 0.005, 8)
        assert [r.status for r in records] == ["accepted"] * 4 + ["dropped:diverged"] + ["accepted"] * 3
        assert frames == [0, 1, 5]


class TestPinnedCornerRecovery:
    def test_probe_rounds_trajectory_and_log_are_pinned(self, tmp_path):
        # Urban corner, 0.3 m/m odometry drift and a wall over frames 22-27:
        # priors land far off, and on the wall frames every active sample
        # reads the cap; after it, coarse solves stop at the pose gate and
        # are the frames' verdicts, logged with no mean residual. Digests of
        # the trajectory and log.
        noise = syn.NoiseConfig(odometry_drift_per_m=0.3, edge_jitter_px=1.0, edge_dropout=0.1)
        scene = syn.generate_scene(5, "urban-corner", n_frames=30, noise=noise)
        scene = replace(scene, noise=replace(noise, occluders=(syn.make_occluder_wall(scene, 22, 27),)))
        root = syn.write_dataset(scene, tmp_path / "corner")
        trajectory, records = run_dataset(DatasetManifest.from_directory(root))
        log_text = "".join(r.to_json() + "\n" for r in records)
        log_sha = hashlib.sha256(log_text.encode()).hexdigest()
        assert trajectory_sha(trajectory) == "d172dde6bb69562a8561e011e749b41843fdc30ad52e96302bfa838a258b8b10"
        assert log_sha == "7d3931d47ee802fd232ffc7c7d2ef18fb323f578714ad8c6e37937010d0ecc5d"


# The corner-recovery scene and the six stress scenes: (preset, scene seed,
# drift per m, wall frames or None, deleted frames, edge jitter px, dropout).
# The walls are at 0.3 m/m drift, and the straight wall scene also has a gap
# in its frames.
STRESS_SCENES = {
    "corner-recovery": ("urban-corner", 5, 0.3, (25, 31), (), 1.0, 0.1),
    "corner-seed-1": ("urban-corner", 1, 0.3, (25, 31), (), 1.0, 0.1),
    "corner-seed-2": ("urban-corner", 2, 0.3, (20, 26), (), 1.0, 0.1),
    "corner-seed-5-drift-0.2": ("urban-corner", 5, 0.2, None, (), 1.0, 0.1),
    "straight-seed-3-gap": ("urban-straight", 3, 0.05, (15, 22), range(30, 35), 1.0, 0.1),
    "straight-seed-11-noisy": ("urban-straight", 11, 0.1, None, (), 1.5, 0.2),
    "sparse-seed-4": ("sparse", 4, 0.05, None, (), 1.0, 0.1),
}


# Trajectory SHA-256 of the six stress scenes. The wall frames read the cap
# everywhere, so a change to what the solver does there shows in the first,
# second and fourth; the others track without a wall.
STRESS_TRAJECTORY_PINS = {
    "corner-seed-1": "79a7f3c1f9413aeb97dd0c67bcf6c2450bc6f353aace0f280424a305cfbc7666",
    "corner-seed-2": "c841f2e9987c640949a0d94e46dee2b9bbeb350832637edb1b328bf73dc4938e",
    "corner-seed-5-drift-0.2": "91084e91dc7efda06889ebd0a4e00d24f1c056aa2701debd93076df4be6e616e",
    "straight-seed-3-gap": "e8c2a147b44994decaba92f1ad49c64a9730cabb7cfd9a589a55e2bed661ef22",
    "straight-seed-11-noisy": "cf7c3d220c8dfc14db7d963a6847dcda5fc2e7717cf9a0ae978e64101d3b44f5",
    "sparse-seed-4": "374d9ce2d1d1aee82e5c68cb3bd0a48d31b9dfc811231282ee82048534ab7e1a",
}


@pytest.fixture(scope="module")
def stress_scene(tmp_path_factory):
    """The dataset root of a STRESS_SCENES entry, 40 frames; each is written
    once per module, when first asked for."""
    roots = {}

    def root_of(name):
        if name not in roots:
            preset, seed, drift, wall, deleted, jitter, dropout = STRESS_SCENES[name]
            noise = syn.NoiseConfig(odometry_drift_per_m=drift, edge_jitter_px=jitter, edge_dropout=dropout)
            scene = syn.generate_scene(seed, preset, n_frames=40, noise=noise)
            if wall is not None:
                scene = replace(scene, noise=replace(noise, occluders=(syn.make_occluder_wall(scene, *wall),)))
            roots[name] = syn.write_dataset(scene, tmp_path_factory.mktemp("scene") / name)
            for frame_id in deleted:
                shutil.rmtree(roots[name] / "frames" / f"{frame_id:06d}")
        return roots[name]

    return root_of


class TestWallScenes:
    """Probes on the wall scenes, and the trajectory pins of the six stress scenes."""

    def test_far_probes_win_off_the_cap_and_none_is_taken_on_it(self, stress_scene, monkeypatch):
        # While the wall hides every edge, each active residual reads the cap
        # and the energy has no contrast: a probe could only win by losing
        # samples, so none is taken (corner-recovery). Off the cap, far probes
        # still escape (corner-seed-2, whose wall is over frames 20-26).
        d_max = PipelineConfig().dt_truncation_px
        probe, solve = al._probe_escape, al.solve

        def run(name):
            """(at_cap, far probe won) per probe round, and every solve's result."""
            scans, solves = [], []

            def recording_probe(prepared, pose, energy_now, count_now, min_samples, offsets):
                escape = probe(prepared, pose, energy_now, count_now, min_samples, offsets)
                # All label weights are 1, so the mean residual is d_max^2 only at the cap.
                at_cap = energy_now >= count_now * d_max**2 * (1.0 - 1e-9)
                scans.append((at_cap, offsets is al._PROBE_OFFSETS_FAR and escape is not None))
                return escape

            def recording_solve(problem):
                solves.append(solve(problem))
                return solves[-1]

            monkeypatch.setattr(al, "_probe_escape", recording_probe)
            monkeypatch.setattr(al, "solve", recording_solve)
            run_dataset(DatasetManifest.from_directory(stress_scene(name)))
            return scans, solves

        scans, solves = run("corner-recovery")
        on_cap = [r for r in solves if r.mean_reproj_error >= d_max**2 * (1.0 - 1e-9)]
        # The coarse and the fine solve of each of the 7 wall frames.
        assert len(on_cap) == 14 and all(r.probe_rounds == 0 for r in on_cap)
        assert not any(at_cap for at_cap, _ in scans)
        scans, _ = run("corner-seed-2")
        assert any(far_win for _, far_win in scans)

    @pytest.mark.parametrize("name", sorted(STRESS_TRAJECTORY_PINS))
    def test_trajectory_is_pinned(self, stress_scene, name):
        trajectory, _ = run_dataset(DatasetManifest.from_directory(stress_scene(name)))
        assert trajectory_sha(trajectory) == STRESS_TRAJECTORY_PINS[name]


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


class TestPgm:
    @pytest.mark.parametrize("comment", [b"", b"# made by hand\n", b"#" + b"x" * 5000 + b"\n"])
    def test_shape_is_read_from_the_header_as_read_pgm_reads_it(self, tmp_path, comment):
        path = tmp_path / "image.pgm"
        pixels = np.arange(35, dtype=np.uint8).reshape(5, 7)
        path.write_bytes(b"P5\n" + comment + b"7 5\n255\n" + pixels.tobytes())
        assert read_pgm_shape(path) == (5, 7)
        assert np.array_equal(read_pgm(path), pixels)

    def test_header_errors_are_shared_and_truncation_is_named(self, tmp_path):
        path = tmp_path / "image.pgm"
        for data, message in ((b"garbage", "not a binary P5 PGM"), (b"P5 7 5 65535\n", "only 8-bit")):
            path.write_bytes(data)
            for read in (read_pgm_shape, read_pgm):
                with pytest.raises(ValueError, match=message):
                    read(path)
        path.write_bytes(b"P5 7 5 255\n" + bytes(34))
        assert read_pgm_shape(path) == (5, 7)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated pixel data"):
            read_pgm(path)


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

    def test_repeated_frame_id_rejected(self, tmp_path):
        path = tmp_path / "odometry.txt"
        path.write_text(f"{self.LINE}\n# again\n{self.LINE.replace(' 1.0 ', ' 5.0 ', 1)}\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: frame 3 repeats line 1$"):
            read_trajectory(path)

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

    @pytest.mark.parametrize("key", ["step_tol", "energy_tol", "lambda_init"])
    def test_solver_numerics_are_not_config_keys(self, key):
        # They are constants of the solver, alignment._STEP_TOL and its peers.
        with pytest.raises(ValueError, match=f"^config line 1: unknown config key '{key}'$"):
            parse_config_text(f"{key} = 1e-4\n")

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
        cfg = parse_config_text("min_samples = 0\nmin_information = 0\nlabel_weights = pole:0\n")
        assert cfg.min_samples == 0 and cfg.min_information == 0.0 and cfg.weight_for("pole") == 0.0

    def test_defaults_match_documented_values(self):
        cfg = PipelineConfig()
        assert cfg.sample_spacing_px == 4.0
        assert cfg.depth_tolerance_m == 0.1
        assert cfg.default_pole_radius_m == 0.15
        assert cfg.max_selection_range_m == 150.0
        assert cfg.dt_truncation_px == 20.0
        assert cfg.max_iterations == 50
        assert cfg.min_samples == 30
        assert cfg.max_translation_jump_m == 1.0
        assert cfg.max_rotation_jump_deg == 3.0
        assert cfg.max_mean_reproj_px == 3.0
        assert cfg.min_information == 1e-4
