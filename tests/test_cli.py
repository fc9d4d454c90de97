import hashlib
import json
import shutil

import pytest

from edgeloc import pipeline
from edgeloc.cli import main
from edgeloc.compact_map import MapFormatError, read_map
from edgeloc.io import read_trajectory


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    code = main(["synth", "--preset", "sparse", "--seed", "17", "--out", str(root), "--frames", "8"])
    assert code == 0
    return root


class TestSynthCommand:
    def test_dataset_layout(self, dataset):
        assert (dataset / "map.cmap").is_file()
        assert (dataset / "frames" / "000007" / "edges.pgm").is_file()

    def test_noise_flags(self, tmp_path):
        out = tmp_path / "noisy"
        code = main(
            [
                "synth", "--preset", "sparse", "--seed", "1", "--out", str(out),
                "--frames", "3", "--edge-jitter", "1.0", "--edge-dropout", "0.2",
                "--drift-rate", "0.01",
            ]
        )
        assert code == 0
        assert (out / "frames" / "000002" / "labels.pgm").is_file()

    def test_occlusion_flags(self, tmp_path):
        out = tmp_path / "occluded"
        code = main(
            [
                "synth", "--preset", "sparse", "--seed", "1", "--out", str(out),
                "--frames", "6", "--occlude-from", "2", "--occlude-to", "4",
            ]
        )
        assert code == 0
        from edgeloc.io import read_pgm

        clear = read_pgm(out / "frames" / "000000" / "dynamic.pgm")
        masked = read_pgm(out / "frames" / "000003" / "dynamic.pgm")
        assert clear.sum() == 0
        assert (masked > 0).mean() > 0.5


    @pytest.mark.parametrize(
        "window, message",
        [
            (["--occlude-from", "2"], "--occlude-from and --occlude-to must be given together"),
            (["--occlude-to", "4"], "--occlude-from and --occlude-to must be given together"),
            (["--occlude-from", "4", "--occlude-to", "2"], "occluder window [4, 2] is not inside the scene's frames [0, 5]"),
            (["--occlude-from", "2", "--occlude-to", "40"], "occluder window [2, 40] is not inside the scene's frames [0, 5]"),
        ],
    )
    def test_bad_occluder_window_exits_2(self, tmp_path, capsys, window, message):
        out = tmp_path / "occluded"
        code = main(["synth", "--preset", "sparse", "--seed", "1", "--out", str(out), "--frames", "6", *window])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_no_frames_exits_2_and_writes_nothing(self, tmp_path, capsys, frames):
        # Rejected before any file of the dataset is written.
        out = tmp_path / "empty"
        code = main(["synth", "--preset", "sparse", "--out", str(out), "--frames", frames])
        assert code == 2
        assert capsys.readouterr().err == f"error: a scene needs at least 1 frame, got {frames}\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--drift-rate", "nan", "odometry_drift_per_m must be finite and >= 0, got nan"),
            ("--edge-jitter", "nan", "edge_jitter_px must be finite and >= 0, got nan"),
            ("--edge-jitter", "-3", "edge_jitter_px must be finite and >= 0, got -3.0"),
            ("--edge-dropout", "-1", "edge_dropout must be finite and >= 0, got -1.0"),
            ("--edge-dropout", "2", "edge_dropout must be <= 1, got 2.0"),
        ],
    )
    def test_noise_value_it_cannot_use_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value, message):
        # A negative or NaN drift or jitter would silently mean none.
        out = tmp_path / "noisy"
        code = main(["synth", "--preset", "sparse", "--out", str(out), "--frames", "2", flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_empty_output_directory_exits_2_and_changes_nothing(self, tmp_path, capsys):
        # A shorter dataset written over a longer one would leave its extra
        # frames behind, with no odometry.
        out = tmp_path / "ds"
        assert main(["synth", "--preset", "sparse", "--seed", "1", "--out", str(out), "--frames", "4"]) == 0
        before = {path: path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
        capsys.readouterr()
        code = main(["synth", "--preset", "sparse", "--seed", "2", "--out", str(out), "--frames", "2"])
        assert code == 2
        assert capsys.readouterr().err == f"error: output directory is not empty: {out}\n"
        assert {path: path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()} == before

    def test_empty_output_directory_is_written(self, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        assert main(["synth", "--preset", "sparse", "--seed", "1", "--out", str(out), "--frames", "2"]) == 0
        assert sorted(path.name for path in (out / "frames").iterdir()) == ["000000", "000001"]


def map_with_nan_on_line_7(dataset, tmp_path):
    """A copy of the dataset's map with one coordinate of line 7 set to nan."""
    lines = (dataset / "map.cmap").read_text(encoding="ascii").splitlines()
    tokens = lines[6].split()
    assert tokens[0] == "SEG"
    tokens[2] = "nan"
    lines[6] = " ".join(tokens)
    bad = tmp_path / "bad.cmap"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    return bad


class TestErrorsNameTheirFile:
    def test_map_error_in_run(self, dataset, tmp_path, capsys):
        bad = map_with_nan_on_line_7(dataset, tmp_path)
        out = tmp_path / "t.txt"
        assert main(["run", "--dataset", str(dataset), "--map", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: expected a finite number, got 'nan' (line 7)\n"
        assert not out.exists()

    def test_map_error_in_map_stats(self, dataset, tmp_path, capsys):
        bad = map_with_nan_on_line_7(dataset, tmp_path)
        assert main(["map-stats", "--map", str(bad), "--original-size", "10"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: expected a finite number, got 'nan' (line 7)\n"

    def test_map_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.cmap"
        bad.write_bytes(b"CMAP 1\nLABEL a road\nSEG a 0 0 0 1 \xff 0\n")
        assert main(["map-stats", "--map", str(bad), "--original-size", "10"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text: invalid start byte (line 3)\n"

    def test_map_error_keeps_its_type_and_fields(self, dataset, tmp_path):
        bad = map_with_nan_on_line_7(dataset, tmp_path)
        with pytest.raises(MapFormatError) as caught:
            read_map(bad)
        assert (caught.value.line_number, caught.value.landmark_id) == (7, None)
        assert str(caught.value).startswith(f"{bad}: ")

    def test_config_error_in_run(self, dataset, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("max_iterations = 30\nmax_mean_reproj_px = nan\n", encoding="ascii")
        out = tmp_path / "t.txt"
        assert main(["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {config}: config line 2: max_mean_reproj_px must be finite and >= 0, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("min_information = abc", "min_information: expected a number, got 'abc'"),
            ("max_iterations = 5.0", "max_iterations: expected an integer, got '5.0'"),
            ("label_weights = pole:0.5, lane_line:x", "label_weights entry 'lane_line': expected a number, got 'x'"),
        ],
    )
    def test_config_value_that_does_not_parse_names_its_key(self, dataset, tmp_path, capsys, line, message):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n", encoding="ascii")
        out = tmp_path / "t.txt"
        run = ["run", "--dataset", str(dataset), "--out", str(out)]
        assert main(run + ["--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}: config line 1: {message}\n"
        assert main(run + ["--set", line.replace(" = ", "=")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRunCommand:
    def test_run_and_evaluate(self, dataset, tmp_path, capsys):
        traj = tmp_path / "traj.txt"
        log = tmp_path / "log.jsonl"
        code = main(
            [
                "run", "--dataset", str(dataset), "--out", str(traj), "--log", str(log),
            ]
        )
        assert code == 0
        est = read_trajectory(traj)
        assert len(est) >= 7
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 8
        assert all("status" in r for r in records)

        code = main(["evaluate", "--est", str(traj), "--gt", str(dataset / "groundtruth.txt")])
        assert code == 0
        out = capsys.readouterr().out
        assert "rmse_norm_m" in out
        rmse = float([ln for ln in out.splitlines() if ln.startswith("rmse_norm_m")][0].split("=")[1])
        assert rmse < 0.05

    def test_debug_rasters_written(self, dataset, tmp_path):
        from edgeloc.io import read_pgm

        traj = tmp_path / "t.txt"
        debug = tmp_path / "overlays"
        code = main(
            ["run", "--dataset", str(dataset), "--out", str(traj), "--debug-dir", str(debug)]
        )
        assert code == 0
        overlay = read_pgm(debug / "000003.pgm")
        assert overlay.shape == (400, 640)
        assert (overlay == 255).any()  # reprojected samples marked bright
        # Pinned overlay bytes: a change in which samples are drawn, or where, moves them.
        digest = hashlib.sha256((debug / "000003.pgm").read_bytes()).hexdigest()
        assert digest == "3f05563c02d7f61008e34eb06fd557be7480a5f6a356f9820739fde4eb787ff9"

    def test_debug_rasters_for_a_map_without_labels(self, dataset, tmp_path):
        # No labels, no fields: every frame drops, and each overlay is the
        # intrinsics-sized field at d_max, which draws as 200.
        from edgeloc.io import read_pgm

        empty_map = tmp_path / "empty.cmap"
        empty_map.write_text("CMAP 1\n", encoding="ascii")
        logs = []
        for name, extra in (("plain", []), ("debug", ["--debug-dir", str(tmp_path / "overlays")])):
            log = tmp_path / f"{name}.jsonl"
            args = ["run", "--dataset", str(dataset), "--map", str(empty_map), "--out", str(tmp_path / f"{name}.txt")]
            assert main(args + ["--log", str(log)] + extra) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert [json.loads(line)["status"] for line in logs[0].splitlines()] == ["dropped:too-few-samples"] * 8
        overlays = sorted((tmp_path / "overlays").iterdir())
        assert [path.name for path in overlays] == [f"{fid:06d}.pgm" for fid in range(8)]
        for path in overlays:
            overlay = read_pgm(path)
            assert overlay.shape == (400, 640) and (overlay == 200).all()

    def test_log_of_frames_without_an_estimate_is_strict_json(self, dataset, tmp_path):
        # Frames 0-1 come before the initial frame, frame 5 has no odometry,
        # frame 6's edges do not parse, and the empty map leaves the rest no
        # samples: none has an estimate, and each logs its error as null.
        clone = tmp_path / "ds"
        shutil.copytree(dataset, clone)
        odometry = (clone / "odometry.txt").read_text(encoding="ascii").splitlines()
        (clone / "initial_pose.txt").write_text(odometry[2] + "\n", encoding="ascii")
        kept = [line for line in odometry if line.split()[0] != "5"]
        (clone / "odometry.txt").write_text("\n".join(kept) + "\n", encoding="ascii")
        (clone / "frames" / "000006" / "edges.pgm").write_bytes(b"garbage")
        empty_map = tmp_path / "empty.cmap"
        empty_map.write_text("CMAP 1\n", encoding="ascii")
        log = tmp_path / "l.jsonl"
        args = ["run", "--dataset", str(clone), "--map", str(empty_map), "--out", str(tmp_path / "t.txt")]
        assert main(args + ["--log", str(log)]) == 0

        def no_constants(name):
            raise AssertionError(f"not JSON: {name}")

        records = [json.loads(line, parse_constant=no_constants) for line in log.read_text().splitlines()]
        statuses = [record["status"] for record in records]
        assert statuses[6].startswith("skipped:io:")
        assert statuses[:6] + statuses[7:] == [
            "dropped:not-initialized", "dropped:not-initialized", "dropped:too-few-samples",
            "dropped:too-few-samples", "dropped:too-few-samples", "skipped:missing-odometry", "dropped:too-few-samples",
        ]
        assert [record["mean_reproj_error"] for record in records] == [None] * 8

    def test_prefetch_flag_is_a_usage_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "t.txt"
        with pytest.raises(SystemExit) as caught:
            main(["run", "--dataset", str(dataset), "--out", str(out), "--prefetch", "1"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --prefetch 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_with_config_overrides(self, dataset, tmp_path):
        traj = tmp_path / "t.txt"
        config = tmp_path / "cfg.txt"
        config.write_text("max_iterations = 30\nsample_spacing_px = 5\n")
        code = main(
            [
                "run", "--dataset", str(dataset), "--config", str(config),
                "--set", "min_samples=25", "--out", str(traj),
            ]
        )
        assert code == 0

    def test_missing_dataset_is_error(self, tmp_path, capsys):
        code = main(["run", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_odometry_is_error_naming_the_line(self, tmp_path, capsys):
        root = tmp_path / "ds"
        assert main(["synth", "--preset", "sparse", "--seed", "3", "--out", str(root), "--frames", "4"]) == 0
        odometry = root / "odometry.txt"
        lines = odometry.read_text(encoding="ascii").splitlines()
        tokens = lines[2].split()
        tokens[2] = "nan"
        lines[2] = " ".join(tokens)
        odometry.write_text("\n".join(lines) + "\n", encoding="ascii")
        out, log = tmp_path / "t.txt", tmp_path / "l.jsonl"
        code = main(["run", "--dataset", str(root), "--out", str(out), "--log", str(log)])
        assert code == 2
        assert f"error: {odometry}:3: non-finite pose value" in capsys.readouterr().err
        assert not out.exists() and not log.exists()

    def test_crash_keeps_the_finished_frames(self, dataset, tmp_path, monkeypatch):
        full_traj, full_log = tmp_path / "full.txt", tmp_path / "full.jsonl"
        assert main(["run", "--dataset", str(dataset), "--out", str(full_traj), "--log", str(full_log)]) == 0
        traj, log = tmp_path / "t.txt", tmp_path / "l.jsonl"
        align, on_disk = pipeline.align_frame, []

        def crashing(*args):
            if len(on_disk) == 3:  # frame 3: what frames 0-2 left on disk, then the crash
                on_disk.append((traj.read_text(), log.read_text()))
                raise KeyboardInterrupt
            on_disk.append(None)
            return align(*args)

        monkeypatch.setattr(pipeline, "align_frame", crashing)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--dataset", str(dataset), "--out", str(traj), "--log", str(log)])
        kept_traj = [line for line in full_traj.read_text().splitlines() if int(line.split()[0]) < 3]
        kept_log = full_log.read_text().splitlines()[:3]
        assert len(kept_traj) == 3 and [json.loads(line)["frame_id"] for line in kept_log] == [0, 1, 2]
        assert on_disk[3] == ("".join(f"{line}\n" for line in kept_traj), "".join(f"{line}\n" for line in kept_log))
        assert traj.read_text().splitlines() == kept_traj
        assert log.read_text().splitlines() == kept_log

    def test_byte_identical_outputs(self, dataset, tmp_path):
        t1, l1 = tmp_path / "a.txt", tmp_path / "a.jsonl"
        t2, l2 = tmp_path / "b.txt", tmp_path / "b.jsonl"
        assert main(["run", "--dataset", str(dataset), "--out", str(t1), "--log", str(l1)]) == 0
        assert main(["run", "--dataset", str(dataset), "--out", str(t2), "--log", str(l2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()


class TestMapStatsCommand:
    def test_counts_and_factor(self, dataset, capsys):
        code = main(["map-stats", "--map", str(dataset / "map.cmap"), "--original-size", "69400000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "landmarks = 74" in out
        assert "compression_factor" in out
        factor = float([ln for ln in out.splitlines() if "compression_factor" in ln][0].split("=")[1])
        assert factor > 1000

    def test_missing_file_reports_path(self, capsys):
        code = main(["map-stats", "--map", "/no/such/map.cmap", "--original-size", "10"])
        assert code == 2
        assert "/no/such/map.cmap" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_missing_overlap_is_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 0 0 0 0 0 0 1\n")
        b.write_text("2 0 0 0 0 0 0 1\n")
        assert main(["evaluate", "--est", str(a), "--gt", str(b)]) == 2
        assert "error:" in capsys.readouterr().err
