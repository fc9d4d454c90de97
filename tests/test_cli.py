import hashlib
import json

import pytest

from edgeloc.cli import main
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
        assert digest == "3fe6ec93a81347694da4e81d64b28b65a300d056d72541848f7dde567c84a0cf"

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
        code = main(["run", "--dataset", str(root), "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert f"error: {odometry}:3: non-finite pose value" in capsys.readouterr().err

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
