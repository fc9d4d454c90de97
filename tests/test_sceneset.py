"""tools/sceneset.py runs scenes against their ground truth and compares two runs."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from edgeloc.pipeline import DatasetManifest, run_dataset

ROOT = Path(__file__).resolve().parents[1]


def load_sceneset(monkeypatch):
    spec = importlib.util.spec_from_file_location("sceneset", ROOT / "tools" / "sceneset.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "sceneset", module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_two_short_scenes_run_and_compare(tmp_path, capsys, monkeypatch):
    sceneset = load_sceneset(monkeypatch)
    out = tmp_path / "run.json"
    args = ["--frames", "4", "--scenes", "straight-noisy,corner-recovery"]
    assert sceneset.main(args + ["--out", str(out)]) == 0
    scenes = json.loads(out.read_text(encoding="utf-8"))["sets"]["baseline"]
    assert list(scenes) == ["straight-noisy", "corner-recovery"]
    for scene in scenes.values():
        assert scene["frames"] == 4 and scene["accepted"] == 4
        assert scene["max_err_m"] < 0.1 and scene["evaluations_per_frame"] > 0
        assert [status for status, _ in scene["frame_status"].values()] == ["accepted"] * 4
    # Low drift skips the coarse stage after frame 1; 0.3 m/m drift never does.
    assert scenes["straight-noisy"]["coarse_frames"] == [0, 1]
    assert scenes["corner-recovery"]["coarse_frames"] == [0, 1, 2, 3]
    printed = capsys.readouterr().out
    assert "baseline: accepted 8 of 8" in printed
    for scene in scenes.values():
        assert f"{scene['trajectory_sha256']}  {scene['log_sha256']}" in printed

    # The log digest is the SHA-256 of the JSONL lines `edgeloc run --log` writes.
    root = sceneset.write_scene(sceneset.BASELINE[0], tmp_path, 4)
    _, records = run_dataset(DatasetManifest.from_directory(root))
    log = "".join(record.to_json() + "\n" for record in records)
    assert scenes["straight-noisy"]["log_sha256"] == hashlib.sha256(log.encode()).hexdigest()

    # The same run compared with itself: every ratio is 1, and no digest or frame changed.
    assert sceneset.main(args + ["--compare", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "baseline: accepted 8 -> 8; median ratios rmse_m 1.000  rmse_deg 1.000  max_err_m 1.000" in printed
    assert "    frame " not in printed and "    log: " not in printed and "    trajectory: " not in printed

    # A log digest that differs is shown with both values; the trajectory's is not.
    run = json.loads(out.read_text(encoding="utf-8"))
    new_log = run["sets"]["baseline"]["corner-recovery"]["log_sha256"]
    run["sets"]["baseline"]["corner-recovery"]["log_sha256"] = "0" * 64
    out.write_text(json.dumps(run), encoding="utf-8")
    assert sceneset.main(args + ["--compare", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"    log: {'0' * 64} -> {new_log}" in printed
    assert printed.count("    log: ") == 1 and "    trajectory: " not in printed
