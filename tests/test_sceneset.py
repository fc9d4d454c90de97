"""tools/sceneset.py runs scenes against their ground truth and compares two runs."""

import importlib.util
import json
import sys
from pathlib import Path

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
    assert scenes["straight-noisy"]["trajectory_sha256"] in printed

    # The same run compared with itself: every ratio is 1, and no frame changed.
    assert sceneset.main(args + ["--compare", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "baseline: accepted 8 -> 8; median ratios rmse_m 1.000  rmse_deg 1.000  max_err_m 1.000" in printed
    assert "    frame " not in printed
