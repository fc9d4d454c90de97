#!/usr/bin/env python3
"""Scene-set harness: run the frame chain on fixed synthetic scenes and check
each result against the scene's ground truth.

    python3 tools/sceneset.py [--out RUN.json] [--compare OTHER.json]
                              [--frames N] [--scenes NAME,NAME,...]

Each scene is built with ``edgeloc.synthetic`` in a temporary directory and
run with ``edgeloc.pipeline.iter_frames``. Per scene it prints accepted /
total frames, ``rmse_m``, ``rmse_deg``, ``max_err_m`` (the same definitions
as perfbench), solver evaluations per frame, the frames that ran the coarse
stage, and the SHA-256 of the trajectory file text and of the JSONL log
text (``edgeloc run --log``'s lines). Then, per set, the accepted total, the
medians over the scenes and the largest error of any accepted frame.

``--out`` writes the run as JSON. ``--compare`` reads such a file from
another run (say, of the parent commit) and prints this run's per-scene
ratios to it, their medians, every trajectory or log digest that changed,
and every frame whose status changed, with its error in both runs.
``--frames`` shortens every scene (walls and deleted frames outside it are
left out); ``--scenes`` runs only the named ones.

The harness imports ``edgeloc`` from the ``src`` beside this script, so a
copy of it in another checkout measures that checkout. It counts
evaluations and coarse stages by wrapping ``alignment._evaluate`` and
``alignment.solve_two_scale`` for the run, and changes no program file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edgeloc import alignment, synthetic  # noqa: E402
from edgeloc.evaluation import evaluate_trajectories  # noqa: E402
from edgeloc.io import format_pose_line, read_trajectory  # noqa: E402
from edgeloc.pipeline import DatasetManifest, iter_frames  # noqa: E402

FRAMES = 40


@dataclass(frozen=True)
class Scene:
    name: str
    preset: str
    seed: int
    drift_per_m: float
    wall: tuple[int, int] | None = None  # inclusive frame window of a dynamic wall
    deleted: tuple[int, ...] = ()  # frame directories removed after writing
    jitter_px: float = 1.0
    dropout: float = 0.1


CORNER_WALL = (25, 31)
STRAIGHT_WALL = (15, 22)

# The two benchmark workloads, the six stress scenes of the pipeline tests,
# and seven more wall and drift scenes.
BASELINE = (
    Scene("straight-noisy", "urban-straight", 7, 0.005),
    Scene("corner-recovery", "urban-corner", 5, 0.3, CORNER_WALL),
    Scene("corner-seed-1", "urban-corner", 1, 0.3, CORNER_WALL),
    Scene("corner-seed-2", "urban-corner", 2, 0.3, (20, 26)),
    Scene("corner-seed-5-drift-0.2", "urban-corner", 5, 0.2),
    Scene("straight-seed-3-gap", "urban-straight", 3, 0.05, STRAIGHT_WALL, deleted=tuple(range(30, 35))),
    Scene("straight-seed-11-noisy", "urban-straight", 11, 0.1, jitter_px=1.5, dropout=0.2),
    Scene("sparse-seed-4", "sparse", 4, 0.05),
    Scene("corner-seed-3", "urban-corner", 3, 0.3, CORNER_WALL),
    Scene("corner-seed-7", "urban-corner", 7, 0.3, CORNER_WALL),
    Scene("corner-seed-11", "urban-corner", 11, 0.3, CORNER_WALL),
    Scene("corner-seed-8-drift-0.2", "urban-corner", 8, 0.2),
    Scene("straight-seed-5-wall", "urban-straight", 5, 0.1, STRAIGHT_WALL),
    Scene("straight-seed-21-wall", "urban-straight", 21, 0.1, STRAIGHT_WALL),
    Scene("sparse-seed-9-wall", "sparse", 9, 0.1, STRAIGHT_WALL),
)

# Seeds used by no test and no tuning, so that each preset has five seeds or more.
HELD_OUT = (
    Scene("straight-seed-13", "urban-straight", 13, 0.005),
    Scene("straight-seed-17", "urban-straight", 17, 0.005),
    Scene("straight-seed-8-wall", "urban-straight", 8, 0.1, STRAIGHT_WALL),
    Scene("corner-seed-9", "urban-corner", 9, 0.3, CORNER_WALL),
    Scene("corner-seed-12", "urban-corner", 12, 0.3, CORNER_WALL),
    Scene("corner-seed-14-drift-0.1", "urban-corner", 14, 0.1),
    Scene("sparse-seed-2", "sparse", 2, 0.05),
    Scene("sparse-seed-6", "sparse", 6, 0.005),
    Scene("sparse-seed-10-wall", "sparse", 10, 0.1, STRAIGHT_WALL),
)

SETS = {"baseline": BASELINE, "held-out": HELD_OUT}
METRICS = ("rmse_m", "rmse_deg", "max_err_m", "evaluations_per_frame")


def write_scene(scene: Scene, root: Path, frames: int) -> Path:
    noise = synthetic.NoiseConfig(
        odometry_drift_per_m=scene.drift_per_m, edge_jitter_px=scene.jitter_px, edge_dropout=scene.dropout
    )
    built = synthetic.generate_scene(scene.seed, scene.preset, n_frames=frames, noise=noise)
    if scene.wall is not None and scene.wall[1] < frames:
        built = replace(built, noise=replace(noise, occluders=(synthetic.make_occluder_wall(built, *scene.wall),)))
    out = synthetic.write_dataset(built, root / scene.name)
    for frame_id in scene.deleted:
        shutil.rmtree(out / "frames" / f"{frame_id:06d}", ignore_errors=True)
    return out


class _Counting:
    """Swaps a module-level function for one that counts its calls."""

    def __init__(self, module, name):
        self.module, self.name, self.calls = module, name, 0
        self.original = getattr(module, name)

    def __enter__(self):
        def counting(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        setattr(self.module, self.name, counting)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)


def run_scene(root: Path) -> dict:
    manifest = DatasetManifest.from_directory(root)
    groundtruth = read_trajectory(manifest.groundtruth_path)
    trajectory, statuses, coarse_frames, log = [], {}, [], []
    with _Counting(alignment, "_evaluate") as evaluations, _Counting(alignment, "solve_two_scale") as two_scale:
        for record, pose in iter_frames(manifest):
            if two_scale.calls:
                coarse_frames.append(record.frame_id)
                two_scale.calls = 0
            statuses[record.frame_id] = record.status
            log.append(record.to_json() + "\n")
            if pose is not None:
                trajectory.append((record.frame_id, pose))
    errors = {}
    result = {"rmse_m": None, "rmse_deg": None, "max_err_m": None}
    if trajectory:
        report = evaluate_trajectories(dict(trajectory), groundtruth)
        errors = {e.frame_id: math.sqrt(e.dx**2 + e.dy**2 + e.dz**2) for e in report.frame_errors}
        result = {"rmse_m": report.rmse_norm, "rmse_deg": report.rmse_angle_deg, "max_err_m": max(errors.values())}
    text = "".join(format_pose_line(frame_id, pose) + "\n" for frame_id, pose in trajectory)
    return {
        "accepted": len(trajectory),
        "frames": len(statuses),
        **result,
        "evaluations_per_frame": evaluations.calls / max(len(statuses), 1),
        "coarse_frames": coarse_frames,
        "trajectory_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "log_sha256": hashlib.sha256("".join(log).encode("ascii")).hexdigest(),
        # frame id -> [status, translation error in m or null]
        "frame_status": {str(f): [status, errors.get(f)] for f, status in statuses.items()},
    }


def _fmt(value, spec=".4f") -> str:
    return "-" if value is None else format(value, spec)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def print_run(run: dict) -> None:
    for set_name, scenes in run["sets"].items():
        print(f"== {set_name}")
        print(f"{'scene':26} {'acc':>7} {'rmse_m':>8} {'rmse_deg':>8} {'max_err_m':>9} {'evals':>7} coarse"
              f" {'trajectory':64}  log")
        for name, s in scenes.items():
            print(
                f"{name:26} {s['accepted']:>3}/{s['frames']:<3} {_fmt(s['rmse_m']):>8} {_fmt(s['rmse_deg']):>8}"
                f" {_fmt(s['max_err_m']):>9} {_fmt(s['evaluations_per_frame'], '.1f'):>7}"
                f"  {len(s['coarse_frames']):>6}  {s['trajectory_sha256']}  {s['log_sha256']}"
            )
        worst = max((e for s in scenes.values() for _, e in s["frame_status"].values() if e is not None), default=None)
        medians = "  ".join(f"{m} {_fmt(_median([s[m] for s in scenes.values()]))}" for m in METRICS)
        print(f"{set_name}: accepted {sum(s['accepted'] for s in scenes.values())} of "
              f"{sum(s['frames'] for s in scenes.values())}; medians {medians}; largest error {_fmt(worst)} m")


def print_comparison(run: dict, other: dict) -> None:
    """This run's ratios to ``other`` per scene, and every frame whose status changed."""
    for set_name, scenes in run["sets"].items():
        before = other["sets"].get(set_name, {})
        common = [name for name in scenes if name in before]
        print(f"== {set_name}: this run / the other, {len(common)} scenes")
        ratios = {m: [] for m in METRICS}
        for name in common:
            now, was = scenes[name], before[name]
            cells = []
            for m in METRICS:
                ratio = now[m] / was[m] if now[m] is not None and was[m] else None
                ratios[m].append(ratio)
                cells.append(f"{m} {_fmt(ratio, '.3f')}")
            print(f"{name:26} accepted {was['accepted']:>3} -> {now['accepted']:<3} " + "  ".join(cells))
            for digest in ("trajectory", "log"):
                old_sha, new_sha = was.get(f"{digest}_sha256"), now[f"{digest}_sha256"]
                if new_sha != old_sha:
                    print(f"    {digest}: {old_sha or '-'} -> {new_sha}")
            for frame_id, (status, error) in now["frame_status"].items():
                old_status, old_error = was["frame_status"].get(frame_id, ["absent", None])
                if status != old_status:
                    print(f"    frame {frame_id}: {old_status} ({_fmt(old_error)} m) -> {status} ({_fmt(error)} m)")
        accepted = sum(scenes[n]["accepted"] for n in common), sum(before[n]["accepted"] for n in common)
        medians = "  ".join(f"{m} {_fmt(_median(ratios[m]), '.3f')}" for m in METRICS)
        print(f"{set_name}: accepted {accepted[1]} -> {accepted[0]}; median ratios {medians}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run the frame chain on the scene set against ground truth")
    parser.add_argument("--out", help="write this run as JSON")
    parser.add_argument("--compare", help="JSON of another run to compare this one with")
    parser.add_argument("--frames", type=int, default=FRAMES, help=f"frames per scene (default {FRAMES})")
    parser.add_argument("--scenes", help="comma-separated scene names (default: every scene)")
    args = parser.parse_args(argv)
    wanted = set(args.scenes.split(",")) if args.scenes else None
    known = {scene.name for scenes in SETS.values() for scene in scenes}
    if wanted is not None and not wanted <= known:
        parser.error(f"unknown scenes: {', '.join(sorted(wanted - known))}")
    if args.frames < 1:
        parser.error("--frames must be at least 1")

    run = {"frames": args.frames, "sets": {}}
    with tempfile.TemporaryDirectory(prefix="sceneset-") as tmp:
        for set_name, scenes in SETS.items():
            for scene in scenes:
                if wanted is None or scene.name in wanted:
                    root = write_scene(scene, Path(tmp), args.frames)
                    run["sets"].setdefault(set_name, {})[scene.name] = run_scene(root)
                    shutil.rmtree(root)  # one scene's rasters on disk at a time
    print_run(run)
    if args.compare:
        print_comparison(run, json.loads(Path(args.compare).read_text(encoding="utf-8")))
    if args.out:
        Path(args.out).write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
