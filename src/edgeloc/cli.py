"""Command-line entry points: run, evaluate, map-stats, synth."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .compact_map import map_statistics, read_map
from .config import PipelineConfig, apply_overrides, parse_config_text
from .evaluation import evaluate_trajectories
from .io import format_pose_line, read_trajectory
from .pipeline import DatasetManifest, iter_frames
from .synthetic import NoiseConfig, PRESET_NAMES, generate_scene, make_occluder_wall, write_dataset


def _load_config(path: str | None, overrides: list[str]) -> PipelineConfig:
    config = PipelineConfig()
    if path:
        try:
            config = parse_config_text(Path(path).read_text(encoding="utf-8"))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    if overrides:
        pairs = {}
        for item in overrides:
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"--set expects key=value, got {item!r}")
            pairs[key.strip()] = value.strip()
        config = apply_overrides(config, pairs)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.set or [])
    manifest = DatasetManifest.from_directory(args.dataset, map_path=args.map)
    frames = iter_frames(manifest, config, debug_dir=args.debug_dir)
    processed = accepted = 0
    # Line-buffered: each frame's lines are on disk before the next frame runs.
    with (
        open(args.out, "w", encoding="ascii", buffering=1) as out,
        open(args.log or os.devnull, "w", encoding="ascii", buffering=1) as log,
    ):
        for record, pose in frames:
            processed += 1
            if pose is not None:
                accepted += 1
                out.write(format_pose_line(record.frame_id, pose) + "\n")
            log.write(record.to_json() + "\n")
    print(f"processed {processed} frames, accepted {accepted}, wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    estimate = read_trajectory(args.est)
    reference = read_trajectory(args.gt)
    report = evaluate_trajectories(estimate, reference)
    print(report.to_text(), end="")
    return 0


def _cmd_map_stats(args) -> int:
    stats = map_statistics(read_map(args.map), args.original_size)
    print(f"landmarks = {stats.total_landmarks}")
    for name, count in stats.per_label_counts.items():
        print(f"  {name} = {count}")
    print(f"segments = {stats.n_segments}")
    print(f"wireframes = {stats.n_wireframes}")
    print(f"compact_size_bytes = {stats.compact_size_bytes}")
    print(f"original_size_bytes = {stats.original_size_bytes}")
    print(f"compression_factor = {stats.compression_factor:.1f}")
    return 0


def _cmd_synth(args) -> int:
    noise = NoiseConfig(
        odometry_drift_per_m=args.drift_rate,
        edge_jitter_px=args.edge_jitter,
        edge_dropout=args.edge_dropout,
    )
    scene = generate_scene(args.seed, preset=args.preset, n_frames=args.frames, noise=noise)
    if (args.occlude_from is None) != (args.occlude_to is None):
        raise ValueError("--occlude-from and --occlude-to must be given together")
    if args.occlude_from is not None:
        wall = make_occluder_wall(scene, args.occlude_from, args.occlude_to)
        scene = replace(scene, noise=replace(noise, occluders=(wall,)))
    write_dataset(scene, args.out)
    print(f"wrote {args.frames}-frame {args.preset} dataset to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgeloc", description="Compact-map semantic edge localization")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the localization pipeline over a dataset")
    run_p.add_argument("--map", default=None, help="map file (defaults to <dataset>/map.cmap)")
    run_p.add_argument("--dataset", required=True, help="dataset directory")
    run_p.add_argument("--config", default=None, help="key = value config file")
    run_p.add_argument("--out", required=True, help="output trajectory file")
    run_p.add_argument("--log", default=None, help="per-frame JSONL log file")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    run_p.add_argument("--debug-dir", default=None, help="write per-frame reprojection overlay rasters here")
    run_p.set_defaults(func=_cmd_run)

    eval_p = sub.add_parser("evaluate", help="compare an estimated trajectory against ground truth")
    eval_p.add_argument("--est", required=True)
    eval_p.add_argument("--gt", required=True)
    eval_p.set_defaults(func=_cmd_evaluate)

    stats_p = sub.add_parser("map-stats", help="landmark counts and compression factor")
    stats_p.add_argument("--map", required=True)
    stats_p.add_argument("--original-size", type=int, required=True, help="original map size in bytes")
    stats_p.set_defaults(func=_cmd_map_stats)

    synth_p = sub.add_parser("synth", help="generate a synthetic dataset")
    synth_p.add_argument("--preset", choices=PRESET_NAMES, default="urban-straight")
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", required=True)
    synth_p.add_argument("--frames", type=int, default=100)
    synth_p.add_argument("--drift-rate", type=float, default=0.0, help="odometry drift per meter")
    synth_p.add_argument("--edge-jitter", type=float, default=0.0, help="edge pixel jitter sigma (px)")
    synth_p.add_argument("--edge-dropout", type=float, default=0.0, help="edge pixel dropout probability")
    synth_p.add_argument("--occlude-from", type=int, default=None, help="first occluded frame")
    synth_p.add_argument("--occlude-to", type=int, default=None, help="last occluded frame")
    synth_p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
