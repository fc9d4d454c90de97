#!/usr/bin/env python3
"""Frame-chain benchmark: per-frame latency and localization accuracy of
``edgeloc.pipeline.run_dataset`` on fixed, seeded synthetic datasets.

    python3 perfbench/run.py --workload straight-noisy --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with only a timestamp hook
installed, and scales their times to a reference machine speed (see
reference.py); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead. Every run checks
its outputs and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from datacache import BLAS_ENV, REPO_ROOT, CachedDataset, DatasetSpec, ensure_dataset  # noqa: E402

# Before numpy is imported anywhere: one BLAS thread, so the main thread,
# a prefetch worker and BLAS never ask for more cores than exist.
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

from reference import REFERENCE_S, ReferenceKernel  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_FRAMES_PER_RUN = 100
SETUP_REPEATS = 31
# Reference-kernel runs (one per frame) whose median scales a frame interval.
KERNEL_WINDOW = 10

# Acceptance criterion 4 (noisy desk-scale analogue) bounds.
MAX_RMSE_M = 0.30
MAX_RMSE_DEG = 0.6
MAX_DROP_RATE = 0.20

STRAIGHT_NOISY = DatasetSpec("urban-straight", 7, 40, edge_jitter_px=1.0, edge_dropout=0.1, drift_per_m=0.005)
CORNER_RECOVERY = DatasetSpec(
    "urban-corner", 5, 40, edge_jitter_px=1.0, edge_dropout=0.1, drift_per_m=0.3, occlude=(25, 31)
)


@dataclass(frozen=True)
class Workload:
    dataset: DatasetSpec
    prefetch_workers: int
    gate_drop_rate: bool  # the workload must track, so criterion 4's drop bound applies


# Why each workload exists is in README.md. straight-prefetch is not in
# BENCHMARK.json: three workloads of >= 100 frames each do not fit the
# run budget on two cores. It stays runnable by hand.
WORKLOADS = {
    "straight-noisy": Workload(STRAIGHT_NOISY, 0, gate_drop_rate=True),
    "corner-recovery": Workload(CORNER_RECOVERY, 0, gate_drop_rate=False),
    "straight-prefetch": Workload(STRAIGHT_NOISY, 1, gate_drop_rate=True),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "accept_rate": "ratio",
    "rmse_m": "m",
    "rmse_deg": "deg",
    "max_err_m": "m",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (for example, no program sources)."""


def import_program():
    """Import edgeloc from this checkout's src/, never from anywhere else."""
    src = REPO_ROOT / "src"
    if not (src / "edgeloc" / "__init__.py").is_file():
        raise SetupError(f"no edgeloc sources under {src}")
    sys.path.insert(0, str(src))
    import edgeloc

    if Path(edgeloc.__file__).resolve().parent != (src / "edgeloc").resolve():
        raise SetupError(f"imported edgeloc from {edgeloc.__file__}, expected {src / 'edgeloc'}")
    return edgeloc


@dataclass
class Pass:
    traced: bool
    seconds: float  # frame-chain wall time; reference-kernel runs excluded
    scaled_seconds: float | None  # the same at reference machine speed
    trajectory: list
    records: list
    intervals_ms: list[float] | None  # frame-record intervals; None when that hook is missing
    scaled_ms: list[float] | None  # the same at reference machine speed
    kernel_ms: list[float] | None  # reference-kernel times: before, after each frame, after
    tracer: Tracer


def run_pass(manifest, compact_map, workers: int, traced: bool, kernel: ReferenceKernel | None = None) -> Pass:
    """One ``run_dataset`` over the whole dataset.

    With ``kernel``, the reference kernel is timed before the pass, after
    every frame record and after the pass. Each frame interval is scaled
    by the median kernel time around it, which follows the machine's drift
    (seconds to minutes) but not the noise of single kernel runs.
    """
    from edgeloc.pipeline import run_dataset

    k = manifest.intrinsics
    tracer = Tracer((k.height, k.width), between_frames=kernel)
    with tracer.installed(tracer.hooks(traced)):
        before = kernel() if kernel is not None else None
        start = time.perf_counter()
        trajectory, records = run_dataset(manifest, compact_map=compact_map, prefetch_workers=workers)
        end = time.perf_counter()
        after = kernel() if kernel is not None else None
    kernel_s = None if kernel is None else [before, *(m for _, _, m in tracer.frame_stamps), after]
    intervals = None
    resumed = start
    if "frame_ms_p50" not in tracer.dead_metrics:
        intervals = []
        for built, resume, _ in tracer.frame_stamps:
            intervals.append(1e3 * (built - resumed))
            resumed = resume
    tail_ms = 1e3 * (end - resumed)  # the whole pass when there are no intervals
    seconds = (sum(intervals or ()) + tail_ms) / 1e3
    scaled = scaled_seconds = None
    if kernel_s is not None:
        scales = [REFERENCE_S / _local_median(kernel_s, i) for i in range(len(kernel_s) - 1)]
        if intervals is not None:
            scaled = [ms * c for ms, c in zip(intervals, scales)]
        scaled_seconds = (sum(scaled or ()) + tail_ms * scales[-1]) / 1e3
    kernel_ms = None if kernel_s is None else [1e3 * t for t in kernel_s]
    return Pass(traced, seconds, scaled_seconds, trajectory, records, intervals, scaled, kernel_ms, tracer)


def _local_median(values: list[float], index: int) -> float:
    """Median of the KERNEL_WINDOW values centred between values[index] and values[index + 1]."""
    lo = max(0, min(index + 1 - KERNEL_WINDOW // 2, len(values) - KERNEL_WINDOW))
    return statistics.median(values[lo:lo + KERNEL_WINDOW])


def measure_passes(seconds: float, min_rounds: int, one_round) -> list[Pass]:
    """Run rounds until ``min_rounds`` are done and another would overrun ``seconds``."""
    passes: list[Pass] = []
    rounds = 0
    began = time.perf_counter()
    while rounds < min_rounds or (time.perf_counter() - began) * (rounds + 1) / rounds <= seconds:
        passes.extend(one_round())
        rounds += 1
    return passes


def measure_setup(root: Path, totals: list[float], parses: list[float], kernel: ReferenceKernel | None = None):
    """Time SETUP_REPEATS set-ups (manifest load plus map read and parse).

    Appends each time to ``totals`` and ``parses``. With ``kernel``, the
    kernel runs after every set-up and each time is scaled by the median
    kernel time around it, as frame intervals are. Returns the last
    (manifest, compact map, map size in bytes). Blocks also run between
    passes, so the reported median spans the whole run.
    """
    from edgeloc.compact_map import parse_map
    from edgeloc.pipeline import DatasetManifest

    block_totals, block_parses = [], []
    kernel_s = [kernel()] if kernel is not None else []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        manifest = DatasetManifest.from_directory(root)
        t1 = time.perf_counter()
        data = manifest.map_path.read_bytes()
        compact_map = parse_map(data)
        t2 = time.perf_counter()
        block_totals.append(t2 - t0)
        block_parses.append(t2 - t1)
        if kernel is not None:
            kernel_s.append(kernel())
    scales = [REFERENCE_S / _local_median(kernel_s, i) if kernel_s else 1.0 for i in range(SETUP_REPEATS)]
    totals.extend(t * c for t, c in zip(block_totals, scales))
    parses.extend(t * c for t, c in zip(block_parses, scales))
    return manifest, compact_map, len(data)


def digests(trajectory, records) -> tuple[str, str]:
    """SHA-256 of the trajectory file text and of the JSONL log text."""
    from edgeloc.io import format_pose_line

    trajectory = "".join(format_pose_line(fid, pose) + "\n" for fid, pose in trajectory)
    log = "".join(record.to_json() + "\n" for record in records)
    return hashlib.sha256(trajectory.encode("ascii")).hexdigest(), hashlib.sha256(log.encode("ascii")).hexdigest()


def accuracy(run: Pass, groundtruth) -> dict[str, float | None]:
    from edgeloc.evaluation import evaluate_trajectories

    accepted = sum(1 for r in run.records if r.status == "accepted")
    out = {"accept_rate": accepted / len(run.records), "rmse_m": None, "rmse_deg": None, "max_err_m": None}
    if run.trajectory:
        report = evaluate_trajectories(dict(run.trajectory), groundtruth)
        out["rmse_m"] = report.rmse_norm
        out["rmse_deg"] = report.rmse_angle_deg
        out["max_err_m"] = max(math.sqrt(e.dx**2 + e.dy**2 + e.dz**2) for e in report.frame_errors)
    return out


def check(passes: list[Pass], frames: int, acc: dict, workload: Workload) -> list[str]:
    """Output checks; returns the failures."""
    failures = []
    for index, run in enumerate(passes):
        if len(run.records) != frames:
            failures.append(f"pass {index}: {len(run.records)} frame records for {frames} frames")
        if run.intervals_ms is not None and len(run.intervals_ms) != len(run.records):
            failures.append(f"pass {index}: {len(run.intervals_ms)} record timestamps for {len(run.records)} records")
    reference = digests(passes[0].trajectory, passes[0].records)
    for index, run in enumerate(passes[1:], start=1):
        if digests(run.trajectory, run.records) != reference:
            kind = "traced" if run.traced != passes[0].traced else "repeated"
            failures.append(f"pass {index}: {kind} run changed the trajectory or log digest")
    if acc["rmse_m"] is None:
        failures.append("no frame was accepted")
    else:
        if not acc["rmse_m"] < MAX_RMSE_M:
            failures.append(f"rmse {acc['rmse_m']:.4f} m is not below {MAX_RMSE_M} m")
        if not acc["rmse_deg"] < MAX_RMSE_DEG:
            failures.append(f"rmse {acc['rmse_deg']:.4f} deg is not below {MAX_RMSE_DEG} deg")
    if workload.gate_drop_rate and not 1.0 - acc["accept_rate"] < MAX_DROP_RATE:
        failures.append(f"drop rate {1.0 - acc['accept_rate']:.3f} is not below {MAX_DROP_RATE}")
    return failures


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(load_at_start, workload: Workload) -> dict:
    import numpy

    blas = blas_threads()
    nproc = os.cpu_count() or 1
    threads = 1 + workload.prefetch_workers + max((blas or 1) - 1, 0)
    if threads > nproc:
        print(f"perfbench: warning: {threads} compute threads on {nproc} cores", file=sys.stderr)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": blas,
        "blas_env": BLAS_ENV,
        "prefetch_workers": workload.prefetch_workers,
        "loadavg_at_start": list(load_at_start),
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(passes, seconds_of, intervals_of) -> dict[str, float | None]:
    frames = sum(len(p.records) for p in passes)
    intervals = None
    if all(intervals_of(p) is not None for p in passes):
        intervals = [ms for p in passes for ms in intervals_of(p)]
    return {
        "frames_per_s": frames / sum(seconds_of(p) for p in passes),
        "frame_ms_p50": statistics.median(intervals) if intervals else None,
        "frame_ms_p90": percentile(intervals, 90) if intervals else None,
    }


def end_to_end_metrics(passes, setup_s, acc) -> dict[str, float | None]:
    return {
        "setup_s": setup_s,
        **timing_metrics(passes, lambda p: p.scaled_seconds, lambda p: p.scaled_ms),
        **acc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(passes, groundtruth, parse_s, map_bytes, dataset: CachedDataset) -> dict[str, float | None]:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_frame = [p.tracer.layer_metrics(len(p.records), groundtruth) for p in traced]
    out: dict[str, float | None] = {}
    for name in per_frame[0]:
        values = [m[name] for m in per_frame]
        out[name] = None if None in values else statistics.median(values)
    fps_untraced = sum(len(p.records) for p in untraced) / sum(p.seconds for p in untraced)
    fps_traced = sum(len(p.records) for p in traced) / sum(p.seconds for p in traced)
    out.update(
        {
            "compact_map.parse_ms": 1e3 * parse_s,
            "compact_map.bytes": map_bytes,
            "dataset.generation_s": dataset.generation_s,
            "trace.frames_per_s": fps_traced,
            "trace.overhead_frames_per_s": fps_untraced - fps_traced,
        }
    )
    return {name: out[name] for name in LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="run seed; recorded with the result")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scene-seed", type=int, default=None, help="override the workload's scene seed")
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    spec = workload.dataset
    if args.scene_seed is not None:
        spec = replace(spec, scene_seed=args.scene_seed)
    try:
        import_program()
        dataset = ensure_dataset(spec)
    except (SetupError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2

    from edgeloc.io import read_trajectory

    setup_times: list[float] = []
    parse_times: list[float] = []
    manifest, compact_map, map_bytes = measure_setup(dataset.root, setup_times, parse_times)
    groundtruth = read_trajectory(manifest.groundtruth_path)
    workers = workload.prefetch_workers
    kinds = (False, True) if args.trace else (False,)

    kernel = None if args.trace else ReferenceKernel()

    def one_round():
        passes = [run_pass(manifest, compact_map, workers, traced, kernel) for traced in kinds]
        measure_setup(dataset.root, setup_times, parse_times)
        return passes

    min_rounds = 1 if args.trace else math.ceil(MIN_FRAMES_PER_RUN / spec.frames)
    passes = measure_passes(args.seconds, min_rounds, one_round)
    setup_s = statistics.median(setup_times)
    parse_s = statistics.median(parse_times)

    acc = accuracy(passes[0], groundtruth)
    failures = check(passes, spec.frames, acc, workload)
    if args.trace:
        metrics = layer_metrics(passes, groundtruth, parse_s, map_bytes, dataset)
        units = LAYER_UNITS
    else:
        metrics = end_to_end_metrics(passes, setup_s, acc)
        units = END_TO_END_UNITS

    trajectory_digest, log_digest = digests(passes[0].trajectory, passes[0].records)
    frames_run = sum(len(p.records) for p in passes)
    result_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "dataset": {"key": spec.key, "digest": dataset.digest, "reused": dataset.reused,
                    "generation_s": dataset.generation_s},
        "environment": environment(load_at_start, workload),
        "passes": [
            {
                "traced": p.traced,
                "seconds": p.seconds,
                "frames": len(p.records),
                "frame_ms": p.intervals_ms,
                "kernel_ms": p.kernel_ms,
            }
            for p in passes
        ],
        "ms_per_frame": 1e3 * sum(p.seconds for p in passes) / frames_run,
        "unscaled": timing_metrics(passes, lambda p: p.seconds, lambda p: p.intervals_ms),
        "drop_rate": 1.0 - acc["accept_rate"],
        "accuracy": acc,
        "trajectory_digest": trajectory_digest,
        "log_digest": log_digest,
        "checks_failed": failures,
        "metrics": metrics,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result_record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        traced = next(p for p in passes if p.traced)
        traced.tracer.write_spans(out_dir / f"{stem}.spans.jsonl")

    print(f"perfbench env {json.dumps(result_record['environment'], sort_keys=True)}")
    print(f"perfbench dataset {spec.key} digest {dataset.digest} generation_s {dataset.generation_s:.3f}")
    print(f"perfbench digest trajectory {trajectory_digest} log {log_digest}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": frames_run,
        "failed": sum(1 for p in passes for r in p.records if r.status.startswith("skipped:")),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
