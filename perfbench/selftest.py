#!/usr/bin/env python3
"""Smoke self-test of the benchmark's tracing, on a 4-frame dataset.

    python3 perfbench/selftest.py

Asserts that every hook fires during a traced pass, that tracing leaves the
trajectory and log byte-identical, that every hook is removed afterwards,
and that a renamed private hook target degrades its metrics to null with a
warning instead of aborting the run. Exits 0 and prints ``selftest ok``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS environment before numpy loads)
from datacache import ensure_dataset  # noqa: E402
from tracing import Tracer, _resolve  # noqa: E402

SMOKE = replace(run.STRAIGHT_NOISY, frames=4)


def traced_pass(manifest, compact_map, rename_private: bool = False):
    from edgeloc.pipeline import run_dataset

    k = manifest.intrinsics
    tracer = Tracer((k.height, k.width))
    hooks = tracer.hooks(traced=True)
    if rename_private:
        # What a refactor that renames the private names would look like.
        hooks = [replace(h, target=h.target + "_renamed") if h.private else h for h in hooks]
    originals = {h.target: _resolve(h.target)[2] for h in hooks if not h.target.endswith("_renamed")}
    with tracer.installed(hooks):
        trajectory, records = run_dataset(manifest, compact_map=compact_map)
    for target, original in originals.items():
        assert _resolve(target)[2] is original, f"hook on {target} was not removed"
    return tracer, hooks, trajectory, records


def main() -> int:
    run.import_program()
    from edgeloc.io import read_trajectory

    dataset = ensure_dataset(SMOKE)
    manifest, compact_map, _ = run.measure_setup(dataset.root, [], [])
    groundtruth = read_trajectory(manifest.groundtruth_path)

    plain = run.run_pass(manifest, compact_map, workers=0, traced=False, kernel=run.ReferenceKernel())
    assert len(plain.scaled_ms) == len(plain.records) == SMOKE.frames
    assert len(plain.kernel_ms) == SMOKE.frames + 2 and plain.scaled_seconds > 0
    tracer, hooks, trajectory, records = traced_pass(manifest, compact_map)
    silent = [h.target for h in hooks if tracer.fired[h.target] == 0]
    assert not silent, f"hooks that never fired: {silent}"
    assert not tracer.missing, f"hook targets missing: {sorted(tracer.missing)}"
    assert run.digests(plain.trajectory, plain.records) == run.digests(trajectory, records), (
        "tracing changed the trajectory or log"
    )
    metrics = tracer.layer_metrics(len(records), groundtruth)
    assert all(value is not None for value in metrics.values()), metrics
    assert {s.frame for s in tracer.spans if s.name == "selection"} == {r.frame_id for r in records}

    warnings = io.StringIO()
    with contextlib.redirect_stderr(warnings):
        tracer, hooks, _, records = traced_pass(manifest, compact_map, rename_private=True)
    renamed = {h.target for h in hooks if h.private}
    assert tracer.missing == renamed, tracer.missing
    for target in renamed:
        assert target in warnings.getvalue(), f"no warning for {target}"
    metrics = tracer.layer_metrics(len(records), groundtruth)
    assert metrics["alignment.evaluations"] is None
    assert {"frame_ms_p50", "frame_ms_p90"} <= tracer.dead_metrics
    assert metrics["alignment.ms"] is not None and len(records) == SMOKE.frames

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
