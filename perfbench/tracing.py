"""Tracing of the frame chain from outside the program.

The pipeline looks its stages up as module-level names at call time, so
the benchmark measures each layer from outside by swapping those names for
timing wrappers while a pass runs and restoring them afterwards. No
program file is changed.

A span carries a name, start, end, parent span and frame id. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the part of it that its child spans cover.

A hook whose target no longer exists (for example after a refactor renames
a private function) is skipped with a warning; the metrics that depend on
it are then reported as ``null`` instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    frame: int | None
    thread: int


@dataclass(frozen=True)
class Hook:
    target: str  # "<module>:<attribute path>", e.g. "edgeloc.geometry:Pose.__post_init__"
    wrap: Callable[[Callable], Callable]  # original -> replacement
    metrics: tuple[str, ...]  # reported as null when the target is missing
    private: bool = False


# Per-layer metrics of the traced run, with units. Per frame unless the
# name says otherwise (compact_map.*, trace.*, dataset.*).
LAYER_UNITS = {
    "io.read_ms": "ms",
    "edge_features.masks_ms": "ms",
    "edge_features.fields_fine_ms": "ms",
    "edge_features.fields_coarse_ms": "ms",
    "edge_features.coarsen_ms": "ms",
    "edge_features.field_pixels": "count",
    "pipeline.extract_wait_ms": "ms",
    "selection.ms": "ms",
    "selection.occluders_ms": "ms",
    "selection.margin_ms": "ms",
    "selection.sample_ms": "ms",
    "selection.self_ms": "ms",
    "selection.landmarks_scanned": "count",
    "selection.landmarks_kept": "count",
    "selection.kept_ratio": "ratio",
    "selection.samples": "count",
    "geometry.pose_constructions": "count",
    "alignment.ms": "ms",
    "alignment.coarse_ms": "ms",
    "alignment.fine_ms": "ms",
    "alignment.attempts": "count",
    "alignment.iterations": "count",
    "alignment.probe_rounds": "count",
    "alignment.evaluations": "count",
    "alignment.accepts_per_attempt": "ratio",
    "predictor.prior_err_m": "m",
    "compact_map.parse_ms": "ms",
    "compact_map.bytes": "B",
    "dataset.generation_s": "s",
    "trace.frames_per_s": "1/s",
    "trace.overhead_frames_per_s": "1/s",
}


def _resolve(target: str):
    """(owner, attribute name, current value) of a hook target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _frame_from_path(path) -> int | None:
    name = Path(path).parent.name
    return int(name) if name.isdigit() else None


class Tracer:
    """Hooks, spans and counters of one benchmark pass.

    ``frame_shape`` is the full-resolution (height, width); calls on
    smaller rasters or intrinsics belong to the coarse stage.
    ``between_frames``, if given, is called after each frame record is
    stamped and returns a measurement (the reference-kernel time).
    """

    def __init__(
        self,
        frame_shape: tuple[int, int],
        between_frames: Callable[[], float] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.frame_shape = tuple(frame_shape)
        self.between_frames = between_frames
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        # Per frame record: (built at, frame chain resumed at, between-frames measurement).
        self.frame_stamps: list[tuple[float, float, float | None]] = []
        self.priors: list[tuple[int, object]] = []  # (frame id, prior translation)
        self.missing: set[str] = set()  # targets that could not be hooked
        self.dead_metrics: set[str] = set()  # metrics of those targets, reported as null
        self.fired: Counter[str] = Counter()  # calls seen per hooked target
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- wrappers ---------------------------------------------------------

    def _add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _fire(self, target: str) -> None:
        with self._lock:
            self.fired[target] += 1

    def _span(self, target: str, name, before=None, after=None):
        """Hook recording one span per call; ``name`` may be a function of the call args."""

        def wrap(original):
            @functools.wraps(original, updated=())
            def wrapper(*args, **kwargs):
                local = self._local
                if before is not None:
                    before(args, kwargs)
                stack = local.__dict__.setdefault("stack", [])
                parent = stack[-1] if stack else None
                span_id = next(self._ids)
                span_name = name(args, kwargs) if callable(name) else name
                stack.append(span_id)
                start = self.clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = self.clock()
                    stack.pop()
                    self.spans.append(
                        Span(span_id, span_name, start, end, parent, getattr(local, "frame", None), threading.get_ident())
                    )
                    self._fire(target)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return wrap

    def _counter(self, target: str, key: str):
        def wrap(original):
            @functools.wraps(original, updated=())
            def wrapper(*args, **kwargs):
                self._add(key)
                self._fire(target)
                return original(*args, **kwargs)

            return wrapper

        return wrap

    def _stamp(self, target: str):
        """Notes when each frame record is built, then runs ``between_frames``."""

        def wrap(original):
            @functools.wraps(original, updated=())
            def wrapper(*args, **kwargs):
                record = original(*args, **kwargs)
                built = self.clock()
                measured = self.between_frames() if self.between_frames is not None else None
                self.frame_stamps.append((built, self.clock(), measured))
                self._fire(target)
                return record

            return wrapper

        return wrap

    # -- per-call callbacks -----------------------------------------------

    def _set_frame_from_path(self, args, kwargs):
        path = args[0] if args else kwargs.get("path")
        frame = _frame_from_path(path)
        if frame is not None:
            self._local.frame = frame

    def _set_frame_from_kwarg(self, args, kwargs):
        if kwargs.get("frame_id") is not None:
            self._local.frame = kwargs["frame_id"]

    def _before_prior(self, args, kwargs):
        self._local.frame = args[1] if len(args) > 1 else kwargs["frame_id"]

    def _after_prior(self, args, kwargs, prior):
        self.priors.append((self._local.frame, prior.translation.copy()))
        self._local.prior_returned = self.clock()

    def _before_select(self, args, kwargs):
        # The main thread's gap between the prior and selection: the
        # extraction itself when serial, the wait for it with prefetch.
        local = self._local
        started = getattr(local, "prior_returned", None)
        if started is not None:
            local.prior_returned = None
            self.spans.append(
                Span(next(self._ids), "pipeline.extract_wait", started, self.clock(), None,
                     getattr(local, "frame", None), threading.get_ident())
            )

    def _after_select(self, args, kwargs, samples):
        self._add("selection.kept", len(samples.landmark_ids()))
        self._add("selection.samples", samples.total_count())

    def _after_fields(self, args, kwargs, fields):
        self._add("edge_features.field_pixels", sum(f.distance.size for f in fields.values()))

    def _fields_name(self, args, kwargs):
        masks = args[0] if args else kwargs["masks"]
        fine = bool(masks) and tuple(masks[0].pixels.shape) == self.frame_shape
        return "edge_features.fields_fine" if fine else "edge_features.fields_coarse"

    def _is_fine_solve(self, args, kwargs) -> bool:
        problem = args[0] if args else kwargs["problem"]
        return problem.intrinsics.width == self.frame_shape[1]

    def _solve_name(self, args, kwargs):
        return "alignment.fine" if self._is_fine_solve(args, kwargs) else "alignment.coarse"

    def _after_solve(self, args, kwargs, result):
        self._add("alignment.iterations", result.iterations)
        self._add("alignment.probe_rounds", len(result.energy_history) - 1 - result.iterations)
        if self._is_fine_solve(args, kwargs):
            self._add("alignment.attempts")  # every attempt ends in one full-resolution solve

    def _after_align(self, args, kwargs, result):
        self._add("alignment.accepted", int(bool(result.accepted)))

    # -- hook tables ------------------------------------------------------

    def hooks(self, traced: bool) -> list[Hook]:
        """The frame-record timestamp hook, plus every layer hook when ``traced``."""
        stamp = Hook(
            "edgeloc.pipeline:FrameRecord",
            self._stamp("edgeloc.pipeline:FrameRecord"),
            ("frame_ms_p50", "frame_ms_p90"),
            private=True,
        )
        if not traced:
            return [stamp]

        def span(target, name, metrics, before=None, after=None):
            return Hook(target, self._span(target, name, before, after), metrics)

        return [
            stamp,
            span("edgeloc.pipeline:read_pgm", "io.read", ("io.read_ms",), before=self._set_frame_from_path),
            span("edgeloc.pipeline:build_edge_masks", "edge_features.masks", ("edge_features.masks_ms",),
                 before=self._set_frame_from_kwarg),
            span("edgeloc.pipeline:build_fields", self._fields_name,
                 ("edge_features.fields_fine_ms", "edge_features.fields_coarse_ms", "edge_features.field_pixels"),
                 after=self._after_fields),
            span("edgeloc.pipeline:coarsen_mask", "edge_features.coarsen", ("edge_features.coarsen_ms",)),
            span("edgeloc.predictor:PosePredictor.predict_prior", "predictor.predict_prior",
                 ("predictor.prior_err_m", "pipeline.extract_wait_ms"),
                 before=self._before_prior, after=self._after_prior),
            span("edgeloc.pipeline:select_landmarks", "selection",
                 ("selection.ms", "selection.self_ms", "selection.landmarks_kept", "selection.kept_ratio",
                  "selection.samples", "pipeline.extract_wait_ms"),
                 before=self._before_select, after=self._after_select),
            span("edgeloc.selection:rasterize_occluders", "selection.occluders",
                 ("selection.occluders_ms", "selection.self_ms")),
            span("edgeloc.selection:silhouette_margin_depth", "selection.margin",
                 ("selection.margin_ms", "selection.self_ms")),
            span("edgeloc.selection:sample_landmark_edges", "selection.sample",
                 ("selection.sample_ms", "selection.self_ms", "selection.landmarks_scanned", "selection.kept_ratio")),
            span("edgeloc.pipeline:align_frame", "alignment", ("alignment.ms", "alignment.accepts_per_attempt"),
                 after=self._after_align),
            span("edgeloc.alignment:solve_two_scale", "alignment.attempt", ()),
            span("edgeloc.alignment:solve", self._solve_name,
                 ("alignment.coarse_ms", "alignment.fine_ms", "alignment.attempts", "alignment.iterations",
                  "alignment.probe_rounds", "alignment.accepts_per_attempt"),
                 after=self._after_solve),
            Hook("edgeloc.alignment:_evaluate", self._counter("edgeloc.alignment:_evaluate", "alignment.evaluations"),
                 ("alignment.evaluations",), private=True),
            Hook("edgeloc.geometry:Pose.__post_init__",
                 self._counter("edgeloc.geometry:Pose.__post_init__", "geometry.pose_constructions"),
                 ("geometry.pose_constructions",)),
        ]

    @contextlib.contextmanager
    def installed(self, hooks: list[Hook]):
        """Swap every hook in for the duration of the block, then restore."""
        restore = []
        try:
            for hook in hooks:
                try:
                    owner, name, original = _resolve(hook.target)
                except (ImportError, AttributeError):
                    self.missing.add(hook.target)
                    self.dead_metrics.update(hook.metrics)
                    print(
                        f"perfbench: warning: hook target {hook.target} not found; "
                        f"reporting {', '.join(hook.metrics) or 'no metric'} as null",
                        file=sys.stderr,
                    )
                    continue
                setattr(owner, name, hook.wrap(original))
                restore.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = (span.end - span.start) - covered
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON line per span, times in seconds from the first span's start."""
        selfs = self.self_times()
        origin = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start_s": span.start - origin,
                            "end_s": span.end - origin,
                            "self_s": selfs[span.id],
                            "parent": span.parent,
                            "frame": span.frame,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self, frames: int, groundtruth: dict) -> dict[str, float | None]:
        """Per-frame layer metrics of this pass (the per-run ones are added by the caller)."""
        total_ms: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for span in self.spans:
            total_ms[span.name] += 1e3 * (span.end - span.start)
            calls[span.name] += 1
        selfs = self.self_times()
        selection_self_ms = 1e3 * sum(selfs[s.id] for s in self.spans if s.name == "selection")
        prior_errors = [
            float(sum((a - b) ** 2 for a, b in zip(t, groundtruth[f].translation)) ** 0.5)
            for f, t in self.priors
            if f in groundtruth
        ]
        c = self.counts
        per_frame = {
            "io.read_ms": total_ms["io.read"],
            "edge_features.masks_ms": total_ms["edge_features.masks"],
            "edge_features.fields_fine_ms": total_ms["edge_features.fields_fine"],
            "edge_features.fields_coarse_ms": total_ms["edge_features.fields_coarse"],
            "edge_features.coarsen_ms": total_ms["edge_features.coarsen"],
            "edge_features.field_pixels": c["edge_features.field_pixels"],
            "pipeline.extract_wait_ms": total_ms["pipeline.extract_wait"],
            "selection.ms": total_ms["selection"],
            "selection.occluders_ms": total_ms["selection.occluders"],
            "selection.margin_ms": total_ms["selection.margin"],
            "selection.sample_ms": total_ms["selection.sample"],
            "selection.self_ms": selection_self_ms,
            "selection.landmarks_scanned": calls["selection.sample"],
            "selection.landmarks_kept": c["selection.kept"],
            "selection.samples": c["selection.samples"],
            "geometry.pose_constructions": c["geometry.pose_constructions"],
            "alignment.ms": total_ms["alignment"],
            "alignment.coarse_ms": total_ms["alignment.coarse"],
            "alignment.fine_ms": total_ms["alignment.fine"],
            "alignment.attempts": c["alignment.attempts"],
            "alignment.iterations": c["alignment.iterations"],
            "alignment.probe_rounds": c["alignment.probe_rounds"],
            "alignment.evaluations": c["alignment.evaluations"],
        }
        out: dict[str, float | None] = {name: value / frames for name, value in per_frame.items()}
        scanned = calls["selection.sample"]
        out["selection.kept_ratio"] = c["selection.kept"] / scanned if scanned else None
        attempts = c["alignment.attempts"]
        out["alignment.accepts_per_attempt"] = c["alignment.accepted"] / attempts if attempts else None
        out["predictor.prior_err_m"] = statistics.median(prior_errors) if prior_errors else None
        return {name: (None if name in self.dead_metrics else value) for name, value in out.items()}
