"""Compact landmark map: semantic 3D line segments and closed wireframes.

The on-disk format is line-oriented UTF-8 text:

    CMAP 1
    LABEL <name> <road|nonroad>
    SEG <label> <x0> <y0> <z0> <x1> <y1> <z1> [radius=<r>]
    WF <label> <n> <x0> <y0> <z0> ... <x(n-1)> <y(n-1)> <z(n-1)>

``#`` starts a comment, fields are whitespace separated, coordinates are
meters in the world frame written with at most 6 decimals (mm resolution).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIN_SEGMENT_LENGTH_M = 0.01
MAX_PLANARITY_DEVIATION_M = 0.05

VALID_CATEGORIES = ("road", "nonroad")


class MapFormatError(ValueError):
    """Map file cannot be parsed or violates a landmark invariant."""

    def __init__(self, message: str, line_number: int | None = None, landmark_id: int | None = None):
        parts = []
        if line_number is not None:
            parts.append(f"line {line_number}")
        if landmark_id is not None:
            parts.append(f"landmark {landmark_id}")
        if parts:
            message = f"{message} ({', '.join(parts)})"
        super().__init__(message)
        self.line_number = line_number
        self.landmark_id = landmark_id


@dataclass(frozen=True)
class SemanticLabel:
    name: str
    category: str  # "road" | "nonroad"

    def __post_init__(self):
        if self.name.split() != [self.name] or "#" in self.name:  # else it would not parse back
            raise ValueError(f"label name must be one token without whitespace or '#', got {self.name!r}")
        if self.category not in VALID_CATEGORIES:
            raise ValueError(f"unknown label category {self.category!r}")


@dataclass(frozen=True, eq=False)
class LineSegmentLandmark:
    label: SemanticLabel
    p0: np.ndarray
    p1: np.ndarray
    pole_radius: float | None = None
    landmark_id: int = -1

    def __post_init__(self):
        p0 = np.array(self.p0, dtype=float).reshape(3)
        p1 = np.array(self.p1, dtype=float).reshape(3)
        p0.setflags(write=False)
        p1.setflags(write=False)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        # math.dist, unlike numpy, overflows to inf without a warning. A
        # non-finite endpoint makes the length NaN or inf, so it fails too.
        length = math.dist(p0.tolist(), p1.tolist())
        if not MIN_SEGMENT_LENGTH_M < length < math.inf:
            for name, point in (("p0", p0), ("p1", p1)):
                if not np.isfinite(point).all():
                    raise ValueError(f"segment endpoint {name} is not finite: {point.tolist()}")
            if length == math.inf:
                raise ValueError("segment length overflows")
            raise ValueError(f"degenerate segment (shorter than {MIN_SEGMENT_LENGTH_M} m)")
        if self.pole_radius is not None and not 0.0 < self.pole_radius < math.inf:
            raise ValueError(f"pole radius must be finite and > 0, got {self.pole_radius}")

    @property
    def is_pole(self) -> bool:
        # Explicit radius marks a pole; otherwise fall back to the label name.
        return self.pole_radius is not None or "pole" in self.label.name


@dataclass(frozen=True, eq=False)
class WireframeLandmark:
    """Closed planar polygon with >= 3 vertices (4 for rectangles)."""

    label: SemanticLabel
    points: np.ndarray
    landmark_id: int = -1

    def __post_init__(self):
        points = np.array(self.points, dtype=float).reshape(-1, 3)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        n = points.shape[0]
        if n < 3:
            raise ValueError(f"wireframe needs at least 3 points, got {n}")
        if not np.isfinite(points).all():
            bad = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
            raise ValueError(f"wireframe point {bad} is not finite: {points[bad].tolist()}")
        # Finite coordinates near the float limit overflow to inf or NaN
        # here, and the checks below reject them.
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
            if gaps.min() <= MIN_SEGMENT_LENGTH_M:
                raise ValueError("consecutive wireframe points closer than 0.01 m")
            centered = points - points.mean(axis=0)
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            deviation = np.abs(centered @ vt[-1]).max()
        # Written so that a NaN deviation (coordinates that overflow) fails.
        if not deviation <= MAX_PLANARITY_DEVIATION_M:
            raise ValueError(f"wireframe is not planar (max deviation {deviation:.3f} m)")


Landmark = LineSegmentLandmark | WireframeLandmark


@dataclass(frozen=True, eq=False)
class PackedMap:
    """A map's landmarks as flat read-only arrays, the form selection and
    the renderer read.

    Edges are pairs of rows of ``points``, in landmark order and in edge
    order within a landmark; ``owner`` is each edge's landmark index. A
    pole lists its axis twice, for its left and right silhouette lines:
    ``poles`` holds the edge row of the first copy, and ``pole_radius`` the
    pole's own radius, NaN where the configured default applies.
    ``corners`` holds each wireframe's point rows, padded to at least four
    columns by repeating its last row. Per landmark, ``label`` indexes the
    map's label names and ``landmark_id`` is the landmark's id.
    """

    points: np.ndarray  # (P, 3) float64, world frame
    edges: np.ndarray  # (E, 2) intp
    owner: np.ndarray  # (E,) intp
    poles: np.ndarray  # (K,) intp
    pole_radius: np.ndarray  # (K,) float64
    corners: np.ndarray  # (F, n) intp, n >= 4
    label: np.ndarray  # (M,) int
    landmark_id: np.ndarray  # (M,) int


def pack_map(compact_map: CompactMap) -> PackedMap:
    """Flatten a map's landmarks into a PackedMap."""
    chunks, edges, owner, poles, radii, wireframes = [], [], [], [], [], []
    rows = 0
    for index, landmark in enumerate(compact_map.landmarks):
        if isinstance(landmark, WireframeLandmark):
            n = landmark.points.shape[0]
            chunks.append(landmark.points)
            edges += [(rows + i, rows + (i + 1) % n) for i in range(n)]
            owner += [index] * n
            wireframes.append((rows, rows + n))
        else:
            n = 2
            chunks += (landmark.p0, landmark.p1)
            copies = 1
            if landmark.is_pole:
                copies = 2
                poles.append(len(edges))
                radii.append(math.nan if landmark.pole_radius is None else landmark.pole_radius)
            edges += [(rows, rows + 1)] * copies
            owner += [index] * copies
        rows += n
    width = max([4] + [stop - start for start, stop in wireframes])
    names = compact_map.label_names
    packed = PackedMap(
        points=np.vstack(chunks) if chunks else np.empty((0, 3)),
        edges=np.array(edges, dtype=np.intp).reshape(-1, 2),
        owner=np.array(owner, dtype=np.intp),
        poles=np.array(poles, dtype=np.intp),
        pole_radius=np.array(radii, dtype=float),
        corners=np.array(
            [np.minimum(np.arange(start, start + width), stop - 1) for start, stop in wireframes], dtype=np.intp
        ).reshape(-1, width),
        label=np.array([names.index(lm.label.name) for lm in compact_map.landmarks], dtype=int),
        landmark_id=np.array([lm.landmark_id for lm in compact_map.landmarks], dtype=int),
    )
    for array in vars(packed).values():
        array.setflags(write=False)
    return packed


@dataclass(frozen=True, eq=False)
class CompactMap:
    """Immutable landmark map plus its label registry (in file order)."""

    labels: tuple[SemanticLabel, ...]
    landmarks: tuple[Landmark, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = [lab.name for lab in self.labels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate label names in registry")
        registered = set(names)
        for lm in self.landmarks:
            if lm.label.name not in registered:
                raise ValueError(f"landmark {lm.landmark_id} uses unregistered label {lm.label.name!r}")

    @property
    def label_names(self) -> tuple[str, ...]:
        return tuple(lab.name for lab in self.labels)

    @functools.cached_property
    def packed(self) -> PackedMap:
        """pack_map of this map, built on first use and then kept."""
        return pack_map(self)

    def segments(self) -> tuple[LineSegmentLandmark, ...]:
        return tuple(lm for lm in self.landmarks if isinstance(lm, LineSegmentLandmark))

    def wireframes(self) -> tuple[WireframeLandmark, ...]:
        return tuple(lm for lm in self.landmarks if isinstance(lm, WireframeLandmark))


def _format_coord(value: float) -> str:
    """Fixed 6-decimal formatting with trailing zeros stripped ('-0' -> '0')."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _parse_float(token: str, line_number: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MapFormatError(f"expected a number, got {token!r}", line_number=line_number) from None
    if not math.isfinite(value):
        raise MapFormatError(f"expected a finite number, got {token!r}", line_number=line_number)
    return value


def parse_map(data: bytes | str) -> CompactMap:
    """Parse map-file content; raises MapFormatError with a line number."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as err:
        raise MapFormatError(f"not UTF-8 text: {err.reason}", line_number=data.count(b"\n", 0, err.start) + 1) from None
    labels: dict[str, SemanticLabel] = {}
    landmarks: list[Landmark] = []
    saw_header = False
    next_id = 0

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_header:
            if tokens != ["CMAP", "1"]:
                raise MapFormatError("missing or invalid 'CMAP 1' header", line_number=line_number)
            saw_header = True
            continue

        kind = tokens[0]
        if kind == "LABEL":
            if len(tokens) != 3:
                raise MapFormatError("LABEL needs a name and a category", line_number=line_number)
            name, category = tokens[1], tokens[2]
            if category not in VALID_CATEGORIES:
                raise MapFormatError(f"unknown label category {category!r}", line_number=line_number)
            if name in labels:
                raise MapFormatError(f"duplicate label {name!r}", line_number=line_number)
            labels[name] = SemanticLabel(name, category)
        elif kind == "SEG":
            radius = None
            body = tokens[1:]
            if body and body[-1].startswith("radius="):
                radius = _parse_float(body[-1][len("radius="):], line_number)
                body = body[:-1]
            if len(body) != 7:
                raise MapFormatError("SEG needs a label and 6 coordinates", line_number=line_number)
            name = body[0]
            if name not in labels:
                raise MapFormatError(
                    f"unregistered label {name!r}", line_number=line_number, landmark_id=next_id
                )
            coords = [_parse_float(tok, line_number) for tok in body[1:]]
            try:
                landmark = LineSegmentLandmark(
                    labels[name], coords[:3], coords[3:], pole_radius=radius, landmark_id=next_id
                )
            except ValueError as err:
                raise MapFormatError(str(err), line_number=line_number, landmark_id=next_id) from None
            landmarks.append(landmark)
            next_id += 1
        elif kind == "WF":
            if len(tokens) < 3:
                raise MapFormatError("WF needs a label and a point count", line_number=line_number)
            name = tokens[1]
            if name not in labels:
                raise MapFormatError(
                    f"unregistered label {name!r}", line_number=line_number, landmark_id=next_id
                )
            try:
                count = int(tokens[2])
            except ValueError:
                raise MapFormatError(
                    f"invalid point count {tokens[2]!r}", line_number=line_number
                ) from None
            coord_tokens = tokens[3:]
            if len(coord_tokens) != 3 * count:
                raise MapFormatError(
                    f"WF declares {count} points but carries {len(coord_tokens)} coordinates",
                    line_number=line_number,
                )
            coords = np.array(
                [_parse_float(tok, line_number) for tok in coord_tokens]
            ).reshape(-1, 3)
            try:
                landmark = WireframeLandmark(labels[name], coords, landmark_id=next_id)
            except ValueError as err:
                raise MapFormatError(str(err), line_number=line_number, landmark_id=next_id) from None
            landmarks.append(landmark)
            next_id += 1
        else:
            raise MapFormatError(f"unknown record type {kind!r}", line_number=line_number)

    if not saw_header:
        raise MapFormatError("empty map file, missing 'CMAP 1' header", line_number=1)
    return CompactMap(tuple(labels.values()), tuple(landmarks))


def read_map(path: str | Path) -> CompactMap:
    """``parse_map`` of the file at ``path``; a MapFormatError names it."""
    try:
        return parse_map(Path(path).read_bytes())
    except MapFormatError as err:
        err.args = (f"{path}: {err}",)
        raise


def serialize_map(compact_map: CompactMap) -> bytes:
    """Serialize a map; stable byte output, 6-decimal coordinate resolution."""
    lines = ["CMAP 1"]
    for label in compact_map.labels:
        lines.append(f"LABEL {label.name} {label.category}")
    for lm in compact_map.landmarks:
        if isinstance(lm, LineSegmentLandmark):
            coords = " ".join(_format_coord(c) for c in np.concatenate([lm.p0, lm.p1]))
            suffix = f" radius={_format_coord(lm.pole_radius)}" if lm.pole_radius is not None else ""
            lines.append(f"SEG {lm.label.name} {coords}{suffix}")
        else:
            coords = " ".join(_format_coord(c) for c in lm.points.ravel())
            lines.append(f"WF {lm.label.name} {lm.points.shape[0]} {coords}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def maps_equal(a: CompactMap, b: CompactMap) -> bool:
    """Exact structural and numeric equality (used for round-trip checks)."""
    if a.labels != b.labels or len(a.landmarks) != len(b.landmarks):
        return False
    for la, lb in zip(a.landmarks, b.landmarks):
        if type(la) is not type(lb) or la.label != lb.label:
            return False
        if isinstance(la, LineSegmentLandmark):
            if la.pole_radius != lb.pole_radius:
                return False
            if not (np.array_equal(la.p0, lb.p0) and np.array_equal(la.p1, lb.p1)):
                return False
        else:
            if not np.array_equal(la.points, lb.points):
                return False
    return True


@dataclass(frozen=True)
class MapStatistics:
    per_label_counts: dict[str, int]
    total_landmarks: int
    n_segments: int
    n_wireframes: int
    compact_size_bytes: int
    original_size_bytes: int
    compression_factor: float


def compression_factor(original_size_bytes: int, compact_size_bytes: int) -> float:
    return original_size_bytes / compact_size_bytes


def map_statistics(compact_map: CompactMap, original_size_bytes: int) -> MapStatistics:
    """Landmark counts per label plus size/compression bookkeeping."""
    if original_size_bytes <= 0:
        raise ValueError("original_size_bytes must be positive")
    counts = {name: 0 for name in compact_map.label_names}
    for lm in compact_map.landmarks:
        counts[lm.label.name] += 1
    compact_size = len(serialize_map(compact_map))
    return MapStatistics(
        per_label_counts=counts,
        total_landmarks=len(compact_map.landmarks),
        n_segments=len(compact_map.segments()),
        n_wireframes=len(compact_map.wireframes()),
        compact_size_bytes=compact_size,
        original_size_bytes=original_size_bytes,
        compression_factor=compression_factor(original_size_bytes, compact_size),
    )
