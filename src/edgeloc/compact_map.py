"""Compact landmark map: semantic 3D line segments and closed wireframes.

The on-disk format is line-oriented UTF-8 text:

    CMAP 1
    LABEL <name> <road|nonroad>
    SEG <label> <x0> <y0> <z0> <x1> <y1> <z1> [radius=<r>]
    WF <label> <n> <x0> <y0> <z0> ... <x(n-1)> <y(n-1)> <z(n-1)>

``#`` starts a comment, fields are whitespace separated, coordinates are
meters in the world frame written with at most 6 decimals (mm resolution).

Each landmark kind has one validator, which checks a stack of landmarks in
array passes: ``_segment_fault`` (endpoints, length, radius) and
``_wireframe_fault`` (point count, gaps, planarity). The constructors run it
on one landmark. ``parse_map`` reads every line with its format checks,
converts all numbers in one pass, runs the segment validator once and the
wireframe validator once per point count, and builds the landmarks through
``_trusted`` without checking them again. Whatever the kind of error, the
one raised is that of the first failing line in file order.
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


def _segment_fault(
    p0: np.ndarray, p1: np.ndarray, radius: np.ndarray, has_radius: np.ndarray
) -> tuple[int, str] | None:
    """The index and message of the first segment of a stack that breaks an
    invariant, or None. ``p0`` and ``p1`` are (K, 3) float64 endpoints;
    ``radius`` (K,) is read where ``has_radius`` is set."""
    # math.dist, unlike numpy, overflows to inf without a warning. A
    # non-finite endpoint makes the length NaN or inf, so it fails too.
    length = np.array([math.dist(a, b) for a, b in zip(p0.tolist(), p1.tolist())])
    short = ~((MIN_SEGMENT_LENGTH_M < length) & (length < math.inf))
    bad_radius = has_radius & ~((0.0 < radius) & (radius < math.inf))
    fails = np.flatnonzero(short | bad_radius)
    if not fails.size:
        return None
    i = int(fails[0])
    if not short[i]:
        return i, f"pole radius must be finite and > 0, got {radius[i]}"
    for name, point in (("p0", p0[i]), ("p1", p1[i])):
        if not np.isfinite(point).all():
            return i, f"segment endpoint {name} is not finite: {point.tolist()}"
    if length[i] == math.inf:
        return i, "segment length overflows"
    return i, f"degenerate segment (shorter than {MIN_SEGMENT_LENGTH_M} m)"


def _wireframe_fault(points: np.ndarray) -> tuple[int, str] | None:
    """The index and message of the first wireframe of a (K, n, 3) float64
    stack that breaks an invariant, or None. Each wireframe's operations
    are those of one (n, 3) array, so a stack decides as its rows would."""
    n = points.shape[1]
    if n < 3:
        return 0, f"wireframe needs at least 3 points, got {n}"
    finite = np.isfinite(points).all(axis=2)
    # Finite coordinates near the float limit overflow to inf or NaN
    # here, and the checks below reject them. A wireframe whose centered
    # points are not finite gets a NaN deviation without an SVD, which
    # would raise on a NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.linalg.norm(np.roll(points, -1, axis=1) - points, axis=2)
        centered = points - points.mean(axis=1, keepdims=True)
        solvable = np.isfinite(centered).all(axis=(1, 2))
        deviation = np.full(len(points), math.nan)
        if solvable.any():
            centered = centered[solvable]
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            # matmul gives the bits of one wireframe's centered @ vt[-1]; einsum does not.
            deviation[solvable] = np.abs(np.matmul(centered, vt[:, -1, :, None])[..., 0]).max(axis=1)
    close = gaps.min(axis=1) <= MIN_SEGMENT_LENGTH_M
    # Written so that a NaN deviation (coordinates that overflow) fails.
    fails = np.flatnonzero(~finite.all(axis=1) | close | ~(deviation <= MAX_PLANARITY_DEVIATION_M))
    if not fails.size:
        return None
    i = int(fails[0])
    if not finite[i].all():
        bad = int(np.flatnonzero(~finite[i])[0])
        return i, f"wireframe point {bad} is not finite: {points[i, bad].tolist()}"
    if close[i]:
        return i, "consecutive wireframe points closer than 0.01 m"
    return i, f"wireframe is not planar (max deviation {deviation[i]:.3f} m)"


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
        has_radius = self.pole_radius is not None
        radius = np.array([self.pole_radius if has_radius else math.nan], dtype=float)
        fault = _segment_fault(p0[None], p1[None], radius, np.array([has_radius]))
        if fault is not None:
            raise ValueError(fault[1])

    @classmethod
    def _trusted(cls, label, p0, p1, pole_radius, landmark_id) -> "LineSegmentLandmark":
        """A segment from read-only float64 (3,) endpoints that passed
        _segment_fault: no copy and no check."""
        segment = object.__new__(cls)
        object.__setattr__(segment, "label", label)
        object.__setattr__(segment, "p0", p0)
        object.__setattr__(segment, "p1", p1)
        object.__setattr__(segment, "pole_radius", pole_radius)
        object.__setattr__(segment, "landmark_id", landmark_id)
        return segment

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
        fault = _wireframe_fault(points[None])
        if fault is not None:
            raise ValueError(fault[1])

    @classmethod
    def _trusted(cls, label, points, landmark_id) -> "WireframeLandmark":
        """A wireframe from a read-only float64 (n, 3) array that passed
        _wireframe_fault: no copy and no check."""
        wireframe = object.__new__(cls)
        object.__setattr__(wireframe, "label", label)
        object.__setattr__(wireframe, "points", points)
        object.__setattr__(wireframe, "landmark_id", landmark_id)
        return wireframe


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


# A landmark as its line is read: line number, label, the range of its
# number tokens, and a wireframe's point count (None for a segment). A
# segment's tokens are its radius, if it has one, then its 6 coordinates:
# the order in which a line-by-line read converts them.
_Record = tuple[int, SemanticLabel, int, int, int | None]


def _read_records(text: str, labels: dict[str, SemanticLabel], records: list[_Record], tokens: list[str]) -> None:
    """Read the lines of map text with their format checks, filling
    ``labels``, ``records`` and ``tokens`` (number tokens, not converted).
    Raises the MapFormatError of the first line with a format error."""
    saw_header = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not saw_header:
            if fields != ["CMAP", "1"]:
                raise MapFormatError("missing or invalid 'CMAP 1' header", line_number=line_number)
            saw_header = True
            continue

        kind = fields[0]
        if kind == "SEG":
            body = fields[1:]
            radius = body.pop()[len("radius="):] if body and body[-1].startswith("radius=") else None
            if len(body) != 7 or body[0] not in labels:
                if radius is not None:
                    _parse_float(radius, line_number)  # the radius is read before the fields
                if len(body) != 7:
                    raise MapFormatError("SEG needs a label and 6 coordinates", line_number=line_number)
                raise MapFormatError(
                    f"unregistered label {body[0]!r}", line_number=line_number, landmark_id=len(records)
                )
            start = len(tokens)
            if radius is not None:
                tokens.append(radius)
            tokens += body[1:]
            records.append((line_number, labels[body[0]], start, len(tokens), None))
        elif kind == "WF":
            if len(fields) < 3:
                raise MapFormatError("WF needs a label and a point count", line_number=line_number)
            name = fields[1]
            if name not in labels:
                raise MapFormatError(
                    f"unregistered label {name!r}", line_number=line_number, landmark_id=len(records)
                )
            try:
                count = int(fields[2])
            except ValueError:
                raise MapFormatError(
                    f"invalid point count {fields[2]!r}", line_number=line_number
                ) from None
            if len(fields) - 3 != 3 * count:
                raise MapFormatError(
                    f"WF declares {count} points but carries {len(fields) - 3} coordinates",
                    line_number=line_number,
                )
            start = len(tokens)
            tokens += fields[3:]
            records.append((line_number, labels[name], start, len(tokens), count))
        elif kind == "LABEL":
            if len(fields) != 3:
                raise MapFormatError("LABEL needs a name and a category", line_number=line_number)
            name, category = fields[1], fields[2]
            if category not in VALID_CATEGORIES:
                raise MapFormatError(f"unknown label category {category!r}", line_number=line_number)
            if name in labels:
                raise MapFormatError(f"duplicate label {name!r}", line_number=line_number)
            labels[name] = SemanticLabel(name, category)
        else:
            raise MapFormatError(f"unknown record type {kind!r}", line_number=line_number)

    if not saw_header:
        raise MapFormatError("empty map file, missing 'CMAP 1' header", line_number=1)


def _values(tokens: list[str], records: list[_Record]) -> tuple[np.ndarray, MapFormatError | None]:
    """The number tokens as float64, converted in one pass. If one is not a
    finite number, ``_parse_float`` finds the first record that carries
    one: the records from it on are dropped, and its error is returned
    with the values of the records before it."""
    try:
        values = np.array(tokens, dtype=float)
        if np.isfinite(values).all():
            return values, None
    except ValueError:
        pass
    floats: list[float] = []
    for index, (line_number, _, start, stop, _) in enumerate(records):
        try:
            floats += [_parse_float(token, line_number) for token in tokens[start:stop]]
        except MapFormatError as err:
            del records[index:]
            return np.array(floats), err
    return np.array(floats), None


def _landmarks(records: list[_Record], values: np.ndarray) -> list[Landmark]:
    """The landmarks of ``records``, checked in one array pass for the
    segments and one per wireframe point count. Raises the MapFormatError
    of the first landmark that breaks an invariant."""
    landmarks: list[Landmark] = [None] * len(records)
    faults: list[tuple[int, str]] = []
    segments: list[int] = []
    by_count: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        if record[4] is None:
            segments.append(i)
        else:
            by_count.setdefault(record[4], []).append(i)
    if segments:
        start = np.array([records[i][2] for i in segments], dtype=np.intp)
        has_radius = np.array([records[i][3] - records[i][2] == 7 for i in segments])
        ends = values[(start + has_radius)[:, None] + np.arange(6)].reshape(-1, 2, 3)
        radius = np.full(len(segments), math.nan)
        radius[has_radius] = values[start[has_radius]]
        fault = _segment_fault(ends[:, 0], ends[:, 1], radius, has_radius)
        if fault is not None:
            faults.append((segments[fault[0]], fault[1]))
        ends.setflags(write=False)
        radii = [r if has else None for r, has in zip(radius.tolist(), has_radius.tolist())]
        for i, p0, p1, r in zip(segments, list(ends[:, 0]), list(ends[:, 1]), radii):
            landmarks[i] = LineSegmentLandmark._trusted(records[i][1], p0, p1, r, i)
    for count, members in by_count.items():
        start = np.array([records[i][2] for i in members], dtype=np.intp)
        points = values[start[:, None] + np.arange(3 * count)].reshape(len(members), count, 3)
        fault = _wireframe_fault(points)
        if fault is not None:
            faults.append((members[fault[0]], fault[1]))
        points.setflags(write=False)
        for i, wireframe in zip(members, points):
            landmarks[i] = WireframeLandmark._trusted(records[i][1], wireframe, i)
    if faults:
        index, message = min(faults)
        raise MapFormatError(message, line_number=records[index][0], landmark_id=index)
    return landmarks


def parse_map(data: bytes | str) -> CompactMap:
    """Parse map-file content; raises MapFormatError with a line number.

    The lines are read with their format checks, the numbers converted in
    one pass and the landmarks checked in array passes; the error raised
    is that of the first failing line, as a line-by-line read finds it."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as err:
        raise MapFormatError(f"not UTF-8 text: {err.reason}", line_number=data.count(b"\n", 0, err.start) + 1) from None
    labels: dict[str, SemanticLabel] = {}
    records: list[_Record] = []
    tokens: list[str] = []
    line_error = None
    try:
        _read_records(text, labels, records, tokens)
    except MapFormatError as err:
        line_error = err
    values, token_error = _values(tokens, records)
    landmarks = _landmarks(records, values)  # raises for a landmark before both errors' lines
    if token_error or line_error:
        raise token_error or line_error
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
