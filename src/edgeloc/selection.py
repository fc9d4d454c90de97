"""Landmark selection: frustum culling, occlusion via a software depth
buffer, and sparse edge-point sampling in the prior camera frame.

Selection reads the map in its packed form (``CompactMap.packed``): flat
point, edge, pole and wireframe-corner arrays plus each landmark's label
index and id, built once per map on first use, so a frame only moves and
tests arrays.

Occluders are wireframe interiors (filled planar polygons) and pole
cylinders (approximated by the quad spanned by their two silhouette
lines). Plain line segments do not occlude. One array pass rasterizes
every occluder polygon into an (H, W) minimum-depth array, testing only a
span of each bounding-box row that holds all of the row's inside pixels;
depth is interpolated perspective-correct (affine in 1/z), which is exact
for planar polygons.

Edges are sampled in one array pass over the whole landmark list: the
landmarks' points are moved into the camera frame together, every edge is
clipped against the six view planes at once (Liang & Barsky, ACM TOG
1984), sampled perspective-correctly, rounded to a pixel and
depth-tested. Each sample keeps the index of its landmark. Samples just
behind an occluder's silhouette are then dropped; silhouette pixels are
looked for among the finite depth pixels only (a few percent of the
image). ``select_landmarks`` and the synthetic renderer share these passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compact_map import CompactMap, PackedMap
from .config import PipelineConfig
from .geometry import CameraIntrinsics, Pose, project_points

# Near clip for selection and rendering; nothing useful projects closer.
NEAR_CLIP_M = 0.05

# Samples this far behind a nearby occluder silhouette are discarded: a
# small prior error shifts thin occluders across them, so they may well be
# invisible in the live image even though the prior says otherwise.
_OCCLUSION_MARGIN_GAP_M = 2.0

# The polygon rasterizer tests at most this many pixels per array pass
# (unless one row is wider), which bounds its temporaries whatever the
# triangles cover.
_PIXEL_BUDGET = 1 << 16


@dataclass(frozen=True, eq=False)
class LandmarkSamples:
    """Visible 3D edge samples in the prior camera frame, as flat arrays.

    ``labels`` holds the sampled label names in map order, and ``label``
    indexes it. Samples come in label blocks in that order; within a
    block, in landmark order and edge order within a landmark.
    """

    labels: tuple[str, ...]
    points: np.ndarray  # (N, 3) float64
    label: np.ndarray  # (N,) int, index into labels
    landmark_id: np.ndarray  # (N,) int

    def total_count(self) -> int:
        return self.points.shape[0]

    def landmark_ids(self) -> set[int]:
        return set(self.landmark_id.tolist())


def clip_segment_to_view(
    p0: np.ndarray,
    p1: np.ndarray,
    intrinsics: CameraIntrinsics,
    far: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip camera-frame segments p0[i] -> p1[i], (N, 3) each, to the view
    frustum between ``NEAR_CLIP_M`` and ``far``.

    Returns (inside, q0, q1): which segments keep a visible part, and the
    clipped endpoints of those segments.
    """
    p0 = np.asarray(p0, dtype=float).reshape(-1, 3)
    p1 = np.asarray(p1, dtype=float).reshape(-1, 3)
    k = intrinsics
    # The view frustum as the half-spaces p @ normals + offsets >= 0.
    normals = np.array(
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [k.fx, 0.0, k.cx], [-k.fx, 0.0, k.width - 1 - k.cx],
         [0.0, k.fy, k.cy], [0.0, -k.fy, k.height - 1 - k.cy]]
    ).T
    offsets = np.array([-NEAR_CLIP_M, far, 0.0, 0.0, 0.0, 0.0])
    c0 = p0 @ normals + offsets
    c1 = p1 @ normals + offsets
    out0, out1 = c0 < 0.0, c1 < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = c0 / (c0 - c1)
    t0 = np.where(out0 & ~out1, crossing, 0.0).max(axis=1)
    t1 = np.where(out1 & ~out0, crossing, 1.0).min(axis=1)
    inside = ~(out0 & out1).any(axis=1) & (t0 < t1)
    direction = (p1 - p0)[inside]
    p0 = p0[inside]
    return inside, p0 + t0[inside, None] * direction, p0 + t1[inside, None] * direction


def rasterize_polygons(depth: np.ndarray, polygons: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Min-depth fill of camera-frame polygons, (P, n, 3), into the
    C-contiguous (H, W) array ``depth``; returns the flat indices of the
    pixels it gave a finite depth, unordered and possibly repeated.

    Every polygon is clipped against z >= NEAR_CLIP_M (Sutherland &
    Hodgman, CACM 1974) and fanned into triangles (0, i, i + 1) of the
    clipped vertices. A pixel center is inside a triangle when its three
    edge functions (Pineda, SIGGRAPH 1988) are >= -eps; its depth is
    interpolated affine in 1/z. A polygon with fewer vertices may be padded
    by repeating its last vertex: that adds only zero-area triangles.
    """
    count, n, _ = polygons.shape
    # Vertex i emits itself when inside, then the crossing of edge i -> i + 1
    # when that edge crosses the plane; a stable sort packs each row.
    following = np.roll(polygons, -1, axis=1)
    inside = polygons[..., 2] >= NEAR_CLIP_M
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (NEAR_CLIP_M - polygons[..., 2]) / (following[..., 2] - polygons[..., 2])
        crossing = polygons + t[..., None] * (following - polygons)
    emitted = np.stack([inside, inside != np.roll(inside, -1, axis=1)], axis=2).reshape(count, 2 * n)
    slots = np.stack([polygons, crossing], axis=2).reshape(count, 2 * n, 3)
    clipped = np.take_along_axis(slots, np.argsort(~emitted, axis=1, kind="stable")[..., None], axis=1)
    # Fan triangle k of a polygon has the clipped vertices (0, k + 1, k + 2).
    poly, k = np.nonzero(np.arange(2, 2 * n) < emitted.sum(axis=1)[:, None])
    corners = clipped[poly[:, None], np.stack([np.zeros_like(k), k + 1, k + 2], axis=1)]

    # Triangle set-up: (u, v, 1/z) x corners (a, b, c) x triangles, with b
    # and c swapped where needed so that area2 >= 0.
    u, v, in_front = project_points(corners.transpose(1, 0, 2), intrinsics)
    setup = np.stack([u, v, 1.0 / corners[..., 2].T])
    area2 = (u[1] - u[0]) * (v[2] - v[0]) - (v[1] - v[0]) * (u[2] - u[0])
    setup = np.take_along_axis(setup, np.where(area2 < 0.0, [[0], [2], [1]], [[0], [1], [2]])[None], axis=1)
    size = np.array([[depth.shape[1]], [depth.shape[0]]])
    lo = np.clip(np.ceil(setup[:2].min(axis=1) - 1e-9), 0, size)
    hi = np.clip(np.floor(setup[:2].max(axis=1) + 1e-9), -1, size - 1)
    keep = in_front.all(axis=0) & (np.abs(area2) >= 1e-12) & (lo <= hi).all(axis=0)
    (u, v, inv_z), area2 = setup[..., keep], np.abs(area2[keep])
    (u_lo, v_lo), (u_hi, v_hi) = lo[:, keep].astype(np.intp), hi[:, keep].astype(np.intp)
    # Edge e runs from corner e + 1 to corner e + 2 (mod 3); its function at
    # a pixel is du_e * (pixel v - v_from) - dv_e * (pixel u - u_from).
    u_from, v_from = u[[1, 2, 0]], v[[1, 2, 0]]
    du, dv = u[[2, 0, 1]] - u_from, v[[2, 0, 1]] - v_from
    eps = 1e-9 * (area2 + 1.0)

    # One entry per pixel row of every bounding box, then a span of it to
    # test. Along a row each edge function, computed as below, is monotone
    # in the integer u, so the pixels that pass it are a prefix of the row
    # where dv > 0 and a suffix where dv < 0. The span runs between the
    # estimated crossings of those edges, widened by one pixel and clipped
    # to the box. It holds every inside pixel when, at each end, the span
    # meets the box or the next pixel out fails an edge of that end's kind;
    # a row where that is not so is tested over its whole box width.
    rows = v_hi - v_lo + 1
    tri = np.repeat(np.arange(area2.size), rows)
    row_v = np.arange(tri.size) - np.repeat(np.cumsum(rows) - rows - v_lo, rows)
    row_term = du[:, tri] * (row_v - v_from[:, tri])
    row_from, row_dv, row_limit = u_from[:, tri], dv[:, tri], -eps[tri]

    def fails(pixel_u, bounds_side):
        w = pixel_u - row_from
        w *= row_dv
        return ((row_term - w < row_limit) & bounds_side).any(axis=0)

    left, right = u_lo[tri], u_hi[tri]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        crossing = row_from + (row_term - row_limit) / row_dv
    first = np.clip(np.where(row_dv < 0.0, np.ceil(crossing), -np.inf).max(axis=0) - 1, left, right + 1).astype(np.intp)
    last = np.clip(np.where(row_dv > 0.0, np.floor(crossing), np.inf).min(axis=0) + 1, left - 1, right).astype(np.intp)
    spanned = ((first == left) | fails(first - 1, row_dv < 0.0)) & ((last == right) | fails(last + 1, row_dv > 0.0))
    first, last = np.where(spanned, first, left), np.where(spanned, last, right)
    nonempty = first <= last
    tri, row_v, row_u, row_term = tri[nonempty], row_v[nonempty], first[nonempty], row_term[:, nonempty]
    row_w = (last - first + 1)[nonempty]

    # The spans' pixels, in chunks of whole rows of at most _PIXEL_BUDGET
    # pixels (or one wider row).
    ends = np.cumsum(row_w)
    start = 0
    drawn = [np.empty(0, dtype=np.intp)]
    while start < tri.size:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - row_w[start] + _PIXEL_BUDGET, side="right")))
        width = row_w[start:stop]
        row = np.repeat(np.arange(start, stop), width)
        pixel_u = row_u[row] + (np.arange(row.size) - np.repeat(np.cumsum(width) - width, width))
        pixel_tri = tri[row]
        w = pixel_u - u_from[:, pixel_tri]
        w *= dv[:, pixel_tri]
        np.subtract(row_term[:, row], w, out=w)
        limit = -eps[pixel_tri]
        hit = np.flatnonzero((w[0] >= limit) & (w[1] >= limit) & (w[2] >= limit))
        hit_tri, w = pixel_tri[hit], w[:, hit]
        interp_inv_z = (w[0] * inv_z[0, hit_tri] + w[1] * inv_z[1, hit_tri] + w[2] * inv_z[2, hit_tri]) / area2[hit_tri]
        values = np.where(interp_inv_z > 1e-12, 1.0 / np.maximum(interp_inv_z, 1e-12), np.inf)
        pixel = row_v[row[hit]] * depth.shape[1] + pixel_u[hit]
        np.minimum.at(depth.reshape(-1), pixel, values)
        drawn.append(pixel[values < np.inf])
        start = stop
    return np.concatenate(drawn)


def pole_silhouette(q0: np.ndarray, q1: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """Silhouette edges of cylinders around the segments q0 -> q1 (camera frame).

    Takes (..., 3) endpoints and a radius per cylinder. Returns (left,
    right), each (..., 2, 3): the segment offset by the radius
    perpendicular to both the axis and the viewing ray.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    axis = (q1 - q0)[..., None, :]
    ends = np.stack([q0, q1], axis=-2)
    side = np.cross(axis, ends)
    # A stacked (1, 3) @ (3, 1) is the same dot product np.linalg.norm takes;
    # norm is (..., 2, 1).
    norm = np.sqrt(side[..., None, :] @ side[..., None])[..., 0]
    through = norm < 1e-9
    if through.any():
        # Axis through the camera ray; pick any perpendicular.
        helper = np.where(np.abs(axis[..., :1]) > np.abs(axis[..., 1:2]), [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        side = np.where(through, np.cross(axis, helper), side)
        norm = np.sqrt(side[..., None, :] @ side[..., None])[..., 0]
    offset = np.asarray(radius, dtype=float)[..., None, None] * (side / norm)
    return ends - offset, ends + offset


def silhouette_margin_depth(
    depth: np.ndarray, finite: np.ndarray, margin_px: int, iv: np.ndarray, iu: np.ndarray
) -> np.ndarray:
    """Min occluder depth at silhouette pixels within ``margin_px`` of each
    pixel (iv[i], iu[i]), in the (2 margin_px + 1)^2 window around it.

    A pixel is a silhouette pixel when a 4-neighbor is much deeper (or
    outside the image); smooth surfaces like a road seen at grazing angles
    do not qualify. Pixels away from every silhouette get +inf.

    Only pixels with a finite depth can be seeds, so they are found among
    those alone: ``finite`` holds their flat indices, in any order and
    possibly repeated, as rasterize_occluders returns them, so no pass
    scans the whole raster. The window minimum is separable: each seed
    scatters its depth, by minimum, to the 2 margin_px + 1 columns around
    it in its own row, and each pixel then takes the minimum of its
    window's rows at its column. Both run on the seeds' bounding box grown
    by the margin. A margin of max(H, W) - 1 already covers the raster, so
    a larger one is clamped.
    """
    height, width = depth.shape
    r = min(margin_px, max(height, width) - 1)
    flat = depth.reshape(-1)
    v, u = np.divmod(finite, width)
    center = flat[finite]
    threshold = center * 1.5 + 1.0
    deeper = np.zeros(finite.shape, dtype=bool)
    for step, inside in ((-width, v > 0), (width, v < height - 1), (-1, u > 0), (1, u < width - 1)):
        neighbor = np.where(inside, flat[np.where(inside, finite + step, finite)], np.inf)
        deeper |= neighbor > threshold
    seed_v, seed_u, seed_depth = v[deeper], u[deeper], center[deeper]
    out = np.full(iv.shape, np.inf)
    if seed_v.size == 0:
        return out
    # Pixels whose window can hold a seed.
    top, bottom = int(seed_v.min()) - r, int(seed_v.max()) + r
    left, right = int(seed_u.min()) - r, int(seed_u.max()) + r
    reach = np.flatnonzero((iv >= top) & (iv <= bottom) & (iu >= left) & (iu <= right))
    # rows[y, x]: min seed depth in raster row top - r + y, columns
    # left + x - r .. left + x + r; no index leaves it.
    size, stride = 2 * r + 1, right - left + 1
    rows = np.full((bottom - top + size) * stride, np.inf)
    spread = ((seed_v - top + r) * stride + seed_u - r - left)[:, None] + np.arange(size)
    np.minimum.at(rows, spread.reshape(-1), np.repeat(seed_depth, size))
    window = ((iv[reach] - top) * stride + iu[reach] - left)[:, None] + stride * np.arange(size)
    out[reach] = rows[window].min(axis=1)
    return out


def _pole_radii(packed: PackedMap, config: PipelineConfig) -> np.ndarray:
    """Each pole's radius, the configured default where it has none of its own."""
    return np.where(np.isnan(packed.pole_radius), config.default_pole_radius_m, packed.pole_radius)


def rasterize_occluders(
    packed: PackedMap,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    config: PipelineConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(H, W) minimum depth in meters, +inf where empty, of wireframe
    interiors and pole cylinders seen from the prior, and the flat indices
    of its finite pixels (unordered, possibly repeated; see
    rasterize_polygons)."""
    config = config or PipelineConfig()
    depth = np.full((intrinsics.height, intrinsics.width), np.inf)
    camera = prior.inverse().apply(packed.points)
    ends = packed.edges[packed.poles]
    left, right = pole_silhouette(camera[ends[:, 0]], camera[ends[:, 1]], _pole_radii(packed, config))
    # Pole quads padded like the wireframes, by repeating their last vertex.
    n = packed.corners.shape[1]
    quads = np.concatenate([left, right[:, ::-1]], axis=1)[:, np.minimum(np.arange(n), 3)]
    finite = rasterize_polygons(depth, np.concatenate([camera[packed.corners], quads]), intrinsics)
    return depth, finite


def sample_landmark_edges(
    packed: PackedMap,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    spacing: float | None = None,
    config: PipelineConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the packed landmarks' visible edges at <= ``spacing`` px intervals.

    Returns (points, owner): (N, 3) points in the prior camera frame, and
    each point's landmark index. Sampling is uniform in image space
    (perspective-correct along each 3D edge), endpoints included; points
    come in landmark order, and in edge order within a landmark.
    """
    config = config or PipelineConfig()
    if spacing is None:
        spacing = config.sample_spacing_px
    camera = prior.inverse().apply(packed.points)
    q0, q1 = camera[packed.edges[:, 0]], camera[packed.edges[:, 1]]
    poles = packed.poles
    left, right = pole_silhouette(q0[poles], q1[poles], _pole_radii(packed, config))
    q0[poles], q1[poles] = left[:, 0], left[:, 1]
    q0[poles + 1], q1[poles + 1] = right[:, 0], right[:, 1]
    inside, qa, qb = clip_segment_to_view(q0, q1, intrinsics, config.max_selection_range_m)
    u, v, _ = project_points(np.stack([qa, qb]), intrinsics)
    length_px = np.hypot(u[1] - u[0], v[1] - v[0])
    intervals = np.maximum(1, np.ceil(length_px / spacing).astype(np.intp))
    # s runs over np.linspace(0, 1, n + 1) per edge: k * (1 / n), then exactly 1.
    edge = np.repeat(np.arange(len(qa)), intervals + 1)
    last = np.cumsum(intervals + 1) - 1
    k = np.arange(edge.size) - np.repeat(last - intervals, intervals + 1)
    s = k * (1.0 / intervals)[edge]
    s[last] = 1.0
    za, zb = qa[edge, 2], qb[edge, 2]
    t = s * za / ((1.0 - s) * zb + s * za)
    return qa[edge] + t[:, None] * (qb - qa)[edge], packed.owner[inside][edge]


def visible_samples(
    packed: PackedMap,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    depth: np.ndarray,
    spacing: float | None = None,
    config: PipelineConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge samples that pass the z-test against ``depth`` at their pixel.

    Returns (points, owner, iv, iu): ``sample_landmark_edges``' points and
    owners that are no deeper than ``depth`` plus the depth tolerance,
    and the pixel each rounds to.
    """
    config = config or PipelineConfig()
    points, owner = sample_landmark_edges(packed, prior, intrinsics, spacing, config)
    height, width = depth.shape
    u, v, _ = project_points(points, intrinsics)
    iu = np.clip(np.rint(u).astype(int), 0, width - 1)
    iv = np.clip(np.rint(v).astype(int), 0, height - 1)
    keep = points[:, 2] <= depth[iv, iu] + config.depth_tolerance_m
    return points[keep], owner[keep], iv[keep], iu[keep]


def select_landmarks(
    compact_map: CompactMap,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    config: PipelineConfig | None = None,
) -> LandmarkSamples:
    """Full selection pipeline: cull, depth-buffer occluders, sample, z-test."""
    config = config or PipelineConfig()
    packed = compact_map.packed
    depth, finite = rasterize_occluders(packed, prior, intrinsics, config)
    points, owner, iv, iu = visible_samples(packed, prior, intrinsics, depth, config=config)
    if config.occlusion_margin_px > 0:
        margin_depth = silhouette_margin_depth(depth, finite, config.occlusion_margin_px, iv, iu)
        keep = points[:, 2] <= margin_depth + _OCCLUSION_MARGIN_GAP_M
        points, owner = points[keep], owner[keep]
    names = compact_map.label_names
    sampled, label = np.unique(packed.label[owner], return_inverse=True)
    order = np.argsort(label, kind="stable")
    ids = packed.landmark_id[owner]
    return LandmarkSamples(tuple(names[i] for i in sampled), points[order], label[order], ids[order])
