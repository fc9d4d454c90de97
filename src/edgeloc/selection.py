"""Landmark selection: frustum culling, occlusion via a software depth
buffer, and sparse edge-point sampling in the prior camera frame.

Occluders are wireframe interiors (filled planar polygons) and pole
cylinders (approximated by the quad spanned by their two silhouette
lines). Plain line segments do not occlude. Depth is interpolated
perspective-correct (affine in 1/z), which is exact for planar polygons.

Edges are sampled in one array pass over the whole landmark list: the
landmarks' points are packed and moved into the camera frame together,
every edge is clipped against the six view planes at once (Liang &
Barsky, ACM TOG 1984), sampled perspective-correctly, rounded to a pixel
and depth-tested. Each sample keeps the index of its landmark.
``select_landmarks`` and the synthetic renderer share this pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compact_map import CompactMap, WireframeLandmark
from .config import PipelineConfig
from .geometry import CameraIntrinsics, Pose, project_points

# Near clip for selection and rendering; nothing useful projects closer.
NEAR_CLIP_M = 0.05

# Samples this far behind a nearby occluder silhouette are discarded: a
# small prior error shifts thin occluders across them, so they may well be
# invisible in the live image even though the prior says otherwise.
_OCCLUSION_MARGIN_GAP_M = 2.0


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


class DepthBuffer:
    """Per-pixel minimum depth (meters), initialized to +inf."""

    def __init__(self, width: int, height: int):
        self.values = np.full((height, width), np.inf)


def clip_segment_to_view(
    p0: np.ndarray,
    p1: np.ndarray,
    intrinsics: CameraIntrinsics,
    near: float = NEAR_CLIP_M,
    far: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip camera-frame segments p0[i] -> p1[i], (N, 3) each, to the view frustum.

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
    offsets = np.array([-near, far, 0.0, 0.0, 0.0, 0.0])
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


def _clip_polygon_near(points: np.ndarray, near: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a camera-frame polygon against z >= near."""
    out = []
    n = points.shape[0]
    for i in range(n):
        current = points[i]
        following = points[(i + 1) % n]
        c_in = current[2] >= near
        f_in = following[2] >= near
        if c_in:
            out.append(current)
        if c_in != f_in:
            t = (near - current[2]) / (following[2] - current[2])
            out.append(current + t * (following - current))
    return np.array(out) if out else np.empty((0, 3))


def _rasterize_triangle(values: np.ndarray, triangle: np.ndarray, intrinsics: CameraIntrinsics) -> None:
    """Min-depth fill of one camera-frame triangle (already near-clipped)."""
    height, width = values.shape
    uv, valid = project_points(triangle, intrinsics)
    if not valid.all():
        return
    inv_z = 1.0 / triangle[:, 2]
    a, b, c = uv
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if area2 < 0.0:
        b, c = c, b
        inv_z = inv_z[[0, 2, 1]]
        area2 = -area2
    if area2 < 1e-12:
        return
    u_lo = max(0, int(math.ceil(min(a[0], b[0], c[0]) - 1e-9)))
    u_hi = min(width - 1, int(math.floor(max(a[0], b[0], c[0]) + 1e-9)))
    v_lo = max(0, int(math.ceil(min(a[1], b[1], c[1]) - 1e-9)))
    v_hi = min(height - 1, int(math.floor(max(a[1], b[1], c[1]) + 1e-9)))
    if u_lo > u_hi or v_lo > v_hi:
        return
    uu, vv = np.meshgrid(np.arange(u_lo, u_hi + 1), np.arange(v_lo, v_hi + 1))
    wa = (c[0] - b[0]) * (vv - b[1]) - (c[1] - b[1]) * (uu - b[0])
    wb = (a[0] - c[0]) * (vv - c[1]) - (a[1] - c[1]) * (uu - c[0])
    wc = (b[0] - a[0]) * (vv - a[1]) - (b[1] - a[1]) * (uu - a[0])
    eps = 1e-9 * (area2 + 1.0)
    inside = (wa >= -eps) & (wb >= -eps) & (wc >= -eps)
    if not inside.any():
        return
    interp_inv_z = (wa * inv_z[0] + wb * inv_z[1] + wc * inv_z[2]) / area2
    depth = np.where(interp_inv_z > 1e-12, 1.0 / np.maximum(interp_inv_z, 1e-12), np.inf)
    patch = values[v_lo:v_hi + 1, u_lo:u_hi + 1]
    np.minimum(patch, np.where(inside, depth, np.inf), out=patch)


def rasterize_polygon(buffer: DepthBuffer, polygon: np.ndarray, intrinsics: CameraIntrinsics) -> None:
    """Fan-triangulate a camera-frame polygon and rasterize it near-clipped."""
    clipped = _clip_polygon_near(np.asarray(polygon, dtype=float), NEAR_CLIP_M)
    if clipped.shape[0] < 3:
        return
    # Cull with _rasterize_triangle's own pixel bounds: each fan triangle's
    # bounding box lies inside the polygon's, so a polygon culled here would
    # have filled no pixel.
    height, width = buffer.values.shape
    uv, _ = project_points(clipped, intrinsics)
    u_min, v_min = uv.min(axis=0)
    u_max, v_max = uv.max(axis=0)
    if max(0, math.ceil(u_min - 1e-9)) > min(width - 1, math.floor(u_max + 1e-9)):
        return
    if max(0, math.ceil(v_min - 1e-9)) > min(height - 1, math.floor(v_max + 1e-9)):
        return
    for i in range(1, clipped.shape[0] - 1):
        _rasterize_triangle(buffer.values, clipped[[0, i, i + 1]], intrinsics)


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


def silhouette_margin_depth(buffer: DepthBuffer, margin_px: int, iv: np.ndarray, iu: np.ndarray) -> np.ndarray:
    """Min occluder depth at silhouette pixels within ``margin_px`` of each
    pixel (iv[i], iu[i]), in the (2 margin_px + 1)^2 window around it.

    A pixel is a silhouette pixel when a 4-neighbor is much deeper (or
    outside the image); smooth surfaces like a road seen at grazing angles
    do not qualify. Pixels away from every silhouette get +inf.
    """
    r = margin_px
    padded = np.pad(buffer.values, r + 1, constant_values=np.inf)
    depth = padded[1:-1, 1:-1]
    threshold = depth * 1.5 + 1.0
    deeper = (
        (padded[:-2, 1:-1] > threshold)
        | (padded[2:, 1:-1] > threshold)
        | (padded[1:-1, :-2] > threshold)
        | (padded[1:-1, 2:] > threshold)
    )
    # An empty pixel's threshold is +inf, so it never becomes a seed.
    seeds = np.where(deeper, depth, np.inf)
    # Pixel (v, u) is seeds[v + r, u + r], so its window starts at seeds[v, u].
    stride = seeds.shape[1]
    window = (iv * stride + iu)[:, None] + np.arange(2 * r + 1)
    out = np.full(iv.shape, np.inf)
    for dv in range(2 * r + 1):
        np.minimum(out, seeds.ravel()[window + dv * stride].min(axis=1), out=out)
    return out


def _pack(landmarks, config: PipelineConfig):
    """Flatten landmarks into world points and edges given as point-row pairs.

    Returns (points, edges, owner, poles, radii, wireframes): ``owner`` is
    each edge's index into ``landmarks``. A pole lists its axis twice, for
    its left and right silhouette lines; ``poles`` holds the edge row of
    the first copy and ``radii`` the radius. ``wireframes`` holds each
    polygon's (start, stop) point rows.
    """
    chunks, edges, owner, poles, radii, wireframes = [], [], [], [], [], []
    rows = 0
    for index, landmark in enumerate(landmarks):
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
                radii.append(config.default_pole_radius_m if landmark.pole_radius is None else landmark.pole_radius)
            edges += [(rows, rows + 1)] * copies
            owner += [index] * copies
        rows += n
    points = np.vstack(chunks) if chunks else np.empty((0, 3))
    edges, owner, poles = (np.array(x, dtype=np.intp) for x in (edges, owner, poles))
    return points, edges.reshape(-1, 2), owner, poles, np.array(radii, dtype=float), wireframes


def rasterize_occluders(
    landmarks,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    config: PipelineConfig | None = None,
) -> DepthBuffer:
    """Depth-buffer wireframe interiors and pole cylinders seen from the prior."""
    config = config or PipelineConfig()
    buffer = DepthBuffer(intrinsics.width, intrinsics.height)
    points, edges, _, poles, radii, wireframes = _pack(landmarks, config)
    camera = prior.inverse().apply(points)
    for start, stop in wireframes:
        rasterize_polygon(buffer, camera[start:stop], intrinsics)
    left, right = pole_silhouette(camera[edges[poles, 0]], camera[edges[poles, 1]], radii)
    for quad in np.concatenate([left, right[:, ::-1]], axis=1):
        rasterize_polygon(buffer, quad, intrinsics)
    return buffer


def sample_landmark_edges(
    landmarks,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    spacing: float | None = None,
    config: PipelineConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the landmarks' visible edges at <= ``spacing`` px intervals.

    Returns (points, owner): (N, 3) points in the prior camera frame, and
    each point's index into ``landmarks``. Sampling is uniform in image
    space (perspective-correct along each 3D edge), endpoints included;
    points come in landmark order, and in edge order within a landmark.
    """
    config = config or PipelineConfig()
    if spacing is None:
        spacing = config.sample_spacing_px
    points, edges, owner, poles, radii, _ = _pack(landmarks, config)
    camera = prior.inverse().apply(points)
    q0, q1 = camera[edges[:, 0]], camera[edges[:, 1]]
    left, right = pole_silhouette(q0[poles], q1[poles], radii)
    q0[poles], q1[poles] = left[:, 0], left[:, 1]
    q0[poles + 1], q1[poles + 1] = right[:, 0], right[:, 1]
    inside, qa, qb = clip_segment_to_view(q0, q1, intrinsics, NEAR_CLIP_M, config.max_selection_range_m)
    uv, _ = project_points(np.concatenate([qa, qb]), intrinsics)
    length_px = np.hypot(*(uv[len(qa):] - uv[: len(qa)]).T)
    intervals = np.maximum(1, np.ceil(length_px / spacing).astype(np.intp))
    # s runs over np.linspace(0, 1, n + 1) per edge: k * (1 / n), then exactly 1.
    edge = np.repeat(np.arange(len(qa)), intervals + 1)
    last = np.cumsum(intervals + 1) - 1
    k = np.arange(edge.size) - np.repeat(last - intervals, intervals + 1)
    s = k * (1.0 / intervals)[edge]
    s[last] = 1.0
    za, zb = qa[edge, 2], qb[edge, 2]
    t = s * za / ((1.0 - s) * zb + s * za)
    return qa[edge] + t[:, None] * (qb - qa)[edge], owner[inside][edge]


def visible_samples(
    landmarks,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    buffer: DepthBuffer,
    spacing: float | None = None,
    config: PipelineConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge samples that pass the z-test against ``buffer`` at their pixel.

    Returns (points, owner, iv, iu): ``sample_landmark_edges``' points and
    owners that are no deeper than the buffer plus the depth tolerance,
    and the pixel each rounds to.
    """
    config = config or PipelineConfig()
    points, owner = sample_landmark_edges(landmarks, prior, intrinsics, spacing, config)
    height, width = buffer.values.shape
    uv, _ = project_points(points, intrinsics)
    iu = np.clip(np.rint(uv[:, 0]).astype(int), 0, width - 1)
    iv = np.clip(np.rint(uv[:, 1]).astype(int), 0, height - 1)
    keep = points[:, 2] <= buffer.values[iv, iu] + config.depth_tolerance_m
    return points[keep], owner[keep], iv[keep], iu[keep]


def select_landmarks(
    compact_map: CompactMap,
    prior: Pose,
    intrinsics: CameraIntrinsics,
    config: PipelineConfig | None = None,
) -> LandmarkSamples:
    """Full selection pipeline: cull, depth-buffer occluders, sample, z-test."""
    config = config or PipelineConfig()
    landmarks = compact_map.landmarks
    buffer = rasterize_occluders(landmarks, prior, intrinsics, config)
    points, owner, iv, iu = visible_samples(landmarks, prior, intrinsics, buffer, config=config)
    if config.occlusion_margin_px > 0:
        margin_depth = silhouette_margin_depth(buffer, config.occlusion_margin_px, iv, iu)
        keep = points[:, 2] <= margin_depth + _OCCLUSION_MARGIN_GAP_M
        points, owner = points[keep], owner[keep]
    names = compact_map.label_names
    label = np.array([names.index(lm.label.name) for lm in landmarks], dtype=int)[owner]
    ids = np.array([lm.landmark_id for lm in landmarks], dtype=int)[owner]
    sampled, label = np.unique(label, return_inverse=True)
    order = np.argsort(label, kind="stable")
    return LandmarkSamples(tuple(names[i] for i in sampled), points[order], label[order], ids[order])
