"""Per-label semantic edge masks and their truncated Euclidean distance fields.

The distance transform is exact and runs in small unsigned integers. A
field truncated at d_max only needs min(d^2, w^2) with w = ceil(d_max), so
every distance is capped at w: a vertical sweep gives capped per-column
distances, then a horizontal min-plus pass with the quadratic kernel over
offsets below w yields min(d^2, w^2). A capped column or an offset of w or
more costs at least w^2, so it never wins below w^2, and rows whose columns
are all capped are skipped. Pass sums stay below 2 * w^2 (uint16 up to
w = 181, else uint32), so integer arithmetic is exact; a (w^2 + 1)-entry
table applies the same float64 min(sqrt(k), d_max) to every value k. The
field thus equals a brute-force nearest-edge-pixel search (0 ULP).

A field stores only this grid; its slope G_u, G_v is taken from the grid
where it is sampled, see bilinear_gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNCATION_PX = 20.0
DEFAULT_BOUNDARY_MARGIN_PX = 2
# Stride of the coarse masks and fields behind the coarse-to-fine alignment.
COARSE_SCALE = 4


class OutOfBoundsPixel(ValueError):
    """Sample location outside the field's valid interpolation domain."""


class DimensionMismatch(ValueError):
    """Input rasters do not share the same shape."""


@dataclass(frozen=True, eq=False)
class SemanticEdgeMask:
    """Binary edge raster for one semantic label."""

    label: str
    pixels: np.ndarray  # (H, W) bool
    frame_id: int | None = None

    def __post_init__(self):
        pixels = np.asarray(self.pixels).astype(bool)
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True, eq=False)
class SemanticEdgeField:
    """Truncated distance field V of one label; G_u, G_v are sampled from it."""

    label: str
    distance: np.ndarray  # (H, W) float64, pixels
    d_max: float = DEFAULT_TRUNCATION_PX

    @property
    def shape(self) -> tuple[int, int]:
        return self.distance.shape


def _capped_squared_distance(mask: np.ndarray, cap: int) -> np.ndarray:
    """min(d^2, cap^2) per pixel of a (..., H, W) bool stack, as unsigned ints.

    d is the distance to the nearest edge pixel in the same (H, W) slice.
    """
    # Pass sums stay below 2 * cap^2.
    dtype = np.promote_types(np.uint16, np.min_scalar_type(2 * cap * cap))
    height, width = mask.shape[-2:]
    if mask.size == 0:
        return np.zeros(mask.shape, dtype)

    # Pass 1: per-column distance to the nearest edge row, capped at cap.
    col = np.where(mask, dtype.type(0), dtype.type(cap))
    for row in range(1, height):
        np.minimum(col[..., row, :], col[..., row - 1, :] + 1, out=col[..., row, :])
    for row in range(height - 2, -1, -1):
        np.minimum(col[..., row, :], col[..., row + 1, :] + 1, out=col[..., row, :])
    sq = np.square(col, out=col).reshape(-1, width)

    # Pass 2: horizontal min-plus with the quadratic kernel over offsets
    # below cap, only on rows with a column distance below cap.
    near = (sq < cap * cap).any(axis=1)
    part = sq[near]
    best = part.copy()
    cost = np.empty_like(part)
    for shift in range(1, min(cap, width)):
        np.add(part, shift * shift, out=cost)
        np.minimum(best[:, shift:], cost[:, :-shift], out=best[:, shift:])
        np.minimum(best[:, :-shift], cost[:, shift:], out=best[:, :-shift])
    sq[near] = best
    return sq.reshape(mask.shape)


def squared_edge_distance(pixels: np.ndarray, window: int | None = None) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest edge pixel, in float64.

    With the default ``window=None`` every value is an exact integer and an
    empty mask yields +inf everywhere. A ``window`` caps the result at
    ``window**2``. Leading batch dimensions are allowed; the last two axes
    are (height, width).
    """
    mask = np.asarray(pixels, dtype=bool)
    if mask.ndim < 2:
        raise ValueError("mask must have at least 2 dimensions")
    if window is not None and window < 1:
        raise ValueError("window must be at least 1")
    limit = np.inf if window is None else int(window)
    # Real distances are below height + width - 1; a cap there marks empty masks.
    cap = int(min(limit, sum(mask.shape[-2:]) - 1))
    sq = _capped_squared_distance(mask, cap)
    dist_sq = sq.astype(np.float64)
    if cap < limit:
        dist_sq[sq == cap * cap] = limit * limit
    return dist_sq


def build_fields(masks: list[SemanticEdgeMask], d_max: float = DEFAULT_TRUNCATION_PX) -> dict[str, SemanticEdgeField]:
    """Truncated distance fields for same-shape masks, by label.

    V(x) = min(d_max, distance to the nearest edge pixel); an empty mask
    yields V == d_max everywhere.
    """
    if not masks:
        return {}
    if not d_max > 0:
        raise ValueError("d_max must be positive")
    d_max = float(d_max)
    stack = np.stack([m.pixels for m in masks])
    height, width = stack.shape[1:]
    cap = int(min(np.ceil(d_max), height + width - 1))
    table = np.minimum(np.sqrt(np.arange(cap * cap + 1.0)), d_max)
    # As in squared_edge_distance, a cap below ceil(d_max) marks empty masks.
    table[-1] = d_max
    distance = table[_capped_squared_distance(stack, cap)]
    distance.setflags(write=False)
    return {mask.label: SemanticEdgeField(mask.label, distance[i], d_max) for i, mask in enumerate(masks)}


def build_field(mask: SemanticEdgeMask, d_max: float = DEFAULT_TRUNCATION_PX) -> SemanticEdgeField:
    """build_fields for one mask."""
    return build_fields([mask], d_max=d_max)[mask.label]


def coarsen_mask(mask: SemanticEdgeMask, scale: int = COARSE_SCALE) -> SemanticEdgeMask:
    """Block-OR downsampling: a coarse pixel is set if any fine pixel was.

    Fields built from coarsened masks keep their truncation radius in
    coarse pixels, so they cover ``scale`` times more image area and give
    the aligner a proportionally wider pull-in range.
    """
    pixels = mask.pixels
    height, width = pixels.shape
    ch, cw = height // scale, width // scale
    # One axis at a time: OR the rows of each block, then its columns.
    rows = pixels[: ch * scale, : cw * scale].reshape(ch, scale, cw * scale).any(axis=1)
    return SemanticEdgeMask(mask.label, rows.reshape(ch, cw, scale).any(axis=2), frame_id=mask.frame_id)


def bilinear_gather(u, v, shape: tuple[int, int]):
    """Bilinear interpolation at sub-pixel (u, v) on grids of ``shape`` (H, W).

    Returns ``gather(grids, *index)``, which interpolates ``grids[*index]``
    at every location; leading indices select from a stacked grid. The
    weights are computed once and shared by every grid gathered. A
    one-pixel-wide or -tall grid interpolates along its other axis only.

    ``gather(grids, *index, gradient=True)`` returns (V, G_u, G_v). Each
    corner's slope along an axis of n pixels is NumPy's gradient, (D[hi] -
    D[lo]) / max(hi - lo, 1) with lo = max(i - 1, 0), hi = min(i + 1, n - 1),
    weighted as V is, so G_u, G_v equal a gather over gradient grids byte
    for byte. Half of those reads are V's own corners; 8 are extra.
    """
    height, width = shape
    iu = np.clip(np.floor(u).astype(int), 0, max(width - 2, 0))
    iv = np.clip(np.floor(v).astype(int), 0, max(height - 2, 0))
    iu1 = np.minimum(iu + 1, width - 1)
    iv1 = np.minimum(iv + 1, height - 1)
    fu = u - iu
    fv = v - iv
    w00 = (1.0 - fu) * (1.0 - fv)
    w10 = fu * (1.0 - fv)
    w01 = (1.0 - fu) * fv
    w11 = fu * fv

    def gather(grids, *index, gradient=False):
        d00 = grids[(*index, iv, iu)]
        d10 = grids[(*index, iv, iu1)]
        d01 = grids[(*index, iv1, iu)]
        d11 = grids[(*index, iv1, iu1)]
        value = d00 * w00 + d10 * w10 + d01 * w01 + d11 * w11
        if not gradient:
            return value
        # Outer neighbours of the corner pairs: hi(iu) = iu1 and lo(iu1) = iu.
        iu0, iu2 = np.maximum(iu - 1, 0), np.minimum(iu1 + 1, width - 1)
        iv0, iv2 = np.maximum(iv - 1, 0), np.minimum(iv1 + 1, height - 1)
        su0, su1 = np.maximum(iu1 - iu0, 1), np.maximum(iu2 - iu, 1)
        sv0, sv1 = np.maximum(iv1 - iv0, 1), np.maximum(iv2 - iv, 1)
        grad_u = (
            (d10 - grids[(*index, iv, iu0)]) / su0 * w00
            + (grids[(*index, iv, iu2)] - d00) / su1 * w10
            + (d11 - grids[(*index, iv1, iu0)]) / su0 * w01
            + (grids[(*index, iv1, iu2)] - d01) / su1 * w11
        )
        grad_v = (
            (d01 - grids[(*index, iv0, iu)]) / sv0 * w00
            + (d11 - grids[(*index, iv0, iu1)]) / sv0 * w10
            + (grids[(*index, iv2, iu)] - d00) / sv1 * w01
            + (grids[(*index, iv2, iu1)] - d10) / sv1 * w11
        )
        return value, grad_u, grad_v

    return gather


def sample_field(field: SemanticEdgeField, u: float, v: float) -> tuple[float, float, float]:
    """Bilinear (V, G_u, G_v) at a sub-pixel location; see bilinear_gather.

    Valid domain is 0 <= u <= width-1, 0 <= v <= height-1 (inclusive).
    """
    height, width = field.shape
    if not (0.0 <= u <= width - 1 and 0.0 <= v <= height - 1):
        raise OutOfBoundsPixel(f"({u:.2f}, {v:.2f}) outside [0, {width - 1}] x [0, {height - 1}]")
    gather = bilinear_gather(np.float64(u), np.float64(v), field.shape)
    return tuple(float(x) for x in gather(field.distance, gradient=True))


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a (2r+1)-square structuring element."""
    if radius <= 0 or not mask.any():
        return mask.copy()
    out = mask.copy()
    height, width = mask.shape
    padded = np.zeros((height + 2 * radius, width + 2 * radius), dtype=bool)
    padded[radius:radius + height, radius:radius + width] = mask
    for dv in range(-radius, radius + 1):
        for du in range(-radius, radius + 1):
            if dv == 0 and du == 0:
                continue
            out |= padded[radius + dv:radius + dv + height, radius + du:radius + du + width]
    return out


def build_edge_masks(
    label_image: np.ndarray,
    edge_map: np.ndarray,
    dynamic_mask: np.ndarray,
    labels: list[str] | tuple[str, ...],
    boundary_margin: int = DEFAULT_BOUNDARY_MARGIN_PX,
    frame_id: int | None = None,
) -> list[SemanticEdgeMask]:
    """Split a raw edge map into per-label masks, removing dynamic areas.

    ``label_image`` holds 1-based indices into ``labels`` (0 = background).
    Edge pixels inside the dynamic mask, or within ``boundary_margin`` pixels
    of it, are dropped for every label.
    """
    label_image = np.asarray(label_image)
    edges = np.asarray(edge_map) != 0
    dynamic = np.asarray(dynamic_mask) != 0
    if not (label_image.shape == edges.shape == dynamic.shape):
        raise DimensionMismatch(
            f"shapes differ: labels {label_image.shape}, edges {edges.shape}, dynamic {dynamic.shape}"
        )
    keep = edges & ~_dilate(dynamic, boundary_margin)
    masks = []
    for index, name in enumerate(labels, start=1):
        masks.append(SemanticEdgeMask(name, keep & (label_image == index), frame_id=frame_id))
    return masks
