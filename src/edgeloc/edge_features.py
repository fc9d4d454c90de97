"""Per-label semantic edge masks and their truncated Euclidean distance fields.

The distance transform is exact and runs in small unsigned integers. A
field truncated at d_max only needs min(d^2, w^2) with w = ceil(d_max), so
every distance is capped at w, and a pixel w or more columns or rows from
every edge pixel of its label is w^2. Each label is therefore computed in
its crop: its edge box grown by w - 1 columns, with w - 1 padding rows
above and below (fewer when the raster has fewer rows). All crops of a
stack lie in one 1-D buffer filled with w, each crop row followed by
P = min(w, widest crop) - 1 padding columns. Pass 1 scatters the column
distances of every edge pixel at once, k at k rows above and below for
k = w - 1 down to 1 and then 0 at the pixel, so the nearest edge row is
written last. Pass 2 is a horizontal min-plus with the quadratic kernel
over offsets up to P, run once over the whole buffer; no offset reaches
another row, and padding costs more than w^2, so it yields min(d^2, w^2).
Pass sums stay below 2 * w^2 (uint16 up to w = 181, else uint32), so
integer arithmetic is exact. A (w^2 + 1)-entry table maps each crop's rows
to the output, the same float64 min(sqrt(k), d_max) for every value k;
every other pixel is the table's last entry. The field thus equals a
brute-force nearest-edge-pixel search (0 ULP).

A field stores only this grid; its slope G_u, G_v is taken from the grid
where it is sampled, see bilinear_gather. Fields reach the solver only as
a FieldStack, the layers of one read-only (L, H, W) stack that it indexes
in place. A coarse mask is built from its fine mask's edge pixels, not from
a pass over every block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNCATION_PX = 20.0
DEFAULT_BOUNDARY_MARGIN_PX = 2
# Stride of the coarse masks and fields behind the coarse-to-fine alignment.
COARSE_SCALE = 4


class DimensionMismatch(ValueError):
    """Input rasters do not share the same shape."""


@dataclass(frozen=True, eq=False)
class SemanticEdgeMask:
    """Binary edge raster for one semantic label."""

    label: str
    pixels: np.ndarray  # (H, W) bool

    def __post_init__(self):
        pixels = np.asarray(self.pixels).astype(bool)
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True, eq=False)
class SemanticEdgeField:
    """Truncated distance field V of one label: a layer of a FieldStack."""

    label: str
    distance: np.ndarray  # (H, W) float64, pixels
    d_max: float


def _sum_dtype(cap: int) -> np.dtype:
    """Unsigned integer type of the kernel's values: pass sums stay below 2 * cap^2."""
    return np.promote_types(np.uint16, np.min_scalar_type(2 * cap * cap))


def _edge_distance(edges: np.ndarray, shape: tuple[int, ...], cap: int, table: np.ndarray) -> np.ndarray:
    """table[min(d^2, cap^2)] per pixel of a (..., H, W) stack of ``shape``
    with edge pixels at the sorted flat indices ``edges``; d is the distance
    to the nearest edge pixel in the same (H, W) slice. The non-empty slices'
    crops share one padded buffer (see the module docstring); every other
    pixel is table[cap^2]."""
    out = np.full(shape, table[cap * cap])
    if edges.size == 0:
        return out
    height, width = shape[-2:]
    layers = out.reshape(-1, height, width)
    # Padding rows, and the largest row offset scattered (none reaches past H).
    pad = min(cap, height) - 1
    # Each slice's edge pixels are one row-major run of ``edges``.
    bounds = np.searchsorted(edges, np.arange(len(layers) + 1) * (height * width))
    filled = np.flatnonzero(np.diff(bounds))
    starts, counts = bounds[filled], np.diff(bounds)[filled]
    rows, cols = np.divmod(edges % (height * width), width)
    top, bottom = rows[starts], rows[starts + counts - 1]
    left = np.maximum(np.minimum.reduceat(cols, starts) - (cap - 1), 0)
    right = np.minimum(np.maximum.reduceat(cols, starts) + cap, width)
    # A pass-2 shift is at most gap, so it never reaches another row's pixels.
    gap = min(cap, int((right - left).max())) - 1
    stride = right - left + gap
    size = (bottom - top + 1 + 2 * pad) * stride
    origin = np.cumsum(size) - size  # buffer index of each crop's first row

    # Pass 1: capped column distances from every edge pixel at once, each
    # stepping by its crop's stride. Offsets go from far to near, so each
    # pixel keeps its nearest edge row.
    best = np.full(int(size.sum()), cap, _sum_dtype(cap))
    step = np.repeat(stride, counts)
    base = np.repeat(origin + (pad - top) * stride - left, counts) + rows * step + cols
    up, down = base - pad * step, base + pad * step
    for k in range(pad, 0, -1):
        best[up] = k
        best[down] = k
        up += step
        down -= step
    best[base] = 0

    # Pass 2, in place: 3 contiguous ufunc calls per offset for the whole
    # stack. Padding costs cap^2 + shift^2 and never wins.
    part = np.square(best, out=best).copy()
    cost = np.empty_like(part)
    for shift in range(1, gap + 1):
        np.add(part, shift * shift, out=cost)
        np.minimum(best[shift:], cost[:-shift], out=best[shift:])
        np.minimum(best[:-shift], cost[shift:], out=best[:-shift])
    del part, cost  # before the table lookup allocates, so the peak stays that of pass 2

    # Each crop's rows inside the raster go straight to their layer.
    first, stop = np.maximum(top - pad, 0), np.minimum(bottom + pad + 1, height)
    offset = origin + (first - top + pad) * stride
    for index, a, b, lo, hi, n, at in zip(*(v.tolist() for v in (filled, first, stop, left, right, stride, offset))):
        crop = best[at : at + (b - a) * n].reshape(b - a, n)[:, : hi - lo]
        np.take(table, crop, out=layers[index, a:b, lo:hi], mode="clip")
    return out


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
    table = np.arange(cap * cap + 1.0)
    table[-1] = limit * limit
    return _edge_distance(np.flatnonzero(mask), mask.shape, cap, table)


class FieldStack(dict):
    """The fields the solver reads: by label, each the layer of one (L, H, W)
    ``stack`` that ``layer`` maps it to, all truncated at ``d_max``.

    ``stack`` is a read-only view of the array given, which itself stays
    writable; the solver reads it in place.
    """

    def __init__(self, labels: list[str], stack: np.ndarray, d_max: float):
        stack = stack.view()
        if stack.ndim != 3 or len(stack) != len(labels):
            raise ValueError(f"expected an ({len(labels)}, H, W) stack, got shape {stack.shape}")
        stack.setflags(write=False)
        super().__init__((label, SemanticEdgeField(label, stack[i], d_max)) for i, label in enumerate(labels))
        self.stack = stack
        self.layer = {label: i for i, label in enumerate(labels)}
        self.d_max = d_max


def build_fields(masks: list[SemanticEdgeMask], d_max: float = DEFAULT_TRUNCATION_PX) -> FieldStack:
    """Truncated distance fields for same-shape masks, by label.

    V(x) = min(d_max, distance to the nearest edge pixel); an empty mask
    yields V == d_max everywhere.
    """
    if not masks:
        return FieldStack([], np.empty((0, 1, 1)), d_max)
    if not d_max > 0:
        raise ValueError("d_max must be positive")
    d_max = float(d_max)
    height, width = shape = masks[0].pixels.shape
    for mask in masks:
        if mask.pixels.shape != shape:
            raise DimensionMismatch(f"mask {mask.label!r} has shape {mask.pixels.shape}, the first mask {shape}")
    cap = int(min(np.ceil(d_max), height + width - 1))
    table = np.minimum(np.sqrt(np.arange(cap * cap + 1.0)), d_max)
    # As in squared_edge_distance, a cap below ceil(d_max) marks empty masks.
    table[-1] = d_max
    edges = np.concatenate([np.flatnonzero(m.pixels) + i * height * width for i, m in enumerate(masks)])
    distance = _edge_distance(edges, (len(masks), height, width), cap, table)
    return FieldStack([mask.label for mask in masks], distance, d_max)


def coarsen_mask(mask: SemanticEdgeMask) -> SemanticEdgeMask:
    """Block-OR downsampling by ``COARSE_SCALE``: a coarse pixel is set if
    any fine pixel of its block was.

    The coarse raster is (H // scale, W // scale): edge pixels in the last
    H % scale rows and W % scale columns, which fill no whole block, are
    dropped. The coarse pixel of each remaining edge pixel is set, so only
    the edge pixels are visited, not every block.

    Fields built from coarsened masks keep their truncation radius in
    coarse pixels, so they cover ``scale`` times more image area and give
    the aligner a proportionally wider pull-in range.
    """
    scale = COARSE_SCALE
    height, width = mask.pixels.shape
    ch, cw = height // scale, width // scale
    v, u = np.divmod(np.flatnonzero(mask.pixels), width)
    whole = (v < ch * scale) & (u < cw * scale)
    pixels = np.zeros((ch, cw), dtype=bool)
    pixels[v[whole] // scale, u[whole] // scale] = True
    return SemanticEdgeMask(mask.label, pixels)


def bilinear_gather(grids: np.ndarray, offset, u, v):
    """Bilinear interpolation of an (L, H, W) stack at each sub-pixel
    location (u, v), in the layer that starts at ``offset`` in the flattened
    stack (layer * H * W, one per location or a scalar); returns
    ``(V, slope)``.

    Each corner is read from the flattened stack with one index array,
    ``offset + iv * W + iu`` plus a column and a row step. The weights are
    products of (1 - fu, fu) and (1 - fv, fv), each factor formed once. A
    one-pixel-wide or -tall grid interpolates along its other axis only.

    ``slope()`` returns (G_u, G_v) from V's four corner reads plus 8 more.
    Each corner's slope along an axis of n pixels is NumPy's gradient,
    (D[hi] - D[lo]) / max(hi - lo, 1) with lo = max(i - 1, 0),
    hi = min(i + 1, n - 1), weighted as V is, so G_u, G_v equal a gather
    over gradient grids byte for byte. hi - lo is 1 or 2, and dividing by
    it is multiplying by 1.0 or 0.5: the same correctly rounded quotient.

    Every location must lie in the grid, 0 <= u <= W - 1 and 0 <= v <= H - 1,
    as the solver's validity mask ensures; there the integer cast is the
    floor, and no lower bound is needed.
    """
    height, width = grids.shape[-2:]
    iu = np.minimum(u.astype(int), max(width - 2, 0))
    iv = np.minimum(v.astype(int), max(height - 2, 0))
    fu = u - iu
    fv = v - iv
    gu = 1.0 - fu
    gv = 1.0 - fv
    w00 = gu * gv
    w10 = fu * gv
    w01 = gu * fv
    w11 = fu * fv
    # Steps from the (iu, iv) corner to the far column and row: none on a
    # one-pixel axis. dv is the row step in flat-index units.
    du, dv = int(width > 1), int(height > 1) * width
    flat = np.ravel(grids)
    b00 = offset + iv * width + iu
    b10 = b00 + du
    b01 = b00 + dv
    b11 = b01 + du
    d00 = flat.take(b00)
    d10 = flat.take(b10)
    d01 = flat.take(b01)
    d11 = flat.take(b11)
    value = d00 * w00 + d10 * w10 + d01 * w01 + d11 * w11

    def slope():
        # Whether the near column iu has a column left of it and the far
        # column one right of it: there lo = iu - 1 or hi = far + 1, and
        # hi - lo = 2. Otherwise the corner itself is that end and
        # hi - lo = 1. Rows alike; up and down are in flat-index units.
        left, right = iu > 0, iu < width - 2
        top, bottom = iv > 0, iv < height - 2
        hu0, hu1 = np.where(left, 0.5, 1.0), np.where(right, 0.5, 1.0)
        hv0, hv1 = np.where(top, 0.5, 1.0), np.where(bottom, 0.5, 1.0)
        up, down = top * width, bottom * width
        grad_u = (
            (d10 - flat.take(b00 - left)) * hu0 * w00
            + (flat.take(b10 + right) - d00) * hu1 * w10
            + (d11 - flat.take(b01 - left)) * hu0 * w01
            + (flat.take(b11 + right) - d01) * hu1 * w11
        )
        grad_v = (
            (d01 - flat.take(b00 - up)) * hv0 * w00
            + (d11 - flat.take(b10 - up)) * hv0 * w10
            + (flat.take(b01 + down) - d00) * hv1 * w01
            + (flat.take(b11 + down) - d10) * hv1 * w11
        )
        return grad_u, grad_v

    return value, slope


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a (2r+1)-square structuring element: the square
    is separable, so one (2r+1)-wide pass over the columns and one over the
    rows take 2(2r+1) slice ORs instead of (2r+1)^2. A radius of
    max(H, W) - 1 already reaches every pixel, so a larger one is clamped."""
    if radius <= 0 or not mask.any():
        return mask.copy()
    height, width = mask.shape
    radius = min(radius, max(height, width) - 1)
    padded = np.zeros((height + 2 * radius, width + 2 * radius), dtype=bool)
    padded[radius:radius + height, radius:radius + width] = mask
    wide = np.zeros((height + 2 * radius, width), dtype=bool)
    for du in range(2 * radius + 1):
        wide |= padded[:, du:du + width]
    out = np.zeros((height, width), dtype=bool)
    for dv in range(2 * radius + 1):
        out |= wide[dv:dv + height]
    return out


def build_edge_masks(
    label_image: np.ndarray,
    edge_map: np.ndarray,
    dynamic_mask: np.ndarray,
    labels: list[str] | tuple[str, ...],
    boundary_margin: int = DEFAULT_BOUNDARY_MARGIN_PX,
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
        masks.append(SemanticEdgeMask(name, keep & (label_image == index)))
    return masks
