"""Distance fields from semantic edge masks.

Builds a small edge mask, computes its truncated Euclidean distance
transform and its horizontal gradient, sampled at every pixel centre, and
prints them as character art so the valley structure is visible in a
terminal.
"""

import numpy as np

from edgeloc import SemanticEdgeMask, build_fields
from edgeloc.edge_features import bilinear_gather

SHADES = " .:-=+*#%@"


def ascii_grid(grid, lo, hi):
    scaled = np.clip((grid - lo) / max(hi - lo, 1e-9), 0.0, 0.999)
    return "\n".join("".join(SHADES[int(s * len(SHADES))] for s in row) for row in scaled)


def main():
    mask = np.zeros((24, 48), dtype=bool)
    mask[6, 4:28] = True            # a horizontal lane-like edge
    mask[6:20, 34] = True           # a pole-like vertical edge
    mask[16, 10:22] = True          # a second road mark

    fields = build_fields([SemanticEdgeMask("demo", mask)], d_max=12.0)
    distance = fields.stack[fields.layer["demo"]]

    print("edge mask (X = edge pixel):")
    print("\n".join("".join("X" if px else "." for px in row) for row in mask))
    print("\ndistance transform V (dark = close to an edge):")
    print(ascii_grid(distance, 0.0, fields.d_max))
    print("\nhorizontal gradient G_u (dark = negative, bright = positive):")
    height, width = distance.shape
    v, u = np.mgrid[0:height, 0:width].astype(float)
    grad_u, _ = bilinear_gather(fields.stack, fields.layer["demo"] * height * width, u, v)[1]()
    print(ascii_grid(grad_u, -1.0, 1.0))

    print("\nstats:")
    print(f"  V range      [{distance.min():.2f}, {distance.max():.2f}] px")
    print(f"  truncation   {fields.d_max} px")
    print(f"  zero pixels  {(distance == 0).sum()} (== {mask.sum()} edge pixels)")


if __name__ == "__main__":
    main()
