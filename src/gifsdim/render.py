"""Limit-set geometry: coding points with certified radii, deterministic
point clouds and portable-graymap rasterization.

A depth-n coding point is the n-fold map composition applied to an anchor
in the terminal seed; the composed enclosure's diameter is a certified
radius for every infinite continuation of the word.  Clouds enumerate
admissible words depth-first in alphabet order and truncate at a cap, so
every artifact is reproducible byte for byte.
"""

from dataclasses import dataclass

import numpy as np

from . import maps as mapslib
from .errors import DegenerateBounds, NonAdmissibleWord
from .shapes import Box, contains_point

__all__ = [
    "PointCloud",
    "RasterImage",
    "coding_map",
    "generate_point_cloud",
    "rasterize",
]


def coding_map(system, word, anchor=None):
    """Finite-depth coding point plus a radius covering the true limit.

    Returns (T_{w0} o ... o T_{wn})(anchor) and the diameter of the
    composed seed enclosure; the coding point of every infinite word
    extending this prefix lies within that radius of the returned point.
    """
    word = tuple(word)
    shape = system.enclosure(word)  # validates nonempty + junctions
    seed = system.seed(system.graph.terminal(word[-1])).seed
    if anchor is None:
        anchor = seed.center
    anchor = tuple(float(c) for c in anchor)
    if not contains_point(seed, anchor, tol=1e-9):
        raise NonAdmissibleWord(
            f"anchor {anchor} lies outside the terminal seed"
        )
    pt = anchor
    for e in reversed(word):
        pt = mapslib.apply(system.map_of(e), pt)
    return pt, shape.diameter


@dataclass(frozen=True)
class PointCloud:
    """Deterministic sample of the limit set.

    points holds (point, radius, word) triples in word-enumeration order;
    radii decay geometrically with depth (contraction certificate times
    the largest seed diameter).
    """

    points: tuple
    system: str
    depth: int
    horizon: int

    def __len__(self):
        return len(self.points)

    def coordinates(self):
        return np.array([p for p, _, _ in self.points], dtype=float)


def generate_point_cloud(system, depth, horizon, cap=100000):
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    letters = system.letters(horizon)
    out = []
    stack = [(e,) for e in reversed(letters)]
    while stack and len(out) < cap:
        prefix = stack.pop()
        if len(prefix) == depth:
            pt, radius = coding_map(system, prefix)
            out.append((pt, radius, prefix))
            continue
        for e in reversed(system.out_edges(system.graph.terminal(prefix[-1]), horizon)):
            stack.append(prefix + (e,))
    return PointCloud(tuple(out), system.name, depth, len(letters))


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Hit-count grid over a rectangle (or an interval as a 1-pixel strip).

    Row 0 is the top of the image (largest second coordinate).
    """

    width: int
    height: int
    bounds: object
    grid: np.ndarray

    def occupancy(self):
        return self.grid > 0

    def to_pgm(self, binary=False):
        """Serialize as portable graymap bytes (P2 text, P5 raw)."""
        peak = int(self.grid.max()) if self.grid.size else 0
        if binary:
            maxval = min(max(peak, 1), 255)
            clipped = np.minimum(self.grid, maxval).astype(np.uint8)
            head = f"P5\n{self.width} {self.height}\n{maxval}\n"
            return head.encode("ascii") + clipped.tobytes()
        maxval = max(peak, 1)
        lines = [f"P2\n{self.width} {self.height}\n{maxval}"]
        for row in self.grid:
            lines.append(" ".join(str(int(v)) for v in row))
        return ("\n".join(lines) + "\n").encode("ascii")


def rasterize(cloud, bounds, resolution):
    """Fold the cloud into a hit-count grid, deterministically.

    bounds is a Box of dimension 1 or 2 with positive extent along every
    axis; resolution is the pixel width.  Points outside the bounds are
    skipped; every point inside lands in exactly one pixel.
    """
    if not isinstance(bounds, Box):
        raise DegenerateBounds(f"bounds must be a Box, got {type(bounds).__name__}")
    if bounds.dim not in (1, 2):
        raise DegenerateBounds(f"can only rasterize dimension 1 or 2, got {bounds.dim}")
    resolution = int(resolution)
    if resolution < 1:
        raise DegenerateBounds("resolution must be >= 1")
    spans = [hi - lo for lo, hi in zip(bounds.lo, bounds.hi)]
    if any(s <= 0.0 for s in spans):
        raise DegenerateBounds(f"bounds have empty extent: {bounds}")
    width = resolution
    if bounds.dim == 1:
        height = 1
    else:
        height = max(1, round(width * spans[1] / spans[0]))
    grid = np.zeros((height, width), dtype=np.int64)
    x0, x1 = bounds.lo[0], bounds.hi[0]
    for pt, _, _ in cloud.points:
        if not contains_point(bounds, pt, tol=0.0):
            continue
        col = min(int((pt[0] - x0) / (x1 - x0) * width), width - 1)
        if bounds.dim == 1:
            row = 0
        else:
            y0, y1 = bounds.lo[1], bounds.hi[1]
            row = min(int((y1 - pt[1]) / (y1 - y0) * height), height - 1)
        grid[row, col] += 1
    return RasterImage(width, height, bounds, grid)
