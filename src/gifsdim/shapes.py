"""Shape primitives: balls for seeds, neighborhoods and image enclosures,
boxes for raster bounds.

Shapes are immutable and live in R^D for D in {1, 2}.  A Ball is an interval
(D=1) or a disk (D=2); every seed and neighborhood is one, and every
supported map sends a ball onto a ball.  A Box is an axis-aligned product of
intervals and only bounds rasters.  All predicates take an absolute
geometric tolerance, default GEOM_TOL, because exactly tangent
configurations occur in the built-in systems (two image disks of the
continued-fraction family touch at a point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedShape

GEOM_TOL = 1e-12


@dataclass(frozen=True)
class Ball:
    """Closed ball: interval when len(center) == 1, disk when 2."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius < 0:
            raise ValueError(f"negative radius {self.radius}")

    @property
    def dim(self):
        return len(self.center)

    @property
    def diameter(self):
        return 2.0 * self.radius


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box given by componentwise bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(c) for c in self.lo))
        object.__setattr__(self, "hi", tuple(float(c) for c in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box {self.lo}..{self.hi}")

    @property
    def dim(self):
        return len(self.lo)


def as_complex(point):
    """View a 2-D point as a complex number (1-D points map to the real line)."""
    if len(point) == 1:
        return complex(point[0], 0.0)
    if len(point) == 2:
        return complex(point[0], point[1])
    raise UnsupportedShape(f"points of dimension {len(point)}")


def contains_point(shape, point, tol=GEOM_TOL):
    if isinstance(shape, Ball):
        return math.dist(shape.center, point) <= shape.radius + tol
    if isinstance(shape, Box):
        return all(
            l - tol <= x <= h + tol for x, l, h in zip(point, shape.lo, shape.hi)
        )
    raise UnsupportedShape(type(shape).__name__)


def interior_margin(outer, inner):
    """How deep ball `inner` sits inside ball `outer`: the largest delta such
    that the delta-dilation of inner still fits (negative when inner pokes
    out)."""
    return outer.radius - (math.dist(outer.center, inner.center) + inner.radius)


def overlap_witness_point(a, b):
    """A point in the interior of both balls, or None when they do not
    overlap."""
    d = math.dist(a.center, b.center)
    if d >= a.radius + b.radius:
        return None
    if d == 0.0:
        return tuple(a.center)
    # Midpoint of the lens along the center segment.
    t = 0.5 * (1.0 + (a.radius - b.radius) / d)
    t = min(max(t, 0.0), 1.0)
    return tuple(
        ca + t * (cb - ca) for ca, cb in zip(a.center, b.center)
    )
