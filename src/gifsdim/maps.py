"""Contraction map families: evaluation, derivative ranges, enclosures.

Supported families (ambient dimension D in {1, 2}):

  * Similarity / ConformalAffine / PerturbedAffine / Constant -- affine maps
    whose linear part is a scalar times a rotation.  Derivative norms are
    constant, so ranges are exact points.
  * MoebiusCF / PerturbedMoebiusCF -- inverse-branch maps z -> 1/(e+z) of the
    complex continued-fraction algorithm and their degenerating relatives
    z -> 1/(e + 1/2 + eps*(z - 1/2)).  Disk geometry is exact: the image of a
    disk is a disk, and |T'| ranges over a disk are closed-form.

Each family has one normal form, and the kernels read only that form.  An
affine map is _affine_form's (lin, conj, shift): z -> lin * z + shift, z
conjugated first when conj (a Constant has lin 0); a Moebius map inverts
_moebius_disk's shifted disk.  The line is the plane's real axis: there lin
is a signed real, whose sign is a reflection x -> -x.

Every family is conformal, so one number, the operator norm ||T'||, is the
size of a derivative; it is zero for constant maps (the degenerate flag of
a derivative range records that).  Sets are balls: every family sends a
ball onto a ball, disk_image computes it in either dimension, and apply is
its zero-radius case for affine maps.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, MixedFamily, UnsupportedShape
from .shapes import Ball, as_complex

_POLE_MARGIN = 1e-9     # refuse derivative/image math closer to a pole


@dataclass(frozen=True)
class Similarity:
    """x -> ratio * R(x) + translation with R a rotation (and optional
    reflection); ratio must lie in (0, 1)."""

    ratio: float
    translation: tuple
    rotation: float = 0.0
    reflect: bool = False

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"similarity ratio {self.ratio} outside (0,1)")
        object.__setattr__(self, "translation", tuple(map(float, self.translation)))

    @property
    def dim(self):
        return len(self.translation)


@dataclass(frozen=True)
class ConformalAffine:
    """x -> linear * x + translation, linear a complex (D=2) or real (D=1)
    scalar; reflect conjugates first (D=2) or flips sign (D=1)."""

    linear: complex
    translation: tuple
    reflect: bool = False

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(map(float, self.translation)))

    @property
    def dim(self):
        return len(self.translation)


@dataclass(frozen=True)
class Constant:
    """x -> target.  The degenerate limit of a vanishing contraction."""

    target: tuple

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(map(float, self.target)))

    @property
    def dim(self):
        return len(self.target)


@dataclass(frozen=True)
class PerturbedAffine:
    """x -> (base + eps*bump) * x + translation + eps*drift.

    The linear part stays a conformal scalar for every eps, the perturbation
    norm is |bump|*eps, and the eps->0 limit is the affine map
    (base, translation); base may be 0, making the limit a Constant."""

    base: complex
    bump: complex
    translation: tuple
    drift: tuple
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        object.__setattr__(self, "translation", tuple(map(float, self.translation)))
        object.__setattr__(self, "drift", tuple(map(float, self.drift)))

    @property
    def effective_linear(self):
        return self.base + self.epsilon * self.bump

    @property
    def dim(self):
        return len(self.translation)


@dataclass(frozen=True)
class MoebiusCF:
    """z -> 1/(e+z) on the standard disk; e has real part >= 1."""

    e: complex

    def __post_init__(self):
        object.__setattr__(self, "e", complex(self.e))
        if self.e.real < 1.0:
            raise ValueError(f"letter {self.e} has real part < 1")

    @property
    def dim(self):
        return 2


@dataclass(frozen=True)
class PerturbedMoebiusCF:
    """z -> 1/(e + 1/2 + eps*(z - 1/2)); degenerates to the constant
    1/(e + 1/2) as eps -> 0."""

    e: complex
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "e", complex(self.e))
        if self.e.real < 1.0:
            raise ValueError(f"letter {self.e} has real part < 1")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon {self.epsilon} outside (0, 1]")

    @property
    def dim(self):
        return 2


@dataclass(frozen=True)
class DerivativeRange:
    """Certified enclosure [lower, upper] of ||T'|| over a set: it contains
    the whole range and may be wider.  `degenerate` marks identically-zero
    derivatives (constant maps)."""

    lower: float
    upper: float
    degenerate: bool = False

    def __post_init__(self):
        if self.lower < 0 or self.upper < self.lower:
            raise ValueError(f"bad range [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower


_MOEBIUS_KINDS = (MoebiusCF, PerturbedMoebiusCF)


def _on_plane(point):
    """(x, y) of a point of the plane or of the line, its real axis."""
    return point[0], point[1] if len(point) == 2 else 0.0


def _affine_form(spec):
    """(lin, conj, shift) of an affine map x -> lin * x + shift, x conjugated
    first when conj, with complex lin and shift.  On the line lin is real and
    a reflection x -> -x is its sign.  The one reader of affine spec fields."""
    if isinstance(spec, Similarity):
        lin = spec.ratio * cmath.exp(1j * spec.rotation) if spec.dim == 2 else spec.ratio
        conj, shift = spec.reflect, as_complex(spec.translation)
    elif isinstance(spec, ConformalAffine):
        lin, conj, shift = spec.linear, spec.reflect, as_complex(spec.translation)
    elif isinstance(spec, PerturbedAffine):
        lin, conj = spec.effective_linear, False
        shift = as_complex(spec.translation) + spec.epsilon * as_complex(spec.drift)
    elif isinstance(spec, Constant):
        lin, conj, shift = 0.0, False, as_complex(spec.target)
    else:
        raise MixedFamily(f"not an affine map: {type(spec).__name__}")
    if spec.dim == 1:
        return complex(-lin.real if conj else lin.real), False, shift
    return complex(lin), conj, shift


def _moebius_disk(spec, cx, cy, r):
    """(ar, ai, rho, scale): the disk B(ar + i ai, rho) that the inversion
    sees, e + B(c, r) or e + 1/2 + eps*(B(c, r) - 1/2) when perturbed, and
    the derivative scale, 1 or eps, of that inner affine step.  The one
    reader of Moebius spec fields.  Real component arithmetic, elementwise
    over floats or float64 arrays, rounds as the complex scalar formulas do."""
    if isinstance(spec, MoebiusCF):
        return spec.e.real + cx, spec.e.imag + cy, r, 1.0
    eps = spec.epsilon
    return (spec.e.real + 0.5) + eps * (cx - 0.5), spec.e.imag + eps * cy, eps * r, eps


def apply(spec, point):
    """Evaluate the map at a point (tuples in, tuples out)."""
    x, y = _on_plane(point)
    if isinstance(spec, _MOEBIUS_KINDS):
        ar, ai, _, _ = _moebius_disk(spec, x, y, 0.0)
        den = complex(ar, ai)
        if abs(den) < _POLE_MARGIN:
            raise DomainViolation(f"point {point} too close to a pole")
        w = 1.0 / den
        return (w.real, w.imag)
    x, y, _ = disk_image(spec, x, y, 0.0)
    return (x, y)[:len(point)]


def moebius_derivative_range(spec, cx, cy, r):
    """(lower, upper) of |T'| over the disks B((cx, cy), r), elementwise:
    |e+z| ranges over [|e+c|-rho, |e+c|+rho].  np.hypot rounds as
    abs(complex) does and np.square as x*x does, so arrays and the scalar
    wrapper give the same bits."""
    ar, ai, rho, scale = _moebius_disk(spec, cx, cy, r)
    dist = np.hypot(ar, ai)
    gap = dist - rho
    if (gap <= _POLE_MARGIN).any():
        raise DomainViolation(f"set reaches within {np.min(gap):.3g} of the pole")
    return scale / np.square(dist + rho), scale / np.square(gap)


def disk_image(spec, cx, cy, r):
    """Centre (cx, cy) and radius of the image disks of disks B((cx, cy), r),
    elementwise over floats or float64 arrays; on the line cy is 0.
    Inversion w -> 1/w sends B(a, rho) to B(conj(a)/(|a|^2-rho^2),
    rho/(|a|^2-rho^2)) when 0 is outside the disk; affine maps multiply out
    lin * z componentwise, as complex arithmetic rounds it."""
    if isinstance(spec, _MOEBIUS_KINDS):
        ar, ai, rho, _ = _moebius_disk(spec, cx, cy, r)
        mod2 = np.square(np.hypot(ar, ai)) - np.square(rho)
        if (mod2 <= _POLE_MARGIN).any():
            raise DomainViolation("pole inside or touching the set")
        return ar / mod2, -ai / mod2, rho / mod2
    lin, conj, shift = _affine_form(spec)
    if conj:
        cy = -cy
    return (lin.real * cx - lin.imag * cy + shift.real,
            lin.real * cy + lin.imag * cx + shift.imag, abs(lin) * r)


def derivative_range_over_set(spec, ball):
    """Certified range of ||T'|| over a ball: the one point |lin| for affine
    maps, degenerate when it is 0; moebius_derivative_range for Moebius."""
    if isinstance(spec, _MOEBIUS_KINDS):
        if ball.dim != 2:
            raise UnsupportedShape("Moebius maps act on the plane")
        lo, hi = moebius_derivative_range(spec, *ball.center, ball.radius)
        return DerivativeRange(float(lo), float(hi))
    a = abs(_affine_form(spec)[0])
    return DerivativeRange(a, a, degenerate=(a == 0.0))


def image_enclosure(spec, ball):
    """The image T(ball), itself a ball: disk_image of the ball, a ball on
    the line being a disk about the plane's real axis."""
    if isinstance(spec, _MOEBIUS_KINDS) and ball.dim != 2:
        raise UnsupportedShape("Moebius maps act on the plane")
    x, y, radius = disk_image(spec, *_on_plane(ball.center), ball.radius)
    return Ball((x, y)[:ball.dim], float(radius))
