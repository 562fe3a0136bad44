"""Contraction map families: evaluation, derivative ranges, enclosures.

Supported families (ambient dimension D in {1, 2}):

  * Similarity / ConformalAffine / PerturbedAffine / Constant -- affine maps
    whose linear part is a scalar times a rotation (a complex scalar in D=2,
    a signed real in D=1).  Derivative norms are constant, so ranges are
    exact points.
  * MoebiusCF / PerturbedMoebiusCF -- inverse-branch maps z -> 1/(e+z) of the
    complex continued-fraction algorithm and their degenerating relatives
    z -> 1/(e + 1/2 + eps*(z - 1/2)).  Disk geometry is exact: the image of a
    disk is a disk, and |T'| ranges over a disk are closed-form.

Every family is conformal, so one number, the operator norm ||T'||, is the
size of a derivative; it is zero for constant maps (the degenerate flag of
a derivative range records that).  Sets are balls: every family sends a
ball onto a ball, so image_enclosure returns the image itself, and in the
plane disk_image is the one kernel behind it.
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


_AFFINE_KINDS = (Similarity, ConformalAffine, Constant, PerturbedAffine)
_MOEBIUS_KINDS = (MoebiusCF, PerturbedMoebiusCF)


def _linear_scalar(spec):
    """Complex scalar (or real, D=1) of an affine map's derivative."""
    if isinstance(spec, Similarity):
        if spec.dim == 1:
            return -spec.ratio if spec.reflect else spec.ratio
        return spec.ratio * cmath.exp(1j * spec.rotation)
    if isinstance(spec, ConformalAffine):
        return spec.linear
    if isinstance(spec, PerturbedAffine):
        return spec.effective_linear
    if isinstance(spec, Constant):
        return 0.0
    raise MixedFamily(f"not an affine map: {type(spec).__name__}")


def apply(spec, point):
    """Evaluate the map at a point (tuples in, tuples out)."""
    if isinstance(spec, Constant):
        return spec.target
    if isinstance(spec, _AFFINE_KINDS):
        lin = _linear_scalar(spec)
        if spec.dim == 1:
            x = point[0]
            if isinstance(spec, (ConformalAffine,)) and spec.reflect:
                x = -x
            shift = spec.translation[0]
            if isinstance(spec, PerturbedAffine):
                shift += spec.epsilon * spec.drift[0]
            lin_r = lin.real if isinstance(lin, complex) else lin
            return (lin_r * x + shift,)
        z = as_complex(point)
        if getattr(spec, "reflect", False):
            z = z.conjugate()
        shift = as_complex(spec.translation)
        if isinstance(spec, PerturbedAffine):
            shift += spec.epsilon * as_complex(spec.drift)
        w = lin * z + shift
        return (w.real, w.imag)
    if isinstance(spec, MoebiusCF):
        z = as_complex(point)
        den = spec.e + z
        if abs(den) < _POLE_MARGIN:
            raise DomainViolation(f"point {point} too close to pole of 1/({spec.e}+z)")
        w = 1.0 / den
        return (w.real, w.imag)
    if isinstance(spec, PerturbedMoebiusCF):
        z = as_complex(point)
        den = spec.e + 0.5 + spec.epsilon * (z - 0.5)
        if abs(den) < _POLE_MARGIN:
            raise DomainViolation(f"point {point} too close to pole")
        w = 1.0 / den
        return (w.real, w.imag)
    raise UnsupportedShape(f"unknown map spec {type(spec).__name__}")


def _moebius_disk(spec, cx, cy, r):
    """Centre (real, imaginary) and radius of the disk that the inversion
    sees: e + B(c, r), or e + 1/2 + eps*(B(c, r) - 1/2) when perturbed.
    Real component arithmetic, elementwise over floats or float64 arrays,
    rounds as the complex scalar formulas do."""
    if isinstance(spec, MoebiusCF):
        return spec.e.real + cx, spec.e.imag + cy, r
    eps = spec.epsilon
    return (spec.e.real + 0.5) + eps * (cx - 0.5), spec.e.imag + eps * cy, eps * r


def moebius_derivative_range(spec, cx, cy, r):
    """(lower, upper) of |T'| over the disks B((cx, cy), r), elementwise:
    |e+z| ranges over [|e+c|-rho, |e+c|+rho].  np.hypot rounds as
    abs(complex) does and np.square as x*x does, so arrays and the scalar
    wrapper give the same bits."""
    ar, ai, rho = _moebius_disk(spec, cx, cy, r)
    dist = np.hypot(ar, ai)
    gap = dist - rho
    if (gap <= _POLE_MARGIN).any():
        raise DomainViolation(f"set reaches within {np.min(gap):.3g} of the pole")
    scale = spec.epsilon if isinstance(spec, PerturbedMoebiusCF) else 1.0
    return scale / np.square(dist + rho), scale / np.square(gap)


def disk_image(spec, cx, cy, r):
    """Centre (cx, cy) and radius of the image disks of planar disks
    B((cx, cy), r), elementwise over floats or float64 arrays.  Inversion
    w -> 1/w sends B(a, rho) to B(conj(a)/(|a|^2-rho^2), rho/(|a|^2-rho^2))
    when 0 is outside the disk; affine maps round as apply() does."""
    if isinstance(spec, _MOEBIUS_KINDS):
        ar, ai, rho = _moebius_disk(spec, cx, cy, r)
        mod2 = np.square(np.hypot(ar, ai)) - np.square(rho)
        if (mod2 <= _POLE_MARGIN).any():
            raise DomainViolation("pole inside or touching the set")
        return ar / mod2, -ai / mod2, rho / mod2
    if spec.dim != 2:
        raise UnsupportedShape(f"disk images need a planar map, not dimension {spec.dim}")
    if isinstance(spec, Constant):
        x, y = spec.target
        return np.full_like(cx, x), np.full_like(cy, y), np.zeros_like(r)
    lin = complex(_linear_scalar(spec))
    if getattr(spec, "reflect", False):
        cy = -cy
    shift = as_complex(spec.translation)
    if isinstance(spec, PerturbedAffine):
        shift += spec.epsilon * as_complex(spec.drift)
    x = lin.real * cx - lin.imag * cy + shift.real
    y = lin.real * cy + lin.imag * cx + shift.imag
    return x, y, abs(_linear_scalar(spec)) * r


def derivative_range_over_set(spec, ball):
    """Certified range of ||T'|| over a ball.

    Affine families give exact one-point ranges; Moebius families use the
    closed-form |e+z| in [|e+c|-rho, |e+c|+rho].
    """
    if isinstance(spec, Constant):
        return DerivativeRange(0.0, 0.0, degenerate=True)
    if isinstance(spec, _AFFINE_KINDS):
        a = abs(_linear_scalar(spec))
        return DerivativeRange(a, a, degenerate=(a == 0.0))
    if isinstance(spec, _MOEBIUS_KINDS):
        if ball.dim != 2:
            raise UnsupportedShape("Moebius maps act on the plane")
        lo, hi = moebius_derivative_range(spec, *ball.center, ball.radius)
        return DerivativeRange(float(lo), float(hi))
    raise UnsupportedShape(f"unknown map spec {type(spec).__name__}")


def image_enclosure(spec, ball):
    """The image T(ball), itself a ball: disk_image in the plane, apply at
    the centre on the line."""
    if ball.dim == 2:
        x, y, radius = disk_image(spec, *ball.center, ball.radius)
        return Ball((x, y), float(radius))
    if isinstance(spec, _MOEBIUS_KINDS):
        raise UnsupportedShape("Moebius maps act on the plane")
    return Ball(apply(spec, ball.center), abs(_linear_scalar(spec)) * ball.radius)
