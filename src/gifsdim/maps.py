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
a derivative range records that).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, MixedFamily, UnsupportedShape
from .shapes import Ball, Box, as_complex, circumball

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
    """Certified enclosure [lower, upper] of ||T'|| over a set.

    `certified` means the interval provably contains the whole range (it may
    be wider than the true range).  `degenerate` marks identically-zero
    derivatives (constant maps)."""

    lower: float
    upper: float
    certified: bool = True
    degenerate: bool = False

    def __post_init__(self):
        if self.lower < 0 or self.upper < self.lower:
            raise ValueError(f"bad range [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower


@dataclass(frozen=True)
class DistortionProfile:
    """Bounded-distortion data for a map family.

    holder_constant: C with | ||T'x|| - ||T'y|| | <= C*||T'x||*|x-y|^beta on
    the working neighborhoods; 0 for affine families.
    chain_constant: the same control propagated along arbitrary compositions
    (geometric series times an infinite product; finite whenever the family
    contracts).
    log_product_ratio: log of the bound on sup/inf of derivative products
    over a cylinder; exp() of it can overflow for Moebius families, so the
    log is the stored quantity.
    """

    holder_constant: float
    beta: float
    chain_constant: float
    log_product_ratio: float
    c_mt: float = 1.0


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


def derivative_norm(spec, point):
    """||T'(point)|| (operator norm of the derivative)."""
    if isinstance(spec, Constant):
        return 0.0
    if isinstance(spec, _AFFINE_KINDS):
        return abs(_linear_scalar(spec))
    if isinstance(spec, MoebiusCF):
        den = spec.e + as_complex(point)
        if abs(den) < _POLE_MARGIN:
            raise DomainViolation("derivative at a pole")
        return 1.0 / abs(den) ** 2
    if isinstance(spec, PerturbedMoebiusCF):
        den = spec.e + 0.5 + spec.epsilon * (as_complex(point) - 0.5)
        if abs(den) < _POLE_MARGIN:
            raise DomainViolation("derivative at a pole")
        return spec.epsilon / abs(den) ** 2
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
    |e+z| ranges over [|e+c|-rho, |e+c|+rho].  np.hypot and np.float_power
    round as abs(complex) and libm pow do, so arrays and the scalar wrapper
    give the same bits."""
    ar, ai, rho = _moebius_disk(spec, cx, cy, r)
    dist = np.hypot(ar, ai)
    gap = dist - rho
    if (gap <= _POLE_MARGIN).any():
        raise DomainViolation(f"set reaches within {np.min(gap):.3g} of the pole")
    scale = spec.epsilon if isinstance(spec, PerturbedMoebiusCF) else 1.0
    return scale / np.float_power(dist + rho, 2), scale / np.float_power(gap, 2)


def disk_image(spec, cx, cy, r):
    """Centre (cx, cy) and radius of the image disks of planar disks
    B((cx, cy), r), elementwise over floats or float64 arrays.  Inversion
    w -> 1/w sends B(a, rho) to B(conj(a)/(|a|^2-rho^2), rho/(|a|^2-rho^2))
    when 0 is outside the disk; affine maps round as apply() does."""
    if isinstance(spec, _MOEBIUS_KINDS):
        ar, ai, rho = _moebius_disk(spec, cx, cy, r)
        mod2 = np.float_power(np.hypot(ar, ai), 2) - np.float_power(rho, 2)
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


def derivative_range_over_set(spec, shape):
    """Certified range of ||T'|| over a shape.

    Affine families give exact one-point ranges.  Moebius families on balls
    use the closed-form |e+z| in [|e+c|-rho, |e+c|+rho]; boxes go through the
    circumscribed ball, still certified but conservative.
    """
    if isinstance(spec, Constant):
        return DerivativeRange(0.0, 0.0, certified=True, degenerate=True)
    if isinstance(spec, _AFFINE_KINDS):
        a = abs(_linear_scalar(spec))
        return DerivativeRange(a, a, certified=True, degenerate=(a == 0.0))
    if isinstance(spec, _MOEBIUS_KINDS):
        if not isinstance(shape, (Ball, Box)):
            raise UnsupportedShape(type(shape).__name__)
        if shape.dim != 2:
            raise UnsupportedShape("Moebius maps act on the plane")
        ball = circumball(shape)
        lo, hi = moebius_derivative_range(spec, *ball.center, ball.radius)
        return DerivativeRange(float(lo), float(hi), certified=True)
    raise UnsupportedShape(f"unknown map spec {type(spec).__name__}")


def image_enclosure(spec, shape):
    """(enclosure, exact) for the image of a shape.

    exact=True means the returned shape IS the image, not just a superset.
    """
    if isinstance(spec, Constant):
        return Ball(spec.target, 0.0), True
    if isinstance(spec, _AFFINE_KINDS):
        scale = abs(_linear_scalar(spec))
        if isinstance(shape, Ball):
            return Ball(apply(spec, shape.center), scale * shape.radius), True
        if isinstance(shape, Box):
            if shape.dim == 1:
                a = apply(spec, (shape.lo[0],))[0]
                b = apply(spec, (shape.hi[0],))[0]
                return Box((min(a, b),), (max(a, b),)), True
            corners = [
                apply(spec, p)
                for p in (
                    (shape.lo[0], shape.lo[1]),
                    (shape.lo[0], shape.hi[1]),
                    (shape.hi[0], shape.lo[1]),
                    (shape.hi[0], shape.hi[1]),
                )
            ]
            xs = [p[0] for p in corners]
            ys = [p[1] for p in corners]
            lin = _linear_scalar(spec)
            axis_aligned = (
                abs(lin.imag if isinstance(lin, complex) else 0.0) < 1e-15
                or abs(lin.real if isinstance(lin, complex) else lin) < 1e-15
            )
            return Box((min(xs), min(ys)), (max(xs), max(ys))), axis_aligned
        raise UnsupportedShape(type(shape).__name__)
    if isinstance(spec, _MOEBIUS_KINDS):
        if shape.dim != 2:
            raise UnsupportedShape("Moebius maps act on the plane")
        # boxes go through their circumscribed ball: certified, not exact
        ball = circumball(shape)
        x, y, radius = disk_image(spec, *ball.center, ball.radius)
        return Ball((x, y), float(radius)), isinstance(shape, Ball)
    raise UnsupportedShape(f"unknown map spec {type(spec).__name__}")


def _log_deriv_lipschitz(spec, neighborhoods):
    """Lipschitz constant of x -> log||T'(x)|| over the given shapes."""
    if isinstance(spec, _AFFINE_KINDS):
        return 0.0
    best = 0.0
    for shape in neighborhoods:
        ball = circumball(shape)
        ar, ai, rho = _moebius_disk(spec, *ball.center, ball.radius)
        low = float(np.hypot(ar, ai)) - rho
        if low <= _POLE_MARGIN:
            raise DomainViolation("neighborhood reaches the pole")
        # |d/dz log|T'|| = 2*scale/|denominator|; the perturbed family's
        # inner derivative contributes the factor eps.
        scale = spec.epsilon if isinstance(spec, PerturbedMoebiusCF) else 1.0
        best = max(best, 2.0 * scale / low)
    return best


def distortion_profile(maps, neighborhoods, rate, beta=1.0, c_mt=1.0):
    """Distortion constants for a family of maps on working neighborhoods.

    `rate` is the family's uniform contraction bound in (0,1) (use the
    depth-adjusted effective rate for families that only contract after two
    steps).  The Lipschitz constant L of log||T'|| is converted to the
    multiplicative form via C = L*exp(L*diam), then propagated along
    compositions with the standard geometric-series/infinite-product bound.
    """
    if not maps:
        raise MixedFamily("empty family")
    for spec in maps:
        if not isinstance(spec, _AFFINE_KINDS + _MOEBIUS_KINDS):
            raise MixedFamily(f"no distortion envelope for {type(spec).__name__}")
    if not (0.0 < rate < 1.0):
        raise ValueError(f"rate {rate} outside (0,1)")
    sup_diam = max(s.diameter for s in neighborhoods)
    lip = max(_log_deriv_lipschitz(spec, neighborhoods) for spec in maps)
    if lip == 0.0:
        return DistortionProfile(0.0, beta, 0.0, 0.0, c_mt)
    try:
        holder = lip * math.exp(lip * sup_diam)
    except OverflowError:
        holder = math.inf
    if not math.isfinite(holder):
        return DistortionProfile(math.inf, beta, math.inf, math.inf, c_mt)
    # chain constant: (C*c_mt^beta/(1-r^beta)) * prod_i (1 + C*c_mt^beta*
    # diam^beta * r^(i*beta)), computed in log space; the product converges
    # geometrically.
    rb = rate ** beta
    head = holder * c_mt ** beta / (1.0 - rb)
    log_prod = 0.0
    term = holder * (c_mt ** beta) * (sup_diam ** beta)
    for _ in range(100000):
        log_prod += math.log1p(term)
        term *= rb
        if term < 1e-17:
            break
    chain = head * math.exp(log_prod) if math.isfinite(head) else math.inf
    log_ratio = chain * sup_diam ** beta
    return DistortionProfile(holder, beta, chain, log_ratio, c_mt)
