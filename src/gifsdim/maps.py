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
conjugated first when conj (a Constant has lin 0); a Moebius map is
_moebius_form's z -> 1/(a + scale*(z - c0)), one formula for both kinds.
The line is the plane's real axis: there lin is a signed real, whose sign is
a reflection x -> -x.  _map_form writes either form as FORM_SIZE floats,
which a system keeps once per letter (GifsSystem.letter_table).  The kernels
(moebius_disk_image, affine_disk_image, moebius_derivative_range) are
elementwise over floats, or over arrays with one form column per entry, so
one call serves every entry of a family; they write their results over the
arrays they are given, which are scratch.  disk_images and
derivative_ranges make that one call per family over entries of both.

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
# a normal form's length (see _map_form), the row of an affine one that
# holds |lin|, the affine derivative size, and the leading rows that a
# range reads, so that a range over many disks repeats no others
FORM_SIZE, ABS_LIN, RANGE_ROWS = 6, 3, 4


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


def _moebius_form(spec):
    """(re a, im a, scale, c0) of a Moebius map z -> 1/(a + scale*(z - c0)):
    a = e, scale 1 and c0 0 for MoebiusCF; a = e + 1/2, scale eps and c0
    1/2 for PerturbedMoebiusCF.  The one reader of Moebius spec fields."""
    if isinstance(spec, MoebiusCF):
        return spec.e.real, spec.e.imag, 1.0, 0.0
    return spec.e.real + 0.5, spec.e.imag, spec.epsilon, 0.5


def _map_form(spec):
    """(moebius, form): whether spec is a Moebius map, and its normal form as
    the FORM_SIZE floats the kernels read: _moebius_form's four and two
    zeros, or (re lin, im lin, flip, |lin|, re shift, im shift) from
    _affine_form, flip -1 when x is conjugated first and 1 otherwise."""
    if isinstance(spec, _MOEBIUS_KINDS):
        return True, (*_moebius_form(spec), 0.0, 0.0)
    lin, conj, shift = _affine_form(spec)
    return False, (lin.real, lin.imag, -1.0 if conj else 1.0, abs(lin),
                   shift.real, shift.imag)


def _moebius_disk(form, cx, cy, r):
    """(ar, ai, rho, scale): the disk B(ar + i ai, rho) that the inversion
    sees, a + scale*(B(c, r) - c0) for a Moebius form (see _moebius_form),
    and the derivative scale of that inner affine step.  One formula serves
    both kinds bit for bit, since x - 0 and 1*x are x.  Real component
    arithmetic, elementwise over floats or float64 arrays in the form and
    the disks alike, rounds as the complex scalar formulas do (x*s + a is
    a + s*x bit for bit).  Arrays cx, cy, r are scratch: ar, ai, rho are
    written over them."""
    are, aim, scale, c0 = form[:4]
    cx -= c0
    cx *= scale
    cy *= scale
    r *= scale
    cx += are
    cy += aim
    return cx, cy, r, scale


def apply(spec, point):
    """Evaluate the map at a point (tuples in, tuples out)."""
    x, y = _on_plane(point)
    if isinstance(spec, _MOEBIUS_KINDS):
        ar, ai, _, _ = _moebius_disk(_moebius_form(spec), x, y, 0.0)
        den = complex(ar, ai)
        if abs(den) < _POLE_MARGIN:
            raise DomainViolation(f"point {point} too close to a pole")
        w = 1.0 / den
        return (w.real, w.imag)
    x, y, _ = affine_disk_image(_map_form(spec)[1], x, y, 0.0)
    return (x, y)[:len(point)]


def moebius_derivative_range(form, cx, cy, r):
    """(lower, upper) of |T'| over the disks B((cx, cy), r) under Moebius
    forms, elementwise: |e+z| ranges over [|e+c|-rho, |e+c|+rho].  np.hypot
    rounds as abs(complex) does and x*x as np.square does, so arrays and
    floats give the same bits.  Arrays cx, cy, r are scratch: lower and
    upper are written over cx and cy."""
    ar, ai, rho, scale = _moebius_disk(form, cx, cy, r)
    wide = isinstance(ar, np.ndarray)
    dist = np.hypot(ar, ai, out=ar if wide else None)
    gap = np.subtract(dist, rho, out=ai) if wide else dist - rho
    if (gap <= _POLE_MARGIN).any():
        raise DomainViolation(f"set reaches within {np.min(gap):.3g} of the pole")
    dist += rho
    dist *= dist
    gap *= gap
    if wide:
        return np.divide(scale, dist, out=dist), np.divide(scale, gap, out=gap)
    return scale / dist, scale / gap


def moebius_disk_image(form, cx, cy, r):
    """Centre (cx, cy) and radius of the image disks of disks B((cx, cy), r)
    under Moebius forms, elementwise.  Inversion w -> 1/w sends B(a, rho) to
    B(conj(a)/(|a|^2-rho^2), rho/(|a|^2-rho^2)) when 0 is outside the disk,
    and -1*(y/m) is (-y)/m bit for bit.  Arrays cx, cy, r are scratch: the
    image disks are written over them."""
    ar, ai, rho, _ = _moebius_disk(form, cx, cy, r)
    mod2 = np.hypot(ar, ai)
    mod2 *= mod2
    mod2 -= rho * rho
    if (mod2 <= _POLE_MARGIN).any():
        raise DomainViolation("pole inside or touching the set")
    ar /= mod2
    ai /= mod2
    ai *= -1.0
    rho /= mod2
    return ar, ai, rho


def affine_disk_image(form, cx, cy, r):
    """Centre (cx, cy) and radius of the image disks of disks B((cx, cy), r)
    under affine forms (see _map_form), elementwise; on the line cy is 0.
    lin * z is multiplied out componentwise, as complex arithmetic rounds
    it, after flip * cy, an exact negation or copy."""
    lre, lim, flip, size, sre, sim = form
    cy = flip * cy
    return lre * cx - lim * cy + sre, lre * cy + lim * cx + sim, size * r


def _affine_range(form, cx, cy, r):
    """(lower, upper) of ||T'|| over the disks under affine forms: |lin| on
    any set."""
    return form[ABS_LIN], form[ABS_LIN]


def disk_image(spec, cx, cy, r):
    """Centre (cx, cy) and radius of the image disks of disks B((cx, cy), r)
    under spec, elementwise over floats or float64 arrays, which are scratch
    (see moebius_disk_image); on the line cy is 0."""
    moebius, form = _map_form(spec)
    return (moebius_disk_image if moebius else affine_disk_image)(form, cx, cy, r)


def _by_family(kernels, moebius, form, disks):
    """kernels[family](form, cx, cy, r), kernels[0] for affine maps and
    kernels[1] for Moebius ones, over the disks B((cx, cy), r), the rows of
    disks, each under its own map: entry i is a Moebius map when moebius[i],
    and its normal form is the column form[:, i] (see _map_form).  One
    kernel call serves each family, on every entry when they share one, and
    its rows are written over the first rows of disks, which are scratch."""
    rows = list(disks)
    if moebius.all() or not moebius.any():
        got = kernels[int(moebius.all())](form, *rows)
        for row, values in zip(rows, got):
            if values is not row:
                row[...] = values
        return
    for kernel, pick in ((kernels[1], moebius), (kernels[0], ~moebius)):
        got = kernel(form[:, pick], *(row[pick] for row in rows))
        for row, values in zip(rows, got):
            row[pick] = values


def disk_images(moebius, form, disks):
    """The image disks of the disks (cx, cy, r), the rows of the scratch
    (3, n) array disks, each under its own map (see _by_family), written
    over disks with one kernel call per family."""
    _by_family((affine_disk_image, moebius_disk_image), moebius, form, disks)
    return disks


def derivative_ranges(moebius, form, disks):
    """The ranges (lower, upper) of ||T'|| over the disks (cx, cy, r), the
    rows of the scratch disks, each under its own map (see _by_family),
    written over its first two rows with one kernel call per family.  Only
    the first RANGE_ROWS rows of form are read."""
    _by_family((_affine_range, moebius_derivative_range), moebius, form, disks)
    return disks[:2]


def derivative_range_over_set(spec, ball):
    """Certified range of ||T'|| over a ball: the one point |lin| for affine
    maps, degenerate when it is 0, and read off the map alone, so ball may
    be None; moebius_derivative_range for Moebius."""
    if isinstance(spec, _MOEBIUS_KINDS):
        if ball.dim != 2:
            raise UnsupportedShape("Moebius maps act on the plane")
        lo, hi = moebius_derivative_range(_moebius_form(spec), *ball.center, ball.radius)
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
