"""Map-family checks.

Claims covered:
  * apply/derivative_norm agree with finite differences for every family
  * closed-form derivative ranges over disks match frozen values:
      1/(1+z) on B(1/2, 1/2)            -> [1/4, 1]
      perturbed e=1, eps=0.1 on B(1/2,1/2) -> [0.04162330905306972,
                                               0.04756242568370987]
      norm of z -> 1/(2+i+z) at 0       -> 0.2
  * sampled derivative norms never escape a certified range
  * disk images under inversion are exact (sampled boundary points land on
    the image boundary); pole inside a set raises DomainViolation
  * disk_image of an affine map, on the line or in the plane, is apply at
    the centre, as floats, with radius |lambda| * r, and so is
    image_enclosure on the line; a reflection of the line is x -> -x
  * an unsupported map spec raises MixedFamily in every kernel

derivative_norm, the pointwise ||T'|| these claims compare against, lives
here: the package itself only ever needs ranges over sets.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gifsdim.errors import DomainViolation, MixedFamily
from gifsdim.maps import (
    _MOEBIUS_KINDS,
    _POLE_MARGIN,
    Constant,
    ConformalAffine,
    MoebiusCF,
    PerturbedAffine,
    PerturbedMoebiusCF,
    Similarity,
    _affine_form,
    apply,
    derivative_range_over_set,
    disk_image,
    image_enclosure,
)
from gifsdim.shapes import Ball, as_complex, contains_point
from geometry_reference import separation_gap

STANDARD_DISK = Ball((0.5, 0.0), 0.5)


def derivative_norm(spec, point):
    """||T'(point)|| (operator norm of the derivative)."""
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
    return abs(_affine_form(spec)[0])


def _families():
    return [
        Similarity(0.4, (1.0, -0.5), rotation=0.7),
        Similarity(0.25, (2.0,)),
        ConformalAffine(0.3 - 0.2j, (0.0, 1.0)),
        ConformalAffine(-0.6, (1.5,)),
        ConformalAffine(0.5 + 0.1j, (0.0, 0.0), reflect=True),
        PerturbedAffine(0.4, -0.3j, (1.0, 0.0), (0.0, 2.0), 0.2),
        MoebiusCF(1),
        MoebiusCF(2 + 1j),
        PerturbedMoebiusCF(1, 0.1),
        PerturbedMoebiusCF(3 - 2j, 0.25),
    ]


def _finite_difference_norm(spec, point, h=1e-6):
    """Operator norm via directional finite differences (conformal maps:
    every direction stretches equally, so one direction suffices; we take
    the max of two to be safe)."""
    f0 = np.array(apply(spec, point))
    out = 0.0
    for k in range(len(point)):
        q = list(point)
        q[k] += h
        fk = np.array(apply(spec, tuple(q)))
        out = max(out, float(np.linalg.norm(fk - f0)) / h)
    return out


def test_derivative_norm_matches_finite_differences():
    for spec in _families():
        if spec.dim == 1:
            pts = [(0.1,), (0.9,)]
        else:
            pts = [(0.5, 0.0), (0.3, 0.25), (0.8, -0.1)]
        for p in pts:
            got = derivative_norm(spec, p)
            ref = _finite_difference_norm(spec, p)
            assert got == pytest.approx(ref, rel=1e-4), (spec, p)


def test_cf_branch_range_on_standard_disk():
    rng = derivative_range_over_set(MoebiusCF(1), STANDARD_DISK)
    assert rng.lower == pytest.approx(0.25, abs=1e-15)
    assert rng.upper == pytest.approx(1.0, abs=1e-15)


def test_perturbed_cf_range_frozen_values():
    rng = derivative_range_over_set(PerturbedMoebiusCF(1, 0.1), STANDARD_DISK)
    # 0.1/|1.5 + 0.1*(z-0.5)|^2 with |z-1/2| <= 1/2: denominator modulus
    # covers [1.45, 1.55].
    assert rng.lower == pytest.approx(0.1 / 1.55 ** 2, rel=1e-12)
    assert rng.upper == pytest.approx(0.1 / 1.45 ** 2, rel=1e-12)
    assert rng.lower == pytest.approx(0.04162330905306972, rel=1e-10)
    assert rng.upper == pytest.approx(0.04756242568370987, rel=1e-10)


def test_norm_point_value():
    got = derivative_norm(MoebiusCF(2 + 1j), (0.0, 0.0))
    assert got == pytest.approx(1.0 / abs(2 + 1j) ** 2, rel=1e-14)
    assert got == pytest.approx(0.2, rel=1e-12)


def test_sampled_norms_stay_inside_certified_range():
    rng_state = np.random.default_rng(20260816)
    shapes = [STANDARD_DISK, Ball((0.4, 0.1), 0.3)]
    for spec in _families():
        if spec.dim != 2:
            continue
        for shape in shapes:
            rng = derivative_range_over_set(spec, shape)
            for _ in range(200):
                t = rng_state.uniform(0, 2 * math.pi)
                r = shape.radius * math.sqrt(rng_state.uniform())
                p = (
                    shape.center[0] + r * math.cos(t),
                    shape.center[1] + r * math.sin(t),
                )
                val = derivative_norm(spec, p)
                assert rng.lower - 1e-12 <= val <= rng.upper + 1e-12, (spec, shape)


def test_disk_image_is_exact_disk():
    spec = MoebiusCF(1)
    img = image_enclosure(spec, STANDARD_DISK)
    # 1/(1+z) with |z-1/2| <= 1/2 gives the disk about 3/4 of radius 1/4:
    # endpoints 1/(1+0)=1 and 1/(1+1)=1/2 on the real axis.
    assert img.center == pytest.approx((0.75, 0.0), abs=1e-14)
    assert img.radius == pytest.approx(0.25, abs=1e-14)
    for t in np.linspace(0.0, 2 * math.pi, 37):
        z = 0.5 + 0.5 * cmath.exp(1j * t)
        w = 1.0 / (1.0 + z)
        assert abs(abs(w - (0.75 + 0j)) - 0.25) < 1e-12


def test_off_axis_disk_images_are_exact():
    # complex letters and an off-axis disk: every boundary point maps onto
    # the boundary of the computed image disk
    for spec in (MoebiusCF(2 + 1j), PerturbedMoebiusCF(1 - 1j, 0.3)):
        img = image_enclosure(spec, Ball((0.4, 0.1), 0.3))
        for t in np.linspace(0.0, 2 * math.pi, 37):
            w = apply(spec, (0.4 + 0.3 * math.cos(t), 0.1 + 0.3 * math.sin(t)))
            assert abs(math.dist(w, img.center) - img.radius) < 1e-12


def test_second_branch_tangent_to_first():
    img1 = image_enclosure(MoebiusCF(1), STANDARD_DISK)
    img2 = image_enclosure(MoebiusCF(2), STANDARD_DISK)
    assert img2.center == pytest.approx((5.0 / 12.0, 0.0), abs=1e-14)
    assert img2.radius == pytest.approx(1.0 / 12.0, abs=1e-14)
    # the two branch images meet exactly at 1/2
    assert separation_gap(img1, img2) == pytest.approx(0.0, abs=1e-12)


def test_perturbed_image_disk():
    spec = PerturbedMoebiusCF(2, 0.25)
    img = image_enclosure(spec, STANDARD_DISK)
    rng_state = np.random.default_rng(7)
    for _ in range(100):
        t = rng_state.uniform(0, 2 * math.pi)
        r = 0.5 * math.sqrt(rng_state.uniform())
        p = (0.5 + r * math.cos(t), r * math.sin(t))
        assert contains_point(img, apply(spec, p), tol=1e-12)
    # boundary maps to boundary
    for t in np.linspace(0, 2 * math.pi, 17):
        p = (0.5 + 0.5 * math.cos(t), 0.5 * math.sin(t))
        q = apply(spec, p)
        d = math.hypot(q[0] - img.center[0], q[1] - img.center[1])
        assert d == pytest.approx(img.radius, abs=1e-13)


def test_affine_images():
    img = image_enclosure(ConformalAffine(-0.5, (2.0,)), Ball((0.5,), 0.5))
    assert img == Ball((1.75,), 0.25)
    # a reflection of the line is x -> -x
    for flipped in (ConformalAffine(0.5, (2.0,), reflect=True),
                    Similarity(0.5, (2.0,), reflect=True)):
        assert image_enclosure(flipped, Ball((0.5,), 0.5)) == Ball((1.75,), 0.25)
    ball = Ball((1.0, 1.0), 2.0)
    sim = Similarity(0.4, (0.0, -1.0), rotation=1.1)
    img2 = image_enclosure(sim, ball)
    assert img2.radius == pytest.approx(0.8, abs=1e-14)
    assert img2.center == pytest.approx(apply(sim, (1.0, 1.0)), abs=1e-14)
    img3 = image_enclosure(Constant((0.3, 0.4)), ball)
    assert img3.radius == 0.0 and img3.center == (0.3, 0.4)


def test_pole_inside_set_raises():
    bad = Ball((-1.0, 0.0), 0.5)  # contains the pole of 1/(1+z)
    with pytest.raises(DomainViolation):
        derivative_range_over_set(MoebiusCF(1), bad)
    with pytest.raises(DomainViolation):
        image_enclosure(MoebiusCF(1), bad)


def test_constant_map_degenerate_range():
    rng = derivative_range_over_set(Constant((0.0, 0.0)), STANDARD_DISK)
    assert rng.degenerate and rng.lower == 0.0 and rng.upper == 0.0
    assert derivative_norm(Constant((0.0, 0.0)), (0.1, 0.2)) == 0.0


def test_perturbed_affine_limit():
    spec = PerturbedAffine(0.4, -0.3j, (1.0, 0.0), (0.0, 2.0), 0.0)
    assert abs(spec.effective_linear - 0.4) == 0.0
    moved = apply(spec, (1.0, 1.0))
    assert moved == pytest.approx((1.4, 0.4))


def test_mixed_family_rejected():
    class Weird:
        dim = 2

    with pytest.raises(MixedFamily):
        disk_image(Weird(), 0.5, 0.0, 0.5)
    with pytest.raises(MixedFamily):
        apply(Weird(), (0.5, 0.0))
    with pytest.raises(MixedFamily):
        image_enclosure(Weird(), STANDARD_DISK)
    with pytest.raises(MixedFamily):
        derivative_range_over_set(Weird(), STANDARD_DISK)


AFFINE = [f for f in _families() if not isinstance(f, _MOEBIUS_KINDS)] + [
    Constant((0.3, 0.4)),
    ConformalAffine(0.7, (0.5,), reflect=True),
    Similarity(0.6, (-1.0,), reflect=True),
]
COORDINATE = st.floats(-1e3, 1e3)


@given(spec=st.sampled_from(AFFINE), cx=COORDINATE, cy=COORDINATE, r=st.floats(0.0, 1e3))
def test_affine_disk_image_is_apply_at_the_centre(spec, cx, cy, r):
    ratio = abs(_affine_form(spec)[0])
    if spec.dim == 1:
        # the line is the plane's real axis
        x, _, radius = disk_image(spec, cx, 0.0, r)
        assert (float(x),) == apply(spec, (cx,))
        assert image_enclosure(spec, Ball((cx,), r)) == Ball(apply(spec, (cx,)), ratio * r)
    else:
        x, y, radius = disk_image(spec, cx, cy, r)
        assert (float(x), float(y)) == apply(spec, (cx, cy))
    assert float(radius) == ratio * r
