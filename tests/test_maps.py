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
  * affine distortion profile is identically zero; Moebius profile bounds
    sampled log-derivative increments along sampled pairs
"""

import cmath
import math

import numpy as np
import pytest

from gifsdim.errors import DomainViolation, MixedFamily
from gifsdim.maps import (
    Constant,
    ConformalAffine,
    MoebiusCF,
    PerturbedAffine,
    PerturbedMoebiusCF,
    Similarity,
    apply,
    derivative_norm,
    derivative_range_over_set,
    distortion_profile,
    image_enclosure,
)
from gifsdim.shapes import Ball, Box, contains_point, separation_gap

STANDARD_DISK = Ball((0.5, 0.0), 0.5)


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
    assert rng.certified


def test_perturbed_cf_range_frozen_values():
    rng = derivative_range_over_set(PerturbedMoebiusCF(1, 0.1), STANDARD_DISK)
    # 0.1/|1.5 + 0.1*(z-0.5)|^2 with |z-1/2| <= 1/2: denominator modulus
    # covers [1.45, 1.55].
    assert rng.lower == pytest.approx(0.1 / 1.55 ** 2, rel=1e-12)
    assert rng.upper == pytest.approx(0.1 / 1.45 ** 2, rel=1e-12)
    assert rng.lower == pytest.approx(0.04162330905306972, rel=1e-10)
    assert rng.upper == pytest.approx(0.04756242568370987, rel=1e-10)


def test_conorm_point_value():
    got = derivative_norm(MoebiusCF(2 + 1j), (0.0, 0.0))
    assert got == pytest.approx(1.0 / abs(2 + 1j) ** 2, rel=1e-14)
    assert got == pytest.approx(0.2, rel=1e-12)


def test_sampled_norms_stay_inside_certified_range():
    rng_state = np.random.default_rng(20260816)
    shapes = [STANDARD_DISK, Ball((0.4, 0.1), 0.3), Box((0.2, -0.2), (0.7, 0.3))]
    for spec in _families():
        if spec.dim != 2:
            continue
        for shape in shapes:
            rng = derivative_range_over_set(spec, shape)
            for _ in range(200):
                if isinstance(shape, Ball):
                    t = rng_state.uniform(0, 2 * math.pi)
                    r = shape.radius * math.sqrt(rng_state.uniform())
                    p = (
                        shape.center[0] + r * math.cos(t),
                        shape.center[1] + r * math.sin(t),
                    )
                else:
                    p = tuple(rng_state.uniform(shape.lo[k], shape.hi[k]) for k in range(2))
                val = derivative_norm(spec, p)
                assert rng.lower - 1e-12 <= val <= rng.upper + 1e-12, (spec, shape)


def test_disk_image_is_exact_disk():
    spec = MoebiusCF(1)
    img, exact = image_enclosure(spec, STANDARD_DISK)
    assert exact
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
        img, exact = image_enclosure(spec, Ball((0.4, 0.1), 0.3))
        assert exact
        for t in np.linspace(0.0, 2 * math.pi, 37):
            w = apply(spec, (0.4 + 0.3 * math.cos(t), 0.1 + 0.3 * math.sin(t)))
            assert abs(math.dist(w, img.center) - img.radius) < 1e-12


def test_second_branch_tangent_to_first():
    img1, _ = image_enclosure(MoebiusCF(1), STANDARD_DISK)
    img2, _ = image_enclosure(MoebiusCF(2), STANDARD_DISK)
    assert img2.center == pytest.approx((5.0 / 12.0, 0.0), abs=1e-14)
    assert img2.radius == pytest.approx(1.0 / 12.0, abs=1e-14)
    # the two branch images meet exactly at 1/2
    assert separation_gap(img1, img2) == pytest.approx(0.0, abs=1e-12)


def test_perturbed_image_disk():
    spec = PerturbedMoebiusCF(2, 0.25)
    img, exact = image_enclosure(spec, STANDARD_DISK)
    assert exact
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
    box = Box((0.0,), (1.0,))
    img, exact = image_enclosure(ConformalAffine(-0.5, (2.0,)), box)
    assert exact
    assert img.lo == pytest.approx((1.5,)) and img.hi == pytest.approx((2.0,))
    ball = Ball((1.0, 1.0), 2.0)
    sim = Similarity(0.4, (0.0, -1.0), rotation=1.1)
    img2, exact2 = image_enclosure(sim, ball)
    assert exact2
    assert img2.radius == pytest.approx(0.8, abs=1e-14)
    assert img2.center == pytest.approx(apply(sim, (1.0, 1.0)), abs=1e-14)
    img3, _ = image_enclosure(Constant((0.3, 0.4)), ball)
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


def test_affine_distortion_profile_is_zero():
    fam = [Similarity(0.4, (0.0, 0.0)), ConformalAffine(0.3j, (1.0, 0.0))]
    prof = distortion_profile(fam, [Ball((0.0, 0.0), 1.0)], rate=0.4)
    assert prof.holder_constant == 0.0
    assert prof.chain_constant == 0.0
    assert prof.log_product_ratio == 0.0


def test_moebius_distortion_bounds_sampled_increments():
    maps = [MoebiusCF(1), MoebiusCF(2), MoebiusCF(1 + 1j)]
    nbhd = Ball((0.5, 0.0), 0.75)
    prof = distortion_profile(maps, [nbhd], rate=0.67)
    assert prof.holder_constant > 0.0
    assert math.isfinite(prof.chain_constant)
    rng_state = np.random.default_rng(99)
    for spec in maps:
        for _ in range(300):
            t1, t2 = rng_state.uniform(0, 2 * math.pi, size=2)
            r1, r2 = 0.75 * np.sqrt(rng_state.uniform(size=2))
            p = (0.5 + r1 * math.cos(t1), r1 * math.sin(t1))
            q = (0.5 + r2 * math.cos(t2), r2 * math.sin(t2))
            a, b = derivative_norm(spec, p), derivative_norm(spec, q)
            dist = math.hypot(p[0] - q[0], p[1] - q[1])
            # the Lipschitz form implies |a-b| <= C * a * dist (beta=1)
            assert abs(a - b) <= prof.holder_constant * a * dist + 1e-13


def test_mixed_family_rejected():
    class Weird:
        dim = 2

    with pytest.raises(MixedFamily):
        distortion_profile([MoebiusCF(1), Weird()], [STANDARD_DISK], rate=0.5)


def test_box_through_circumball_is_conservative():
    box = Box((0.3, -0.1), (0.6, 0.1))
    rng = derivative_range_over_set(MoebiusCF(1), box)
    rng_state = np.random.default_rng(3)
    for _ in range(200):
        p = tuple(rng_state.uniform(box.lo[k], box.hi[k]) for k in range(2))
        v = derivative_norm(MoebiusCF(1), p)
        assert rng.lower - 1e-12 <= v <= rng.upper + 1e-12
