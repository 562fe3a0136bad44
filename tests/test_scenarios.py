"""Frozen geometry of the built-in example systems.

The numbers asserted exactly here are dyadic by construction (ladder) or
short closed forms (affine demo), so float equality is intentional.
"""

import math

import pytest

from gifsdim.errors import DegenerateMap, InvalidAlphabet
from gifsdim.maps import (
    Constant,
    MoebiusCF,
    PerturbedMoebiusCF,
    apply,
    derivative_range_over_set,
    image_enclosure,
)
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_system,
    ladder_truncation,
    moran_system,
    perturbed_affine,
    perturbed_cf,
)
from gifsdim.shapes import Ball
from gifsdim.systems import check_separation, validate_conditions
from geometry_reference import separation_gap


# ---- ladder ----------------------------------------------------------------


def test_ladder_image_positions():
    lad = ladder_system()
    assert lad.seed_image((1, 1)) == Ball((-0.25,), 0.25)
    assert lad.seed_image((1, 3)) == Ball((0.3125,), 0.0625)
    assert lad.seed_image((3, 2)) == Ball((6.0,), 0.03125)


def test_ladder_hub_images_tile_exactly():
    lad = ladder_system()
    for u in range(1, 6):
        left = lad.seed_image((1, u))
        right = lad.seed_image((1, u + 1))
        assert separation_gap(left, right) == 0.0


def test_ladder_truncation_open_separation():
    rep = check_separation(ladder_truncation(8))[1]
    assert rep.verdict == "certified-separated"
    assert rep.min_gap == 0.0


def test_ladder_vertex_bounds_and_underflow_guard():
    lad = ladder_system()
    assert lad.vertex_sup(1) == 0.5
    assert lad.vertex_sup(7) == 2.0 ** -7
    with pytest.raises(DegenerateMap):
        lad.map_of((970, 969))
    assert lad.clamp_edges(10 ** 6) == 600


# ---- moran loops -----------------------------------------------------------


def test_moran_default_packing():
    sys = moran_system([0.5, 0.25])
    assert sys.seed_image(0) == Ball((0.25,), 0.25)
    assert sys.seed_image(1) == Ball((0.625,), 0.125)
    with pytest.raises(InvalidAlphabet):
        moran_system([])
    with pytest.raises(InvalidAlphabet):
        moran_system([1.5])


# ---- affine demo -----------------------------------------------------------


def test_affine_demo_validates_with_gap():
    demo = affine_demo()
    assert [demo.letter_range(e).upper for e in demo.letters(10)] == pytest.approx(
        [0.4, 0.25, 0.3]
    )
    rep = validate_conditions(demo, 4, 8)
    assert rep.passed
    assert rep.checks["separation-strong"].status == "satisfied"
    sep = check_separation(demo)[0]
    assert sep.min_gap == pytest.approx(0.35, abs=1e-12)


def test_perturbed_affine_gap_shrinks_linearly():
    sep1 = check_separation(perturbed_affine(1.0))[0]
    assert sep1.verdict == "certified-separated"
    assert sep1.min_gap == pytest.approx(0.3, abs=1e-12)
    assert validate_conditions(perturbed_affine(0.5), 4, 8).passed
    with pytest.raises(ValueError):
        perturbed_affine(1.5)


def test_perturbed_affine_degenerate_edge():
    p0 = perturbed_affine(0.0)
    rng = p0.letter_range((2, 2))
    assert rng.degenerate
    assert rng.upper == 0.0
    img = p0.seed_image((2, 2))
    assert img.center == pytest.approx((3.3, 0.0))
    assert img.radius == 0.0


# ---- continued fractions ---------------------------------------------------


def test_gaussian_alphabet_order():
    assert gaussian_alphabet(2) == (
        1,
        1 - 1j,
        1 + 1j,
        2,
        1 - 2j,
        1 + 2j,
        2 - 1j,
        2 + 1j,
        2 - 2j,
        2 + 2j,
    )


def test_cf_shell_enumeration():
    sys = cf_system()
    assert sys.letters(5) == [1, 1 - 1j, 1 + 1j, 2, 1 - 2j]
    assert not sys.is_finite


def test_cf_letter_rejection():
    with pytest.raises(InvalidAlphabet):
        cf_system([0.5])
    with pytest.raises(InvalidAlphabet):
        cf_system([0])
    with pytest.raises(InvalidAlphabet):
        cf_system([1, 1.0])


def test_cf_tail_witness_bounds_brute_force_tail():
    sys = cf_system()
    witness = sys.tail
    letters = sys.letters(1200)
    brute = sum(sys.letter_range(e).upper ** 1.5 for e in letters[300:])
    assert witness.bound(300, 1.5) >= brute
    assert witness.bound(600, 1.5) <= witness.bound(300, 1.5)
    assert witness.bound(300, 1.0) == math.inf   # diverges at the threshold
    assert witness.bound(0, 1.5) == math.inf


def test_perturbed_cf_letter_layout():
    sys = perturbed_cf((1, 2), None, 0.25)
    assert sys.letters(6) == [1, 2, 1 - 1j, 1 + 1j, 1 - 2j, 1 + 2j]
    assert isinstance(sys.map_of(complex(1, 0)), MoebiusCF)
    assert isinstance(sys.map_of(complex(2, 0)), MoebiusCF)
    added = sys.map_of(complex(1, -1))
    assert isinstance(added, PerturbedMoebiusCF)
    assert added.epsilon == 0.25


def test_perturbed_cf_full_strength_matches_base():
    sys = perturbed_cf((1,), None, 1.0)
    e = complex(1, -1)
    probe = (0.25, 0.125)
    got = apply(sys.map_of(e), probe)
    want = apply(MoebiusCF(e), probe)
    assert got == pytest.approx(want, abs=1e-15)
    seed = sys.seed(0).seed
    r_pert = derivative_range_over_set(sys.map_of(e), seed)
    r_base = derivative_range_over_set(MoebiusCF(e), seed)
    assert r_pert.lower == pytest.approx(r_base.lower, rel=1e-14)
    assert r_pert.upper == pytest.approx(r_base.upper, rel=1e-14)
    img_pert = sys.seed_image(e)
    img_base = image_enclosure(MoebiusCF(e), seed)
    assert img_pert.center == pytest.approx(img_base.center, abs=1e-15)


def test_perturbed_cf_degenerate_limit():
    sys = perturbed_cf((1, 2), None, 0.0)
    added = sys.map_of(complex(1, 1))
    assert isinstance(added, Constant)
    want = 1.0 / (complex(1, 1) + 0.5)
    assert added.target == pytest.approx((want.real, want.imag))
    kept = sys.map_of(complex(2, 0))
    assert isinstance(kept, MoebiusCF)


def test_perturbed_cf_alphabet_errors():
    with pytest.raises(InvalidAlphabet):
        perturbed_cf((3,), full_letters=(1, 2))
    with pytest.raises(InvalidAlphabet):
        perturbed_cf((1, 1))
    with pytest.raises(ValueError):
        perturbed_cf((1,), None, -0.1)
