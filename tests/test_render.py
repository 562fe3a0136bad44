"""Coding-map and rendering tests.

Frozen oracles:
  * single branch x -> x/2: the depth-30 point from anchor 1 is 2**-30 and
    the true limit 0 sits within the reported radius.
  * continued-fraction digit 1 repeated: fixed point of 1/(1+x), i.e.
    (sqrt5 - 1)/2 = 0.6180339887498949; digit 2 repeated: sqrt2 - 1 =
    0.41421356237309515; both reached to 1e-6 by depth 25.
  * standard Cantor pair {x/3, x/3 + 2/3}: depth-3 cloud sits at
    1/54 + (2/27) * (9*d0 + 3*d1 + d2) over digit triples; at 81 columns a
    depth-6 cloud occupies exactly the 16 columns whose 4-digit ternary
    expansion uses only digits 0 and 2.
  * degenerate continued-fraction branch at letter 3, eps = 0.1: the
    denominator modulus stays >= 3.45 on the seed disk, so the derivative
    sup is 0.1/3.45**2 = 0.008402...
"""

import math

import numpy as np
import pytest

from gifsdim.errors import (
    DegenerateBounds,
    NonAdmissibleWord,
    UnsupportedShape,
)
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import Similarity
from gifsdim.render import (
    PointCloud,
    coding_map,
    generate_point_cloud,
    rasterize,
)
from gifsdim.scenarios import (
    cf_system,
    gaussian_alphabet,
    ladder_truncation,
    moran_system,
    perturbed_cf,
)
from gifsdim.shapes import Ball, Box
from gifsdim.systems import (
    ContractionBound,
    GifsSystem,
    SeedSet,
    finite_tail,
    reduce_to_simple,
    translate_word,
)

from convergence import coding_gap, lemma_bound


def cantor_pair():
    return moran_system([1 / 3, 1 / 3], offsets=[0.0, 2.0 / 3.0])


def arrow_system():
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0, 1)),
        edges=Enumeration(items=((0, 1),)),
        initial=lambda e: e[0],
        terminal=lambda e: e[1],
        simple=True,
    )
    seeds = {
        v: SeedSet(v, Ball((0.5,), 0.5), Ball((0.5,), 0.75)) for v in (0, 1)
    }
    return GifsSystem(
        graph, seeds, {(0, 1): Similarity(0.5, (0.0,))}, 1,
        contraction=ContractionBound(1, 0.5, 0.5, 1.0),
        tail=finite_tail("edge"),
        name="arrow",
    )


# ---------------------------------------------------------------------------
# coding_map


def test_coding_single_branch_depth30():
    sysm = moran_system([0.5])
    pt, rad = coding_map(sysm, (0,) * 30, anchor=(1.0,))
    assert pt[0] == pytest.approx(2.0 ** -30, rel=1e-12)
    assert abs(pt[0] - 0.0) <= rad + 1e-18
    assert rad <= 2.0 ** -30 + 1e-18


def test_coding_cf_fixed_points():
    sysm = cf_system(letters=(1, 2))
    one, two = sysm.letters(2)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    pt, rad = coding_map(sysm, (one,) * 25)
    assert math.dist(pt, (golden, 0.0)) <= 1e-6
    pt2, _ = coding_map(sysm, (two,) * 25)
    assert math.dist(pt2, (math.sqrt(2.0) - 1.0, 0.0)) <= 1e-6
    assert rad <= 1e-4


def test_coding_rejects_bad_words_and_anchors():
    sub = ladder_truncation(2)
    with pytest.raises(NonAdmissibleWord):
        coding_map(sub, ((1, 1), (2, 1)))  # junction mismatch
    with pytest.raises(NonAdmissibleWord):
        coding_map(sub, ())
    sysm = moran_system([0.5])
    with pytest.raises(NonAdmissibleWord):
        coding_map(sysm, (0,), anchor=(7.0,))


# ---------------------------------------------------------------------------
# point clouds


def test_cantor_level3_positions():
    cloud = generate_point_cloud(cantor_pair(), depth=3, horizon=2)
    assert len(cloud) == 8
    got = sorted(p[0] for p, _, _ in cloud.points)
    want = sorted(
        1.0 / 54.0 + (2.0 / 27.0) * (9 * d0 + 3 * d1 + d2)
        for d0 in (0, 1) for d1 in (0, 1) for d2 in (0, 1)
    )
    assert np.allclose(got, want, atol=1e-12)
    for _, rad, word in cloud.points:
        assert len(word) == 3
        assert rad == pytest.approx((1 / 3) ** 3, rel=1e-12)


def test_cloud_order_and_cap():
    cloud = generate_point_cloud(cantor_pair(), depth=3, horizon=2, cap=5)
    words = [w for _, _, w in cloud.points]
    assert words == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
    ]


def test_cloud_empty_admissibility():
    cloud = generate_point_cloud(arrow_system(), depth=2, horizon=4)
    assert len(cloud) == 0


def test_cf_cloud_stays_in_seed_disk():
    letters = [complex(m, n) for m in (1, 2, 3) for n in range(-3, 4)]
    sysm = cf_system(letters=letters)
    cloud = generate_point_cloud(sysm, depth=4, horizon=21, cap=20000)
    assert len(cloud) == 20000
    pts = cloud.coordinates()
    dist = np.hypot(pts[:, 0] - 0.5, pts[:, 1])
    assert float(dist.max()) <= 0.5 + 1e-9


def test_cloud_radius_decay_and_refinement():
    sysm = cf_system(letters=(1, 2))
    cb = sysm.contraction
    seed_diam = 1.0
    shallow = generate_point_cloud(sysm, depth=3, horizon=2)
    deep = generate_point_cloud(sysm, depth=8, horizon=2)
    bound = cb.comparison * cb.effective_rate ** 3 * seed_diam
    for _, rad, _ in shallow.points:
        assert rad <= bound + 1e-12
    by_prefix = {}
    for pt, _, word in deep.points:
        by_prefix.setdefault(word[:3], pt)
    for pt, rad, word in shallow.points:
        refined = by_prefix[word]
        assert math.dist(pt, refined) <= rad + 1e-15


def test_reduced_system_codes_identically():
    base = moran_system([0.5, 0.25])
    red = reduce_to_simple(base)
    cloud = generate_point_cloud(base, depth=3, horizon=2)
    anchor = base.seed(0).seed.center
    for pt, _, word in cloud.points:
        rword, push = translate_word(word, base)
        rpt, _ = coding_map(red, rword, anchor=push(anchor))
        assert rpt == pt


# ---------------------------------------------------------------------------
# rasterization


def fake_cloud(points):
    triples = tuple((tuple(p), 0.0, (i,)) for i, p in enumerate(points))
    return PointCloud(triples, "fake", 1, len(points))


def test_rasterize_center_pixel():
    img = rasterize(fake_cloud([(0.5, 0.5)]), Box((0, 0), (1, 1)), 3)
    assert img.width == 3 and img.height == 3
    occ = img.occupancy()
    assert occ[1, 1]
    assert occ.sum() == 1


def test_rasterize_opposite_corners():
    img = rasterize(fake_cloud([(0.0, 0.0), (1.0, 1.0)]), Box((0, 0), (1, 1)), 3)
    occ = img.occupancy()
    assert occ[2, 0] and occ[0, 2]
    assert occ.sum() == 2


def test_rasterize_cantor_columns():
    cloud = generate_point_cloud(cantor_pair(), depth=6, horizon=2)
    img = rasterize(cloud, Box((0.0,), (1.0,)), 81)
    assert img.height == 1
    got = set(np.flatnonzero(img.occupancy()[0]))
    want = {
        27 * a + 9 * b + 3 * c + d
        for a in (0, 2) for b in (0, 2) for c in (0, 2) for d in (0, 2)
    }
    assert got == want


def test_rasterize_pgm_deterministic_and_bounds_checked():
    cloud = generate_point_cloud(cantor_pair(), depth=4, horizon=2)
    img1 = rasterize(cloud, Box((0.0,), (1.0,)), 27)
    img2 = rasterize(cloud, Box((0.0,), (1.0,)), 27)
    assert img1.to_pgm() == img2.to_pgm()
    raw = img1.to_pgm(binary=True)
    assert raw.startswith(b"P5\n27 1\n")
    assert raw.endswith(img1.grid.astype(np.uint8).tobytes())
    with pytest.raises(DegenerateBounds):
        rasterize(cloud, Box((0.0, 0.0), (0.0, 1.0)), 9)
    with pytest.raises(DegenerateBounds):
        rasterize(cloud, Box((0.0,), (1.0,)), 0)
    with pytest.raises(DegenerateBounds):
        rasterize(cloud, ((0.0,), (1.0,)), 9)


def test_boxes_bound_rasters_not_seeds():
    box, ball = Box((0.0,), (1.0,)), Ball((0.5,), 0.5)
    with pytest.raises(UnsupportedShape):
        SeedSet(0, box, ball)
    with pytest.raises(UnsupportedShape):
        SeedSet(0, ball, Box((-1.0,), (2.0,)))
    assert rasterize(fake_cloud([(0.5,)]), box, 3).occupancy().tolist() == [[False, True, False]]


# ---------------------------------------------------------------------------
# perturbation probe


def random_words(system, count, depth, seed):
    rng = np.random.default_rng(seed)
    letters = list(system.letters(10))
    return [
        tuple(letters[i] for i in rng.integers(0, len(letters), size=depth))
        for _ in range(count)
    ]


def test_probe_bound_and_degenerate_derivative():
    base = perturbed_cf((1, 2), (1, 2, 3), 0.0)
    pert = perturbed_cf((1, 2), (1, 2, 3), 0.1)
    three = pert.letters(3)[2]
    assert pert.letter_range(three).upper == pytest.approx(
        0.1 / 3.45 ** 2, rel=1e-9
    )
    words = random_words(base, 200, 20, seed=11)
    observed = coding_gap(base, pert, words)
    assert 0.0 < observed <= lemma_bound(base, pert, pert.letters(64))


def test_probe_deviation_scales_linearly():
    base = perturbed_cf((1, 2), (1, 2, 3), 0.0)
    words = random_words(base, 60, 15, seed=3)
    big = coding_gap(base, perturbed_cf((1, 2), (1, 2, 3), 0.1), words)
    small = coding_gap(base, perturbed_cf((1, 2), (1, 2, 3), 0.05), words)
    assert 1.8 <= big / small <= 2.2


def test_probe_lipschitz_pairs():
    sysm = cf_system(letters=tuple(gaussian_alphabet(2)))
    letters = list(sysm.letters(100))
    cb = sysm.contraction
    c_cp = cb.comparison * 1.5  # neighborhood diameter
    rng = np.random.default_rng(20240816)
    for _ in range(1000):
        j = int(rng.integers(2, 13))
        prefix = tuple(
            letters[i] for i in rng.integers(0, len(letters), size=j)
        )
        a, b = rng.choice(len(letters), size=2, replace=False)
        tail1 = tuple(
            letters[i] for i in rng.integers(0, len(letters), size=19 - j)
        )
        tail2 = tuple(
            letters[i] for i in rng.integers(0, len(letters), size=19 - j)
        )
        w1 = prefix + (letters[a],) + tail1
        w2 = prefix + (letters[b],) + tail2
        p1, r1 = coding_map(sysm, w1)
        p2, r2 = coding_map(sysm, w2)
        bound = c_cp * cb.effective_rate ** (j - 2) + r1 + r2
        assert math.dist(p1, p2) <= bound
