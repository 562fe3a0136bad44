"""Checks for system assembly, condition validation, separation verdicts,
reduction, and summability.

Frozen oracles used here:
  * continued-fraction pair contraction bound at letters {1,2}: the worst
    composition is (1,1) and equals exactly 144/169.
  * tangent image disks of letters 1 and 2: T_1(J)=B(3/4,1/4),
    T_2(J)=B(5/12,1/12), touching at z=1/2.
  * ladder contractibility constant: diam(J_v)/sup = 2 for every vertex.
"""

import math

import pytest

from gifsdim.errors import ConditionViolation, NonAdmissibleWord
from gifsdim.scenarios import (
    cf_system,
    ladder_system,
    ladder_truncation,
    moran_system,
)
from gifsdim.shapes import Ball, interior_margin
from gifsdim.systems import (
    ContractionBound,
    GifsSystem,
    SeedSet,
    check_separation,
    contraction_certificate,
    reduce_to_simple,
    subsystem,
    summability_interval,
    translate_word,
    validate_conditions,
)


def test_interior_margin_oracles():
    assert interior_margin(Ball((0.0,), 1.0), Ball((0.25,), 0.5)) == pytest.approx(0.25)
    assert interior_margin(Ball((0.0,), 1.0), Ball((0.0,), 1.0)) == 0.0
    # poking out is negative by the poke depth
    assert interior_margin(Ball((0.0, 0.0), 1.0), Ball((0.9, 0.0), 0.3)) == pytest.approx(-0.2)


def test_validate_ladder_truncation_all_clear():
    sys = ladder_truncation(6)
    rep = validate_conditions(sys, horizon_vertices=6, horizon_edges=32)
    assert rep.checks["seed-geometry"].status == "satisfied"
    assert rep.checks["seed-inside-neighborhood"].status == "satisfied"
    assert rep.checks["maps-into-seeds"].status == "satisfied"
    assert rep.checks["neighborhood-domain"].status == "satisfied"
    assert rep.checks["uniform-contraction"].status == "satisfied"
    # hub images tile the hub seed edge-to-edge: open variant holds, strong
    # variant cannot be certified
    assert rep.checks["separation-open"].status == "satisfied"
    assert rep.checks["separation-strong"].status == "inconclusive"
    assert "c_CJ = 2" in rep.checks["seed-contractibility"].detail
    assert rep.passed


def test_validate_reports_seed_equals_neighborhood():
    seeds = {0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.5))}
    base = moran_system([0.5])
    sys = GifsSystem(base.graph, seeds, base._map_fn, 1, name="flat")
    rep = validate_conditions(sys, 4, 4)
    entry = rep.checks["seed-inside-neighborhood"]
    assert entry.status == "violated"
    assert entry.witness == 0
    assert not rep.passed


def test_validate_flags_declared_rate_contradiction():
    sys = moran_system([0.5, 0.6])
    sys.contraction = ContractionBound(1, 0.5, 0.5, 1.0)
    rep = validate_conditions(sys, 4, 4)
    entry = rep.checks["uniform-contraction"]
    assert entry.status == "violated"
    assert entry.witness == 1   # the 0.6 loop


def test_separation_three_ways():
    cantor = moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3])
    rep = check_separation(cantor, "SSC")
    assert rep.verdict == "certified-separated"
    assert rep.min_gap == pytest.approx(1 / 3, abs=1e-12)

    overlapping = moran_system([0.5, 0.5], offsets=[0.0, 0.25])
    rep = check_separation(overlapping, "SSC")
    assert rep.verdict == "overlap-witness"
    e1, e2, point = rep.witness
    assert {e1, e2} == {0, 1}
    assert 0.25 < point[0] < 0.5   # inside both images

    rep = check_separation(overlapping, "OSC")
    assert rep.verdict == "overlap-witness"


def test_separation_cf_tangency():
    sys = cf_system([1, 2])
    img1, exact1 = sys.seed_image(complex(1, 0))
    img2, exact2 = sys.seed_image(complex(2, 0))
    assert exact1 and exact2
    assert img1.center == pytest.approx((0.75, 0.0))
    assert img1.radius == pytest.approx(0.25)
    assert img2.center == pytest.approx((5 / 12, 0.0))
    assert img2.radius == pytest.approx(1 / 12)

    osc = check_separation(sys, "OSC")
    assert osc.verdict == "certified-separated"
    assert abs(osc.min_gap) < 1e-12
    ssc = check_separation(sys, "SSC")
    assert ssc.verdict == "inconclusive"


def test_separation_stable_under_horizon_growth():
    sys = cf_system([1, 2, 3, complex(1, 1)])
    small = check_separation(sys, "OSC", horizon_edges=2)
    big = check_separation(sys, "OSC", horizon_edges=4)
    assert small.verdict == "certified-separated"
    assert big.verdict == "certified-separated"
    assert big.pairs_checked > small.pairs_checked


def test_contraction_certificate_cf_pair_bound():
    sys = cf_system([1, 2])
    cb = sys.contraction
    assert cb.depth == 2
    assert cb.rate == pytest.approx(144 / 169, rel=1e-12)
    assert cb.effective_rate == pytest.approx(math.sqrt(144 / 169), rel=1e-12)

    # depth-1 families report themselves as such
    cb1 = contraction_certificate(moran_system([0.3, 0.4]), 4)
    assert cb1.depth == 1
    assert cb1.rate == pytest.approx(0.4)


def test_contraction_certificate_failure():
    # a neighborhood so wide that even pair compositions expand: the
    # certificate must refuse rather than return a rate >= 1
    seeds = {0: SeedSet(0, Ball((0.5, 0.0), 0.5), Ball((0.5, 0.0), 1.3))}
    sys = cf_system([1])
    wide = GifsSystem(sys.graph, seeds, sys._map_fn, 2, name="wide-nbhd")
    with pytest.raises(ConditionViolation):
        contraction_certificate(wide, 1)


def test_validate_cf_full_report():
    rep = validate_conditions(cf_system([1, 2, 3]), 4, 16)
    assert rep.checks["maps-into-seeds"].status == "satisfied"
    assert rep.checks["neighborhood-domain"].status == "satisfied"
    assert rep.checks["separation-open"].status == "satisfied"
    assert rep.passed


def test_reduction_two_loop_multigraph():
    base = moran_system([0.5, 0.25], name="pair")
    red = reduce_to_simple(base)
    assert red.graph.simple
    verts = red.graph.vertex_prefix(10)
    assert verts == [0, 1]
    edges = red.graph.edge_prefix(10)
    assert set(edges) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert red.reduction.dead_ends == ()
    # new seed of vertex e is the exact old image of edge e
    img0, _ = base.seed_image(0)
    assert red.seed(0).seed == img0
    rep = validate_conditions(red, 4, 8)
    assert rep.passed


def test_reduction_flags_dead_end():
    graph_edges = ("loop", "exit")
    from gifsdim.graphs import DirectedMultigraph, Enumeration
    from gifsdim.maps import Similarity

    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0, 1)),
        edges=Enumeration(items=graph_edges),
        initial=lambda e: 0,
        terminal=lambda e: 0 if e == "loop" else 1,
        simple=False,
    )
    seeds = {
        0: SeedSet(0, Ball((0.25,), 0.25), Ball((0.25,), 0.5)),
        1: SeedSet(1, Ball((2.0,), 0.25), Ball((2.0,), 0.5)),
    }
    maps = {
        "loop": Similarity(0.5, (0.125,)),
        "exit": Similarity(0.1, (0.0,)),
    }
    sys = GifsSystem(graph, seeds, maps, 1, name="dead-end")
    red = reduce_to_simple(sys)
    assert red.reduction.dead_ends == ("exit",)


def test_word_translation_matches_enclosures():
    base = moran_system([0.5, 0.25], name="pair")
    red = reduce_to_simple(base)
    word = (0, 0, 1)
    red_word, push = translate_word(word, base)
    assert red_word == ((0, 0), (0, 1))
    assert base.enclosure(word) == red.enclosure(red_word)
    # anchors map through the dropped last letter
    anchor = base.seed(0).seed.center
    pushed = push(anchor)
    img, _ = base.seed_image(1)
    assert pushed == img.center


def test_enclosure_rejects_inadmissible_words():
    sys = ladder_truncation(3)
    with pytest.raises(NonAdmissibleWord):
        sys.enclosure(((2, 1), (3, 2)))   # terminal 1 != initial 3
    with pytest.raises(NonAdmissibleWord):
        sys.enclosure(())


def test_summability_ladder_vertex_and_edge_routes():
    lad = ladder_system()
    est = summability_interval(lad)
    assert est.unit == "vertex"
    assert est.theta_low == 0.0
    assert est.theta_high < 0.01        # every positive exponent certified
    assert est.declared_floor == 0.0

    est_e = summability_interval(
        lad, unit="edge", horizons=(150, 300, 600), divergence_threshold=50.0
    )
    # per-edge sums blow up: no exponent is ever certified on this route
    assert est_e.theta_high == math.inf
    assert est_e.theta_low == pytest.approx(2.0)


def test_summability_cf_threshold_near_one():
    est = summability_interval(cf_system())
    assert est.unit == "edge"
    assert 1.0 <= est.theta_high <= 1.01
    assert est.declared_floor == 1.0

    est_fin = summability_interval(cf_system([1, 2]))
    assert est_fin.theta_high == 0.0 or est_fin.theta_high < 0.01  # finite: all s summable


def test_subsystem_restriction():
    lad = ladder_system()
    sub = subsystem(lad, vertices=(1, 2))
    assert sub.letters(10) == [(1, 1), (1, 2), (2, 1)]
    ranges = [sub.letter_range(e) for e in sub.letters(10)]
    assert [r.upper for r in ranges] == pytest.approx([0.5, 0.5, 0.25])
    assert all(r.width == 0.0 for r in ranges)
    rep = validate_conditions(sub, 2, 3)
    assert rep.passed
