"""Checks for system assembly, condition validation, separation verdicts,
reduction, and summability.

Frozen oracles used here:
  * continued-fraction pair contraction bound at letters {1,2}: the worst
    composition is (1,1) and equals exactly 144/169.
  * tangent image disks of letters 1 and 2: T_1(J)=B(3/4,1/4),
    T_2(J)=B(5/12,1/12), touching at z=1/2.
  * ladder contractibility constant: diam(J_v)/sup = 2 for every vertex.

separation_one_mode, one pass of sibling pairs per separation flavour, is
the reference the one-sweep check_separation is compared against; the
per-letter and per-pair routes of geometry_reference are the references
for the containment check and the contraction certificate, which read the
letter table.  planar_systems draws multi-vertex planar systems that mix
Moebius and affine letters, with coordinates often on a 1/10 grid, so that
gaps and margins often round near 0 and math.dist's rounding decides them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gifsdim import maps as maps_module
from gifsdim import systems as systems_module
from gifsdim.dimension import bowen_dimension
from gifsdim.errors import ConditionViolation, DomainViolation, NonAdmissibleWord
from gifsdim.graphs import DirectedMultigraph, Enumeration, extend_words
from gifsdim.maps import Constant, ConformalAffine, MoebiusCF, PerturbedMoebiusCF
from gifsdim.pressure import PotentialSpec, _fekete_edge_upper, _letter_classes
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
from gifsdim.shapes import GEOM_TOL, Ball, interior_margin, overlap_witness_point
from gifsdim.systems import (
    DEFAULT_EDGE_HORIZON,
    ContractionBound,
    GifsSystem,
    SeedSet,
    SeparationReport,
    check_separation,
    contraction_certificate,
    reduce_to_simple,
    subsystem,
    summability_interval,
    translate_word,
    validate_conditions,
)
import geometry_reference as reference
from geometry_reference import separation_gap


def separation_one_mode(system, mode="SSC", horizon_edges=DEFAULT_EDGE_HORIZON):
    """Pairwise disjointness of sibling seed images for one mode, SSC or OSC:
    touching images (gap within GEOM_TOL of 0) certify OSC but leave SSC
    inconclusive; an overlap is witnessed."""
    if mode not in ("SSC", "OSC"):
        raise ValueError(f"mode {mode} is not SSC or OSC")
    edges = system.letters(horizon_edges)
    groups = {}
    for e in edges:
        groups.setdefault(system.graph.initial(e), []).append(e)
    verdict = "certified-separated"
    min_gap = math.inf
    witness = None
    pairs = 0
    for group in groups.values():
        balls = [system.seed_image(e) for e in group]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs += 1
                gap = separation_gap(balls[i], balls[j])
                min_gap = min(min_gap, gap)
                if gap < -GEOM_TOL:
                    point = overlap_witness_point(balls[i], balls[j])
                    return SeparationReport(
                        mode, "overlap-witness", pairs, gap,
                        (group[i], group[j], point), horizon_edges,
                    )
                if mode == "SSC" and gap <= GEOM_TOL:
                    # touching closed images: cannot certify strong disjointness
                    if verdict == "certified-separated":
                        verdict = "inconclusive"
                        witness = (group[i], group[j], None)
    if pairs == 0:
        min_gap = math.inf
    return SeparationReport(mode, verdict, pairs, min_gap, witness, horizon_edges)


def _report_fields(rep):
    return (rep.mode, rep.verdict, rep.pairs_checked, float(rep.min_gap).hex(),
            rep.witness, rep.horizon_edges)


def _assert_sweep_matches_two_passes(system, horizon_edges=DEFAULT_EDGE_HORIZON):
    sweep = check_separation(system, horizon_edges)
    reference = tuple(separation_one_mode(system, mode, horizon_edges)
                      for mode in ("SSC", "OSC"))
    assert tuple(map(_report_fields, sweep)) == tuple(map(_report_fields, reference))


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


def test_validate_reports_a_seed_on_a_pole():
    # the seed holds -1, the pole of 1/(1+z): nothing there has an image ball
    seeds = {0: SeedSet(0, Ball((-1.0, 0.0), 0.5), Ball((-1.0, 0.0), 0.75))}
    base = cf_system([1, 2])
    sys = GifsSystem(base.graph, seeds, MoebiusCF, 2, name="pole")
    rep = validate_conditions(sys)
    assert not rep.passed
    assert rep.checks["maps-into-seeds"].status == "violated"
    assert "pole" in rep.checks["maps-into-seeds"].detail
    for key in ("separation-strong", "separation-open"):
        assert rep.checks[key].status == "inconclusive"
        assert "pole" in rep.checks[key].detail
    assert rep.separation.mode == "SSC" and rep.separation.verdict == "inconclusive"
    entry = rep.checks["seed-contractibility"]
    assert entry.status == "violated" and entry.witness == 0 and "pole" in entry.detail


def test_validate_flags_declared_rate_contradiction():
    sys = moran_system([0.5, 0.6])
    sys.contraction = ContractionBound(1, 0.5, 0.5, 1.0)
    rep = validate_conditions(sys, 4, 4)
    entry = rep.checks["uniform-contraction"]
    assert entry.status == "violated"
    assert entry.witness == 1   # the 0.6 loop


def test_separation_three_ways():
    cantor = moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3])
    rep = check_separation(cantor)[0]
    assert rep.verdict == "certified-separated"
    assert rep.min_gap == pytest.approx(1 / 3, abs=1e-12)

    overlapping = moran_system([0.5, 0.5], offsets=[0.0, 0.25])
    rep, rep_open = check_separation(overlapping)
    assert rep.verdict == "overlap-witness"
    e1, e2, point = rep.witness
    assert {e1, e2} == {0, 1}
    assert 0.25 < point[0] < 0.5   # inside both images

    assert rep_open.verdict == "overlap-witness"


def test_separation_cf_tangency():
    sys = cf_system([1, 2])
    img1 = sys.seed_image(complex(1, 0))
    img2 = sys.seed_image(complex(2, 0))
    assert img1.center == pytest.approx((0.75, 0.0))
    assert img1.radius == pytest.approx(0.25)
    assert img2.center == pytest.approx((5 / 12, 0.0))
    assert img2.radius == pytest.approx(1 / 12)

    ssc, osc = check_separation(sys)
    assert osc.verdict == "certified-separated"
    assert abs(osc.min_gap) < 1e-12
    assert ssc.verdict == "inconclusive"


def test_separation_stable_under_horizon_growth():
    sys = cf_system([1, 2, 3, complex(1, 1)])
    small = check_separation(sys, horizon_edges=2)[1]
    big = check_separation(sys, horizon_edges=4)[1]
    assert small.verdict == "certified-separated"
    assert big.verdict == "certified-separated"
    assert big.pairs_checked > small.pairs_checked


@pytest.mark.parametrize("build", [
    lambda: cf_system([1, 2]),
    lambda: cf_system([1, 2, 3, complex(1, 1)]),
    lambda: cf_system(tuple(gaussian_alphabet(4))),
    lambda: moran_system([0.5, 0.5], offsets=[0.0, 0.25]),
    lambda: ladder_truncation(6),
    affine_demo,
    lambda: perturbed_affine(0.5),
    lambda: perturbed_cf([1, 2], gaussian_alphabet(2), epsilon=0.5),
], ids=["cf12", "cf1231i", "cf-gauss4", "overlap", "ladder6", "affine",
        "affine-0.5", "perturbed-cf"])
def test_one_sweep_matches_two_mode_passes_on_shipped_systems(build):
    _assert_sweep_matches_two_passes(build())


# offsets on a 1/24 grid and ratios dividing it make touching images common
MORAN_OFFSETS = st.integers(0, 23).map(lambda k: k / 24)


@settings(max_examples=150, deadline=None)
@given(letters=st.lists(
           st.tuples(st.sampled_from([1 / 8, 1 / 4, 1 / 3, 1 / 2]), MORAN_OFFSETS),
           min_size=2, max_size=6),
       horizon=st.integers(2, 6))
def test_one_sweep_matches_two_mode_passes_on_moran_systems(letters, horizon):
    ratios, offsets = zip(*letters)
    _assert_sweep_matches_two_passes(moran_system(ratios, offsets=offsets), horizon)


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


@pytest.mark.parametrize("letters", [(1, 2), gaussian_alphabet(2)], ids=["cf12", "gaussian-2"])
def test_one_step_sups_lie_under_the_depth_2_comparison(letters):
    # the product bound comparison * effective_rate**n must hold at n = 1,
    # where a depth-2 certificate lets a single step reach 1 and above
    system = cf_system(letters)
    cb = system.contraction
    assert cb.depth == 2
    sups = [system.letter_range(e, on="neighborhood").upper for e in system.letters(len(letters))]
    assert max(sups) > 1.0
    assert all(sup <= cb.comparison * cb.effective_rate for sup in sups)


@pytest.mark.parametrize("make", [lambda: cf_system((1, 2)),
                                  lambda: cf_system(gaussian_alphabet(2)),
                                  lambda: cf_system(gaussian_alphabet(4)),
                                  cf_system], ids=["cf12", "gaussian-2", "gaussian-4", "cf-full"])
def test_the_depth_2_rates_hold_in_exact_arithmetic(make):
    # effective_rate is rounded up from sqrt(rate), so that its square
    # reaches rate as exact rationals; comparison * effective_rate must
    # still reach the largest one-step sup, letter 1's
    system = make()
    cb = system.contraction
    assert cb.depth == 2
    assert Fraction(cb.effective_rate) ** 2 >= Fraction(cb.rate)
    r1 = max(system.letter_range(e, on="neighborhood").upper for e in system.letters(64))
    assert Fraction(cb.comparison) * Fraction(cb.effective_rate) >= Fraction(r1)


def test_contraction_certificate_failure():
    # a neighborhood so wide that even pair compositions expand: the
    # certificate must refuse rather than return a rate >= 1
    seeds = {0: SeedSet(0, Ball((0.5, 0.0), 0.5), Ball((0.5, 0.0), 1.3))}
    sys = cf_system([1])
    wide = GifsSystem(sys.graph, seeds, sys._map_fn, 2, name="wide-nbhd")
    with pytest.raises(ConditionViolation):
        contraction_certificate(wide, 1)


def test_contraction_certificate_pairs_admissible_compositions():
    # T_e o T_f is admissible when f starts where e ends.  Letters a: 0 -> 1
    # and c: 0 -> 0 are 1/(1+z), b: 1 -> 0 expands by 2.5; the word (b, c)
    # reaches |(T_b o T_c)'| = 2.5 * 16/9 on c's neighbourhood, so no
    # depth-2 rate below 1 holds
    seeds = {0: SeedSet(0, Ball((0.5, 0.0), 0.5), Ball((0.5, 0.0), 0.75)),
             1: SeedSet(1, Ball((3.0, 0.0), 0.5), Ball((3.0, 0.0), 0.75))}
    ends = {"a": (0, 1), "b": (1, 0), "c": (0, 0)}
    maps = {"a": MoebiusCF(1), "b": ConformalAffine(2.5, (2.0, 0.0)), "c": MoebiusCF(1)}
    graph = DirectedMultigraph(Enumeration(items=(0, 1)), Enumeration(items=tuple(ends)),
                               lambda e: ends[e][0], lambda e: ends[e][1])
    sys = GifsSystem(graph, seeds, maps, 2, name="expanding-pair")
    with pytest.raises(ConditionViolation, match="4.44444"):
        contraction_certificate(sys, 10)
    assert validate_conditions(sys).checks["uniform-contraction"].status == "violated"


def test_a_zero_pairwise_bound_certifies_contraction():
    # a: 0 -> 1 expands by 1.5, and c: 1 -> 0 is constant, so the only
    # admissible pairs, (a, c) and (c, a), compose to constants: the
    # pairwise bound is 0, and needs no division.  The certificate is
    # depth 2 at rate 0, the batched one as the per-pair one, and the
    # condition pass reports every entry without raising
    seeds = {v: SeedSet(v, Ball((0.5 + 3 * v, 0.0), 0.5), Ball((0.5 + 3 * v, 0.0), 0.75))
             for v in (0, 1)}
    ends = {"a": (0, 1), "c": (1, 0)}
    maps = {"a": ConformalAffine(1.5, (0.0, 0.0)), "c": Constant((0.5, 0.0))}
    graph = DirectedMultigraph(Enumeration(items=(0, 1)), Enumeration(items=tuple(ends)),
                               lambda e: ends[e][0], lambda e: ends[e][1])

    def make():
        return GifsSystem(graph, seeds, maps, 2, name="zero-pair")

    cb = contraction_certificate(make(), 2)
    assert (cb.depth, cb.rate, cb.effective_rate) == (2, 0.0, 0.0)
    assert bound_bits(cb) == certificate_bits(reference.contraction_certificate, make(), 2)
    report = validate_conditions(make())
    assert report.checks["uniform-contraction"].status == "satisfied"
    assert {entry.status for entry in report.checks.values()} <= {
        "satisfied", "violated", "inconclusive", "skipped"}
    assert len(report.checks) > 1


COORDS = st.one_of(st.integers(-20, 20).map(lambda k: k / 10), st.floats(-2, 2))
GAUSSIAN = st.builds(complex, st.integers(1, 3), st.integers(-2, 2))
PLANAR_MAPS = st.one_of(
    st.builds(MoebiusCF, GAUSSIAN),
    st.builds(PerturbedMoebiusCF, GAUSSIAN, st.sampled_from([0.25, 0.5, 1.0])),
    st.builds(ConformalAffine, st.builds(complex, COORDS, COORDS).map(lambda z: z / 2),
              st.tuples(COORDS, COORDS)),
    st.builds(Constant, st.tuples(COORDS, COORDS)),
)


@st.composite
def planar_systems(draw):
    """(make, k): a maker of fresh copies of one drawn system, with 1 to 3
    vertices and 1 to 8 letters, and a horizon."""
    count = draw(st.integers(1, 3))
    vertex = st.integers(0, count - 1)
    letters = draw(st.lists(st.tuples(vertex, vertex, PLANAR_MAPS), min_size=1, max_size=8))
    seeds = {v: SeedSet(v, Ball((0.5 + 3 * v, 0.0), 0.5), Ball((0.5 + 3 * v, 0.0), 0.75))
             for v in range(count)}

    def make():
        graph = DirectedMultigraph(Enumeration(items=range(count)),
                                   Enumeration(items=range(len(letters))),
                                   lambda e: letters[e][0], lambda e: letters[e][1])
        return GifsSystem(graph, seeds, {e: f for e, (_, _, f) in enumerate(letters)}, 2,
                          name="drawn")

    return make, draw(st.integers(1, len(letters)))


def certificate_bits(certify, system, k):
    """The certificate's fields in float.hex, or the type of its error and,
    for a ConditionViolation, its message."""
    try:
        cb = certify(system, k)
    except ConditionViolation as err:
        return ConditionViolation, str(err)
    except (DomainViolation, ValueError) as err:
        return type(err)
    return bound_bits(cb)


def bound_bits(cb):
    return cb.depth, cb.rate.hex(), cb.effective_rate.hex(), cb.comparison.hex()


@settings(max_examples=150, deadline=None)
@given(drawn=planar_systems())
def test_the_batched_certificate_is_the_per_pair_one(drawn):
    make, k = drawn
    assert (certificate_bits(contraction_certificate, make(), k)
            == certificate_bits(reference.contraction_certificate, make(), k))


@settings(max_examples=150, deadline=None)
@given(drawn=planar_systems())
def test_the_batched_conditions_are_the_per_letter_ones_on_planar_systems(drawn):
    make, k = drawn
    # the separation sweep and the containment check round each gap and
    # margin as math.dist does
    _assert_sweep_matches_two_passes(make(), k)
    assert systems_module._containment(make(), k) == reference.containment(make(), k)


def test_gaps_and_margins_round_as_math_dist_where_they_decide():
    # np.hypot and math.hypot differ in the last bit on about 1 pair in 200;
    # every gap here is within rounding of 0, so each one decides
    rng = np.random.default_rng(0)
    dx, dy = rng.uniform(-1, 1, (2, 2000))
    radii = np.hypot(dx, dy)
    gaps = systems_module._by_distance(dx, dy, radii, lambda d: d - radii, GEOM_TOL)
    want = [math.dist((0.0, 0.0), (x, y)) - r for x, y, r in zip(dx, dy, radii)]
    assert [g.hex() for g in gaps.tolist()] == [g.hex() for g in want]
    # margins near 1 decide nothing but their least value, which rounds as
    # math.dist's does
    outer = radii + 1.0
    margins = systems_module._by_distance(dx, dy, outer, lambda d: outer - d, -GEOM_TOL)
    assert margins.min() == min(o - math.dist((0.0, 0.0), (x, y))
                                for x, y, o in zip(dx, dy, outer))


def old_probe_certificate(system, probe_letters):
    """The certificate of the probe system each CF scenario used to build:
    the probe letters alone, on the CF seed, certified pair by pair."""
    graph = DirectedMultigraph(Enumeration(items=(0,)), Enumeration(items=tuple(probe_letters)),
                               lambda e: 0, lambda e: 0, simple=False)
    probe = GifsSystem(graph, {0: system.seed(0)},
                       {e: system._map_fn(e) for e in probe_letters}, 2, name="cf-probe")
    return reference.contraction_certificate(probe, len(probe_letters))


def _probe_extra(sub):
    return tuple(sub) + tuple(e for e in gaussian_alphabet(2) if e not in sub)


CF_PROBES = {
    "cf-full": (cf_system, gaussian_alphabet(2)),
    "cf12": (lambda: cf_system((1, 2)), (1, 2)),
    "gaussian-4": (lambda: cf_system(gaussian_alphabet(4)), gaussian_alphabet(4)),
    "perturbed-full": (lambda: perturbed_cf((1, 2)), _probe_extra((1, 2))),
    "perturbed-full-quarter": (lambda: perturbed_cf((1, 2), epsilon=0.25), _probe_extra((1, 2))),
    "perturbed-full-zero": (lambda: perturbed_cf((1, 2), epsilon=0.0), _probe_extra((1, 2))),
    "perturbed-full-outer": (lambda: perturbed_cf((complex(1, 1), 3), epsilon=0.5),
                             _probe_extra((complex(1, 1), 3))),
    "perturbed-three": (lambda: perturbed_cf((1, 2), (1, 2, 3), 0.25), (1, 2, 3)),
    "perturbed-three-zero": (lambda: perturbed_cf((1, 2), (1, 2, 3), 0.0), (1, 2, 3)),
    "perturbed-gaussian-2": (lambda: perturbed_cf((1, 2), gaussian_alphabet(2), 0.5),
                             _probe_extra((1, 2))),
}


@pytest.mark.parametrize("name", sorted(CF_PROBES))
def test_cf_systems_certify_what_their_probe_systems_did(name):
    make, probe = CF_PROBES[name]
    system = make()
    # the probe alphabet is the system's first letters
    assert system.letters(len(probe)) == [complex(e) for e in probe]
    got = system.contraction
    assert bound_bits(got) == bound_bits(old_probe_certificate(system, probe))
    if name.startswith("cf"):
        assert got.rate.hex() == "0x1.b442a6a0916b8p-1"


def test_the_pair_budget_is_checked_before_any_pair_is_mapped(monkeypatch):
    system = cf_system(gaussian_alphabet(2))   # 10 letters, 100 pairs
    calls = []

    def counted(name, kernel):
        def call(*args):
            calls.append(name)
            return kernel(*args)
        return call

    for name in ("disk_images", "derivative_ranges", "moebius_disk_image",
                 "moebius_derivative_range", "derivative_range_over_set"):
        monkeypatch.setattr(maps_module, name, counted(name, getattr(maps_module, name)))
    monkeypatch.setattr(systems_module, "PAIR_BUDGET", 99)
    with pytest.raises(ConditionViolation, match="pair budget 99 exceeded by 100"):
        contraction_certificate(system, 10)
    # the letters' own sups were ranged when the system certified itself
    assert calls == []
    monkeypatch.setattr(systems_module, "PAIR_BUDGET", 100)
    assert contraction_certificate(system, 10) == system.contraction
    assert calls == ["disk_images", "moebius_disk_image",
                     "derivative_ranges", "moebius_derivative_range"]


def test_out_edges_do_not_depend_on_call_history():
    assert affine_demo().out_edges(1, 1) == [(1, 1)]
    seen = affine_demo()
    assert seen.out_edges(1, 4096) == [(1, 1), (1, 2)]
    assert seen.out_edges(1, 1) == [(1, 1)]
    # each vertex's out-letters among letters(h), in enumeration order,
    # after a larger horizon was asked for first
    lad = ladder_system()
    lad.out_edges(1, 4096)
    for h in (1, 5, 64, 4096):
        letters = lad.letters(h)
        for v in lad.vertices_prefix(12):
            assert lad.out_edges(v, h) == [e for e in letters if lad.graph.initial(e) == v]


def test_incidence_table_does_not_depend_on_call_history():
    # the letter classes, the word steps and the Fekete tail bound at a
    # small horizon read the first rows of a table already grown to 512
    # letters, and match a fresh system's, bit for bit
    seen = ladder_system()
    seen.incidence(512)
    fresh = ladder_system()
    assert _letter_classes(seen, 64) == _letter_classes(fresh, 64)
    got, want = seen.incidence(64), fresh.incidence(64)
    assert got[0] == want[0]
    assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
    level = np.arange(len(got[0]))[:, None]
    steps = extend_words(*got[1:], level), extend_words(*want[1:], level)
    for a, b in zip(*steps):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # b follows a exactly when a ends where b starts
    g = seen.graph
    _, tails, blocks = steps[0]
    assert [tails[i:j].tolist() for i, j in zip(blocks, blocks[1:])] == [
        [j for j, b in enumerate(got[0]) if g.terminal(a) == g.initial(b)] for a in got[0]]
    pot = PotentialSpec(1.5)
    seen = cf_system()
    seen.incidence(512)
    # and the letter table's sup column, grown past the horizon
    seen.seed_ranges(512)
    got, want = _fekete_edge_upper(seen, pot, 40), _fekete_edge_upper(cf_system(), pot, 40)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_a_horizon_cap_below_a_finite_alphabet_is_refused():
    # a cap of 2 on these four letters used to solve their 2-letter
    # truncation, dimension 1/2, as the whole system, of dimension 1; the
    # alphabet may be item-listed or given by a factory under a finite tail
    base = moran_system([0.25] * 4, offsets=[0.0, 0.25, 0.5, 0.75])
    g = base.graph

    def rebuilt(cap, listed):
        if listed:
            edges = Enumeration(items=range(4))
        else:
            edges = Enumeration(factory=lambda: iter(range(4)))
        graph = DirectedMultigraph(g.vertices, edges, g.initial, g.terminal, g.simple)
        return GifsSystem(graph, base._seed_fn, base._map_fn, 1,
                          contraction=base.contraction, tail=base.tail,
                          edge_horizon_cap=cap)

    for listed in (True, False):
        with pytest.raises(ConditionViolation,
                           match="cap 2 cuts a finite alphabet of more than 2 letters"):
            rebuilt(2, listed)
        res = bowen_dimension(rebuilt(4, listed))
        assert res.scope == "truncated"
        assert res.s_lower <= 1.0 <= res.s_upper


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
    img0 = base.seed_image(0)
    assert red.seed(0).seed == img0
    rep = validate_conditions(red, 4, 8)
    assert rep.passed


def test_reduction_flags_dead_end():
    graph_edges = ("loop", "exit")
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
    img = base.seed_image(1)
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
