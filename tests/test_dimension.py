"""Dimension-bracket tests.

Frozen oracles used here:
  * Moran equation roots via an independent 1-D root finder:
    {1/3, 1/3} -> log2/log3 = 0.6309297535714574,
    {1/2, 1/4} -> 0.6942419136306174 (x + x**2 = 1, x = 2**-s),
    {1/2, 1/8} -> 0.5514630897455955 (t**3 + t = 1, t = 2**-s).
  * hub-and-spine truncation to vertices {1, 2}: three similarity edges
    with cycle products 1/2 (loop) and 1/8 (2-cycle), same Moran root
    0.5514630897455955.
  * continued-fraction letters {1, 2}: digits-in-{1,2} Cantor set,
    dimension 0.5312805062772051 to well past the tolerance used.
  * full hub-and-spine system: the declared pressure upper crosses zero at
    log2 of the golden ratio = 0.6942419...; the Moran-type equation
    sum over cycles 2**(-s*u*(u+1)/2) = 1 puts the true value near 0.633,
    so the certified bracket stays wider than the finite-case ones.
"""

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import gifsdim.dimension as dimension_module
import gifsdim.pressure as pressure_module
import gifsdim.systems as systems_module
from gifsdim.cli import parse_config
from gifsdim.cli import run as cli_run
from gifsdim.dimension import (
    DimensionResult,
    _gather_conditions,
    _lyapunov_range,
    _outward_step,
    bowen_dimension,
    default_horizon,
    dimension_per_component,
    lower_estimate,
    upper_estimate,
)
from gifsdim.errors import (
    BudgetExhausted,
    CrossedBracket,
    GifsError,
    IrregularSystem,
    SummabilityWitnessMissing,
)
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import ConformalAffine, MoebiusCF, Similarity
from gifsdim.perturb import affine_family, cf_family
from gifsdim.pressure import (
    PotentialSpec,
    build_weighted_matrix,
    truncation_ladder,
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
from gifsdim.systems import ContractionBound, GifsSystem, SeedSet, finite_tail

GOLDEN = 0.6942419136306174
CANTOR = 0.6309297535714574
TWO_LOOP = 0.5514630897455955
CF_DIGITS_12 = 0.5312805062772051


def moran_root(ratios):
    if len(ratios) == 1:
        return 0.0
    return brentq(
        lambda s: sum(r**s for r in ratios) - 1.0, 1e-12, 6.0, xtol=1e-14
    )


def contains(result, value):
    return result.s_lower - 1e-12 <= value <= result.s_upper + 1e-12


def union_system():
    """Two similarity full shifts on separate vertices, no connecting edges:
    {1/3, 1/3} at vertex 0 and {1/2, 1/8} at vertex 1."""
    spec = {
        (0, "a"): (1.0 / 3.0, 0.0),
        (0, "b"): (1.0 / 3.0, 2.0 / 3.0),
        (1, "a"): (0.5, 2.5),
        (1, "b"): (0.125, 5.25),
    }
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0, 1)),
        edges=Enumeration(items=tuple(spec)),
        initial=lambda e: e[0],
        terminal=lambda e: e[0],
        simple=False,
    )
    seeds = {
        0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75)),
        1: SeedSet(1, Ball((5.5,), 0.5), Ball((5.5,), 0.75)),
    }
    maps = {e: Similarity(r, (t,)) for e, (r, t) in spec.items()}
    return GifsSystem(
        graph, seeds, maps, 1,
        contraction=ContractionBound(1, 0.5, 0.5, 1.0),
        tail=finite_tail("edge"),
        name="union",
    )


# ---------------------------------------------------------------------------
# closed-form Moran systems


def test_cantor_bracket_tight():
    res = bowen_dimension(moran_system([1 / 3, 1 / 3]), s_tol=1e-9)
    assert contains(res, CANTOR)
    assert res.width <= 1e-9
    assert res.scope == "truncated"


def test_golden_bracket_tight():
    res = bowen_dimension(moran_system([0.5, 0.25]), s_tol=1e-9)
    assert contains(res, GOLDEN)
    assert res.width <= 1e-9


def test_two_loop_bracket_and_provenance():
    res = bowen_dimension(moran_system([0.5, 0.125]))
    assert contains(res, TWO_LOOP)
    assert res.width <= 1e-6
    cond = dict(res.conditions)
    assert cond["validation"] == "passed"
    assert cond["summability"] == "finite-alphabet"
    rec = res.record()
    assert rec["s_lower"] <= TWO_LOOP <= rec["s_upper"]
    assert rec["scope"] == "truncated"
    assert rec["conditions"]["validation"] == "passed"


def test_random_moran_against_root_oracle():
    rng = np.random.default_rng(20240811)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        ratios = [float(r) for r in rng.uniform(0.05, 0.6, size=n)]
        root = moran_root(ratios)
        res = bowen_dimension(moran_system(ratios), s_max=4.0)
        assert contains(res, root), (ratios, root, res.s_lower, res.s_upper)
        assert res.width <= 1e-6


def test_single_map_collapses_to_zero():
    res = bowen_dimension(moran_system([0.5]))
    assert res.s_lower == 0.0
    assert res.s_upper == 0.0


def test_monotone_under_edge_addition():
    nests = [[0.5], [0.5, 0.25], [0.5, 0.25, 0.125]]
    lows = []
    for ratios in nests:
        res = bowen_dimension(moran_system(ratios))
        assert contains(res, moran_root(ratios))
        lows.append(res.s_lower)
    assert lows == sorted(lows)


# ---------------------------------------------------------------------------
# multi-vertex finite systems


def test_ladder_truncation_anchor():
    sub = ladder_truncation(2)
    assert len(sub.letters(100)) == 3
    res = bowen_dimension(sub)
    assert contains(res, TWO_LOOP)
    assert res.width <= 5e-4
    assert abs(res.midpoint - 0.5514) <= 5e-4


def test_affine_demo_bracket_and_single_component():
    root = moran_root([0.4, 0.075])  # loop 0.4, 2-cycle 0.25 * 0.3
    res = bowen_dimension(affine_demo())
    assert contains(res, root)
    assert res.width <= 1e-6
    comp = dimension_per_component(affine_demo())
    assert len(comp) == 1
    (only,) = comp.values()
    assert abs(only.midpoint - res.midpoint) <= 2e-6


def test_cf_digit_pair_matches_external_constant():
    res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5)
    assert contains(res, CF_DIGITS_12)
    assert res.width <= 1e-4
    assert res.scope == "truncated"


def test_solve_brackets_are_pinned_bitwise():
    # the mean-value steps moved every bracket off the one sign bisection
    # pinned before (olds); each new one must meet every earlier pin, be no
    # wider, and stay consistent with the reference: the value itself for
    # cantor and CF {1, 2}, the [two-loop floor, golden ceiling] for the
    # ladder.  The chain elimination then moved the ladder's inside its
    # earlier pin (within), and the unshifted power iteration on primitive
    # classes moved CF {1, 2}'s and the ladder's off their mean-value pins,
    # to the pins last in their olds.  Reweighting in the log domain,
    # exp(s * log w) for w**s, then moved CF {1, 2}'s lower end down by
    # 1 ulp and the ladder's by 3.9e-12: where the Collatz-Wielandt
    # iteration stops inside CW_TOL moves a probe's pressure bounds by a
    # few 1e-12 either way, and the root step carries that into s.  Those
    # two brackets may be wider than an earlier pin by at most slack = 1e-9
    # of its width (they are wider than the pins they replace by 5.5e-11
    # and 6.3e-11 of it); cantor's did not move and may not widen at all.
    # Running complete classes without scales, at CW_TOL = 3e-11, then
    # moved both of CF {1, 2}'s ends in
    pinned = (
        (moran_system([1 / 3, 1 / 3]), 1e-7,
         ("0x1.4309398353537p-1", "0x1.4309398353543p-1"),
         (("0x1.4309380000000p-1", "0x1.43093a0000000p-1"),), (CANTOR, CANTOR), None,
         0.0),
        (cf_system(letters=(1, 2)), 1e-5,
         ("0x1.1003ea34b1443p-1", "0x1.10042d73e809bp-1"),
         (("0x1.1003ea34a274dp-1", "0x1.10042d7434200p-1"),
          ("0x1.1003400000000p-1", "0x1.10040c0000000p-1"),
          ("0x1.1003ea34a1c14p-1", "0x1.10042d74188c3p-1"),
          ("0x1.1003ea34a1c13p-1", "0x1.10042d74188c3p-1")),
         (CF_DIGITS_12, CF_DIGITS_12), None, 1e-9),
        (ladder_system(), 1e-3,
         ("0x1.4382fb193df79p-1", "0x1.63847f395667cp-1"),
         (("0x1.4382fb1943bcap-1", "0x1.63847f395667cp-1"),
          ("0x1.4380000000000p-1", "0x1.63a4000000000p-1"),
          ("0x1.4382fb19469f6p-1", "0x1.63847f395667cp-1")), (TWO_LOOP, GOLDEN),
         ("0x1.4382fb18d8df4p-1", "0x1.63847f39566d1p-1"), 1e-9),
    )
    for sysm, s_tol, new, olds, (floor, ceiling), within, slack in pinned:
        res = bowen_dimension(sysm, s_tol=s_tol)
        assert (res.s_lower.hex(), res.s_upper.hex()) == new, sysm.name
        lo, hi = map(float.fromhex, new)
        for old in olds:
            old_lo, old_hi = map(float.fromhex, old)
            assert lo <= old_hi and old_lo <= hi, sysm.name
            assert hi - lo <= (old_hi - old_lo) * (1.0 + slack), sysm.name
        assert lo <= ceiling and floor <= hi, sysm.name
        if within is not None:
            in_lo, in_hi = map(float.fromhex, within)
            assert in_lo <= lo and hi <= in_hi, sysm.name


def test_solve_raises_no_weight_to_a_power(monkeypatch):
    # the spectral layer reweights each class as exp(s * log w) from logs
    # taken once per geometry, and the disk maths squares with np.square,
    # so no libm pow runs on a solve's path
    def refuse(*args, **kwargs):
        raise AssertionError("np.float_power called during a solve")

    monkeypatch.setattr(np, "float_power", refuse)
    res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5)
    assert contains(res, CF_DIGITS_12)


BLAS_PROGRAM = """
from gifsdim import bowen_dimension
from gifsdim.scenarios import cf_system, gaussian_alphabet

res = bowen_dimension(cf_system(gaussian_alphabet(2)))
print(res.s_lower.hex(), res.s_upper.hex(), res.depth)
"""


def test_stacked_classes_give_the_same_bits_on_one_and_two_blas_threads():
    # the 10-letter complete classes of gaussian_alphabet(2) multiply by
    # np.matmul, so their sums round as the BLAS kernel adds them; the
    # bracket must not depend on how many threads that kernel may use
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", BLAS_PROGRAM], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(proc.stdout)
    assert out[0] == out[1]
    lower, upper, depth = out[0].split()
    assert float.fromhex(lower) < float.fromhex(upper) and int(depth) > 1


def test_cf_pair_refines_only_until_the_enclosure_fits():
    # the sign rule needed 39 evals and depth 14 here; a straddling probe's
    # own enclosure fits s_tol/2 by depth 11
    res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5)
    assert res.evals < 39
    assert res.depth <= 11 and res.horizon == 2
    assert res.stop_reason == "tolerance"
    assert contains(res, CF_DIGITS_12)
    rec = res.record()
    assert "depth" not in rec and "horizon" not in rec


def test_cf_pair_solve_stays_within_its_iteration_budget(monkeypatch):
    # the Collatz-Wielandt iterations of the cf-deep solve: 915 when every
    # class iterated on I + B/theta, 427 with its primitive classes on
    # B/theta, and 448 once its complete classes ran without scales from
    # lifted starts, at a tighter CW_TOL; a change that brings the shift
    # back to them fails here.  Both sides of each class iterate in one
    # loop, whose passes number the larger side's count: 232 over the 18
    # calls, where the sides take 448; a return to one loop per side fails
    # here too
    counts, passes = [], []
    inner, matvec = pressure_module._cw_bracket, pressure_module._class_matvec

    def counted(plan, s):
        out = inner(plan, s)
        counts.extend(side[3] for side in out)
        return out

    def counted_matvec(plan, data, v):
        step = matvec(plan, data, v)

        def counted_step():
            passes.append(None)
            return step()

        return counted_step

    monkeypatch.setattr(pressure_module, "_cw_bracket", counted)
    monkeypatch.setattr(pressure_module, "_class_matvec", counted_matvec)
    res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5)
    assert contains(res, CF_DIGITS_12)
    assert sum(counts) <= 500, sum(counts)
    assert len(passes) <= 240, len(passes)


def test_cf_pair_meets_a_tolerance_no_sign_can_reach():
    # at s_tol=1e-4 the sign rule ended at 1.83e-4: its midpoint sat 1e-8
    # from the root, where no depth certifies the sign
    res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-4)
    assert res.width <= 1e-4
    assert res.stop_reason == "tolerance"
    assert contains(res, CF_DIGITS_12)


def test_crossed_root_enclosures_raise(monkeypatch):
    # a probe whose bracket contradicts the ceiling's must raise, naming
    # itself, instead of collapsing the bracket
    ladder = dimension_module.truncation_ladder
    fakes = iter([(-0.1, -0.05)])

    def inconsistent(system, potential, horizons, depth=1, **kw):
        lower, upper = next(fakes, (0.5, 0.6))
        return [replace(e, lower=lower, upper=upper)
                for e in ladder(system, potential, horizons, depth, **kw)]

    monkeypatch.setattr(dimension_module, "truncation_ladder", inconsistent)
    with pytest.raises(CrossedBracket) as err:
        bowen_dimension(moran_system([1 / 3, 1 / 3]), check_conditions=False)
    assert isinstance(err.value, GifsError)
    assert (err.value.lower, err.value.upper) == (0.5, 0.6)
    assert 1.9 < err.value.s < 2.0  # inside the ceiling's enclosure
    assert err.value.root_lower > err.value.root_upper


STEP_FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(s=STEP_FLOATS, p=STEP_FLOATS, chi=st.floats(1e-6, 1e3))
def test_outward_step_encloses_the_exact_step(s, p, chi):
    with mpmath.workdps(50):
        exact = mpmath.mpf(s) + mpmath.mpf(p) / mpmath.mpf(chi)
        lo = _outward_step(s, p, chi, -math.inf)
        hi = _outward_step(s, p, chi, math.inf)
        assert lo <= exact <= hi
    # outward by a few ulps of the terms, not more
    assert hi - lo <= 8 * math.ulp(abs(s) + abs(p / chi))


def test_outward_step_without_a_slope_bounds_nothing():
    assert _outward_step(0.5, -1.0, 0.0, -math.inf) == -math.inf
    assert _outward_step(0.5, 1.0, 0.0, math.inf) == math.inf
    assert _outward_step(0.5, math.inf, 0.7, math.inf) == math.inf
    assert _outward_step(0.5, -math.inf, 0.7, -math.inf) == -math.inf
    # an infinite chi_max: the step is s itself, one ulp outward
    below = math.nextafter(0.5, 0.0)
    assert _outward_step(0.5, 0.3, math.inf, -math.inf) == below


def lyapunov_range(system, k, m):
    geom = build_weighted_matrix(system, PotentialSpec(1.0), k, m).geometry
    chi_min, chi_max = _lyapunov_range(geom)
    # outward against the logs of the extreme entries at 50 digits
    with mpmath.workdps(50):
        assert chi_min <= -mpmath.log(mpmath.mpf(float(geom.upper.max())))
        assert chi_max >= -mpmath.log(mpmath.mpf(float(geom.lower.min())))
    return chi_min, chi_max


MORAN_RATIOS = st.lists(st.floats(0.05, 0.6), min_size=2, max_size=6)


@settings(max_examples=25, deadline=None)
@given(ratios=MORAN_RATIOS, s=st.floats(0.0, 3.0), dt=st.floats(1e-3, 2.0))
def test_moran_solve_and_slope_cone(ratios, s, dt):
    # P(s) = log sum r_i**s exactly; the solved bracket holds its root and
    # P(t) - P(s) lies in the cone the geometry's chi gives
    root = moran_root(ratios)
    res = bowen_dimension(moran_system(ratios), s_max=4.0,
                          check_conditions=False)
    assert res.s_lower - 2e-14 <= root <= res.s_upper + 2e-14
    assert res.width <= 1e-6
    chi_min, chi_max = lyapunov_range(moran_system(ratios), len(ratios), 1)
    t = s + dt
    with mpmath.workdps(50):
        pressure = [mpmath.log(mpmath.fsum(mpmath.mpf(r) ** mpmath.mpf(x)
                                           for r in ratios)) for x in (s, t)]
        span = mpmath.mpf(t) - mpmath.mpf(s)
        assert -chi_max * span <= pressure[1] - pressure[0] <= -chi_min * span


def test_cf_pair_brackets_stay_in_the_slope_cone():
    # at each depth, brackets at s < t must admit values P(s), P(t) with
    # -chi_max (t - s) <= P(t) - P(s) <= -chi_min (t - s)
    sysm = cf_system(letters=(1, 2))
    exponents = (0.2, 0.45, 0.53, 0.531, 0.6, 0.9, 1.5)
    for m in range(4, 9):
        chi_min, chi_max = lyapunov_range(sysm, 2, m)
        assert 0.0 < chi_min <= chi_max < math.inf
        brackets = [
            truncation_ladder(sysm, PotentialSpec(x), [2], depth=m)[0]
            for x in exponents
        ]
        pairs = itertools.combinations(zip(exponents, brackets), 2)
        for (s, p), (t, q) in pairs:
            assert q.lower <= p.upper - chi_min * (t - s), (m, s, t)
            assert q.upper >= p.lower - chi_max * (t - s), (m, s, t)


def test_stop_reason_names_why_refinement_ended():
    capped = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5, state_cap=4)
    assert capped.stop_reason == "state_cap"
    assert capped.width > 1e-5
    assert "stop_reason" not in capped.record()
    # depth m + 1 has 2**(m+1) states: the cap admits it exactly up to there
    for cap, depth in ((3, 1), (4, 2), (7, 2), (8, 3)):
        res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5, state_cap=cap)
        assert (res.stop_reason, res.depth) == ("state_cap", depth), cap
    cantor = bowen_dimension(moran_system([1 / 3, 1 / 3]), s_tol=1e-9)
    assert cantor.stop_reason == "tolerance"


def test_default_horizon_takes_every_letter_of_a_finite_system():
    # past 4,096 letters a prefix would be solved in truncated scope, and its
    # s_upper would bound that subsystem, not the system
    def horizon(system, given=None):
        return dimension_module._resolve_defaults(system, None, given, None)[2]

    big = moran_system([1e-4] * 5000)
    assert horizon(big) == 5000
    assert horizon(big, 7) == 7
    assert horizon(moran_system([0.5, 0.25])) == 2
    assert horizon(ladder_system()) == dimension_module.DEFAULT_HORIZON == 64


def test_union_component_max_law():
    sysm = union_system()
    comp = dimension_per_component(sysm)
    assert len(comp) == 2
    mids = {}
    for cls, res in comp.items():
        vertex = cls[0][0]
        mids[vertex] = res.midpoint
        assert res.width <= 1e-6
    assert abs(mids[0] - CANTOR) <= 1e-6
    assert abs(mids[1] - TWO_LOOP) <= 1e-6
    glob = bowen_dimension(sysm)
    assert contains(glob, CANTOR)
    assert glob.width <= 1e-6
    lo = max(r.s_lower for r in comp.values())
    hi = max(r.s_upper for r in comp.values())
    assert abs(glob.s_lower - lo) <= 2e-6
    assert abs(glob.s_upper - hi) <= 2e-6
    assert glob.component is not None
    assert {e[0] for e in glob.component} == {0}


def test_acyclic_graph_reports_zero():
    edges = ((0, 1),)
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0, 1)),
        edges=Enumeration(items=edges),
        initial=lambda e: e[0],
        terminal=lambda e: e[1],
        simple=True,
    )
    seeds = {
        0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75)),
        1: SeedSet(1, Ball((0.5,), 0.5), Ball((0.5,), 0.75)),
    }
    maps = {(0, 1): Similarity(0.5, (0.0,))}
    sysm = GifsSystem(
        graph, seeds, maps, 1,
        contraction=ContractionBound(1, 0.5, 0.5, 1.0),
        tail=finite_tail("edge"),
        name="arrow",
    )
    res = bowen_dimension(sysm)
    assert res.s_lower == 0.0 and res.s_upper == 0.0
    low = lower_estimate(sysm)
    assert low.s_lower == 0.0 and low.s_upper == 0.0


# ---------------------------------------------------------------------------
# countable systems


def test_ladder_full_achieved_bracket():
    res = bowen_dimension(ladder_system())
    assert res.scope == "full"
    # truncated root sits near 0.633; the declared upper crosses at the
    # golden exponent, and the solver reports what both sides certify
    assert 0.60 <= res.s_lower <= 0.64
    assert 0.69 <= res.s_upper <= 0.70
    assert res.theta[0] <= res.theta[1] <= 0.05
    assert res.pressure_at_upper is not None
    assert res.pressure_at_upper.scope == "full"


def test_ladder_upper_estimate_root_dominates():
    res = upper_estimate(ladder_system())
    assert abs(res.s_upper - GOLDEN) <= 2e-3
    assert res.summability_part <= 0.01
    assert res.root_bracket[0] <= res.s_upper


def test_cf_upper_estimate_summability_enters():
    res = upper_estimate(cf_system())
    assert abs(res.summability_part - 1.0) <= 0.02
    assert res.s_upper >= res.summability_part
    assert math.isfinite(res.s_upper)
    assert res.theta[1] >= 0.98


def test_cf_lower_estimate_bracket():
    res = lower_estimate(cf_system())
    assert res.s_lower >= 0.9
    assert res.s_lower <= res.s_upper <= 3.0


def test_solves_share_no_geometry_across_calls(monkeypatch):
    # one system object through a lower_estimate solve and two
    # bowen_dimension solves must probe exactly what fresh systems probe:
    # no geometry or warm start kept from an earlier solve
    evals = []
    ladder = dimension_module.truncation_ladder

    def recorded(system, potential, horizons, depth=1, **kw):
        ests = ladder(system, potential, horizons, depth, **kw)
        evals.append((potential.s, tuple(horizons), depth,
                      [(e.lower, e.upper) for e in ests]))
        return ests

    monkeypatch.setattr(dimension_module, "truncation_ladder", recorded)

    def run(solve, sysm):
        evals.clear()
        res = solve(sysm, s_tol=1e-4)
        return res, list(evals)

    solves = (lower_estimate, bowen_dimension, bowen_dimension)
    gc.disable()
    try:
        shared = cf_system((1, 2))
        ref = weakref.ref(shared)
        got = [run(solve, shared) for solve in solves]
        del shared
        assert ref() is None  # nothing a solve leaves behind holds the system
    finally:
        gc.enable()
    # lower_estimate stays at depth 1 while bowen_dimension deepens, so the
    # later solves start on a key the earlier one left behind
    assert got[0][1][-1][2] == 1 < got[1][1][-1][2]
    for (res, trail), solve in zip(got, solves):
        want, want_trail = run(solve, cf_system((1, 2)))
        assert trail == want_trail
        assert (res.s_lower, res.s_upper, res.evals) == (
            want.s_lower, want.s_upper, want.evals)
    # back to back on one system: no warm start leaks from the first solve
    first, second = got[1][0], got[2][0]
    for name in ("pressure_at_lower", "pressure_at_upper"):
        a, b = getattr(first, name), getattr(second, name)
        assert (a.lower.hex(), a.upper.hex()) == (b.lower.hex(), b.upper.hex())


def test_upper_lower_overlap_on_similarity():
    sysm = moran_system([0.5, 0.25])
    up = upper_estimate(sysm)
    low = lower_estimate(sysm)
    assert low.s_lower <= up.s_upper
    assert up.root_bracket[0] <= low.s_upper
    assert abs(low.s_lower - GOLDEN) <= 1e-5
    assert abs(up.root_bracket[1] - GOLDEN) <= 1e-5


def test_empty_edge_system_upper_is_zero():
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(items=()),
        initial=lambda e: 0,
        terminal=lambda e: 0,
        simple=True,
    )
    seeds = {0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75))}
    sysm = GifsSystem(
        graph, seeds, {}, 1,
        contraction=ContractionBound(1, 0.5, 0.5, 1.0),
        tail=finite_tail("edge"),
        name="no-edges",
    )
    res = upper_estimate(sysm)
    assert res.root_bracket == (0.0, 0.0)
    assert res.s_upper <= 0.05


# ---------------------------------------------------------------------------
# condition labels


def _labels(separation, summability="finite-alphabet"):
    return (("validation", "passed"), ("separation", separation),
            ("conformal-family", "certified"), ("summability", summability))


@pytest.mark.parametrize("build, want", [
    (lambda: moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3], name="cantor"),
     _labels("certified-separated")),
    (affine_demo, _labels("certified-separated")),
    (lambda: perturbed_affine(0.0), _labels("certified-separated")),
    (lambda: perturbed_affine(0.5), _labels("certified-separated")),
    (lambda: affine_family().builder(0.25), _labels("certified-separated")),
    (lambda: cf_system((1, 2)), _labels("inconclusive")),
    (lambda: cf_system(tuple(gaussian_alphabet(4))), _labels("inconclusive")),
    (cf_system, _labels("inconclusive", "witness-declared")),
    (ladder_system, _labels("inconclusive", "witness-declared")),
    (lambda: ladder_truncation(6), _labels("inconclusive")),
    (lambda: perturbed_cf((1, 2), (1, 2, 3), 0.5), _labels("inconclusive")),
    (lambda: cf_family((1, 2), (1, 2, 3)).builder(0.25), _labels("inconclusive")),
], ids=["cantor", "affine_demo", "perturbed_affine(0)", "perturbed_affine(0.5)",
        "affine_family-row", "cf12", "gaussian4", "cf", "ladder",
        "ladder_truncation(6)", "perturbed_cf", "cf_family-row"])
def test_shipped_systems_keep_their_condition_labels(build, want):
    sysm = build()
    assert _gather_conditions(sysm, default_horizon(sysm)) == want


def _one_loop(spec, neighborhood):
    """One vertex with one loop through spec on the seed B((0.5, 0), 0.5)."""
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(items=("a",)),
        initial=lambda e: 0,
        terminal=lambda e: 0,
        simple=True,
    )
    seeds = {0: SeedSet(0, Ball((0.5, 0.0), 0.5), neighborhood)}
    return GifsSystem(graph, seeds, {"a": spec}, 2, tail=finite_tail("edge"))


@pytest.mark.parametrize("spec, neighborhood", [
    (ConformalAffine(1.5, (0.0, 0.0)), Ball((0.5, 0.0), 0.75)),
    # the neighborhood reaches the pole of 1/(1+z) at -1
    (MoebiusCF(1), Ball((0.5, 0.0), 1.6)),
], ids=["expanding", "pole"])
def test_conformal_family_unavailable_without_contraction_off_the_pole(
        spec, neighborhood):
    sysm = _one_loop(spec, neighborhood)
    assert _gather_conditions(sysm, default_horizon(sysm)) == (
        ("validation", "violated"), ("separation", "certified-separated"),
        ("conformal-family", "unavailable"), ("summability", "finite-alphabet"))


def _factory_cantor():
    """The middle-thirds Cantor system over an edge enumeration built from a
    factory: it reads as countable until a prefix runs the iterator out."""
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(factory=lambda: iter((0, 1))),
        initial=lambda e: 0,
        terminal=lambda e: 0,
    )
    maps = {0: Similarity(1 / 3, (0.0,)), 1: Similarity(1 / 3, (2 / 3,))}
    seeds = {0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75))}
    return GifsSystem(graph, seeds, maps, 1, tail=finite_tail("edge"))


@pytest.mark.parametrize("solve, lower, upper, evals", [
    (bowen_dimension, "0x1.4309398353537p-1", "0x1.4309398353543p-1", 1),
    (lower_estimate, "0x1.4309380000000p-1", "0x1.43093a0000000p-1", 27),
    (upper_estimate, "0x1.4309380000000p-1", "0x1.43093a0000000p-1", 27),
], ids=["bowen", "lower", "upper"])
def test_factory_enumeration_that_runs_out_keeps_full_scope(
        solve, lower, upper, evals):
    # the system is countable at solve start, so the solve is in full scope,
    # and it turns finite once a check or a bracket runs the edges out
    sysm = _factory_cantor()
    assert not sysm.is_finite
    res = solve(sysm, s_tol=1e-7)
    assert sysm.is_finite
    assert res.scope == "full"
    assert (res.s_lower.hex(), res.s_upper.hex(), res.evals) == (lower, upper, evals)
    assert res.s_lower <= CANTOR <= res.s_upper


def count_condition_calls(monkeypatch):
    """Record the name of every check_separation and contraction_certificate
    call, wherever the package reaches either one."""
    calls = []
    for module in (systems_module, dimension_module):
        for name in ("check_separation", "contraction_certificate"):
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, fn=fn, name=name, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_separation_pass_and_one_certificate_per_solve(monkeypatch):
    calls = count_condition_calls(monkeypatch)
    sysm = ladder_truncation(6)
    sysm.contraction = None  # certified, not declared
    bowen_dimension(sysm, s_tol=1e-3)
    # one sweep of sibling pairs gives both separation entries
    assert calls.count("check_separation") == 1
    assert calls.count("contraction_certificate") <= 1


def test_one_separation_sweep_per_analyze(monkeypatch, capsys):
    calls = count_condition_calls(monkeypatch)
    config = parse_config('{"scenario": "cf", "scenario_options": {"letters": [1, 2]}}')
    assert cli_run("analyze", config) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert calls.count("check_separation") == 1
    assert checks["separation-open"]["status"] == "satisfied"
    assert checks["separation-strong"]["status"] == "inconclusive"


# ---------------------------------------------------------------------------
# failure modes


def test_irregular_when_scan_range_too_small():
    with pytest.raises(IrregularSystem):
        bowen_dimension(moran_system([0.5, 0.25]), s_max=0.3)


def test_budget_exhausted_without_ceiling():
    with pytest.raises(BudgetExhausted):
        bowen_dimension(ladder_system(), s_max=0.65, max_evals=2)


def test_witness_required_for_full_scope():
    sysm = ladder_system()
    sysm.tail = None
    with pytest.raises(SummabilityWitnessMissing):
        bowen_dimension(sysm)


def test_result_bracket_must_not_cross():
    with pytest.raises(ValueError):
        DimensionResult(s_lower=0.7, s_upper=0.6)
