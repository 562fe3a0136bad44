"""Half-probes and the endpoint squeeze.

A half-probe asks a class's Collatz-Wielandt loop for one side's bound
only, or for each side at its own exponent (pressure._cw_bracket with a
pair of exponents).  Each row of that loop must keep the bits the side
has in a probe at its exponent alone, from the same start, on every kind
of class: complete, stacked, chains, and one row for both sides.  The
squeeze of bowen_dimension runs on such joint probes; its brackets must
still hold the root, and its lower end must start below every negative
lower the trail already holds at the final knobs.
"""

import itertools
import math
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gifsdim.dimension as dimension_module
import gifsdim.pressure as pressure_module
from gifsdim.dimension import _squeeze_point, bowen_dimension, lower_estimate, upper_estimate
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import Similarity
from gifsdim.pressure import (
    HalfEstimates,
    PotentialSpec,
    PressureEstimate,
    _cw_bracket,
    build_weighted_matrix,
    pressure_spectral,
    truncation_ladder,
)
from gifsdim.scenarios import cf_system, gaussian_alphabet, ladder_system, moran_system
from gifsdim.shapes import Ball
from gifsdim.systems import GifsSystem, SeedSet, TailWitness

# (system, horizon, depth, s, t): a class of each kind, probed at s and t
CLASSES = {
    "complete": (lambda: cf_system((1, 2)), 2, 4, 0.5, 0.62),
    "stacked": (lambda: cf_system(gaussian_alphabet(4)), 36, 2, 1.7, 1.8),
    "chains": (ladder_system, 64, 1, 0.63, 0.69),
    "one-row": (lambda: moran_system([0.2, 0.5, 0.25]), 3, 3, 0.7, 0.9),
}


def class_plan(name):
    make, k, m, s, _ = CLASSES[name]
    (plan, *_) = build_weighted_matrix(make(), PotentialSpec(s), k, m).geometry.classes
    return plan


def from_start(plan, start, s):
    """_cw_bracket(plan, s) from the warm state start, and the warm state
    it leaves."""
    plan.warm = list(start)
    out = _cw_bracket(plan, s)
    return out, list(plan.warm)


def bits(x):
    return x if x is None else tuple(float(v).hex() for v in x[:2]) + tuple(x[2:])


@pytest.mark.parametrize("name", list(CLASSES))
def test_a_half_probe_keeps_each_sides_bits(name):
    _, _, _, s, t = CLASSES[name]
    plan = class_plan(name)
    two = len(plan.logs) == 2
    # the ladder's letters are similarities too, so its class has one row
    assert (plan.fan > 0) == (name != "chains")
    assert two == (name in ("complete", "stacked"))
    # warm the class up, so each call below starts from a stored iterate
    # where the class keeps one
    _cw_bracket(plan, 0.5 * (s + t))
    start = list(plan.warm)
    full_s, warm_s = from_start(plan, start, s)
    full_t, warm_t = from_start(plan, start, t)
    want = (full_s[0], full_t[-1])
    for ask, got_sides in (((s, None), (want[0], None)),
                           ((None, t), (None, want[1])),
                           ((s, t), want)):
        got, warm = from_start(plan, start, ask)
        assert [bits(x) for x in got] == [bits(x) for x in got_sides], ask
        if ask == (s, t) and two:
            # each side's row leaves the iterate its own probe leaves
            for side, lone in enumerate((warm_s, warm_t)):
                assert (warm[side] is None) == (lone[side] is None)
                if lone[side] is not None:
                    assert warm[side][0] == lone[side][0]
                    assert warm[side][1].tobytes() == lone[side][1].tobytes()
        if ask == (s, t) and not two and warm_t[0] is not None:
            # both rows read the one slot, and the sup row writes it last
            assert warm[0][1].tobytes() == warm_t[0][1].tobytes()


@pytest.mark.parametrize("name", list(CLASSES))
def test_half_estimates_match_a_full_probes_ends(name):
    make, k, m, s, t = CLASSES[name]
    system = make()
    # outside a solve every call builds its geometry afresh, so every
    # probe below starts cold
    full_s = pressure_spectral(system, PotentialSpec(s), k, m)
    full_t = pressure_spectral(system, PotentialSpec(t), k, m)
    low, high = pressure_spectral(system, PotentialSpec(s), k, m, halves=(s, t))
    assert (low.s, low.lower.hex(), low.upper) == (s, full_s.lower.hex(), math.inf)
    assert (high.s, high.lower, high.upper.hex()) == (t, -math.inf, full_t.upper.hex())
    assert high.component == full_t.component
    alone = pressure_spectral(system, PotentialSpec(t), k, m, halves=(None, t))
    assert alone.lower is None and alone.upper.upper.hex() == full_t.upper.hex()


def count_cw_rows(monkeypatch):
    """Record the exponents every _cw_bracket call is asked for."""
    asked = []
    cw = pressure_module._cw_bracket

    def counted(plan, s):
        asked.append(s)
        return cw(plan, s)

    monkeypatch.setattr(pressure_module, "_cw_bracket", counted)
    return asked


def test_a_countable_full_upper_runs_no_collatz_wielandt_loop(monkeypatch):
    system = ladder_system()
    full = truncation_ladder(system, PotentialSpec(0.69), [64])[-1]
    asked = count_cw_rows(monkeypatch)
    low, high = truncation_ladder(system, PotentialSpec(0.63), [64],
                                  halves=(0.63, 0.69))[-1]
    assert asked and all(ask == (0.63, None) for ask in asked)
    assert (high.upper, high.scope, high.tail_term) == (full.upper, "full", full.tail_term)
    asked.clear()
    low, high = truncation_ladder(system, PotentialSpec(0.69), [64],
                                  halves=(None, 0.69))[-1]
    assert low is None and high.upper == full.upper
    assert all(ask == (None, None) for ask in asked)


def test_a_finite_ladder_of_halves_keeps_the_truncations_upper():
    system = cf_system((1, 2, 3))
    ests = truncation_ladder(system, PotentialSpec(0.7), [2, 3], halves=(0.7, 0.8))
    full = truncation_ladder(system, PotentialSpec(0.8), [2, 3])
    assert all(isinstance(h, HalfEstimates) for h in ests)
    # the horizon exhausts the alphabet: the full upper is the truncation's
    assert ests[-1].upper.upper == full[-1].upper == full[1].upper
    assert [h.upper.upper for h in ests[:-1]] == [e.upper for e in full[:-1]]
    lowers = [h.lower.lower for h in ests]
    assert lowers == sorted(lowers)


def geometric_moran(q):
    """The countable Moran system of the ratios q**n, n >= 1, packed into
    the unit interval: sum_n q**(n s) = 1 puts its dimension at
    log 2 / log(1/q).  Its tail past k letters sums to q**((k+1) s) /
    (1 - q**s)."""
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(factory=lambda: itertools.count(1)),
        initial=lambda e: 0,
        terminal=lambda e: 0,
    )
    tail = TailWitness(
        kind="geometric",
        unit="edge",
        bound=lambda k, s: q ** ((k + 1) * s) / (1.0 - q**s) if s > 0 else math.inf,
        diverges_below=0.0,
    )
    seeds = {0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75))}

    def letter(n):
        return Similarity(q**n, ((q - q**n) / (1.0 - q),))

    return GifsSystem(graph, seeds, letter, 1, tail=tail, name="geometric-moran")


class Spy:
    """Every probe of a solve, in order: ("full", s, estimate) and
    ("half", (s_lower, s_upper), HalfEstimates), each with its (k, m)."""

    def __init__(self):
        self.events = []
        probe = dimension_module._PressureProbe
        self._bracket, self._halves = probe.bracket, probe.halves

    def __enter__(self):
        spy = self

        def bracket(probe, s):
            est = spy._bracket(probe, s)
            spy.events.append(("full", s, est, (probe.k, probe.m)))
            return est

        def halves(probe, s_lower, s_upper):
            got = spy._halves(probe, s_lower, s_upper)
            spy.events.append(("half", (s_lower, s_upper), got, (probe.k, probe.m)))
            return got

        self._patches = [mock.patch.object(dimension_module._PressureProbe, name, fn)
                         for name, fn in (("bracket", bracket), ("halves", halves))]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


@settings(max_examples=30, deadline=None)
@given(q=st.floats(0.1, 0.45), horizon=st.integers(1, 4), horizon_cap=st.integers(1, 4),
       state_cap=st.sampled_from((4, 16, 64)), s_tol=st.sampled_from((1e-2, 1e-3, 1e-5)))
def test_a_squeezed_moran_bracket_holds_its_root(q, horizon, horizon_cap, state_cap, s_tol):
    # a horizon cap of at most 4 letters leaves a real gap between the
    # truncated lowers and the tail's upper, and a small state cap stops
    # the depth: refinement ends with the bracket wider than s_tol, and the
    # squeeze runs
    with Spy() as spy:
        res = bowen_dimension(geometric_moran(q), s_tol=s_tol,
                              horizon=min(horizon, horizon_cap), horizon_cap=horizon_cap,
                              state_cap=state_cap, check_conditions=False)
    assert res.stop_reason in ("state_cap", "stuck")
    assert any(kind == "half" for kind, *_ in spy.events)
    with mpmath.workdps(40):
        root = mpmath.log(2) / -mpmath.log(mpmath.mpf(q))
        assert res.s_lower <= root <= res.s_upper


def test_the_ladders_lower_end_starts_below_the_trails_negative_lowers():
    with Spy() as spy:
        res = bowen_dimension(ladder_system(), s_tol=1e-3)
    assert res.stop_reason == "stuck"
    final = spy.events[-1][3]
    negative = math.inf  # the least s whose lower at the final knobs is < 0
    squeezed = []
    for kind, s, got, knobs in spy.events:
        if kind == "full":
            if knobs == final and got.lower < 0.0:
                negative = min(negative, s)
            continue
        s_lower = s[0]
        if s_lower is not None:
            assert s_lower < negative
            squeezed.append(s_lower)
            if got.lower.lower < 0.0:
                negative = min(negative, s_lower)
    # the trail's probe at 0.671 (k = 512) already has a negative lower, so
    # the squeeze never bisects down from the ceiling
    assert squeezed and max(squeezed) < 0.672
    assert res.width < 0.0625


def test_the_squeeze_counts_one_eval_per_joint_probe():
    with Spy() as spy:
        res = bowen_dimension(cf_system(gaussian_alphabet(4)), s_tol=1e-4)
    assert res.stop_reason == "state_cap"
    kinds = [kind for kind, *_ in spy.events]
    assert res.evals == len(kinds)
    # the squeeze comes last, and each of its evals is one joint probe
    squeeze = kinds.index("half")
    assert set(kinds[:squeeze]) == {"full"} and set(kinds[squeeze:]) == {"half"}
    # each end the squeeze moved holds a half estimate, the other end infinite
    assert res.pressure_at_lower.upper == math.inf
    assert res.pressure_at_upper.lower == -math.inf


def moran_pressure(ratios, s):
    return math.log(math.fsum(r**s for r in ratios))


def as_estimates(ratios, points):
    return [(s, PressureEstimate(lower=p, upper=p, s=s))
            for s, p in ((s, moran_pressure(ratios, s)) for s in points)]


def test_a_secant_through_two_probes_of_one_sign_lands_below_the_root():
    # P(s) = log(0.3**s + 0.5**s) is convex, so the secant through two of
    # its points on one side of the root crosses zero at or below the root
    ratios, tol = (0.3, 0.5), 1e-3
    with mpmath.workdps(30):
        root = float(mpmath.findroot(lambda s: 0.3**s + 0.5**s - 1, 0.8))
    # side 0 probes tol/32 below the secant root through two probes above
    # the root, so its probe is below the root: a certified lower end
    t = _squeeze_point(0.5, 0.95, as_estimates(ratios, (0.95, 1.05)), 0, tol)
    assert t <= root - tol / 32
    # side 1, from two probes below the root, moves its search up
    t = _squeeze_point(0.6, 1.1, as_estimates(ratios, (0.55, 0.6)), 1, tol)
    assert 0.6 < t <= root + tol / 32
    # with no pair it bisects
    assert _squeeze_point(0.5, 1.0, as_estimates(ratios, (1.05,)), 1, tol) == 0.75


@pytest.mark.parametrize("make", [lambda: cf_system((1, 2)),
                                  lambda: cf_system(gaussian_alphabet(2))],
                         ids=["cf12", "gaussian2"])
def test_sign_thresholds_read_one_side_each(make, monkeypatch):
    asked = count_cw_rows(monkeypatch)
    lower_estimate(make(), s_tol=1e-4)
    assert asked and all(ask[1] is None and ask[0] is not None for ask in asked)
    asked.clear()
    upper_estimate(make(), s_tol=1e-4)
    assert asked and all(ask[0] is None and ask[1] is not None for ask in asked)
