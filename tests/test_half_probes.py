"""Joint probes and the endpoint squeeze.

Every pressure eval asks for a pair of exponents (s_lower, s_upper), a
full probe at s being (s, s), and either may be None to leave that end
out: pressure._cw_bracket(plan, s_inf, s_sup) runs one row of a class's
Collatz-Wielandt loop per side asked for, and pressure_spectral and
truncation_ladder return one PressureEstimate whose lower is certified at
s and whose upper at s_upper.  Each row must keep the bits the side has
in a probe at its exponent alone, from the same start, on every kind of
class: complete, stacked, chains, and one row for both sides; a full
probe must equal the default call, and run one row on a plan with one row
of logs.  The squeeze of bowen_dimension runs on joint probes; its
brackets must still hold the root, and its lower end must start below
every negative lower the trail already holds at the final knobs.
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


def from_start(plan, start, s_inf, s_sup):
    """_cw_bracket(plan, s_inf, s_sup) from the warm state start, and the
    warm state it leaves."""
    plan.warm = list(start)
    out = _cw_bracket(plan, s_inf, s_sup)
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
    _cw_bracket(plan, 0.5 * (s + t), 0.5 * (s + t))
    start = list(plan.warm)
    full_s, warm_s = from_start(plan, start, s, s)
    full_t, warm_t = from_start(plan, start, t, t)
    if not two:
        # one row serves both sides
        assert full_s[1] is full_s[0] and full_t[1] is full_t[0]
    want = (full_s[0], full_t[1])
    for ask, got_sides in (((s, None), (want[0], None)),
                           ((None, t), (None, want[1])),
                           ((s, t), want)):
        got, warm = from_start(plan, start, *ask)
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
    joint = pressure_spectral(system, PotentialSpec(s), k, m, ends=(s, t))
    assert (joint.s, joint.lower.hex()) == (s, full_s.lower.hex())
    assert (joint.s_upper, joint.upper.hex()) == (t, full_t.upper.hex())
    assert joint.component == full_t.component
    assert [(c, lo.hex(), hi.hex()) for c, lo, hi in joint.components] == [
        (c, lo.hex(), hi.hex()) for (c, lo, _), (_, _, hi) in
        zip(full_s.components, full_t.components, strict=True)]
    low = pressure_spectral(system, PotentialSpec(s), k, m, ends=(s, None))
    assert (low.s, low.lower.hex(), low.upper) == (s, full_s.lower.hex(), math.inf)
    alone = pressure_spectral(system, PotentialSpec(t), k, m, ends=(None, t))
    assert alone.lower == -math.inf and alone.upper.hex() == full_t.upper.hex()


@pytest.mark.parametrize("name", list(CLASSES))
def test_a_full_probe_request_is_the_default_call(name):
    make, k, m, s, _ = CLASSES[name]
    default = pressure_spectral(make(), PotentialSpec(s), k, m)
    asked = pressure_spectral(make(), PotentialSpec(s), k, m, ends=(s, s))
    # repr spells every float exactly, components included
    assert repr(asked) == repr(default)
    assert asked.s_upper == asked.s == s


def test_a_one_row_full_probe_runs_one_row(monkeypatch):
    make, k, m, s, t = CLASSES["one-row"]
    rows = []
    matvec = pressure_module._class_matvec

    def counted(plan, data, v):
        rows.append(len(data))
        return matvec(plan, data, v)

    monkeypatch.setattr(pressure_module, "_class_matvec", counted)
    pressure_spectral(make(), PotentialSpec(s), k, m, ends=(s, s))
    assert rows == [1]
    rows.clear()
    # at two exponents the one row of logs runs as two rows
    pressure_spectral(make(), PotentialSpec(s), k, m, ends=(s, t))
    assert rows[0] == 2


def test_a_joint_estimate_keeps_its_ends_where_one_exponent_would_cross():
    # lower(s) >= 0 >= upper(s_upper) with s < s_upper is what a squeeze
    # may certify; collapsing it would move a certified end
    est = PressureEstimate(lower=0.01, upper=-0.02, s=0.6, s_upper=0.7)
    assert (est.lower, est.upper, est.s, est.s_upper) == (0.01, -0.02, 0.6, 0.7)
    # at one exponent a crossing wider than roundoff is refused, and a
    # tiny one collapses to its midpoint
    with pytest.raises(ValueError):
        PressureEstimate(lower=0.01, upper=-0.02, s=0.6)
    with pytest.raises(ValueError):
        PressureEstimate(lower=0.01, upper=-0.02, s=0.6, s_upper=0.6)
    tiny = PressureEstimate(lower=1e-12, upper=-1e-12, s=0.6)
    assert tiny.lower == tiny.upper == 0.0 and tiny.s_upper == 0.6


@pytest.mark.parametrize("ends", [(0.5, -1.0), (math.nan, 0.5), (0.5, math.inf)],
                         ids=["negative", "nan", "inf"])
def test_both_exponents_are_validated(ends):
    make, k, m, _, _ = CLASSES["complete"]
    with pytest.raises(ValueError):
        pressure_spectral(make(), PotentialSpec(0.5), k, m, ends=ends)
    with pytest.raises(ValueError):
        truncation_ladder(make(), PotentialSpec(0.5), [k], m, ends=ends)
    # a countable ladder forms no stage upper, and still checks s_upper
    with pytest.raises(ValueError):
        truncation_ladder(ladder_system(), PotentialSpec(0.5), [8], ends=ends)


def count_cw_rows(monkeypatch):
    """Record the exponents (s_inf, s_sup) every _cw_bracket call is asked
    for."""
    asked = []
    cw = pressure_module._cw_bracket

    def counted(plan, s_inf, s_sup):
        asked.append((s_inf, s_sup))
        return cw(plan, s_inf, s_sup)

    monkeypatch.setattr(pressure_module, "_cw_bracket", counted)
    return asked


def test_a_countable_full_upper_runs_no_collatz_wielandt_loop(monkeypatch):
    system = ladder_system()
    full = truncation_ladder(system, PotentialSpec(0.69), [64])[-1]
    asked = count_cw_rows(monkeypatch)
    est = truncation_ladder(system, PotentialSpec(0.63), [64], ends=(0.63, 0.69))[-1]
    assert asked and all(ask == (0.63, None) for ask in asked)
    assert (est.upper, est.s_upper, est.scope, est.tail_term) == (
        full.upper, 0.69, "full", full.tail_term)
    asked.clear()
    est = truncation_ladder(system, PotentialSpec(0.69), [64], ends=(None, 0.69))[-1]
    assert est.lower == -math.inf and est.upper == full.upper
    assert all(ask == (None, None) for ask in asked)


def test_a_finite_ladder_of_halves_keeps_the_truncations_upper():
    system = cf_system((1, 2, 3))
    ests = truncation_ladder(system, PotentialSpec(0.7), [2, 3], ends=(0.7, 0.8))
    full = truncation_ladder(system, PotentialSpec(0.8), [2, 3])
    assert all((e.s, e.s_upper) == (0.7, 0.8) for e in ests)
    # the horizon exhausts the alphabet: the full upper is the truncation's
    assert ests[-1].upper == full[-1].upper == full[1].upper
    assert [e.upper for e in ests[:-1]] == [e.upper for e in full[:-1]]
    lowers = [e.lower for e in ests]
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
    """Every eval of a solve, in order: ("full", s, estimate) for a full
    probe, asked for (s, s), and ("joint", (s_lower, s_upper), estimate)
    for any other, each with its (k, m)."""

    def __init__(self):
        self.events = []
        self._eval = dimension_module._PressureProbe.eval

    def __enter__(self):
        spy = self

        def eval(probe, s_lower, s_upper):
            est = spy._eval(probe, s_lower, s_upper)
            if s_lower == s_upper:
                event = ("full", s_lower)
            else:
                event = ("joint", (s_lower, s_upper))
            spy.events.append((*event, est, (probe.k, probe.m)))
            return est

        self._patch = mock.patch.object(dimension_module._PressureProbe, "eval", eval)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


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
    assert any(kind == "joint" for kind, *_ in spy.events)
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
            if got.lower < 0.0:
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
    squeeze = kinds.index("joint")
    assert set(kinds[:squeeze]) == {"full"} and set(kinds[squeeze:]) == {"joint"}
    # each end the squeeze moved holds the joint estimate of the probe that
    # moved it, that end certified at the exponent asked for it
    joint = {id(est): ask for kind, ask, est, _ in spy.events if kind == "joint"}
    assert joint[id(res.pressure_at_lower)][0] == res.pressure_at_lower.s
    assert joint[id(res.pressure_at_upper)][1] == res.pressure_at_upper.s_upper


def moran_pressure(ratios, s):
    return math.log(math.fsum(r**s for r in ratios))


def as_bounds(ratios, points):
    return [(s, moran_pressure(ratios, s)) for s in points]


def test_a_secant_through_two_probes_of_one_sign_lands_below_the_root():
    # P(s) = log(0.3**s + 0.5**s) is convex, so the secant through two of
    # its points on one side of the root crosses zero at or below the root
    ratios, tol = (0.3, 0.5), 1e-3
    with mpmath.workdps(30):
        root = float(mpmath.findroot(lambda s: 0.3**s + 0.5**s - 1, 0.8))
    # side 0 probes tol/32 below the secant root through two probes above
    # the root, so its probe is below the root: a certified lower end
    t = _squeeze_point(0.5, 0.95, as_bounds(ratios, (0.95, 1.05)), 0, tol)
    assert t <= root - tol / 32
    # side 1, from two probes below the root, moves its search up
    t = _squeeze_point(0.6, 1.1, as_bounds(ratios, (0.55, 0.6)), 1, tol)
    assert 0.6 < t <= root + tol / 32
    # with no pair it bisects
    assert _squeeze_point(0.5, 1.0, as_bounds(ratios, (1.05,)), 1, tol) == 0.75


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


def full(s, k, m):
    """A full probe at the exponent float.fromhex(s), at horizon k and depth m."""
    return (s, s, k, m)


PROBE_SEQUENCES = {
    "cf-12": (lambda: cf_system((1, 2)), 1e-5, (
        full("0x1.8000000000000p+1", 2, 1),
        full("0x0.0p+0", 2, 1),
        full("0x1.1a9172459f565p-1", 2, 1),
        full("0x1.1a9172459f565p-1", 2, 2),
        full("0x1.1a9172459f565p-1", 2, 3),
        full("0x1.0f4f6c278b779p-1", 2, 3),
        full("0x1.0f4f6c278b779p-1", 2, 4),
        full("0x1.0f4f6c278b779p-1", 2, 5),
        full("0x1.0fdeb456681dep-1", 2, 5),
        full("0x1.0fdeb456681dep-1", 2, 6),
        full("0x1.10187338a4b1ep-1", 2, 6),
        full("0x1.10187338a4b1ep-1", 2, 7),
        full("0x1.100506491ee34p-1", 2, 7),
        full("0x1.100506491ee34p-1", 2, 8),
        full("0x1.100506491ee34p-1", 2, 9),
        full("0x1.1003e9262425fp-1", 2, 9),
        full("0x1.1003e9262425fp-1", 2, 10),
        full("0x1.1003e9262425fp-1", 2, 11),
    )),
    "gaussian-4": (lambda: cf_system(gaussian_alphabet(4)), 1e-4, (
        full("0x1.8000000000000p+1", 36, 1),
        full("0x0.0p+0", 36, 1),
        full("0x1.004e163e0d762p+1", 36, 1),
        full("0x1.ce43b22bcd6fcp+0", 36, 1),
        full("0x1.ce43b22bcd6fcp+0", 36, 2),
        full("0x1.be255cbe6d705p+0", 36, 2),
        ("0x1.b8b4f21685890p+0", "0x1.c7860fc836560p+0", 36, 2),
        ("0x1.b8c15dc437482p+0", "0x1.c77cd4b554b5ap+0", 36, 2),
        ("0x1.b8c758050bd02p+0", "0x1.c776d3f2f15e2p+0", 36, 2),
    )),
    "ladder": (ladder_system, 1e-3, (
        full("0x1.0000000000000p+1", 64, 1),
        full("0x1.e484de336d2a3p+0", 64, 1),
        full("0x1.244626f5deb98p-1", 64, 1),
        full("0x1.57a3549042278p-1", 64, 1),
        full("0x1.57a3549042278p-1", 128, 1),
        full("0x1.57a3549042278p-1", 256, 1),
        full("0x1.57a3549042278p-1", 512, 1),
        ("0x1.49c22697a2fd0p-1", "0x1.482b443dc71f0p+0", 512, 1),
        ("0x1.439b693678a9ep-1", "0x1.63e0985d664f1p-1", 512, 1),
        ("0x1.44116fe5b4c91p-1", "0x1.6377ebbe4421bp-1", 512, 1),
        (None, "0x1.6301f4c122228p-1", 512, 1),
    )),
}


@pytest.mark.parametrize("name", PROBE_SEQUENCES)
def test_each_solves_probe_sequence_is_pinned_bitwise(name):
    # every eval of the solve, in order, as (s_lower, s_upper) in float.hex,
    # None for an end left out, with the horizon and depth it ran at: CF
    # {1, 2} refines to depth 11 on full probes alone, gaussian(4) ends on
    # a joint squeeze of both ends, and the ladder on one that asks for its
    # upper end alone
    make, s_tol, want = PROBE_SEQUENCES[name]
    with Spy() as spy:
        res = bowen_dimension(make(), s_tol=s_tol)
    got = []
    for kind, s, _, knobs in spy.events:
        ends = (s, s) if kind == "full" else s
        got.append((*(None if e is None else float.hex(e) for e in ends), *knobs))
    assert tuple(got) == want
    assert res.evals == len(want)
