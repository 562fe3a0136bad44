"""Pressure brackets of systems whose weights all underflow float64.

pressure._cw_bracket divides a class's entries by theta, its largest
(scaled) entry.  When theta leaves float64's normal range, the bracket is
carried in logs, over log theta, and padded outward by pressure._LOG_PAD
of the logs it came from.  Both systems here pass every validate_conditions
entry, and their pressures are closed forms, evaluated with mpmath at 40
digits from the float ratios:

  * moran_system([r, r]), r = 1e-300, on the unscaled route: log 2 + s log r.
  * two vertices on the line, a: 0 -> 1 of ratio r and b, c: 1 -> 0 of
    ratios 1/2 and 1/4, on the scaled route: every closed walk alternates a
    with b or c, so the pressure is (1/2) log((r/2)**s + (r/4)**s).
"""

import math

import mpmath
import pytest

from gifsdim import bowen_dimension
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import Similarity
from gifsdim.pressure import PotentialSpec, pressure_spectral, truncation_ladder
from gifsdim.scenarios import moran_system
from gifsdim.shapes import Ball
from gifsdim.systems import GifsSystem, SeedSet, finite_tail, validate_conditions

R = 1e-300


def two_vertex_system():
    seeds = {v: SeedSet(v, Ball((0.5,), 0.5), Ball((0.5,), 0.75)) for v in (0, 1)}
    ends = {"a": (0, 1), "b": (1, 0), "c": (1, 0)}
    maps = {"a": Similarity(R, (0.0,)), "b": Similarity(0.5, (0.5,)),
            "c": Similarity(0.25, (0.0,))}
    graph = DirectedMultigraph(Enumeration(items=(0, 1)), Enumeration(items=tuple(ends)),
                               lambda e: ends[e][0], lambda e: ends[e][1])
    return GifsSystem(graph, seeds, maps, 1, tail=finite_tail("edge"), name="two-vertex")


def exact(name, s):
    with mpmath.workdps(40):
        r = mpmath.mpf(R)
        if name == "moran":
            return mpmath.log(2) + s * mpmath.log(r)
        return mpmath.log((r / 2) ** s + (r / 4) ** s) / 2


SYSTEMS = {"moran": lambda: moran_system([R, R]), "two-vertex": two_vertex_system}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_systems_pass_every_condition(name):
    report = validate_conditions(SYSTEMS[name]())
    assert report.passed, report.checks


@pytest.mark.parametrize("s", [2.0, 3.0])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_an_underflowing_class_gets_a_finite_bracket_that_holds_the_pressure(name, s):
    est = pressure_spectral(SYSTEMS[name](), PotentialSpec(s), 3)
    assert math.isfinite(est.lower) and math.isfinite(est.upper), est
    assert not est.stalled
    want = exact(name, s)
    assert est.lower <= want <= est.upper, (est.lower, want, est.upper)
    assert est.upper - est.lower <= 1e-10


def test_the_ladder_and_the_dimension_read_the_finite_bracket():
    ladder = truncation_ladder(two_vertex_system(), PotentialSpec(3.0), [2, 3])
    assert all(math.isfinite(e.lower) and math.isfinite(e.upper) for e in ladder)
    assert ladder[-1].lower <= exact("two-vertex", 3.0) <= ladder[-1].upper
    res = bowen_dimension(two_vertex_system())
    assert 0.00100192 <= res.s_lower <= res.s_upper <= 0.00100195
