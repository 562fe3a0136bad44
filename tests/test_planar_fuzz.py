"""Drawn planar systems meet only typed errors.

Hypothesis draws systems on 1 to 3 vertices in the plane, with random seeds
and neighbourhoods and 1 to 6 letters among every planar map family:
Moebius and perturbed Moebius branches (epsilon down to 1e-300), conformal
affine maps (expanding ones included), constants and similarities (ratios
down to 1e-300).  validate_conditions must report all eight of its entries
and raise nothing; bowen_dimension must return a bracket or raise a
GifsError subclass.  Numpy RuntimeWarnings fail the suite (see
pyproject.toml), so an invalid, overflowing or dividing operation on the
way fails here too.

To keep the run within a few seconds, each solve runs at s_tol = 1e-2 and
state_cap = 512, with pressure.CW_MAX_ITER lowered to 500 by monkeypatch;
a power iteration cut short stalls, a solve that reaches the cap stops
there, and either bracket is still a returned one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gifsdim import pressure
from gifsdim.dimension import bowen_dimension
from gifsdim.errors import GifsError
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import Constant, ConformalAffine, MoebiusCF, PerturbedMoebiusCF, Similarity
from gifsdim.shapes import Ball
from gifsdim.systems import GifsSystem, SeedSet, validate_conditions

CHECKS = {"seed-geometry", "seed-inside-neighborhood", "maps-into-seeds",
          "neighborhood-domain", "uniform-contraction", "separation-strong",
          "separation-open", "seed-contractibility"}
COORD = st.floats(-3.0, 3.0)
POINT = st.tuples(COORD, COORD)
GAUSSIAN = st.builds(complex, st.integers(1, 3), st.integers(-2, 2))
SMALL = st.sampled_from([1e-300, 1e-150, 1e-9])
MAPS = st.one_of(
    st.builds(MoebiusCF, GAUSSIAN),
    st.builds(PerturbedMoebiusCF, GAUSSIAN, st.floats(1e-300, 1.0) | SMALL),
    st.builds(ConformalAffine, st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
              POINT, st.booleans()),
    st.builds(Constant, POINT),
    st.builds(Similarity, st.floats(1e-300, 1.0, exclude_max=True) | SMALL, POINT,
              st.floats(-3.2, 3.2), st.booleans()),
)


@st.composite
def planar_systems(draw):
    """A maker of fresh copies of one drawn system."""
    count = draw(st.integers(1, 3))
    vertex = st.integers(0, count - 1)
    letters = draw(st.lists(st.tuples(vertex, vertex, MAPS), min_size=1, max_size=6))
    seeds = {}
    for v in range(count):
        center, radius = draw(POINT), draw(st.floats(0.05, 2.0))
        seeds[v] = SeedSet(v, Ball(center, radius),
                           Ball(center, radius * draw(st.floats(0.5, 3.0))))
    graph = DirectedMultigraph(Enumeration(items=range(count)),
                               Enumeration(items=range(len(letters))),
                               lambda e: letters[e][0], lambda e: letters[e][1])
    maps = {e: f for e, (_, _, f) in enumerate(letters)}
    return lambda: GifsSystem(graph, seeds, maps, 2, name="drawn")


@settings(max_examples=80, deadline=None)
@given(make=planar_systems())
def test_drawn_planar_systems_meet_only_typed_errors(make):
    assert set(validate_conditions(make()).checks) == CHECKS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pressure, "CW_MAX_ITER", 500)
        try:
            res = bowen_dimension(make(), s_tol=1e-2, state_cap=512)
        except GifsError:
            return
    assert res.s_lower <= res.s_upper
