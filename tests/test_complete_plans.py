"""Closed-form class plans against the generic derivation, field for field.

A class that is every state of its geometry, with the complete pattern,
is planned in closed form by pressure._class_plan: it reads the
geometry's own CSR pattern with no gather, its entry order is a transpose
of the CSR entry numbers, and its row and col are formed only on first
use.  reference_class_plan below is the generic derivation every class
took before, gathering the class's entries through a local map; each
closed-form plan must give its bits, and each class off the closed form
must keep taking it.
"""

import numpy as np
import pytest

from gifsdim import chains as chainlib
from gifsdim import pressure
from gifsdim.pressure import (
    PotentialSpec,
    _ClassPlan,
    _cycling_classes,
    _stacked,
    build_weighted_matrix,
    pressure_spectral,
)
from gifsdim.scenarios import cf_system, gaussian_alphabet, ladder_system, perturbed_cf
from test_dimension import union_system


def reference_class_plan(geom, letters, idx, period):
    """The _ClassPlan of the class whose state indices, ascending, are idx,
    derived for every class alike: the class's entries are gathered row by
    row through a local map, which gives the class matrix's CSR order; a
    class with the complete pattern is then reordered b-major or into its
    blocks, and any other class gets its chains.  The logs of the class's
    ranges are gathered in that order."""
    local = np.full(len(geom.indptr) - 1, -1)
    local[idx] = np.arange(len(idx))
    starts = geom.indptr[idx]
    counts = geom.indptr[idx + 1] - starts
    positions = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    positions += np.arange(counts.sum())
    col = local[geom.indices[positions]]
    inside = col >= 0
    positions, col = positions[inside], col[inside]
    row = np.repeat(np.arange(len(idx)), counts)[inside]
    n = len(idx)
    fan = len(col) // n
    entry = np.arange(len(col))
    if (len(col) == n * fan and n % fan == 0
            and np.array_equal(row, entry // fan)
            and np.array_equal(col, row % (n // fan) * fan + entry % fan)):
        if _stacked(fan, n):
            order = entry.reshape(fan, n // fan, fan).transpose(1, 0, 2).ravel()
        else:
            order = entry.reshape(n, fan).T.ravel()
        positions, row, col = positions[order], row[order], col[order]
        chains = None
        depth = 1
        while fan**depth < n:
            depth += 1
    else:
        fan = depth = 0
        chains = chainlib.hub_chains(n, row, col)
    sides = (geom.lower,) if geom.upper is geom.lower else (geom.lower, geom.upper)
    logs = np.empty((len(sides), len(positions)))
    with np.errstate(divide="ignore"):
        for side, ranges in enumerate(sides):
            np.log(ranges[positions], out=logs[side])
    return _ClassPlan(letters, n, positions, row, col, fan, period, logs, chains, depth)


def membership(words, letter_classes):
    """The state classes by the per-word test alone: the words all of whose
    letters lie in one letter class."""
    out = []
    for cls, positions, _ in letter_classes:
        inside = np.zeros(int(words.max()) + 1, dtype=bool)
        inside[list(positions)] = True
        out.append((cls, np.flatnonzero(inside[words].all(axis=1))))
    return out


def reference_plans(geom):
    """Every class plan of geom by the generic derivation, on the state
    classes of the per-word test."""
    periods = {cls: period for cls, _, period in geom.letter_classes}
    return [reference_class_plan(geom, cls, idx, periods[cls])
            for cls, idx in membership(geom.words, geom.letter_classes)]


def same_array(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_same_plan(got, want):
    for name in ("positions", "row", "col", "logs"):
        assert same_array(getattr(got, name), getattr(want, name)), name
    assert (got.letters, got.size, got.fan, got.depth, got.period) == (
        want.letters, want.size, want.fan, want.depth, want.period)
    assert (got.chains is None) == (want.chains is None)


def geometry(system, k, m):
    return build_weighted_matrix(system, PotentialSpec(1.0), k, m).geometry


COMPLETE = (
    [(lambda: cf_system((1, 2)), 2, m) for m in range(1, 12)]
    + [(lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=2**-4), 3, m) for m in range(1, 9)]
    + [(lambda: cf_system(gaussian_alphabet(4)), 36, m) for m in (1, 2)]
    + [(cf_system, k, 1) for k in (5, 10, 20, 40)]
)


@pytest.mark.parametrize("make, k, m", COMPLETE)
def test_complete_classes_are_planned_in_closed_form(make, k, m):
    geom = geometry(make(), k, m)
    (plan,) = geom.classes
    # the closed form took the class, and left row and col unformed
    assert plan.size == len(geom.words) and plan.fan
    assert plan._row is None and plan._col is None and plan.chains is None
    (want,) = reference_plans(geom)
    assert_same_plan(plan, want)


def test_a_scaled_complete_class_forms_its_pattern_with_the_same_bits(monkeypatch):
    # at eps = 0 the planted letters have derivative 0, so at s > 0 the
    # complete class's entries vanish in part and it takes the scaled
    # route, which forms row and col; it stalls (a class reducible at this
    # s), so the budget is cut as in the planar fuzz test
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 500)
    make = lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=0.0)  # noqa: E731

    def spectral(s):
        est = pressure_spectral(make(), PotentialSpec(s), 3, 3)
        return (est.lower, est.upper, est.stalled, est.component, est.components)

    for s in (0.5, 1.0, 1.5):
        got = spectral(s)
        with monkeypatch.context() as patch:
            patch.setattr(pressure, "_class_plan", reference_class_plan)
            want = spectral(s)
        assert got[2] and want[2]
        assert repr(got) == repr(want)
    geom = geometry(make(), 3, 3)
    (plan,) = geom.classes
    assert plan._row is None
    pressure._cw_bracket(plan, 0.5, 0.5)
    assert plan._row is not None and plan._col is not None
    (want,) = reference_plans(geom)
    assert_same_plan(plan, want)


@pytest.mark.parametrize("make, k, m", [
    (ladder_system, 64, 1), (ladder_system, 64, 2), (ladder_system, 512, 1),
    (union_system, 4, 1), (union_system, 4, 3),
])
def test_other_classes_keep_the_generic_plan(make, k, m):
    geom = geometry(make(), k, m)
    want = reference_plans(geom)
    assert geom.classes and len(geom.classes) == len(want)
    for plan, ref in zip(geom.classes, want, strict=True):
        # a proper subset of the states: the generic route, which stores
        # its row and col
        assert plan.size < len(geom.words)
        assert plan._row is not None and plan._col is not None
        assert_same_plan(plan, ref)


def assert_same_classes(got, want):
    assert [cls for cls, _ in got] == [cls for cls, _ in want]
    assert all(same_array(a, b) for (_, a), (_, b) in zip(got, want, strict=True))


@pytest.mark.parametrize("make, k, m", [
    (lambda: cf_system((1, 2)), 2, 5),
    (lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=2**-4), 3, 3),
    (lambda: cf_system(gaussian_alphabet(4)), 36, 2),
])
def test_a_class_of_every_letter_holds_every_word(make, k, m):
    geom = geometry(make(), k, m)
    got = _cycling_classes(geom.words, geom.letter_classes)
    assert_same_classes(got, membership(geom.words, geom.letter_classes))
    ((_, idx),) = got
    assert same_array(idx, np.arange(len(geom.words)))


@pytest.mark.parametrize("make, k, m", [
    (union_system, 4, 2), (ladder_system, 64, 2), (ladder_system, 512, 1),
])
def test_other_letter_classes_take_the_per_word_test(make, k, m):
    # two classes, or one with transient letters beside it
    geom = geometry(make(), k, m)
    got = _cycling_classes(geom.words, geom.letter_classes)
    assert_same_classes(got, membership(geom.words, geom.letter_classes))
    assert all(len(idx) < len(geom.words) for _, idx in got)
