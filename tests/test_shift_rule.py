"""The shift rule of the Collatz-Wielandt iteration, against numpy's dense
eigenvalues.

pressure._cw_bracket iterates on B/theta when its class is primitive: period
1, and every scaled entry positive at this exponent.  Otherwise it iterates
on I + B/theta, whose iterates converge whatever the period.  A class is
drawn here as a cycle through all its states plus chords.  A periodic one
splits its states into p groups by i % p, and every entry steps from one
group to the next; a primitive one also gets a self-loop.  The weights are
exp of uniform draws conjugated by a diagonal, and the class matrices have
at most 12 states, so numpy's dense eigenvalues give the Perron root to
about 1e-14 relative; containment is checked to 1e-12.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gifsdim import pressure
from gifsdim.pressure import _class_plan, _cw_bracket
from periods import pattern_period

SETTINGS = settings(max_examples=60, deadline=None)
SLACK = 1e-12


def drawn_class(rng, groups, length, chords, loop):
    """(rows, weights) of a class of groups * length states: the cycle
    0 -> 1 -> ... -> 0, chords from each group to the next, and with loop a
    self-loop at state 0; rows[i] lists state i's successors, ascending,
    and weights holds the entries in that order."""
    n = groups * length
    succ = [{(i + 1) % n} for i in range(n)]
    for _ in range(chords):
        i = int(rng.integers(0, n))
        succ[i].add((int(rng.integers(0, length)) * groups + i + 1) % n)
    if loop:
        succ[0].add(0)
    rows = [sorted(s) for s in succ]
    delta = rng.uniform(-5.0, 5.0, n)
    weights = np.array([np.exp(rng.uniform(-3.0, 3.0) + delta[i] - delta[j])
                        for i, row in enumerate(rows) for j in row])
    return rows, weights


def class_plan(rows, period=None):
    """The class's plan, with the period scipy finds in its pattern unless
    one is given, and without a chain start, so that the power iteration
    alone closes the bracket."""
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int32)
    indices = np.array([j for r in rows for j in r], dtype=np.int32)
    ranges = np.ones(len(indices))
    geom = SimpleNamespace(states=tuple(range(len(rows))), indices=indices,
                           indptr=indptr, lower=ranges, upper=ranges)
    if period is None:
        period = pattern_period(indptr, indices)
    plan = _class_plan(geom, geom.states, np.arange(len(rows)), period)
    plan.chains = None
    return plan


def bracket(plan, weights):
    """The class's bracket at s = 1 from the logs of its weights, given in
    rows order, as the plan's one row of logs for both sides."""
    with np.errstate(divide="ignore"):
        logs = np.log(weights[plan.positions])
    plan.logs = logs[None]
    (side,) = _cw_bracket(plan, 1.0)
    assert side[4] == 0.0   # theta stays a normal float
    return side[:4]


def dense_root(rows, weights):
    dense = np.zeros((len(rows), len(rows)))
    dense[np.repeat(np.arange(len(rows)), [len(r) for r in rows]),
          [j for r in rows for j in r]] = weights
    return float(np.abs(np.linalg.eigvals(dense)).max())


def assert_contains(lo, hi, rho):
    assert lo * (1.0 - SLACK) <= rho <= hi * (1.0 + SLACK), (lo, rho, hi)


@SETTINGS
@given(groups=st.integers(1, 3), length=st.integers(1, 4), chords=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
def test_primitive_and_periodic_brackets_hold_the_dense_root(groups, length, chords,
                                                            seed):
    # one group and a self-loop make the class primitive; two or three
    # groups make its period a multiple of theirs.  A nearly periodic class
    # (a light loop or chords on a heavy cycle) converges slowly with or
    # without the shift, so the budget is cut: a stalled bracket is wide,
    # and still certified
    rng = np.random.default_rng(seed)
    rows, weights = drawn_class(rng, groups, length, chords, loop=groups == 1)
    plan = class_plan(rows)
    assert (plan.period == 1) == (groups == 1)
    assert plan.period % groups == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pressure, "CW_MAX_ITER", 2000)
        lo, hi, _, _ = bracket(plan, weights)
    assert_contains(lo, hi, dense_root(rows, weights))


def test_periodic_class_keeps_the_shift():
    # a class of period 2 closes with the shift; run without it (as if it
    # were primitive) the iterates alternate between two vectors, and the
    # same budget stalls
    rng = np.random.default_rng(2)
    rows, weights = drawn_class(rng, 2, 4, 6, loop=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pressure, "CW_MAX_ITER", 2000)
        lo, hi, stalled, _ = bracket(class_plan(rows), weights)
        assert not stalled
        assert_contains(lo, hi, dense_root(rows, weights))
        assert bracket(class_plan(rows, period=1), weights)[2]


def test_a_class_whose_entries_vanish_still_runs_shifted():
    # a period-2 class plus a self-loop has period 1, but where the loop
    # weighs 0 at this exponent the positive entries are periodic: the
    # iteration keeps the shift, bit for bit as a plan of period 2 runs,
    # and closes; with the loop positive it runs unshifted and its bits
    # differ from the shifted run's
    rng = np.random.default_rng(5)
    rows, weights = drawn_class(rng, 2, 4, 6, loop=True)
    loop = rows[0].index(0)
    assert class_plan(rows).period == 1
    for vanish in (True, False):
        data = weights.copy()
        if vanish:
            data[loop] = 0.0
        got = bracket(class_plan(rows), data)
        shifted = bracket(class_plan(rows, period=2), data)
        assert not got[2]
        assert_contains(got[0], got[1], dense_root(rows, data))
        same = [x.hex() for x in got[:2]] == [x.hex() for x in shifted[:2]]
        assert same == vanish, vanish
