"""Complete classes run their Collatz-Wielandt iteration without scales.

A complete class holds all m-words over letters that may all follow each
other, as every class of the continued-fraction systems does.  Two of its
states are joined by exactly one m-step path, so while m times the spread
of its log-weights stays within pressure._UNSCALED_SPREAD its Perron
vector stays inside float64, and pressure._cw_bracket iterates on the
entries themselves, with no max-plus scale search.  A wider class still
takes the scales.  Within a solve, a deeper geometry's first probe starts
from the previous depth's final iterate, each m-word taking its prefix's
entry.

The drawn classes have at most 216 states.  Their dense radius comes from
numpy's eigenvalues after a conjugation by max-plus scales, which puts the
entries on one scale for LAPACK, and containment is checked to 1e-12.
"""

import gc
import math
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gifsdim import bowen_dimension, pressure
from gifsdim.pressure import (
    CW_TOL,
    PotentialSpec,
    _class_plan,
    _cw_bracket,
    _reuse_geometry,
    build_weighted_matrix,
    pressure_spectral,
)
from gifsdim.scenarios import cf_system, gaussian_alphabet

SETTINGS = settings(max_examples=60, deadline=None)
SLACK = 1e-12
CF_DIGITS_12 = 0.5312805062772051


def count_scale_searches(monkeypatch):
    """A list that gains one entry per _equilibrate_scales call."""
    calls = []
    inner = pressure._equilibrate_scales

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(pressure, "_equilibrate_scales", counted)
    return calls


def complete_class(letters, depth, logw):
    """The plan of the class of all depth-words over letters that may all
    follow each other, with log-weights logw in CSR order (row a*R + r
    holds the columns r*letters + b, b ascending), over a stand-in
    geometry whose ranges are exp(logw) on both sides."""
    n = letters**depth
    tails = n // letters
    indices = (np.arange(n) % tails * letters)[:, None] + np.arange(letters)
    ranges = np.exp(logw)
    geom = SimpleNamespace(indices=indices.ravel().astype(np.int32),
                           indptr=np.arange(0, n * letters + 1, letters, dtype=np.int32),
                           lower=ranges, upper=ranges)
    plan = _class_plan(geom, tuple(range(letters)), np.arange(n), 1)
    assert (plan.fan, plan.depth) == (letters, depth)
    return plan


def dense_log_radius(n, row, col, logw):
    """log rho from numpy's dense eigenvalues, after conjugating by the
    max-plus eigenvector estimate, so that LAPACK sees entries of one
    size."""
    d = np.zeros(n)
    for _ in range(512):
        nxt = np.full(n, -np.inf)
        np.maximum.at(nxt, row, logw + d[col])
        nxt -= nxt.max()
        if np.abs(nxt - d).max() <= 1e-9:
            break
        d = nxt
    dense = np.zeros((n, n))
    dense[row, col] = np.exp(logw + d[col] - d[row] - logw.max())
    return math.log(np.abs(np.linalg.eigvals(dense)).max()) + logw.max()


def test_cf_solves_run_no_scale_search(monkeypatch):
    # every class of these systems is complete and spans far less than the
    # bound, so none takes the max-plus scales
    calls = count_scale_searches(monkeypatch)
    res = bowen_dimension(cf_system(letters=(1, 2)), s_tol=1e-5)
    assert res.s_lower <= CF_DIGITS_12 <= res.s_upper
    wide = cf_system(gaussian_alphabet(4))
    est = pressure_spectral(wide, PotentialSpec(1.75), 36, 2)
    assert est.lower > -math.inf and not est.stalled
    assert calls == []


@SETTINGS
@given(letters=st.integers(2, 6), depth=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_unscaled_brackets_hold_the_dense_radius(letters, depth, seed):
    # log-weights in [-40, 0] span at most 120 over depth 3, inside the
    # bound, so the bracket comes from the unscaled iteration, the one
    # route that keeps its iterate for the next probe.  Two nearly equal
    # eigenvalues (weak links between heavy loops) converge slowly with or
    # without scales, so the budget is cut: a stalled bracket is wide, and
    # still certified
    rng = np.random.default_rng(seed)
    plan = complete_class(letters, depth, rng.uniform(-40.0, 0.0, letters**(depth + 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pressure, "CW_MAX_ITER", 2000)
        ((lo, hi, _, _, scale),) = _cw_bracket(plan, 1.0)
    (s_prev, _), unused = plan.warm
    assert s_prev == 1.0 and unused is None and scale == 0.0
    want = dense_log_radius(plan.size, plan.row, plan.col, plan.logs[0])
    assert math.log(lo) - SLACK <= want <= math.log(hi) + SLACK, (lo, want, hi)


def test_a_largest_entry_far_above_rho_still_gives_a_tight_bracket():
    # the 1 -> 2 entry weighs 1, yet every cycle through it has mean
    # e**-150, and the loop at state 0 (e**-100) sets rho; the unscaled
    # iteration, whose theta is that largest entry, must close CW_TOL wide
    # relative to rho, not to theta, where a bracket of rho/theta that is
    # CW_TOL wide spans e**-200 to e**-99.3
    logw = np.full((3, 3), -300.0)
    logw[0, 0], logw[1, 2] = -100.0, 0.0
    plan = complete_class(3, 1, logw.ravel())
    ((lo, hi, stalled, _, scale),) = _cw_bracket(plan, 1.0)
    assert plan.warm[0] is not None and not stalled and scale == 0.0
    want = dense_log_radius(plan.size, plan.row, plan.col, plan.logs[0])
    assert math.log(lo) - SLACK <= want <= math.log(hi) + SLACK, (lo, want, hi)
    assert math.log(hi) - math.log(lo) <= CW_TOL


def perron_class(rng, letters, depth, step):
    """The log-weights, in CSR order, and the spectral radius of a complete
    class built around a known Perron pair: with shares a_ij > 0 summing to
    1 over each row, w_ij = rho * a_ij * p_i / p_j gives B p = rho p, and
    a nonnegative matrix with a positive eigenvector has that eigenvector's
    eigenvalue as its radius.  log p of a word is step times the sum of its
    letters' indices, so an entry changes it by at most (letters - 1) *
    step, and it spans depth times that."""
    n = letters**depth
    tails = n // letters
    row = np.repeat(np.arange(n), letters)
    col = ((np.arange(n) % tails * letters)[:, None] + np.arange(letters)).ravel()
    share = rng.uniform(0.05, 1.0, n * letters)
    share /= np.bincount(row, share)[row]
    rho = float(np.exp(rng.uniform(-5.0, 5.0)))
    digits = np.arange(n)[:, None] // letters ** np.arange(depth) % letters
    delta = step * digits.sum(axis=1)
    return np.log(rho * share) + delta[row] - delta[col], rho


def test_complete_class_past_the_spread_bound_takes_the_scales(monkeypatch):
    # a Perron vector spanning e**750 over depth 3 lies past float64, so
    # the class's log-weights span more than the bound over its depth, and
    # the scale search runs; its bracket closes and holds the known radius,
    # and the scaled run keeps no state.  Forced unscaled, the same class
    # floors its iterate at 1e-300 and stalls
    calls = count_scale_searches(monkeypatch)
    logw, rho = perron_class(np.random.default_rng(20261019), 2, 3, 250.0)
    plan = complete_class(2, 3, logw)
    assert plan.depth * np.ptp(plan.logs[0]) > pressure._UNSCALED_SPREAD
    ((lo, hi, stalled, _, scale),) = _cw_bracket(plan, 1.0)
    assert len(calls) == 1 and not stalled and scale == 0.0
    assert plan.warm == [None, None]
    assert lo * (1.0 - SLACK) <= rho <= hi * (1.0 + SLACK), (lo, rho, hi)
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 1000)
    monkeypatch.setattr(pressure, "_UNSCALED_SPREAD", math.inf)
    forced = complete_class(2, 3, logw)
    assert _cw_bracket(forced, 1.0)[0][2]
    assert len(calls) == 1


def test_a_deeper_geometry_starts_from_the_lifted_iterate():
    # one depth deeper on the same system and letters, the class starts
    # from the shallower class's final iterate, each 4-word taking its
    # 3-letter prefix's entry, and the old geometry itself is gone.  The
    # bracket meets the one a cold start gives and matches it to the
    # iteration's tolerance
    gc.disable()
    try:
        cf = cf_system(letters=(1, 2))
        with _reuse_geometry():
            pressure_spectral(cf, PotentialSpec(0.5), 2, 3)
            old = build_weighted_matrix(cf, PotentialSpec(0.5), 2, 3).geometry
            (plan,) = old.classes
            finals = [w[1].copy() for w in plan.warm]
            gone = weakref.ref(old)
            del old, plan
            geom = build_weighted_matrix(cf, PotentialSpec(0.6), 2, 4).geometry
            assert gone() is None
            (deep,) = geom.classes
            for (s_prev, start), final in zip(deep.warm, finals, strict=True):
                assert s_prev == 0.5
                assert np.array_equal(start, np.repeat(final, 2))
            est = pressure_spectral(cf, PotentialSpec(0.6), 2, 4)
    finally:
        gc.enable()
    cold = pressure_spectral(cf_system(letters=(1, 2)), PotentialSpec(0.6), 2, 4)
    assert max(est.lower, cold.lower) <= min(est.upper, cold.upper)
    for got, want in ((est.lower, cold.lower), (est.upper, cold.upper)):
        assert abs(got - want) <= 4 * CW_TOL


@pytest.mark.parametrize("low, high", [(790.0, 800.0), (-810.0, -800.0),
                                       (700.0, 1400.0), (-1400.0, -700.0)],
                         ids=["overflow", "underflow", "scaled-overflow", "scaled-underflow"])
def test_a_class_past_float64s_range_is_bracketed_in_logs(low, high):
    # entries of e**800 overflow float64 and entries of e**-800 underflow
    # it, so theta does too; the last two spread past the bound and take
    # the scales, whose largest entry still leaves the range.  The bracket
    # comes back over theta with log theta as its scale, and holds the
    # dense radius
    rng = np.random.default_rng(29)
    plan = complete_class(3, 2, np.zeros(27))
    plan.logs = rng.uniform(low, high, (1, 27))
    ((lo, hi, stalled, _, scale),) = _cw_bracket(plan, 1.0)
    assert not stalled and not math.log(sys.float_info.min) <= scale <= math.log(sys.float_info.max)
    want = dense_log_radius(plan.size, plan.row, plan.col, plan.logs[0])
    assert math.log(lo) + scale - SLACK <= want <= math.log(hi) + scale + SLACK, (lo, hi, scale)
