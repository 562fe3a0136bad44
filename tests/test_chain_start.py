"""The chain-elimination start of hub-and-chain classes, against a known
Perron root.

A class is drawn as hubs joined by chains: a backbone cycle hub 0 -> hub 1
-> ... -> hub 0, each leg a chain of 0 or more states, plus extra chains
from a hub to a hub or into an earlier chain, so that chains merge as the
ladder's do.  Its weights are built around a Perron pair: with shares
a_ij >= 0 summing to 1 over each row, w_ij = rho * a_ij * p_i / p_j gives
B p = rho p, and a nonnegative matrix with a positive eigenvector has that
eigenvector's eigenvalue as its spectral radius.  p_i = exp(delta_i) with
delta_i in [-350, 350], so the log-weights span about +-700.  Some extra
chains start with a zero share, an entry that vanished at this exponent.
The root is known exactly, where numpy's dense eigenvalues are not: on a
37-state cycle they miss it by 7e-10 relative (the eigenvalues of a
weighted cycle are badly conditioned).

exp rounds each weight to about 705 * 2**-53 = 8e-14 relative, which moves
rho(B) by as much, and the Collatz-Wielandt bounds are not rounded outward
yet, so containment is checked to 1e-12 relative.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gifsdim import chains, pressure
from gifsdim.chains import HUB_MAX
from gifsdim.pressure import _class_plan, _cw_bracket
from periods import pattern_period

SETTINGS = settings(max_examples=40, deadline=None)
SLACK = 1e-12


def weighted_class(rng, rows, zero=()):
    """(geometry, weights, rho) of the class whose state i has the
    successors rows[i], ascending: a stand-in StateGeometry holding its CSR
    pattern, with the weights as the ranges of both sides; its weights in
    nonzero order; and its spectral radius.  The entries listed in zero
    weigh 0; every row keeps a positive one."""
    n = len(rows)
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    indices = np.array([j for r in rows for j in r])
    row = np.repeat(np.arange(n), np.diff(indptr))
    share = rng.uniform(0.05, 1.0, len(indices))
    share[[(i, j) in zero for i, j in zip(row, indices)]] = 0.0
    share /= np.bincount(row, share)[row]
    rho = float(np.exp(rng.uniform(-5.0, 5.0)))
    delta = rng.uniform(-350.0, 350.0, n)
    with np.errstate(divide="ignore"):
        weights = np.exp(np.log(rho * share) + delta[row] - delta[indices])
    geom = SimpleNamespace(states=tuple(range(n)), indices=indices.astype(np.int32),
                           indptr=indptr.astype(np.int32), lower=weights, upper=weights)
    return geom, weights, rho


def hub_and_chain(rng, hubs, extra, max_len, zero_frac):
    """A drawn hub-and-chain class, as weighted_class returns it."""
    succ = [set() for _ in range(hubs)]
    zero = set()

    def chain(start, end):
        prev = start
        for _ in range(int(rng.integers(0, max_len + 1))):
            succ.append(set())
            succ[prev].add(len(succ) - 1)
            prev = len(succ) - 1
        succ[prev].add(end)

    for h in range(hubs):
        chain(h, (h + 1) % hubs)
    for _ in range(extra):
        start = int(rng.integers(0, hubs))
        before = set(succ[start])
        chain(start, int(rng.integers(0, len(succ))))
        if rng.random() < zero_frac:
            zero.update((start, j) for j in succ[start] - before)
    return weighted_class(rng, [sorted(s) for s in succ], zero)


def class_plan(geom):
    return _class_plan(geom, geom.states, np.arange(len(geom.states)),
                       pattern_period(geom.indptr, geom.indices))


def bracket(plan):
    """The class's bracket at s = 1, where its entries are its weights, the
    ranges of its one array for both sides."""
    assert plan.fan == 0 and plan.chains is not None
    assert 1 <= len(plan.chains.hubs) <= HUB_MAX
    assert len(plan.logs) == 1
    side, same = _cw_bracket(plan, 1.0, 1.0)
    assert same is side     # one row serves both sides
    assert side[4] == 0.0   # theta stays a normal float
    return side[:4]


def drawn_class(hubs, extra, max_len, zero_frac, seed):
    """(rng, plan, rho) of a drawn class with chains."""
    rng = np.random.default_rng(seed)
    geom, _, rho = hub_and_chain(rng, hubs, extra, max_len, zero_frac)
    plan = class_plan(geom)
    # a few draws, such as one hub with only a self-loop, have the complete
    # pattern instead
    assume(plan.fan == 0)
    return rng, plan, rho


def assert_contains(lo, hi, rho):
    assert lo * (1.0 - SLACK) <= rho <= hi * (1.0 + SLACK), (lo, rho, hi)


CLASSES = dict(hubs=st.integers(1, HUB_MAX), extra=st.integers(0, 6),
               max_len=st.integers(0, 40), zero_frac=st.sampled_from([0.0, 0.3]),
               seed=st.integers(0, 2**32 - 1))


@SETTINGS
@given(**CLASSES)
# two hubs whose paths between them weigh e**-1399 against their loops':
# the closed form's vector spans past float64 and is kept in logs
@example(hubs=2, extra=4, max_len=8, zero_frac=0.0, seed=3)
def test_chain_start_brackets_the_known_root_at_once(hubs, extra, max_len, zero_frac,
                                                     seed):
    _, plan, rho = drawn_class(hubs, extra, max_len, zero_frac, seed)
    lo, hi, stalled, iterations = bracket(plan)
    assert not stalled and iterations <= 2, (iterations, plan.size)
    assert_contains(lo, hi, rho)


@pytest.mark.parametrize("length", [2, 3, 37, 300])
def test_single_cycle_takes_state_zero_as_its_hub(length):
    rng = np.random.default_rng(length)
    geom, _, rho = weighted_class(rng, [[(i + 1) % length] for i in range(length)])
    plan = class_plan(geom)
    assert plan.chains.hubs.tolist() == [0]
    lo, hi, stalled, iterations = bracket(plan)
    assert not stalled and iterations <= 2
    assert_contains(lo, hi, rho)


@pytest.mark.parametrize("zero_at", [0, 5])
def test_a_vanished_cycle_entry_gives_no_start_and_no_warning(zero_at, monkeypatch):
    # an 8-cycle whose entry from state zero_at weighs 0 at this exponent
    # (the hub's own entry, or a chain state's) has no positive Perron
    # vector: the elimination gives none, without a floating-point
    # warning, and the iteration from v = 1 still holds rho = 0
    length = 8
    weights = np.exp(np.random.default_rng(zero_at).uniform(-300.0, 300.0, length))
    weights[zero_at] = 0.0
    geom = SimpleNamespace(
        states=tuple(range(length)),
        indices=np.array([(i + 1) % length for i in range(length)], dtype=np.int32),
        indptr=np.arange(length + 1, dtype=np.int32), lower=weights, upper=weights)
    plan = class_plan(geom)
    with np.errstate(divide="ignore"):
        ldata = np.log(weights[plan.positions])
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chains.perron_log(plan.chains, plan.row, ldata) is None
        lo, hi, _, _ = bracket(plan)
    assert lo == 0.0 <= hi


@pytest.mark.parametrize("length", [40, 300])
def test_long_legs_bracket_the_known_root_at_once(length):
    # legs and two merging spines of up to length states each, for every
    # hub count: the ladder's class has two hubs and spines of up to 256
    rng = np.random.default_rng(length)
    for hubs in range(1, HUB_MAX + 1):
        geom, _, rho = hub_and_chain(rng, hubs, 2, length, 0.3)
        lo, hi, stalled, iterations = bracket(class_plan(geom))
        assert not stalled and iterations <= 2, (hubs, iterations)
        assert_contains(lo, hi, rho)


@SETTINGS
@given(**CLASSES, noise=st.sampled_from([1e-6, 0.1, 3.0]))
def test_a_poor_start_still_brackets_the_known_root(hubs, extra, max_len, zero_frac,
                                                    seed, noise):
    # a start off by up to a factor e**+-noise per state only costs steps;
    # the budget is cut so that a slow class stalls, still certified
    rng, plan, rho = drawn_class(hubs, extra, max_len, zero_frac, seed)
    exact = chains.perron_log

    def poor(hub_chains, row, ldata):
        logv = exact(hub_chains, row, ldata)
        return logv + rng.uniform(-noise, noise, len(logv))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "perron_log", poor)
        patch.setattr(pressure, "CW_MAX_ITER", 2000)
        lo, hi, _, _ = bracket(plan)
    assert_contains(lo, hi, rho)
