"""The Collatz-Wielandt class matvecs against scipy, by bytes.

Both narrow numpy forms in pressure._class_matvec promise to add each row's
terms from 0.0 in ascending column order, as scipy's csr_matvec does, on
each side of the class alike.  The weights span many binary orders of
magnitude, so a sum taken in any other order (numpy's pairwise summation,
a reversed or blocked loop) changes low bits and fails here.  A complete
class of more than one block over pressure._STACK_FAN or more letters
takes the stacked np.matmul form instead, and must give the bytes of the
same np.matmul over the dense blocks that scipy slices out of its matrix.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gifsdim.pressure import (
    _STACK_FAN,
    _aligned,
    _class_matvec,
    _class_plan,
    _ClassPlan,
    _stacked,
)
from periods import pattern_period
from stacked import stacked_matvec

SETTINGS = settings(max_examples=60, deadline=None)


def geometry(cols_per_row):
    """A stand-in for StateGeometry: just what _class_plan reads, the CSR
    pattern and one array of unit ranges for both sides."""
    counts = [len(c) for c in cols_per_row]
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    indices = np.array([j for c in cols_per_row for j in c], dtype=np.int32)
    ranges = np.ones(len(indices))
    return SimpleNamespace(states=tuple(range(len(counts))), indices=indices,
                           indptr=indptr, lower=ranges, upper=ranges)


def random_weights(rng, nnz, zero_frac):
    """Weights in [0, 1] spread over 60 binary orders, some exactly zero."""
    data = rng.random(nnz) * np.exp2(-rng.integers(0, 60, nnz))
    data[rng.random(nnz) < zero_frac] = 0.0
    return data


def check(geom, plan, rng, zero_frac):
    # two sides, each row of weights on a 64-byte boundary as the spectral
    # layer lays them out, and each side's product must have the bytes of
    # that side's alone
    n = len(geom.states)
    data = np.stack([random_weights(rng, len(geom.indices), zero_frac) for _ in range(2)])
    v = np.maximum(rng.random((2, n)) * np.exp2(-rng.integers(0, 40, (2, n))), 1e-300)
    rows = _aligned(2, len(plan.positions))
    rows[...] = data[:, plan.positions]
    # the stacked form is checked on a class that is the whole geometry
    want_of = []
    for side in data:
        mat = sp.csr_matrix((side, geom.indices, geom.indptr), shape=(n, n))
        want_of.append(stacked_matvec(mat, plan.fan) if _stacked(plan.fan, n) else mat.dot)
    iterate = v.copy()
    matvec = _class_matvec(plan, rows, iterate)
    # a second call reads the iterate's new contents, reuses the output
    # array and must not depend on the first
    for vs in (v, v[:, ::-1].copy()):
        iterate[...] = vs
        got = matvec()
        assert got.shape == vs.shape and got.dtype == np.float64
        for side, want in enumerate(want_of):
            assert got[side].tobytes() == want(vs[side]).tobytes()
    # the second side on its own row, as it runs once the first has stopped
    alone = _class_matvec(plan, rows[1:], iterate[1:])()
    assert alone.tobytes() == want_of[1](iterate[1]).tobytes()


def csr_plan(geom):
    """The same complete class, so of period 1, with its entries in CSR
    order, for the bincount form."""
    n = len(geom.states)
    row = np.repeat(np.arange(n), np.diff(geom.indptr))
    col = geom.indices.astype(np.intp)
    return _ClassPlan(geom.states, n, np.arange(len(col)), row, col, 0, 1,
                      np.zeros((1, len(col))))


def complete_geometry(letters, depth):
    """All depth-words over letters that may all follow each other: word
    a*R + r goes to r*|C| + b for every letter b, and the self-loops of the
    letters make the period 1."""
    n = letters**depth
    tails = n // letters
    return geometry([[i % tails * letters + b for b in range(letters)]
                     for i in range(n)])


@SETTINGS
@given(letters=st.integers(2, 8), depth=st.integers(1, 4),
       zero_frac=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_complete_class_matvecs_match_scipy_bytes(letters, depth, zero_frac, seed):
    geom = complete_geometry(letters, depth)
    n = letters**depth
    plan = _class_plan(geom, geom.states, np.arange(n), 1)
    assert plan.fan == letters
    rng = np.random.default_rng(seed)
    check(geom, plan, rng, zero_frac)
    check(geom, csr_plan(geom), rng, zero_frac)


@SETTINGS
@given(letters=st.integers(_STACK_FAN, 16), depth=st.integers(1, 2),
       zero_frac=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_wide_complete_classes_are_stored_as_blocks(letters, depth, zero_frac, seed):
    # with more than one block, entry [r, a, b] of the plan is the CSR entry
    # (a*R + r)*|C| + b, so the blocks need no transposed copy, and the
    # matvec is the stacked product of the blocks that scipy slices; a
    # single block (depth 1) keeps the b-major multiply-reduce
    geom = complete_geometry(letters, depth)
    n = letters**depth
    tails = n // letters
    plan = _class_plan(geom, geom.states, np.arange(n), 1)
    assert plan.fan == letters
    if depth == 1:
        b, a = np.indices((letters, letters)).reshape(2, -1)
        assert not _stacked(plan.fan, plan.size)
        assert np.array_equal(plan.positions, a * letters + b)
    else:
        r, a, b = np.indices((tails, letters, letters)).reshape(3, -1)
        assert _stacked(plan.fan, plan.size)
        assert np.array_equal(plan.positions, (a * tails + r) * letters + b)
        assert np.array_equal(plan.row, a * tails + r)
        assert np.array_equal(plan.col, r * letters + b)
    check(geom, plan, np.random.default_rng(seed), zero_frac)


@SETTINGS
@given(n=st.integers(2, 400), branch=st.floats(0.0, 0.3),
       zero_frac=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_chain_class_matvecs_match_scipy_bytes(n, branch, zero_frac, seed):
    # a cycle through every state, most rows holding its single entry, some
    # rows branching back to earlier states and one row to every 4th state
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        cols = {(i + 1) % n}
        if i and rng.random() < branch:
            cols.update(rng.integers(0, i, int(rng.integers(1, 4))).tolist())
        rows.append(sorted(cols))
    rows[-1] = sorted(set(rows[-1]) | set(range(0, n, 4)))
    geom = geometry(rows)
    plan = _class_plan(geom, geom.states, np.arange(n),
                       pattern_period(geom.indptr, geom.indices))
    assert plan.fan == 0
    check(geom, plan, rng, zero_frac)


def test_class_plan_keeps_only_in_class_entries():
    # states 0-3 form the complete class over two letters; state 4 only
    # feeds into it, so its row is not the class's and its column is dropped
    rows = [[0, 1, 4], [2, 3], [0, 1], [2, 3, 4], [0]]
    geom = geometry(rows)
    plan = _class_plan(geom, (0, 1, 2, 3), np.arange(4), 1)
    assert plan.fan == 2
    rng = np.random.default_rng(7)
    data = random_weights(rng, len(geom.indices), 0.2)
    v = rng.random(4) + 0.5
    inner = sp.csr_matrix((data, geom.indices, geom.indptr), shape=(5, 5))[:4][:, :4]
    (got,) = _class_matvec(plan, data[None, plan.positions], v[None])()
    assert got.tobytes() == (inner @ v).tobytes()
