"""Pressure-bracket tests.

Frozen oracles used here:
  * two-loop similarity system, ratios 1/2 and 1/8: level-1 weighted matrix
    at s=1 is [[.5,.5],[.125,.125]], rank one, spectral radius 0.625; the
    exponent solving (1/2)**s + (1/8)**s = 1 is 0.55146308974... (real root
    of t**3 + t = 1 pulled back through t = 2**-s).
  * hub-and-spine declared full upper: log((1 + 2**s)/4**s), equal to log 2
    at s = 0 and crossing zero at log2 of the golden ratio.
  * dag-of-cycles: spectral radius of a weighted cycle of length L is the
    geometric mean of its weights, and a block-triangular system takes the
    max over blocks.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from gifsdim import chains, pressure
from gifsdim.graphs import (
    DirectedMultigraph,
    Enumeration,
    FiniteTransition,
    strongly_connected_components,
    word_levels,
)
from gifsdim.maps import (
    ConformalAffine,
    MoebiusCF,
    Similarity,
    derivative_range_over_set,
    image_enclosure,
)
from gifsdim.pressure import (
    CW_MAX_ITER,
    CW_TOL,
    PotentialSpec,
    PressureEstimate,
    build_weighted_matrix,
    pressure_spectral,
    _reuse_geometry,
    truncation_ladder,
    _cw_bracket,
    _cycling_classes,
    _state_classes,
)
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_system,
    moran_system,
    perturbed_cf,
)
from gifsdim.shapes import Ball
from gifsdim.systems import GifsSystem, SeedSet, subsystem


def two_loop():
    return moran_system([0.5, 0.125])


# ---------------------------------------------------------------------------
# potential / estimate plumbing


def test_potential_spec_validation():
    assert PotentialSpec(0.7).selector == "norm"
    with pytest.raises(ValueError):
        PotentialSpec(-0.1)
    with pytest.raises(ValueError):
        PotentialSpec(math.inf)
    with pytest.raises(ValueError):
        PotentialSpec(1.0, epsilon=1.5)


def test_estimate_lambda_bracket_and_record():
    est = PressureEstimate(lower=-0.5, upper=-0.25, s=1.0, horizon=2)
    rec = est.record()
    assert rec["s"] == 1.0
    assert rec["k"] == 2
    assert rec["lower"] == -0.5
    assert rec["scope"] == "truncated"
    assert rec["divergence_flag"] is False
    assert "epsilon" not in rec
    with pytest.raises(ValueError):
        PressureEstimate(lower=0.2, upper=0.1, s=1.0)


# ---------------------------------------------------------------------------
# spectral brackets


def test_spectral_two_loop_level_one():
    est = pressure_spectral(two_loop(), PotentialSpec(1.0), 2, 1)
    target = math.log(0.625)
    assert est.lower - 1e-9 <= target <= est.upper + 1e-9
    assert est.width < 1e-9


def test_spectral_two_cycle_closes_immediately():
    graph = DirectedMultigraph(
        vertices=Enumeration(items=("a", "b")),
        edges=Enumeration(items=("ab", "ba")),
        initial=lambda e: "a" if e == "ab" else "b",
        terminal=lambda e: "b" if e == "ab" else "a",
        simple=False,
    )
    seeds = {
        "a": SeedSet("a", Ball((0.0,), 0.5), Ball((0.0,), 0.75)),
        "b": SeedSet("b", Ball((3.0,), 0.5), Ball((3.0,), 0.75)),
    }
    maps = {"ab": Similarity(0.5, (0.0,)), "ba": Similarity(0.5, (3.0,))}
    sys = GifsSystem(graph, seeds, maps, 1, name="two-cycle")
    est = pressure_spectral(sys, PotentialSpec(1.0), 2, 1)
    assert est.lower == pytest.approx(math.log(0.5), abs=1e-10)
    assert est.upper == pytest.approx(math.log(0.5), abs=1e-10)
    assert not est.stalled


def test_spectral_depth_refinement_nests():
    cf = cf_system(letters=(1, 2))
    pot = PotentialSpec(1.2)
    prev = pressure_spectral(cf, pot, 2, 2)
    for m in (3, 4):
        est = pressure_spectral(cf, pot, 2, m)
        assert prev.lower - 1e-12 <= est.lower
        assert est.upper <= prev.upper + 1e-12
        assert est.width < prev.width
        prev = est


def test_spectral_agrees_with_word_sum_on_similarities():
    sys = two_loop()
    for s in (0.2, 0.5514, 0.9):
        pot = PotentialSpec(s)
        closed = math.log(0.5**s + 0.125**s)
        spec = pressure_spectral(sys, pot, 2, 1)
        assert spec.lower - 1e-9 <= closed <= spec.upper + 1e-9
        assert spec.width < 1e-9


def test_spectral_stall_flag_and_strictness(monkeypatch):
    # the loop-plus-2-cycle matrix [[.4,.25],[.3,0]] cannot close its
    # Collatz-Wielandt gap in a single iteration from v = 1 (the two-loop
    # rank-one matrix can, once the iterate is scale-equilibrated); from
    # the Perron vector its two hubs and one chain state give, it can
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 1)
    sys = affine_demo()
    rho = 0.5 * (0.4 + math.sqrt(0.16 + 4 * 0.075))
    est = pressure_spectral(sys, PotentialSpec(1.0), 3, 1)
    assert not est.stalled
    assert est.lower - 1e-12 <= math.log(rho) <= est.upper + 1e-12
    monkeypatch.setattr(chains, "HUB_MAX", 0)
    est = pressure_spectral(sys, PotentialSpec(1.0), 3, 1)
    assert est.stalled
    assert est.lower - 1e-12 <= math.log(rho) <= est.upper + 1e-12


def _same_bits(a, b):
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip((a.data, a.indices, a.indptr), (b.data, b.indices, b.indptr))
    )


def test_reweighting_matches_a_fresh_build_bitwise():
    for make, k, m in ((lambda: cf_system(letters=(1, 2)), 2, 3), (ladder_system, 12, 1)):
        sys = make()
        with _reuse_geometry():
            first = build_weighted_matrix(sys, PotentialSpec(0.3), k, m)
            second = build_weighted_matrix(sys, PotentialSpec(0.7), k, m)
            zero = build_weighted_matrix(sys, PotentialSpec(0.0), k, m)
            other = build_weighted_matrix(sys, PotentialSpec(0.7), k, m + 1)
        assert second.geometry is first.geometry is zero.geometry
        assert other.geometry is not first.geometry
        fresh = build_weighted_matrix(make(), PotentialSpec(0.7), k, m)
        assert _same_bits(second.inf_weights, fresh.inf_weights)
        assert _same_bits(second.sup_weights, fresh.sup_weights)
        assert second.states == fresh.states
        for mat in (zero.inf_weights, zero.sup_weights):
            assert (mat.data == 1.0).all()
            assert mat.nnz == fresh.sup_weights.nnz


def reference_geometry(system, k, m):
    """The scalar algorithm the array geometry replaced: states in
    lexicographic order, one derivative_range_over_set per nonzero over
    memoised image_enclosure disks."""
    g = system.graph
    states = [
        w for w in itertools.product(system.letters(k), repeat=m)
        if all(g.terminal(a) == g.initial(b) for a, b in zip(w, w[1:]))
    ]
    memo = {}

    def enclosure(w):
        if w not in memo:
            memo[w] = (system.seed_image(w[0])[0] if len(w) == 1 else
                       image_enclosure(system.map_of(w[0]), enclosure(w[1:]))[0])
        return memo[w]

    entries = [
        (i, j, derivative_range_over_set(system.map_of(u[0]), enclosure(w)))
        for i, u in enumerate(states) for j, w in enumerate(states)
        if (u[1:] == w[:-1] if m > 1 else g.terminal(u[0]) == g.initial(w[0]))
    ]
    rows, cols, ranges = zip(*entries)
    shape = (len(states), len(states))
    lo = sp.csr_matrix(([r.lower for r in ranges], (rows, cols)), shape=shape)
    hi = sp.csr_matrix(([r.upper for r in ranges], (rows, cols)), shape=shape)
    return tuple(states), lo, hi


def moebius_with_affine_letters():
    """CF letters 1 and 2 beside a reflected affine letter and a rotated
    similarity, on the CF seed disk."""
    cf = cf_system(letters=(1, 2, 3, 4))
    maps = {
        1: MoebiusCF(1),
        2: MoebiusCF(2),
        3: ConformalAffine(0.3 + 0.1j, (0.2, 0.1), reflect=True),
        4: Similarity(0.2, (0.5, 0.0), rotation=0.7),
    }
    seeds = {0: cf.seed(0)}
    return GifsSystem(cf.graph, seeds, maps, 2, name="cf-affine")


def test_array_geometry_matches_scalar_reference_bitwise():
    cases = [(lambda: cf_system(letters=(1, 2)), 2, range(1, 7)),
             (lambda: cf_system(gaussian_alphabet(2)), 64, range(1, 4)),
             (ladder_system, 12, range(1, 3)),
             (affine_demo, 8, range(1, 4)),
             (lambda: moran_system([1 / 3, 1 / 3]), 2, range(1, 4)),
             (moebius_with_affine_letters, 4, range(1, 4))]
    for eps in (0.0, 0.25):
        cases.append((lambda eps=eps: perturbed_cf((1, 2), (1, 2, 3), eps), 3, range(1, 5)))
    for make, k, depths in cases:
        for m in depths:
            geom = build_weighted_matrix(make(), PotentialSpec(1.0), k, m).geometry
            states, lo, hi = reference_geometry(make(), k, m)
            assert geom.states == states, (make, m)
            assert np.array_equal(geom.indices, lo.indices)
            assert np.array_equal(geom.indptr, lo.indptr)
            assert geom.lower.tobytes() == lo.data.tobytes(), (make, m)
            assert geom.upper.tobytes() == hi.data.tobytes(), (make, m)


def test_float_power_rounds_as_libm_pow():
    # the reweight raises every derivative range with np.float_power and the
    # disk maths takes |z| with np.hypot; a host where either rounds unlike
    # x ** s or abs(complex) would move brackets by ulps
    rng = np.random.default_rng(20261018)
    x = 1.0 - rng.random(50000)
    for s in (0, 0.3, 0.531, 1, 1.25, 2, 3):
        want = np.array([v ** s for v in x.tolist()])
        assert np.float_power(x, s).tobytes() == want.tobytes(), s
    y = rng.normal(size=x.size)
    want = np.array([abs(complex(a, b)) for a, b in zip(x.tolist(), y.tolist())])
    assert np.hypot(x, y).tobytes() == want.tobytes()


def test_weighted_matrix_build_leaves_no_reference_cycle():
    # a reference cycle left by a build would keep the system alive until a
    # full collection
    gc.disable()
    try:
        sys = cf_system(letters=(1, 2))
        ref = weakref.ref(sys)
        build_weighted_matrix(sys, PotentialSpec(0.5), 2, 4)
        del sys
        assert ref() is None
    finally:
        gc.enable()


def reference_equilibrate_scales(nstates, row, col, logw):
    d = np.zeros(nstates)
    for _ in range(min(nstates, 512)):
        nxt = np.full(nstates, -np.inf)
        np.maximum.at(nxt, row, logw + d[col])
        nxt -= nxt.max()
        finite = np.isfinite(nxt)
        if not finite.all():
            fill = nxt[finite].min() if finite.any() else 0.0
            nxt[~finite] = fill
        if np.abs(nxt - d).max() <= 1e-9:
            return nxt
        d = nxt
    return d


def reference_cw_bracket(mat):
    """Cold Collatz-Wielandt bracket of one sliced class matrix: zeros
    dropped, scales from zero, rebuilt from COO, iterated from v = 1."""
    nstates = mat.shape[0]
    coo = mat.tocoo()
    keep = coo.data > 0.0
    row, col = coo.row[keep], coo.col[keep]
    logw = np.log(coo.data[keep])
    if logw.size == 0:
        return 0.0, 0.0, False
    d = reference_equilibrate_scales(nstates, row, col, logw)
    data = np.exp(logw + d[col] - d[row])
    if not np.isfinite(data).all():
        data = np.exp(logw)
    theta = float(data.max())
    scaled = sp.csr_matrix((data / theta, (row, col)), shape=(nstates, nstates))
    v = np.ones(nstates)
    best_lo, best_hi, stalled = 0.0, math.inf, True
    for _ in range(CW_MAX_ITER):
        w = scaled @ v + v
        ratios = w / v
        best_lo = max(best_lo, float(ratios.min()))
        best_hi = min(best_hi, float(ratios.max()))
        if best_hi - best_lo <= CW_TOL:
            stalled = False
            break
        v = np.maximum(w / w.max(), 1e-300)
    lo = max(best_lo - 1.0, 0.0) * theta
    hi = max(best_hi - 1.0, 0.0) * theta
    return min(lo, hi), hi, stalled


def as_csr(weights):
    """The scipy CSR matrix of a CsrWeights record."""
    return sp.csr_matrix((weights.data, weights.indices, weights.indptr),
                         shape=weights.shape)


def dense_log_radius(mat):
    """log rho of a sliced class matrix from numpy's dense eigenvalues,
    after conjugating it by max-plus scales so that LAPACK sees entries
    of one size; the conjugation rounds each entry by 1 ulp, which moves
    rho by as little."""
    coo = mat.tocoo()
    keep = coo.data > 0.0
    row, col = coo.row[keep], coo.col[keep]
    if not keep.any():
        return -math.inf
    logw = np.log(coo.data[keep])
    d = reference_equilibrate_scales(mat.shape[0], row, col, logw)
    dense = np.zeros(mat.shape)
    dense[row, col] = np.exp(logw + d[col] - d[row] - logw.max())
    return math.log(np.abs(np.linalg.eigvals(dense)).max()) + logw.max()


def reference_spectral(system, potential, k, m):
    """The route the per-class plans replaced: a state-level search for the
    classes, then every class sliced out of the full weight matrices at each
    exponent and bracketed cold, with scipy's slicing and matvec.  Each
    class is named by the letters its states start with, in enumeration
    order, and also carries its sliced inf and sup matrices."""
    wm = build_weighted_matrix(system, potential, k, m)
    inf_mat, sup_mat = as_csr(wm.inf_weights), as_csr(wm.sup_weights)
    ptr, cols = wm.inf_weights.indptr.tolist(), wm.inf_weights.indices.tolist()
    tr = FiniteTransition(wm.states, [cols[i:j] for i, j in zip(ptr, ptr[1:])])
    dec = strongly_connected_components(tr)
    position = {e: i for i, e in enumerate(system.letters(k))}
    lower = upper = -math.inf
    stalled = False
    comps = []
    for cls, trivial in zip(dec.classes, dec.trivial):
        if trivial:
            continue
        idx = np.array([tr.index[st] for st in cls], dtype=int)
        lo, _, st_a = reference_cw_bracket(inf_mat[idx][:, idx])
        _, hi, st_b = reference_cw_bracket(sup_mat[idx][:, idx])
        c_lower = math.log(lo) if lo > 0.0 else -math.inf
        c_upper = math.log(hi) if hi > 0.0 else -math.inf
        first = tuple(sorted({state[0] for state in cls}, key=position.__getitem__))
        comps.append((first, c_lower, c_upper,
                      (inf_mat[idx][:, idx], sup_mat[idx][:, idx])))
        stalled = stalled or st_a or st_b
        upper = max(upper, c_upper)
        lower = max(lower, c_lower)
    return lower, upper, stalled, comps


def _bits(x):
    return float(x).hex()


def slicing_cases():
    """(make, k, m, potential) of every probe checked against the slicing
    reference."""
    cases = [(lambda: cf_system(letters=(1, 2)), 2, range(1, 9)),
             (lambda: cf_system(gaussian_alphabet(2)), 64, range(1, 3)),
             (ladder_system, 64, (1, 2)),
             (ladder_system, 512, (1,)),
             (lambda: moran_system([1 / 3, 1 / 3]), 2, range(1, 4))]
    cases += [(lambda seed=seed: dag_of_cycles(seed)[0], 64, range(1, 4))
              for seed in range(5)]
    for make, k, depths in cases:
        for m in depths:
            for s in (0.0, 0.4, 0.9, 1.5):
                yield make, k, m, PotentialSpec(s)


def test_cold_spectral_matches_slicing_reference_bitwise(monkeypatch):
    # with the chain elimination off, every class runs the reference's
    # cold iteration
    monkeypatch.setattr(chains, "HUB_MAX", 0)
    for make, k, m, pot in slicing_cases():
        est = pressure_spectral(make(), pot, k, m)
        lower, upper, stalled, comps = reference_spectral(make(), pot, k, m)
        where = (make, k, m, pot.s)
        assert _bits(est.lower) == _bits(lower), where
        assert _bits(est.upper) == _bits(upper), where
        assert est.stalled == stalled, where
        assert len(est.components) == len(comps), where
        for (cls, lo, hi), (rcls, rlo, rhi, _) in zip(est.components, comps):
            assert cls == rcls, where
            assert (_bits(lo), _bits(hi)) == (_bits(rlo), _bits(rhi)), where


def test_chain_start_meets_slicing_reference_and_dense_radius():
    # a class that starts from its chain elimination (the ladder's, and
    # the dag's cycles) moves off the reference bits: its bracket must
    # meet the reference's, be no wider, and hold the dense radius, to the
    # 1e-12 relative that LAPACK and the unrounded Collatz-Wielandt bounds
    # leave; every other class keeps its bits
    routes = 0
    for make, k, m, pot in slicing_cases():
        est = pressure_spectral(make(), pot, k, m)
        plans = _state_classes(build_weighted_matrix(make(), pot, k, m).geometry)
        _, _, stalled, comps = reference_spectral(make(), pot, k, m)
        where = (make, k, m, pot.s)
        assert est.stalled == stalled, where
        assert len(est.components) == len(comps) == len(plans), where
        for plan, (cls, lo, hi), (rcls, rlo, rhi, mats) in zip(
                plans, est.components, comps):
            assert cls == rcls, where
            if plan.chains is None:
                assert (_bits(lo), _bits(hi)) == (_bits(rlo), _bits(rhi)), where
                continue
            routes += 1
            assert max(lo, rlo) <= min(hi, rhi), where
            assert hi - lo <= rhi - rlo, where
            dense = [dense_log_radius(mats[0])]
            same = (mats[0] != mats[1]).nnz == 0
            dense.append(dense[0] if same else dense_log_radius(mats[1]))
            assert lo - 1e-12 <= dense[0] and dense[1] <= hi + 1e-12, (where, dense)
        assert est.lower == max(lo for _, lo, _ in est.components), where
        assert est.upper == max(hi for _, _, hi in est.components), where
    assert routes > 0


def test_warm_probes_agree_with_cold_ones(monkeypatch):
    # with its chain elimination off, the ladder's class starts warm as the
    # CF class does; with it on, every probe starts from the elimination,
    # which reads no warm state, so warm probes repeat cold ones bit for bit
    sequence = (2.0, 0.0, 1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.671875)
    cases = ((lambda: cf_system(letters=(1, 2)), (2, 10), (2, 9), 0),
             (ladder_system, (512, 1), (256, 1), 0),
             (ladder_system, (512, 1), (256, 1), chains.HUB_MAX))
    for make, (k, m), (k2, m2), hub_max in cases:
        monkeypatch.setattr(chains, "HUB_MAX", hub_max)
        cold = [pressure_spectral(make(), PotentialSpec(s), k, m) for s in sequence]
        sys = make()
        with _reuse_geometry():
            warm = [pressure_spectral(sys, PotentialSpec(s), k, m) for s in sequence]
            moved = pressure_spectral(sys, PotentialSpec(sequence[-1]), k2, m2)
        differs = False
        for s, w, c in zip(sequence, warm, cold):
            assert not w.stalled, (make, s)
            assert max(w.lower, c.lower) <= min(w.upper, c.upper), (make, s)
            for got, want in ((w.lower, c.lower), (w.upper, c.upper)):
                # log endpoints: 4 * CW_TOL relative on the spectral radius
                assert abs(got - want) <= 4 * CW_TOL, (make, s, got, want)
            differs = differs or (_bits(w.lower), _bits(w.upper)) != (
                _bits(c.lower), _bits(c.upper))
        # the first probe on the geometry is cold; later ones start warm
        assert (_bits(warm[0].lower), _bits(warm[0].upper)) == (
            _bits(cold[0].lower), _bits(cold[0].upper))
        assert differs == (hub_max == 0), make
        # a new horizon or depth is a new geometry, and its first probe cold
        fresh = pressure_spectral(make(), PotentialSpec(sequence[-1]), k2, m2)
        assert (_bits(moved.lower), _bits(moved.upper)) == (
            _bits(fresh.lower), _bits(fresh.upper))
        assert [(_bits(lo), _bits(hi)) for _, lo, hi in moved.components] == [
            (_bits(lo), _bits(hi)) for _, lo, hi in fresh.components]


def two_side_spectral(system, potential, k, m):
    """pressure_spectral's components with one Collatz-Wielandt call per
    side, on the same plans and warm starts, each named by the letters its
    states start with."""
    wm = build_weighted_matrix(system, potential, k, m)
    position = {e: i for i, e in enumerate(system.letters(k))}
    comps = []
    for plan in _state_classes(wm.geometry):
        lo, _, st_a, _ = _cw_bracket(plan, 0, wm.inf_weights.data, potential.s)
        _, hi, st_b, _ = _cw_bracket(plan, 1, wm.sup_weights.data, potential.s)
        # the geometry rows that hold the class's entries are its states
        rows = np.searchsorted(wm.geometry.indptr, plan.positions, side="right") - 1
        first = tuple(sorted({wm.states[i][0] for i in rows.tolist()},
                             key=position.__getitem__))
        comps.append((first, _bits(math.log(lo) if lo > 0.0 else -math.inf),
                      _bits(math.log(hi) if hi > 0.0 else -math.inf), st_a or st_b))
    return comps


def test_shared_side_matches_two_side_calls_bitwise():
    # affine letters give equal inf and sup ranges, and then one power
    # iteration per class stands in for both sides
    sequence = (2.0, 0.0, 1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625)
    cases = ((ladder_system, 64, 1), (ladder_system, 512, 1),
             (lambda: moran_system([1 / 3, 1 / 3]), 2, 3))
    for make, k, m in cases:
        wm = build_weighted_matrix(make(), PotentialSpec(0.5), k, m)
        assert wm.geometry.upper is wm.geometry.lower
        assert wm.sup_weights is wm.inf_weights
        for warm in (False, True):
            sys, ref_sys = make(), make()
            with _reuse_geometry():
                got = [pressure_spectral(sys if warm else make(), PotentialSpec(s), k, m)
                       for s in sequence]
            with _reuse_geometry():
                want = [two_side_spectral(ref_sys if warm else make(), PotentialSpec(s), k, m)
                        for s in sequence]
            for s, est, comps in zip(sequence, got, want):
                where = (make, k, warm, s)
                assert [(cls, _bits(lo), _bits(hi)) for cls, lo, hi in est.components] == [
                    c[:3] for c in comps], where
                assert est.stalled == any(c[3] for c in comps), where
    cf = build_weighted_matrix(cf_system(letters=(1, 2)), PotentialSpec(0.5), 2, 3)
    assert cf.sup_weights is not cf.inf_weights


def state_graph(adj, words):
    """Successor lists of the word states, straight from the definition:
    u -> w when w continues u by one letter."""
    index = {tuple(w): i for i, w in enumerate(words.tolist())}
    succ = []
    for u in words.tolist():
        row = [index.get(tuple(u[1:]) + (c,)) for c in np.flatnonzero(adj[u[-1]]).tolist()]
        succ.append([i for i in row if i is not None])
    return succ


def test_derived_state_classes_match_state_search():
    # Tarjan on the state graph is the reference.  Both orders are
    # dependency orders, but classes no path joins may come out in either
    # order, so only such ties can move which class a bracket names as its
    # component; the order is therefore checked against reachability
    rng = np.random.default_rng(20261018)
    cases = several = 0
    for _ in range(3800):
        k = int(rng.integers(1, 8))
        m = int(rng.integers(1, 5))
        adj = (rng.random((k, k)) < rng.uniform(0.0, 0.6)).astype(np.int8)
        words = word_levels(adj, m)[-1][0]
        if not len(words):
            continue
        cases += 1
        letters = FiniteTransition(range(k), [np.flatnonzero(row).tolist() for row in adj])
        derived = _cycling_classes(letters, words)
        succ = state_graph(adj, words)
        dec = strongly_connected_components(FiniteTransition(range(len(words)), succ))
        derived_sets = {tuple(idx.tolist()) for _, idx in derived}
        assert derived_sets == set(dec.nontrivial_classes())
        several += len(derived) > 1
        position = np.full(len(words), -1)
        for order, (cls, idx) in enumerate(derived):
            assert (np.diff(idx) > 0).all()
            # each class is labelled by the letters its words are spelled in
            assert list(cls) == np.unique(words[idx]).tolist()
            position[idx] = order
        for order, (_, idx) in enumerate(derived):
            # nothing reachable from a class lies in an earlier class
            seen = set(idx.tolist())
            stack = list(seen)
            while stack:
                for j in succ[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            reached = position[list(seen)]
            assert not (reached[reached >= 0] < order).any()
    assert cases > 3000 and several > 500


def test_weighted_matrix_interval_order():
    cf = cf_system(letters=(1, 2))
    wm = build_weighted_matrix(cf, PotentialSpec(1.0), 2, 2)
    assert len(wm.states) == 4
    inf_d = as_csr(wm.inf_weights).toarray()
    sup_d = as_csr(wm.sup_weights).toarray()
    # each state (a, b) chains to exactly the two states (b, *)
    mask = sup_d > 0
    assert mask.sum() == 8
    assert (inf_d[mask] > 0).all()
    assert (inf_d[mask] <= sup_d[mask]).all()
    assert np.isfinite(sup_d).all()


def test_upper_monotone_in_exponent():
    lad = ladder_system()
    uppers = [
        pressure_spectral(lad, PotentialSpec(s), 12, 1).upper
        for s in (0.2, 0.4, 0.6, 0.8)
    ]
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-12


# ---------------------------------------------------------------------------
# component maxima


def dag_of_cycles(seed):
    """Several weighted cycles joined by one-way bridges, |edges| <= 8."""
    rng = np.random.default_rng(seed)
    sizes = []
    total = 0
    while total < 6:
        sz = int(rng.integers(1, 4))
        if total + sz > 6:
            break
        sizes.append(sz)
        total += sz
    if len(sizes) < 2:
        sizes = [1, 1]
        total = 2
    offsets = []
    off = 0
    for sz in sizes:
        offsets.append(off)
        off += sz
    edges = []
    initial = {}
    terminal = {}
    ratios = {}
    for g, sz in enumerate(sizes):
        base = offsets[g]
        for i in range(sz):
            e = ("c", g, i)
            edges.append(e)
            initial[e] = base + i
            terminal[e] = base + (i + 1) % sz
            ratios[e] = float(rng.uniform(0.1, 0.9))
    for g in range(len(sizes) - 1):
        e = ("b", g)
        edges.append(e)
        initial[e] = offsets[g] + sizes[g] - 1
        terminal[e] = offsets[g + 1]
        ratios[e] = float(rng.uniform(0.1, 0.9))
    graph = DirectedMultigraph(
        vertices=Enumeration(items=tuple(range(total))),
        edges=Enumeration(items=tuple(edges)),
        initial=lambda e: initial[e],
        terminal=lambda e: terminal[e],
        simple=False,
    )
    seeds = {
        v: SeedSet(v, Ball((0.5,), 0.5), Ball((0.5,), 0.75)) for v in range(total)
    }
    maps = {e: Similarity(ratios[e], (0.0,)) for e in edges}
    sys = GifsSystem(graph, seeds, maps, 1, name=f"dag{seed}")
    groups = [
        [("c", g, i) for i in range(sz)] for g, sz in enumerate(sizes)
    ]
    return sys, ratios, groups


def dense_radius(sys, ratios):
    letters = sys.letters(64)
    g = sys.graph
    n = len(letters)
    mat = np.zeros((n, n))
    for i, e in enumerate(letters):
        for j, f in enumerate(letters):
            if g.terminal(e) == g.initial(f):
                mat[i, j] = ratios[e]
    return max(abs(np.linalg.eigvals(mat)))


def test_scc_max_matches_dense_eigenvalues():
    for seed in range(5):
        sys, ratios, groups = dag_of_cycles(seed)
        rho = dense_radius(sys, ratios)
        pot = PotentialSpec(1.0)
        est = pressure_spectral(sys, pot, 64, 1)
        assert est.lower - 1e-8 <= math.log(rho) <= est.upper + 1e-8
        assert est.width < 1e-8


def test_scc_max_attribution_points_at_dominant_cycle():
    sys, ratios, groups = dag_of_cycles(3)
    means = [
        math.exp(sum(math.log(ratios[e]) for e in grp) / len(grp))
        for grp in groups
    ]
    dominant = groups[means.index(max(means))]
    est = pressure_spectral(sys, PotentialSpec(1.0), 64, 1)
    assert sorted(est.component) == sorted(dominant)
    assert len(est.components) == len(groups)
    for cls, lo, hi in est.components:
        assert lo <= hi


def test_scc_max_all_trivial_is_minus_infinity():
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0, 1)),
        edges=Enumeration(items=("down",)),
        initial=lambda e: 0,
        terminal=lambda e: 1,
        simple=False,
    )
    seeds = {
        0: SeedSet(0, Ball((0.0,), 0.5), Ball((0.0,), 0.75)),
        1: SeedSet(1, Ball((3.0,), 0.5), Ball((3.0,), 0.75)),
    }
    sys = GifsSystem(graph, seeds, {"down": Similarity(0.5, (0.0,))}, 1, name="arrow")
    # at depth 2 there is not even an admissible word
    for m in (1, 2):
        est = pressure_spectral(sys, PotentialSpec(1.0), 2, m)
        assert est.lower == -math.inf
        assert est.upper == -math.inf
        assert est.component is None
        assert est.components == ()


def test_scc_max_attribution_matches_subsystems_at_depth():
    # the subsystem route is the reference: each letter class restricted
    # to its own system and bracketed there
    for seed in range(5):
        sys, _, groups = dag_of_cycles(seed)
        pot = PotentialSpec(1.0)
        for m in (2, 3):
            est = pressure_spectral(sys, pot, 64, m)
            assert len(est.components) == len(groups)
            for cls, lo, hi in est.components:
                ref = pressure_spectral(subsystem(sys, edges=cls), pot, len(cls), m)
                assert (lo, hi) == (ref.lower, ref.upper)


# ---------------------------------------------------------------------------
# truncation ladders and full-system uppers


def test_ladder_lowers_nondecreasing():
    lad = ladder_system()
    ests = truncation_ladder(lad, PotentialSpec(0.5514), [2, 4, 8])
    lowers = [e.lower for e in ests[:-1]]
    assert lowers == sorted(lowers)
    final = ests[-1]
    assert final.scope == "full"
    assert final.lower == lowers[-1]
    s = 0.5514
    declared = math.log((1.0 + 2.0**s) / 4.0**s)
    assert final.upper == pytest.approx(declared, rel=1e-12)
    assert not final.divergence


def test_ladder_full_upper_signs():
    lad = ladder_system()
    at_zero = truncation_ladder(lad, PotentialSpec(0.0), [2, 4])[-1]
    assert at_zero.upper == pytest.approx(math.log(2), abs=1e-12)
    past_root = truncation_ladder(lad, PotentialSpec(0.695), [2, 4])[-1]
    assert past_root.upper < 0.0


def test_ladder_finite_alphabet_saturates():
    sys = two_loop()
    ests = truncation_ladder(sys, PotentialSpec(1.0), [1, 2, 4, 8])
    # horizons past the alphabet reuse the whole system
    assert ests[1].horizon == ests[2].horizon == ests[3].horizon == 2
    assert ests[2].lower == ests[3].lower
    assert ests[2].upper == ests[3].upper
    final = ests[-1]
    assert final.scope == "full"
    assert final.tail_term == 0.0
    assert final.upper == ests[3].upper
    target = math.log(0.625)
    assert final.lower - 1e-9 <= target <= final.upper + 1e-9


def test_cf_truncation_lowers_grow_with_alphabet():
    cf = cf_system()
    ests = truncation_ladder(cf, PotentialSpec(1.2), [2, 4, 8])
    lowers = [e.lower for e in ests[:-1]]
    assert lowers == sorted(lowers)
    final = ests[-1]
    assert final.scope == "full"
    assert math.isfinite(final.upper)
    assert final.tail_term > 0.0
    assert final.upper >= ests[-2].upper


def test_cf_full_divergence_below_summability():
    cf = cf_system()
    ests = truncation_ladder(cf, PotentialSpec(0.99), [2, 4])
    final = ests[-1]
    assert final.divergence
    assert final.upper == math.inf
    # truncated stages never carry the divergence flag
    assert not any(e.divergence for e in ests[:-1])


def test_truncation_ladder_rejects_bad_horizons():
    sys = two_loop()
    with pytest.raises(ValueError):
        truncation_ladder(sys, PotentialSpec(1.0), [])
    with pytest.raises(ValueError):
        truncation_ladder(sys, PotentialSpec(1.0), [4, 2])
