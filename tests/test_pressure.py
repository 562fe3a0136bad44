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
import sys
import weakref
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from gifsdim import chains, pressure
from gifsdim.graphs import (
    DirectedMultigraph,
    Enumeration,
    strongly_connected_components,
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
)
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_system,
    ladder_truncation,
    moran_system,
    perturbed_cf,
)
from gifsdim.shapes import Ball
from gifsdim.systems import GifsSystem, SeedSet, subsystem
from periods import pattern_period
from stacked import stacked_matvec
from words import Incidence, letter_adjacency, random_multigraph, word_level


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


def test_estimate_lambda_bracket_and_record():
    est = PressureEstimate(lower=-0.5, upper=-0.25, s=1.0, horizon=2)
    assert est.s == 1.0
    assert est.horizon == 2
    assert est.lower == -0.5
    assert est.scope == "truncated"
    assert est.divergence is False
    assert not hasattr(est, "epsilon")
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


def _same_bits(xs, ys):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(xs, ys, strict=True))


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
        for side in ("inf_weights", "sup_weights"):
            a, b = getattr(second, side), getattr(fresh, side)
            assert _same_bits((a.ranges, a.indices, a.indptr),
                              (b.ranges, b.indices, b.indptr))
            assert getattr(zero, side).ranges is a.ranges
            assert getattr(zero, side).nnz == b.nnz
        assert second.states == fresh.states
        # the log-weights each exponent is reweighted from, taken once per
        # geometry, are those of a fresh build too
        for got, want in zip(second.geometry.classes,
                             fresh.geometry.classes, strict=True):
            assert _same_bits((got.positions, *got.logs), (want.positions, *want.logs))


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
            memo[w] = (system.seed_image(w[0]) if len(w) == 1 else
                       image_enclosure(system.map_of(w[0]), enclosure(w[1:])))
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


def test_geometry_entries_count_the_next_depths_words():
    # refinement sizes depth m + 1 by the depth-m entry count: each entry
    # u -> w is the admissible (m+1)-letter word u + w[-1:]
    for make, k in ((affine_demo, 8), (lambda: ladder_truncation(6), 64),
                    (lambda: cf_system((1, 2, 3)), 3)):
        sysm = make()
        letters = sysm.letters(k)
        g = sysm.graph
        for m in (1, 2, 3):
            words = sum(
                all(g.terminal(a) == g.initial(b) for a, b in zip(w, w[1:]))
                for w in itertools.product(letters, repeat=m + 1)
            )
            geom = build_weighted_matrix(sysm, PotentialSpec(1.0), k, m).geometry
            assert len(geom.indices) == geom.indptr[-1] == words, (sysm.name, m)


def test_float_power_rounds_as_libm_pow():
    # as_csr raises the derivative ranges to s with np.float_power for the
    # dense checks, and the disk maths takes |z| with np.hypot; a host where
    # either rounds unlike x ** s or abs(complex) would move those weights
    # or the brackets by ulps
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


def complete_fan(indptr, indices):
    """|C| when the CSR pattern is that of all m-words over |C| letters that
    may all follow each other (row a*R + r holds the columns r*|C| + b), and
    0 otherwise."""
    n = len(indptr) - 1
    fan = len(indices) // n
    if len(indices) != n * fan or n % fan:
        return 0
    want = (np.arange(n) % (n // fan) * fan)[:, None] + np.arange(fan)
    return fan if np.array_equal(indices, want.ravel()) else 0


def reference_cw_bracket(cls, logw):
    """Cold Collatz-Wielandt bracket of one sliced class from its
    log-weights logw, in the order of cls's entries: vanished entries
    dropped, scales from zero, rebuilt from COO, iterated from v = 1.  The
    iteration runs on B/theta when the sliced pattern has period 1 and no
    entry is 0 or underflows once scaled, and on I + B/theta otherwise.  A
    complete class of more than one block over pressure._STACK_FAN or more
    letters multiplies by its stacked blocks, any other by scipy's CSR
    matvec."""
    nstates, row, col, indptr, indices = cls
    keep = logw > -np.inf
    row, col, logw = row[keep], col[keep], logw[keep]
    if logw.size == 0:
        return 0.0, 0.0, False
    d = reference_equilibrate_scales(nstates, row, col, logw)
    data = np.exp(logw + d[col] - d[row])
    if not np.isfinite(data).all():
        data = np.exp(logw)
    theta = float(data.max())
    primitive = (keep.all() and (data / theta > 0.0).all()
                 and pattern_period(indptr, indices) == 1)
    scaled = sp.csr_matrix((data / theta, (row, col)), shape=(nstates, nstates))
    fan = complete_fan(indptr, indices)
    stacked = fan >= pressure._STACK_FAN and nstates > fan
    matvec = stacked_matvec(scaled, fan) if stacked else scaled.dot
    v = np.ones(nstates)
    best_lo, best_hi, stalled = 0.0, math.inf, True
    for _ in range(CW_MAX_ITER):
        w = matvec(v) if primitive else matvec(v) + v
        ratios = w / v
        best_lo = max(best_lo, float(ratios.min()))
        best_hi = min(best_hi, float(ratios.max()))
        if best_hi - best_lo <= CW_TOL:
            stalled = False
            break
        v = np.maximum(w / w.max(), 1e-300)
    shift = 0.0 if primitive else 1.0
    lo = max(best_lo - shift, 0.0) * theta
    hi = max(best_hi - shift, 0.0) * theta
    return min(lo, hi), hi, stalled


def as_csr(weights, s):
    """The scipy CSR matrix of a CsrWeights record's ranges raised to s,
    each as x**s rounds."""
    return sp.csr_matrix((np.float_power(weights.ranges, s), weights.indices,
                          weights.indptr), shape=weights.shape)


def dense_log_radius(nstates, row, col, logw):
    """log rho of a class with log-weights logw on the entries row -> col
    from numpy's dense eigenvalues, after conjugating it by max-plus scales
    so that LAPACK sees entries of one size; the conjugation rounds each
    entry by 1 ulp, which moves rho by as little."""
    keep = logw > -np.inf
    row, col, logw = row[keep], col[keep], logw[keep]
    if not keep.any():
        return -math.inf
    d = reference_equilibrate_scales(nstates, row, col, logw)
    dense = np.zeros((nstates, nstates))
    dense[row, col] = np.exp(logw + d[col] - d[row] - logw.max())
    return math.log(np.abs(np.linalg.eigvals(dense)).max()) + logw.max()


def log_weights(ranges, s):
    """The log-weights s * log(range) the spectral layer forms, 0 at s = 0."""
    if not s:
        return np.zeros(len(ranges))
    with np.errstate(divide="ignore"):
        return s * np.log(ranges)


def reference_spectral(system, potential, k, m):
    """The route the per-class plans replaced: a state-level search for the
    classes, then every class sliced out of the full pattern at each
    exponent and bracketed cold, with scipy's slicing and matvec.  A matrix
    of entry numbers, sliced as the weights were, tells which of the
    geometry's ranges each class entry holds, and the log-weights are
    formed from those as the spectral layer forms them.  Each class is
    named by the letters its states start with, in enumeration order, and
    also carries, per side, its size, entries and log-weights."""
    geom = build_weighted_matrix(system, potential, k, m).geometry
    nnz, nstates = len(geom.indices), len(geom.words)
    numbers = sp.csr_matrix((np.arange(1.0, nnz + 1.0), geom.indices, geom.indptr),
                            shape=(nstates, nstates))
    succ = [geom.indices[a:b].tolist() for a, b in zip(geom.indptr, geom.indptr[1:])]
    dec = strongly_connected_components(succ)
    position = {e: i for i, e in enumerate(system.letters(k))}
    lower = upper = -math.inf
    stalled = False
    comps = []
    for cls, trivial in zip(dec.classes, dec.trivial):
        if trivial:
            continue
        idx = np.array(cls, dtype=int)
        sliced = numbers[idx][:, idx]
        coo = sliced.tocoo()
        entries = coo.data.astype(np.intp) - 1
        pattern = (len(idx), coo.row, coo.col, sliced.indptr, sliced.indices)
        logs = [log_weights(ranges[entries], potential.s)
                for ranges in (geom.lower, geom.upper)]
        lo, _, st_a = reference_cw_bracket(pattern, logs[0])
        _, hi, st_b = reference_cw_bracket(pattern, logs[1])
        c_lower = math.log(lo) if lo > 0.0 else -math.inf
        c_upper = math.log(hi) if hi > 0.0 else -math.inf
        first = tuple(sorted({geom.states[i][0] for i in cls}, key=position.__getitem__))
        comps.append((first, c_lower, c_upper,
                      [(len(idx), coo.row, coo.col, logw) for logw in logs]))
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


def moved_class_holds(bracket, reference, mats, slack, where):
    """A class bracket off the reference's bits: it must meet the
    reference's, be wider by at most slack, and hold the dense radius of
    each side, to the 1e-12 relative that LAPACK and the unrounded
    Collatz-Wielandt bounds leave.  Returns how much wider it is."""
    (lo, hi), (rlo, rhi) = bracket, reference
    assert max(lo, rlo) <= min(hi, rhi), where
    assert hi - lo <= rhi - rlo + slack, where
    dense = [dense_log_radius(*mats[0])]
    same = np.array_equal(mats[0][3], mats[1][3])
    dense.append(dense[0] if same else dense_log_radius(*mats[1]))
    assert lo - 1e-12 <= dense[0] and dense[1] <= hi + 1e-12, (where, dense)
    return (hi - lo) - (rhi - rlo)


def test_cold_spectral_matches_slicing_reference_bitwise(monkeypatch):
    # with the chain elimination off, every class of fan 0 runs the
    # reference's cold iteration and keeps its bits.  A complete class runs
    # without the reference's scales, so it moves off them: its bracket may
    # be wider by at most 4 * CW_TOL, where the iteration stops inside
    # CW_TOL
    monkeypatch.setattr(chains, "HUB_MAX", 0)
    complete = 0
    for make, k, m, pot in slicing_cases():
        est = pressure_spectral(make(), pot, k, m)
        plans = build_weighted_matrix(make(), pot, k, m).geometry.classes
        _, _, stalled, comps = reference_spectral(make(), pot, k, m)
        where = (make, k, m, pot.s)
        assert est.stalled == stalled, where
        assert len(est.components) == len(comps) == len(plans), where
        for plan, (cls, lo, hi), (rcls, rlo, rhi, mats) in zip(
                plans, est.components, comps):
            assert cls == rcls, where
            if plan.fan:
                complete += 1
                moved_class_holds((lo, hi), (rlo, rhi), mats, 4 * CW_TOL, where)
            else:
                assert (_bits(lo), _bits(hi)) == (_bits(rlo), _bits(rhi)), where
        assert est.lower == max(lo for _, lo, _ in est.components), where
        assert est.upper == max(hi for _, _, hi in est.components), where
    assert complete > 0


def test_chain_start_meets_slicing_reference_and_dense_radius():
    # a class that starts from its chain elimination (the ladder's, and
    # the dag's cycles) moves off the reference bits, and must be no wider
    # than the reference's; a complete class, which runs without scales,
    # may be wider by at most 4 * CW_TOL (see moved_class_holds).  Every
    # other class keeps its bits
    routes = 0
    for make, k, m, pot in slicing_cases():
        est = pressure_spectral(make(), pot, k, m)
        plans = build_weighted_matrix(make(), pot, k, m).geometry.classes
        _, _, stalled, comps = reference_spectral(make(), pot, k, m)
        where = (make, k, m, pot.s)
        assert est.stalled == stalled, where
        assert len(est.components) == len(comps) == len(plans), where
        for plan, (cls, lo, hi), (rcls, rlo, rhi, mats) in zip(
                plans, est.components, comps):
            assert cls == rcls, where
            if plan.chains is not None:
                routes += 1
                moved_class_holds((lo, hi), (rlo, rhi), mats, 0.0, where)
            elif plan.fan:
                moved_class_holds((lo, hi), (rlo, rhi), mats, 4 * CW_TOL, where)
            else:
                assert (_bits(lo), _bits(hi)) == (_bits(rlo), _bits(rhi)), where
        assert est.lower == max(lo for _, lo, _ in est.components), where
        assert est.upper == max(hi for _, _, hi in est.components), where
    assert routes > 0


def test_warm_probes_agree_with_cold_ones(monkeypatch):
    # only the CF class, which runs unscaled, starts warm; the ladder's
    # class runs scaled, from its chain elimination or, with that off, from
    # a scale search, and either start reads no warm state, so its probes
    # repeat cold ones bit for bit
    sequence = (2.0, 0.0, 1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.671875)
    cases = ((lambda: cf_system(letters=(1, 2)), (2, 10), (2, 9), 0, True),
             (ladder_system, (512, 1), (256, 1), 0, False),
             (ladder_system, (512, 1), (256, 1), chains.HUB_MAX, False))
    for make, (k, m), (k2, m2), hub_max, unscaled in cases:
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
        assert differs == unscaled, make
        # a new horizon or depth is a new geometry, and its first probe cold
        fresh = pressure_spectral(make(), PotentialSpec(sequence[-1]), k2, m2)
        assert (_bits(moved.lower), _bits(moved.upper)) == (
            _bits(fresh.lower), _bits(fresh.upper))
        assert [(_bits(lo), _bits(hi)) for _, lo, hi in moved.components] == [
            (_bits(lo), _bits(hi)) for _, lo, hi in fresh.components]


def test_a_scaled_probe_keeps_no_state(monkeypatch):
    # with its chain elimination off, the ladder's class searches its
    # scales at every probe: a second probe on the same geometry repeats a
    # fresh one bit for bit, and neither leaves a warm state behind
    monkeypatch.setattr(chains, "HUB_MAX", 0)
    sys = ladder_system()
    with _reuse_geometry():
        pressure_spectral(sys, PotentialSpec(0.5), 512, 1)
        again = pressure_spectral(sys, PotentialSpec(0.75), 512, 1)
        plans = build_weighted_matrix(sys, PotentialSpec(0.75), 512, 1).geometry.classes
    fresh = pressure_spectral(ladder_system(), PotentialSpec(0.75), 512, 1)
    assert (_bits(again.lower), _bits(again.upper)) == (_bits(fresh.lower), _bits(fresh.upper))
    assert plans and all(plan.fan == 0 and plan.warm == [None, None] for plan in plans)


def one_side_matvec(plan, data):
    """v -> B v for one side's class entries data, in plan order, each in
    the form pressure._class_matvec gives that class, on one side alone."""
    n, c = plan.size, plan.fan
    if not c:
        return lambda v: np.bincount(plan.row, weights=data * v[plan.col], minlength=n)
    r = n // c
    if pressure._stacked(c, n):
        blocks = data.reshape(r, c, c)
        return lambda v: np.matmul(blocks, v.reshape(r, c, 1)).reshape(r, c).T.ravel()
    weights = data.reshape(c, c, r)
    return lambda v: np.add.reduce(weights * v.reshape(r, c).T[:, None, :], axis=0).ravel()


# np.exp overflows above this (see pressure._cw_start)
LOG_MAX = math.log(sys.float_info.max)

def reference_cw_side(plan, side, s):
    """One side's Collatz-Wielandt bracket (lo, hi, stalled, iterations,
    scale) at exponent s, from a loop of its own: the reference for
    pressure._cw_bracket, which iterates both sides in one loop and must
    keep each side's bits, count and stored iterate.  It takes the same
    route, theta, shift, start and stop test, and reads and writes
    plan.warm[side] as the joint loop does."""
    # a plan with one row of logs has it for both sides
    logs = plan.logs[min(side, len(plan.logs) - 1)]
    logw = logs * s if s else np.zeros(len(logs))
    top = float(logw.max())
    if top == -np.inf:
        return 0.0, 0.0, False, 0, 0.0
    relative = bool(plan.fan) and plan.depth * (top - logw.min()) <= pressure._UNSCALED_SPREAD
    if relative:
        warm = plan.warm[side]
        if warm is not None and warm[0] > 0.0:
            s_prev, v = warm
            v = np.maximum(np.exp(np.log(v) * (s / s_prev)), 1e-300)
        else:
            v = np.ones(plan.size)
        data = np.exp(logw - top)
        log_theta, size = top, max(top, -float(logw.min()))
        theta = float(np.exp(top)) if top <= LOG_MAX else math.inf
    else:
        d = None
        if plan.chains is not None:
            d = chains.perron_log(plan.chains, plan.row, logw)
        if d is None:
            d = reference_equilibrate_scales(plan.size, plan.row, plan.col, logw)
        v = np.ones(plan.size)
        scaled = logw + d[plan.col] - d[plan.row]
        log_theta = float(scaled.max())
        theta = float(np.exp(scaled).max()) if log_theta <= LOG_MAX else math.inf
        normal = sys.float_info.min <= theta < math.inf
        data = np.exp(scaled) / theta if normal else np.exp(scaled - log_theta)
        size = float(np.abs(scaled[np.isfinite(scaled)]).max() + 2.0 * np.abs(d).max())
    factors, scale = (theta, theta), 0.0
    if not sys.float_info.min <= theta < math.inf:
        # theta leaves the normal range: the bracket is carried in logs,
        # padded by pressure._LOG_PAD of the largest log formed
        pad = pressure._LOG_PAD * size
        factors, scale = (math.exp(-pad), math.exp(pad)), log_theta
    shift = 1.0 if plan.period != 1 or not data.min() > 0.0 else 0.0
    matvec = one_side_matvec(plan, data)
    best_lo, best_hi, stalled = 0.0, math.inf, True
    for iterations in range(1, pressure.CW_MAX_ITER + 1):
        w = matvec(v) + v if shift else matvec(v)
        ratios = w / v
        best_lo = max(best_lo, float(ratios.min()))
        best_hi = min(best_hi, float(ratios.max()))
        gap = best_hi - best_lo
        if gap <= CW_TOL and (not relative or gap <= CW_TOL * best_lo):
            stalled = False
            break
        v = np.maximum(w / w.max(), 1e-300)
    if relative:
        plan.warm[side] = (s, v)
    lo = max(best_lo - shift, 0.0) * factors[0]
    hi = max(best_hi - shift, 0.0) * factors[1]
    return min(lo, hi), hi, stalled, iterations, scale


def side_bits(result):
    lo, hi, stalled, iterations, scale = result
    return _bits(lo), _bits(hi), stalled, iterations, _bits(scale)


def warm_bits(plans):
    """Each plan's stored iterates, per side: None or (s, bytes of v)."""
    return [[None if w is None else (_bits(w[0]), w[1].tobytes()) for w in plan.warm]
            for plan in plans]


def two_side_spectral(system, potential, k, m):
    """Per class of the depth-m geometry: its letters and, per side, the
    one-side reference's (lo, hi, stalled, iterations) in bits, on the
    geometry's own plans and warm starts; then the stored iterates."""
    plans = build_weighted_matrix(system, potential, k, m).geometry.classes
    comps = [(plan.letters, [side_bits(reference_cw_side(plan, side, potential.s))
                             for side in (0, 1)]) for plan in plans]
    return comps, warm_bits(plans)


def joint_spectral(system, potential, k, m, monkeypatch):
    """What pressure_spectral gives and what its _cw_bracket calls return:
    the estimate, then per class its letters, per side (lo, hi, stalled,
    iterations) in bits and whether its plan holds one array of logs for
    both sides, then the stored iterates."""
    calls = []
    inner = pressure._cw_bracket
    with monkeypatch.context() as patch:
        patch.setattr(pressure, "_cw_bracket",
                      lambda plan, s: calls.append(inner(plan, s)) or calls[-1])
        est = pressure_spectral(system, potential, k, m)
    plans = build_weighted_matrix(system, potential, k, m).geometry.classes
    comps = [(plan.letters, [side_bits(r) for r in out], len(plan.logs) == 1)
             for plan, out in zip(plans, calls, strict=True)]
    return est, comps, warm_bits(plans)


def assert_joint_loop_keeps_one_side_bits(make, k, depths, sequence, monkeypatch,
                                          warm=True):
    """Probe each exponent of sequence at each depth in depths, in that
    order, with pressure_spectral and with the one-side reference, each on
    its own system: within one solve when warm, so that unscaled sides
    start from the previous probe's iterate and a deeper geometry from the
    shallower one's, and else on a fresh system per probe.  Every class's
    per-side brackets, stall flags and iteration counts, the components and
    stored iterates must match the reference bit for bit.  A plan with one
    array of logs runs one side, which must match both reference sides."""
    probes = [(m, s) for m in depths for s in sequence]
    sys, ref = make(), make()
    with _reuse_geometry():
        got = [joint_spectral(sys if warm else make(), PotentialSpec(s), k, m, monkeypatch)
               for m, s in probes]
    with _reuse_geometry():
        want = [two_side_spectral(ref if warm else make(), PotentialSpec(s), k, m)
                for m, s in probes]
    for (m, s), (est, comps, warms), (rcomps, rwarms) in zip(probes, got, want):
        where = (make, k, m, s, warm)
        assert len(comps) == len(rcomps) == len(est.components), where
        one = [shares for _, _, shares in comps]
        for (cls, sides, shares), (rcls, rsides), (ecls, lo, hi) in zip(
                comps, rcomps, est.components):
            assert cls == rcls == ecls, where
            assert sides == (rsides[:1] if shares else rsides), where
            if shares:
                assert rsides[1] == rsides[0], where
            for x, end, side in ((lo, 0, rsides[0]), (hi, 1, rsides[1])):
                ref_bracket = float.fromhex(side[end])
                want = math.log(ref_bracket) if ref_bracket > 0.0 else -math.inf
                assert _bits(x) == _bits(want + float.fromhex(side[4])), where
        assert est.stalled == any(side[2] for _, rsides in rcomps for side in rsides), where
        for ws, rws, shares in zip(warms, rwarms, one):
            assert ws[0] == rws[0], where
            assert ws[1] == (None if shares else rws[1]), where


def test_shared_side_matches_two_side_calls_bitwise(monkeypatch):
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
            assert_joint_loop_keeps_one_side_bits(make, k, (m,), sequence, monkeypatch,
                                                  warm)
    cf = build_weighted_matrix(cf_system(letters=(1, 2)), PotentialSpec(0.5), 2, 3)
    assert cf.sup_weights is not cf.inf_weights


@pytest.mark.parametrize("case", ["cf-pair", "gaussian-4", "planted", "ladder", "ladder-scan"])
def test_joint_loop_keeps_each_sides_bits(case, monkeypatch):
    # both sides of a class iterate as the rows of one array, and each side
    # keeps the bracket, stall flag, count and iterate that a loop of its
    # own gives: on the multiply-reduce (the CF pair, every depth, warm
    # and lifted), on the stacked np.matmul (36 letters at depth 2), with
    # one side scaled and shifted and the other not (the planted letters,
    # on a cut budget that stalls the scaled side), and on one array with
    # chains and with a scale search (the ladder)
    sequence = (2.0, 0.0, 1.0, 0.5, 0.75, 0.5625, 0.53125)
    if case == "cf-pair":
        args = (lambda: cf_system(letters=(1, 2)), 2, range(1, 12), sequence)
    elif case == "gaussian-4":
        args = (lambda: cf_system(gaussian_alphabet(4)), 36, (2,), (2.0, 0.0, 1.75, 1.5))
    elif case == "planted":
        monkeypatch.setattr(pressure, "CW_MAX_ITER", 10)
        args = (lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=0.0), 3, (2,), sequence)
    else:
        if case == "ladder-scan":
            monkeypatch.setattr(chains, "HUB_MAX", 0)
        args = (ladder_system, 512, (1,), sequence)
    assert_joint_loop_keeps_one_side_bits(*args, monkeypatch)


def test_joint_loop_keeps_each_sides_bits_on_mixed_routes():
    # a stand-in complete class over three letters at depth 2 whose inf
    # ranges hold zeros and whose sup ranges are positive: the inf side runs
    # scaled and shifted, with the absolute stop test, and the sup side
    # unscaled and unshifted, with the relative one, so the two stop apart.
    # With every inf range 0 the inf side gives (0, 0) at s > 0, and the
    # sup side runs alone
    rng = np.random.default_rng(11)
    n, letters = 9, 3
    indices = ((np.arange(n) % 3 * letters)[:, None] + np.arange(letters)).ravel()
    indptr = np.arange(0, len(indices) + 1, letters)
    upper = np.exp(rng.uniform(-3.0, 0.0, len(indices)))
    lowers = (np.where(np.arange(len(indices)) % 4 == 1, 0.0, 0.5 * upper),
              np.zeros(len(indices)))
    routes = set()
    for lower in lowers:
        geom = SimpleNamespace(indices=indices.astype(np.int32),
                               indptr=indptr.astype(np.int32), lower=lower, upper=upper)
        plan, ref = (pressure._class_plan(geom, (0, 1, 2), np.arange(n), 1)
                     for _ in range(2))
        assert plan.fan == letters and len(plan.logs) == 2
        for s in (2.0, 0.0, 1.0, 0.5, 0.75, 0.625):
            got = _cw_bracket(plan, s)
            want = [reference_cw_side(ref, side, s) for side in (0, 1)]
            assert [side_bits(r) for r in got] == [side_bits(r) for r in want], (s, got)
            assert warm_bits([plan]) == warm_bits([ref]), s
            routes.add(tuple(r[3] for r in got))
    # the sides stopped apart, and a vanished side took no step
    assert any(a and b and a != b for a, b in routes)
    assert any(a == 0 < b for a, b in routes)


def state_graph(adj, words):
    """Successor lists of the word states, straight from the definition:
    u -> w when w continues u by one letter."""
    index = {tuple(w): i for i, w in enumerate(words.tolist())}
    succ = []
    for u in words.tolist():
        row = [index.get(tuple(u[1:]) + (c,)) for c in np.flatnonzero(adj[u[-1]]).tolist()]
        succ.append(sorted(j for j in row if j is not None))
    return succ


def test_derived_state_classes_match_state_search():
    # Tarjan on the state graph is the reference.  Both orders are
    # dependency orders, but classes no path joins may come out in either
    # order, so only such ties can move which class a bracket names as its
    # component; the order is therefore checked against reachability
    rng = np.random.default_rng(20261018)
    cases = several = 0
    for _ in range(3800):
        initial, terminal = random_multigraph(rng, 7, 7)
        m = int(rng.integers(1, 5))
        words = word_level(initial, terminal, m)
        if not len(words):
            continue
        cases += 1
        classes = pressure._letter_classes(Incidence(initial, terminal), len(initial))
        derived = _cycling_classes(words, classes)
        states = state_graph(letter_adjacency(initial, terminal), words)
        dec = strongly_connected_components(states)
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
                for j in states[stack.pop()]:
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
    inf_d = as_csr(wm.inf_weights, 1.0).toarray()
    sup_d = as_csr(wm.sup_weights, 1.0).toarray()
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


def test_plan_periods_match_the_sliced_class_matrices():
    # each plan's period, read off its letter class, against scipy's period
    # of the class matrix sliced out of the state matrix.  The dag's cycles
    # of 2 and 3 letters are periodic at every depth: they keep the shift,
    # close, and hold the geometric mean of their ratios
    cases = [(lambda: cf_system(letters=(1, 2)), 2, range(1, 6)),
             (lambda: cf_system(gaussian_alphabet(2)), 64, (1, 2)),
             (ladder_system, 64, (1, 2)),
             (ladder_system, 512, (1,)),
             (lambda: ladder_truncation(12), 12, (1, 2)),
             (lambda: moran_system([1 / 3, 1 / 3]), 2, (1, 2, 3)),
             (affine_demo, 3, (1, 2, 3)),
             (lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=0.5), 3, (1, 2))]
    cases += [(lambda seed=seed: dag_of_cycles(seed)[0], 64, (1, 2, 3))
              for seed in range(5)]
    periods = set()
    for make, k, depths in cases:
        for m in depths:
            wm = build_weighted_matrix(make(), PotentialSpec(1.0), k, m)
            geom = wm.geometry
            sliced = as_csr(wm.inf_weights, 1.0)
            classes = _cycling_classes(geom.words, geom.letter_classes)
            for plan, (_, idx) in zip(geom.classes, classes, strict=True):
                mat = sliced[idx][:, idx]
                want = pattern_period(mat.indptr, mat.indices)
                assert plan.period == want, (make, k, m, plan.letters)
                periods.add(plan.period)
    assert periods == {1, 2, 3}
    periodic = 0
    for seed in range(5):
        sys, ratios, groups = dag_of_cycles(seed)
        for m in (1, 2, 3):
            pot = PotentialSpec(1.0)
            est = pressure_spectral(sys, pot, 64, m)
            plans = build_weighted_matrix(sys, pot, 64, m).geometry.classes
            assert not est.stalled
            for plan, (cls, lo, hi), grp in zip(plans, est.components, groups,
                                                strict=True):
                assert plan.period == len(grp)
                periodic += plan.period > 1
                log_mean = sum(math.log(ratios[e]) for e in grp) / len(grp)
                assert lo - 1e-12 <= log_mean <= hi + 1e-12, (seed, m, cls)
    assert periodic > 0


def test_planted_constant_letters_run_shifted(monkeypatch):
    # at eps = 0 the planted letters of perturbed_cf have derivative 0, so
    # at s > 0 every entry out of a state that starts with one weighs 0:
    # the class has period 1, yet runs shifted, bit for bit as the same
    # class given period 2 runs.  Such a class is reducible at this s, and
    # its iteration stalls; the budget is cut to 10 steps, too few for an
    # unshifted run to reach the shifted run's bits by converging (at 200
    # it can)
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 10)
    sys = perturbed_cf((1, 2), (1, 2, 3), epsilon=0.0)
    wm = build_weighted_matrix(sys, PotentialSpec(0.5), 3, 2)
    geom = wm.geometry
    ((letters, idx),) = _cycling_classes(geom.words, geom.letter_classes)
    (plan,) = geom.classes
    assert plan.period == 1
    assert (geom.lower[plan.positions] == 0.0).any()
    shifted = pressure._class_plan(geom, letters, idx, 2)
    got, want = _cw_bracket(plan, 0.5), _cw_bracket(shifted, 0.5)
    assert [side_bits(r) for r in got] == [side_bits(r) for r in want]


@pytest.mark.parametrize("s", [4.5, 6.0])
def test_ladder_class_closes_where_its_spine_weights_underflow(s):
    # at these exponents the deep spine weights 2**(-v*s) underflow float64
    # (2**-1156 at v = 257), which left the class reducible and stalled its
    # iteration for CW_MAX_ITER steps with lower = -inf; their logs do not
    # underflow.  Every cycle of the truncation returns to vertex 1 along
    # one spine: the loop (1, 1), and for n = 2..256 the path (1, n), (n,
    # n - 1), ..., (2, 1), which weighs 2**(-s*n(n+1)/2) over n letters
    # ((1, 257), the 512th letter, leads nowhere), so log rho is the root p
    # of sum_n 2**(-s*n(n+1)/2) * exp(-n*p) = 1, found here with mpmath at
    # 50 digits
    sys = ladder_system()
    assert sys.letters(512)[-1] == (1, 257)
    est = pressure_spectral(sys, PotentialSpec(s), 512, 1)
    assert not est.stalled
    assert est.lower > -math.inf
    with mpmath.workdps(50):
        loops = [-mpmath.mpf(s) * n * (n + 1) / 2 * mpmath.log(2)
                 for n in range(1, 257)]
        log_rho = mpmath.findroot(
            lambda p: mpmath.fsum(mpmath.exp(g - n * p)
                                  for n, g in enumerate(loops, 1)) - 1,
            loops[0])
        assert est.lower <= log_rho <= est.upper, (est.lower, log_rho, est.upper)


def test_every_admissible_entry_weighs_one_at_exponent_zero():
    # at eps = 0 the planted letters have derivative 0, so some ranges are
    # exactly 0 and their logs -inf; at s = 0 every entry still weighs 1,
    # as 0.0**0.0 == 1, with no 0 * -inf turning into NaN: the class of all
    # 2-words over three letters that may all follow each other has rho = 3
    sys = perturbed_cf((1, 2), (1, 2, 3), epsilon=0.0)
    geom = build_weighted_matrix(sys, PotentialSpec(0.0), 3, 2).geometry
    assert (geom.lower == 0.0).any()
    est = pressure_spectral(sys, PotentialSpec(0.0), 3, 2)
    assert est.lower == est.upper == 1.0986122886681098 == math.log(3)
    assert not est.stalled
    assert not any(math.isnan(x) for _, lo, hi in est.components for x in (lo, hi))


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


def test_full_entry_is_stalled_when_a_stage_stalled(monkeypatch):
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 2)
    cf = cf_system(letters=(1, 2))
    assert pressure_spectral(cf, PotentialSpec(0.5), 2, 3).stalled
    ests = truncation_ladder(cf, PotentialSpec(0.5), [2], depth=3)
    assert [e.stalled for e in ests] == [True, True]
    assert ests[-1].scope == "full"


def test_truncation_ladder_rejects_bad_horizons():
    sys = two_loop()
    with pytest.raises(ValueError):
        truncation_ladder(sys, PotentialSpec(1.0), [])
    with pytest.raises(ValueError):
        truncation_ladder(sys, PotentialSpec(1.0), [4, 2])
