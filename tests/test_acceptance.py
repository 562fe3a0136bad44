"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line (visible with -s or on failure) and
asserts the stated tolerance. Frozen closed-form values:

  two-loop ladder subsystem dimension   0.5514630897455955
  golden pair {1/2, 1/4}                0.6942419136306174
  middle-third Cantor {1/3, 1/3}        0.6309297535714574
  CF fixed point of word 1,1,1,...      (sqrt(5)-1)/2
  CF fixed point of word 2,2,2,...      sqrt(2)-1
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from gifsdim import pressure
from gifsdim.dimension import bowen_dimension, lower_estimate
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import Similarity
from gifsdim.perturb import (
    affine_family,
    cf_family,
    degeneracy_divergence_probe,
    dimension_sweep,
)
from gifsdim.pressure import PotentialSpec, pressure_spectral, truncation_ladder
from gifsdim.render import coding_map, generate_point_cloud
from gifsdim.scenarios import (
    cf_system,
    gaussian_alphabet,
    ladder_system,
    ladder_truncation,
    moran_system,
    perturbed_cf,
)
from gifsdim.shapes import Ball
from gifsdim.systems import (
    ContractionBound,
    GifsSystem,
    SeedSet,
    finite_tail,
    reduce_to_simple,
    translate_word,
)

from convergence import coding_gap, full_bracket, lemma_bound

GOLDEN = 0.6942419136306174
CANTOR = 0.6309297535714574


def moran_root(ratios):
    return brentq(
        lambda s: sum(r ** s for r in ratios) - 1.0, 0.0, 1.0, xtol=1e-14
    )


def test_c01_two_loop_anchor():
    t0 = time.perf_counter()
    res = bowen_dimension(ladder_truncation(2), s_tol=1e-5)
    elapsed = time.perf_counter() - t0
    root = brentq(lambda s: 0.5 ** s + 0.125 ** s - 1.0, 0.1, 1.0, xtol=1e-14)
    width = res.s_upper - res.s_lower
    mid = 0.5 * (res.s_lower + res.s_upper)
    assert res.s_lower <= root <= res.s_upper
    assert width <= 5e-4
    assert abs(mid - 0.5514) <= 5e-4
    assert elapsed <= 5.0
    print(
        f"c01 PASS two-loop bracket [{res.s_lower:.7f}, {res.s_upper:.7f}]"
        f" width {width:.2e}, mid-0.5514 = {mid - 0.5514:+.2e}, {elapsed:.2f}s"
    )


def test_c02_moran_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6281)
    cases = []
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ratios = []
        budget = 0.95
        for i in range(n):
            top = min(0.6, budget - 0.05 * (n - i - 1))
            r = float(rng.uniform(0.05, top)) if top > 0.05 else 0.05
            ratios.append(r)
            budget -= r
        cases.append(ratios)
    cases.append([0.5, 0.25])
    cases.append([1.0 / 3.0, 1.0 / 3.0])
    worst = 0.0
    for ratios in cases:
        res = bowen_dimension(moran_system(ratios), s_tol=2.5e-7)
        width = res.s_upper - res.s_lower
        worst = max(worst, width)
        root = moran_root(ratios)
        assert res.s_lower - 1e-12 <= root <= res.s_upper + 1e-12
        assert width <= 1e-6
    golden = bowen_dimension(moran_system([0.5, 0.25]), s_tol=2.5e-7)
    golden_mid = 0.5 * (golden.s_lower + golden.s_upper)
    elapsed = time.perf_counter() - t0
    assert abs(golden_mid - GOLDEN) <= 1e-6
    assert abs(moran_root([1.0 / 3.0, 1.0 / 3.0]) - CANTOR) <= 1e-12
    assert elapsed <= 10.0
    print(
        f"c02 PASS 12 Moran systems, widest bracket {worst:.2e},"
        f" golden mid err {golden_mid - GOLDEN:+.2e}, {elapsed:.2f}s"
    )


def _dag_of_cycles(rng):
    """Random weighted system whose letter digraph is a DAG of cycles."""
    total = int(rng.integers(3, 9))
    blocks = []
    v = 0
    while v < total:
        size = int(rng.integers(1, min(3, total - v) + 1))
        blocks.append(list(range(v, v + size)))
        v += size
    edges = []
    for block in blocks:
        n = len(block)
        for i in range(n):
            edges.append((block[i], block[(i + 1) % n]))
        if n >= 3 and rng.random() < 0.5:
            chord = (block[int(rng.integers(0, n))], block[int(rng.integers(0, n))])
            if chord not in edges:
                edges.append(chord)
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            if rng.random() < 0.6:
                e = (int(rng.choice(blocks[a])), int(rng.choice(blocks[b])))
                if e not in edges:
                    edges.append(e)
    ratios = {e: float(rng.uniform(0.15, 0.85)) for e in edges}
    graph = DirectedMultigraph(
        vertices=Enumeration(items=tuple(range(total))),
        edges=Enumeration(items=tuple(edges)),
        initial=lambda e: e[0],
        terminal=lambda e: e[1],
        simple=None,
    )
    seeds = {
        u: SeedSet(u, Ball((0.5,), 0.5), Ball((0.5,), 0.75)) for u in range(total)
    }
    maps = {e: Similarity(r, (0.0,)) for e, r in ratios.items()}
    peak = max(ratios.values())
    sysm = GifsSystem(
        graph, seeds, maps, 1,
        contraction=ContractionBound(1, peak, peak, 1.0),
        tail=finite_tail("edge"),
        name=f"dag-{total}",
    )
    return sysm, ratios


def test_c03_scc_max_matches_dense_spectrum(monkeypatch):
    monkeypatch.setattr(pressure, "CW_TOL", 1e-12)
    rng = np.random.default_rng(40123)
    for trial in range(5):
        sysm, ratios = _dag_of_cycles(rng)
        s = float(rng.uniform(0.4, 2.0))
        letters = list(sysm.letters(100))
        idx = {e: i for i, e in enumerate(letters)}
        dense = np.zeros((len(letters), len(letters)))
        for a in letters:
            for b in letters:
                if a[1] == b[0]:
                    dense[idx[a], idx[b]] = ratios[b] ** s
        rho = max(abs(np.linalg.eigvals(dense)))
        assert rho > 0.0
        est = pressure_spectral(sysm, PotentialSpec(s), 100, m=1)
        width = est.upper - est.lower
        assert width <= 1e-8
        assert est.lower - 1e-9 <= math.log(rho) <= est.upper + 1e-9
    print("c03 PASS scc-max matched dense spectral oracle on 5 random DAGs")


def test_c04_truncation_ladder_monotone():
    triples = 0
    violations = 0
    plans = [
        (ladder_system(), (0.35, 0.5514630897455955, 0.75), (3, 6, 10, 15)),
        (cf_system(), (1.2, 1.5, 2.0), (5, 10, 20, 40)),
    ]
    for sysm, svals, horizons in plans:
        for s in svals:
            ests = truncation_ladder(sysm, PotentialSpec(s), list(horizons))
            trunc = [e for e in ests if e.scope != "full"]
            assert len(trunc) == len(horizons)
            triples += len(trunc)
            for a, b in zip(trunc, trunc[1:]):
                if b.lower < a.lower:
                    violations += 1
            full = ests[-1]
            if math.isfinite(full.lower):
                assert full.lower >= trunc[-1].lower
    assert triples >= 20
    assert violations == 0
    print(f"c04 PASS {triples} (system, s, horizon) triples, 0 violations")


def test_c05_perturbed_pressure_converges():
    family = cf_family((1, 2))
    rows = [full_bracket(family.base, 1.5, 2)]
    rows += [full_bracket(family.builder(2.0 ** -j), 1.5, 2) for j in range(2, 8)]
    assert len(rows) == 7
    mids = [0.5 * (lo + hi) for lo, hi in rows]
    widths = [hi - lo for lo, hi in rows]
    gaps = [abs(mid - mids[0]) for mid in mids[1:]]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-15
    assert gaps[-1] < gaps[0]
    assert gaps[-1] <= widths[0] + widths[-1]
    print(
        f"c05 PASS pressure gap {gaps[0]:.2e} -> {gaps[-1]:.2e}"
        f" over eps = 2^-2 .. 2^-7"
    )


def test_c06_dimension_sweeps_converge():
    def check(records):
        base = records[0]
        base_mid = 0.5 * (base.s_lower + base.s_upper)
        base_w = base.s_upper - base.s_lower
        rows = records[1:]
        gaps = [abs(0.5 * (r.s_lower + r.s_upper) - base_mid) for r in rows]
        widths = [r.s_upper - r.s_lower for r in rows]
        for i in range(len(gaps) - 1):
            slack = 0.5 * (widths[i] + widths[i + 1]) + base_w
            assert gaps[i + 1] <= gaps[i] + slack
        assert all(r.status == "ok" for r in records)
        return gaps

    schedule = [2.0 ** -j for j in range(2, 8)]
    t0 = time.perf_counter()
    affine = dimension_sweep(affine_family(), schedule, s_tol=1e-5)
    t_affine = time.perf_counter() - t0
    gaps_a = check(affine)
    assert t_affine <= 120.0

    t0 = time.perf_counter()
    cf = dimension_sweep(cf_family((1, 2), (1, 2, 3)), schedule, s_tol=1e-5)
    t_cf = time.perf_counter() - t0
    gaps_c = check(cf)
    assert t_cf <= 120.0
    print(
        f"c06 PASS affine gap {gaps_a[0]:.2e}->{gaps_a[-1]:.2e} ({t_affine:.1f}s),"
        f" cf gap {gaps_c[0]:.2e}->{gaps_c[-1]:.2e} ({t_cf:.1f}s)"
    )


def test_c07_degeneracy_divergence_witness():
    base = bowen_dimension(cf_system((1, 2)), s_tol=1e-4)
    assert base.s_upper < 1.0
    family = cf_family((1, 2))
    for eps in (0.5, 0.25, 0.125, 0.0625):
        report = degeneracy_divergence_probe(family, 0.99, (5, 10, 20), eps)
        assert report.verdict == "diverges"
        assert report.implied_lower_bound == 0.99
    print(
        f"c07 PASS base bracket [{base.s_lower:.4f}, {base.s_upper:.4f}] < 1,"
        f" divergence certified at s=0.99 for 4 epsilons"
    )


def test_c08_coding_map_suite():
    sysm = cf_system((1, 2))
    one, two = sysm.letters(2)
    for letter, target in ((one, (math.sqrt(5) - 1) / 2), (two, math.sqrt(2) - 1)):
        pt, _ = coding_map(sysm, (letter,) * 25)
        assert abs(pt[0] - target) <= 1e-6
        assert abs(pt[1]) <= 1e-6

    full = cf_system((1, 2, 3))
    abc = list(full.letters(3))
    wrng = np.random.default_rng(4021)
    sample = [
        tuple(abc[i] for i in wrng.integers(0, 3, size=12)) for _ in range(200)
    ]
    pert = perturbed_cf((1, 2), (1, 2, 3), 0.25)
    observed = coding_gap(full, pert, sample)
    bound = lemma_bound(full, pert, pert.letters(64))
    assert observed <= bound

    pairs = cf_system(tuple(gaussian_alphabet(2)))
    letters = list(pairs.letters(100))
    cb = pairs.contraction
    c_cp = cb.comparison * 1.5
    rng = np.random.default_rng(77)
    for _ in range(1000):
        j = int(rng.integers(2, 13))
        prefix = tuple(letters[i] for i in rng.integers(0, len(letters), size=j))
        a, b = rng.choice(len(letters), size=2, replace=False)
        t1 = tuple(letters[i] for i in rng.integers(0, len(letters), size=19 - j))
        t2 = tuple(letters[i] for i in rng.integers(0, len(letters), size=19 - j))
        p1, r1 = coding_map(pairs, prefix + (letters[a],) + t1)
        p2, r2 = coding_map(pairs, prefix + (letters[b],) + t2)
        assert math.dist(p1, p2) <= c_cp * cb.effective_rate ** (j - 2) + r1 + r2
    print(
        f"c08 PASS fixed points to 1e-6, gap {observed:.2e} <="
        f" {bound:.2e} on 200 words, 1000 word pairs Lipschitz"
    )


def _parallel_pair_system():
    ini = {"p": 1, "q": 1, "r": 2}
    ter = {"p": 2, "q": 2, "r": 1}
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(1, 2)),
        edges=Enumeration(items=("p", "q", "r")),
        initial=ini.__getitem__,
        terminal=ter.__getitem__,
        simple=False,
    )
    seeds = {v: SeedSet(v, Ball((0.5,), 0.5), Ball((0.5,), 0.75)) for v in (1, 2)}
    maps = {
        "p": Similarity(0.3, (0.0,)),
        "q": Similarity(0.2, (0.8,)),
        "r": Similarity(0.5, (0.25,)),
    }
    return GifsSystem(
        graph, seeds, maps, 1,
        contraction=ContractionBound(1, 0.5, 0.5, 1.0),
        tail=finite_tail("edge"),
        name="parallel-pair",
    )


def test_c09_reduction_preserves_points():
    systems = (
        moran_system([0.5, 0.25], name="golden"),
        moran_system([1.0 / 3.0, 1.0 / 3.0], offsets=[0.0, 2.0 / 3.0], name="cantor"),
        _parallel_pair_system(),
    )
    checked = 0
    for sysm in systems:
        red = reduce_to_simple(sysm)
        cloud = generate_point_cloud(sysm, depth=4, horizon=10)
        assert len(cloud) >= 8
        for pt, _, word in cloud.points:
            rword, push = translate_word(word, sysm)
            anchor = sysm.seed(sysm.graph.terminal(word[-1])).seed.center
            rpt, _ = coding_map(red, rword, anchor=push(anchor))
            assert math.dist(rpt, pt) <= 1e-9
            checked += 1
    print(f"c09 PASS {checked} sampled points preserved across 3 reductions")


def test_c10_lattice_truncation_ladder():
    sysm = cf_system(tuple(gaussian_alphabet(10)))
    assert len(sysm.letters(10 ** 6)) == 210
    horizons = (10, 40, 100, 210)
    bounds = []
    for h in horizons:
        res = lower_estimate(sysm, horizon=h, s_tol=1e-4)
        bounds.append(res.s_lower)
    for a, b in zip(bounds, bounds[1:]):
        assert b >= a
    assert bounds[-1] > 1.0
    summary = ", ".join(f"{h}:{b:.4f}" for h, b in zip(horizons, bounds))
    print(
        f"c10 PASS lattice |m|,|n|<=10 certified lower-bound ladder {summary};"
        f" achieved dim >= {bounds[-1]:.4f} (no fixed target)"
    )
