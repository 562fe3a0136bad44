"""Perturbation family tests.

Frozen oracles:
  * degenerate continued-fraction branch at letter 3, eps = 0.1: the
    denominator disk is centered at 3.5 with radius 0.05, so the derivative
    sup is exactly 0.1/3.45**2.
  * the eps -> 0 limit point of that branch is 1/3.5 = (0.2857142857..., 0).
  * half-lattice branch sums at exponent 0.9 grow with the horizon
    (divergent lattice series), at 1.5 they settle (convergent); the affine
    family's single extra loop is trivially summable.
"""

import math

import pytest

from gifsdim.dimension import bowen_dimension
from gifsdim.errors import ConditionViolation
from gifsdim.maps import MoebiusCF
from gifsdim.perturb import (
    PerturbationFamily,
    SweepRecord,
    affine_family,
    cf_family,
    degeneracy_divergence_probe,
    dimension_sweep,
    sweep_csv,
)
from gifsdim.scenarios import cf_system, moran_system, perturbed_cf
from gifsdim.systems import validate_conditions

from convergence import full_bracket


def degenerate_deviation(family, epsilon, horizon=8):
    """Largest distance from a degenerate branch image to its eps -> 0
    limit point 1/(e + 1/2), read off the certified image enclosures."""
    sysm = family.builder(epsilon)
    worst = 0.0
    for e in family.degenerate_letters(horizon):
        encl = sysm.seed_image(e)
        z = 1.0 / (complex(e) + 0.5)
        gap = math.dist(encl.center, (z.real, z.imag)) + 0.5 * encl.diameter
        worst = max(worst, gap)
    return worst


def shared_derivative_gap(family, epsilon, horizon=64):
    """Largest endpoint move of a kept letter's derivative range at eps."""
    sysm = family.builder(epsilon)
    worst = 0.0
    for e in family.base.letters(horizon):
        a = family.base.letter_range(e)
        b = sysm.letter_range(e)
        worst = max(worst, abs(a.upper - b.upper), abs(a.lower - b.lower))
    return worst


# ---------------------------------------------------------------------------
# constructors


def test_build_perturbed_cf_degenerate_derivative():
    sysm = perturbed_cf((1, 2), (1, 2, 3), 0.1)
    one, two, three = sysm.letters(3)
    rng = sysm.letter_range(three)
    assert rng.upper == pytest.approx(0.1 / 3.45 ** 2, rel=1e-12)
    assert isinstance(sysm.map_of(one), MoebiusCF)
    assert sysm.map_of(two) == cf_system(letters=(1, 2)).map_of(two)


# ---------------------------------------------------------------------------
# family probes


def test_families_validate_below_epsilon0():
    for family in (cf_family((1, 2), (1, 2, 3)), affine_family()):
        top = family.epsilon0
        for eps in (0.01 * top, 0.25 * top, 0.5 * top, 0.75 * top, 0.99 * top):
            assert validate_conditions(family.builder(eps)).passed, (
                family.name, eps,
            )


def test_degenerate_images_shrink_to_limit_points():
    family = cf_family((1, 2), (1, 2, 3))
    three = family.degenerate_letters(4)[0]
    assert family.builder(0.0).map_of(three).target == pytest.approx((1 / 3.5, 0.0))
    schedule = [0.4, 0.2, 0.1, 0.05]
    devs = [degenerate_deviation(family, eps) for eps in schedule]
    assert all(b <= a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.005
    assert degenerate_deviation(family, 0.0) == 0.0


def test_degenerate_images_shrink_on_halflattice():
    family = cf_family((1, 2))
    devs = [degenerate_deviation(family, eps, horizon=3) for eps in (0.5, 0.25, 0.125)]
    assert all(b <= a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < devs[0]


def test_shared_edges_converge_back_to_base():
    cf = cf_family((1, 2), (1, 2, 3))
    assert shared_derivative_gap(cf, 0.5) == 0.0  # kept branches untouched
    afam = affine_family()
    assert shared_derivative_gap(afam, 0.2) == pytest.approx(0.01, rel=1e-12)
    gaps = [shared_derivative_gap(afam, eps) for eps in (0.4, 0.2, 0.1)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_pressure_brackets_converge_to_base():
    family = cf_family((1, 2), (1, 2, 3))
    epsilons = [2.0 ** -j for j in range(2, 8)]
    base = full_bracket(family.base, 1.5, 6)
    rows = [full_bracket(family.builder(eps), 1.5, 6) for eps in epsilons]

    def mid(row):
        return 0.5 * (row[0] + row[1])

    gaps = [abs(mid(r) - mid(base)) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= (rows[-1][1] - rows[-1][0]) + (base[1] - base[0])


# ---------------------------------------------------------------------------
# dimension sweep


def test_sweep_affine_midpoints_approach_base():
    records = dimension_sweep(affine_family(), [0.2, 0.1, 0.05, 0.025])
    assert [r.status for r in records] == ["ok"] * 5
    assert records[0].epsilon == 0.0
    base_mid = 0.5 * (records[0].base_lower + records[0].base_upper)
    gaps = [
        abs(0.5 * (r.s_lower + r.s_upper) - base_mid) for r in records[1:]
    ]
    slack = max(r.s_upper - r.s_lower for r in records) + 1e-9
    assert all(b <= a + slack for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]
    assert all(r.runtime > 0.0 for r in records)
    assert records[1].diagnostics["evals"] > 0


def test_sweep_trivial_family_matches_base_and_serializes():
    records = dimension_sweep(
        cf_family((1, 2), (1, 2)), [0.5, 0.25], s_tol=1e-4
    )
    for r in records:
        assert r.status == "ok"
        assert r.s_lower == records[0].s_lower
        assert r.s_upper == records[0].s_upper
    text = sweep_csv(records)
    lines = text.split("\r\n")
    assert lines[0] == "epsilon,s_lower,s_upper,base_lower,base_upper,status"
    assert len(lines) == 5 and lines[-1] == ""
    cells = lines[1].split(",")
    assert float(cells[1]) == records[0].s_lower  # repr round-trips


def test_sweep_matches_standalone_solve():
    family = affine_family()
    records = dimension_sweep(family, [0.1], s_tol=1e-5)
    solo = bowen_dimension(family.builder(0.1), s_tol=1e-5)
    assert records[1].s_lower == solo.s_lower
    assert records[1].s_upper == solo.s_upper


def test_sweep_records_per_row_errors():
    good = moran_system([0.5, 0.25])

    def flaky(eps):
        if eps > 0.1:
            raise ConditionViolation("demo failure")
        return moran_system([0.5, 0.25])

    family = PerturbationFamily(
        base=good,
        builder=flaky,
        degenerate_letters=lambda h: (),
        epsilon0=1.0,
        name="flaky",
    )
    records = dimension_sweep(family, [0.2, 0.05], s_tol=1e-6)
    assert records[1].status == "ConditionViolation"
    assert math.isnan(records[1].s_lower)
    assert records[2].status == "ok"
    assert records[2].s_lower == records[0].s_lower
    assert "nan" in sweep_csv(records)


def test_sweep_labels_unverified_hypothesis():
    # countable extension whose summability threshold (1.0) sits above the
    # base bracket: convergence of the sweep is only a hypothesis there
    family = PerturbationFamily(
        base=moran_system([0.5, 0.25]),
        builder=lambda eps: moran_system([0.5, 0.25]),
        degenerate_letters=lambda h: (),
        epsilon0=1.0,
        summable_above=1.0,
        infinite=True,
        name="threshold-above-base",
    )
    records = dimension_sweep(family, [0.5], s_tol=1e-4)
    assert records[0].status == "ok"
    assert records[1].status == "hypothesis-unverified"
    assert "hypothesis-unverified" in sweep_csv(records)


def test_sweep_record_rejects_crossed_bracket():
    with pytest.raises(ValueError):
        SweepRecord(0.1, 1.0, 0.5, 0.4, 0.6, "ok", 0.0)


def test_sweep_worker_pool_keeps_order():
    family = affine_family()
    serial = dimension_sweep(family, [0.2, 0.1], s_tol=1e-4)
    threaded = dimension_sweep(family, [0.2, 0.1], s_tol=1e-4, workers=2)
    assert [r.epsilon for r in threaded] == [r.epsilon for r in serial]
    assert [r.s_lower for r in threaded] == [r.s_lower for r in serial]


# ---------------------------------------------------------------------------
# divergence probe


def test_divergence_probe_halflattice_split():
    family = cf_family((1, 2))
    report = degeneracy_divergence_probe(family, 0.9, [5, 10, 20])
    assert report.verdict == "diverges"
    assert report.implied_lower_bound == 0.9
    assert all(b > a for a, b in zip(report.partial_sums, report.partial_sums[1:]))
    assert report.increments[1] >= report.increments[0] * 0.99
    assert report.growth_exponent > 0.0

    settled = degeneracy_divergence_probe(family, 1.5, [5, 10, 20])
    assert settled.verdict == "converges"
    assert settled.implied_lower_bound is None
    assert settled.increments[1] < settled.increments[0]
    assert settled.growth_exponent < report.growth_exponent


def test_divergence_probe_epsilon_only_scales():
    family = cf_family((1, 2))
    a = degeneracy_divergence_probe(family, 0.9, [5, 10, 20], epsilon=0.5)
    b = degeneracy_divergence_probe(family, 0.9, [5, 10, 20], epsilon=0.25)
    assert a.verdict == b.verdict == "diverges"
    assert a.partial_sums[-1] > b.partial_sums[-1]


def test_divergence_probe_finite_family_trivial():
    report = degeneracy_divergence_probe(
        cf_family((1, 2), (1, 2, 3)), 0.9, [5, 10, 20]
    )
    assert report.verdict == "converges"
    assert report.increments == (0.0, 0.0)
    rec = report.record()
    assert rec["verdict"] == "converges"
    assert rec["implied_lower_bound"] is None


def test_divergence_probe_argument_checks():
    family = cf_family((1, 2))
    with pytest.raises(ValueError):
        degeneracy_divergence_probe(family, -0.5, [5, 10])
    with pytest.raises(ValueError):
        degeneracy_divergence_probe(family, 0.9, [5, 5])
    short = degeneracy_divergence_probe(family, 0.9, [5, 10])
    assert short.verdict == "inconclusive"
