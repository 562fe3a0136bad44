"""Families of eps-indexed systems with degenerating branches.

A family keeps a base system fixed and attaches extra branches whose
derivative scale is proportional to eps, so letting eps drop to 0 collapses
each extra branch image to a single point while the kept branches converge
back to the base maps.

Experiments on top of a family:

  * dimension_sweep solves builder(eps) for each eps and records the bracket
    next to the base bracket.  Per-row solver failures become a status string
    in the row instead of an exception, and the rows serialize to CSV.
  * degeneracy_divergence_probe sums the degenerate-branch derivative sups
    raised to a fixed exponent over a growing horizon ladder.  Growing
    increments are the divergence signature of the underlying infinite sum;
    divergence at exponent s forces the perturbed pressure to +inf there for
    every positive eps, hence a dimension lower bound of s per eps.  The
    report states that implication next to the raw evidence and never turns
    it into a solved bracket.

How fast builder(eps) approaches the base is read off the public calls
directly: seed_image and letter_range for the branches, truncation_ladder
for the pressure, coding_map for the limit set.
"""

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dimension import bowen_dimension
from .errors import GifsError
from .scenarios import (
    _canonical_letter,
    affine_demo,
    cf_system,
    gaussian_alphabet,
    perturbed_affine,
    perturbed_cf,
)
from .systems import GifsSystem

# relative slack when comparing consecutive ladder increments; lattice
# granularity makes annulus sums slightly noisy
_INC_SLACK = 0.01


@dataclass(frozen=True)
class PerturbationFamily:
    """Base system plus an eps-indexed builder for its extension.

    degenerate_letters(horizon) materializes the extension-only letters up
    to a lattice horizon (finite families ignore the horizon and return
    everything at once).  builder(eps) is expected to pass validation for
    every eps in (0, epsilon0).  summable_above is the declared infimum of
    exponents where the extension-wide sup-derivative sum converges
    uniformly in eps.
    """

    base: GifsSystem
    builder: object
    degenerate_letters: object
    epsilon0: float
    summable_above: float = 0.0
    infinite: bool = False
    name: str = "family"


def cf_family(sub_letters=(1, 2), full_letters=None):
    """Continued-fraction family: true branches on the kept letters, the
    degenerating branch z -> 1/(e + 1/2 + eps*(z - 1/2)) on the rest.

    full_letters=None extends over the whole Gaussian half-lattice; the
    extension-wide derivative sum then behaves like sum |e|^(-2s), summable
    exactly above s = 1.
    """
    sub = tuple(_canonical_letter(e) for e in sub_letters)
    sub_set = set(sub)
    infinite = full_letters is None
    if infinite:
        def degenerate(horizon):
            return tuple(
                e for e in gaussian_alphabet(horizon) if e not in sub_set
            )
    else:
        extras = tuple(
            e
            for e in (_canonical_letter(x) for x in full_letters)
            if e not in sub_set
        )

        def degenerate(horizon):
            return extras

    return PerturbationFamily(
        base=cf_system(letters=sub),
        builder=lambda eps: perturbed_cf(sub, full_letters, eps),
        degenerate_letters=degenerate,
        epsilon0=1.0,
        summable_above=1.0 if infinite else 0.0,
        infinite=infinite,
        name="cf-family" if infinite else f"cf-family({len(sub_set)}+{len(extras)})",
    )


def affine_family():
    """Two-vertex affine demo plus one loop that degenerates to (3.3, 0).

    The loop maps the vertex-2 seed B((4, 0), 1) onto B((3.3, 0), 0.1*eps),
    which stays inside that seed for every eps in perturbed_affine's domain
    [0, 1].
    """
    return PerturbationFamily(
        base=affine_demo(),
        builder=perturbed_affine,
        degenerate_letters=lambda horizon: ((2, 2),),
        epsilon0=1.0,
        name="affine-family",
    )


# ---------------------------------------------------------------------------
# dimension sweep


@dataclass(frozen=True)
class SweepRecord:
    epsilon: float
    s_lower: float
    s_upper: float
    base_lower: float
    base_upper: float
    status: str
    runtime: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.s_lower > self.s_upper + 1e-12:  # nan-safe: nan compares False
            raise ValueError(
                f"crossed bracket [{self.s_lower}, {self.s_upper}]"
            )


def _diagnostics(result):
    diag = {"evals": result.evals, "scope": result.scope}
    for attr in ("pressure_at_lower", "pressure_at_upper"):
        est = getattr(result, attr)
        if est is not None:
            diag[attr] = (est.lower, est.upper)
    return diag


def dimension_sweep(family, epsilons, workers=1, **options):
    """One dimension solve per eps, plus the base solve as row 0.

    Base-system failures propagate (a family whose base does not solve has
    no limit to converge to); per-eps failures become the row's status with
    a nan bracket.  Keyword options go straight to bowen_dimension, so a
    sweep row and a standalone solve of builder(eps) with the same options
    agree bitwise.  Rows come back in schedule order regardless of workers.
    """
    schedule = [float(e) for e in epsilons]
    t0 = time.perf_counter()
    base = bowen_dimension(family.base, **options)
    base_rt = time.perf_counter() - t0
    records = [
        SweepRecord(
            0.0, base.s_lower, base.s_upper, base.s_lower, base.s_upper,
            "ok", base_rt, _diagnostics(base),
        )
    ]
    # the convergence theorems need the base dimension inside the declared
    # summable range; horizon evidence cannot settle that for a countable
    # extension whose threshold sits at or above the base bracket
    verified = (not family.infinite) or base.s_lower > family.summable_above
    ok_status = "ok" if verified else "hypothesis-unverified"

    def one(epsilon):
        eps = float(epsilon)
        start = time.perf_counter()
        try:
            result = bowen_dimension(family.builder(eps), **options)
        except GifsError as err:
            return SweepRecord(
                eps, math.nan, math.nan, base.s_lower, base.s_upper,
                type(err).__name__, time.perf_counter() - start,
            )
        return SweepRecord(
            eps, result.s_lower, result.s_upper, base.s_lower, base.s_upper,
            ok_status, time.perf_counter() - start, _diagnostics(result),
        )

    if workers > 1 and len(schedule) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records.extend(pool.map(one, schedule))
    else:
        records.extend(one(eps) for eps in schedule)
    return records


def sweep_csv(records):
    """RFC-4180 text for a list of sweep records (header plus one row each)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["epsilon", "s_lower", "s_upper", "base_lower", "base_upper", "status"]
    )
    for r in records:
        writer.writerow(
            [
                repr(float(r.epsilon)),
                repr(float(r.s_lower)),
                repr(float(r.s_upper)),
                repr(float(r.base_lower)),
                repr(float(r.base_upper)),
                r.status,
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# divergence probe


@dataclass(frozen=True)
class DivergenceReport:
    s: float
    epsilon: float
    horizons: tuple
    partial_sums: tuple
    increments: tuple
    growth_exponent: float
    verdict: str
    implied_lower_bound: object = None
    implication: str = ""

    def record(self):
        return {
            "s": self.s,
            "epsilon": self.epsilon,
            "horizons": list(self.horizons),
            "partial_sums": list(self.partial_sums),
            "increments": list(self.increments),
            "growth_exponent": self.growth_exponent,
            "verdict": self.verdict,
            "implied_lower_bound": self.implied_lower_bound,
            "implication": self.implication,
        }


def degeneracy_divergence_probe(family, s, horizons, epsilon=None):
    """Partial sums of degenerate-branch derivative sups raised to s.

    Growing ladder increments mean the annulus mass keeps increasing, the
    signature of a divergent lattice sum; decaying increments mean a
    convergent tail.  The eps choice only scales every sum by eps**s, so
    the verdict speaks for every eps in (0, epsilon0).
    """
    s = float(s)
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"exponent must be finite and nonnegative, got {s!r}")
    hs = [int(h) for h in horizons]
    if not hs or hs[0] < 1 or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError(f"horizons must be positive and increasing: {hs}")
    eps = 0.5 * family.epsilon0 if epsilon is None else float(epsilon)
    sysm = family.builder(eps)
    sums = []
    for h in hs:
        letters = family.degenerate_letters(h)
        sums.append(float(sum(sysm.letter_range(e).upper ** s for e in letters)))
    inc = tuple(b - a for a, b in zip(sums, sums[1:]))

    if all(x > 0.0 for x in sums) and len(hs) > 1:
        slope = float(np.polyfit(np.log(hs), np.log(sums), 1)[0])
    else:
        slope = 0.0

    if not family.infinite:
        verdict = "converges"
    elif len(inc) < 2 or inc[-1] <= 0.0:
        verdict = "inconclusive"
    elif all(b >= a * (1.0 - _INC_SLACK) for a, b in zip(inc, inc[1:])):
        verdict = "diverges"
    elif all(b <= a for a, b in zip(inc, inc[1:])):
        verdict = "converges"
    else:
        verdict = "inconclusive"

    if verdict == "diverges":
        implied = s
        implication = (
            "branch sums keep growing, so the perturbed pressure at this "
            "exponent is infinite for every eps in (0, {:g}); each perturbed "
            "dimension is then at least {:g}".format(family.epsilon0, s)
        )
    elif verdict == "converges":
        implied = None
        implication = (
            "branch sums are summable at this exponent; no dimension bound "
            "follows"
        )
    else:
        implied = None
        implication = "ladder too short to call a trend"
    return DivergenceReport(
        s, eps, tuple(hs), tuple(sums), inc, slope, verdict, implied,
        implication,
    )
