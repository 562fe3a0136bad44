"""The four solve workloads: inputs from a seed, the timed public calls, and
their correctness checks.

A workload's `run` is the timed region.  It returns a list of solve units,
one per public call, each with the bracket it produced; `check` turns that
list into one list of problems per unit, outside the timed region.  Seed 0
is the instance named in NOTES.md.
"""

import random
from dataclasses import dataclass

import checks


@dataclass
class Unit:
    """One public call's outcome.  s_tol is set for dimension solves only;
    their width counts toward bracket_width."""

    label: str
    s_lower: float
    s_upper: float
    s_tol: float = None
    data: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    params: object
    build: object
    run: object
    check: object
    estimates: object = None


# --- cf-deep ---------------------------------------------------------------


def _cf_deep_params(seed):
    """The same instance for every seed: {1, 2} is the alphabet with a
    published dimension, and another two-letter alphabet would change both
    the cost and the width of the solve."""
    return {"letters": (1, 2), "s_tol": 1e-5}


def _cf_deep_build(g, p):
    return g.cf_system(p["letters"])


def _cf_deep_run(api, system, p):
    res = api["bowen_dimension"](system, s_tol=p["s_tol"])
    return [Unit("cf-deep", res.s_lower, res.s_upper, p["s_tol"])]


def _cf_deep_check(units, p, estimates):
    (u,) = units
    return [checks.contains(u.label, u.s_lower, u.s_upper, checks.E12)]


# --- cf-wide ---------------------------------------------------------------

WIDE_LETTERS = 36
WIDE_CORE = 24


def _cf_wide_params(seed):
    """Seed 0: gaussian_alphabet(4).  Other seeds keep the 24 letters of
    gaussian_alphabet(5) nearest the origin (letter 1 among them) and draw
    the other 12 from its remaining 31."""
    return {"seed": seed, "s_tol": 1e-4}


def _wide_letters(g, seed):
    if seed == 0:
        return g.gaussian_alphabet(4)
    pool = g.gaussian_alphabet(5)
    drawn = random.Random(seed).sample(pool[WIDE_CORE:], WIDE_LETTERS - WIDE_CORE)
    return pool[:WIDE_CORE] + tuple(sorted(drawn, key=pool.index))


def _cf_wide_build(g, p):
    return g.cf_system(_wide_letters(g, p["seed"]))


def _cf_wide_run(api, system, p):
    res = api["bowen_dimension"](system, s_tol=p["s_tol"])
    return [Unit("cf-wide", res.s_lower, res.s_upper, p["s_tol"])]


def _cf_wide_estimates(g, system, p):
    """Certified one-sided bounds at the solve's own knobs."""
    lo = g.lower_estimate(system, s_tol=p["s_tol"])
    hi = g.upper_estimate(system, s_tol=p["s_tol"])
    return lo.s_lower, hi.s_upper


def _cf_wide_check(units, p, estimates):
    (u,) = units
    floor, ceiling = estimates
    return [checks.consistent(u.label, u.s_lower, u.s_upper, floor, ceiling)]


# --- countable -------------------------------------------------------------

LADDER_HORIZONS = (5, 10, 20, 40)


def _countable_params(seed):
    """Seed 0 probes the CF ladder at s = 1.25, 1.5, 1.75; other seeds draw
    three exponents from [1.1, 2.0], where the CF tail bound is finite."""
    if seed == 0:
        exponents = (1.25, 1.5, 1.75)
    else:
        rng = random.Random(seed)
        exponents = tuple(sorted(round(rng.uniform(1.1, 2.0), 4) for _ in range(3)))
    return {"exponents": exponents, "s_tol": 1e-3}


def _countable_build(g, p):
    return g.ladder_system(), g.cf_system()


def _countable_run(api, systems, p):
    ladder, cf_full = systems
    res = api["bowen_dimension"](ladder, s_tol=p["s_tol"])
    units = [Unit("ladder", res.s_lower, res.s_upper, p["s_tol"])]
    for s in p["exponents"]:
        ests = api["truncation_ladder"](cf_full, api["PotentialSpec"](s),
                                        list(LADDER_HORIZONS))
        last = ests[-1]
        units.append(Unit(f"cf-ladder(s={s})", last.lower, last.upper,
                          data=[(e.lower, e.upper) for e in ests]))
    return units


def _countable_check(units, p, estimates):
    ladder, *ladders = units
    out = [checks.consistent(ladder.label, ladder.s_lower, ladder.s_upper,
                             checks.LADDER_FLOOR, checks.LADDER_CEILING)]
    joint = checks.ladder_consistent(
        "cf-ladder", {s: u.data for s, u in zip(p["exponents"], ladders)})
    out += [list(joint) for _ in ladders]
    return out


# --- sweep -----------------------------------------------------------------

SWEEP_EPSILONS = (2.0 ** -2, 2.0 ** -3, 2.0 ** -4)


def _sweep_params(seed):
    """The same instance for every seed: a row's cost depends on how deep its
    refinement goes, which changes by up to 10x between neighbouring eps, so
    a drawn schedule would move solve_s by more than any bound.  The rows are
    distinct systems, each built fresh, so their order changes nothing."""
    return {"epsilons": SWEEP_EPSILONS, "s_tol": 1e-4}


def _sweep_build(g, p):
    return g.cf_family((1, 2), (1, 2, 3))


def _sweep_run(api, family, p):
    records = api["dimension_sweep"](family, list(p["epsilons"]), workers=1,
                                     s_tol=p["s_tol"])
    return [Unit(f"row(eps={r.epsilon:g})", r.s_lower, r.s_upper, p["s_tol"],
                 data=r.status) for r in records]


def _sweep_check(units, p, estimates):
    eps = (0.0,) + p["epsilons"]
    return checks.sweep_rows(
        [(e, u.s_lower, u.s_upper, u.data) for e, u in zip(eps, units)])


WORKLOADS = {
    "cf-deep": Workload("cf-deep", _cf_deep_params, _cf_deep_build,
                        _cf_deep_run, _cf_deep_check),
    "cf-wide": Workload("cf-wide", _cf_wide_params, _cf_wide_build,
                        _cf_wide_run, _cf_wide_check, _cf_wide_estimates),
    "countable": Workload("countable", _countable_params, _countable_build,
                          _countable_run, _countable_check),
    "sweep": Workload("sweep", _sweep_params, _sweep_build, _sweep_run,
                      _sweep_check),
}
