"""Certified Hausdorff-dimension brackets from the zero of the pressure.

The working convention is dim = inf{s >= 0 : P(s) <= 0}.  Pressure is
nonincreasing in s (derivative sups never exceed 1 on the working domains),
so a certified pressure lower bound >= 0 at s keeps the dimension at or
above s, and a certified upper bound <= 0 pulls it to s or below.  For
countable alphabets the lower side uses truncated pressures (a truncation's
pressure never exceeds the full one) and the upper side uses tail-corrected
full bounds, so both endpoints stay certified without materializing the
whole alphabet.  Below the witness's declared divergence exponent the
level-1 sums are provably infinite, hence so is the pressure, which makes
that exponent a certified dimension floor under the same convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExhausted,
    ConditionViolation,
    DomainViolation,
    IrregularSystem,
    MixedFamily,
    NoAdmissibleWords,
    SummabilityWitnessMissing,
)
from .graphs import strongly_connected_components
from .pressure import PotentialSpec, _reuse_geometry, truncation_ladder
from .systems import (
    check_separation,
    subsystem,
    summability_interval,
    validate_conditions,
)

__all__ = [
    "DimensionResult",
    "bowen_dimension",
    "upper_estimate",
    "lower_estimate",
    "dimension_per_component",
]

FINITE_S_TOL = 1e-6
INFINITE_S_TOL = 1e-3
DEFAULT_STATE_CAP = 20000
DEFAULT_HORIZON = 64
DEFAULT_HORIZON_CAP = 512
DEFAULT_MAX_EVALS = 200


@dataclass(frozen=True)
class DimensionResult:
    """Certified dimension bracket with solve diagnostics.

    theta is the summability-threshold bracket that was consulted (zero
    width for finite alphabets).  pressure_at_lower / pressure_at_upper are
    the estimates that certified the endpoints (None when an endpoint came
    from a declared floor rather than a pressure sign).  conditions carries
    (check, status) provenance pairs.  summability_part is the threshold
    term that competed inside an upper estimate's max; root_bracket the raw
    pressure-root bracket before that max.  stop_reason (bowen_dimension
    only, and left out of record()) names why refinement ended: "tolerance",
    "state_cap", "depth_limit", "stuck", "budget" or "empty".
    """

    s_lower: float
    s_upper: float
    theta: tuple = (0.0, 0.0)
    scope: str = "truncated"
    pressure_at_lower: object = None
    pressure_at_upper: object = None
    component: object = None
    conditions: tuple = ()
    summability_part: float = 0.0
    root_bracket: object = None
    evals: int = 0
    stop_reason: str = None

    def __post_init__(self):
        if self.s_lower > self.s_upper + 1e-12:
            raise ValueError(
                f"dimension bracket crossed: {self.s_lower} > {self.s_upper}"
            )

    @property
    def width(self):
        return self.s_upper - self.s_lower

    @property
    def midpoint(self):
        return 0.5 * (self.s_lower + self.s_upper)

    def record(self):
        rec = {
            "s_lower": self.s_lower,
            "s_upper": self.s_upper,
            "theta": [self.theta[0], self.theta[1]],
            "scope": self.scope,
        }
        if self.component is not None:
            rec["component"] = [repr(x) for x in self.component]
        if self.conditions:
            rec["conditions"] = {name: status for name, status in self.conditions}
        if self.root_bracket is not None:
            rec["root_bracket"] = list(self.root_bracket)
            rec["summability_part"] = self.summability_part
        rec["evals"] = self.evals
        return rec


def _count_words(system, letters, length, cap):
    """Admissible word count at this length, clipped just past cap."""
    g = system.graph
    verts = {}
    for e in letters:
        for v in (g.initial(e), g.terminal(e)):
            verts.setdefault(v, len(verts))
    ini = np.array([verts[g.initial(e)] for e in letters], dtype=int)
    ter = np.array([verts[g.terminal(e)] for e in letters], dtype=int)
    x = np.ones(len(letters))
    for _ in range(length - 1):
        sums = np.zeros(len(verts))
        np.add.at(sums, ini, x)
        x = sums[ter]
        total = float(x.sum())
        if total > cap or total == 0.0:
            return total
    return float(x.sum())


class _PressureProbe:
    """Pressure brackets at adjustable horizon/depth, with refinement.

    Refinement order: widen the alphabet horizon first (countable systems
    only; finite alphabets saturate immediately), then deepen the word
    states while the admissible-word count stays within state_cap.
    """

    def __init__(self, system, scope, conorm, epsilon, horizon, depth,
                 horizon_cap, state_cap):
        self.system = system
        self.scope = scope
        self.conorm = conorm
        self.epsilon = epsilon
        self.k = horizon
        self.m = depth
        self.horizon_cap = horizon_cap
        self.state_cap = state_cap
        self.evals = 0
        self.limit = None

    def bracket(self, s):
        self.evals += 1
        pot = PotentialSpec(s, conorm=self.conorm, epsilon=self.epsilon)
        ests = truncation_ladder(self.system, pot, [self.k], depth=self.m)
        return ests[-1] if self.scope == "full" else ests[0]

    def refine(self):
        if not self.system.is_finite and self.k < self.horizon_cap:
            self.k = min(2 * self.k, self.horizon_cap)
            return True
        if self.m >= 24:
            # enclosure radii contract geometrically per level; past this
            # depth the weights stop moving in float64
            self.limit = "depth_limit"
            return False
        letters = self.system.letters(self.k)
        if _count_words(self.system, letters, self.m + 1, self.state_cap) <= self.state_cap:
            self.m += 1
            return True
        self.limit = "state_cap"
        return False


def _gather_conditions(system, horizon):
    """Cheap provenance pass: which hypotheses are certified at this scale."""
    entries = []
    k = min(horizon, 256)
    report = validate_conditions(system, horizon_vertices=32, horizon_edges=k)
    entries.append(("validation", "passed" if report.passed else "violated"))
    sep = check_separation(system, mode="SSC", horizon_edges=k)
    entries.append(("separation", sep.verdict))
    try:
        system.distortion()
        entries.append(("conformal-family", "certified"))
    except (MixedFamily, ConditionViolation, DomainViolation, ValueError):
        entries.append(("conformal-family", "unavailable"))
    if system.is_finite:
        entries.append(("summability", "finite-alphabet"))
    elif system.tail is not None:
        entries.append(("summability", "witness-declared"))
    else:
        entries.append(("summability", "missing"))
    if sep.verdict == "overlap-witness":
        raise ConditionViolation(
            "sibling seed images overlap; dimension brackets need separation",
            witness=sep.witness,
        )
    return tuple(entries)


def _resolve_defaults(system, scope, s_tol, horizon, s_max):
    if scope == "auto":
        scope = "truncated" if system.is_finite else "full"
    if s_tol is None:
        s_tol = FINITE_S_TOL if system.is_finite else INFINITE_S_TOL
    if horizon is None:
        if system.is_finite:
            horizon = max(1, len(system.letters(4096)))
        else:
            horizon = DEFAULT_HORIZON
    if s_max is None:
        s_max = system.ambient_dim + 1.0
    return scope, s_tol, horizon, s_max


def _divergence_floor(system, scope):
    if scope != "full" or system.is_finite or system.tail is None:
        return 0.0
    floor = system.tail.diverges_below
    return max(0.0, floor) if floor is not None else 0.0


@_reuse_geometry()
def bowen_dimension(system, s_tol=None, horizon=None, depth=1, s_max=None,
                    scope="auto", conorm=False, epsilon=None,
                    horizon_cap=DEFAULT_HORIZON_CAP,
                    state_cap=DEFAULT_STATE_CAP,
                    max_evals=DEFAULT_MAX_EVALS,
                    check_conditions=True):
    """Bisection for the pressure zero with certified endpoints.

    Keeps s_lower where the pressure is certifiably >= 0 (or at the
    declared divergence floor) and s_upper where it is certifiably <= 0.
    A midpoint whose bracket straddles zero triggers refinement (horizon,
    then depth); when refinement and tolerance are both exhausted the
    achieved bracket is returned as-is.  IrregularSystem when no certified
    sign change exists in [floor, s_max]; BudgetExhausted when the eval
    budget dies before both endpoints are certified.
    """
    scope, s_tol, horizon, s_max = _resolve_defaults(
        system, scope, s_tol, horizon, s_max
    )
    if scope == "full" and not system.is_finite and system.tail is None:
        raise SummabilityWitnessMissing(
            "full-system dimension needs a declared tail witness"
        )
    conditions = _gather_conditions(system, horizon) if check_conditions else ()
    if system.is_finite or scope == "truncated":
        theta = (0.0, 0.0)
    else:
        summ = summability_interval(system)
        theta = (summ.theta_low, summ.theta_high)
    probe = _PressureProbe(
        system, scope, conorm, epsilon, horizon, depth, horizon_cap, state_cap
    )
    floor = _divergence_floor(system, scope)

    def out_of_budget():
        return probe.evals >= max_evals

    # certify the ceiling: pressure upper <= 0 somewhere
    p_high = None
    try:
        est = probe.bracket(s_max)
    except NoAdmissibleWords:
        est = None
    while est is not None and est.upper > 0.0:
        if est.lower > 0.0:
            # certified positive at the scan ceiling: no zero in range
            raise IrregularSystem(
                f"pressure certified positive at s={s_max:.6g} "
                f"(bracket [{est.lower:.4g}, {est.upper:.4g}])"
            )
        if out_of_budget():
            raise BudgetExhausted(
                f"no certified ceiling within {max_evals} pressure evals "
                f"(upper {est.upper:.4g} at s={s_max:.6g})"
            )
        if not probe.refine():
            raise IrregularSystem(
                f"pressure stays above zero up to s={s_max:.6g} "
                f"(upper {est.upper:.4g}); no certified sign change"
            )
        est = probe.bracket(s_max)
    if est is None:
        # no admissible words at all: empty pressure, dimension collapses
        return DimensionResult(
            s_lower=floor, s_upper=floor, theta=theta, scope=scope,
            conditions=conditions, evals=probe.evals, stop_reason="empty",
        )
    s_hi, p_high = s_max, est

    s_lo = floor
    p_low = None
    est = probe.bracket(floor) if floor < s_hi else None
    if est is not None and est.upper <= 0.0:
        # the whole range is at or below zero: dimension sits at the floor
        return DimensionResult(
            s_lower=floor, s_upper=floor, theta=theta, scope=scope,
            pressure_at_upper=est, component=est.component,
            conditions=conditions, evals=probe.evals, stop_reason="tolerance",
        )
    if est is not None and est.lower >= 0.0:
        p_low = est

    straddle_width = None
    stuck = 0
    stop = None
    while s_hi - s_lo > s_tol and not out_of_budget():
        mid = 0.5 * (s_lo + s_hi)
        est = probe.bracket(mid)
        if est.lower >= 0.0:
            s_lo, p_low = mid, est
            straddle_width, stuck = None, 0
        elif est.upper <= 0.0:
            s_hi, p_high = mid, est
            straddle_width, stuck = None, 0
        else:
            # straddling zero: refine, but give up once refinement stops
            # buying width (the leftover gap is then a property of the
            # bounds, e.g. a declared tail upper vs truncated lowers)
            width = est.upper - est.lower
            if straddle_width is not None and not (width < 0.97 * straddle_width):
                stuck += 1
            else:
                stuck = 0
            straddle_width = width
            if stuck >= 3 or not probe.refine():
                stop = "stuck" if stuck >= 3 else probe.limit
                break
    if stop is None:
        stop = "tolerance" if s_hi - s_lo <= s_tol else "budget"

    if s_hi - s_lo > s_tol:
        # refinement is spent and the midpoint straddles: the leftover gap
        # belongs to the bounds themselves, not to the bisection.  Squeeze
        # each endpoint separately at the final knobs so the reported
        # bracket matches what the bounds can actually certify.
        lo_a, lo_b = s_lo, s_hi
        while lo_b - lo_a > s_tol and not out_of_budget():
            mid = 0.5 * (lo_a + lo_b)
            est = probe.bracket(mid)
            if est.lower >= 0.0:
                lo_a, p_low = mid, est
            else:
                lo_b = mid
        s_lo = lo_a
        hi_a, hi_b = s_lo, s_hi
        while hi_b - hi_a > s_tol and not out_of_budget():
            mid = 0.5 * (hi_a + hi_b)
            est = probe.bracket(mid)
            if est.upper <= 0.0:
                hi_b, p_high = mid, est
            else:
                hi_a = mid
        s_hi = hi_b
        if lo_b - lo_a > s_tol or hi_b - hi_a > s_tol:
            stop = "budget"

    component = None
    for src in (p_high, p_low):
        if src is not None and src.component is not None:
            component = src.component
            break
    return DimensionResult(
        s_lower=s_lo, s_upper=s_hi, theta=theta, scope=scope,
        pressure_at_lower=p_low, pressure_at_upper=p_high,
        component=component, conditions=conditions, evals=probe.evals,
        stop_reason=stop,
    )


def _boolean_bisect(above, floor, ceil, tol):
    """Threshold of a monotone predicate: above(s) true means the threshold
    lies above s.  Returns (lo, hi) with lo the last true point (or floor)
    and hi the first false point (or ceil when never false)."""
    if not above(floor):
        return floor, floor
    if above(ceil):
        return ceil, ceil
    lo, hi = floor, ceil
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@_reuse_geometry()
def upper_estimate(system, s_tol=None, horizon=None, depth=1, s_max=None,
                   scope="auto", epsilon=None, check_conditions=False):
    """Certified upper dimension estimate: the larger of the pressure-root
    threshold (where the computed sup-weight pressure upper crosses zero)
    and the summability threshold of per-vertex successor sups.

    The s_upper end is the certified bound; the s_lower end brackets the
    same computed quantity from below (useful for reporting, not itself a
    dimension bound).
    """
    scope, s_tol, horizon, s_max = _resolve_defaults(
        system, scope, s_tol, horizon, s_max
    )
    conditions = _gather_conditions(system, horizon) if check_conditions else ()
    probe = _PressureProbe(
        system, scope, False, epsilon, horizon, depth,
        DEFAULT_HORIZON_CAP, DEFAULT_STATE_CAP,
    )

    def above(s):
        try:
            return probe.bracket(s).upper > 0.0
        except NoAdmissibleWords:
            return False

    root_lo, root_hi = _boolean_bisect(above, 0.0, s_max, s_tol)

    summ = summability_interval(system, selector="norm")
    c_lo = summ.theta_low
    c_hi = summ.theta_high if math.isfinite(summ.theta_high) else summ.theta_low
    return DimensionResult(
        s_lower=max(root_lo, c_lo),
        s_upper=max(root_hi, c_hi),
        theta=(summ.theta_low, summ.theta_high),
        scope=scope,
        conditions=conditions,
        summability_part=c_hi,
        root_bracket=(root_lo, root_hi),
        evals=probe.evals,
    )


@_reuse_geometry()
def lower_estimate(system, s_tol=None, horizon=None, depth=1, s_max=None,
                   scope="auto", epsilon=None, check_conditions=False):
    """Certified lower dimension estimate from the conorm potential.

    Bisects the exponent where the certified pressure lower bound (smallest
    singular value weights) crosses zero; the s_lower end is a true
    dimension lower bound.  Systems with no returning words report zero.
    """
    scope, s_tol, horizon, s_max = _resolve_defaults(
        system, scope, s_tol, horizon, s_max
    )
    conditions = _gather_conditions(system, horizon) if check_conditions else ()
    probe = _PressureProbe(
        system, scope, True, epsilon, horizon, depth,
        DEFAULT_HORIZON_CAP, DEFAULT_STATE_CAP,
    )

    def above(s):
        try:
            return probe.bracket(s).lower >= 0.0
        except NoAdmissibleWords:
            return False

    lo, hi = _boolean_bisect(above, 0.0, s_max, s_tol)
    return DimensionResult(
        s_lower=lo, s_upper=hi, scope=scope,
        conditions=conditions, evals=probe.evals,
    )


def dimension_per_component(system, horizon=None, **opts):
    """bowen_dimension restricted to each nontrivial letter-level class.

    Returns {class: DimensionResult}; the global dimension is the interval
    max over the values (asserted against the unrestricted solve in tests).
    """
    if horizon is None:
        horizon = (
            len(system.letters(4096)) if system.is_finite else DEFAULT_HORIZON
        )
    letters = system.letters(horizon)
    from .pressure import _letter_transition

    fin = _letter_transition(system, letters)
    dec = strongly_connected_components(fin, fin.n)
    out = {}
    for cls, trivial in zip(dec.classes, dec.trivial):
        if trivial:
            continue
        sub = subsystem(system, edges=cls, name=f"{system.name}-cls")
        out[cls] = bowen_dimension(sub, check_conditions=False, **opts)
    return out
