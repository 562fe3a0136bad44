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

A pressure bracket says more than its sign.  P'(s) = -chi, the Lyapunov
exponent, and the state geometry bounds chi: every letter's derivative at
a point of the limit set lies in the range its geometry entry holds, so
with chi_min = -log(max upper) and chi_max = -log(min lower) over the
entries, a word of n letters has derivative in [exp(-n chi_max),
exp(-n chi_min)].  Raising its weight from the power s to t > s scales it
by a factor in [exp(-n chi_max (t-s)), exp(-n chi_min (t-s))]; summing
over words and taking (1/n) log,

    -chi_max (t - s) <= P(t) - P(s) <= -chi_min (t - s).

So a bracket [a, b] of P(s) puts the root in s + [a, b] / [chi_min,
chi_max] (interval division), whatever the bracket's sign, and a probe
beside the root pins it to within (b - a) / chi_min.  The solver uses this
mean-value bound, as McMullen (Amer. J. Math. 1998) and Jenkinson and
Pollicott (Adv. Math. 2018) do, with every operation that forms a bound
rounded outward.  chi_min needs every letter of the system, so for a
countable alphabet only the lower end steps (the truncation's root is at
most the full one); the upper end keeps the sign rule.
"""

import math
import sys
from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    ConditionViolation,
    CrossedBracket,
    IrregularSystem,
    NoAdmissibleWords,
    SummabilityWitnessMissing,
)
from .pressure import (
    PotentialSpec,
    _exhausts,
    _geometry,
    _letter_classes,
    _reuse_geometry,
    truncation_ladder,
)
from .systems import subsystem, summability_interval, validate_conditions

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
    width for finite alphabets).  scope is "truncated" when the system was
    finite at solve start and "full" otherwise.  pressure_at_lower / pressure_at_upper are
    the estimates that last moved the endpoints, by sign or by a
    mean-value step, so an estimate may sit at another s than its endpoint
    (None when an endpoint came from a declared floor).  conditions carries
    (check, status) provenance pairs.  summability_part is the threshold
    term that competed inside an upper estimate's max; root_bracket the raw
    pressure-root bracket before that max.  stop_reason (bowen_dimension
    only, and left out of record()) names why refinement ended: "tolerance",
    "state_cap", "depth_limit", "stuck", "budget" or "empty"; depth and
    horizon (bowen_dimension only, also left out) are the final m and k.
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
    depth: int = None
    horizon: int = None

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


def _lyapunov_range(geom):
    """(chi_min, chi_max) with every letter's derivative at a point of the
    limit set in [exp(-chi_max), exp(-chi_min)], read off the geometry's
    per-entry ranges and rounded outward.  chi_min is clamped at 0 (the
    pressure is taken nonincreasing, as the sign rule takes it), which
    leaves the enclosure ends that divide by it unbounded; chi_max is inf
    unless the smallest range lies in (0, 1).  A geometry with no entries
    bounds nothing."""
    top = float(geom.upper.max(initial=0.0))
    bottom = float(geom.lower.min(initial=math.inf))
    chi_min = 0.0
    if 0.0 < top < 1.0:
        chi_min = max(0.0, math.nextafter(-math.log(top), -math.inf))
    chi_max = math.inf
    if 0.0 < bottom < 1.0:
        chi_max = math.nextafter(-math.log(bottom), math.inf)
    return chi_min, chi_max


def _outward_step(s, p, chi, toward):
    """s + p / chi rounded toward `toward` (-inf for a lower root bound,
    +inf for an upper one): the quotient and the sum each move one ulp that
    way from their rounded value, so the result bounds the exact value.  A
    zero slope or an infinite pressure bound gives no bound, toward itself.
    """
    if chi == 0.0 or not math.isfinite(p):
        return toward
    q = math.nextafter(p / chi, toward)
    return math.nextafter(s + q, toward)


class _PressureProbe:
    """Pressure brackets at adjustable horizon/depth, with refinement.

    finite is whether the system was finite when the solve started.  A
    finite system's horizon takes every letter, so its brackets are the
    truncation's own (scope "truncated"); a countable system's are for the
    full system, the tail witness closing the upper side (scope "full").
    Refinement order: widen the alphabet horizon first (countable systems
    only; finite alphabets saturate immediately), then deepen the word
    states while the next depth's state count stays within state_cap.
    """

    def __init__(self, system, finite, horizon, depth, horizon_cap, state_cap):
        self.system = system
        self.finite = finite
        self.k = horizon
        self.m = depth
        self.horizon_cap = horizon_cap
        self.state_cap = state_cap
        self.evals = 0
        self.limit = None
        self._slopes = (None, None)

    @property
    def scope(self):
        return "truncated" if self.finite else "full"

    def bracket(self, s):
        self.evals += 1
        ests = truncation_ladder(self.system, PotentialSpec(s), [self.k], depth=self.m)
        return ests[0] if self.finite else ests[-1]

    def geometry(self):
        """The state geometry at the current horizon and depth: the one the
        last bracket was built on, so a solve builds it once."""
        return _geometry(self.system, self.system.letters(self.k), self.m)

    def slopes(self):
        """(chi_min, chi_max, whole) at the current horizon and depth: the
        Lyapunov range of the current geometry, and whether its truncation
        is the whole system the brackets' uppers are for."""
        key, value = self._slopes
        if key != (self.k, self.m):
            chi = _lyapunov_range(self.geometry())
            # the exhaustion test _full_upper applies to a full-scope upper
            whole = self.finite or _exhausts(self.system, self.k)
            value = (*chi, whole)
            self._slopes = ((self.k, self.m), value)
        return value

    def enclosure(self, s, est):
        """Certified root enclosure from the bracket est at s.

        The root lies in s + [est.lower, est.upper] / [chi_min, chi_max]
        (see the module docstring), each end rounded outward, and on the side a
        sign certifies, within s.  The upper end takes no step unless the
        geometry's truncation is the whole system.
        """
        chi_min, chi_max, whole = self.slopes()
        a, b = est.lower, est.upper
        lo = _outward_step(s, a, chi_min if a < 0.0 else chi_max, -math.inf)
        hi = math.inf
        if whole:
            hi = _outward_step(s, b, chi_min if b > 0.0 else chi_max, math.inf)
        if a >= 0.0:
            lo = max(lo, s)
        if b <= 0.0:
            hi = min(hi, s)
        return lo, hi

    def refine(self):
        if not self.system.is_finite and self.k < self.horizon_cap:
            self.k = min(2 * self.k, self.horizon_cap)
            return True
        if self.m >= 24:
            # enclosure radii contract geometrically per level; past this
            # depth the weights stop moving in float64
            self.limit = "depth_limit"
            return False
        # the depth-m transitions u -> w are exactly the admissible
        # (m+1)-letter words, the states of depth m + 1
        if len(self.geometry().indices) <= self.state_cap:
            self.m += 1
            return True
        self.limit = "state_cap"
        return False


class _RootBracket:
    """The running certified root bracket [lower, upper] of one solve, with
    the pressure estimates that last moved each end."""

    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper
        self.at_lower = None
        self.at_upper = None

    @property
    def width(self):
        return self.upper - self.lower

    def narrow(self, s, est, enclosure):
        """Intersect with the root enclosure est gave at s; an empty
        intersection raises CrossedBracket instead of being collapsed."""
        lo, hi = enclosure
        if lo > self.lower:
            self.lower, self.at_lower = lo, est
        if hi < self.upper:
            self.upper, self.at_upper = hi, est
        if self.lower > self.upper:
            raise CrossedBracket(
                s, est.lower, est.upper, self.lower, self.upper)


def _centre(est):
    return 0.5 * (est.lower + est.upper)


def _next_probe(root, trail, chi_min, chi_max):
    """Where to probe next: the Newton point of the last bracket's centre,
    clipped into the middle (1 - 2/16) of the running bracket.

    The slope is the secant through that centre and the one of the latest
    probe at another s when it is positive, else the middle of the
    geometry's Lyapunov range; with neither, or no finite centre, the probe
    bisects.  A heuristic only: every bound comes from the certified
    enclosures, wherever the probe is.
    """
    lo, hi = root.lower, root.upper
    t = 0.5 * (lo + hi)
    s, centre = trail[-1][0], _centre(trail[-1][1])
    if math.isfinite(centre):
        chi = 0.0
        prev = next((p for p in reversed(trail) if p[0] != s), None)
        if prev is not None and math.isfinite(_centre(prev[1])):
            chi = (_centre(prev[1]) - centre) / (s - prev[0])
        if not chi > 0.0 and math.isfinite(chi_max):
            chi = 0.5 * (chi_min + chi_max)
        if chi > 0.0:
            t = s + centre / min(max(chi, chi_min), chi_max)
    margin = (hi - lo) / 16.0
    return min(max(t, lo + margin), hi - margin)


def _squeeze_point(lo, hi, seen, side, tol):
    """Next probe of the endpoint squeeze, over the search interval [lo, hi]
    that holds the sign change of the lowers (side 0) or uppers (side 1).

    Aims tol/8 inside the squeezed end's side of the secant root through
    the nearest probes in seen on either side of the change, and, once
    that end sits near the root, closes the search from the other side;
    bisects while seen has no such pair.  Every probe keeps tol/8 from
    both ends, so each one shrinks the search by at least that much.
    """
    step = tol / 8.0
    pos = neg = None
    for s, est in seen:
        f = est.upper if side else est.lower
        if not math.isfinite(f):
            continue
        if f > 0.0 or (f == 0.0 and side == 0):
            if pos is None or s > pos[0]:
                pos = (s, f)
        elif neg is None or s < neg[0]:
            neg = (s, f)
    t = 0.5 * (lo + hi)
    if pos is not None and neg is not None and pos[0] < neg[0]:
        r = pos[0] + pos[1] * (neg[0] - pos[0]) / (pos[1] - neg[1])
        if side == 0:
            t = r - step if r - step > lo + step else lo + 0.9 * tol
        else:
            t = r + step if r + step < hi - step else hi - 0.9 * tol
    return min(max(t, lo + step), hi - step)


def _gather_conditions(system, horizon):
    """Cheap provenance pass: which hypotheses are certified at this scale.

    Every label reads the one validate_conditions report over the first
    min(horizon, 256) letters:
      * validation: no entry of the report is violated;
      * separation: the verdict of its SSC separation report (the check
        behind its separation-strong entry), whose overlap witness, if
        any, is raised as a ConditionViolation;
      * conformal-family: certified when its uniform-contraction and
        neighborhood-domain entries are both satisfied -- a contraction
        rate in (0, 1) on neighborhoods clear of every pole, which with
        conformality gives bounded distortion -- else unavailable;
    and summability reads the system's alphabet and tail witness.
    """
    k = min(horizon, 256)
    report = validate_conditions(system, horizon_vertices=32, horizon_edges=k)
    entries = [("validation", "passed" if report.passed else "violated")]
    sep = report.separation
    entries.append(("separation", sep.verdict))
    conformal = all(report.checks[key].status == "satisfied"
                    for key in ("uniform-contraction", "neighborhood-domain"))
    entries.append(("conformal-family", "certified" if conformal else "unavailable"))
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


def default_horizon(system, horizon=None):
    """horizon when given, else the alphabet horizon of a solve: every
    letter of a finite system (so its brackets are for the whole system),
    DEFAULT_HORIZON letters of a countable one."""
    if horizon is not None:
        return horizon
    if system.is_finite:
        return max(1, len(system.letters(sys.maxsize)))
    return DEFAULT_HORIZON


def _resolve_defaults(system, s_tol, horizon, s_max):
    """(finite, s_tol, horizon, s_max): whether the system is finite at
    solve start, which fixes the solve's scope, and the knobs' defaults."""
    finite = system.is_finite
    if s_tol is None:
        s_tol = FINITE_S_TOL if finite else INFINITE_S_TOL
    horizon = default_horizon(system, horizon)
    if s_max is None:
        s_max = system.ambient_dim + 1.0
    return finite, s_tol, horizon, s_max


@_reuse_geometry()
def bowen_dimension(system, s_tol=None, horizon=None, depth=1, s_max=None,
                    horizon_cap=DEFAULT_HORIZON_CAP,
                    state_cap=DEFAULT_STATE_CAP,
                    max_evals=DEFAULT_MAX_EVALS,
                    check_conditions=True):
    """Certified bracket of the pressure zero, by mean-value steps.

    The scope follows from the system: a finite one is solved whole (its
    default horizon takes every letter), a countable one for the full
    system, truncated lowers against a tail-corrected upper, which needs a
    declared tail witness.  To solve a truncation, pass it as a system
    (subsystem, ladder_truncation).

    Each probe's pressure bracket [a, b] at s becomes the root enclosure
    s + [a, b] / [chi_min, chi_max] (see the module docstring) and is
    intersected with the running [s_lower, s_upper]; a sign certified at s
    also moves that end to s.  chi comes from the state geometry at the
    probe's horizon and depth, built once for the solve.  The upper end
    steps only when the geometry's truncation is the whole system: chi_min
    must bound the derivative of every letter, and a countable alphabet's
    letters beyond the horizon are bounded only by the tail witness.

    Probes go to the Newton point of the last bracket's centre, with the
    secant slope through an earlier probe.  A probe that straddles zero
    and leaves the bracket wider than s_tol/2 (the working target; a
    straddling probe's own enclosure is (b - a) / chi_min wide) refines
    the horizon, then the depth, and is repeated at the same s.  When
    refinement stops (state_cap, depth_limit) or stops buying width
    ("stuck"), each end is squeezed separately at the final knobs.  An
    empty intersection raises CrossedBracket rather than being collapsed.
    IrregularSystem when no certified sign change exists in [floor,
    s_max]; BudgetExhausted when the eval budget dies before the ceiling
    is certified.
    """
    finite, s_tol, horizon, s_max = _resolve_defaults(system, s_tol, horizon, s_max)
    if not finite and system.tail is None:
        raise SummabilityWitnessMissing(
            "full-system dimension needs a declared tail witness"
        )
    conditions = _gather_conditions(system, horizon) if check_conditions else ()
    # a factory enumeration turns finite once a check runs it out, so these
    # ask the system, not the start-of-solve flag
    theta = (0.0, 0.0)
    if not system.is_finite:
        summ = summability_interval(system)
        theta = (summ.theta_low, summ.theta_high)
    floor = 0.0
    if not system.is_finite and system.tail.diverges_below is not None:
        # below it the level-1 sums, hence the pressure, are infinite
        floor = max(0.0, system.tail.diverges_below)
    probe = _PressureProbe(system, finite, horizon, depth, horizon_cap, state_cap)

    def out_of_budget():
        return probe.evals >= max_evals

    def result(stop, component=None):
        return DimensionResult(
            s_lower=root.lower, s_upper=root.upper, theta=theta,
            scope=probe.scope,
            pressure_at_lower=root.at_lower, pressure_at_upper=root.at_upper,
            component=component, conditions=conditions, evals=probe.evals,
            stop_reason=stop, depth=probe.m, horizon=probe.k,
        )

    # certify the ceiling: pressure upper <= 0 at s_max
    root = _RootBracket(floor, s_max)
    trail = []  # (s, estimate) of every probe, for probe placement

    def probe_at(s):
        est = probe.bracket(s)
        trail.append((s, est))
        return est

    try:
        est = probe_at(s_max)
    except NoAdmissibleWords:
        # no admissible words at all: empty pressure, dimension collapses
        root.upper = floor
        return result("empty")
    while est.upper > 0.0:
        if est.lower > 0.0:
            # certified positive at the scan ceiling: no zero in range
            raise IrregularSystem(
                f"pressure certified positive at s={s_max:.6g} "
                f"(bracket [{est.lower:.4g}, {est.upper:.4g}])"
            )
        root.narrow(s_max, est, probe.enclosure(s_max, est))
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
        est = probe_at(s_max)
    root.at_upper = est
    root.narrow(s_max, est, probe.enclosure(s_max, est))

    if root.lower <= floor:
        est = probe_at(floor)
        if est.upper <= 0.0:
            # the whole range is at or below zero: dimension sits at the floor
            root.upper, root.at_upper = floor, est
            return result("tolerance", est.component)
        root.narrow(floor, est, probe.enclosure(floor, est))

    # The working target is half the tolerance, about what bisection ends
    # at; a probe whose own enclosure is wider than that while straddling
    # zero asks for a deeper geometry, not only for another probe.
    target = 0.5 * s_tol
    straddle_width = None
    stuck = 0
    stop = None
    refined_at = None
    while root.width > target and not out_of_budget():
        if refined_at is not None and root.lower < refined_at < root.upper:
            s = refined_at
        else:
            chi_min, chi_max, _ = probe.slopes()
            s = _next_probe(root, trail, chi_min, chi_max)
        refined_at = None
        est = probe_at(s)
        root.narrow(s, est, probe.enclosure(s, est))
        if not (est.lower < 0.0 < est.upper) or root.width <= target:
            straddle_width, stuck = None, 0
            continue
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
        refined_at = s
    if stop is None:
        stop = "tolerance" if root.width <= s_tol else "budget"

    if root.width > s_tol:
        # refinement is spent and the probes straddle: the leftover gap
        # belongs to the bounds themselves, not to the search.  Squeeze
        # each endpoint separately at the final knobs so the reported
        # bracket matches what the bounds can actually certify.
        seen = trail[-1:]  # the last probe ran at the final knobs
        for side in (0, 1):
            lo, hi = root.lower, root.upper
            while hi - lo > s_tol and not out_of_budget():
                s = _squeeze_point(lo, hi, seen, side, s_tol)
                est = probe_at(s)
                root.narrow(s, est, probe.enclosure(s, est))
                seen.append((s, est))
                if side == 0:
                    lo = root.lower
                    hi = min(s if est.lower < 0.0 else hi, root.upper)
                else:
                    lo = max(s if est.upper > 0.0 else lo, root.lower)
                    hi = root.upper
            if hi - lo > s_tol:
                stop = "budget"

    component = None
    for src in (root.at_upper, root.at_lower):
        if src is not None and src.component is not None:
            component = src.component
            break
    return result(stop, component)


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


def _sign_threshold(system, s_tol, horizon, depth, s_max, positive):
    """(lo, hi, probe): _boolean_bisect's bracket, over [0, s_max], of the
    exponent where positive(pressure bracket) turns false, a system with no
    returning words counting as false; probe holds the scope and evals."""
    finite, s_tol, horizon, s_max = _resolve_defaults(system, s_tol, horizon, s_max)
    probe = _PressureProbe(
        system, finite, horizon, depth, DEFAULT_HORIZON_CAP, DEFAULT_STATE_CAP
    )

    def above(s):
        try:
            return positive(probe.bracket(s))
        except NoAdmissibleWords:
            return False

    return (*_boolean_bisect(above, 0.0, s_max, s_tol), probe)


@_reuse_geometry()
def upper_estimate(system, s_tol=None, horizon=None, depth=1, s_max=None):
    """Certified upper dimension estimate: the larger of the pressure-root
    threshold (where the computed sup-weight pressure upper crosses zero)
    and the summability threshold of per-vertex successor sups.

    The s_upper end is the certified bound; the s_lower end brackets the
    same computed quantity from below (useful for reporting, not itself a
    dimension bound).
    """
    root_lo, root_hi, probe = _sign_threshold(
        system, s_tol, horizon, depth, s_max, lambda est: est.upper > 0.0)

    summ = summability_interval(system)
    c_lo = summ.theta_low
    c_hi = summ.theta_high if math.isfinite(summ.theta_high) else summ.theta_low
    return DimensionResult(
        s_lower=max(root_lo, c_lo),
        s_upper=max(root_hi, c_hi),
        theta=(summ.theta_low, summ.theta_high),
        scope=probe.scope,
        summability_part=c_hi,
        root_bracket=(root_lo, root_hi),
        evals=probe.evals,
    )


@_reuse_geometry()
def lower_estimate(system, s_tol=None, horizon=None, depth=1, s_max=None):
    """Certified lower dimension estimate.

    Bisects the exponent where the certified pressure lower bound (the
    inf-weight matrices' spectral radius) crosses zero; the s_lower end is
    a true dimension lower bound.  Systems with no returning words report
    zero.
    """
    lo, hi, probe = _sign_threshold(
        system, s_tol, horizon, depth, s_max, lambda est: est.lower >= 0.0)
    return DimensionResult(s_lower=lo, s_upper=hi, scope=probe.scope, evals=probe.evals)


def dimension_per_component(system, horizon=None, **opts):
    """bowen_dimension restricted to each nontrivial letter-level class.

    Returns {class: DimensionResult}; the global dimension is the interval
    max over the values (asserted against the unrestricted solve in tests).
    The keys come in a dependency order (see pressure._letter_classes), the
    order in which pressure_spectral's component breaks an exact tie.
    """
    out = {}
    for cls, _, _ in _letter_classes(system, default_horizon(system, horizon)):
        sub = subsystem(system, edges=cls, name=f"{system.name}-cls")
        out[cls] = bowen_dimension(sub, check_conditions=False, **opts)
    return out
