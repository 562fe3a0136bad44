"""Certified two-sided brackets for the pressure of derivative-weighted shifts.

Two routes, each valid at every finite stage rather than only in the limit:

* spectral: depth-m word states with interval transition weights; the inf
  and sup weight matrices sandwich the cylinder potential entrywise, so
  their spectral radii (enclosed per strongly connected component by
  Collatz-Wielandt ratios around a power iteration) bracket the pressure.
  The graphs are not strongly connected, so the pressure is the max over the
  components.  A letter-level component is the letters inside one vertex
  class, found with its period on the vertex graph (letter b may follow a
  exactly when a ends where b starts).  The state-level components are read
  off the letter-level ones: each nontrivial letter class gives one, all
  m-words over its letters, and is reported under that letter class, with
  the period of its letter class.  A class of period 1 whose scaled entries
  are all positive at this s is primitive, and its power iteration runs
  on B/theta; any other runs on I + B/theta, whose shift makes it
  converge whatever the period but mostly slows it (with the shift on
  every class the cf-deep solve took 915 iterations, and 427 without it
  on primitive classes).  The geometry and each component's
  Collatz-Wielandt data (class pattern, entry positions, period, logs of
  its ranges) do not depend on s and are built once per geometry; each
  exponent only reweights them, in logs.  Each geometry gathers its
  letters' data from the system's letter table (GifsSystem.letter_table):
  map family, normal form, seed range and seed-image disk, filled once per
  letter per system, so stepping the horizon maps no letter twice, and each
  level maps its words' disks and ranges its nonzeros with one kernel call
  per map family, with no loop over letters.  A complete class, all m-words
  over letters that may all follow each other (as in the continued-
  fraction systems), iterates on its entries as they are while they span
  at most e**(650/m); any other class is first conjugated by max-plus
  scales, which keep Perron vectors that span past float64 in range.
  Only the unscaled route keeps state: within a solve a complete class
  starts from its previous unscaled iterate, and its first probe on a new
  depth from the previous depth's final iterate, each m-word taking its
  (m-1)-letter prefix's entry; every scaled probe starts afresh.  The
  geometry itself gains just the one level, on the shallower one's words,
  enclosure disks and letter classes with their periods.  A class of a
  few hubs joined by chains (the countable ladder's) takes its scales
  from its Perron vector, which eliminating the chains gives (see
  chains.py): the ladder's 511-state class at k = 512 then closes in one
  iteration, not about 530, and the bracket still comes only from the
  iteration's ratios.  A class's two sides, its inf and sup matrices,
  iterate as the two rows of one array in one loop, each with its own
  route, start, shift and stop test (see _cw_bracket); when every entry's
  range is a single value (affine letters) the two matrices are one, and
  the loop has one row.  Each class's power iteration multiplies by numpy
  alone, both rows in one call: a complete
  class of more than one block over _STACK_FAN or more letters by one
  stacked np.matmul, whose sums round as the BLAS kernel adds them; every
  other class sums each row from 0.0 in ascending column order, as
  scipy's CSR matvec does, so a class with neither chains nor the
  complete pattern keeps the bits of a scipy matrix under the same scales
  and shift rule.
* full-system uppers: countable alphabets are exhausted from below by their
  finite truncations, so every truncated lower stands; uppers for the
  untruncated system fold in the declared tail witness (per-letter bound
  sums for edge-unit tails, over the letter table's seed sups, a
  family-proved spectral bound otherwise).
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import chains as chainlib
from . import maps as mapslib
from .errors import NoAdmissibleWords
from .graphs import extend_words, strongly_connected_components

__all__ = [
    "PotentialSpec",
    "PressureEstimate",
    "WeightedMatrix",
    "build_weighted_matrix",
    "pressure_spectral",
    "truncation_ladder",
]

CW_TOL = 3e-11
CW_MAX_ITER = 100000
# a complete class of depth m iterates without scales while m times the
# spread of its log-weights stays within this (see _cw_bracket)
_UNSCALED_SPREAD = 650.0
# complete classes of more than one block over at least this many letters
# multiply by one stacked np.matmul, any other by a multiply-reduce
# (measured in _class_matvec)
_STACK_FAN = 8
# block length a* of the Fekete bound on edge-unit tails
FEKETE_BLOCK = 32


def _safe_log(x):
    if x <= 0.0:
        return -math.inf
    return math.log(x)


@dataclass(frozen=True)
class PotentialSpec:
    """Exponent of the derivative potential.

    A word is weighted by the product of its ||T'||**s factors.  Every map
    family here is conformal, so the operator norm is the only derivative
    size there is.
    """

    s: float

    def __post_init__(self):
        s = self.s
        if not (isinstance(s, (int, float)) and math.isfinite(s) and s >= 0):
            raise ValueError(f"exponent must be finite and nonnegative, got {s!r}")

    @property
    def selector(self):
        # always "norm", the one derivative size; kept only because
        # bench/spans.py (_describe_geometry) keys each traced geometry
        # build on it, and bench/test_bench.py runs that traced solve in the
        # tier-1 suite.  The next benchmark change drops both.
        return "norm"


@dataclass(frozen=True)
class PressureEstimate:
    """Certified pressure bracket plus the horizon and depth that produced
    it.

    scope "truncated": the bracket holds for the materialized subsystem.
    scope "full": it holds for the untruncated system (lowers come from
    truncations, which exhaust the full pressure from below; the upper folds
    in the tail witness).  lower may be -inf (no periodic word in the
    truncation) and upper +inf (no usable tail bound at this exponent).
    divergence marks exponents where the witness proves the level-1 tail
    sum infinite.  stalled marks a power iteration that hit its budget; the
    bracket is still certified, just wide.
    """

    lower: float
    upper: float
    s: float
    horizon: object = None
    depth: object = None
    scope: str = "truncated"
    divergence: bool = False
    stalled: bool = False
    component: object = None
    components: tuple = ()
    tail_term: float = 0.0

    def __post_init__(self):
        if self.lower > self.upper:
            # both sides are individually certified, so a crossing can only
            # be roundoff; collapse tiny ones, refuse real ones
            gap = self.lower - self.upper
            tol = 1e-9 * max(1.0, abs(self.lower), abs(self.upper))
            if not gap <= tol:
                raise ValueError(
                    f"bracket crossed: lower {self.lower} > upper {self.upper}"
                )
            mid = 0.5 * (self.lower + self.upper)
            object.__setattr__(self, "lower", mid)
            object.__setattr__(self, "upper", mid)

    @property
    def width(self):
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class CsrWeights:
    """One side's derivative ranges in compressed sparse row (CSR) form.

    Row i holds the ranges ranges[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]], ascending; shape is (states, states).
    The transition weights at exponent s are the ranges raised to s, which
    pressure_spectral forms per class in logs (see _cw_bracket) and never
    as one array.  All three arrays are the geometry's, shared by every
    exponent.
    """

    ranges: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.indices)


@dataclass(frozen=True)
class WeightedMatrix:
    """Depth-m word states with inf/sup transition weight matrices.

    States are admissible m-letter words over the materialized alphabet;
    u -> w is admissible when u[1:] == w[:-1] (and the junction matches at
    depth 1).  Its weight at exponent s is the derivative range of u's
    first letter over the enclosure of w (all m maps applied) raised to s,
    so transition products sandwich true cylinder weights: inf products
    below, sup products above.  inf_weights and sup_weights are CsrWeights
    records of the ranges themselves over the geometry's pattern, with no
    power taken; pressure_spectral reads the geometry's class plans
    instead, which raise them to s in logs.  The ranges and the pattern
    come from geometry, which is s-independent and shared by every
    exponent a solve probes at this horizon and depth.  When the geometry
    holds one array for both sides, sup_weights is inf_weights.  states
    reads through to the geometry's.
    """

    inf_weights: object
    sup_weights: object
    depth: int
    horizon: int
    potential: PotentialSpec
    geometry: object

    @property
    def states(self):
        return self.geometry.states


@dataclass(eq=False)
class StateGeometry:
    """The s-independent part of the depth-m word-state matrices.

    letters are the letters and words the states as rows of their positions,
    of dtype np.min_scalar_type(letter count); letter_classes holds the
    nontrivial letter classes with their positions and periods (see
    _letter_classes), from which the state classes are read off
    (see _cycling_classes).  states spells the words as tuples of letters on
    first read; a solve never reads it, and counts its states by words.
    indices/indptr give the CSR pattern of the transitions; lower/upper
    hold, per nonzero in that order, the derivative range of the source
    state's first letter over the enclosure of the target state, and are one
    array when the two coincide elementwise; with no Moebius letter they are
    each entry's first letter's |lin|, read off the system's letter table.
    disks holds the words' enclosure disks as rows (cx, cy, r), or None with
    no Moebius letter; at depth 1 it is a view of the letter table's
    seed-image disks (GifsSystem.seed_disks).  With words and
    letter_classes it is all that a depth step (see _geometry) builds on.
    classes holds the nontrivial state-level strongly connected classes in
    dependency order as _ClassPlan objects, made with the geometry: each
    class's letter class, size and period, the positions of its entries
    among the nonzeros, its local pattern and the logs of its ranges, plus
    a complete class's last unscaled iterate on each side, from which the
    next exponent's power iteration starts; a geometry one depth deeper
    than the solve's previous one, on the same system and letters, starts
    from that one's final iterates (see _geometry and _lift_iterates).  A
    geometry lives at most as long as the solve that built it (see
    _reuse_geometry), so no warm start outlives a solve.  A truncation with
    no m-letter word has a geometry with no states.
    """

    letters: list
    words: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    disks: np.ndarray
    letter_classes: tuple
    classes: tuple = ()

    @cached_property
    def states(self):
        picked = np.fromiter(self.letters, dtype=object, count=len(self.letters))
        return tuple(map(tuple, picked[self.words].tolist()))


def _letter_classes(system, k):
    """The nontrivial letter classes of letters(k) in dependency order, each
    as (letters, positions, period) (see _letter_period), its letters in
    enumeration order.  Tarjan runs on the vertex graph, one edge per letter:
    a letter u -> v lies on a letter cycle exactly when u and v share a
    vertex class, inside which paths join any two letters, so a letter class
    is the letters with both ends in one nontrivial vertex class.  Letter
    paths run along vertex paths, so the vertex order is a dependency order,
    in which classes no path joins come as Tarjan finds their vertex classes.
    """
    letters, initial, terminal = system.incidence(k)
    nverts = int(max(initial.max(initial=-1), terminal.max(initial=-1))) + 1
    # the vertex graph's successor lists, ascending and without repeats
    edges = initial * nverts + terminal
    edges = edges[np.argsort(edges, kind="stable")]
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    ends = np.searchsorted(edges, np.arange(nverts + 1) * nverts).tolist()
    heads = (edges % nverts).tolist()
    succ = [heads[a:b] for a, b in zip(ends, ends[1:])]
    out = []
    for verts in strongly_connected_components(succ).nontrivial_classes():
        inside = np.zeros(nverts, dtype=bool)
        inside[list(verts)] = True
        positions = np.flatnonzero(inside[initial] & inside[terminal])
        period = _letter_period(succ, verts, initial[positions], terminal[positions])
        out.append((tuple(letters[i] for i in positions), tuple(positions.tolist()), period))
    return tuple(out)


def _exhausts(system, k):
    """Whether the first k letters are the whole (finite) alphabet."""
    return system.is_finite and len(system.letters(2 * k + 16)) == len(system.letters(k))


def _build_geometry(system, letters, m, below=None):
    """States, CSR pattern and derivative ranges as float64 arrays, built
    one word length at a time from the system's letter table (see
    GifsSystem.letter_table), with no loop over letters: from below, the
    (words, disks, letter classes) of the same letters at depth m - 1, when
    given, else from the letters, their classes (see _letter_classes) and
    their seed image disks (GifsSystem.seed_disks); either way on the
    system's incidence table, and every array comes out with the same bits.
    Words and nonzeros come grouped by their first letter, so each level
    repeats that letter's family and normal form over its words or
    nonzeros, and maps every disk, then ranges every nonzero, with one
    kernel call per map family (maps.disk_images, maps.derivative_ranges).
    An affine range is |lin| on any set, so with no Moebius letter there
    are no disks, and the ranges are |lin| repeated."""
    n = len(letters)
    moebius, forms = system.letter_table(n)
    _, initial, terminal = system.incidence(n)
    if below is None:
        letter_classes = _letter_classes(system, n)
        words = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
        disks = system.seed_disks(n) if moebius.any() else None
        steps = m - 1
    else:
        words, disks, letter_classes = below
        steps = 1
    blocks = np.arange(n + 1)
    for _ in range(steps):
        shorter = words
        words, tails, blocks = extend_words(initial, terminal, words)
        if disks is not None:
            # a word's enclosure disk is its tail's disk mapped through its
            # first letter
            counts = blocks[1:] - blocks[:-1]
            disks = mapslib.disk_images(np.repeat(moebius, counts),
                                        np.repeat(forms, counts, axis=1),
                                        np.take(disks, tails, axis=1))

    # u -> w exactly when w = u[1:] + c with c allowed after u's last letter.
    # At depth >= 2 the words extending one (m-1)-word form a contiguous block
    # of the lexicographic level, so each row's successors are a range.
    n_succ = np.bincount(initial, minlength=int(terminal.max()) + 1)[terminal]
    count = n_succ[words[:, -1]]
    indptr = np.concatenate(([0], np.cumsum(count))).astype(np.int32)
    if m == 1:
        # each letter's successors, the depth-1 states that may follow it
        _, indices, _ = extend_words(initial, terminal, words)
    else:
        ext = n_succ[shorter[:, -1]]
        starts = (np.cumsum(ext) - ext)[tails] - indptr[:-1]
        indices = np.repeat(starts, count) + np.arange(indptr[-1])
    # the targets gather each disk row faster as intp
    targets, indices = indices, indices.astype(np.int32)

    # the nonzeros of each letter's rows, in row order
    per_letter = indptr[blocks[1:]] - indptr[blocks[:-1]]
    if disks is None:
        lower = upper = np.repeat(forms[mapslib.ABS_LIN], per_letter)
    else:
        # the two sides come out as the rows of one array
        lower, upper = mapslib.derivative_ranges(
            np.repeat(moebius, per_letter),
            np.repeat(forms[:mapslib.RANGE_ROWS], per_letter, axis=1),
            (*np.take(disks[:2], targets, axis=1), disks[2][targets]))
    if np.array_equal(lower, upper):
        # one array for both sides tells the spectral layer that one row
        # of its Collatz-Wielandt loop serves both
        upper = lower
    arrays = (words, indices, indptr, lower, upper, disks)
    # the matrices of every exponent, and the next depth, share these arrays
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
    return StateGeometry(letters, *arrays, letter_classes)


class _GeometrySlot:
    """The last geometry built inside one solve, with the system and key it
    was built for."""

    __slots__ = ("system", "key", "geometry")

    def __init__(self):
        self.system = None
        self.key = None
        self.geometry = None


_SOLVE_GEOMETRY = ContextVar("gifsdim_solve_geometry", default=None)


@contextmanager
def _reuse_geometry():
    """Keep the last state geometry for the duration of the block.

    Inside it, build_weighted_matrix hands the same StateGeometry back while
    the system, letters and depth stay the same, and builds a new one
    (dropping the old) when any of them moves; one depth deeper, it extends
    the old one by a level (see _geometry).  The solve entry points wrap
    themselves in this, so no geometry outlives the solve that built it.
    Outside any block every call builds afresh.
    """
    token = _SOLVE_GEOMETRY.set(_GeometrySlot())
    try:
        yield
    finally:
        _SOLVE_GEOMETRY.reset(token)


def _geometry(system, letters, m):
    """The StateGeometry of letters at depth m, with its class plans, kept
    in the solve's slot (outside a solve, in a slot of its own).  One depth
    deeper than the slot's, on the same system and letters, it takes the
    old one's words, disks and letter classes and builds only
    level m on them, and its complete classes start from the old ones'
    final iterates; the old geometry, with its plans, ranges and logs, is
    dropped first.  Anything else builds from the letters up."""
    slot = _SOLVE_GEOMETRY.get() or _GeometrySlot()
    key = (tuple(letters), m)
    if slot.system is not system or slot.key != key:
        finals, below = {}, None
        if slot.system is system and slot.key == (key[0], m - 1):
            old = slot.geometry
            finals = {plan.letters: plan.warm for plan in old.classes}
            below = (old.words, old.disks, old.letter_classes)
        # drop the old geometry before building its successor, and leave
        # the slot empty should the build raise
        old = slot.system = slot.key = slot.geometry = None
        geom = _build_geometry(system, letters, m, below)
        # the plans are made once the shallower words and disks are gone,
        # which keeps them out of a solve's peak memory
        below = None
        periods = {cls: period for cls, _, period in geom.letter_classes}
        geom.classes = tuple(
            _class_plan(geom, cls, idx, periods[cls]) for cls, idx in
            _cycling_classes(geom.words, geom.letter_classes))
        _lift_iterates(geom.classes, finals)
        slot.geometry = geom
        slot.system, slot.key = system, key
    return slot.geometry


def _lift_iterates(plans, finals):
    """Start each complete class among plans warm from finals, {letter
    class: its plan's warm states one depth shallower}, lifted by prefix:
    the m-words extending an (m-1)-word p are p*|C| + b, b = 0..|C|-1, and
    each takes p's entry.
    """
    for plan in plans:
        sides = finals.get(plan.letters) if plan.fan else None
        if sides is not None:
            plan.warm = [None if it is None else (it[0], np.repeat(it[1], plan.fan))
                         for it in sides]


def build_weighted_matrix(system, potential, k, m=1):
    """Assemble the depth-m word-state transition matrices over letters(k).

    The geometry (states, CSR pattern, derivative ranges) does not depend on
    s.  Within one solve (bowen_dimension, lower_estimate, upper_estimate)
    it is built once per horizon and depth, and later calls only pair it
    with potential.s; outside a solve every call builds it afresh.
    No letter within the horizon raises NoAdmissibleWords; letters with no
    m-letter word give matrices with no states.
    """
    if m < 1:
        raise ValueError(f"refinement depth must be >= 1, got {m}")
    letters = system.letters(k)
    if not letters:
        raise NoAdmissibleWords(f"no letters within horizon {k}")
    geom = _geometry(system, letters, m)
    shape = (len(geom.words), len(geom.words))
    inf_mat = CsrWeights(geom.lower, geom.indices, geom.indptr, shape)
    if geom.upper is geom.lower:
        sup_mat = inf_mat
    else:
        sup_mat = CsrWeights(geom.upper, geom.indices, geom.indptr, shape)
    return WeightedMatrix(
        inf_weights=inf_mat,
        sup_weights=sup_mat,
        depth=m,
        horizon=len(letters),
        potential=potential,
        geometry=geom,
    )


def _equilibrate_scales(plan, logw):
    """Diagonal scales from a max-plus eigenvector estimate, iterated from
    zero scales.

    Long-chain systems have Perron vectors spanning thousands of orders of
    magnitude, far past float64, which zeroes components of the power
    iterate.  Conjugating by a positive diagonal preserves the spectrum and
    every Collatz-Wielandt certificate, so a partially converged estimate
    is still safe; quality only affects conditioning.  logw holds the
    class's log-weights in plan order.  Only the classes that _cw_bracket
    does not run unscaled come here: those of fan 0, and complete classes
    whose entries vanish or spread too wide at this s, and that have no
    chains to eliminate; each search starts afresh.  Each round takes its
    row maxima with one scatter over plan.row; a maximum is exact in any
    order, so the entry order of the plan does not matter.
    """
    nstates = plan.size
    d = np.zeros(nstates)
    for _ in range(min(nstates, 512)):
        nxt = np.full(nstates, -np.inf)
        np.maximum.at(nxt, plan.row, logw + d[plan.col])
        nxt -= nxt.max()
        finite = np.isfinite(nxt)
        if not finite.all():
            fill = nxt[finite].min() if finite.any() else 0.0
            nxt[~finite] = fill
        if np.abs(nxt - d).max() <= 1e-9:
            return nxt
        d = nxt
    return d


@dataclass(eq=False)
class _ClassPlan:
    """The s-independent Collatz-Wielandt data of one nontrivial state class.

    letters is the letter class whose m-words the class holds, and size
    the number of those words.  period is the gcd of the class's cycle
    lengths, which are those of its letter class (see _letter_period);
    _cw_bracket drops the shift of its power iteration only at period 1.

    positions picks the class's entries out of the geometry's nonzeros in
    the order the class matvec reads them (see _class_matvec); row/col are
    their local coordinates (intp, which numpy's gathers, np.bincount and
    np.maximum.at take without a per-call conversion).  fan selects the
    matvec form.  It is |C| when the class has the pattern of all m-words
    over a letter class C in which every letter may follow every other: with
    R = n/|C|, row a*R + r (a letter a, an (m-1)-word r) then holds exactly
    the columns r*|C| + b, b = 0..|C|-1.  When _stacked(|C|, n), that is
    with _STACK_FAN or more letters and R > 1, the entries are stored as R
    dense |C| x |C| blocks, (r, a, b), block r mapping the states r*|C| + b
    to the states a*R + r; otherwise b-major, (b, a, r).  Any other class
    has fan 0 and its entries in CSR order (rows, then ascending columns).
    depth is m for a complete class, whose size is |C|**m, and 0 for any
    other; it bounds _cw_bracket's unscaled route.  logs holds the logs of
    the class's ranges in plan order as one row per side, row 0 the inf
    side's and row 1 the sup side's, or a single row for both when the
    geometry's two are one.  Entries that vanish at some
    exponent stay in the pattern as explicit zeros, which leave every
    positive row sum's bits unchanged.  chains holds a fan-0
    class's hubs and chains (chains.HubChains) when it has at most
    chains.HUB_MAX hubs, and is None otherwise; _cw_bracket then starts
    from the Perron vector that eliminating the chains gives.
    Complete-pattern classes never take that route.  warm holds, per side,
    None or the exponent and final iterate (s, v) of that side's last
    probe that ran unscaled: its row of the joint loop's iterate, which is
    written no more once that side stops (see _cw_bracket).  Scaled probes store nothing, so a class of fan 0 keeps
    [None, None], and side 1 stays unused while the two sides are one
    array.  A complete class's plan may also begin with a warm state: the
    previous depth's final iterate, lifted by prefix (see _lift_iterates).
    """

    letters: tuple
    size: int
    positions: np.ndarray
    row: np.ndarray
    col: np.ndarray
    fan: int
    period: int
    logs: np.ndarray
    chains: object = None
    depth: int = 0
    warm: list = field(default_factory=lambda: [None, None])


def _class_plan(geom, letters, idx, period):
    """The _ClassPlan of the class whose state indices, ascending, are idx,
    labelled by its letter class and with the given period.

    The geometry's rows list their columns in ascending order, and local
    indices keep that order, so taking the class's entries row by row gives
    the class matrix's CSR order; a class with the complete pattern is then
    reordered b-major or into its blocks, and any other class gets its
    chains.  The logs of the class's ranges are gathered in that order.
    """
    local = np.full(len(geom.indptr) - 1, -1)
    local[idx] = np.arange(len(idx))
    starts = geom.indptr[idx]
    counts = geom.indptr[idx + 1] - starts
    # every nonzero of the class's rows, row by row in column order
    positions = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    positions += np.arange(counts.sum())
    col = local[geom.indices[positions]]
    inside = col >= 0
    positions, col = positions[inside], col[inside]
    row = np.repeat(np.arange(len(idx)), counts)[inside]
    n = len(idx)
    fan = len(col) // n
    entry = np.arange(len(col))
    if (len(col) == n * fan and n % fan == 0
            and np.array_equal(row, entry // fan)
            and np.array_equal(col, row % (n // fan) * fan + entry % fan)):
        if _stacked(fan, n):
            # CSR entry (a*R + r)*fan + b moves to (r*fan + a)*fan + b
            order = entry.reshape(fan, n // fan, fan).transpose(1, 0, 2).ravel()
        else:
            # CSR entry i*fan + b moves to b*n + i
            order = entry.reshape(n, fan).T.ravel()
        positions, row, col = positions[order], row[order], col[order]
        chains = None
        depth = 1
        while fan**depth < n:
            depth += 1
    else:
        fan = depth = 0
        chains = chainlib.hub_chains(n, row, col)
    sides = (geom.lower,) if geom.upper is geom.lower else (geom.lower, geom.upper)
    logs = np.empty((len(sides), len(positions)))
    with np.errstate(divide="ignore"):
        for side, ranges in enumerate(sides):
            np.log(ranges[positions], out=logs[side])
    return _ClassPlan(letters, n, positions, row, col, fan, period, logs, chains, depth)


def _stacked(fan, size):
    """Whether a class of size states with this fan (see _ClassPlan) takes
    the stacked np.matmul form of _class_matvec."""
    return fan >= _STACK_FAN and size > fan


def _class_matvec(plan, data, v):
    """The step v -> B v, row by row, as a function of no arguments: B is
    the class matrix of each side, whose entries, in plan order, are the
    rows of data, and v the (sides, size) iterate, one row per side, whose
    current contents each call reads.  v must be C-contiguous, as the step
    reads it through views made once.

    Each row is multiplied as it would be alone, so a side's product keeps
    its bits beside the other side or without it.  Classes with fan 0, and
    complete classes off the stacked form (fewer than _STACK_FAN letters,
    or a single block), keep scipy's row order: each row of B is summed
    from 0.0 over its entries in ascending column order, one rounded
    multiply and one rounded add per entry, as csr_matvec does.  Off the
    stacked form, a side's data of a class with fan = |C| viewed as W[b, a,
    r] is the weight of a*R + r -> r*|C| + b; it is multiplied by v[r*|C| +
    b], broadcast over a, and the (sides, b, a, r) terms are reduced over
    b, which numpy adds in sequence.  Fan 0 scatters data * v[col] with one
    np.bincount over the rows offset by side * size, which adds in entry
    order.  On the stacked form (see _stacked), a side's data viewed as
    W[r, a, b] holds R dense blocks, and one np.matmul of the (sides, R,
    |C|, |C|) blocks by v viewed as (sides, R, |C|, 1) gives entry a*R + r
    of each side at [side, r, a], each block summed as the BLAS kernel sums
    it.  The multiply-reduce writes and rereads a temporary as large as
    data, so it is memory-bound on wide classes.  Times of one step on two
    rows over two one-row steps (single-threaded OpenBLAS, 2-core Intel
    Xeon, medians of 41 interleaved rounds): 0.52, 0.57, 0.70, 0.82 at 2
    letters and depths 3, 7, 9, 11 (8 to 2,048 states); 1.00 at 3 letters
    and depth 9 (19,683 states); stacked, 0.83 at 8 letters and depth 3,
    0.88 at 36 letters and depth 2.  Stacked over multiply-reduce on two
    rows: 0.76 at 7 letters and depth 3 (1.04 on one row, which keeps
    _STACK_FAN at 8); 0.66, 0.74, 0.74 at 8 letters and depths 2, 3, 4;
    0.55 at 12 letters and depth 3; 0.15 at 36 letters and depth 2 (16.5
    against 108 us).  A single block (depth 1) stays on the
    multiply-reduce: its product would be one BLAS matrix-vector call, 1 to
    5 us faster on one row (2.8 against 3.6 us at 8 letters, 2.7 against
    8.2 at 40), but a process's first BLAS call touches about 0.15 MB of
    buffers, which a run whose wide classes are all single blocks (CF
    truncation ladders, at depth 1) then never needs.  The returned
    function reuses its output array.
    """
    sides = len(data)
    n, c = plan.size, plan.fan
    if not c:
        col = plan.col
        row = (plan.row + n * np.arange(sides)[:, None]).ravel()
        return lambda: np.bincount(row, weights=(data * v[:, col]).ravel(),
                                   minlength=sides * n).reshape(sides, n)
    r = n // c
    out = np.empty((sides, n))
    if _stacked(c, n):
        blocks = data.reshape(sides, r, c, c)
        prod = np.empty((sides, r, c, 1))
        right, left = v.reshape(sides, r, c, 1), out.reshape(sides, c, r)
        products = prod.reshape(sides, r, c).transpose(0, 2, 1)

        def matvec():
            np.matmul(blocks, right, out=prod)
            np.copyto(left, products)
            return out

        return matvec
    weights = data.reshape(sides, c, c, r)
    terms = np.empty((sides, c, c, r))
    right = v.reshape(sides, r, c).transpose(0, 2, 1)[:, :, None, :]
    left = out.reshape(sides, c, r)

    def matvec():
        np.multiply(weights, right, out=terms)
        # reduce over b into left, positionally (see _cw_bracket)
        np.add.reduce(terms, 1, None, left)
        return out

    return matvec


def _cw_start(plan, side, s, data, v, top, low):
    """Set up one side's power iteration at exponent s (see _cw_bracket):
    data is the side's row of the class weights, holding its log-weights
    s * logs, whose largest and smallest are top and low; fill it with its
    entries over theta, scaled or not, and v with its start.  Returns
    (theta, shift, relative), relative when the side runs unscaled and so
    stops on a relative bracket and keeps its iterate, or None when every
    entry vanishes at s."""
    if top == -math.inf:
        return None
    relative = bool(plan.fan and plan.depth * (top - low) <= _UNSCALED_SPREAD)
    if relative:
        warm = plan.warm[side]
        if warm is not None and warm[0] > 0.0:
            s_prev, prev = warm
            np.log(prev, out=v)
            v *= s / s_prev
            np.exp(v, out=v)
            np.maximum(v, 1e-300, out=v)
        else:
            v.fill(1.0)
        # exp(s * logs) / theta, theta = e**top the largest entry; each is
        # at least e**-650 > 0
        data -= top
        np.exp(data, out=data)
        theta = float(np.exp(top))
        positive = True
    else:
        # the log-weights, kept until the scaled entries are formed
        logw = data.copy()
        d = None
        if plan.chains is not None:
            d = chainlib.perron_log(plan.chains, plan.row, logw)
        if d is None:
            d = _equilibrate_scales(plan, logw)
        v.fill(1.0)
        # the scaled entries exp(logw + d[col] - d[row]) / theta, in the
        # order of that expression
        np.add(logw, d[plan.col], out=data)
        data -= d[plan.row]
        np.exp(data, out=data)
        if not np.isfinite(data).all():
            np.exp(logw, out=data)
        theta = float(np.maximum.reduce(data))
        np.divide(data, theta, out=data)
        positive = np.minimum.reduce(data) > 0.0
    shift = 1.0 if plan.period != 1 or not positive else 0.0
    return theta, shift, relative


def _cw_bracket(plan, s):
    """Certified spectral-radius brackets for a class's matrices at exponent
    s, one per side: the inf side's, then the sup side's, or one bracket
    for both when the plan holds one row of logs for both.

    Each side's entries are exp(s * logs), logs its logs in plan order, and
    each is 1 at s = 0 even for a range of 0 (as 0.0**0.0 == 1, and with no
    0 * -inf).  Power iteration on M = B/theta, theta the largest scaled
    entry, when B is primitive: the class has period 1 and every scaled
    entry is positive at this s.  Any other class, such as one whose
    entries vanish or underflow at this s and may leave it reducible or
    periodic there, iterates on M = I + B/theta, which converges whatever
    the period.  Where both converge the shift mostly costs steps: a
    subdominant eigenvalue lambda contracts at |1 + lambda/theta| / (1 +
    rho/theta), not at |lambda| / rho (0.36 against 0.149 per step on CF
    {1, 2, 3} at depth 3, s = 0.5), though a nearly periodic class can
    favour the shift.  Every iterate gives Collatz-Wielandt bounds min_i
    (Mv)_i/v_i <= rho(M) <= max_i (Mv)_i/v_i -- the lower via a nonnegative
    left Perron vector u (u(Mv) >= min_ratio * uv and uv > 0 since v > 0),
    the upper likewise -- so the running intersection over iterations
    stays certified for any positive start and any positive conjugation;
    the ends are its bounds, less the shift, times theta.

    A complete class (fan > 0) of depth m whose log-weights at s are all
    finite and span at most _UNSCALED_SPREAD / m iterates on the entries
    exp(s * logs - log theta) themselves, with no scales: two of its
    states are joined by exactly one m-step path, so their Perron entries
    differ by a factor of at most e**(m * spread) <= e**650, as do the
    entries of every iterate from the m-th on, and e**-650 stays clear of
    the 1e-300 floor below.  Any other class is conjugated by exp(d), d
    from a max-plus scale search (_equilibrate_scales), applied in logs, so
    that Perron vectors that span past float64 (long chains) still
    converge and an entry whose weight underflows float64 (the ladder's
    deep spine at s = 4.5) keeps its size once scaled.

    Starts.  Only the unscaled route keeps state.  An unscaled probe
    stores (s, v), its exponent and final iterate, in plan.warm[side], and
    the next unscaled probe on that side after one at a positive s_prev
    starts from exp((s / s_prev) * log v_prev), the old iterate v_prev
    raised to s / s_prev in logs, with no pow; its largest entry stays
    exactly 1.  A complete class's first probe on a new depth starts the
    same way from the previous depth's final iterate, lifted by prefix
    when _geometry carried it over (see _lift_iterates).  Any other
    unscaled probe starts from v = 1.  A scaled probe starts from v = 1,
    reads no warm state and stores none.  A class with chains takes as its
    scales the log Perron vector that eliminating them gives
    (chains.perron_log): the same iteration as one started from that
    vector, while every entry stays within its row sum, about rho, where
    the vector itself may span past float64.  Any other scaled class, or
    one where the elimination fails, searches its scales from zero
    (_equilibrate_scales).  Each side takes its route, theta, shift and
    start alone (_cw_start).

    One loop.  The sides then iterate as the rows of one array, one
    _class_matvec and one set of ufunc calls per pass for both, which on
    these classes costs little more than one side's pass does.  Each side
    stops once the bracket of its rho(B/theta) is CW_TOL wide, or stalls
    after CW_MAX_ITER passes.  Scaled, theta is at most about rho, as no
    scaled entry exceeds e**lambda, lambda the max-plus eigenvalue, and
    e**lambda <= rho.  Unscaled, the largest entry may exceed rho by up to
    e**(m * spread / (m + 1)), along the one (m+1)-cycle through it, so the
    bracket must also be CW_TOL wide relative to its lower end.  A side
    that stops freezes its bracket, iterate and count, and the other runs
    on alone on a one-row view; every operation acts on each row as on
    that side alone, so each side's bits and count are those of a loop of
    its own.  A side whose entries all vanish at s gives (0, 0) with no
    iteration.  Returns one (lo, hi, stalled, iterations) per side.
    """
    tol, max_iter = CW_TOL, CW_MAX_ITER
    sides, n = len(plan.logs), plan.size
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    # a stacked class's weights start each row on a 64-byte boundary (see
    # _aligned); the other classes keep np.empty, on which cf-deep's solves
    # ran faster
    shape = plan.logs.shape
    data = _aligned(*shape) if plan.fan and _stacked(plan.fan, n) else np.empty(shape)
    # every side's log-weights, and their extremes, in one call each; a
    # row's extremes are exact, so each is the one side's alone
    if s:
        np.multiply(plan.logs, s, out=data)
    else:
        data.fill(0.0)
    tops, lows = highest(data, axis=1).tolist(), lowest(data, axis=1).tolist()
    v = np.empty((sides, n))
    starts = [_cw_start(plan, side, s, data[side], v[side], tops[side], lows[side])
              for side in range(sides)]
    live = [side for side in range(sides) if starts[side] is not None]
    best_lo, best_hi = [0.0] * sides, [math.inf] * sides
    stalled, counts, finals = [False] * sides, [0] * sides, [None] * sides
    if live:
        if len(live) < sides:
            # one side vanished, and the other runs alone
            data, v = (a[live[0]:live[0] + 1] for a in (data, v))
        # v is normalised in place, so the matvec reads it through views
        # made once; the ratios and the row peaks are buffers, the
        # reductions skip ndarray.min/max's Python wrapper, and positional
        # arguments skip the ufuncs' keyword parsing
        ratios, peak = np.empty_like(v), np.empty((len(live), 1))
        matvec = _class_matvec(plan, data, v)
        shifted = _shifted_rows([starts[side][1] for side in live])
        for iterations in range(1, max_iter + 1):
            w = matvec()
            if shifted is not None:
                np.add(w, v, out=w, where=shifted)
            np.divide(w, v, ratios)
            cur_lo = lowest(ratios, 1).tolist()
            cur_hi = highest(ratios, 1).tolist()
            keep = []
            for k, side in enumerate(live):
                if cur_lo[k] > best_lo[side]:
                    best_lo[side] = cur_lo[k]
                if cur_hi[k] < best_hi[side]:
                    best_hi[side] = cur_hi[k]
                gap = best_hi[side] - best_lo[side]
                if gap <= tol and (not starts[side][2] or gap <= tol * best_lo[side]):
                    counts[side], finals[side] = iterations, v[k]
                else:
                    keep.append(k)
            if len(keep) < len(live):
                if not keep:
                    break
                # the other side runs on alone, so the stopped side's row of
                # v is written no more; the two-row matvec's temporaries go
                # before the one-row one's are made
                (k,) = keep
                live = [live[k]]
                data, w, v, ratios, peak = (a[k:k + 1] for a in (data, w, v, ratios, peak))
                shifted = _shifted_rows([starts[live[0]][1]])
                matvec = None
                matvec = _class_matvec(plan, data, v)
            # the floor keeps v strictly positive even if a component still
            # underflows; any positive test vector certifies, just loosely
            highest(w, 1, None, peak, True)
            np.divide(w, peak, v)
            np.maximum(v, 1e-300, out=v)
        else:
            for k, side in enumerate(live):
                stalled[side], counts[side], finals[side] = True, max_iter, v[k]
    out = []
    for side, start in enumerate(starts):
        if start is None:
            out.append((0.0, 0.0, False, 0))
            continue
        theta, shift, relative = start
        if relative:
            plan.warm[side] = (s, finals[side])
        lo = max(best_lo[side] - shift, 0.0) * theta
        hi = max(best_hi[side] - shift, 0.0) * theta
        out.append((min(lo, hi), hi, stalled[side], counts[side]))
    return tuple(out)


def _shifted_rows(shifts):
    """The where argument of np.add that adds v to the rows of the sides
    whose shift, in shifts, is 1: True when all are, None when none is."""
    if all(shifts):
        return True
    if not any(shifts):
        return None
    return np.array(shifts, dtype=bool)[:, None]


def _aligned(sides, size):
    """An uninitialised (sides, size) float64 array each of whose rows
    starts on a 64-byte boundary.  The stacked np.matmul reads its weights
    from one (see _cw_bracket), so where the heap places them cannot change
    the speed of its BLAS kernel, nor, through it, a solve's."""
    step = -(-size // 8) * 8
    raw = np.empty(sides * step + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + sides * step].reshape(sides, step)[:, :size]


def _cycling_classes(words, letter_classes):
    """(letter class, indices) of each nontrivial state class of the word
    states, in the dependency order of letter_classes, the nontrivial
    letter classes with their positions and periods (see _letter_classes):
    the indices, ascending, point into words.

    A word state lies on a cycle exactly when all its letters lie in one
    nontrivial letter class C: the letters of a cycling word lie on one
    letter cycle, and a path inside C from a word's last letter back to its
    first closes the word into a cycle.  Such paths join any two m-words
    over C as well, so C gives exactly one state class, all m-words over C,
    and every other state is trivial.  A state path from one class to
    another spells a letter path between their letter classes, so the
    letter order is a dependency order of the state classes.
    """
    out = []
    for cls, positions, _ in letter_classes:
        # each letter of C lies on a cycle, so some word holds it
        inside = np.zeros(int(words.max()) + 1, dtype=bool)
        inside[list(positions)] = True
        out.append((cls, np.flatnonzero(inside[words].all(axis=1))))
    return out


def _letter_period(succ, vertices, initial, terminal):
    """The period of a nontrivial letter class, the gcd of its cycle lengths,
    from one breadth-first search over its vertex class, vertices, along the
    vertex graph's successor lists succ.  Its levels make level(u) + 1 -
    level(v) zero on tree edges, and the gcd of that over the class's
    letters u -> v (initial, terminal) is the gcd of the closed vertex walks,
    which are its closed letter walks.  The state class of all m-words over
    these letters has the same period: a closed walk of m-word states spells
    a closed letter walk as long, and each closed letter walk, repeated,
    slides an m-letter window back to where it started.
    """
    inside = set(vertices)
    level = [-1] * len(succ)
    level[vertices[0]] = 0
    queue = [vertices[0]]
    for u in queue:
        for v in succ[u]:
            if level[v] < 0 and v in inside:
                level[v] = level[u] + 1
                queue.append(v)
    level = np.array(level)
    return int(np.gcd.reduce(level[initial] + 1 - level[terminal]))


def pressure_spectral(system, potential, k, m=1):
    """Spectral pressure bracket of the truncation at depth m, as the max
    over its strongly connected letter classes, with per-class attribution.

    The inf/sup weight matrices dominate/are dominated by the true cylinder
    potential entrywise, and the spectral radius is monotone in nonnegative
    entries, so log of their radii bracket the pressure.  The state graph
    is block triangular over its strongly connected classes, so its radius
    is the max of theirs.  Each nontrivial letter class gives exactly one
    state class, all m-words over its letters (see _cycling_classes), so
    one bracket per letter class, and the max over them, brackets the max
    of the true component pressures.  components holds (class, lower, upper)
    for every nontrivial letter class, its letters in enumeration order, in
    a dependency order of their vertex classes (see _letter_classes);
    component holds the argmax, the first on an exact tie, which between
    classes no path joins is the one Tarjan finds first.  No nontrivial
    class, even with no m-letter word at all, means no periodic word:
    bracket (-inf, -inf) and no component.  Both ends of a class come from
    one Collatz-Wielandt loop over its two sides (see _cw_bracket), each
    as a loop of its own would give it; when the two matrices are one
    (affine letters) that loop runs one row for both.
    """
    wm = build_weighted_matrix(system, potential, k, m)
    lower = -math.inf
    upper = -math.inf
    best = None
    comps = []
    stalled = False
    s = potential.s
    for plan in wm.geometry.classes:
        brackets = _cw_bracket(plan, s)
        c_lower = _safe_log(brackets[0][0])
        c_upper = _safe_log(brackets[-1][1])
        comps.append((plan.letters, c_lower, c_upper))
        stalled = stalled or any(b[2] for b in brackets)
        if c_upper > upper:
            upper = c_upper
            best = plan.letters
        if c_lower > lower:
            lower = c_lower
    return PressureEstimate(
        lower=lower,
        upper=upper,
        s=potential.s,
        horizon=wm.horizon,
        depth=m,
        scope="truncated",
        stalled=stalled,
        component=best,
        components=tuple(comps),
    )


def _fekete_edge_upper(system, potential, k):
    """(upper, tail_term) for edge-unit tails: log(Lambda + C*T).

    A_l = sum over admissible l-letter words over the truncation of the
    product of per-letter seed sups ** s.  Splitting a word and forgetting
    the junction shows A_{p+q} <= A_p * A_q, so with Lambda = A_{a*}^(1/a*)
    and C = max(1, max_{1<=t<a*} A_t / Lambda**t) every A_l <= C*Lambda**l.
    A word of the full system with j letters beyond the truncation, grouped
    by the positions of those letters with all junction constraints
    dropped, contributes at most (products of run sums) * T**j with T the
    witness tail bound, so

        Z_n <= sum_j binom(n, j) C**(j+1) Lambda**(n-j) (C T)**j / C**j
            <= C (Lambda + C T)**n,

    which bounds every finite subsystem's pressure and hence their
    supremum.  If A_{a*} vanishes (nilpotent truncation) the variant
    Lambda' = max_t A_t^(1/t), C = 1 is used instead.
    """
    letters, ini, ter = system.incidence(k)
    count = len(letters)
    witness = system.tail
    tail = float(witness.bound(count, potential.s))
    if tail < 0.0:
        raise ValueError(f"tail witness returned a negative bound {tail}")
    if not math.isfinite(tail):
        return math.inf, tail
    s = potential.s
    a_star = FEKETE_BLOCK
    weights = system.seed_ranges(count)[1] ** s
    # every vertex a letter ends at gets a sum, though nothing starts there
    nverts = int(ter.max(initial=-1)) + 1

    log_a = []
    x = weights.copy()
    shift = 0.0
    for level in range(1, a_star + 1):
        total = float(x.sum())
        log_a.append(_safe_log(total) + shift if total > 0.0 else -math.inf)
        if level == a_star or total <= 0.0:
            break
        sums = np.bincount(ini, weights=x, minlength=nverts)
        x = weights * sums[ter]
        peak = float(x.max(initial=0.0))
        if peak > 0.0 and not (1e-100 < peak < 1e100):
            x = x / peak
            shift += math.log(peak)

    while len(log_a) < a_star:
        log_a.append(-math.inf)

    if log_a[a_star - 1] > -math.inf:
        log_lam = log_a[a_star - 1] / a_star
        log_c = 0.0
        for t in range(1, a_star):
            log_c = max(log_c, log_a[t - 1] - t * log_lam)
    else:
        log_lam = max(
            (log_a[t - 1] / t for t in range(1, a_star + 1)), default=-math.inf
        )
        log_c = 0.0

    log_tail = _safe_log(tail)
    upper = float(np.logaddexp(log_lam, log_c + log_tail))
    return upper, tail


def _full_upper(system, potential, k, exhausted_upper):
    """(upper, tail_term, divergence) for the untruncated system.

    Finite alphabets that the horizon exhausts need no correction: their
    upper is exhausted_upper, the truncation's own.  Edge-unit witnesses
    get the Fekete-composition bound; any witness may also
    declare a family-proved pressure_upper(s), and the minimum of the
    available certified uppers is reported.  No witness, or no finite route,
    means upper = +inf.
    """
    if _exhausts(system, k):
        return exhausted_upper, 0.0, False
    witness = system.tail
    if witness is None:
        return math.inf, math.inf, False
    s = potential.s
    if witness.diverges_below is not None and s < witness.diverges_below:
        return math.inf, math.inf, True
    candidates = []
    tail_term = math.inf
    # an empty-tail witness only certifies a sum once the horizon covers
    # the whole alphabet, and that case returned above
    if witness.unit == "edge" and witness.kind != "finite":
        upper, tail = _fekete_edge_upper(system, potential, k)
        candidates.append(upper)
        tail_term = tail
    declared = getattr(witness, "pressure_upper", None)
    if declared is not None:
        candidates.append(float(declared(s)))
    if not candidates:
        return math.inf, math.inf, False
    upper = min(candidates)
    if upper == math.inf:
        return math.inf, tail_term, False
    if math.isfinite(tail_term) and upper != candidates[0]:
        # the declared bound won; the edge tail term was not used
        tail_term = 0.0
    if not math.isfinite(tail_term):
        tail_term = 0.0
    return upper, tail_term, False


def truncation_ladder(system, potential, horizons, depth=1):
    """Pressure brackets along nested truncations plus a closing full entry.

    Reported lowers are running maxima over completed stages: a smaller
    truncation is a subsystem of every later one, and each subsystem
    pressure lower-bounds the full pressure, so the running max stays
    certified at every stage and is nondecreasing by construction.  The
    final entry (scope "full") pairs the best lower with the tail-corrected
    upper from the largest horizon, and is stalled when any stage was.
    """
    hs = list(horizons)
    if not hs:
        raise ValueError("need at least one horizon")
    if hs[0] < 1 or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError(f"horizons must be positive and strictly increasing: {hs}")
    out = []
    running = -math.inf
    last = None
    for k in hs:
        est = pressure_spectral(system, potential, k, depth)
        last = est
        if est.lower < running:
            est = replace(est, lower=running)
        else:
            running = est.lower
        out.append(est)
    upper, tail_term, divergence = _full_upper(
        system, potential, hs[-1], exhausted_upper=last.upper
    )
    out.append(
        PressureEstimate(
            lower=running,
            upper=upper,
            s=potential.s,
            horizon=hs[-1],
            depth=depth,
            scope="full",
            divergence=divergence,
            stalled=any(est.stalled for est in out),
            tail_term=tail_term,
            component=last.component,
        )
    )
    return out
