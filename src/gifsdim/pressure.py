"""Certified two-sided brackets for the pressure of derivative-weighted shifts.

Two routes, each valid at every finite stage rather than only in the limit:

* spectral: depth-m word states with interval transition weights; the inf
  and sup weight matrices sandwich the cylinder potential entrywise, so
  their spectral radii (enclosed per strongly connected component by
  Collatz-Wielandt ratios around a power iteration) bracket the pressure.
  The graphs are not strongly connected, so the pressure is the max over
  the components.  The state-level components are read off the
  letter-level ones: each nontrivial letter class gives one, all m-words
  over its letters, and is reported under that letter class.  The
  geometry and each component's Collatz-Wielandt data (class pattern,
  entry positions) do not depend on s and are built once per geometry;
  each exponent only reweights them, and within a solve the iteration
  starts from the previous exponent's scales and iterate.  A class of a
  few hubs joined by chains (the countable ladder's) starts instead from
  its Perron vector, which eliminating the chains gives (see chains.py):
  the ladder's 511-state class at k = 512 then closes in one iteration,
  not about 530, and the bracket still comes only from the iteration's
  ratios.  When every entry's range is a single value (affine letters)
  the two matrices are one, and one iteration gives both sides.  The
  matrices are CsrWeights records of numpy arrays, and each class's power
  iteration multiplies by numpy alone; every matvec sums each row from
  0.0 in ascending column order, one rounded product and one rounded sum
  per entry, exactly as scipy's CSR matvec does, so the bracket of each
  class without chains is bit-identical to the one a scipy matrix gives.
* full-system uppers: countable alphabets are exhausted from below by their
  finite truncations, so every truncated lower stands; uppers for the
  untruncated system fold in the declared tail witness (per-letter bound
  sums for edge-unit tails, a family-proved spectral bound otherwise).
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from . import chains as chainlib
from . import maps as mapslib
from .errors import NoAdmissibleWords
from .graphs import FiniteTransition, strongly_connected_components, word_levels
from .shapes import circumball

__all__ = [
    "PotentialSpec",
    "PressureEstimate",
    "WeightedMatrix",
    "build_weighted_matrix",
    "pressure_spectral",
    "truncation_ladder",
]

CW_TOL = 1e-10
CW_MAX_ITER = 100000
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
    size there is.  epsilon is metadata carried into result records by
    perturbation sweeps; it never changes a weight.
    """

    s: float
    epsilon: object = None

    def __post_init__(self):
        s = self.s
        if not (isinstance(s, (int, float)) and math.isfinite(s) and s >= 0):
            raise ValueError(f"exponent must be finite and nonnegative, got {s!r}")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"perturbation parameter outside (0,1): {self.epsilon!r}")

    @property
    def selector(self):
        # always "norm", the one derivative size; kept only because
        # bench/spans.py (_describe_geometry) keys each traced geometry
        # build on it, and bench/test_bench.py runs that traced solve in the
        # tier-1 suite.  The next benchmark change drops both.
        return "norm"


@dataclass(frozen=True)
class PressureEstimate:
    """Certified pressure bracket plus the knobs that produced it.

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
    epsilon: object = None
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

    def record(self):
        """JSON-style result record with stable key order."""
        rec = {"s": float(self.s)}
        if self.epsilon is not None:
            rec["epsilon"] = float(self.epsilon)
        rec["k"] = self.horizon
        rec["m"] = self.depth
        rec["lower"] = self.lower
        rec["upper"] = self.upper
        rec["scope"] = self.scope
        if self.component is not None:
            rec["component"] = [repr(state) for state in self.component]
        rec["divergence_flag"] = bool(self.divergence)
        if self.stalled:
            rec["stalled"] = True
        return rec


@dataclass(frozen=True, eq=False)
class CsrWeights:
    """One side's transition weights in compressed sparse row (CSR) form.

    Row i holds the weights data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]], ascending; shape is (states, states).
    indices and indptr are the geometry's arrays, shared by both sides and
    every exponent.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)


@dataclass(frozen=True)
class WeightedMatrix:
    """Depth-m word states with inf/sup transition weight matrices.

    States are admissible m-letter words over the materialized alphabet;
    u -> w is admissible when u[1:] == w[:-1] (and the junction matches at
    depth 1).  The entry is the derivative range of u's first letter over
    the enclosure of w (all m maps applied), raised to s, so transition
    products sandwich true cylinder weights: inf products below, sup
    products above.  inf_weights and sup_weights are CsrWeights records
    over the geometry's pattern; the class matvecs of pressure_spectral
    sum each row of them in ascending column order, as a scipy CSR matvec
    does (see _class_matvec).  Everything but the power of s comes from
    geometry, which is s-independent and shared by every exponent a solve
    probes at this horizon and depth.  When the geometry holds one array
    for both sides, sup_weights is inf_weights.
    """

    states: tuple
    inf_weights: object
    sup_weights: object
    depth: int
    horizon: int
    potential: PotentialSpec
    geometry: object


@dataclass(eq=False)
class StateGeometry:
    """The s-independent part of the depth-m word-state matrices.

    letter_graph is the transition structure of the letters and words the
    states as rows of letter positions; from these two _state_classes reads
    off the state classes.  indices/indptr give the CSR pattern of the
    transitions; lower/upper hold, per nonzero in that order, the derivative
    range of the source state's first letter over the enclosure of the
    target state, and are one array when the two coincide elementwise.
    classes caches, once pressure_spectral has computed them, the nontrivial
    state-level strongly connected classes as _ClassPlan objects: each
    class's letter class and size, the positions of its entries among the
    nonzeros and its local CSR pattern, plus the scales and iterate of the
    last probe on each side, from which the next exponent's power iteration
    starts.  A geometry lives at most as long as the solve that built it
    (see _reuse_geometry), so no warm start outlives a solve.  A truncation
    with no m-letter word has a geometry with no states.
    """

    states: tuple
    letter_graph: FiniteTransition
    words: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    classes: tuple = None


def _letter_transition(system, letters):
    """FiniteTransition over exactly these letters (enumeration order)."""
    g = system.graph
    by_initial = {}
    for j, f in enumerate(letters):
        by_initial.setdefault(g.initial(f), []).append(j)
    succ = [by_initial.get(g.terminal(e), []) for e in letters]
    return FiniteTransition(list(letters), succ)


def _vertex_incidence(system, letters):
    """(vertex count, initial, terminal): the vertices the letters touch,
    numbered in order of first appearance, and each letter's endpoints as
    arrays of those numbers."""
    g = system.graph
    verts = {}
    for e in letters:
        for v in (g.initial(e), g.terminal(e)):
            verts.setdefault(v, len(verts))
    ini = np.array([verts[g.initial(e)] for e in letters], dtype=int)
    ter = np.array([verts[g.terminal(e)] for e in letters], dtype=int)
    return len(verts), ini, ter


def _exhausts(system, k):
    """Whether the first k letters are the whole (finite) alphabet."""
    return system.is_finite and len(system.letters(2 * k + 16)) == len(system.letters(k))


def _build_geometry(system, letters, m):
    """States, CSR pattern and derivative ranges as float64 arrays, built
    one word length at a time with a Python loop over letters only."""
    letter_graph = _letter_transition(system, letters)
    adj = letter_graph.dense
    levels = word_levels(adj, m)
    words, tails, blocks = levels[-1]
    picked = np.fromiter(letters, dtype=object, count=len(letters))
    states = tuple(map(tuple, picked[words].tolist()))

    # u -> w exactly when w = u[1:] + c with c allowed after u's last letter.
    # At depth >= 2 the words extending one (m-1)-word form a contiguous block
    # of the lexicographic level, so each row's successors are a range.
    n_succ = adj.sum(axis=1)
    count = n_succ[words[:, -1]]
    indptr = np.concatenate(([0], np.cumsum(count))).astype(np.int32)
    if m == 1:
        indices = np.flatnonzero(adj) % len(letters)
    else:
        ext = n_succ[levels[-2][0][:, -1]]
        starts = (np.cumsum(ext) - ext)[tails] - indptr[:-1]
        indices = np.repeat(starts, count) + np.arange(indptr[-1])
    indices = indices.astype(np.int32)

    specs = [system.map_of(e) for e in letters]
    moebius = [isinstance(f, mapslib._MOEBIUS_KINDS) for f in specs]
    if any(moebius):
        # the enclosure disk of every word, level by level: a word's disk is
        # its tail's disk mapped through its first letter
        cx, cy, r = np.array([
            (*ball.center, ball.radius)
            for ball in (circumball(system.seed_image(e)[0]) for e in letters)
        ]).T
        for _, tails_j, blocks_j in levels[1:]:
            disks = np.empty((3, len(tails_j)))
            for a, spec in enumerate(specs):
                rows = slice(blocks_j[a], blocks_j[a + 1])
                t = tails_j[rows]
                disks[:, rows] = mapslib.disk_image(spec, cx[t], cy[t], r[t])
            cx, cy, r = disks

    lower, upper = np.empty((2, len(indices)))
    for a, spec in enumerate(specs):
        nz = slice(indptr[blocks[a]], indptr[blocks[a + 1]])
        if moebius[a]:
            t = indices[nz]
            lower[nz], upper[nz] = mapslib.moebius_derivative_range(
                spec, cx[t], cy[t], r[t]
            )
        else:
            # an affine range does not depend on the set it ranges over
            rng = mapslib.derivative_range_over_set(spec, None)
            lower[nz], upper[nz] = rng.lower, rng.upper

    if np.array_equal(lower, upper):
        # one array for both sides tells the spectral layer that one power
        # iteration serves both
        upper = lower
    arrays = (words, indices, indptr, lower, upper)
    # the matrices of every exponent share these arrays
    for arr in arrays:
        arr.flags.writeable = False
    return StateGeometry(states, letter_graph, *arrays)


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
    (dropping the old) when any of them moves.  The solve entry points wrap
    themselves in this, so no geometry outlives the solve that built it.
    Outside any block every call builds afresh.
    """
    token = _SOLVE_GEOMETRY.set(_GeometrySlot())
    try:
        yield
    finally:
        _SOLVE_GEOMETRY.reset(token)


def _geometry(system, letters, m):
    slot = _SOLVE_GEOMETRY.get()
    if slot is None:
        return _build_geometry(system, letters, m)
    key = (tuple(letters), m)
    if slot.system is not system or slot.key != key:
        # drop the old geometry before building its successor, and leave
        # the slot empty should the build raise
        slot.system = slot.key = slot.geometry = None
        slot.geometry = _build_geometry(system, letters, m)
        slot.system, slot.key = system, key
    return slot.geometry


def build_weighted_matrix(system, potential, k, m=1):
    """Assemble the depth-m word-state transition matrices over letters(k).

    The geometry (states, CSR pattern, derivative ranges) does not depend on
    s.  Within one solve (bowen_dimension, lower_estimate, upper_estimate)
    it is built once per horizon and depth, and later calls only raise each
    range to potential.s; outside a solve every call builds it afresh.
    No letter within the horizon raises NoAdmissibleWords; letters with no
    m-letter word give matrices with no states.
    """
    if m < 1:
        raise ValueError(f"refinement depth must be >= 1, got {m}")
    letters = system.letters(k)
    if not letters:
        raise NoAdmissibleWords(f"no letters within horizon {k}")
    geom = _geometry(system, letters, m)
    s = potential.s
    shape = (len(geom.states), len(geom.states))
    # np.float_power rounds as x**s does (libm pow per element); np.power's
    # vector kernels can differ from it in the last ulp
    inf_mat = CsrWeights(
        np.float_power(geom.lower, s), geom.indices, geom.indptr, shape
    )
    if geom.upper is geom.lower:
        sup_mat = inf_mat
    else:
        sup_mat = CsrWeights(
            np.float_power(geom.upper, s), geom.indices, geom.indptr, shape
        )
    return WeightedMatrix(
        states=geom.states,
        inf_weights=inf_mat,
        sup_weights=sup_mat,
        depth=m,
        horizon=len(letters),
        potential=potential,
        geometry=geom,
    )


def _equilibrate_scales(plan, logw, d):
    """Diagonal scales from a max-plus eigenvector estimate, iterated from d.

    Long-chain systems have Perron vectors spanning thousands of orders of
    magnitude, far past float64, which zeroes components of the power
    iterate.  Conjugating by a positive diagonal preserves the spectrum and
    every Collatz-Wielandt certificate, so a partially converged estimate
    is still safe; quality only affects conditioning.  logw holds the
    class's log-weights in plan order.  A maximum is exact in any order,
    so a plan stored b-major takes its row maxima with one reduction.
    """
    nstates = len(d)
    for _ in range(min(nstates, 512)):
        terms = logw + d[plan.col]
        if plan.fan:
            # entry b*n + i lies in row i
            nxt = np.maximum.reduce(terms.reshape(plan.fan, nstates), axis=0)
        else:
            nxt = np.full(nstates, -np.inf)
            np.maximum.at(nxt, plan.row, terms)
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
    the number of those words.

    positions picks the class's entries out of the geometry's nonzeros in
    the order the class matvec reads them (see _class_matvec); row/col are
    their local coordinates (intp, which numpy's gathers, np.bincount and
    np.maximum.at take without a per-call conversion).  fan selects the
    matvec form.  It is |C| when the class has the pattern of all m-words
    over a letter class C in which every letter may follow every other:
    with R = n/|C|, row a*R + r (a letter a, an (m-1)-word r) then holds
    exactly the columns r*|C| + b, b = 0..|C|-1, and the entries are stored
    b-major, (b, a, r).  Any other class has fan 0 and its entries in CSR
    order (rows, then ascending columns).  Either way each row's entries
    are summed in ascending column order, as scipy's csr_matvec sums them.
    Entries that vanish at some exponent stay in the pattern as explicit
    zeros, which leave every positive row sum's bits unchanged.  chains
    holds a fan-0 class's hubs and chains (chains.HubChains) when it has
    at most chains.HUB_MAX hubs, and is None otherwise; _cw_bracket then
    starts from the Perron vector that eliminating the chains gives.
    Complete-pattern classes never take that route.  warm holds, per side
    (0 inf, 1 sup), the exponent, scales and final iterate of the last
    probe; side 1 stays unused while the two sides are one array.
    """

    letters: tuple
    size: int
    positions: np.ndarray
    row: np.ndarray
    col: np.ndarray
    fan: int
    chains: object = None
    warm: list = field(default_factory=lambda: [None, None])


def _class_plan(geom, letters, idx):
    """The _ClassPlan of the class whose state indices, ascending, are idx,
    labelled by its letter class.

    The geometry's rows list their columns in ascending order, and local
    indices keep that order, so taking the class's entries row by row gives
    the class matrix's CSR order; a class with the complete pattern is then
    reordered b-major, and any other class gets its chains.
    """
    local = np.full(len(geom.states), -1)
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
        # CSR entry i*fan + b moves to b*n + i
        order = entry.reshape(n, fan).T.ravel()
        return _ClassPlan(letters, n, positions[order], row[order], col[order], fan)
    return _ClassPlan(letters, n, positions, row, col, 0,
                      chainlib.hub_chains(n, row, col))


def _class_matvec(plan, data):
    """v -> B v for the class matrix B whose entries, in plan order, are data.

    Each row is summed from 0.0 over its entries in ascending column order,
    one rounded multiply and one rounded add per entry, as scipy's
    csr_matvec does, so both forms are bit-identical to it.  With fan =
    |C|, data viewed as W[b, a, r] is the weight of a*R + r -> r*|C| + b;
    it is multiplied by v[r*|C| + b], broadcast over a, and reduced over b,
    the outermost axis, which numpy adds in sequence.  Any other class
    scatters data * v[col] with np.bincount, which adds in entry order.
    The returned function reuses its output array.
    """
    n, c = plan.size, plan.fan
    if not c:
        row, col = plan.row, plan.col
        return lambda v: np.bincount(row, weights=data * v[col], minlength=n)
    r = n // c
    weights = data.reshape(c, c, r)
    terms = np.empty((c, c, r))
    out = np.empty(n)

    def matvec(v):
        np.multiply(weights, v.reshape(r, c).T[:, None, :], out=terms)
        np.add.reduce(terms, axis=0, out=out.reshape(c, r))
        return out

    return matvec


def _cw_bracket(plan, side, weights, s):
    """Certified spectral-radius bracket for one class matrix.

    weights holds one side's entries in the geometry's nonzero order.
    Power iteration on I + B/theta (the shift keeps iterates strictly
    positive and defeats periodicity).  Every iterate gives Collatz-
    Wielandt bounds min_i (Mv)_i/v_i <= rho(M) <= max_i (Mv)_i/v_i -- the
    lower via a nonnegative left Perron vector u (u(Mv) >= min_ratio * uv
    and uv > 0 since v > 0), the upper likewise -- so the running
    intersection over iterations stays certified for any positive start
    and any positive conjugation.  A probe after one at a positive s_prev
    on the same side starts the scale search from (s / s_prev) times the
    old scales (the max-plus eigenvector of s*L is s times that of L) and
    the power iteration from the old iterate; otherwise it starts cold,
    from zero scales and v = 1.  A class with chains takes as its scales
    the log Perron vector that eliminating them gives (chains.perron_log)
    and starts from v = 1: the same iteration as one started from that
    vector, while every entry stays within its row sum, about rho, where
    the vector itself may span past float64.  That start reads no warm
    state; the stored scales and iterate only serve a probe where the
    elimination fails.  The iteration stops once the bracket is CW_TOL
    wide, or stalls after CW_MAX_ITER steps.  Returns (lo, hi, stalled,
    iterations).
    """
    tol, max_iter = CW_TOL, CW_MAX_ITER
    nstates = plan.size
    with np.errstate(divide="ignore"):
        logw = np.log(weights[plan.positions])
    if logw.max() == -np.inf:
        return 0.0, 0.0, False, 0
    warm = plan.warm[side]
    logv = None
    if plan.chains is not None:
        logv = chainlib.perron_log(plan.chains, plan.row, logw)
    if logv is not None:
        d = logv
        v = np.ones(nstates)
    elif warm is not None and warm[0] > 0.0:
        s_prev, d, v = warm
        d = _equilibrate_scales(plan, logw, (s / s_prev) * d)
        v = v.copy()  # the loop below reuses its iterates' storage
    else:
        d = _equilibrate_scales(plan, logw, np.zeros(nstates))
        v = np.ones(nstates)
    data = np.exp(logw + d[plan.col] - d[plan.row])
    if not np.isfinite(data).all():
        d = np.zeros(nstates)
        data = np.exp(logw)
    theta = float(data.max())
    matvec = _class_matvec(plan, data / theta)
    # w, the ratios and the next iterate are buffers, and the reductions
    # skip ndarray.min/max's Python wrapper
    w, ratios, nxt = np.empty(nstates), np.empty(nstates), np.empty(nstates)
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    best_lo = 0.0
    best_hi = math.inf
    stalled = True
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.add(matvec(v), v, out=w)
        np.divide(w, v, out=ratios)
        cur_lo = float(lowest(ratios))
        cur_hi = float(highest(ratios))
        if cur_lo > best_lo:
            best_lo = cur_lo
        if cur_hi < best_hi:
            best_hi = cur_hi
        if best_hi - best_lo <= tol:
            stalled = False
            break
        # the floor keeps v strictly positive even if a component still
        # underflows; any positive test vector certifies, just loosely
        np.divide(w, highest(w), out=nxt)
        np.maximum(nxt, 1e-300, out=nxt)
        v, nxt = nxt, v
    plan.warm[side] = (s, d, v)
    lo = max(best_lo - 1.0, 0.0) * theta
    hi = max(best_hi - 1.0, 0.0) * theta
    if lo > hi:
        lo = hi
    return lo, hi, stalled, iterations


def _cycling_classes(letter_graph, words):
    """(letter class, indices) of each nontrivial state class of the word
    states, in the dependency order of the letter classes: the indices,
    ascending, point into words.

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
    for cls in strongly_connected_components(letter_graph).nontrivial_classes():
        inside = np.zeros(letter_graph.n, dtype=bool)
        inside[[letter_graph.index[e] for e in cls]] = True
        out.append((cls, np.flatnonzero(inside[words].all(axis=1))))
    return out


def _state_classes(geom):
    """Nontrivial state classes of geom in dependency order, each as its
    _ClassPlan; computed on first use and kept on the geometry, so the
    plans and their warm starts live exactly as long as the geometry.  The
    classes come from the k letters, not from a search over the states
    (see _cycling_classes)."""
    if geom.classes is None:
        geom.classes = tuple(
            _class_plan(geom, cls, idx)
            for cls, idx in _cycling_classes(geom.letter_graph, geom.words)
        )
    return geom.classes


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
    of the true component pressures.  component holds the argmax letter
    class (first in dependency order on ties); components holds (class,
    lower, upper) for every nontrivial letter class, its letters in
    enumeration order.  No nontrivial class, even with no m-letter word at
    all, means no periodic word: bracket (-inf, -inf) and no component.
    When the two matrices are one (affine letters) a single iteration per
    class gives both ends, exactly as two would.
    """
    wm = build_weighted_matrix(system, potential, k, m)
    lower = -math.inf
    upper = -math.inf
    best = None
    comps = []
    stalled = False
    s = potential.s
    shared = wm.sup_weights is wm.inf_weights
    for plan in _state_classes(wm.geometry):
        lo_inf, hi_sup, st_a, _ = _cw_bracket(plan, 0, wm.inf_weights.data, s)
        st_b = False
        if not shared:
            _, hi_sup, st_b, _ = _cw_bracket(plan, 1, wm.sup_weights.data, s)
        c_lower = _safe_log(lo_inf)
        c_upper = _safe_log(hi_sup)
        comps.append((plan.letters, c_lower, c_upper))
        stalled = stalled or st_a or st_b
        if c_upper > upper:
            upper = c_upper
            best = plan.letters
        if c_lower > lower:
            lower = c_lower
    return PressureEstimate(
        lower=lower,
        upper=upper,
        s=potential.s,
        epsilon=potential.epsilon,
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
    letters = system.letters(k)
    count = len(letters)
    witness = system.tail
    tail = float(witness.bound(count, potential.s))
    if tail < 0.0:
        raise ValueError(f"tail witness returned a negative bound {tail}")
    if not math.isfinite(tail):
        return math.inf, tail
    g = system.graph
    s = potential.s
    a_star = FEKETE_BLOCK
    weights = np.array(
        [
            mapslib.derivative_range_over_set(
                system.map_of(e), system.seed(g.terminal(e)).seed
            ).upper
            for e in letters
        ]
    )
    weights = weights**s if s != 0.0 else np.ones_like(weights)

    nverts, ini, ter = _vertex_incidence(system, letters)

    log_a = []
    x = weights.copy()
    shift = 0.0
    for level in range(1, a_star + 1):
        total = float(x.sum())
        log_a.append(_safe_log(total) + shift if total > 0.0 else -math.inf)
        if level == a_star or total <= 0.0:
            break
        sums = np.zeros(nverts)
        np.add.at(sums, ini, x)
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
    upper from the largest horizon.
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
            epsilon=potential.epsilon,
            horizon=hs[-1],
            depth=depth,
            scope="full",
            divergence=divergence,
            tail_term=tail_term,
            component=last.component,
        )
    )
    return out
