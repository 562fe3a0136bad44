"""System assembly and structural checks.

A system couples a directed multigraph with one compact seed ball plus open
working neighborhood ball per vertex and one contraction map per edge (the
map carries points of the terminal vertex's seed into the initial vertex's
seed).  This module validates the defining conditions, certifies separation
of sibling edge images, estimates summability thresholds for infinite
alphabets, and reduces multigraph systems to simple ones.

Symbolic conventions used throughout the package: words are tuples of EDGE
labels read left to right; a word (e0, ..., en) is admissible when
terminal(e_i) == initial(e_{i+1}); its enclosure is the set
T_{e0} o ... o T_{en} (seed of terminal(e_n)), a ball, since every
supported map family sends balls onto balls.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import maps as mapslib
from .errors import (
    ConditionViolation,
    DomainViolation,
    NonAdmissibleWord,
    UnsupportedShape,
)
from .graphs import DirectedMultigraph, Enumeration, extend_words
from .shapes import GEOM_TOL, Ball, interior_margin, overlap_witness_point

DEFAULT_VERTEX_HORIZON = 64
DEFAULT_EDGE_HORIZON = 4096
# most letter pairs a depth-2 contraction certificate composes
PAIR_BUDGET = 300000
# relative slack between consecutive partial-sum increments that a
# divergent summability verdict still accepts as nondecreasing
INCREMENT_TOL = 0.05
# width at which summability_interval stops bisecting the threshold
SUMMABILITY_RESOLUTION = 1e-3
# report status of each separation verdict, one to one
SEPARATION_STATUS = {
    "certified-separated": "satisfied",
    "overlap-witness": "violated",
    "inconclusive": "inconclusive",
}


@dataclass(frozen=True)
class SeedSet:
    """Compact seed plus open working neighborhood of one vertex, both
    balls."""

    vertex: object
    seed: Ball
    neighborhood: Ball

    def __post_init__(self):
        for shape in (self.seed, self.neighborhood):
            if not isinstance(shape, Ball):
                raise UnsupportedShape(f"seeds are balls, not {type(shape).__name__}")


@dataclass(frozen=True)
class ContractionBound:
    """Uniform contraction certificate.

    depth=1: every edge map has derivative sup <= rate < 1 on the working
    neighborhoods.  depth=2: only pairwise compositions are certified below
    rate; single steps may reach 1.  effective_rate is the per-step decay
    usable in geometric estimates (rate, or sqrt(rate) at depth 2) and
    comparison >= 1 is the constant in sup-of-n-step-products <=
    comparison * effective_rate**n.  A rate of 0 says that every map (depth
    1) or every admissible composition of two (depth 2) is constant, so
    every product of that many steps or more has derivative 0.
    """

    depth: int
    rate: float
    effective_rate: float
    comparison: float

    def __post_init__(self):
        if self.depth not in (1, 2):
            raise ValueError("depth must be 1 or 2")
        if not (0.0 <= self.rate < 1.0):
            raise ValueError(f"rate {self.rate} outside [0,1)")


@dataclass(frozen=True)
class TailWitness:
    """Family-declared bound on sums beyond a horizon.

    unit: "vertex" sums per-vertex out-edge sups (simple systems), "edge"
    sums per-edge sups.  bound(k, s) must upper-bound the sum of unit terms
    strictly beyond the first k units of the enumeration, or +inf when no
    finite bound is available at that exponent.  diverges_below marks the
    exponent under which the full sum provably diverges (None if unknown).
    pressure_upper, when set, is a callable s -> certified upper bound for
    the untruncated pressure; families prove it by hand, see the scenario
    docstrings.
    """

    kind: str
    unit: str
    bound: object
    diverges_below: float = None
    description: str = ""
    pressure_upper: object = None

    def __post_init__(self):
        if self.unit not in ("vertex", "edge"):
            raise ValueError(f"unknown unit {self.unit}")


def finite_tail(unit="edge"):
    return TailWitness(
        kind="finite",
        unit=unit,
        bound=lambda k, s: 0.0,
        diverges_below=None,
        description="finite alphabet, empty tail",
    )


class GifsSystem:
    """Graph plus seeds plus edge maps, with one letter-incidence table (see
    incidence), from which the letter graph of every truncation, out_edges
    and the Fekete tail bound read the letters' endpoints, and beside it one
    letter table (see letter_table, seed_disks and seed_ranges) of each
    letter's map family, normal form, seed range and seed-image disk, which
    every state geometry gathers from and seed_image and letter_range read.
    Both tables grow over the same rows and never shrink, so each letter's
    row is filled once per system, however many horizons a solve steps
    through; letters(count) materializes its letters in the incidence
    table.  Only the ranges over neighborhoods are cached per letter.

    seeds/maps may be dicts (finite systems) or callables (countable ones).
    contraction, when given, is a declared ContractionBound that the
    condition checks take in place of certifying one: they re-check a
    depth-1 rate against each letter's neighborhood sup and report a
    depth-2 rate as given.  tail is the TailWitness of a countable alphabet.
    vertex_bound, when given, must return sup over ALL out-edges of a vertex
    of the derivative sup on the terminal seed; it is required for vertices
    of infinite out-degree.
    edge_horizon_cap bounds the letters any horizon materializes.  A finite
    alphabet, item-listed or declared by a finite_tail, must fit under it,
    since a solve takes its capped horizon as the whole system
    (ConditionViolation otherwise).
    The system carries no distortion constants: every map family is
    conformal, so bounded distortion follows from uniform contraction on
    pole-free neighborhoods (Mauldin and Urbanski, Graph Directed Markov
    Systems, 2003), and no bracket reads a distortion constant.
    """

    def __init__(self, graph, seeds, maps, ambient_dim, contraction=None,
                 tail=None, vertex_bound=None,
                 name="system", reduction=None, edge_horizon_cap=None):
        self.graph = graph
        self._seed_fn = seeds.__getitem__ if hasattr(seeds, "__getitem__") else seeds
        self._map_fn = maps.__getitem__ if hasattr(maps, "__getitem__") else maps
        self.ambient_dim = int(ambient_dim)
        self.contraction = contraction
        self.tail = tail
        self.vertex_bound = vertex_bound
        self.name = name
        self.reduction = reduction
        # deepest materialization that stays inside float64 (seed radii or
        # map ratios of countable families can underflow); None = no cap
        self.edge_horizon_cap = edge_horizon_cap
        finite = graph.edges.is_finite or (tail is not None and tail.kind == "finite")
        if (edge_horizon_cap is not None and finite
                and len(graph.edge_prefix(edge_horizon_cap + 1)) > edge_horizon_cap):
            raise ConditionViolation(
                f"edge_horizon_cap {edge_horizon_cap} cuts a finite alphabet "
                f"of more than {edge_horizon_cap} letters")
        self._seed_cache = {}
        self._map_cache = {}
        self._range_cache = {}
        # the letter-incidence table (see incidence), with each letter's row
        self._letters = []
        self._rows = {}
        self._covered = 0
        self._vertex_ids = {}
        self._initial = self._terminal = np.zeros(0, dtype=np.intp)
        self._out_groups = None
        # the letter table (see letter_table), over the incidence table's
        # first rows; each column fills when first read, and keeps the
        # error of each letter whose row raised (see _filled)
        self._moebius = np.zeros(0, dtype=bool)
        self._forms = np.zeros((mapslib.FORM_SIZE, 0))
        self._columns = {"disks": np.zeros((3, 0)), "ranges": np.zeros((2, 0))}
        self._faults = {"disks": {}, "ranges": {}}

    # ---- basic accessors -------------------------------------------------

    def seed(self, v):
        if v not in self._seed_cache:
            got = self._seed_fn(v)
            if not isinstance(got, SeedSet):
                raise TypeError(f"seed callback returned {type(got).__name__}")
            self._seed_cache[v] = got
        return self._seed_cache[v]

    def map_of(self, e):
        if e not in self._map_cache:
            self._map_cache[e] = self._map_fn(e)
        return self._map_cache[e]

    def letters(self, count):
        n = self._cover(count)
        return self._letters[:n]

    def clamp_edges(self, count):
        if self.edge_horizon_cap is None:
            return count
        return min(count, self.edge_horizon_cap)

    def vertices_prefix(self, count):
        return self.graph.vertex_prefix(count)

    @property
    def is_finite(self):
        return self.graph.edges.is_finite

    # ---- derivative data -------------------------------------------------

    def letter_range(self, e, on="seed"):
        """Certified derivative range of the edge map over the terminal
        vertex's seed (default), the letter's row of seed_ranges (see
        _letter_row), or over its neighborhood, cached per letter.  An
        affine range is |lin| on any set, so only a Moebius letter reads
        the seed."""
        if on == "seed":
            moebius, (lower, upper) = self._letter_row("ranges", e)
            return mapslib.DerivativeRange(lower, upper, degenerate=not moebius and upper == 0.0)
        if e not in self._range_cache:
            spec = self.map_of(e)
            shape = None
            if isinstance(spec, mapslib._MOEBIUS_KINDS):
                shape = self.seed(self.graph.terminal(e)).neighborhood
            self._range_cache[e] = mapslib.derivative_range_over_set(spec, shape)
        return self._range_cache[e]

    def seed_image(self, e):
        """The ball T_e(seed of terminal): the letter's row of seed_disks
        (see _letter_row)."""
        _, (cx, cy, r) = self._letter_row("disks", e)
        return Ball((cx, cy)[:self.seed(self.graph.terminal(e)).seed.dim], r)

    def enclosure(self, word):
        """The ball of the cylinder of an edge word."""
        if not word:
            raise NonAdmissibleWord("empty word")
        for a, b in zip(word, word[1:]):
            if self.graph.terminal(a) != self.graph.initial(b):
                raise NonAdmissibleWord(f"{a} cannot precede {b}")
        shape = self.seed(self.graph.terminal(word[-1])).seed
        for e in reversed(word):
            shape = mapslib.image_enclosure(self.map_of(e), shape)
        return shape

    # ---- letter incidence over a materialized horizon --------------------

    def incidence(self, count):
        """(letters, initial, terminal): letters(count) and each letter's
        initial and terminal vertex, as int arrays of vertex numbers.  One
        table serves every count: it covers the largest count asked for so
        far and only grows, appending rows, and vertices are numbered in
        order of first appearance along the enumeration, so the arrays for
        a count are that table's first rows whatever was asked before."""
        n = self._cover(count)
        return self._letters[:n], self._initial[:n], self._terminal[:n]

    def _cover(self, count):
        """The number of letters in letters(count), once the incidence table
        covers them."""
        count = self.clamp_edges(count)
        if count > self._covered:
            self._covered = count
            letters, known = self.graph.edge_prefix(count), len(self._letters)
            if len(letters) > known:
                g, ids = self.graph, self._vertex_ids
                rows = np.array([(ids.setdefault(g.initial(e), len(ids)),
                                  ids.setdefault(g.terminal(e), len(ids)))
                                 for e in letters[known:]], dtype=np.intp)
                self._letters = letters
                self._rows.update(zip(letters[known:], range(known, len(letters))))
                self._initial = _grown(self._initial, rows[:, 0])
                self._terminal = _grown(self._terminal, rows[:, 1])
                # the table's positions grouped by initial vertex, ascending
                order = np.argsort(self._initial, kind="stable").tolist()
                ends = np.cumsum(np.bincount(self._initial, minlength=len(ids))).tolist()
                self._out_groups = [order[a:b] for a, b in zip([0] + ends, ends)]
        return min(count, len(self._letters))

    # ---- the letter table over a materialized horizon --------------------

    def letter_table(self, count):
        """(moebius, forms) of letters(count): each letter's map family,
        True for a Moebius map, and its normal form (maps._map_form) as a
        column of a (FORM_SIZE, n) array.  Like the incidence table it
        covers the largest count asked for so far and only grows, each
        letter's row filled once, and the arrays for a count are read-only
        views of its first rows."""
        return self._table(self._cover(count))

    def _table(self, n):
        """letter_table over the incidence table's first n rows."""
        known = len(self._moebius)
        if n > known:
            rows = [mapslib._map_form(self.map_of(e)) for e in self._letters[known:n]]
            self._moebius = _grown(self._moebius, np.array([m for m, _ in rows], dtype=bool))
            self._forms = _grown(self._forms, np.array([f for _, f in rows]).T)
        return self._moebius[:n], self._forms[:, :n]

    def seed_disks(self, count):
        """(3, n) array of the seed images of letters(count): the disks (cx,
        cy, r) of T_e(seed of terminal(e)), cy 0 on the line (see
        _seed_rows), each letter's computed once; raises the error of the
        first letter whose image raised."""
        return self._column("disks", self._cover(count))

    def seed_ranges(self, count):
        """(2, n) array of the derivative ranges (lower, upper) of
        letters(count) on their terminal seeds (see _seed_rows), each
        letter's computed once; raises the error of the first letter whose
        range raised."""
        return self._column("ranges", self._cover(count))

    def _column(self, name, n):
        """The column name over the table's first n rows (see _filled),
        raising the error of the first of those letters whose row raised."""
        column = self._filled(name, n)
        for i, err in self._faults[name].items():
            if i < n:
                raise err.with_traceback(None)
        return column[:, :n]

    def _letter_row(self, name, e):
        """(moebius, row) of letter e: its map family and its row of the
        letter table's column name (see _filled) as floats, the column
        first filled over the whole incidence table, which first grows until
        it holds e (see _row).  A row that raised raises again."""
        i = self._row(e)
        column = self._filled(name, len(self._letters))
        if i in self._faults[name]:
            raise self._faults[name][i].with_traceback(None)
        return bool(self._moebius[i]), column[:, i].tolist()

    def _row(self, e):
        """Letter e's row of the incidence table, which grows, doubling its
        letter count, until it holds e.  Raises NonAdmissibleWord once the
        alphabet, or the edge_horizon_cap, ends without e; on an uncapped
        countable alphabet e must be a letter."""
        i = self._rows.get(e)
        while i is None:
            count = 2 * max(self._covered, 32)
            ended = self._cover(count) < count
            i = self._rows.get(e)
            if i is None and ended:
                raise NonAdmissibleWord(f"{e!r} is not a letter of {self.name}")
        return i

    def _filled(self, name, n):
        """The column name ("disks" or "ranges") of the letter table, filled
        over its first n rows: each letter's row computed once, all of them
        with one _seed_rows call.  Should that call raise, a letter whose own
        row raises fails alone: the rows are then computed one by one, and
        each error is kept in _faults, its row left NaN."""
        column = self._columns[name]
        known = column.shape[1]
        if n > known:
            try:
                rows = self._seed_rows(name, known, n)
            except (DomainViolation, UnsupportedShape):
                rows = np.full((len(column), n - known), np.nan)
                for i in range(known, n):
                    try:
                        rows[:, i - known] = self._seed_rows(name, i, i + 1)[:, 0]
                    except (DomainViolation, UnsupportedShape) as err:
                        self._faults[name][i] = err
            column = self._columns[name] = _grown(column, rows)
        return column

    def _seed_rows(self, name, a, b, on="seed"):
        """The column name's rows a to b of the letter table: the letters'
        seed-image disks (maps.disk_images) or seed ranges
        (maps.derivative_ranges), with one kernel call per family, or the
        same over their terminal neighborhoods when on is "neighborhood".  A
        range reads no affine letter's set."""
        moebius, forms = self._table(b)
        moebius, forms, labels = moebius[a:], forms[:, a:], list(self._vertex_ids)
        flags = moebius.tolist()
        seeds = [getattr(self.seed(labels[v]), on) if m or name == "disks" else None
                 for v, m in zip(self._terminal[a:b].tolist(), flags)]
        if any(m and ball.dim != 2 for m, ball in zip(flags, seeds)):
            raise UnsupportedShape("Moebius maps act on the plane")
        disks = np.array([(*mapslib._on_plane(ball.center), ball.radius) if ball else (0.0,) * 3
                          for ball in seeds]).T
        kernel = mapslib.disk_images if name == "disks" else mapslib.derivative_ranges
        return kernel(moebius, forms, disks)

    def out_edges(self, v, horizon_edges=DEFAULT_EDGE_HORIZON):
        """The out-letters of v among letters(horizon_edges), in enumeration
        order: v's group of the incidence table's positions, below the
        letter count."""
        n = self._cover(horizon_edges)
        i = self._vertex_ids.get(v)
        if i is None:
            return []
        return [self._letters[j] for j in self._out_positions(i, n)]

    def _out_positions(self, i, n):
        """The incidence table's positions below n of the out-letters of
        vertex number i, ascending."""
        positions = self._out_groups[i]
        return positions[:bisect_left(positions, n)]

    def vertex_sup(self, v, horizon_edges=DEFAULT_EDGE_HORIZON):
        """sup over out-edges of the derivative sup on the terminal seed;
        the declared vertex_bound wins (it covers unmaterialized edges)."""
        if self.vertex_bound is not None:
            return float(self.vertex_bound(v))
        outs = self.out_edges(v, horizon_edges)
        if not outs:
            return None
        return max(self.letter_range(e).upper for e in outs)


def _grown(table, rows):
    """table with rows appended along its last axis, read-only."""
    table = np.concatenate((table, rows), axis=-1)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# contraction certificates


def contraction_certificate(system, horizon_edges=DEFAULT_EDGE_HORIZON):
    """Certify uniform contraction on working neighborhoods over the
    materialized edges: depth 1 when the plain sup is below 1, else depth 2
    via pairwise composition bounds sup||(T_e o T_f)'|| <=
    sup_{T_f(O)}||T_e'|| * sup_O||T_f'|| over the admissible pairs (e, f),
    the depth-2 words of graphs.extend_words, if at most PAIR_BUDGET: one
    maps.disk_images call maps every O, and one maps.derivative_ranges call
    ranges every pair."""
    letters, initial, terminal = system.incidence(horizon_edges)
    if not letters:
        raise ConditionViolation("no edges to certify")
    sups = np.array([system.letter_range(e, on="neighborhood").upper for e in letters])
    r1 = float(sups.max())
    if r1 < 1.0:
        return ContractionBound(1, r1, r1, 1.0)
    # T_e o T_f is admissible when f starts where e ends
    pairs = int(np.bincount(initial, minlength=int(terminal.max()) + 1)[terminal].sum())
    if pairs > PAIR_BUDGET:
        raise ConditionViolation(f"pair budget {PAIR_BUDGET} exceeded by {pairs} letter pairs")
    images = system._seed_rows("disks", 0, len(letters), on="neighborhood")
    moebius, forms = system.letter_table(len(letters))
    e, f = extend_words(initial, terminal, np.arange(len(letters))[:, None])[0].T
    _, inner = mapslib.derivative_ranges(moebius[e], forms[:mapslib.RANGE_ROWS, e], images[:, f])
    rho = float((inner * sups[f]).max(initial=0.0))
    if rho >= 1.0:
        raise ConditionViolation(f"no contraction at depth 2: pairwise bound {rho:.6g} >= 1")
    if rho == 0.0:
        # every admissible pair composes to a constant map
        return ContractionBound(2, 0.0, 0.0, 1.0)
    eff = math.sqrt(rho)
    # a product of an odd number n of steps is one step, sup r1, after
    # (n - 1) / 2 pairs, so comparison * eff**n must reach r1 * eff**(n - 1)
    return ContractionBound(2, rho, eff, max(1.0, math.nextafter(r1 / eff, math.inf)))


# ---------------------------------------------------------------------------
# condition validation


@dataclass(frozen=True)
class CheckEntry:
    status: str          # satisfied | violated | inconclusive | skipped
    detail: str
    witness: object = None


@dataclass(frozen=True)
class ConditionReport:
    """Check entries by name; separation is the strong (SSC) report of the
    one separation sweep, the one behind the separation-strong entry."""

    checks: dict
    horizon_vertices: int
    horizon_edges: int
    separation: SeparationReport

    @property
    def passed(self):
        return all(c.status != "violated" for c in self.checks.values())


@dataclass(frozen=True)
class SeparationReport:
    mode: str            # "SSC" or "OSC"
    verdict: str         # certified-separated | overlap-witness | inconclusive
    pairs_checked: int
    min_gap: float
    witness: object = None
    horizon_edges: int = 0


def check_separation(system, horizon_edges=DEFAULT_EDGE_HORIZON):
    """Pairwise disjointness of sibling (same initial vertex) seed images:
    one sweep gives the pair (strong, open_) of SeparationReports.

    Seed images stand in for the limit-set-restricted ones, so a
    `certified-separated` verdict is conservative.  An overlap ends the
    sweep: both reports are `overlap-witness`, with that pair's gap and
    (e, f, point).  Otherwise both share pairs_checked and min_gap; open is
    `certified-separated`, and strong is `inconclusive` when a pair touches
    (gap within GEOM_TOL of 0: only the interiors are disjoint), witnessed
    by the first touching pair.  A seed that meets a pole of one of its maps
    raises DomainViolation.  The sweep reads the seed_disks column, a letter
    against all its later siblings at once (see _by_distance).
    """
    letters, initial, _ = system.incidence(horizon_edges)
    cx, cy, r = system.seed_disks(len(letters))
    min_gap, touch, pairs = math.inf, None, 0
    for v in dict.fromkeys(initial.tolist()):
        group = system._out_positions(v, len(letters))
        gx, gy, gr = cx[group], cy[group], r[group]
        for i in range(len(group) - 1):
            radii = gr[i] + gr[i + 1:]
            gaps = _by_distance(gx[i + 1:] - gx[i], gy[i + 1:] - gy[i], radii,
                                lambda d: d - radii, GEOM_TOL)
            over = np.flatnonzero(gaps < -GEOM_TOL)
            if over.size:
                j = int(over[0])
                e, f = letters[group[i]], letters[group[i + 1 + j]]
                witness = (e, f, overlap_witness_point(system.seed_image(e), system.seed_image(f)))
                return tuple(
                    SeparationReport(mode, "overlap-witness", pairs + j + 1, float(gaps[j]),
                                     witness, horizon_edges)
                    for mode in ("SSC", "OSC")
                )
            touching = np.flatnonzero(gaps <= GEOM_TOL)
            if touching.size and touch is None:
                touch = (letters[group[i]], letters[group[i + 1 + int(touching[0])]], None)
            min_gap = min(min_gap, float(gaps.min()))
            pairs += len(gaps)
    return (
        SeparationReport("SSC", "inconclusive" if touch else "certified-separated",
                         pairs, min_gap, touch, horizon_edges),
        SeparationReport("OSC", "certified-separated", pairs, min_gap, None,
                         horizon_edges),
    )


def _by_distance(dx, dy, size, value, bound):
    """value(d) of the distances d = |(dx, dy)|, rounded by np.hypot, and
    by math.hypot (as math.dist) where value may be at most bound or the
    least value.  Both round within one ulp of d, so a gap d - r or margin
    R - (d + r), with radii summing to size, moves by less than 4e-15 *
    (d + size) between them, and no other entry can decide a check."""
    dist = np.hypot(dx, dy)
    got = value(dist)
    slack = 4e-15 * (dist + size)
    near = np.flatnonzero(got - slack <= max(bound, float((got + slack).min(initial=math.inf))))
    dist[near] = list(map(math.hypot, dx[near].tolist(), dy[near].tolist()))
    return value(dist)


def _containment(system, count):
    """(letter, detail) of the maps-into-seeds check over letters(count),
    read off the seed_disks column: the first letter whose image pokes out
    of its initial vertex's seed by more than GEOM_TOL (letter None when
    none does), with the least margin up to it (shapes.interior_margin, see
    _by_distance), or whose seed meets a pole, with that error."""
    letters, initial, _ = system.incidence(count)
    n = len(letters)
    cx, cy, r = system._filled("disks", n)[:, :n]
    faults = system._faults["disks"]
    fits = min((i for i in faults if i < n), default=n)
    labels = list(system._vertex_ids)
    balls = [system.seed(labels[v]).seed for v in initial[:fits].tolist()]
    ox, oy, outer = np.array([(*mapslib._on_plane(b.center), b.radius)
                              for b in balls]).reshape(-1, 3).T
    margins = _by_distance(cx[:fits] - ox, cy[:fits] - oy, outer + r[:fits],
                           lambda d: outer - (d + r[:fits]), -GEOM_TOL)
    out = np.flatnonzero(margins < -GEOM_TOL)
    stop = int(out[0]) + 1 if out.size else fits
    detail = f"{n} edges, min containment margin {margins[:stop].min(initial=math.inf):.3g}"
    if out.size:
        return letters[stop - 1], detail
    return (letters[fits], str(faults[fits])) if fits < n else (None, detail)


def validate_conditions(system, horizon_vertices=DEFAULT_VERTEX_HORIZON,
                        horizon_edges=DEFAULT_EDGE_HORIZON):
    """Evaluate the defining conditions on a finite horizon.

    Violations are report entries with witnesses, never exceptions."""
    checks = {}
    verts = system.vertices_prefix(horizon_vertices)
    edges = system.letters(horizon_edges)

    # compact seeds with uniformly bounded diameter, inside their open
    # neighborhoods with positive margin
    sup_diam = 0.0
    min_margin = math.inf
    bad_seed = bad_margin = None
    for v in verts:
        ss = system.seed(v)
        d = ss.seed.diameter
        sup_diam = max(sup_diam, d)
        if not (d > 0.0) or not math.isfinite(d):
            bad_seed = v
        m = interior_margin(ss.neighborhood, ss.seed)
        min_margin = min(min_margin, m)
        if m <= 0.0:
            bad_margin = v
    checks["seed-geometry"] = CheckEntry(
        "violated" if bad_seed is not None else "satisfied",
        f"{len(verts)} vertices, sup seed diameter {sup_diam:.6g}",
        bad_seed,
    )
    checks["seed-inside-neighborhood"] = CheckEntry(
        "violated" if bad_margin is not None else "satisfied",
        f"min margin {min_margin:.6g}",
        bad_margin,
    )

    # every edge map sends the terminal seed into the initial seed (a pole
    # on the seed itself leaves no image)
    bad_edge, detail = _containment(system, horizon_edges)
    checks["maps-into-seeds"] = CheckEntry(
        "violated" if bad_edge is not None else "satisfied", detail, bad_edge)
    # every edge map must be well-defined with finite derivative on the whole
    # working neighborhood of its terminal vertex (its singular set, if any,
    # must stay clear); strict image-in-neighborhood containment is NOT
    # required -- the hub letter of the continued-fraction family genuinely
    # spills over while every quantity we compute stays sound
    bad_nb, detail_nb = None, "all derivative ranges over neighborhoods finite"
    for e in edges:
        try:
            rng = system.letter_range(e, on="neighborhood")
        except DomainViolation as err:
            bad_nb, detail_nb = e, str(err)
            break
        if not math.isfinite(rng.upper):
            bad_nb, detail_nb = e, "infinite derivative bound"
            break
    checks["neighborhood-domain"] = CheckEntry(
        "violated" if bad_nb is not None else "satisfied",
        detail_nb,
        bad_nb,
    )

    # uniform contraction (or the declared certificate re-checked)
    declared = system.contraction
    try:
        if declared is not None and declared.depth == 1:
            offender = next((e for e in edges if system.letter_range(
                e, on="neighborhood").upper > declared.rate + GEOM_TOL), None)
            checks["uniform-contraction"] = CheckEntry(
                "violated" if offender is not None else "satisfied",
                f"declared depth-1 rate {declared.rate}",
                offender,
            )
        else:
            cb = declared or contraction_certificate(system, horizon_edges)
            checks["uniform-contraction"] = CheckEntry(
                "satisfied" if cb.rate < 1.0 else "violated",
                f"depth-{cb.depth} rate {cb.rate:.6g} "
                f"(effective {cb.effective_rate:.6g})",
                None,
            )
    except (ConditionViolation, DomainViolation) as err:
        checks["uniform-contraction"] = CheckEntry("violated", str(err), None)

    # separation, both flavors from one sweep of sibling pairs; a seed that
    # meets a pole has no image ball to compare
    sep_detail = None
    try:
        strong, open_ = check_separation(system, horizon_edges)
    except DomainViolation as err:
        strong, open_ = (SeparationReport(mode, "inconclusive", 0, math.inf, None, horizon_edges)
                         for mode in ("SSC", "OSC"))
        sep_detail = str(err)
    for key, rep in (("separation-strong", strong), ("separation-open", open_)):
        checks[key] = CheckEntry(
            SEPARATION_STATUS[rep.verdict],
            sep_detail or f"{rep.pairs_checked} sibling pairs, min gap {rep.min_gap:.3g}",
            rep.witness,
        )

    # seed contractibility: diam J_v <= c * sup over out-edges of the
    # derivative sup; reports the smallest admissible constant
    c_cj = 0.0
    skipped = 0
    degenerate = cj_detail = None
    for v in verts:
        try:
            sup = system.vertex_sup(v, horizon_edges)
        except DomainViolation as err:
            degenerate, cj_detail = v, str(err)
            break
        if sup is None:
            skipped += 1
            continue
        if sup <= 0.0:
            degenerate = v
            break
        c_cj = max(c_cj, system.seed(v).seed.diameter / sup)
    checks["seed-contractibility"] = CheckEntry(
        "violated" if degenerate is not None else "satisfied",
        cj_detail or f"c_CJ = {c_cj:.6g} over {len(verts) - skipped} vertices "
        f"({skipped} without materialized out-edges)",
        degenerate,
    )

    return ConditionReport(checks, len(verts), len(edges), strong)


# ---------------------------------------------------------------------------
# multigraph -> simple reduction


@dataclass(frozen=True)
class ReductionNotes:
    base_name: str
    dead_ends: tuple


def reduce_to_simple(system):
    """Rebuild a (finite) multigraph system as a simple one.

    New vertices are the old edges; the new edge (e, f) exists when
    terminal(e) == initial(f) and carries the old map T_e; the new seed of
    vertex e is the exact image T_e(old seed of terminal(e)); the new
    neighborhood is the old neighborhood of initial(e).  Edge words
    translate one-to-one: the base word (e0, ..., en) becomes the pair word
    ((e0,e1), ..., (e_{n-1},e_n)) with anchors pushed through T_{e_n}; see
    translate_word.
    """
    if not system.is_finite:
        raise ConditionViolation("reduction needs a materializable edge set")
    g = system.graph
    base_edges = system.letters(10 ** 9)
    # a seed on a pole raises here, and an image that escapes its seed next
    seeds = {e: SeedSet(e, system.seed_image(e), system.seed(g.initial(e)).neighborhood)
             for e in base_edges}
    bad, _ = _containment(system, len(base_edges))
    if bad is not None:
        raise ConditionViolation(f"edge {bad} image escapes its seed")
    succ = {e: system.out_edges(g.terminal(e), len(base_edges)) for e in base_edges}
    pairs = [(e, f) for e in base_edges for f in succ[e]]
    dead = tuple(e for e in base_edges if not succ[e])
    maps = {p: system.map_of(p[0]) for p in pairs}
    graph = DirectedMultigraph(
        vertices=Enumeration(items=tuple(base_edges)),
        edges=Enumeration(items=tuple(pairs)),
        initial=lambda p: p[0],
        terminal=lambda p: p[1],
        simple=True,
    )
    return GifsSystem(
        graph, seeds, maps, system.ambient_dim,
        contraction=system.contraction,
        tail=finite_tail("vertex"),
        name=system.name + "-reduced",
        reduction=ReductionNotes(system.name, dead),
    )


def translate_word(word, system):
    """Map a base edge word to the reduced system's edge word plus an
    anchor translator; the translated coding point is bitwise equal to the
    base coding point because exactly the same map applications run."""
    if len(word) < 2:
        raise NonAdmissibleWord("need at least two letters to translate")
    reduced_word = tuple((word[i], word[i + 1]) for i in range(len(word) - 1))
    last = word[-1]

    def push_anchor(anchor):
        return mapslib.apply(system.map_of(last), anchor)

    return reduced_word, push_anchor


# ---------------------------------------------------------------------------
# summability


@dataclass(frozen=True)
class SummabilityEstimate:
    unit: str
    theta_low: float
    theta_high: float
    declared_floor: float
    verdicts: tuple
    horizons: tuple


def _unit_terms(system, unit, count, s):
    if unit == "vertex":
        out = []
        for v in system.vertices_prefix(count):
            sup = system.vertex_sup(v)
            out.append(0.0 if sup is None else sup ** s)
        return out
    return [upper ** s for upper in system.seed_ranges(count)[1].tolist()]


def summability_verdict(system, s, horizons, unit, divergence_threshold=1e3):
    """One exponent: `summable` (finite tail witness), `divergent`
    (partial sums past the threshold with nondecreasing increments), or
    `inconclusive`."""
    witness = system.tail
    if witness is not None and witness.unit == unit:
        t = witness.bound(horizons[-1], s)
        if math.isfinite(t):
            return "summable"
    terms = _unit_terms(system, unit, horizons[-1], s)
    partial = []
    acc = 0.0
    idx = 0
    for h in horizons:
        while idx < min(h, len(terms)):
            acc += terms[idx]
            idx += 1
        partial.append(acc)
    increments = [b - a for a, b in zip(partial, partial[1:])]
    if partial[-1] > divergence_threshold and increments:
        ok = all(
            b >= a * (1.0 - INCREMENT_TOL)
            for a, b in zip(increments, increments[1:])
        )
        if ok and increments[-1] > 0:
            return "divergent"
    return "inconclusive"


def summability_interval(system, horizons=None, unit=None,
                         divergence_threshold=1e3):
    """Estimate the summability threshold by bisecting the exponent line
    over (0, ambient_dim + 1] down to SUMMABILITY_RESOLUTION.

    theta_high is the infimum of exponents certified summable (via the tail
    witness); theta_low the supremum of exponents with a numeric divergence
    verdict.  A declared divergence floor from the witness is reported
    separately; it is family knowledge, not a computation.
    """
    if unit is None:
        if system.tail is not None:
            unit = system.tail.unit
        else:
            unit = "vertex" if system.graph.simple else "edge"
    if horizons is None:
        horizons = (256, 1024, DEFAULT_EDGE_HORIZON)
    s_max = system.ambient_dim + 1.0
    verdicts = []

    def classify(s):
        v = summability_verdict(system, s, horizons, unit, divergence_threshold)
        verdicts.append((s, v))
        return v

    lo_div, hi_sum = 0.0, math.inf
    # coarse scan, then bisection between the extreme verdicts
    grid = [s_max * i / 8 for i in range(1, 9)]
    for s in grid:
        v = classify(s)
        if v == "divergent":
            lo_div = max(lo_div, s)
        elif v == "summable":
            hi_sum = min(hi_sum, s)
    if math.isfinite(hi_sum):
        lo, hi = lo_div, hi_sum
        while hi - lo > SUMMABILITY_RESOLUTION:
            mid = 0.5 * (lo + hi)
            v = classify(mid)
            if v == "summable":
                hi = mid
            else:
                lo = mid
                if v == "divergent":
                    lo_div = max(lo_div, mid)
        hi_sum = hi
    declared = math.nan
    if system.tail is not None and system.tail.diverges_below is not None:
        declared = system.tail.diverges_below
    return SummabilityEstimate(
        unit, lo_div,
        hi_sum if math.isfinite(hi_sum) else math.inf,
        declared, tuple(verdicts), tuple(horizons),
    )


# ---------------------------------------------------------------------------
# subsystems


def subsystem(system, vertices=None, edges=None, name=None):
    """Restriction to a finite vertex and/or edge subset.

    Keeps seeds and maps; the restricted graph enumerates the kept edges in
    the parent's enumeration order (parent must be able to materialize
    them).  The parent's declared contraction stays valid (fewer maps);
    tails become trivially finite.
    """
    g = system.graph
    if edges is None:
        if vertices is None:
            raise ValueError("need vertices or edges to restrict")
        vset = set(vertices)
        pool = g.edge_prefix(DEFAULT_EDGE_HORIZON)
        edges = [e for e in pool if g.initial(e) in vset and g.terminal(e) in vset]
    edges = tuple(edges)
    if vertices is None:
        seen = []
        for e in edges:
            for v in (g.initial(e), g.terminal(e)):
                if v not in seen:
                    seen.append(v)
        vertices = seen
    graph = DirectedMultigraph(
        vertices=Enumeration(items=tuple(vertices)),
        edges=Enumeration(items=edges),
        initial=g.initial,
        terminal=g.terminal,
        simple=g.simple,
    )
    return GifsSystem(
        graph, system._seed_fn, system._map_fn, system.ambient_dim,
        contraction=system.contraction,
        tail=finite_tail("vertex" if g.simple else "edge"),
        name=name or (system.name + "-sub"),
    )
