"""The state geometry built letter by letter: every word's disk and every
nonzero's range come from one map kernel call per first letter, on that
letter's spec, with the depth-1 disks and the affine ranges from the scalar
per-letter routes (seed_image, letter_range below).  The reference for the
table-driven pressure._build_geometry and the system's letter table, which
gather every letter's normal form and map all letters at once instead.

The condition pass's scalar routes live here too: separation_gap, the gap
of one pair of balls; containment, which maps each letter's seed alone;
and contraction_certificate, which maps and ranges one letter pair at a
time.  They are the references for systems.check_separation,
systems._containment and systems.contraction_certificate, which read the
letter table and map every letter or pair at once instead."""

import math

import numpy as np

from gifsdim import maps, systems
from gifsdim.errors import ConditionViolation, DomainViolation
from gifsdim.graphs import extend_words
from gifsdim.shapes import GEOM_TOL, interior_margin
from gifsdim.systems import DEFAULT_EDGE_HORIZON, ContractionBound


def separation_gap(a, b):
    """Signed distance between two balls: positive = disjoint by that
    margin, negative = penetration depth."""
    return math.dist(a.center, b.center) - (a.radius + b.radius)


def containment(system, count):
    """(letter, detail) of systems._containment, letter by letter: the
    first letter whose image pokes out of its initial seed, with the least
    margin up to it, or whose seed meets a pole, with that error."""
    edges = system.letters(count)
    worst = math.inf
    for e in edges:
        try:
            image = seed_image(system, e)
        except DomainViolation as err:
            return e, str(err)
        worst = min(worst, interior_margin(system.seed(system.graph.initial(e)).seed, image))
        if worst < -GEOM_TOL:
            return e, f"{len(edges)} edges, min containment margin {worst:.3g}"
    return None, f"{len(edges)} edges, min containment margin {worst:.3g}"


def contraction_certificate(system, horizon_edges=DEFAULT_EDGE_HORIZON):
    """The certificate of systems.contraction_certificate, one letter pair
    at a time: each letter's neighborhood image by image_enclosure, each
    pair's range by derivative_range_over_set, and the budget counted pair
    by pair."""
    edges = system.letters(horizon_edges)
    if not edges:
        raise ConditionViolation("no edges to certify")
    g = system.graph
    sups = {e: system.letter_range(e, on="neighborhood").upper for e in edges}
    r1 = max(sups.values())
    if r1 < 1.0:
        return ContractionBound(1, r1, r1, 1.0)
    rho = 0.0
    checked = 0
    images = {f: maps.image_enclosure(system.map_of(f), system.seed(g.terminal(f)).neighborhood)
              for f in edges}
    for e in edges:
        # T_e o T_f is admissible when f starts where e ends
        for f in system.out_edges(g.terminal(e), horizon_edges):
            inner = maps.derivative_range_over_set(system.map_of(e), images[f])
            rho = max(rho, inner.upper * sups[f])
            checked += 1
            if checked > systems.PAIR_BUDGET:
                raise ConditionViolation(
                    f"pair budget {systems.PAIR_BUDGET} exhausted at rho={rho:.4g}")
    if rho >= 1.0:
        raise ConditionViolation(f"no contraction at depth 2: pairwise bound {rho:.6g} >= 1")
    if rho == 0.0:
        return ContractionBound(2, 0.0, 0.0, 1.0)
    eff = math.nextafter(math.sqrt(rho), math.inf)
    return ContractionBound(2, rho, eff, max(1.0, math.nextafter(r1 / eff, math.inf)))


def seed_image(system, e):
    """The ball T_e(seed of terminal(e)), mapped alone."""
    seed = system.seed(system.graph.terminal(e)).seed
    return maps.image_enclosure(system.map_of(e), seed)


def letter_range(system, e):
    """The derivative range of letter e over its terminal seed, ranged
    alone."""
    return maps.derivative_range_over_set(
        system.map_of(e), system.seed(system.graph.terminal(e)).seed)


def per_letter_geometry(system, letters, m):
    """(words, indices, indptr, lower, upper, disks) of the depth-m word
    states over letters, as pressure._build_geometry lays them out; upper is
    lower when the two coincide, and disks is None with no Moebius letter."""
    specs = [system.map_of(e) for e in letters]
    moebius = [isinstance(f, maps._MOEBIUS_KINDS) for f in specs]
    _, initial, terminal = system.incidence(len(letters))
    words = np.arange(len(letters), dtype=np.min_scalar_type(len(letters)))[:, None]
    disks = None
    if any(moebius):
        disks = np.array([(*ball.center, ball.radius)
                          for ball in (seed_image(system, e) for e in letters)]).T
    blocks = np.arange(len(letters) + 1)
    for _ in range(m - 1):
        shorter = words
        words, tails, blocks = extend_words(initial, terminal, words)
        if disks is not None:
            cx, cy, r = disks
            disks = np.empty((3, len(tails)))
            for a, spec in enumerate(specs):
                rows = slice(blocks[a], blocks[a + 1])
                t = tails[rows]
                disks[:, rows] = maps.disk_image(spec, cx[t], cy[t], r[t])

    n_succ = np.bincount(initial, minlength=int(terminal.max()) + 1)[terminal]
    count = n_succ[words[:, -1]]
    indptr = np.concatenate(([0], np.cumsum(count))).astype(np.int32)
    if m == 1:
        _, indices, _ = extend_words(initial, terminal, words)
    else:
        ext = n_succ[shorter[:, -1]]
        starts = (np.cumsum(ext) - ext)[tails] - indptr[:-1]
        indices = np.repeat(starts, count) + np.arange(indptr[-1])
    indices = indices.astype(np.int32)

    lower, upper = np.empty((2, len(indices)))
    for a, spec in enumerate(specs):
        nz = slice(indptr[blocks[a]], indptr[blocks[a + 1]])
        if moebius[a]:
            cx, cy, r = disks
            t = indices[nz]
            lower[nz], upper[nz] = maps.moebius_derivative_range(
                maps._moebius_form(spec), cx[t], cy[t], r[t])
        else:
            rng = letter_range(system, letters[a])
            lower[nz], upper[nz] = rng.lower, rng.upper
    if np.array_equal(lower, upper):
        upper = lower
    return words, indices, indptr, lower, upper, disks
