"""The state geometry built letter by letter: every word's disk and every
nonzero's range come from one map kernel call per first letter, on that
letter's spec, with the depth-1 disks and the affine ranges from the scalar
per-letter routes (seed_image, letter_range below).  The reference for the
table-driven pressure._build_geometry and the system's letter table, which
gather every letter's normal form and map all letters at once instead."""

import numpy as np

from gifsdim import maps
from gifsdim.graphs import extend_words


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
