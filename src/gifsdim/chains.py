"""Perron vectors of hub-and-chain state classes, by eliminating the chains.

A hub of a strongly connected class is a state that does not have exactly
one successor inside the class.  Every other state has one, so the class
is a few hubs joined by chains, and its Perron vector is fixed by the
hubs': inducing on the hubs (the first-return reduction) turns the
class's eigenproblem into one on a |H| x |H| matrix, solved here in
closed form, without LAPACK, for the one or two hubs that the ladder's
classes have.  The countable ladder's class is this shape: one hub letter
with infinite out-degree and spines stepping back down to it.

The spectral layer (pressure._cw_bracket) starts its power iteration from
this vector.  Nothing here enters a bound: Collatz-Wielandt ratios
certify any positive start, and a start that is off only costs steps.
Everything runs in logs, since the Perron vectors of long chains span far
past float64.
"""

import math
from dataclasses import dataclass

import numpy as np

# classes with at most this many hubs take the chain elimination, which
# solves their first-return problem in closed form; the countable
# ladder's class at depth 1 has two
HUB_MAX = 2


@dataclass(frozen=True, eq=False)
class HubChains:
    """The hubs of a class and the chains that lead to them.

    A class that is a single cycle has no hub; its state 0 serves as one.
    Every other state's path to the first hub it meets is unique, and
    exists since the class is strongly connected.  Per state: target, the
    index into hubs of that first hub (a hub's own index for a hub),
    length, the steps to it (0 for a hub), and link, the entry position of
    the state's one entry (the entry count, one past the last entry, for a
    hub).  jumps is the pointer-doubling schedule: jumps[j] maps each state
    2**j steps down its chain, stopping at the hub, so len(jumps) sums of a
    gather give every state's log-weight to its hub.  out lists the
    positions of the hubs' entries and out_col their columns; steps and
    cell give, per such entry, the length of the path it starts (1 plus
    its column's length) and the flat index h*|H| + t of its cell of the
    first-return matrix, t the hub that path ends at.
    """

    hubs: np.ndarray
    target: np.ndarray
    length: np.ndarray
    link: np.ndarray
    jumps: tuple
    out: np.ndarray
    out_col: np.ndarray
    steps: np.ndarray
    cell: np.ndarray


def hub_chains(n, row, col):
    """The HubChains of a strongly connected class with n states and
    entries row -> col, or None when it has more than HUB_MAX hubs."""
    hub = np.bincount(row, minlength=n) != 1
    if not hub.any():
        hub[0] = True
    hubs = np.flatnonzero(hub)
    if len(hubs) > HUB_MAX:
        return None
    single = ~hub[row]
    link = np.full(n, len(row))
    link[row[single]] = np.flatnonzero(single)
    ptr = np.arange(n)
    ptr[row[single]] = col[single]
    length = (~hub).astype(np.intp)
    jumps = []
    while not hub[ptr].all():
        jumps.append(ptr)
        length = length + length[ptr]
        ptr = ptr[ptr]
    index = np.cumsum(hub) - 1
    target = index[ptr]
    out = np.flatnonzero(hub[row])
    out_col = col[out]
    cell = index[row[out]] * len(hubs) + target[out_col]
    return HubChains(hubs, target, length, link, tuple(jumps), out, out_col,
                     1 + length[out_col], cell)


def perron_log(chains, row, ldata):
    """Log of the Perron vector of the class whose entries lie in the rows
    row with log-weights ldata, or None when the elimination finds no
    finite one.

    A path from a hub through chain states to the next hub, with
    log-weight g and length L, adds exp(g - L*mu) to the first-return
    matrix S(mu) on the hubs, and rho(B) = exp(mu) exactly when rho(S(mu))
    = 1.  f(mu) = log rho(S(mu)) is decreasing and convex (its entries are
    log-convex), and -f'(mu) = u S'(mu) v / u S(mu) v, u and v its left
    and right Perron vectors, is a mean path length.  So Newton's method
    from the log of B's largest row sum, its steps kept no lower than the
    log of the smallest (the row sums bound rho(B)), overshoots at most
    once and then climbs to the root from the left.  S(mu) is formed in
    logs.  The hubs' Perron vector, carried down the chains as exp(chain
    log-weight - length*mu), is then B's: every chain state's
    Collatz-Wielandt ratio is exp(mu), and every hub's exp(mu) times
    rho(S(mu)).
    """
    acc = np.append(ldata, 0.0)[chains.link]
    for ptr in chains.jumps:
        acc += acc[ptr]
    gain = ldata[chains.out] + acc[chains.out_col]
    steps, cell = chains.steps, chains.cell
    log_steps = np.log(steps)
    h = len(chains.hubs)
    top = ldata.max()
    sums = np.bincount(row, weights=np.exp(ldata - top), minlength=len(chains.link))
    low = sums.min()
    mu_lo = top + math.log(low) if low > 0.0 else -math.inf
    mu = top + math.log(sums.max())
    best = None
    for newton in range(64):
        x = gain - steps * mu
        logs = _cell_logsum(x, cell, h)
        perron = _hub_perron(logs)
        if perron is None:
            break
        f, left, right = perron
        if not math.isfinite(f):
            # every first-return path holds a vanished entry
            return None
        # after the first step |f| falls until rounding stops it
        if newton > 1 and not abs(f) < abs(best[0]):
            break
        if best is None or abs(f) < abs(best[0]):
            best = (f, mu, right)
        if abs(f) <= 2.0**-44:
            break
        outer = left[:, None] + right
        slope = math.exp(_logsum(outer + _cell_logsum(x + log_steps, cell, h))
                         - _logsum(outer + logs))
        if not 0.0 < slope < math.inf:
            break
        mu = max(mu + f / slope, mu_lo)
    if best is None:
        return None
    _, mu, right = best
    logv = acc - chains.length * mu + right[chains.target]
    return logv if np.isfinite(logv).all() else None


def _cell_logsum(x, cell, h):
    """The h x h matrix whose entry c is log of the sum of exp(x[i]) over
    the i with cell[i] == c (-inf for none), with no underflow."""
    top = np.full(h * h, -np.inf)
    np.maximum.at(top, cell, x)
    top[top == -np.inf] = 0.0
    sums = np.bincount(cell, weights=np.exp(x - top[cell]), minlength=h * h)
    with np.errstate(divide="ignore"):
        return (top + np.log(sums)).reshape(h, h)


def _logsum(x):
    top = x.max()
    return top + math.log(np.exp(x - top).sum())


def _hub_perron(logs):
    """(log rho, log left, log right) for the nonnegative matrix exp(logs)
    on one or two hubs: the log of its spectral radius and of a positive
    left and right eigenvector for it, or None.

    Two hubs are first conjugated by exp(p), p = (0, (c - b)/2) for the
    off-diagonal logs b and c, which makes the matrix symmetric, so that
    its left and right eigenvectors are one, and then scaled by its
    largest entry, which bounds rho within a factor 2.  rho then takes
    the closed form, rho minus the larger diagonal entry formed without
    cancellation, and the eigenvector's smaller entry is kept as a log,
    since it may lie far below float64 range when the hubs' first-return
    paths to themselves outweigh those between them.
    """
    if len(logs) == 1:
        zero = np.zeros(1)
        return float(logs[0, 0]), zero, zero
    (a, b), (c, d) = logs.tolist()
    half = 0.5 * (b + c)
    if half == -math.inf:
        return None
    top = max(a, d, half)
    big, small = math.exp(max(a, d) - top), math.exp(min(a, d) - top)
    e = math.exp(half - top)
    q = 0.5 * (big - small)
    if q > 0.0:
        r = math.sqrt(q * q + e * e)
        rise = e * e / (q + r)
        tilt = half - top - math.log(q + r)
    else:
        rise, tilt = e, 0.0
    vec = np.array((0.0, tilt) if a >= d else (tilt, 0.0))
    p = np.array((0.0, 0.5 * (c - b)))
    return top + math.log(big + rise), vec - p, vec + p
