"""Correctness checks on the brackets a workload returns.

Each check returns a list of problems, empty when the output is right.  The
checks run outside the timed region.
"""

import math

# dim E{1,2} of the real continued fractions with digits 1 and 2
# (Jenkinson and Pollicott, Adv. Math. 2018)
E12 = 0.53128050627720514162
# the ladder's two-loop subsystem: a dimension floor for the whole ladder
LADDER_FLOOR = 0.5514630897455955
# log2 of the golden ratio: root of the ladder's declared pressure_upper
LADDER_CEILING = 0.6942419136306174


def contains(name, lower, upper, value):
    if lower <= value <= upper:
        return []
    return [f"{name}: [{lower!r}, {upper!r}] excludes {value!r}"]


def consistent(name, lower, upper, floor, ceiling):
    """A dimension bracket must meet every certified [floor, ceiling]."""
    problems = []
    if upper < floor:
        problems.append(f"{name}: upper {upper!r} below certified floor {floor!r}")
    if lower > ceiling:
        problems.append(f"{name}: lower {lower!r} above certified ceiling {ceiling!r}")
    return problems


def ladder_consistent(name, ladders):
    """Truncation ladders at several exponents, given as {s: entries}.

    Each entry is a certified (lower, upper); lowers are running maxima, the
    last entry is the full-system bracket, and pressure is nonincreasing in
    s, so a full lower at a larger s never exceeds a full upper at a smaller
    one.
    """
    problems = []
    for s, entries in ladders.items():
        lowers = [lo for lo, _ in entries]
        if any(b < a for a, b in zip(lowers, lowers[1:])):
            problems.append(f"{name}(s={s}): lowers decrease: {lowers}")
        for lo, hi in entries:
            if not lo <= hi:
                problems.append(f"{name}(s={s}): crossed entry [{lo}, {hi}]")
    full = sorted((s, entries[-1]) for s, entries in ladders.items())
    for (s1, (_, hi1)), (s2, (lo2, _)) in zip(full, full[1:]):
        if lo2 > hi1:
            problems.append(
                f"{name}: full lower {lo2} at s={s2} above full upper {hi1} at s={s1}"
            )
    return problems


def sweep_rows(rows, reference=E12):
    """Problems per row of a dimension sweep; row 0 is the base system.

    rows: (epsilon, s_lower, s_upper, status).  The base row must contain
    the reference; every perturbed system contains the base letters, so its
    upper bound may not sit below the reference; ordered by decreasing eps,
    the gap between a row's midpoint and the base midpoint may grow by no
    more than the slack the c06 acceptance test allows.
    """
    problems = [[] for _ in rows]
    for i, (eps, lo, hi, status) in enumerate(rows):
        if status != "ok":
            problems[i].append(f"row eps={eps}: status {status}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problems[i].append(f"row eps={eps}: no bracket")
    if problems[0]:
        return problems
    _, b_lo, b_hi, _ = rows[0]
    problems[0] += contains("base row", b_lo, b_hi, reference)
    base_mid, base_w = 0.5 * (b_lo + b_hi), b_hi - b_lo
    order = sorted(range(1, len(rows)), key=lambda i: -rows[i][0])
    for i in order:
        if rows[i][2] < reference:
            problems[i].append(
                f"row eps={rows[i][0]}: upper {rows[i][2]!r} below {reference!r}"
            )
    for a, b in zip(order, order[1:]):
        gap_a = abs(0.5 * (rows[a][1] + rows[a][2]) - base_mid)
        gap_b = abs(0.5 * (rows[b][1] + rows[b][2]) - base_mid)
        slack = 0.5 * ((rows[a][2] - rows[a][1]) + (rows[b][2] - rows[b][1])) + base_w
        if gap_b > gap_a + slack:
            problems[b].append(
                f"row eps={rows[b][0]}: gap {gap_b:.3g} grew past {gap_a:.3g} + {slack:.3g}"
            )
    return problems
