"""How far a perturbed system sits from its limit: the full-system pressure
bracket, the coding-map gap, and the lemma's a-priori bound on that gap."""

import math

from gifsdim.dimension import default_horizon
from gifsdim.pressure import PotentialSpec, truncation_ladder
from gifsdim.render import coding_map


def full_bracket(system, s, depth):
    """The closing full-scope entry of a truncation ladder at the default
    horizon, as (lower, upper)."""
    horizon = default_horizon(system, None)
    est = truncation_ladder(system, PotentialSpec(s), [horizon], depth=depth)[-1]
    return est.lower, est.upper


def coding_gap(base, perturbed, words):
    """Largest distance between the two systems' coding points of a word."""
    return max(
        math.dist(coding_map(base, w)[0], coding_map(perturbed, w)[0])
        for w in words
    )


def lemma_bound(base, perturbed, letters):
    """C / (1 - rate) times the largest pointwise map deviation, with C and
    rate from the perturbed system's contraction certificate.

    A letter's deviation over its terminal seed is bounded through both
    seed-image enclosures: the distance of their centers plus both radii.
    The mean-value constant is 1, since every seed is convex.
    """
    deviation = 0.0
    for e in letters:
        if base.map_of(e) == perturbed.map_of(e):
            continue
        img_b = base.seed_image(e)
        img_p = perturbed.seed_image(e)
        deviation = max(
            deviation,
            math.dist(img_b.center, img_p.center)
            + 0.5 * img_b.diameter + 0.5 * img_p.diameter,
        )
    cb = perturbed.contraction
    return cb.comparison / (1.0 - cb.effective_rate) * deviation
