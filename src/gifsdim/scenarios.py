"""Built-in example systems.

* ladder_system: countable simple graph on vertices 1, 2, 3, ... where
  vertex 1 reaches every vertex (ratio-1/2 maps onto a tiling of its seed)
  and vertex v steps down to v-1 with ratio 2**-v.  Vertex 1 has infinite
  out-degree, so per-edge sums never converge while per-vertex sums do.
* moran_system: one vertex, finitely many similarity loops (multigraph).
* affine_demo / perturbed_affine: two-vertex planar system with an
  epsilon-degenerate extra loop at vertex 2 and an epsilon-inflated loop at
  vertex 1.
* cf_system / perturbed_cf: complex continued-fraction inverse branches
  z -> 1/(e+z) over Gaussian-integer letters with positive real part, on the
  disk of radius 1/2 centered at 1/2; perturbed variants degenerate added
  letters toward the constants 1/(e+1/2).
"""

from __future__ import annotations

import itertools
import math

from .errors import DegenerateMap, InvalidAlphabet
from .graphs import DirectedMultigraph, Enumeration
from .maps import (
    Constant,
    ConformalAffine,
    MoebiusCF,
    PerturbedAffine,
    PerturbedMoebiusCF,
    Similarity,
)
from .shapes import Ball
from .systems import (
    ContractionBound,
    GifsSystem,
    SeedSet,
    TailWitness,
    contraction_certificate,
    finite_tail,
    subsystem,
)


def _pair_graph(vertices, edges):
    """The simple graph whose edges are the pairs (u, v) from u to v."""
    return DirectedMultigraph(vertices, edges, lambda e: e[0], lambda e: e[1], simple=True)


# ---------------------------------------------------------------------------
# ladder


def _ladder_center(v):
    return 3.0 * (v - 1)


def _ladder_seed(v):
    c = _ladder_center(v)
    return SeedSet(v, Ball((c,), 2.0 ** (-v)), Ball((c,), 1.0))


def _ladder_map(e):
    v, u = e
    if v == 1:
        # lands on [1/2 - 2**(1-u), 1/2 - 2**-u]; consecutive images touch
        m_u = 0.5 - 3.0 * 2.0 ** (-u - 1)
        return Similarity(0.5, (m_u - 0.5 * _ladder_center(u),))
    ratio = 2.0 ** (-v)
    if ratio < 1e-290:
        raise DegenerateMap(f"ratio 2**-{v} underflows float64")
    return Similarity(ratio, (_ladder_center(v) - ratio * _ladder_center(u),))


def _ladder_edges():
    yield (1, 1)
    for n in itertools.count(2):
        yield (1, n)
        yield (n, n - 1)


def _ladder_pressure_upper(s):
    """Certified upper bound for the untruncated hub-and-spine pressure.

    Collatz-Wielandt argument with the test vector x_(a,b) =
    2**(-a*s - b*theta) over edge states (a,b), where theta =
    log2(1 + 2**s): against the sup-derivative transition weights every
    row of every finite truncation satisfies (Bx)_e <= R * x_e with
    R = (1 + 2**s) / 4**s.  Rows re-entering the hub sum the geometric
    series sum_u 2**(-u*theta) = 2**(-s); descending rows telescope to
    2**(theta - 2s) = R.  Each truncation's spectral radius is therefore
    at most R, and the full pressure is their supremum, so log R bounds
    it.  Exact at s = 0 (log 2, the entropy of the hub alternation).
    """
    if s < 0.0:
        return math.inf
    return math.log((1.0 + 2.0**s) / 4.0**s)


def ladder_system():
    """Countable one-dimensional system with a hub vertex of infinite
    out-degree; dimension bounds must combine truncations with the
    vertex-indexed geometric tail."""
    graph = _pair_graph(Enumeration(factory=lambda: itertools.count(1)),
                        Enumeration(factory=_ladder_edges))
    tail = TailWitness(
        kind="geometric",
        unit="vertex",
        bound=lambda k, s: (
            2.0 ** (-(k + 1) * s) / (1.0 - 2.0 ** (-s)) if s > 0 else math.inf
        ),
        diverges_below=0.0,
        description="sum of 2**(-v*s) over vertices v > k",
        pressure_upper=_ladder_pressure_upper,
    )
    return GifsSystem(
        graph, _ladder_seed, _ladder_map, 1,
        contraction=ContractionBound(1, 0.5, 0.5, 1.0),
        tail=tail,
        vertex_bound=lambda v: 2.0 ** (-v),
        name="ladder",
        edge_horizon_cap=600,   # vertex ~301; deeper seeds underflow anyway
    )


def ladder_truncation(k, name=None):
    """Finite restriction of the ladder to vertices 1..k."""
    if k < 1:
        raise ValueError("need at least one vertex")
    sys = ladder_system()
    return subsystem(
        sys, vertices=tuple(range(1, k + 1)), name=name or f"ladder-{k}"
    )


# ---------------------------------------------------------------------------
# Moran-type multigraph loops


def _one_vertex_graph(edges, simple):
    """The graph of the loops edges on the one vertex 0."""
    return DirectedMultigraph(Enumeration(items=(0,)), edges, lambda e: 0, lambda e: 0, simple)


def moran_system(ratios, offsets=None, name="moran"):
    """Single vertex, one similarity loop per ratio; default placement packs
    the images left-to-right on the unit interval (touching).  The
    derivative data is exact, so dimension brackets collapse to solver
    tolerance."""
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise InvalidAlphabet("no ratios")
    for r in ratios:
        if not (0.0 < r < 1.0):
            raise InvalidAlphabet(f"ratio {r} outside (0,1)")
    if offsets is None:
        offsets = []
        acc = 0.0
        for r in ratios:
            offsets.append(acc)
            acc += r
    elif len(offsets) != len(ratios):
        raise InvalidAlphabet("offsets/ratios length mismatch")
    graph = _one_vertex_graph(Enumeration(items=tuple(range(len(ratios)))),
                              simple=(len(ratios) == 1))
    maps = {i: Similarity(r, (t,)) for i, (r, t) in enumerate(zip(ratios, offsets))}
    seeds = {0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75))}
    return GifsSystem(
        graph, seeds, maps, 1,
        contraction=ContractionBound(1, max(ratios), max(ratios), 1.0),
        tail=finite_tail("edge"),
        name=name,
    )


# ---------------------------------------------------------------------------
# planar affine demo


def _affine_system(loop_1, loop_2, rate, name):
    """The two-vertex planar system with the loop loop_1 at vertex 1, the
    2-cycle between the vertices, and the loop loop_2 at vertex 2 unless it
    is None; with its two seeds, the finite vertex tail and the declared
    depth-1 rate."""
    maps = {
        (1, 1): loop_1,
        (1, 2): ConformalAffine(0.25, (-0.5, 0.0)),
        (2, 1): ConformalAffine(0.3, (4.0, 0.0)),
    }
    if loop_2 is not None:
        maps[(2, 2)] = loop_2
    graph = _pair_graph(Enumeration(items=(1, 2)), Enumeration(items=tuple(maps)))
    seeds = {v: SeedSet(v, Ball((x, 0.0), 1.0), Ball((x, 0.0), 1.5))
             for v, x in ((1, 0.0), (2, 4.0))}
    return GifsSystem(
        graph, seeds, maps, 2,
        contraction=ContractionBound(1, rate, rate, 1.0),
        tail=finite_tail("vertex"),
        name=name,
    )


def affine_demo():
    """Two-vertex planar base system, strongly separated; the loop at 1 and
    the 2-cycle give the dimension equation 0.4**s + 0.075**s = 1."""
    return _affine_system(ConformalAffine(0.4, (-0.5, 0.0)), None, 0.4, "affine-demo")


def perturbed_affine(epsilon):
    """affine_demo plus one extra loop at vertex 2 whose map shrinks to the
    constant point (3.3, 0) as epsilon -> 0; the loop at vertex 1 is also
    inflated by 0.05*epsilon so the perturbation touches an existing edge."""
    eps = float(epsilon)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"epsilon {eps} outside [0,1]")
    return _affine_system(
        PerturbedAffine(0.4, 0.05, (-0.5, 0.0), (0.0, 0.0), eps),
        PerturbedAffine(0.0, 0.1, (3.3, 0.0), (-0.4, 0.0), eps),
        0.4 + 0.05 * eps,
        f"affine-demo-perturbed(eps={eps:g})",
    )


# ---------------------------------------------------------------------------
# continued-fraction systems


def _canonical_letter(e):
    z = complex(e)
    m, n = round(z.real), round(z.imag)
    if abs(z.real - m) > 1e-9 or abs(z.imag - n) > 1e-9:
        raise InvalidAlphabet(f"letter {e} is not a Gaussian integer")
    if m < 1:
        raise InvalidAlphabet(f"letter {e} has real part {m} < 1")
    return complex(m, n)


def _gaussian_shells():
    """All letters with Re >= 1 by increasing |e|^2, ties by (Re, Im)."""
    for norm2 in itertools.count(1):
        shell = []
        m = 1
        while m * m <= norm2:
            rest = norm2 - m * m
            n = math.isqrt(rest)
            if n * n == rest:
                if n == 0:
                    shell.append((m, 0))
                else:
                    shell.append((m, -n))
                    shell.append((m, n))
            m += 1
        for m, n in sorted(shell):
            yield complex(m, n)


def gaussian_alphabet(n):
    """Gaussian integers m+ni with 1 <= m <= n_max and |n| <= n_max, in the
    shell order, by (|e|^2, Re, Im): the shells up to the box's corner
    norm 2 * n_max**2, less the letters outside the box."""
    if n < 1:
        raise InvalidAlphabet("empty alphabet")
    shells = itertools.takewhile(lambda e: e.real ** 2 + e.imag ** 2 <= 2 * n * n,
                                 _gaussian_shells())
    return tuple(e for e in shells if e.real <= n and abs(e.imag) <= n)


def cf_split(sub_letters, full_letters=None):
    """The split of a perturbed continued-fraction alphabet into its kept
    letters, in order, and its extension, the letters that degenerate:
    every full letter not kept, in order, or None when full_letters is None
    and the extension is every other letter of the half-lattice.  Every
    letter is canonicalised; a duplicate kept letter, or a kept letter
    outside the full alphabet, raises InvalidAlphabet."""
    kept = tuple(_canonical_letter(e) for e in sub_letters)
    if len(set(kept)) != len(kept):
        raise InvalidAlphabet("duplicate letters in the kept alphabet")
    if full_letters is None:
        return kept, None
    full = [_canonical_letter(e) for e in full_letters]
    if not set(kept) <= set(full):
        raise InvalidAlphabet("kept alphabet is not inside the full one")
    return kept, tuple(e for e in full if e not in kept)


def _annulus_tail(m_floor, s):
    """Bound for the sum of (|e|-1)**(-2s) over letters with |e| >= m_floor.

    Unit annuli |e| in [R, R+1) hold at most pi*((R+1.71)^2-(R-.71)^2)
    <= 23R lattice points (R >= 1), so the tail is at most
    23 * sum_{j >= m_floor-1} (j+1) * j**(-2s) <= 46 * sum j**(1-2s), and the
    integral comparison closes it.  Finite only for s > 1 and m_floor >= 2.
    """
    if s <= 1.0 or m_floor < 2:
        return math.inf
    j = m_floor - 1.0
    return 48.0 * (j ** (1.0 - 2.0 * s) + j ** (2.0 - 2.0 * s) / (2.0 * s - 2.0))


def _cf_tail_witness(enum, skip, prefactor_base):
    """Per-edge tail for shell-ordered Gaussian letters.

    skip: how many leading letters are exempt (the unperturbed core of a
    perturbed family); prefactor_base ** s scales every tail term (epsilon
    of the perturbed maps, or 1).
    """

    def bound(k, s):
        if k < max(skip, 1):
            return math.inf
        first_tail = enum.prefix(k + 1)
        if len(first_tail) <= k:
            return 0.0
        m_floor = math.floor(abs(first_tail[k]))
        return (prefactor_base ** s) * _annulus_tail(m_floor, s)

    return TailWitness(
        kind="p-series",
        unit="edge",
        bound=bound,
        diverges_below=1.0,
        description="half-lattice annulus count times (|e|-1)**(-2s)",
    )


def _cf_system(kept, extension, extension_map, prefactor, name):
    """The one-vertex continued-fraction system on the CF seed: the kept
    letters with their true branches z -> 1/(e+z), then the extension
    letters, each with extension_map(e).  extension is a tuple of letters,
    or None for every other letter of the half-lattice in shell order,
    under the annulus tail that exempts the kept letters and scales each
    term by prefactor**s.

    The system certifies its depth-2 contraction on a probe alphabet, its
    first letters: the whole of a finite one, and the kept letters plus the
    others of gaussian_alphabet(2), the first ten shell-ordered letters, of
    a countable one.  Both composition factors shrink as either letter
    grows (the image disks stay in the right half-plane and |f+1/2| only
    increases), so the probe maximum, attained at the pair (1, 1) when 1 is
    present, bounds every pair of the full alphabet.  Exact value at
    (1,1): 144/169.
    """
    kept_set = set(kept)
    if extension is None:
        enum = Enumeration(factory=lambda: itertools.chain(
            kept, (e for e in _gaussian_shells() if e not in kept_set)))
        tail = _cf_tail_witness(enum, len(kept), prefactor)
        probe = len(kept) + sum(e not in kept_set for e in gaussian_alphabet(2))
    else:
        enum = Enumeration(items=kept + extension)
        tail = finite_tail("edge")
        probe = len(kept) + len(extension)
    system = GifsSystem(
        _one_vertex_graph(enum, simple=False),
        {0: SeedSet(0, Ball((0.5, 0.0), 0.5), Ball((0.5, 0.0), 0.75))},
        lambda e: MoebiusCF(e) if e in kept_set else extension_map(e),
        2,
        tail=tail,
        name=name,
    )
    system.contraction = contraction_certificate(system, probe)
    return system


def cf_system(letters=None, name=None):
    """Inverse continued-fraction branches over an alphabet of Gaussian
    integers with positive real part; letters=None takes the whole countable
    family in shell order.  Certifies its contraction as _cf_system does.
    """
    if letters is None:
        return _cf_system((), None, MoebiusCF, 1.0, name or "cf-full")
    canon = tuple(_canonical_letter(e) for e in letters)
    if len(set(canon)) != len(canon):
        raise InvalidAlphabet("duplicate letters")
    return _cf_system(canon, (), MoebiusCF, 1.0, name or f"cf-{len(canon)}")


def perturbed_cf(sub_letters, full_letters=None, epsilon=1.0):
    """Keep the sub-alphabet's true branches, attach every remaining letter
    of the full alphabet (cf_split) with the degenerating branch
    z -> 1/(e + 1/2 + eps*(z - 1/2)); eps=0 plants the limit constants
    1/(e+1/2) instead (zero derivative, geometry preserved).  Certifies
    contraction as cf_system does.
    """
    eps = float(epsilon)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"epsilon {eps} outside [0,1]")
    kept, extension = cf_split(sub_letters, full_letters)

    def degenerating(e):
        if eps == 0.0:
            z = 1.0 / (e + 0.5)
            return Constant((z.real, z.imag))
        return PerturbedMoebiusCF(e, eps)

    return _cf_system(kept, extension, degenerating, max(eps, 1e-300),
                      f"cf-perturbed(eps={eps:g})")
