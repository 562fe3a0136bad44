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
    graph = DirectedMultigraph(
        vertices=Enumeration(factory=lambda: itertools.count(1)),
        edges=Enumeration(factory=_ladder_edges),
        initial=lambda e: e[0],
        terminal=lambda e: e[1],
        simple=True,
    )
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
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(items=tuple(range(len(ratios)))),
        initial=lambda e: 0,
        terminal=lambda e: 0,
        simple=(len(ratios) == 1),
    )
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


def _affine_seeds():
    return {
        1: SeedSet(1, Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.5)),
        2: SeedSet(2, Ball((4.0, 0.0), 1.0), Ball((4.0, 0.0), 1.5)),
    }


def affine_demo():
    """Two-vertex planar base system, strongly separated; the loop at 1 and
    the 2-cycle give the dimension equation 0.4**s + 0.075**s = 1."""
    edges = ((1, 1), (1, 2), (2, 1))
    maps = {
        (1, 1): ConformalAffine(0.4, (-0.5, 0.0)),
        (1, 2): ConformalAffine(0.25, (-0.5, 0.0)),
        (2, 1): ConformalAffine(0.3, (4.0, 0.0)),
    }
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(1, 2)),
        edges=Enumeration(items=edges),
        initial=lambda e: e[0],
        terminal=lambda e: e[1],
        simple=True,
    )
    return GifsSystem(
        graph, _affine_seeds(), maps, 2,
        contraction=ContractionBound(1, 0.4, 0.4, 1.0),
        tail=finite_tail("vertex"),
        name="affine-demo",
    )


def perturbed_affine(epsilon):
    """affine_demo plus one extra loop at vertex 2 whose map shrinks to the
    constant point (3.3, 0) as epsilon -> 0; the loop at vertex 1 is also
    inflated by 0.05*epsilon so the perturbation touches an existing edge."""
    eps = float(epsilon)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"epsilon {eps} outside [0,1]")
    edges = ((1, 1), (1, 2), (2, 1), (2, 2))
    maps = {
        (1, 1): PerturbedAffine(0.4, 0.05, (-0.5, 0.0), (0.0, 0.0), eps),
        (1, 2): ConformalAffine(0.25, (-0.5, 0.0)),
        (2, 1): ConformalAffine(0.3, (4.0, 0.0)),
        (2, 2): PerturbedAffine(0.0, 0.1, (3.3, 0.0), (-0.4, 0.0), eps),
    }
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(1, 2)),
        edges=Enumeration(items=edges),
        initial=lambda e: e[0],
        terminal=lambda e: e[1],
        simple=True,
    )
    return GifsSystem(
        graph, _affine_seeds(), maps, 2,
        contraction=ContractionBound(1, 0.4 + 0.05 * eps, 0.4 + 0.05 * eps, 1.0),
        tail=finite_tail("vertex"),
        name=f"affine-demo-perturbed(eps={eps:g})",
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


def gaussian_alphabet(n):
    """Gaussian integers m+ni with 1 <= m <= n_max and |n| <= n_max, sorted
    by (|e|^2, Re, Im)."""
    if n < 1:
        raise InvalidAlphabet("empty alphabet")
    letters = [
        (m * m + q * q, m, q)
        for m in range(1, n + 1)
        for q in range(-n, n + 1)
    ]
    letters.sort()
    return tuple(complex(m, q) for _, m, q in letters)


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


_CF_SEED = SeedSet(0, Ball((0.5, 0.0), 0.5), Ball((0.5, 0.0), 0.75))


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


def _cf_graph(letters_enum):
    return DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=letters_enum,
        initial=lambda e: 0,
        terminal=lambda e: 0,
        simple=False,
    )


def cf_system(letters=None, name=None):
    """Inverse continued-fraction branches over an alphabet of Gaussian
    integers with positive real part; letters=None takes the whole countable
    family in shell order.

    The system certifies its depth-2 contraction on a probe alphabet, its
    first letters: the whole of a finite one, and gaussian_alphabet(2), the
    first ten shell-ordered letters, of the countable family.  Both
    composition factors shrink as either letter grows (the image disks stay
    in the right half-plane and |f+1/2| only increases), so the probe
    maximum, attained at the pair (1, 1) when 1 is present, bounds every
    pair of the full alphabet.  Exact value at (1,1): 144/169.
    """
    if letters is None:
        enum = Enumeration(factory=_gaussian_shells)
        tail = _cf_tail_witness(enum, 0, 1.0)
        probe = len(gaussian_alphabet(2))
        sys_name = name or "cf-full"
    else:
        canon = [_canonical_letter(e) for e in letters]
        if len(set(canon)) != len(canon):
            raise InvalidAlphabet("duplicate letters")
        enum = Enumeration(items=tuple(canon))
        tail = finite_tail("edge")
        probe = len(canon)
        sys_name = name or f"cf-{len(canon)}"
    system = GifsSystem(
        _cf_graph(enum),
        {0: _CF_SEED},
        lambda e: MoebiusCF(e),
        2,
        tail=tail,
        name=sys_name,
    )
    system.contraction = contraction_certificate(system, probe)
    return system


def perturbed_cf(sub_letters, full_letters=None, epsilon=1.0):
    """Keep the sub-alphabet's true branches, attach every remaining letter
    of the full alphabet with the degenerating branch
    z -> 1/(e + 1/2 + eps*(z - 1/2)); eps=0 plants the limit constants
    1/(e+1/2) instead (zero derivative, geometry preserved).  Certifies
    contraction as cf_system does, on the sub-alphabet and gaussian_alphabet(2)
    (or the finite full alphabet), the first letters of its order.
    """
    eps = float(epsilon)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"epsilon {eps} outside [0,1]")
    sub = tuple(_canonical_letter(e) for e in sub_letters)
    if len(set(sub)) != len(sub):
        raise InvalidAlphabet("duplicate letters in the kept alphabet")
    sub_set = set(sub)

    if full_letters is None:
        def chained():
            yield from sub
            for e in _gaussian_shells():
                if e not in sub_set:
                    yield e
        enum = Enumeration(factory=chained)
        tail = _cf_tail_witness(enum, len(sub), max(eps, 1e-300))
        probe = len(sub) + sum(e not in sub_set for e in gaussian_alphabet(2))
    else:
        full = [_canonical_letter(e) for e in full_letters]
        if not sub_set <= set(full):
            raise InvalidAlphabet("kept alphabet is not inside the full one")
        extra = [e for e in full if e not in sub_set]
        enum = Enumeration(items=sub + tuple(extra))
        tail = finite_tail("edge")
        probe = len(sub) + len(extra)

    def map_for(e):
        if e in sub_set:
            return MoebiusCF(e)
        if eps == 0.0:
            z = 1.0 / (e + 0.5)
            return Constant((z.real, z.imag))
        return PerturbedMoebiusCF(e, eps)

    system = GifsSystem(
        _cf_graph(enum),
        {0: _CF_SEED},
        map_for,
        2,
        tail=tail,
        name=f"cf-perturbed(eps={eps:g})",
    )
    system.contraction = contraction_certificate(system, probe)
    return system
