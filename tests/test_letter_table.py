"""The letter table, and the state geometry gathered from it.

Claims checked here:
    - a geometry built from the letter table equals the per-letter build of
      geometry_reference bit for bit (dtype, shape, bytes, and whether upper
      is lower) on every map family: the countable ladder, CF truncations,
      a Gaussian alphabet, perturbed CF systems that mix both Moebius kinds
      or plant Constant letters, planar affine systems and a reflected 1-D
      Moran system
    - the table's seed disks and seed ranges, and seed_image and
      letter_range, which read them, are the per-letter routes of
      geometry_reference bit for bit, for letters the table holds and for
      letters beyond it
    - a word disk or a range that reaches a pole still raises
      DomainViolation, and a letter whose seed image or range meets a pole
      fails alone, and a letter the alphabet lacks is not a letter
    - a build calls each map kernel at most once per family per level, a
      CF system's certificate maps and ranges its letter pairs with one
      kernel call each, and the table calls a system's map callback once
      per letter, from construction on, however many horizons and
      exponents ask for it
    - an affine letter's range builds no seed: a ladder solve without its
      condition pass builds none
    - a stacked class's weights start on a 64-byte boundary, and the
      brackets keep their bits
"""

from collections import Counter

import numpy as np
import pytest

from gifsdim import maps, pressure, scenarios
from gifsdim.dimension import bowen_dimension
from gifsdim.errors import DomainViolation, NonAdmissibleWord
from gifsdim.graphs import DirectedMultigraph, Enumeration
from gifsdim.maps import ConformalAffine, MoebiusCF, Similarity
from gifsdim.pressure import (
    PotentialSpec,
    _build_geometry,
    pressure_spectral,
    truncation_ladder,
)
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_system,
    perturbed_affine,
    perturbed_cf,
)
from gifsdim.shapes import Ball
from gifsdim.systems import ContractionBound, GifsSystem, SeedSet, finite_tail
import geometry_reference as reference_routes
from geometry_reference import per_letter_geometry


def reflected_moran():
    """Three reflected similarities x -> -r x + t on [0, 1], one vertex."""
    maps_ = {0: Similarity(0.25, (0.25,), reflect=True),
             1: Similarity(0.3, (0.7,), reflect=True),
             2: Similarity(0.2, (1.0,), reflect=True)}
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(items=(0, 1, 2)),
        initial=lambda e: 0,
        terminal=lambda e: 0,
    )
    seeds = {0: SeedSet(0, Ball((0.5,), 0.5), Ball((0.5,), 0.75))}
    return GifsSystem(graph, seeds, maps_, 1,
                      contraction=ContractionBound(1, 0.3, 0.3, 1.0),
                      tail=finite_tail("edge"), name="moran-reflected")


def pole_system():
    """CF letters 1 and 2 beside an affine letter a whose seed image
    B(-1, 1/20) holds the pole -1 of letter 1, so the word (1, a) maps it
    through the pole."""
    maps_ = {1: MoebiusCF(1), "a": ConformalAffine(0.1, (-1.05, 0.0)), 2: MoebiusCF(2)}
    graph = DirectedMultigraph(
        vertices=Enumeration(items=(0,)),
        edges=Enumeration(items=(1, "a", 2)),
        initial=lambda e: 0,
        terminal=lambda e: 0,
    )
    seeds = {0: SeedSet(0, Ball((0.5, 0.0), 0.5), Ball((0.5, 0.0), 0.75))}
    return GifsSystem(graph, seeds, maps_, 2, tail=finite_tail("edge"), name="pole")


CASES = {
    "ladder": (ladder_system, (64, 512), (1,)),
    "cf-full": (cf_system, (5, 40), (1,)),
    "gaussian-4": (lambda: cf_system(gaussian_alphabet(4)), (36,), (1, 2)),
    "cf12": (lambda: cf_system(letters=(1, 2)), (2,), tuple(range(1, 12))),
    "perturbed-quarter": (lambda: perturbed_cf((1, 2), (1, 2, 3), 0.25), (3,), (1, 2, 3, 4)),
    "perturbed-zero": (lambda: perturbed_cf((1, 2), (1, 2, 3), 0.0), (3,), (1, 2, 3, 4)),
    "affine": (affine_demo, (3,), (1, 2, 3)),
    "perturbed-affine": (lambda: perturbed_affine(0.3), (4,), (1, 2, 3)),
    "moran-reflected": (reflected_moran, (3,), (1, 2, 3)),
}


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_table_build_equals_the_per_letter_build(name):
    make, horizons, depths = CASES[name]
    for k in horizons:
        for m in depths:
            # each build on a fresh system, so that neither one reads the
            # other's cached data
            system, reference = make(), make()
            letters = system.letters(k)
            got = _build_geometry(system, letters, m)
            words, indices, indptr, lower, upper, disks = per_letter_geometry(
                reference, reference.letters(k), m)
            for attr, want in (("words", words), ("indices", indices),
                               ("indptr", indptr), ("lower", lower), ("upper", upper)):
                assert same_bits(getattr(got, attr), want), (k, m, attr)
            assert (got.upper is got.lower) == (upper is lower), (k, m)
            assert (got.disks is None) == (disks is None)
            if disks is not None:
                assert same_bits(np.ascontiguousarray(got.disks), disks), (k, m)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_table_columns_are_the_per_letter_routes(name):
    make, horizons, _ = CASES[name]
    system, reference = make(), make()
    k = horizons[-1]
    letters = reference.letters(k)
    ranges = [reference_routes.letter_range(reference, e) for e in letters]
    images = [reference_routes.seed_image(reference, e) for e in letters]
    # a letter beyond the table grows it, doubling, to the letter
    assert system.seed_image(letters[-1]) == images[-1]
    assert len(system._letters) >= k
    assert [system.letter_range(e) for e in letters] == ranges
    assert [system.seed_image(e) for e in letters] == images
    # a short prefix first, so the columns also grow
    system = make()
    system.seed_ranges(1)
    lower, upper = system.seed_ranges(k)
    assert same_bits(lower, np.array([w.lower for w in ranges]))
    assert same_bits(upper, np.array([w.upper for w in ranges]))
    assert [system.letter_range(e) for e in letters] == ranges
    moebius, _ = system.letter_table(k)
    assert moebius.tolist() == [isinstance(reference.map_of(e), maps._MOEBIUS_KINDS)
                                for e in letters]
    assert [system.seed_image(e) for e in letters] == images
    if reference.ambient_dim == 2:
        system.seed_disks(2)
        disks = system.seed_disks(k)
        assert same_bits(np.ascontiguousarray(disks),
                         np.array([(*b.center, b.radius) for b in images]).T.copy())


def test_a_letter_whose_seed_meets_a_pole_fails_alone():
    # the seed B(-1, 1/2) holds the pole -1 of letter 1, not the pole -2 of
    # letter 2, which comes first
    base = cf_system([2, 1])
    seeds = {0: SeedSet(0, Ball((-1.0, 0.0), 0.5), Ball((-1.0, 0.0), 0.75))}
    system = GifsSystem(base.graph, seeds, MoebiusCF, 2, name="pole")
    reference = GifsSystem(base.graph, seeds, MoebiusCF, 2, name="pole")
    assert system.letters(2) == [2, 1]
    assert system.seed_image(2) == reference_routes.seed_image(reference, 2)
    assert system.letter_range(2) == reference_routes.letter_range(reference, 2)
    for _ in range(2):
        with pytest.raises(DomainViolation, match="pole inside"):
            system.seed_image(1)
        with pytest.raises(DomainViolation, match="reaches within"):
            system.letter_range(1)
    assert system.seed_disks(1).shape == (3, 1)
    assert system.seed_ranges(1).shape == (2, 1)
    with pytest.raises(DomainViolation, match="pole inside"):
        system.seed_disks(2)
    with pytest.raises(DomainViolation, match="reaches within"):
        system.seed_ranges(2)
    # the alphabet ends without letter 3
    with pytest.raises(NonAdmissibleWord):
        system.seed_image(3)


def test_a_word_disk_through_a_pole_still_raises():
    system = pole_system()
    letters = system.letters(3)
    # at depth 2 the disk of the word (1, a) is mapped before any range
    with pytest.raises(DomainViolation, match="pole inside"):
        _build_geometry(system, letters, 2)
    with pytest.raises(DomainViolation, match="pole inside"):
        per_letter_geometry(pole_system(), letters, 2)
    # at depth 1 letter 1's range over the enclosure of a reaches it
    with pytest.raises(DomainViolation, match="reaches within"):
        _build_geometry(pole_system(), letters, 1)


def count_calls(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


KERNELS = ("moebius_disk_image", "affine_disk_image", "moebius_derivative_range",
           "disk_image", "derivative_range_over_set", "image_enclosure")


def test_a_build_calls_each_kernel_once_per_family_and_level(monkeypatch):
    system = cf_system(gaussian_alphabet(4))
    mixed = perturbed_cf((1, 2), (1, 2, 3), 0.0)
    calls = count_calls(monkeypatch, maps, KERNELS)
    geom = _build_geometry(system, system.letters(36), 2)
    assert len(geom.words) == 36**2
    # the seed disks (level 1) and the words' disks (level 2), then the
    # ranges; no per-letter helper runs
    assert calls == {"moebius_disk_image": 2, "moebius_derivative_range": 1}
    # with Moebius and Constant letters, each level takes one call per
    # family
    calls.clear()
    _build_geometry(mixed, mixed.letters(3), 3)
    assert calls == {"moebius_disk_image": 3, "affine_disk_image": 3,
                     "moebius_derivative_range": 1}


def test_a_cf_build_maps_no_letter_pair_alone(monkeypatch):
    calls = count_calls(monkeypatch, maps, KERNELS)
    cf_system(gaussian_alphabet(4))
    # the certificate ranges each letter over its neighbourhood alone, then
    # maps the 36 neighbourhoods and ranges the 1,296 pairs with one kernel
    # call each
    assert calls == {"derivative_range_over_set": 36, "moebius_derivative_range": 37,
                     "moebius_disk_image": 1}


def test_cf_truncation_ladders_map_each_letter_once(monkeypatch):
    # counted from construction, whose certificate maps the first ten
    # letters, through the ladders' 40
    calls = Counter()

    def counted(e):
        calls[e] += 1
        return MoebiusCF(e)

    monkeypatch.setattr(scenarios, "MoebiusCF", counted)
    system = cf_system()
    assert sum(calls.values()) == 10
    for s in (1.25, 1.5, 1.75):
        truncation_ladder(system, PotentialSpec(s), [5, 10, 20, 40])
    assert sum(calls.values()) == 40
    assert set(calls.values()) == {1}


def test_an_affine_solve_builds_no_seed_beyond_its_conditions():
    built = []
    for check in (False, True):
        system = ladder_system()
        seeds = system._seed_fn
        built.append([])
        system._seed_fn = lambda v, log=built[-1]: (log.append(v), seeds(v))[1]
        res = bowen_dimension(system, s_tol=1e-3, check_conditions=check)
        assert res.s_lower <= 0.6321309 <= res.s_upper
    # an affine range is |lin| on any set: the solve reads no seed, and the
    # condition pass reads its 32 vertices' seeds and vertex 33's, where its
    # 64th letter, (1, 33), ends
    assert built[0] == []
    assert sorted(built[1]) == list(range(1, 34))


def test_stacked_weights_are_aligned_and_keep_their_bits(monkeypatch):
    # 36 letters at depth 2: 36 blocks of 36 x 36, on the stacked form
    system = cf_system(gaussian_alphabet(4))
    offsets = Counter()
    matvec = pressure._class_matvec

    def watched(plan, data, v):
        if pressure._stacked(plan.fan, plan.size):
            offsets.update(row.ctypes.data % 64 for row in data)
        return matvec(plan, data, v)

    monkeypatch.setattr(pressure, "_class_matvec", watched)
    est = pressure_spectral(system, PotentialSpec(1.5), 36, 2)
    # one product with a row per side, until one side stops and the other
    # runs on alone on its own row
    assert offsets == {0: 3}
    assert all(row.ctypes.data % 64 == 0 for sides in (1, 2) for n in range(1, 40)
               for row in pressure._aligned(sides, n))
    # the same bracket on an unaligned copy of the weights
    monkeypatch.setattr(pressure, "_aligned",
                        lambda sides, n: np.empty((sides, n + 1))[:, 1:])
    again = pressure_spectral(cf_system(gaussian_alphabet(4)), PotentialSpec(1.5), 36, 2)
    assert (est.lower, est.upper) == (again.lower, again.upper)
