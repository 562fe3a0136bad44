"""Depth steps of the state geometry.

Claims checked here:
    - inside a solve, a geometry one depth deeper than the last is built on
      its words, disks and letter classes, and equals a fresh build at that
      depth bit for bit
    - a CF {1, 2} solve maps each word's disk once, one kernel call per
      level, and finds the letter classes and their periods once
    - a depth step frees the shallower geometry, and the deeper one holds
      only its own level's disks
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from gifsdim import maps, pressure
from gifsdim.dimension import bowen_dimension
from gifsdim.pressure import (
    PotentialSpec,
    _build_geometry,
    _reuse_geometry,
    build_weighted_matrix,
    pressure_spectral,
)
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_truncation,
    perturbed_cf,
)

CASES = {
    "cf12": (lambda: cf_system(letters=(1, 2)), 2, 11),
    "perturbed-quarter": (lambda: perturbed_cf((1, 2), (1, 2, 3), 2.0**-2), 3, 5),
    # eps = 0 plants a constant letter, whose disks take disk_image's
    # Constant branch
    "perturbed-zero": (lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=0.0), 3, 5),
    "gaussian-2": (lambda: cf_system(gaussian_alphabet(2)), 64, 3),
    # no Moebius letter, so no disks (nor has the ladder)
    "affine": (affine_demo, 3, 4),
    # not complete, and its depth-1 class has chains
    "ladder-12": (lambda: ladder_truncation(12), 12, 2),
}


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_stepped_geometry_equals_a_fresh_build(name, monkeypatch):
    # the probes only give the step iterates to carry; at eps = 0 the class
    # is reducible and stalls, so the budget is cut
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 200)
    make, k, depth = CASES[name]
    system = make()
    letters = system.letters(k)
    with _reuse_geometry():
        first = None
        for m in range(1, depth + 1):
            # a probe at each depth, so the step also carries iterates
            pressure_spectral(system, PotentialSpec(0.5), k, m)
            got = build_weighted_matrix(system, PotentialSpec(0.6), k, m).geometry
            if first is None:
                first = got
            # the step reused the first geometry's letter classes, over the
            # same letters
            assert got.letters == first.letters
            assert got.letter_classes is first.letter_classes
            want = _build_geometry(system, letters, m)
            assert got.words.dtype == np.min_scalar_type(len(letters))
            for attr in ("words", "indices", "indptr", "lower", "upper"):
                assert same_bits(getattr(got, attr), getattr(want, attr)), (m, attr)
            assert (got.upper is got.lower) == (want.upper is want.lower)
            if want.disks is None:
                assert got.disks is None
            else:
                assert same_bits(got.disks, want.disks), m
            assert got.letter_classes == want.letter_classes
            assert got.states == want.states
    assert (first.disks is None) == (name in ("affine", "ladder-12"))
    assert any(len(cls) > 1 for cls, _, _ in first.letter_classes)


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_a_cf_solve_maps_each_disk_and_finds_each_class_once(monkeypatch):
    # the solve deepens from 1 to 11 letters; rebuilt at every depth the
    # word disks took 114 images, the letter classes 11 searches.  Each
    # level now maps all its words' disks in one kernel call, so the calls
    # count the levels and the disks the words of every length up to the
    # final depth; the seed images, which the condition pass reads first,
    # are mapped once.
    system = cf_system(letters=(1, 2))
    calls, disks = Counter(), []
    image = maps.moebius_disk_image

    def mapped(form, cx, cy, r):
        disks.append(np.size(cx))
        return image(form, cx, cy, r)

    monkeypatch.setattr(maps, "moebius_disk_image", mapped)
    count_calls(monkeypatch, pressure, "strongly_connected_components", calls)
    count_calls(monkeypatch, pressure, "_letter_period", calls)
    res = bowen_dimension(system, s_tol=1e-5)
    assert res.s_upper - res.s_lower <= 1e-5
    assert disks == [2**m for m in range(1, res.depth + 1)]
    assert calls["strongly_connected_components"] == 1
    assert calls["_letter_period"] == 1


def test_a_depth_step_frees_the_shallower_geometry(monkeypatch):
    # the shallower geometry, with its plans and ranges, is gone before the
    # new level is built, and its disks once the step is done
    cf = cf_system(letters=(1, 2))
    extend = pressure.extend_words
    alive_during_step = []

    def watched(initial, terminal, words):
        alive_during_step.append(gone() is not None)
        return extend(initial, terminal, words)

    gc.disable()
    try:
        with _reuse_geometry():
            pressure_spectral(cf, PotentialSpec(0.5), 2, 5)
            old = build_weighted_matrix(cf, PotentialSpec(0.5), 2, 5).geometry
            gone = weakref.ref(old)
            gone_disks = weakref.ref(old.disks)
            del old
            monkeypatch.setattr(pressure, "extend_words", watched)
            geom = build_weighted_matrix(cf, PotentialSpec(0.5), 2, 6).geometry
            assert alive_during_step == [False]
            assert gone() is None
            assert gone_disks() is None
            assert geom.disks.shape == (3, len(geom.words)) == (3, 2**6)
    finally:
        gc.enable()
