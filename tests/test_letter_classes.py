"""Letter classes found on the vertex graph, against the letter graph itself.

Claims checked here:
    - on seeded random multigraphs (self-loops, parallel letters, vertices
      with no letters out) and on the scenario systems, the classes that
      pressure._letter_classes finds on the vertices are the nontrivial
      classes of the dense letter graph, with the same letters in the same
      order, the same positions and the same periods
    - their order is a dependency order of the letter graph
"""

import math

import numpy as np
import pytest

from gifsdim.graphs import strongly_connected_components
from gifsdim.pressure import _letter_classes
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_system,
    ladder_truncation,
    perturbed_cf,
)
from words import Incidence, letter_adjacency, random_multigraph


def letter_period(succ, positions):
    """The gcd of the cycle lengths of the letter class at positions, from
    one breadth-first search over its letters."""
    inside = set(positions)
    level = {positions[0]: 0}
    queue = list(level)
    period = 0
    for u in queue:
        for v in succ[u]:
            if v not in inside:
                continue
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                period = math.gcd(period, level[u] + 1 - level[v])
    return period


def reference_classes(system, k):
    """{letter positions: (letters, period)} of the nontrivial classes of the
    k x k letter graph, found by Tarjan and a breadth-first search on the
    letters themselves."""
    letters, initial, terminal = system.incidence(k)
    dense = letter_adjacency(initial, terminal)
    rows, cols = np.nonzero(dense)
    succ = [cols[rows == a].tolist() for a in range(len(letters))]
    return {cls: (tuple(letters[i] for i in cls), letter_period(succ, cls))
            for cls in strongly_connected_components(succ).nontrivial_classes()}, dense


def check_against_reference(system, k):
    """Assert that the vertex-level classes of letters(k) match the
    reference's and come in a dependency order; returns their count."""
    got = _letter_classes(system, k)
    want, dense = reference_classes(system, k)
    assert {positions: (cls, period) for cls, positions, period in got} == want
    # no letter path leads from a class back to an earlier one
    reach = dense.copy()
    for _ in range(max(1, len(dense).bit_length())):
        reach = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
    for later, (_, after, _) in enumerate(got):
        for _, before, _ in got[:later]:
            assert not reach[np.ix_(list(after), list(before))].any()
    return len(got)


def test_random_multigraphs_match_the_letter_graph():
    rng = np.random.default_rng(20261019)
    counts = []
    for _ in range(3000):
        initial, terminal = random_multigraph(rng, 7, 14)
        counts.append(check_against_reference(Incidence(initial, terminal), len(initial)))
    counts = np.array(counts)
    assert (counts == 0).sum() > 100 and (counts > 1).sum() > 500


@pytest.mark.parametrize("make, k", [
    (ladder_system, 64),
    (ladder_system, 512),
    (lambda: ladder_truncation(12), 12),
    (lambda: cf_system(letters=(1, 2)), 2),
    (lambda: cf_system(gaussian_alphabet(2)), 64),
    (affine_demo, 3),
    (lambda: perturbed_cf((1, 2), (1, 2, 3), epsilon=0.5), 3),
])
def test_scenario_systems_match_the_letter_graph(make, k):
    assert check_against_reference(make(), k) == 1
