"""Graph-layer tests.

Claims checked here:
    - edge-coding transitions match a hand oracle on a 3-edge ladder subgraph
    - vertex-coding builder rejects parallel edges
    - Tarjan classes match a brute-force reachability oracle on random digraphs
    - class order is dependency order; trivial classes are flagged
    - word levels are lexicographic, admissible, and counted by the
      matrix-power oracle
"""

import itertools

import numpy as np
import pytest

from gifsdim.errors import NonSimpleGraph
from gifsdim.graphs import (
    DirectedMultigraph,
    FiniteTransition,
    build_edge_transition,
    build_vertex_transition,
    finite_enumeration,
    is_irreducible,
    strongly_connected_components,
    word_levels,
)


def multigraph_from_lists(vertices, edge_table):
    """edge_table: {edge_id: (initial, terminal)}"""
    edges = finite_enumeration(edge_table)
    return DirectedMultigraph(
        vertices=finite_enumeration(vertices),
        edges=edges,
        initial=lambda e: edge_table[e][0],
        terminal=lambda e: edge_table[e][1],
    )


def reachability_oracle(dense):
    """Brute-force transitive closure; reach[i][j] = path of length >= 1."""
    n = dense.shape[0]
    reach = dense.astype(bool).copy()
    for _ in range(n):
        reach = reach | (reach @ dense.astype(bool))
    return reach


def scc_oracle(dense):
    """Classes via mutual reachability (a~b iff a->b and b->a, or a==b)."""
    n = dense.shape[0]
    reach = reachability_oracle(dense)
    classes = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        comp = [j for j in range(n)
                if j == i or (reach[i][j] and reach[j][i])]
        for j in comp:
            assigned[j] = True
        classes.append(tuple(sorted(comp)))
    return set(classes)


# -- edge/vertex transition builders ----------------------------------------

def test_edge_transition_matches_hand_oracle():
    table = {"e11": (1, 1), "e12": (1, 2), "e21": (2, 1)}
    g = multigraph_from_lists([1, 2], table)
    mat = build_edge_transition(g)
    expected = {}
    for e, e2 in itertools.product(table, repeat=2):
        expected[(e, e2)] = table[e][1] == table[e2][0]
    for (e, e2), want in expected.items():
        assert mat.entry(e, e2) == want
    # spot-check the full row structure too
    fin = mat.materialize(3)
    assert fin.states == ["e11", "e12", "e21"]
    assert [fin.states[j] for j in fin.succ[fin.index["e11"]]] == ["e11", "e12"]
    assert [fin.states[j] for j in fin.succ[fin.index["e12"]]] == ["e21"]
    assert [fin.states[j] for j in fin.succ[fin.index["e21"]]] == ["e11", "e12"]


def test_vertex_transition_requires_simple():
    table = {"a": (1, 2), "b": (1, 2)}
    g = multigraph_from_lists([1, 2], table)
    with pytest.raises(NonSimpleGraph):
        build_vertex_transition(g)


def test_vertex_transition_on_simple_graph():
    table = {(1, 1): (1, 1), (1, 2): (1, 2), (2, 1): (2, 1)}
    g = multigraph_from_lists([1, 2], table)
    mat = build_vertex_transition(g)
    assert mat.entry(1, 1) and mat.entry(1, 2) and mat.entry(2, 1)
    assert not mat.entry(2, 2)


# -- strongly connected components -------------------------------------------

def test_scc_example_two_classes_in_dependency_order():
    fin = FiniteTransition.from_pairs(
        [1, 2, 3], [(1, 2), (2, 1), (2, 3), (3, 3)]
    )
    dec = strongly_connected_components(fin, 3)
    assert dec.classes == ((1, 2), (3,))
    assert dec.trivial == (False, False)


def test_scc_trivial_class_flagged():
    fin = FiniteTransition.from_pairs([1, 2], [(1, 2), (2, 2)])
    dec = strongly_connected_components(fin, 2)
    assert dec.classes == ((1,), (2,))
    assert dec.trivial == (True, False)


def test_scc_against_reachability_oracle_random():
    rng = np.random.default_rng(20260816)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        dense = (rng.random((n, n)) < 0.28).astype(np.int8)
        pairs = [(i, j) for i in range(n) for j in range(n) if dense[i, j]]
        fin = FiniteTransition.from_pairs(list(range(n)), pairs)
        dec = strongly_connected_components(fin, n)
        got = {tuple(sorted(c)) for c in dec.classes}
        assert got == scc_oracle(dense), f"trial {trial}"
        # dependency order: no edge from a later class to an earlier one
        pos = {}
        for rank, comp in enumerate(dec.classes):
            for s in comp:
                pos[s] = rank
        for i, j in pairs:
            assert pos[i] <= pos[j]


def test_is_irreducible_cases():
    cycle = FiniteTransition.from_pairs([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    assert is_irreducible(cycle)
    loopless = FiniteTransition.from_pairs([0], [])
    assert not is_irreducible(loopless)
    loop = FiniteTransition.from_pairs([0], [(0, 0)])
    assert is_irreducible(loop)
    split = FiniteTransition.from_pairs([0, 1], [(0, 0), (1, 1)])
    assert not is_irreducible(split)


# -- admissible words ---------------------------------------------------------

def spelled_words(adj, length, alphabet):
    """The words of the last level of word_levels, spelled over alphabet."""
    words = word_levels(np.asarray(adj), length)[-1][0]
    return [tuple(alphabet[i] for i in w) for w in words.tolist()]


def test_admissible_words_cycle():
    fin = FiniteTransition.from_pairs([1, 2], [(1, 2), (2, 1)])
    words = spelled_words(fin.dense, 3, [1, 2])
    assert words == [(1, 2, 1), (2, 1, 2)]


def test_admissible_words_lexicographic_and_counted():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        dense = (rng.random((n, n)) < 0.5).astype(np.int8)
        for length in (1, 2, 4):
            words = spelled_words(dense, length, list(range(n)))
            # every consecutive pair admissible
            for w in words:
                for a, b in zip(w, w[1:]):
                    assert dense[a, b]
            # lexicographic order
            assert words == sorted(words)
            # count oracle: number of length-L words = sum over entries of
            # the (L-1)-th matrix power
            power = np.linalg.matrix_power(dense.astype(np.int64), length - 1)
            assert len(words) == int(power.sum())


def test_admissible_words_respects_sub_alphabet():
    fin = FiniteTransition.from_pairs(
        [0, 1, 2], [(0, 1), (1, 0), (1, 2), (2, 0)]
    )
    # the solver's letter transition covers exactly its letters
    words = spelled_words(fin.dense[:2, :2], 3, [0, 1])
    assert words == [(0, 1, 0), (1, 0, 1)]
