"""Graph-layer tests.

Claims checked here:
    - Tarjan classes match a brute-force reachability oracle on random digraphs
    - class order is dependency order; trivial classes are flagged
    - word levels over the letters of random multigraphs, where b may
      follow a when a ends where b starts, are lexicographic, admissible,
      and counted by the matrix-power oracle; each step's tails and blocks
      locate every new word's tail and first letter
"""

import itertools

import numpy as np

from gifsdim.graphs import (
    extend_words,
    strongly_connected_components,
)
from words import letter_adjacency, random_multigraph, word_level


def from_pairs(states, pairs):
    """The successor lists over the positions of states, an edge a -> b per
    pair, each list ascending."""
    index = {s: i for i, s in enumerate(states)}
    succ = [[] for _ in states]
    for a, b in pairs:
        succ[index[a]].append(index[b])
    return [sorted(row) for row in succ]


def named(states, dec):
    """The classes of dec, spelled over states."""
    return tuple(tuple(states[i] for i in cls) for cls in dec.classes)


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


# -- strongly connected components -------------------------------------------

def test_scc_example_two_classes_in_dependency_order():
    states = [1, 2, 3]
    succ = from_pairs(states, [(1, 2), (2, 1), (2, 3), (3, 3)])
    dec = strongly_connected_components(succ)
    assert named(states, dec) == ((1, 2), (3,))
    assert dec.trivial == (False, False)


def test_scc_trivial_class_flagged():
    states = [1, 2]
    dec = strongly_connected_components(from_pairs(states, [(1, 2), (2, 2)]))
    assert named(states, dec) == ((1,), (2,))
    assert dec.trivial == (True, False)


def test_scc_against_reachability_oracle_random():
    rng = np.random.default_rng(20260816)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        dense = (rng.random((n, n)) < 0.28).astype(np.int8)
        pairs = [(i, j) for i in range(n) for j in range(n) if dense[i, j]]
        dec = strongly_connected_components(from_pairs(list(range(n)), pairs))
        got = {tuple(sorted(c)) for c in dec.classes}
        assert got == scc_oracle(dense), f"trial {trial}"
        # dependency order: no edge from a later class to an earlier one
        pos = {}
        for rank, comp in enumerate(dec.classes):
            for s in comp:
                pos[s] = rank
        for i, j in pairs:
            assert pos[i] <= pos[j]


# -- admissible words ---------------------------------------------------------

def spelled_words(initial, terminal, length, alphabet):
    """The admissible words of the given length, spelled over alphabet."""
    words = word_level(initial, terminal, length)
    return [tuple(alphabet[i] for i in w) for w in words.tolist()]


def test_admissible_words_cycle():
    # letter 1 runs from vertex 0 to 1 and letter 2 back
    words = spelled_words([0, 1], [1, 0], 3, [1, 2])
    assert words == [(1, 2, 1), (2, 1, 2)]


def test_admissible_words_lexicographic_and_counted():
    rng = np.random.default_rng(7)
    for trial in range(20):
        initial, terminal = random_multigraph(rng, 4, 6)
        n = len(initial)
        dense = letter_adjacency(initial, terminal)
        for length in (1, 2, 4):
            words = spelled_words(initial, terminal, length, list(range(n)))
            # every consecutive pair admissible
            for w in words:
                for a, b in zip(w, w[1:]):
                    assert dense[a, b]
            # lexicographic order
            assert words == sorted(words)
            # and every admissible word, once
            assert words == [w for w in itertools.product(range(n), repeat=length)
                             if all(dense[a, b] for a, b in zip(w, w[1:]))]
            # count oracle: number of length-L words = sum over entries of
            # the (L-1)-th matrix power
            power = np.linalg.matrix_power(dense.astype(np.int64), length - 1)
            assert len(words) == int(power.sum())


def test_admissible_words_respects_sub_alphabet():
    # letters 0 -> 1, 1 -> 0 (from vertex 1 to 0) and 2, a loop at vertex 0
    initial, terminal = np.array([0, 1, 0]), np.array([1, 0, 0])
    # the solver's letter transition covers exactly its letters
    words = spelled_words(initial[:2], terminal[:2], 3, [0, 1])
    assert words == [(0, 1, 0), (1, 0, 1)]


def test_one_step_locates_tails_and_first_letters():
    # each new word is its block's first letter followed by the word its
    # tail index names, and the words keep the dtype they were given
    rng = np.random.default_rng(11)
    for trial in range(20):
        initial, terminal = random_multigraph(rng, 4, 6)
        n = len(initial)
        words = np.arange(n, dtype=np.uint8)[:, None]
        for length in (2, 3, 4):
            longer, tails, blocks = extend_words(initial, terminal, words)
            assert longer.dtype == np.uint8 and longer.shape[1] == length
            assert np.array_equal(longer[:, 1:], words[tails])
            assert blocks[0] == 0 and blocks[-1] == len(longer)
            for a in range(n):
                assert (longer[blocks[a]:blocks[a + 1], 0] == a).all()
            assert np.array_equal(longer, word_level(initial, terminal, length))
            words = longer
