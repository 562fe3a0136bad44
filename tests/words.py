"""The admissible words of one length, built as the solver builds them: the
letters, extended one level at a time by gifsdim.graphs.extend_words."""

import numpy as np

from gifsdim.graphs import extend_words


def word_level(initial, terminal, length):
    """The admissible words of length letters over the letters whose initial
    and terminal vertices are initial and terminal, as rows of letter
    positions, in lexicographic order."""
    initial, terminal = np.asarray(initial), np.asarray(terminal)
    words = np.arange(len(initial))[:, None]
    for _ in range(length - 1):
        words = extend_words(initial, terminal, words)[0]
    return words


def random_multigraph(rng, max_vertices, max_letters):
    """(initial, terminal) of a seeded random multigraph: 1 to max_vertices
    vertices, some possibly without letters in or out, and 1 to max_letters
    letters, self-loops and parallel letters allowed."""
    nverts = int(rng.integers(1, max_vertices + 1))
    k = int(rng.integers(1, max_letters + 1))
    return rng.integers(0, nverts, k), rng.integers(0, nverts, k)


def letter_adjacency(initial, terminal):
    """The dense letter adjacency: [a, b] says b may follow a."""
    return np.asarray(terminal)[:, None] == np.asarray(initial)[None, :]


class Incidence:
    """A stand-in for a system's letter-incidence table (see
    GifsSystem.incidence) over a multigraph whose letters are their own
    positions."""

    def __init__(self, initial, terminal):
        self.initial, self.terminal = np.asarray(initial), np.asarray(terminal)

    def incidence(self, count):
        count = min(count, len(self.initial))
        return list(range(count)), self.initial[:count], self.terminal[:count]
