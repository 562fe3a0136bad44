"""The admissible words of one length, built as the solver builds them: the
letters, extended one level at a time by gifsdim.graphs.extend_words."""

import numpy as np

from gifsdim.graphs import extend_words


def word_level(adj, length):
    """The admissible words of length letters over the letter adjacency
    adj, as rows of letter positions, in lexicographic order."""
    adj = np.asarray(adj)
    words = np.arange(len(adj))[:, None]
    for _ in range(length - 1):
        words = extend_words(adj, words)[0]
    return words
