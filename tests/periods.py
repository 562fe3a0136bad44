"""The period of a strongly connected sparsity pattern, found with scipy and
not with gifsdim: breadth-first distances from state 0, then the gcd over
the entries i -> j of dist(i) + 1 - dist(j), which is the gcd of the
pattern's cycle lengths."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def pattern_period(indptr, indices):
    """Period of the CSR pattern (indptr, indices) of a strongly connected
    matrix."""
    n = len(indptr) - 1
    graph = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    dist = csgraph.shortest_path(graph, unweighted=True, indices=0)
    row = np.repeat(np.arange(n), np.diff(indptr))
    return int(np.gcd.reduce((dist[row] + 1 - dist[indices]).astype(np.int64)))
