"""The stacked product of the wide complete classes, from blocks that scipy
slices: the reference for the np.matmul form of pressure._class_matvec."""

import numpy as np


def stacked_matvec(mat, fan):
    """v -> mat @ v for the scipy matrix mat of a complete class over fan
    letters, as the stacked np.matmul of its dense fan x fan blocks, block r
    mapping the states r*fan + b to the states a*R + r, each block sliced
    out of mat by scipy."""
    tails = mat.shape[0] // fan
    letters = np.arange(fan)
    blocks = np.stack([mat[letters * tails + r][:, r * fan + letters].toarray()
                       for r in range(tails)])
    return lambda v: np.matmul(blocks, v.reshape(tails, fan, 1)).reshape(tails, fan).T.ravel()
