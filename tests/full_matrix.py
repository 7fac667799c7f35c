"""States given as one full 2n x 2n covariance matrix (Q, R; R^T, P)."""

import numpy as np

from thirdsound import gaussian as ga


def from_full_matrix(data, labelling, basis=None):
    """The state of a full matrix, through ``CovarianceMatrix.from_blocks``,
    which checks Q and P; R is read from the upper right block."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0] // 2
    return ga.CovarianceMatrix.from_blocks(data[:n, :n], data[n:, n:], data[:n, n:], labelling,
                                           basis=basis)
