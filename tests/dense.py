"""Dense arrays of windowed matrices, built from their stored entries."""

import numpy as np


def to_dense(A) -> np.ndarray:
    """The n x n complex array of a matrix with a row-major
    ``triples()`` export of its stored (rows, cols, values)."""
    rows, cols, vals = A.triples()
    out = np.zeros(A.shape, dtype=np.complex128)
    out[rows, cols] = vals
    return out
