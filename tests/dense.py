"""Dense arrays of windowed matrices, built from their stored entries."""

import numpy as np


def to_dense(A) -> np.ndarray:
    """The n x n array, of the values' dtype, of a matrix with a row-major
    ``triples()`` export of its stored (rows, cols, values)."""
    rows, cols, vals = A.triples()
    out = np.zeros(A.shape, dtype=vals.dtype)
    out[rows, cols] = vals
    return out


def outside_slots(A) -> np.ndarray:
    """The stored values of ``A`` in slots whose row c + offset falls
    outside the matrix; each must be an exact 0."""
    n = A.shape[0]
    rows = np.arange(n) + A.offsets[:, None]
    return A.values[(rows < 0) | (rows >= n)]
