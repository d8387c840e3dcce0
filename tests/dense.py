"""Dense arrays of windowed matrices, built from their stored entries, and
random matrices stored as shifted diagonals."""

import numpy as np
from hypothesis import strategies as st

from qeuclid.operators import Diagonals


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


@st.composite
def random_diagonals(draw, n):
    """A random n x n matrix of up to four diagonals, some entries absent,
    with float64 or complex128 values."""
    offsets = sorted(draw(st.sets(st.integers(-(n - 1), n - 1), max_size=4)))
    part = st.floats(-1e3, 1e3, allow_nan=False)
    real = draw(st.booleans())
    values = np.zeros((len(offsets), n), dtype=float if real else complex)
    for d, o in enumerate(offsets):
        for c in range(max(0, -o), min(n, n - o)):
            if draw(st.booleans()):
                values[d, c] = draw(part) if real else complex(draw(part), draw(part))
    return Diagonals(np.array(offsets, dtype=np.int64), values)
