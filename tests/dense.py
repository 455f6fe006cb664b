"""numpy arrays to and from `FMatrix` values, for tests that compare with dense references.

The package itself needs no numpy: an `FMatrix` is built from rows of
ints and read back with `tolist`.  These helpers also cover the shapes
with no rows, which a sequence of rows cannot give.
"""

import numpy as np

from cechkit.fplinalg import FMatrix, PrimeField


def dense(m: FMatrix) -> np.ndarray:
    """A new int64 array of m's entries, of m's shape."""
    return np.array(m.tolist(), dtype=np.int64).reshape(m.shape)


def matrix(a, field: PrimeField) -> FMatrix:
    """The matrix of a 2-d array of integers of any shape, reduced mod p."""
    a = np.asarray(a)
    return FMatrix(a, field) if len(a) else FMatrix.zeros(0, a.shape[1], field)


def vector(v, field: PrimeField) -> FMatrix:
    """A 1-d array of integers as a one-column matrix."""
    return matrix(np.asarray(v).reshape(-1, 1), field)
