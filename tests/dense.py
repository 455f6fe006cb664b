"""numpy arrays to and from `FMatrix` values, for tests that compare with the dense reference.

The package itself needs no numpy: an `FMatrix` is built from rows of
ints and read back with `tolist`.  These helpers also cover the shapes
with no rows, which a sequence of rows cannot give.
"""

import numpy as np
import reference

from cechkit.fplinalg import Echelon, FMatrix, PrimeField


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


def equal(m: FMatrix, a) -> bool:
    """Whether m has the shape and the entries of an array with entries in [0, p)."""
    a = np.asarray(a)
    return m.shape == a.shape and m.tolist() == a.tolist()


class DenseEchelon(Echelon):
    """An echelon whose rows are the reference's reduced form, whose pivot rows `reduced` returns."""

    def reduced(self) -> FMatrix:
        return matrix(self.rows[:len(self.pivots)], self.field)

    def remainder(self, a: FMatrix) -> FMatrix:
        # a reduced row is 1 in its own pivot column and 0 in every other one
        rows = dense(a)
        for k, c in enumerate(self.pivots):
            rows = (rows - np.outer(rows[:, c], self.rows[k])) % self.field.p
        return matrix(rows, self.field)


def dense_echelon(a: np.ndarray, p: int) -> Echelon:
    """`echelon` on the reference's dense elimination, with the same pivots and reduced form."""
    reduced, pivots = reference.rref(a, p)
    return DenseEchelon(a.shape, PrimeField(p), pivots, reduced)
