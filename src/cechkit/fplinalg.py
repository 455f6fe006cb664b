"""Exact dense linear algebra over prime fields.

Every cohomology computation in this package reduces to rank, kernel and
solve calls on small dense matrices with entries in F_p.  Matrices are
numpy int64 arrays normalised to the range [0, p); all routines are
deterministic, so repeated runs give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class NotPrime(ValueError):
    pass


class ModulusTooLarge(ValueError):
    pass


# The largest prime below 2^16: a product of two entries stays below 2^32,
# so every int64 sum of such products in rref and @ is exact.
MAX_PRIME = 65521


class DimensionMismatch(ValueError):
    pass


class NotASubspace(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """Prime modulus with mod-p scalar helpers."""

    p: int

    def __post_init__(self) -> None:
        if self.p > MAX_PRIME:
            raise ModulusTooLarge(f"modulus {self.p} exceeds {MAX_PRIME}, the largest supported prime")
        if not _is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    def inv(self, x: int) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(x, self.p - 2, self.p)


F2 = PrimeField(2)


def _normalise(entries, p: int) -> np.ndarray:
    a = np.array(entries, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a % p


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    a = a.copy() % p
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if a[rr, c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for rr in range(nrows):
            if rr != r and a[rr, c]:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


@dataclass(frozen=True, eq=False)
class FMatrix:
    """Dense matrix over a prime field, entries normalised to [0, p).

    The entries are a read-only copy, so a matrix can be shared freely
    and its rank is computed at most once.
    """

    entries: np.ndarray
    field: PrimeField

    def __post_init__(self) -> None:
        entries = _normalise(self.entries, self.field.p)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: PrimeField) -> "FMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), field)

    @classmethod
    def identity(cls, n: int, field: PrimeField) -> "FMatrix":
        return cls(np.eye(n, dtype=np.int64), field)

    @classmethod
    def from_columns(cls, columns: Sequence[np.ndarray], rows: int, field: PrimeField) -> "FMatrix":
        if not columns:
            return cls.zeros(rows, 0, field)
        return cls(np.column_stack([np.asarray(c, dtype=np.int64) for c in columns]), field)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def T(self) -> "FMatrix":
        return FMatrix(self.entries.T, self.field)

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j].copy()

    def columns(self) -> list[np.ndarray]:
        return [self.entries[:, j].copy() for j in range(self.cols)]

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if self.field.p != other.field.p:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return FMatrix((self.entries @ other.entries) % self.field.p, self.field)

    def __add__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(self.entries + other.entries, self.field)

    def __sub__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(self.entries - other.entries, self.field)

    def __neg__(self) -> "FMatrix":
        return FMatrix(-self.entries, self.field)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.int64) % self.field.p
        if v.shape[0] != self.cols:
            raise DimensionMismatch(f"vector length {v.shape[0]} != {self.cols} columns")
        return (self.entries @ v) % self.field.p

    def equals(self, other: "FMatrix") -> bool:
        return (self.field.p == other.field.p
                and self.entries.shape == other.entries.shape
                and bool(np.array_equal(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return not self.entries.any()

    @cached_property
    def _rank(self) -> int:
        return len(rref(self.entries, self.field.p)[1])

    def rank(self) -> int:
        return self._rank

    def rank_nullity(self) -> tuple[int, int]:
        r = self.rank()
        return r, self.cols - r

    def kernel_basis(self) -> "FMatrix":
        p = self.field.p
        reduced, pivots = rref(self.entries, p)
        free = [c for c in range(self.cols) if c not in pivots]
        cols = []
        for f in free:
            v = np.zeros(self.cols, dtype=np.int64)
            v[f] = 1
            for k, pc in enumerate(pivots):
                v[pc] = (-reduced[k, f]) % p
            cols.append(v)
        return FMatrix.from_columns(cols, self.cols, self.field)

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """One solution of A x = b with free variables set to 0, or None."""
        p = self.field.p
        b = np.asarray(b, dtype=np.int64) % p
        if b.shape[0] != self.rows:
            raise DimensionMismatch(f"rhs length {b.shape[0]} != {self.rows} rows")
        aug = np.column_stack([self.entries, b])
        reduced, pivots = rref(aug, p)
        if self.cols in pivots:
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        for k, pc in enumerate(pivots):
            x[pc] = reduced[k, self.cols]
        return x

    def column_space_basis(self) -> "FMatrix":
        """The pivot columns: each column not in the span of those before it."""
        pivots = rref(self.entries, self.field.p)[1]
        return FMatrix(self.entries[:, pivots], self.field)

    def inverse(self) -> "FMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        p = self.field.p
        aug = np.column_stack([self.entries, np.eye(self.rows, dtype=np.int64)])
        reduced, pivots = rref(aug, p)
        if pivots[: self.rows] != list(range(self.rows)):
            raise ZeroDivisionError("matrix is singular")
        return FMatrix(reduced[:, self.rows:], self.field)


def quotient_dim(z: FMatrix, b: FMatrix) -> int:
    """dim span(z) - dim span(b), requiring span(b) <= span(z)."""
    if z.field.p != b.field.p or z.rows != b.rows:
        raise DimensionMismatch("bases live in different spaces")
    rz = z.rank()
    joint = FMatrix(np.column_stack([z.entries, b.entries]) if b.cols else z.entries, z.field)
    if joint.rank() > rz:
        raise NotASubspace("second basis is not contained in the span of the first")
    return rz - b.rank()
