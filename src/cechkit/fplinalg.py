"""Exact linear algebra over prime fields, on one field-specialised kernel.

Every cohomology computation in this package reduces to rank, kernel and
solve calls on small matrices with entries in F_p.  Matrices are numpy
int64 arrays normalised to the range [0, p), each reduced once, when it
is built from entries that may lie outside it; all routines are
deterministic, so repeated runs give identical output.

One function multiplies: `product` is the exact product mod p, run on
float64 BLAS in the manner of FFLAS (Dumas, Giorgi and Pernet 2008).
float64 holds every integer up to 2^53 - 1 exactly, and a sum of n
products of entries in [0, p) is at most n * (p - 1)^2, so the inner
dimension is cut into chunks of at most (2^53 - 1) // (p - 1)^2 terms,
each summed exactly in any order and reduced before the next is added.
At p = 65521 a chunk is 2,098,176 terms, so every matrix here is one.

One function eliminates: `echelon` runs forward elimination and picks
its method from the field.  Its pivot columns give rank and column
spaces, and `Echelon.reduced` continues from its rows to the reduced row
echelon form, which is unique, so the result does not depend on the
method.  `rref` is the two steps in one call.  Each `FMatrix` keeps its
own echelon, so its rank, column space and kernel share one elimination.

* Over F_2 each row is one Python int, column j being bit ncols - 1 - j.
  A row is reduced by XOR with the echelon row of its leading bit, in the
  manner of bit-vector persistence reductions (Edelsbrunner, Letscher and
  Zomorodian 2002); back-substitution then clears above each pivot.
* Over odd p each row is one {column: value} dict of its nonzeros, in
  the manner of the sparse column reductions of Ripser (Bauer 2021).  A
  row is reduced by the echelon row of its leading column, scaled, until
  that column is new; back-substitution then clears above each pivot.
  Cochain matrices are sparse (a coboundary row has q + 2 nonzeros, a
  restriction row one), so a pivot costs the entries it touches, not a
  pass over the matrix.  The dict rows hold Python ints, which never
  overflow.
* F_2 keeps its own kernel although the dict rows would serve p = 2 as
  well: one XOR of two ints reduces a whole row, where a dict row is
  reduced entry by entry.  Sent through the dict rows, F_2 gave the same
  reports but ran slower in 6 of 6 benchmark pairs on a 2-CPU machine
  (`grid` wall time 0.094 -> 0.111 s, +18 %; `necklace` +7 %; `bundles`
  +10 %).

Two constructors own matrix layout: `block_matrix` places blocks keyed by
index set, and `entry_matrix` places single entries.  They are the one
place in the package where a matrix is allocated and written into; every
cochain, restriction, difference and total differential goes through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError


class NotPrime(InputError):
    pass


class ModulusTooLarge(InputError):
    pass


# The largest prime below 2^16.  The elimination computes in Python ints, so
# the bound is for `product`: each float64 chunk sums at most
# (2^53 - 1) // (p - 1)^2 products of entries below p, 2,098,176 at this p.
MAX_PRIME = 65521

# Every integer from 0 to this is exact in float64.
_FLOAT64_EXACT = 2 ** 53 - 1


class DimensionMismatch(ValueError):
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


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """An int64 array mod p; over F_2 its low bit, which needs no division."""
    return a & 1 if p == 2 else a % p


def _normalise(entries, p: int) -> np.ndarray:
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return _reduce(a, p)


def product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exactly, for int64 entries in [0, p); b may be one vector.

    Each chunk of the inner dimension is one float64 BLAS product whose
    sums stay below 2^53, so it is exact whatever the summation order.
    """
    step = _FLOAT64_EXACT // (p - 1) ** 2
    a, b = a.astype(np.float64), b.astype(np.float64)
    out = _reduce((a[:, :step] @ b[:step]).astype(np.int64), p)
    for s in range(step, a.shape[1], step):
        out = _reduce(out + _reduce((a[:, s:s + step] @ b[s:s + step]).astype(np.int64), p), p)
    return out


def _f2_rows(a: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as one int: column j is bit ncols - 1 - j."""
    nrows, ncols = a.shape
    width = -(-ncols // 8)
    pad = 8 * width - ncols
    data = np.packbits(a.astype(np.uint8), axis=1).tobytes()
    return [int.from_bytes(data[i * width:(i + 1) * width], "big") >> pad for i in range(nrows)]


def _f2_matrix(rows: list[int], nrows: int, ncols: int) -> np.ndarray:
    """The int64 matrix of _f2_rows' bit rows, padded with zero rows to nrows."""
    width = -(-ncols // 8)
    pad = 8 * width - ncols
    data = b"".join((x << pad).to_bytes(width, "big") for x in rows) + bytes(width * (nrows - len(rows)))
    packed = np.frombuffer(data, dtype=np.uint8).reshape(nrows, width)
    return np.unpackbits(packed, axis=1, count=ncols).astype(np.int64)


def _f2_echelon(rows: list[int]) -> dict[int, int]:
    """Forward elimination by XOR: the echelon rows, keyed by their bit length.

    A row's bit length is ncols minus its leading column; each row is
    reduced on its leading bit until that bit is new or the row is zero.
    """
    table: dict[int, int] = {}
    for x in rows:
        while x:
            lead = x.bit_length()
            if lead not in table:
                table[lead] = x
                break
            x ^= table[lead]
    return table


def _odd_rows(a: np.ndarray) -> list[dict[int, int]]:
    """Each row of a matrix reduced mod p as one {column: value} dict of its nonzeros."""
    r, c = np.nonzero(a)
    rows: list[dict[int, int]] = [{} for _ in range(a.shape[0])]
    for i, j, v in zip(r.tolist(), c.tolist(), a[r, c].tolist()):
        rows[i][j] = v
    return rows


def _odd_echelon(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Forward elimination mod an odd p: the echelon rows, keyed by their leading column.

    Each row is reduced on its leading column by the kept row of that
    column until its lead is new, when it is scaled to a leading 1 and
    kept, or the row is empty.  A kept row is never changed again.
    """
    table: dict[int, dict[int, int]] = {}
    for x in rows:
        while x:
            lead = min(x)
            pivot = table.get(lead)
            if pivot is None:
                inv = pow(x[lead], p - 2, p)
                table[lead] = {c: v * inv % p for c, v in x.items()}
                break
            _subtract(x, x[lead], pivot, p)
    return table


def _subtract(x: dict[int, int], f: int, row: dict[int, int], p: int) -> None:
    """x -= f * row mod p, in place, dropping the entries that become 0."""
    for c, v in row.items():
        y = (x.get(c, 0) - f * v) % p
        if y:
            x[c] = y
        else:
            del x[c]


@dataclass(frozen=True, eq=False)
class Echelon:
    """One forward elimination of a matrix: its pivot columns and echelon rows.

    The rows are a table keyed by each row's lead: over F_2 `_f2_echelon`'s
    bit rows, keyed by bit length; over odd p `_odd_echelon`'s sparse
    {column: value} rows, keyed by leading column.  `reduced` continues
    from them to the reduced row echelon form by back-substitution alone,
    and leaves them as they are, so one elimination serves rank, column
    spaces, kernels and the reduced form.
    """

    shape: tuple[int, int]
    p: int
    pivots: list[int]
    rows: dict

    def reduced(self) -> np.ndarray:
        """The reduced row echelon form, with the zero rows below the pivot rows."""
        if self.p != 2:
            table = {lead: dict(x) for lead, x in self.rows.items()}
            # From the last pivot up: subtracting a reduced row clears its own
            # pivot column and adds entries in free columns only.
            for lead in reversed(self.pivots):
                x = table[lead]
                for c in [c for c in x if c != lead and c in table]:
                    _subtract(x, x[c], table[c], self.p)
            ordered = [table[lead] for lead in self.pivots]
            at = ([i for i, x in enumerate(ordered) for _ in x], [c for x in ordered for c in x])
            a = np.zeros(self.shape, dtype=np.int64)
            a[at] = [v for x in ordered for v in x.values()]
            return a
        nrows, ncols = self.shape
        table = dict(self.rows)
        # From the last pivot up: a reduced row has no other pivot bit, so
        # XOR-ing it in clears exactly its own pivot bit.
        done = 0
        for lead in sorted(table):
            x = table[lead]
            hits = x & done
            while hits:
                bit = hits.bit_length()
                x ^= table[bit]
                hits ^= 1 << (bit - 1)
            table[lead] = x
            done |= 1 << (lead - 1)
        return _f2_matrix([table[lead] for lead in sorted(table, reverse=True)], nrows, ncols)


def echelon(a: np.ndarray, p: int) -> Echelon:
    """Forward elimination of a mod p: the one place a matrix is eliminated."""
    if p != 2:
        table = _odd_echelon(_odd_rows(_reduce(a, p)), p)
        return Echelon(a.shape, p, sorted(table), table)
    table = _f2_echelon(_f2_rows(_reduce(a, 2)))
    return Echelon(a.shape, p, sorted(a.shape[1] - lead for lead in table), table)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    e = echelon(a, p)
    return e.reduced(), e.pivots


@dataclass(frozen=True, eq=False)
class FMatrix:
    """Dense matrix over a prime field, entries normalised to [0, p).

    The entries are a read-only copy, so a matrix can be shared freely
    and is forward-eliminated at most once, on the first read of its rank,
    pivots, column space or kernel.
    """

    entries: np.ndarray
    field: PrimeField

    def __post_init__(self) -> None:
        entries = _normalise(self.entries, self.field.p)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of(cls, entries: np.ndarray, field: PrimeField) -> "FMatrix":
        """Wrap a 2-d int64 array already in [0, p), without reducing it again."""
        m = object.__new__(cls)
        entries.setflags(write=False)
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "field", field)
        return m

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
        return FMatrix._of(self.entries.T, self.field)

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j].copy()

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if self.field.p != other.field.p:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return FMatrix._of(product(self.entries, other.entries, self.field.p), self.field)

    def __neg__(self) -> "FMatrix":
        return FMatrix(-self.entries, self.field)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        v = _reduce(np.asarray(vector, dtype=np.int64), self.field.p)
        if v.shape[0] != self.cols:
            raise DimensionMismatch(f"vector length {v.shape[0]} != {self.cols} columns")
        return product(self.entries, v, self.field.p)

    def equals(self, other: "FMatrix") -> bool:
        return (self.field.p == other.field.p
                and self.entries.shape == other.entries.shape
                and bool(np.array_equal(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return not self.entries.any()

    @cached_property
    def _echelon(self) -> Echelon:
        return echelon(self.entries, self.field.p)

    def rank(self) -> int:
        return len(self._echelon.pivots)

    def rank_nullity(self) -> tuple[int, int]:
        r = self.rank()
        return r, self.cols - r

    def kernel_basis(self) -> "FMatrix":
        """One column per free variable: 1 there, 0 at the other free ones; built once per matrix."""
        return self._kernel

    @cached_property
    def _kernel(self) -> "FMatrix":
        e = self._echelon
        pivots = e.pivots
        free = np.ones(self.cols, dtype=bool)
        free[pivots] = False
        free = np.flatnonzero(free)
        k = np.zeros((self.cols, free.size), dtype=np.int64)
        k[free, np.arange(free.size)] = 1
        k[pivots] = -e.reduced()[:len(pivots), free]
        return FMatrix(k, self.field)

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """One solution of A x = b with free variables set to 0, or None.

        A 2-d b takes one elimination of [A | b] and gives None if any column
        is inconsistent; otherwise no pivot lands among b's columns, so each
        column's solution is that of its own solve.
        """
        p = self.field.p
        b = np.asarray(b, dtype=np.int64) % p
        if b.shape[0] != self.rows:
            raise DimensionMismatch(f"rhs length {b.shape[0]} != {self.rows} rows")
        rhs = b if b.ndim == 2 else b[:, None]
        x = np.zeros((self.cols, rhs.shape[1]), dtype=np.int64)
        if rhs.shape[1]:
            reduced, pivots = rref(np.hstack([self.entries, rhs]), p)
            if pivots and pivots[-1] >= self.cols:
                return None
            x[pivots] = reduced[:len(pivots), self.cols:]
        return x if b.ndim == 2 else x[:, 0]

    def column_space_basis(self) -> "FMatrix":
        """The pivot columns: each column not in the span of those before it."""
        return FMatrix._of(self.entries[:, self._echelon.pivots], self.field)

    def inverse(self) -> "FMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        p = self.field.p
        aug = np.column_stack([self.entries, np.eye(self.rows, dtype=np.int64)])
        reduced, pivots = rref(aug, p)
        if pivots[: self.rows] != list(range(self.rows)):
            raise ZeroDivisionError("matrix is singular")
        return FMatrix._of(reduced[:, self.rows:], self.field)


def _ranges(dims: Mapping[Hashable, int]) -> tuple[dict[Hashable, slice], int]:
    """Each key's range when the sizes are laid out in order, and the total size."""
    out: dict[Hashable, slice] = {}
    pos = 0
    for key, size in dims.items():
        out[key] = slice(pos, pos + size)
        pos += size
    return out, pos


def block_matrix(row_dims: Mapping[Hashable, int], col_dims: Mapping[Hashable, int],
                 blocks: Iterable[tuple[Hashable, Hashable, np.ndarray]], field: PrimeField) -> FMatrix:
    """The matrix whose row and column ranges are the keyed sizes in order.

    Each (row key, col key, array) block is added at its position, so
    blocks that share a position are summed; any size may be 0.  A block
    must have exactly its position's shape.
    """
    rows, n_rows = _ranges(row_dims)
    cols, n_cols = _ranges(col_dims)
    m = np.zeros((n_rows, n_cols), dtype=np.int64)
    for r, c, block in blocks:
        place = m[rows[r], cols[c]]
        if place.shape != block.shape:
            raise DimensionMismatch(f"block {r!r}, {c!r} has shape {block.shape}, not {place.shape}")
        place += block
    return FMatrix(m, field)


def entry_matrix(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values,
                 field: PrimeField) -> FMatrix:
    """The matrix with values[i] at (rows[i], cols[i]) and zero elsewhere.

    The three arrays broadcast together, as in numpy indexing, so one
    value may serve every entry; the places must be distinct.
    """
    m = np.zeros(shape, dtype=np.int64)
    m[rows, cols] = values
    return FMatrix(m, field)
