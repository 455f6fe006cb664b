"""Exact linear algebra over prime fields, on the rows that elimination reads.

Every cohomology computation in this package reduces to rank and kernel
calls on matrices with entries in F_p, and nearly all of them are
cochain matrices: a coboundary row has q + 2 nonzeros, a restriction row
one.  An `FMatrix` stores each row in the form its elimination reads,
with one form for every size:

* Over F_2 each row is one Python int, column j being bit ncols - 1 - j.
  A row is reduced by XOR with the echelon row of its leading bit, in the
  manner of bit-vector persistence reductions (Edelsbrunner, Letscher and
  Zomorodian 2002); back-substitution then clears above each pivot.
* Over odd p each row is one {column: value} dict of its nonzeros, every
  value in [1, p), in the manner of the sparse column reductions of
  Ripser (Bauer 2021).  A row is reduced by the echelon row of its
  leading column, scaled, until that column is new; back-substitution
  then clears above each pivot.  The dicts hold Python ints, which never
  overflow.
* F_2 keeps its own form although the dict rows would serve p = 2 as
  well: one XOR of two ints reduces a whole row, where a dict row is
  reduced entry by entry.  Sent through the dict rows, F_2 gave the same
  reports but ran slower in 6 of 6 benchmark pairs on a 2-CPU machine
  (`grid` wall time 0.094 -> 0.111 s, +18 %; `necklace` +7 %; `bundles`
  +10 %).

Over odd p a matrix so costs the memory of its nonzeros, not of its
shape.  Over F_2 it does not: a bit row costs ncols - (leading column)
bits however few nonzeros it has, so a restriction row whose one 1 sits
in column j holds ncols - j bits.  Every operation works on rows.  A
product is a row gather: row i of A @ B is the XOR of B's rows at the
set bits of A's row i, or the sum of B's rows scaled by A's entries, and
a row of A whose one entry is 1 (a restriction row) picks B's row
itself.  Views cost their output: a row slice shares the rows it picks,
and a column selection builds each row from the row's entries in the
picked columns, so over F_2 it costs the picked set bits, not every set
bit times the row width as a product with a 0/1 matrix would.  No
stored row is ever changed, so views, products and `block_matrix`
share rows freely; elimination copies a row before it reduces it.
`tolist` and `column` give the entries as new lists of ints, and
`differing_rows` the rows where two matrices differ, so a caller can
read a square row by row without reading rows.

One function eliminates: `echelon` runs forward elimination on an
`FMatrix`'s rows.  Its pivot columns give rank and column spaces, and
`Echelon.reduced` continues from its rows to the reduced row echelon
form, which is unique, so the reduced kernel basis and the inverse do
not depend on the method.  `rref` reads that form off the echelon a
matrix keeps, padded with zero rows; kernel columns read it there, and
`inverse` reads it off one echelon of [A | I].
`Echelon.remainder` reduces other rows against the echelon rows without
keeping them, which tests membership in the row space and reads
coordinates modulo it.  Each `FMatrix` keeps its own echelon, so its
rank, pivot columns, kernel and remainders share one elimination.

`FMatrix` is the one holder of matrix storage: no other module reads its
rows or knows the F_2 bit order.  Its methods take and give `FMatrix`
values and plain ints and lists, so the package needs nothing beyond
the standard library.  A rank-k bundle transition is a k x k `FMatrix`
too, which `bundles` inverts, composes and compares with `inverse`, `@`
and `equals`.  Three constructors own matrix
layout: `block_matrix` places `FMatrix` blocks keyed by index set,
`entry_matrix` places (row, column, value) triples, read once as they
come, and `pattern_matrix` puts one pattern of values on each row's own
columns, row by row in C-level maps.  The coboundary d is one
`pattern_matrix`, each row its simplex's faces under the alternating
signs; every cochain map along a simplicial map (restrictions,
pullbacks, phi* and delta~) is one stream of triples into
`entry_matrix`, each one call of `cochains.block_pullback`; identities
are built as rows directly, and total differentials and joins are built
from blocks, where an F_2 zero row costs nothing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InputError


class NotPrime(InputError):
    pass


class ModulusTooLarge(InputError):
    pass


# The largest prime below 2^16, the largest modulus every command accepts.
# Rows hold Python ints, which never overflow, so no product needs a bound.
MAX_PRIME = 65521


class DimensionMismatch(ValueError):
    pass


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class PrimeField:
    """A prime modulus, at most MAX_PRIME."""

    p: int

    def __post_init__(self) -> None:
        if self.p > MAX_PRIME:
            raise ModulusTooLarge(f"modulus {self.p} exceeds {MAX_PRIME}, the largest supported prime")
        if not _is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")


F2 = PrimeField(2)


def _f2_combine(x: int, ncols: int, rows: list[int]) -> int:
    """The XOR of rows[j] over the columns j of x's set bits."""
    y = 0
    while x:
        lead = x.bit_length()
        y ^= rows[ncols - lead]
        x ^= 1 << (lead - 1)
    return y


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


def _odd_combine(x: dict[int, int], rows: list[dict[int, int]], p: int) -> dict[int, int]:
    """The sum of rows[j] scaled by x[j], mod p, without zeros; one unscaled row is shared, not copied."""
    if len(x) == 1:
        (j, f), = x.items()
        return rows[j] if f == 1 else {c: v * f % p for c, v in rows[j].items()}
    acc: dict[int, int] = {}
    for j, f in x.items():
        for c, v in rows[j].items():
            acc[c] = acc.get(c, 0) + f * v
    return {c: r for c, s in acc.items() if (r := s % p)}


def _odd_echelon(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Forward elimination mod an odd p: the echelon rows, keyed by their leading column.

    Each row is copied, then reduced on its leading column by the kept
    row of that column until its lead is new, when it is scaled to a
    leading 1 and kept, or the row is empty.  A kept row is never changed
    again, and the given rows are not changed at all.
    """
    table: dict[int, dict[int, int]] = {}
    for x in rows:
        x = dict(x)
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
    and `remainder` clears other rows against them; both leave them as
    they are, so one elimination serves rank, column spaces, kernels, the
    reduced form and membership in the row space.
    """

    shape: tuple[int, int]
    field: PrimeField
    pivots: list[int]
    rows: dict

    def reduced(self) -> "FMatrix":
        """The nonzero rows of the reduced row echelon form, one per pivot, in pivot order."""
        p = self.field.p
        if p != 2:
            table = {lead: dict(x) for lead, x in self.rows.items()}
            # From the last pivot up: subtracting a reduced row clears its own
            # pivot column and adds entries in free columns only.
            for lead in reversed(self.pivots):
                x = table[lead]
                for c in [c for c in x if c != lead and c in table]:
                    _subtract(x, x[c], table[c], p)
            return FMatrix._of([table[lead] for lead in self.pivots], self.shape[1], self.field)
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
        return FMatrix._of([table[lead] for lead in sorted(table, reverse=True)], self.shape[1], self.field)

    def remainder(self, a: "FMatrix") -> "FMatrix":
        """Each row of a less the combination of echelon rows that clears it in every pivot column.

        The remainder is nonzero only in free columns, and it is zero
        exactly when the row lies in the span of the echelon rows.  Each
        row is reduced on its leading column, as in forward elimination,
        but no row is kept, so the cost is the row's pivot hits, not the
        rank.
        """
        if a.cols != self.shape[1] or a.field.p != self.field.p:
            raise DimensionMismatch(f"cannot clear {a.rows}x{a.cols} mod {a.field.p} against {self.shape}")
        p, table = self.field.p, self.rows
        out = []
        for x in a._rows:
            if p == 2:
                kept = 0
                while x:
                    lead = x.bit_length()
                    row = table.get(lead)
                    if row is None:
                        kept |= 1 << (lead - 1)
                        x ^= 1 << (lead - 1)
                    else:
                        x ^= row
            else:
                x, kept = dict(x), {}
                while x:
                    lead = min(x)
                    row = table.get(lead)
                    if row is None:
                        kept[lead] = x.pop(lead)
                    else:
                        _subtract(x, x[lead], row, p)
            out.append(kept)
        return FMatrix._of(out, a.cols, self.field)


def echelon(a: "FMatrix") -> Echelon:
    """Forward elimination over a's field: the one place a matrix is eliminated.

    It reads an `FMatrix`'s rows and does not change them.
    """
    if a.field.p != 2:
        table = _odd_echelon(a._rows, a.field.p)
        return Echelon(a.shape, a.field, sorted(table), table)
    table = _f2_echelon(a._rows)
    return Echelon(a.shape, a.field, sorted(a.cols - lead for lead in table), table)


def rref(a: "FMatrix") -> tuple["FMatrix", list[int]]:
    """Reduced row echelon form over a's field, zero rows below the pivot rows, and the pivot columns.

    It back-substitutes the echelon a keeps, so a is eliminated at most
    once however often its reduced form is read.
    """
    e = a._echelon
    r, pad = e.reduced(), FMatrix.zeros(a.rows - len(e.pivots), a.cols, a.field)
    return FMatrix._of(r._rows + pad._rows, a.cols, a.field), e.pivots


class FMatrix:
    """A matrix over a prime field, stored as its rows: bit ints over F_2, {column: value} dicts over odd p.

    Built from a nonempty sequence of equally long rows of integers, which
    it reduces mod p.  A matrix is read-only and its rows are never
    changed, so it can be shared freely and is forward-eliminated at most
    once, on the first read of its rank, pivots, kernel or a remainder.
    """

    def __init__(self, entries: Sequence[Sequence[int]], field: PrimeField) -> None:
        try:
            rows = [list(row) for row in entries]
        except TypeError:
            rows = []
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("expected a nonempty sequence of equally long rows of integers")
        m = entry_matrix((len(rows), len(rows[0])),
                         ((i, j, operator.index(x)) for i, row in enumerate(rows) for j, x in enumerate(row)), field)
        self.__dict__.update(m.__dict__)

    @classmethod
    def _of(cls, rows: list, cols: int, field: PrimeField) -> "FMatrix":
        """Wrap rows already in this field's form, without checking or copying them."""
        m = object.__new__(cls)
        m.__dict__.update(_rows=rows, cols=cols, field=field)
        return m

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"an FMatrix is read-only; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"FMatrix({self.tolist()}, {self.field!r})"

    @classmethod
    def zeros(cls, rows: int, cols: int, field: PrimeField) -> "FMatrix":
        return cls._of([0] * rows if field.p == 2 else [{} for _ in range(rows)], cols, field)

    @classmethod
    def identity(cls, n: int, field: PrimeField) -> "FMatrix":
        return cls._of([1 << (n - 1 - i) for i in range(n)] if field.p == 2 else [{i: 1} for i in range(n)], n, field)

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), self.cols

    def tolist(self) -> list[list[int]]:
        """The entries, a new list of rows of ints in [0, p)."""
        if self.field.p == 2:
            return [[x >> (self.cols - 1 - j) & 1 for j in range(self.cols)] for x in self._rows]
        return [[x.get(j, 0) for j in range(self.cols)] for x in self._rows]

    @property
    def T(self) -> "FMatrix":
        n, p = self.rows, self.field.p
        out: list = [0] * self.cols if p == 2 else [{} for _ in range(self.cols)]
        for i, x in enumerate(self._rows):
            if p == 2:
                bit = 1 << (n - 1 - i)
                while x:
                    lead = x.bit_length()
                    out[self.cols - lead] |= bit
                    x ^= 1 << (lead - 1)
            else:
                for c, v in x.items():
                    out[c][i] = v
        return FMatrix._of(out, n, self.field)

    def column(self, j: int) -> list[int]:
        j = range(self.cols)[j]
        if self.field.p == 2:
            return [x >> (self.cols - 1 - j) & 1 for x in self._rows]
        return [x.get(j, 0) for x in self._rows]

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if self.field.p != other.field.p:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return _compose(self, other)

    def __neg__(self) -> "FMatrix":
        p = self.field.p
        if p == 2:
            return self  # -1 = 1 over F_2
        return FMatrix._of([{c: p - v for c, v in x.items()} for x in self._rows], self.cols, self.field)

    def __getitem__(self, key) -> "FMatrix":
        """The rows and columns that slices or lists of indices pick, e.g. m[a:b] or m[:, cols]; rows are shared."""
        if isinstance(key, slice):
            return FMatrix._of(self._rows[key], self.cols, self.field)
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        try:
            rows, cols = (k if isinstance(k, slice) else [operator.index(i) for i in k] for k in (rows, cols))
        except TypeError:
            raise ValueError(f"index {key!r} does not pick a matrix") from None
        picked = self._rows[rows] if isinstance(rows, slice) else [self._rows[i] for i in rows]
        if isinstance(cols, slice) and cols.step in (None, 1):
            start, stop, _ = cols.indices(self.cols)
            width = max(stop - start, 0)
            if width < self.cols and self.field.p == 2:
                picked = [x >> (self.cols - stop) & ((1 << width) - 1) for x in picked]
            elif width < self.cols:
                picked = [{c - start: v for c, v in x.items() if start <= c < stop} for x in picked]
            return FMatrix._of(picked, width, self.field)
        js = range(self.cols)[cols] if isinstance(cols, slice) else [range(self.cols)[j] for j in cols]
        return FMatrix._of(_select(picked, self.cols, js, self.field.p), len(js), self.field)

    def equals(self, other: "FMatrix") -> bool:
        return self.field.p == other.field.p and self.shape == other.shape and self._rows == other._rows

    def differing_rows(self, other: "FMatrix") -> list[int]:
        """The indices of the rows where this matrix and another of its shape and field differ, in order."""
        if self.field.p != other.field.p or self.shape != other.shape:
            raise DimensionMismatch(f"cannot compare {self.shape} mod {self.field.p} with {other.shape} mod "
                                    f"{other.field.p}")
        if self._rows == other._rows:
            return []
        return [i for i, (x, y) in enumerate(zip(self._rows, other._rows)) if x != y]

    def is_zero(self) -> bool:
        return not any(self._rows)

    @cached_property
    def _echelon(self) -> Echelon:
        return echelon(self)

    def rank(self) -> int:
        return len(self._echelon.pivots)

    def pivots(self) -> list[int]:
        """The pivot columns of the echelon this matrix keeps: each column not in the span of those before it."""
        return self._echelon.pivots

    def rank_nullity(self) -> tuple[int, int]:
        return self.rank(), self.cols - self.rank()

    def kernel_basis(self) -> "FMatrix":
        """One column per free variable: 1 there, 0 at the other free ones; built once per matrix."""
        return self._kernel

    @cached_property
    def _kernel(self) -> "FMatrix":
        pivots = set(self.pivots())
        return self.kernel_columns([j for j in range(self.cols) if j not in pivots])

    def kernel_columns(self, free: Sequence[int]) -> "FMatrix":
        """The kernel basis columns of the given free (non-pivot) columns, in their order.

        Column k is 1 at free[k], 0 at every other free column and, at each
        pivot, minus the reduced row's entry in free[k]: `kernel_basis`
        restricted to those free variables, from one back-substitution.
        """
        reduced, pivots = rref(self)
        rows = dict.fromkeys(range(self.cols), 0 if self.field.p == 2 else {})
        rows.update(zip(free, FMatrix.identity(len(free), self.field)._rows))
        rows.update(zip(pivots, (-reduced[:len(pivots), free])._rows))
        return FMatrix._of(list(rows.values()), len(free), self.field)

    def remainder(self, a: "FMatrix") -> "FMatrix":
        """Each row of a less the combination of this matrix's rows that clears it in every pivot column.

        It is zero exactly when the row lies in this matrix's row space, and
        two rows have the same remainder exactly when they differ by a row
        of that space.  It reads the echelon this matrix keeps.
        """
        return self._echelon.remainder(a)

    def inverse(self) -> "FMatrix":
        """The solution of A X = I, read off the reduced form of [A | I], one elimination.

        A is invertible exactly when the pivots of [A | I] are A's columns;
        the reduced rows then hold A's inverse in their right block.
        """
        n = self.rows
        if n != self.cols:
            raise DimensionMismatch("only square matrices invert")
        joint = block_matrix({0: n}, {0: n, 1: n}, [(0, 0, self), (0, 1, FMatrix.identity(n, self.field))], self.field)
        reduced, pivots = rref(joint)
        if pivots and pivots[-1] >= n:
            raise ZeroDivisionError("matrix is singular")
        return reduced[:, n:]


def _select(rows: list, ncols: int, js: Sequence[int], p: int) -> list:
    """Columns js of each row, in the order of js, each row at the cost of its entries in those columns.

    Over F_2 a row is masked to the picked columns and each remaining
    bit ORs in its output bits; over odd p each entry is looked up.
    """
    width = len(js)
    if p == 2:
        where: dict[int, int] = {}  # bit length of a picked column -> its output bits
        for k, j in enumerate(js):
            where[ncols - j] = where.get(ncols - j, 0) | 1 << (width - 1 - k)
        mask = bytearray((ncols + 7) // 8)
        for lead in where:
            mask[-1 - (lead - 1) // 8] |= 1 << ((lead - 1) % 8)
        mask = int.from_bytes(mask, "big")
        out = []
        for x in rows:
            x, y = x & mask, 0
            while x:
                lead = x.bit_length()
                y |= where[lead]
                x ^= 1 << (lead - 1)
            out.append(y)
        return out
    at: dict[int, list[int]] = {}
    for k, j in enumerate(js):
        at.setdefault(j, []).append(k)
    return [{k: v for c, v in x.items() for k in at.get(c, ())} for x in rows]


def _compose(a: FMatrix, b: FMatrix) -> FMatrix:
    """a @ b by rows, for operands already checked to compose."""
    if a.field.p == 2:
        rows = [_f2_combine(x, a.cols, b._rows) for x in a._rows]
    else:
        rows = [_odd_combine(x, b._rows, a.field.p) for x in a._rows]
    return FMatrix._of(rows, b.cols, a.field)


def _ranges(dims: Mapping[Hashable, int]) -> tuple[dict[Hashable, slice], int]:
    """Each key's range when the sizes are laid out in order, and the total size."""
    out: dict[Hashable, slice] = {}
    pos = 0
    for key, size in dims.items():
        out[key] = slice(pos, pos + size)
        pos += size
    return out, pos


def block_matrix(row_dims: Mapping[Hashable, int], col_dims: Mapping[Hashable, int],
                 blocks: Iterable[tuple[Hashable, Hashable, FMatrix]], field: PrimeField) -> FMatrix:
    """The matrix whose row and column ranges are the keyed sizes, in the order of the maps, not of the blocks.

    Each (row key, col key, FMatrix) block is placed at its position; any
    size may be 0, a block must have exactly its position's shape, and a
    position holds at most one block.  A row that one block fills from
    column 0 is that block's row, shared, not copied.
    """
    rows, n_rows = _ranges(row_dims)
    cols, n_cols = _ranges(col_dims)
    p = field.p
    # over F_2 each row is XOR-ed together at once; over odd p the pieces of
    # each row are collected as (column offset, row) and joined below
    out: list = [0] * n_rows if p == 2 else [[] for _ in range(n_rows)]
    placed = set()
    for r, c, block in blocks:
        shape = (rows[r].stop - rows[r].start, cols[c].stop - cols[c].start)
        if block.shape != shape or block.field.p != p:
            raise DimensionMismatch(f"block {r!r}, {c!r}: {block.shape} mod {block.field.p}, not {shape}")
        if (r, c) in placed:
            raise DimensionMismatch(f"block {r!r}, {c!r} is placed twice")
        placed.add((r, c))
        for i, x in enumerate(block._rows, rows[r].start):
            if not x:
                continue
            if p == 2:
                out[i] ^= x << (n_cols - cols[c].stop)
            else:
                out[i].append((cols[c].start, x))
    if p != 2:
        out = list(map(_odd_join, out))
    return FMatrix._of(out, n_cols, field)


def _odd_join(pieces: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """One row from (column offset, row) pieces, which share no column."""
    if len(pieces) == 1 and pieces[0][0] == 0:
        return pieces[0][1]
    return {at + c: v for at, x in pieces for c, v in x.items()}


def entry_matrix(shape: tuple[int, int], entries: Iterable[tuple[int, int, int]], field: PrimeField) -> FMatrix:
    """The matrix with each (row, column, value) entry at its place and zero elsewhere.

    The places must be distinct.  Each value is reduced mod p, and zeros
    are not stored.  The entries are read once, as they come, so a
    generator of them is never held as a whole.
    """
    nrows, ncols = shape
    p = field.p
    if p == 2:
        bits = [0] * nrows
        for i, j, x in entries:
            if x & 1:
                bits[i] |= 1 << (ncols - 1 - j)
        return FMatrix._of(bits, ncols, field)
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for i, j, x in entries:
        if v := x % p:
            rows[i][j] = v
    return FMatrix._of(rows, ncols, field)


def pattern_matrix(ncols: int, supports: Iterable[Sequence[int]], values: Sequence[int], field: PrimeField) -> FMatrix:
    """The matrix with one row per support, values[j] at its j-th column: one pattern of values on each row's columns.

    The columns of a support must be distinct and each value nonzero mod
    p, so over F_2 every value is 1.  A row is made by C-level maps over
    its columns, with no Python step per entry: a coboundary's row is its
    simplex's faces' columns under the alternating signs.
    """
    if field.p == 2:
        top = ncols - 1
        return FMatrix._of([sum(map((1).__lshift__, map(top.__sub__, cols))) for cols in supports], ncols, field)
    reduced = [v % field.p for v in values]
    return FMatrix._of([dict(zip(cols, reduced)) for cols in supports], ncols, field)
