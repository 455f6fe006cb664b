"""Cech cochain complexes on nerves with constant prime-field coefficients.

A q-cochain assigns one field value to every q-simplex of a complex; the
basis of each cochain space is the lexicographically sorted list of its
q-simplices, which fixes all sign conventions globally.  Over F_2 the
signs vanish, but the implementation carries them so odd primes work too.
A q-cochain is a vector indexed by `SimplicialComplex.index_of_dim(q)`,
and every map between cochain spaces (coboundary, restriction, pullback)
is one `FMatrix`; extension by zero is the transpose of restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import numpy as np

from .complexes import SimplicialComplex
from .errors import NotSimplicial
from .fplinalg import FMatrix, PrimeField, _ranges, block_matrix, echelon, entry_matrix


class NotSubcomplex(ValueError):
    pass


def _cochain_dims(complexes: Mapping[Hashable, SimplicialComplex], q: int) -> dict[Hashable, int]:
    """dim C^q of each keyed complex, in key order: the block sizes of a direct sum of cochain spaces."""
    return {key: len(k.simplices_of_dim(q)) for key, k in complexes.items()}


def coboundary_matrix(k: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """The matrix of d^q, built once per complex, degree and field and kept on the complex."""
    key = ("d", q, field.p)
    if key not in k.cochain_matrices:
        k.cochain_matrices[key] = _coboundary(k, q, field)
    return k.cochain_matrices[key]


def _coboundary(k: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """The matrix of d^q: alternating sum over vertex removals."""
    src, tgt = k.index_of_dim(q), k.simplices_of_dim(q + 1)
    width = q + 2
    # row r, column i: face i of simplex r, all distinct; each row of faces takes the signs (-1)^i
    faces = np.array([src[sigma[:i] + sigma[i + 1:]] for sigma in tgt for i in range(width)],
                     dtype=np.int64).reshape(len(tgt), width)
    signs = [(-1) ** i for i in range(width)]
    return entry_matrix((len(tgt), len(src)), np.arange(len(tgt))[:, None], faces, signs, field)


@dataclass(frozen=True)
class CohomologyBasis:
    """H^q of one complex: its dimension from ranks, its bases on first read.

    The dimension is n_q - rank d^q - rank d^(q-1), from the ranks each
    memoised coboundary keeps.  The cocycles, the coboundaries and a
    chosen complement spanning H^q take one more elimination, run when
    any of the three is first read and kept on the complex under
    ("H", q, p), so every later CohomologyBasis of that complex, degree
    and field shares them.
    """

    complex: SimplicialComplex
    degree: int
    field: PrimeField

    @property
    def dimension(self) -> int:
        k, q, field = self.complex, self.degree, self.field
        rank_in = coboundary_matrix(k, q - 1, field).rank() if q else 0
        return len(k.simplices_of_dim(q)) - coboundary_matrix(k, q, field).rank() - rank_in

    @cached_property
    def _bases(self) -> tuple[FMatrix, FMatrix, FMatrix]:
        k, q, field = self.complex, self.degree, self.field
        key = ("H", q, field.p)
        if key not in k.cochain_matrices:
            k.cochain_matrices[key] = _cohomology_basis(k, q, field)
        return k.cochain_matrices[key]

    @property
    def cocycles(self) -> FMatrix:
        return self._bases[0]

    @property
    def coboundaries(self) -> FMatrix:
        return self._bases[1]

    @property
    def representatives(self) -> FMatrix:
        return self._bases[2]


def cohomology(k: SimplicialComplex, q: int, field: PrimeField) -> CohomologyBasis:
    """H^q(k; F_p): its dimension, and its cocycle, coboundary and representative bases.

    Reading the dimension eliminates only the coboundaries, each at most
    once per complex, degree and field.  The bases take one more
    elimination, on first read; their read-only matrices are kept on the
    complex and shared by every later call.  The memo holds no reference
    back to the complex, so a complex that goes out of use is freed at
    once, without waiting for the cycle collector.
    """
    return CohomologyBasis(k, q, field)


def _cohomology_basis(k: SimplicialComplex, q: int, field: PrimeField) -> tuple[FMatrix, FMatrix, FMatrix]:
    """Cocycles, coboundaries and representatives from one elimination of [d^(q-1) | Z].

    A column is a pivot exactly when it is not in the span of the columns
    before it, so the d^(q-1) pivots are a basis of the coboundaries and
    the Z pivots extend it to the cocycles, both in column order.  Z is
    back-substituted from the echelon that the rank of d^q already holds.
    """
    z = coboundary_matrix(k, q, field).kernel_basis()
    if q == 0:
        d = np.zeros((z.rows, 0), dtype=np.int64)
    else:
        d = coboundary_matrix(k, q - 1, field).entries
    n = d.shape[1]
    pivots = echelon(np.hstack([d, z.entries]), field.p).pivots
    b = FMatrix(d[:, [c for c in pivots if c < n]], field)
    reps = FMatrix(z.entries[:, [c - n for c in pivots if c >= n]], field)
    return z, b, reps


def class_coordinates(coh: CohomologyBasis, values: np.ndarray) -> np.ndarray:
    """Coordinates of a cocycle's class in the chosen representative basis.

    A 2-d `values` holds one cocycle per column, all solved in one elimination.
    """
    stacked = np.hstack([coh.coboundaries.entries, coh.representatives.entries])
    solution = FMatrix(stacked, coh.field).solve(values)
    if solution is None:
        raise ValueError("vector is not a cocycle of this space")
    return solution[coh.coboundaries.cols:]


def induced_on_cohomology(matrix: FMatrix, src: CohomologyBasis | Sequence[CohomologyBasis],
                          tgt: CohomologyBasis | Sequence[CohomologyBasis]) -> FMatrix:
    """Descend a chain map's matrix to a matrix on cohomology representatives.

    `src` and `tgt` are each one basis or a sequence of them, the blocks
    of a direct sum laid out in order.  The map takes the block-diagonal
    source representatives in one product; each target block's classes
    then take one solve.  Solving with free variables at 0 is linear, so
    this equals descending block by block and summing.
    """
    src, tgt = _summands(src), _summands(tgt)
    reps = block_matrix(_cochain_sizes(src), {i: h.dimension for i, h in src.items()},
                        ((i, i, h.representatives.entries) for i, h in src.items()), matrix.field)
    image = (matrix @ reps).entries
    rows, _ = _ranges(_cochain_sizes(tgt))
    coords = ((i, "src", class_coordinates(h, image[rows[i]])) for i, h in tgt.items())
    return block_matrix({i: h.dimension for i, h in tgt.items()}, {"src": reps.cols}, coords, matrix.field)


def _summands(bases: CohomologyBasis | Sequence[CohomologyBasis]) -> dict[int, CohomologyBasis]:
    """One basis or a sequence of them, keyed by position in the direct sum."""
    return dict(enumerate((bases,) if isinstance(bases, CohomologyBasis) else bases))


def _cochain_sizes(bases: Mapping[int, CohomologyBasis]) -> dict[int, int]:
    """dim C^q of each basis's complex in its own degree."""
    return {i: len(h.complex.simplices_of_dim(h.degree)) for i, h in bases.items()}


def restriction_matrix(k: SimplicialComplex, l: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """The matrix of restriction C^q(k) -> C^q(l) onto a subcomplex.

    It is built once per source complex, target value, degree and field,
    and kept on k under the target's simplices, so every complex equal to
    l shares it.  The key holds a frozenset, not l itself.
    """
    key = ("r", l.simplices, q, field.p)
    if key not in k.cochain_matrices:
        k.cochain_matrices[key] = _restriction(k, l, q, field)
    return k.cochain_matrices[key]


def _restriction(k: SimplicialComplex, l: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """The 0/1 matrix picking each q-simplex of l out of the q-simplices of k."""
    if not l.is_subcomplex_of(k):
        raise NotSubcomplex("second complex is not a subcomplex of the first")
    src, tgt = k.index_of_dim(q), l.simplices_of_dim(q)
    return entry_matrix((len(tgt), len(src)), np.arange(len(tgt)), [src[s] for s in tgt], 1, field)


def _permutation_sign(seq: tuple[str, ...]) -> int:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def pullback_map(vertex_map: Mapping[str, str], domain: SimplicialComplex,
                 codomain: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """The matrix of the pullback C^q(codomain) -> C^q(domain) along a simplicial vertex map.

    Simplices with degenerate image (repeated vertices) pull the cochain
    value back to zero, matching the alternating-cochain model.
    """
    for s in domain.simplices:
        try:
            image = tuple(sorted({vertex_map[v] for v in s}))
        except KeyError as exc:
            raise NotSimplicial(f"vertex map undefined on {exc.args[0]!r}") from exc
        if image not in codomain:
            raise NotSimplicial(f"image of {s!r} is not a simplex of the codomain")
    return simplicial_pullback(vertex_map, domain, codomain, q, field)


def simplicial_pullback(vertex_map: Mapping[str, str], domain: SimplicialComplex,
                        codomain: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """`pullback_map` without its scan: the caller has shown the map simplicial."""
    src, tgt = codomain.index_of_dim(q), domain.simplices_of_dim(q)
    rows, cols, signs = [], [], []
    for row, tau in enumerate(tgt):
        images = tuple(vertex_map[v] for v in tau)
        if len(set(images)) == len(images):
            rows.append(row)
            cols.append(src[tuple(sorted(images))])
            signs.append(_permutation_sign(images))
    return entry_matrix((len(tgt), len(src)), rows, cols, signs, field)
