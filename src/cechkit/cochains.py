"""Cech cochain complexes on nerves with constant prime-field coefficients.

A q-cochain assigns one field value to every q-simplex of a complex; the
basis of each cochain space is the lexicographically sorted list of its
q-simplices, which fixes all sign conventions globally.  Over F_2 the
signs vanish, but the implementation carries them so odd primes work too.
A q-cochain is a vector indexed by `SimplicialComplex.index_of_dim(q)`,
and every map between cochain spaces (coboundary, restriction, pullback)
is one `FMatrix`; extension by zero is the transpose of restriction.
Every cochain map along a simplicial map, an inclusion of nerves or a
label map, comes from one builder, `block_pullback`: restriction, the
simplicial pullback, `mv`'s phi* and delta~ and every refinement
pullback are each one call of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .complexes import Simplex, SimplicialComplex
from .fplinalg import FMatrix, PrimeField, _ranges, block_matrix, entry_matrix, pattern_matrix


class NotSubcomplex(ValueError):
    pass


class NotSimplicial(ValueError):
    """A vertex map is undefined on a vertex, or sends a simplex outside its target."""


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
    """The matrix of d^q: alternating sum over vertex removals.

    Row r holds the faces of (q+1)-simplex r, all distinct, each at its
    column in C^q.  `itertools.combinations` gives the faces in
    lexicographic order, so the face that omits vertex i comes at
    position q + 1 - i, with sign (-1)^i.
    """
    src, tgt = k.index_of_dim(q), k.simplices_of_dim(q + 1)
    faces = map(map, itertools.repeat(src.__getitem__), map(itertools.combinations, tgt, itertools.repeat(q + 1)))
    return pattern_matrix(len(src), faces, [(-1) ** (q + 1 - j) for j in range(q + 2)], field)


@dataclass(frozen=True)
class CohomologyBasis:
    """H^q of one complex: its dimension from ranks, its representatives and class coordinates on first read.

    The dimension is n_q - rank d^q - rank d^(q-1), from the ranks each
    memoised coboundary keeps, worked out once and kept on the complex
    under ("dim", q, p), so each interned nerve of a diagram is read once
    however many index sets share it.  Where it is not 0, the
    representatives R and the reading of class coordinates take one more
    elimination, of the coboundaries in d^q's free coordinates (see
    `_class_reader`), run on first read and kept on the complex under
    ("H", q, p), so every later CohomologyBasis of that complex, degree
    and field shares them.  A zero H^q has the empty reader, with no
    elimination.
    """

    complex: SimplicialComplex
    degree: int
    field: PrimeField

    @property
    def dimension(self) -> int:
        return _dimension(self.complex, self.degree, self.field)

    @cached_property
    def _reader(self) -> "_ClassReader":
        k, q, field = self.complex, self.degree, self.field
        key = ("H", q, field.p)
        if key not in k.cochain_matrices:
            k.cochain_matrices[key] = _class_reader(k, q, field)
        return k.cochain_matrices[key]

    @property
    def representatives(self) -> FMatrix:
        """One cocycle per class of a basis of H^q, the columns of R."""
        return self._reader.representatives


def _dimension(k: SimplicialComplex, q: int, field: PrimeField) -> int:
    """dim H^q = n_q - rank d^q - rank d^(q-1), from the memoised coboundaries' ranks; kept per degree and field."""
    key = ("dim", q, field.p)
    if key not in k.cochain_matrices:
        rank_in = coboundary_matrix(k, q - 1, field).rank() if q else 0
        k.cochain_matrices[key] = len(k.simplices_of_dim(q)) - coboundary_matrix(k, q, field).rank() - rank_in
    return k.cochain_matrices[key]


def cohomology(k: SimplicialComplex, q: int, field: PrimeField) -> CohomologyBasis:
    """H^q(k; F_p): its dimension, its representative basis and the coordinates of classes in it.

    Reading the dimension eliminates only the coboundaries, each at most
    once per complex, degree and field.  Where H^q is not 0, the
    representatives and class coordinates take one more elimination, on
    first read; what it keeps is read-only, kept on the complex and
    shared by every later call.
    The memo holds no reference back to the complex, so a complex that
    goes out of use is freed at once, without waiting for the cycle
    collector.
    """
    return CohomologyBasis(k, q, field)


@dataclass(frozen=True, eq=False)
class _ClassReader:
    """What reads the classes of H^q: d^q's free columns, the coboundaries on them, and R.

    `free` lists d^q's free columns last first, the reversed free
    coordinates `coboundaries` is written in; `read` lists the free
    columns of its echelon, one per representative, in representative
    order.
    """

    free: list[int]
    coboundaries: FMatrix
    read: list[int]
    representatives: FMatrix


def _class_reader(k: SimplicialComplex, q: int, field: PrimeField) -> _ClassReader:
    """The representatives of H^q and the echelon that reads class coordinates, from one elimination.

    A cocycle is fixed by its values on d^q's free columns, so restricting
    to them maps the cocycles one to one onto F_p^free, the kernel basis
    Z onto the unit vectors and the coboundaries onto the span of the
    free rows of d^(q-1).  Z_k is not in the span of B and the Z_j before
    it exactly when row k of d^(q-1), restricted to the free rows, lies in
    the span of the free rows after it.  Written with the free coordinates
    reversed, the coboundaries are the rows of one matrix, and those k are
    its free columns.  So its echelon picks R, the kernel columns of d^q
    at those k, as the adapted basis [B | R] of the cocycles did, and a
    cocycle less the coboundary that clears the echelon's pivot columns
    is left with its class coordinates in the free ones.  A zero H^q
    has no representatives: its reader has no free columns and reads
    none, and nothing is eliminated or back-substituted for it.
    """
    d = coboundary_matrix(k, q, field)
    if not _dimension(k, q, field):
        return _ClassReader([], FMatrix.zeros(0, 0, field), [], FMatrix.zeros(d.cols, 0, field))
    pivots = set(d.pivots())
    free = [j for j in reversed(range(d.cols)) if j not in pivots]
    # the coboundary of each (q-1)-simplex, on the free coordinates, last first
    b = coboundary_matrix(k, q - 1, field)[free].T if q else FMatrix.zeros(0, len(free), field)
    kept = set(b.pivots())
    read = [r for r in reversed(range(len(free))) if r not in kept]
    return _ClassReader(free, b, read, d.kernel_columns([free[r] for r in read]))


def class_coordinates(coh: CohomologyBasis, values: FMatrix) -> FMatrix:
    """Coordinates of each cocycle's class in the representative basis, one column per column of `values`.

    A cocycle's class coordinates are what is left of its values on the
    free coordinates once the coboundaries' kept echelon clears its
    pivot columns; no elimination is run.  A zero H^q gives no
    coordinates, once the values are checked to be cocycles.
    """
    reader = coh._reader
    if not (coboundary_matrix(coh.complex, coh.degree, coh.field) @ values).is_zero():
        raise ValueError("vector is not a cocycle of this space")
    if not reader.read:
        return FMatrix.zeros(0, values.cols, coh.field)
    return reader.coboundaries.remainder(values[reader.free].T)[:, reader.read].T


def induced_on_cohomology(matrix: FMatrix, src: CohomologyBasis | Sequence[CohomologyBasis],
                          tgt: CohomologyBasis | Sequence[CohomologyBasis]) -> FMatrix:
    """Descend a chain map's matrix to a matrix on cohomology representatives.

    `src` and `tgt` are each one basis or a sequence of them, the blocks
    of a direct sum laid out in order.  The map takes the block-diagonal
    source representatives in one product; each target block's classes
    are then read in one batch.  Class coordinates are linear, so this
    equals descending block by block and summing.  A source with no
    classes gives the (dim target) x 0 matrix with no product; a target
    with none still takes the product, so its cocycle check still runs.
    """
    src, tgt = _summands(src), _summands(tgt)
    if not any(h.dimension for h in src.values()):
        return FMatrix.zeros(sum(h.dimension for h in tgt.values()), 0, matrix.field)
    reps = block_matrix(_cochain_sizes(src), {i: h.dimension for i, h in src.items()},
                        ((i, i, h.representatives) for i, h in src.items()), matrix.field)
    image = matrix @ reps
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
    """The 0/1 matrix picking each q-simplex of l out of the q-simplices of k: the pullback along l's inclusion."""
    if not l.is_subcomplex_of(k):
        raise NotSubcomplex("second complex is not a subcomplex of the first")
    return block_pullback({0: l}, {0: k}, [(0, 0, 1)], q, field)


def _permutation_sign(seq: tuple[str, ...]) -> int:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def _image_table(labels: Mapping[str, str], k: SimplicialComplex) -> dict[Simplex, tuple[Simplex, int]]:
    """Each simplex's (sorted image, permutation sign or 0 where the image is degenerate), one pass."""
    table = {}
    for s in k.simplices:
        mapped = tuple(map(labels.__getitem__, s))
        image = tuple(sorted(set(mapped)))
        table[s] = image, _permutation_sign(mapped) if len(image) == len(s) else 0
    return table


def block_pullback(fine: Mapping[Hashable, SimplicialComplex], coarse: Mapping[Hashable, SimplicialComplex],
                   blocks: Iterable[tuple[Hashable, Hashable, int]], degree: int, field: PrimeField,
                   images: Mapping[Simplex, tuple[Simplex, int]] | None = None) -> FMatrix:
    """The pullback from the coarse complexes' q-cochains to the fine ones', laid out block by block.

    Rows are the fine complexes' q-simplices and columns the coarse ones',
    each keyed complex a range in key order.  Each (fine key, coarse key,
    sign) block puts, in row s of its fine block, sign times s's
    orientation at the column of s's image in its coarse block, and no
    entry where that image is degenerate.  `images` is an image table
    (see `_image_table`); with none, the map is the inclusion, each
    simplex its own image with orientation 1, so each block is a signed
    restriction.  Every cochain map along a simplicial map is one call:
    a restriction, a simplicial pullback, phi*, delta~ and a refinement's
    pullbacks.
    """
    rows, n_rows = _ranges(_cochain_dims(fine, degree))
    cols, n_cols = _ranges(_cochain_dims(coarse, degree))

    def entries():
        for t, u, sign in blocks:
            index, at = coarse[u].index_of_dim(degree), cols[u].start
            for row, s in enumerate(fine[t].simplices_of_dim(degree), rows[t].start):
                image, orientation = (s, 1) if images is None else images[s]
                if orientation:
                    yield row, at + index[image], sign * orientation

    return entry_matrix((n_rows, n_cols), entries(), field)


def pullback_map(vertex_map: Mapping[str, str], domain: SimplicialComplex,
                 codomain: SimplicialComplex, q: int, field: PrimeField) -> FMatrix:
    """The matrix of the pullback C^q(codomain) -> C^q(domain) along a simplicial vertex map.

    Simplices with degenerate image (repeated vertices) pull the cochain
    value back to zero, matching the alternating-cochain model.  The
    domain's vertices are checked first, in order, then its simplices by
    dimension and lexicographically, so an error names the same vertex
    or simplex on every run.  The matrix is read off the domain's image
    table by `block_pullback`, as a refinement's pullbacks are.
    """
    for v in domain.vertices:
        if v not in vertex_map:
            raise NotSimplicial(f"vertex map undefined on {v!r}")
    images = _image_table(vertex_map, domain)
    for s in sorted(domain.simplices, key=lambda s: (len(s), s)):
        if images[s][0] not in codomain:
            raise NotSimplicial(f"image of {s!r} is not a simplex of the codomain")
    return block_pullback({0: domain}, {0: codomain}, [(0, 0, 1)], q, field, images)
