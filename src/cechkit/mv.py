"""Mayer-Vietoris machinery for glued diagrams.

The central objects are the concatenated restriction map from cochains on
the union nerve to the pieces, the signed difference maps between levels
of multiple intersections, and everything they generate: short and long
exact sequences, connecting homomorphisms, fibred products, the bicomplex
total cohomology, and the line-bundle counting formulas over F_2.

Level p is the direct sum of C^q(N_T) over the p-fold index sets T
whose intersection is nonempty, block by block in the order of
`GluedDiagram.level(p)`: an empty intersection would be a block of
dimension 0, so leaving it out changes no matrix.  phi* and delta~ are
block pullbacks along the inclusions of nerves, each one call of
`cochains.block_pullback`.

Exactness is always decided by rank arithmetic; over a field this is a
complete criterion and keeps every verdict a deterministic integer
comparison.  For a binary diagram the level-one difference map is
(f1, f2) |-> f1|_(12) - f2|_(12).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .cochains import (
    _cochain_dims,
    block_pullback,
    class_coordinates,
    coboundary_matrix,
    cohomology,
    induced_on_cohomology,
    restriction_matrix,
)
from .complexes import components
from .diagrams import GluedDiagram, IncompatibleFamily
from .errors import WrongField
from .fplinalg import FMatrix, _ranges, block_matrix, entry_matrix


class NotBinary(ValueError):
    pass


def phi_star(diagram: GluedDiagram, degree: int) -> FMatrix:
    """Concatenated restrictions C^q(union) -> (+)_i C^q(N_i), built once per diagram; always injective."""
    key = ("phi_star", 0, degree)
    if key not in diagram.tuple_cochains:
        diagram.tuple_cochains[key] = _phi_star(diagram, degree)
    return diagram.tuple_cochains[key]


def _phi_star(diagram: GluedDiagram, degree: int) -> FMatrix:
    pieces = diagram.level(1)
    return block_pullback(pieces, {0: diagram.nerve}, ((t, 0, 1) for t in pieces), degree, diagram.field)


def delta_tilde(diagram: GluedDiagram, level: int, degree: int) -> FMatrix:
    """Signed difference map from level p to level p+1 intersections, built once per diagram.

    The entry feeding target block T' from the source block obtained by
    omitting position a (0-based) carries sign (-1)^(a+1), which makes the
    binary case equal restriction of the first piece minus the second.
    """
    n = diagram.n_pieces
    if not 1 <= level < n:
        raise ValueError(f"level must be in [1, {n - 1}], got {level}")
    key = ("delta_tilde", level, degree)
    if key not in diagram.tuple_cochains:
        diagram.tuple_cochains[key] = _delta_tilde(diagram, level, degree)
    return diagram.tuple_cochains[key]


def _delta_tilde(diagram: GluedDiagram, level: int, degree: int) -> FMatrix:
    # a nonempty N_T' lies in N_T for each T that omits one index of T', so no source block is missing
    tgt = diagram.level(level + 1)
    blocks = ((t_prime, t_prime[:a] + t_prime[a + 1:], (-1) ** (a + 1)) for t_prime in tgt for a in range(len(t_prime)))
    return block_pullback(tgt, diagram.level(level), blocks, degree, diagram.field)


@dataclass(frozen=True)
class PositionRecord:
    """One position of a sequence: exact when the incoming image fills the outgoing kernel."""

    degree: int
    position: str
    dim: int
    incoming_rank: int
    outgoing_nullity: int

    @property
    def exact(self) -> bool:
        return self.incoming_rank == self.outgoing_nullity


def _positions(names: list[tuple[int, str]], maps: list[FMatrix]) -> tuple[PositionRecord, ...]:
    """Rank bookkeeping along V_0 -> V_1 -> ..., where maps[k] leaves position k.

    The map into V_0 is zero, and so is the map out of any position past
    the last map, whose outgoing nullity is then its whole dimension.
    Extra maps past the last position are not read.
    """
    records = []
    for k, (degree, position) in enumerate(names):
        dim = maps[k].cols if k < len(maps) else maps[k - 1].rows
        nullity_out = maps[k].rank_nullity()[1] if k < len(maps) else dim
        records.append(PositionRecord(degree, position, dim, maps[k - 1].rank() if k else 0, nullity_out))
    return tuple(records)


def _compose_to_zero(maps: list[FMatrix]) -> bool:
    """Whether each map composed with the next is zero."""
    return all((after @ before).is_zero() for before, after in zip(maps, maps[1:]))


@dataclass(frozen=True)
class ExactnessVerdict:
    degree: int
    records: tuple[PositionRecord, ...]
    compositions_zero: bool
    exact: bool


def verify_exact_sequence(diagram: GluedDiagram, degree: int) -> ExactnessVerdict:
    """Rank bookkeeping for 0 -> C^q(N) -> (+)C^q(N_i) -> ... -> C^q(N_1..n) -> 0."""
    n = diagram.n_pieces
    maps = [phi_star(diagram, degree)] + [delta_tilde(diagram, level, degree) for level in range(1, n)]
    names = [(degree, "union")] + [(degree, f"level_{p}") for p in range(1, n + 1)]
    records = _positions(names, maps)
    comps_zero = _compose_to_zero(maps)
    return ExactnessVerdict(degree, records, comps_zero, comps_zero and all(r.exact for r in records))


def _binary_pieces(diagram: GluedDiagram) -> tuple[str, str]:
    if diagram.n_pieces != 2:
        raise NotBinary(f"expected 2 pieces, got {diagram.n_pieces}")
    return diagram.piece_ids


def connecting_homomorphism(diagram: GluedDiagram, degree: int) -> FMatrix:
    """Snake-lemma map H^q(N_12) -> H^(q+1)(union) for a binary diagram, on the representative bases.

    A cocycle class on the intersection is lifted by extension by zero
    into the first piece, hit with the coboundary, and the resulting
    compatible pair is pulled back through the injective concatenated
    restriction.  A lift through the second piece gives the same map,
    which is minus the map of the diagram with the two pieces' names
    swapped.  A zero H^q(N_12) gives the zero map, with nothing lifted.
    """
    i1, i2 = _binary_pieces(diagram)
    field = diagram.field
    n12 = diagram.intersection_nerve((i1, i2))
    coh_src = cohomology(n12, degree, field)
    coh_tgt = cohomology(diagram.nerve, degree + 1, field)
    if not coh_src.dimension:
        return FMatrix.zeros(coh_tgt.dimension, 0, field)
    lift_nerve = diagram.nerves[i1]
    # Extension by zero is the transpose of restriction: into the first piece,
    # and from there into the union, where the pair (dg, 0) lives.
    into_lift = restriction_matrix(lift_nerve, n12, degree, field).T
    into_union = restriction_matrix(diagram.nerve, lift_nerve, degree + 1, field).T
    d_lift = coboundary_matrix(lift_nerve, degree, field)
    lifted = into_union @ (d_lift @ (into_lift @ coh_src.representatives))
    return class_coordinates(coh_tgt, lifted)


@dataclass(frozen=True)
class BinaryMVReport:
    q_max: int
    union_dims: tuple[int, ...]
    piece_dims: dict[str, tuple[int, ...]]
    intersection_dims: tuple[int, ...]
    alpha_ranks: tuple[int, ...]
    delta_star_ranks: tuple[int, ...]
    positions: tuple[PositionRecord, ...]
    identity_ok: tuple[bool, ...]
    all_ok: bool


def assemble_les(diagram: GluedDiagram, q_max: int) -> BinaryMVReport:
    """Long exact sequence of a binary diagram, verified rank by rank.

    Also checks the dimension identity
        dim H^q(union) = dim coker(alpha_(q-1)) + dim ker(alpha_q)
    where alpha_q is the difference map descended to cohomology.  phi and
    alpha on cohomology are the memoised phi_star and level-one
    delta_tilde, each descended once over the pieces' direct sum.
    """
    i1, i2 = _binary_pieces(diagram)
    field = diagram.field
    n, n1, n2 = diagram.nerve, diagram.nerves[i1], diagram.nerves[i2]
    n12 = diagram.intersection_nerve((i1, i2))

    top = q_max + 1
    coh_n = [cohomology(n, q, field) for q in range(top + 1)]
    coh_1 = [cohomology(n1, q, field) for q in range(top + 1)]
    coh_2 = [cohomology(n2, q, field) for q in range(top + 1)]
    coh_12 = [cohomology(n12, q, field) for q in range(top + 1)]

    phis = [induced_on_cohomology(phi_star(diagram, q), coh_n[q], (coh_1[q], coh_2[q])) for q in range(top + 1)]
    alphas = [induced_on_cohomology(delta_tilde(diagram, 1, q), (coh_1[q], coh_2[q]), coh_12[q])
              for q in range(top)]
    deltas = [connecting_homomorphism(diagram, q) for q in range(top)]
    # H^0(N) -> H^0(N_1) + H^0(N_2) -> H^0(N_12) -> H^1(N) -> ..., then phi_(q_max+1)
    maps = [m for q in range(top) for m in (phis[q], alphas[q], deltas[q])] + [phis[top]]
    positions = _positions([(q, name) for q in range(top) for name in ("union", "pieces", "intersection")],
                           maps)
    coker = [coh_12[q].dimension - alphas[q].rank() for q in range(top)]
    identity_ok = [coh_n[q].dimension == (coker[q - 1] if q else 0) + alphas[q].rank_nullity()[1]
                   for q in range(top)]
    all_ok = all(p.exact for p in positions) and all(identity_ok) and _compose_to_zero(maps)
    return BinaryMVReport(
        q_max=q_max,
        union_dims=tuple(coh_n[q].dimension for q in range(q_max + 1)),
        piece_dims={i1: tuple(coh_1[q].dimension for q in range(q_max + 1)),
                    i2: tuple(coh_2[q].dimension for q in range(q_max + 1))},
        intersection_dims=tuple(coh_12[q].dimension for q in range(q_max + 1)),
        alpha_ranks=tuple(alphas[q].rank() for q in range(q_max + 1)),
        delta_star_ranks=tuple(deltas[q].rank() for q in range(q_max + 1)),
        positions=positions,
        identity_ok=tuple(identity_ok),
        all_ok=all_ok,
    )


@dataclass(frozen=True)
class FibredProduct:
    """Tuples of piece cochains agreeing on every pairwise intersection: the kernel of delta_tilde at level 1.

    `basis` is that kernel's reduced basis, built on first read, which no
    command does.  `inductive_fibred_dim` builds another basis of the same
    space piece by piece, from row gathers and unit columns alone, and
    `contains` is how the `fibred` command checks it.
    """

    diagram: GluedDiagram
    degree: int
    dimension: int

    @cached_property
    def basis(self) -> FMatrix:
        """A basis of the product, one tuple per column, built on first read."""
        if self.diagram.n_pieces == 1:
            return FMatrix.identity(self.dimension, self.diagram.field)
        return delta_tilde(self.diagram, 1, self.degree).kernel_basis()

    def contains(self, tuples: FMatrix) -> bool:
        """Whether every column, a tuple of piece cochains, agrees on every pairwise intersection."""
        return self.diagram.n_pieces == 1 or (delta_tilde(self.diagram, 1, self.degree) @ tuples).is_zero()

    def mediate(self, rhos: dict[str, FMatrix]) -> FMatrix:
        """Unique map into the product whose projections are the given maps.

        Every rho_i must map a common source space into C^q(N_i), and the
        family must commute with restrictions to pairwise intersections.
        """
        field = self.diagram.field
        ids = self.diagram.piece_ids
        missing = [i for i in ids if i not in rhos]
        if missing:
            raise IncompatibleFamily(f"no map supplied for pieces {missing}")
        src_cols = {rhos[i].cols for i in ids}
        if len(src_cols) != 1:
            raise IncompatibleFamily("maps have different source dimensions")
        for i in ids:
            if rhos[i].rows != len(self.diagram.nerves[i].simplices_of_dim(self.degree)):
                raise IncompatibleFamily(f"map for piece {i!r} has wrong target dimension")
        for (i, j), nij in self.diagram.level(2).items():
            ri = restriction_matrix(self.diagram.nerves[i], nij, self.degree, field)
            rj = restriction_matrix(self.diagram.nerves[j], nij, self.degree, field)
            if not (ri @ rhos[i]).equals(rj @ rhos[j]):
                raise IncompatibleFamily(f"maps for pieces {i!r} and {j!r} do not agree on the overlap")
        return block_matrix({i: rhos[i].rows for i in ids}, {0: rhos[ids[0]].cols}, ((i, 0, rhos[i]) for i in ids),
                            field)


def fibred_product(diagram: GluedDiagram, degree: int) -> FibredProduct:
    """The cochain fibred product, with no basis built.

    Its dimension is the nullity of delta_tilde at level 1 (all tuples for
    one piece).  It is the image of phi_star exactly when
    `contains(phi_star)` and rank phi_star is that dimension, which is
    what the `fibred` command reports.
    """
    if diagram.n_pieces == 1:
        return FibredProduct(diagram, degree, len(diagram.nerves[diagram.piece_ids[0]].simplices_of_dim(degree)))
    return FibredProduct(diagram, degree, delta_tilde(diagram, 1, degree).rank_nullity()[1])


def inductive_fibred_dim(diagram: GluedDiagram, degree: int) -> tuple[int, FMatrix]:
    """Fibred product computed piece by piece (the inductive two-step form), with no elimination.

    Pieces are adjoined one at a time.  The columns absorbed so far agree
    on every overlap of the absorbed pieces, so when a piece is adjoined
    each of its q-simplices that an absorbed piece holds must take the
    value of that holder's row, and any holder gives the same row: its
    rows are gathered in one product.  Each of its other q-simplices is
    unconstrained and adds one unit column.  Pieces are adjoined in
    `piece_ids` order, so the basis is stacked in that order too, and its
    span can be compared with the flat computation.
    """
    field = diagram.field
    dims = _cochain_dims(diagram.nerves, degree)
    # the basis absorbed so far; holder[s] is the row of q-simplex s's first holder
    basis = FMatrix.zeros(0, 0, field)
    holder: dict[tuple[str, ...], int] = {}
    for nxt in diagram.piece_ids:
        simplices, n = diagram.nerves[nxt].simplices_of_dim(degree), dims[nxt]
        fixed = [(i, holder[s]) for i, s in enumerate(simplices) if s in holder]
        free = [i for i, s in enumerate(simplices) if s not in holder]
        gathered = (entry_matrix((n, basis.rows), ((i, row, 1) for i, row in fixed), field) @ basis if fixed
                    else FMatrix.zeros(n, basis.cols, field))
        units = entry_matrix((n, len(free)), ((i, k, 1) for k, i in enumerate(free)), field)
        holder.update((simplices[i], basis.rows + i) for i in free)
        basis = block_matrix({0: basis.rows, 1: n}, {0: basis.cols, 1: len(free)},
                             [(0, 0, basis), (1, 0, gathered), (1, 1, units)], field)
    return basis.cols, basis


@dataclass(frozen=True)
class TotalCohomologyReport:
    q_max: int
    total_dims: tuple[int, ...]
    union_dims: tuple[int, ...]
    d_square_zero: bool
    matches: bool


def total_cohomology(diagram: GluedDiagram, q_max: int) -> TotalCohomologyReport:
    """Cohomology of the intersection bicomplex's total complex.

    Columns are the level-(p+1) cochains, rows the Cech degrees; the
    total differential is the difference map plus (-1)^p times the
    columnwise coboundary.  The result must match the union nerve.
    """
    field = diagram.field
    differentials = _total_differentials(diagram)
    d_square_zero = _compose_to_zero(differentials)
    # The last differential's target, total degree k_max + 1, is the zero space.
    records = _positions([(k, "total") for k in range(min(q_max + 1, len(differentials)))], differentials)
    total_dims = [r.outgoing_nullity - r.incoming_rank for r in records] + [0] * (q_max + 1 - len(records))
    union_dims = tuple(cohomology(diagram.nerve, k, field).dimension for k in range(q_max + 1))
    return TotalCohomologyReport(q_max, tuple(total_dims), union_dims, d_square_zero,
                                 d_square_zero and tuple(total_dims) == union_dims)


def _total_differentials(diagram: GluedDiagram) -> list[FMatrix]:
    """The total differentials d_k from total degree k to k + 1, for k from 0 to the top degree."""
    field = diagram.field
    n_cols = diagram.n_pieces
    q_top = max(diagram.nerve.dim, 0)
    k_max = n_cols - 1 + q_top + 1
    # total degree k: the cochains of bidegree (p, k - p), on the level-(p+1) index sets
    dims = [{(p, k - p): sum(_cochain_dims(diagram.level(p + 1), k - p).values())
             for p in range(n_cols) if 0 <= k - p <= q_top + 1}
            for k in range(k_max + 2)]

    def blocks(k: int):
        for p, q in dims[k]:
            if p + 1 < n_cols:
                yield (p + 1, q), (p, q), delta_tilde(diagram, p + 1, q)
            if q <= q_top:
                # d^q on each block; degrees q and q+1 share the level's index sets
                nerves = diagram.level(p + 1)
                d = block_matrix(_cochain_dims(nerves, q + 1), _cochain_dims(nerves, q),
                                 ((t, t, coboundary_matrix(n, q, field)) for t, n in nerves.items()), field)
                yield (p, q + 1), (p, q), -d if p % 2 else d

    return [block_matrix(dims[k + 1], dims[k], blocks(k), field) for k in range(k_max + 1)]


def descended_rank(diagram: GluedDiagram, level: int, degree: int) -> int:
    """The rank of the difference map between levels, descended to cohomology, from ranks alone.

    It is 0 when either level has no classes in the degree.  Otherwise its
    image is (dR + B) / B, where d is the difference map, R the source
    blocks' representatives and B the target blocks' coboundaries: d is a
    chain map, so it carries the source coboundaries into B, and R with
    them spans the source cocycles.  A target block with no classes adds
    nothing to that quotient and is left out, so the rank is
    rank [dR | (+) d^(q-1)] - sum rank d^(q-1) over the target blocks with
    classes.  Each rank of d^(q-1) is the one its memoised coboundary
    keeps, and no class is read.
    """
    field = diagram.field
    src, tgt = diagram.level(level), diagram.level(level + 1)
    h_src = {t: cohomology(k, degree, field) for t, k in src.items()}
    rows, _ = _ranges(_cochain_dims(tgt, degree))
    tgt = {t: k for t, k in tgt.items() if cohomology(k, degree, field).dimension}
    if not tgt or not any(h.dimension for h in h_src.values()):
        return 0
    reps = block_matrix(_cochain_dims(src, degree), {t: h.dimension for t, h in h_src.items()},
                        ((t, t, h.representatives) for t, h in h_src.items()), field)
    image = delta_tilde(diagram, level, degree) @ reps
    d = {t: coboundary_matrix(k, degree - 1, field) for t, k in tgt.items()} if degree else {}
    blocks = [(t, "image", image[rows[t]]) for t in tgt] + [(t, t, m) for t, m in d.items()]
    joint = block_matrix(_cochain_dims(tgt, degree), {"image": image.cols, **{t: m.cols for t, m in d.items()}},
                         blocks, field)
    return joint.rank() - sum(m.rank() for m in d.values())


def _connectivity(diagram: GluedDiagram) -> tuple[dict[tuple[str, ...], int], tuple[tuple[str, ...], ...]]:
    """Each index set's number of intersection components, and the sorted sets where it is not 1.

    One connectivity pass over the index sets, made of C-level calls: an
    empty intersection has no components, so every index set starts at 0
    in one `dict.fromkeys`, only the nonempty ones in `level` are
    counted, and `itertools.compress` picks the sets whose count is not 1.
    """
    sizes = range(1, diagram.n_pieces + 1)
    connectivity = dict.fromkeys(itertools.chain.from_iterable(map(diagram.index_subsets, sizes)), 0)
    for level in map(diagram.level, sizes):
        connectivity.update(zip(level, map(len, map(components, level.values()))))
    return connectivity, tuple(sorted(itertools.compress(connectivity, map((1).__ne__, connectivity.values()))))


@dataclass(frozen=True)
class H1FibredVerdict:
    connectivity: dict[tuple[str, ...], int]
    hypothesis_holds: bool
    disconnected: tuple[tuple[str, ...], ...]
    h1_union: int
    fibred_dim: int
    equal: bool
    theorem_instance_ok: bool


def h1_fibred_check(diagram: GluedDiagram) -> H1FibredVerdict:
    """Compare H^1 of the union with the fibred product of the pieces' H^1.

    The two agree when every multiple intersection nerve is connected;
    when some intersection is disconnected both dimensions are still
    reported, but equality is not asserted.
    """
    field = diagram.field
    connectivity, disconnected = _connectivity(diagram)
    hypothesis = not disconnected

    h1_union = cohomology(diagram.nerve, 1, field).dimension
    if diagram.n_pieces == 1:
        fibred_dim = h1_union
    else:
        pieces_h1 = sum(cohomology(k, 1, field).dimension for k in diagram.level(1).values())
        fibred_dim = pieces_h1 - descended_rank(diagram, 1, 1)
    equal = fibred_dim == h1_union
    return H1FibredVerdict(connectivity, hypothesis, disconnected, h1_union,
                           fibred_dim, equal, equal if hypothesis else True)


@dataclass(frozen=True)
class CountReport:
    h1_dims: dict[tuple[str, ...], int]
    connected_hypothesis: bool
    disconnected: tuple[tuple[str, ...], ...]
    surjective_hypothesis: bool
    non_surjective_levels: tuple[int, ...]
    exponent: int
    dimension_form_count: int | None
    literal_form_count: int
    ground_truth: int
    dimension_form_matches: bool
    literal_form_matches: bool


def count_line_bundles(diagram: GluedDiagram) -> CountReport:
    """Alternating-sum counts of line-bundle classes over F_2.

    Two readings are evaluated: the exponent form 2^S with S the
    alternating sum of H^1 dimensions over all intersection levels, and
    the literal alternating sum of the group orders.  Both are compared
    against the ground truth 2^(dim H^1(union)); disagreements are
    flagged, never silently corrected.
    """
    if diagram.field.p != 2:
        raise WrongField("line bundle counting requires the field F_2")
    connectivity, disconnected = _connectivity(diagram)
    # An empty intersection has H^1 = 0 and a literal term 2^0.
    h1_dims = dict.fromkeys(connectivity, 0)
    exponent = literal = 0
    for size in range(1, diagram.n_pieces + 1):
        sign = 1 if size % 2 else -1
        level = diagram.level(size)
        literal += sign * (math.comb(diagram.n_pieces, size) - len(level))
        for t, nerve in level.items():
            h1_dims[t] = h = cohomology(nerve, 1, diagram.field).dimension
            exponent += sign * h
            literal += sign * 2 ** h

    non_surjective: list[int] = []
    for level in range(1, diagram.n_pieces):
        if descended_rank(diagram, level, 1) != sum(h1_dims[t] for t in diagram.level(level + 1)):
            non_surjective.append(level)

    ground = 2 ** cohomology(diagram.nerve, 1, diagram.field).dimension
    dim_count = 2 ** exponent if exponent >= 0 else None
    return CountReport(
        h1_dims=h1_dims,
        connected_hypothesis=not disconnected,
        disconnected=disconnected,
        surjective_hypothesis=not non_surjective,
        non_surjective_levels=tuple(non_surjective),
        exponent=exponent,
        dimension_form_count=dim_count,
        literal_form_count=literal,
        ground_truth=ground,
        dimension_form_matches=dim_count == ground,
        literal_form_matches=literal == ground,
    )
