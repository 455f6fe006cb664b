"""Refinement maps between two glued diagrams over the same piece set.

A refinement map sends the labels of a fine diagram to labels of a
coarse diagram so that every piece's nerve maps simplicially into the
corresponding coarse nerve (degenerate images are allowed).  Its
pullbacks are chain maps on the union nerve and on every intersection
nerve, and they commute with the difference maps delta~ of every level,
phi* (the concatenated restriction map out of the union, level 0) among
them, and, for binary diagrams, with the connecting homomorphism.

Two label maps realise the same refinement when they are contiguous:
for every fine simplex the union of the two images spans a coarse
simplex, piece by piece.  Contiguous maps induce identical pullbacks on
cohomology; plain validity alone does not (a constant map to a shared
vertex can be valid yet kill first cohomology).  No command compares two
label maps, so contiguity is defined only in the tests, beside their
search over every valid label map.

A simplicial map sends each simplex to one simplex, so every pullback is
read off one table: each fine union simplex's coarse image and, where the
image is nondegenerate, its permutation sign (Munkres, "Elements of
Algebraic Topology", §§14-15).  A `RefinementMap` builds that table once
(`images`), validates once from it (`verdict`), and builds from it the
pullback of each level and degree, level 0 being the union nerves as in
`GluedDiagram.level`, each one call of `cochains.block_pullback`, the
builder of every cochain map, laid out over both diagrams' supports,
once and only past a valid verdict (else `InvalidRefinement`).  It
keeps them and its induced maps on cohomology in `pullbacks` for as long
as it lives.  Its label map is never changed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .cochains import _image_table, block_pullback, coboundary_matrix, cohomology, induced_on_cohomology
from .complexes import Simplex
from .diagrams import GluedDiagram, ValidationReport
from .fplinalg import FMatrix
from .mv import connecting_homomorphism, delta_tilde


class InvalidRefinement(ValueError):
    pass


@dataclass(frozen=True)
class RefinementMap:
    """A label map from a fine diagram to a coarse one, with the image table that every pullback reads.

    `images` sends each fine union simplex to (its coarse image, its
    sign): the image is the sorted set of its vertices' labels, and the
    sign is the permutation sign that sorts them, or 0 where two vertices
    share a label and the image is degenerate.  It is built once, on
    first read, and needs a label for every fine vertex.
    """

    fine: GluedDiagram
    coarse: GluedDiagram
    labels: dict[str, str]
    # Pullback matrices keyed by (level, q), each from one `block_pullback` call, level 0 being the
    # union nerves, and induced maps on the union nerves' cohomology by ("H", q).
    pullbacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def verdict(self) -> ValidationReport:
        """`validate_refinement(self)`, run once."""
        return validate_refinement(self)

    @cached_property
    def images(self) -> dict[Simplex, tuple[Simplex, int]]:
        return _image_table(self.labels, self.fine.nerve)


def validate_refinement(r: RefinementMap) -> ValidationReport:
    """Every violation as a message; per piece its labels, then its other simplices by dimension and lexicographically."""
    bad: list[str] = []
    if r.fine.piece_ids != r.coarse.piece_ids:
        bad.append(f"piece sets differ: {r.fine.piece_ids} vs {r.coarse.piece_ids}")
        return ValidationReport(False, tuple(bad))
    if r.fine.field.p != r.coarse.field.p:
        bad.append("field moduli differ")
    for v in r.fine.nerve.vertices:
        if v not in r.labels:
            bad.append(f"label map undefined on fine label {v!r}")
        elif (r.labels[v],) not in r.coarse.nerve:
            bad.append(f"image {r.labels[v]!r} of {v!r} is not a coarse label")
    if bad:
        return ValidationReport(False, tuple(bad))
    images = r.images
    for pid in r.fine.piece_ids:
        fine_nerve = r.fine.nerves[pid]
        coarse_nerve = r.coarse.nerves[pid]
        for v in fine_nerve.vertices:
            if (r.labels[v],) not in coarse_nerve:
                bad.append(f"piece {pid!r}: image of label {v!r} leaves the piece")
        # A vertex's image is its label's, checked just above, so a vertex is not named twice.
        for q in range(1, fine_nerve.dim + 1):
            for s in fine_nerve.simplices_of_dim(q):
                if images[s][0] not in coarse_nerve:
                    bad.append(f"piece {pid!r}: image of simplex {s!r} is not simplicial")
    return ValidationReport(not bad, tuple(bad))


def _pullback(r: RefinementMap, level: int, degree: int) -> FMatrix:
    """The pullback from the coarse diagram's level-p cochains to the fine one's, level 0 being the union nerves.

    It is read off the image table once and kept, and only past a valid
    verdict, which stands in for `pullback_map`'s scan of the domain: each
    fine piece simplex maps into its coarse piece, so each fine union or
    N_T simplex into the coarse union or N_T.  Every level is laid out
    over both diagrams' supports in the degree, as `mv` lays out its
    level maps, with one block per index set in both.  A fine N_T with
    q-simplices whose coarse N_T has none has only degenerate images, so
    its rows stay zero.  No pullback of a single N_T is built.
    """
    key = (level, degree)
    if key not in r.pullbacks:
        if not r.verdict.valid:
            raise InvalidRefinement(r.verdict.violations[0])
        fine, coarse = (d._support(level, degree) for d in (r.fine, r.coarse))
        blocks = ((t, t, 1) for t in fine if t in coarse)
        r.pullbacks[key] = block_pullback(fine, coarse, blocks, degree, r.fine.field, r.images)
    return r.pullbacks[key]


@dataclass(frozen=True)
class NaturalitySquare:
    name: str
    commutes: bool


@dataclass(frozen=True)
class NaturalityVerdict:
    squares: tuple[NaturalitySquare, ...]
    all_commute: bool


def naturality_check(r: RefinementMap, q_max: int) -> NaturalityVerdict:
    """Exact matrix identities for the squares of the refinement pullback.

    Checks that the pullback commutes with the coboundary on every
    intersection nerve and the union nerve, with the difference maps out
    of every level but the last, phi* at level 0 among them, and (for
    binary diagrams) with the connecting homomorphism on cohomology.

    The coboundary squares are read off the union nerves' square, row by
    row: on a fine N_T, the coboundary and the pullback are the union's
    restricted to N_T's simplices.  A face of a simplex of N_T lies in
    N_T, and a valid map sends fine N_T into coarse N_T, so each row of
    N_T's square is a union row with no entry dropped, and N_T's square
    commutes exactly when the union rows at its (q+1)-simplices agree.
    """
    field = r.fine.field
    squares: list[NaturalitySquare] = []

    # An empty fine N_T makes both sides of its square 0 x dim C^q(coarse N_T),
    # so the square commutes: every index set starts as commuting, in one
    # `dict.fromkeys`, and only the nonempty ones in `level` are checked.
    sizes = range(1, r.fine.n_pieces + 1)
    index_sets = dict.fromkeys(itertools.chain.from_iterable(map(r.fine.index_subsets, sizes)), True)
    names = list(map(",".join, index_sets))
    for q in range(q_max + 1):
        left = _pullback(r, 0, q + 1) @ coboundary_matrix(r.coarse.nerve, q, field)
        right = coboundary_matrix(r.fine.nerve, q, field) @ _pullback(r, 0, q)
        simplices = r.fine.nerve.simplices_of_dim(q + 1)
        differ = {simplices[i] for i in left.differing_rows(right)}
        squares.append(NaturalitySquare(f"delta[union] q={q}", not differ))
        commutes = dict(index_sets)
        for level in map(r.fine.level, sizes):
            commutes.update((t, differ.isdisjoint(fine_c.simplices)) for t, fine_c in level.items())
        squares += map(NaturalitySquare, map(f"delta[T={{}}] q={q}".format, names), commutes.values())

        # phi* is delta~ at level 0; delta~ out of the last level is zero and has no square
        for level in range(r.fine.n_pieces):
            left = _pullback(r, level + 1, q) @ delta_tilde(r.coarse, level, q)
            right = delta_tilde(r.fine, level, q) @ _pullback(r, level, q)
            name = f"delta_tilde level={level} q={q}" if level else f"phi_star q={q}"
            squares.append(NaturalitySquare(name, left.equals(right)))

    if r.fine.n_pieces == 2:
        # the level-2 tuple pullback of a binary pair is the pullback on N_12
        fine_12, coarse_12 = (d.intersection_nerve(r.fine.piece_ids) for d in (r.fine, r.coarse))
        for q in range(q_max + 1):
            on_12 = induced_on_cohomology(_pullback(r, 2, q), cohomology(coarse_12, q, field),
                                          cohomology(fine_12, q, field))
            left = connecting_homomorphism(r.fine, q) @ on_12
            right = induced_cohomology_map(r, q + 1) @ connecting_homomorphism(r.coarse, q)
            squares.append(NaturalitySquare(f"connecting q={q}", left.equals(right)))

    return NaturalityVerdict(tuple(squares), all(s.commutes for s in squares))


def induced_cohomology_map(r: RefinementMap, degree: int) -> FMatrix:
    """Pullback on H^degree of the union nerves, coarse -> fine, built once."""
    key = ("H", degree)
    if key not in r.pullbacks:
        field = r.fine.field
        r.pullbacks[key] = induced_on_cohomology(_pullback(r, 0, degree), cohomology(r.coarse.nerve, degree, field),
                                                 cohomology(r.fine.nerve, degree, field))
    return r.pullbacks[key]
