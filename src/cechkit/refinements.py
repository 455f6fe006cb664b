"""Refinement maps between two glued diagrams over the same piece set.

A refinement map sends the labels of a fine diagram to labels of a
coarse diagram so that every piece's nerve maps simplicially into the
corresponding coarse nerve (degenerate images are allowed).  Its
pullbacks are chain maps on the union nerve and on every intersection
nerve, and they commute with the concatenated restriction map, the
difference maps and, for binary diagrams, the connecting homomorphism.

Two label maps realise the same refinement when they are contiguous:
for every fine simplex the union of the two images spans a coarse
simplex, piece by piece.  Contiguous maps induce identical pullbacks on
cohomology; plain validity alone does not (a constant map to a shared
vertex can be valid yet kill first cohomology).

A `RefinementMap` validates once (`verdict`).  It builds each pullback,
tuple pullback and induced map on cohomology once, only past a valid
verdict (else `InvalidRefinement`), and keeps their matrices in
`pullbacks` for as long as it lives.  Its label map is never changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .cochains import _cochain_dims, coboundary_matrix, cohomology, induced_on_cohomology, simplicial_pullback
from .complexes import EMPTY_COMPLEX, SimplicialComplex
from .diagrams import GluedDiagram, ValidationReport
from .fplinalg import FMatrix, block_matrix
from .mv import connecting_homomorphism, delta_tilde, phi_star


class InvalidRefinement(ValueError):
    pass


@dataclass(frozen=True)
class RefinementMap:
    fine: GluedDiagram
    coarse: GluedDiagram
    labels: dict[str, str]
    # Pullback matrices keyed by (fine complex, coarse complex, q), tuple pullbacks by (level, q)
    # and induced maps on cohomology by ("H", fine complex, coarse complex, q).
    pullbacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def verdict(self) -> ValidationReport:
        """`validate_refinement(self)`, run once."""
        return validate_refinement(self)


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
    for pid in r.fine.piece_ids:
        fine_nerve = r.fine.nerves[pid]
        coarse_nerve = r.coarse.nerves[pid]
        for v in fine_nerve.vertices:
            if (r.labels[v],) not in coarse_nerve:
                bad.append(f"piece {pid!r}: image of label {v!r} leaves the piece")
        # A vertex's image is its label's, checked just above, so a vertex is not named twice.
        for s in sorted((s for s in fine_nerve.simplices if len(s) > 1), key=lambda s: (len(s), s)):
            image = tuple(sorted({r.labels[v] for v in s}))
            if image not in coarse_nerve:
                bad.append(f"piece {pid!r}: image of simplex {s!r} is not simplicial")
    return ValidationReport(not bad, tuple(bad))


def _pullback(r: RefinementMap, fine_c: SimplicialComplex, coarse_c: SimplicialComplex, degree: int) -> FMatrix:
    """The pullback matrix from a coarse complex to a fine one, built once and only past a valid verdict.

    That verdict stands in for `pullback_map`'s scan of the domain: each
    fine piece simplex maps into its coarse piece, so each fine union or
    N_T simplex into the coarse union or N_T.
    """
    key = (fine_c, coarse_c, degree)
    if key not in r.pullbacks:
        if not r.verdict.valid:
            raise InvalidRefinement(r.verdict.violations[0])
        r.pullbacks[key] = simplicial_pullback(r.labels, fine_c, coarse_c, degree, r.fine.field)
    return r.pullbacks[key]


def _tuple_pullback(r: RefinementMap, level: int, degree: int) -> FMatrix:
    """Blockwise pullback between the level-p cochains of the two diagrams, built once.

    A fine N_T is nonempty only where the coarse one is, since labels map
    piece by piece; where it is empty, its block has no rows.
    """
    if (level, degree) not in r.pullbacks:
        fine, coarse = r.fine.level(level), r.coarse.level(level)
        maps = {t: _pullback(r, fine.get(t, EMPTY_COMPLEX), k, degree) for t, k in coarse.items()}
        r.pullbacks[level, degree] = block_matrix({t: m.rows for t, m in maps.items()},
                                                  _cochain_dims(coarse, degree),
                                                  ((t, t, m) for t, m in maps.items()), r.fine.field)
    return r.pullbacks[level, degree]


def _induced(r: RefinementMap, fine_c: SimplicialComplex, coarse_c: SimplicialComplex, degree: int) -> FMatrix:
    """The pullback on H^degree, coarse_c -> fine_c, built once."""
    key = ("H", fine_c, coarse_c, degree)
    if key not in r.pullbacks:
        field = r.fine.field
        r.pullbacks[key] = induced_on_cohomology(_pullback(r, fine_c, coarse_c, degree),
                                                 cohomology(coarse_c, degree, field), cohomology(fine_c, degree, field))
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
    intersection nerve and the union nerve, with the concatenated
    restriction map, with the difference maps at every level, and (for
    binary diagrams) with the connecting homomorphism on cohomology.
    """
    field = r.fine.field
    squares: list[NaturalitySquare] = []

    # An empty fine N_T makes both sides of its square 0 x dim C^q(coarse N_T),
    # so the square commutes; it is recorded as such, with None complexes.
    complexes = [("union", r.fine.nerve, r.coarse.nerve)] + [
        (f"T={','.join(t)}", fine_nerve, None if fine_nerve is None else r.coarse.intersection_nerve(t))
        for size in range(1, r.fine.n_pieces + 1) for t, fine_nerve in r.fine.index_set_nerves(size)]
    for q in range(q_max + 1):
        for name, fine_c, coarse_c in complexes:
            if fine_c is None:
                squares.append(NaturalitySquare(f"delta[{name}] q={q}", True))
                continue
            left = _pullback(r, fine_c, coarse_c, q + 1) @ coboundary_matrix(coarse_c, q, field)
            right = coboundary_matrix(fine_c, q, field) @ _pullback(r, fine_c, coarse_c, q)
            squares.append(NaturalitySquare(f"delta[{name}] q={q}", left.equals(right)))

        left = _tuple_pullback(r, 1, q) @ phi_star(r.coarse, q)
        right = phi_star(r.fine, q) @ _pullback(r, r.fine.nerve, r.coarse.nerve, q)
        squares.append(NaturalitySquare(f"phi_star q={q}", left.equals(right)))

        for level in range(1, r.fine.n_pieces):
            left = _tuple_pullback(r, level + 1, q) @ delta_tilde(r.coarse, level, q)
            right = delta_tilde(r.fine, level, q) @ _tuple_pullback(r, level, q)
            squares.append(NaturalitySquare(f"delta_tilde level={level} q={q}", left.equals(right)))

    if r.fine.n_pieces == 2:
        fine_12, coarse_12 = (d.intersection_nerve(r.fine.piece_ids) for d in (r.fine, r.coarse))
        for q in range(q_max + 1):
            left = connecting_homomorphism(r.fine, q) @ _induced(r, fine_12, coarse_12, q)
            right = induced_cohomology_map(r, q + 1) @ connecting_homomorphism(r.coarse, q)
            squares.append(NaturalitySquare(f"connecting q={q}", left.equals(right)))

    return NaturalityVerdict(tuple(squares), all(s.commutes for s in squares))


def induced_cohomology_map(r: RefinementMap, degree: int) -> FMatrix:
    """Pullback on H^degree of the union nerves, coarse -> fine."""
    return _induced(r, r.fine.nerve, r.coarse.nerve, degree)


def contiguous(r1: RefinementMap, r2: RefinementMap) -> bool:
    """Whether two label maps between the same two diagrams realise the same refinement (piecewise)."""
    if any(a is not b and a != b for a, b in ((r1.fine, r2.fine), (r1.coarse, r2.coarse))):
        return False
    for pid in r1.fine.piece_ids:
        coarse_nerve = r1.coarse.nerves[pid]
        for s in r1.fine.nerves[pid].simplices:
            joint = tuple(sorted({r1.labels[v] for v in s} | {r2.labels[v] for v in s}))
            if joint not in coarse_nerve:
                return False
    return True
