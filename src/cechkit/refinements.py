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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .cochains import ChainMapLevel, coboundary_matrix, cohomology, induced_on_cohomology, pullback_map
from .complexes import EMPTY_COMPLEX, SimplicialComplex
from .diagrams import GluedDiagram
from .errors import ResourceLimit
from .fplinalg import FMatrix, block_matrix
from .mv import connecting_homomorphism, delta_tilde, phi_star, tuple_space


class InvalidRefinement(ValueError):
    pass


@dataclass(frozen=True)
class RefinementMap:
    fine: GluedDiagram
    coarse: GluedDiagram
    labels: dict[str, str]


@dataclass(frozen=True)
class RefinementVerdict:
    valid: bool
    violations: tuple[str, ...]


def validate_refinement(r: RefinementMap) -> RefinementVerdict:
    bad: list[str] = []
    if r.fine.piece_ids != r.coarse.piece_ids:
        bad.append(f"piece sets differ: {r.fine.piece_ids} vs {r.coarse.piece_ids}")
        return RefinementVerdict(False, tuple(bad))
    if r.fine.field.p != r.coarse.field.p:
        bad.append("field moduli differ")
    for v in r.fine.nerve.vertices:
        if v not in r.labels:
            bad.append(f"label map undefined on fine label {v!r}")
        elif (r.labels[v],) not in r.coarse.nerve:
            bad.append(f"image {r.labels[v]!r} of {v!r} is not a coarse label")
    if bad:
        return RefinementVerdict(False, tuple(bad))
    for pid in r.fine.piece_ids:
        fine_nerve = r.fine.nerves[pid]
        coarse_nerve = r.coarse.nerves[pid]
        for v in fine_nerve.vertices:
            if (r.labels[v],) not in coarse_nerve:
                bad.append(f"piece {pid!r}: image of label {v!r} leaves the piece")
        for s in fine_nerve.simplices:
            image = tuple(sorted({r.labels[v] for v in s}))
            if image not in coarse_nerve:
                bad.append(f"piece {pid!r}: image of simplex {s!r} is not simplicial")
    return RefinementVerdict(not bad, tuple(bad))


def refine_pullback(r: RefinementMap, degree: int) -> dict[tuple[str, ...] | str, ChainMapLevel]:
    """Pullback chain maps coarse -> fine on the union nerve and every N_T."""
    verdict = validate_refinement(r)
    if not verdict.valid:
        raise InvalidRefinement(verdict.violations[0])
    field = r.fine.field
    out: dict[tuple[str, ...] | str, ChainMapLevel] = {
        "union": pullback_map(r.labels, r.fine.nerve, r.coarse.nerve, degree, field)
    }
    for size in range(1, r.fine.n_pieces + 1):
        for t, fine_nerve in r.fine.index_set_nerves(size):
            out[t] = pullback_map(r.labels, EMPTY_COMPLEX if fine_nerve is None else fine_nerve,
                                  r.coarse.intersection_nerve(t), degree, field)
    return out


def _pullback(r: RefinementMap, fine_c: SimplicialComplex, coarse_c: SimplicialComplex, degree: int,
              memo: dict) -> ChainMapLevel:
    """The pullback from a coarse complex to a fine one, kept in the memo."""
    key = (fine_c, coarse_c, degree)
    if key not in memo:
        memo[key] = pullback_map(r.labels, fine_c, coarse_c, degree, r.fine.field)
    return memo[key]


def _tuple_pullback(r: RefinementMap, level: int, degree: int, memo: dict) -> FMatrix:
    """Blockwise pullback between the level-p tuple spaces of the two diagrams.

    A fine N_T is nonempty only where the coarse one is, since labels map
    piece by piece; where it is empty, its block has no rows.  The result
    is kept in the memo under (level, degree), next to its blocks.
    """
    if (level, degree) not in memo:
        coarse = tuple_space(r.coarse, level, degree)
        maps = {t: _pullback(r, r.fine.intersection_nerve(t), space.complex, degree, memo).matrix.entries
                for t, space in coarse.blocks}
        memo[level, degree] = block_matrix({t: m.shape[0] for t, m in maps.items()}, coarse.dims,
                                           ((t, t, m) for t, m in maps.items()), r.fine.field)
    return memo[level, degree]


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
    verdict = validate_refinement(r)
    if not verdict.valid:
        raise InvalidRefinement(verdict.violations[0])
    field = r.fine.field
    squares: list[NaturalitySquare] = []
    # Neighbouring degrees and levels share their pullbacks, so each is built
    # once per call, in a memo that nothing keeps after it.
    memo: dict = {}

    # An empty fine N_T makes both sides of its square 0 x dim C^q(coarse N_T),
    # so the square commutes; it is recorded as such, with None complexes.
    complexes: list[tuple[str, SimplicialComplex | None, SimplicialComplex | None]] = [
        ("union", r.fine.nerve, r.coarse.nerve)]
    for size in range(1, r.fine.n_pieces + 1):
        for t, fine_nerve in r.fine.index_set_nerves(size):
            coarse_nerve = r.coarse.intersection_nerve(t) if fine_nerve is not None else None
            complexes.append((f"T={','.join(t)}", fine_nerve, coarse_nerve))
    for q in range(q_max + 1):
        for name, fine_c, coarse_c in complexes:
            if fine_c is None:
                squares.append(NaturalitySquare(f"delta[{name}] q={q}", True))
                continue
            lam_q = _pullback(r, fine_c, coarse_c, q, memo).matrix
            lam_q1 = _pullback(r, fine_c, coarse_c, q + 1, memo).matrix
            d_fine = coboundary_matrix(fine_c, q, field)
            d_coarse = coboundary_matrix(coarse_c, q, field)
            squares.append(NaturalitySquare(
                f"delta[{name}] q={q}", (lam_q1 @ d_coarse).equals(d_fine @ lam_q)))

        lam_union = _pullback(r, r.fine.nerve, r.coarse.nerve, q, memo).matrix
        lam_l1 = _tuple_pullback(r, 1, q, memo)
        squares.append(NaturalitySquare(
            f"phi_star q={q}",
            (lam_l1 @ phi_star(r.coarse, q).matrix).equals(
                phi_star(r.fine, q).matrix @ lam_union)))

        for level in range(1, r.fine.n_pieces):
            lam_src = _tuple_pullback(r, level, q, memo)
            lam_tgt = _tuple_pullback(r, level + 1, q, memo)
            squares.append(NaturalitySquare(
                f"delta_tilde level={level} q={q}",
                (lam_tgt @ delta_tilde(r.coarse, level, q).matrix).equals(
                    delta_tilde(r.fine, level, q).matrix @ lam_src)))

    if r.fine.n_pieces == 2:
        pair = r.fine.piece_ids
        fine_12 = r.fine.intersection_nerve(pair)
        coarse_12 = r.coarse.intersection_nerve(pair)
        for q in range(q_max + 1):
            delta_f = connecting_homomorphism(r.fine, q)
            delta_c = connecting_homomorphism(r.coarse, q)
            lam_12 = induced_on_cohomology(
                _pullback(r, fine_12, coarse_12, q, memo),
                cohomology(coarse_12, q, field), cohomology(fine_12, q, field))
            lam_n = induced_on_cohomology(
                _pullback(r, r.fine.nerve, r.coarse.nerve, q + 1, memo),
                cohomology(r.coarse.nerve, q + 1, field), cohomology(r.fine.nerve, q + 1, field))
            squares.append(NaturalitySquare(
                f"connecting q={q}",
                (delta_f.matrix @ lam_12).equals(lam_n @ delta_c.matrix)))

    return NaturalityVerdict(tuple(squares), all(s.commutes for s in squares))


def induced_cohomology_map(r: RefinementMap, degree: int) -> FMatrix:
    """Pullback on H^degree of the union nerves, coarse -> fine."""
    verdict = validate_refinement(r)
    if not verdict.valid:
        raise InvalidRefinement(verdict.violations[0])
    field = r.fine.field
    chain = pullback_map(r.labels, r.fine.nerve, r.coarse.nerve, degree, field)
    return induced_on_cohomology(chain, cohomology(r.coarse.nerve, degree, field),
                                 cohomology(r.fine.nerve, degree, field))


def contiguous(r1: RefinementMap, r2: RefinementMap) -> bool:
    """Whether two label maps realise the same refinement (piecewise)."""
    if r1.fine is not r2.fine and r1.fine != r2.fine:
        return False
    for pid in r1.fine.piece_ids:
        coarse_nerve = r1.coarse.nerves[pid]
        for s in r1.fine.nerves[pid].simplices:
            joint = tuple(sorted({r1.labels[v] for v in s} | {r2.labels[v] for v in s}))
            if joint not in coarse_nerve:
                return False
    return True


# enumerate_valid_label_maps refuses to validate more candidate maps than this.
LABEL_MAP_CAP = 10 ** 6


def enumerate_valid_label_maps(fine: GluedDiagram, coarse: GluedDiagram) -> Iterator[dict[str, str]]:
    """All label maps passing validation; refuses when called, before any candidate is tried."""
    fine_labels = fine.nerve.vertices
    coarse_labels = coarse.nerve.vertices
    if len(coarse_labels) ** len(fine_labels) > LABEL_MAP_CAP:
        raise ResourceLimit(f"label map enumeration is capped at {LABEL_MAP_CAP} candidates; "
                            f"{len(fine_labels)} fine and {len(coarse_labels)} coarse labels "
                            f"give {len(coarse_labels)}^{len(fine_labels)}")
    maps = (dict(zip(fine_labels, image))
            for image in itertools.product(coarse_labels, repeat=len(fine_labels)))
    return (labels for labels in maps if validate_refinement(RefinementMap(fine, coarse, labels)).valid)
