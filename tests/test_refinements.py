import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from cechkit import refinements
from cechkit.bundles import ResourceLimit
from cechkit.cochains import cech_differential, cohomology, induced_on_cohomology, pullback_map
from cechkit.diagrams import canonicalize, glued_from_nerves
from cechkit.documents import materialise_refinement, parse_document
from cechkit.fplinalg import FMatrix
from cechkit.gallery import gallery_document
from cechkit.refinements import (
    InvalidRefinement,
    RefinementMap,
    contiguous,
    enumerate_valid_label_maps,
    induced_cohomology_map,
    naturality_check,
    refine_pullback,
    validate_refinement,
)


def refinement_for(name):
    parsed = parse_document(gallery_document(name))
    coarse = canonicalize(parsed.system)
    return materialise_refinement(coarse, parsed.refinement, coarse.field)


@pytest.fixture(scope="module")
def two_origin_refinement():
    return refinement_for("two_origin_line")


@pytest.fixture(scope="module")
def bug_eyed_refinement():
    return refinement_for("bug_eyed_circle")


def test_identity_refinement_is_valid(two_origin_refinement):
    coarse = two_origin_refinement.coarse
    ident = RefinementMap(coarse, coarse, {v: v for v in coarse.nerve.vertices})
    assert validate_refinement(ident).valid
    maps = refine_pullback(ident, 1)
    assert maps["union"].matrix.equals(FMatrix.identity(4, coarse.field))
    assert naturality_check(ident, 1).all_commute


def test_gallery_refinements_valid(two_origin_refinement, bug_eyed_refinement):
    assert validate_refinement(two_origin_refinement).valid
    assert validate_refinement(bug_eyed_refinement).valid


def test_piece_violation_detected(two_origin_refinement):
    labels = dict(two_origin_refinement.labels)
    labels["o1"] = "o2"  # sends a piece-1-only fine label into piece 2 only
    bad = RefinementMap(two_origin_refinement.fine, two_origin_refinement.coarse, labels)
    verdict = validate_refinement(bad)
    assert not verdict.valid
    assert any("o1" in v for v in verdict.violations)
    with pytest.raises(InvalidRefinement):
        refine_pullback(bad, 0)


def test_pullbacks_are_chain_maps(two_origin_refinement):
    r = two_origin_refinement
    for q in (0, 1):
        maps_q = refine_pullback(r, q)
        maps_q1 = refine_pullback(r, q + 1)
        for key in maps_q:
            fine_c = maps_q[key].target.complex
            coarse_c = maps_q[key].source.complex
            d_f = cech_differential(fine_c, q, r.fine.field)
            d_c = cech_differential(coarse_c, q, r.fine.field)
            assert (maps_q1[key].matrix @ d_c.matrix).equals(d_f.matrix @ maps_q[key].matrix)


def test_naturality_squares(two_origin_refinement, bug_eyed_refinement):
    for r in (two_origin_refinement, bug_eyed_refinement):
        verdict = naturality_check(r, 2)
        assert verdict.all_commute, [s.name for s in verdict.squares if not s.commutes]
        assert any(s.name.startswith("connecting") for s in verdict.squares)


def test_induced_h1_isomorphism(two_origin_refinement, bug_eyed_refinement):
    for r, dim in ((two_origin_refinement, 1), (bug_eyed_refinement, 2)):
        m = induced_cohomology_map(r, 1)
        assert m.rows == dim and m.cols == dim
        assert m.rank() == dim
        m0 = induced_cohomology_map(r, 0)
        assert m0.rank() == 1


def test_connecting_square_on_the_generator(two_origin_refinement):
    # explicit class chase for the H^0 intersection generator
    r = two_origin_refinement
    from cechkit.mv import connecting_homomorphism
    pair = r.fine.piece_ids
    coarse_12 = r.coarse.intersection_nerve(pair)
    fine_12 = r.fine.intersection_nerve(pair)
    lam_12 = induced_on_cohomology(
        pullback_map(r.labels, fine_12, coarse_12, 0, r.fine.field),
        cohomology(coarse_12, 0, r.fine.field), cohomology(fine_12, 0, r.fine.field))
    delta_c = connecting_homomorphism(r.coarse, 0).matrix
    delta_f = connecting_homomorphism(r.fine, 0).matrix
    lam_n = induced_cohomology_map(r, 1)
    generator = np.zeros(delta_c.cols, dtype=np.int64)
    generator[0] = 1
    left = delta_f.apply(lam_12.apply(generator))
    right = lam_n.apply(delta_c.apply(generator))
    assert np.array_equal(left, right)
    assert left.any()


def test_lambda_choice_independence_on_cohomology(two_origin_refinement):
    """All valid maps contiguous to the canonical one agree on H^0 and H^1."""
    r = two_origin_refinement
    reference0 = induced_cohomology_map(r, 0)
    reference1 = induced_cohomology_map(r, 1)
    seen = 0
    for labels in enumerate_valid_label_maps(r.fine, r.coarse):
        candidate = RefinementMap(r.fine, r.coarse, labels)
        if not contiguous(r, candidate):
            continue
        seen += 1
        assert induced_cohomology_map(candidate, 0).equals(reference0)
        assert induced_cohomology_map(candidate, 1).equals(reference1)
    assert seen >= 1


def test_noncontiguous_valid_map_exists_and_differs(two_origin_refinement):
    # a constant map to a shared coarse label validates but kills H^1;
    # contiguity is what pins the induced map down
    r = two_origin_refinement
    constant = RefinementMap(r.fine, r.coarse,
                             {v: "l" for v in r.fine.nerve.vertices})
    assert validate_refinement(constant).valid
    assert not contiguous(r, constant)
    assert induced_cohomology_map(constant, 1).rank() == 0


def test_label_map_enumeration_refuses_before_trying_a_candidate(necklace, monkeypatch):
    # 12 fine and 12 coarse labels: 12^12 candidate maps, far past the cap
    d = glued_from_nerves(necklace(4, True))
    tried = []
    monkeypatch.setattr(refinements, "validate_refinement", tried.append)
    with pytest.raises(ResourceLimit, match=r"capped at 1000000 candidates; .* give 12\^12"):
        enumerate_valid_label_maps(d, d)
    assert tried == []


def identity_refinement(name):
    coarse = canonicalize(parse_document(gallery_document(name)).system)
    return RefinementMap(coarse, coarse, {v: v for v in coarse.nerve.vertices})


@pytest.mark.parametrize("r", [refinement_for("bug_eyed_circle"), refinement_for("two_origin_line"),
                               identity_refinement("three_circles")], ids=["bug_eyed", "two_origin", "circles"])
def test_naturality_check_builds_each_pullback_once_within_the_call(r, monkeypatch):
    built, tuple_builds, alive = Counter(), [], []
    real_pullback, real_blocks = refinements.pullback_map, refinements.block_matrix

    def counting(labels, domain, codomain, q, field):
        built[(domain.simplices, codomain.simplices, q)] += 1
        result = real_pullback(labels, domain, codomain, q, field)
        alive.append(weakref.ref(result))
        return result

    def blocks(*args):
        tuple_builds.append(args[1])
        return real_blocks(*args)

    monkeypatch.setattr(refinements, "pullback_map", counting)
    monkeypatch.setattr(refinements, "block_matrix", blocks)
    verdict = naturality_check(r, 2)
    assert built and set(built.values()) == {1}
    # one tuple pullback per level and degree
    assert len(tuple_builds) == 3 * r.fine.n_pieces
    gc.collect()
    assert all(ref() is None for ref in alive)
    # the squares are those of a check that builds every pullback afresh
    memoised, memoised_tuple = refinements._pullback, refinements._tuple_pullback
    monkeypatch.setattr(refinements, "_pullback", lambda r, f, c, q, memo: memoised(r, f, c, q, {}))
    monkeypatch.setattr(refinements, "_tuple_pullback", lambda r, level, q, memo: memoised_tuple(r, level, q, {}))
    built.clear()
    assert naturality_check(r, 2) == verdict
    assert max(built.values()) > 1
