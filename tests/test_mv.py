import itertools
from collections import Counter

import numpy as np
import pytest
import reference
from conftest import GALLERY_CASES, diagram_for, patch_bindings
from dense import dense, equal, matrix, vector
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import cli, cochains, diagrams, fplinalg, mv
from cechkit.cli import run_command
from cechkit.cochains import cohomology, induced_on_cohomology, restriction_matrix
from cechkit.complexes import SimplicialComplex, build_complex, components, intersect
from cechkit.diagrams import (
    AdjunctionSystem,
    IncompatibleFamily,
    LocalPiece,
    canonicalize,
    collapse,
    glued_from_nerves,
)
from cechkit.documents import canonical_json, parse_document
from cechkit.fplinalg import F2, FMatrix, PrimeField
from cechkit.gallery import gallery_document, random_admissible
from cechkit.mv import (
    NotBinary,
    WrongField,
    assemble_les,
    connecting_homomorphism,
    count_line_bundles,
    delta_tilde,
    descended_rank,
    fibred_product,
    h1_fibred_check,
    inductive_fibred_dim,
    phi_star,
    total_cohomology,
    verify_exact_sequence,
)


def single_circle_diagram(p=2):
    nerve = build_complex([["a", "b"], ["b", "c"], ["a", "c"]])
    return canonicalize(AdjunctionSystem((LocalPiece("p1", nerve),), (), PrimeField(p)))


def test_phi_star_single_piece_identity():
    d = single_circle_diagram()
    m = phi_star(d, 0)
    assert m.equals(FMatrix.identity(3, d.field))


def test_phi_star_two_origin_injective(two_origin):
    m = phi_star(two_origin, 0)
    level1_dim = sum(len(k.simplices_of_dim(0)) for k in two_origin.level(1).values())
    assert (m.rows, m.cols) == (level1_dim, len(two_origin.nerve.vertices)) == (6, 4)
    assert m.rank() == 4
    assert m.kernel_basis().cols == 0


def test_phi_star_always_injective(gallery_diagram):
    for q in range(max(gallery_diagram.nerve.dim, 0) + 1):
        assert phi_star(gallery_diagram, q).kernel_basis().cols == 0


def test_delta_tilde_binary_is_first_minus_second():
    # over F_3 the signs are visible: f1 restriction carries +1, f2 carries -1
    d3 = canonicalize(parse_document(gallery_document("two_origin_line", field=3)).system)
    m = dense(delta_tilde(d3, 1, 0))
    level1 = d3.level(1)
    basis_p1 = level1[("p1",)].simplices_of_dim(0)
    basis_p2 = level1[("p2",)].simplices_of_dim(0)
    assert list(level1) == [("p1",), ("p2",)]
    off_p2 = len(basis_p1)
    # row for vertex l of the intersection
    assert m[0, basis_p1.index(("l",))] == 1
    assert m[0, off_p2 + basis_p2.index(("l",))] == 2


def test_delta_tilde_squares_to_zero(three_circles):
    for q in (0, 1):
        d1 = delta_tilde(three_circles, 1, q)
        d2 = delta_tilde(three_circles, 2, q)
        assert (d2 @ d1).is_zero()


def test_delta_tilde_annihilates_phi_star(gallery_diagram):
    d = gallery_diagram
    if d.n_pieces < 2:
        return
    for q in range(max(d.nerve.dim, 0) + 1):
        assert (delta_tilde(d, 1, q) @ phi_star(d, q)).is_zero()


def test_exact_sequence_gallery(gallery_diagram):
    for q in range(max(gallery_diagram.nerve.dim, 0) + 1):
        verdict = verify_exact_sequence(gallery_diagram, q)
        assert verdict.exact, verdict


@pytest.mark.parametrize("p", (2, 3))
def test_positions_tell_a_sequence_that_composes_to_zero_but_is_not_exact(p):
    # 0 -> F -0-> F -0-> F -> 0: every composite is zero, but the kernel at the middle is not the image.
    field = PrimeField(p)
    zero = FMatrix.zeros(1, 1, field)
    records = mv._positions([(0, "first"), (0, "middle"), (0, "last")], [zero, zero])
    assert mv._compose_to_zero([zero, zero])
    assert [(r.dim, r.incoming_rank, r.outgoing_nullity) for r in records] == [(1, 0, 1), (1, 0, 1), (1, 0, 1)]
    assert [r.exact for r in records] == [False, False, False]
    # F -1-> F -0-> F: exact at the middle only.
    records = mv._positions([(0, "first"), (0, "middle"), (0, "last")], [FMatrix.identity(1, field), zero])
    assert [r.exact for r in records] == [True, True, False]


def test_exact_sequence_single_piece():
    d = single_circle_diagram()
    for q in (0, 1):
        assert verify_exact_sequence(d, q).exact


def test_connecting_two_origin_generator(two_origin):
    delta = connecting_homomorphism(two_origin, 0)
    # rows: H^1(N), columns: H^0(N_12), in their representative bases
    assert delta.cols == cohomology(two_origin.intersection_nerve(two_origin.piece_ids), 0, F2).dimension == 2
    assert delta.rows == cohomology(two_origin.nerve, 1, F2).dimension == 1
    # the H^0 generator supported on one intersection point hits the H^1 generator
    assert (delta @ vector([1, 0], F2)).column(0) == [1]
    assert delta.rank() == 1


def test_connecting_kills_difference_image(two_origin):
    # classes restricted from the pieces die under the connecting map
    delta = connecting_homomorphism(two_origin, 0)
    assert (delta @ vector([1, 1], F2)).column(0) == [0]


def test_connecting_branching_zero(branching):
    delta = connecting_homomorphism(branching, 0)
    assert delta.is_zero()


@pytest.mark.parametrize("p", (2, 3, 5))
def test_connecting_lift_independence(two_origin, branching, bug_eyed, p):
    field = PrimeField(p)
    hits = 0
    for d in (two_origin, branching, bug_eyed):
        i1, i2 = d.piece_ids
        # With the names swapped the lift goes through the other piece: its pair
        # (dg, 0) is (0, dg) in the original order, where that lift's pair is
        # (0, -dg), so the two maps are negatives of each other.
        first = glued_from_nerves(d.nerves, field)
        second = glued_from_nerves({i1: d.nerves[i2], i2: d.nerves[i1]}, field)
        for q in (0, 1):
            a = connecting_homomorphism(first, q)
            assert a.equals(-connecting_homomorphism(second, q)), (d.piece_ids, q)
            hits += not a.is_zero()
    assert hits  # some map is nonzero, so the sign is seen over odd p


def test_connecting_requires_binary(three_circles):
    with pytest.raises(NotBinary):
        connecting_homomorphism(three_circles, 0)


def test_assemble_les_two_origin(two_origin):
    les = assemble_les(two_origin, 1)
    assert les.union_dims == (1, 1)
    assert les.intersection_dims == (2, 0)
    assert les.all_ok
    # dim H^1 = coker(alpha_0) + ker(alpha_1) = 1 + 0
    assert les.alpha_ranks[0] == 1
    coker0 = les.intersection_dims[0] - les.alpha_ranks[0]
    assert coker0 == 1


def descended_delta_tilde(diagram, level, q):
    """The difference map between levels, descended to cohomology: the reference for `descended_rank`."""
    src, tgt = ([cohomology(k, q, diagram.field) for k in diagram.level(size).values()] for size in (level, level + 1))
    return induced_on_cohomology(delta_tilde(diagram, level, q), src, tgt)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_descended_difference_map_is_alpha_of_the_long_exact_sequence(p):
    # alpha = (a1 | -a2), each piece's restriction to N_12 descended to cohomology
    docs = [gallery_document(name, field=p, **kwargs) for name, kwargs in
            (("two_origin_line", {}), ("branching_line_n", {"n": 2}), ("bug_eyed_circle", {}))]
    docs += [gallery_document("random_admissible", field=p, n=2, seed=seed) for seed in range(12)]
    for doc in docs:
        diagram = canonicalize(parse_document(doc).system)
        pieces, n12 = list(diagram.level(1).values()), diagram.intersection_nerve(diagram.piece_ids)
        for q in range(diagram.nerve.dim + 2):
            alpha = reference.induced(reference.delta_tilde(diagram, 1, q, p), [(k, q) for k in pieces], [(n12, q)], p)
            assert equal(descended_delta_tilde(diagram, 1, q), alpha)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_induced_on_cohomology_over_a_direct_sum_stacks_the_single_basis_maps(p):
    # phi on cohomology: into the pieces' direct sum at once, and one piece at a time
    cases = [diagram_for(name, field=p, **kwargs) for name, kwargs in GALLERY_CASES]
    cases += [diagram_for("random_admissible", field=p, seed=seed) for seed in range(12)]
    nonzero = 0
    for diagram in cases:
        field = diagram.field
        for q in range(diagram.nerve.dim + 2):
            union = cohomology(diagram.nerve, q, field)
            pieces = [cohomology(k, q, field) for k in diagram.level(1).values()]
            for h in pieces:
                one = induced_on_cohomology(restriction_matrix(diagram.nerve, h.complex, q, field), union, h)
                assert equal(one, reference.induced(reference.restriction(diagram.nerve, h.complex, q, p),
                                                    [(diagram.nerve, q)], [(h.complex, q)], p)), q
            phi = induced_on_cohomology(phi_star(diagram, q), union, pieces)
            assert equal(phi, reference.induced(reference.phi_star(diagram, q, p), [(diagram.nerve, q)],
                                                [(h.complex, q) for h in pieces], p)), q
            nonzero += not phi.is_zero()
    assert nonzero


def assert_descended_rank_is_the_rank_of_the_descended_map(diagram) -> int:
    """Check every level and q in {0, 1, 2}; return the sum of the ranks."""
    total = 0
    for level in range(1, diagram.n_pieces):
        for q in (0, 1, 2):
            rank = descended_rank(diagram, level, q)
            assert rank == descended_delta_tilde(diagram, level, q).rank(), (level, q)
            total += rank
    return total


@pytest.mark.parametrize("p", (2, 3, 5))
def test_descended_rank_is_the_rank_of_the_descended_map_on_the_gallery(p):
    ranks = [assert_descended_rank_is_the_rank_of_the_descended_map(diagram_for(name, field=p, **kwargs))
             for name, kwargs in GALLERY_CASES]
    assert any(ranks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from((2, 3, 5)), n=st.integers(2, 5))
def test_descended_rank_is_the_rank_of_the_descended_map_on_random_diagrams(seed, p, n):
    diagram = canonicalize(parse_document(random_admissible(seed, field=p, n_pieces=n)).system)
    assert_descended_rank_is_the_rank_of_the_descended_map(diagram)


def test_assemble_les_bug_eyed(bug_eyed, necklace, monkeypatch):
    les = assemble_les(bug_eyed, 1)
    assert les.union_dims == (1, 2)
    assert les.all_ok
    coker0 = les.intersection_dims[0] - les.alpha_ranks[0]
    piece_h1 = sum(v[1] for v in les.piece_dims.values())
    ker_alpha1 = piece_h1 - les.alpha_ranks[1]
    assert (coker0, ker_alpha1) == (0, 2)

    # bug_eyed's delta_0 is 0, so a rank-1 one would change ranks.  Two circles
    # meeting in two points have a rank-1 delta_0 = u w into H^1 (dim 3).  Put
    # its image outside ker phi_1 = span(u) with the same kernel: every position
    # keeps its ranks, and only the composition phi_1 delta_0 != 0 shows it.
    ring = glued_from_nerves(necklace(2, True), F2)
    real = mv.connecting_homomorphism
    delta0 = dense(real(ring, 0))
    assert delta0.shape == (3, 2) and real(ring, 0).rank() == 1
    u, w = delta0[:, delta0.any(axis=0)][:, 0], delta0[delta0.any(axis=1)][0]
    v = next(e for e in np.eye(3, dtype=np.int64) if (e != u).any())
    before = assemble_les(ring, 1)
    assert before.all_ok

    def moved(diagram, degree):
        m = real(diagram, degree)
        return FMatrix(np.outer(v, w), F2) if degree == 0 else m

    monkeypatch.setattr(mv, "connecting_homomorphism", moved)
    after = assemble_les(ring, 1)
    assert after.positions == before.positions and after.identity_ok == before.identity_ok
    assert all(p.exact for p in after.positions) and not after.all_ok


def test_assemble_les_branching(branching):
    les = assemble_les(branching, 1)
    assert les.union_dims == (1, 0)
    assert les.all_ok
    assert les.delta_star_ranks[0] == 0  # alpha_0 surjective


def test_fibred_product_matches_union(gallery_diagram):
    d = gallery_diagram
    for q in range(min(2, max(d.nerve.dim, 0)) + 1):
        fp = fibred_product(d, q)
        union_dim = len(d.nerve.simplices_of_dim(q))
        assert fp.dimension == union_dim
        assert fp.dimension == phi_star(d, q).rank()


def test_fibred_product_two_origin_q0(two_origin):
    assert fibred_product(two_origin, 0).dimension == 4


def test_mediate_restrictions_give_phi_star(two_origin):
    fp = fibred_product(two_origin, 0)
    rhos = {pid: restriction_matrix(two_origin.nerve, two_origin.nerves[pid], 0,
                                 two_origin.field)
            for pid in two_origin.piece_ids}
    mediated = fp.mediate(rhos)
    assert mediated.equals(phi_star(two_origin, 0))


def test_mediate_rejects_incompatible_family(two_origin):
    fp = fibred_product(two_origin, 0)
    rhos = {pid: restriction_matrix(two_origin.nerve, two_origin.nerves[pid], 0,
                                 two_origin.field)
            for pid in two_origin.piece_ids}
    bad = dense(rhos["p2"])
    bad[0, :] = (bad[0, :] + 1) % 2  # perturb the value over the shared label l
    rhos["p2"] = FMatrix(bad, two_origin.field)
    with pytest.raises(IncompatibleFamily):
        fp.mediate(rhos)


def test_inductive_fibred_product_three_circles(three_circles):
    for q in (0, 1):
        fp = fibred_product(three_circles, q)
        dim, basis = inductive_fibred_dim(three_circles, q)
        assert dim == fp.dimension
        joint = matrix(np.hstack([dense(fp.basis), dense(basis)]), three_circles.field)
        assert joint.rank() == fp.dimension
        # a different adjoining order gives the same product: renamed, p3 is adjoined first
        order = ("p3", "p1", "p2")
        renamed = glued_from_nerves({f"p{k:02d}": three_circles.nerves[i] for k, i in enumerate(order)},
                                    three_circles.field)
        dim_rev, _ = inductive_fibred_dim(renamed, q)
        assert dim_rev == fp.dimension


def test_inductive_fibred_product_makes_one_update_product_per_adjoined_piece(necklace_document, monkeypatch):
    diagram = canonicalize(parse_document(necklace_document(12, True)).system)
    calls = []
    real = FMatrix.__matmul__

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    restrictions, real_restriction = [], cochains._restriction
    monkeypatch.setattr(FMatrix, "__matmul__", counted)
    monkeypatch.setattr(cochains, "_restriction", lambda *args: restrictions.append(args) or real_restriction(*args))
    for q in (0, 1):
        calls.clear()
        dim, basis = inductive_fibred_dim(diagram, q)
        # one row gather from the stacked basis per adjoined piece that shares
        # a q-simplex with the absorbed ones, and no restriction product: the
        # circles of a ring of 12 share vertices, so 11 gathers at q = 0 and none
        # at q = 1, where a restriction product per overlap and an update per
        # step took 12 + 11 in each degree
        assert len(calls) == (11, 0)[q], q
        assert restrictions == [], q
        # the flat product's own check, delta_tilde . phi_star = 0, is not counted
        assert dim == fibred_product(diagram, q).dimension == basis.cols


def test_total_cohomology_single_piece():
    d = single_circle_diagram()
    report = total_cohomology(d, 1)
    assert report.total_dims == (1, 1)
    assert report.matches


def test_total_cohomology_gallery(gallery_diagram):
    q_top = max(gallery_diagram.nerve.dim, 0)
    report = total_cohomology(gallery_diagram, q_top)
    assert report.d_square_zero
    assert report.matches, report


def test_total_cohomology_three_circles_k1(three_circles):
    report = total_cohomology(three_circles, 1)
    assert report.total_dims[1] == 3


def test_h1_fibred_branching_and_bug_eyed(branching, bug_eyed):
    v = h1_fibred_check(branching)
    assert v.hypothesis_holds and v.equal and (v.h1_union, v.fibred_dim) == (0, 0)
    v = h1_fibred_check(bug_eyed)
    assert v.hypothesis_holds and v.equal and (v.h1_union, v.fibred_dim) == (2, 2)


def test_h1_fibred_two_origin_reports_mismatch(two_origin):
    v = h1_fibred_check(two_origin)
    assert not v.hypothesis_holds
    assert v.disconnected == (("p1", "p2"),)
    assert v.h1_union == 1 and v.fibred_dim == 0
    assert not v.equal
    assert v.theorem_instance_ok  # hypothesis fails, nothing asserted


def test_count_three_circles(three_circles):
    report = count_line_bundles(three_circles)
    assert report.connected_hypothesis and report.surjective_hypothesis
    assert report.exponent == 3
    assert report.dimension_form_count == 8
    assert report.ground_truth == 8
    assert report.literal_form_count == 4
    assert report.dimension_form_matches
    assert not report.literal_form_matches


def test_count_branching(branching):
    report = count_line_bundles(branching)
    assert report.dimension_form_count == 1 == report.ground_truth
    assert report.literal_form_matches


def test_count_single_circle():
    report = count_line_bundles(single_circle_diagram())
    assert report.exponent == 1
    assert report.dimension_form_count == 2 == report.ground_truth


def every_index_set_sum(diagram):
    """(h1_dims, connectivity, disconnected, exponent, literal) from every index set's plain set intersection."""
    h1_dims, connectivity = {}, {}
    exponent = literal = 0
    for size in range(1, diagram.n_pieces + 1):
        sign = 1 if size % 2 else -1
        for t in itertools.combinations(diagram.piece_ids, size):
            nerve = SimplicialComplex(frozenset.intersection(*(diagram.nerves[i].simplices for i in t)))
            connectivity[t] = len(components(nerve))
            h1_dims[t] = h = cohomology(nerve, 1, diagram.field).dimension
            exponent += sign * h
            literal += sign * 2 ** h
    return h1_dims, connectivity, tuple(sorted(t for t, c in connectivity.items() if c != 1)), exponent, literal


@pytest.mark.parametrize("make", [
    lambda necklace: glued_from_nerves(necklace(7, True)),
    lambda necklace: glued_from_nerves(necklace(6, False, ids=["b", "a!", "a", "c", "z", "a0"])),
    lambda necklace: glued_from_nerves({"a": build_complex([["x", "y"], ["y", "z"], ["x", "z"]]),
                                        "b": SimplicialComplex(frozenset()), "c": build_complex([["x"], ["z"]])}),
    lambda necklace: diagram_for("random_admissible", n=3, seed=11),
], ids=["ring7", "chain6_renamed", "empty_piece", "random11"])
def test_count_and_connectivity_take_empty_index_sets_in_closed_form(necklace, make):
    diagram = make(necklace)
    h1_dims, connectivity, disconnected, exponent, literal = every_index_set_sum(diagram)
    count, h1 = count_line_bundles(diagram), h1_fibred_check(diagram)
    assert list(count.h1_dims.items()) == list(h1_dims.items())
    assert list(h1.connectivity.items()) == list(connectivity.items())
    assert count.disconnected == h1.disconnected == disconnected
    assert (count.exponent, count.literal_form_count) == (exponent, literal)


def test_count_requires_f2():
    with pytest.raises(WrongField):
        count_line_bundles(single_circle_diagram(p=3))


def test_collapse_invariance_of_cohomology(three_circles):
    field = three_circles.field
    base = [cohomology(three_circles.nerve, q, field).dimension for q in (0, 1)]
    merged = collapse(three_circles, ("p2", "p3"))
    after = [cohomology(merged.nerve, q, field).dimension for q in (0, 1)]
    assert base == after
    les = assemble_les(merged, 1)
    assert les.all_ok
    assert list(les.union_dims) == base


def test_exactness_on_odd_prime_field():
    doc = gallery_document("three_circles", field=5)
    d = canonicalize(parse_document(doc).system)
    for q in (0, 1):
        assert verify_exact_sequence(d, q).exact
    assert total_cohomology(d, 1).matches


def test_sphere_from_two_cones():
    # two cones over a common circle glue to a sphere: the top connecting
    # homomorphism carries the circle's H^1 onto H^2 of the union
    from cechkit.diagrams import shared_label_system
    p1 = build_complex([["a", "b", "u1"], ["b", "c", "u1"], ["a", "c", "u1"]])
    p2 = build_complex([["a", "b", "u2"], ["b", "c", "u2"], ["a", "c", "u2"]])
    d = canonicalize(shared_label_system({"p1": p1, "p2": p2}))
    dims = [cohomology(d.nerve, q, d.field).dimension for q in (0, 1, 2)]
    assert dims == [1, 0, 1]
    assert all(verify_exact_sequence(d, q).exact for q in (0, 1, 2))
    les = assemble_les(d, 2)
    assert les.all_ok
    assert les.delta_star_ranks == (0, 1, 0)
    assert connecting_homomorphism(d, 1).rank() == 1
    report = total_cohomology(d, 2)
    assert report.matches and report.total_dims == (1, 0, 1)


def test_empty_intersection_blocks_are_fine():
    # two pieces sharing nothing: a disjoint union; N_12 is empty
    d = glued_from_nerves({"p1": build_complex([["a", "b"]]),
                           "p2": build_complex([["c", "d"]])}, F2)
    assert d.intersection_nerve(("p1", "p2")).simplices == frozenset()
    for q in (0, 1):
        assert verify_exact_sequence(d, q).exact
    assert cohomology(d.nerve, 0, F2).dimension == 2
    les = assemble_les(d, 1)
    assert les.all_ok


def test_tuple_space_has_no_empty_block(necklace):
    d = glued_from_nerves(necklace(6, True), F2)
    for level in range(1, d.n_pieces + 1):
        nerves = d.level(level)
        for q in (0, 1, 2):
            assert list(nerves) == [t for t in d.index_subsets(level) if d.intersection_nerve(t).simplices]
            assert all(nerve.simplices for nerve in nerves.values())
            # the map into the level has one row per q-simplex of every intersection, empty ones included
            into = phi_star(d, q) if level == 1 else delta_tilde(d, level - 1, q)
            assert into.rows == sum(len(d.intersection_nerve(t).simplices_of_dim(q))
                                    for t in d.index_subsets(level))


def test_count_and_mv_eliminate_once_per_complex_and_skip_empty_prefixes(necklace_document,
                                                                         tmp_path, monkeypatch):
    eliminated = Counter()  # (complex id, q, p) -> eliminations of that complex's d^q
    owner = {}  # id of each d^q -> (complex id, q, p)
    alive = []  # complexes and coboundaries stay referenced, so no id is reused by a later one
    real_coboundary, real_echelon = cochains._coboundary, fplinalg.echelon

    def building(k, q, field):
        d = real_coboundary(k, q, field)
        owner[id(d)] = (id(k), q, field.p)
        alive.append((k, d))
        return d

    def eliminating(a):
        if id(a) in owner:
            eliminated[owner[id(a)]] += 1
        return real_echelon(a)

    cut = []

    def recording(k, l):
        cut.append(k)
        return intersect(k, l)

    monkeypatch.setattr(cochains, "_coboundary", building)
    patch_bindings(monkeypatch, fplinalg, "echelon", eliminating)
    monkeypatch.setattr(diagrams, "intersect", recording)
    work = count_basis_work(monkeypatch)
    path = tmp_path / "ring8.json"
    path.write_text(canonical_json(necklace_document(8, True)), encoding="utf-8")
    count_report, count_code = run_command("count", {"path": path})
    mv_report, mv_code = run_command("mv", {"path": path})
    assert (count_code, mv_code) == (0, 0)
    assert count_report["ground_truth"] == 2 ** 9
    assert len(count_report["h1_dims"]) == 2 ** 8 - 1
    # every H^1 dimension and descended rank reads d^0 and d^1, each eliminated once per complex
    assert {q for _, q, _ in eliminated} == {0, 1} and set(eliminated.values()) == {1}
    # ranks alone: no class reader is built and no class is read
    assert work["H"] == 0 and work["read"] == 0
    assert cut and all(k.simplices for k in cut)


def test_each_complex_builds_its_simplex_index_at_most_once(necklace_document, tmp_path, monkeypatch):
    returned = {}  # (complex id, q) -> ids of the index dicts handed out
    alive = []  # complexes and indexes stay referenced, so no id is reused by a later one
    real = SimplicialComplex.index_of_dim

    def recording(k, q):
        index = real(k, q)
        alive.append((k, index))
        returned.setdefault((id(k), q), set()).add(id(index))
        return index

    monkeypatch.setattr(SimplicialComplex, "index_of_dim", recording)
    ring = tmp_path / "ring8.json"
    ring.write_text(canonical_json(necklace_document(8, True)), encoding="utf-8")
    bug_eyed = tmp_path / "bug_eyed.json"
    bug_eyed.write_text(canonical_json(gallery_document("bug_eyed_circle")), encoding="utf-8")
    for command, path in (("mv", ring), ("fibred", ring), ("refine-check", bug_eyed)):
        assert run_command(command, {"path": path})[1] == 0, command
    assert returned and all(len(ids) == 1 for ids in returned.values())


COMMAND_DOCUMENTS = (
    ("two_origin_line", {}), ("branching_line_n", {"n": 3}), ("bug_eyed_circle", {}), ("three_circles", {}),
    # six pieces on one shared core: every intersection is the core, by value
    ("random_admissible", {"seed": 3, "n": 6}))


def file_commands(doc):
    return ["cohomology", "mv", "fibred", "count", "collapse-check"] + (
        ["refine-check"] if "refinement" in doc else [])


@pytest.mark.parametrize("name, kwargs", COMMAND_DOCUMENTS)
def test_every_command_builds_each_coboundary_and_difference_map_once(name, kwargs, tmp_path, monkeypatch):
    built = Counter()
    alive = []  # keep every complex and diagram referenced, so no id is reused
    scope = {"by_object": False}

    def obj(x):
        alive.append(x)
        return id(x)

    def value(k):
        # collapse-check makes a new diagram per step, and a diagram is the
        # scope its nerves are interned in, so there each object counts
        return obj(k) if scope["by_object"] else k.simplices

    def counting(kind, real, key):
        def wrapper(*args):
            built[(kind, *key(*args))] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(cochains, "_coboundary", counting(
        "d", cochains._coboundary, lambda k, q, field: (value(k), q, field.p)))
    monkeypatch.setattr(cochains, "_class_reader", counting(
        "H", cochains._class_reader, lambda k, q, field: (value(k), q, field.p)))
    monkeypatch.setattr(cochains, "_restriction", counting(
        "r", cochains._restriction, lambda k, l, q, field: (value(k), l.simplices, q, field.p)))
    monkeypatch.setattr(mv, "_phi_star", counting(
        "phi_star", mv._phi_star, lambda d, q: (value(d.nerve), q, d.field.p)))
    monkeypatch.setattr(mv, "_delta_tilde", counting(
        "delta_tilde", mv._delta_tilde, lambda d, level, q: (obj(d), level, q)))
    doc = gallery_document(name, **kwargs)
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    # count descends H^1 only between levels that both have classes
    diagram = canonicalize(parse_document(doc).system)
    has_h1 = [any(cohomology(k, 1, diagram.field).dimension for k in diagram.level(size).values())
              for size in range(1, diagram.n_pieces + 1)]
    descended = {(level, 1) for level in range(1, diagram.n_pieces) if has_h1[level - 1] and has_h1[level]}
    for command in file_commands(doc):
        built.clear()
        scope["by_object"] = command == "collapse-check"
        _, code = run_command(command, {"path": path})
        assert code in (0, 1)
        assert built and set(built.values()) == {1}, (command, [k for k, v in built.items() if v > 1])
        if command in ("mv", "refine-check"):
            assert any(key[0] == "delta_tilde" for key in built)
        if command in ("mv", "fibred"):
            assert any(key[0] == "phi_star" for key in built)
        if command == "count":
            # the difference maps it reads are block pullbacks, built through no restriction matrix
            assert {key[2:] for key in built if key[0] == "delta_tilde"} == descended
            assert not any(key[0] == "r" for key in built)


@pytest.mark.parametrize("p", (2, 3))
def test_phi_star_and_delta_tilde_build_no_restriction_matrix(p, monkeypatch):
    def refuse(*args):
        raise AssertionError("a restriction matrix was built")

    monkeypatch.setattr(cochains, "_restriction", refuse)
    diagram = canonicalize(parse_document(gallery_document("three_circles", field=p)).system)
    for q in range(diagram.nerve.dim + 2):
        assert phi_star(diagram, q).rank() == len(diagram.nerve.simplices_of_dim(q))
        for level in range(1, diagram.n_pieces):
            assert (delta_tilde(diagram, level, q) @ (phi_star(diagram, q) if level == 1
                                                       else delta_tilde(diagram, level - 1, q))).is_zero()


def test_descended_maps_take_no_elimination(count_eliminations, monkeypatch):
    # fresh diagrams, so every class reader of theirs is built here
    three_circles, two_origin = diagram_for("three_circles"), diagram_for("two_origin_line")
    calls = count_eliminations()
    readers, alive = Counter(), []
    real = cochains._class_reader

    def reading(k, q, field):
        alive.append(k)
        readers[id(k), q, field.p] += 1
        return real(k, q, field)

    monkeypatch.setattr(cochains, "_class_reader", reading)
    read = 0
    for level in (1, 2):
        for q in (0, 1):
            # representatives and difference maps first, so only the descent's work is counted
            delta_tilde(three_circles, level, q)
            src = [cohomology(k, q, three_circles.field) for k in three_circles.level(level).values()]
            blocks = [cohomology(k, q, three_circles.field) for k in three_circles.level(level + 1).values()]
            for coh in src + blocks:
                assert coh.representatives.cols == coh.dimension
            calls.clear()
            descended = descended_delta_tilde(three_circles, level, q)
            assert calls == [] and descended.shape == (sum(h.dimension for h in blocks), sum(h.dimension for h in src))
            read += descended.cols * descended.rows
    assert read
    assert cohomology(two_origin.nerve, 1, two_origin.field).representatives.cols == 1
    intersection = two_origin.intersection_nerve(two_origin.piece_ids)
    assert cohomology(intersection, 0, two_origin.field).representatives.cols == 2
    calls.clear()
    delta = connecting_homomorphism(two_origin, 0)
    assert delta.cols >= 2 and calls == []
    # one reader per complex, degree and field
    assert readers and set(readers.values()) == {1}


def count_basis_work(monkeypatch) -> Counter:
    """Count kernel bases, class readers and class reads (remainders) from here on."""
    work = Counter()

    def counting(kind, real):
        def wrapper(*args):
            work[kind] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(fplinalg.FMatrix, "kernel_basis", counting("kernel_basis", fplinalg.FMatrix.kernel_basis))
    monkeypatch.setattr(fplinalg.Echelon, "remainder", counting("read", fplinalg.Echelon.remainder))
    monkeypatch.setattr(cochains, "_class_reader", counting("H", cochains._class_reader))
    return work


def test_class_paths_build_no_kernel_basis(tmp_path, monkeypatch, bench_docs):
    # The classes that refine-check's induced maps and mv's long exact
    # sequence read come from class readers, descended_rank (count, mv's H^1
    # check) reads representatives, the flat fibred product is checked by
    # ranks and one product, and the inductive one gathers rows: no file
    # command builds a kernel basis on the benchmark's strips.
    kernels = []
    real_kernel = FMatrix.kernel_basis

    def kernel(m):
        kernels.append(m.shape)
        return real_kernel(m)

    monkeypatch.setattr(FMatrix, "kernel_basis", kernel)
    path = tmp_path / "strip.json"
    path.write_text(canonical_json(bench_docs.strip(8, 3, 3).body), encoding="utf-8")
    report, code = run_command("refine-check", {"path": path})
    assert code == 0 and report["induced_cohomology"]["H^1"]["rank"] == 1
    assert kernels == []
    path.write_text(canonical_json(bench_docs.strip(8, 3, 2).body), encoding="utf-8")
    report, code = run_command("mv", {"path": path})
    assert code == 0 and report["verdicts"]["les_exact"]
    for command in ("cohomology", "fibred", "bundles", "count", "collapse-check"):
        assert run_command(command, {"path": path})[1] == 0, command
    assert kernels == []


@pytest.mark.parametrize("name, kwargs", COMMAND_DOCUMENTS)
def test_cohomology_command_reads_dimensions_from_ranks_alone(name, kwargs, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(gallery_document(name, **kwargs)), encoding="utf-8")
    work = count_basis_work(monkeypatch)
    report, code = run_command("cohomology", {"path": path})
    assert code == 0 and report["union_dims"][0] >= 1
    assert work == Counter()


# two-piece documents have no collapse step
@pytest.mark.parametrize("name, kwargs", [doc for doc in COMMAND_DOCUMENTS
                                          if doc[0] not in ("two_origin_line", "bug_eyed_circle")])
def test_collapse_check_step_dims_build_no_basis(name, kwargs, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(gallery_document(name, **kwargs)), encoding="utf-8")
    work = count_basis_work(monkeypatch)
    before_les = []
    real = cli.assemble_les

    def snapshot(diagram, q_max):
        before_les.append(Counter(work))
        return real(diagram, q_max)

    monkeypatch.setattr(cli, "assemble_les", snapshot)
    report, code = run_command("collapse-check", {"path": path})
    assert code in (0, 1) and report["steps"] and all(step["dims"] for step in report["steps"])
    # the baseline and every step read dimensions only; the final binary
    # long exact sequence reads representatives and classes from class
    # readers, and builds no kernel basis
    assert before_les == [Counter()] and work["H"] > 0 and work["kernel_basis"] == 0


@pytest.mark.parametrize("name, kwargs", COMMAND_DOCUMENTS)
def test_every_command_eliminates_each_coboundary_at_most_once(name, kwargs, tmp_path, monkeypatch):
    built = []  # every d^q of the job; kept referenced, so no id is reused
    eliminated = Counter()
    alive = []
    real_coboundary, real_echelon = cochains._coboundary, fplinalg.echelon

    def building(k, q, field):
        built.append(real_coboundary(k, q, field))
        return built[-1]

    def eliminating(a):
        eliminated[id(a)] += 1
        alive.append(a)
        return real_echelon(a)

    monkeypatch.setattr(cochains, "_coboundary", building)
    patch_bindings(monkeypatch, fplinalg, "echelon", eliminating)
    doc = gallery_document(name, **kwargs)
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    for command in file_commands(doc):
        built.clear()
        eliminated.clear()
        _, code = run_command(command, {"path": path})
        assert code in (0, 1)
        counts = [eliminated[id(d)] for d in built]
        assert max(counts, default=0) <= 1, (command, counts)
        if command in ("cohomology", "collapse-check", "mv", "count"):
            assert max(counts) == 1, command
