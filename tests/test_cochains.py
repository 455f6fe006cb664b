import gc
import itertools
import weakref

import numpy as np
import pytest
from conftest import GALLERY_CASES, diagram_for
from dense import dense, matrix, vector
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import cochains
from cechkit.cochains import (
    NotSimplicial,
    NotSubcomplex,
    class_coordinates,
    coboundary_matrix,
    cohomology,
    induced_on_cohomology,
    pullback_map,
    restriction_matrix,
)
from cechkit.complexes import EMPTY_COMPLEX, build_complex, components
from cechkit.diagrams import canonicalize
from cechkit.documents import parse_document
from cechkit.fplinalg import F2, MAX_PRIME, FMatrix, PrimeField, block_matrix
from cechkit.gallery import random_admissible
from cechkit.mv import delta_tilde, phi_star


def cycle4():
    return build_complex([["l", "o1"], ["o1", "r"], ["l", "o2"], ["o2", "r"]])


def theta():
    return build_complex([["a", "b"], ["a", "c1"], ["b", "c1"], ["a", "c2"], ["b", "c2"]])


def cochain(k, q, field, values):
    """The vector of the q-cochain {simplex: value} on k, indexed by k.index_of_dim(q)."""
    index = k.index_of_dim(q)
    vec = np.zeros(len(index), dtype=np.int64)
    for simplex, value in values.items():
        vec[index[simplex]] = value
    return vec % field.p


def brute_h1_dim_f2(k):
    """H^1 over F_2 by enumerating all cochains: cocycles / coboundaries."""
    edges = k.simplices_of_dim(1)
    tris = k.simplices_of_dim(2)
    verts = k.vertices
    cocycles = set()
    for vec in itertools.product((0, 1), repeat=len(edges)):
        table = dict(zip(edges, vec))
        if all((table[(a, b)] + table[(b, c)] + table[(a, c)]) % 2 == 0
               for a, b, c in tris):
            cocycles.add(vec)
    coboundaries = set()
    for kv in itertools.product((0, 1), repeat=len(verts)):
        kt = dict(zip(verts, kv))
        coboundaries.add(tuple((kt[b] - kt[a]) % 2 for a, b in edges))
    quotient = len(cocycles) // len(coboundaries)
    return quotient.bit_length() - 1


def test_differential_single_edge_signs():
    k = build_complex([["a", "b"]])
    field = PrimeField(5)
    df = (coboundary_matrix(k, 0, field) @ vector(cochain(k, 0, field, {("a",): 2, ("b",): 3}), field)).column(0)
    assert df[k.index_of_dim(1)[("a", "b")]] == (3 - 2) % 5


def test_differential_triangle_signs():
    # (df)(abc) = f(bc) - f(ac) + f(ab): face i of abc drops vertex i and carries (-1)^i
    k = build_complex([["a", "b", "c"]])
    field = PrimeField(7)
    f = cochain(k, 1, field, {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 4})
    assert (coboundary_matrix(k, 1, field) @ vector(f, field)).column(0) == [(4 - 2 + 1) % 7]


def test_differential_squares_to_zero_triangle():
    k = build_complex([["a", "b", "c"]])
    for p in (2, 3, 7):
        field = PrimeField(p)
        assert (coboundary_matrix(k, 1, field) @ coboundary_matrix(k, 0, field)).is_zero()


def test_differential_squares_to_zero_everywhere():
    k = build_complex([["a", "b", "c"], ["b", "c", "d"], ["d", "e"], ["a", "e"]])
    field = PrimeField(3)
    for q in range(k.dim + 1):
        assert (coboundary_matrix(k, q + 1, field) @ coboundary_matrix(k, q, field)).is_zero()


def test_cycle4_rank_and_h1():
    assert coboundary_matrix(cycle4(), 0, F2).rank() == 3
    # no 2-simplices: every 1-cochain is a cocycle
    assert coboundary_matrix(cycle4(), 1, F2).rank_nullity()[1] == 4
    assert cohomology(cycle4(), 1, F2).dimension == 1
    assert brute_h1_dim_f2(cycle4()) == 1


def test_cycle4_cocycles_over_coboundaries_by_ranks():
    k = cycle4()
    coh = cohomology(k, 1, F2)
    cocycles, coboundaries = coboundary_matrix(k, 1, F2).kernel_basis(), coboundary_matrix(k, 0, F2)
    assert cocycles.cols == 4 and coboundaries.rank() == 3
    # the coboundaries and the one representative together span the cocycles
    assert (coboundary_matrix(k, 1, F2) @ coh.representatives).is_zero()
    joint = matrix(np.hstack([dense(coboundaries), dense(coh.representatives)]), F2)
    assert coh.representatives.cols == 1 and joint.rank() == cocycles.rank() == 4


def test_cohomology_point_and_theta():
    point = build_complex([["x"]])
    assert cohomology(point, 0, F2).dimension == 1
    assert cohomology(theta(), 0, F2).dimension == 1
    assert cohomology(theta(), 1, F2).dimension == 2
    assert brute_h1_dim_f2(theta()) == 2


def test_h0_matches_components(gallery_diagram):
    d = gallery_diagram
    for t_size in range(1, d.n_pieces + 1):
        for t in d.index_subsets(t_size):
            nerve = d.intersection_nerve(t)
            assert cohomology(nerve, 0, d.field).dimension == len(components(nerve))
    assert cohomology(d.nerve, 0, d.field).dimension == len(components(d.nerve))


def test_restrict_identity_and_empty():
    k = cycle4()
    f = cochain(k, 1, F2, {("l", "o1"): 1})
    assert np.array_equal((restriction_matrix(k, k, 1, F2) @ vector(f, F2)).column(0), f)
    empty = restriction_matrix(k, EMPTY_COMPLEX, 1, F2)
    assert (empty.rows, empty.cols) == (0, 4) and dense(empty @ vector(f, F2))[:, 0].shape == (0,)


def test_restrict_to_piece_path():
    k = cycle4()
    path = build_complex([["l", "o1"], ["o1", "r"]])
    index, sub = k.index_of_dim(1), path.index_of_dim(1)
    res = restriction_matrix(k, path, 1, F2)
    g = (res @ vector(cochain(k, 1, F2, {("l", "o1"): 1, ("o2", "r"): 1}), F2)).column(0)
    assert g[sub[("l", "o1")]] == 1 and g[sub[("o1", "r")]] == 0
    # each row picks its own simplex out of the big complex's simplices
    for simplex, row in sub.items():
        assert res.tolist()[row] == [int(col == index[simplex]) for col in range(len(index))]


def test_restrict_requires_subcomplex():
    with pytest.raises(NotSubcomplex):
        restriction_matrix(cycle4(), build_complex([["x", "y"]]), 1, F2)
    # phi* and delta~ stream these entries without the whole-complex check:
    # a q-simplex the source lacks is still NotSubcomplex, never a KeyError
    with pytest.raises(NotSubcomplex, match=r"\('x', 'y'\)"):
        list(cochains._restriction_entries(cycle4(), build_complex([["x", "y"]]), 1))


def test_restriction_is_memoised_by_target_value_and_still_checks_each_new_pair(monkeypatch):
    built = []
    real = cochains._restriction

    def counting(k, l, q, field):
        built.append((q, field.p))
        return real(k, l, q, field)

    monkeypatch.setattr(cochains, "_restriction", counting)
    k, path = cycle4(), build_complex([["l", "o1"], ["o1", "r"]])
    first = restriction_matrix(k, path, 1, F2)
    restriction_matrix(k, path, 0, F2)
    restriction_matrix(path, path, 1, F2)
    # an equal target object hits the memo kept on k
    again = restriction_matrix(k, build_complex([["l", "o1"], ["o1", "r"]]), 1, F2)
    assert again is first and built == [(1, 2), (0, 2), (1, 2)]
    # every other pair of the same complexes is a miss, and checked
    with pytest.raises(NotSubcomplex):
        restriction_matrix(path, k, 1, F2)
    with pytest.raises(NotSubcomplex):
        restriction_matrix(path, k, 0, F2)
    with pytest.raises(NotSubcomplex):
        restriction_matrix(k, build_complex([["l", "r"]]), 1, F2)
    assert restriction_matrix(k, path, 1, PrimeField(3)) is not first


def test_extend_by_zero_is_the_transpose_of_restriction():
    k = cycle4()
    sub = build_complex([["l"], ["r"]])
    dim, sub_dim = len(k.index_of_dim(0)), len(sub.index_of_dim(0))
    restrict = restriction_matrix(k, sub, 0, F2)
    f = cochain(sub, 0, F2, {("l",): 1})
    big = (restrict.T @ vector(f, F2)).column(0)
    assert np.array_equal(big, cochain(k, 0, F2, {("l",): 1, ("r",): 0, ("o1",): 0, ("o2",): 0}))
    assert np.array_equal((restrict @ vector(big, F2)).column(0), f)
    assert (restrict @ restrict.T).equals(FMatrix.identity(sub_dim, F2))
    assert not any((restrict.T @ vector(np.zeros(sub_dim, dtype=np.int64), F2)).column(0))
    assert restriction_matrix(k, k, 0, F2).T.equals(FMatrix.identity(dim, F2))


def test_restriction_is_chain_map(gallery_diagram):
    d = gallery_diagram
    for pid in d.piece_ids:
        for q in range(max(d.nerve.dim, 0) + 1):
            res_q = restriction_matrix(d.nerve, d.nerves[pid], q, d.field)
            res_q1 = restriction_matrix(d.nerve, d.nerves[pid], q + 1, d.field)
            d_big = coboundary_matrix(d.nerve, q, d.field)
            d_small = coboundary_matrix(d.nerves[pid], q, d.field)
            assert (res_q1 @ d_big).equals(d_small @ res_q)


def test_pullback_identity():
    k = cycle4()
    ident = {v: v for v in k.vertices}
    assert pullback_map(ident, k, k, 1, F2).equals(FMatrix.identity(4, F2))


def test_pullback_degenerate_edge_collapse():
    k = build_complex([["a", "b"]])
    point = build_complex([["x"]])
    m = pullback_map({"a": "x", "b": "x"}, k, point, 0, F2)
    assert m.tolist() == [[1], [1]]
    # the point has no 1-simplices, so the degree-1 pullback has no columns
    m1 = pullback_map({"a": "x", "b": "x"}, k, point, 1, F2)
    assert m1.rows == 1 and m1.cols == 0


def test_pullback_commutes_with_differential():
    fine = build_complex([["a1", "a2"], ["a2", "b"], ["b", "c"], ["a1", "c"]])
    coarse = build_complex([["a", "b"], ["b", "c"], ["a", "c"]])
    g = {"a1": "a", "a2": "a", "b": "b", "c": "c"}
    for p in (2, 3):
        field = PrimeField(p)
        for q in (0, 1):
            lam_q = pullback_map(g, fine, coarse, q, field)
            lam_q1 = pullback_map(g, fine, coarse, q + 1, field)
            d_c = coboundary_matrix(coarse, q, field)
            d_f = coboundary_matrix(fine, q, field)
            assert (lam_q1 @ d_c).equals(d_f @ lam_q)


def test_pullback_requires_simplicial():
    k = build_complex([["a", "b"]])
    two_points = build_complex([["x"], ["y"]])
    with pytest.raises(NotSimplicial):
        pullback_map({"a": "x", "b": "y"}, k, two_points, 0, F2)


def test_quotient_map_on_h1_collapsing_both_origins_is_zero():
    # collapsing o1 and o2 to one vertex wraps the 4-cycle with degree zero
    k4 = cycle4()
    k3 = build_complex([["l", "o"], ["o", "r"], ["l", "r"]])
    g = {"l": "l", "o1": "o", "o2": "o", "r": "r"}
    chain = pullback_map(g, k4, k3, 1, F2)
    induced = induced_on_cohomology(chain, cohomology(k3, 1, F2), cohomology(k4, 1, F2))
    assert induced.rank() == 0


def test_quotient_map_on_h1_degree_one_variant_is_injective():
    k4 = cycle4()
    k3 = build_complex([["l", "o"], ["o", "r"], ["l", "r"]])
    g = {"l": "l", "o1": "o", "o2": "r", "r": "r"}
    chain = pullback_map(g, k4, k3, 1, F2)
    induced = induced_on_cohomology(chain, cohomology(k3, 1, F2), cohomology(k4, 1, F2))
    assert induced.rank() == 1


def test_class_coordinates_brute_force_cross_check():
    k = cycle4()
    coh = cohomology(k, 1, F2)
    d0 = coboundary_matrix(k, 0, F2)
    coboundaries = {tuple((d0 @ vector(v, F2)).column(0))
                    for v in itertools.product((0, 1), repeat=4)}
    for vec in itertools.product((0, 1), repeat=4):
        coords = class_coordinates(coh, vector(vec, F2))
        trivial = tuple(vec) in coboundaries
        assert (not dense(coords).any()) == trivial


def greedy_extend_basis(b: FMatrix, z: FMatrix) -> FMatrix:
    """Reference: the per-column greedy loop cohomology used to run.

    Extending the empty span of a matrix's rows greedily by its columns
    is what its pivot columns compute, so this one loop gives
    both the old coboundary basis and the old representatives.
    """
    picked: list[list[int]] = []
    current, columns = dense(b), dense(z)
    rank = b.rank()
    for j in range(z.cols):
        candidate = np.column_stack([current, columns[:, j]]) if current.size else columns[:, [j]]
        r = matrix(candidate, z.field).rank()
        if r > rank:
            picked.append(z.column(j))
            current = candidate
            rank = r
    return matrix(np.column_stack(picked) if picked else np.zeros((z.rows, 0), dtype=np.int64), z.field)


def assert_matches_greedy(k, field):
    for q in (0, 1, 2):
        coh = cohomology(k, q, field)
        dim = len(k.simplices_of_dim(q))
        if q == 0:
            b = FMatrix.zeros(dim, 0, field)
        else:
            b = greedy_extend_basis(FMatrix.zeros(dim, 0, field), coboundary_matrix(k, q - 1, field))
        reps = greedy_extend_basis(b, coboundary_matrix(k, q, field).kernel_basis())
        assert dense(coh.representatives).shape == dense(reps).shape, (k.vertices, q)
        assert np.array_equal(dense(coh.representatives), dense(reps)), (k.vertices, q)


def nerves_of(diagram):
    yield diagram.nerve
    for size in range(1, diagram.n_pieces + 1):
        for t in diagram.index_subsets(size):
            yield diagram.intersection_nerve(t)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_cohomology_bases_match_greedy_loop_on_gallery(gallery_diagram, p):
    for nerve in nerves_of(gallery_diagram):
        assert_matches_greedy(nerve, PrimeField(p))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from((2, 3, 5)))
def test_cohomology_bases_match_greedy_loop_on_random_nerves(seed, p):
    diagram = canonicalize(parse_document(random_admissible(seed)).system)
    for nerve in nerves_of(diagram):
        assert_matches_greedy(nerve, PrimeField(p))


def assert_dimension_from_ranks(k, field):
    for q in range(k.dim + 2):
        coh = cohomology(k, q, field)
        assert coh.dimension == coh.representatives.cols, (k.vertices, q, field.p)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_dimension_from_ranks_counts_the_representatives_on_gallery(gallery_diagram, p):
    for nerve in nerves_of(gallery_diagram):
        assert_dimension_from_ranks(nerve, PrimeField(p))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from((2, 3, 5)))
def test_dimension_from_ranks_counts_the_representatives_on_random_nerves(seed, p):
    diagram = canonicalize(parse_document(random_admissible(seed)).system)
    for nerve in nerves_of(diagram):
        assert_dimension_from_ranks(nerve, PrimeField(p))


def reference_cohomology_basis(k, q, field):
    """Reference: cocycles Z, coboundaries B, representatives R and [B | R] from one elimination of [d^(q-1) | Z].

    This is how the bases were computed before the class reader, and
    `reference_class_coordinates` how classes were solved on them.
    """
    z = coboundary_matrix(k, q, field).kernel_basis()
    d = coboundary_matrix(k, q - 1, field) if q else FMatrix.zeros(z.rows, 0, field)
    joint = block_matrix({0: z.rows}, {"B": d.cols, "Z": z.cols}, [(0, "B", d), (0, "Z", z)], field)
    adapted = joint[:, joint.pivots()]
    n = sum(c < d.cols for c in joint.pivots())
    return z, adapted[:, :n], adapted[:, n:], adapted


def reference_class_coordinates(basis, values):
    _, coboundaries, _, adapted = basis
    solution = adapted.solve(values)
    if solution is None:
        raise ValueError("vector is not a cocycle of this space")
    return solution[coboundaries.cols:]


@st.composite
def reader_cases(draw):
    """Complexes (a random one, the nerves of a gallery diagram, or the empty complex), a field and a generator."""
    field = PrimeField(draw(st.sampled_from((2, 3, 5, MAX_PRIME))))
    kind = draw(st.sampled_from(("random", "gallery", "empty")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        n = int(rng.integers(1, 7))
        generators = [sorted(f"v{i}" for i in rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False))
                      for _ in range(int(rng.integers(1, 8)))]
        complexes = [build_complex(generators)]
    elif kind == "gallery":
        name, kwargs = draw(st.sampled_from(GALLERY_CASES))
        complexes = list(nerves_of(diagram_for(name, **kwargs)))
    else:
        complexes = [EMPTY_COMPLEX]
    return complexes, field, rng


@settings(max_examples=80, deadline=None)
@given(reader_cases())
def test_class_reader_matches_the_adapted_basis_solve(case):
    complexes, field, rng = case
    for k in complexes:
        for q in range(max(k.dim, 0) + 2):
            coh = cohomology(k, q, field)
            basis = reference_cohomology_basis(k, q, field)
            z, reps = basis[0], basis[2]
            assert coh.representatives.shape == reps.shape and coh.representatives.tolist() == reps.tolist(), q
            # a batch of random cocycles, coboundaries among them when Z is small
            values = z @ matrix(rng.integers(0, field.p, size=(z.cols, int(rng.integers(0, 4)))), field)
            got, want = class_coordinates(coh, values), reference_class_coordinates(basis, values)
            assert got.shape == want.shape and got.tolist() == want.tolist(), q
            # a batch with one cochain that is not a cocycle
            d = coboundary_matrix(k, q, field)
            for j in [j for j in range(d.cols) if any(d.column(j))][:2]:
                unit = np.zeros((d.cols, 1), dtype=np.int64)
                unit[j] = 1
                bad = matrix(np.hstack([dense(values), unit]), field)
                for read in (class_coordinates, lambda coh, v: reference_class_coordinates(basis, v)):
                    with pytest.raises(ValueError):
                        read(coh, bad)


def test_cohomology_runs_two_eliminations(count_eliminations, count_backsubstitutions):
    # The dimension reads the ranks of d^q and d^(q-1) alone.  Where it is
    # not 0, the representatives take one more forward elimination, of the
    # n_(q-1) coboundaries on d^q's free columns, and one back-substitution
    # of d^q; read after the dimension, they reuse its eliminations.  A zero
    # H^q (theta's H^2) takes neither.  Class coordinates read the kept
    # echelon and eliminate nothing.
    calls, backsubs = count_eliminations(), count_backsubstitutions()
    field = PrimeField(3)
    for q in (0, 1, 2):
        k = theta()
        n = [len(k.simplices_of_dim(i)) for i in range(q - 1, q + 2)]
        d_q, d_in = (n[2], n[1]), (n[1], n[0])
        reader = (n[0] if q else 0, n[1] - coboundary_matrix(theta(), q, field).rank())
        calls.clear()
        backsubs.clear()
        coh = cohomology(k, q, field)
        assert calls == [] and backsubs == [], q
        dim = coh.dimension
        assert dim == (1, 2, 0)[q]
        assert calls == ([d_in] if q else []) + [d_q] and backsubs == [], (q, calls)
        calls.clear()
        assert coh.representatives.cols == dim
        assert backsubs == ([d_q] if dim else []) and calls == ([reader] if dim else []), (q, calls)
        calls.clear()
        backsubs.clear()
        assert class_coordinates(coh, coh.representatives).equals(FMatrix.identity(dim, field))
        assert calls == [] and backsubs == [], q
        fresh = theta()
        calls.clear()
        backsubs.clear()
        # read first, the representatives read the dimension, then build the reader if it is not 0
        assert cohomology(fresh, q, field).representatives.cols == dim
        assert backsubs == ([d_q] if dim else []), (q, backsubs)
        assert calls == ([d_in] if q else []) + [d_q] + ([reader] if dim else []), (q, calls)
        # every later read on either complex shares what is kept on it
        calls.clear()
        backsubs.clear()
        for again in (cohomology(k, q, field), cohomology(fresh, q, field)):
            assert again.dimension == again.representatives.cols == dim
            assert class_coordinates(again, again.representatives).equals(FMatrix.identity(dim, field))
        assert calls == [] and backsubs == [], (q, calls)


def test_induced_on_cohomology_runs_no_elimination_for_its_classes(count_eliminations, three_circles):
    nerve = three_circles.nerve
    coh = cohomology(nerve, 1, F2)
    piece = cohomology(three_circles.nerves[three_circles.piece_ids[0]], 1, F2)
    assert coh.dimension >= 2
    # representatives first, so only the descent's work is counted
    assert coh.representatives.cols == coh.dimension and piece.representatives.cols == piece.dimension
    calls = count_eliminations()
    assert induced_on_cohomology(restriction_matrix(nerve, nerve, 1, F2), coh, coh).equals(
        FMatrix.identity(coh.dimension, F2))
    assert calls == []
    induced = induced_on_cohomology(restriction_matrix(nerve, piece.complex, 1, F2), coh, piece)
    assert calls == []
    # the batched read equals one class_coordinates read per class
    image = restriction_matrix(nerve, piece.complex, 1, F2) @ coh.representatives
    for j in range(coh.dimension):
        assert induced.column(j) == class_coordinates(piece, image[:, [j]]).column(0)


def test_coboundary_is_built_once_per_complex_degree_and_field(monkeypatch):
    built = []
    real = cochains._coboundary

    def counting(k, q, field):
        built.append((q, field.p))
        return real(k, q, field)

    monkeypatch.setattr(cochains, "_coboundary", counting)
    k = theta()
    for q in (0, 1, 2):
        assert cohomology(k, q, F2).representatives.cols == cohomology(k, q, F2).dimension
    d1 = coboundary_matrix(k, 1, F2)
    assert sorted(built) == [(0, 2), (1, 2), (2, 2)]
    assert coboundary_matrix(k, 1, F2) is d1
    assert (d1.rows, d1.cols) == (len(k.simplices_of_dim(2)), len(k.simplices_of_dim(1)))
    coboundary_matrix(k, 1, PrimeField(3))
    assert built[-1] == (1, 3)


def test_cohomology_is_computed_once_and_shared_read_only(monkeypatch):
    calls = []
    real = cochains._class_reader

    def counting(k, q, field):
        calls.append((q, field.p))
        return real(k, q, field)

    monkeypatch.setattr(cochains, "_class_reader", counting)
    k = theta()
    coh = cohomology(k, 1, F2)
    again = cohomology(k, 1, F2)
    assert again == coh and again.complex is k
    assert again.representatives is coh.representatives
    assert cohomology(k, 1, PrimeField(3)).representatives is not coh.representatives
    assert cohomology(theta(), 1, F2).representatives is not coh.representatives
    assert calls == [(1, 2), (1, 3), (1, 2)]
    # class coordinates read what the first read kept
    assert class_coordinates(again, coh.representatives).equals(FMatrix.identity(2, F2))
    assert calls == [(1, 2), (1, 3), (1, 2)]
    reader = coh._reader
    for m in (coh.representatives, reader, reader.coboundaries):
        with pytest.raises(AttributeError):
            m.cols = 0
    assert cohomology(k, 1, F2).dimension == 2


def test_cached_bases_do_not_keep_their_complex_alive():
    # The memos must hold no reference back to their complex or diagram: a
    # cycle would keep every complex of a finished command until the cycle
    # collector runs.
    k, path = cycle4(), build_complex([["l", "o1"], ["o1", "r"]])
    cohomology(k, 1, F2)
    restriction_matrix(k, path, 1, F2)
    diagram = canonicalize(parse_document(random_admissible(3, n_pieces=4)).system)
    for q in (0, 1):
        phi_star(diagram, q)
        delta_tilde(diagram, 1, q)
        for t in diagram.level(2):
            cohomology(diagram.intersection_nerve(t), q, diagram.field)
    # the pieces share one core, so the intern table maps many index sets to one object
    assert len({id(diagram.intersection_nerve(t)) for t in diagram.level(2)}) == 1
    held = [k, path, diagram, diagram.nerve, *diagram.nerves.values(),
            *(diagram.intersection_nerve(t) for t in diagram.level(2))]
    alive = [weakref.ref(x) for x in held]
    gc.disable()
    try:
        del held[1], path
        # k's restriction memo is keyed by the target's simplices, not the target
        assert alive[1]() is None and alive[0]() is k
        del k, diagram, held
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
