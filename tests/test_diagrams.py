import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import diagrams
from cechkit.complexes import build_complex, components, intersect
from cechkit.diagrams import (
    AdjunctionSystem,
    BadIndexSet,
    EmptyIndexSet,
    GluingBijection,
    IncompatibleFamily,
    InvalidSystem,
    LocalPiece,
    NotSimplicial,
    canonicalize,
    collapse,
    glued_from_nerves,
    induced_map,
    shared_label_system,
    subsystem_embedding,
    validate_system,
)
from cechkit.documents import parse_document
from cechkit.errors import ResourceLimit
from cechkit.gallery import gallery_document, random_admissible


def two_origin_system():
    return parse_document(gallery_document("two_origin_line")).system


def test_gallery_systems_valid():
    for name, kwargs in [("two_origin_line", {}), ("bug_eyed_circle", {}),
                         ("three_circles", {}), ("branching_line_n", {"n": 4})]:
        system = parse_document(gallery_document(name, **kwargs)).system
        report = validate_system(system)
        assert report.valid, report.violations


def test_a1_violation():
    nerve = build_complex([["x", "y"]])
    system = AdjunctionSystem(
        (LocalPiece("p1", nerve),),
        (GluingBijection("p1", "p1", (("x", "y"), ("y", "x"))),))
    report = validate_system(system)
    assert not report.valid
    assert any(v.condition == "A1" for v in report.violations)


def test_a2_violation_names_label():
    p1 = LocalPiece("p1", build_complex([["x"], ["y"]]))
    p2 = LocalPiece("p2", build_complex([["u"], ["v"]]))
    system = AdjunctionSystem(
        (p1, p2),
        (GluingBijection("p1", "p2", (("x", "u"), ("y", "v"))),
         GluingBijection("p2", "p1", (("u", "y"), ("v", "x")))))
    report = validate_system(system)
    assert not report.valid
    offenders = [v for v in report.violations if v.condition == "A2"]
    assert offenders and offenders[0].witness


def test_a2_missing_reverse():
    p1 = LocalPiece("p1", build_complex([["x"]]))
    p2 = LocalPiece("p2", build_complex([["u"]]))
    system = AdjunctionSystem((p1, p2), (GluingBijection("p1", "p2", (("x", "u"),)),))
    report = validate_system(system)
    assert any(v.condition == "A2" for v in report.violations)


def test_a3_violation_three_pieces():
    p1 = LocalPiece("p1", build_complex([["x"]]))
    p2 = LocalPiece("p2", build_complex([["y"]]))
    p3 = LocalPiece("p3", build_complex([["w"], ["z"]]))
    system = AdjunctionSystem(
        (p1, p2, p3),
        (GluingBijection("p1", "p2", (("x", "y"),)),
         GluingBijection("p2", "p1", (("y", "x"),)),
         GluingBijection("p2", "p3", (("y", "z"),)),
         GluingBijection("p3", "p2", (("z", "y"),)),
         GluingBijection("p1", "p3", (("x", "w"),)),
         GluingBijection("p3", "p1", (("w", "x"),))))
    report = validate_system(system)
    assert not report.valid
    assert any(v.condition == "A3" and v.witness for v in report.violations)


def test_gluing_must_be_induced_isomorphism():
    # an edge on shared labels present in only one piece is rejected
    p1 = LocalPiece("p1", build_complex([["a", "b"]]))
    p2 = LocalPiece("p2", build_complex([["a"], ["b"]]))
    system = AdjunctionSystem(
        (p1, p2),
        (GluingBijection("p1", "p2", (("a", "a"), ("b", "b"))),
         GluingBijection("p2", "p1", (("a", "a"), ("b", "b")))))
    report = validate_system(system)
    assert any(v.condition == "SIMPLICIAL" for v in report.violations)
    with pytest.raises(InvalidSystem):
        canonicalize(system)


def test_canonicalize_two_origin():
    diagram = canonicalize(two_origin_system())
    assert diagram.nerve.vertices == ("l", "o1", "o2", "r")
    assert len(diagram.nerve.simplices_of_dim(1)) == 4
    assert diagram.intersection_nerve(("p1", "p2")).vertices == ("l", "r")
    assert components(diagram.intersection_nerve(("p1", "p2"))) == (("l",), ("r",))


def test_canonicalize_single_piece():
    nerve = build_complex([["a", "b", "c"]])
    diagram = canonicalize(AdjunctionSystem((LocalPiece("p1", nerve),), ()))
    assert diagram.nerve == nerve
    assert diagram.intersection_nerve(("p1",)) == nerve


def test_canonicalize_bug_eyed_theta():
    diagram = canonicalize(parse_document(gallery_document("bug_eyed_circle")).system)
    assert diagram.nerve.vertices == ("a", "b", "c1", "c2")
    assert len(diagram.nerve.simplices_of_dim(1)) == 5


def test_canonicalize_renames_colliding_private_labels():
    # both pieces use the unshared label "x"; classes must stay distinct
    p1 = LocalPiece("p1", build_complex([["s", "x"]]))
    p2 = LocalPiece("p2", build_complex([["s", "x"]]))
    system = AdjunctionSystem(
        (p1, p2),
        (GluingBijection("p1", "p2", (("s", "s"),)),
         GluingBijection("p2", "p1", (("s", "s"),))))
    diagram = canonicalize(system)
    assert len(diagram.nerve.vertices) == 3
    assert "x@p1" in diagram.nerve.vertices and "x@p2" in diagram.nerve.vertices


def test_canonicalize_nonshared_names_glued():
    # gluing relates differently named labels; class named by minimal pair
    p1 = LocalPiece("p1", build_complex([["m", "zz"]]))
    p2 = LocalPiece("p2", build_complex([["aa", "k"]]))
    system = AdjunctionSystem(
        (p1, p2),
        (GluingBijection("p1", "p2", (("zz", "aa"),)),
         GluingBijection("p2", "p1", (("aa", "zz"),))))
    diagram = canonicalize(system)
    assert "zz" in diagram.nerve.vertices  # (p1, zz) < (p2, aa)
    assert len(diagram.nerve.vertices) == 3


def test_intersection_nerve_monotone(three_circles):
    d = three_circles
    n12 = d.intersection_nerve(("p1", "p2"))
    n123 = d.intersection_nerve(("p1", "p2", "p3"))
    assert n123.is_subcomplex_of(n12)
    assert n123.simplices == frozenset({("a",), ("b",), ("a", "b")})
    assert d.intersection_nerve(("p1",)) == d.nerves["p1"]


def test_intersection_errors(three_circles):
    with pytest.raises(EmptyIndexSet):
        three_circles.intersection_nerve(())
    with pytest.raises(BadIndexSet):
        three_circles.intersection_nerve(("p1", "nope"))


def test_index_subsets_are_refused_past_the_report_row_cap(necklace):
    # 16 pieces give 2^16 - 1 = 65,535 index sets, within the cap; 17 give 131,071.
    sixteen = glued_from_nerves(necklace(16, False))
    assert len(sixteen.index_subsets(1)) == 16 and len(sixteen.index_subsets(16)) == 1
    seventeen = glued_from_nerves(necklace(17, False))
    with pytest.raises(ResourceLimit, match="capped at 65536 index sets; 17 pieces"):
        seventeen.index_subsets(1)
    assert len(seventeen.nonempty_subsets(2)) == 16  # computation needs no report rows


def test_collapse_preserves_union(three_circles):
    merged = collapse(three_circles, ("p1", "p2"))
    assert merged.nerve.simplices == three_circles.nerve.simplices
    assert merged.piece_ids == ("p1", "p3")
    again = collapse(merged, ("p1",))
    assert again.nerve.simplices == three_circles.nerve.simplices


def test_collapse_errors(three_circles):
    with pytest.raises(BadIndexSet):
        collapse(three_circles, ())
    with pytest.raises(BadIndexSet):
        collapse(three_circles, ("p1", "p2", "p3"))
    with pytest.raises(BadIndexSet):
        collapse(three_circles, ("zzz",))


def test_subsystem_embedding(three_circles, bug_eyed):
    sub, kappa = subsystem_embedding(three_circles, ("p1", "p2"))
    assert sub.n_pieces == 2
    # same shape as the bug-eyed theta graph: 4 vertices, 5 edges
    assert len(sub.nerve.vertices) == 4
    assert len(sub.nerve.simplices_of_dim(1)) == 5
    assert all(k == v for k, v in kappa.items())
    assert all((v,) in three_circles.nerve for v in kappa.values())
    for s in sub.nerve.simplices:
        assert tuple(sorted(kappa[v] for v in s)) in three_circles.nerve

    full, kappa_full = subsystem_embedding(three_circles, three_circles.piece_ids)
    assert full.nerve.simplices == three_circles.nerve.simplices

    single, _ = subsystem_embedding(three_circles, ("p1",))
    assert single.nerve == three_circles.nerves["p1"]


def test_induced_map_constant_and_identity(two_origin):
    point = build_complex([["z"]])
    const = induced_map(two_origin, point,
                        {pid: {v: "z" for v in two_origin.nerves[pid].vertices}
                         for pid in two_origin.piece_ids})
    assert set(const.values()) == {"z"}

    ident = induced_map(two_origin, two_origin.nerve,
                        {pid: {v: v for v in two_origin.nerves[pid].vertices}
                         for pid in two_origin.piece_ids})
    assert all(k == v for k, v in ident.items())


def test_induced_map_quotient_to_three_cycle(two_origin):
    k3 = build_complex([["l", "o"], ["o", "r"], ["l", "r"]])
    psi = {"p1": {"l": "l", "o1": "o", "r": "r"},
           "p2": {"l": "l", "o2": "o", "r": "r"}}
    alpha = induced_map(two_origin, k3, psi)
    assert alpha == {"l": "l", "o1": "o", "o2": "o", "r": "r"}


def test_induced_map_errors(two_origin):
    k3 = build_complex([["l", "o"], ["o", "r"], ["l", "r"]])
    with pytest.raises(IncompatibleFamily):
        induced_map(two_origin, k3,
                    {"p1": {"l": "l", "o1": "o", "r": "r"},
                     "p2": {"l": "o", "o2": "o", "r": "r"}})
    two_points = build_complex([["x"], ["y"]])
    with pytest.raises(NotSimplicial):
        induced_map(two_origin, two_points,
                    {"p1": {"l": "x", "o1": "y", "r": "x"},
                     "p2": {"l": "x", "o2": "y", "r": "x"}})


def test_shared_label_system_roundtrip(three_circles):
    rebuilt = shared_label_system({pid: three_circles.nerves[pid]
                                   for pid in three_circles.piece_ids},
                                  three_circles.field)
    assert validate_system(rebuilt).valid
    diagram = canonicalize(rebuilt)
    assert diagram.nerve.simplices == three_circles.nerve.simplices


def test_admissibility_after_canonicalize(gallery_diagram):
    d = gallery_diagram
    for i in d.piece_ids:
        for j in d.piece_ids:
            if i < j:
                from cechkit.complexes import intersect
                assert intersect(d.nerves[i], d.nerves[j]).simplices == \
                    d.intersection_nerve((i, j)).simplices


def assert_nonempty_subsets_exact(d):
    """nonempty_subsets, asked first, against intersection_nerve and plain set algebra."""
    got = {size: d.nonempty_subsets(size) for size in range(1, d.n_pieces + 2)}
    for size in range(1, d.n_pieces + 2):
        want = [t for t in d.index_subsets(size) if d.intersection_nerve(t).simplices]
        assert list(got[size]) == want, size
        for t in d.index_subsets(size):
            plain = frozenset.intersection(*(d.nerves[i].simplices for i in t))
            assert d.intersection_nerve(t).simplices == plain, t


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.one_of(st.none(), st.integers(1, 6)))
def test_nonempty_subsets_on_random_admissible(seed, n):
    d = canonicalize(parse_document(random_admissible(seed, n_pieces=n)).system)
    assert_nonempty_subsets_exact(d)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 9), ring=st.booleans(), order=st.randoms(use_true_random=False))
def test_nonempty_subsets_on_necklaces(necklace, n, ring, order):
    # Shuffled piece names, so ring neighbours need not be neighbours in piece order.
    ids = [f"c{i:02d}" for i in range(n)]
    order.shuffle(ids)
    d = glued_from_nerves(necklace(n, ring, ids))
    assert_nonempty_subsets_exact(d)
    assert len(d.nonempty_subsets(2)) == (n if ring else n - 1)
    assert d.nonempty_subsets(3) == ()


def test_intersection_nerve_is_memoised_and_never_cuts_an_empty_prefix(necklace, monkeypatch):
    cut = []

    def recording(k, l):
        cut.append(k)
        return intersect(k, l)

    monkeypatch.setattr(diagrams, "intersect", recording)
    d = glued_from_nerves(necklace(6, True))
    for size in range(1, 7):
        for t in itertools.combinations(d.piece_ids, size):
            assert d.intersection_nerve(t) is d.intersection_nerve(t)
    assert d.intersection_nerve(("c00",)) is d.nerves["c00"]
    assert cut and all(k.simplices for k in cut)
    # One cut per index set whose prefix is nonempty: all 15 pairs, and the
    # 4 + 3 + 2 + 1 triples that extend a meeting pair (ci, ci+1) by a later piece.
    assert len(cut) == 15 + 10


def test_nonempty_subsets_cuts_only_candidates_with_nonempty_faces(necklace, monkeypatch):
    cut = []

    def recording(k, l):
        cut.append(k)
        return intersect(k, l)

    monkeypatch.setattr(diagrams, "intersect", recording)
    d = glued_from_nerves(necklace(6, True))
    assert len(d.nonempty_subsets(2)) == 6
    assert len(cut) == 15
    # no triple of a ring of 6 has three meeting pairs, so no triple is cut
    assert d.nonempty_subsets(3) == d.nonempty_subsets(4) == ()
    assert len(cut) == 15
