import copy
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import diagrams
from cechkit.complexes import (EMPTY_COMPLEX, MalformedSimplex, SimplicialComplex, _class_roots, build_complex,
                               components, full_subcomplex, intersect, union_complexes)
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
    ValidationReport,
    Violation,
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
    assert len(seventeen.level(2)) == 16  # computation needs no report rows


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
    """The keys of `level`, asked first, against intersection_nerve and plain set algebra."""
    got = {size: tuple(d.level(size)) for size in range(1, d.n_pieces + 2)}
    for size in range(1, d.n_pieces + 2):
        want = [t for t in d.index_subsets(size) if d.intersection_nerve(t).simplices]
        assert list(got[size]) == want, size
        for t, nerve in d.level(size).items():
            assert nerve is d.intersection_nerve(t), t
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
    assert len(d.level(2)) == (n if ring else n - 1)
    assert tuple(d.level(3)) == ()


def test_intersection_nerve_is_memoised_and_never_cuts_an_empty_prefix(necklace, monkeypatch):
    cut = []

    def recording(k, l):
        cut.append(k)
        return intersect(k, l)

    monkeypatch.setattr(diagrams, "intersect", recording)
    d = glued_from_nerves(necklace(6, True))
    empty = []
    for size in range(1, 7):
        for t in itertools.combinations(d.piece_ids, size):
            nerve = d.intersection_nerve(t)
            assert nerve is d.intersection_nerve(t[::-1])
            if nerve.simplices:
                assert nerve is d.level(size)[t], t
            else:
                empty.append(nerve)
    assert d.intersection_nerve(("c00",)) is d.nerves["c00"]
    # every empty intersection is the diagram's own empty complex, whose memos die with the diagram
    assert empty and all(k is empty[0] for k in empty) and empty[0] is not EMPTY_COMPLEX
    assert cut and all(k.simplices for k in cut)
    # One cut per candidate whose faces are all nonempty: the 15 pairs, and no
    # triple, as no triple of a ring of 6 has three meeting pairs.
    assert len(cut) == 15


def test_nonempty_subsets_cuts_only_candidates_with_nonempty_faces(necklace, monkeypatch):
    cut = []

    def recording(k, l):
        cut.append(k)
        return intersect(k, l)

    monkeypatch.setattr(diagrams, "intersect", recording)
    d = glued_from_nerves(necklace(6, True))
    assert len(d.level(2)) == 6
    assert len(cut) == 15
    # no triple of a ring of 6 has three meeting pairs, so no triple is cut
    assert tuple(d.level(3)) == tuple(d.level(4)) == ()
    assert len(cut) == 15


def parent_gluing(system: AdjunctionSystem, i: str, j: str) -> GluingBijection | None:
    """Oracle: the gluing from i to j, by a scan of the gluings."""
    for g in system.gluings:
        if g.source == i and g.target == j:
            return g
    return None


def parent_validate_system(system: AdjunctionSystem) -> ValidationReport:
    """Oracle: validate_system by scans of the gluings instead of an index."""
    violations: list[Violation] = []
    ids = [p.piece_id for p in system.pieces]
    if len(set(ids)) != len(ids):
        violations.append(Violation("STRUCTURE", "duplicate piece ids", tuple(ids)))
        return ValidationReport(False, tuple(violations))
    by_id = {p.piece_id: p for p in system.pieces}

    for g in system.gluings:
        if g.source not in by_id or g.target not in by_id:
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} names unknown pieces"))
            continue
        src_labels = set(by_id[g.source].labels)
        dom = [x for x, _ in g.pairs]
        img = [y for _, y in g.pairs]
        if len(set(dom)) != len(dom):
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} domain has repeats",
                                        tuple(sorted({x for x in dom if dom.count(x) > 1}))))
        if len(set(img)) != len(img):
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} is not injective",
                                        tuple(sorted({y for y in img if img.count(y) > 1}))))
        missing = sorted(set(dom) - src_labels)
        if missing:
            violations.append(Violation("STRUCTURE",
                                         f"gluing {g.source}->{g.target} domain not in source labels",
                                         tuple(missing)))
        extra = sorted(set(img) - set(by_id[g.target].labels))
        if extra:
            violations.append(Violation("STRUCTURE",
                                         f"gluing {g.source}->{g.target} image not in target labels",
                                         tuple(extra)))
    for i, j in dict.fromkeys((g.source, g.target) for g in system.gluings):
        n = sum(1 for g in system.gluings if (g.source, g.target) == (i, j))
        if n > 1:
            violations.append(Violation("STRUCTURE", f"gluing {i}->{j} is given {n} times", (i, j)))
    if violations:
        return ValidationReport(False, tuple(violations))

    # A1: supplied self-gluings must be the identity on all labels.
    for g in system.gluings:
        if g.source == g.target:
            piece = by_id[g.source]
            if set(g.domain) != set(piece.labels) or any(x != y for x, y in g.pairs):
                bad = sorted(x for x, y in g.pairs if x != y) or sorted(set(piece.labels) - set(g.domain))
                violations.append(Violation("A1", f"self-gluing of {g.source} is not the identity",
                                            tuple(bad)))

    # A2: the reverse gluing is the inverse with matching domains.
    for g in system.gluings:
        if g.source == g.target:
            continue
        back = parent_gluing(system, g.target, g.source)
        if back is None:
            violations.append(Violation("A2", f"gluing {g.target}->{g.source} is missing"))
            continue
        if set(back.domain) != set(g.image):
            violations.append(Violation("A2",
                                        f"domain of {g.target}->{g.source} differs from image of {g.source}->{g.target}",
                                        tuple(sorted(set(back.domain) ^ set(g.image)))))
            continue
        back_map = dict(back.pairs)
        for x, y in g.pairs:
            if back_map.get(y) != x:
                violations.append(Violation("A2",
                                            f"gluing {g.target}->{g.source} is not inverse to {g.source}->{g.target} at {y!r}",
                                            (y,)))

    # A3: composition on overlapping domains.
    for gi in system.gluings:
        i, j = gi.source, gi.target
        if i == j:
            continue
        for gk in system.gluings:
            if gk.source != i or gk.target == j or gk.target == i:
                continue
            k = gk.target
            jk = parent_gluing(system, j, k)
            jk_map = dict(jk.pairs) if jk is not None else {}
            fij, fik = dict(gi.pairs), dict(gk.pairs)
            for x in sorted(set(fij) & set(fik)):
                y = fij[x]
                if y not in jk_map:
                    violations.append(Violation("A3",
                                                f"label {x!r}: image under {i}->{j} misses the domain of {j}->{k}",
                                                (x,)))
                elif jk_map[y] != fik[x]:
                    violations.append(Violation("A3",
                                                f"label {x!r}: {i}->{k} differs from {j}->{k} after {i}->{j}",
                                                (x,)))

    # Gluings must be simplicial isomorphisms between induced subcomplexes.
    for g in system.gluings:
        if g.source == g.target:
            continue
        src_sub = full_subcomplex(by_id[g.source].nerve, g.domain)
        tgt_sub = full_subcomplex(by_id[g.target].nerve, g.image)
        mapping = dict(g.pairs)
        mapped = frozenset(tuple(sorted(mapping[v] for v in s)) for s in src_sub.simplices)
        if mapped != tgt_sub.simplices:
            diff = sorted(mapped ^ tgt_sub.simplices)
            violations.append(Violation("SIMPLICIAL",
                                        f"gluing {g.source}->{g.target} is not a simplicial isomorphism "
                                        f"between induced subcomplexes",
                                        tuple(diff[:4])))

    return ValidationReport(not violations, tuple(violations))


def hostile_systems():
    """Systems that break each check, including a pair glued twice."""
    base = two_origin_system()
    p1, p2 = base.pieces
    forward, backward = base.gluings[0], base.gluings[1]
    images = [y for _, y in forward.pairs]
    swapped = GluingBijection(forward.source, forward.target,
                              tuple(zip([x for x, _ in forward.pairs], images[::-1])))
    yield AdjunctionSystem((p1, p1, p2), base.gluings)
    yield AdjunctionSystem(base.pieces, base.gluings + (GluingBijection("p1", "nope", ()),))
    yield AdjunctionSystem(base.pieces, (forward,))
    yield AdjunctionSystem(base.pieces, (swapped, backward))
    # a second p1 -> p2 gluing, equal to the first or not, is refused by name
    yield AdjunctionSystem(base.pieces, (forward, forward, backward))
    yield AdjunctionSystem(base.pieces, (forward, backward, swapped))
    yield AdjunctionSystem(base.pieces, (swapped, backward, forward, backward))
    yield AdjunctionSystem(base.pieces, base.gluings + (GluingBijection("p1", "p1", (("l", "r"), ("r", "l"))),))
    yield AdjunctionSystem(base.pieces, (GluingBijection("p1", "p2", forward.pairs + forward.pairs[:1]), backward))
    yield AdjunctionSystem((p1, LocalPiece("p2", build_complex([["l", "o2"], ["o2", "r"], ["l", "r"]]))),
                           base.gluings)
    a3 = AdjunctionSystem(
        (LocalPiece("p1", build_complex([["x"]])), LocalPiece("p2", build_complex([["y"]])),
         LocalPiece("p3", build_complex([["w"], ["z"]]))),
        (GluingBijection("p1", "p2", (("x", "y"),)), GluingBijection("p2", "p1", (("y", "x"),)),
         GluingBijection("p2", "p3", (("y", "z"),)), GluingBijection("p3", "p2", (("z", "y"),)),
         GluingBijection("p1", "p3", (("x", "w"),)), GluingBijection("p3", "p1", (("w", "x"),))))
    yield a3
    yield AdjunctionSystem(a3.pieces, a3.gluings[:3] + a3.gluings[4:])
    # A2 fails at the second pair only: p2 -> p1 sends r to o1
    yield AdjunctionSystem(base.pieces, (forward, GluingBijection("p2", "p1", (("l", "l"), ("r", "o1")))))
    # p3 -> p1 sends z to w, which p1 -> p2 does not glue: A2 and A3 fail, though the glued
    # labels (p1, x), (p2, y), (p3, z) form a complete graph
    yield AdjunctionSystem(
        (LocalPiece("p1", build_complex([["w"], ["x"]])), LocalPiece("p2", build_complex([["y"]])),
         LocalPiece("p3", build_complex([["z"]]))),
        (GluingBijection("p1", "p2", (("x", "y"),)), GluingBijection("p2", "p1", (("y", "x"),)),
         GluingBijection("p2", "p3", (("y", "z"),)), GluingBijection("p3", "p2", (("z", "y"),)),
         GluingBijection("p1", "p3", (("x", "z"),)), GluingBijection("p3", "p1", (("z", "w"),))))
    # p1 -> p2 is a simplicial isomorphism on {a, b}; p2 -> p1 also glues c, fails A2, and maps
    # p2's edge a-c to a non-edge of p1
    yield AdjunctionSystem(
        (LocalPiece("p1", build_complex([["a"], ["b"], ["c"]])), LocalPiece("p2", build_complex([["a", "c"], ["b"]]))),
        (GluingBijection("p1", "p2", (("a", "a"), ("b", "b"))),
         GluingBijection("p2", "p1", (("a", "a"), ("b", "b"), ("c", "c")))))


def test_validate_system_matches_the_scanning_oracle_on_gallery_and_hostile_systems():
    systems = [parse_document(gallery_document(name, **kwargs)).system
               for name, kwargs in [("two_origin_line", {}), ("bug_eyed_circle", {}), ("three_circles", {}),
                                    ("branching_line_n", {"n": 8})]]
    hostile = list(hostile_systems())
    assert all(not parent_validate_system(s).valid for s in hostile)
    for system in systems + hostile:
        assert validate_system(system) == parent_validate_system(system)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_validate_system_matches_the_scanning_oracle_on_corrupted_random_systems(seed, data):
    system = parse_document(random_admissible(seed)).system
    gluings, pieces = list(system.gluings), list(system.pieces)
    for _ in range(data.draw(st.integers(1, 3))):
        g = gluings[data.draw(st.integers(0, len(gluings) - 1))]
        at = gluings.index(g)
        kind = data.draw(st.sampled_from(("drop", "duplicate", "swap", "extend", "reverse", "edge", "self")))
        if kind == "drop" and len(gluings) > 1:
            del gluings[at]
        elif kind == "duplicate":
            gluings.insert(data.draw(st.integers(0, len(gluings))), g)
        elif kind == "swap" and len(g.pairs) > 1:
            ys = [y for _, y in g.pairs]
            ys[0], ys[-1] = ys[-1], ys[0]
            gluings[at] = GluingBijection(g.source, g.target, tuple(zip([x for x, _ in g.pairs], ys)))
        elif kind == "extend":
            extra = (data.draw(st.sampled_from(system.piece(g.source).labels)),
                     data.draw(st.sampled_from(system.piece(g.target).labels)))
            gluings[at] = GluingBijection(g.source, g.target, g.pairs + (extra,))
        elif kind == "reverse":
            gluings.append(GluingBijection(g.target, g.source, tuple((y, x) for x, y in g.pairs)))
        elif kind == "edge" and len(set(g.domain)) > 1:
            # an edge between two glued labels of the source alone: the induced subcomplexes differ
            a, b = sorted(data.draw(st.permutations(sorted(set(g.domain))))[:2])
            at_piece = next(n for n, p in enumerate(pieces) if p.piece_id == g.source)
            nerve = pieces[at_piece].nerve
            pieces[at_piece] = LocalPiece(g.source, SimplicialComplex(nerve.simplices | {(a, b)}))
        elif kind == "self":
            labels = system.piece(g.source).labels
            image = data.draw(st.permutations(labels))
            gluings.append(GluingBijection(g.source, g.source, tuple(zip(labels, image))))
    corrupted = AdjunctionSystem(tuple(pieces), tuple(gluings), system.field)
    assert validate_system(corrupted) == parent_validate_system(corrupted)


def test_a_pair_glued_twice_is_a_structure_violation_naming_the_pair():
    base = two_origin_system()
    forward, backward = base.gluings
    for gluings, pairs in [((forward, forward, backward), [("p1", "p2", 2)]),
                           ((forward, backward, backward, forward, forward), [("p1", "p2", 3), ("p2", "p1", 2)])]:
        system = AdjunctionSystem(base.pieces, gluings)
        report = validate_system(system)
        assert not report.valid
        assert report.violations == tuple(Violation("STRUCTURE", f"gluing {i}->{j} is given {n} times", (i, j))
                                          for i, j, n in pairs)
        with pytest.raises(InvalidSystem, match="gluing p1->p2 is given"):
            canonicalize(system)


def test_validate_system_builds_each_mapping_once():
    system = parse_document(gallery_document("branching_line_n", n=8)).system
    assert validate_system(system).valid
    # each mapping was built during validation and kept on its gluing
    assert all("mapping" in vars(g) and vars(g)["mapping"] is g.mapping for g in system.gluings)
    assert all(system.gluing(g.source, g.target) is g for g in system.gluings)


def parent_relabel(k: SimplicialComplex, mapping) -> SimplicialComplex:
    """Oracle: relabel as it was before the renaming paths, every simplex re-sorted."""
    image = [mapping[v] for v in k.vertices]
    if len(set(image)) != len(image):
        raise MalformedSimplex("relabeling is not injective on the vertex set")
    return SimplicialComplex(frozenset(tuple(sorted(mapping[v] for v in s)) for s in k.simplices))


def parent_canonicalize(system: AdjunctionSystem) -> diagrams.GluedDiagram:
    """Oracle: canonicalize as it was before, union-find over every node and both gluings of each pair."""
    report = parent_validate_system(system)
    if not report.valid:
        raise InvalidSystem(report)
    nodes = ((piece.piece_id, v) for piece in system.pieces for v in piece.labels)
    glued = (((g.source, x), (g.target, y)) for g in system.gluings if g.source != g.target for x, y in g.pairs)
    roots = _class_roots(nodes, glued)
    classes = {}
    for node, root in roots.items():
        classes.setdefault(root, []).append(node)
    for members in classes.values():
        per_piece = [p for p, _ in members]
        if len(set(per_piece)) != len(per_piece):
            raise InvalidSystem(ValidationReport(False, (Violation(
                "STRUCTURE", "a gluing chain identifies two labels of one piece"),)))
    roots_per_label = Counter(label for _, label in classes)
    names = {(piece_id, label): label if roots_per_label[label] == 1 else f"{label}@{piece_id}"
             for piece_id, label in classes}
    if len(set(names.values())) != len(names):
        raise InvalidSystem(ValidationReport(False, (Violation(
            "STRUCTURE", "canonical class names collide even after qualification"),)))
    label_classes = {node: names[root] for node, root in roots.items()}
    nerves = {}
    for piece in system.pieces:
        mapping = {v: label_classes[(piece.piece_id, v)] for v in piece.labels}
        nerves[piece.piece_id] = parent_relabel(piece.nerve, mapping)
    ids = tuple(sorted(nerves))
    return diagrams.GluedDiagram(system.field, ids, nerves, union_complexes(nerves[i] for i in ids), label_classes)


# Per-piece renamings of a document's labels: a gluing then pairs unequal labels wherever two pieces
# renamed a shared label differently, and a piece nerve is renamed onto its class names by the identity,
# by a renaming that keeps the labels' order, or by one that changes it.
RENAMINGS = {
    "same": lambda labels: {v: v for v in labels},
    "keeps order": lambda labels: {v: v + "k" for v in labels},
    "reverses order": lambda labels: {v: f"r{len(labels) - n:02d}" for n, v in enumerate(sorted(labels))},
    # s0 is in every random_admissible core: renamed 0s0, it comes first, and its class name is s0
    # wherever a smaller piece id keeps it
    "s0 only": lambda labels: {v: "0" + v if v == "s0" else v for v in labels},
}


def renamed_document(doc, choices):
    """doc with the labels of each piece renamed by RENAMINGS[choices[piece index]]."""
    doc = copy.deepcopy(doc)
    rename = {}
    for piece, choice in zip(doc["pieces"], choices):
        labels = sorted({v for s in piece["simplices"] for v in s})
        rename[piece["id"]] = RENAMINGS[choice](labels)
        piece["simplices"] = [sorted(rename[piece["id"]][v] for v in s) for s in piece["simplices"]]
    for g in doc["gluings"]:
        g["pairs"] = [[rename[g["i"]][x], rename[g["j"]][y]] for x, y in g["pairs"]]
    return doc


def renaming_kind(k: SimplicialComplex, mapping) -> str:
    image = [mapping[v] for v in k.vertices]
    if image == list(k.vertices):
        return "identity"
    return "keeps order" if image == sorted(image) else "reorders"


def test_canonicalize_matches_the_parent_on_renamed_random_documents(monkeypatch):
    kinds = Counter()
    real_relabel = diagrams.relabel

    def classifying(k, mapping):
        kinds[renaming_kind(k, mapping)] += 1
        return real_relabel(k, mapping)

    monkeypatch.setattr(diagrams, "relabel", classifying)
    for seed in range(12):
        doc = random_admissible(seed, n_pieces=2 + seed % 4)
        for choices in itertools.product(RENAMINGS, repeat=2):
            choices = (choices * len(doc["pieces"]))[:len(doc["pieces"])]
            system = parse_document(renamed_document(doc, choices)).system
            got, want = canonicalize(system), parent_canonicalize(system)
            assert got.piece_ids == want.piece_ids
            assert list(got.nerves.items()) == list(want.nerves.items())
            assert got.nerve == want.nerve
            assert list(got.label_classes.items()) == list(want.label_classes.items())
            kinds["qualified"] += any("@" in name for name in got.label_classes.values())
    # every renaming path ran, and some class names were qualified with their piece id
    assert set(kinds) == {"identity", "keeps order", "reorders", "qualified"}
    assert min(kinds.values()) >= 10
