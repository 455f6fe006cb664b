import itertools
import json

import numpy as np
import pytest
import reference
from dense import dense, matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cechkit import bundles, cochains
from cechkit.bundles import (
    ENUMERATION_CAP,
    ConstantCocycle,
    IncompatibleData,
    IncompatibleSections,
    LineBundles,
    NonAbelianRank,
    PieceBundleData,
    TwistedSection,
    WrongField,
    _find,
    class_table,
    cocycle_class,
    cocycles_equivalent,
    colimit_bundle,
    enumerate_line_bundles,
    glue_section_space,
    glue_sections,
    is_parallel,
    parallel_sections,
    restrict_bundle,
    validate_cocycle,
    validate_piece_data,
)
from cechkit.cli import main
from cechkit.cochains import cohomology
from cechkit.complexes import build_complex, components, full_subcomplex
from cechkit.diagrams import canonicalize, glued_from_nerves
from cechkit.documents import canonical_json, materialise_bundle, parse_document
from cechkit.errors import ResourceLimit
from cechkit.fplinalg import F2, FMatrix, PrimeField
from cechkit.gallery import gallery_document, random_admissible

from brute_force import all_invertible, gauge_equivalent, gl_order
from conftest import rank2_bundle_document


def cycle4():
    return build_complex([["l", "o1"], ["o1", "r"], ["l", "o2"], ["o2", "r"]])


def all_rank1_cocycles(base, p=2):
    edges = base.simplices_of_dim(1)
    for vec in itertools.product(range(p), repeat=len(edges)):
        yield ConstantCocycle.build(base, 1, PrimeField(p), dict(zip(edges, vec)))


def brute_equivalent(g, h):
    """Gauge search over all vertex cochains: h = g + k_a - k_b edgewise."""
    base = g.base
    p = g.field.p
    edges = base.simplices_of_dim(1)
    for kv in itertools.product(range(p), repeat=len(base.vertices)):
        table = dict(zip(base.vertices, kv))
        if all((int(g.values[(a, b)]) + table[a] - table[b]) % p == int(h.values[(a, b)])
               for a, b in edges):
            return True
    return False


def signed_kernel_dim(g):
    """Twisted kernel over F_3, where the sign representation is faithful."""
    base = g.base
    field3 = PrimeField(3)
    verts = base.vertices
    idx = {v: i for i, v in enumerate(verts)}
    edges = base.simplices_of_dim(1)
    m = np.zeros((len(edges), len(verts)), dtype=np.int64)
    for r, (a, b) in enumerate(edges):
        m[r, idx[a]] += 1
        m[r, idx[b]] -= (-1) ** int(g.values[(a, b)])
    return matrix(m, field3).rank_nullity()[1]


def test_validate_identity_and_cycle_base():
    assert validate_cocycle(ConstantCocycle.build(cycle4(), 1, F2)).valid
    for g in all_rank1_cocycles(cycle4()):
        assert validate_cocycle(g).valid  # no triangles: vacuous identity


def test_validate_triangle_violation():
    tri = build_complex([["a", "b", "c"]])
    bad = ConstantCocycle.build(tri, 1, F2, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
    verdict = validate_cocycle(bad)
    assert not verdict.valid
    assert verdict.violations[0][0] == ("a", "b", "c")
    good = ConstantCocycle.build(tri, 1, F2, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 0})
    assert validate_cocycle(good).valid


def test_validate_rank2_invertibility():
    edge = build_complex([["a", "b"]])
    singular = ConstantCocycle.build(edge, 2, F2, {("a", "b"): [[1, 1], [1, 1]]})
    assert not validate_cocycle(singular).valid


def test_cocycle_class_trivial_and_nontrivial():
    base = cycle4()
    trivial = ConstantCocycle.build(base, 1, F2)
    assert not any(cocycle_class(trivial))
    twisted = ConstantCocycle.build(base, 1, F2, {("o2", "r"): 1})
    assert cocycle_class(twisted) == [1]
    # brute force: no vertex gauge trivialises the twisted cocycle
    assert not brute_equivalent(twisted, trivial)


def test_cocycle_class_constant_on_gauge_orbits_and_separating():
    base = cycle4()
    for p in (2, 3):
        cocycles = list(all_rank1_cocycles(base, p))
        classes = [tuple(cocycle_class(g)) for g in cocycles]
        for g, g_class in zip(cocycles, classes):
            for h, h_class in zip(cocycles, classes):
                same_class = g_class == h_class
                assert same_class == brute_equivalent(g, h)
                assert same_class == cocycles_equivalent(g, h)


def test_cocycle_class_and_equivalence_reject_higher_rank():
    edge = build_complex([["a", "b"]])
    g = ConstantCocycle.build(edge, 2, F2)
    with pytest.raises(NonAbelianRank):
        cocycle_class(g)
    with pytest.raises(NonAbelianRank):
        cocycles_equivalent(g, g)


def test_enumerate_line_bundles_counts(two_origin, branching, bug_eyed, three_circles):
    for diagram, expected in ((two_origin, 2), (branching, 1), (bug_eyed, 4), (three_circles, 8)):
        reps = enumerate_line_bundles(diagram)
        assert len(reps) == expected
        for a, b in itertools.combinations(reps, 2):
            assert not cocycles_equivalent(a, b)


def test_enumerate_requires_f2():
    doc = gallery_document("two_origin_line", field=3)
    from cechkit.diagrams import canonicalize
    d = canonicalize(parse_document(doc).system)
    with pytest.raises(WrongField):
        enumerate_line_bundles(d)


def test_parallel_sections_dimensions():
    base = cycle4()
    trivial = ConstantCocycle.build(base, 1, F2)
    twisted = ConstantCocycle.build(base, 1, F2, {("o2", "r"): 1})
    assert parallel_sections(trivial).dimension == 1
    assert parallel_sections(twisted).dimension == 0
    two_comp = ConstantCocycle.build(build_complex([["a", "b"], ["c", "d"]]), 1, F2)
    assert parallel_sections(two_comp).dimension == 2


def test_parallel_sections_match_signed_kernel_oracle():
    # independent oracle: the +/-1 representation over F_3 is faithful
    for base in (cycle4(), build_complex([["a", "b"], ["b", "c"]]),
                 build_complex([["a", "b"], ["c", "d"]])):
        for g in all_rank1_cocycles(base):
            assert parallel_sections(g).dimension == signed_kernel_dim(g)


def test_parallel_sections_rank2():
    edge = build_complex([["a", "b"]])
    swap = ConstantCocycle.build(edge, 2, F2, {("a", "b"): [[0, 1], [1, 0]]})
    basis = parallel_sections(swap)
    assert basis.dimension == 2
    for section in basis.basis:
        assert is_parallel(section)
    ident = ConstantCocycle.build(edge, 2, F2)
    assert parallel_sections(ident).dimension == 2


def test_is_parallel_detects_violations():
    base = cycle4()
    twisted = ConstantCocycle.build(base, 1, F2, {("o2", "r"): 1})
    bad = TwistedSection(twisted, {v: 1 for v in base.vertices})
    assert not is_parallel(bad)
    good = TwistedSection(twisted, {v: 0 for v in base.vertices})
    assert is_parallel(good)


def test_piece_data_validation_and_triple(three_circles):
    g = enumerate_line_bundles(three_circles)[3]
    data = restrict_bundle(g, three_circles)
    assert validate_piece_data(data).valid
    # breaking one identification violates the compatibility on an overlap edge
    broken = PieceBundleData(three_circles, 1, data.cocycles, {("p1", "p2"): {"a": 1}})
    assert not validate_piece_data(broken).valid


@pytest.mark.parametrize("p", (2, 3))
def test_overlap_checks_do_not_count_when_a_piece_fails(p):
    tri = build_complex([["a", "b", "c"]])
    field = PrimeField(p)
    diagram = glued_from_nerves({"p1": tri, "p2": tri}, field)
    bad = ConstantCocycle.build(tri, 1, field, {("a", "b"): 1})
    good = ConstantCocycle.build(tri, 1, field)
    # p2's identity cocycle does not match p1's on the overlap edge (a, b) either
    data = PieceBundleData(diagram, 1, {"p1": bad, "p2": good}, {})
    assert validate_piece_data(data).violations == (("p1", ("a", "b", "c"), "triangle identity fails"),)
    fixed = PieceBundleData(diagram, 1, {"p1": good, "p2": ConstantCocycle.build(tri, 1, field, {})},
                            {("p1", "p2"): {"a": 1}})
    assert validate_piece_data(fixed).violations[0] == (("p1", "p2"), ("a", "b"),
                                                        "piece cocycles incompatible on overlap edge")


def test_singular_identification_is_a_violation(three_circles):
    # the overlap checks would invert the identification at b
    singular = {("p1", "p2"): {"b": np.array([[1, 1], [1, 1]])}}
    identity = restrict_bundle(ConstantCocycle.build(three_circles.nerve, 2, F2), three_circles)
    data = PieceBundleData(three_circles, 2, identity.cocycles, singular)
    assert validate_piece_data(data).violations == ((("p1", "p2"), "identification at 'b' is not invertible"),)
    with pytest.raises(IncompatibleData, match="is not invertible"):
        colimit_bundle(three_circles, data)


def test_colimit_two_origin_identifications(two_origin):
    doc = gallery_document("two_origin_line")
    parsed = parse_document(doc)
    data = materialise_bundle(two_origin, parsed.bundle)
    assert validate_piece_data(data).valid
    result = colimit_bundle(two_origin, data)
    assert result.ok
    assert cocycle_class(result.cocycle) == [1]
    # identity identifications land in the trivial class
    trivial_data = PieceBundleData(two_origin, 1, data.cocycles, {})
    result2 = colimit_bundle(two_origin, trivial_data)
    assert result2.ok
    assert not any(cocycle_class(result2.cocycle))


def test_identification_values_are_reduced_mod_p(three_circles):
    # 2 is 0 in F_2: the triple condition at the triple-overlap vertex a holds
    raw = {"rank": 1, "identifications": [{"i": "p1", "j": "p3", "vertices": [["a", 2]]}]}
    data = materialise_bundle(three_circles, raw)
    assert data.identifications == {("p1", "p3"): {"a": 0}}
    assert validate_piece_data(data).valid


def test_colimit_agreeing_pieces_is_union(two_origin):
    g = enumerate_line_bundles(two_origin)[1]
    data = restrict_bundle(g, two_origin)
    result = colimit_bundle(two_origin, data)
    assert result.ok
    assert result.cocycle.base == g.base and result.cocycle.rank == g.rank
    assert all(result.cocycle.values[e] == g.values[e] for e in g.base.simplices_of_dim(1))


def test_the_colimit_inverts_each_gauge_once(tmp_path, monkeypatch, capsys):
    # A non-root holder's gauge at a label is the inverse of ident(root, j, v),
    # whose inverse is that identification itself.  The rank-2 line with two
    # origins has two shared labels, l and r, and its overlap has no edge, so
    # the bundles command inverts two matrices, not one per edge end.
    calls = []
    real = FMatrix.inverse

    def counting(self):
        calls.append(self.shape)
        return real(self)

    monkeypatch.setattr(FMatrix, "inverse", counting)
    path = tmp_path / "rank2.json"
    path.write_text(canonical_json(rank2_bundle_document()), encoding="utf-8")
    assert main(["bundles", str(path)]) == 0
    assert calls == [(2, 2), (2, 2)]


def test_bundles_builds_each_identity_once_per_holder_and_inverts_each_gauge_once(tmp_path, monkeypatch, capsys):
    # One identity per piece cocycle (its unlisted edges share it), one for the piece data, one per
    # section system, one per inversion and one per kernel basis; none per edge, vertex or triangle.
    calls = {"identity": 0, "inverse": 0}
    real_identity, real_inverse = FMatrix.identity.__func__, FMatrix.inverse

    def identity(cls, n, field):
        calls["identity"] += 1
        return real_identity(cls, n, field)

    def inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    monkeypatch.setattr(FMatrix, "identity", classmethod(identity))
    monkeypatch.setattr(FMatrix, "inverse", inverse)
    path = tmp_path / "rank2.json"
    path.write_text(canonical_json(rank2_bundle_document()), encoding="utf-8")
    assert main(["bundles", str(path)]) == 0
    assert calls == {"identity": 9, "inverse": 2}


def test_a_rank2_cocycle_inverts_each_edge_once_whatever_reads_it(monkeypatch):
    # the triangles (a, b, c) and (a, c, d) both read g[c, a]; the second also reads g[d, a]
    base = build_complex([["a", "b", "c"], ["a", "c", "d"]])
    swap = [[0, 1], [1, 0]]
    cocycle = ConstantCocycle.build(base, 2, F2, {("a", "b"): swap, ("a", "c"): swap, ("a", "d"): swap})
    inverted = []
    real = FMatrix.inverse
    monkeypatch.setattr(FMatrix, "inverse", lambda self: inverted.append(self) or real(self))
    assert validate_cocycle(cocycle).valid and validate_cocycle(cocycle).valid
    assert cocycle.value("c", "a").equals(cocycle.values[("a", "c")])
    assert cocycle.value("a", "a") is cocycle.value("b", "b") is cocycle.one
    assert len(inverted) == 2


def test_round_trip_preserves_every_class(gallery_diagram):
    for g in enumerate_line_bundles(gallery_diagram):
        back = colimit_bundle(gallery_diagram, restrict_bundle(g, gallery_diagram))
        assert back.ok
        assert cocycles_equivalent(back.cocycle, g)


def test_round_trip_rank2():
    doc = gallery_document("two_origin_line")
    from cechkit.diagrams import canonicalize
    d = canonicalize(parse_document(doc).system)
    base = d.nerve
    swap = [[0, 1], [1, 0]]
    g = ConstantCocycle.build(base, 2, F2, {("o2", "r"): swap})
    data = restrict_bundle(g, d)
    assert validate_piece_data(data).valid
    back = colimit_bundle(d, data)
    assert back.ok
    assert gauge_equivalent(back.cocycle, g)
    assert not gauge_equivalent(g, ConstantCocycle.build(base, 2, F2))


def test_glue_sections_compatible_and_incompatible(two_origin):
    doc = gallery_document("two_origin_line")
    data = materialise_bundle(two_origin, parse_document(doc).bundle)
    ones = {pid: TwistedSection(data.cocycles[pid],
                                {v: 1 for v in two_origin.nerves[pid].vertices})
            for pid in two_origin.piece_ids}
    with pytest.raises(IncompatibleSections) as err:
        glue_sections(data, ones)
    assert err.value.vertex == "r"

    zeros = {pid: TwistedSection(data.cocycles[pid],
                                 {v: 0 for v in two_origin.nerves[pid].vertices})
            for pid in two_origin.piece_ids}
    glued = glue_sections(data, zeros)
    assert all(v == 0 for v in glued.values.values())


def test_glue_sections_trivial_data(two_origin):
    trivial = enumerate_line_bundles(two_origin)[0]
    data = restrict_bundle(trivial, two_origin)
    ones = {pid: TwistedSection(data.cocycles[pid],
                                {v: 1 for v in two_origin.nerves[pid].vertices})
            for pid in two_origin.piece_ids}
    glued = glue_sections(data, ones)
    assert is_parallel(glued)
    assert all(v == 1 for v in glued.values.values())


def test_glue_space_matches_parallel_sections(gallery_diagram):
    for g in enumerate_line_bundles(gallery_diagram):
        data = restrict_bundle(g, gallery_diagram)
        assert glue_section_space(data) == parallel_sections(g).dimension


def test_glue_space_for_twisted_identifications(two_origin):
    doc = gallery_document("two_origin_line")
    data = materialise_bundle(two_origin, parse_document(doc).bundle)
    colimit = colimit_bundle(two_origin, data)
    assert glue_section_space(data) == parallel_sections(colimit.cocycle).dimension == 0


def test_glue_space_rank2(two_origin):
    swap = [[0, 1], [1, 0]]
    g = ConstantCocycle.build(two_origin.nerve, 2, F2, {("o2", "r"): swap})
    data = restrict_bundle(g, two_origin)
    assert glue_section_space(data) == parallel_sections(g).dimension


def test_glue_sections_rank2_refuses_sections_that_disagree(two_origin):
    # The swap on (o2, r) turns one piece's first parallel section into the other basis vector.
    g = ConstantCocycle.build(two_origin.nerve, 2, F2, {("o2", "r"): [[0, 1], [1, 0]]})
    data = restrict_bundle(g, two_origin)
    firsts = {pid: parallel_sections(h).basis[0] for pid, h in data.cocycles.items()}
    with pytest.raises(IncompatibleSections) as err:
        glue_sections(data, firsts)
    assert err.value.vertex == "l"


def test_glue_sections_rank2_glues_the_identity_section():
    diagram = canonicalize(parse_document(gallery_document("three_circles", field=3)).system)
    g = ConstantCocycle.build(diagram.nerve, 2, diagram.field)
    data = restrict_bundle(g, diagram)
    for section in parallel_sections(g).basis:
        pieces = {pid: TwistedSection(data.cocycles[pid], {v: section.values[v] for v in nerve.vertices})
                  for pid, nerve in diagram.nerves.items()}
        glued = glue_sections(data, pieces)
        assert is_parallel(glued)
        assert glued.cocycle.rank == 2 and set(glued.values) == set(diagram.nerve.vertices)


def test_glue_sections_rank2_applies_the_identification():
    # identification 1 at l and the swap at r; p2 carries the swap on its edge (o2, r)
    parsed = parse_document(rank2_bundle_document())
    diagram = canonicalize(parsed.system)
    data = materialise_bundle(diagram, parsed.bundle)
    e1, e2 = FMatrix([[1], [0]], F2), FMatrix([[0], [1]], F2)
    sections = {"p1": TwistedSection(data.cocycles["p1"], {"l": e1, "o1": e1, "r": e1}),
                "p2": TwistedSection(data.cocycles["p2"], {"l": e1, "o2": e1, "r": e2})}
    glued = glue_sections(data, sections)
    assert is_parallel(glued) and all(glued.values[v].equals(e1) for v in diagram.nerve.vertices)
    # p2's other parallel section is p1's image at r but not at l
    with pytest.raises(IncompatibleSections) as err:
        glue_sections(data, {**sections, "p2": TwistedSection(data.cocycles["p2"], {"l": e2, "o2": e2, "r": e1})})
    assert err.value.vertex == "l"


def solved_untwisting_phases(cocycle, comp):
    """Phases with phase_b - phase_a = g[a,b] on comp, by one linear solve, or None."""
    order = {v: i for i, v in enumerate(comp)}
    edges = [e for e in cocycle.base.simplices_of_dim(1) if e[0] in order]
    rows = np.zeros((len(edges), len(comp)), dtype=np.int64)
    rhs = np.zeros(len(edges), dtype=np.int64)
    for r, (a, b) in enumerate(edges):
        rows[r, order[b]] += 1
        rows[r, order[a]] -= 1
        rhs[r] = int(cocycle.values[(a, b)])
    solution = reference.solve(rows, rhs, cocycle.field.p)
    return None if solution is None else {v: int(solution[order[v]]) for v in comp}


def enumerated_glue_section_space(data):
    """The coefficient enumeration that rank-1 glue_section_space replaced, as a reference.

    One basis section per piece component that untwists (value 1 on the
    component); every coefficient tuple over them is checked for equal
    values at shared vertices and a solvable phase system, and the
    compatible tuples, which must form a subspace, give its rank.
    """
    diagram = data.diagram
    p = diagram.field.p
    basis = []  # (piece, component, phases), one per basis section
    for pid in diagram.piece_ids:
        for comp in components(diagram.nerves[pid]):
            phases = solved_untwisting_phases(data.cocycles[pid], comp)
            if phases is not None:
                basis.append((pid, comp, phases))
    assert p ** len(basis) <= ENUMERATION_CAP
    links = [(i, j, v) for i, j in itertools.combinations(diagram.piece_ids, 2)
             for v in diagram.intersection_nerve((i, j)).vertices]
    compatible = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        values = {(pid, v): 0 for pid in diagram.piece_ids for v in diagram.nerves[pid].vertices}
        for c, (pid, comp, _) in zip(coeffs, basis):
            values.update(((pid, v), c) for v in comp)
        nonzero = [b for c, b in zip(coeffs, basis) if c]
        if (all(values[(i, v)] == values[(j, v)] for i, j, v in links)
                and phases_solvable(data, links, nonzero)):
            compatible.append(list(values.values()))
    if not compatible:
        return 0
    rank = FMatrix(np.array(compatible).T, diagram.field).rank()
    assert len(compatible) == p ** rank, "compatible tuples do not form a linear subspace"
    return rank


def phases_solvable(data, links, nonzero):
    """Gauge constants of the nonzero components meeting every identification."""
    p = data.diagram.field.p
    comp_of, phase = {}, {}
    for pid, comp, phases in nonzero:
        for v in comp:
            comp_of[(pid, v)] = (pid, comp)
            phase[(pid, v)] = phases[v]
    parent, pot = {}, {}
    for i, j, v in links:
        a, b = (i, v), (j, v)
        if a not in comp_of or b not in comp_of:
            continue
        # rho_b - rho_a = phase_a(v) + twist(v) - phase_b(v)
        delta = (phase[a] + int(data.ident(i, j, v)) - phase[b]) % p
        ra, pa = recursive_find(parent, pot, comp_of[a], p)
        rb, pb = recursive_find(parent, pot, comp_of[b], p)
        if ra != rb:
            parent[rb] = ra
            pot[rb] = (pa + delta - pb) % p
        elif (pb - pa) % p != delta:
            return False
    return True


LABELS = "abcde"
SIMPLICES = [list(s) for n in (2, 3) for s in itertools.combinations(LABELS, n)]


@st.composite
def rank1_piece_data(draw):
    """Valid rank-1 data on 2 or 3 full subcomplexes of a random complex on five labels.

    A global cocycle (random class plus coboundary) is moved into each
    piece by a random vertex gauge; the identifications undo the gauges
    and may add a constant twist on each overlap component, kept only
    when the triple condition still holds.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    k = build_complex(draw(st.lists(st.sampled_from(SIMPLICES), max_size=7)) + [[v] for v in LABELS])
    subsets = draw(st.lists(st.sets(st.sampled_from(LABELS), min_size=1), min_size=2, max_size=3))
    diagram = glued_from_nerves({f"p{n}": full_subcomplex(k, s) for n, s in enumerate(subsets)},
                                PrimeField(p))
    field, nerve = diagram.field, diagram.nerve
    ints = st.integers(0, p - 1)
    reps = dense(cohomology(nerve, 1, field).representatives)
    cls = reps @ np.array([draw(ints) for _ in range(reps.shape[1])], dtype=np.int64)
    k0 = {v: draw(ints) for v in nerve.vertices}
    g = {e: int(c) + k0[e[0]] - k0[e[1]] for e, c in zip(nerve.simplices_of_dim(1), cls)}
    gauge = {pid: {v: draw(ints) for v in diagram.nerves[pid].vertices} for pid in diagram.piece_ids}
    cocycles = {pid: ConstantCocycle.build(diagram.nerves[pid], 1, field,
                                           {(a, b): gauge[pid][a] + g[(a, b)] - gauge[pid][b]
                                            for a, b in diagram.nerves[pid].simplices_of_dim(1)})
                for pid in diagram.piece_ids}
    untwisted, twisted = {}, {}
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        for comp in components(diagram.intersection_nerve((i, j))):
            t = draw(ints)
            for v in comp:
                untwisted.setdefault((i, j), {})[v] = (gauge[j][v] - gauge[i][v]) % p
                twisted.setdefault((i, j), {})[v] = (gauge[j][v] - gauge[i][v] + t) % p
    data = PieceBundleData(diagram, 1, cocycles, twisted)
    if not validate_piece_data(data).valid:
        data = PieceBundleData(diagram, 1, cocycles, untwisted)
    assert validate_piece_data(data).valid
    return data


@settings(max_examples=300, deadline=None)
@given(data=rank1_piece_data())
def test_glue_space_matches_the_enumeration(data):
    p = data.diagram.field.p
    untwisting = sum(parallel_sections(g).dimension for g in data.cocycles.values())
    assume(p ** untwisting <= ENUMERATION_CAP)
    assert glue_section_space(data) == enumerated_glue_section_space(data)


@settings(max_examples=300, deadline=None)
@given(data=rank1_piece_data())
def test_valid_piece_data_glue_to_a_cocycle_restricting_to_each_piece(data):
    # The colimit theorem: valid data, twisted identifications included, glue
    # to one cocycle on the union nerve, equivalent on each piece to its own.
    colimit = colimit_bundle(data.diagram, data)
    assert colimit.ok, colimit.witness
    assert validate_cocycle(colimit.cocycle).valid
    restricted = restrict_bundle(colimit.cocycle, data.diagram)
    for pid in data.diagram.piece_ids:
        assert cocycles_equivalent(restricted.cocycles[pid], data.cocycles[pid]), pid


def test_glue_space_on_seven_disjoint_edges(tmp_path):
    # 14 piece components: the coefficient enumeration would visit 2^14 tuples
    edges = [[f"e{k}", f"f{k}"] for k in range(7)]
    doc = {"field": 2, "pieces": [{"id": pid, "simplices": edges} for pid in ("p1", "p2")],
           "gluings": [{"i": "p1", "j": "p2", "pairs": [[v, v] for e in edges for v in e]}]}
    path, report = tmp_path / "seven.json", tmp_path / "report.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert main(["--report", str(report), "bundles", str(path)]) == 0
    classes = json.loads(report.read_text(encoding="utf-8"))["classes"]
    assert [(c["parallel_dim"], c["glue_space_dim"]) for c in classes] == [(7, 7)]


def test_bundles_command_solves_every_class_in_one_batch(tmp_path, monkeypatch):
    solved = []
    real = cochains.class_coordinates

    def counting(coh, values):
        solved.append(values.shape)
        return real(coh, values)

    monkeypatch.setattr(cochains, "class_coordinates", counting)
    monkeypatch.setattr(bundles, "class_coordinates", counting)
    doc = gallery_document("three_circles")
    path, report = tmp_path / "circles.json", tmp_path / "report.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert main(["--report", str(report), "bundles", str(path)]) == 0
    classes = json.loads(report.read_text(encoding="utf-8"))["classes"]
    # the classes are built from their coordinates, so none is solved for
    assert len(classes) == 8 and solved == []
    # each class has the coordinates of its own solve
    diagram = canonicalize(parse_document(doc).system)
    assert [c["class"] for c in classes] == [
        cocycle_class(g) for g in enumerate_line_bundles(diagram)]


def test_rank1_gauge_questions_make_no_elimination(count_eliminations, three_circles, two_origin):
    classes = enumerate_line_bundles(three_circles)
    pieces = [restrict_bundle(g, three_circles) for g in classes]
    twisted = materialise_bundle(two_origin, parse_document(gallery_document("two_origin_line")).bundle)
    swap = ConstantCocycle.build(two_origin.nerve, 2, F2, {("o2", "r"): [[0, 1], [1, 0]]})
    rank2 = restrict_bundle(swap, two_origin)
    calls = count_eliminations()
    class_table(classes)
    for g, data in zip(classes, pieces):
        parallel_sections(g)
        for h in classes:
            cocycles_equivalent(g, h)
        glue_section_space(data)
        for cocycle in data.cocycles.values():
            parallel_sections(cocycle)
    glue_section_space(twisted)
    assert calls == []
    glue_section_space(rank2)  # the rank-2 lane still eliminates
    assert calls


def test_bundles_command_unions_once_per_constraint_not_per_class(tmp_path, monkeypatch,
                                                                  necklace_document):
    unions = []
    real = bundles._union

    def counting(*args):
        unions.append(args[2:4])
        return real(*args)

    monkeypatch.setattr(bundles, "_union", counting)
    doc = necklace_document(6, True, tri=True)  # a ring of 6 hollow triangles: dim H^1 = 7
    path, report = tmp_path / "ring.json", tmp_path / "report.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert main(["--report", str(report), "bundles", str(path)]) == 0
    assert len(json.loads(report.read_text(encoding="utf-8"))["classes"]) == 128
    diagram = canonicalize(parse_document(doc).system)
    constraints = (len(diagram.nerve.simplices_of_dim(1))
                   + sum(len(diagram.nerves[pid].simplices_of_dim(1)) for pid in diagram.piece_ids)
                   + sum(len(diagram.intersection_nerve(t).vertices)
                         for t in itertools.combinations(diagram.piece_ids, 2)))
    assert 0 < len(unions) <= 3 * constraints


def fan_nerves(m, loops):
    """The benchmark's bundle fan: pieces P and Q of m paths l-o-r and l-u-r, and a spine S.

    S is a path through every l plus `loops` squares at s0, so the union
    is connected with dim H^1 = m + loops, and P and Q have m components.
    """
    spine = [(f"l{k}", f"s{k}") for k in range(m)] + [(f"s{k}", f"l{k + 1}") for k in range(m - 1)]
    for j in range(loops):
        spine += [("s0", f"w{j}"), (f"w{j}", f"z{j}"), (f"z{j}", f"t{j}"), ("s0", f"t{j}")]
    paths = {pid: [(f"l{k}", f"{mid}{k}") for k in range(m)] + [(f"{mid}{k}", f"r{k}") for k in range(m)]
             for pid, mid in (("P", "o"), ("Q", "u"))}
    return {pid: build_complex([sorted(e) for e in edges]) for pid, edges in {**paths, "S": spine}.items()}


def per_class_answers(diagram, g):
    """parallel_dim, round trip preserved and glue_space_dim of one cocycle, by the one-class API."""
    data = restrict_bundle(g, diagram)
    back = colimit_bundle(diagram, data)
    return (parallel_sections(g).dimension, back.ok and cocycles_equivalent(back.cocycle, g),
            glue_section_space(data))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_table_matches_the_per_class_answers(necklace, data):
    kind = data.draw(st.sampled_from(("subcomplexes", "random_admissible", "necklace", "fan")))
    if kind == "subcomplexes":
        # full subcomplexes of a random complex on five labels, often with several triangles
        k = build_complex(data.draw(st.lists(st.sampled_from(SIMPLICES), max_size=8)) + [[v] for v in LABELS])
        subsets = data.draw(st.lists(st.sets(st.sampled_from(LABELS), min_size=1), min_size=1, max_size=3))
        diagram = glued_from_nerves({f"p{n}": full_subcomplex(k, s) for n, s in enumerate(subsets)})
    elif kind == "random_admissible":
        doc = random_admissible(data.draw(st.integers(0, 10 ** 6)), n_pieces=data.draw(st.integers(1, 4)))
        diagram = canonicalize(parse_document(doc).system)
    elif kind == "necklace":
        diagram = glued_from_nerves(necklace(data.draw(st.integers(2, 5)), data.draw(st.booleans()),
                                             tri=data.draw(st.booleans())))
    else:
        nerves = fan_nerves(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)))
        if data.draw(st.booleans()):
            del nerves["S"]  # P and Q alone: one circle l-o-r-u per path, all disjoint
        diagram = glued_from_nerves(nerves)
    if 2 ** cohomology(diagram.nerve, 1, F2).dimension > ENUMERATION_CAP:
        # a random_admissible draw can pass the cap (dim H^1 = 13 at seed 2287, n = 4): refused, not enumerated
        with pytest.raises(ResourceLimit):
            enumerate_line_bundles(diagram)
        return
    reps = enumerate_line_bundles(diagram)
    if data.draw(st.booleans()):
        # Edge vectors that need not be cocycles, so some classes may fail validation.
        n_edges = len(diagram.nerve.simplices_of_dim(1))
        columns = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n_edges, max_size=n_edges),
                                     min_size=1, max_size=8))
        reps = LineBundles(diagram, reps.h1, len(columns),
                           tuple(sum(column[e] << c for c, column in enumerate(columns)) for e in range(n_edges)))
    answers = []
    for g in reps:
        try:
            answers.append(per_class_answers(diagram, g))
        except IncompatibleData as exc:
            # the batch refuses with the message of the first class that fails
            with pytest.raises(IncompatibleData) as batch:
                class_table(reps)
            assert str(batch.value) == str(exc)
            return
    table = class_table(reps)
    assert list(zip(table.parallel_dims, table.round_trips_preserved, table.glue_space_dims)) == answers
    # every column is a cocycle here: glued sections are the parallel ones, counted independently
    assert table.glue_space_dims == table.parallel_dims == tuple(signed_kernel_dim(g) for g in reps)


def test_class_table_refuses_with_the_first_invalid_class():
    diagram = glued_from_nerves({"p1": build_complex([["a", "b", "c"]]), "p2": build_complex([["b", "c", "d"]])})
    edges = diagram.nerve.simplices_of_dim(1)
    # class 0 is a cocycle; class 1 breaks the triangle of p2, class 2 the triangle of p1
    columns = [[int(e in twisted) for e in edges] for twisted in ((), (("c", "d"),), (("a", "b"),))]
    reps = LineBundles(diagram, enumerate_line_bundles(diagram).h1, len(columns),
                       tuple(sum(column[e] << c for c, column in enumerate(columns)) for e in range(len(edges))))
    with pytest.raises(IncompatibleData) as scalar:
        colimit_bundle(diagram, restrict_bundle(reps[1], diagram))
    with pytest.raises(IncompatibleData) as batch:
        class_table(reps)
    assert str(batch.value) == str(scalar.value) == \
        "piece data invalid: ('p2', ('b', 'c', 'd'), 'triangle identity fails')"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_inequivalent_classes_masks_each_class_by_its_own_gauge_search(data):
    # Two cocycles of class bitsets on a random base: bit c of the mask is class c's verdict alone.
    base = build_complex(data.draw(st.lists(st.sampled_from(SIMPLICES), max_size=6)) + [[v] for v in LABELS])
    edges = base.simplices_of_dim(1)
    n = data.draw(st.integers(1, 6))
    bitsets = st.lists(st.integers(0, 2 ** n - 1), min_size=len(edges), max_size=len(edges))
    g, h = (ConstantCocycle(base, 1, F2, dict(zip(edges, data.draw(bitsets)))) for _ in range(2))
    mask = bundles._inequivalent_classes(g, h)
    assert mask >> n == 0
    for c in range(n):
        g_c, h_c = (ConstantCocycle(base, 1, F2, {e: x.values[e] >> c & 1 for e in edges}) for x in (g, h))
        assert (mask >> c & 1) == (not brute_equivalent(g_c, h_c)), c


def test_exhaustive_two_origin_oracle(two_origin):
    """Criterion-1 oracle: enumerate all 16 cochains and all 16 gauges."""
    base = two_origin.nerve
    cocycles = list(all_rank1_cocycles(base))
    classes: list[list[ConstantCocycle]] = []
    for g in cocycles:
        for bucket in classes:
            if brute_equivalent(g, bucket[0]):
                bucket.append(g)
                break
        else:
            classes.append([g])
    assert len(classes) == 2
    assert sorted(len(b) for b in classes) == [8, 8]
    dims = sorted(parallel_sections(b[0]).dimension for b in classes)
    assert dims == [0, 1]
    reps = enumerate_line_bundles(two_origin)
    for rep in reps:
        assert sum(brute_equivalent(rep, b[0]) for b in classes) == 1


def recursive_find(parent, pot, node, p):
    """The recursive union-find lookup that _find replaced, as a reference."""
    if node not in parent:
        parent[node] = node
        pot[node] = 0
    if parent[node] == node:
        return node, 0
    rep, rep_pot = recursive_find(parent, pot, parent[node], p)
    pot[node] = (pot[node] + rep_pot) % p
    parent[node] = rep
    return rep, pot[node]


def test_find_resolves_a_long_parent_chain():
    n = 5000
    parent = {i: i + 1 for i in range(n)}
    parent[n] = n
    pot = {i: 1 for i in range(n)}
    pot[n] = 0
    assert _find(parent, pot, 0, 7) == (n, n % 7)
    assert parent[0] == n and pot[0] == n % 7
    assert _find(parent, pot, 2500, 7) == (n, 2500 % 7)
    assert _find(parent, pot, "new", 7) == ("new", 0)


@settings(max_examples=100, deadline=None)
@given(links=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 4)), min_size=10, max_size=10),
       queries=st.lists(st.integers(0, 11), max_size=12), p=st.sampled_from((2, 3, 5)))
def test_find_matches_the_recursive_lookup(links, queries, p):
    # node i points at a later node (or itself when the draw is not later)
    parent = {i: max(i, j) for i, (j, _) in enumerate(links)}
    pot = {i: (w if parent[i] != i else 0) for i, (_, w) in enumerate(links)}
    ref_parent, ref_pot = dict(parent), dict(pot)
    for node in queries:
        assert _find(parent, pot, node, p) == recursive_find(ref_parent, ref_pot, node, p)
        assert (parent, pot) == (ref_parent, ref_pot)


@pytest.mark.parametrize("rank, p", ((1, 5), (2, 2), (2, 3), (3, 2)))
def test_gl_order_counts_the_invertible_matrices(rank, p):
    assert gl_order(rank, p) == len(all_invertible(rank, p))
