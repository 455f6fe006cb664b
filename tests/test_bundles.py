import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit.bundles import (
    ConstantCocycle,
    IncompatibleSections,
    NonAbelianRank,
    PieceBundleData,
    TwistedSection,
    WrongField,
    _find,
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
from cechkit.complexes import build_complex
from cechkit.documents import materialise_bundle, parse_document
from cechkit.fplinalg import F2, FMatrix, PrimeField
from cechkit.gallery import gallery_document


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
    return FMatrix(m, field3).rank_nullity()[1]


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
    assert not cocycle_class(trivial).any()
    twisted = ConstantCocycle.build(base, 1, F2, {("o2", "r"): 1})
    assert cocycle_class(twisted).tolist() == [1]
    # brute force: no vertex gauge trivialises the twisted cocycle
    assert not brute_equivalent(twisted, trivial)


def test_cocycle_class_constant_on_gauge_orbits_and_separating():
    base = cycle4()
    cocycles = list(all_rank1_cocycles(base))
    for g in cocycles:
        for h in cocycles:
            same_class = (cocycle_class(g) == cocycle_class(h)).all()
            assert same_class == brute_equivalent(g, h)
            assert same_class == cocycles_equivalent(g, h)


def test_cocycle_class_rejects_higher_rank():
    edge = build_complex([["a", "b"]])
    g = ConstantCocycle.build(edge, 2, F2)
    with pytest.raises(NonAbelianRank):
        cocycle_class(g)


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


def test_colimit_two_origin_identifications(two_origin):
    doc = gallery_document("two_origin_line")
    parsed = parse_document(doc)
    data = materialise_bundle(two_origin, parsed.bundle)
    assert validate_piece_data(data).valid
    result = colimit_bundle(two_origin, data)
    assert result.ok
    assert cocycle_class(result.cocycle).tolist() == [1]
    # identity identifications land in the trivial class
    trivial_data = PieceBundleData(two_origin, 1, data.cocycles, {})
    result2 = colimit_bundle(two_origin, trivial_data)
    assert result2.ok
    assert not cocycle_class(result2.cocycle).any()


def test_colimit_agreeing_pieces_is_union(two_origin):
    g = enumerate_line_bundles(two_origin)[1]
    data = restrict_bundle(g, two_origin)
    result = colimit_bundle(two_origin, data)
    assert result.ok
    assert result.cocycle.same_values(g)


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
    assert cocycles_equivalent(back.cocycle, g)


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
