"""cechkit against `reference`, its quantities computed from their definitions.

Layouts (phi*, the difference maps, the bicomplex's total differentials,
tuple pullbacks, the rank-k section systems), the cochain builders, and
everything read from classes (representatives, descended ranks, fibred
products, induced maps and the connecting map) must equal the
reference's, entry for entry.  Structural checks ride along: no product
when a side has no classes, a stray tuple or a stray phi* is caught, and
the section systems are built once each.
"""

import ast
import contextlib
import io
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import reference
from conftest import GALLERY_CASES, necklace_nerves
from dense import dense, equal, matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import bundles, cli, mv, refinements
from cechkit.bundles import ConstantCocycle, PieceBundleData, glue_section_space, parallel_sections
from cechkit.cochains import coboundary_matrix, cohomology, induced_on_cohomology, pullback_map, restriction_matrix
from cechkit.complexes import EMPTY_COMPLEX, SimplicialComplex, build_complex, components, full_subcomplex
from cechkit.diagrams import canonicalize, glued_from_nerves
from cechkit.documents import materialise_refinement, parse_document
from cechkit.fplinalg import MAX_PRIME, FMatrix, PrimeField
from cechkit.gallery import gallery_document, random_admissible
from cechkit.mv import connecting_homomorphism, descended_rank, fibred_product, inductive_fibred_dim
from cechkit.refinements import RefinementMap, validate_refinement


def foreign_imports(tree: ast.AST) -> set[str]:
    """Each module imported anywhere in the tree that is neither numpy nor in the standard library, and each
    relative import or dynamic import."""
    found: set[str] = set()
    allowed = sys.stdlib_module_names - {"importlib"} | {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] not in allowed)
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] not in allowed:
                found.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Name) and node.id == "__import__":
            found.add("__import__")
    return found


def test_the_reference_imports_only_numpy_and_the_standard_library():
    # the reference is independent only while it shares no cechkit code, the elimination kernel least of all
    assert foreign_imports(ast.parse("import numpy as np\nimport itertools\nfrom collections import abc\n")) == set()
    assert foreign_imports(ast.parse("import itertools\ndef f():\n    from cechkit.fplinalg import rref\n")) == {
        "cechkit.fplinalg"}
    assert foreign_imports(ast.parse("import cechkit\nfrom . import dense\nimport importlib\n__import__('x')")) == {
        "cechkit", ".", "importlib", "__import__"}
    source = Path(reference.__file__).read_text(encoding="utf-8")
    assert foreign_imports(ast.parse(source)) == set()


def random_label_map(data, diagram):
    """One label sent to itself or a neighbour in the union nerve; the identity if that is not a refinement."""
    identity = {v: v for v in diagram.nerve.vertices}
    if not identity:
        return RefinementMap(diagram, diagram, identity)
    v = data.draw(st.sampled_from(diagram.nerve.vertices))
    u = data.draw(st.sampled_from([v] + [w for e in diagram.nerve.simplices_of_dim(1) if v in e for w in e]))
    r = RefinementMap(diagram, diagram, {**identity, v: u})
    return r if validate_refinement(r).valid else RefinementMap(diagram, diagram, identity)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_layouts_match_the_reference(necklace, data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    kind = data.draw(st.sampled_from(("random_admissible", "necklace", "gallery")))
    refinement = None
    if kind == "random_admissible":
        doc = random_admissible(data.draw(st.integers(0, 10 ** 6)), field=p, n_pieces=data.draw(st.integers(1, 5)))
        diagram = canonicalize(parse_document(doc).system)
    elif kind == "necklace":
        diagram = glued_from_nerves(necklace(data.draw(st.integers(2, 6)), data.draw(st.booleans()),
                                             tri=data.draw(st.booleans())), PrimeField(p))
    else:
        name, kwargs = data.draw(st.sampled_from(GALLERY_CASES))
        parsed = parse_document(gallery_document(name, field=p, **kwargs))
        diagram = canonicalize(parsed.system)
        if parsed.refinement is not None:
            refinement = materialise_refinement(diagram, parsed.refinement, diagram.field)
    if refinement is None:
        refinement = random_label_map(data, diagram)

    n = diagram.n_pieces
    for size in range(1, n + 1):
        level = diagram.level(size)
        assert list(level) == list(reference.level(diagram, size))
        assert all(nerve.simplices == reference.level(diagram, size)[t] for t, nerve in level.items())
    for q in range(diagram.nerve.dim + 2):
        assert equal(mv.phi_star(diagram, q), reference.phi_star(diagram, q, p))
        for level in range(1, n):
            assert equal(mv.delta_tilde(diagram, level, q), reference.delta_tilde(diagram, level, q, p))
        assert equal(refinements._pullback(refinement, 0, q),
                     reference.pullback(refinement.labels, refinement.fine.nerve, refinement.coarse.nerve, q, p))
        for level in range(1, refinement.fine.n_pieces + 1):
            assert equal(refinements._pullback(refinement, level, q), reference.tuple_pullback(refinement, level, q, p))
    total = mv._total_differentials(diagram)
    want = reference.total_differentials(diagram, p)
    assert len(total) == len(want)
    assert all(equal(a, b) for a, b in zip(total, want))


def sparse_support_diagram(kind, p):
    """A document with many nonempty index sets whose nerve has no edge: each intersection of two or more pieces of
    branching_line_n (n = 8) is one vertex, as is each meeting pair of a ring of 8 circles, whose triples are empty."""
    if kind == "branching_line_n":
        return canonicalize(parse_document(gallery_document("branching_line_n", field=p, n=8)).system)
    return glued_from_nerves(necklace_nerves(8, True), PrimeField(p))


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("kind", ("branching_line_n", "ring"))
def test_level_maps_over_sparse_supports_match_the_reference(kind, p):
    diagram = sparse_support_diagram(kind, p)
    n = diagram.n_pieces
    assert diagram.level(2) and not any(k.simplices_of_dim(1) for k in diagram.level(2).values())
    for q in range(diagram.nerve.dim + 2):
        assert equal(mv.phi_star(diagram, q), reference.phi_star(diagram, q, p))
        for level in range(1, n):
            assert equal(mv.delta_tilde(diagram, level, q), reference.delta_tilde(diagram, level, q, p))
    total = mv._total_differentials(diagram)
    want = reference.total_differentials(diagram, p)
    assert len(total) == len(want)
    assert all(equal(a, b) for a, b in zip(total, want))
    for level in range(1, n):
        assert descended_rank(diagram, level, 1) == reference.descended_rank(diagram, level, 1, p)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("kind", ("branching_line_n", "ring"))
def test_memoised_readings_of_each_nerve_equal_fresh_ones(kind, p):
    """Each nerve of each level read twice, the second time from what the first kept on it."""
    diagram = sparse_support_diagram(kind, p)
    for _ in range(2):
        for size in range(1, diagram.n_pieces + 1):
            for k in diagram.level(size).values():
                for q in range(k.dim + 2):
                    assert cohomology(k, q, diagram.field).dimension == reference.betti(k, q, p)
                assert components(k) == components(SimplicialComplex(k.simplices))


LABELS = "abcde"
SIMPLICES = [list(s) for n in (2, 3) for s in itertools.combinations(LABELS, n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank2_section_systems_match_the_reference(data):
    """Random rank-2 transitions and identifications, invertible or not: the systems need no cocycle."""
    p = data.draw(st.sampled_from((2, 3)))
    field = PrimeField(p)
    k = build_complex(data.draw(st.lists(st.sampled_from(SIMPLICES), max_size=7)) + [[v] for v in LABELS])
    subsets = data.draw(st.lists(st.sets(st.sampled_from(LABELS), min_size=1), min_size=1, max_size=3))
    diagram = glued_from_nerves({f"p{n}": full_subcomplex(k, s) for n, s in enumerate(subsets)}, field)
    matrices = st.lists(st.integers(0, p - 1), min_size=4, max_size=4).map(lambda x: np.reshape(x, (2, 2)))
    transitions = {pid: {e: data.draw(matrices) for e in nerve.simplices_of_dim(1)}
                   for pid, nerve in diagram.nerves.items()}
    cocycles = {pid: ConstantCocycle.build(diagram.nerves[pid], 2, field, values)
                for pid, values in transitions.items()}
    identifications = {}
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        shared = diagram.intersection_nerve((i, j)).vertices
        identifications[(i, j)] = {v: data.draw(matrices) for v in shared if data.draw(st.booleans())}
    piece_data = PieceBundleData(diagram, 2, cocycles, identifications)

    built = []
    real = bundles._section_system

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(bundles, "_section_system", recording):
        glue_dim = glue_section_space(piece_data)
        sections = {pid: parallel_sections(g).basis for pid, g in cocycles.items()}
    assert len(built) == 1 + len(cocycles)
    glue_system = reference.glue_system(diagram, 2, transitions, identifications, p)
    assert equal(built[0], glue_system) and glue_dim == glue_system.shape[1] - reference.rank(glue_system, p)
    for (pid, g), system in zip(cocycles.items(), built[1:]):
        want = reference.parallel_system(g.base, 2, transitions[pid], p)
        assert equal(system, want)
        kernel = reference.kernel(want, p)
        assert len(sections[pid]) == kernel.shape[1]
        for j, section in enumerate(sections[pid]):
            for i, v in enumerate(g.base.vertices):
                assert equal(section.values[v], kernel[2 * i:2 * i + 2, j:j + 1])


COCHAIN_LABELS = "abcde"
COCHAIN_SIMPLICES = [s for n in (1, 2, 3, 4) for s in itertools.combinations(COCHAIN_LABELS, n)]
DOMAIN_LABELS = "uvwxyz"
DOMAIN_SIMPLICES = [s for n in (1, 2, 3, 4) for s in itertools.combinations(DOMAIN_LABELS, n)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cochain_builders_match_the_reference(data):
    """d, restriction and the simplicial pullback on random complexes, the empty one included, in every
    degree up to two above the top: over 65521 the sign -1 is 65520."""
    p = data.draw(st.sampled_from((2, 3, 5, 65521)))
    field = PrimeField(p)
    k = build_complex(data.draw(st.lists(st.sampled_from(COCHAIN_SIMPLICES), max_size=8)))
    l = build_complex(data.draw(st.lists(st.sampled_from(sorted(k.simplices)), max_size=5))) if k.simplices \
        else EMPTY_COMPLEX
    # a vertex map into k, and the largest subcomplex of a random domain on which it is simplicial
    vertex_map = {v: data.draw(st.sampled_from(k.vertices)) for v in DOMAIN_LABELS} if k.vertices else {}
    candidate = build_complex(data.draw(st.lists(st.sampled_from(DOMAIN_SIMPLICES), max_size=8)))
    domain = SimplicialComplex(frozenset(s for s in candidate.simplices if vertex_map
                                         and tuple(sorted({vertex_map[v] for v in s})) in k))
    for q in range(max(k.dim, domain.dim, 0) + 3):
        assert equal(coboundary_matrix(k, q, field), reference.coboundary(k, q, p))
        assert equal(coboundary_matrix(domain, q, field), reference.coboundary(domain, q, p))
        assert equal(restriction_matrix(k, l, q, field), reference.restriction(k, l, q, p))
        assert equal(pullback_map(vertex_map, domain, k, q, field), reference.pullback(vertex_map, domain, k, q, p))


FIELDS = (2, 3, 5, MAX_PRIME)


def fibred_entry(diagram, degree):
    """fibred's report entry for one degree, from the command's own handler."""
    report = {"verdicts": {}}
    with contextlib.redirect_stdout(io.StringIO()):
        cli._cmd_fibred(SimpleNamespace(q=degree), None, diagram, report)
    return report["degrees"][0]


def outcome(read, *args):
    """What a descent gives: its entries, or the ValueError it raises."""
    try:
        m = read(*args)
    except ValueError:
        return "not a cocycle"
    return m.shape, m.tolist()


def leaves_kernel(m, tuples, field):
    """tuples with column 0 replaced by a unit vector outside ker m, or None when there is none."""
    hit = [j for j in range(m.cols) if any(m.column(j))]
    if not hit or not tuples.cols:
        return None
    a = dense(tuples)
    a[:, 0] = 0
    a[hit[0], 0] = 1
    return matrix(a, field)


def products_in(fn, *args):
    """fn(*args) and the number of matrix products it took."""
    calls = []
    real = FMatrix.__matmul__

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    with mock.patch.object(FMatrix, "__matmul__", counted):
        value = fn(*args)
    return value, len(calls)


def has_classes(nerves, q, p):
    return any(reference.dimension(k, q, p) for k in nerves)


def check_document(doc, rng):
    diagram = canonicalize(parse_document(doc).system)
    field = diagram.field
    p = field.p
    degrees = range(max(diagram.nerve.dim, 0) + 2)
    for q in degrees:
        for level in range(1, diagram.n_pieces):
            got, products = products_in(descended_rank, diagram, level, q)
            assert got == reference.descended_rank(diagram, level, q, p), (level, q)
            if not (has_classes(diagram.level(level).values(), q, p)
                    and has_classes(diagram.level(level + 1).values(), q, p)):
                # no classes on one side: nothing is built or multiplied
                assert got == 0 and products == 0, (level, q)

        fp = fibred_product(diagram, q)
        basis = reference.fibred_basis(diagram, q, p)
        assert fp.dimension == basis.shape[1], q
        entry = fibred_entry(diagram, q)
        two_step, inductive = inductive_fibred_dim(diagram, q)
        assert entry["fibred_dim"] == basis.shape[1]
        assert entry["inductive_matches"] is True
        assert two_step == basis.shape[1] and reference.span_equal(basis, dense(inductive), p)
        if diagram.n_pieces > 1:
            d1 = mv.delta_tilde(diagram, 1, q)
            # a tuple that disagrees on an overlap: the span check and the check on phi_star both see it
            stray = leaves_kernel(d1, inductive, field)
            if stray is not None:
                with mock.patch.object(cli, "inductive_fibred_dim", lambda d, q: (two_step, stray)):
                    assert fibred_entry(diagram, q)["inductive_matches"] is False
                assert not reference.span_equal(basis, dense(stray), p)
            stray = leaves_kernel(d1, mv.phi_star(diagram, q), field)
            if stray is not None:
                with mock.patch.object(cli, "phi_star", lambda d, q: stray):
                    assert fibred_entry(diagram, q)["matches_phi"] is False
                assert reference.rank(np.hstack([basis, dense(stray)]), p) > basis.shape[1]

        # descents of chain maps and of random maps, single blocks and direct sums, a zero H^q on a side or not
        pieces, pairs = list(diagram.level(1).values()), list(diagram.level(2).values())
        descents = [(restriction_matrix(diagram.nerve, k, q, field), [diagram.nerve], [k]) for k in pieces]
        descents += [(restriction_matrix(k, n, q, field), [k], [n]) for k in pieces for n in pairs
                     if n.is_subcomplex_of(k)]
        if pairs:
            descents.append((mv.delta_tilde(diagram, 1, q), pieces, pairs))
        for m, src, tgt in list(descents):
            descents.append((matrix(rng.integers(0, p, size=m.shape), field), src, tgt))
        for m, src, tgt in descents:
            want = outcome(reference.induced, dense(m), [(k, q) for k in src], [(k, q) for k in tgt], p)
            got = outcome(induced_on_cohomology, m, [cohomology(k, q, field) for k in src],
                          [cohomology(k, q, field) for k in tgt])
            assert got == want, q

        if diagram.n_pieces == 2:
            assert equal(connecting_homomorphism(diagram, q), reference.connecting(diagram, q, p)), q


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("name, kwargs", GALLERY_CASES + [
    # seeds whose descended H^1 ranks are not 0 at every level (16, 24, 27) or at level 1 (3, 19)
    ("random_admissible", {"seed": seed}) for seed in (3, 16, 19, 24, 27)])
def test_rank_paths_match_the_reference(name, kwargs, p):
    check_document(gallery_document(name, field=p, **kwargs), np.random.default_rng(p))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from((None, 2, 3, 4)), p=st.sampled_from(FIELDS))
def test_rank_paths_match_the_reference_on_random_documents(seed, n, p):
    check_document(gallery_document("random_admissible", field=p, n=n, seed=seed), np.random.default_rng(seed))


@pytest.mark.parametrize("p", FIELDS)
def test_a_descent_into_a_zero_h1_still_checks_its_cocycles(p):
    field = PrimeField(p)
    circle = build_complex([["a", "b"], ["b", "c"], ["a", "c"]])
    disk = build_complex([["a", "b", "c"]])
    source, target = cohomology(circle, 1, field), cohomology(disk, 1, field)
    assert (source.dimension, target.dimension) == (1, 0)
    # the class goes to the edge (a, b) of the disk, whose coboundary is the triangle: no cocycle
    j = next(j for j, v in enumerate(source.representatives.column(0)) if v)
    stray = FMatrix([[int(r == 0 and c == j) for c in range(3)] for r in range(3)], field)
    with pytest.raises(ValueError, match="not a cocycle"):
        induced_on_cohomology(stray, source, target)
    with pytest.raises(ValueError, match="not a cocycle"):
        reference.induced(dense(stray), [(circle, 1)], [(disk, 1)], p)
    # the zero map is a chain map: the zero map on H^1, a 0 x 1 matrix
    assert induced_on_cohomology(FMatrix.zeros(3, 3, field), source, target).shape == (0, 1)
