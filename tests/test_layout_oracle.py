"""The block and entry layouts that fplinalg.block_matrix replaced, as references.

Each reference below is the hand-written offset loop that built the
matrix before `block_matrix` and `entry_matrix` owned layout: the
concatenated restriction phi*, the difference maps, the bicomplex total
differentials, the blockwise refinement pullbacks and the rank-k section
systems.  The coboundary, restriction and simplicial pullback references
are the numpy constructions that built those three from broadcast index
arrays before they were built from (row, column, value) triples.  The
package's matrices must equal them entry for entry.
"""

import itertools
from unittest import mock

import numpy as np
from dense import dense, matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import bundles, mv, refinements
from cechkit.bundles import ConstantCocycle, PieceBundleData, glue_section_space, parallel_sections
from cechkit.cochains import coboundary_matrix, pullback_map, restriction_matrix
from cechkit.complexes import EMPTY_COMPLEX, SimplicialComplex, build_complex, full_subcomplex
from cechkit.diagrams import canonicalize, glued_from_nerves
from cechkit.documents import materialise_refinement, parse_document
from cechkit.fplinalg import PrimeField
from cechkit.gallery import gallery_document, random_admissible
from cechkit.refinements import RefinementMap, validate_refinement

GALLERY = (("two_origin_line", {}), ("branching_line_n", {"n": 2}), ("branching_line_n", {"n": 3}),
           ("bug_eyed_circle", {}), ("three_circles", {}))


def block_diagonal(blocks, field):
    m = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for block in blocks:
        h, w = block.shape
        m[r:r + h, c:c + w] = block
        r, c = r + h, c + w
    return matrix(m, field)


def level_offsets(nerves, degree):
    """Each index set's first coordinate in the level's cochains, and the level's dimension."""
    offsets = {}
    pos = 0
    for t, nerve in nerves.items():
        offsets[t] = pos
        pos += len(nerve.simplices_of_dim(degree))
    return offsets, pos


def reference_phi_star(diagram, degree):
    field = diagram.field
    src_dim = len(diagram.nerve.simplices_of_dim(degree))
    m = np.vstack([np.zeros((0, src_dim), dtype=np.int64)]
                  + [dense(restriction_matrix(diagram.nerve, nerve, degree, field))
                     for nerve in diagram.level(1).values()])
    return matrix(m, field)


def reference_delta_tilde(diagram, level, degree):
    field = diagram.field
    src, tgt = diagram.level(level), diagram.level(level + 1)
    src_offsets, src_dim = level_offsets(src, degree)
    tgt_offsets, tgt_dim = level_offsets(tgt, degree)
    m = np.zeros((tgt_dim, src_dim), dtype=np.int64)
    for t_prime, tgt_nerve in tgt.items():
        row = tgt_offsets[t_prime]
        for a in range(len(t_prime)):
            t = t_prime[:a] + t_prime[a + 1:]
            res = dense(restriction_matrix(src[t], tgt_nerve, degree, field))
            col = src_offsets[t]
            h, w = len(tgt_nerve.simplices_of_dim(degree)), len(src[t].simplices_of_dim(degree))
            m[row:row + h, col:col + w] += (-1) ** (a + 1) * res
    return matrix(m, field)


def reference_total_differentials(diagram):
    field = diagram.field
    n_cols = diagram.n_pieces
    q_top = max(diagram.nerve.dim, 0)
    levels = {p: diagram.level(p + 1) for p in range(n_cols)}

    def total_blocks(k):
        return [(p, k - p) for p in range(n_cols) if 0 <= k - p <= q_top + 1]

    def block_dim(p, q):
        return level_offsets(levels[p], q)[1]

    def total_dim(k):
        return sum(block_dim(*b) for b in total_blocks(k))

    k_max = n_cols - 1 + q_top + 1
    differentials = []
    for k in range(k_max + 1):
        tgt_off = {}
        pos = 0
        for b in total_blocks(k + 1):
            tgt_off[b] = pos
            pos += block_dim(*b)
        m = np.zeros((total_dim(k + 1), total_dim(k)), dtype=np.int64)
        col = 0
        for (p, q) in total_blocks(k):
            src_dim = block_dim(p, q)
            if p + 1 < n_cols and (p + 1, q) in tgt_off:
                horiz = dense(reference_delta_tilde(diagram, p + 1, q))
                r = tgt_off[(p + 1, q)]
                m[r:r + horiz.shape[0], col:col + src_dim] += horiz
            if (p, q + 1) in tgt_off:
                vert = dense(block_diagonal([dense(coboundary_matrix(nerve, q, field))
                                             for nerve in levels[p].values()], field))
                r = tgt_off[(p, q + 1)]
                m[r:r + vert.shape[0], col:col + src_dim] += ((-1) ** p) * vert
            col += src_dim
        differentials.append(matrix(m, field))
    return differentials


def reference_tuple_pullback(r, level, degree):
    return block_diagonal([
        dense(pullback_map(r.labels, r.fine.intersection_nerve(t), nerve, degree, r.fine.field))
        for t, nerve in r.coarse.level(level).items()], r.fine.field)


def numpy_entry_matrix(shape, rows, cols, values, field):
    """values[i] at (rows[i], cols[i]), the three arrays broadcast together as in numpy indexing."""
    m = np.zeros(shape, dtype=np.int64)
    r, c, v = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (rows, cols, values)))
    m[r.ravel(), c.ravel()] = v.ravel()
    return matrix(m, field)


def simplex_index(k, q):
    return {s: i for i, s in enumerate(k.simplices_of_dim(q))}


def reference_coboundary(k, q, field):
    src, tgt = simplex_index(k, q), k.simplices_of_dim(q + 1)
    width = q + 2
    faces = np.array([src[sigma[:i] + sigma[i + 1:]] for sigma in tgt for i in range(width)],
                     dtype=np.int64).reshape(len(tgt), width)
    signs = [(-1) ** i for i in range(width)]
    return numpy_entry_matrix((len(tgt), len(src)), np.arange(len(tgt))[:, None], faces, signs, field)


def reference_restriction(k, l, q, field):
    src, tgt = simplex_index(k, q), l.simplices_of_dim(q)
    return numpy_entry_matrix((len(tgt), len(src)), np.arange(len(tgt)), [src[s] for s in tgt], 1, field)


def reference_pullback(vertex_map, domain, codomain, q, field):
    src, tgt = simplex_index(codomain, q), domain.simplices_of_dim(q)
    rows, cols, signs = [], [], []
    for row, tau in enumerate(tgt):
        images = tuple(vertex_map[v] for v in tau)
        if len(set(images)) == len(images):
            rows.append(row)
            cols.append(src[tuple(sorted(images))])
            signs.append((-1) ** sum(a > b for a, b in itertools.combinations(images, 2)))
    return numpy_entry_matrix((len(tgt), len(src)), rows, cols, signs, field)


def reference_parallel_system(cocycle):
    k = cocycle.rank
    vs = cocycle.base.vertices
    offset = {v: i * k for i, v in enumerate(vs)}
    edges = cocycle.base.simplices_of_dim(1)
    m = np.zeros((len(edges) * k, len(vs) * k), dtype=np.int64)
    for r, (a, b) in enumerate(edges):
        m[r * k:(r + 1) * k, offset[a]:offset[a] + k] += np.eye(k, dtype=np.int64)
        m[r * k:(r + 1) * k, offset[b]:offset[b] + k] -= dense(cocycle.values[(a, b)])
    return matrix(m, cocycle.field)


def reference_glue_system(data):
    diagram = data.diagram
    rank = data.rank
    offsets = {}
    pos = 0
    for pid in diagram.piece_ids:
        for v in diagram.nerves[pid].vertices:
            offsets[(pid, v)] = pos
            pos += rank
    rows = []
    for pid in diagram.piece_ids:
        g = data.cocycles[pid]
        for a, b in diagram.nerves[pid].simplices_of_dim(1):
            row = np.zeros((rank, pos), dtype=np.int64)
            row[:, offsets[(pid, a)]:offsets[(pid, a)] + rank] += np.eye(rank, dtype=np.int64)
            row[:, offsets[(pid, b)]:offsets[(pid, b)] + rank] -= dense(g.values[(a, b)])
            rows.append(row)
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        for v in diagram.intersection_nerve((i, j)).vertices:
            row = np.zeros((rank, pos), dtype=np.int64)
            row[:, offsets[(j, v)]:offsets[(j, v)] + rank] += np.eye(rank, dtype=np.int64)
            row[:, offsets[(i, v)]:offsets[(i, v)] + rank] -= dense(data.ident(i, j, v))
            rows.append(row)
    return matrix(np.vstack(rows) if rows else np.zeros((0, pos), dtype=np.int64), diagram.field)


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
def test_block_layouts_equal_the_offset_loops(necklace, data):
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
        name, kwargs = data.draw(st.sampled_from(GALLERY))
        parsed = parse_document(gallery_document(name, field=p, **kwargs))
        diagram = canonicalize(parsed.system)
        if parsed.refinement is not None:
            refinement = materialise_refinement(diagram, parsed.refinement, diagram.field)
    if refinement is None:
        refinement = random_label_map(data, diagram)

    n = diagram.n_pieces
    for q in range(diagram.nerve.dim + 2):
        assert mv.phi_star(diagram, q).equals(reference_phi_star(diagram, q))
        for level in range(1, n):
            assert mv.delta_tilde(diagram, level, q).equals(reference_delta_tilde(diagram, level, q))
        for level in range(1, refinement.fine.n_pieces + 1):
            assert refinements._tuple_pullback(refinement, level, q).equals(
                reference_tuple_pullback(refinement, level, q))
    total = mv._total_differentials(diagram)
    reference = reference_total_differentials(diagram)
    assert len(total) == len(reference)
    assert all(a.equals(b) for a, b in zip(total, reference))


LABELS = "abcde"
SIMPLICES = [list(s) for n in (2, 3) for s in itertools.combinations(LABELS, n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank2_section_systems_equal_the_offset_loops(data):
    """Random rank-2 transitions and identifications, invertible or not: the systems need no cocycle."""
    field = PrimeField(data.draw(st.sampled_from((2, 3))))
    k = build_complex(data.draw(st.lists(st.sampled_from(SIMPLICES), max_size=7)) + [[v] for v in LABELS])
    subsets = data.draw(st.lists(st.sets(st.sampled_from(LABELS), min_size=1), min_size=1, max_size=3))
    diagram = glued_from_nerves({f"p{n}": full_subcomplex(k, s) for n, s in enumerate(subsets)}, field)
    matrices = st.lists(st.integers(0, field.p - 1), min_size=4, max_size=4).map(lambda x: np.reshape(x, (2, 2)))
    cocycles = {pid: ConstantCocycle.build(nerve, 2, field, {e: data.draw(matrices)
                                                             for e in nerve.simplices_of_dim(1)})
                for pid, nerve in diagram.nerves.items()}
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
    glue_system = reference_glue_system(piece_data)
    assert built[0].equals(glue_system) and glue_dim == glue_system.rank_nullity()[1]
    for (pid, g), system in zip(cocycles.items(), built[1:]):
        reference = reference_parallel_system(g)
        assert system.equals(reference)
        kernel = reference.kernel_basis()
        assert len(sections[pid]) == kernel.cols
        for j, section in enumerate(sections[pid]):
            for i, v in enumerate(g.base.vertices):
                assert section.values[v].equals(kernel[2 * i:2 * i + 2, j:j + 1])


COCHAIN_LABELS = "abcde"
COCHAIN_SIMPLICES = [s for n in (1, 2, 3, 4) for s in itertools.combinations(COCHAIN_LABELS, n)]
DOMAIN_LABELS = "uvwxyz"
DOMAIN_SIMPLICES = [s for n in (1, 2, 3, 4) for s in itertools.combinations(DOMAIN_LABELS, n)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cochain_builders_equal_the_numpy_constructions(data):
    """d, restriction and the simplicial pullback on random complexes, the empty one included, in every
    degree up to two above the top: over 65521 the sign -1 is 65520."""
    field = PrimeField(data.draw(st.sampled_from((2, 3, 5, 65521))))
    k = build_complex(data.draw(st.lists(st.sampled_from(COCHAIN_SIMPLICES), max_size=8)))
    l = build_complex(data.draw(st.lists(st.sampled_from(sorted(k.simplices)), max_size=5))) if k.simplices \
        else EMPTY_COMPLEX
    # a vertex map into k, and the largest subcomplex of a random domain on which it is simplicial
    vertex_map = {v: data.draw(st.sampled_from(k.vertices)) for v in DOMAIN_LABELS} if k.vertices else {}
    candidate = build_complex(data.draw(st.lists(st.sampled_from(DOMAIN_SIMPLICES), max_size=8)))
    domain = SimplicialComplex(frozenset(s for s in candidate.simplices if vertex_map
                                         and tuple(sorted({vertex_map[v] for v in s})) in k))
    for q in range(max(k.dim, domain.dim, 0) + 3):
        assert coboundary_matrix(k, q, field).equals(reference_coboundary(k, q, field))
        assert coboundary_matrix(domain, q, field).equals(reference_coboundary(domain, q, field))
        assert restriction_matrix(k, l, q, field).equals(reference_restriction(k, l, q, field))
        assert pullback_map(vertex_map, domain, k, q, field).equals(
            reference_pullback(vertex_map, domain, k, q, field))
