"""Simplicial maps read by index, against what the public API defines.

A restriction onto an overlap and a simplicial pullback send each simplex
to at most one simplex, so `inductive_fibred_dim` gathers rows and adds
unit columns with no elimination, and `naturality_check` reads every
pullback off one image table and every coboundary square off the union
nerves' rows.
These tests hold both to the definitions: the inductive product against
`reference.fibred_basis`, and each coboundary square's verdict against
the matrix identity on its own N_T, built from the table and
`coboundary_matrix`, for valid label maps and for tables with one entry
broken.
"""

import pytest
import reference
from conftest import GALLERY_CASES
from dense import dense
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit.cochains import coboundary_matrix
from cechkit.diagrams import canonicalize, glued_from_nerves
from cechkit.documents import materialise_refinement, parse_document
from cechkit.fplinalg import entry_matrix
from cechkit.gallery import gallery_document, random_admissible
from cechkit.mv import fibred_product, inductive_fibred_dim
from cechkit.refinements import RefinementMap, naturality_check

PRIMES = (2, 3, 5, 65521)


def draw_refinement(data, bench_docs) -> RefinementMap:
    """A gallery, seeded random_admissible or strip(8, 3, 3) document over a drawn prime, with a valid label map.

    A document with a refinement block gives its own map; any other is
    refined by itself, each label sent to itself or, where that stays
    valid, one label to a neighbour.
    """
    p = data.draw(st.sampled_from(PRIMES))
    kind = data.draw(st.sampled_from(("gallery", "random_admissible", "strip")))
    if kind == "gallery":
        name, kwargs = data.draw(st.sampled_from(GALLERY_CASES))
        doc = gallery_document(name, **kwargs)
    elif kind == "random_admissible":
        doc = random_admissible(data.draw(st.integers(0, 10 ** 6)), n_pieces=data.draw(st.integers(1, 5)))
    else:
        doc = bench_docs.strip(8, 3, 3).body
    parsed = parse_document(doc, field_override=p)
    diagram = canonicalize(parsed.system)
    if parsed.refinement is not None:
        return materialise_refinement(diagram, parsed.refinement, diagram.field)
    identity = {v: v for v in diagram.nerve.vertices}
    v = data.draw(st.sampled_from(diagram.nerve.vertices))
    u = data.draw(st.sampled_from([v] + [w for e in diagram.nerve.simplices_of_dim(1) if v in e for w in e]))
    r = RefinementMap(diagram, diagram, {**identity, v: u})
    return r if r.verdict.valid else RefinementMap(diagram, diagram, identity)


def break_one_entry(data, r: RefinementMap) -> None:
    """Move one nondegenerate image within the coarse pieces that hold it, or flip its sign.

    Each fine N_T holding the simplex still maps it into coarse N_T, so
    every N_T square stays a matrix identity.  On a binary diagram only a
    top simplex of the fine union is broken: the connecting square reads
    the induced maps on cohomology, which exist only where the pullback
    takes cocycles to cocycles, and a top simplex is a face of nothing.
    """
    fine = r.fine.nerve
    tops = fine.simplices_of_dim(fine.dim) if r.fine.n_pieces == 2 else fine.simplices
    candidates = sorted((s for s in tops if r.images[s][1]), key=lambda s: (len(s), s))
    if not candidates:
        return
    s = data.draw(st.sampled_from(candidates))
    image, sign = r.images[s]
    holders = [pid for pid in r.fine.piece_ids if s in r.fine.nerves[pid].simplices]
    coarse_t = r.coarse.intersection_nerve(holders)
    moves = [other for other in coarse_t.simplices_of_dim(len(s) - 1) if other != image]
    if moves and data.draw(st.booleans()):
        r.images[s] = (data.draw(st.sampled_from(moves)), sign)
    else:
        r.images[s] = (image, -sign)


def table_pullback(r: RefinementMap, fine_c, coarse_c, q):
    """The pullback C^q(coarse_c) -> C^q(fine_c) read off the refinement's image table, entry by entry."""
    index, simplices = coarse_c.index_of_dim(q), fine_c.simplices_of_dim(q)
    entries = ((row, index[r.images[s][0]], r.images[s][1]) for row, s in enumerate(simplices) if r.images[s][1])
    return entry_matrix((len(simplices), len(index)), entries, r.fine.field)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_index_reads_match_the_definitions(bench_docs, data):
    r = draw_refinement(data, bench_docs)
    diagram, field = r.coarse, r.coarse.field

    # the inductive product, in a shuffled order (pieces renamed to be adjoined in it), spans the flat one
    for q in range(diagram.nerve.dim + 1):
        order = tuple(data.draw(st.permutations(diagram.piece_ids)))
        shuffled = glued_from_nerves({f"p{k:02d}": diagram.nerves[i] for k, i in enumerate(order)}, field)
        dim, basis = inductive_fibred_dim(shuffled, q)
        flat = fibred_product(shuffled, q)
        assert dim == flat.dimension == basis.cols and flat.contains(basis), (order, q)
        assert reference.span_equal(reference.fibred_basis(shuffled, q, field.p), dense(basis), field.p), (order, q)

    # each coboundary square's verdict is the matrix identity on its own N_T
    assert r.verdict.valid
    broken = data.draw(st.booleans())
    if broken:
        break_one_entry(data, r)
    q_max = min(2, max(r.coarse.nerve.dim, r.fine.nerve.dim, 0))
    verdict = {s.name: s.commutes for s in naturality_check(r, q_max).squares}
    complexes = [("union", r.fine.nerve, r.coarse.nerve)] + [
        (f"T={','.join(t)}", fine_t, r.coarse.intersection_nerve(t))
        for size in range(1, r.fine.n_pieces + 1) for t, fine_t in r.fine.level(size).items()]
    for q in range(q_max + 1):
        for name, fine_c, coarse_c in complexes:
            left = table_pullback(r, fine_c, coarse_c, q + 1) @ coboundary_matrix(coarse_c, q, field)
            right = coboundary_matrix(fine_c, q, field) @ table_pullback(r, fine_c, coarse_c, q)
            assert verdict[f"delta[{name}] q={q}"] is left.equals(right), (name, q, broken)
            if not broken:
                assert verdict[f"delta[{name}] q={q}"]


@pytest.mark.parametrize("p", PRIMES)
def test_the_strip_refinement_commutes_over_every_prime(bench_docs, p):
    parsed = parse_document(bench_docs.strip(8, 3, 3).body, field_override=p)
    coarse = canonicalize(parsed.system)
    r = materialise_refinement(coarse, parsed.refinement, coarse.field)
    verdict = naturality_check(r, 2)
    assert verdict.all_commute, [s.name for s in verdict.squares if not s.commutes]
