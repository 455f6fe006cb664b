"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Ground truths come from independent computation paths: union-nerve rank
computation, Mayer-Vietoris assembly, bicomplex total cohomology, and
brute-force enumeration over all gauges and cochains.  All comparisons
are exact.
"""

import itertools

import numpy as np

from cechkit.bundles import (
    ConstantCocycle,
    cocycles_equivalent,
    colimit_bundle,
    enumerate_line_bundles,
    glue_section_space,
    parallel_sections,
    restrict_bundle,
)
from cechkit.cli import main
from cechkit.cochains import cohomology
from cechkit.diagrams import canonicalize, validate_system
from cechkit.documents import canonical_json, materialise_refinement, parse_document
from cechkit.fplinalg import FMatrix, PrimeField
from cechkit.gallery import gallery_document, random_admissible
from cechkit.mv import (
    assemble_les,
    count_line_bundles,
    fibred_product,
    h1_fibred_check,
    inductive_fibred_dim,
    phi_star,
    total_cohomology,
    verify_exact_sequence,
)
from cechkit.refinements import induced_cohomology_map, naturality_check, validate_refinement

GALLERY = [
    ("two_origin_line", {}),
    ("branching_line_n", {"n": 2}),
    ("branching_line_n", {"n": 3}),
    ("bug_eyed_circle", {}),
    ("three_circles", {}),
]


def diagram_for(name, **kwargs):
    return canonicalize(parse_document(gallery_document(name, **kwargs)).system)


def report(number: int, ok: bool, summary: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {summary}")
    assert ok, summary


def brute_force_classes(diagram):
    """All rank-1 cocycles grouped by exhaustive vertex-gauge search."""
    base = diagram.nerve
    p = diagram.field.p
    edges = base.simplices_of_dim(1)
    vertices = base.vertices

    def equivalent(g, h):
        for kv in itertools.product(range(p), repeat=len(vertices)):
            table = dict(zip(vertices, kv))
            if all((int(g[e]) + table[e[0]] - table[e[1]]) % p == int(h[e]) for e in edges):
                return True
        return False

    buckets = []
    for vec in itertools.product(range(p), repeat=len(edges)):
        table = dict(zip(edges, vec))
        for bucket in buckets:
            if equivalent(table, bucket[0]):
                bucket.append(table)
                break
        else:
            buckets.append([table])
    return buckets, edges


def test_criterion_01_two_origin_line():
    d = diagram_for("two_origin_line")
    dims = (cohomology(d.nerve, 0, d.field).dimension, cohomology(d.nerve, 1, d.field).dimension)
    ok = dims == (1, 1)

    buckets, edges = brute_force_classes(d)
    ok = ok and len(buckets) == 2

    reps = enumerate_line_bundles(d)
    ok = ok and len(reps) == 2
    section_dims = sorted(parallel_sections(g).dimension for g in reps)
    ok = ok and section_dims == [0, 1]

    # oracle: parallel dimension per brute-force class via the faithful
    # sign representation over F_3
    f3 = PrimeField(3)
    for bucket in buckets:
        g = ConstantCocycle.build(d.nerve, 1, d.field, bucket[0])
        verts = d.nerve.vertices
        idx = {v: i for i, v in enumerate(verts)}
        m = np.zeros((len(edges), len(verts)), dtype=np.int64)
        for r, (a, b) in enumerate(edges):
            m[r, idx[a]] += 1
            m[r, idx[b]] -= (-1) ** int(bucket[0][(a, b)])
        oracle_dim = FMatrix(m, f3).rank_nullity()[1]
        ok = ok and parallel_sections(g).dimension == oracle_dim
    report(1, ok, f"two-origin line: dims {dims}, 2 classes, parallel dims {section_dims}")


def test_criterion_02_branching_lines():
    ok = True
    for n in (2, 3):
        d = diagram_for("branching_line_n", n=n)
        h1 = cohomology(d.nerve, 1, d.field).dimension
        classes = enumerate_line_bundles(d)
        ok = ok and h1 == 0 and len(classes) == 1
    report(2, ok, "branching line (n=2,3): dim H^1 = 0, one line-bundle class")


def test_criterion_03_bug_eyed_circle():
    d = diagram_for("bug_eyed_circle")
    h1 = cohomology(d.nerve, 1, d.field).dimension
    classes = enumerate_line_bundles(d)
    les = assemble_les(d, 1)
    coker0 = les.intersection_dims[0] - les.alpha_ranks[0]
    piece_h1 = sum(v[1] for v in les.piece_dims.values())
    ker1 = piece_h1 - les.alpha_ranks[1]
    ok = h1 == 2 and len(classes) == 4 and les.all_ok and (coker0, ker1) == (0, 2) \
        and h1 == coker0 + ker1
    report(3, ok, f"bug-eyed circle: dim H^1 = {h1}, {len(classes)} classes, "
                  f"coker a0 + ker a1 = {coker0} + {ker1}")


def test_criterion_04_three_circles_count():
    d = diagram_for("three_circles")
    h1 = cohomology(d.nerve, 1, d.field).dimension
    count = count_line_bundles(d)
    ok = (h1 == 3 and count.dimension_form_count == 8 and count.ground_truth == 8
          and count.dimension_form_matches
          and count.literal_form_count == 4 and not count.literal_form_matches)
    report(4, ok, f"three circles: dim H^1 = {h1}, dimension form {count.dimension_form_count}, "
                  f"literal form {count.literal_form_count} flagged")


def test_criterion_05_exactness_suite():
    failures = []
    for name, kwargs in GALLERY:
        d = diagram_for(name, **kwargs)
        for q in range(max(d.nerve.dim, 0) + 1):
            if not verify_exact_sequence(d, q).exact:
                failures.append((name, q))
    for seed in range(100):
        parsed = parse_document(random_admissible(seed))
        if not validate_system(parsed.system).valid:
            failures.append(("seed", seed, "invalid"))
            continue
        d = canonicalize(parsed.system)
        for q in range(max(d.nerve.dim, 0) + 1):
            if not verify_exact_sequence(d, q).exact:
                failures.append(("seed", seed, q))
    ok = failures == []
    report(5, ok, f"exactness: gallery + 100 seeded diagrams, failures: {failures!r}")


def test_criterion_06_oracle_equivalence():
    ok = True
    details = []
    for name, kwargs in GALLERY:
        d = diagram_for(name, **kwargs)
        q_max = 2
        union_dims = tuple(cohomology(d.nerve, q, d.field).dimension for q in range(q_max + 1))
        total = total_cohomology(d, q_max)
        ok = ok and total.d_square_zero and total.total_dims == union_dims
        if d.n_pieces == 2:
            les = assemble_les(d, q_max)
            ok = ok and les.all_ok and les.union_dims == union_dims
        details.append(f"{name}{kwargs or ''}={union_dims}")
    report(6, ok, "oracle equivalence union = bicomplex = LES assembly: " + "; ".join(details))


def test_criterion_07_fibred_products():
    ok = True
    for name, kwargs in GALLERY:
        d = diagram_for(name, **kwargs)
        for q in range(3):
            fp = fibred_product(d, q)
            union_dim = len(d.nerve.simplices_of_dim(q))
            rank_phi = phi_star(d, q).rank()
            ok = ok and fp.dimension == union_dim == rank_phi
    d3 = diagram_for("three_circles")
    flat = [fibred_product(d3, q).dimension for q in (0, 1, 2)]
    two_step = [inductive_fibred_dim(d3, q)[0] for q in (0, 1, 2)]
    ok = ok and flat == two_step
    report(7, ok, f"fibred products match union cochains and phi*; "
                  f"three-circles flat {flat} = inductive {two_step}")


def test_criterion_08_connectivity_theorem():
    branching = diagram_for("branching_line_n", n=2)
    bug_eyed = diagram_for("bug_eyed_circle")
    two_origin = diagram_for("two_origin_line")
    vb = h1_fibred_check(branching)
    ve = h1_fibred_check(bug_eyed)
    vt = h1_fibred_check(two_origin)
    ok = (vb.hypothesis_holds and vb.equal and (vb.h1_union, vb.fibred_dim) == (0, 0)
          and ve.hypothesis_holds and ve.equal and (ve.h1_union, ve.fibred_dim) == (2, 2)
          and not vt.hypothesis_holds and (vt.h1_union, vt.fibred_dim) == (1, 0)
          and not vt.equal)
    report(8, ok, f"H^1 fibred product: holds on branching {vb.h1_union}={vb.fibred_dim} "
                  f"and bug-eyed {ve.h1_union}={ve.fibred_dim}; two-origin reports "
                  f"{vt.h1_union} vs {vt.fibred_dim} with hypothesis violated")


def test_criterion_09_bundle_round_trips():
    ok = True
    counts = []
    for name, kwargs in GALLERY:
        d = diagram_for(name, **kwargs)
        reps = enumerate_line_bundles(d)
        counts.append(len(reps))
        for g in reps:
            data = restrict_bundle(g, d)
            back = colimit_bundle(d, data)
            ok = ok and back.ok and cocycles_equivalent(back.cocycle, g)
            ok = ok and glue_section_space(data) == parallel_sections(g).dimension
    report(9, ok, f"bundle round trips and glued-section dimensions over classes {counts}")


def test_criterion_10_refinement_naturality():
    parsed = parse_document(gallery_document("two_origin_line"))
    coarse = canonicalize(parsed.system)
    refinement = materialise_refinement(coarse, parsed.refinement, coarse.field)
    valid = validate_refinement(refinement).valid
    nat = naturality_check(refinement, 2)
    h1 = induced_cohomology_map(refinement, 1)
    iso = h1.rank() == 1 and h1.rows == 1 and h1.cols == 1
    ok = valid and nat.all_commute and iso
    report(10, ok, f"two-origin refinement: {len(nat.squares)} squares commute, "
                   f"H^1 map is an isomorphism of rank {h1.rank()}")


def test_criterion_11_determinism(tmp_path, capsys):
    commands = ("validate", "cohomology", "mv", "fibred", "bundles", "count",
                "collapse-check", "refine-check")
    docs = {f"{name}-{'-'.join(f'{k}{v}' for k, v in kwargs.items())}":
            gallery_document(name, **kwargs) for name, kwargs in GALLERY}
    docs["random5"] = gallery_document("random_admissible", seed=5)
    ok = True
    for doc_name, doc in docs.items():
        path = tmp_path / f"{doc_name}.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        for command in commands:
            results = []
            for run in (0, 1):
                rp = tmp_path / f"{doc_name}-{command}-{run}.json"
                code = main(["--report", str(rp), command, str(path)])
                capsys.readouterr()
                results.append((code, rp.read_bytes() if rp.exists() else b""))
            ok = ok and results[0] == results[1]
    with capsys.disabled():
        report(11, ok, "byte-identical structured reports for every command on every gallery file")
