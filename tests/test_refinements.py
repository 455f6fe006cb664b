import gc
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import reference
from conftest import patch_bindings
from dense import dense, matrix, vector

from cechkit import cochains, refinements
from cechkit.cli import main, run_command
from cechkit.cochains import coboundary_matrix, cohomology, induced_on_cohomology, pullback_map
from cechkit.diagrams import canonicalize
from cechkit.documents import materialise_refinement, parse_document
from cechkit.fplinalg import FMatrix, block_matrix
from cechkit.gallery import gallery_document
from cechkit.refinements import (
    InvalidRefinement,
    RefinementMap,
    contiguous,
    induced_cohomology_map,
    naturality_check,
    validate_refinement,
)

from brute_force import valid_label_maps


def refinement_for(name):
    parsed = parse_document(gallery_document(name))
    coarse = canonicalize(parsed.system)
    return materialise_refinement(coarse, parsed.refinement, coarse.field)


@pytest.fixture(scope="module")
def two_origin_refinement():
    return refinement_for("two_origin_line")


@pytest.fixture(scope="module")
def bug_eyed_refinement():
    return refinement_for("bug_eyed_circle")


def test_identity_refinement_is_valid(two_origin_refinement):
    coarse = two_origin_refinement.coarse
    ident = RefinementMap(coarse, coarse, {v: v for v in coarse.nerve.vertices})
    assert validate_refinement(ident).valid
    assert refinements._pullback(ident, 0, 1).equals(FMatrix.identity(4, coarse.field))
    assert induced_cohomology_map(ident, 1).equals(FMatrix.identity(1, coarse.field))
    assert naturality_check(ident, 1).all_commute


def test_gallery_refinements_valid(two_origin_refinement, bug_eyed_refinement):
    assert validate_refinement(two_origin_refinement).valid
    assert validate_refinement(bug_eyed_refinement).valid


def test_piece_violation_detected(two_origin_refinement):
    labels = dict(two_origin_refinement.labels)
    labels["o1"] = "o2"  # sends a piece-1-only fine label into piece 2 only
    bad = RefinementMap(two_origin_refinement.fine, two_origin_refinement.coarse, labels)
    verdict = validate_refinement(bad)
    assert not verdict.valid
    assert any("o1" in v for v in verdict.violations)
    with pytest.raises(InvalidRefinement):
        induced_cohomology_map(bad, 0)


def test_a_label_that_leaves_its_piece_is_named_once(two_origin_refinement):
    labels = dict(two_origin_refinement.labels)
    labels["o1"] = "o2"
    verdict = validate_refinement(RefinementMap(two_origin_refinement.fine, two_origin_refinement.coarse, labels))
    # The edges at o1 still go to no edge of piece p1; the vertex ('o1',) is not named again.
    assert verdict.violations == ("piece 'p1': image of label 'o1' leaves the piece",
                                  "piece 'p1': image of simplex ('l2', 'o1') is not simplicial",
                                  "piece 'p1': image of simplex ('o1', 'r2') is not simplicial")


def kept_levels(r):
    """(level, fine nerves, coarse nerves): level 0 the union nerves, keyed 0, then each level's nonempty fine N_T."""
    for level in range(r.fine.n_pieces + 1):
        yield level, *({0: d.nerve} if level == 0 else d.level(level) for d in (r.fine, r.coarse))


def test_pullbacks_are_chain_maps(two_origin_refinement):
    r = two_origin_refinement
    field = r.fine.field
    for q in (0, 1):
        for level, fine, coarse in kept_levels(r):
            blocks = []
            for t, fine_c in fine.items():
                coarse_c = coarse[t]
                lam_q = pullback_map(r.labels, fine_c, coarse_c, q, field)
                lam_q1 = pullback_map(r.labels, fine_c, coarse_c, q + 1, field)
                assert lam_q.shape == (len(fine_c.simplices_of_dim(q)), len(coarse_c.simplices_of_dim(q)))
                left = lam_q1 @ coboundary_matrix(coarse_c, q, field)
                assert left.equals(coboundary_matrix(fine_c, q, field) @ lam_q)
                blocks.append((t, t, lam_q))
            # the kept pullback of a level is the block diagonal of pullback_map on its nerves
            dims = [{t: len(k.simplices_of_dim(q)) for t, k in nerves.items()} for nerves in (fine, coarse)]
            assert refinements._pullback(r, level, q).equals(block_matrix(*dims, blocks, field))


def test_naturality_squares(two_origin_refinement, bug_eyed_refinement):
    for r in (two_origin_refinement, bug_eyed_refinement):
        verdict = naturality_check(r, 2)
        assert verdict.all_commute, [s.name for s in verdict.squares if not s.commutes]
        assert any(s.name.startswith("connecting") for s in verdict.squares)


def test_induced_h1_isomorphism(two_origin_refinement, bug_eyed_refinement):
    for r, dim in ((two_origin_refinement, 1), (bug_eyed_refinement, 2)):
        m = induced_cohomology_map(r, 1)
        assert m.rows == dim and m.cols == dim
        assert m.rank() == dim
        m0 = induced_cohomology_map(r, 0)
        assert m0.rank() == 1


def test_connecting_square_on_the_generator(two_origin_refinement):
    # explicit class chase for the H^0 intersection generator
    r = two_origin_refinement
    from cechkit.mv import connecting_homomorphism
    pair = r.fine.piece_ids
    coarse_12 = r.coarse.intersection_nerve(pair)
    fine_12 = r.fine.intersection_nerve(pair)
    lam_12 = induced_on_cohomology(
        pullback_map(r.labels, fine_12, coarse_12, 0, r.fine.field),
        cohomology(coarse_12, 0, r.fine.field), cohomology(fine_12, 0, r.fine.field))
    delta_c = connecting_homomorphism(r.coarse, 0)
    delta_f = connecting_homomorphism(r.fine, 0)
    lam_n = induced_cohomology_map(r, 1)
    generator = np.zeros(delta_c.cols, dtype=np.int64)
    generator[0] = 1
    g = vector(generator, r.fine.field)
    left = dense(delta_f @ (lam_12 @ g))
    right = dense(lam_n @ (delta_c @ g))
    assert np.array_equal(left, right)
    assert left.any()


def test_lambda_choice_independence_on_cohomology(two_origin_refinement):
    """All valid maps contiguous to the canonical one agree on H^0 and H^1."""
    r = two_origin_refinement
    reference0 = induced_cohomology_map(r, 0)
    reference1 = induced_cohomology_map(r, 1)
    seen = 0
    for labels in valid_label_maps(r.fine, r.coarse):
        candidate = RefinementMap(r.fine, r.coarse, labels)
        if not contiguous(r, candidate):
            continue
        seen += 1
        assert induced_cohomology_map(candidate, 0).equals(reference0)
        assert induced_cohomology_map(candidate, 1).equals(reference1)
    assert seen >= 1


def test_noncontiguous_valid_map_exists_and_differs(two_origin_refinement):
    # a constant map to a shared coarse label validates but kills H^1;
    # contiguity is what pins the induced map down
    r = two_origin_refinement
    constant = RefinementMap(r.fine, r.coarse,
                             {v: "l" for v in r.fine.nerve.vertices})
    assert validate_refinement(constant).valid
    assert not contiguous(r, constant)
    assert induced_cohomology_map(constant, 1).rank() == 0


def reverses_an_edge(r, labels):
    """Whether labels send some fine edge a < b to a coarse edge with the larger label first."""
    return any(len(s) == 2 and labels[s[0]] > labels[s[1]] for s in r.fine.nerve.simplices)


@pytest.mark.parametrize("name", ("two_origin_line", "bug_eyed_circle"))
@pytest.mark.parametrize("p", (3, 5))
def test_refine_check_over_odd_primes_on_order_reversing_maps(tmp_path, name, p):
    # Over F_2 a reversed edge's sign -1 is 1; over F_3 and F_5 every square sees it.
    doc = gallery_document(name)
    parsed = parse_document(doc, field_override=p)
    coarse = canonicalize(parsed.system)
    r = materialise_refinement(coarse, parsed.refinement, coarse.field)
    reversing = [labels for labels in valid_label_maps(r.fine, r.coarse) if reverses_an_edge(r, labels)]
    assert len(reversing) == {"two_origin_line": 7, "bug_eyed_circle": 51}[name]
    path = tmp_path / "doc.json"
    for labels in reversing:
        doc["refinement"]["map"] = sorted(labels.items())
        path.write_text(json.dumps(doc), encoding="utf-8")
        report, code = run_command("refine-check", {"path": str(path), "field": p})
        assert code == 0, [s for s in report.get("squares", []) if not s["commutes"]]
        assert report["verdicts"] == {"refinement_valid": True, "naturality_squares_commute": True}


def test_a_delta_square_with_a_broken_pullback_does_not_commute():
    # Every pullback is read off one image table, so a broken pullback is a
    # broken table entry.  The fine edge l2-o1 lies in piece p1 only: over F_2
    # its image moves to the other coarse edge of p1, over F_3 its sign flips.
    # The pullbacks stay maps C^q(coarse) -> C^q(fine), not chain maps.
    for p in (2, 3):
        parsed = parse_document(gallery_document("two_origin_line"), field_override=p)
        coarse = canonicalize(parsed.system)
        r = materialise_refinement(coarse, parsed.refinement, coarse.field)
        assert r.verdict.valid
        image, sign = r.images["l2", "o1"]
        assert (image, sign) == (("l", "o1"), 1)
        r.images["l2", "o1"] = (("o1", "r"), sign) if p == 2 else (image, -sign)
        squares = naturality_check(r, 1).squares
        failing = {s.name for s in squares if not s.commutes}
        assert failing == {"delta[union] q=0", "delta[T=p1] q=0", "connecting q=0"}, p
        assert {"delta[T=p2] q=0", "delta[T=p1,p2] q=0", "delta[union] q=1", "phi_star q=1"} < {s.name for s in squares}


def identity_refinement(name):
    coarse = canonicalize(parse_document(gallery_document(name)).system)
    return RefinementMap(coarse, coarse, {v: v for v in coarse.nerve.vertices})


@pytest.mark.parametrize("make", [lambda: refinement_for("bug_eyed_circle"), lambda: refinement_for("two_origin_line"),
                                  lambda: identity_refinement("three_circles")], ids=["bug_eyed", "two_origin", "circles"])
def test_a_refinement_validates_once_and_builds_each_pullback_once(make, monkeypatch):
    r = make()
    levels = range(1, r.fine.n_pieces + 1)
    validations, tables, built, alive = [], [], Counter(), []
    real_validate, real_table, real_pullback = (refinements.validate_refinement, refinements._image_table,
                                                cochains.block_pullback)

    def validating(refinement):
        validations.append(1)
        return real_validate(refinement)

    def tabling(labels, nerve):
        tables.append(nerve)
        return real_table(labels, nerve)

    def counting(fine, coarse, blocks, q, field, images=None):
        result = real_pullback(fine, coarse, blocks, q, field, images)
        if images is r.images:
            # level 0 is the union nerves; an N_T pullback would match no level
            level = 0 if fine.get(0) is r.fine.nerve else next(n for n in levels if fine is r.fine.level(n))
            built[level, q] += 1
            alive.append(weakref.ref(result))
        return result

    monkeypatch.setattr(refinements, "validate_refinement", validating)
    monkeypatch.setattr(refinements, "_image_table", tabling)
    patch_bindings(monkeypatch, cochains, "block_pullback", counting)
    verdict = naturality_check(r, 2)
    union = [refinements._pullback(r, 0, q) for q in range(4)]
    tuples = {(level, q): refinements._pullback(r, level, q) for level in levels for q in range(3)}
    induced = [induced_cohomology_map(r, q) for q in (0, 1)]
    assert naturality_check(r, 2) == verdict
    assert all(refinements._pullback(r, 0, q) is m for q, m in enumerate(union))
    assert all(refinements._pullback(r, *key) is m for key, m in tuples.items())
    assert induced_cohomology_map(r, 1) is induced[1]
    assert validations == [1]
    assert tables == [r.fine.nerve]
    # union pullbacks once per degree, tuple pullbacks once per level and degree, none of a single N_T
    assert built == Counter({**{(0, q): 1 for q in range(4)}, **{key: 1 for key in tuples}})
    assert {key for key in r.pullbacks if key[0] != "H"} == {(0, q) for q in range(4)} | set(tuples)
    alive.extend(weakref.ref(m) for m in induced)

    # the squares and induced maps are those of a refinement whose every pullback is built afresh, by the reference
    def afresh(other, level, q):
        built[level, q] += 1
        if level:
            return matrix(reference.tuple_pullback(other, level, q, other.fine.field.p), other.fine.field)
        return matrix(reference.pullback(other.labels, other.fine.nerve, other.coarse.nerve, q, other.fine.field.p),
                      other.fine.field)

    fresh = RefinementMap(r.fine, r.coarse, dict(r.labels))
    monkeypatch.setattr(refinements, "_pullback", afresh)
    built.clear()
    assert naturality_check(fresh, 2) == verdict
    assert all(induced_cohomology_map(fresh, q).equals(induced[q]) for q in (0, 1))
    assert max(built.values()) > 1

    # what the refinement derived goes with it
    del r, fresh, union, tuples, induced
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_refine_check_builds_coboundaries_only_on_the_union_nerves(tmp_path, monkeypatch, bench_docs):
    # On strip(8, 3, 3) the union nerves' squares stand for those of every
    # N_T, and every pullback is read off one image table: d^0, d^1 and d^2
    # on the two union nerves (6 builds, 42 when each of 7 fine and 7 coarse
    # complexes had its own), and one sign per nondegenerate fine union
    # simplex (168, 408 when each pullback sorted its own).
    doc = bench_docs.strip(8, 3, 3).body
    parsed = parse_document(doc)
    coarse = canonicalize(parsed.system)
    r = materialise_refinement(coarse, parsed.refinement, coarse.field)
    nondegenerate = sum(len({r.labels[v] for v in s}) == len(s) for s in r.fine.nerve.simplices)
    builds, signs = [], []
    real_coboundary, real_sign = cochains._coboundary, cochains._permutation_sign

    def coboundary(k, q, field):
        builds.append((k.simplices, q))
        return real_coboundary(k, q, field)

    def sign(seq):
        signs.append(seq)
        return real_sign(seq)

    monkeypatch.setattr(cochains, "_coboundary", coboundary)
    monkeypatch.setattr(cochains, "_permutation_sign", sign)
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, code = run_command("refine-check", {"path": path})
    assert code == 0 and report["verdicts"]["naturality_squares_commute"]
    assert sorted(builds, key=lambda b: (len(b[0]), b[1])) == [
        (nerve.simplices, q) for nerve in (coarse.nerve, r.fine.nerve) for q in range(3)]
    assert len(signs) == nondegenerate == 168


def two_origin_with_map(change):
    doc = gallery_document("two_origin_line")
    doc["refinement"]["map"] = change(doc["refinement"]["map"])
    return doc


@pytest.mark.parametrize("change, only_not_simplicial", [
    # l2 -> r: every image is a label of its piece, but the edge l1-l2 goes to l-r
    (lambda pairs: [[f, "r" if f == "l2" else c] for f, c in pairs], True),
    (lambda pairs: [["l1", "l"], ["o1", "o2"]], False),
], ids=["non_simplicial_image", "undefined_and_leaving"])
def test_every_entry_point_refuses_what_validation_rejects(change, only_not_simplicial, tmp_path, capsys):
    doc = two_origin_with_map(change)
    parsed = parse_document(doc)
    coarse = canonicalize(parsed.system)
    r = materialise_refinement(coarse, parsed.refinement, coarse.field)
    verdict = validate_refinement(r)
    assert not verdict.valid
    if only_not_simplicial:
        assert all("is not simplicial" in v for v in verdict.violations)
    for call in (lambda: naturality_check(r, 1), lambda: induced_cohomology_map(r, 0),
                 lambda: induced_cohomology_map(r, 1)):
        with pytest.raises(InvalidRefinement, match=re.escape(verdict.violations[0])):
            call()
    assert r.pullbacks == {}

    path, report = tmp_path / "doc.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--report", str(report), "refine-check", str(path)]) == 1
    written = json.loads(report.read_text(encoding="utf-8"))
    assert written["verdicts"] == {"refinement_valid": False}
    assert written["violations"] == list(verdict.violations)
    assert "squares" not in written and "induced_cohomology" not in written
    assert capsys.readouterr().out.count("violation: ") == len(verdict.violations)


def test_refine_check_report_does_not_depend_on_the_hash_seed(tmp_path):
    # l2 -> r and r1 -> l break one edge at each end of both pieces; the
    # violations follow the simplices' order, not the order of a set.
    doc = two_origin_with_map(lambda pairs: [[f, {"l2": "r", "r1": "l"}.get(f, c)] for f, c in pairs])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for seed in ("1", "2"):
        report = tmp_path / f"report{seed}.json"
        done = subprocess.run([sys.executable, "-m", "cechkit", "--report", str(report), "refine-check", str(path)],
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert done.returncode == 1, done.stderr.decode()
        written.append(report.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["violations"] == [
        f"piece {pid!r}: image of simplex {s!r} is not simplicial"
        for pid in ("p1", "p2") for s in (("l1", "l2"), ("r1", "r2"))]


def test_contiguity_needs_the_same_coarse_diagram(two_origin_refinement):
    r = two_origin_refinement
    doc = gallery_document("two_origin_line")
    doc["pieces"][0]["simplices"].append(["x"])
    wider = canonicalize(parse_document(doc).system)
    other = RefinementMap(r.fine, wider, dict(r.labels))
    assert validate_refinement(other).valid and other.coarse != r.coarse
    assert contiguous(r, RefinementMap(r.fine, r.coarse, dict(r.labels)))
    assert not contiguous(r, other) and not contiguous(other, r)
