import contextlib
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cechkit import cli
from cechkit.cli import QMAX_CAP, main
from cechkit.diagrams import canonicalize, validate_system
from cechkit.documents import (
    NonPrimeModulus,
    ParseError,
    canonical_json,
    decode_document,
    parse_document,
)
from cechkit.gallery import GALLERY_NAMES, MAX_PIECES, BadGalleryParameter, gallery_document


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(canonical_json(doc), encoding="utf-8")
    return path


def test_load_two_origin(tmp_path):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    parsed = parse_document(decode_document(path.read_bytes()))
    assert len(parsed.system.pieces) == 2
    diagram = canonicalize(parsed.system)
    assert len(diagram.nerve.vertices) == 4


def test_duplicate_piece_id_rejected():
    doc = gallery_document("two_origin_line")
    doc["pieces"].append(dict(doc["pieces"][0]))
    with pytest.raises(ParseError):
        parse_document(doc)


def test_nonprime_field_rejected():
    doc = gallery_document("two_origin_line")
    doc["field"] = 4
    with pytest.raises(NonPrimeModulus):
        parse_document(doc)


def test_unknown_keys_rejected():
    doc = gallery_document("two_origin_line")
    doc["extra"] = 1
    with pytest.raises(ParseError):
        parse_document(doc)


def test_gluing_schema_errors():
    doc = gallery_document("two_origin_line")
    doc["gluings"][0] = {"i": "p1", "j": "p1", "pairs": []}
    with pytest.raises(ParseError):
        parse_document(doc)
    doc = gallery_document("two_origin_line")
    doc["gluings"][0] = {"i": "p1", "j": "nope", "pairs": []}
    with pytest.raises(ParseError):
        parse_document(doc)


def test_field_override():
    parsed = parse_document(gallery_document("two_origin_line"), field_override=5)
    assert parsed.system.field.p == 5


def test_bundle_block_schema_errors():
    from cechkit.diagrams import canonicalize
    from cechkit.documents import materialise_bundle
    parsed = parse_document(gallery_document("two_origin_line"))
    diagram = canonicalize(parsed.system)
    with pytest.raises(ParseError):
        materialise_bundle(diagram, {"rank": 1, "pieces": [{"edges": []}]})
    with pytest.raises(ParseError):
        materialise_bundle(diagram, {"rank": 0})
    with pytest.raises(ParseError):
        materialise_bundle(diagram, {"rank": 1, "pieces": [
            {"id": "p1", "edges": [["l", "r", 1]]}]})  # not an edge of p1


def test_refinement_block_schema_errors():
    from cechkit.diagrams import canonicalize
    from cechkit.documents import materialise_refinement
    parsed = parse_document(gallery_document("two_origin_line"))
    diagram = canonicalize(parsed.system)
    with pytest.raises(ParseError):
        materialise_refinement(diagram, {"fine": parsed.refinement["fine"], "map": "junk"},
                               diagram.field)
    with pytest.raises(ParseError):
        materialise_refinement(diagram, {"map": []}, diagram.field)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"field\": 2,,\n}", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_document(decode_document(path.read_bytes()))
    assert "line" in str(err.value)


def test_document_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(canonical_json(gallery_document("two_origin_line")).replace("p1", "p\u00e9").encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_document(decode_document(path.read_bytes()))


def test_gallery_emission_round_trip_stable(tmp_path, capsys):
    for name in ("two_origin_line", "bug_eyed_circle", "three_circles"):
        assert main(["gallery", name]) == 0
        first = capsys.readouterr().out
        assert main(["gallery", name]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        diagram = canonicalize(parse_document(doc).system)
        again = canonicalize(parse_document(json.loads(second)).system)
        assert diagram.nerve.vertices == again.nerve.vertices


def test_gallery_list_and_params(capsys):
    assert main(["gallery", "list"]) == 0
    out = capsys.readouterr().out
    for name in GALLERY_NAMES:
        assert name in out
    assert main(["gallery", "branching_line_n", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pieces"]) == 3
    assert main(["gallery", "random_admissible", "--seed", "11"]) == 0
    doc1 = json.loads(capsys.readouterr().out)
    assert main(["gallery", "random_admissible", "--seed", "11"]) == 0
    assert json.loads(capsys.readouterr().out) == doc1


def test_gallery_unknown_name(capsys):
    assert main(["gallery", "nope"]) == 2
    assert capsys.readouterr().err == ("input error: unknown gallery name 'nope'; try: two_origin_line, "
                                       "branching_line_n, bug_eyed_circle, three_circles, "
                                       "random_admissible\n")


def test_cli_cohomology_two_origin(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    report_path = tmp_path / "report.json"
    assert main(["--report", str(report_path), "cohomology", str(path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["union_dims"] == [1, 1]
    assert report["verdicts"]["h0_matches_components"]
    assert "wall_time" not in report


def test_cli_count_three_circles(tmp_path):
    path = write_doc(tmp_path, gallery_document("three_circles"))
    report_path = tmp_path / "report.json"
    assert main(["--report", str(report_path), "count", str(path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["dimension_form_count"] == 8
    assert report["literal_form_count"] == 4
    assert report["ground_truth"] == 8
    assert not report["flags"]["literal_form_matches"]


def test_cli_validate_bad_a3(tmp_path, capsys):
    doc = {
        "field": 2,
        "pieces": [{"id": "p1", "simplices": [["x"]]},
                   {"id": "p2", "simplices": [["y"]]},
                   {"id": "p3", "simplices": [["w"], ["z"]]}],
        "gluings": [{"i": "p1", "j": "p2", "pairs": [["x", "y"]]},
                    {"i": "p2", "j": "p3", "pairs": [["y", "z"]]},
                    {"i": "p1", "j": "p3", "pairs": [["x", "w"]]}],
    }
    path = write_doc(tmp_path, doc)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "A3" in out


def test_cli_invalid_system_is_input_error_elsewhere(tmp_path, capsys):
    doc = {
        "field": 2,
        "pieces": [{"id": "p1", "simplices": [["a", "b"]]},
                   {"id": "p2", "simplices": [["a"], ["b"]]}],
        "gluings": [{"i": "p1", "j": "p2", "pairs": [["a", "a"], ["b", "b"]]}],
    }
    path = write_doc(tmp_path, doc)
    iso = "is not a simplicial isomorphism between induced subcomplexes  witness=[('a', 'b')]"
    # validate lists every violation
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"  [SIMPLICIAL] gluing p1->p2 {iso}\n" in out and f"  [SIMPLICIAL] gluing p2->p1 {iso}\n" in out
    # every other command: one input error line that counts them and names the first
    one_line = f"input error: invalid adjunction system: 2 violations; first [SIMPLICIAL] gluing p1->p2 {iso}\n"
    for command in ("cohomology", "mv", "fibred", "bundles", "count", "collapse-check", "refine-check"):
        assert main([command, str(path)]) == 2, command
        assert capsys.readouterr().err == one_line, command
    # an invalid fine block under a valid coarse document
    refined = write_doc(tmp_path, {**gallery_document("two_origin_line"),
                                   "refinement": {"fine": {"pieces": doc["pieces"], "gluings": doc["gluings"]},
                                                  "map": [["a", "l"], ["b", "r"]]}})
    assert main(["refine-check", str(refined)]) == 2
    assert capsys.readouterr().err == one_line
    # a line break in a piece id is written escaped
    doc["pieces"][0]["id"] = doc["gluings"][0]["i"] = "p\n1"
    assert main(["cohomology", str(write_doc(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "gluing p\\n1->p2" in err


def test_cli_human_output_keeps_one_line_per_row_when_a_piece_id_holds_a_line_break(tmp_path, capsys):
    invalid = {
        "field": 2,
        "pieces": [{"id": "p\n1", "simplices": [["a", "b"]]},
                   {"id": "p2", "simplices": [["a"], ["b"]]}],
        "gluings": [{"i": "p\n1", "j": "p2", "pairs": [["a", "a"], ["b", "b"]]}],
    }
    report_path = tmp_path / "report.json"
    assert main(["--report", str(report_path), "validate", str(write_doc(tmp_path, invalid))]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the verdict, one line per violation, the elapsed time
    assert len(lines) == 4 and lines[0] == "system valid: False", lines
    assert lines[1].startswith("  [SIMPLICIAL] gluing p\\n1->p2 ")
    assert lines[2].startswith("  [SIMPLICIAL] gluing p2->p\\n1 ")
    # the report keeps the id as it is, escaped by JSON alone
    assert json.loads(report_path.read_text())["violations"][0]["message"].startswith("gluing p\n1->p2 ")
    two = json.loads(json.dumps(gallery_document("two_origin_line")).replace('"p1"', '"p\\n1"'))
    assert main(["--report", str(report_path), "cohomology", str(write_doc(tmp_path, two))]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the labels, the header, the union, two pieces, one intersection, the elapsed time
    assert len(lines) == 7, lines
    assert [line.split()[0] for line in lines[2:6]] == ["union", "p\\n1", "p2", "p\\n1,p2"], lines
    assert json.loads(report_path.read_text())["intersection_dims"] == {"p\n1,p2": [2, 0]}


def test_cli_missing_file():
    assert main(["cohomology", "/nonexistent/x.json"]) == 2


@pytest.mark.parametrize("case", ("document_is_a_directory", "document_not_utf8",
                                  "report_in_missing_directory", "report_is_a_directory"))
def test_cli_unreadable_document_or_unwritable_report_is_an_input_error(tmp_path, capsys, case):
    doc = write_doc(tmp_path, gallery_document("two_origin_line"))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(doc.read_text(encoding="utf-8").replace("p1", "p\u00e9").encode("latin-1"))
    argv = {"document_is_a_directory": ["cohomology", str(tmp_path)],
            "document_not_utf8": ["cohomology", str(latin1)],
            "report_in_missing_directory": ["--report", str(tmp_path / "missing" / "r.json"), "mv", str(doc)],
            "report_is_a_directory": ["--report", str(tmp_path), "gallery", "two_origin_line"]}[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_run_command_programmatic(tmp_path, capsys, monkeypatch):
    from cechkit.cli import UnknownCommand, run_command
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    report, code = run_command("cohomology", {"path": path})
    capsys.readouterr()
    assert code == 0
    assert report["union_dims"] == [1, 1]
    with pytest.raises(UnknownCommand):
        run_command("nope", {"path": path})
    # the command line's parser refuses a negative degree, here as there
    for command, options in (("cohomology", {"qmax": -3}), ("fibred", {"q": -1})):
        with pytest.raises(SystemExit) as exc:
            run_command(command, {"path": path, **options})
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage:") and "degree must be >= 0" in captured.err
        assert captured.out == ""
    # a relative path that starts with "-" is still the document, not an option
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-doc.json").write_bytes(path.read_bytes())
    assert run_command("validate", {"path": "-doc.json"})[1] == 0


def test_cli_nonprime_field(tmp_path):
    doc = gallery_document("two_origin_line")
    doc["field"] = 6
    path = write_doc(tmp_path, doc)
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("p, command, name", ((3, "cohomology", "two_origin_line"), (3, "mv", "two_origin_line"),
                                              (5, "refine-check", "two_origin_line"),
                                              (65521, "mv", "two_origin_line"), (3, "fibred", "three_circles")))
def test_cli_field_flag_overrides(tmp_path, capsys, p, command, name):
    # odd fields up to the largest modulus run; the document says F_2
    path = write_doc(tmp_path, gallery_document(name))
    report_path = tmp_path / "report.json"
    assert main(["--field", str(p), "--report", str(report_path), command, str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report_path.read_text())["field"] == p


def test_cli_refine_check(tmp_path):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    report_path = tmp_path / "report.json"
    assert main(["--report", str(report_path), "refine-check", str(path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdicts"]["naturality_squares_commute"]
    assert report["induced_cohomology"]["H^1"]["rank"] == 1
    plain = write_doc(tmp_path, gallery_document("three_circles"), "plain.json")
    assert main(["refine-check", str(plain)]) == 2


def test_cli_bundles_two_origin(tmp_path):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    report_path = tmp_path / "report.json"
    assert main(["--report", str(report_path), "bundles", str(path)]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["classes"]) == 2
    assert sorted(c["parallel_dim"] for c in report["classes"]) == [0, 1]
    assert report["bundle_block"]["status"] == "ok"
    assert report["bundle_block"]["class"] == [1]


def test_cli_collapse_check(tmp_path):
    path = write_doc(tmp_path, gallery_document("three_circles"))
    assert main(["collapse-check", str(path)]) == 0


def test_cli_mv_and_fibred(tmp_path):
    for name in ("two_origin_line", "bug_eyed_circle"):
        path = write_doc(tmp_path, gallery_document(name), f"{name}.json")
        assert main(["mv", str(path)]) == 0
        assert main(["fibred", str(path)]) == 0
        assert main(["fibred", "--q", "1", str(path)]) == 0


ALL_COMMANDS = ("validate", "cohomology", "mv", "fibred", "bundles", "count",
                "collapse-check", "refine-check")


def test_structured_reports_byte_identical(tmp_path, capsys):
    docs = {
        "two_origin_line": gallery_document("two_origin_line"),
        "branching3": gallery_document("branching_line_n", n=3),
        "bug_eyed_circle": gallery_document("bug_eyed_circle"),
        "three_circles": gallery_document("three_circles"),
        "random17": gallery_document("random_admissible", seed=17),
    }
    for doc_name, doc in docs.items():
        path = write_doc(tmp_path, doc, f"{doc_name}.json")
        for command in ALL_COMMANDS:
            outputs = []
            for run in (0, 1):
                report_path = tmp_path / f"{doc_name}-{command}-{run}.json"
                code = main(["--report", str(report_path), command, str(path)])
                captured = capsys.readouterr()
                body = report_path.read_bytes() if report_path.exists() else b""
                if body:
                    assert code == (0 if all(json.loads(body)["verdicts"].values()) else 1), (doc_name, command)
                outputs.append((code, body))
            assert outputs[0] == outputs[1], (doc_name, command)


def test_cli_count_wrong_field_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_document("three_circles"))
    assert main(["--field", "3", "count", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", (["cohomology", "--qmax", "-3"], ["fibred", "--q", "-1"],
                                  ["cohomology", "--qmax", "x"]))
def test_cli_negative_degree_is_usage_error(tmp_path, capsys, argv):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage:") and "degree must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", (["--field", "4", "gallery", "two_origin_line"],
                                  ["gallery", "branching_line_n", "--n", "1"],
                                  ["gallery", "random_admissible", "--n", "0"],
                                  ["gallery", "branching_line_n", "--n", "17"],
                                  ["gallery", "random_admissible", "--n", "3000"]))
def test_cli_gallery_bad_arguments_are_input_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ("branching_line_n", "random_admissible"))
def test_gallery_piece_cap_is_the_most_pieces_the_reports_take(name):
    # 16 pieces give 2^16 - 1 report rows, the most REPORT_ROW_CAP allows; 17 give more.
    assert MAX_PIECES == 16
    diagram = canonicalize(parse_document(gallery_document(name, n=MAX_PIECES)).system)
    assert diagram.n_pieces == MAX_PIECES and len(diagram.index_subsets(MAX_PIECES)) == 1
    with pytest.raises(BadGalleryParameter, match="at most 16 pieces, got n=17"):
        gallery_document(name, n=MAX_PIECES + 1)


def test_cli_cohomology_refuses_qmax_past_the_cap_at_once(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    report = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["--report", str(report), "cohomology", "--qmax", str(10 ** 9), str(path)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err == (f"input error: cohomology degrees are capped at --qmax {QMAX_CAP}; "
                            f"got --qmax {10 ** 9}\n")
    assert main(["--report", str(report), "cohomology", "--qmax", str(QMAX_CAP), str(path)]) == 0
    assert len(json.loads(report.read_text(encoding="utf-8"))["union_dims"]) == QMAX_CAP + 1


def test_cli_refinement_fine_errors_name_their_path(tmp_path, capsys):
    doc = gallery_document("two_origin_line")
    doc["refinement"]["fine"]["pieces"][0]["simplices"] = [5]
    assert main(["refine-check", str(write_doc(tmp_path, doc))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: $.refinement.fine.pieces[0].simplices[0]: "
                            "simplex must be a list of string labels\n")


# sha256 of `cechkit gallery random_admissible --seed S` before --n reached the generator.
RANDOM_ADMISSIBLE_DIGESTS = {
    0: "e60e7055589bb0b199b3e0c0430458ffe8c9a11ae4fc4b46a420b80aa5131d84",
    3: "4a28a62e5c76934ef15b32ca022dd7e3e78d27131049e28209993ecfdf7dc43d",
    11: "c47679646b8020c4797345838805706f74b8bf5185539e20177bb514b6c9b5e2",
}


def test_cli_gallery_random_admissible_default_unchanged(capsys):
    for seed, digest in RANDOM_ADMISSIBLE_DIGESTS.items():
        assert main(["gallery", "random_admissible", "--seed", str(seed)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n", (1, 2, 5))
def test_cli_gallery_random_admissible_honours_n(capsys, n):
    assert main(["gallery", "random_admissible", "--seed", "3", "--n", str(n)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pieces"]) == n
    assert validate_system(parse_document(doc).system).valid


def test_cli_bundles_refuses_too_many_classes(tmp_path, capsys, necklace_document):
    # a ring of 13 circles has dim H^1 = 14: 2^14 classes, past the cap of 4096
    path = write_doc(tmp_path, necklace_document(13, True))
    assert main(["bundles", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: line bundle enumeration is capped at 4096 classes; "
                            "dim H^1 = 14 gives 2^14\n")


def _set(path, value):
    """A change to gallery_document("two_origin_line"): put value at the key path."""
    def change(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return change


@pytest.mark.parametrize("command, change", (
    ("bundles", _set(("bundle", "identifications", 0), 5)),
    ("bundles", _set(("bundle", "identifications"), {"i": "p1"})),
    ("bundles", _set(("bundle", "pieces"), [{"id": "p1", "edges": [5]}])),
    ("bundles", _set(("bundle", "identifications", 0, "vertices", 0, 1), "x")),
    ("bundles", _set(("bundle", "identifications", 0, "vertices", 0, 1), [1, 2])),
    ("bundles", _set(("bundle", "rank"), 3)),
    ("refine-check", _set(("refinement", "fine"), 5)),
    ("validate", _set(("field",), 65537)),
    *(("bundles", _set(("bundle", "identifications", 0, "vertices", 0, 1), value))
      for value in (1.5, 0.9, True, "1")),
    ("bundles", _set(("bundle", "pieces"), [{"id": "p1", "edges": [["l", "o1", 1.5]]}])),
    ("bundles", _set(("bundle", "pieces"), [{"id": "p1", "edges": [["l", "o1", True]]}])),
    ("bundles", _set(("bundle",), {"rank": 2, "identifications": [
        {"i": "p1", "j": "p2", "vertices": [["l", [[1, 0], [0, 1.5]]]]}]})),
    ("bundles", _set(("bundle",), {"rank": 2, "pieces": [
        {"id": "p1", "edges": [["l", "o1", [[True, 0], [0, 1]]]]}]})),
    ("cohomology", _set(("pieces", 0, "simplices"), [5])),
    ("cohomology", _set(("gluings", 0, "i"), ["p1"])),
    ("cohomology", _set(("gluings", 0, "pairs"), ["ll", "rr"])),
    ("bundles", _set(("bundle", "rank"), True)),
    ("bundles", _set(("bundle", "rank"), 10 ** 9)),
    ("refine-check", _set(("refinement", "map"), {"ll": 1})),
    # a repeated key is refused, whichever value comes last and whether or not the values agree
    *(("refine-check", _set(("refinement", "map"), [["l1", first], ["l1", last], ["l2", "l"], ["o1", "o1"],
                                                    ["o2", "o2"], ["r1", "r"], ["r2", "r"]]))
      for first, last in (("o2", "l"), ("l", "o2"), ("l", "l"))),
    *(("bundles", _set(("bundle", "identifications", 0, "vertices"), vertices))
      for vertices in ([["r", 1], ["r", 0]], [["r", 0], ["r", 1]], [["l", 0], ["l", 0]])),
    ("bundles", _set(("bundle", "pieces"), [{"id": "p1", "edges": []}, {"id": "p1", "edges": []}])),
    ("bundles", _set(("bundle", "pieces"), [{"id": "p1", "edges": [["l", "o1", 1], ["o1", "l", 1]]}])),
    ("bundles", _set(("bundle", "identifications"), [{"i": "p1", "j": "p2", "vertices": []}] * 2)),
    *(("cohomology", _set(("gluings",), gluings)) for gluings in (
        [{"i": "p1", "j": "p2", "pairs": [["l", "l"], ["r", "r"]]}] * 2,
        [{"i": "p1", "j": "p2", "pairs": [["l", "l"], ["r", "r"]]}, {"i": "p2", "j": "p1", "pairs": [["l", "l"]]}])),
), ids=("identification_not_object", "identifications_not_list", "edge_not_list",
        "rank1_value_x", "rank1_value_list", "rank3_scalar_values", "refinement_fine_5",
        "document_field_too_large", "identification_value_1.5", "identification_value_0.9",
        "identification_value_true", "identification_value_string", "edge_value_1.5",
        "edge_value_true", "rank2_identification_float_entry", "rank2_edge_bool_entry",
        "simplex_not_a_list", "gluing_end_a_list", "pairs_as_strings", "rank_true", "rank_1e9",
        "refinement_map_an_object", "map_label_twice_o2_then_l", "map_label_twice_l_then_o2",
        "map_label_twice_equal", "identification_vertex_twice_1_then_0", "identification_vertex_twice_0_then_1",
        "identification_vertex_twice_equal", "bundle_piece_twice", "edge_twice_reversed",
        "identification_pair_twice", "gluing_pair_twice_equal", "gluing_pair_twice_reversed_unequal"))
def test_cli_bad_blocks_are_input_errors(tmp_path, capsys, command, change):
    doc = gallery_document("two_origin_line")
    change(doc)
    assert main([command, str(write_doc(tmp_path, doc))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: $.") and captured.err.count("\n") == 1


@pytest.mark.parametrize("data", (b'{"field": ' + b"7" * 5000 + b"}", b"[" * 100000 + b"]" * 100000),
                         ids=("integer_past_the_digit_limit", "nested_past_the_recursion_limit"))
def test_cli_json_the_decoder_refuses_is_an_input_error(tmp_path, capsys, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: $: invalid JSON") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ("cohomology", "count", "mv", "refine-check"))
def test_cli_refuses_report_rows_past_the_cap_before_the_first_row(tmp_path, capsys, necklace_document,
                                                                  command):
    doc = necklace_document(17, False)  # a chain of 17 circles: 2^17 - 1 index sets
    coarse = canonicalize(parse_document(doc).system)
    doc["refinement"] = {"fine": {"pieces": doc["pieces"], "gluings": doc["gluings"]},
                         "map": [[v, v] for v in coarse.nerve.vertices]}
    assert main([command, str(write_doc(tmp_path, doc))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: report rows are capped at 65536 index sets; "
                            "17 pieces give 2^17 - 1 = 131071\n")


@pytest.mark.parametrize("modulus", ("65537", "2305843009213693951"))
def test_cli_field_flag_refuses_moduli_above_the_bound(tmp_path, capsys, modulus):
    path = write_doc(tmp_path, gallery_document("two_origin_line"))
    for argv in (["--field", modulus, "gallery", "two_origin_line"],
                 ["--field", modulus, "cohomology", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"modulus {modulus} exceeds 65521" in captured.err


def standard_json(value):
    """The canonical form as the standard library writes it: the oracle of `canonical_json`."""
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 63 - 2, max_value=2 ** 80)
    | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)
                      | st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=6)
                      | st.lists(st.lists(st.sampled_from(["a", "1", "é"]), max_size=3), max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example(None)
@example([0, -1, 2 ** 64, -2 ** 63 - 1, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 0.1])
@example(['"quoted" \\ back\\slash', "\x00\x01\x1f\x7f\n\r\t\b\f", "é ü 文字 😀   \ud800"])
@example({"b": [[], {}, ()], "a": {"nested": [[1, [2, []]], (3,)]}, "": "", "é": True, "A": False})
# One row repeated at two indents, and rows equal to [1, 1] as values but not as types.
@example({"rows": [[0, 0], [0, 0], [1, 1]], "deeper": {"rows": [[0, 0], [1, 1]]}, "row": [0, 0]})
@example([[1, 1], [True, True], [1.0, 1.0], (1, 1), [1, 1]])
@example({"ints": [[1, 1], [], [1, 1]], "strs": [["1", "1"], [], ["1", "1"]], "edges": [("a", "b"), ["a", "b"]]})
@example({"a": [[1, 1]], "b": [[True, True]], "c": [[1.0, 1.0]], "d": [[0.0]], "e": [[-0.0]], "f": [[0]]})
def test_canonical_json_matches_the_standard_encoder(value):
    assert canonical_json(value) == standard_json(value)


class Level(enum.IntEnum):
    TOP = 3


class Name(str):
    pass


def test_canonical_json_writes_subclasses_of_scalars_as_their_base():
    value = {Name("key"): [Level.TOP, Name("x"), np.float64(0.1), np.float64("-inf")], "level": Level.TOP,
             "rows": [[Level.TOP, 1], [Name("a")]]}
    assert canonical_json(value) == standard_json(value)


@pytest.mark.parametrize("value", ({1: 2}, {"a": {(1, 2): 3}}, {1, 2}, [frozenset()], np.int64(3),
                                   {"a": [np.int64(1)]}, [np.bool_(True)], b"bytes", object()),
                         ids=("int_key", "tuple_key", "set", "frozenset", "int64", "int64_in_list", "bool_",
                              "bytes", "object"))
def test_canonical_json_refuses_non_str_keys_and_non_json_values(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def row_by_row_table(rows):
    """The reference table: widths from every cell, then each row formatted on its own."""
    if not rows:
        return ""
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    return "".join("  " + "  ".join(str(v).ljust(w) for v, w in zip(r, widths)) + "\n" for r in rows)


table_rows = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(*[st.integers(-5, 12) | st.booleans() | st.text("ab,é", max_size=5)] * width), max_size=12))


@given(table_rows)
@example([])
@example([("space", "H^0", "H^1"), ("union", 1, 1), ("p1", 1, 0), ("p1,p2", 0, 0), ("p1,p3", 0, 0),
          ("p2,p3", 1, 0), ("p1,p2,p3", 0, 0)])
@example([("class", "parallel_dim", "round_trip", "glue_dim"), ("[0, 1]", 1, True, 1), ("[1, 1]", 1, True, 1),
          ("[1, 0]", 10, False, 1)])
@example([("a",), ("bb",), (True,), (1,), ("",)])
@example([("x", 1), ("y", True), ("z", 1), ("w", 1.0)])
def test_table_matches_the_row_by_row_formatter(rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._table(rows)
    assert out.getvalue() == row_by_row_table(rows)


def test_table_of_repeated_tails_holds_no_text_per_cell(monkeypatch):
    # `cohomology --qmax 40` rows over 2,000 empty index sets: 82,000 cells, one distinct tail.
    rows = [("space", *[f"H^{q}" for q in range(41)])] + [(f"p{k},p{k + 1}", *[0] * 41) for k in range(2000)]
    written = []

    class Sink:
        def write(self, text):
            written.append(len(text))

        def writelines(self, lines):
            written.append(sum(map(len, lines)))

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        cli._table(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) == len(row_by_row_table(rows))
    # A text object per cell would take about 4 MB; a reference per row and the two distinct tails far less.
    assert peak < 500_000


@pytest.mark.parametrize("error", (MemoryError(), MemoryError("Unable to allocate 2.1 GiB for an array")),
                         ids=("bare", "with_message"))
def test_cli_maps_memory_error_to_one_input_error_line(tmp_path, capsys, monkeypatch, error):
    def exhausted(*args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "count", exhausted)
    report = tmp_path / "report.json"
    assert main(["--report", str(report), "count", str(write_doc(tmp_path, gallery_document("two_origin_line")))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: out of memory{f': {error}' if str(error) else ''}\n"
    assert not report.exists()


EVERY_FILE_COMMAND = ("validate", "cohomology", "mv", "fibred", "bundles", "count", "collapse-check",
                      "refine-check")

# Runs every file command on each document in process and prints one digest of
# their exit codes, stdout, stderr and reports.
DIGEST_EVERY_COMMAND = """
import contextlib, hashlib, io, os, re, sys
from cechkit.cli import main
workdir, commands, docs = sys.argv[1], sys.argv[2].split(), sys.argv[3:]
digest = hashlib.sha256()
for doc in docs:
    for command in commands:
        report = f"{workdir}/{os.path.basename(doc)}.{command}.report.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--report", report, command, doc])
        digest.update(f"{command} {code}\\n".encode())
        digest.update(re.sub(r"elapsed: [0-9.]+s\\n", "", out.getvalue() + err.getvalue()).encode())
        digest.update(open(report, "rb").read() if os.path.exists(report) else b"no report")
print(digest.hexdigest())
"""


def pieces_a_z_and_a_bang():
    """A three-piece gallery document with the piece ids a, z and a!, and an identity refinement block.

    In tuple order ("a", "z") comes before ("a!",); in the order of the
    joined keys "a!" comes first.  Every index set is disconnected.
    """
    names = {"p1": "a", "p2": "z", "p3": "a!"}
    doc = gallery_document("random_admissible", n=3, seed=11)
    doc["pieces"] = [{**piece, "id": names[piece["id"]]} for piece in doc["pieces"]]
    doc["gluings"] = [{**g, "i": names[g["i"]], "j": names[g["j"]]} for g in doc["gluings"]]
    coarse = canonicalize(parse_document(doc).system)
    doc["refinement"] = {"fine": {"pieces": doc["pieces"], "gluings": doc["gluings"]},
                         "map": [[v, v] for v in coarse.nerve.vertices]}
    return doc


def test_cli_cohomology_table_lists_index_sets_in_key_order(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["--report", str(report_path), "cohomology", str(write_doc(tmp_path, pieces_a_z_and_a_bang()))]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    degrees = len(report["union_dims"])
    rows = ([("space", *[f"H^{q}" for q in range(degrees)]), ("union", *report["union_dims"])]
            + [(pid, *report["piece_dims"][pid]) for pid in ("a", "a!", "z")]
            + [(k, *report["intersection_dims"][k]) for k in ("a!,z", "a,a!", "a,a!,z", "a,z")])
    out = capsys.readouterr().out
    assert out.startswith(f"global labels: {', '.join(report['global_labels'])}\n" + row_by_row_table(rows))
    assert out.count("\n") == len(rows) + 2 and out.splitlines()[-1].startswith("elapsed: ")


def test_every_report_and_stdout_do_not_depend_on_the_hash_seed(tmp_path):
    # The second document is invalid: validate lists its two violations, and
    # every other command refuses it with an input error that names both.
    path = write_doc(tmp_path, pieces_a_z_and_a_bang())
    invalid = write_doc(tmp_path, {"field": 2, "pieces": [{"id": "p1", "simplices": [["a", "b"]]},
                                                         {"id": "p2", "simplices": [["a"], ["b"]]}],
                                   "gluings": [{"i": "p1", "j": "p2", "pairs": [["a", "a"], ["b", "b"]]}]},
                        "invalid.json")
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for seed in ("1", "2"):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        done = subprocess.run([sys.executable, "-c", DIGEST_EVERY_COMMAND, str(workdir), " ".join(EVERY_FILE_COMMAND),
                               str(path), str(invalid)], capture_output=True, timeout=120, text=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert done.returncode == 0 and done.stderr == "", done.stderr
        digests.append(done.stdout)
        assert sorted(p.name for p in workdir.iterdir()) == sorted(
            [f"doc.json.{c}.report.json" for c in EVERY_FILE_COMMAND] + ["invalid.json.validate.report.json"])
    assert digests[0] == digests[1]
    assert len(json.loads((tmp_path / "seed1" / "invalid.json.validate.report.json").read_text(
        encoding="utf-8"))["violations"]) == 2
    count = json.loads((tmp_path / "seed1" / "doc.json.count.report.json").read_text(encoding="utf-8"))
    assert set(count["h1_dims"]) == {"a", "z", "a!", "a,z", "a,a!", "a!,z", "a,a!,z"}
    assert count["hypotheses"]["disconnected"] == ["a", "a,a!", "a,a!,z", "a,z", "a!", "a!,z", "z"]
