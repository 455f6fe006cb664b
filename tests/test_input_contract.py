"""The command line's input contract, fuzzed.

Every document gets a verdict (exit 0 or 1) or is refused (exit 2 with
`input error: ` on stderr); nothing escapes `main`, and a report is the
same bytes on every run.  The documents are gallery documents, bundle and
refinement blocks included, over F_2 and F_3, each hit by a mutation:
a key deleted, a value replaced, a list entry duplicated or dropped.
"""

import contextlib
import copy
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from conftest import rank2_bundle_document
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit.bundles import IncompatibleData, IncompatibleSections, NonAbelianRank, WrongField
from cechkit.cli import main
from cechkit.cochains import NotSimplicial, NotSubcomplex
from cechkit.complexes import CLOSURE_CAP, MalformedSimplex
from cechkit.diagrams import BadIndexSet, EmptyIndexSet, InvalidSystem
from cechkit.documents import NonPrimeModulus, ParseError, canonical_json
from cechkit.errors import InputError, ResourceLimit
from cechkit.fplinalg import DimensionMismatch, ModulusTooLarge, NotPrime
from cechkit.gallery import BadGalleryParameter, UnknownGallery, gallery_document
from cechkit.mv import NotBinary
from cechkit.refinements import InvalidRefinement

FILE_COMMANDS = ("validate", "cohomology", "mv", "fibred", "bundles", "count",
                 "collapse-check", "refine-check")
BASES = [gallery_document(name, field=p, **kwargs)
         for name, kwargs in (("two_origin_line", {}), ("branching_line_n", {"n": 3}),
                              ("bug_eyed_circle", {}), ("three_circles", {}))
         for p in (2, 3)]
REPLACEMENTS = (0, -1, 1.5, True, None, "x", [], {}, 10 ** 9)


def test_refusals_are_input_errors_and_api_misuse_is_not():
    refusals = (ParseError, NonPrimeModulus, NotPrime, ModulusTooLarge, BadGalleryParameter,
                UnknownGallery, IncompatibleData, WrongField, InvalidSystem, ResourceLimit)
    misuse = (DimensionMismatch, NotSubcomplex, NotSimplicial, MalformedSimplex,
              BadIndexSet, EmptyIndexSet, NotBinary, NonAbelianRank,
              IncompatibleSections, InvalidRefinement)
    assert all(issubclass(c, InputError) for c in refusals)
    assert not any(issubclass(c, InputError) for c in misuse)
    assert all(issubclass(c, ValueError) for c in refusals + misuse)


def _paths(value, path=()):
    """The path of every value inside a document, the document itself excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        *head, key = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for k in head:
            parent = parent[k]
        kind = draw(st.sampled_from(("delete", "replace", "duplicate")))
        if kind == "delete":
            del parent[key]  # a key of an object, or an entry of a list
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return doc


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents())
def test_every_mutated_document_gets_a_verdict_or_an_input_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        for command in FILE_COMMANDS:
            runs = []
            for k in range(2):
                report = Path(tmp) / f"{command}.{k}.json"
                code, _, err = _run(["--report", str(report), command, str(path)])
                assert code in (0, 1, 2), (command, code)
                if code == 2:
                    assert err.startswith("input error: "), (command, err)
                else:
                    assert err == "", (command, err)
                runs.append((code, err, report.read_bytes() if report.exists() else None))
            assert runs[0] == runs[1], command


def test_a_misspelled_bundle_piece_key_is_one_input_error(tmp_path):
    # read as "every edge is the identity", it would glue; it is refused instead
    doc = gallery_document("two_origin_line")
    doc["bundle"]["pieces"][0] = {"id": "p1", "edgez": [["l", "o1", 1]]}
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, err = _run(["--report", str(tmp_path / "report.json"), "bundles", str(path)])
    assert code == 2 and out == ""
    assert err == "input error: $.bundle.pieces: unknown bundle piece keys ['edgez']\n"


def test_a_rank2_entry_beyond_int64_is_reduced_mod_p(tmp_path):
    # 2^80 + 1 is 1 mod 2, as it is at rank 1: the bundle is the one with entry 1
    reports = []
    for entry in (2 ** 80 + 1, 1):
        path, report = tmp_path / f"doc{entry}.json", tmp_path / f"report{entry}.json"
        path.write_text(canonical_json(rank2_bundle_document(entry)), encoding="utf-8")
        code, _, err = _run(["--report", str(report), "bundles", str(path)])
        assert (code, err) == (0, "")
        reports.append(json.loads(report.read_text(encoding="utf-8")))
        del reports[-1]["input_digest"]
    assert reports[0] == reports[1] and reports[0]["bundle_block"]["status"] == "ok"


def test_a_singular_rank2_transition_on_a_triangle_is_one_input_error(tmp_path):
    # the triangle identity reads g[c, a], the inverse of the value on (a, c), which does not exist
    doc = {"field": 2,
           "pieces": [{"id": "p1", "simplices": [["a", "b", "c"]]}, {"id": "p2", "simplices": [["c", "d"]]}],
           "gluings": [{"i": "p1", "j": "p2", "pairs": [["c", "c"]]}],
           "bundle": {"rank": 2, "pieces": [{"id": "p1", "edges": [["a", "c", [[1, 1], [1, 1]]]]}]}}
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, err = _run(["bundles", str(path)])
    assert code == 2 and out == ""
    assert err == "input error: piece data invalid: ('p1', ('a', 'c'), 'transition is not invertible')\n"


def test_a_piece_id_holding_a_comma_is_one_input_error(tmp_path):
    # report keys join an index set's ids with ",": ("a", "b,c") and ("a,b", "c") would share "a,b,c"
    ids = ("a", "a,b", "b,c", "c")
    doc = {"field": 2, "pieces": [{"id": i, "simplices": [["x", "y"]]} for i in ids],
           "gluings": [{"i": i, "j": j, "pairs": [["x", "x"], ["y", "y"]]}
                       for i, j in itertools.combinations(ids, 2)]}
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    for command in FILE_COMMANDS:
        code, out, err = _run(["--report", str(tmp_path / "report.json"), command, str(path)])
        assert code == 2 and out == "", (command, code)
        assert err == "input error: $.pieces[1]: piece id 'a,b' contains ','\n", command


def test_the_module_entry_point_exits_0_1_or_2_without_a_traceback(tmp_path):
    invalid = tmp_path / "invalid.json"
    invalid.write_text(canonical_json({
        "field": 2,
        "pieces": [{"id": "p1", "simplices": [["a", "b"]]},
                   {"id": "p2", "simplices": [["a"], ["b"]]}],
        "gluings": [{"i": "p1", "j": "p2", "pairs": [["a", "a"], ["b", "b"]]}]}), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, want in ((["gallery", "two_origin_line"], 0),
                       (["validate", str(invalid)], 1),
                       (["cohomology", str(tmp_path / "missing.json")], 2)):
        done = subprocess.run([sys.executable, "-m", "cechkit", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == want, (argv, done.stderr)
        assert "Traceback" not in done.stderr
        if want == 2:
            assert done.stderr.startswith("input error: ") and done.stderr.count("\n") == 1


def test_a_simplex_of_40_vertices_is_refused_before_its_closure_is_made(tmp_path):
    # Its closure would have 2^40 - 1 faces: made one by one, it ran out of memory.  The child
    # gets a 1 GiB address-space limit, so a closure that is made anyway ends there.
    path = tmp_path / "big.json"
    path.write_text(canonical_json({"field": 2, "pieces": [{"id": "p", "simplices": [
        [f"v{i:02d}" for i in range(40)]]}], "gluings": []}), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cechkit", "validate", str(path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=limit)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"input error: simplex closures are capped at {CLOSURE_CAP} faces; "
                           f"the simplices given close to up to {2 ** 40 - 1}\n")
    assert elapsed < 1.0


def _merged_local_label(doc):
    """p2 calls the class of l1 "k1"; canonicalisation names it l1, so the map's k1 names nothing."""
    fine = doc["refinement"]["fine"]
    fine["pieces"][1]["simplices"][0] = ["k1", "l2"]
    fine["gluings"][0]["pairs"][0] = ["l1", "k1"]
    doc["refinement"]["map"].append(["k1", "l"])
    return "k1"


def _unknown_label(doc):
    doc["refinement"]["map"].append(["zzz", "l"])
    return "zzz"


def test_a_refinement_map_naming_a_label_the_fine_diagram_lacks_is_one_input_error(tmp_path):
    # dropped, the entry would leave a verdict on a map the document did not give; it is refused instead
    for mutate in (_unknown_label, _merged_local_label):
        doc = gallery_document("two_origin_line")
        label = mutate(doc)
        path = tmp_path / "doc.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        code, out, err = _run(["--report", str(tmp_path / "report.json"), "refine-check", str(path)])
        assert code == 2 and out == "", (label, err)
        assert err == f"input error: $.refinement.map: map names labels the fine diagram does not have " \
                      f"['{label}']\n"


@pytest.mark.parametrize("argv", [
    ["two_origin_line", "--n", "3"], ["bug_eyed_circle", "--n", "2"], ["three_circles", "--n", "3"],
    ["two_origin_line", "--seed", "0"], ["three_circles", "--seed", "7"],
    ["branching_line_n", "--n", "3", "--seed", "4"],
    # list takes neither flag; with both, n is refused first
    ["list", "--n", "3"], ["list", "--seed", "9"], ["list", "--seed", "9", "--n", "3"],
], ids=" ".join)
def test_a_gallery_flag_the_family_does_not_take_is_one_input_error(argv):
    # such a flag was ignored, and the family's one document (or the list of names) written with exit 0
    name, flag, value = argv[0], argv[-2], argv[-1]
    message = (f"gallery {name} takes no seed; only random_admissible does" if flag == "--seed"
               else f"gallery {name} takes no n; only branching_line_n and random_admissible do")
    assert _run(["gallery", *argv]) == (2, "", f"input error: {message}\n")
    if name != "list":
        with pytest.raises(BadGalleryParameter, match=message):
            gallery_document(name, **{flag[2:]: int(value)})


def test_the_gallery_seed_defaults_to_0():
    assert gallery_document("random_admissible") == gallery_document("random_admissible", seed=0)
    for argv in (["random_admissible"], ["random_admissible", "--seed", "0"]):
        assert _run(["gallery", *argv])[::2] == (0, "seed: 0\n")
    assert _run(["gallery", "random_admissible"]) == _run(["gallery", "random_admissible", "--seed", "0"])
