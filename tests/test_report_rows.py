"""The index set rows of the reports, checked against `reference.index_set_rows` on many-piece documents.

`cohomology` lists every index set of size 2 and up, sorted by key;
`count` and `mv` list each one whose intersection is not connected, in
index set tuple order; `count` gives every index set's dim H^1;
`refine-check` names every index set once per degree, in
`itertools.combinations` order, size by size.  The `cohomology` table on
stdout is compared with one formatted row by row.
"""

import contextlib
import io
import itertools

import pytest
import reference
from conftest import necklace_nerves, shared_label_document
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import cli
from cechkit.diagrams import canonicalize
from cechkit.documents import canonical_json, parse_document
from cechkit.gallery import gallery_document


def run(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report, _ = cli.run_command(command, {"path": str(path)})
    return report, out.getvalue()


def table_text(rows):
    """Rows as columns, each cell left-aligned to its column's width, formatted one row at a time."""
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    return "".join("  " + "  ".join(str(v).ljust(w) for v, w in zip(r, widths)) + "\n" for r in rows)


def check_rows(tmp_path, doc):
    diagram = canonicalize(parse_document(doc).system)
    p = diagram.field.p
    q_max = max(reference.top(diagram.nerve), 0)
    rows, disconnected = reference.index_set_rows(diagram, max(q_max, 1), p)
    n = len(diagram.piece_ids)
    assert len(rows) == 2 ** n - 1

    report, out = run(tmp_path, "cohomology", doc)
    # index sets of size 2 and up; no piece id holds ","
    pairs_up = {k: v[:q_max + 1] for k, v in rows.items() if "," in k}
    assert list(report["intersection_dims"].items()) == list(pairs_up.items())
    dims = [reference.betti(diagram.nerve, q, p) for q in range(q_max + 1)]
    table = ([("space", *[f"H^{q}" for q in range(q_max + 1)]), ("union", *dims)]
             + [(i, *[reference.betti(diagram.nerves[i], q, p) for q in range(q_max + 1)]) for i in diagram.piece_ids]
             + [(k, *v) for k, v in pairs_up.items()])
    lines = out.splitlines(keepends=True)
    assert lines[0].startswith("global labels: ")
    assert "".join(lines[1:]) == table_text(table)

    report, _ = run(tmp_path, "mv", doc)
    assert report["h1_fibred"]["disconnected"] == disconnected
    if p == 2:
        report, _ = run(tmp_path, "count", doc)
        assert report["h1_dims"] == {k: v[1] for k, v in rows.items()}
        assert report["hypotheses"]["disconnected"] == disconnected

    # the identity refinement of the document
    doc = dict(doc, refinement={"fine": {"pieces": doc["pieces"], "gluings": doc["gluings"]},
                                "map": [[v, v] for v in diagram.nerve.vertices]})
    report, _ = run(tmp_path, "refine-check", doc)
    named = [",".join(t) for size in range(1, n + 1) for t in itertools.combinations(diagram.piece_ids, size)]
    assert sorted(named) == list(rows)
    squares = [s for s in report["squares"] if s["name"].startswith("delta[T=")]
    assert squares == [{"name": f"delta[T={k}] q={q}", "commutes": True}
                       for q in range(min(2, q_max) + 1) for k in named]
    return rows, disconnected


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("ring", (True, False), ids=("ring", "chain"))
@pytest.mark.parametrize("n", range(3, 13))
def test_report_rows_match_the_reference_on_necklaces(tmp_path, n, ring, p):
    check_rows(tmp_path, shared_label_document(necklace_nerves(n, ring), field=p))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from((None, 4, 5, 6)), p=st.sampled_from((2, 3)))
def test_report_rows_match_the_reference_on_random_documents(tmp_path_factory, seed, n, p):
    check_rows(tmp_path_factory.mktemp("rows"), gallery_document("random_admissible", field=p, n=n, seed=seed))


@pytest.mark.parametrize("p", (2, 3))
def test_report_rows_keep_both_orders_where_ids_hold_characters_below_the_comma(tmp_path, p):
    # "a b" and "a+" sort before "a,b" as keys, while ("a", "b") sorts before ("a b",) and ("a+",) as tuples
    doc = shared_label_document(necklace_nerves(6, True, ids=["a", "a b", "a+", "b", "b!", "c"]), field=p)
    rows, disconnected = check_rows(tmp_path, doc)
    assert list(rows) != sorted(rows, key=lambda k: k.split(",")) and disconnected != sorted(disconnected)


def test_each_index_set_row_of_the_cohomology_report_is_a_list_of_its_own(tmp_path):
    # a ring of 8 circles: 8 nonempty pairs, 239 empty index sets
    report, _ = run(tmp_path, "cohomology", shared_label_document(necklace_nerves(8, True)))
    rows = list(report["intersection_dims"].values())
    assert all(type(row) is list for row in rows)
    assert len(set(map(id, rows))) == len(rows) == 2 ** 8 - 1 - 8
    rows[-1][0] = 7
    assert [row for row in rows if row[0] == 7] == [rows[-1]]
