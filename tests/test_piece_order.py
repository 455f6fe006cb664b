"""Piece order is not part of a document's meaning.

Reversing a document's `pieces` and `gluings` lists changes no byte of
any file command's report but `input_digest`, the digest of the bytes
read.  `refine-check` is left out: its refinement block carries a fine
diagram with its own pieces and gluings, which this reversal does not
reach.
"""

import pytest
from conftest import GALLERY_CASES

from cechkit.cli import run_command
from cechkit.documents import canonical_json
from cechkit.gallery import gallery_document

COMMANDS = ("validate", "cohomology", "mv", "fibred", "count", "collapse-check", "bundles")
CASES = GALLERY_CASES + [("random_admissible", {"seed": seed, "n": n}) for seed in range(6) for n in (3, 4)]


def outcome(command, path):
    """The report without its input digest, as canonical text, and the exit code."""
    report, code = run_command(command, {"path": path})
    del report["input_digest"]
    return canonical_json(report), code


@pytest.mark.parametrize("name, kwargs", CASES, ids=[f"{name}{kwargs or ''}" for name, kwargs in CASES])
def test_reversing_pieces_and_gluings_changes_no_report_byte(name, kwargs, tmp_path):
    doc = gallery_document(name, **kwargs)
    assert len(doc["pieces"]) > 1
    given, reversed_ = tmp_path / "given.json", tmp_path / "reversed.json"
    given.write_text(canonical_json(doc), encoding="utf-8")
    reversed_.write_text(canonical_json(dict(doc, pieces=doc["pieces"][::-1], gluings=doc["gluings"][::-1])),
                         encoding="utf-8")
    for command in COMMANDS:
        assert outcome(command, reversed_) == outcome(command, given), command
