"""The four workloads: documents and the fixed job list each one runs.

A job is one `cechkit` command line.  Its document, flags and expected
outcome are fixed by the workload; the seed changes only the names and
order inside the documents (see docs.relabel).  The fault jobs and
hostile documents do not depend on the seed at all.

Job fields: argv (command line after --report, with {doc} standing for
the document path), doc (document name or None), field, expect_code,
and what the oracle needs (qmax, q, refine_dims, bundle_expect,
gallery_betti, gallery_pieces).  `fault` names a known fault of the
program that makes the job fail today.
"""

from __future__ import annotations

import random
from typing import Any

import docs

WORKLOADS = ("grid", "necklace", "bundles", "desk")

Job = dict[str, Any]

GRID_ALL = ("cohomology", "mv", "fibred", "count", "collapse-check", "refine-check")
NECKLACE_ALL = ("validate", "cohomology", "mv", "fibred", "count", "collapse-check")


def _job(command: str, doc: str | None, field: int | None = None, *extra: str, **expect) -> Job:
    argv = (["--field", str(field)] if field else []) + [command]
    argv += ["{doc}"] if doc is not None else []
    argv += list(extra)
    return {"command": command, "argv": argv, "doc": doc, "field": field, **expect}


def _file_jobs(doc: docs.Doc, commands, field: int | None = None) -> list[Job]:
    out = []
    for c in commands:
        expect: dict[str, Any] = {}
        if c == "refine-check":
            expect["refine_dims"] = doc.refine_dims
        if c == "bundles" and doc.bundle_expect:
            expect["bundle_expect"] = doc.bundle_expect
            expect["expect_code"] = doc.bundle_expect.get("exit", 0)
        out.append(_job(c, doc.name, field, **expect))
    return out


def grid() -> tuple[list[docs.Doc], list[Job]]:
    # (width, height, arcs): 112, 160, 200 and 240 simplices in the union nerve.
    s83k3, s83k2 = docs.strip(8, 3, 3), docs.strip(8, 3, 2)
    s84k2, s104k4, s124k3 = docs.strip(8, 4, 2), docs.strip(10, 4, 4), docs.strip(12, 4, 3)
    jobs = (_file_jobs(s83k3, GRID_ALL)
            + _file_jobs(s83k2, ("mv",), field=3)
            + _file_jobs(s84k2, ("mv", "count"))
            + _file_jobs(s104k4, ("mv",))
            + _file_jobs(s104k4, ("mv",), field=3)
            + _file_jobs(s124k3, ("mv",)))
    return [s83k3, s83k2, s84k2, s104k4, s124k3], jobs


def necklace() -> tuple[list[docs.Doc], list[Job]]:
    ring8, chain10 = docs.necklace(8, ring=True), docs.necklace(10, ring=False)
    ring12 = docs.necklace(12, ring=True)
    jobs = (_file_jobs(ring8, NECKLACE_ALL)
            + _file_jobs(chain10, NECKLACE_ALL)
            + _file_jobs(ring12, ("validate", "cohomology", "fibred", "count")))
    return [ring8, chain10, ring12], jobs


def bundles() -> tuple[list[docs.Doc], list[Job]]:
    # dim H^1 of the union: 3, 4, 4, 5, 5, 6, 7.
    family = [docs.bundle_fan(2, 1, "obstructed"), docs.bundle_ring(3, "glue"),
              docs.bundle_fan(3, 1, "glue"), docs.bundle_ring(4, "rank2"),
              docs.bundle_fan(3, 2, "glue"), docs.bundle_ring(5, "glue", tri=True),
              docs.bundle_ring(6, "glue", tri=True)]
    jobs = [j for d in family for j in _file_jobs(d, ("bundles", "count"))]
    return family, jobs


def desk() -> tuple[list[docs.Doc], list[Job]]:
    named = [docs.two_origin_line(), docs.bug_eyed_circle(), docs.three_circles()]
    named += [docs.branching_line(n) for n in (2, 3, 5, 8)]
    # 2 to 4 pieces, then 5 and 6 pieces that all share one core, so every
    # index set is nonempty.  Contents are drawn from fixed seeds so that
    # every benchmark seed asks for the same work; the benchmark seed
    # relabels them like every other document.
    shapes = [(n, c) for n in (2, 3, 4) for c in (2, 3, 4)] * 2 + [(5, 2), (5, 3), (6, 2), (6, 3)]
    randoms = []
    for k, (n, c) in enumerate(shapes):
        d = docs.random_admissible(random.Random(f"desk:{k}"), n, c)
        d.name = f"random{k:02d}"
        randoms.append(d)
    basic = ("validate", "cohomology", "mv", "fibred", "count", "collapse-check")
    jobs: list[Job] = []
    for d in named:
        jobs += _file_jobs(d, basic)
    two, bug, three = named[0], named[1], named[2]
    jobs += _file_jobs(two, ("bundles", "refine-check"))
    jobs += _file_jobs(bug, ("bundles", "refine-check"))
    jobs += _file_jobs(three, ("bundles",))
    jobs += _file_jobs(named[4], ("bundles",))
    jobs += _file_jobs(three, ("cohomology", "mv"), field=3)
    jobs += _file_jobs(bug, ("cohomology", "mv", "refine-check"), field=3)
    jobs += _file_jobs(two, ("fibred", "collapse-check", "refine-check"), field=5)
    for k, d in enumerate(randoms):
        third = ("validate", "fibred", "count", "collapse-check")[k % 4]
        jobs += _file_jobs(d, ("cohomology", "mv", third))
        if k % 3 == 0:
            jobs += _file_jobs(d, ("cohomology", "fibred"), field=3 if k % 2 else 5)
    jobs += [
        _job("gallery", None, None, "list"),
        _job("gallery", None, None, "two_origin_line", gallery_betti=(1, 1), gallery_pieces=2),
        _job("gallery", None, None, "branching_line_n", "--n", "4",
             gallery_betti=(1, 0), gallery_pieces=4),
        _job("gallery", None, 3, "bug_eyed_circle", gallery_betti=(1, 2), gallery_pieces=2),
        _job("gallery", None, None, "three_circles", gallery_betti=(1, 3), gallery_pieces=3),
        _job("gallery", None, None, "random_admissible", "--seed", "7"),
    ]
    hostile, hostile_jobs = _hostile()
    seven = docs.seven_edges()
    fixed = docs.two_origin_line()
    fixed.name = "fault_doc"
    jobs += hostile_jobs
    jobs += [
        _job("count", "fault_doc", 3, expect_code=2,
             fault="--field 3 count raises an uncaught cechkit.mv.WrongField"),
        _job("cohomology", "fault_doc", None, "--qmax", "-3", expect_code=2,
             fault="cohomology --qmax -3 raises IndexError"),
        _job("fibred", "fault_doc", None, "--q", "-1", expect_code=2,
             fault="fibred --q -1 raises KeyError"),
        _job("bundles", "seven_edges", None, expect_code=0,
             fault="bundles raises ValueError on 14 piece components"),
    ]
    return named + randoms + hostile + [seven, fixed], jobs


def _hostile() -> tuple[list[docs.Doc], list[Job]]:
    """Inputs that must end in exit 2 with a message and no traceback."""
    def variant(name: str, change) -> docs.Doc:
        d = docs.two_origin_line()
        change(d.body)
        d.name = name
        return d

    def dup(b):
        b["pieces"].append(dict(b["pieces"][0]))

    def not_simplicial(b):
        # p2 also has the edge l-r between glued labels, which p1 lacks.
        b["gluings"] = [{"i": "p1", "j": "p2", "pairs": [["l", "l"], ["r", "r"], ["o1", "o2"]]}]
        b["pieces"][1]["simplices"] = [["l", "o2"], ["o2", "r"], ["l", "r"]]
        del b["bundle"], b["refinement"]

    out = [variant("h_field4", lambda b: b.update(field=4)),
           variant("h_unknown_key", lambda b: b.update(extra=1)),
           variant("h_duplicate", dup),
           variant("h_unknown_piece", lambda b: b["gluings"].append(
               {"i": "p1", "j": "nope", "pairs": []})),
           variant("h_not_simplicial", not_simplicial),
           variant("h_no_refinement", lambda b: b.pop("refinement")),
           variant("h_bundle_piece", lambda b: b["bundle"]["pieces"].append(
               {"id": "nope", "edges": []}))]
    jobs = [_job("cohomology", "h_field4", expect_code=2),
            _job("validate", "h_unknown_key", expect_code=2),
            _job("mv", "h_duplicate", expect_code=2),
            _job("count", "h_unknown_piece", expect_code=2),
            _job("mv", "h_not_simplicial", expect_code=2),
            _job("validate", "h_not_simplicial", expect_code=1),
            _job("refine-check", "h_no_refinement", expect_code=2),
            _job("bundles", "h_bundle_piece", expect_code=2),
            _job("mv", "fault_doc", 4, expect_code=2),
            _job("bundles", "fault_doc", 3, expect_code=2),
            _job("validate", "h_missing", expect_code=2),
            _job("validate", "h_malformed", expect_code=2),
            _job("gallery", None, None, "no_such_name", expect_code=2),
            _job("cohomology", "fault_doc", None, "--qmax", "x", expect_code=2)]
    return out, jobs


# Hostile inputs that are not JSON documents: written as raw bytes, or absent.
RAW = {"h_malformed": b'{"field": 2, "pieces": [', "h_missing": None}


def build(workload: str, seed: int) -> tuple[list[docs.Doc], list[Job]]:
    """Documents (relabelled from the seed, except fixed inputs) and the job list."""
    family, jobs = {"grid": grid, "necklace": necklace, "bundles": bundles, "desk": desk}[workload]()
    rng = random.Random(f"{workload}:{seed}")
    fixed = {"fault_doc", "seven_edges"}
    out = [d if d.name in fixed or d.name.startswith("h_") else docs.relabel(d, rng)
           for d in family]
    return out, jobs
