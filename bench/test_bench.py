"""Checks of the benchmark's own inputs and oracle.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import docs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from cechkit.cochains import cohomology  # noqa: E402
from cechkit.diagrams import canonicalize, validate_system  # noqa: E402
from cechkit.documents import materialise_refinement, parse_document  # noqa: E402
from cechkit.gallery import gallery_document  # noqa: E402
from cechkit.refinements import validate_refinement  # noqa: E402


def _program_betti(body: dict) -> tuple[int, ...]:
    diagram = canonicalize(parse_document(body).system)
    top = max(diagram.nerve.dim, 0)
    return tuple(cohomology(diagram.nerve, q, diagram.field).dimension for q in range(top + 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_documents_validate(workload):
    family, jobs = workloads.build(workload, seed=3)
    names = {d.name for d in family} | set(workloads.RAW)
    assert {j["doc"] for j in jobs if j["doc"]} <= names
    for doc in family:
        if doc.name.startswith("h_"):
            continue
        system = parse_document(doc.body).system
        assert validate_system(system).valid, doc.name
        data = json.dumps(doc.body).encode()
        oracle.truth(doc.body, data, doc.union_betti, doc.piece_betti)
        ref = doc.body.get("refinement")
        if ref is not None:
            coarse = canonicalize(system)
            assert validate_refinement(materialise_refinement(coarse, ref, coarse.field)).valid


def test_seed_changes_names_not_shape():
    a, _ = workloads.build("grid", seed=1)
    b, _ = workloads.build("grid", seed=2)
    again, _ = workloads.build("grid", seed=1)
    assert [d.body for d in a] == [d.body for d in again]
    for x, y in zip(a, b):
        assert x.body != y.body
        tx, ty = (oracle.truth(d.body, b"") for d in (x, y))
        assert tx.union_betti == ty.union_betti
        assert oracle.f_vector(tx.union, tx.top) == oracle.f_vector(ty.union, ty.top)


@pytest.mark.parametrize("name, kwargs, betti", [
    ("two_origin_line", {}, (1, 1)),          # union nerve a 4-cycle
    ("branching_line_n", {"n": 4}, (1, 0)),   # a star with 4 leaves
    ("bug_eyed_circle", {}, (1, 2)),          # a theta graph
    ("three_circles", {}, (1, 3)),
])
def test_oracle_agrees_with_gallery(name, kwargs, betti):
    body = gallery_document(name, **kwargs)
    assert oracle.truth(body, b"").union_betti == betti
    assert _program_betti(body) == betti


@pytest.mark.parametrize("build", [
    lambda: docs.strip(8, 3, 2), lambda: docs.necklace(5, ring=True),
    lambda: docs.necklace(5, ring=False), lambda: docs.bundle_fan(2, 2, "glue"),
    lambda: docs.random_admissible(random.Random(5), 4, 3),
])
def test_oracle_agrees_with_program(build):
    doc = docs.relabel(build(), random.Random(0))
    assert oracle.truth(doc.body, b"").union_betti == _program_betti(doc.body)


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS


def test_traced_run_reports_every_layer_metric():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "desk",
                          "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(layers.METRICS)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["fplinalg.rref.calls"] > 0 and values["cli.gallery.s"] > 0


def test_pace_scales_times_to_the_reference():
    assert pace.probe() == 6
    assert pace.scale_of([pace.REFERENCE] * 3) == pytest.approx(1.0)
    assert pace.scale_of([pace.REFERENCE, pace.REFERENCE / 3]) == pytest.approx(0.5)
    with pace.Pace() as p:
        end = time.perf_counter() + 20 * pace.INTERVAL
        while time.perf_counter() < end:
            pass
    assert len(p.seconds) >= 5 and p.spent == pytest.approx(sum(p.seconds))
    assert p.scale(p.starts[1], p.starts[2]) == pace.scale_of(p.seconds[0:4])


def test_untraced_run_reports_the_end_to_end_metrics():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "desk",
                          "--seed", "1", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    # One round in each of the three processes; four known faults per round.
    assert result["correct"] and (result["attempted"], result["failed"]) == (3 * 162, 3 * 4)
    assert all(m["value"] > 0 for m in result["metrics"].values())
