"""An `FMatrix` is its rows: what sharing them may not change, and what they save.

Views, products and `block_matrix` share row objects with their operands,
so no operation may change a stored row.  No command needs numpy: every
command gives the same exit code, output and report bytes in a process
where numpy cannot be imported.  A strip's `mv` and `fibred` cost the
memory of their nonzeros, not of their matrices' shapes, and the
benchmark's larger strips run in a process limited to 1 GiB.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import GALLERY_CASES, rank2_bundle_document
from dense import dense, matrix, vector
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit.cli import run_command
from cechkit.documents import canonical_json
from cechkit.fplinalg import MAX_PRIME, FMatrix, PrimeField, block_matrix
from cechkit.gallery import gallery_document


@st.composite
def operands(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """A matrix (about half its entries 0), a right-hand side of two columns, and p."""
    p = draw(st.sampled_from((2, 3, MAX_PRIME)))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(-p, 2 * p, size=(rows, cols))
    a[rng.random(a.shape) < 0.5] = 0
    return a, rng.integers(0, p, size=(rows, 2)), p


@settings(max_examples=150, deadline=None)
@given(operands())
def test_no_operation_changes_a_row_it_shares(case):
    a, b, p = case
    field = PrimeField(p)
    n = min(a.shape)
    unit = np.triu(a[:n, :n], 1) + np.eye(n, dtype=np.int64)  # invertible
    m, rhs, u = FMatrix(a, field), FMatrix(b, field), FMatrix(unit, field)
    a = a % p
    # each result and what it must hold; the views and blocks share rows with m
    results = [
        (m[1:], a[1:]), (m[::-1], a[::-1]), (m[:, 1:], a[:, 1:]), (m[:, ::-1], a[:, ::-1]),
        (m[:, [0, 0]], a[:, [0, 0]]), (m.T, a.T), (-m, -a % p), (u @ m[:n], unit @ a[:n] % p),
        (block_matrix({0: m.rows, 1: m.rows}, {0: m.cols}, [(0, 0, m), (1, 0, m)], field), np.vstack([a, a])),
        (block_matrix({0: m.rows, 1: m.rows}, {0: m.cols, 1: 2}, [(0, 0, m), (1, 0, m), (1, 1, rhs)], field),
         np.block([[a, np.zeros_like(b)], [a, b]])),
    ]
    for x in [m, u, *(r for r, _ in results)]:
        x.rank()
        x.kernel_basis()
        x[:, x.pivots()]
        x.solve(vector(np.ones(x.rows, dtype=np.int64), field))
        x.solve(matrix(np.ones((x.rows, 2), dtype=np.int64), field))
        x.solve(FMatrix.identity(x.rows, field))
        x.remainder(x)
        if x.rows == x.cols:
            try:
                x.inverse()
            except ZeroDivisionError:
                pass
    assert u.inverse().shape == (n, n)
    # each matrix's entries are read only now, after every operation ran on the rows it shares
    for x, want in [(m, a), (rhs, b), (u, unit % p), *results]:
        assert np.array_equal(dense(x), want)


COMMANDS = ("validate", "cohomology", "mv", "fibred", "bundles", "count", "collapse-check", "refine-check")

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each (document, command, report) job of argv[2] through cechkit.cli.main
# in one fresh process, after making numpy unimportable when argv[1] is
# "blocked"; prints each job's exit code and stdout less its elapsed line,
# and whether numpy was imported.
CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from cechkit.cli import main
jobs = []
for doc, command, report in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["--report", report, command, doc])
    jobs.append([code, [line for line in out.getvalue().splitlines() if not line.startswith("elapsed: ")]])
print(json.dumps({"jobs": jobs, "numpy": sys.modules.get("numpy") is not None}))
"""


def run_jobs(mode: str, paths: list[Path], reports: Path) -> tuple[dict, dict]:
    """The child's summary of every command on every path, and the report bytes (None for no report)."""
    reports.mkdir()
    jobs = [[str(path), command, str(reports / f"{path.stem}.{command}.json")] for path in paths for command in COMMANDS]
    done = subprocess.run([sys.executable, "-c", CHILD, mode, json.dumps(jobs)], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    written = {Path(report).name: Path(report).read_bytes() if Path(report).exists() else None
               for _, _, report in jobs}
    return json.loads(done.stdout), written


@pytest.mark.parametrize("p", (2, 3))
def test_no_command_needs_numpy(p, tmp_path):
    cases = GALLERY_CASES + [("random_admissible", {"seed": seed}) for seed in (3, 7, 11)]
    docs = [gallery_document(name, field=p, **kwargs) for name, kwargs in cases]
    docs += [rank2_bundle_document()] if p == 2 else []
    paths = []
    for doc in docs:
        paths.append(tmp_path / f"doc{len(paths)}.json")
        paths[-1].write_text(canonical_json(doc), encoding="utf-8")
    normal, normal_reports = run_jobs("normal", paths, tmp_path / "normal")
    blocked, blocked_reports = run_jobs("blocked", paths, tmp_path / "blocked")
    assert blocked == normal and blocked_reports == normal_reports
    assert normal["numpy"] is False and any(normal_reports.values())
    keys = [(path, command) for path in paths for command in COMMANDS]
    codes = {key: code for key, (code, _) in zip(keys, normal["jobs"])}
    # count and bundles need F_2 and refine-check a refinement block; every other command runs
    needs_f2 = ("count", "bundles") if p != 2 else ()
    assert {code for (_, command), code in codes.items() if command not in needs_f2 + ("refine-check",)} <= {0, 1}
    assert p != 2 or codes[(paths[-1], "bundles")] == 0


@pytest.mark.parametrize("command", ("mv", "fibred"))
def test_strip_commands_cost_their_nonzeros(command, strip_document, tmp_path):
    # Stored as dense int64 arrays, these matrices peaked at 24.5 (mv) and 34.5 MiB (fibred).
    path = tmp_path / "strip.json"
    path.write_text(canonical_json(strip_document(20, 12)), encoding="utf-8")
    tracemalloc.start()
    try:
        _, code = run_command(command, {"path": path})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 8 * 2 ** 20, peak


BENCH = Path(__file__).resolve().parents[1] / "bench"

# Writes the benchmark's strip 80x20 and strip 60x15 (bench/docs.py, imported
# without writing bytecode next to it) into argv[2], runs mv, fibred,
# refine-check, count and collapse-check on the first and refine-check on the
# second through run_command, and prints their exit codes.
CHILD_AT_SCALE = """
import contextlib, io, json, sys
from cechkit.cli import run_command
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import docs
codes = []
for (width, height), commands in (((80, 20), ("mv", "fibred", "refine-check", "count", "collapse-check")),
                                  ((60, 15), ("refine-check",))):
    path = f"{sys.argv[2]}/strip{width}x{height}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(docs.strip(width, height, 3).body, f)
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(run_command(command, {"path": path})[1])
print(json.dumps(codes))
"""


def test_the_benchmark_strips_run_in_1_gib(tmp_path):
    # Stored as dense int64 matrices, mv, fibred and refine-check ran out of memory on these strips;
    # count's descended ranks and collapse-check's steps and long exact sequence run under the same limit.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    done = subprocess.run([sys.executable, "-c", CHILD_AT_SCALE, str(BENCH), str(tmp_path)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0] * 6
