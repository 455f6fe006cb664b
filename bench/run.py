"""cechkit benchmark: one workload, a closed loop of CLI jobs.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Each job calls `cechkit.cli.main([... "--report", <file>, <command>,
<doc>])` in process, one after another, so it pays what a CLI user pays
except interpreter start (which `setup_s` carries).  The job list is
repeated in whole rounds while the next round still fits in the
process's seconds, at least once.  Every report is checked against
bench/oracle.py.

With --trace 0 a run is CHILDREN fresh processes, one after another,
each with an equal share of --seconds: a process's memory layout moves
its job times by a few per cent for its whole life, so no one process
decides the figures.  The last line of standard output is one JSON
object: correct, attempted, failed and the end-to-end metrics:

  wall_s         median over all rounds of the summed job times of a round
  job_s.geomean  geometric mean over jobs of each job's median time
  peak_rss_mb    median over the processes of their peak resident
                 memory (ru_maxrss)
  setup_s        median over the processes of spawn to the end of
                 set-up: interpreter start, imports, generating and
                 writing the inputs, oracle answers and a warm-up job
                 per command

The three times are taken at the reference speed of bench/pace.py: each
is divided by how much slower than usual a fixed probe ran at the same
moments, which takes the host's changes of speed out of them.  The
human-readable line above the JSON gives the raw round times as well.

With --trace 1 the run is this one process, and rounds alternate
between untraced and traced, where bench/layers.py wraps the program's
modules; the traced rounds give the per-layer metrics (their times
leave out the probes' time but are not scaled), and `trace.overhead` is
the median scaled traced round time over the median scaled untraced
one, minus one.
"""

from __future__ import annotations

import os

# One thread everywhere: the jobs run one after another on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILDREN = 3

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from pace import Pace, burst, scale_of  # noqa: E402


def _program_src() -> Path:
    src = ROOT / "src"
    if not (src / "cechkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cechkit sources under {src}; run from a checkout root")
    return src


def _import_program():
    src = _program_src()
    sys.path.insert(0, str(src))
    import cechkit.cli
    if Path(cechkit.__file__).resolve().parent != (src / "cechkit").resolve():
        raise SystemExit(f"bench: imported cechkit from {cechkit.__file__}, not from {src}")
    return cechkit.cli


class Setup:
    """Everything a run needs before its first timed job."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.cli = _import_program()
        import oracle
        self.oracle = oracle
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        family, self.jobs = workloads.build(workload, seed)
        self.paths: dict[str, Path] = {}
        self.truths = {}
        for doc in family:
            path = workdir / f"{doc.name}.json"
            data = json.dumps(doc.body, indent=1, sort_keys=True).encode("utf-8")
            path.write_bytes(data)
            self.paths[doc.name] = path
            if not doc.name.startswith("h_"):
                self.truths[doc.name] = oracle.truth(doc.body, data, doc.union_betti,
                                                     doc.piece_betti)
        for name, raw in workloads.RAW.items():
            self.paths[name] = workdir / f"{name}.json"
            if raw is not None:
                self.paths[name].write_bytes(raw)
        self.report = workdir / "report.json"
        self._warm_up()

    def _warm_up(self) -> None:
        """One small job per command, so lazy imports and caches are filled."""
        from docs import two_origin_line
        path = self.workdir / "warm_up.json"
        path.write_text(json.dumps(two_origin_line().body), encoding="utf-8")
        for command in ("validate", "cohomology", "mv", "fibred", "bundles", "count",
                        "collapse-check", "refine-check"):
            self.run(["--report", str(self.report), command, str(path)])
        self.run(["--report", str(self.report), "gallery", "two_origin_line"])

    def argv(self, job: dict) -> list[str]:
        return ["--report", str(self.report)] + [
            str(self.paths[job["doc"]]) if a == "{doc}" else a for a in job["argv"]]

    def run(self, argv: list[str]) -> tuple[float, int, str, str, BaseException | None]:
        """One CLI call in process: (seconds, exit code, stdout, stderr, escaped exception)."""
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        main = self.cli.main
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error is a traceback for a CLI user
                code, escaped = 1, exc
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), escaped

    def verify(self, job: dict, code: int, stdout: str, stderr: str,
               escaped: BaseException | None) -> list[str]:
        """Oracle mismatches for one finished job; reads and removes its report."""
        report = None
        if self.report.exists():
            report = json.loads(self.report.read_text(encoding="utf-8"))
            self.report.unlink()
        if escaped is not None:
            return [f"uncaught {type(escaped).__module__}.{type(escaped).__name__}: {escaped}"]
        want = job.get("expect_code", 0)
        if want == 2 and (code != 2 or not stderr.strip() or "Traceback" in stderr):
            return [f"exit {code} with stderr {stderr.strip()[:80]!r}, expected an input error"]
        if job["command"] == "gallery":
            if code != want:
                return [f"exit {code}, expected {want}"]
            if want:
                return []
            if job["argv"][-1] == "list":
                return [] if "two_origin_line" in stdout else ["gallery list is incomplete"]
            return self.oracle.check_gallery(report, job)
        return self.oracle.check(job["command"], report, code, self.truths.get(job["doc"]), job)


def _child(args) -> int:
    """One process of a --trace 0 run: set up, run rounds, report them.

    Prints one JSON line: when set-up ended (perf_counter, whose clock
    is the same in every process on Linux), the probe times just after it, each
    round's raw and scaled job times with the indices of the jobs that
    failed and why, and this process's peak resident memory.
    """
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, workdir)
        ready_at = time.perf_counter()
        after = burst()
        with Pace() as pace:
            rounds = _rounds(setup, args.child, pace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "ready_at": ready_at,
        "after": after,
        "rounds": [{k: r[k] for k in ("times", "scaled", "failures")} for r in rounds],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s": statistics.median(pace.seconds),
    }))
    return 0


def _children(args) -> list[dict]:
    """Run CHILDREN processes one after another, each with an equal share of --seconds.

    Each result gets `setup_s`: from the spawn to the end of set-up, at
    the reference speed of probes taken just before and just after.
    """
    deadline = time.perf_counter() + 170
    results = []
    for _ in range(CHILDREN):
        before = burst()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--child", str(args.seconds / CHILDREN)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=deadline - start)
        if done.returncode != 0:
            raise SystemExit(f"bench: a child run failed with exit code {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        result["setup_s"] = (result["ready_at"] - start) / scale_of(before + result["after"])
        results.append(result)
    return results


def _rounds(setup: Setup, seconds: float, pace: Pace, tracer=None) -> list[dict]:
    """Run whole rounds of the job list while the next one still fits in `seconds`.

    With a tracer, untraced and traced rounds alternate, starting
    untraced, and there are at least two rounds.
    """
    start = time.perf_counter()
    longest = 0.0
    rounds: list[dict] = []
    while not rounds or (time.perf_counter() - start + longest <= seconds
                         or (tracer is not None and len(rounds) == 1)):
        begun = time.perf_counter()
        rounds.append(_round(setup, pace, tracer, traced=len(rounds) % 2 == 1))
        longest = max(longest, time.perf_counter() - begun)
    return rounds


def _round(setup: Setup, pace: Pace, tracer, traced: bool) -> dict:
    """One pass over the job list.  `times` are wall seconds; `scaled` are
    the same jobs without the probes' time, at the reference speed."""
    traced = tracer is not None and traced
    if traced:
        tracer.install()
    elif tracer is not None:
        tracer.uninstall()
    gc.collect()
    if traced:
        tracer.reset()
    times, scaled, failures, per_command = [], [], [], {}
    for j, job in enumerate(setup.jobs):
        spent, begun = pace.spent, time.perf_counter()
        taken, code, out, err, escaped = setup.run(setup.argv(job))
        net = taken - (pace.spent - spent)
        scaled.append(net / pace.scale(begun, time.perf_counter()))
        if traced:
            tracer.end_job()
        times.append(taken)
        per_command[job["command"]] = per_command.get(job["command"], 0.0) + net
        bad = setup.verify(job, code, out, err, escaped)
        if bad:
            failures.append((j, bad))
    return {"times": times, "scaled": scaled, "failures": failures,
            "layers": tracer.metrics(per_command) if traced else None}


def _traced(args) -> tuple[list[dict], list, dict, float]:
    """A --trace 1 run, in this process: rounds alternate untraced and traced."""
    from layers import METRICS, Tracer
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, workdir)
        pace = Pace()
        # Layer times leave out the probes that interrupt them.
        tracer = Tracer(clock=lambda: time.perf_counter() - pace.spent)
        with pace:
            rounds = _rounds(setup, args.seconds, pace, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [r for r in rounds if r["layers"] is None]
    traced = [r for r in rounds if r["layers"] is not None]
    # Times are medians over the traced rounds; counts repeat in every round.
    values = {k: statistics.median(r["layers"][k] for r in traced)
              if METRICS[k][0] == "s" else traced[-1]["layers"][k]
              for k in traced[-1]["layers"]}
    values["trace.overhead"] = (statistics.median(sum(r["scaled"]) for r in traced)
                                / statistics.median(sum(r["scaled"]) for r in plain) - 1)
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in METRICS.items()}
    failures = [(setup.jobs[j], bad) for r in rounds for j, bad in r["failures"]]
    return rounds, failures, metrics, statistics.median(pace.seconds)


def _untraced(args) -> tuple[list[dict], list, dict, float]:
    """A --trace 0 run: CHILDREN processes, medians over all their rounds."""
    results = _children(args)
    jobs = workloads.build(args.workload, args.seed)[1]
    rounds = [r for c in results for r in c["rounds"]]
    failures = [(jobs[j], bad) for r in rounds for j, bad in r["failures"]]
    per_job = [statistics.median(r["scaled"][j] for r in rounds) for j in range(len(jobs))]
    metrics = {
        "wall_s": {"value": statistics.median(sum(r["scaled"]) for r in rounds), "unit": "s"},
        "job_s.geomean": {"value": math.exp(statistics.fmean(math.log(t) for t in per_job)),
                          "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in results),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(c["setup_s"] for c in results), "unit": "s"},
    }
    return rounds, failures, metrics, statistics.median(c["probe_s"] for c in results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The seconds of one child process of a --trace 0 run.
    parser.add_argument("--child", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _program_src()
    if args.child is not None:
        return _child(args)

    rounds, failures, metrics, probe = (_traced if args.trace else _untraced)(args)
    jobs = len(rounds[0]["times"])
    unexpected = [(job, bad) for job, bad in failures if not job.get("fault")]
    for job, bad in unexpected[:5]:
        print(f"FAIL {' '.join(job['argv'])} [{job['doc']}]: {'; '.join(bad[:3])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)} of {jobs} jobs, failed {len(failures)}, round seconds "
          + " ".join(f"{sum(r['times']):.3f}" for r in rounds)
          + ", scaled " + " ".join(f"{sum(r['scaled']):.3f}" for r in rounds)
          + f", probe {probe * 1e3:.4f} ms")
    print(json.dumps({"correct": not unexpected, "attempted": len(rounds) * jobs,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
