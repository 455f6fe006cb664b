"""Answers for the benchmark's documents, computed without cechkit.

Betti numbers come from the complexes themselves: components and the
cycle rank from networkx on the 1-skeleton, H^2 = 0 from a collapse of
every triangle through a free edge, and H^1 from the Euler
characteristic.  A collapse keeps the homotopy type, so these hold over
every prime field.  Every generated family also states its Betti
numbers analytically; `truth` checks the two against each other.

`check` compares one command's report with these answers and returns a
list of mismatches, empty when the report is right.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any

import networkx as nx

Simplex = tuple[str, ...]
Complex = frozenset


def closure(generators: list[list[str]]) -> Complex:
    out: set[Simplex] = set()
    for g in generators:
        s = tuple(sorted(g))
        for q in range(1, len(s) + 1):
            out.update(itertools.combinations(s, q))
    return frozenset(out)


def f_vector(k: Complex, top: int) -> list[int]:
    counts = [0] * (top + 1)
    for s in k:
        if len(s) - 1 <= top:
            counts[len(s) - 1] += 1
    return counts


def betti(k: Complex, top: int) -> tuple[int, ...]:
    """dim H^0..H^top of a complex of dimension at most 2 with no 2-cycles."""
    if any(len(s) > 3 for s in k):
        raise ValueError("oracle handles complexes of dimension <= 2 only")
    graph = nx.Graph()
    graph.add_nodes_from(s[0] for s in k if len(s) == 1)
    graph.add_edges_from(s for s in k if len(s) == 2)
    triangles = {s for s in k if len(s) == 3}
    # Collapse triangles through free edges; what cannot collapse would be a 2-cycle.
    while triangles:
        uses: dict[Simplex, int] = {}
        for t in triangles:
            for e in itertools.combinations(t, 2):
                uses[e] = uses.get(e, 0) + 1
        free = {t for t in triangles if any(uses[e] == 1 for e in itertools.combinations(t, 2))}
        if not free:
            raise ValueError("oracle cannot collapse the triangles: possible 2-cycle")
        triangles -= free
    c = nx.number_connected_components(graph)
    v, e = graph.number_of_nodes(), graph.number_of_edges()
    f = sum(1 for s in k if len(s) == 3)
    if f == 0 and len(nx.cycle_basis(graph)) != e - v + c:
        raise AssertionError("cycle rank disagrees with E - V + C")
    dims = (c, e - v + c - f, 0)
    return tuple(dims[q] if q < 3 else 0 for q in range(top + 1))


@dataclass
class Truth:
    """Everything the oracle knows about one document."""

    ids: tuple[str, ...]
    union: Complex
    top: int
    union_betti: tuple[int, ...]
    piece_betti: dict[str, tuple[int, ...]]
    # Nonempty intersections of two or more pieces, keyed by sorted id tuples.
    inter_betti: dict[tuple[str, ...], tuple[int, ...]]
    # Every piece and nonempty intersection.
    complexes: dict[tuple[str, ...], Complex]
    digest: str

    def dims(self, t: tuple[str, ...]) -> tuple[int, ...]:
        if len(t) == 1:
            return self.piece_betti[t[0]]
        return self.inter_betti.get(t, (0,) * (self.top + 1))

    def complex_of(self, t: tuple[str, ...]) -> Complex:
        return self.complexes.get(t, frozenset())

    def subsets(self, min_size: int = 1):
        for size in range(min_size, len(self.ids) + 1):
            yield from itertools.combinations(self.ids, size)


def truth(body: dict, data: bytes, union_betti: tuple[int, ...] = (),
          piece_betti: dict[str, tuple[int, ...]] | None = None) -> Truth:
    pieces = {p["id"]: closure(p["simplices"]) for p in body["pieces"]}
    ids = tuple(sorted(pieces))
    union = frozenset().union(*pieces.values())
    top = max(len(s) for s in union) - 1
    complexes: dict[tuple[str, ...], Complex] = {(i,): pieces[i] for i in ids}
    # Apriori: an index set is nonempty only if the set without its last id is.
    frontier = [(i,) for i in ids]
    while frontier:
        nxt = []
        for t in frontier:
            for j in ids[ids.index(t[-1]) + 1:]:
                k = complexes[t] & pieces[j]
                if k:
                    complexes[t + (j,)] = k
                    nxt.append(t + (j,))
        frontier = nxt
    got = Truth(ids, union, top, betti(union, top),
                {i: betti(pieces[i], top) for i in ids},
                {t: betti(k, top) for t, k in complexes.items() if len(t) > 1}, complexes,
                hashlib.sha256(data).hexdigest())
    if union_betti and tuple(union_betti) + (0,) * (top + 1 - len(union_betti)) != got.union_betti:
        raise AssertionError(f"analytic union Betti {union_betti} != computed {got.union_betti}")
    for pid, dims in (piece_betti or {}).items():
        if tuple(dims) + (0,) * (top + 1 - len(dims)) != got.piece_betti[pid]:
            raise AssertionError(f"analytic Betti of {pid} {dims} != computed {got.piece_betti[pid]}")
    return got


def _key(t: tuple[str, ...]) -> str:
    return ",".join(t)


def _euler_ok(dims: list[int], k: Complex) -> bool:
    f = f_vector(k, len(dims) - 1)
    return sum((-1) ** q * d for q, d in enumerate(dims)) == sum((-1) ** q * x for q, x in enumerate(f))


def check(command: str, report: dict | None, code: int, t: Truth, job: dict) -> list[str]:
    """Mismatches between a file command's report and the oracle."""
    want_code = job.get("expect_code", 0)
    if code != want_code:
        return [f"exit {code}, expected {want_code}"]
    if want_code == 1:  # exit 1 must come with a failed verdict in the report
        return [] if report and not all(report["verdicts"].values()) else ["no failed verdict"]
    if want_code != 0:
        return []
    if report is None:
        return ["no report written"]
    bad: list[str] = []
    p = job.get("field") or 2
    if report.get("command") != command or report.get("field") != p:
        bad.append("report names the wrong command or field")
    if report.get("input_digest") != t.digest:
        bad.append("input digest differs from the document's sha256")
    if not all(report["verdicts"].values()):
        bad.append(f"a verdict failed: {report['verdicts']}")
    bad += _CHECKS[command](report, t, job)
    return bad


def _check_validate(r: dict, t: Truth, job: dict) -> list[str]:
    return [] if r["verdicts"].get("valid") is True and r["violations"] == [] else ["not valid"]


def _check_cohomology(r: dict, t: Truth, job: dict) -> list[str]:
    bad = []
    qmax = job.get("qmax", t.top)
    rows = {"union": (list(r["union_dims"]), t.union, list(t.union_betti[:qmax + 1]))}
    if r["global_labels"] != sorted(s[0] for s in t.union if len(s) == 1):
        bad.append("global labels differ")
    for pid in t.ids:
        rows[pid] = (r["piece_dims"][pid], t.complex_of((pid,)), list(t.dims((pid,))[:qmax + 1]))
    keys = {_key(s) for s in t.subsets(2)}
    if set(r["intersection_dims"]) != keys:
        bad.append(f"{len(r['intersection_dims'])} intersection rows, expected {len(keys)}")
        return bad
    for s in t.subsets(2):
        rows[_key(s)] = (r["intersection_dims"][_key(s)], t.complex_of(s), list(t.dims(s)[:qmax + 1]))
    for name, (got, k, want) in rows.items():
        if got != want:
            bad.append(f"H^* of {name}: {got} != {want}")
        elif qmax >= t.top and not _euler_ok(got, k):
            bad.append(f"Euler identity fails for {name}")
        if len(bad) > 3:
            break
    return bad


def _disconnected(t: Truth) -> list[str]:
    return sorted(_key(s) for s in t.subsets(1) if t.dims(s)[0] != 1)


def _check_mv(r: dict, t: Truth, job: dict) -> list[str]:
    bad = []
    union = list(t.union_betti)
    if r["bicomplex"]["total_dims"] != union or r["bicomplex"]["union_dims"] != union:
        bad.append(f"bicomplex dims {r['bicomplex']['total_dims']} != {union}")
    h1 = r["h1_fibred"]
    disconnected = _disconnected(t)
    if h1["h1_union"] != t.union_betti[1] or sorted(h1["disconnected"]) != disconnected:
        bad.append("H^1 fibred check disagrees on H^1 or on disconnected index sets")
    if not disconnected and h1["fibred_dim"] != t.union_betti[1]:
        bad.append("fibred H^1 differs from H^1 of the union with connected intersections")
    for entry in r["short_exact"]:
        if entry["positions"][0]["dim"] != f_vector(t.union, t.top)[entry["q"]]:
            bad.append(f"C^{entry['q']} of the union has the wrong dimension")
    if len(t.ids) == 2:
        les = r["les"]
        pair = t.ids
        if (les["union_dims"] != union or les["intersection_dims"] != list(t.dims(pair))
                or any(les["piece_dims"][i] != list(t.dims((i,))) for i in pair)):
            bad.append("long exact sequence dims differ")
    return bad


def _check_fibred(r: dict, t: Truth, job: dict) -> list[str]:
    f = f_vector(t.union, t.top)
    want_q = [job["q"]] if "q" in job else list(range(min(2, t.top) + 1))
    if [e["q"] for e in r["degrees"]] != want_q:
        return ["wrong degrees"]
    bad = []
    for e in r["degrees"]:
        n = f[e["q"]]
        if (e["cochain_dim_union"], e["fibred_dim"], e["rank_phi_star"], e["inductive_dim"]) != (n,) * 4:
            bad.append(f"q={e['q']}: fibred dims differ from {n} union simplices")
    return bad


def _check_count(r: dict, t: Truth, job: dict) -> list[str]:
    bad = []
    h1 = {s: t.dims(s)[1] if t.top >= 1 else 0 for s in t.subsets(1)}
    if r["ground_truth"] != 2 ** t.union_betti[1]:
        bad.append(f"ground truth {r['ground_truth']} != 2^{t.union_betti[1]}")
    if r["h1_dims"] != {_key(s): d for s, d in h1.items()}:
        bad.append("H^1 dims of the index sets differ")
    exponent = sum((-1) ** (len(s) + 1) * d for s, d in h1.items())
    literal = sum((-1) ** (len(s) + 1) * 2 ** d for s, d in h1.items())
    if r["exponent"] != exponent or r["literal_form_count"] != literal:
        bad.append("alternating sums differ")
    if r["dimension_form_count"] != (2 ** exponent if exponent >= 0 else None):
        bad.append("dimension form count differs")
    if sorted(r["hypotheses"]["disconnected"]) != _disconnected(t):
        bad.append("disconnected index sets differ")
    return bad


def _check_collapse(r: dict, t: Truth, job: dict) -> list[str]:
    union = list(t.union_betti)
    steps = r["steps"]
    if r["baseline_dims"] != union or len(steps) != max(len(t.ids) - 2, 0):
        return ["baseline dims or step count differ"]
    if any(s["dims"] != union or not s["nerve_preserved"] for s in steps):
        return ["a collapse step changed the union"]
    if [s["pieces_left"] for s in steps] != list(range(len(t.ids) - 1, 1, -1)):
        return ["pieces left after each collapse differ"]
    return []


def _check_refine(r: dict, t: Truth, job: dict) -> list[str]:
    bad = []
    for q, dim in job["refine_dims"].items():
        m = r["induced_cohomology"][f"H^{q}"]
        if (m["rank"], m["coarse_dim"], m["fine_dim"]) != (dim, dim, dim):
            bad.append(f"induced map on H^{q} is {m}, expected full rank {dim}")
    return bad


def _check_bundles(r: dict, t: Truth, job: dict) -> list[str]:
    bad = []
    h1, h0 = t.union_betti[1], t.union_betti[0]
    classes = r["classes"]
    coords = {tuple(c["class"]) for c in classes}
    if len(classes) != 2 ** h1 or coords != set(itertools.product((0, 1), repeat=h1)):
        bad.append(f"{len(classes)} classes, expected all 2^{h1} coordinate vectors")
    for c in classes:
        trivial = not any(c["class"])
        # A twisted class on a connected union has no parallel section.
        if (trivial and c["parallel_dim"] != h0) or (h0 == 1 and not trivial and c["parallel_dim"] != 0):
            bad.append(f"class {c['class']} has {c['parallel_dim']} parallel sections")
            break
        if c["glue_space_dim"] != c["parallel_dim"] or not c["round_trip_class_preserved"]:
            bad.append(f"class {c['class']} does not glue back")
            break
    want = job.get("bundle_expect")
    if want and "status" in want:
        block = r.get("bundle_block", {})
        for key in ("status", "parallel_dim", "glue_space_dim"):
            if block.get(key) != want[key]:
                bad.append(f"bundle block {key} {block.get(key)} != {want[key]}")
        if "class_nonzero" in want and bool(any(block.get("class", []))) != want["class_nonzero"]:
            bad.append("bundle block class is wrong")
    return bad


_CHECKS = {
    "validate": _check_validate,
    "cohomology": _check_cohomology,
    "mv": _check_mv,
    "fibred": _check_fibred,
    "count": _check_count,
    "collapse-check": _check_collapse,
    "refine-check": _check_refine,
    "bundles": _check_bundles,
}


def check_gallery(emitted: Any, job: dict) -> list[str]:
    """The gallery command's document: right field, admissible, known Betti numbers."""
    if not isinstance(emitted, dict) or emitted.get("field") != (job.get("field") or 2):
        return ["gallery document missing or with the wrong field"]
    t = truth(emitted, b"")
    want = job.get("gallery_betti")
    if want is not None and t.union_betti[:len(want)] != tuple(want):
        return [f"gallery document has Betti numbers {t.union_betti}, expected {want}"]
    if len(t.ids) != job.get("gallery_pieces", len(t.ids)):
        return [f"gallery document has {len(t.ids)} pieces"]
    return []
