"""Seeded document families for the benchmark, independent of cechkit.

Every family is built on readable canonical labels and then passed
through `relabel`, which renames every cover label and piece id with
names drawn from the seed and shuffles the order of pieces in the
document.  The new names keep the order of the names they replace, so
the program sorts, pivots and eliminates exactly as it would for any
other seed: the shape of each document, and so the work it asks for, is
fixed by the family parameters, while the program still sees different
bytes, labels and canonical names.

Each builder returns a `Doc`: the JSON document plus the analytic Betti
numbers the family is known to have, which the oracle compares with its
own computation and with the program's reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

Document = dict[str, Any]


@dataclass
class Doc:
    name: str
    body: Document
    # Analytic dims H^0.. of the union nerve, and of every piece, keyed by
    # the canonical piece id before relabelling (mapped by `relabel`).
    union_betti: tuple[int, ...]
    piece_betti: dict[str, tuple[int, ...]] = field(default_factory=dict)
    # Expected outcome of the bundle block, when the document has one.
    bundle_expect: dict[str, Any] | None = None
    # Expected induced maps of the refinement block: {q: dim}, full rank.
    refine_dims: dict[int, int] | None = None

    def __post_init__(self) -> None:
        """Write every simplex with its vertices in increasing order, as documents must."""
        ref = self.body.get("refinement")
        for p in self.body["pieces"] + (ref["fine"]["pieces"] if ref else []):
            p["simplices"] = [sorted(s) for s in p["simplices"]]


def _gluings(pieces: list[dict]) -> list[dict]:
    """Identity gluings between every pair of pieces that share labels."""
    labels = [{v for s in p["simplices"] for v in s} for p in pieces]
    out = []
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            shared = sorted(labels[a] & labels[b])
            if shared:
                out.append({"i": pieces[a]["id"], "j": pieces[b]["id"],
                            "pairs": [[v, v] for v in shared]})
    return out


# -- grid: triangulated periodic strips cut into column arcs ---------------

def _strip_simplices(prefix: str, width: int, height: int, cols: set[int]) -> list[list[str]]:
    def v(c: int, r: int) -> str:
        return f"{prefix}{c % width}_{r}"
    out = []
    for c in range(width):
        if c not in cols or (c + 1) % width not in cols:
            continue
        for r in range(height - 1):
            out.append([v(c, r), v(c + 1, r), v(c + 1, r + 1)])
            out.append([v(c, r), v(c, r + 1), v(c + 1, r + 1)])
    return out


def _arcs(width: int, k: int) -> list[set[int]]:
    bounds = [round(i * width / k) for i in range(k)] + [width]
    return [{c % width for c in range(bounds[i], bounds[i + 1] + 1)} for i in range(k)]


def strip(width: int, height: int, k: int) -> Doc:
    """A width x height periodic strip (an annulus) cut into k column arcs.

    Arcs are full subcomplexes on overlapping column ranges, so each is a
    disk; consecutive arcs share one column, and for k = 2 the two arcs
    share two columns.  The refinement block is the same strip with every
    column doubled, mapped back by halving the column index.
    """
    arcs = _arcs(width, k)
    pieces = [{"id": f"A{i}", "simplices": _strip_simplices("g", width, height, cols)}
              for i, cols in enumerate(arcs)]
    # Fine arc i covers the fine columns 2c and 2c + 1 of every coarse column c of arc i.
    fine_pieces = []
    for i, cols in enumerate(arcs):
        lo = min(c for c in cols if (c - 1) % width not in cols)
        span = len(cols)
        fcols = {(2 * lo + d) % (2 * width) for d in range(2 * span)}
        fine_pieces.append({"id": f"A{i}",
                            "simplices": _strip_simplices("h", 2 * width, height, fcols)})
    fine_map = [[f"h{c}_{r}", f"g{c // 2}_{r}"] for c in range(2 * width) for r in range(height)]
    body = {"field": 2, "pieces": pieces, "gluings": _gluings(pieces),
            "refinement": {"fine": {"pieces": fine_pieces, "gluings": _gluings(fine_pieces)},
                           "map": fine_map}}
    return Doc(f"strip{width}x{height}k{k}", body, (1, 1, 0),
               {p["id"]: (1, 0, 0) for p in pieces}, refine_dims={0: 1, 1: 1})


# -- necklace: rings and chains of small circles ----------------------------

def _circle(i: int, nxt: int, tri: bool) -> list[list[str]]:
    a, b = f"a{i}", f"a{nxt}"
    if tri:
        return [[a, f"x{i}"], [f"x{i}", b], [a, b]]
    return [[a, f"x{i}"], [f"x{i}", b], [b, f"y{i}"], [a, f"y{i}"]]


def necklace(n: int, ring: bool, tri: bool = False) -> Doc:
    """n circles (squares, or triangles with tri), each sharing one vertex with each neighbour.

    A ring closes up, so H^1 = n + 1; a chain has H^1 = n.  Only
    neighbouring pieces meet, so almost every index set is empty.
    """
    pieces = [{"id": f"c{i:02d}", "simplices": _circle(i, (i + 1) % n if ring else i + 1, tri)}
              for i in range(n)]
    h1 = n + 1 if ring else n
    return Doc(f"{'ring' if ring else 'chain'}{n}{'t' if tri else ''}",
               {"field": 2, "pieces": pieces, "gluings": _gluings(pieces)},
               (1, h1), {p["id"]: (1, 1) for p in pieces})


# -- bundles: diagrams with dim H^1 = 3..7 and bundle blocks ----------------

def _block(pieces: list[dict], edges: dict[str, list], idents: dict[tuple[str, str], list],
           rank: int) -> dict:
    return {"rank": rank,
            "pieces": [{"id": p["id"], "edges": edges.get(p["id"], [])} for p in pieces],
            "identifications": [{"i": i, "j": j, "vertices": v} for (i, j), v in idents.items()]}


def bundle_ring(m: int, kind: str, tri: bool = False) -> Doc:
    """A ring of m circles (H^1 = m + 1) carrying a bundle block.

    kind "glue": rank 1, one twisted edge in the first circle, so the
    glued bundle is nontrivial and has no parallel section.
    kind "rank2": rank 2 over F_2, the swap matrix on one edge, so
    parallel sections are the swap-fixed line: dimension 1.
    """
    doc = necklace(m, ring=True, tri=tri)
    pieces = doc.body["pieces"]
    first = pieces[0]["id"]
    if kind == "glue":
        block = _block(pieces, {first: [["a0", "x0", 1]]}, {}, 1)
        expect = {"status": "ok", "parallel_dim": 0, "glue_space_dim": 0, "class_nonzero": True}
    else:
        swap = [[0, 1], [1, 0]]
        block = _block(pieces, {first: [["a0", "x0", swap]]}, {}, 2)
        expect = {"status": "ok", "parallel_dim": 1, "glue_space_dim": 1}
    doc.body["bundle"] = block
    doc.name = f"b{doc.name}{kind}"
    doc.bundle_expect = expect
    return doc


def bundle_fan(m: int, loops: int, kind: str) -> Doc:
    """Two pieces of m disjoint paths l_k - o_k - r_k, tied by a spine piece.

    The pieces P and Q have m components each, so every class's section
    enumeration runs over a product of many small spaces.  The spine S is
    a path through every l_k plus `loops` extra squares, which keeps the
    union connected: H^1 = m + loops.  P, Q and S all contain every l_k.

    kind "obstructed": rank 1 identifications that break the triple
    condition at l_0, so the block does not glue (input error, exit 2).
    kind "glue": rank 1, identity data: the trivial bundle, one section.
    """
    p_s = [[f"l{k}", f"o{k}"] for k in range(m)] + [[f"o{k}", f"r{k}"] for k in range(m)]
    q_s = [[f"l{k}", f"u{k}"] for k in range(m)] + [[f"u{k}", f"r{k}"] for k in range(m)]
    spine = [[f"l{k}", f"s{k}"] for k in range(m)] + [[f"s{k}", f"l{k + 1}"] for k in range(m - 1)]
    for j in range(loops):
        spine += [[f"s0", f"w{j}"], [f"w{j}", f"z{j}"], [f"z{j}", f"t{j}"], [f"s0", f"t{j}"]]
    pieces = [{"id": "P", "simplices": p_s}, {"id": "Q", "simplices": q_s},
              {"id": "S", "simplices": spine}]
    # Each path pair l-o-r / l-u-r closes a square: one loop per k, plus the spine loops.
    h1 = m + loops
    body = {"field": 2, "pieces": pieces, "gluings": _gluings(pieces)}
    if kind == "obstructed":
        body["bundle"] = _block(pieces, {}, {("P", "Q"): [["l0", 1]]}, 1)
        expect = {"exit": 2}
    else:
        body["bundle"] = _block(pieces, {}, {}, 1)
        expect = {"status": "ok", "parallel_dim": 1, "glue_space_dim": 1, "class_nonzero": False}
    return Doc(f"fan{m}l{loops}{kind}", body, (1, h1),
               {"P": (m, 0), "Q": (m, 0), "S": (1, loops)}, bundle_expect=expect)


# -- desk: the README's documents ------------------------------------------

def two_origin_line() -> Doc:
    pieces = [{"id": "p1", "simplices": [["l", "o1"], ["o1", "r"]]},
              {"id": "p2", "simplices": [["l", "o2"], ["o2", "r"]]}]
    fine = [{"id": "p1", "simplices": [["fl1", "fl2"], ["fl2", "o1"], ["o1", "fr2"], ["fr1", "fr2"]]},
            {"id": "p2", "simplices": [["fl1", "fl2"], ["fl2", "o2"], ["o2", "fr2"], ["fr1", "fr2"]]}]
    body = {"field": 2, "pieces": pieces, "gluings": _gluings(pieces),
            "bundle": _block(pieces, {}, {("p1", "p2"): [["l", 0], ["r", 1]]}, 1),
            "refinement": {"fine": {"pieces": fine, "gluings": _gluings(fine)},
                           "map": [["fl1", "l"], ["fl2", "l"], ["o1", "o1"], ["o2", "o2"],
                                   ["fr1", "r"], ["fr2", "r"]]}}
    # The twisted identification glues the Moebius class: no parallel section.
    return Doc("two_origin_line", body, (1, 1), {"p1": (1, 0), "p2": (1, 0)},
               bundle_expect={"status": "ok", "parallel_dim": 0, "glue_space_dim": 0,
                              "class_nonzero": True},
               refine_dims={0: 1, 1: 1})


def branching_line(n: int) -> Doc:
    pieces = [{"id": f"p{i}", "simplices": [[f"b{i}", "c"]]} for i in range(1, n + 1)]
    return Doc(f"branching_line_{n}", {"field": 2, "pieces": pieces, "gluings": _gluings(pieces)},
               (1, 0), {p["id"]: (1, 0) for p in pieces})


def bug_eyed_circle() -> Doc:
    pieces = [{"id": "p1", "simplices": [["a", "b"], ["a", "c1"], ["b", "c1"]]},
              {"id": "p2", "simplices": [["a", "b"], ["a", "c2"], ["b", "c2"]]}]
    fine = [{"id": "p1", "simplices": [["fa1", "fa2"], ["fa2", "b"], ["b", "c1"], ["fa1", "c1"]]},
            {"id": "p2", "simplices": [["fa1", "fa2"], ["fa2", "b"], ["b", "c2"], ["fa1", "c2"]]}]
    body = {"field": 2, "pieces": pieces, "gluings": _gluings(pieces),
            "refinement": {"fine": {"pieces": fine, "gluings": _gluings(fine)},
                           "map": [["fa1", "a"], ["fa2", "a"], ["b", "b"], ["c1", "c1"],
                                   ["c2", "c2"]]}}
    return Doc("bug_eyed_circle", body, (1, 2), {"p1": (1, 1), "p2": (1, 1)},
               refine_dims={0: 1, 1: 2})


def three_circles() -> Doc:
    pieces = [{"id": f"p{i}", "simplices": [["a", "b"], ["a", f"c{i}"], ["b", f"c{i}"]]}
              for i in (1, 2, 3)]
    return Doc("three_circles", {"field": 2, "pieces": pieces, "gluings": _gluings(pieces)},
               (1, 3), {p["id"]: (1, 1) for p in pieces})


def random_admissible(rng: random.Random, n: int, core_size: int) -> Doc:
    """A core complex shared by every piece, decorated per piece.

    Private vertices hang off the core or each other, and private
    triangles always contain two private vertices, so every triangle has
    an edge no other triangle has: H^2 = 0 over every field and Betti
    numbers follow from components and the Euler characteristic.  Every
    index set has the core as its intersection.
    """
    core = [f"s{k}" for k in range(core_size)]
    core_s = [[v] for v in core]
    for a in range(core_size):
        for b in range(a + 1, core_size):
            if rng.random() < 0.6:
                core_s.append([core[a], core[b]])
    if core_size >= 3 and rng.random() < 0.5:
        core_s.append(core[:3])
    pieces = []
    for i in range(1, n + 1):
        private = [f"p{i}u{k}" for k in range(rng.randint(1, 3))]
        simplices = [list(s) for s in core_s]
        anchors = core + private
        for v in private:
            simplices.append([v])
            for _ in range(rng.randint(1, 2)):
                other = rng.choice(anchors)
                if other != v:
                    simplices.append(sorted({v, other}))
        if len(private) >= 2 and rng.random() < 0.4:
            simplices.append(sorted({private[0], private[1], rng.choice(core)}))
        pieces.append({"id": f"p{i}", "simplices": sorted(simplices)})
    return Doc(f"random{n}c{core_size}", {"field": 2, "pieces": pieces,
                                           "gluings": _gluings(pieces)}, ())


def seven_edges() -> Doc:
    """Two pieces sharing the same 7 disjoint edges: 14 piece components."""
    edges = [[f"e{k}", f"f{k}"] for k in range(7)]
    pieces = [{"id": "p1", "simplices": edges}, {"id": "p2", "simplices": edges}]
    return Doc("seven_edges", {"field": 2, "pieces": pieces, "gluings": _gluings(pieces)},
               (7, 0), {"p1": (7, 0), "p2": (7, 0)})


# -- relabelling -----------------------------------------------------------

def _names(rng: random.Random, count: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    out: set[str] = set()
    while len(out) < count:
        out.add("".join(rng.choice(alphabet) for _ in range(5)))
    return sorted(out)


def relabel(doc: Doc, rng: random.Random) -> Doc:
    """Rename every label and piece id from the seed and shuffle piece order.

    Names are assigned in sorted order, so every comparison between two
    labels or two ids comes out as before, and bundle values keep the
    orientation of their edges and identifications.
    """
    body = doc.body
    labels: set[str] = set()
    for p in body["pieces"]:
        labels.update(v for s in p["simplices"] for v in s)
    ref = body.get("refinement")
    if ref is not None:
        for p in ref["fine"]["pieces"]:
            labels.update(v for s in p["simplices"] for v in s)
    lab = dict(zip(sorted(labels), _names(rng, len(labels))))
    ids = sorted(p["id"] for p in body["pieces"])
    pid = dict(zip(ids, ("P" + s for s in _names(rng, len(ids)))))

    def pieces(ps: list[dict]) -> list[dict]:
        out = [{"id": pid[p["id"]],
                "simplices": [sorted(lab[v] for v in s) for s in p["simplices"]]} for p in ps]
        rng.shuffle(out)
        return out

    def gluings(gs: list[dict]) -> list[dict]:
        return [{"i": pid[g["i"]], "j": pid[g["j"]],
                 "pairs": [[lab[a], lab[b]] for a, b in g["pairs"]]} for g in gs]

    new: Document = {"field": body["field"], "pieces": pieces(body["pieces"]),
                     "gluings": gluings(body["gluings"])}
    if "bundle" in body:
        b = body["bundle"]
        idents = []
        for e in b["identifications"]:
            i, j = pid[e["i"]], pid[e["j"]]
            idents.append({"i": min(i, j), "j": max(i, j),
                           "vertices": [[lab[v], x] for v, x in e["vertices"]]})
        new["bundle"] = {"rank": b["rank"],
                         "pieces": [{"id": pid[p["id"]],
                                     "edges": [[lab[a], lab[c], x] for a, c, x in p["edges"]]}
                                    for p in b["pieces"]],
                         "identifications": idents}
    if ref is not None:
        new["refinement"] = {"fine": {"pieces": pieces(ref["fine"]["pieces"]),
                                      "gluings": gluings(ref["fine"]["gluings"])},
                             "map": [[lab[a], lab[b]] for a, b in ref["map"]]}
    return Doc(doc.name, new, doc.union_betti,
               {pid[k]: v for k, v in doc.piece_betti.items()},
               doc.bundle_expect, doc.refine_dims)
