import importlib.util
import itertools
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from cechkit import fplinalg
from cechkit.complexes import build_complex
from cechkit.diagrams import canonicalize
from cechkit.documents import parse_document
from cechkit.gallery import gallery_document

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no
# example database, so a failure on a CI runner reproduces locally.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

GALLERY_CASES = [
    ("two_origin_line", {}),
    ("branching_line_n", {"n": 2}),
    ("branching_line_n", {"n": 3}),
    ("bug_eyed_circle", {}),
    ("three_circles", {}),
]


def diagram_for(name, **kwargs):
    return canonicalize(parse_document(gallery_document(name, **kwargs)).system)


def rank2_bundle_document(entry=1):
    """The line with two origins carrying a rank-2 bundle block over F_2.

    Piece p2 has the swap on its edge (o2, r); the identification of p1
    with p2 is [[entry, 0], [0, 1]] at l and the swap at r.  Every odd
    entry gives the same bundle.
    """
    swap = [[0, 1], [1, 0]]
    doc = gallery_document("two_origin_line")
    doc["bundle"] = {"rank": 2,
                     "pieces": [{"id": "p1", "edges": []}, {"id": "p2", "edges": [["o2", "r", swap]]}],
                     "identifications": [{"i": "p1", "j": "p2",
                                          "vertices": [["l", [[entry, 0], [0, 1]]], ["r", swap]]}]}
    return doc


@pytest.fixture(scope="session")
def two_origin():
    return diagram_for("two_origin_line")


@pytest.fixture(scope="session")
def branching():
    return diagram_for("branching_line_n", n=2)


@pytest.fixture(scope="session")
def bug_eyed():
    return diagram_for("bug_eyed_circle")


@pytest.fixture(scope="session")
def three_circles():
    return diagram_for("three_circles")


@pytest.fixture(scope="session", params=GALLERY_CASES, ids=lambda c: f"{c[0]}{c[1] or ''}")
def gallery_diagram(request):
    name, kwargs = request.param
    return diagram_for(name, **kwargs)


def necklace_nerves(n, ring, ids=None, tri=False):
    """n square circles, circle i sharing the vertex a(i+1) with circle i+1.

    A ring closes up (circle n-1 meets circle 0) and has dim H^1 = n + 1;
    a chain has dim H^1 = n.  Only neighbouring circles meet, so almost
    every index set is empty.  ids names the pieces (default c00, c01, ...).
    With tri, each circle is the hollow triangle a(i) - x(i) - a(i+1).
    """
    ids = ids or [f"c{i:02d}" for i in range(n)]
    nerves = {}
    for i in range(n):
        a, b = f"a{i}", f"a{(i + 1) % n if ring else i + 1}"
        edges = ((a, f"x{i}"), (f"x{i}", b), (a, b)) if tri else \
            ((a, f"x{i}"), (f"x{i}", b), (b, f"y{i}"), (a, f"y{i}"))
        nerves[ids[i]] = build_complex([sorted(e) for e in edges])
    return nerves


@pytest.fixture(scope="session")
def necklace():
    return necklace_nerves


def shared_label_document(nerves, field=2):
    """Interchange document whose pieces share cover labels by name."""
    gluings = []
    for i, j in itertools.combinations(sorted(nerves), 2):
        shared = sorted(set(nerves[i].vertices) & set(nerves[j].vertices))
        if shared:
            gluings.append({"i": i, "j": j, "pairs": [[v, v] for v in shared]})
    pieces = [{"id": pid, "simplices": [list(s) for s in sorted(nerve.simplices)]}
              for pid, nerve in sorted(nerves.items())]
    return {"field": field, "pieces": pieces, "gluings": gluings}


@pytest.fixture(scope="session")
def necklace_document():
    return lambda n, ring, tri=False: shared_label_document(necklace_nerves(n, ring, tri=tri))


def strip_nerves(width, height, k):
    """A triangulated periodic strip of width x height vertices, an annulus, cut into k arcs.

    Arc i holds the squares from column round(i * width / k) up to the
    first column of arc i + 1, each cut into two triangles, so every arc
    is a disk and consecutive arcs share one column of vertices.  Vertex
    (c, r) is the label g{c}_{r}.
    """
    bounds = [round(i * width / k) for i in range(k)] + [width]
    nerves = {}
    for i in range(k):
        triangles = []
        for c in range(bounds[i], bounds[i + 1]):
            a, b = c % width, (c + 1) % width
            for r in range(height - 1):
                triangles += [(f"g{a}_{r}", f"g{b}_{r}", f"g{b}_{r + 1}"),
                              (f"g{a}_{r}", f"g{a}_{r + 1}", f"g{b}_{r + 1}")]
        nerves[f"A{i}"] = build_complex([sorted(t) for t in triangles])
    return nerves


@pytest.fixture(scope="session")
def strip_document():
    return lambda width, height, k=3, field=2: shared_label_document(strip_nerves(width, height, k), field)


@pytest.fixture(scope="session")
def bench_docs():
    """The benchmark's document builders, bench/docs.py, imported once without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_docs", Path(__file__).resolve().parents[1] / "bench" / "docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# Every forward elimination goes through these entry points, and no other
# function calls the kernels behind them (test_fplinalg checks the source);
# rref and every FMatrix method reach the kernels through them.
ELIMINATIONS = ("echelon",)


def patch_bindings(monkeypatch, module, name, replacement):
    """Replace `module`'s `name` wherever a cechkit module binds it, `module` itself included."""
    real = getattr(module, name)
    for bound in list(sys.modules.values()):
        if getattr(bound, "__name__", "").startswith("cechkit") and getattr(bound, name, None) is real:
            monkeypatch.setattr(bound, name, replacement)


@pytest.fixture
def count_eliminations(monkeypatch):
    """Call to start counting: every elimination entry point, wherever a
    cechkit module binds it, records the shape of the matrix it eliminates
    (an `FMatrix`, read as its stored rows) in the returned list."""
    def start() -> list:
        calls = []
        for name in ELIMINATIONS:
            real = getattr(fplinalg, name)

            def counted(a, real=real):
                calls.append(a.shape)
                return real(a)

            patch_bindings(monkeypatch, fplinalg, name, counted)
        return calls
    return start


@pytest.fixture
def count_backsubstitutions(monkeypatch):
    """Call to start counting: each back-substitution from an echelon's rows
    to the reduced rows records the matrix shape in the returned list."""
    def start() -> list:
        calls = []
        real = fplinalg.Echelon.reduced

        def counted(self):
            calls.append(self.shape)
            return real(self)

        monkeypatch.setattr(fplinalg.Echelon, "reduced", counted)
        return calls
    return start
