"""Built-in gallery of glued diagrams, as interchange documents.

Each entry returns a plain JSON-serialisable document in the standard
schema (see documents.py).  The named families model the familiar glued
spaces: the line with two origins, branching lines, two circles glued
along a punctured circle, and three circles sharing a common arc.  A
seeded generator produces randomised admissible shared-label diagrams
for property suites; the same seed always yields the same document.
"""

from __future__ import annotations

import random
from typing import Any

from .diagrams import REPORT_ROW_CAP
from .errors import InputError

Document = dict[str, Any]

# The most pieces a generated family may have: the largest n whose 2^n - 1
# index sets `cohomology`, `count`, `mv` and `refine-check` still report.
MAX_PIECES = (REPORT_ROW_CAP + 1).bit_length() - 1

GALLERY_NAMES = ("two_origin_line", "branching_line_n", "bug_eyed_circle",
                 "three_circles", "random_admissible")


class UnknownGallery(InputError):
    def __init__(self, name: str):
        super().__init__(f"unknown gallery name {name!r}; try: {', '.join(GALLERY_NAMES)}")
        self.name = name


class BadGalleryParameter(InputError):
    pass


def two_origin_line(field: int = 2) -> Document:
    """Two copies of a line glued away from their origins; union nerve a 4-cycle."""
    fine_pieces = [
        {"id": "p1", "simplices": [["l1", "l2"], ["l2", "o1"], ["o1", "r2"], ["r1", "r2"]]},
        {"id": "p2", "simplices": [["l1", "l2"], ["l2", "o2"], ["o2", "r2"], ["r1", "r2"]]},
    ]
    return {
        "field": field,
        "pieces": [
            {"id": "p1", "simplices": [["l", "o1"], ["o1", "r"]]},
            {"id": "p2", "simplices": [["l", "o2"], ["o2", "r"]]},
        ],
        "gluings": [
            {"i": "p1", "j": "p2", "pairs": [["l", "l"], ["r", "r"]]},
        ],
        "bundle": {
            "rank": 1,
            "pieces": [
                {"id": "p1", "edges": []},
                {"id": "p2", "edges": []},
            ],
            "identifications": [
                {"i": "p1", "j": "p2", "vertices": [["l", 0], ["r", 1]]},
            ],
        },
        "refinement": {
            "fine": {
                "pieces": fine_pieces,
                "gluings": [
                    {"i": "p1", "j": "p2",
                     "pairs": [["l1", "l1"], ["l2", "l2"], ["r1", "r1"], ["r2", "r2"]]},
                ],
            },
            "map": [["l1", "l"], ["l2", "l"], ["o1", "o1"], ["o2", "o2"],
                    ["r1", "r"], ["r2", "r"]],
        },
    }


def branching_line_n(n: int = 2, field: int = 2) -> Document:
    """n lines glued along a common ray; union nerve a star with n leaves."""
    if n < 2:
        raise BadGalleryParameter(f"branching line needs n >= 2 pieces, got n={n}")
    if n > MAX_PIECES:
        raise BadGalleryParameter(f"branching line takes at most {MAX_PIECES} pieces, got n={n}")
    pieces = [{"id": f"p{i}", "simplices": [[f"b{i}", "c"]]} for i in range(1, n + 1)]
    gluings = [{"i": f"p{i}", "j": f"p{j}", "pairs": [["c", "c"]]}
               for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {"field": field, "pieces": pieces, "gluings": gluings}


def bug_eyed_circle(field: int = 2) -> Document:
    """Two circles glued along a punctured circle; union nerve a theta graph."""
    return {
        "field": field,
        "pieces": [
            {"id": "p1", "simplices": [["a", "b"], ["a", "c1"], ["b", "c1"]]},
            {"id": "p2", "simplices": [["a", "b"], ["a", "c2"], ["b", "c2"]]},
        ],
        "gluings": [
            {"i": "p1", "j": "p2", "pairs": [["a", "a"], ["b", "b"]]},
        ],
        "refinement": {
            "fine": {
                "pieces": [
                    {"id": "p1", "simplices": [["a1", "a2"], ["a2", "b"], ["b", "c1"], ["a1", "c1"]]},
                    {"id": "p2", "simplices": [["a1", "a2"], ["a2", "b"], ["b", "c2"], ["a1", "c2"]]},
                ],
                "gluings": [
                    {"i": "p1", "j": "p2", "pairs": [["a1", "a1"], ["a2", "a2"], ["b", "b"]]},
                ],
            },
            "map": [["a1", "a"], ["a2", "a"], ["b", "b"], ["c1", "c1"], ["c2", "c2"]],
        },
    }


def three_circles(field: int = 2) -> Document:
    """Three circles sharing one common punctured-circle region."""
    pieces = [{"id": f"p{i}", "simplices": [["a", "b"], ["a", f"c{i}"], ["b", f"c{i}"]]}
              for i in (1, 2, 3)]
    gluings = [{"i": f"p{i}", "j": f"p{j}", "pairs": [["a", "a"], ["b", "b"]]}
               for i, j in ((1, 2), (1, 3), (2, 3))]
    return {"field": field, "pieces": pieces, "gluings": gluings}


def random_admissible(seed: int, field: int = 2, n_pieces: int | None = None) -> Document:
    """Seeded random shared-label diagram satisfying the gluing axioms.

    A shared core complex is decorated per piece with private vertices
    and simplices that always touch at least one private vertex, so every
    pairwise induced overlap equals the core and the identity gluings are
    simplicial isomorphisms by construction.
    """
    if n_pieces is not None and n_pieces < 1:
        raise BadGalleryParameter(f"random admissible diagram needs n >= 1 pieces, got n={n_pieces}")
    if n_pieces is not None and n_pieces > MAX_PIECES:
        raise BadGalleryParameter(f"random admissible diagram takes at most {MAX_PIECES} pieces, "
                                  f"got n={n_pieces}")
    rng = random.Random(seed)
    n = n_pieces if n_pieces is not None else rng.choice((2, 2, 3, 3, 4))
    core_size = rng.choice((2, 3, 4))
    core = [f"s{k}" for k in range(core_size)]
    core_simplices: list[list[str]] = [[v] for v in core]
    for a in range(core_size):
        for b in range(a + 1, core_size):
            if rng.random() < 0.6:
                core_simplices.append([core[a], core[b]])
    if core_size >= 3 and rng.random() < 0.3:
        core_simplices.append(core[:3])

    pieces = []
    for i in range(1, n + 1):
        private = [f"p{i}u{k}" for k in range(rng.randint(1, 3))]
        simplices = [list(s) for s in core_simplices]
        anchors = core + private
        for v in private:
            simplices.append([v])
            for _ in range(rng.randint(1, 2)):
                other = rng.choice(anchors)
                if other != v:
                    simplices.append(sorted({v, other}))
        if len(private) >= 2 and rng.random() < 0.4:
            a, b = private[0], private[1]
            c = rng.choice(core)
            simplices.append(sorted({a, b, c}))
            simplices.append(sorted({a, b}))
        pieces.append({"id": f"p{i}", "simplices": sorted(simplices)})

    gluings = [{"i": f"p{i}", "j": f"p{j}", "pairs": [[v, v] for v in core]}
               for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {"field": field, "pieces": pieces, "gluings": gluings}


def check_parameters(name: str, n: int | None, seed: int | None) -> None:
    """Refuse an n or a seed that name does not take, `gallery list` included, which takes neither."""
    if n is not None and name not in ("branching_line_n", "random_admissible"):
        raise BadGalleryParameter(f"gallery {name} takes no n; only branching_line_n and random_admissible do")
    if seed is not None and name != "random_admissible":
        raise BadGalleryParameter(f"gallery {name} takes no seed; only random_admissible does")


def gallery_document(name: str, field: int = 2, n: int | None = None, seed: int | None = None) -> Document:
    """The named document; n is the piece count and seed the generator's seed, where the family takes them.

    Without n, branching_line_n has 2 pieces and random_admissible draws
    its piece count from the seed; without a seed, random_admissible uses
    seed 0.  A family that takes no n or no seed refuses one.
    """
    if name not in GALLERY_NAMES:
        raise UnknownGallery(name)
    check_parameters(name, n, seed)
    if name == "two_origin_line":
        return two_origin_line(field)
    if name == "branching_line_n":
        return branching_line_n(2 if n is None else n, field)
    if name == "bug_eyed_circle":
        return bug_eyed_circle(field)
    if name == "three_circles":
        return three_circles(field)
    return random_admissible(0 if seed is None else seed, field, n_pieces=n)
