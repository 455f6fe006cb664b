"""Finite abstract simplicial complexes on text labels.

Vertices are identified by strings and ordered lexicographically; a
simplex is a strictly increasing tuple of labels.  Complexes store their
full, downward-closed simplex set, which keeps set operations and all
downstream rank computations direct at desk scale.  The empty complex is
legal everywhere and models an empty intersection.

Complexes are immutable, so results that depend on one complex alone
are memoised on the instance and live exactly as long as it does: its
vertices, its simplices of each dimension, the index of each dimension's
simplices (the coordinates of C^q), its components, and in
`cochain_matrices` the read-only values of `cochains`.  These are each
coboundary d^q per degree and field, with the one forward elimination
that its rank, column space and kernel share; dim H^q per degree and
field; one class reader of H^q per degree and field, built on first read
and only where H^q is not 0; and each restriction matrix onto a
subcomplex, keyed by the subcomplex's simplices.  The memo belongs to
the object, so two equal complexes share it only when they are one
object: a glued diagram interns its nerves by value for exactly that
reason, and so reads each distinct nerve once.  Its scope is that
diagram; nothing is cached per process.

A complex is built from its generators once: each generator is checked
once, the closure's size is bounded before any face is made, and a
generator already in the closure adds nothing.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import ResourceLimit

Simplex = tuple[str, ...]

# A simplex on n vertices has 2^n - 1 faces.  Generators whose closures
# could hold more faces than this in all are refused before any is made;
# the largest benchmark document, the fine system of strip 160x40, bounds
# 176,358.
CLOSURE_CAP = 2 ** 20


class MalformedSimplex(ValueError):
    pass


def make_simplex(vertices: Sequence[str]) -> Simplex:
    s = tuple(map(str, vertices))
    if not s:
        raise MalformedSimplex("empty vertex sequence")
    if not all(map(operator.lt, s, s[1:])):
        raise MalformedSimplex(f"vertices not strictly increasing: {s!r}")
    return s


def make_simplices(generators: Iterable[Sequence[str]]) -> list[Simplex]:
    """Each generator as `make_simplex` makes it, all checked in one pass of C loops.

    A tuple is strictly increasing exactly when it equals its own sorted
    set; where any generator is not, or is empty, the first such one
    raises as `make_simplex` does.
    """
    simplices = list(map(tuple, map(map, itertools.repeat(str), generators)))
    if not all(simplices) or not all(map(operator.eq, simplices, map(tuple, map(sorted, map(set, simplices))))):
        for s in simplices:
            make_simplex(s)
    return simplices


@dataclass(frozen=True)
class SimplicialComplex:
    simplices: frozenset[Simplex]
    _index: dict[int, dict[Simplex, int]] = field(default_factory=dict, init=False, repr=False, compare=False)
    # `cochains` matrices, dimensions and class readers on this complex, under int and frozenset keys: none points
    # back here.
    cochain_matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        """The labels of the 0-simplices, sorted; the complex's other simplices are not sorted for them."""
        points = itertools.compress(self.simplices, map((1).__eq__, map(len, self.simplices)))
        return tuple(sorted(map(operator.itemgetter(0), points)))

    @property
    def dim(self) -> int:
        """Top simplex dimension; -1 for the empty complex."""
        return max(self._by_dim, default=-1)

    @cached_property
    def _by_dim(self) -> dict[int, tuple[Simplex, ...]]:
        """The simplices of each dimension, sorted: grouped by length, then each group sorted, in C loops."""
        return {n - 1: tuple(sorted(group)) for n, group in itertools.groupby(sorted(self.simplices, key=len), len)}

    def simplices_of_dim(self, q: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(q, ())

    def index_of_dim(self, q: int) -> dict[Simplex, int]:
        """Each q-simplex's coordinate in C^q, its position in `simplices_of_dim(q)`; built once, read only."""
        if q not in self._index:
            self._index[q] = {s: i for i, s in enumerate(self.simplices_of_dim(q))}
        return self._index[q]

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self.simplices

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        """What `components` returns: each class of the vertices under the edges, by one union-find."""
        groups: dict[str, list[str]] = {}
        for v, root in _class_roots(self.vertices, self.simplices_of_dim(1)).items():
            groups.setdefault(root, []).append(v)
        return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


EMPTY_COMPLEX = SimplicialComplex(frozenset())


def check_closure_bound(simplices: Iterable[Simplex]) -> None:
    """Refuse simplices whose closure could pass CLOSURE_CAP faces, naming the cap and the bound.

    The bound is the sum of 2^n - 1 over the simplices, counted before
    any face is made.
    """
    bound = sum((1 << len(s)) - 1 for s in simplices)
    if bound > CLOSURE_CAP:
        shown = bound if bound < 2 ** 64 else "more than 2^64"
        raise ResourceLimit(f"simplex closures are capped at {CLOSURE_CAP} faces; the simplices given close "
                            f"to up to {shown}")


def closure(simplices: Iterable[Simplex]) -> SimplicialComplex:
    """Downward closure of simplices that are already well formed, bounded by the caller.

    The set is closed after each simplex, so a simplex already in it
    brings all its faces and is skipped.
    """
    closed: set[Simplex] = set()
    for s in simplices:
        if s not in closed:
            for q in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, q))
    return SimplicialComplex(frozenset(closed))


def build_complex(generators: Iterable[Sequence[str]]) -> SimplicialComplex:
    """Downward closure of the given generator simplices, refused past CLOSURE_CAP faces."""
    simplices = make_simplices(generators)
    check_closure_bound(simplices)
    return closure(simplices)


def intersect(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex(k.simplices & l.simplices)


def union_complexes(ks: Iterable[SimplicialComplex]) -> SimplicialComplex:
    out: frozenset[Simplex] = frozenset()
    for k in ks:
        out |= k.simplices
    return SimplicialComplex(out)


def _class_roots(nodes: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]) -> dict:
    """Each node's class under the equivalence the pairs generate, named by its smallest node.

    One union-find: joining two classes makes the smaller root the root,
    so a root is its class's minimum, and each find halves its path.  The
    result keeps the order of `nodes`.
    """
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {v: find(v) for v in parent}


def components(k: SimplicialComplex) -> tuple[tuple[str, ...], ...]:
    """Edge-connected components of the vertex set, deterministically ordered; found once per complex and kept on it."""
    return k._components


def induced_simplices(simplices: frozenset[Simplex], labels: Iterable[str]) -> frozenset[Simplex]:
    """The simplices whose vertices all lie in the given label set."""
    return frozenset(filter(frozenset(labels).issuperset, simplices))


def full_subcomplex(k: SimplicialComplex, labels: Iterable[str]) -> SimplicialComplex:
    """All simplices of k whose vertices lie in the given label set."""
    return SimplicialComplex(induced_simplices(k.simplices, labels))


def renamed_simplices(simplices: frozenset[Simplex], mapping: Mapping[str, str],
                      vertices: Sequence[str]) -> frozenset[Simplex]:
    """The simplices on the sorted vertices given, each vertex renamed along an injective mapping.

    An identity renaming gives the same frozenset back.  One that keeps
    the vertices' order renames each simplex in place; any other also
    re-sorts each simplex.
    """
    image = list(map(mapping.__getitem__, vertices))
    if all(map(operator.eq, image, vertices)):
        return simplices
    renamed = map(tuple, map(map, itertools.repeat(mapping.__getitem__), simplices))
    if all(map(operator.lt, image, image[1:])):
        return frozenset(renamed)
    return frozenset(map(tuple, map(sorted, renamed)))


def relabel(k: SimplicialComplex, mapping: Mapping[str, str]) -> SimplicialComplex:
    """Rename vertices along an injective mapping, each simplex once, by `renamed_simplices`.

    An identity renaming returns k itself, and no simplex is sorted
    unless the renaming changes the vertices' order.
    """
    image = set(map(mapping.__getitem__, k.vertices))
    if len(image) != len(k.vertices):
        raise MalformedSimplex("relabeling is not injective on the vertex set")
    simplices = renamed_simplices(k.simplices, mapping, k.vertices)
    return k if simplices is k.simplices else SimplicialComplex(simplices)
