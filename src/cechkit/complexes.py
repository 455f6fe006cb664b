"""Finite abstract simplicial complexes on text labels.

Vertices are identified by strings and ordered lexicographically; a
simplex is a strictly increasing tuple of labels.  Complexes store their
full, downward-closed simplex set, which keeps set operations and all
downstream rank computations direct at desk scale.  The empty complex is
legal everywhere and models an empty intersection.

Complexes are immutable, so results that depend on one complex alone
are memoised on the instance and live exactly as long as it does: its
vertices, its simplices of each dimension, the index of each dimension's
simplices (the coordinates of C^q), and in `cochain_matrices` the
read-only matrices of `cochains`.  These are each coboundary d^q per
degree and field, with the one forward elimination that its rank, column
space and kernel share; the cocycle, coboundary and representative bases
of H^q per degree and field, once any of them is read; and each
restriction matrix onto a subcomplex, keyed by the subcomplex's
simplices.  The memo belongs to the object, so two equal complexes share
it only when they are one object: a glued diagram interns its nerves by
value for exactly that reason.  Its scope is that diagram; nothing is
cached per process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Simplex = tuple[str, ...]


class MalformedSimplex(ValueError):
    pass


def make_simplex(vertices: Sequence[str]) -> Simplex:
    s = tuple(str(v) for v in vertices)
    if not s:
        raise MalformedSimplex("empty vertex sequence")
    for a, b in zip(s, s[1:]):
        if not a < b:
            raise MalformedSimplex(f"vertices not strictly increasing: {s!r}")
    return s


def faces(simplex: Simplex) -> frozenset[Simplex]:
    """All nonempty subsimplices, the simplex itself included."""
    out: list[Simplex] = []
    for q in range(1, len(simplex) + 1):
        out.extend(itertools.combinations(simplex, q))
    return frozenset(out)


@dataclass(frozen=True)
class SimplicialComplex:
    simplices: frozenset[Simplex]

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return tuple(s[0] for s in self.simplices_of_dim(0))

    @property
    def dim(self) -> int:
        """Top simplex dimension; -1 for the empty complex."""
        return max(self._by_dim, default=-1)

    @cached_property
    def _by_dim(self) -> dict[int, tuple[Simplex, ...]]:
        groups: dict[int, list[Simplex]] = {}
        for s in sorted(self.simplices):
            groups.setdefault(len(s) - 1, []).append(s)
        return {q: tuple(g) for q, g in groups.items()}

    def simplices_of_dim(self, q: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(q, ())

    @cached_property
    def _index(self) -> dict[int, dict[Simplex, int]]:
        return {}

    def index_of_dim(self, q: int) -> dict[Simplex, int]:
        """Each q-simplex's coordinate in C^q, its position in `simplices_of_dim(q)`; built once, read only."""
        if q not in self._index:
            self._index[q] = {s: i for i, s in enumerate(self.simplices_of_dim(q))}
        return self._index[q]

    @cached_property
    def cochain_matrices(self) -> dict:
        """`cochains` matrices on this complex: FMatrix values and frozenset keys only, so none points back here."""
        return {}

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self.simplices

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    def is_closed(self) -> bool:
        return all(f in self.simplices for s in self.simplices for f in faces(s))


EMPTY_COMPLEX = SimplicialComplex(frozenset())


def build_complex(generators: Iterable[Sequence[str]]) -> SimplicialComplex:
    """Downward closure of the given generator simplices."""
    closed: set[Simplex] = set()
    for g in generators:
        closed |= faces(make_simplex(g))
    return SimplicialComplex(frozenset(closed))


def intersect(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex(k.simplices & l.simplices)


def union_complexes(ks: Iterable[SimplicialComplex]) -> SimplicialComplex:
    out: frozenset[Simplex] = frozenset()
    for k in ks:
        out |= k.simplices
    return SimplicialComplex(out)


def components(k: SimplicialComplex) -> tuple[tuple[str, ...], ...]:
    """Edge-connected components of the vertex set, deterministically ordered."""
    parent: dict[str, str] = {v: v for v in k.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in k.simplices_of_dim(1):
        a, b = find(s[0]), find(s[1])
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[str, list[str]] = {}
    for v in k.vertices:
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def full_subcomplex(k: SimplicialComplex, labels: Iterable[str]) -> SimplicialComplex:
    """All simplices of k whose vertices lie in the given label set."""
    allowed = set(labels)
    return SimplicialComplex(frozenset(s for s in k.simplices if set(s) <= allowed))


def relabel(k: SimplicialComplex, mapping: Mapping[str, str]) -> SimplicialComplex:
    """Rename vertices along an injective mapping, re-sorting each simplex."""
    image = [mapping[v] for v in k.vertices]
    if len(set(image)) != len(image):
        raise MalformedSimplex("relabeling is not injective on the vertex set")
    return SimplicialComplex(frozenset(tuple(sorted(mapping[v] for v in s)) for s in k.simplices))
