"""Adjunction systems of nerves and their glued diagrams.

An adjunction system is a family of local nerves together with label
bijections describing how cover elements are shared between pieces.  The
gluing conditions checked here are:

  A1  a self-gluing, when supplied, is the identity on all labels;
  A2  the gluing for (j, i) is the inverse of the gluing for (i, j),
      with matching domains;
  A3  gluings compose on overlapping domains.

Canonicalisation groups labels into equivalence classes, names each class
deterministically, and produces the glued diagram: per-piece nerves on
global labels, their intersections, and the union nerve.  Gluing maps act
on cover labels, not points; a gluing must restrict to a simplicial
isomorphism between the induced subcomplexes on its domain and image.

Modelling obligation (documented, not checkable here): per-piece covers
should be good covers, and a cover element should either be contained in
a gluing region (a shared label) or not shared at all.  Point-set
conditions such as boundary homeomorphisms between gluing regions have no
nerve-level content and are not validated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .complexes import (
    SimplicialComplex,
    _class_roots,
    full_subcomplex,
    intersect,
    relabel,
    union_complexes,
)
from .errors import InputError, NotSimplicial, ResourceLimit
from .fplinalg import F2, PrimeField

# Report rows list every index set, 2^n - 1 of them for n pieces; more than
# this many are refused before the first row (16 pieces give 65,535).
REPORT_ROW_CAP = 2 ** 16


class InvalidSystem(InputError):
    """The gluing data fails validation; the message lists every violation, one per line."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("\n".join(["invalid adjunction system"] + [
            f"  [{v.condition}] {v.message}  witness={list(v.witness)}" for v in report.violations]))
        self.report = report


class EmptyIndexSet(ValueError):
    pass


class BadIndexSet(ValueError):
    pass


class IncompatibleFamily(ValueError):
    pass


@dataclass(frozen=True)
class LocalPiece:
    piece_id: str
    nerve: SimplicialComplex

    @property
    def labels(self) -> tuple[str, ...]:
        return self.nerve.vertices


@dataclass(frozen=True)
class GluingBijection:
    source: str
    target: str
    pairs: tuple[tuple[str, str], ...]

    @cached_property
    def mapping(self) -> dict[str, str]:
        """The pairs as a dict, built once and shared: read it, do not change it."""
        return dict(self.pairs)

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(sorted(x for x, _ in self.pairs))

    @property
    def image(self) -> tuple[str, ...]:
        return tuple(sorted(y for _, y in self.pairs))


@dataclass(frozen=True)
class AdjunctionSystem:
    pieces: tuple[LocalPiece, ...]
    gluings: tuple[GluingBijection, ...]
    field: PrimeField = F2

    def piece(self, piece_id: str) -> LocalPiece:
        for p in self.pieces:
            if p.piece_id == piece_id:
                return p
        raise KeyError(piece_id)

    @cached_property
    def _gluing_index(self) -> dict[tuple[str, str], GluingBijection]:
        """The gluing from each source to each target; validation refuses a pair given twice."""
        return {(g.source, g.target): g for g in self.gluings}

    def gluing(self, i: str, j: str) -> GluingBijection | None:
        return self._gluing_index.get((i, j))


def shared_label_system(piece_nerves: Mapping[str, SimplicialComplex],
                        field: PrimeField = F2) -> AdjunctionSystem:
    """System whose pieces share cover elements by literal label equality."""
    pieces = tuple(LocalPiece(str(pid), nerve) for pid, nerve in sorted(piece_nerves.items()))
    gluings: list[GluingBijection] = []
    for a, b in itertools.combinations(pieces, 2):
        shared = sorted(set(a.labels) & set(b.labels))
        if shared:
            pairs = tuple((s, s) for s in shared)
            gluings.append(GluingBijection(a.piece_id, b.piece_id, pairs))
            gluings.append(GluingBijection(b.piece_id, a.piece_id, pairs))
    return AdjunctionSystem(pieces, tuple(gluings), field)


@dataclass(frozen=True)
class Violation:
    condition: str
    message: str
    witness: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def _repeats(labels: list[str]) -> tuple[str, ...]:
    """The labels that occur more than once, sorted."""
    return tuple(sorted(label for label, n in Counter(labels).items() if n > 1))


def validate_system(system: AdjunctionSystem) -> ValidationReport:
    violations: list[Violation] = []
    ids = [p.piece_id for p in system.pieces]
    if len(set(ids)) != len(ids):
        violations.append(Violation("STRUCTURE", "duplicate piece ids", tuple(ids)))
        return ValidationReport(False, tuple(violations))
    by_id = {p.piece_id: p for p in system.pieces}

    for g in system.gluings:
        if g.source not in by_id or g.target not in by_id:
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} names unknown pieces"))
            continue
        src_labels = set(by_id[g.source].labels)
        dom = [x for x, _ in g.pairs]
        img = [y for _, y in g.pairs]
        if len(set(dom)) != len(dom):
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} domain has repeats",
                                        _repeats(dom)))
        if len(set(img)) != len(img):
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} is not injective",
                                        _repeats(img)))
        missing = sorted(set(dom) - src_labels)
        if missing:
            violations.append(Violation("STRUCTURE",
                                         f"gluing {g.source}->{g.target} domain not in source labels",
                                         tuple(missing)))
        extra = sorted(set(img) - set(by_id[g.target].labels))
        if extra:
            violations.append(Violation("STRUCTURE",
                                         f"gluing {g.source}->{g.target} image not in target labels",
                                         tuple(extra)))
    pairs = Counter((g.source, g.target) for g in system.gluings)
    for (i, j), n in pairs.items():
        if n > 1:
            violations.append(Violation("STRUCTURE", f"gluing {i}->{j} is given {n} times", (i, j)))
    if violations:
        return ValidationReport(False, tuple(violations))

    # A1: supplied self-gluings must be the identity on all labels.
    for g in system.gluings:
        if g.source == g.target:
            piece = by_id[g.source]
            if set(g.domain) != set(piece.labels) or any(x != y for x, y in g.pairs):
                bad = sorted(x for x, y in g.pairs if x != y) or sorted(set(piece.labels) - set(g.domain))
                violations.append(Violation("A1", f"self-gluing of {g.source} is not the identity",
                                            tuple(bad)))

    # A2: the reverse gluing is the inverse with matching domains.
    for g in system.gluings:
        if g.source == g.target:
            continue
        back = system.gluing(g.target, g.source)
        if back is None:
            violations.append(Violation("A2", f"gluing {g.target}->{g.source} is missing"))
            continue
        if set(back.domain) != set(g.image):
            violations.append(Violation("A2",
                                        f"domain of {g.target}->{g.source} differs from image of {g.source}->{g.target}",
                                        tuple(sorted(set(back.domain) ^ set(g.image)))))
            continue
        back_map = back.mapping
        for x, y in g.pairs:
            if back_map.get(y) != x:
                violations.append(Violation("A2",
                                            f"gluing {g.target}->{g.source} is not inverse to {g.source}->{g.target} at {y!r}",
                                            (y,)))

    # A3: composition on overlapping domains.
    from_source: dict[str, list[GluingBijection]] = {}
    for g in system.gluings:
        from_source.setdefault(g.source, []).append(g)
    for gi in system.gluings:
        i, j = gi.source, gi.target
        if i == j:
            continue
        fij = gi.mapping
        for gk in from_source[i]:
            if gk.target == j or gk.target == i:
                continue
            k = gk.target
            jk = system.gluing(j, k)
            jk_map = jk.mapping if jk is not None else {}
            fik = gk.mapping
            for x in sorted(fij.keys() & fik.keys()):
                y = fij[x]
                if y not in jk_map:
                    violations.append(Violation("A3",
                                                f"label {x!r}: image under {i}->{j} misses the domain of {j}->{k}",
                                                (x,)))
                elif jk_map[y] != fik[x]:
                    violations.append(Violation("A3",
                                                f"label {x!r}: {i}->{k} differs from {j}->{k} after {i}->{j}",
                                                (x,)))

    # Gluings must be simplicial isomorphisms between induced subcomplexes.
    for g in system.gluings:
        if g.source == g.target:
            continue
        src_sub = full_subcomplex(by_id[g.source].nerve, g.domain)
        tgt_sub = full_subcomplex(by_id[g.target].nerve, g.image)
        mapping = g.mapping
        mapped = frozenset(tuple(sorted(mapping[v] for v in s)) for s in src_sub.simplices)
        if mapped != tgt_sub.simplices:
            diff = sorted(mapped ^ tgt_sub.simplices)
            violations.append(Violation("SIMPLICIAL",
                                        f"gluing {g.source}->{g.target} is not a simplicial isomorphism "
                                        f"between induced subcomplexes",
                                        tuple(diff[:4])))

    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class GluedDiagram:
    """Per-piece nerves on canonical global labels, plus the union nerve.

    A diagram holds one object per distinct complex: the piece nerves, the
    union nerve and every intersection are interned by value when they are
    made, so equal nerves share one `cochain_matrices` memo and each value
    is eliminated once.  The intern table and the memos live exactly as
    long as the diagram; nothing is shared between diagrams or kept per
    process.
    """

    field: PrimeField
    piece_ids: tuple[str, ...]
    nerves: dict[str, SimplicialComplex]
    nerve: SimplicialComplex
    label_classes: dict[tuple[str, str], str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nerves", {i: self._intern(k) for i, k in self.nerves.items()})
        object.__setattr__(self, "nerve", self._intern(self.nerve))

    @property
    def n_pieces(self) -> int:
        return len(self.piece_ids)

    @cached_property
    def _complexes(self) -> dict[SimplicialComplex, SimplicialComplex]:
        return {}

    def _intern(self, k: SimplicialComplex) -> SimplicialComplex:
        """The diagram's one object equal to k."""
        return self._complexes.setdefault(k, k)

    @cached_property
    def _levels(self) -> dict[int, dict[tuple[str, ...], SimplicialComplex]]:
        return {}

    @cached_property
    def tuple_cochains(self) -> dict:
        """`mv` matrices of phi_star (level 0, the union) and of the difference maps,
        keyed by (kind, level, q); none points back here."""
        return {}

    def intersection_nerve(self, t: Iterable[str]) -> SimplicialComplex:
        """The nerve of the pieces in t: a piece nerve, an entry of `level`, or the diagram's empty complex.

        The diagram interns its own empty complex, so an empty
        intersection's memos live only as long as the diagram.
        """
        ids = set(t)
        if not ids:
            raise EmptyIndexSet("intersection over an empty index set")
        unknown = sorted(ids - self.nerves.keys())
        if unknown:
            raise BadIndexSet(f"unknown piece ids {unknown}")
        if len(ids) == 1:
            return self.nerves[ids.pop()]
        key = tuple(i for i in self.piece_ids if i in ids)
        nerve = self.level(len(key)).get(key)
        return nerve if nerve is not None else self._intern(SimplicialComplex(frozenset()))

    def index_subsets(self, size: int) -> tuple[tuple[str, ...], ...]:
        """Every index set of the given size, in `itertools.combinations` order.

        For report rows, which list each index set whether or not its
        intersection is empty.  There are 2^n - 1 of them over all sizes,
        so past REPORT_ROW_CAP they are refused before any is listed.
        """
        if 2 ** self.n_pieces - 1 > REPORT_ROW_CAP:
            raise ResourceLimit(f"report rows are capped at {REPORT_ROW_CAP} index sets; "
                                f"{self.n_pieces} pieces give 2^{self.n_pieces} - 1 = {2 ** self.n_pieces - 1}")
        return tuple(itertools.combinations(self.piece_ids, size))

    def index_set_nerves(self, size: int) -> list[tuple[tuple[str, ...], SimplicialComplex | None]]:
        """Each of `index_subsets(size)` with its intersection nerve, or None where that is empty."""
        level = self.level(size)
        return [(t, level.get(t)) for t in self.index_subsets(size)]

    def level(self, size: int) -> dict[tuple[str, ...], SimplicialComplex]:
        """{index set: intersection nerve} over the index sets of this size with a nonempty intersection.

        The index sets are the (size-1)-simplices of the nerve of the piece
        cover, in `itertools.combinations` order, and all that computation
        needs: an empty intersection contributes nothing.  Built once per
        size, level by level, Apriori-style: a candidate extends a nonempty
        (size-1)-set by a later piece, and is cut from that prefix's nerve
        only when every face is nonempty.  These dicts are the diagram's
        one store of intersections, and each nerve is interned and is the
        one `intersection_nerve` returns.  The dict is shared: read it, do
        not change it.
        """
        memo = self._levels
        if size not in memo:
            if size < 1:
                memo[size] = {}
            elif size == 1:
                memo[size] = {(i,): self.nerves[i] for i in self.piece_ids if self.nerves[i].simplices}
            else:
                faces = self.level(size - 1)
                candidates = (t + (j,) for t in faces for j in self.piece_ids[self.piece_ids.index(t[-1]) + 1:]
                              if all(t[:a] + t[a + 1:] + (j,) in faces for a in range(size - 1)))
                nerves = ((t, intersect(faces[t[:-1]], self.nerves[t[-1]])) for t in candidates)
                memo[size] = {t: self._intern(nerve) for t, nerve in nerves if nerve.simplices}
        return memo[size]


def glued_from_nerves(piece_nerves: Mapping[str, SimplicialComplex],
                      field: PrimeField = F2) -> GluedDiagram:
    nerves = {str(k): v for k, v in piece_nerves.items()}
    ids = tuple(sorted(nerves))
    return GluedDiagram(field, ids, nerves, union_complexes(nerves[i] for i in ids))


def canonicalize(system: AdjunctionSystem) -> GluedDiagram:
    """Glue a validated system: classes of labels become global vertices.

    Each class is named by the local label of its lexicographically
    minimal (piece_id, label) member; colliding names are qualified with
    the piece id.
    """
    report = validate_system(system)
    if not report.valid:
        raise InvalidSystem(report)

    nodes = ((piece.piece_id, v) for piece in system.pieces for v in piece.labels)
    glued = (((g.source, x), (g.target, y)) for g in system.gluings if g.source != g.target for x, y in g.pairs)
    roots = _class_roots(nodes, glued)

    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for node, root in roots.items():
        classes.setdefault(root, []).append(node)
    for members in classes.values():
        per_piece = [p for p, _ in members]
        if len(set(per_piece)) != len(per_piece):
            raise InvalidSystem(ValidationReport(False, (Violation(
                "STRUCTURE", "a gluing chain identifies two labels of one piece"),)))

    # a class's root is its minimal (piece_id, label) member
    roots_per_label = Counter(label for _, label in classes)
    names = {(piece_id, label): label if roots_per_label[label] == 1 else f"{label}@{piece_id}"
             for piece_id, label in classes}
    if len(set(names.values())) != len(names):
        raise InvalidSystem(ValidationReport(False, (Violation(
            "STRUCTURE", "canonical class names collide even after qualification"),)))

    label_classes = {node: names[root] for node, root in roots.items()}
    nerves: dict[str, SimplicialComplex] = {}
    for piece in system.pieces:
        mapping = {v: label_classes[(piece.piece_id, v)] for v in piece.labels}
        nerves[piece.piece_id] = relabel(piece.nerve, mapping)
    ids = tuple(sorted(nerves))
    union_nerve = union_complexes(nerves[i] for i in ids)
    return GluedDiagram(system.field, ids, nerves, union_nerve, label_classes)


def collapse(diagram: GluedDiagram, j: Iterable[str]) -> GluedDiagram:
    """Merge the pieces in j into one piece carrying the union of their nerves.

    The union nerve is unchanged simplex for simplex, so every cohomology
    computed downstream is invariant under any collapse sequence.
    """
    js = sorted(set(j))
    if not js:
        raise BadIndexSet("collapse of an empty index set")
    unknown = [i for i in js if i not in diagram.nerves]
    if unknown:
        raise BadIndexSet(f"unknown piece ids {unknown}")
    if set(js) == set(diagram.piece_ids):
        raise BadIndexSet("collapse must leave at least one other piece")
    merged_id = js[0]
    nerves = {i: n for i, n in diagram.nerves.items() if i not in js}
    nerves[merged_id] = union_complexes(diagram.nerves[i] for i in js)
    return glued_from_nerves(nerves, diagram.field)


def subsystem_embedding(diagram: GluedDiagram, j: Iterable[str]) -> tuple[GluedDiagram, dict[str, str]]:
    """Glued diagram of the subsystem on j, plus the label injection into the parent.

    Global labels are inherited from the parent diagram, so the injection
    is the identity on the labels the subsystem retains.
    """
    js = sorted(set(j))
    if not js:
        raise BadIndexSet("subsystem over an empty index set")
    unknown = [i for i in js if i not in diagram.nerves]
    if unknown:
        raise BadIndexSet(f"unknown piece ids {unknown}")
    sub = glued_from_nerves({i: diagram.nerves[i] for i in js}, diagram.field)
    kappa = {v: v for v in sub.nerve.vertices}
    return sub, kappa


def induced_map(diagram: GluedDiagram, target: SimplicialComplex,
                psi: Mapping[str, Mapping[str, str]]) -> dict[str, str]:
    """The unique simplicial map on the union nerve restricting to each psi_i."""
    for pid in diagram.piece_ids:
        if pid not in psi:
            raise IncompatibleFamily(f"no vertex map supplied for piece {pid!r}")
    merged: dict[str, str] = {}
    owner: dict[str, str] = {}
    for pid in diagram.piece_ids:
        nerve = diagram.nerves[pid]
        vm = psi[pid]
        for v in nerve.vertices:
            if v not in vm:
                raise NotSimplicial(f"map for piece {pid!r} undefined on label {v!r}")
        for s in nerve.simplices:
            image = tuple(sorted({vm[v] for v in s}))
            if image not in target:
                raise NotSimplicial(f"piece {pid!r}: image of {s!r} is not a simplex of the target")
        for v in nerve.vertices:
            if v in merged and merged[v] != vm[v]:
                raise IncompatibleFamily(
                    f"maps for pieces {owner[v]!r} and {pid!r} disagree at label {v!r}")
            merged[v] = vm[v]
            owner[v] = pid
    return merged
