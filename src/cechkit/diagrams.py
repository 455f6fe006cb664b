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
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .complexes import (
    SimplicialComplex,
    _class_roots,
    induced_simplices,
    intersect,
    relabel,
    renamed_simplices,
    union_complexes,
)
from .errors import InputError, ResourceLimit, one_line
from .fplinalg import F2, PrimeField

_FIRST, _SECOND = operator.itemgetter(0), operator.itemgetter(1)

# Report rows list every index set, 2^n - 1 of them for n pieces; more than
# this many are refused before the first row (16 pieces give 65,535).
REPORT_ROW_CAP = 2 ** 16


class InvalidSystem(InputError):
    """The gluing data fails validation; a one-line message counts the violations and names the first.

    The report keeps every violation; `validate` lists them all.  A line
    break in a piece id is written escaped, so the message stays one line.
    A system read from inside a document, as a refinement's fine system
    is, names its path there first.
    """

    def __init__(self, report: "ValidationReport", path: str | None = None):
        n, first = len(report.violations), report.violations[0]
        message = (f"invalid adjunction system: {n} violation{'s' if n > 1 else ''}; "
                   f"first [{first.condition}] {first.message}  witness={list(first.witness)}")
        super().__init__(one_line(message if path is None else f"{path}: {message}"))
        self.report = report


class EmptyIndexSet(ValueError):
    pass


class BadIndexSet(ValueError):
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


@dataclass(frozen=True)
class AdjunctionSystem:
    pieces: tuple[LocalPiece, ...]
    gluings: tuple[GluingBijection, ...]
    field: PrimeField = F2

    @cached_property
    def _gluing_index(self) -> dict[tuple[str, str], GluingBijection]:
        """The gluing from each source to each target; validation refuses a pair given twice."""
        return {(g.source, g.target): g for g in self.gluings}

    @cached_property
    def _glued_pairs(self) -> list[tuple[tuple[str, str], tuple[str, str]]]:
        """Each pair of glued (piece id, label) nodes once, read from the gluing out of the smaller id."""
        return [((g.source, x), (g.target, y)) for g in self.gluings if g.source < g.target for x, y in g.pairs]

    @cached_property
    def _glued_roots(self) -> dict[tuple[str, str], tuple[str, str]]:
        """Each glued node's class root under `_glued_pairs`, the class minimum; an unglued node is not a key."""
        return _class_roots(dict.fromkeys(itertools.chain.from_iterable(self._glued_pairs)), self._glued_pairs)


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
    """A verdict and its violations: `Violation`s for a system, messages or
    witness tuples for a refinement map, a cocycle or bundle piece data."""

    valid: bool
    violations: tuple


def _repeats(labels: list[str]) -> tuple[str, ...]:
    """The labels that occur more than once, sorted."""
    return tuple(sorted(label for label, n in Counter(labels).items() if n > 1))


def _a3_violations(gluings: tuple[GluingBijection, ...],
                   index: dict[tuple[str, str], GluingBijection]) -> list[Violation]:
    """A3 over every triple of pieces i, j, k glued from i, worded only for the labels that fail."""
    violations: list[Violation] = []
    from_source: dict[str, list[GluingBijection]] = {}
    for g in gluings:
        from_source.setdefault(g.source, []).append(g)
    for gi in gluings:
        i, j = gi.source, gi.target
        if i == j:
            continue
        fij = gi.mapping
        for gk in from_source[i]:
            if gk.target == j or gk.target == i:
                continue
            k = gk.target
            jk = index.get((j, k))
            jk_map = jk.mapping if jk is not None else {}
            fik = gk.mapping
            overlap = fij.keys() & fik.keys()
            if list(map(jk_map.get, map(fij.__getitem__, overlap))) == list(map(fik.__getitem__, overlap)):
                continue
            for x in sorted(overlap):
                y = fij[x]
                if y not in jk_map:
                    violations.append(Violation("A3",
                                                f"label {x!r}: image under {i}->{j} misses the domain of {j}->{k}",
                                                (x,)))
                elif jk_map[y] != fik[x]:
                    violations.append(Violation("A3",
                                                f"label {x!r}: {i}->{k} differs from {j}->{k} after {i}->{j}",
                                                (x,)))
    return violations


def _classes_complete(system: AdjunctionSystem) -> bool:
    """Whether each class of glued nodes has an edge between every two of its nodes."""
    roots = system._glued_roots
    edges = Counter(map(roots.__getitem__, map(_FIRST, system._glued_pairs)))
    return all(edges[root] == n * (n - 1) // 2 for root, n in Counter(roots.values()).items())


def validate_system(system: AdjunctionSystem) -> ValidationReport:
    """Every violation of the gluing conditions, in check order: STRUCTURE, A1, A2, A3, SIMPLICIAL.

    Each pass reads what it needs once per call: each piece's label set,
    each gluing's dict (kept on the gluing) and image set, and each
    induced subcomplex, a frozenset made once per piece and label set.
    A2 and A3 compare whole maps first and word a violation only for the
    labels that fail.  A gluing that passed A2 is the inverse of its
    reverse, so once the reverse is a simplicial isomorphism it is one
    too and is not mapped again.
    """
    violations: list[Violation] = []
    ids = [p.piece_id for p in system.pieces]
    if len(set(ids)) != len(ids):
        violations.append(Violation("STRUCTURE", "duplicate piece ids", tuple(ids)))
        return ValidationReport(False, tuple(violations))
    by_id = {p.piece_id: p for p in system.pieces}
    labels = {pid: frozenset(p.labels) for pid, p in by_id.items()}
    # each gluing's image as a set; its domain is the keys of its mapping
    images: dict[tuple[str, str], set[str]] = {}

    for g in system.gluings:
        if g.source not in by_id or g.target not in by_id:
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} names unknown pieces"))
            continue
        dom = g.mapping.keys()
        img = images[(g.source, g.target)] = set(map(_SECOND, g.pairs))
        if len(dom) != len(g.pairs):
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} domain has repeats",
                                        _repeats(list(map(_FIRST, g.pairs)))))
        if len(img) != len(g.pairs):
            violations.append(Violation("STRUCTURE", f"gluing {g.source}->{g.target} is not injective",
                                        _repeats(list(map(_SECOND, g.pairs)))))
        if not dom <= labels[g.source]:
            violations.append(Violation("STRUCTURE",
                                         f"gluing {g.source}->{g.target} domain not in source labels",
                                         tuple(sorted(dom - labels[g.source]))))
        if not img <= labels[g.target]:
            violations.append(Violation("STRUCTURE",
                                         f"gluing {g.source}->{g.target} image not in target labels",
                                         tuple(sorted(img - labels[g.target]))))
    pairs = Counter((g.source, g.target) for g in system.gluings)
    for (i, j), n in pairs.items():
        if n > 1:
            violations.append(Violation("STRUCTURE", f"gluing {i}->{j} is given {n} times", (i, j)))
    if violations:
        return ValidationReport(False, tuple(violations))

    # A1: supplied self-gluings must be the identity on all labels.
    for g in system.gluings:
        if g.source == g.target:
            if g.mapping.keys() != labels[g.source] or any(x != y for x, y in g.pairs):
                bad = sorted(x for x, y in g.pairs if x != y) or sorted(labels[g.source] - g.mapping.keys())
                violations.append(Violation("A1", f"self-gluing of {g.source} is not the identity",
                                            tuple(bad)))

    # A2: the reverse gluing is the inverse with matching domains.
    index = system._gluing_index
    inverse: set[tuple[str, str]] = set()
    n_glued = 0
    for g in system.gluings:
        if g.source == g.target:
            continue
        n_glued += 1
        back = index.get((g.target, g.source))
        if back is None:
            violations.append(Violation("A2", f"gluing {g.target}->{g.source} is missing"))
            continue
        image = images[(g.source, g.target)]
        if back.mapping.keys() != image:
            violations.append(Violation("A2",
                                        f"domain of {g.target}->{g.source} differs from image of {g.source}->{g.target}",
                                        tuple(sorted(back.mapping.keys() ^ image))))
            continue
        back_map = back.mapping
        if all(map(operator.eq, map(back_map.get, map(_SECOND, g.pairs)), map(_FIRST, g.pairs))):
            inverse.add((g.source, g.target))
            continue
        for x, y in g.pairs:
            if back_map.get(y) != x:
                violations.append(Violation("A2",
                                            f"gluing {g.target}->{g.source} is not inverse to {g.source}->{g.target} at {y!r}",
                                            (y,)))

    # A3: composition on overlapping domains.  Where A2 holds for every
    # gluing, the glued pairs are the edges of a graph on (piece, label)
    # nodes, without repeats or loops, and A3 holds exactly when each
    # connected component is complete: then no triple is scanned.
    if len(inverse) < n_glued or not _classes_complete(system):
        violations += _a3_violations(system.gluings, index)

    # Gluings must be simplicial isomorphisms between induced subcomplexes.
    induced: dict[tuple[str, frozenset[str]], frozenset] = {}

    def induced_on(piece_id: str, on: Iterable[str]) -> frozenset:
        key = (piece_id, frozenset(on))
        if key not in induced:
            induced[key] = induced_simplices(by_id[piece_id].nerve.simplices, key[1])
        return induced[key]

    isomorphisms: set[tuple[str, str]] = set()
    for g in system.gluings:
        if g.source == g.target:
            continue
        if (g.target, g.source) in isomorphisms and (g.source, g.target) in inverse:
            isomorphisms.add((g.source, g.target))
            continue
        domain = sorted(g.mapping)
        target = induced_on(g.target, images[(g.source, g.target)])
        mapped = renamed_simplices(induced_on(g.source, domain), g.mapping, domain)
        if mapped == target:
            isomorphisms.add((g.source, g.target))
            continue
        diff = sorted(mapped ^ target)
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
    _complexes: dict[SimplicialComplex, SimplicialComplex] = field(default_factory=dict, init=False, repr=False,
                                                                   compare=False)
    _levels: dict[int, dict[tuple[str, ...], SimplicialComplex]] = field(default_factory=dict, init=False,
                                                                         repr=False, compare=False)
    _supports: dict[tuple[int, int], dict[tuple[str, ...], SimplicialComplex]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # `mv` matrices of phi_star (level 0, the union) and of the difference maps,
    # keyed by (kind, level, q); none points back here.
    tuple_cochains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nerves", {i: self._intern(k) for i, k in self.nerves.items()})
        object.__setattr__(self, "nerve", self._intern(self.nerve))

    @property
    def n_pieces(self) -> int:
        return len(self.piece_ids)

    def _intern(self, k: SimplicialComplex) -> SimplicialComplex:
        """The diagram's one object equal to k."""
        return self._complexes.setdefault(k, k)

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

    def level(self, size: int) -> dict[tuple[str, ...], SimplicialComplex]:
        """{index set: intersection nerve} over the index sets of this size with a nonempty intersection.

        The index sets are the (size-1)-simplices of the nerve of the piece
        cover, in `itertools.combinations` order: an empty intersection
        contributes nothing.  The level maps of degree q read the narrower
        `_support(size, q)`, the entries whose nerve has q-simplices, and
        each distinct nerve keeps its own cohomology dimensions and
        components, so an interned nerve is read once.  Built once per
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

    def _support(self, size: int, degree: int) -> dict[tuple[str, ...], SimplicialComplex]:
        """The entries of `level(size)` whose nerve has simplices of the degree, in level order.

        Built once per size and degree.  A nerve with no q-simplices is a
        block of dimension 0 in every layout of q-cochains, so `mv` lays
        its level maps out over this and no matrix changes.  The dict is
        shared: read it, do not change it.
        """
        key = (size, degree)
        if key not in self._supports:
            self._supports[key] = {t: k for t, k in self.level(size).items() if k.simplices_of_dim(degree)}
        return self._supports[key]


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

    Validation has passed, so A2 holds: the two gluings of a pair relate
    the same labels, and union-find reads each unordered pair once, from
    the gluing out of the smaller id, over the glued labels only.  An
    unglued label is its own class.  Each piece nerve is renamed once by
    `relabel`, which keeps the parsed nerve where the renaming is the
    identity.
    """
    report = validate_system(system)
    if not report.valid:
        raise InvalidSystem(report)

    roots = system._glued_roots

    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for node, root in roots.items():
        classes.setdefault(root, []).append(node)
    for members in classes.values():
        per_piece = [p for p, _ in members]
        if len(set(per_piece)) != len(per_piece):
            raise InvalidSystem(ValidationReport(False, (Violation(
                "STRUCTURE", "a gluing chain identifies two labels of one piece"),)))

    # a class's root is its minimal (piece_id, label) member
    nodes = [(piece.piece_id, v) for piece in system.pieces for v in piece.labels]
    root_of = dict(zip(nodes, map(roots.get, nodes, nodes)))
    class_roots = set(root_of.values())
    roots_per_label = Counter(map(_SECOND, class_roots))
    names = {(piece_id, label): label if roots_per_label[label] == 1 else f"{label}@{piece_id}"
             for piece_id, label in class_roots}
    if len(set(names.values())) != len(names):
        raise InvalidSystem(ValidationReport(False, (Violation(
            "STRUCTURE", "canonical class names collide even after qualification"),)))

    label_classes = dict(zip(nodes, map(names.__getitem__, root_of.values())))
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
