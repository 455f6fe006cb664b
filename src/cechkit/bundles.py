"""Constant transition cocycles on nerves and their glued sections.

A cocycle assigns an invertible transition to every edge of a base
complex, subject to the triangle identity on 2-simplices.  Two lanes
share one interface:

* rank 1: the structure group is carried additively, one F_p value per
  edge (0 is the identity transition).  Over F_2 this is the sign group
  of a real line bundle written additively, and classification reduces to
  first cohomology of the base.  Parallel sections are returned in
  component-normalised coordinates: one basis section per connected
  component on which the cocycle untwists, with the twist handled through
  gauge phases when sections are compared or glued.

* rank k >= 2: transitions are literal invertible k x k matrices over
  F_p; sections and equivalences are computed by matrix arithmetic, with
  brute-force gauge search for equivalence at desk scale.

Conventions: stored values are g[{a,b}] for a < b, with g[b,a] the
inverse and g[a,a] the identity; a section is parallel when
s_a = g[a,b] s_b on every edge; a vertex gauge acts by s'_a = k_a s_a,
so equivalent cocycles satisfy h[a,b] = k_a g[a,b] k_b^(-1) (for rank 1
this is the usual coboundary shift).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cochains import cech_differential, class_coordinates, cohomology
from .complexes import SimplicialComplex, components
from .diagrams import GluedDiagram
from .fplinalg import FMatrix, PrimeField

Edge = tuple[str, str]

# Exhaustive enumerations refuse to visit more candidates than this.
ENUMERATION_CAP = 4096


class NonAbelianRank(ValueError):
    pass


class WrongField(ValueError):
    pass


class ResourceLimit(ValueError):
    """An enumeration would exceed its cap; the cap is in the message."""


class IncompatibleData(ValueError):
    pass


class IncompatibleSections(ValueError):
    def __init__(self, vertex: str, message: str):
        super().__init__(message)
        self.vertex = vertex


def _identity(rank: int) -> int | np.ndarray:
    return 0 if rank == 1 else np.eye(rank, dtype=np.int64)


def _normalise_value(value, rank: int, p: int) -> int | np.ndarray:
    if rank == 1:
        if isinstance(value, np.ndarray):
            value = int(value.reshape(()))
        return int(value) % p
    a = np.asarray(value, dtype=np.int64) % p
    if a.shape != (rank, rank):
        raise ValueError(f"expected a {rank}x{rank} matrix, got shape {a.shape}")
    return a


def _invert(value, rank: int, field: PrimeField):
    if rank == 1:
        return (-int(value)) % field.p
    return FMatrix(value, field).inverse().entries


def _compose(a, b, rank: int, p: int):
    if rank == 1:
        return (int(a) + int(b)) % p
    return (np.asarray(a) @ np.asarray(b)) % p


def _values_equal(a, b, rank: int) -> bool:
    if rank == 1:
        return int(a) == int(b)
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


@dataclass(frozen=True, eq=False)
class ConstantCocycle:
    base: SimplicialComplex
    rank: int
    field: PrimeField
    values: dict[Edge, int | np.ndarray]

    @classmethod
    def build(cls, base: SimplicialComplex, rank: int, field: PrimeField,
              values: dict | None = None) -> "ConstantCocycle":
        """Fill unspecified edges with the identity transition."""
        table: dict[Edge, int | np.ndarray] = {}
        given = {tuple(sorted(k)): v for k, v in (values or {}).items()}
        for edge in base.simplices_of_dim(1):
            if edge in given:
                table[edge] = _normalise_value(given.pop(edge), rank, field.p)
            else:
                table[edge] = _identity(rank)
        if given:
            raise ValueError(f"values on non-edges: {sorted(given)}")
        return cls(base, rank, field, table)

    def value(self, a: str, b: str):
        if a == b:
            return _identity(self.rank)
        if a < b:
            return self.values[(a, b)]
        return _invert(self.values[(b, a)], self.rank, self.field)

    def edge_vector(self) -> np.ndarray:
        """Rank-1 values in the C^1 basis order of the base."""
        if self.rank != 1:
            raise NonAbelianRank("edge vector is only defined for rank 1")
        return np.array([self.values[e] for e in self.base.simplices_of_dim(1)], dtype=np.int64)

    def same_values(self, other: "ConstantCocycle") -> bool:
        return (self.base == other.base and self.rank == other.rank
                and all(_values_equal(self.values[e], other.values[e], self.rank)
                        for e in self.base.simplices_of_dim(1)))


@dataclass(frozen=True)
class CocycleVerdict:
    valid: bool
    violations: tuple[tuple, ...]


def validate_cocycle(cocycle: ConstantCocycle) -> CocycleVerdict:
    """Invertibility of every value plus the triangle identity."""
    bad: list[tuple] = []
    if cocycle.rank > 1:
        for edge in cocycle.base.simplices_of_dim(1):
            if FMatrix(cocycle.values[edge], cocycle.field).rank() != cocycle.rank:
                bad.append((edge, "transition is not invertible"))
    p = cocycle.field.p
    for tri in cocycle.base.simplices_of_dim(2):
        a, b, c = tri
        prod = _compose(_compose(cocycle.value(a, b), cocycle.value(b, c), cocycle.rank, p),
                        cocycle.value(c, a), cocycle.rank, p)
        if not _values_equal(prod, _identity(cocycle.rank), cocycle.rank):
            bad.append((tri, "triangle identity fails"))
    return CocycleVerdict(not bad, tuple(bad))


def cocycle_class(cocycle: ConstantCocycle) -> np.ndarray:
    """H^1 class coordinates of a rank-1 cocycle on its base."""
    if cocycle.rank != 1:
        raise NonAbelianRank("class coordinates are only defined for rank 1")
    coh = cohomology(cocycle.base, 1, cocycle.field)
    return class_coordinates(coh, cocycle.edge_vector())


@lru_cache(maxsize=None)
def _all_invertible(rank: int, p: int) -> tuple:
    field = PrimeField(p)
    out = []
    for entries in itertools.product(range(p), repeat=rank * rank):
        m = np.array(entries, dtype=np.int64).reshape(rank, rank)
        if FMatrix(m, field).rank() == rank:
            out.append(m)
    return tuple(out)


def cocycles_equivalent(g: ConstantCocycle, h: ConstantCocycle) -> bool:
    """Gauge equivalence; linear for rank 1, brute force for higher rank."""
    if g.base != h.base or g.rank != h.rank or g.field.p != h.field.p:
        raise ValueError("cocycles live on different bases")
    if g.rank == 1:
        d0 = cech_differential(g.base, 0, g.field).matrix
        return d0.solve(g.edge_vector() - h.edge_vector()) is not None
    vertices = g.base.vertices
    units = _all_invertible(g.rank, g.field.p)
    if len(units) ** len(vertices) > 10 ** 6:
        raise ValueError("base too large for brute-force gauge search")
    edges = g.base.simplices_of_dim(1)
    for gauge in itertools.product(units, repeat=len(vertices)):
        table = dict(zip(vertices, gauge))
        if all(_values_equal(
                _compose(_compose(table[a], g.values[(a, b)], g.rank, g.field.p),
                         _invert(table[b], g.rank, g.field), g.rank, g.field.p),
                h.values[(a, b)], g.rank) for a, b in edges):
            return True
    return False


def enumerate_line_bundles(diagram: GluedDiagram) -> list[ConstantCocycle]:
    """One rank-1 representative per H^1 class of the union nerve over F_2."""
    if diagram.field.p != 2:
        raise WrongField("line bundle enumeration requires the field F_2")
    coh = cohomology(diagram.nerve, 1, diagram.field)
    if 2 ** coh.dimension > ENUMERATION_CAP:
        raise ResourceLimit(f"line bundle enumeration is capped at {ENUMERATION_CAP} classes; "
                            f"dim H^1 = {coh.dimension} gives 2^{coh.dimension}")
    edges = diagram.nerve.simplices_of_dim(1)
    reps: list[ConstantCocycle] = []
    for mask in range(2 ** coh.dimension):
        vec = np.zeros(len(edges), dtype=np.int64)
        for j in range(coh.dimension):
            if mask >> j & 1:
                vec = (vec + coh.representatives.column(j)) % 2
        reps.append(ConstantCocycle.build(diagram.nerve, 1, diagram.field,
                                          dict(zip(edges, (int(v) for v in vec)))))
    return reps


@dataclass(frozen=True, eq=False)
class PieceBundleData:
    """Per-piece cocycles plus identification 0-cochains over the overlaps."""

    diagram: GluedDiagram
    rank: int
    cocycles: dict[str, ConstantCocycle]
    identifications: dict[tuple[str, str], dict[str, int | np.ndarray]]

    def ident(self, i: str, j: str, vertex: str):
        if (i, j) in self.identifications:
            return self.identifications[(i, j)].get(vertex, _identity(self.rank))
        if (j, i) in self.identifications:
            raw = self.identifications[(j, i)].get(vertex, _identity(self.rank))
            return _invert(raw, self.rank, self.diagram.field)
        return _identity(self.rank)


def validate_piece_data(data: PieceBundleData) -> CocycleVerdict:
    bad: list[tuple] = []
    diagram = data.diagram
    p = diagram.field.p
    for pid in diagram.piece_ids:
        if pid not in data.cocycles:
            bad.append((pid, "no cocycle for piece"))
            continue
        g = data.cocycles[pid]
        if g.base != diagram.nerves[pid] or g.rank != data.rank:
            bad.append((pid, "cocycle base or rank does not match the piece"))
            continue
        verdict = validate_cocycle(g)
        bad.extend((pid,) + v for v in verdict.violations)
    if bad:
        return CocycleVerdict(False, tuple(bad))

    for (i, j) in sorted(data.identifications):
        nij = diagram.intersection_nerve((i, j))
        extra = sorted(set(data.identifications[(i, j)]) - set(nij.vertices))
        if extra:
            bad.append(((i, j), f"identification on labels outside the overlap: {extra}"))
        if data.rank > 1:
            for v in sorted(data.identifications[(i, j)]):
                m = _normalise_value(data.identifications[(i, j)][v], data.rank, p)
                if FMatrix(m, diagram.field).rank() != data.rank:
                    bad.append(((i, j), f"identification at {v!r} is not invertible"))

    # compatibility: g^j[a,b] = k_a g^i[a,b] k_b^(-1) on every overlap edge
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        nij = diagram.intersection_nerve((i, j))
        gi, gj = data.cocycles[i], data.cocycles[j]
        for a, b in nij.simplices_of_dim(1):
            lhs = gj.value(a, b)
            rhs = _compose(_compose(data.ident(i, j, a), gi.value(a, b), data.rank, p),
                           _invert(data.ident(i, j, b), data.rank, diagram.field), data.rank, p)
            if not _values_equal(lhs, rhs, data.rank):
                bad.append(((i, j), (a, b), "piece cocycles incompatible on overlap edge"))

    # triple condition on vertices of triple overlaps
    for i, j, k in itertools.combinations(diagram.piece_ids, 3):
        nijk = diagram.intersection_nerve((i, j, k))
        for v in nijk.vertices:
            lhs = data.ident(i, k, v)
            rhs = _compose(data.ident(j, k, v), data.ident(i, j, v), data.rank, p)
            if not _values_equal(lhs, rhs, data.rank):
                bad.append(((i, j, k), v, "identification triple condition fails"))
    return CocycleVerdict(not bad, tuple(bad))


@dataclass(frozen=True, eq=False)
class ColimitResult:
    status: str
    cocycle: ConstantCocycle | None = None
    gauges: dict[tuple[str, str], int | np.ndarray] | None = None
    witness: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def colimit_bundle(diagram: GluedDiagram, data: PieceBundleData) -> ColimitResult:
    """Glue per-piece cocycles into one cocycle on the union nerve.

    Solves for a vertex gauge on every piece with c^i = c^j k^(ij) at each
    shared vertex, then transports the piece cocycles; an inconsistent
    gauge system yields an obstructed outcome naming the label and piece
    cycle, meaning no constant cocycle on this cover glues the data.
    """
    verdict = validate_piece_data(data)
    if not verdict.valid:
        raise IncompatibleData(f"piece data invalid: {verdict.violations[0]}")
    field = diagram.field
    rank = data.rank
    p = field.p

    gauges: dict[tuple[str, str], int | np.ndarray] = {}
    for v in diagram.nerve.vertices:
        holders = [i for i in diagram.piece_ids if (v,) in diagram.nerves[i]]
        root = holders[0]
        gauges[(root, v)] = _identity(rank)
        for j in holders[1:]:
            gauges[(j, v)] = _invert(data.ident(root, j, v), rank, field)
        for i, j in itertools.combinations(holders, 2):
            lhs = gauges[(i, v)]
            rhs = _compose(gauges[(j, v)], data.ident(i, j, v), rank, p)
            if not _values_equal(lhs, rhs, rank):
                return ColimitResult("obstructed", witness=(v, root, i, j))

    values: dict[Edge, int | np.ndarray] = {}
    for a, b in diagram.nerve.simplices_of_dim(1):
        glued = None
        for i in diagram.piece_ids:
            if (a, b) not in diagram.nerves[i]:
                continue
            candidate = _compose(_compose(gauges[(i, a)], data.cocycles[i].value(a, b), rank, p),
                                 _invert(gauges[(i, b)], rank, field), rank, p)
            if glued is None:
                glued = candidate
            elif not _values_equal(glued, candidate, rank):
                return ColimitResult("obstructed", witness=((a, b), i))
        values[(a, b)] = glued
    cocycle = ConstantCocycle(diagram.nerve, rank, field, values)
    return ColimitResult("ok", cocycle=cocycle, gauges=gauges)


def restrict_bundle(cocycle: ConstantCocycle, diagram: GluedDiagram) -> PieceBundleData:
    """Per-piece restrictions of a global cocycle, identity identifications."""
    if cocycle.base != diagram.nerve:
        raise ValueError("cocycle does not live on the diagram's union nerve")
    pieces = {}
    for pid in diagram.piece_ids:
        nerve = diagram.nerves[pid]
        values = {e: cocycle.values[e] for e in nerve.simplices_of_dim(1)}
        pieces[pid] = ConstantCocycle.build(nerve, cocycle.rank, cocycle.field, values)
    return PieceBundleData(diagram, cocycle.rank, pieces, {})


@dataclass(frozen=True, eq=False)
class TwistedSection:
    cocycle: ConstantCocycle
    values: dict[str, int | np.ndarray]

    def vector(self) -> np.ndarray:
        vs = self.cocycle.base.vertices
        if self.cocycle.rank == 1:
            return np.array([int(self.values[v]) for v in vs], dtype=np.int64)
        return np.concatenate([np.asarray(self.values[v], dtype=np.int64) for v in vs])


@dataclass(frozen=True)
class SectionBasis:
    cocycle: ConstantCocycle
    basis: tuple[TwistedSection, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _untwisting_gauge(cocycle: ConstantCocycle, comp: tuple[str, ...]) -> dict[str, int] | None:
    """Vertex phases with phase_b - phase_a = g[a,b] on the component, or None."""
    field = cocycle.field
    order = {v: i for i, v in enumerate(comp)}
    edges = [e for e in cocycle.base.simplices_of_dim(1) if e[0] in order]
    rows = np.zeros((len(edges), len(comp)), dtype=np.int64)
    rhs = np.zeros(len(edges), dtype=np.int64)
    for r, (a, b) in enumerate(edges):
        rows[r, order[b]] += 1
        rows[r, order[a]] -= 1
        rhs[r] = int(cocycle.values[(a, b)])
    solution = FMatrix(rows, field).solve(rhs)
    if solution is None:
        return None
    return {v: int(solution[order[v]]) for v in comp}


def parallel_sections(cocycle: ConstantCocycle) -> SectionBasis:
    """Basis of the space of parallel (locally constant) sections.

    Rank 1: one basis section per component on which the cocycle
    untwists, in component-normalised coordinates.  Rank >= 2: kernel of
    the edge equations s_a = g[a,b] s_b.
    """
    base = cocycle.base
    if cocycle.rank == 1:
        sections = []
        for comp in components(base):
            if _untwisting_gauge(cocycle, comp) is None:
                continue
            values = {v: (1 if v in comp else 0) for v in base.vertices}
            sections.append(TwistedSection(cocycle, values))
        return SectionBasis(cocycle, tuple(sections))

    k = cocycle.rank
    vs = base.vertices
    offset = {v: i * k for i, v in enumerate(vs)}
    edges = base.simplices_of_dim(1)
    m = np.zeros((len(edges) * k, len(vs) * k), dtype=np.int64)
    for r, (a, b) in enumerate(edges):
        m[r * k:(r + 1) * k, offset[a]:offset[a] + k] += np.eye(k, dtype=np.int64)
        m[r * k:(r + 1) * k, offset[b]:offset[b] + k] -= np.asarray(cocycle.values[(a, b)])
    kernel = FMatrix(m, cocycle.field).kernel_basis()
    sections = []
    for j in range(kernel.cols):
        col = kernel.column(j)
        values = {v: col[offset[v]:offset[v] + k].copy() for v in vs}
        sections.append(TwistedSection(cocycle, values))
    return SectionBasis(cocycle, tuple(sections))


def is_parallel(section: TwistedSection) -> bool:
    cocycle = section.cocycle
    base = cocycle.base
    p = cocycle.field.p
    if cocycle.rank == 1:
        for comp in components(base):
            vals = {int(section.values[v]) % p for v in comp}
            if len(vals) > 1:
                return False
            if vals != {0} and _untwisting_gauge(cocycle, comp) is None:
                return False
        return True
    for a, b in base.simplices_of_dim(1):
        lhs = np.asarray(section.values[a]) % p
        rhs = (np.asarray(cocycle.values[(a, b)]) @ np.asarray(section.values[b])) % p
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _find(parent: dict, pot: dict, node, p: int) -> tuple[object, int]:
    """Root of node's set and node's potential over it, mod p.

    A node's potential is relative to its parent; the path to the root is
    compressed, every node on it re-pointed at the root with its summed
    potential.  Unseen nodes start as roots of potential 0.
    """
    if node not in parent:
        parent[node] = node
        pot[node] = 0
    path = []
    while parent[node] != node:
        path.append(node)
        node = parent[node]
    total = 0
    for child in reversed(path):
        total = (total + pot[child]) % p
        pot[child] = total
        parent[child] = node
    return node, total


def _phase_constraints(data: PieceBundleData,
                       sections: dict[str, TwistedSection]) -> str | None:
    """Solvability of the rank-1 phase system; returns a failing vertex or None.

    Every piece component carrying a nonzero value contributes a free
    gauge constant; identifications at shared vertices tie the constants
    together through the untwisting phases and the identification twist.
    Solved with a union-find carrying potentials.
    """
    diagram = data.diagram
    p = diagram.field.p
    comp_of: dict[tuple[str, str], tuple[str, int]] = {}
    phases: dict[tuple[str, str], int] = {}
    for pid in diagram.piece_ids:
        for ci, comp in enumerate(components(diagram.nerves[pid])):
            if int(sections[pid].values[comp[0]]) % p == 0:
                continue
            gauge = _untwisting_gauge(data.cocycles[pid], comp)
            for v in comp:
                comp_of[(pid, v)] = (pid, ci)
                phases[(pid, v)] = gauge[v]

    parent: dict[tuple[str, int], tuple[str, int]] = {}
    pot: dict[tuple[str, int], int] = {}
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        nij = diagram.intersection_nerve((i, j))
        for v in nij.vertices:
            a, b = (i, v), (j, v)
            if a not in comp_of or b not in comp_of:
                continue
            # rho_b - rho_a = phase_a(v) + twist(v) - phase_b(v)
            delta = (phases[a] + int(data.ident(i, j, v)) - phases[b]) % p
            ra, pa = _find(parent, pot, comp_of[a], p)
            rb, pb = _find(parent, pot, comp_of[b], p)
            if ra != rb:
                parent[rb] = ra
                pot[rb] = (pa + delta - pb) % p
            elif (pb - pa) % p != delta:
                return v
    return None


def glue_sections(data: PieceBundleData,
                  sections: dict[str, TwistedSection]) -> TwistedSection:
    """Glue compatible per-piece parallel sections over the colimit cocycle.

    Compatibility requires equal values at every shared vertex and, for
    rank 1, a consistent assignment of gauge phases across the
    identifications; the first failing vertex is reported.
    """
    diagram = data.diagram
    p = diagram.field.p
    rank = data.rank
    for pid in diagram.piece_ids:
        if pid not in sections:
            raise ValueError(f"no section supplied for piece {pid!r}")
        if not is_parallel(sections[pid]):
            raise ValueError(f"section for piece {pid!r} is not parallel")

    colimit = colimit_bundle(diagram, data)
    if not colimit.ok:
        raise IncompatibleData(f"piece data does not glue: witness {colimit.witness}")

    for i, j in itertools.combinations(diagram.piece_ids, 2):
        nij = diagram.intersection_nerve((i, j))
        for v in nij.vertices:
            si, sj = sections[i].values[v], sections[j].values[v]
            if rank == 1:
                if int(si) % p != int(sj) % p:
                    raise IncompatibleSections(v, f"sections disagree at {v!r}")
            else:
                expected = (np.asarray(data.ident(i, j, v)) @ np.asarray(si)) % p
                if not np.array_equal(np.asarray(sj) % p, expected):
                    raise IncompatibleSections(v, f"sections disagree at {v!r}")

    if rank == 1:
        failing = _phase_constraints(data, sections)
        if failing is not None:
            raise IncompatibleSections(failing, f"gauge phases are inconsistent at {failing!r}")
        glued_values: dict[str, int | np.ndarray] = {}
        for v in diagram.nerve.vertices:
            holder = next(i for i in diagram.piece_ids if (v,) in diagram.nerves[i])
            glued_values[v] = int(sections[holder].values[v]) % p
    else:
        glued_values = {}
        for v in diagram.nerve.vertices:
            holder = next(i for i in diagram.piece_ids if (v,) in diagram.nerves[i])
            gauge = colimit.gauges[(holder, v)]
            glued_values[v] = (np.asarray(gauge) @ np.asarray(sections[holder].values[v])) % p
    glued = TwistedSection(colimit.cocycle, glued_values)
    if not is_parallel(glued):
        raise AssertionError("glued section is not parallel for the colimit cocycle")
    return glued


def glue_section_space(data: PieceBundleData) -> int:
    """Dimension of the space of compatible per-piece parallel sections."""
    diagram = data.diagram
    p = diagram.field.p
    rank = data.rank
    bases = {pid: parallel_sections(data.cocycles[pid]) for pid in diagram.piece_ids}

    if rank == 1:
        dims = [bases[pid].dimension for pid in diagram.piece_ids]
        total = sum(dims)
        if p ** total > ENUMERATION_CAP:
            raise ValueError("coefficient space too large for enumeration")
        compatible: list[np.ndarray] = []
        for coeffs in itertools.product(range(p), repeat=total):
            sections = {}
            pos = 0
            for pid, d in zip(diagram.piece_ids, dims):
                vec = {v: 0 for v in diagram.nerves[pid].vertices}
                for t in range(d):
                    if coeffs[pos + t]:
                        for v, val in bases[pid].basis[t].values.items():
                            vec[v] = (vec[v] + coeffs[pos + t] * val) % p
                pos += d
                sections[pid] = TwistedSection(data.cocycles[pid], vec)
            if _tuple_compatible(data, sections):
                compatible.append(np.concatenate([sections[pid].vector()
                                                  for pid in diagram.piece_ids]))
        if not compatible:
            return 0
        rank_found = FMatrix(np.column_stack(compatible), diagram.field).rank()
        if len(compatible) != p ** rank_found:
            raise AssertionError("compatible tuples do not form a linear subspace")
        return rank_found

    # rank >= 2: parallel constraints and identification constraints are linear
    offsets: dict[tuple[str, str], int] = {}
    pos = 0
    for pid in diagram.piece_ids:
        for v in diagram.nerves[pid].vertices:
            offsets[(pid, v)] = pos
            pos += rank
    rows: list[np.ndarray] = []
    for pid in diagram.piece_ids:
        g = data.cocycles[pid]
        for a, b in diagram.nerves[pid].simplices_of_dim(1):
            row = np.zeros((rank, pos), dtype=np.int64)
            row[:, offsets[(pid, a)]:offsets[(pid, a)] + rank] += np.eye(rank, dtype=np.int64)
            row[:, offsets[(pid, b)]:offsets[(pid, b)] + rank] -= np.asarray(g.values[(a, b)])
            rows.append(row)
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        nij = diagram.intersection_nerve((i, j))
        for v in nij.vertices:
            row = np.zeros((rank, pos), dtype=np.int64)
            row[:, offsets[(j, v)]:offsets[(j, v)] + rank] += np.eye(rank, dtype=np.int64)
            row[:, offsets[(i, v)]:offsets[(i, v)] + rank] -= np.asarray(data.ident(i, j, v))
            rows.append(row)
    system = np.vstack(rows) if rows else np.zeros((0, pos), dtype=np.int64)
    return FMatrix(system, diagram.field).rank_nullity()[1]


def _tuple_compatible(data: PieceBundleData, sections: dict[str, TwistedSection]) -> bool:
    diagram = data.diagram
    p = diagram.field.p
    for i, j in itertools.combinations(diagram.piece_ids, 2):
        nij = diagram.intersection_nerve((i, j))
        for v in nij.vertices:
            if int(sections[i].values[v]) % p != int(sections[j].values[v]) % p:
                return False
    return _phase_constraints(data, sections) is None
