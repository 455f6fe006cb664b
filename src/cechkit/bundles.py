"""Constant transition cocycles on nerves and their glued sections.

A cocycle assigns an invertible transition to every edge of a base
complex, subject to the triangle identity on 2-simplices.  Two lanes
share one interface:

* rank 1: the structure group is carried additively, one value per edge
  (0 is the identity transition).  Over F_2 this is the sign group of a
  real line bundle written additively, and classification reduces to
  first cohomology of the base.  Parallel sections are returned in
  component-normalised coordinates: one basis section per connected
  component on which the cocycle untwists, with the twist handled through
  gauge phases when sections are compared or glued.  Every rank-1 gauge
  question (untwisting, equivalence, gluing) is a system of difference
  constraints pot(b) - pot(a) = delta, solved by one union-find with
  potentials.  `_gauge` is its one solver: untwisting a cocycle and
  joining piece components are each a list of constraints fed to it,
  and section counts read the sets it leaves untwisted (`_free_dims`);
  gauge equivalence, which needs only the OR of the residuals, runs the
  same `_union` in a loop of its own.  Over odd p the values and
  potentials are F_p scalars.  Over F_2 they are class bitsets: bit c is
  the value for class c, addition is XOR, and a single cocycle is the
  one-class case (values 0 and 1).  The union-find's shape depends only
  on the graph, so one pass with bitset potentials answers a question
  for every class of `enumerate_line_bundles` at once (`class_table`); a
  check that fails reports the classes it fails as a class mask.

* rank k >= 2: transitions are invertible k x k `FMatrix` values over
  F_p, and a section's value at a vertex is a k x 1 `FMatrix`; sections,
  gluing and the colimit are computed by `FMatrix` arithmetic.  Gauge
  equivalence (`cocycles_equivalent`) and H^1 classes are decided for
  rank 1 only; higher rank raises `NonAbelianRank`.

Conventions: stored values are g[{a,b}] for a < b, with g[b,a] the
inverse and g[a,a] the identity; a section is parallel when
s_a = g[a,b] s_b on every edge; a vertex gauge acts by s'_a = k_a s_a,
so equivalent cocycles satisfy h[a,b] = k_a g[a,b] k_b^(-1) (for rank 1
this is the usual coboundary shift).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

from .cochains import CohomologyBasis, class_coordinates, cohomology
from .complexes import SimplicialComplex
from .diagrams import GluedDiagram, ValidationReport
from .errors import InputError, ResourceLimit, WrongField
from .fplinalg import FMatrix, PrimeField, block_matrix, entry_matrix

Edge = tuple[str, str]

# Exhaustive enumerations refuse to visit more candidates than this.
ENUMERATION_CAP = 4096
# Documents may not ask for a higher bundle rank: a rank-k block builds
# (edges * k) x (vertices * k) section systems, refused before any allocation.
MAX_RANK = 16
# The modulus the rank-1 union-find takes over F_2: values, potentials and
# residuals are class bitsets, bit c for class c, added by XOR.  A prime p
# (2 included) gives F_p scalars.
BITSETS = 0
# A class mask says which classes fail a check, bit c for class c.  A check
# that fails every class, such as a structural one or any failure where the
# values are not bitsets, has every bit set.
EVERY_CLASS = -1


class NonAbelianRank(ValueError):
    pass


class IncompatibleData(InputError):
    pass


class IncompatibleSections(ValueError):
    def __init__(self, vertex: str, message: str):
        super().__init__(message)
        self.vertex = vertex


def _identity(rank: int, field: PrimeField) -> int | FMatrix:
    return 0 if rank == 1 else FMatrix.identity(rank, field)


def _is_integer(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def _normalise_value(value, rank: int, field: PrimeField) -> int | FMatrix:
    """A transition value mod p: an integer at rank 1, a k x k `FMatrix` at rank k.

    Floats, booleans and strings are refused, so that 1.5 or true is not
    read as 1.  Each integer is reduced mod p as a Python int, however
    large.  An `FMatrix` of the right shape and field is a value already.
    """
    if isinstance(value, FMatrix) and rank > 1 and value.shape == (rank, rank) and value.field == field:
        return value
    if rank == 1:
        if not _is_integer(value):
            raise TypeError(f"rank-1 value {value!r} is not an integer")
        return int(value) % field.p
    try:
        rows = [list(row) for row in value]
    except TypeError:
        rows = []
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError(f"expected a {rank}x{rank} matrix, got {value!r}")
    if not all(_is_integer(x) for row in rows for x in row):
        raise TypeError(f"rank-{rank} value {value!r} is not a matrix of integers")
    return entry_matrix((rank, rank), ((i, j, int(x)) for i, row in enumerate(rows) for j, x in enumerate(row)),
                        field)


def _modulus(p: int) -> int:
    """What the rank-1 arithmetic over F_p works mod: p, or BITSETS over F_2."""
    return BITSETS if p == 2 else p


def _mask(residual: int, m: int) -> int:
    """The class mask of a rank-1 residual mod m: the bitset itself; a nonzero scalar fails every class."""
    if m == BITSETS:
        return residual
    return EVERY_CLASS if residual else 0


def _invert(value, rank: int, field: PrimeField):
    if rank == 1:
        return int(value) if field.p == 2 else -int(value) % field.p
    return value.inverse()


def _compose(a, b, rank: int, p: int):
    if rank == 1:
        return int(a) ^ int(b) if p == 2 else (int(a) + int(b)) % p
    return a @ b


def _mismatch(a, b, rank: int, p: int) -> int:
    """The class mask of the classes on which two values differ."""
    if rank == 1:
        return _mask(int(a) ^ int(b), _modulus(p))
    return 0 if a.equals(b) else EVERY_CLASS


def _failing(found: list[tuple[tuple, int]]) -> int:
    """The class mask of the classes that fail any of the checks found."""
    mask = 0
    for _, m in found:
        mask |= m
    return mask


def _violations(found: list[tuple[tuple, int]], c: int = 0) -> list[tuple]:
    """The violations whose class mask holds class c (the one class of a single cocycle)."""
    return [v for v, mask in found if mask >> c & 1]


def _class_counts(masks, n: int) -> list[int]:
    """For each class c < n, how many of the class masks hold it."""
    total = [0] * n
    for mask in masks:
        # bit c of the mask is character c of its n binary digits, reversed
        total = [t + (digit == "1") for t, digit in zip(total, format(mask & ((1 << n) - 1), f"0{n}b")[::-1])]
    return total


@dataclass(frozen=True, eq=False)
class ConstantCocycle:
    base: SimplicialComplex
    rank: int
    field: PrimeField
    values: dict[Edge, int | FMatrix]
    # g[b, a] for each edge (a, b) read against its order, inverted once.
    _inverses: dict[Edge, int | FMatrix] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, base: SimplicialComplex, rank: int, field: PrimeField,
              values: dict | None = None) -> "ConstantCocycle":
        """Fill unspecified edges with the identity transition."""
        table: dict[Edge, int | FMatrix] = {}
        given = {tuple(sorted(k)): v for k, v in (values or {}).items()}
        one = _identity(rank, field)
        for edge in base.simplices_of_dim(1):
            if edge in given:
                table[edge] = _normalise_value(given.pop(edge), rank, field)
            else:
                table[edge] = one
        if given:
            raise ValueError(f"values on non-edges: {sorted(given)}")
        return cls(base, rank, field, table)

    @cached_property
    def one(self) -> int | FMatrix:
        """The identity transition of this rank and field, made once and shared: read it, do not change it."""
        return _identity(self.rank, self.field)

    def value(self, a: str, b: str):
        if a == b:
            return self.one
        if a < b:
            return self.values[(a, b)]
        if (b, a) not in self._inverses:
            self._inverses[(b, a)] = _invert(self.values[(b, a)], self.rank, self.field)
        return self._inverses[(b, a)]


def _cocycle_violations(cocycle: ConstantCocycle) -> list[tuple[tuple, int]]:
    """Non-invertible values and failed triangle identities, each with its class mask."""
    singular = [] if cocycle.rank == 1 else [
        e for e in cocycle.base.simplices_of_dim(1) if cocycle.values[e].rank() != cocycle.rank]
    found = [((edge, "transition is not invertible"), EVERY_CLASS) for edge in singular]
    p = cocycle.field.p
    for tri in cocycle.base.simplices_of_dim(2):
        a, b, c = tri
        if (a, c) in singular:
            # g[c, a] does not exist; a product through a singular value is never the identity anyway
            found.append(((tri, "triangle identity fails"), EVERY_CLASS))
            continue
        prod = _compose(_compose(cocycle.value(a, b), cocycle.value(b, c), cocycle.rank, p),
                        cocycle.value(c, a), cocycle.rank, p)
        mask = _mismatch(prod, cocycle.one, cocycle.rank, p)
        if mask:
            found.append(((tri, "triangle identity fails"), mask))
    return found


def validate_cocycle(cocycle: ConstantCocycle) -> ValidationReport:
    """Invertibility of every value plus the triangle identity."""
    bad = _violations(_cocycle_violations(cocycle))
    return ValidationReport(not bad, tuple(bad))


def cocycle_class(cocycle: ConstantCocycle):
    """H^1 class coordinates of a rank-1 cocycle on its base, as a list of ints."""
    if cocycle.rank != 1:
        raise NonAbelianRank("class coordinates are only defined for rank 1")
    edges = cocycle.base.simplices_of_dim(1)
    # the values in the C^1 basis order of the base, as one column
    column = entry_matrix((len(edges), 1), ((r, 0, cocycle.values[e]) for r, e in enumerate(edges)), cocycle.field)
    return class_coordinates(cohomology(cocycle.base, 1, cocycle.field), column).column(0)


def _inequivalent_classes(g: ConstantCocycle, h: ConstantCocycle) -> int:
    """The class mask of the classes on which two rank-1 cocycles are not gauge-equivalent."""
    m = _modulus(g.field.p)
    parent: dict[str, str] = {}
    pot: dict[str, int] = {}
    mask = 0
    # h[a,b] = k_a + g[a,b] - k_b: a gauge with k_b - k_a = g[a,b] - h[a,b]
    for a, b in g.base.simplices_of_dim(1):
        delta = _compose(g.values[(a, b)], _invert(h.values[(a, b)], 1, h.field), 1, g.field.p)
        mask |= _mask(_union(parent, pot, a, b, delta, m), m)
    return mask


def cocycles_equivalent(g: ConstantCocycle, h: ConstantCocycle) -> bool:
    """Gauge equivalence of two rank-1 cocycles, by one union-find."""
    if g.base != h.base or g.rank != h.rank or g.field.p != h.field.p:
        raise ValueError("cocycles live on different bases")
    if g.rank != 1:
        raise NonAbelianRank("gauge equivalence is only decided for rank 1")
    return not _inequivalent_classes(g, h)


@dataclass(frozen=True, eq=False)
class LineBundles(Sequence):
    """One rank-1 representative per H^1 class of a diagram's union nerve over F_2.

    `bits` holds one class bitset per edge of the nerve, in C^1 order:
    bit c is class c's value on that edge, the sum of the H^1
    representatives at the set bits of c.  Indexing builds class c's
    cocycle; `class_table` reads every class at once from the bitsets and
    builds none.
    """

    diagram: GluedDiagram
    h1: CohomologyBasis
    n_classes: int
    bits: tuple[int, ...]

    def __len__(self) -> int:
        return self.n_classes

    def __getitem__(self, c: int) -> ConstantCocycle:
        c = range(self.n_classes)[c]
        edges = self.diagram.nerve.simplices_of_dim(1)
        return ConstantCocycle(self.diagram.nerve, 1, self.diagram.field,
                               {e: bits >> c & 1 for e, bits in zip(edges, self.bits)})

    def bitsets(self) -> ConstantCocycle:
        """Every class at once: the value on each edge is the bitset of the classes that are 1 there."""
        edges = self.diagram.nerve.simplices_of_dim(1)
        return ConstantCocycle(self.diagram.nerve, 1, self.diagram.field, dict(zip(edges, self.bits)))


def enumerate_line_bundles(diagram: GluedDiagram) -> LineBundles:
    """One rank-1 representative per H^1 class of the union nerve over F_2."""
    if diagram.field.p != 2:
        raise WrongField("line bundle enumeration requires the field F_2")
    coh = cohomology(diagram.nerve, 1, diagram.field)
    if 2 ** coh.dimension > ENUMERATION_CAP:
        raise ResourceLimit(f"line bundle enumeration is capped at {ENUMERATION_CAP} classes; "
                            f"dim H^1 = {coh.dimension} gives 2^{coh.dimension}")
    n = 2 ** coh.dimension
    bits = [0] * len(diagram.nerve.simplices_of_dim(1))
    for i in range(coh.dimension):
        # The classes c with bit i set: blocks of 2^i zeros then 2^i ones, repeated every 2^(i+1) classes.
        holders = ((1 << n) - 1) // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        bits = [b ^ holders if v else b for b, v in zip(bits, coh.representatives.column(i))]
    return LineBundles(diagram, coh, n, tuple(bits))


@dataclass(frozen=True, eq=False)
class PieceBundleData:
    """Per-piece cocycles plus identification 0-cochains over the overlaps."""

    diagram: GluedDiagram
    rank: int
    cocycles: dict[str, ConstantCocycle]
    identifications: dict[tuple[str, str], dict[str, int | FMatrix]]

    def __post_init__(self) -> None:
        """Each identification value becomes a value of this rank and field, as a cocycle's does."""
        object.__setattr__(self, "identifications", {
            pair: {v: _normalise_value(x, self.rank, self.diagram.field) for v, x in table.items()}
            for pair, table in self.identifications.items()})

    @cached_property
    def one(self) -> int | FMatrix:
        """The identity of this rank and field, made once and shared: read it, do not change it."""
        return _identity(self.rank, self.diagram.field)

    def ident(self, i: str, j: str, vertex: str):
        if (i, j) in self.identifications:
            return self.identifications[(i, j)].get(vertex, self.one)
        if (j, i) in self.identifications:
            return _invert(self.identifications[(j, i)].get(vertex, self.one), self.rank, self.diagram.field)
        return self.one


def _piece_data_violations(data: PieceBundleData) -> list[tuple[tuple, int]]:
    """Every violation of the piece data with its class mask, in check order.

    The overlap checks need a cocycle of the right base and rank on every
    piece and valid identifications, and they do not count for a
    class whose piece cocycles fail: a single cocycle's data is checked
    on the overlaps only when its pieces pass.
    """
    found: list[tuple[tuple, int]] = []
    diagram = data.diagram
    p = diagram.field.p
    for pid in diagram.piece_ids:
        if pid not in data.cocycles:
            found.append(((pid, "no cocycle for piece"), EVERY_CLASS))
            continue
        g = data.cocycles[pid]
        if g.base != diagram.nerves[pid] or g.rank != data.rank:
            found.append(((pid, "cocycle base or rank does not match the piece"), EVERY_CLASS))
            continue
        found += [((pid,) + v, mask) for v, mask in _cocycle_violations(g)]
    if _failing(found) == EVERY_CLASS:
        return found

    for (i, j) in sorted(data.identifications):
        nij = diagram.intersection_nerve((i, j))
        extra = sorted(set(data.identifications[(i, j)]) - set(nij.vertices))
        if extra:
            found.append((((i, j), f"identification on labels outside the overlap: {extra}"), EVERY_CLASS))
        if data.rank > 1:
            for v in sorted(data.identifications[(i, j)]):
                if data.identifications[(i, j)][v].rank() != data.rank:
                    found.append((((i, j), f"identification at {v!r} is not invertible"), EVERY_CLASS))
    failed = _failing(found)
    if failed == EVERY_CLASS:
        return found

    overlaps: list[tuple[tuple, int]] = []
    # compatibility: g^j[a,b] = k_a g^i[a,b] k_b^(-1) on every overlap edge
    for (i, j), nij in diagram.level(2).items():
        gi, gj = data.cocycles[i], data.cocycles[j]
        for a, b in nij.simplices_of_dim(1):
            lhs = gj.value(a, b)
            rhs = _compose(_compose(data.ident(i, j, a), gi.value(a, b), data.rank, p),
                           _invert(data.ident(i, j, b), data.rank, diagram.field), data.rank, p)
            overlaps.append((((i, j), (a, b), "piece cocycles incompatible on overlap edge"),
                             _mismatch(lhs, rhs, data.rank, p)))

    # triple condition on vertices of triple overlaps
    for (i, j, k), nijk in diagram.level(3).items():
        for v in nijk.vertices:
            lhs = data.ident(i, k, v)
            rhs = _compose(data.ident(j, k, v), data.ident(i, j, v), data.rank, p)
            overlaps.append((((i, j, k), v, "identification triple condition fails"),
                             _mismatch(lhs, rhs, data.rank, p)))
    return found + [(v, mask & ~failed) for v, mask in overlaps if mask & ~failed]


def validate_piece_data(data: PieceBundleData) -> ValidationReport:
    bad = _violations(_piece_data_violations(data))
    return ValidationReport(not bad, tuple(bad))


@dataclass(frozen=True, eq=False)
class ColimitResult:
    status: str
    cocycle: ConstantCocycle | None = None
    witness: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _colimit(diagram: GluedDiagram, data: PieceBundleData) -> tuple[dict, list[tuple[tuple, int]]]:
    """The colimit's edge values, transported by its vertex gauges, and its obstructions with their class masks.

    Raises IncompatibleData naming the first violation of the first class
    whose piece data is invalid.  A class glues when no obstruction's
    mask holds it, and then its values are its colimit cocycle's; the
    obstructions are in walk order, so a class's first one is its witness.
    """
    found = _piece_data_violations(data)
    invalid = _failing(found)
    if invalid:
        first = (invalid & -invalid).bit_length() - 1
        raise IncompatibleData(f"piece data invalid: {_violations(found, first)[0]}")
    field = diagram.field
    rank = data.rank
    p = field.p

    obstructions: list[tuple[tuple, int]] = []
    # each holder's gauge at a vertex and its inverse, which is ident(root, j, v) itself
    gauges: dict[tuple[str, str], int | FMatrix] = {}
    inverses: dict[tuple[str, str], int | FMatrix] = {}
    for v in diagram.nerve.vertices:
        holders = [i for i in diagram.piece_ids if (v,) in diagram.nerves[i]]
        root = holders[0]
        gauges[(root, v)] = inverses[(root, v)] = data.one
        for j in holders[1:]:
            inverses[(j, v)] = data.ident(root, j, v)
            gauges[(j, v)] = _invert(inverses[(j, v)], rank, field)
        for i, j in itertools.combinations(holders, 2):
            mask = _mismatch(gauges[(i, v)], _compose(gauges[(j, v)], data.ident(i, j, v), rank, p),
                             rank, p)
            if mask:
                obstructions.append(((v, root, i, j), mask))

    values: dict[Edge, int | FMatrix] = {}
    for a, b in diagram.nerve.simplices_of_dim(1):
        glued = None
        for i in diagram.piece_ids:
            if (a, b) not in diagram.nerves[i]:
                continue
            candidate = _compose(_compose(gauges[(i, a)], data.cocycles[i].value(a, b), rank, p),
                                 inverses[(i, b)], rank, p)
            if glued is None:
                glued = candidate
                continue
            mask = _mismatch(glued, candidate, rank, p)
            if mask:
                obstructions.append((((a, b), i), mask))
        values[(a, b)] = glued
    return values, obstructions


def colimit_bundle(diagram: GluedDiagram, data: PieceBundleData) -> ColimitResult:
    """Glue per-piece cocycles into one cocycle on the union nerve.

    Solves for a vertex gauge on every piece with c^i = c^j k^(ij) at each
    shared vertex, then transports the piece cocycles; an inconsistent
    gauge system yields an obstructed outcome naming the label and piece
    cycle, meaning no constant cocycle on this cover glues the data.
    """
    values, obstructions = _colimit(diagram, data)
    if obstructions:
        return ColimitResult("obstructed", witness=obstructions[0][0])
    return ColimitResult("ok", cocycle=ConstantCocycle(diagram.nerve, data.rank, diagram.field, values))


def restrict_bundle(cocycle: ConstantCocycle, diagram: GluedDiagram) -> PieceBundleData:
    """Per-piece restrictions of a global cocycle, identity identifications."""
    if cocycle.base != diagram.nerve:
        raise ValueError("cocycle does not live on the diagram's union nerve")
    pieces = {}
    for pid in diagram.piece_ids:
        nerve = diagram.nerves[pid]
        # The values are already reduced; copying them keeps class bitsets whole.
        values = {e: cocycle.values[e] for e in nerve.simplices_of_dim(1)}
        pieces[pid] = ConstantCocycle(nerve, cocycle.rank, cocycle.field, values)
    return PieceBundleData(diagram, cocycle.rank, pieces, {})


@dataclass(frozen=True, eq=False)
class TwistedSection:
    cocycle: ConstantCocycle
    values: dict[str, int | FMatrix]


@dataclass(frozen=True)
class SectionBasis:
    cocycle: ConstantCocycle
    basis: tuple[TwistedSection, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _find(parent: dict, pot: dict, node, p: int) -> tuple[object, int]:
    """Root of node's set and node's potential over it, mod p (by XOR when p is BITSETS).

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
        total = total ^ pot[child] if p == BITSETS else (total + pot[child]) % p
        pot[child] = total
        parent[child] = node
    return node, total


def _union(parent: dict, pot: dict, a, b, delta: int, p: int) -> int:
    """Impose pot(b) - pot(a) = delta mod p (by XOR when p is BITSETS); return the residual.

    Two sets are merged by hanging b's root under a's, and the residual
    is 0.  Within one set the constraint is only checked: the residual
    is pot(b) - pot(a) - delta, zero when consistent, and a clash changes
    nothing.  Over class bitsets, bit c of the residual is class c's.
    """
    ra, pa = _find(parent, pot, a, p)
    rb, pb = _find(parent, pot, b, p)
    residual = pb ^ pa ^ delta if p == BITSETS else (pb - pa - delta) % p
    if ra != rb:
        parent[rb] = ra
        pot[rb] = residual if p == BITSETS else -residual % p
        return 0
    return residual


def _gauge(nodes, constraints, m: int, failures=None) -> tuple[dict, dict, list]:
    """The one rank-1 gauge solve: a union-find over difference constraints mod m.

    Each constraint (a, b, delta, at) imposes pot(b) - pot(a) = delta; one
    that clashes with those before it fails at `at`, charged to a.
    Returns each node's (root, phase) over its set, each root's twist
    mask (the classes on which some failure of its set leaves no phases),
    and the failures as (node, at, class mask) in walk order: the given
    ones first, then each clash.
    """
    parent: dict = {}
    pot: dict = {}
    failures = list(failures or ())
    for a, b, delta, at in constraints:
        residual = _union(parent, pot, a, b, delta, m)
        if residual:
            failures.append((a, at, _mask(residual, m)))
    gauge = {v: _find(parent, pot, v, m) for v in nodes}
    twist: dict = {}
    for node, _, mask in failures:
        root = gauge[node][0]
        twist[root] = twist.get(root, 0) | mask
    return gauge, twist, failures


def _untwisting_gauge(cocycle: ConstantCocycle) -> tuple[dict[str, tuple[str, int]], dict[str, int]]:
    """Each vertex's component root and phase over it, and the twist mask of each twisted root.

    For a class the root's twist mask leaves clear, the phases satisfy
    phase_b - phase_a = g[a,b] on every edge of the component; for a
    class the mask holds, the component is twisted: no phases do, and
    the cocycle has no nonzero parallel section there.
    """
    constraints = [(e[0], e[1], int(cocycle.values[e]), e) for e in cocycle.base.simplices_of_dim(1)]
    return _gauge(cocycle.base.vertices, constraints, _modulus(cocycle.field.p))[:2]


def _free_dims(gauge: dict, twist: dict, n: int) -> list[int]:
    """For each of n classes, the number of the gauge's sets that no twist mask holds it on."""
    roots = len({root for root, _ in gauge.values()})
    return [roots - twisted for twisted in _class_counts(twist.values(), n)]


def parallel_sections(cocycle: ConstantCocycle) -> SectionBasis:
    """Basis of the space of parallel (locally constant) sections.

    Rank 1: one basis section per component on which the cocycle
    untwists, in component-normalised coordinates.  Rank >= 2: kernel of
    the edge equations s_a = g[a,b] s_b, each value a k x 1 `FMatrix`.
    """
    base = cocycle.base
    if cocycle.rank == 1:
        gauge, twist = _untwisting_gauge(cocycle)
        # the vertices are sorted, so roots first met in vertex order list the components by smallest vertex
        roots = dict.fromkeys(root for root, _ in gauge.values())
        return SectionBasis(cocycle, tuple(
            TwistedSection(cocycle, {v: int(r == root) for v, (r, _) in gauge.items()})
            for root in roots if not twist.get(root)))

    # kernel row i * k + r is entry r of the section at vertex i, for rank k
    k = cocycle.rank
    kernel = _section_system({"": cocycle}, [], k, cocycle.field).kernel_basis()
    return SectionBasis(cocycle, tuple(
        TwistedSection(cocycle, {v: kernel[i * k:(i + 1) * k, j:j + 1] for i, v in enumerate(base.vertices)})
        for j in range(kernel.cols)))


def _section_system(cocycles: dict[str, ConstantCocycle], links: list[tuple[tuple, tuple, FMatrix]],
                    rank: int, field: PrimeField) -> FMatrix:
    """The linear system of rank >= 2 parallel sections on pieces joined by links.

    The unknowns are s_(i, v) in F_p^rank for each piece i and each vertex
    v of its base, in order.  Each edge (a, b) of piece i asks
    s_(i, a) = g_i[a, b] s_(i, b), and then each link (x, y, h) asks
    s_x = h s_y; every condition is `rank` rows.
    """
    unknowns = {(i, v): rank for i, g in cocycles.items() for v in g.base.vertices}
    conditions = [((i, a), (i, b), g.values[(a, b)]) for i, g in cocycles.items()
                  for a, b in g.base.simplices_of_dim(1)] + links
    eye = FMatrix.identity(rank, field)
    blocks = [block for n, (x, y, h) in enumerate(conditions) for block in ((n, x, eye), (n, y, -h))]
    return block_matrix(dict.fromkeys(range(len(conditions)), rank), unknowns, blocks, field)


def is_parallel(section: TwistedSection) -> bool:
    cocycle = section.cocycle
    p = cocycle.field.p
    if cocycle.rank == 1:
        # constant on each component, and zero on a twisted one
        gauge, twist = _untwisting_gauge(cocycle)
        for v, (root, _) in gauge.items():
            value = int(section.values[v]) % p
            if value != int(section.values[root]) % p or (value and twist.get(root)):
                return False
        return True
    return all(section.values[a].equals(cocycle.values[(a, b)] @ section.values[b])
               for a, b in cocycle.base.simplices_of_dim(1))


def _join_piece_components(data: PieceBundleData) -> tuple[dict, dict, list]:
    """Join the rank-1 piece components at the vertices their pieces share, in one `_gauge`.

    Every component of every piece nerve is a node (piece, root) with a
    free gauge constant rho.  A vertex v shared by pieces i < j links the
    components holding it by rho_j - rho_i = phase_i(v) + twist(v) -
    phase_j(v).  The failures are every twisted component (at its root),
    then every link that clashes with the links before it (at its
    vertex).  A compatible tuple takes one value on each set of joined
    components, and that value may be nonzero exactly when the set has
    no failure, so each set the twist masks leave clear adds one
    dimension of glued sections.
    """
    diagram = data.diagram
    field = diagram.field
    gauges = {pid: _untwisting_gauge(data.cocycles[pid]) for pid in diagram.piece_ids}
    nodes = dict.fromkeys((pid, root) for pid, (gauge, _) in gauges.items() for root, _ in gauge.values())
    twisted = [((pid, root), root, twist[root]) for pid, (_, twist) in gauges.items() for root in sorted(twist)]
    links = []
    for (i, j), nij in diagram.level(2).items():
        for v in nij.vertices:
            (ri, phase_i), (rj, phase_j) = gauges[i][0][v], gauges[j][0][v]
            delta = _compose(_compose(phase_i, data.ident(i, j, v), 1, field.p), _invert(phase_j, 1, field),
                             1, field.p)
            links.append(((i, ri), (j, rj), delta, v))
    return _gauge(nodes, links, _modulus(field.p), twisted)


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

    for (i, j), nij in diagram.level(2).items():
        for v in nij.vertices:
            si, sj = sections[i].values[v], sections[j].values[v]
            if not (int(si) % p == int(sj) % p if rank == 1 else sj.equals(data.ident(i, j, v) @ si)):
                raise IncompatibleSections(v, f"sections disagree at {v!r}")

    if rank == 1:
        # Joined components now carry one value; only nonzero ones constrain the phases.
        for (pid, _), v, _ in _join_piece_components(data)[2]:
            if int(sections[pid].values[v]) % p:
                raise IncompatibleSections(v, f"gauge phases are inconsistent at {v!r}")
    glued_values: dict[str, int | FMatrix] = {}
    for v in diagram.nerve.vertices:
        # the first piece holding v is v's root in the colimit, whose gauge is the identity
        value = sections[next(i for i in diagram.piece_ids if (v,) in diagram.nerves[i])].values[v]
        glued_values[v] = int(value) % p if rank == 1 else value
    glued = TwistedSection(colimit.cocycle, glued_values)
    if not is_parallel(glued):
        raise AssertionError("glued section is not parallel for the colimit cocycle")
    return glued


def glue_section_space(data: PieceBundleData) -> int:
    """Dimension of the space of compatible per-piece parallel sections.

    Rank 1: counted on the joined piece components (`_join_piece_components`).
    """
    diagram = data.diagram
    rank = data.rank
    if rank == 1:
        return _free_dims(*_join_piece_components(data)[:2], 1)[0]

    # rank >= 2: each piece's parallel sections, linked by s_j(v) = ident(i, j, v) s_i(v)
    links = [((j, v), (i, v), data.ident(i, j, v))
             for (i, j), nij in diagram.level(2).items() for v in nij.vertices]
    cocycles = {pid: data.cocycles[pid] for pid in diagram.piece_ids}
    return _section_system(cocycles, links, rank, diagram.field).rank_nullity()[1]


@dataclass(frozen=True)
class ClassTable:
    """The answers for every class of a LineBundles; entry c is class c's."""

    parallel_dims: tuple[int, ...]
    round_trips_preserved: tuple[bool, ...]
    glue_space_dims: tuple[int, ...]


def class_table(bundles: LineBundles) -> ClassTable:
    """Every class's parallel sections, round trip and glued sections, in one pass.

    Entry c is what class c's cocycle g = bundles[c] gives for
    parallel_sections(g).dimension, for whether
    colimit_bundle(diagram, restrict_bundle(g, diagram)) is ok and
    gauge-equivalent to g, and for glue_section_space of the restricted
    data: the same code runs once, on class bitsets.  Raises
    IncompatibleData as colimit_bundle does for the first class whose
    restricted data is invalid.
    """
    diagram = bundles.diagram
    n = len(bundles)
    g = bundles.bitsets()
    data = restrict_bundle(g, diagram)
    values, obstructions = _colimit(diagram, data)
    back = ConstantCocycle(diagram.nerve, 1, diagram.field, values)
    lost = _inequivalent_classes(back, g) | _failing(obstructions)
    return ClassTable(tuple(_free_dims(*_untwisting_gauge(g), n)),
                      tuple(not x for x in _class_counts([lost], n)),
                      tuple(_free_dims(*_join_piece_components(data)[:2], n)))
