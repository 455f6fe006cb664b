"""cechkit's quantities computed straight from their definitions, as dense numpy arrays over F_p.

This is the one independent implementation the tests compare cechkit
with (differential testing: McKeeman, "Differential testing for
software", Digital Technical Journal 10(1), 1998).  It imports only numpy
and the standard library, never a cechkit module, so a bug in cechkit's
elimination or layout cannot pass on both sides; `test_reference.py`
checks that it stays so.

It reads a complex only as its frozenset of simplices (sorted label
tuples; a complex object is read through `.simplices`), a diagram only
through `piece_ids`, `nerves` and `nerve`, and a refinement only through
its two diagrams and `labels`.  Every basis order is derived here: C^q
has the q-simplices in lexicographic order, and level p the p-fold index
sets in `itertools.combinations` order whose intersection is nonempty.
Every array is int64 with entries in [0, p); p is always passed in.

Where a definition fixes a basis, cechkit's must equal it entry for
entry: Z is the reduced kernel basis of d^q, R the columns of Z that are
pivot columns of [d^(q-1) | Z], and a class's coordinates the R-part of
the unique solution of [B | R] x = v.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# -- linear algebra over F_p


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced row echelon form of a mod p, one row per row of a, and its pivot columns."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if not len(nonzero):
            continue
        pivot_row = r + int(nonzero[0])
        a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def kernel(a, p: int) -> np.ndarray:
    """The reduced kernel basis: one column per free column f, 1 at f, 0 at the other free columns."""
    reduced, pivots = rref(a, p)
    n = reduced.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        basis[f, j] = 1
        for k, c in enumerate(pivots):
            basis[c, j] = -reduced[k, f] % p
    return basis


def solve(a, b, p: int) -> np.ndarray | None:
    """A solution x of a x = b with every free variable 0, or None when there is none.

    b is a vector or a matrix of right-hand sides; x has b's number of
    dimensions.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    rhs = b[:, None] if b.ndim == 1 else b
    reduced, pivots = rref(np.hstack([a, rhs]), p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for k, c in enumerate(pivots):
        x[c] = reduced[k, n:]
    return x if b.ndim == 2 else x[:, 0]


def span_equal(a, b, p: int) -> bool:
    """Whether the columns of a and of b span the same space."""
    return rank(a, p) == rank(b, p) == rank(np.hstack([a, b]), p)


def block(rows: dict, cols: dict, blocks, p: int) -> np.ndarray:
    """The matrix laid out from key -> size maps, in their order, with each (row key, column key, array) added in."""
    row_at = dict(zip(rows, itertools.accumulate(rows.values(), initial=0)))
    col_at = dict(zip(cols, itertools.accumulate(cols.values(), initial=0)))
    m = np.zeros((sum(rows.values()), sum(cols.values())), dtype=np.int64)
    for r, c, b in blocks:
        b = np.asarray(b, dtype=np.int64).reshape(rows[r], cols[c])
        m[row_at[r]:row_at[r] + rows[r], col_at[c]:col_at[c] + cols[c]] += b
    return m % p


def diagonal(blocks: list, p: int) -> np.ndarray:
    return block({i: b.shape[0] for i, b in enumerate(blocks)}, {i: b.shape[1] for i, b in enumerate(blocks)},
                 ((i, i, b) for i, b in enumerate(blocks)), p)


# -- complexes and cochain maps


def simplices(k) -> frozenset:
    return k if isinstance(k, frozenset) else k.simplices


def cells(k, q: int) -> list[tuple[str, ...]]:
    """The basis of C^q(k): its q-simplices, sorted."""
    return sorted(s for s in simplices(k) if len(s) == q + 1)


def top(k) -> int:
    """The top dimension, -1 for the empty complex."""
    return max(map(len, simplices(k)), default=0) - 1


def coboundary(k, q: int, p: int) -> np.ndarray:
    """d^q: C^q -> C^(q+1), the alternating sum over the faces of each (q+1)-simplex; C^(-1) is 0."""
    src = {s: i for i, s in enumerate(cells(k, q))}
    tgt = cells(k, q + 1)
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for r, sigma in enumerate(tgt if q >= 0 else ()):
        for i in range(len(sigma)):
            m[r, src[sigma[:i] + sigma[i + 1:]]] += (-1) ** i
    return m % p


def restriction(k, l, q: int, p: int) -> np.ndarray:
    """C^q(k) -> C^q(l) for a subcomplex l: the value of each q-simplex of l."""
    src = {s: i for i, s in enumerate(cells(k, q))}
    tgt = cells(l, q)
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for r, s in enumerate(tgt):
        m[r, src[s]] = 1
    return m


def pullback(labels, domain, codomain, q: int, p: int) -> np.ndarray:
    """C^q(codomain) -> C^q(domain) along a vertex map: the value at the image, times the sign of the
    permutation that sorts it, or 0 where two vertices share an image."""
    src = {s: i for i, s in enumerate(cells(codomain, q))}
    tgt = cells(domain, q)
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for r, tau in enumerate(tgt):
        image = [labels[v] for v in tau]
        if len(set(image)) == len(image):
            inversions = sum(a > b for a, b in itertools.combinations(image, 2))
            m[r, src[tuple(sorted(image))]] = (-1) ** inversions
    return m % p


# -- diagrams


def level(diagram, size: int) -> dict[tuple[str, ...], frozenset]:
    """{T: N_T} over the index sets of this size whose pieces' simplices meet, in combinations order."""
    return _meets({i: diagram.nerves[i] for i in diagram.piece_ids}, size)


def _meets(nerves: dict, size: int) -> dict[tuple, frozenset]:
    meets = {t: frozenset.intersection(*map(simplices, map(nerves.get, t)))
             for t in itertools.combinations(nerves, size)}
    return {t: n for t, n in meets.items() if n}


def _dims(nerves: dict, q: int) -> dict:
    return {t: len(cells(n, q)) for t, n in nerves.items()}


def betti(k, q: int, p: int) -> int:
    """dim H^q(k) = dim C^q - rank d^q - rank d^(q-1)."""
    return len(cells(k, q)) - rank(coboundary(k, q, p), p) - rank(coboundary(k, q - 1, p), p)


def index_set_rows(diagram, q_max: int, p: int) -> tuple[dict[str, list[int]], list[str]]:
    """Every index set's report row, and the keys of the index sets whose intersection is not connected.

    One row per `itertools.combinations` index set over `piece_ids`, of
    every size, keyed by its ids joined with ",": dim H^q for q <= q_max
    on a nonempty intersection, and zeros on an empty one.  The rows are
    sorted by key string.  The disconnected keys, those whose dim H^0 is
    not 1 (an empty intersection's is 0), are listed in tuple order; the
    two orders differ where an id holds a character below ",".
    """
    rows = {}
    for size in range(1, len(diagram.piece_ids) + 1):
        meets = level(diagram, size)
        for t in itertools.combinations(diagram.piece_ids, size):
            rows[t] = [betti(meets[t], q, p) for q in range(q_max + 1)] if t in meets else [0] * (q_max + 1)
    disconnected = [",".join(t) for t in sorted(rows) if rows[t][0] != 1]
    return {",".join(t): rows[t] for t in sorted(rows, key=",".join)}, disconnected


def phi_star(diagram, q: int, p: int) -> np.ndarray:
    """C^q(union) -> (+) C^q(N_i): each piece's restriction, stacked."""
    pieces = level(diagram, 1)
    return block(_dims(pieces, q), {0: len(cells(diagram.nerve, q))},
                 ((t, 0, restriction(diagram.nerve, n, q, p)) for t, n in pieces.items()), p)


def delta_tilde(diagram, p_level: int, q: int, p: int) -> np.ndarray:
    """Level p -> level p+1: block (T', T) is (-1)^(a+1) times restriction, where T is T' less position a."""
    src, tgt = level(diagram, p_level), level(diagram, p_level + 1)
    return block(_dims(tgt, q), _dims(src, q),
                 ((t2, t2[:a] + t2[a + 1:], (-1) ** (a + 1) * restriction(src[t2[:a] + t2[a + 1:]], n, q, p))
                  for t2, n in tgt.items() for a in range(len(t2))), p)


def total_differentials(diagram, p: int) -> list[np.ndarray]:
    """The total differentials of the bicomplex of level-(j+1) q-cochains in bidegree (j, q), from total degree
    k to k + 1 for k up to the top degree: delta_tilde plus (-1)^j times the blockwise coboundary."""
    n, q_top = len(diagram.piece_ids), max(top(diagram.nerve), 0)
    levels = [level(diagram, j + 1) for j in range(n)]
    dims = [{(j, k - j): sum(_dims(levels[j], k - j).values()) for j in range(n) if 0 <= k - j <= q_top + 1}
            for k in range(n + q_top + 2)]

    def blocks(k):
        for j, q in dims[k]:
            if j + 1 < n:
                yield (j + 1, q), (j, q), delta_tilde(diagram, j + 1, q, p)
            if (j, q + 1) in dims[k + 1]:
                yield (j, q + 1), (j, q), (-1) ** j * diagonal([coboundary(m, q, p) for m in levels[j].values()], p)

    return [block(dims[k + 1], dims[k], blocks(k), p) for k in range(n + q_top + 1)]


def tuple_pullback(r, p_level: int, q: int, p: int) -> np.ndarray:
    """Level p of the coarse diagram -> level p of the fine one, N_T by N_T; a fine N_T may be empty."""
    coarse = level(r.coarse, p_level)
    fine = {t: frozenset.intersection(*(simplices(r.fine.nerves[i]) for i in t)) for t in coarse}
    return diagonal([pullback(r.labels, fine[t], n, q, p) for t, n in coarse.items()], p)


# -- cohomology classes


def cocycles(k, q: int, p: int) -> np.ndarray:
    """Z: the reduced kernel basis of d^q."""
    return kernel(coboundary(k, q, p), p)


def representatives(k, q: int, p: int) -> np.ndarray:
    """R: the columns of Z that are pivot columns of [d^(q-1) | Z], the greedy basis adapted to B; read-only."""
    return _representatives(simplices(k), q, p)


@functools.cache
def _representatives(k: frozenset, q: int, p: int) -> np.ndarray:
    b, z = coboundary(k, q - 1, p), cocycles(k, q, p)
    _, pivots = rref(np.hstack([b, z]), p)
    r = z[:, [c - b.shape[1] for c in pivots if c >= b.shape[1]]]
    r.flags.writeable = False
    return r


def dimension(k, q: int, p: int) -> int:
    return representatives(k, q, p).shape[1]


def class_coordinates(k, q: int, p: int, values) -> np.ndarray:
    """The R-part of the solution of [B | R] x = v, one column per column of values; ValueError off the cocycles."""
    values = np.asarray(values, dtype=np.int64)
    if (coboundary(k, q, p) @ values % p).any():
        raise ValueError("not a cocycle")
    b = coboundary(k, q - 1, p)
    x = solve(np.hstack([b, representatives(k, q, p)]), values, p)
    return x[b.shape[1]:]


def induced(m, src: list, tgt: list, p: int) -> np.ndarray:
    """A chain map between direct sums of (complex, degree) blocks, descended to the representatives' classes."""
    image = np.asarray(m, dtype=np.int64) @ diagonal([representatives(k, q, p) for k, q in src], p) % p
    at = list(itertools.accumulate((len(cells(k, q)) for k, q in tgt), initial=0))
    coords = [class_coordinates(k, q, p, image[at[i]:at[i + 1]]) for i, (k, q) in enumerate(tgt)]
    return np.vstack([np.zeros((0, image.shape[1]), dtype=np.int64)] + coords)


def connecting(diagram, q: int, p: int) -> np.ndarray:
    """H^q(N_12) -> H^(q+1)(union): extend each class by zero into the first piece, apply d, read the class."""
    first, second = (diagram.nerves[i] for i in diagram.piece_ids)
    n12 = simplices(first) & simplices(second)
    lifted = (restriction(diagram.nerve, first, q + 1, p).T @ coboundary(first, q, p)
              @ restriction(first, n12, q, p).T @ representatives(n12, q, p)) % p
    return class_coordinates(diagram.nerve, q + 1, p, lifted)


def descended_rank(diagram, p_level: int, q: int, p: int) -> int:
    """The rank of delta_tilde from level p to p+1, descended to cohomology."""
    src, tgt = ([(n, q) for n in level(diagram, j).values()] for j in (p_level, p_level + 1))
    return rank(induced(delta_tilde(diagram, p_level, q, p), src, tgt, p), p)


def fibred_basis(diagram, q: int, p: int) -> np.ndarray:
    """The tuples of piece cochains that agree on every overlap: the reduced kernel basis of delta_tilde at
    level 1, or every tuple for one piece."""
    if len(diagram.piece_ids) == 1:
        return np.eye(len(cells(diagram.nerve, q)), dtype=np.int64)
    return kernel(delta_tilde(diagram, 1, q, p), p)


# -- rank-k section systems


def glue_system(diagram, size: int, transitions: dict, identifications: dict, p: int) -> np.ndarray:
    """The rank-k sections of every piece that agree on the overlaps, as one system.

    transitions[i][(a, b)] is piece i's k x k transition on its edge
    (a, b), identifications[(i, j)][v] the identification at a vertex v of
    N_ij, for i before j; a value not given is the identity.
    """
    return _section_system({i: diagram.nerves[i] for i in diagram.piece_ids}, size, transitions, identifications, p)


def parallel_system(k, size: int, transitions: dict, p: int) -> np.ndarray:
    """The rank-k parallel sections of one complex: s_a = g[a, b] s_b on each edge (a, b)."""
    return _section_system({0: k}, size, {0: transitions}, {}, p)


def _section_system(nerves: dict, size: int, transitions: dict, identifications: dict, p: int) -> np.ndarray:
    """The unknowns are s_(i, v) for each piece i and each vertex v of it, in order.  Each edge (a, b) of
    piece i asks s_(i, a) = g_i[a, b] s_(i, b), then each vertex v of N_ij asks s_(j, v) = h_ij(v) s_(i, v)."""
    eye = np.eye(size, dtype=np.int64)
    unknowns = {(i, v): size for i, n in nerves.items() for (v,) in cells(n, 0)}
    conditions = [((i, a), (i, b), transitions.get(i, {}).get((a, b), eye))
                  for i, n in nerves.items() for a, b in cells(n, 1)]
    conditions += [((j, v), (i, v), identifications.get((i, j), {}).get(v, eye))
                   for (i, j), n in _meets(nerves, 2).items() for (v,) in cells(n, 0)]
    return block(dict.fromkeys(range(len(conditions)), size), unknowns,
                 ((r, key, m) for r, (x, y, g) in enumerate(conditions) for key, m in ((x, eye), (y, -np.asarray(g)))),
                 p)
