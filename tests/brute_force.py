"""Exponential searches kept as test oracles, and the contiguity they are read with.

Both searches visit every candidate, so they serve only the small cases
tests build: every label map between two diagrams, and every vertex
gauge of rank-k transitions.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from cechkit.bundles import _compose, _invert, _mismatch
from cechkit.fplinalg import FMatrix, PrimeField
from cechkit.refinements import RefinementMap, validate_refinement


def valid_label_maps(fine, coarse):
    """Every label map from the fine to the coarse diagram that passes validation."""
    fine_labels, coarse_labels = fine.nerve.vertices, coarse.nerve.vertices
    for image in itertools.product(coarse_labels, repeat=len(fine_labels)):
        labels = dict(zip(fine_labels, image))
        if validate_refinement(RefinementMap(fine, coarse, labels)).valid:
            yield labels


def contiguous(r1, r2):
    """Whether two label maps between the same two diagrams realise the same refinement (piecewise).

    They do when, for every fine simplex of a piece, the union of its two
    images spans a simplex of the coarse piece.
    """
    if any(a is not b and a != b for a, b in ((r1.fine, r2.fine), (r1.coarse, r2.coarse))):
        return False
    return all(tuple(sorted({r1.labels[v] for v in s} | {r2.labels[v] for v in s})) in r1.coarse.nerves[pid]
               for pid in r1.fine.piece_ids for s in r1.fine.nerves[pid].simplices)


def gl_order(rank, p):
    """|GL_k(F_p)|: the product over i < k of p^k - p^i."""
    return math.prod(p ** rank - p ** i for i in range(rank))


@lru_cache(maxsize=None)
def all_invertible(rank, p):
    """Every invertible rank x rank matrix over F_p."""
    field = PrimeField(p)
    units = (FMatrix(np.array(entries, dtype=np.int64).reshape(rank, rank), field)
             for entries in itertools.product(range(p), repeat=rank * rank))
    return tuple(m for m in units if m.rank() == rank)


def gauge_equivalent(g, h):
    """Whether some vertex gauge k gives h[a,b] = k_a g[a,b] k_b^(-1) on every edge, for any rank."""
    rank, field, p = g.rank, g.field, g.field.p
    vertices, edges = g.base.vertices, g.base.simplices_of_dim(1)
    for gauge in itertools.product(all_invertible(rank, p), repeat=len(vertices)):
        k = dict(zip(vertices, gauge))
        if not any(_mismatch(_compose(_compose(k[a], g.values[(a, b)], rank, p), _invert(k[b], rank, field), rank, p),
                             h.values[(a, b)], rank, p) for a, b in edges):
            return True
    return False
