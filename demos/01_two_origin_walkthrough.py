"""Walkthrough: the line with two origins, end to end.

Two copies of a line carry three-element good covers {l, o_i, r} and are
glued along everything away from the origin, i.e. on the shared labels l
and r.  The glued cover's nerve is a 4-cycle, the combinatorial model of
the non-Hausdorff line with two origins.
"""

import numpy as np

from cechkit import (
    canonicalize,
    cohomology,
    components,
    connecting_homomorphism,
    assemble_les,
    shared_label_system,
    verify_exact_sequence,
)
from cechkit.complexes import build_complex

# Each piece is a path nerve: l - o_i - r.
p1 = build_complex([["l", "o1"], ["o1", "r"]])
p2 = build_complex([["l", "o2"], ["o2", "r"]])
system = shared_label_system({"p1": p1, "p2": p2})

diagram = canonicalize(system)
print("global labels:", diagram.nerve.vertices)
print("union nerve edges:", diagram.nerve.simplices_of_dim(1))

# The intersection nerve is two isolated points: the overlap of the two
# lines has two components, one on each side of the removed origin.
n12 = diagram.intersection_nerve(("p1", "p2"))
print("intersection components:", components(n12))

for q in (0, 1):
    print(f"H^{q}(union) has dimension",
          cohomology(diagram.nerve, q, diagram.field).dimension)

# The cochain-level sequence 0 -> C(N) -> C(N1)+C(N2) -> C(N12) -> 0 is
# exact in every degree; the long exact sequence then explains where the
# 1-dimensional H^1 comes from.
for q in (0, 1):
    verdict = verify_exact_sequence(diagram, q)
    print(f"degree {q}: short sequence exact at every position:", verdict.exact)

les = assemble_les(diagram, 1)
print("H^q dims:", dict(union=les.union_dims, pieces=les.piece_dims,
                        intersection=les.intersection_dims))
print("difference-map ranks:", les.alpha_ranks)

# The connecting homomorphism lifts the H^0 class separating the two
# overlap components and lands on the generator of H^1 of the 4-cycle.
delta = connecting_homomorphism(diagram, 0)
print("connecting map matrix (rows: H^1(N), cols: H^0(N12)):")
print(np.array(delta.tolist()))
