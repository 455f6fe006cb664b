"""Gluing bundle data over the line with two origins.

Per-piece transition cocycles plus identification data over the overlap
glue into a single cocycle on the union nerve.  Flipping the
identification over one overlap component (the value 1 encodes the sign
-1 additively over F_2) produces the nontrivial class: the combinatorial
shadow of a bundle with no nonvanishing parallel section.
"""

from cechkit import (
    TwistedSection,
    canonicalize,
    cocycle_class,
    colimit_bundle,
    glue_section_space,
    glue_sections,
    parallel_sections,
    restrict_bundle,
)
from cechkit.bundles import IncompatibleSections
from cechkit.documents import materialise_bundle, parse_document
from cechkit.gallery import gallery_document

parsed = parse_document(gallery_document("two_origin_line"))
diagram = canonicalize(parsed.system)

# The document's bundle block: trivial piece cocycles, identification
# +1 at l and -1 at r.
data = materialise_bundle(diagram, parsed.bundle)
result = colimit_bundle(diagram, data)
print("glued cocycle status:", result.status)
print("glued edge values:", {e: int(v) for e, v in result.cocycle.values.items()})
print("H^1 class:", cocycle_class(result.cocycle))

sections = parallel_sections(result.cocycle)
print("parallel sections of the glued bundle:", sections.dimension)
print("dimension of the compatible per-piece sections:", glue_section_space(data))

# Constant sections on both pieces agree in magnitude everywhere, but the
# sign flip at r makes them incompatible as a glued section.
ones = {pid: TwistedSection(data.cocycles[pid],
                            {v: 1 for v in diagram.nerves[pid].vertices})
        for pid in diagram.piece_ids}
try:
    glue_sections(data, ones)
except IncompatibleSections as err:
    print("gluing the all-ones sections fails at vertex:", err.vertex)

# Round trip: restrict the glued cocycle to the pieces and reglue.
back = colimit_bundle(diagram, restrict_bundle(result.cocycle, diagram))
print("round trip class:", cocycle_class(back.cocycle))
