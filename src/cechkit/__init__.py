"""Cech cohomology and Mayer-Vietoris machinery for glued nerve diagrams.

`__all__` names what the command line and the demos reach, and the
constructions of the paper: glued diagrams and their collapses, Cech
cohomology and its coboundary, restriction and pullback matrices, the
Mayer-Vietoris sequences and fibred products, line-bundle classification
and counting, and refinement naturality.  Everything else is reached
through its module.
"""

from .bundles import (
    ConstantCocycle,
    PieceBundleData,
    TwistedSection,
    class_table,
    cocycle_class,
    cocycles_equivalent,
    colimit_bundle,
    enumerate_line_bundles,
    glue_section_space,
    glue_sections,
    parallel_sections,
    restrict_bundle,
)
from .cochains import (
    class_coordinates,
    coboundary_matrix,
    cohomology,
    induced_on_cohomology,
    pullback_map,
    restriction_matrix,
)
from .complexes import SimplicialComplex, build_complex, components
from .diagrams import (
    AdjunctionSystem,
    GluedDiagram,
    GluingBijection,
    LocalPiece,
    canonicalize,
    collapse,
    glued_from_nerves,
    shared_label_system,
    validate_system,
)
from .fplinalg import F2, FMatrix, PrimeField
from .mv import (
    assemble_les,
    connecting_homomorphism,
    count_line_bundles,
    delta_tilde,
    fibred_product,
    h1_fibred_check,
    inductive_fibred_dim,
    phi_star,
    total_cohomology,
    verify_exact_sequence,
)
from .refinements import RefinementMap, induced_cohomology_map, naturality_check, validate_refinement

__all__ = [
    # bundles
    "ConstantCocycle", "PieceBundleData", "TwistedSection", "class_table", "cocycle_class",
    "cocycles_equivalent", "colimit_bundle", "enumerate_line_bundles", "glue_section_space",
    "glue_sections", "parallel_sections", "restrict_bundle",
    # cochains
    "class_coordinates", "coboundary_matrix", "cohomology", "induced_on_cohomology", "pullback_map",
    "restriction_matrix",
    # complexes
    "SimplicialComplex", "build_complex", "components",
    # diagrams
    "AdjunctionSystem", "GluedDiagram", "GluingBijection", "LocalPiece", "canonicalize", "collapse",
    "glued_from_nerves", "shared_label_system", "validate_system",
    # fplinalg
    "F2", "FMatrix", "PrimeField",
    # mv
    "assemble_les", "connecting_homomorphism", "count_line_bundles", "delta_tilde", "fibred_product",
    "h1_fibred_check", "inductive_fibred_dim", "phi_star", "total_cohomology", "verify_exact_sequence",
    # refinements
    "RefinementMap", "induced_cohomology_map", "naturality_check", "validate_refinement",
]

__version__ = "0.1.0"
