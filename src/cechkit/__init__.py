"""Cech cohomology and Mayer-Vietoris machinery for glued nerve diagrams."""

from .bundles import (
    ColimitResult,
    ConstantCocycle,
    PieceBundleData,
    SectionBasis,
    TwistedSection,
    cocycle_class,
    cocycles_equivalent,
    colimit_bundle,
    enumerate_line_bundles,
    glue_section_space,
    glue_sections,
    parallel_sections,
    restrict_bundle,
    validate_cocycle,
    validate_piece_data,
)
from .cochains import (
    ChainMapLevel,
    Cochain,
    CochainSpace,
    CohomologyBasis,
    cech_differential,
    class_coordinates,
    cohomology,
    extend_by_zero,
    induced_on_cohomology,
    pullback_map,
    restrict_cochain,
    restriction_map,
)
from .complexes import (
    EMPTY_COMPLEX,
    MalformedSimplex,
    SimplicialComplex,
    build_complex,
    components,
    full_subcomplex,
    intersect,
    union_complexes,
)
from .diagrams import (
    AdjunctionSystem,
    GluedDiagram,
    GluingBijection,
    InvalidSystem,
    LocalPiece,
    canonicalize,
    collapse,
    glued_from_nerves,
    induced_map,
    shared_label_system,
    subsystem_embedding,
    validate_system,
)
from .fplinalg import F2, FMatrix, PrimeField, quotient_dim
from .mv import (
    BinaryMVReport,
    CountReport,
    ExactnessVerdict,
    FibredProduct,
    H1FibredVerdict,
    assemble_les,
    connecting_homomorphism,
    count_line_bundles,
    delta_tilde,
    descended_delta_tilde,
    fibred_product,
    h1_fibred_check,
    inductive_fibred_dim,
    phi_star,
    total_cohomology,
    tuple_cohomology,
    tuple_space,
    verify_exact_sequence,
)
from .refinements import (
    RefinementMap,
    contiguous,
    enumerate_valid_label_maps,
    induced_cohomology_map,
    naturality_check,
    refine_pullback,
    validate_refinement,
)

__version__ = "0.1.0"
