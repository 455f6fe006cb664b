"""The package's public surface: `cechkit.__all__`, pinned."""

import inspect

import cechkit

SURFACE = [
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
    "glued_from_nerves", "induced_map", "shared_label_system", "subsystem_embedding", "validate_system",
    # fplinalg
    "F2", "FMatrix", "PrimeField",
    # mv
    "assemble_les", "connecting_homomorphism", "count_line_bundles", "delta_tilde", "fibred_product",
    "h1_fibred_check", "inductive_fibred_dim", "phi_star", "total_cohomology", "verify_exact_sequence",
    # refinements
    "RefinementMap", "induced_cohomology_map", "naturality_check", "validate_refinement",
]


def test_all_is_pinned():
    assert cechkit.__all__ == SURFACE


def test_the_package_exports_exactly_all():
    exported = {name for name, value in vars(cechkit).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(cechkit.__all__)
