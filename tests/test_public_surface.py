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


# The parameter names of each public function, so that adding or dropping a knob changes a pin.
SIGNATURES = {
    # bundles
    "class_table": ("bundles",),
    "cocycle_class": ("cocycle",),
    "cocycles_equivalent": ("g", "h"),
    "colimit_bundle": ("diagram", "data"),
    "enumerate_line_bundles": ("diagram",),
    "glue_section_space": ("data",),
    "glue_sections": ("data", "sections"),
    "parallel_sections": ("cocycle",),
    "restrict_bundle": ("cocycle", "diagram"),
    # cochains
    "class_coordinates": ("coh", "values"),
    "coboundary_matrix": ("k", "q", "field"),
    "cohomology": ("k", "q", "field"),
    "induced_on_cohomology": ("matrix", "src", "tgt"),
    "pullback_map": ("vertex_map", "domain", "codomain", "q", "field"),
    "restriction_matrix": ("k", "l", "q", "field"),
    # complexes
    "build_complex": ("generators",),
    "components": ("k",),
    # diagrams
    "canonicalize": ("system",),
    "collapse": ("diagram", "j"),
    "glued_from_nerves": ("piece_nerves", "field"),
    "induced_map": ("diagram", "target", "psi"),
    "shared_label_system": ("piece_nerves", "field"),
    "subsystem_embedding": ("diagram", "j"),
    "validate_system": ("system",),
    # mv
    "assemble_les": ("diagram", "q_max"),
    "connecting_homomorphism": ("diagram", "degree"),
    "count_line_bundles": ("diagram",),
    "delta_tilde": ("diagram", "level", "degree"),
    "fibred_product": ("diagram", "degree"),
    "h1_fibred_check": ("diagram",),
    "inductive_fibred_dim": ("diagram", "degree"),
    "phi_star": ("diagram", "degree"),
    "total_cohomology": ("diagram", "q_max"),
    "verify_exact_sequence": ("diagram", "degree"),
    # refinements
    "induced_cohomology_map": ("r", "degree"),
    "naturality_check": ("r", "q_max"),
    "validate_refinement": ("r",),
}


def test_the_parameters_of_each_public_function_are_pinned():
    functions = {name: getattr(cechkit, name) for name in cechkit.__all__}
    assert {name: tuple(inspect.signature(f).parameters)
            for name, f in functions.items() if inspect.isfunction(f)} == SIGNATURES
