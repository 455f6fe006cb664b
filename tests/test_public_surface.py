"""The package's public surface: `cechkit.__all__`, pinned, and what no command or demo reaches."""

import ast
import contextlib
import inspect
import io
import runpy
import sys
from pathlib import Path

from conftest import rank2_bundle_document

import cechkit
from cechkit import cli
from cechkit.documents import canonical_json
from cechkit.gallery import GALLERY_NAMES

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
    "glued_from_nerves", "shared_label_system", "validate_system",
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
    "shared_label_system": ("piece_nerves", "field"),
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


SRC = Path(cechkit.__file__).parent
FILE_COMMANDS = ("validate", "cohomology", "mv", "fibred", "bundles", "count", "collapse-check", "refine-check")
OPTIONS = {"cohomology": ("--qmax", "1"), "fibred": ("--q", "1")}

REFUSED = "reached only by refused input"
ALL = "library API named by cechkit.__all__"
README = "library API named by the README"

# Each function and method of src/cechkit that the file commands on the gallery and the demos never
# call, with why it stays.  A construction that only tests reach belongs under tests/, not here.
UNREACHED = {
    "bundles.LineBundles.__getitem__": f"{ALL}: class c of what enumerate_line_bundles returns",
    "bundles._violations": f"{README}: the messages of validate_cocycle and validate_piece_data",
    "bundles.cocycles_equivalent": ALL,
    "bundles.validate_cocycle": README,
    "bundles.validate_piece_data": README,
    "cli.run_command": README,
    "cochains.pullback_map": ALL,
    "complexes.full_subcomplex": README,
    "complexes.make_simplex": f"{REFUSED}: it names the first malformed generator",
    "diagrams.InvalidSystem.__init__": REFUSED,
    "diagrams._a3_violations": REFUSED,
    "diagrams._repeats": REFUSED,
    "documents.NonPrimeModulus.__init__": REFUSED,
    "documents._float_text": f"{README}: canonical_json writes floats, which no report holds",
    "fplinalg.FMatrix.__init__": f"{ALL}: the constructor from rows of ints",
    "fplinalg.FMatrix.__repr__": f"{ALL}: a method of FMatrix",
    "fplinalg.FMatrix.__setattr__": f"{REFUSED}: an FMatrix refuses every attribute write",
    "gallery.UnknownGallery.__init__": REFUSED,
}


def defined_functions() -> dict[tuple[str, int], str]:
    """Each function and method of src/cechkit by (file, first line of its code object): module.qualified.name.

    A code object starts at the function's first decorator, if it has any.
    """
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[str(path), min([child.lineno] + [d.lineno for d in child.decorator_list])] = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{prefix}.{child.name}")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return out


def test_what_the_commands_and_demos_never_call_is_pinned(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli.build_parser.cache_clear()  # built once per process, maybe by an earlier test
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            documents = [canonical_json(rank2_bundle_document())]
            for p in (2, 3):
                for name in GALLERY_NAMES:
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        assert cli.main(["--field", str(p), "gallery", name]) == 0
                    documents.append(out.getvalue())
            for k, text in enumerate(documents):
                path = tmp_path / f"{k}.json"
                path.write_text(text, encoding="utf-8")
                for command in FILE_COMMANDS:
                    cli.main(["--report", str(tmp_path / "report.json"), command, str(path), *OPTIONS.get(command, ())])
            for demo in sorted((SRC.parents[1] / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(previous)
    never = {name for key, name in defined_functions().items() if key not in called}
    assert never == set(UNREACHED)
