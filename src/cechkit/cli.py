"""Batch command line front end.

Commands: validate, cohomology, mv, fibred, bundles, count,
collapse-check, refine-check, gallery.  Global flags: --field P renders
the run over another prime (overriding the document), --report PATH
writes the structured report as canonical JSON.  Exit codes: 0 when every
verdict in the report holds, 1 on a verdict failure, 2 on input errors.
An input error is an `errors.InputError` (or an OSError reading the
document or writing the report, or, as a last resort, a MemoryError)
and prints one `input error: <message>` on stderr; anything else that
escapes is a bug.  Structured reports are deterministic; wall time only
appears in the human-readable output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import os
import sys
import time
from operator import itemgetter
from pathlib import Path
from typing import Any

from .bundles import (
    class_table,
    cocycle_class,
    colimit_bundle,
    enumerate_line_bundles,
    glue_section_space,
    parallel_sections,
)
from .cochains import cohomology
from .complexes import components
from .diagrams import AdjunctionSystem, GluedDiagram, canonicalize, collapse, validate_system
from .documents import (
    ParsedDocument,
    canonical_json,
    decode_document,
    materialise_bundle,
    materialise_refinement,
    parse_document,
)
from .errors import InputError, ResourceLimit, one_line
from .fplinalg import PrimeField
from .gallery import GALLERY_NAMES, gallery_document
from .mv import (
    assemble_les,
    count_line_bundles,
    fibred_product,
    h1_fibred_check,
    inductive_fibred_dim,
    phi_star,
    total_cohomology,
    verify_exact_sequence,
)
from .refinements import induced_cohomology_map, naturality_check


# `cohomology --qmax` refuses degrees above this: each row lists qmax + 1
# dimensions, and no document's nerve comes near this dimension.
QMAX_CAP = 64


class UnknownCommand(ValueError):
    pass


def _key(t: tuple[str, ...]) -> str:
    return ",".join(t)


def _println(line: str = "") -> None:
    """One line of human output; a line break in the text it quotes, as in a piece id, is written escaped."""
    sys.stdout.write(one_line(line) + "\n")


def _table(rows: list[tuple]) -> None:
    """Print rows of equal length as columns, each cell left-aligned to its column's width.

    Each cell is turned into text once.  Rows whose tails (the cells after
    the first) read alike share one tail, padded once: index set rows
    mostly end alike.  Only the distinct tails are kept, so a wide table
    holds no second copy of its cells.  The first cells, which name
    pieces and index sets, are written with line breaks escaped, so each
    row stays one line; the other cells are numbers and flags.
    """
    if not rows:
        return
    heads = list(map(one_line, map(str, map(itemgetter(0), rows))))
    columns = [map(str, map(itemgetter(c), rows)) for c in range(1, len(rows[0]))]
    tails: dict[tuple[str, ...], tuple[str, ...]] = {}
    row_tails = [tails.setdefault(tail, tail)
                 for tail in (zip(*columns) if columns else itertools.repeat((), len(rows)))]
    first = max(map(len, heads))
    widths = [max(map(len, column)) for column in zip(*tails)]
    padded = {tail: "".join("  " + v.ljust(w) for v, w in zip(tail, widths)) for tail in tails}
    sys.stdout.writelines(map("  {}{}\n".format, map(str.ljust, heads, itertools.repeat(first)),
                              map(padded.__getitem__, row_tails)))


def _degree(text: str) -> int:
    """argparse type of a cohomology degree: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {value}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="cechkit", description=__doc__)
    parser.add_argument("--field", type=int, default=None,
                        help="prime modulus overriding the document (default: document value)")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the structured JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, extra in (
        ("validate", ()),
        ("cohomology", ("qmax",)),
        ("mv", ()),
        ("fibred", ("q",)),
        ("bundles", ()),
        ("count", ()),
        ("collapse-check", ()),
        ("refine-check", ()),
    ):
        p = sub.add_parser(name)
        p.add_argument("path", type=Path)
        if "qmax" in extra:
            p.add_argument("--qmax", type=_degree, default=None)
        if "q" in extra:
            p.add_argument("--q", type=_degree, default=None)

    g = sub.add_parser("gallery")
    g.add_argument("name", type=str)
    g.add_argument("--n", type=int, default=None,
                   help="piece count (branching_line_n: default 2; random_admissible: default from the seed)")
    g.add_argument("--seed", type=int, default=0)
    return parser


def _load(args) -> tuple[ParsedDocument, str]:
    """The parsed document and the digest of the bytes it was parsed from, read once."""
    data = Path(args.path).read_bytes()
    return parse_document(decode_document(data), args.field), hashlib.sha256(data).hexdigest()


def _cmd_validate(args, parsed: ParsedDocument, system: AdjunctionSystem, report: dict) -> None:
    verdict = validate_system(system)
    report["verdicts"]["valid"] = verdict.valid
    report["violations"] = [
        {"condition": v.condition, "message": v.message, "witness": list(v.witness)}
        for v in verdict.violations]
    _println(f"system valid: {verdict.valid}")
    for v in verdict.violations:
        _println(f"  [{v.condition}] {v.message}  witness={list(v.witness)}")


def _cmd_cohomology(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    q_max = args.qmax if args.qmax is not None else max(diagram.nerve.dim, 0)
    union = [cohomology(diagram.nerve, q, diagram.field).dimension for q in range(q_max + 1)]
    report["global_labels"] = list(diagram.nerve.vertices)
    report["union_dims"] = union
    report["piece_dims"] = {
        pid: [cohomology(diagram.nerves[pid], q, diagram.field).dimension for q in range(q_max + 1)]
        for pid in diagram.piece_ids}
    rows = []
    for size in range(2, diagram.n_pieces + 1):
        level = diagram.level(size)
        for t in diagram.index_subsets(size):
            nerve = level.get(t)
            # An empty intersection has no cohomology in any degree.
            rows.append((_key(t), [cohomology(nerve, q, diagram.field).dimension for q in range(q_max + 1)]
                         if nerve is not None else [0] * (q_max + 1)))
    rows.sort()
    report["intersection_dims"] = dict(rows)
    report["verdicts"]["h0_matches_components"] = union[0] == len(components(diagram.nerve))
    _println(f"global labels: {', '.join(diagram.nerve.vertices)}")
    _table([("space", *[f"H^{q}" for q in range(q_max + 1)]),
            ("union", *union)]
           + [(pid, *report["piece_dims"][pid]) for pid in diagram.piece_ids]
           + [(k, *v) for k, v in rows])


def _cmd_mv(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    q_top = max(diagram.nerve.dim, 0)
    ses = [verify_exact_sequence(diagram, q) for q in range(q_top + 1)]
    report["short_exact"] = [
        {"q": v.degree, "exact": v.exact,
         "positions": [{"position": r.position, "dim": r.dim, "incoming_rank": r.incoming_rank,
                        "outgoing_nullity": r.outgoing_nullity, "exact": r.exact}
                       for r in v.records]} for v in ses]
    report["verdicts"]["cochain_sequences_exact"] = all(v.exact for v in ses)

    total = total_cohomology(diagram, q_top)
    report["bicomplex"] = {"total_dims": list(total.total_dims),
                           "union_dims": list(total.union_dims),
                           "d_square_zero": total.d_square_zero}
    report["verdicts"]["bicomplex_matches_union"] = total.matches

    h1 = h1_fibred_check(diagram)
    report["h1_fibred"] = {
        "hypothesis_holds": h1.hypothesis_holds,
        "disconnected": [_key(t) for t in h1.disconnected],
        "h1_union": h1.h1_union, "fibred_dim": h1.fibred_dim, "equal": h1.equal}
    report["verdicts"]["h1_theorem_instance"] = h1.theorem_instance_ok

    if diagram.n_pieces == 2:
        les = assemble_les(diagram, q_top)
        report["les"] = {
            "union_dims": list(les.union_dims),
            "piece_dims": {k: list(v) for k, v in les.piece_dims.items()},
            "intersection_dims": list(les.intersection_dims),
            "alpha_ranks": list(les.alpha_ranks),
            "delta_star_ranks": list(les.delta_star_ranks),
            "positions": [{"q": p.degree, "position": p.position, "exact": p.exact}
                          for p in les.positions],
            "identity_ok": list(les.identity_ok)}
        report["verdicts"]["les_exact"] = les.all_ok

    _println(f"cochain sequences exact for q <= {q_top}: "
             f"{report['verdicts']['cochain_sequences_exact']}")
    _println(f"bicomplex total dims {total.total_dims} vs union {total.union_dims}: "
             f"match={total.matches}")
    _println(f"H^1 fibred: union={h1.h1_union} fibred={h1.fibred_dim} "
             f"hypothesis={h1.hypothesis_holds} equal={h1.equal}")
    if diagram.n_pieces == 2:
        _println(f"binary LES exact: {report['verdicts']['les_exact']}")


def _cmd_fibred(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    degrees = [args.q] if args.q is not None else list(range(min(2, max(diagram.nerve.dim, 0)) + 1))
    report["degrees"] = []
    for q in degrees:
        fp = fibred_product(diagram, q)
        union_dim = len(diagram.nerve.simplices_of_dim(q))
        rank_phi = phi_star(diagram, q).rank()
        two_step, basis = inductive_fibred_dim(diagram, q)
        # the inductive basis spans the product exactly when it lies in it and has its dimension
        same_span = two_step == fp.dimension and fp.contains(basis)
        report["degrees"].append({
            "q": q, "cochain_dim_union": union_dim, "fibred_dim": fp.dimension,
            "rank_phi_star": rank_phi, "inductive_dim": two_step,
            "matches_union": fp.dimension == union_dim,
            "matches_phi": fp.dimension == rank_phi,
            "inductive_matches": same_span})
        _println(f"q={q}: dim C^q(union)={union_dim} fibred={fp.dimension} "
                 f"rank(phi*)={rank_phi} inductive={two_step}")
    report["verdicts"]["fibred_equals_union_cochains"] = all(
        e["matches_union"] and e["matches_phi"] and e["inductive_matches"] for e in report["degrees"])


def _cmd_bundles(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    reps = enumerate_line_bundles(diagram)
    h1_dim = reps.h1.dimension
    table = class_table(reps)
    edges = diagram.nerve.simplices_of_dim(1)
    # Class c's edge values (bit c of reps.bits) are R times the bits of c, and
    # [B | R] has independent columns, so class c's coordinates are exactly those bits.
    classes = [{
        "class": [c >> i & 1 for i in range(h1_dim)],
        "nonzero_edges": [list(e) for e, bits in zip(edges, reps.bits) if bits >> c & 1],
        "parallel_dim": parallel,
        "round_trip_class_preserved": preserved,
        "glue_space_dim": glue,
        "glue_matches_parallel": glue == parallel}
        for c, (parallel, preserved, glue) in enumerate(zip(
            table.parallel_dims, table.round_trips_preserved, table.glue_space_dims))]
    report["classes"] = classes
    report["verdicts"]["count_is_two_to_h1"] = len(reps) == 2 ** h1_dim
    report["verdicts"]["round_trips_preserve_class"] = all(table.round_trips_preserved)
    report["verdicts"]["glued_sections_match"] = table.glue_space_dims == table.parallel_dims

    if parsed.bundle is not None:
        data = materialise_bundle(diagram, parsed.bundle)
        result = colimit_bundle(diagram, data)
        block: dict[str, Any] = {"status": result.status}
        if result.ok:
            if data.rank == 1:
                block["class"] = cocycle_class(result.cocycle)
            block["parallel_dim"] = parallel_sections(result.cocycle).dimension
            block["glue_space_dim"] = glue_section_space(data)
        else:
            block["witness"] = [str(w) for w in result.witness]
        report["verdicts"]["bundle_block_glues"] = result.ok
        report["bundle_block"] = block

    _println(f"line bundle classes: {len(reps)} (2^{h1_dim})")
    _table([("class", "parallel_dim", "round_trip", "glue_dim")]
           + [(str(c["class"]), c["parallel_dim"], c["round_trip_class_preserved"],
               c["glue_space_dim"]) for c in classes])
    if "bundle_block" in report:
        _println(f"document bundle block: {report['bundle_block']}")


def _cmd_count(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    result = count_line_bundles(diagram)
    keys = {t: _key(t) for t in result.h1_dims}
    report["h1_dims"] = {keys[t]: d for t, d in result.h1_dims.items()}
    report["hypotheses"] = {
        "all_intersections_connected": result.connected_hypothesis,
        "disconnected": [keys[t] for t in result.disconnected],
        "descended_maps_surjective": result.surjective_hypothesis,
        "non_surjective_levels": list(result.non_surjective_levels)}
    report["exponent"] = result.exponent
    report["dimension_form_count"] = result.dimension_form_count
    report["literal_form_count"] = result.literal_form_count
    report["ground_truth"] = result.ground_truth
    report["flags"] = {"dimension_form_matches": result.dimension_form_matches,
                       "literal_form_matches": result.literal_form_matches}
    hypotheses = result.connected_hypothesis and result.surjective_hypothesis
    report["verdicts"]["count_theorem_instance"] = (not hypotheses) or result.dimension_form_matches
    _println(f"hypotheses hold: {hypotheses}")
    _println(f"dimension form: {result.dimension_form_count}  "
             f"literal form: {result.literal_form_count}  ground truth: {result.ground_truth}")
    if not result.dimension_form_matches:
        _println("flag: dimension form disagrees with ground truth")
    if not result.literal_form_matches:
        _println("flag: literal order-sum form disagrees with ground truth")


def _cmd_collapse_check(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    q_top = max(diagram.nerve.dim, 0)
    field = diagram.field
    baseline = [cohomology(diagram.nerve, q, field).dimension for q in range(q_top + 1)]
    report["baseline_dims"] = baseline
    steps = []
    current = diagram
    while current.n_pieces > 2:
        j = current.piece_ids[:2]
        merged = collapse(current, j)
        steps.append({"collapsed": list(j), "pieces_left": merged.n_pieces,
                      "nerve_preserved": merged.nerve.simplices == current.nerve.simplices,
                      "dims": [cohomology(merged.nerve, q, field).dimension for q in range(q_top + 1)]})
        current = merged
    report["steps"] = steps
    nerves_ok = report["verdicts"]["union_nerve_preserved"] = all(s["nerve_preserved"] for s in steps)
    dims_ok = report["verdicts"]["cohomology_invariant"] = all(s["dims"] == baseline for s in steps)
    if current.n_pieces == 2:
        report["final_les_exact"] = report["verdicts"]["final_les_exact"] = assemble_les(current, q_top).all_ok
    _println(f"collapse steps: {len(steps)}; nerve preserved: {nerves_ok}; "
             f"dims invariant: {dims_ok}")


def _cmd_refine_check(args, parsed: ParsedDocument, diagram: GluedDiagram, report: dict) -> None:
    refinement = materialise_refinement(diagram, parsed.refinement, diagram.field)
    verdict = refinement.verdict
    report["verdicts"]["refinement_valid"] = verdict.valid
    report["violations"] = list(verdict.violations)
    if verdict.valid:
        q_max = min(2, max(refinement.coarse.nerve.dim, refinement.fine.nerve.dim, 0))
        nat = naturality_check(refinement, q_max)
        report["squares"] = [{"name": s.name, "commutes": s.commutes} for s in nat.squares]
        report["verdicts"]["naturality_squares_commute"] = nat.all_commute
        h_maps = {}
        for q in (0, 1):
            m = induced_cohomology_map(refinement, q)
            h_maps[f"H^{q}"] = {"rank": m.rank(), "coarse_dim": m.cols, "fine_dim": m.rows}
        report["induced_cohomology"] = h_maps
        _println(f"refinement valid; naturality squares commute: {nat.all_commute}")
        for k, v in h_maps.items():
            _println(f"  {k}: rank {v['rank']} (coarse {v['coarse_dim']}, fine {v['fine_dim']})")
    else:
        for v in verdict.violations:
            _println(f"  violation: {v}")


def _cmd_gallery(args) -> tuple[dict | None, int]:
    if args.name == "list":
        sys.stdout.write("\n".join(GALLERY_NAMES) + "\n")
        return None, 0
    field = PrimeField(args.field if args.field is not None else 2)
    doc = gallery_document(args.name, field=field.p, n=args.n, seed=args.seed)
    sys.stdout.write(canonical_json(doc))
    if args.name == "random_admissible":
        sys.stderr.write(f"seed: {args.seed}\n")
    return doc, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "mv": _cmd_mv,
    "fibred": _cmd_fibred,
    "bundles": _cmd_bundles,
    "count": _cmd_count,
    "collapse-check": _cmd_collapse_check,
    "refine-check": _cmd_refine_check,
}


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    """One file command: load, canonicalise, the report header, the handler, the exit code.

    Every command but validate runs on the canonical diagram.  The exit
    code is 0 exactly when every verdict the handler wrote holds.
    """
    qmax = getattr(args, "qmax", None)
    if qmax is not None and qmax > QMAX_CAP:
        raise ResourceLimit(f"cohomology degrees are capped at --qmax {QMAX_CAP}; got --qmax {qmax}")
    parsed, digest = _load(args)
    subject = parsed.system if args.command == "validate" else canonicalize(parsed.system)
    report = {"command": args.command, "input_digest": digest, "field": parsed.system.field.p, "verdicts": {}}
    _HANDLERS[args.command](args, parsed, subject, report)
    return report, 0 if all(report["verdicts"].values()) else 1


def run_command(command: str, options: dict[str, Any] | None = None) -> tuple[dict, int]:
    """Programmatic dispatch of one file command; returns (report, exit code).

    Options: path (required), plus field, qmax, q where the command takes
    them.  They are turned into arguments for the command line parser, so
    a value the command line refuses is refused alike: a negative degree
    raises SystemExit(2) after the usage message.  Input failures raise
    instead of returning exit code 2; the command line wrapper maps them.
    """
    if command not in _HANDLERS:
        raise UnknownCommand(command)
    options = dict(options or {})
    argv = [] if options.get("field") is None else ["--field", str(options["field"])]
    # Relative to ".", a path that starts with "-" is not read as an option.
    argv += [command, os.path.join(os.curdir, options["path"])]
    for name in ("qmax", "q"):
        if options.get(name) is not None:
            argv += [f"--{name}", str(options[name])]
    return _run(build_parser().parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "gallery":
            report, code = _cmd_gallery(args)
        else:
            report, code = _run(args)
            _println(f"elapsed: {time.perf_counter() - started:.3f}s")
        if args.report is not None and report is not None:
            args.report.write_text(canonical_json(report), encoding="utf-8")
    # OSError: the document cannot be read or the report cannot be written.
    except (InputError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    # The last resort for a document too large for this process's memory.
    except MemoryError as exc:
        sys.stderr.write(f"input error: out of memory{f': {exc}' if str(exc) else ''}\n")
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
