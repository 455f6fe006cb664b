"""Interchange documents: parsing, validation and canonical serialisation.

The document format is UTF-8 JSON with exactly these fields:

    {
      "field": int,                       # prime modulus
      "pieces": [{"id": str, "simplices": [[str, ...], ...]}, ...],
      "gluings": [{"i": str, "j": str, "pairs": [[str, str], ...]}, ...],
      "bundle": { ... },                  # optional
      "refinement": { ... }               # optional
    }

Maximal simplices suffice; the downward closure is computed on load.
Each gluing entry also installs its inverse, so documents carry one
entry per unordered pair; a second is refused.  The optional bundle block is
{"rank": int, "pieces": [{"id", "edges": [[a, b, value], ...]}],
"identifications": [{"i", "j", "vertices": [[label, value], ...]}]}
with labels referring to canonical global names; rank-1 values are field
scalars (additive), higher ranks use nested k x k matrices.  The optional
refinement block is {"fine": {"pieces": ..., "gluings": ...},
"map": [[fine_label, coarse_label], ...]} and inherits the field.

Reports and gallery documents are written by `canonical_json`, which
builds the standard library encoder's canonical text (indent 2, sorted
keys, non-ASCII unescaped) directly, at the cost of its bytes.
`tests/test_documents_cli.py::test_canonical_json_matches_the_standard_encoder`
holds it to that encoder byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable

from .bundles import MAX_RANK, ConstantCocycle, PieceBundleData, _normalise_value
from .complexes import MalformedSimplex, Simplex, check_closure_bound, closure, make_simplices
from .diagrams import (
    AdjunctionSystem,
    GluedDiagram,
    GluingBijection,
    InvalidSystem,
    LocalPiece,
    canonicalize,
)
from .errors import InputError
from .fplinalg import ModulusTooLarge, NotPrime, PrimeField
from .refinements import RefinementMap


class ParseError(InputError):
    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class NonPrimeModulus(ParseError):
    def __init__(self, value: Any):
        super().__init__(f"field modulus {value!r} is not prime", "$.field")


# The second argument of isinstance, for map.
_STR, _LIST = itertools.repeat(str), itertools.repeat(list)


def _labels(value: Any, message: str, path: str, n: int | None = None) -> list[str]:
    """value itself if it is a JSON list of JSON strings (of length n), else ParseError(message, path).

    Labels are never coerced: 5 is not "5", and a string is not a list
    of its characters.
    """
    if (not isinstance(value, list) or (n is not None and len(value) != n)
            or not all(map(isinstance, value, _STR))):
        raise ParseError(message, path)
    return value


def _label_pairs(value: Any, message: str, path: str) -> list[tuple[str, str]]:
    """A JSON list of [label, label] entries, as tuples; anything else is ParseError(message, path)."""
    if (not isinstance(value, list) or not all(map(isinstance, value, _LIST))
            or not all(map((2).__eq__, map(len, value)))
            or not all(map(isinstance, itertools.chain.from_iterable(value), _STR))):
        raise ParseError(message, path)
    return list(map(tuple, value))


def _put_once(table: dict, key: Any, value: Any, what: str, path: str) -> None:
    """table[key] = value, refusing a key given before, with an equal value or not."""
    if key in table:
        raise ParseError(f"{what} {key!r} is given twice", path)
    table[key] = value


@dataclass(frozen=True)
class ParsedDocument:
    system: AdjunctionSystem
    bundle: dict | None
    refinement: dict | None


_TOP_KEYS = {"field", "pieces", "gluings", "bundle", "refinement"}


def parse_document(doc: Any, field_override: int | None = None, root: str = "$") -> ParsedDocument:
    """The document's system and optional blocks; errors name their place under the path root."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", root)
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ParseError(f"unknown keys {unknown}", root)
    for key in ("field", "pieces", "gluings"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}", root)
    raw_field = field_override if field_override is not None else doc["field"]
    if not isinstance(raw_field, int) or isinstance(raw_field, bool):
        raise ParseError("field modulus must be an integer", f"{root}.field")
    try:
        field = PrimeField(raw_field)
    except NotPrime:
        raise NonPrimeModulus(raw_field) from None
    except ModulusTooLarge as exc:
        raise ParseError(str(exc), f"{root}.field") from None

    system = _parse_system(doc, field, root)
    bundle = doc.get("bundle")
    refinement = doc.get("refinement")
    if bundle is not None and not isinstance(bundle, dict):
        raise ParseError("bundle block must be an object", f"{root}.bundle")
    if refinement is not None and not isinstance(refinement, dict):
        raise ParseError("refinement block must be an object", f"{root}.refinement")
    return ParsedDocument(system, bundle, refinement)


def _parse_system(doc: dict, field: PrimeField, root: str) -> AdjunctionSystem:
    """The system, each piece's generators and each gluing's pairs checked once.

    Every piece is checked before any closure is made, so the closure
    bound of the whole document is refused before its first face.
    """
    if not isinstance(doc["pieces"], list) or not doc["pieces"]:
        raise ParseError("pieces must be a nonempty list", f"{root}.pieces")
    generators: dict[str, list[Simplex]] = {}
    for k, entry in enumerate(doc["pieces"]):
        path = f"{root}.pieces[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"id", "simplices"}:
            raise ParseError("piece must have exactly the keys id, simplices", path)
        pid = entry["id"]
        if not isinstance(pid, str) or not pid:
            raise ParseError("piece id must be a nonempty string", path)
        # Reports key an index set by its ids joined with ",", so an id holding
        # one could name two index sets with one key.
        if "," in pid:
            raise ParseError(f"piece id {pid!r} contains ','", path)
        if pid in generators:
            raise ParseError(f"duplicate piece id {pid!r}", path)
        simplices = entry["simplices"]
        if not isinstance(simplices, list):
            raise ParseError("simplices must be a list", path)
        if (not all(map(isinstance, simplices, _LIST))
                or not all(map(isinstance, itertools.chain.from_iterable(simplices), _STR))):
            for m, s in enumerate(simplices):
                _labels(s, "simplex must be a list of string labels", f"{path}.simplices[{m}]")
        try:
            generators[pid] = make_simplices(simplices)
        except MalformedSimplex as exc:
            raise ParseError(f"bad simplex: {exc}", path) from None
    check_closure_bound(itertools.chain.from_iterable(generators.values()))
    pieces = tuple(LocalPiece(pid, closure(simplices)) for pid, simplices in generators.items())

    if not isinstance(doc["gluings"], list):
        raise ParseError("gluings must be a list", f"{root}.gluings")
    gluings: list[GluingBijection] = []
    glued: dict[tuple[str, str], int] = {}
    for k, entry in enumerate(doc["gluings"]):
        path = f"{root}.gluings[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "pairs"}:
            raise ParseError("gluing must have exactly the keys i, j, pairs", path)
        i, j = entry["i"], entry["j"]
        if i == j:
            raise ParseError("gluing must relate two distinct pieces", path)
        # A piece id is a string, so an end that is not one names no piece.
        if not (isinstance(i, str) and isinstance(j, str) and i in generators and j in generators):
            raise ParseError(f"gluing references unknown pieces {i!r}, {j!r}", path)
        # Each entry installs both directions, so i, j and j, i are one pair.
        _put_once(glued, (i, j) if i < j else (j, i), k, "gluing of the pair", path)
        pairs = sorted(_label_pairs(entry["pairs"], "pairs must be a list of [label, label] entries", path))
        gluings.append(GluingBijection(i, j, tuple(pairs)))
        gluings.append(GluingBijection(j, i, tuple(sorted(map(tuple, map(reversed, pairs))))))
    return AdjunctionSystem(pieces, tuple(gluings), field)


def decode_document(data: bytes) -> Any:
    """The JSON value of a document's bytes, which must be UTF-8."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    # An integer literal past the interpreter's digit limit, or lists nested past its recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def canonical_json(payload: Any) -> str:
    """payload as canonical JSON text: 2-space indent, sorted keys, non-ASCII unescaped, one final newline.

    The text is the standard library encoder's with indent=2,
    sort_keys=True and ensure_ascii=False, plus a newline, written
    directly: with an indent, that encoder yields one token at a time in
    Python.  Strings go through its C escaper.  Every key must be a str;
    a key or a value of any other type raises TypeError.
    """
    return _text(payload, "\n", {}) + "\n"


def _float_text(x: float) -> str:
    # The standard encoder's spelling: repr, and the JavaScript names of the values that are not finite.
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring, int: int.__repr__, float: _float_text,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}

# Item types of the lists written as rows: equal lists of these have equal texts (an int never
# equals a str, while True == 1 and 0.0 == -0.0).
_ROW_ITEMS = {int, str}


def _text(value: Any, newline: str, rows: dict) -> str:
    """value's text, for a line that starts with newline (a line break and the indent).

    A container's text is one join of its parts, so a child's text is
    copied once, into its parent's.  The parts list repeats one sibling's
    pattern (separator, key, ": ", value, or separator, value), and the
    keys and values are put in by slice, each a C-level pass.
    """
    text = _SCALARS.get(type(value))
    if text is not None:
        return text(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value)
        parts = ["," + inner, "", ": ", ""] * len(keys)
        # The escaper refuses a key that is not a str with TypeError.
        parts[1::4] = map(encode_basestring, keys)
        parts[3::4] = _texts(list(map(value.__getitem__, keys)), inner, rows)
        parts[0], closing = "{" + inner, newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = ["," + inner, ""] * len(value)
        parts[1::2] = _texts(value, inner, rows)
        parts[0], closing = "[" + inner, newline + "]"
    else:
        # A subclass of a scalar type is written as its base; bool and None have none.
        for base in (str, int, float):
            if isinstance(value, base):
                return _SCALARS[base](value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    parts.append(closing)
    return "".join(parts)


def _texts(values: list | tuple, newline: str, rows: dict) -> Iterable[str]:
    """The text of each of values, siblings in one container; each starts a line with newline.

    Siblings of one scalar type are written by one map.  Lists whose
    items are all ints or all strs, such as index set rows and edges, are
    rows: each distinct one is written once per indent within a
    `canonical_json` call and memoised in rows (index set rows repeat),
    then looked up by one map.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        text = _SCALARS.get(kind)
        if text is not None:
            return map(text, values)
        if kind in (list, tuple):
            items = set(map(type, itertools.chain.from_iterable(values)))
            if len(items) <= 1 and items <= _ROW_ITEMS:
                memo = rows.setdefault(newline, {})
                values = list(map(tuple, values))
                new = set(values).difference(memo)
                memo.update(zip(new, map(_row, new, itertools.repeat(newline))))
                return map(memo.__getitem__, values)
    return [_text(v, newline, rows) for v in values]


def _row(row: tuple, newline: str) -> str:
    """The text of a list whose items are all ints or all strs."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(_SCALARS[type(row[0])], row)) + newline + "]" if row else "[]"


# What a malformed value raises on its way to an int or a k x k FMatrix.
_BAD_VALUE = (TypeError, ValueError)


def _entries(raw: dict, key: str, path: str) -> list:
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list", path)
    return value


def materialise_bundle(diagram: GluedDiagram, raw: dict) -> PieceBundleData:
    """Build piece bundle data from the optional document block.

    Labels in the block refer to canonical global names; unspecified
    edges and identification vertices default to the identity.
    """
    if set(raw) - {"rank", "pieces", "identifications"}:
        raise ParseError(f"unknown bundle keys {sorted(set(raw) - {'rank', 'pieces', 'identifications'})}",
                         "$.bundle")
    rank = raw.get("rank", 1)
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ParseError("bundle rank must be a positive integer", "$.bundle.rank")
    if rank > MAX_RANK:
        raise ParseError(f"bundle rank {rank} exceeds {MAX_RANK}", "$.bundle.rank")
    cocycles: dict[str, ConstantCocycle] = {}
    given = {}
    for entry in _entries(raw, "pieces", "$.bundle.pieces"):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ParseError("bundle piece entries need a string id", "$.bundle.pieces")
        if set(entry) - {"id", "edges"}:
            raise ParseError(f"unknown bundle piece keys {sorted(set(entry) - {'id', 'edges'})}", "$.bundle.pieces")
        _put_once(given, entry["id"], entry, "bundle piece", "$.bundle.pieces")
    unknown = sorted(set(given) - set(diagram.piece_ids))
    if unknown:
        raise ParseError(f"bundle names unknown pieces {unknown}", "$.bundle.pieces")
    for pid in diagram.piece_ids:
        nerve = diagram.nerves[pid]
        values: dict[tuple[str, str], Any] = {}
        path = f"$.bundle.pieces[{pid}]"
        for item in _entries(given.get(pid, {}), "edges", path):
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError("edge entries are [a, b, value]", path)
            key = tuple(sorted(_labels(item[:2], "edge entries are [a, b, value]", path)))
            if key not in nerve.simplices:
                raise ParseError(f"{key} is not an edge of piece {pid!r}", path)
            _put_once(values, key, item[2], "edge", path)
        try:
            cocycles[pid] = ConstantCocycle.build(nerve, rank, diagram.field, values)
        except _BAD_VALUE as exc:
            raise ParseError(str(exc), path) from None

    identifications: dict[tuple[str, str], dict[str, Any]] = {}
    for k, entry in enumerate(_entries(raw, "identifications", "$.bundle.identifications")):
        path = f"$.bundle.identifications[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "vertices"}:
            raise ParseError("identification must have exactly the keys i, j, vertices", path)
        i, j = entry["i"], entry["j"]
        if i not in diagram.piece_ids or j not in diagram.piece_ids or i == j:
            raise ParseError(f"bad piece pair {i!r}, {j!r}", path)
        key = (i, j) if i < j else (j, i)
        table: dict[str, Any] = {}
        overlap = set(diagram.intersection_nerve(key).vertices)
        for item in _entries(entry, "vertices", path):
            if not isinstance(item, list) or len(item) != 2:
                raise ParseError("vertex entries are [label, value]", path)
            label, = _labels(item[:1], "vertex entries are [label, value]", path)
            if label not in overlap:
                raise ParseError(f"label {label!r} is not in the overlap of {key}", path)
            try:
                value = _normalise_value(item[1], rank, diagram.field)
            except _BAD_VALUE as exc:
                raise ParseError(f"value at {label!r}: {exc}", path) from None
            _put_once(table, label, value, "identification vertex", path)
        if (i, j) != key:
            raise ParseError("identifications must be given for i < j", path)
        _put_once(identifications, key, table, "identification of the pair", path)
    return PieceBundleData(diagram, rank, cocycles, identifications)


def materialise_refinement(coarse: GluedDiagram, raw: dict | None, field: PrimeField) -> RefinementMap:
    """Build the refinement map from the optional document block, which must be there."""
    if raw is None:
        raise ParseError("document has no refinement block", "$.refinement")
    if set(raw) != {"fine", "map"}:
        raise ParseError("refinement block must have exactly the keys fine, map", "$.refinement")
    if not isinstance(raw["fine"], dict):
        raise ParseError("fine must be an object", "$.refinement.fine")
    fine_doc = dict(raw["fine"])
    if set(fine_doc) - {"pieces", "gluings"}:
        raise ParseError("fine document may only carry pieces and gluings", "$.refinement.fine")
    fine_doc["field"] = field.p
    fine_system = parse_document(fine_doc, root="$.refinement.fine").system
    try:
        fine = canonicalize(fine_system)
    except InvalidSystem as exc:
        raise InvalidSystem(exc.report, "$.refinement.fine") from None
    labels: dict[str, str] = {}
    for v, image in _label_pairs(raw["map"], "map must be a list of [fine, coarse] label pairs",
                                 "$.refinement.map"):
        _put_once(labels, v, image, "fine label", "$.refinement.map")
    # Map keys are the fine diagram's canonical labels; a local label merged into another name is none.
    unknown = sorted(set(labels) - set(fine.nerve.vertices))
    if unknown:
        raise ParseError(f"map names labels the fine diagram does not have {unknown}", "$.refinement.map")
    return RefinementMap(fine, coarse, labels)
