"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function and method of each cechkit
module, and every place another module imported one of them by name
(`cohomology` in mv, bundles, refinements and cli; `rref` through the
fplinalg module global that the FMatrix methods read).  No cechkit source
changes.  Each wrapper records calls, duration and self time (duration
minus the time of nested wrapped calls); a few carry a hook that counts
work the layer does.  Properties and cached properties are not wrapped.

`METRICS` is the per-layer metric list of BENCHMARK.json, with unit and
better direction; `Tracer.metrics` computes it for one round of jobs.
Shares: `intersection_nerve.empty_share` is the share of calls that
return an empty complex, `tuple_space.empty_share` the share of blocks
whose complex is empty, and `cohomology.distinct_share` the distinct
(complex, degree, field) keys within each job over all calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable

MODULES = ("cli", "documents", "diagrams", "complexes", "fplinalg", "cochains", "mv",
           "bundles", "refinements", "gallery")

COMMANDS = ("validate", "cohomology", "mv", "fibred", "bundles", "count", "collapse-check",
            "refine-check", "gallery")

METRICS: dict[str, tuple[str, str]] = {
    **{f"cli.{c}.s": ("s", "lower") for c in COMMANDS},
    "documents.self_s": ("s", "lower"),
    "documents.report_bytes": ("bytes", "lower"),
    "diagrams.self_s": ("s", "lower"),
    "diagrams.validate_system.self_s": ("s", "lower"),
    "diagrams.intersection_nerve.calls": ("count", "lower"),
    "diagrams.intersection_nerve.empty_share": ("ratio", "lower"),
    "complexes.self_s": ("s", "lower"),
    "complexes.intersect.calls": ("count", "lower"),
    "fplinalg.self_s": ("s", "lower"),
    "fplinalg.rref.calls": ("count", "lower"),
    "fplinalg.rref.self_s": ("s", "lower"),
    "fplinalg.rref.cells": ("count", "lower"),
    "fplinalg.rref.ops": ("count", "lower"),
    "cochains.self_s": ("s", "lower"),
    "cochains.cohomology.calls": ("count", "lower"),
    "cochains.cohomology.distinct_share": ("ratio", "higher"),
    "cochains.restriction_map.calls": ("count", "lower"),
    "mv.self_s": ("s", "lower"),
    "mv.tuple_space.blocks": ("count", "lower"),
    "mv.tuple_space.empty_share": ("ratio", "lower"),
    "mv.delta_tilde.self_s": ("s", "lower"),
    "bundles.self_s": ("s", "lower"),
    "bundles.classes": ("count", "higher"),
    "bundles.cocycle_class.calls": ("count", "lower"),
    "bundles.glue_section_space.self_s": ("s", "lower"),
    "refinements.self_s": ("s", "lower"),
    "refinements.naturality_check.s": ("s", "lower"),
    "gallery.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # "module.qualname" -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.cohomology_keys: set = set()
        self.distinct = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.cohomology_keys.clear()
        self.distinct = 0

    def end_job(self) -> None:
        """Close one CLI call: a cohomology key is distinct once per job."""
        self.distinct += len(self.cohomology_keys)
        self.cohomology_keys.clear()

    def _count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, key: str, fn: Callable, hook: Callable | None = None) -> Callable:
        entry = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hooks(self) -> dict[str, Callable[[tuple, Any], None]]:
        def rref(args, result):
            rows, cols = args[0].shape
            self._count("rref.cells", rows * cols)
            self._count("rref.ops", rows * cols * min(rows, cols))

        def cohomology(args, result):
            k, q, field = args[:3]
            self.cohomology_keys.add((k.simplices, q, field.p))

        def intersection_nerve(args, result):
            self._count("intersection_nerve.empty", not result.simplices)

        def tuple_space(args, result):
            self._count("tuple_space.blocks", len(result.blocks))
            self._count("tuple_space.empty", sum(not s.complex.simplices for _, s in result.blocks))

        def enumerate_line_bundles(args, result):
            self._count("classes", len(result))

        def canonical_json(args, result):
            self._count("report_bytes", len(result.encode("utf-8")))

        return {"fplinalg.rref": rref, "cochains.cohomology": cohomology,
                "diagrams.GluedDiagram.intersection_nerve": intersection_nerve,
                "mv.tuple_space": tuple_space,
                "bundles.enumerate_line_bundles": enumerate_line_bundles,
                "documents.canonical_json": canonical_json}

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped function and method back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        modules = {name: importlib.import_module(f"cechkit.{name}") for name in MODULES}
        replaced: dict[Callable, Callable] = {}
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{name}.{attr}"
                    replaced[obj] = self.wrap(key, obj, hooks.get(key))
                    self._set(mod, attr, replaced[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(f"{name}.{attr}", obj, hooks)
        package = importlib.import_module("cechkit")
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def _wrap_class(self, prefix: str, cls: type, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(key, obj, hooks.get(key)))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self.wrap(key, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(key, obj.__func__)))

    def _self(self, module: str) -> float:
        return sum(e[2] for k, e in self.stats.items() if k.split(".", 1)[0] == module)

    def _calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def metrics(self, command_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer values for the round traced since the last reset."""
        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        c = self.counts
        nerve_calls = self._calls("diagrams.GluedDiagram.intersection_nerve")
        coh_calls = self._calls("cochains.cohomology")
        blocks = c.get("tuple_space.blocks", 0)
        out = {f"cli.{cmd}.s": command_seconds.get(cmd, 0.0) for cmd in COMMANDS}
        out.update({
            "documents.self_s": self._self("documents"),
            "documents.report_bytes": c.get("report_bytes", 0),
            "diagrams.self_s": self._self("diagrams"),
            "diagrams.validate_system.self_s": self.stats["diagrams.validate_system"][2],
            "diagrams.intersection_nerve.calls": nerve_calls,
            "diagrams.intersection_nerve.empty_share": share(c.get("intersection_nerve.empty", 0),
                                                             nerve_calls),
            "complexes.self_s": self._self("complexes"),
            "complexes.intersect.calls": self._calls("complexes.intersect"),
            "fplinalg.self_s": self._self("fplinalg"),
            "fplinalg.rref.calls": self._calls("fplinalg.rref"),
            "fplinalg.rref.self_s": self.stats["fplinalg.rref"][2],
            "fplinalg.rref.cells": c.get("rref.cells", 0),
            "fplinalg.rref.ops": c.get("rref.ops", 0),
            "cochains.self_s": self._self("cochains"),
            "cochains.cohomology.calls": coh_calls,
            "cochains.cohomology.distinct_share": share(self.distinct, coh_calls),
            "cochains.restriction_map.calls": self._calls("cochains.restriction_map"),
            "mv.self_s": self._self("mv"),
            "mv.tuple_space.blocks": blocks,
            "mv.tuple_space.empty_share": share(c.get("tuple_space.empty", 0), blocks),
            "mv.delta_tilde.self_s": self.stats["mv.delta_tilde"][2],
            "bundles.self_s": self._self("bundles"),
            "bundles.classes": c.get("classes", 0),
            "bundles.cocycle_class.calls": self._calls("bundles.cocycle_class"),
            "bundles.glue_section_space.self_s": self.stats["bundles.glue_section_space"][2],
            "refinements.self_s": self._self("refinements"),
            "refinements.naturality_check.s": self.stats["refinements.naturality_check"][1],
            "gallery.self_s": self._self("gallery"),
        })
        return out
