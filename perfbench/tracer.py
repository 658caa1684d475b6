"""Outside-in span tracer for the fpforge modules.

``Tracer.install()`` replaces every public module-level function of each
fpforge module, plus ``SimplicialComplex.facets``, with a timing wrapper in
every namespace that binds it: the defining module, the ``fpforge``
re-exports and each ``from ... import`` binding in the other modules, so
calls between modules are seen.  Nothing under ``src/`` changes.

A span is ``[name, layer, parent, start, end, counters]``.  Spans nest
through ``parent`` (an index into ``spans``, -1 for none); a span's self time
is its duration minus the durations of its children.  The layer is the
defining module's name, except that the ``load_*``/``dump_*``/JSON functions
of every module and the CLI's write helpers count as the ``cli`` layer.

Counters come from arguments and return values, never from inside the
program.  A few tiny, very hot helpers stay unwrapped (see ``HOT``) so the
tracing overhead stays small; their time counts to their caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from time import perf_counter

MODULES = ("complex_core", "spherical_double", "covers", "homology", "groups", "spectrum", "sigma", "cli")
CLI_HELPERS = {"_atomic_write", "_load_json", "_load_spreads"}
HOT = {
    # Called per letter, per permutation step or per vertex: wrapping them
    # would measure the wrapper.
    "free_reduce", "perm_identity", "perm_inverse", "perm_compose",
    "plus_vertex", "minus_vertex", "base_vertex",
}


def _layer(module: str, name: str) -> str:
    if name in CLI_HELPERS or name.startswith(("load_", "dump_")) or "json" in name:
        return "cli"
    return module


# Counter hooks, (args, kwargs, result) -> counters, per wrapped function.
def _file_size(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _total_simplices(args, kwargs, result):
    return {"total_simplices": len(result.total.simplices)}


def _spectrum_report(args, kwargs, result):
    unknown = sum(1 for st in result.statuses.values() if st.status == "unknown")
    return {"budget_used": result.budget_used, "unknown_statuses": unknown}


COUNTERS = {
    "homology.chain_complex": lambda a, k, r: {"boundary_nnz": sum(len(b) for b in r.boundaries)},
    "homology.smith_normal_form": lambda a, k, r: {"dense_snf_cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
    "homology.reduced_homology": lambda a, k, r: {"ring": a[1].tag},
    "groups.enumerate_table": lambda a, k, r: {"coset_rows": r[1], "exhausted": r[0] is None},
    "spectrum.enumerate_cycles": lambda a, k, r: {"cycles": sum(len(v) for v in r.values())},
    "spectrum.taut_spectrum": _spectrum_report,
    "covers.build_cover": _total_simplices,
    "covers.double_of_cover": _total_simplices,
    "cli._atomic_write": lambda a, k, r: {"bytes_written": len(a[1].encode("utf-8"))},
    **{name: _file_size for name in (
        "cli._load_json", "complex_core.load_complex", "covers.load_voltage", "homology.load_summary",
        "spectrum.load_graph", "sigma.load_sigma_spec", "sigma.load_registry", "groups.presentation_from_json",
    )},
}


class Tracer:
    """Records nested spans of fpforge calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str, counter):
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = tracer.current
            record = [name, layer, parent, 0.0, 0.0, None]
            spans.append(record)
            tracer.current = idx
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                tracer.current = parent
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        import fpforge

        modules = {m: importlib.import_module(f"fpforge.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for module_name, module in modules.items():
            for attr, fn in vars(module).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                if attr in HOT or (attr.startswith("_") and not (module_name == "cli" and attr in CLI_HELPERS)):
                    continue
                key = f"{module_name}.{attr}"
                wrappers[id(fn)] = self._wrap(fn, key, _layer(module_name, attr), COUNTERS.get(key))
        for ns in (fpforge, *modules.values()):
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        cls = modules["complex_core"].SimplicialComplex
        self._restore.append((cls, "facets", cls.facets))
        cls.facets = self._wrap(cls.facets, "complex_core.SimplicialComplex.facets", "complex_core", None)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def open(self, name: str, layer: str) -> list:
        """Open a span that the caller closes with ``close``; used for job roots."""
        record = [name, layer, self.current, 0.0, 0.0, None]
        self.spans.append(record)
        self.current = len(self.spans) - 1
        record[3] = perf_counter()
        return record

    def close(self, record: list) -> None:
        record[4] = perf_counter()
        self.current = record[2]


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own
