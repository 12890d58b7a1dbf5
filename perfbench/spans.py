"""Spans around the package's functions, installed from outside the package.

:class:`Tracer` replaces every public function and public method of the
measured modules with a timing wrapper, in every module global that binds
it: ``quantum`` and ``nogo`` import ``opnorm`` with ``from .opcore import``,
so patching ``opcore.opnorm`` alone would miss most calls.  Spans (name,
parent, start, end) stay in memory until :meth:`Tracer.dump`; self times are
computed afterwards from the span tree by :func:`aggregate`.
"""

from __future__ import annotations

import functools
import importlib
from array import array
import time
import types

PACKAGE = "nogo_lab"
LAYERS = ("opcore", "quantum", "nogo", "feasibility", "simplex", "hvmodel", "fileio", "cli")


def _enumerate_hook(args, result):
    return {"assignments": len(result), "space": 2 ** len(args[0].labels)}


def _simplex_hook(args, result):
    rows = args[0]
    attrs = {"rows": len(rows), "cols": len(rows[0]) if rows else 0, "feasible": bool(result.feasible)}
    if result.feasible:
        attrs["nonzero"] = sum(1 for v in result.x if v)
    return attrs


# Counts recorded at the boundary where the work happens.
HOOKS = {
    "feasibility.enumerate_assignments": _enumerate_hook,
    "simplex.solve_equality_feasibility": _simplex_hook,
    "fileio.report_bytes": lambda args, result: {"bytes": len(result)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # One span per index across four arrays.  Arrays hold no Python
        # objects, so a long trace gives the garbage collector nothing to
        # scan while the program under test allocates.
        self.name_of, self.parent_of = array("i"), array("i")
        self.start_of, self.end_of = array("d"), array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        name_of, parent_of, start_of, end_of = self.name_of, self.parent_of, self.start_of, self.end_of
        stack, attrs, clock = self._stack, self.attrs, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_of)
            name_of.append(idx)
            parent_of.append(stack[-1] if stack else -1)
            end_of.append(0.0)
            stack.append(i)
            start_of.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[i] = clock()
                stack.pop()
            if hook is not None:
                attrs[i] = hook(args, result)
            return result

        return wrapper

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        modules = {f"{PACKAGE}.{m}": importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ in modules:
                    if id(obj) not in wrapped:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrapped[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_methods(obj, mod.__name__.rsplit(".", 1)[1])

    def _install_methods(self, cls: type, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def dump(self) -> dict:
        """Spans as parallel columns (name index, parent index, start, end), plus counts."""
        return {
            "names": self.names,
            "name_of": self.name_of.tolist(),
            "parent_of": self.parent_of.tolist(),
            "start_of": self.start_of.tolist(),
            "end_of": self.end_of.tolist(),
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }


def aggregate(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    names, parents = trace["names"], trace["parent_of"]
    durations = [end - start for start, end in zip(trace["start_of"], trace["end_of"])]
    child = [0.0] * len(durations)
    for parent, d in zip(parents, durations):
        if parent >= 0:
            child[parent] += d
    stats: dict[str, dict[str, float]] = {}
    for idx, d, c in zip(trace["name_of"], durations, child):
        s = stats.setdefault(names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += d
        s["self_s"] += d - c
    return stats
