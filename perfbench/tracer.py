"""Spans around the calls that cross h3cover's module boundaries.

The program is never edited: ``install`` replaces, in the module objects of
one freshly imported program, every public function a module imported from
another h3cover module (``cli.load_h3``, ``analysis.embed_covering``, ...)
and every public method of the package's classes with a wrapper that records
a span.  ``cli.main`` (the benchmark's own boundary) and
``patterns.embed_covering`` (called from inside ``patterns`` by
``uncovered_vertices``, and counted) are wrapped in their home module too.

``Hypergraph3.pair_mask`` runs millions of times per cover search, so it is
only counted, and its time stays with the caller, except for the first call
on each graph: that one fills the graph's pair masks and is spanned as
``core``.  Generator functions
(``Hypergraph3.edges``) are left unwrapped: their iteration time belongs to
the caller, which is ``core`` itself for every heavy decode.  Module bodies
run during a traced program start-up are spanned as ``<layer>.<module>``.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "constructions", "core", "patterns", "analysis")
HOME_WRAPPED = {("cli", "main"), ("patterns", "embed_covering")}
COUNTED = {("Hypergraph3", "pair_mask"): "core.pair_mask_calls"}


def _observe_embed(counts: Counter, result) -> None:
    counts["patterns.embed_calls"] += 1
    counts["patterns.embed_hits"] += result is not None


def _observe_search(counts: Counter, result) -> None:
    counts["analysis.graphs_scanned"] += result.graphs_scanned


OBSERVERS = {"embed_covering": _observe_embed, "c2_exact": _observe_search}


class Tracer:
    """Spans and counts kept in memory; active only around traced commands."""

    def __init__(self):
        # one span: [name, layer, start, end, parent index or -1, child seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    def spanned(self, layer: str, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                if span[4] >= 0:
                    spans[span[4]][5] += span[3] - span[2]
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def lookup_counted(self, key: str, name: str, fn):
        """Count every call of fn(graph, u, v); span only the first per graph,
        which is the one that fills the graph's lazy caches."""
        counts, first = self.counts, self.spanned("core", name, fn)
        seen: dict[int, object] = {}  # holds the graphs, so their ids stay unique

        @functools.wraps(fn)
        def counted(graph, u, v):
            if self.active:
                counts[key] += 1
                if id(graph) not in seen:
                    seen[id(graph)] = graph
                    return first(graph, u, v)
            return fn(graph, u, v)

        return counted

    def import_hook(self) -> importlib.abc.MetaPathFinder:
        """A finder that spans the module body of each h3cover layer it loads."""
        tracer = self

        class _ModuleSpans(importlib.abc.MetaPathFinder):
            def find_spec(self, fullname, path, target=None):
                package, _, layer = fullname.rpartition(".")
                if package != "h3cover" or layer not in LAYERS:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(fullname, path)
                if spec is not None:
                    spec.loader.exec_module = tracer.spanned(layer, f"{layer}.<module>", spec.loader.exec_module)
                return spec

        return _ModuleSpans()

    def layer_totals(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer self seconds and call counts over spans[first_span:]."""
        out = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("self_s", "calls")}
        for name, layer, start, end, _, child in self.spans[first_span:]:
            out[f"{layer}.self_s"] += end - start - child
            if not name.endswith(".<module>"):
                out[f"{layer}.calls"] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, layer, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def modules() -> dict[str, object]:
    return {layer: sys.modules[f"h3cover.{layer}"] for layer in LAYERS}


def install(tracer: Tracer) -> None:
    """Wrap the boundary calls of the h3cover modules currently imported."""
    mods = modules()
    layer_of = {m.__name__: layer for layer, m in mods.items()}
    wrappers: dict[int, object] = {}

    def wrapper(fn, layer: str, name: str):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.spanned(layer, f"{layer}.{name}", fn, OBSERVERS.get(name))
        return wrappers[id(fn)]

    for layer, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) not in layer_of:
                continue
            home = layer_of[value.__module__]
            if inspect.isclass(value):
                if home == layer:
                    _wrap_methods(tracer, value, layer)
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                if home != layer or (layer, attr) in HOME_WRAPPED:
                    setattr(mod, attr, wrapper(value, home, attr))


def _wrap_methods(tracer: Tracer, cls, layer: str) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.spanned(layer, name, value.__func__)))
        elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
            key = COUNTED.get((cls.__name__, attr))
            if key is not None:
                setattr(cls, attr, tracer.lookup_counted(key, name, value))
            else:
                setattr(cls, attr, tracer.spanned(layer, name, value))
