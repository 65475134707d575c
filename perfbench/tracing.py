"""Spans and counts at the package's layer boundaries, installed from outside.

``Tracer.install`` replaces each public function named in ``BOUNDARIES`` in
the module namespace its caller looks it up in (``treeorbits.engine`` for
the rule engine's calls, ``treeorbits.oracle`` for the certificate's), so
the program is traced without being edited.  A name that the installed
version no longer defines is reported as missing.

Spans are kept in flat arrays (name, parent span, start, end, one integer
value) until the run ends; ``pass_totals`` then sums one pass's spans per
layer and ``layer_metrics`` turns the passes into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

# (module whose namespace the caller uses, attribute, span name, value recorded per call)
BOUNDARIES = (
    ("treeorbits", "decide", "engine.decide", None),
    ("treeorbits", "certify_density", "oracle.certify_density", None),
    ("treeorbits", "enumerate_orbits", "orbits.enumerate_orbits", "points"),
    ("treeorbits.engine", "trivially_sparse", "classify.trivially_sparse", None),
    ("treeorbits.engine", "orbit_class", "classify.orbit_class", None),
    ("treeorbits.engine", "reduce_span", "products.rewrite", None),
    ("treeorbits.engine", "reduce_half", "products.rewrite", None),
    ("treeorbits.engine", "tree_to_product", "products.rewrite", None),
    ("treeorbits.engine", "as_flag_product", "products.rewrite", None),
    ("treeorbits.engine", "dualize", "products.rewrite", None),
    ("treeorbits.engine", "product_to_tree", "products.product_to_tree", None),
    ("treeorbits.engine", "forget_vertex", "trees.forget_vertex", "surjective"),
    ("treeorbits.oracle", "random_config", "oracle.random_config", None),
    ("treeorbits.oracle", "stabilizer_dim", "oracle.stabilizer_dim", None),
    ("treeorbits.oracle", "rank_mod", "modp.rank_mod", "cells"),
    ("treeorbits.oracle", "matmul_mod", "modp.matmul_mod", None),
    ("treeorbits.oracle", "left_annihilator", "modp.left_annihilator", None),
)


def _points(args, result):
    return result.point_count


def _surjective(args, result):
    return int(result[1])


def _cells(args, result):
    shape = getattr(args[0], "shape", (0, 0))
    return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


_VALUES = {"points": _points, "surjective": _surjective, "cells": _cells}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack = [-1]
        self.pass_starts: list[int] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, span, value in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, span, _VALUES.get(value)))

    def _wrap(self, fn, span: str, value_of):
        nid = self.name_id.setdefault(span, len(self.name_id))
        if nid == len(self.names):
            self.names.append(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if value_of is not None:
                self.value[idx] = value_of(args, result)
            return result

        return traced

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.start))

    def pass_range(self, i: int) -> range:
        stop = self.pass_starts[i + 1] if i + 1 < len(self.pass_starts) else len(self.start)
        return range(self.pass_starts[i], stop)

    def pass_totals(self, i: int) -> dict[str, float]:
        """Per-layer times (ms) and counts of one pass over the operation list."""
        names, parent, start, end, value = self.names, self.parent, self.start, self.end, self.value
        span_name = self.span_name
        rng = self.pass_range(i)
        child_ms: dict[int, float] = {}
        for j in rng:
            if parent[j] >= 0:
                child_ms[parent[j]] = child_ms.get(parent[j], 0.0) + (end[j] - start[j]) * 1e3
        out: dict[str, float] = {}

        def add(key, x):
            out[key] = out.get(key, 0) + x

        for j in rng:
            name = names[span_name[j]]
            ms = (end[j] - start[j]) * 1e3
            self_ms = ms - child_ms.get(j, 0.0)
            up = names[span_name[parent[j]]] if parent[j] >= 0 else None
            add(f"{name}:calls", 1)
            add(f"{name}:ms", ms)
            add(f"{name}:self_ms", self_ms)
            add(f"{name}:value", value[j])
            if name in ("modp.rank_mod", "modp.matmul_mod") and up is not None:
                add(f"{name}@{up}:calls", 1)
                add(f"{name}@{up}:ms", ms)
                add(f"{name}@{up}:value", value[j])
        return out

    def spans(self, i: int) -> list[list]:
        """One pass's spans as [id, name, parent id, start s, end s, value]."""
        return [[j, self.names[self.span_name[j]], self.parent[j], self.start[j], self.end[j],
                 self.value[j]] for j in self.pass_range(i)]


def layer_metrics(passes: list[dict[str, float]], speed_factor: float
                  ) -> tuple[dict[str, float], bool]:
    """Per-layer metrics: counts of the first pass, times as the median over passes.

    Times are scaled to nominal host speed by ``speed_factor`` (see
    hostspeed.py).  Returns the metrics and whether every pass produced
    the same counts.
    """
    def ms(key):
        return statistics.median(p.get(key, 0.0) for p in passes) * speed_factor

    first = passes[0]

    def count(key):
        return int(first.get(key, 0))

    enum_ms = ms("orbits.enumerate_orbits:ms")
    metrics = {
        "engine.decide_ms": ms("engine.decide:ms"),
        "engine.self_ms": ms("engine.decide:self_ms"),
        "classify.trivially_sparse_calls": count("classify.trivially_sparse:calls"),
        "classify.trivially_sparse_ms": ms("classify.trivially_sparse:ms"),
        "classify.orbit_class_calls": count("classify.orbit_class:calls"),
        "classify.orbit_class_ms": ms("classify.orbit_class:ms"),
        "products.rewrite_calls": count("products.rewrite:calls"),
        "products.rewrite_ms": ms("products.rewrite:ms"),
        "products.product_to_tree_calls": count("products.product_to_tree:calls"),
        "products.product_to_tree_ms": ms("products.product_to_tree:ms"),
        "trees.forget_vertex_calls": count("trees.forget_vertex:calls"),
        "trees.forget_vertex_ms": ms("trees.forget_vertex:ms"),
        "engine.r9_subdecides": count("trees.forget_vertex:value"),
        "oracle.certify_ms": ms("oracle.certify_density:ms"),
        "oracle.random_config_calls": count("oracle.random_config:calls"),
        "oracle.draw_ms": ms("oracle.random_config:self_ms"),
        "modp.draw_rank_calls": count("modp.rank_mod@oracle.random_config:calls"),
        "modp.draw_rank_ms": ms("modp.rank_mod@oracle.random_config:ms"),
        "modp.lift_matmul_ms": ms("modp.matmul_mod@oracle.random_config:ms"),
        "oracle.build_ms": ms("oracle.stabilizer_dim:self_ms"),
        "modp.annihilator_ms": ms("modp.left_annihilator:ms"),
        "modp.system_rank_ms": ms("modp.rank_mod@oracle.stabilizer_dim:ms"),
        "modp.system_cells": count("modp.rank_mod@oracle.stabilizer_dim:value"),
        "orbits.enumerate_ms": enum_ms,
        "orbits.points_per_s": (count("orbits.enumerate_orbits:value") / (enum_ms / 1e3)
                                if enum_ms else 0.0),
    }
    keys = [k for k in first if k.endswith(":calls") or k.endswith(":value")]
    repeat = all(p.get(k) == first.get(k) for p in passes for k in keys)
    return metrics, repeat
