"""Spans around hspec's public functions, recorded from outside the program.

Each public function of a layer module (and TruncationSpec.__init__ and
.shells) is wrapped in every hspec namespace that binds it, so a call made
through `from .operator import assemble_matrix` in another module is seen
too.  Private helpers are not wrapped: their time is their caller's self
time.  A span is [layer, name, start, end, parent, op, work]; parent is the
index of the enclosing span (-1 at the root) and work a size read from the
arguments (points evaluated, grid points, table values).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "multiindex", "hermite", "symbol", "operator", "schatten", "criteria")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


WORK = {
    "symbol.eval_symbol":
        lambda a, k: np.size(_arg(a, k, 1, "x")) // _arg(a, k, 0, "spec").dim,
    "operator.tensor_grid":
        lambda a, k: _arg(a, k, 1, "q") ** _arg(a, k, 0, "dim"),
    "hermite.hermite_table":
        lambda a, k: (_arg(a, k, 0, "max_degree") + 1) * np.size(_arg(a, k, 1, "x")),
}


def _public_functions():
    """(layer, name, function) for every public function of the layers."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"hspec.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out.append((layer, name, obj))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = self._plan()

    def _wrap(self, layer: str, name: str, fn):
        work = WORK.get(f"{layer}.{name}")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def _plan(self) -> list[tuple]:
        """(namespace, attribute, original, wrapper) for every binding."""
        import hspec
        from hspec.multiindex import TruncationSpec

        namespaces = [hspec] + [importlib.import_module(f"hspec.{layer}") for layer in LAYERS]
        patches = []
        for layer, name, fn in _public_functions():
            wrapper = self._wrap(layer, name, fn)
            for ns in namespaces:
                patches += [(ns, attr, fn, wrapper)
                            for attr, val in vars(ns).items() if val is fn]
        for meth in ("__init__", "shells"):
            fn = vars(TruncationSpec)[meth]
            patches.append((TruncationSpec, meth, fn,
                            self._wrap("multiindex", f"TruncationSpec.{meth}", fn)))
        return patches

    @contextmanager
    def installed(self, op: int):
        """Trace calls made inside the block, attributed to op."""
        self.op = op
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        try:
            yield
        finally:
            for ns, attr, fn, _ in self._patches:
                setattr(ns, attr, fn)


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[3] - s[2]) - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list, ops: list) -> dict:
    """Per-op means of the per-layer metrics over the traced ops."""
    calls, work, selfs = defaultdict(int), defaultdict(int), defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        key = f"{span[0]}.{span[1]}"
        calls[key] += 1
        work[key] += span[6]
        selfs[key] += own
        layer_self[span[0]] += own
    n = len(ops)
    ideal_points = sum(op.size * (2 * op.quad_order) ** op.dim for op in ops)
    checks = sum(c for k, c in calls.items() if k.startswith("criteria.check_"))
    m = {f"{layer}.self_s": t / n for layer, t in layer_self.items()}
    m.update({
        "operator.assemblies": calls["operator.assemble_matrix"] / n,
        "operator.grid_points": work["operator.tensor_grid"] / n,
        "symbol.eval_calls": calls["symbol.eval_symbol"] / n,
        "symbol.point_evals": work["symbol.eval_symbol"] / n,
        "symbol.eval_ratio": work["symbol.eval_symbol"] / ideal_points,
        "schatten.svd_s": selfs["schatten.singular_values"] / n,
        "schatten.eig_s": selfs["schatten.spectral_trace"] / n,
        "schatten.colint_s": selfs["schatten.column_integrals"] / n,
        "schatten.colint_calls": calls["schatten.column_integrals"] / n,
        "multiindex.calls": sum(c for k, c in calls.items() if k.startswith("multiindex.")) / n,
        "criteria.checks": checks / n,
        "hermite.rule_calls": calls["hermite.gauss_hermite_rule"] / n,
        "hermite.table_values": work["hermite.hermite_table"] / n,
    })
    return m
