"""Per-layer spans and counts, recorded from outside the library.

A Tracer swaps the public functions of each layer for wrappers in every
module namespace that holds them (a name imported with `from x import f`
is a separate binding, so kostant.formulas and kostant.cli are patched as
well as the defining module).  Each wrapper keeps a span in memory: layer,
function, parent span, start and end.  A layer's self time is the length
of its spans minus the parts covered by their child spans.

The residue layer is not wrapped where its function is handed to the pool
(the pool pickles it by name).  Instead the arguments passed to map_counts
are captured and the distinct ones are replayed serially afterwards
through the public order-selection and residue-sum functions.

parallel.pool_ms is the time of the map_counts calls during which a pool
was forked: the time the caller waits on per-call pools.

A layer whose function no longer exists is reported under "absent"; its
metrics are left out rather than failing the pass.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

POLY_FUNCTIONS = ("multiplicity_polynomial", "tensor_polynomial")

# layer -> (defining module, function names, namespaces to patch)
TARGETS = {
    "cli": ("kostant.cli", ("run_record",), ("kostant.cli",)),
    "formulas": (
        "kostant.formulas",
        ("multiplicity", "tensor_product") + POLY_FUNCTIONS,
        ("kostant.formulas", "kostant.cli", "kostant"),
    ),
    "permsearch": (
        "kostant.permsearch",
        ("valid_permutations", "valid_couples"),
        ("kostant.permsearch", "kostant.formulas", "kostant"),
    ),
    "parallel": ("kostant.parallel", ("map_counts",), ("kostant.parallel", "kostant.formulas")),
    # Not kostant.residues itself, nor kostant.formulas: the pool pickles
    # kostant_partition by name and would find the wrapper, not the function.
    "residues": ("kostant.residues", ("kostant_partition",), ("kostant.cli", "kostant")),
}

METRICS = {
    "cli": ("records", "self_ms"),
    "formulas": ("calls", "self_ms", "ray_samples", "fit_self_ms"),
    "permsearch": ("calls", "ms", "results", "useful_share"),
    "parallel": ("calls", "items", "ms", "forks", "pool_ms"),
    "residues": (
        "args", "distinct_args", "repeat_share", "orders", "distinct_orders",
        "order_ms", "walk_ms", "cache_hits", "cache_misses",
    ),
}


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _int_args(a):
    return tuple(int(x) for x in a)


class Tracer:
    """Spans and counters of one pass; install() before it, uninstall() after."""

    def __init__(self):
        self.spans = []  # [layer, function, parent index, start, end, forked]
        self.stack = []
        self.patches = []
        self.present = set()
        self.partition_args = []
        self.terms = 0
        self.nonzero_terms = 0
        self.map_items = 0
        self.forks = 0
        self.active = False
        self.cache_before = None
        self.cache_after = None

    def _wrap(self, layer, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [layer, fn.__name__, self.stack[-1] if self.stack else None,
                    time.perf_counter(), None, self.forks]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[4] = time.perf_counter()
                span[5] = self.forks > span[5]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_search(self, args, result):
        self.terms += len(result)

    def _after_map(self, args, result):
        self.map_items += len(args[1])
        self.partition_args.extend(_int_args(a) for a in args[1])
        self.nonzero_terms += sum(1 for v in result if v)

    def _after_partition(self, args, result):
        self.partition_args.append(_int_args(args[0]))

    def install(self):
        hooks = {"permsearch": self._after_search, "parallel": self._after_map,
                 "residues": self._after_partition}
        for layer, (home, names, namespaces) in TARGETS.items():
            home_mod = _module(home)
            originals = [getattr(home_mod, n, None) for n in names]
            if home_mod is None or any(fn is None for fn in originals):
                continue
            self.present.add(layer)
            for fn in originals:
                wrapper = self._wrap(layer, fn, hooks.get(layer))
                for ns in filter(None, map(_module, namespaces)):
                    if getattr(ns, fn.__name__, None) is fn:
                        self.patches.append((ns, fn.__name__, fn))
                        setattr(ns, fn.__name__, wrapper)
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(before=self._count_fork)
        self.cache_before = self._cache_info()
        self.active = True

    def uninstall(self):
        self.active = False
        self.cache_after = self._cache_info()
        for ns, name, fn in reversed(self.patches):
            setattr(ns, name, fn)
        self.patches = []

    def _count_fork(self):
        if self.active:
            self.forks += 1

    @staticmethod
    def _cache_info():
        cached = getattr(_module("kostant.residues"), "_partition_of", None)
        info = getattr(cached, "cache_info", None)
        return info() if info is not None else None

    def report(self) -> dict:
        """Per-layer metrics of the pass, plus the names that are absent."""
        child_time = [0.0] * len(self.spans)
        for layer, name, parent, start, end, forked in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = {layer: 0 for layer in TARGETS}
        self_ms = {layer: 0.0 for layer in TARGETS}
        samples = 0
        fit_ms = pool_ms = 0.0
        for i, (layer, name, parent, start, end, forked) in enumerate(self.spans):
            own = (end - start - child_time[i]) * 1000.0
            calls[layer] += 1
            self_ms[layer] += own
            if layer == "parallel" and forked:
                pool_ms += own
            if name in POLY_FUNCTIONS:
                fit_ms += own
            elif layer == "formulas" and parent is not None and self.spans[parent][1] in POLY_FUNCTIONS:
                samples += 1

        m = {}
        if "cli" in self.present:
            m["cli.records"] = calls["cli"]
            m["cli.self_ms"] = self_ms["cli"]
        if "formulas" in self.present:
            m["formulas.calls"] = calls["formulas"]
            m["formulas.self_ms"] = self_ms["formulas"]
            m["formulas.ray_samples"] = samples
            m["formulas.fit_self_ms"] = fit_ms
        if "permsearch" in self.present:
            m["permsearch.calls"] = calls["permsearch"]
            m["permsearch.ms"] = self_ms["permsearch"]
            m["permsearch.results"] = self.terms
            if "parallel" in self.present and self.terms:
                m["permsearch.useful_share"] = self.nonzero_terms / self.terms
        if "parallel" in self.present:
            m["parallel.calls"] = calls["parallel"]
            m["parallel.items"] = self.map_items
            m["parallel.ms"] = self_ms["parallel"]
            m["parallel.forks"] = self.forks
            m["parallel.pool_ms"] = pool_ms
            # Without map_counts the terms of the sums cannot be captured.
            if self.partition_args:
                m.update(replay(self.partition_args))
        if self.cache_before is not None and self.cache_after is not None:
            m["residues.cache_hits"] = self.cache_after.hits - self.cache_before.hits
            m["residues.cache_misses"] = self.cache_after.misses - self.cache_before.misses
        names = [f"{layer}.{metric}" for layer, metrics in METRICS.items() for metric in metrics]
        return {"metrics": m, "absent": [n for n in names if n not in m]}


def replay(partition_args) -> dict:
    """Order and walk counts and times for captured partition arguments.

    Each distinct argument in the cone is replayed once, serially: order
    selection (regularity test, deformation, special orders) and then the
    alternating residue sum.  The residue sum selects its orders again, so
    that share, measured separately, is taken out of walk_ms.
    """
    try:
        from kostant import deform, in_positive_cone, is_regular, partition_total, special_permutations
    except ImportError:
        return {}
    distinct = list(dict.fromkeys(partition_args))
    order_count = {}
    seen_orders = set()
    order_s = walk_s = 0.0
    for a in distinct:
        if not in_positive_cone(a):
            order_count[a] = 0
            continue
        t0 = time.perf_counter()
        regularised = a if is_regular(a) else deform(a)
        t1 = time.perf_counter()
        orders = special_permutations(regularised)
        t2 = time.perf_counter()
        partition_total(a, regularised)
        t3 = time.perf_counter()
        order_s += t2 - t0
        walk_s += (t3 - t2) - (t2 - t1)
        order_count[a] = len(orders)
        seen_orders.update(tuple(getattr(w, "images", w)) for w in orders)
    return {
        "residues.args": len(partition_args),
        "residues.distinct_args": len(distinct),
        "residues.repeat_share": 1.0 - len(distinct) / len(partition_args),
        "residues.orders": sum(order_count[a] for a in partition_args),
        "residues.distinct_orders": len(seen_orders),
        "residues.order_ms": order_s * 1000.0,
        "residues.walk_ms": walk_s * 1000.0,
    }
