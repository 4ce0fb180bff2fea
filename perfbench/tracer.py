"""Outside-in tracing of ffzeta: wrap the public functions of each module
from the benchmark's side, keep spans in memory, and turn them into
per-layer counts and self times.

A span is (name id, start, end, parent span index); the root span of
each task is named ``task``, so all spans of one requested value share
that ancestor.  A function's self time is its span's duration minus the
durations of its direct child spans.  Layers are ffzeta's modules; a
metric is named ``<module>.<function>.<stat>`` and a module's total self
time is ``<module>.self_s``.

Nothing in ``src/ffzeta`` changes: callers inside the package reach
these functions through module attributes or class lookups at call time,
so replacing the attribute is enough.  Install only after importing and
before the first task.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

INF = float("inf")


def _len(a):
    return int(a.size)


def _ops_psd(args, result):
    d, wmax = args[0], args[3]
    return d * (wmax + 1) ** 2


def _ops_conv(args, result):
    return _len(args[0]) * _len(args[1])


def _ops_recip(args, result):
    m = int(args[1])
    return m * min(m, _len(args[0]))


def _ops_rref(args, result):
    rows, cols = args[0].shape
    return rows * cols * int(result[2])


def _ops_bipoly(args, result):
    ra, ca = args[0].shape
    rb, cb = args[1].shape
    return ra * ca * rb * cb


def _ops_laurent_mul(args, result):
    return _len(args[0].coeffs) * _len(args[1].coeffs)


def _ops_laurent_inv(args, result):
    # digits of the reciprocal window: out_prec + val + 1 of the input
    if result.prec == INF:
        return 0
    m = int(result.prec) + int(args[0].val) + 1
    return m * min(m, _len(args[0].coeffs))


def _ops_linalg_rref(args, result):
    a = args[1]
    if a.size == 0:
        return 0
    rows, cols = a.shape
    return rows * cols * int(result[2])


class _Stats:
    """Extra counters of one traced function, fed after each call."""

    def __init__(self, ops=None):
        self.ops_fn = ops
        self.ops = 0

    def names(self):
        return [("ops", "count", "lower")] if self.ops_fn else []

    def feed(self, args, result):
        if self.ops_fn:
            self.ops += self.ops_fn(args, result)

    def values(self, calls):
        return {"ops": self.ops} if self.ops_fn else {}


class _PowerSumStats(_Stats):
    def __init__(self):
        super().__init__(_ops_psd)
        self.keys = set()

    def names(self):
        return super().names() + [("distinct_ratio", "ratio", "higher")]

    def feed(self, args, result):
        super().feed(args, result)
        d, n, q = args[0], args[1], args[2]
        self.keys.add((int(q), int(d), int(n)))

    def values(self, calls):
        out = super().values(calls)
        out["distinct_ratio"] = len(self.keys) / calls if calls else 0.0
        return out


class _WindowStats(_Stats):
    def __init__(self):
        super().__init__(_ops_laurent_mul)
        self.windows = 0
        self.convolved = 0

    def names(self):
        return super().names() + [("mean_window", "digits", "lower")]

    def feed(self, args, result):
        super().feed(args, result)
        a, b = _len(args[0].coeffs), _len(args[1].coeffs)
        if a and b:
            self.windows += a + b - 1
            self.convolved += 1

    def values(self, calls):
        out = super().values(calls)
        out["mean_window"] = self.windows / self.convolved if self.convolved else 0.0
        return out


class _CacheStats(_Stats):
    def __init__(self, kind):
        super().__init__()
        self.kind = kind
        self.hits = self.misses = self.bytes = 0

    def names(self):
        extra = [("hits", "count", "higher"), ("misses", "count", "lower")]
        return (extra if self.kind == "get" else []) + [("bytes", "B", "lower")]

    def feed(self, args, result):
        store, kind, key = args[0], args[1], args[2]
        if self.kind == "get" and result is None:
            self.misses += 1
            return
        if self.kind == "get":
            self.hits += 1
        self.bytes += os.path.getsize(store._path(kind, key))

    def values(self, calls):
        out = {"bytes": self.bytes}
        if self.kind == "get":
            out.update(hits=self.hits, misses=self.misses)
        return out


class _PassStats(_Stats):
    def __init__(self):
        super().__init__()
        self.passed = 0

    def names(self):
        return [("pass_ratio", "ratio", "higher")]

    def feed(self, args, result):
        self.passed += bool(result)

    def values(self, calls):
        return {"pass_ratio": self.passed / calls if calls else 0.0}


# (module, function as named in metrics, owner class or None, attribute, stats factory)
TRACED = [
    ("backend", "power_sum_digits", None, "power_sum_digits", _PowerSumStats),
    ("backend", "convolve_mod", None, "convolve_mod", lambda: _Stats(_ops_conv)),
    ("backend", "series_recip_mod", None, "series_recip_mod", lambda: _Stats(_ops_recip)),
    ("backend", "rref_mod", None, "rref_mod", lambda: _Stats(_ops_rref)),
    ("backend", "bipoly_mul_mod", None, "bipoly_mul_mod", lambda: _Stats(_ops_bipoly)),
    ("scalar", "Poly.mul", "Poly", "__mul__", _Stats),
    ("scalar", "Poly.divmod", "Poly", "__divmod__", _Stats),
    ("scalar", "Poly.gcd", "Poly", "gcd", _Stats),
    ("scalar", "BiPoly.mul", "BiPoly", "__mul__", _Stats),
    ("scalar", "BiPoly.exact_div_t", "BiPoly", "exact_div_t", _Stats),
    ("laurent", "Laurent.mul", "Laurent", "__mul__", _WindowStats),
    ("laurent", "Laurent.inv", "Laurent", "inv", lambda: _Stats(_ops_laurent_inv)),
    ("laurent", "Laurent.add", "Laurent", "__add__", _Stats),
    ("laurent", "Laurent.qth_power", "Laurent", "qth_power", _Stats),
    ("laurent", "Laurent.from_ratfunc", "Laurent", "from_ratfunc", _Stats),
    ("zeta", "power_sum_series", None, "power_sum_series", _Stats),
    ("zeta", "mzv", None, "mzv", _Stats),
    ("zeta", "amzv", None, "amzv", _Stats),
    ("zeta", "cmpl", None, "cmpl", _Stats),
    ("zeta", "carlitz_period_power", None, "carlitz_period_power", _Stats),
    ("anderson", "at_polynomial", None, "at_polynomial", _Stats),
    ("anderson", "deformation_value", None, "deformation_value", _Stats),
    ("anderson", "deformation_t_series", None, "deformation_t_series", _Stats),
    ("anderson", "vanishing_order_profile", None, "vanishing_order_profile", _Stats),
    ("anderson", "omega_unit", None, "omega_unit", _Stats),
    ("anderson", "GradedSeries.mul", "GradedSeries", "__mul__", _Stats),
    ("anderson", "GradedSeries.twist", "GradedSeries", "twist", _Stats),
    ("relations", "find_relations", None, "find_relations", _Stats),
    ("relations", "verify_relation", None, "verify_relation", _PassStats),
    ("relations", "independence_report", None, "independence_report", _Stats),
    ("linalg", "rref", None, "rref", lambda: _Stats(_ops_linalg_rref)),
    ("linalg", "nullspace", None, "nullspace", _Stats),
    ("cache", "JsonCache.get", "JsonCache", "get", lambda: _CacheStats("get")),
    ("cache", "JsonCache.put", "JsonCache", "put", lambda: _CacheStats("put")),
]

MODULES = list(dict.fromkeys(m for m, *_ in TRACED))


def metric_specs():
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    out = []
    for module, fname, _, _, make in TRACED:
        out.append((f"{module}.{fname}.calls", "count", "lower"))
        out.append((f"{module}.{fname}.self_s", "s", "lower"))
        out += [(f"{module}.{fname}.{stat}", unit, better)
                for stat, unit, better in make().names()]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stats = {}
        self._stack = [-1]

    def wrap(self, name, fn, stats=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if stats is not None:
                stats.feed(args, result)
            return result

        return traced

    def install(self):
        """Replace every traced ffzeta function by its wrapper."""
        for module, fname, owner, attr, make in TRACED:
            mod = importlib.import_module(f"ffzeta.{module}")
            name = f"{module}.{fname}"
            stats = self.stats[name] = make()
            if owner is None:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), stats))
                continue
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, stats)))
            else:
                setattr(cls, attr, self.wrap(name, raw, stats))

    def metrics(self) -> dict:
        """Per-layer values (without trace.overhead_ratio) from the spans."""
        selfs = self_times(self.spans)
        calls = {}
        own = {}
        for (nid, *_), st in zip(self.spans, selfs):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + st
        out = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, fname, *_ in TRACED:
            name = f"{module}.{fname}"
            n = calls.get(name, 0)
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = own.get(name, 0.0)
            module_self[module] += own.get(name, 0.0)
            for stat, value in self.stats[name].values(n).items():
                out[f"{name}.{stat}"] = value
        for module, value in module_self.items():
            out[f"{module}.self_s"] = value
        return out

    def dump(self, path):
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _p) in enumerate(spans)]
