"""Spans around the calls into each module's public functions.

The wrappers are installed from outside the package.  Modules import names
directly (``conformal`` calls ``u1_char`` and ``BiSeries`` by name,
``transfer`` calls ``build_transfer`` through its own global), so every
module attribute bound to a wrapped function is rebound to its wrapper.
``BiSeries`` methods are wrapped on the class.  A name that no longer
exists is listed as missing; its metrics read 0.

Each span is (name, start, end, parent); spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children, which the single-threaded call stack
keeps disjoint.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("lattice", "transfer", "qseries", "characters", "bezout",
          "conformal", "cyclo", "arith")

# the wrapped public functions, as (module, name or Class.method)
WRAPPED = (
    ("lattice", "census_counter"),
    ("lattice", "lattice_Z"),
    ("transfer", "build_transfer"),
    ("transfer", "trace_TM"),
    ("transfer", "markov_Z"),
    ("qseries", "BiSeries.__mul__"),
    ("qseries", "BiSeries.__add__"),
    ("qseries", "BiSeries.from_product"),
    ("qseries", "BiSeries.matches"),
    ("qseries", "euler_inverse"),
    ("characters", "u1_char"),
    ("bezout", "index_pairs"),
    ("cyclo", "cospoly_to_cyclo"),
    ("arith", "gamma_dm_cospoly"),
    ("arith", "lambda_fsz_cospoly"),
    ("arith", "chebyshev_T"),
    ("conformal", "Z_hv_direct"),
    ("conformal", "Z_hv_u1"),
    ("conformal", "Z_hv_bezout"),
    ("conformal", "full_Z_series"),
    ("conformal", "on_series"),
)

# self-time metrics: the spans whose self times each one sums
SELF_TIME = {
    "lattice.census_s": ("lattice.census_counter",),
    "lattice.weigh_s": ("lattice.lattice_Z",),
    "transfer.build_s": ("transfer.build_transfer",),
    "transfer.trace_s": ("transfer.trace_TM",),
    "transfer.markov_s": ("transfer.markov_Z",),
    "qseries.bimul_s": ("qseries.BiSeries.__mul__",),
    "qseries.biadd_s": ("qseries.BiSeries.__add__",),
    "qseries.from_product_s": ("qseries.BiSeries.from_product",),
    "qseries.matches_s": ("qseries.BiSeries.matches",),
    "qseries.euler_inverse_s": ("qseries.euler_inverse",),
    "characters.u1_char_s": ("characters.u1_char",),
    "bezout.index_pairs_s": ("bezout.index_pairs",),
    "cyclo.cospoly_to_cyclo_s": ("cyclo.cospoly_to_cyclo",),
    "arith.cospoly_s": ("arith.gamma_dm_cospoly", "arith.lambda_fsz_cospoly"),
    "conformal.direct_s": ("conformal.Z_hv_direct",),
    "conformal.u1_s": ("conformal.Z_hv_u1",),
    "conformal.bezout_s": ("conformal.Z_hv_bezout",),
    "conformal.full_s": ("conformal.full_Z_series",),
    "conformal.on_s": ("conformal.on_series",),
}

# call-count metrics: the span each one counts
CALLS = {
    "transfer.trace_calls": "transfer.trace_TM",
    "qseries.bimul_calls": "qseries.BiSeries.__mul__",
    "qseries.biadd_calls": "qseries.BiSeries.__add__",
    "characters.u1_char_calls": "characters.u1_char",
    "cyclo.cospoly_to_cyclo_calls": "cyclo.cospoly_to_cyclo",
    "arith.chebyshev_calls": "arith.chebyshev_T",
}

SERIES_FORMS = ("conformal.Z_hv_direct", "conformal.Z_hv_u1", "conformal.Z_hv_bezout",
                "conformal.full_Z_series", "conformal.on_series")

# every per-layer metric of a traced pass with its unit; <layer>.self_frac
# is the layer's share of the timed wall time
UNITS = {name: "s" for name in SELF_TIME}
UNITS.update({name: "count" for name in CALLS})
UNITS.update({
    "lattice.configs": "count",
    "lattice.configs_per_s": "1/s",
    "lattice.census_misses": "count",
    "transfer.build_misses": "count",
    "transfer.module_dim_max": "count",
    "transfer.matrix_entries": "count",
    "transfer.entries_per_s": "1/s",
    "transfer.trace_unique": "count",
    "transfer.trace_useful_ratio": "ratio",
    "conformal.series_terms": "count",
    "conformal.terms_per_s": "1/s",
    "trace.uncovered_frac": "ratio",
})
UNITS.update({f"{layer}.self_frac": "ratio" for layer in LAYERS})
COUNTS = sorted(name for name, unit in UNITS.items() if unit == "count")


def self_times(spans: list) -> dict:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the public functions of ``torusloop`` and records spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.active = False
        self.missing: list = []
        self.originals: dict = {}
        self.census: dict = {}       # census_counter arguments -> result
        self.operators: dict = {}    # build_transfer arguments -> operator
        self.trace_keys: list = []   # (spec, N, M, d) of every trace_TM call
        self.series_terms = 0
        observers = {
            "lattice.census_counter": self._seen_census,
            "transfer.build_transfer": self._seen_operator,
            "transfer.trace_TM": self._seen_trace,
        }
        observers.update({name: self._seen_series for name in SERIES_FORMS})
        modules = [m for name, m in list(sys.modules.items())
                   if name == "torusloop" or name.startswith("torusloop.")]
        for module_name, attr in WRAPPED:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"torusloop.{module_name}")
            if "." in attr:
                self._wrap_method(module, name, attr, observers.get(name))
            else:
                self._wrap_function(modules, module, name, attr, observers.get(name))

    def _wrapper(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_function(self, modules: list, module, name: str, attr: str, observe):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        self.originals[name] = fn
        wrapper = self._wrapper(name, fn, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    def _wrap_method(self, module, name: str, attr: str, observe):
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(method) if cls is not None else None
        if raw is None:
            self.missing.append(name)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(name, raw.__func__, observe))
        else:
            wrapped = self._wrapper(name, raw, observe)
        self.originals[name] = raw
        setattr(cls, method, wrapped)

    @staticmethod
    def _key(args: tuple, kwargs: dict) -> tuple:
        return args + tuple(sorted(kwargs.items()))

    def _seen_census(self, args, kwargs, result):
        self.census.setdefault(self._key(args, kwargs), result)

    def _seen_operator(self, args, kwargs, result):
        self.operators.setdefault(self._key(args, kwargs), result)

    def _seen_trace(self, args, kwargs, result):
        self.trace_keys.append(self._key(args, kwargs))

    def _seen_series(self, args, kwargs, result):
        self.series_terms += len(result.terms)

    def _cache_misses(self, name: str) -> int:
        fn = self.originals.get(name)
        return fn.cache_info().misses if hasattr(fn, "cache_info") else 0

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced calls made while active."""
        own = self_times(self.spans)
        calls: dict = defaultdict(int)
        inclusive: dict = defaultdict(float)
        covered = 0.0
        for name, start, end, parent in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent < 0:
                covered += end - start
        out = {metric: sum(own[n] for n in names) for metric, names in SELF_TIME.items()}
        out.update({metric: calls[name] for metric, name in CALLS.items()})
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = _ratio(
                sum(t for n, t in own.items() if n.split(".")[0] == layer), wall_s)
        configs = sum(mult for census in self.census.values() for _, mult in census)
        entries = sum(e is not None for op in self.operators.values()
                      for row in op.matrix for e in row)
        series_s = sum(inclusive[n] for n in SERIES_FORMS)
        out.update({
            "lattice.configs": configs,
            "lattice.configs_per_s": _ratio(configs, out["lattice.census_s"]),
            "lattice.census_misses": self._cache_misses("lattice.census_counter"),
            "transfer.build_misses": self._cache_misses("transfer.build_transfer"),
            "transfer.module_dim_max": max((op.dim for op in self.operators.values()),
                                           default=0),
            "transfer.matrix_entries": entries,
            "transfer.entries_per_s": _ratio(entries, out["transfer.build_s"]),
            "transfer.trace_unique": len(set(self.trace_keys)),
            "transfer.trace_useful_ratio": _ratio(len(set(self.trace_keys)),
                                                  len(self.trace_keys)),
            "conformal.series_terms": self.series_terms,
            "conformal.terms_per_s": _ratio(self.series_terms, series_s),
            "trace.uncovered_frac": _ratio(wall_s - covered, wall_s),
        })
        return out

    def dump(self, path: str, run_id: str):
        """Write the spans of this run as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "missing": self.missing,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
