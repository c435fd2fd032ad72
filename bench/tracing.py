"""Spans and counters around the package's public functions, from outside it.

Modules bind names with ``from .x import y``, so one function is reachable
under several names (``orders.embeds``, ``stablep.embeds``, ``cli.embeds``).
The tracer swaps the function at every name it is bound to while a query
runs and puts the originals back afterwards, so untraced queries run the
unmodified program.  Each call records a span (query id, function, start,
end, parent span) in memory; counters are read off arguments and results.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns


def _count(counters, name, n):
    counters[name] = counters.get(name, 0) + n


def _product(counters, args, result, exc):
    if result is not None:
        _count(counters, "core.product.entries", len(result))


def _from_base_counts(counters, args, result, exc):
    if result is not None:
        _count(counters, "core.from_base_counts.boxes", len(result))


def _embeds(counters, args, result, exc):
    if type(exc).__name__ == "BudgetExceeded":
        _count(counters, "orders.embeds.budget_exceeded", 1)


def _embed_powerq(counters, args, result, exc):
    _count(counters, "orders.embed_powerq.items", sum(args[0].counts))


def _exact_dominates_powerq(counters, args, result, exc):
    if result is not None:
        _count(counters, "norms.exact_dominates_powerq.equalities",
               len(result.interior_equalities))


def _prefilter_stable(counters, args, result, exc):
    if result is not None:
        _count(counters, f"stablep.prefilter_stable.fired.{result.rule}", 1)


def _construct_nu(counters, args, result, exc):
    if result is None:
        return
    _count(counters, "stablep.construct_nu.steps", result.budget_spent)
    if result.status == "UNKNOWN":
        _count(counters, "stablep.construct_nu.unknown", 1)
    if result.witness is not None:
        _count(counters, "stablep.construct_nu.catalyst_boxes", len(result.witness.nu))


# (module, function, counter hook).  A function later moved to another module
# of the package is still found by name and keeps its metric names here.
TARGETS = (
    ("core", "common_power_base", None),
    ("core", "product", _product),
    ("core", "from_base_counts", _from_base_counts),
    ("core", "to_base_counts", None),
    ("orders", "relations", None),
    ("orders", "embeds", _embeds),
    ("orders", "embed_powerq", _embed_powerq),
    ("orders", "supermajorizes", None),
    ("norms", "dominates_all_s", None),
    ("norms", "exact_dominates_powerq", _exact_dominates_powerq),
    ("stablep", "prefilter_stable", _prefilter_stable),
    ("stablep", "construct_nu", _construct_nu),
    ("cli", "main", None),
)

COUNTERS = (
    "core.product.entries",
    "core.from_base_counts.boxes",
    "orders.embeds.budget_exceeded",
    "orders.embed_powerq.items",
    "norms.exact_dominates_powerq.equalities",
    "stablep.prefilter_stable.fired.BulkFails",
    "stablep.prefilter_stable.fired.NormEquality",
    "stablep.prefilter_stable.fired.TopIndexRule",
    "stablep.prefilter_stable.fired.TightValuation",
    "stablep.construct_nu.steps",
    "stablep.construct_nu.catalyst_boxes",
    "stablep.construct_nu.unknown",
    "cli.main.output_bytes",
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "partembed" or name.startswith("partembed."))]


def _find(module: str, name: str):
    try:
        fn = getattr(importlib.import_module(f"partembed.{module}"), name, None)
    except ImportError:
        fn = None
    if callable(fn):
        return fn
    for m in _package_modules():
        fn = getattr(m, name, None)
        if callable(fn) and getattr(fn, "__module__", "").startswith("partembed"):
            return fn
    return None


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{name}" for module, name, _ in TARGETS]
        self.spans: list = []  # (query, function index, start ns, end ns, parent span)
        self.counters: dict[str, int] = {}
        self.query = -1
        self.missing = []
        self._stack: list[int] = []
        self._patches = []  # (module object, attribute, original, wrapper)
        for fid, (module, name, hook) in enumerate(TARGETS):
            fn = _find(module, name)
            if fn is None:
                self.missing.append(self.names[fid])
                continue
            wrapper = self._wrap(fid, fn, hook)
            for m in _package_modules():
                for attr, value in vars(m).items():
                    if value is fn:
                        self._patches.append((m, attr, fn, wrapper))

    def _wrap(self, fid, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.query, fid, start, end, parent)
                if hook is not None:
                    hook(counters, args, result, exc)
                exc = None

        return traced

    def install(self, query: int):
        self.query = query
        self._stack.clear()
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def remove(self):
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def per_function(self, weights):
        """Calls and self time (ns) per function: duration minus child coverage.

        Each span's self time is multiplied by ``weights[query]``, the
        host-speed factor of its query.

        Spans nest strictly (one thread, one call stack), so the part of a
        span its children cover is the sum of their durations.  A span whose
        record could not be written (the call died of MemoryError while
        recording) is left as None and skipped.
        """
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        covered = [0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            span = self.spans[idx]
            if span is None:
                continue
            query, fid, start, end, parent = span
            calls[fid] += 1
            self_ns[fid] += (end - start - covered[idx]) * weights[query]
            if parent >= 0:
                covered[parent] += end - start
        return calls, self_ns

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names,
                       "span_fields": ["query", "function", "start_ns", "end_ns", "parent"],
                       "spans": self.spans,
                       "counters": self.counters}, fh, separators=(",", ":"))
