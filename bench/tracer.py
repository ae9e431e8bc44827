"""Outside-in tracer: spans around calls into nilmult's public functions.

Nothing in the package is instrumented.  ``Tracer.install`` rebinds each
traced name, in every ``nilmult`` module that holds a copy of it (``from ...
import`` makes copies in ``cli`` and ``multiplier``), to a wrapper that
records a span; ``Tracer.uninstall`` restores the originals, so untraced
queries run the unmodified code.  The per-commutator helpers ``leaf`` and
``bracket`` are never wrapped: their calls are the enumeration itself.

Spans are kept in memory as (name, start, end, parent index) and turned into
per-layer totals only at the end.  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs whose calls are spans.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "parse_group_spec"),
    ("abelian", "canonicalize"),
    ("abelian", "factorize"),
    ("witt", "b_sequence"),
    ("witt", "witt_count"),
    ("hall", "enumerate_basic"),
    ("multiplier", "nilpotent_multiplier"),
    ("multiplier", "tensor_oracle"),
    ("multiplier", "verify"),
    ("multiplier", "multiplier_order"),
    ("multiplier", "decimal_str"),
)


# Layers whose distinct ratio is reported: what makes two calls the same work.
DISTINCT_KEYS = {
    "abelian.factorize": lambda args: args,
    "witt.witt_count": lambda args: args,
    # (weight, letters); the cap does not change the result
    "hall.enumerate_basic": lambda args: args[:2],
    # holds no reference to huge ints
    "multiplier.decimal_str": lambda args: (args[0].bit_length(), hash(args[0])),
}


class Tracer:
    """Spans and counters for calls into the traced functions."""

    def __init__(self, package_name: str = "nilmult") -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == package_name or name.startswith(package_name + ".")
        }
        # (module object, attribute, original, wrapper) for every binding
        self._bindings = []
        for module_name, function_name in TRACED:
            original = getattr(modules[f"{package_name}.{module_name}"], function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original)
            for module in modules.values():
                if getattr(module, function_name, None) is original:
                    self._bindings.append((module, function_name, original, wrapper))
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.distinct: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # commutators, digits
        self._seen: defaultdict[str, set] = defaultdict(set)

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1
            if name in DISTINCT_KEYS:
                key = DISTINCT_KEYS[name](args)
                if key not in self._seen[name]:
                    self._seen[name].add(key)
                    self.distinct[name] += 1
            if name == "hall.enumerate_basic":
                self.counts[name + ".commutators"] += len(result)
            elif name == "multiplier.decimal_str":
                self.counts[name + ".digits"] += len(result)
            return result

        return traced

    def install(self) -> None:
        for module, attribute, _, wrapper in self._bindings:
            setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original, _ in self._bindings:
            setattr(module, attribute, original)

    def end_pass(self) -> None:
        """Start a new pass: distinct ratios count repeats within one pass only."""
        self._seen.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per layer, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return totals

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each time and count given per pass."""
        self_time = self.self_times()
        metrics: dict[str, float] = {}
        for module_name, function_name in TRACED:
            name = f"{module_name}.{function_name}"
            calls = self.calls[name]
            metrics[f"{name}.self_s"] = self_time[name] / passes
            metrics[f"{name}.calls"] = calls / passes
            if name in DISTINCT_KEYS:
                metrics[f"{name}.distinct_ratio"] = self.distinct[name] / calls if calls else 0.0
        for name in ("hall.enumerate_basic.commutators", "multiplier.decimal_str.digits"):
            metrics[name] = self.counts[name] / passes
        commutators = self.counts["hall.enumerate_basic.commutators"]
        metrics["hall.enumerate_basic.us_per_commutator"] = (
            1e6 * self_time["hall.enumerate_basic"] / commutators if commutators else 0.0
        )
        return metrics
