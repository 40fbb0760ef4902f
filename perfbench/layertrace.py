"""Span tracing of toricfib's layers, installed from outside the package.

``Tracer.install`` wraps the public functions on the result path.  Modules
bind imported names at import time (``from .models import model_V`` in
``criterion``, ``from .fan import star_subdivide`` in ``divisors``), so each
wrapper replaces the original in every toricfib module that holds it;
otherwise nested calls would go untimed.  Spans (name, start, end, parent)
are kept in memory and written out at the end; a span's self time is its
duration minus the durations of its direct children, which are disjoint
because only the main thread calls into toricfib.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function) pairs traced as spans named "<module>.<function>".
FUNCTION_SPANS = (
    ("fan", "star_subdivide"),
    ("fan", "smallest_containing_cone"),
    ("exactmath", "parallelepiped_points"),
    ("divisors", "toric_mld"),
    ("divisors", "support_function"),
    ("divisors", "pullback"),
    ("models", "model_V"),
    ("models", "model_Y"),
    ("models", "model_W_U"),
    ("criterion", "certify"),
    ("criterion", "scan"),
    ("serialize", "fan_from_dict"),
)
# Fan construction (validation included) and Subdivision.at are traced as
# "fan.Fan" and "divisors.Subdivision"; "serialize.encode" is opened by the
# benchmark around report encoding.
SPAN_NAMES = (
    "fan.Fan",
    "divisors.Subdivision",
    "serialize.encode",
) + tuple(f"{m}.{f}" for m, f in FUNCTION_SPANS)
# Hot kernels that are only counted: a span per call would cost more than
# the call.
COUNTED = (("exactmath", "solve_in_basis"), ("exactmath", "det"), ("exactmath", "smith_normal_form"))
CACHED = (("models", "model_V"), ("divisors", "toric_mld"))


def _modules() -> list:
    return [m for name, m in sys.modules.items() if name == "toricfib" or name.startswith("toricfib.")]


def _rebind(original, replacement) -> None:
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Spans and counters of one traced interpreter."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._caches: dict = {}

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so each call records a span; ``after(result,
        args)`` may add counts once the call returns."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from toricfib import divisors, fan
        from toricfib import serialize  # noqa: F401  (imported so its bindings are rebound)

        def count_points(points, _):
            self.counts["exactmath.parallelepiped_points.points"] += len(points)

        for module, function in FUNCTION_SPANS:
            name = f"{module}.{function}"
            original = getattr(sys.modules[f"toricfib.{module}"], function)
            if (module, function) in CACHED:
                self._caches[name] = (original, original.cache_info())
            after = count_points if name == "exactmath.parallelepiped_points" else None
            _rebind(original, self.span(name, original, after))
        for module, function in COUNTED:
            original = getattr(sys.modules[f"toricfib.{module}"], function)
            _rebind(original, self._count(f"{module}.{function}.calls", original))

        def count_pairs(_, args):
            k = len(args[0].maximal_cones)
            self.counts["fan.Fan.cone_pairs"] += k * (k - 1) // 2

        fan.Fan.__post_init__ = self.span("fan.Fan", fan.Fan.__post_init__, count_pairs)
        at = divisors.Subdivision.__dict__["at"].__func__
        divisors.Subdivision.at = classmethod(self.span("divisors.Subdivision", at))

    def encode(self, fn, *args):
        """Run the benchmark's report encoding as a "serialize.encode" span."""
        return self.span("serialize.encode", fn)(*args)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals: inclusive and self seconds and calls per span
        name, the counters, cache hit ratios over the traced calls, and how
        much of ``wall_s`` the self times account for."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total = Counter()
        own = Counter()
        calls = Counter()
        nested_sub = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_ns[i]
            calls[name] += 1
            if name == "fan.star_subdivide" and parent >= 0 and self.spans[parent][0] == "divisors.Subdivision":
                nested_sub += 1
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = total[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        for key in ("fan.Fan.cone_pairs", "exactmath.parallelepiped_points.points") + tuple(
            f"{m}.{f}.calls" for m, f in COUNTED
        ):
            out[key] = self.counts[key]
        for name, (original, before) in self._caches.items():
            after = original.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        subs = calls["divisors.Subdivision"]
        out["divisors.Subdivision.star_subdivide_per_call"] = nested_sub / subs if subs else 0.0
        self_sum = sum(own.values()) / 1e9
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_s"] = self_sum
        out["trace.coverage"] = self_sum / wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
