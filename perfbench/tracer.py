"""Outside tracer: wraps latnorm's public functions without touching src/.

Each traced function is replaced, in every ``latnorm.*`` module namespace
that binds it, by a wrapper that keeps a span stack. A span's self time is
its duration minus the time of the wrapped calls made inside it, so the
per-layer self times add up to the traced wall time spent in latnorm.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in that layer's module
TRACED = {
    "lattice": ("lattice_from_covers", "induced_sublattice"),
    "tnorm": (
        "verify_tnorm",
        "is_left_semicontinuous",
        "is_left_continuous",
        "is_right_continuous",
        "is_continuous",
        "tnorm_le",
        "restrict",
    ),
    "construction": (
        "skeleton",
        "lift",
        "generated_family",
        "semicontinuity_criterion",
        "family_powerset_isomorphism",
    ),
    "extension": ("extend", "s_family", "restrict_to_original", "condition_c"),
    "oracle": ("enumerate_all_tnorms", "census"),
    "checks": (
        "run_all_checks",
        "check_lift_restriction_roundtrip",
        "check_semicontinuity_criterion",
        "check_family_isomorphism",
        "check_extension_gate",
        "check_restriction_joins",
    ),
    "cli": ("main",),
    "catalog": ("random_lattice",),
}

# counters beyond calls and self time, always emitted
COUNTERS = (
    "extension.condition_c.pass",
    "extension.condition_c.fail",
    "oracle.tables",
    "catalog.random_lattice.draws",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer emits, with its unit."""
    out = []
    for layer, fns in TRACED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.self_s", "s"))
            out.append((f"{layer}.{fn}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
    out.extend((name, "count") for name in COUNTERS)
    return out


class Tracer:
    """Span stack plus per-function self time, call and counter tallies."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child_time]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def _enter(self, name: str) -> None:
        if name == "lattice.lattice_from_covers" and self._stack and self._stack[-1][0] == "catalog.random_lattice":
            self.counts["catalog.random_lattice.draws"] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "oracle.enumerate_all_tnorms":
            # the call builds the search state eagerly and returns a
            # generator; the search itself runs inside each next()
            def stream(gen):
                while True:
                    tracer._enter(name)
                    try:
                        table = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counts["oracle.tables"] += 1
                    yield table

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                tracer._enter(name)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                return stream(gen)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if name == "extension.condition_c":
                tracer.counts["extension.condition_c." + ("pass" if result.ok else "fail")] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever a latnorm module binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "latnorm" or k.startswith("latnorm.")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"latnorm.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._patched.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for layer, fns in TRACED.items():
            total = 0.0
            for fn in fns:
                key = f"{layer}.{fn}"
                total += self.self_s[key]
                out[key + ".self_s"] = self.self_s[key]
                out[key + ".calls"] = self.counts[key + ".calls"]
            out[f"{layer}.self_s"] = total
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out
