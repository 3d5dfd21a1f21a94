#!/usr/bin/env python3
"""latnorm benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Runs in one process and one thread against the latnorm sources next to
this directory (``../src``). The last stdout line is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
holds diagnostics that are not gated: pass and sample counts, input
property shares, the drift probe, the reference comparison and, with
``--trace 1``, the tracing overhead. See README.md for the workloads.

Timings are per-item medians over the run's repeated passes, each time
scaled to a reference machine speed by a probe kernel timed right before
and after the call (see ``Clock``): a shared VM's speed drifts by tens of
percent between moments, and a time taken against the machine's speed at
that moment drifts far less. The raw times are in the diagnostics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

from tracer import Tracer, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1  # the seed the frozen reference outputs were recorded at
SETUP_SLICE_S = 0.25  # inputs are regenerated for this long before every pass
REF_PROBE_S = 0.005  # probe time of the reference machine speed timings are scaled to
FROZEN = "frozen"  # run_workload's default: compare with reference.json at DEFAULT_SEED


def _import_latnorm() -> None:
    """Import latnorm from ../src, refusing any other copy on the path."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import latnorm

    if Path(latnorm.__file__).resolve().parent != src / "latnorm":
        raise ImportError(f"latnorm was imported from {latnorm.__file__}, not from {src}")


_PROBE_N = 11
_PROBE_TABLE = [[(a * 7 + b * 3 + a * b) % _PROBE_N for b in range(_PROBE_N)] for a in range(_PROBE_N)]
_PROBE_BIG_N = 256  # the size of a 2^8 table, more than the core's first-level cache holds
_rng = random.Random(0)
_PROBE_BIG = [[_rng.randrange(_PROBE_BIG_N) for _ in range(_PROBE_BIG_N)] for _ in range(_PROBE_BIG_N)]
del _rng


def _probe_row(table: list, a: int) -> list:
    return table[a]


def probe_s() -> float:
    """Time a fixed pure-Python kernel: the machine's speed right now.

    Three parts of about equal time, the kinds of work latnorm does:
    integer arithmetic; lookups in a small table with calls, tuples and
    dict updates; and chained lookups in a 256x256 table. A slow phase of
    a shared machine slows each kind by a different amount, and each
    workload mixes them differently (``lift`` works on 256x256 tables,
    ``census`` on 8x8 ones): with only the first two parts, ``lift``'s
    scaled pass time ranged twice as widely across runs. About 4-5 ms.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc = (acc * 31 + i) % 1_000_003
    counts: dict = {}
    t = _PROBE_TABLE
    for a in range(5 * _PROBE_N):
        row = _probe_row(t, a % _PROBE_N)
        for b in range(_PROBE_N):
            inner = t[row[b]]
            for c in range(_PROBE_N):
                key = (inner[c], c & 3)
                counts[key] = counts.get(key, 0) + 1
    big = _PROBE_BIG
    x = 0
    for y in range(_PROBE_BIG_N):
        row = big[y]
        for z in range(0, _PROBE_BIG_N, 2):
            x = big[row[z]][x]
    return time.perf_counter() - t0


def drift_probe_ms(calls: int = 40) -> dict:
    """The probe's fastest and median time over a burst of calls."""
    times = [probe_s() * 1000 for _ in range(calls)]
    return {"min": min(times), "median": statistics.median(times)}


class Clock:
    """Times calls in seconds at a reference machine speed.

    The probe kernel runs before and after every call (the probe after one
    call is the probe before the next). A call's time is scaled by
    ``REF_PROBE_S`` over the mean of its two probes, so it reads as the time
    the call would take on a machine where the probe takes ``REF_PROBE_S``.
    The probes are outside the timed span.
    """

    def __init__(self):
        self.last = probe_s()
        self.probes = [self.last]

    def time(self, fn):
        """Call ``fn``; returns its result, raw seconds and scaled seconds."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = probe_s()
        scaled = raw * REF_PROBE_S / ((self.last + after) / 2)
        self.last = after
        self.probes.append(after)
        return out, raw, scaled


def _pass_s(samples: dict, scaled: bool = True) -> float:
    """Sum over ops of each op's median time, scaled or raw, across passes."""
    pick = 1 if scaled else 0
    return sum(statistics.median(s[pick] for s in ts) for ts in samples.values())


class Run:
    """One workload's inputs, ops and tallies."""

    def __init__(self, name: str, seed: int, tiny: bool, reference: dict | None):
        from workloads import WORKLOADS

        self.seed = seed
        self.generate, self.make_ops, self.properties = WORKLOADS[name]
        self.tiny = tiny
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict = {}
        self.clock = Clock()
        self.setup_times: list[tuple[float, float]] = []  # (raw, scaled) per generation

    def setup(self, slice_s: float = 0.0) -> dict:
        """Generate the inputs from the seed, timing each generation.

        Repeats for at least ``slice_s`` seconds, and at least once.
        """
        start = time.perf_counter()
        while True:
            items, raw, scaled = self.clock.time(lambda: self.generate(self.seed, self.tiny))
            self.setup_times.append((raw, scaled))
            if time.perf_counter() - start >= slice_s:
                return items

    def one_pass(self, ops, samples: dict) -> int:
        """Time every op once, check its output; returns the items done.

        ``samples`` maps each op's key to its (raw, scaled) times.
        """
        gc.collect()
        units = 0
        for op in ops:
            out, raw, scaled = self.clock.time(op.call)
            samples.setdefault(op.key, []).append((raw, scaled))
            units += op.units(out)
            self.judge(op, out)
        return units

    def judge(self, op, raw) -> None:
        self.attempted += 1
        out = op.summary(raw)
        self.outputs.setdefault(op.key, out)
        found = op.problems(raw)
        if self.reference is not None:
            expected = self.reference.get(op.key)
            if expected != out:
                found.append(f"{op.key}: output {out} differs from the reference {expected}")
        if found:
            self.failed += 1
            self.problems.extend(found)


def _measure(run: Run, ops, deadline: float) -> dict:
    """Set-up slices and passes, until the next pair would pass ``deadline``."""
    samples: dict = {}
    pair_times = []
    while not pair_times or time.perf_counter() + max(pair_times[-2:]) <= deadline:
        t0 = time.perf_counter()
        # set-up is timed again before each pass, so its median spans the
        # same stretch of the run as the passes do
        run.setup(SETUP_SLICE_S)
        units = run.one_pass(ops, samples)  # the same every pass
        pair_times.append(time.perf_counter() - t0)
    return {"samples": samples, "pair_times": pair_times, "items": units}


def _measure_traced(run: Run, ops, deadline: float, tracer) -> dict:
    """Alternate untraced and traced passes; per-layer numbers come from the traced ones."""
    plain: dict = {}
    traced: dict = {}
    layer_passes = []
    units = []
    pass_times = []
    while len(pass_times) < 2 or time.perf_counter() + max(pass_times[-2:]) <= deadline:
        t0 = time.perf_counter()
        if len(pass_times) % 2 == 0:
            run.one_pass(ops, plain)
        else:
            tracer.reset()
            tracer.install()
            try:
                units.append(run.one_pass(ops, traced))
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.snapshot())
        pass_times.append(time.perf_counter() - t0)
    return {"plain": plain, "traced": traced, "layer_passes": layer_passes, "units": units}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    reference: dict | str | None = FROZEN,
) -> dict:
    """Run one workload; returns the result object plus diagnostics and outputs.

    The run, set-up and drift probes included, starts no further pass
    (untraced, with the set-up slice before it) that would end more than
    ``seconds`` after the start if it took as long as the longer of the
    last two. ``reference`` maps op keys to expected outputs, or is None
    for no comparison. By default the frozen reference is used when the
    run is full size and ``seed`` is the seed it was recorded at.
    """
    start = time.perf_counter()
    os.environ.pop("LATNORM_CACHE_DIR", None)  # census would otherwise read a cache
    warnings.simplefilter("ignore")  # degenerate-length warnings from the corpus
    if reference == FROZEN:
        reference = None
        if not tiny and seed == DEFAULT_SEED:
            reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    run = Run(name, seed, tiny, reference)
    diagnostics: dict = {"workload": name, "seed": seed, "reference_checked": reference is not None}
    diagnostics["drift_probe_before_ms"] = drift_probe_ms()
    # leave room for the closing drift probe, which takes as long as the opening one
    opening_s = time.perf_counter() - start
    deadline = start + seconds - opening_s

    tracer = Tracer() if trace else None
    if tracer is None:
        items = run.setup()
    else:
        tracer.install()
        try:
            items = run.setup()
        finally:
            tracer.uninstall()
        setup_layers = tracer.snapshot()

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        ops = run.make_ops(items, work)
        diagnostics["ops"] = len(ops)
        if tracer is None:
            m = _measure(run, ops, deadline)
            pass_s = _pass_s(m["samples"])
            raw_pass_s = _pass_s(m["samples"], scaled=False)
            diagnostics.update(
                passes=len(m["pair_times"]),
                pair_times=m["pair_times"],
                pass_s=pass_s,
                items=m["items"],
                setup_samples=len(run.setup_times),
                raw_pass_s=raw_pass_s,
                raw_items_per_s=m["items"] / raw_pass_s,
                raw_setup_s=statistics.median(raw for raw, _ in run.setup_times),
            )
            metrics = {
                "items_per_s": (m["items"] / pass_s, "1/s"),
                "setup_s": (statistics.median(scaled for _, scaled in run.setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            m = _measure_traced(run, ops, deadline, tracer)
            passes = m["layer_passes"]
            first = passes[0]
            layers = {}
            for key, unit in metric_names():
                if unit == "s":
                    layers[key] = (setup_layers[key] + statistics.median(p[key] for p in passes), unit)
                else:
                    layers[key] = (setup_layers[key] + first[key], unit)
            if name == "census" and any(p["oracle.tables"] != u for p, u in zip(passes, m["units"])):
                run.failed += 1
                run.problems.append(f"oracle.tables {first['oracle.tables']} != tables reported {m['units'][0]}")
            traced_pass_s = _pass_s(m["traced"])
            plain_pass_s = _pass_s(m["plain"])
            diagnostics.update(
                traced_passes=len(passes),
                untraced_passes=len(next(iter(m["plain"].values()))),
                traced_pass_s=traced_pass_s,
                untraced_pass_s=plain_pass_s,
                trace_overhead=traced_pass_s / plain_pass_s,
                counts_repeat=all(
                    p[k] == first[k] for p in passes for k, unit in metric_names() if unit == "count"
                ),
            )
            metrics = layers
    finally:
        shutil.rmtree(work, ignore_errors=True)

    probes_ms = [p * 1000 for p in run.clock.probes]
    diagnostics["probe_ms"] = {"median": statistics.median(probes_ms), "min": min(probes_ms), "calls": len(probes_ms)}
    diagnostics["input_properties"] = run.properties(items, run.outputs)
    diagnostics["drift_probe_after_ms"] = drift_probe_ms()
    diagnostics["elapsed_s"] = time.perf_counter() - start
    diagnostics["fail_ratio"] = run.failed / run.attempted
    diagnostics["problems"] = run.problems[:20]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "diagnostics": diagnostics, "outputs": run.outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["census", "lift", "check"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _import_latnorm()
    except ImportError as exc:
        print(f"error: cannot import latnorm from the checkout: {exc}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"diagnostics": out["diagnostics"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
