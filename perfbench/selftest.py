#!/usr/bin/env python3
"""Harness self-test: every workload at a tiny size, in well under a minute.

    python3 perfbench/selftest.py

Checks that each workload emits exactly the metrics BENCHMARK.json names,
with their units, in both modes; that the same seed gives the same inputs;
and that a corrupted reference raises the failure count instead of
crashing the run.
"""

import copy
import json
import sys

import run


def main() -> int:
    run._import_latnorm()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    frozen = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert frozen["seed"] == run.DEFAULT_SEED
    for name, (generate, _, _) in WORKLOADS.items():
        assert name in {w["name"] for w in spec["workloads"]}, name
        assert frozen[name], f"no frozen reference for {name}"
        assert generate(7, True) == generate(7, True), f"{name}: inputs differ for one seed"

        for trace, want in wanted.items():
            res = run.run_workload(name, 1, 0.5, bool(trace), tiny=True, reference=None)["result"]
            assert list(res) == ["correct", "attempted", "failed", "metrics"], res
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ"
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res

        outputs = run.run_workload(name, 1, 0, False, tiny=True, reference=None)["outputs"]
        res = run.run_workload(name, 1, 0, False, tiny=True, reference=outputs)["result"]
        assert res["failed"] == 0, f"{name}: outputs do not repeat: {res}"
        corrupted = copy.deepcopy(outputs)
        key = next(iter(corrupted))
        corrupted[key] = {"corrupted": corrupted[key]}
        out = run.run_workload(name, 1, 0, False, tiny=True, reference=corrupted)
        res = out["result"]
        assert res["failed"] == 1 and not res["correct"], f"{name}: corruption not counted: {res}"
        assert out["diagnostics"]["fail_ratio"] == 1 / res["attempted"]
        print(f"{name}: ok")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
