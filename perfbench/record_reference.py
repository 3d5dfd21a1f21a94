#!/usr/bin/env python3
"""Record the frozen reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes
reference.json: census class counts per lattice, lift verdicts and
witnesses, and the exit code and stdout digest of each `latnorm check`.
Refuses to write if any invariant fails. Re-record only when a change is
meant to alter these outputs, and say so where the change is described.
"""

import json
import sys

import run


def main() -> int:
    run._import_latnorm()
    from workloads import WORKLOADS

    reference = {"seed": run.DEFAULT_SEED}
    for name in WORKLOADS:
        out = run.run_workload(name, run.DEFAULT_SEED, 0, False, reference=None)
        if out["result"]["failed"]:
            print(f"{name}: invariants fail, not recording: {out['diagnostics']['problems']}", file=sys.stderr)
            return 1
        reference[name] = out["outputs"]
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
