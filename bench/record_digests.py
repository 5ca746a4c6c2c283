#!/usr/bin/env python3
"""Rewrite bench/digests.json: the check digest of every cell at the default seed.

Usage, from the repository root: python3 bench/record_digests.py

Run it only when a change is meant to alter what an experiment measures;
the benchmark fails any cell whose digest differs from the recorded one.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cells import DEFAULT_SEED, WORKLOADS, make_cells, run_pass  # noqa: E402


def main() -> int:
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        results = run_pass(make_cells(workload, DEFAULT_SEED))
        bad = [r.label for r in results if not r.passed]
        if bad:
            print(f"{workload}: cells failed, nothing written: {bad}", file=sys.stderr)
            return 1
        out["workloads"][workload] = {f"{i}:{r.label}": r.digest for i, r in enumerate(results)}
    (BENCH / "digests.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
