#!/usr/bin/env python3
"""Compare two checkouts on the benchmark and write a BENCH_<n>.json file.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --base /path/to/parent --change . --out BENCH_2.json

Workloads, end-to-end metrics and run length come from BENCHMARK.json.  For
every workload, pair i (i < 10) runs ``bench/run.py --seed i --trace 0`` once
in each checkout, one after the other; the order flips from pair to pair so
slow drift of the host hits both sides alike.  Then each checkout gets one
traced run at seed 0.  The file records, per workload, the median and
quartiles of every end-to-end metric on each side, how many pairs the change
won, the failed-cell counts, and the traced per-layer metrics of both sides.
Both checkouts run with this interpreter, one run at a time.  After writing
the file it prints, per workload and end-to-end metric, both medians, their
ratio, the pairs won, and the change median of the newest earlier
BENCH_<n>.json in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def bench(checkout: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """The result object (last stdout line) of one bench/run.py run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{checkout}: {workload} seed={seed} trace={trace} "
          f"pass_s={result['metrics'].get('pass_s', {}).get('value')} "
          f"failed={result['failed']}", file=sys.stderr, flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def previous_bench(root: Path, out: Path) -> Path | None:
    """The newest BENCH_<n>.json in `root` older than `out`: the largest n below
    out's own number, or the largest n of all if `out` is not named BENCH_<n>.json."""
    own = re.fullmatch(r"BENCH_(\d+)\.json", out.name)
    found = {}
    for path in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and path.resolve() != out.resolve() and (not own or int(m[1]) < int(own[1])):
            found[int(m[1])] = path
    return found[max(found)] if found else None


def print_deltas(report: dict, previous: Path | None) -> None:
    """One stderr line per workload and end-to-end metric: both medians, their
    ratio, the pairs the change won, and the change median in `previous`."""
    before = json.loads(previous.read_text())["workloads"] if previous else {}
    for workload, w in report["workloads"].items():
        for name, m in w["end_to_end"].items():
            old = before.get(workload, {}).get("end_to_end", {}).get(name)
            then = f"{old['change']['median']:.4g}" if old else "-"
            print(f"{workload} {name}: base {m['base']['median']:.4g} "
                  f"change {m['change']['median']:.4g} ratio {m['ratio']:.3f} "
                  f"wins {m['change_wins']}/{report['pairs']}; "
                  f"{previous.name if previous else 'no earlier BENCH file'} change {then}",
                  file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "pairs": PAIRS, "seeds": list(range(PAIRS)), "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(bench(sides[side], workload, i, 0, seconds))
        traced = {side: bench(sides[side], workload, 0, 1, seconds)["metrics"]
                  for side in sides}
        end_to_end = {}
        for name in (m["name"] for m in spec["end_to_end"]):
            vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
            base, change = summary(vals["base"]), summary(vals["change"])
            end_to_end[name] = {
                "base": base, "change": change,
                "ratio": change["median"] / base["median"],
                "change_wins": sum(c < b for b, c in zip(vals["base"], vals["change"])),
            }
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in sides},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in sides},
            "per_layer": {
                name: {side: traced[side][name]["value"] for side in sides}
                for name in traced["base"]
                if traced["base"][name]["value"] or traced["change"][name]["value"]
            },
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_deltas(report, previous_bench(ROOT, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
