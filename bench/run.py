#!/usr/bin/env python3
"""The padiclt benchmark: seeded experiment cells, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload action --seed 0 --seconds 36 --trace 0

Workloads are lists of experiment cells (bench/cells.py).  One process runs
them in a closed loop with one caller: each cell starts when the previous
one has returned.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` runs one untraced pass, then traced passes that wrap
the package's public functions from outside (bench/tracer.py), and reports
the per-layer metrics named in bench/layers.json.

Every cell's report must pass all its checks and be byte-identical across
the passes of a run; at the default seed its check digest must also match
bench/digests.json.  A cell that fails any of these counts as failed; the
run goes on.  The last line of standard output is the result object; the
line before it holds the details (samples, environment, failures).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60

# Classes whose methods are one-line coefficient arithmetic called millions
# of times per pass; they stay unwrapped and their time is charged to the
# traced caller.
UNTRACED_CLASSES = ("PadicScalar", "UnramContext", "IntModRing", "UnramRing", "QuotRing")
# Traced functions that call no other traced function.
LEAVES = ("padics.scalar_mul", "padics.scalar_add", "padics.scalar_sub",
          "padics.scalar_neg", "padics.scalar_mul_int", "padics.frobenius")
# Per-layer functions called too often per pass to keep every call as a span.
NO_SPANS = ("padics.scalar_mul", "padics.scalar_add", "padics.scalar_inv",
            "padics.frobenius", "domain.lie_act", "linalg.divide_by_pivot")


def _import_package():
    """Import padiclt from this checkout's src/, or exit non-zero."""
    if not (SRC / "padiclt" / "__init__.py").is_file():
        sys.exit(f"bench: no padiclt package at {SRC / 'padiclt'}")
    sys.path.insert(0, str(SRC))
    import padiclt
    if Path(padiclt.__file__).resolve().parent != (SRC / "padiclt").resolve():
        sys.exit(f"bench: imported padiclt from {padiclt.__file__}, not from {SRC}")


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0], "commit": _git_commit()}


def tail(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least 10 samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s)}
    if len(s) >= 11:
        out["tail_pct"] = round(100 * (len(s) - 10) / len(s), 1)
        out["tail"] = s[len(s) - 11]
    return out


def setup_times(contexts) -> list[float]:
    """Fresh-process set-up times: import padiclt plus every make_context."""
    argv = [sys.executable, str(BENCH / "setup_child.py"), str(SRC)]
    argv += [f"{p},{e},{n}" for p, e, n in contexts]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(cells_, seconds: float, min_passes: int, between=None):
    """Run passes until the next one would end after ``seconds``."""
    from cells import run_pass
    passes, times = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - start + statistics.median(times) <= seconds):
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass(cells_, None if between is None else between(len(passes))))
        times.append(time.perf_counter() - t0)
    return passes, times


def load_digests(workload: str, seed: int):
    from cells import DEFAULT_SEED
    if seed != DEFAULT_SEED:
        return None
    return json.loads((BENCH / "digests.json").read_text())["workloads"][workload]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(cells_, seconds, expected):
    from cells import failures, setup_contexts
    contexts = setup_contexts(cells_)
    setups = setup_times(contexts)
    passes, times = timed_passes(cells_, seconds, min_passes=2)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = failures(passes, expected)
    attempted = len(cells_) * len(passes)
    cell_s = {r.label: statistics.median(p[i].seconds for p in passes)
              for i, r in enumerate(passes[0])}
    slowest = max(cell_s, key=cell_s.get)
    metrics = {
        "pass_s": metric(statistics.median(times), "s"),
        "slowest_cell_s": metric(cell_s[slowest], "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    details = {
        "pass_s": {**tail(times), "samples": times},
        "cell_s": tail([r.seconds for p in passes for r in p]),
        "cell_median_s": cell_s, "slowest_cell": slowest,
        "setup_s": {**tail(setups), "samples": setups, "contexts": contexts},
        "fail_ratio": len(failed) / attempted, "failures": failed[:20],
    }
    return not failed, attempted, len(failed), metrics, details


def _layer_spec():
    return json.loads((BENCH / "layers.json").read_text())


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in order."""
    spec = _layer_spec()
    names = [f"{f}.{k}" for f in spec["functions"] for k in ("calls", "self_s")]
    names += list(spec["ratios"]) + ["domain.mul_fill"]
    names += [f"{f}.pass_share" for f in spec["pass_share"]["functions"]]
    return names + ["trace.overhead_s", "trace.overhead_ratio"]


def traced_run(cells_, seconds, expected, workload, seed):
    from cells import failures, run_cell, run_pass, setup_contexts
    from tracer import Tracer, bindings
    spec = _layer_spec()
    functions = list(spec["functions"])
    ratios = spec["ratios"]
    fill = [0, 0]  # output terms, products of input term counts

    built = set()  # (p, e, N) of every context the cells build

    def observe_mul(args, result):
        fill[0] += len(result.terms)
        fill[1] += len(args[0].terms) * len(args[1].terms)

    def observe_context(args, result):
        built.add((result.p, result.e, result.N))

    problems = []
    gc.collect()
    t0 = time.perf_counter()
    reference = run_pass(cells_)
    untraced_s = time.perf_counter() - t0

    before = bindings()
    tracer = Tracer(skip_classes=UNTRACED_CLASSES, leaf_names=LEAVES,
                    span_names=[f for f in functions if f not in NO_SPANS],
                    under=[(r["child"], r["ancestor"]) for r in ratios.values()],
                    observers={"domain.DomainFunc.mul": observe_mul,
                               "padics.make_context": observe_context})
    snaps = []

    def between(n):
        snaps.append((tracer.snapshot(), tuple(fill)))

        def on_cell(i):
            tracer.request = f"{n}:{i}"
        return on_cell

    tracer.install()
    try:
        passes, times = timed_passes(cells_, seconds - untraced_s, min_passes=1,
                                     between=between)
        snaps.append((tracer.snapshot(), tuple(fill)))
    finally:
        tracer.restore()
    after = bindings()
    if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append("restore: package attributes differ from before tracing")
    if tracer.leaf_violations:
        problems.append(f"{tracer.leaf_violations} traced calls inside a LEAVES function")
    if built != set(setup_contexts(cells_)):
        problems.append(f"setup_s builds {setup_contexts(cells_)}, the cells build {sorted(built)}")
    missing = [f for f in functions if f not in tracer.names()]
    if missing:
        problems.append(f"not traced (renamed or removed?): {missing}")

    # The lightest cell again, untraced: its bytes must match the first pass.
    light = min(range(len(cells_)), key=lambda i: reference[i].seconds)
    recheck = run_cell(cells_[light])
    failed = failures([reference] + passes, expected)
    failed += [f"after restore: {f}" for f in failures([[recheck]], None, [reference[light]])]
    attempted = len(cells_) * (1 + len(passes)) + 1

    per_pass = []
    for (a, fa), (b, fb) in zip(snaps, snaps[1:]):
        per_pass.append({
            "calls": {k: b["calls"][k] - a["calls"].get(k, 0) for k in b["calls"]},
            "self_s": {k: b["self_s"][k] - a["self_s"].get(k, 0.0) for k in b["self_s"]},
            "incl_s": {k: b["incl_s"][k] - a["incl_s"].get(k, 0.0) for k in b["incl_s"]},
            "under": {k: b["under"][k] - a["under"][k] for k in b["under"]},
            "fill": (fb[0] - fa[0], fb[1] - fa[1]),
        })
    first = per_pass[0]
    if any(p["calls"] != first["calls"] or p["under"] != first["under"] for p in per_pass[1:]):
        problems.append("call counts differ between traced passes")

    def med(key, name):
        return statistics.median(p[key].get(name, 0.0) for p in per_pass)

    calls = first["calls"]
    metrics = {}
    for f in functions:
        metrics[f"{f}.calls"] = metric(calls.get(f, 0), "count")
        metrics[f"{f}.self_s"] = metric(med("self_s", f), "s")
    for name, r in ratios.items():
        base = calls.get(r["ancestor"], 0)
        metrics[name] = metric(
            first["under"][(r["child"], r["ancestor"])] / base if base else 0.0, "ratio")
    out_terms, products = first["fill"]
    metrics["domain.mul_fill"] = metric(out_terms / products if products else 0.0, "ratio")
    traced_s = statistics.median(times)
    for f in spec["pass_share"]["functions"]:
        metrics[f"{f}.pass_share"] = metric(
            statistics.median(p["incl_s"].get(f, 0.0) / t for p, t in zip(per_pass, times)),
            "ratio")
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = metric((traced_s - untraced_s) / untraced_s, "ratio")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(tracer.spans_json(), separators=(",", ":")))
    details = {
        "untraced_pass_s": untraced_s, "traced_pass_s": times,
        "all_calls": {k: v for k, v in sorted(calls.items()) if v},
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
        "trace_problems": problems, "failures": failed[:20],
        "fail_ratio": len(failed) / attempted,
    }
    return not failed and not problems, attempted, len(failed), metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env_start = environment()
    _import_package()
    from cells import WORKLOADS, make_cells
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cells_ = make_cells(args.workload, args.seed)
    expected = load_digests(args.workload, args.seed)
    if args.trace:
        result = traced_run(cells_, args.seconds, expected, args.workload, args.seed)
    else:
        result = untraced_run(cells_, args.seconds, expected)
    correct, attempted, failed, metrics, details = result

    env_end = environment()
    loaded = max(env_start["loadavg_1m"], env_end["loadavg_1m"]) > env_start["nproc"]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": {**env_start, "loadavg_1m_end": env_end["loadavg_1m"],
                               "loaded": loaded},
               **details}
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if loaded:
        print("bench: load average exceeded nproc during this run", file=sys.stderr)
    for f in details.get("failures", []) + details.get("trace_problems", []):
        print(f"bench: FAIL {f}", file=sys.stderr)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
