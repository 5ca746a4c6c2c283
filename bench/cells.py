"""Workloads of the padiclt benchmark and how one pass over them runs.

A cell is one experiment config, run through ``experiments.run`` and then
``emit(report, "json")``, exactly what one ``padiclt run`` does.  Each
workload is a fixed list of cells; the benchmark seed only moves the
experiment seeds, so the program receives ordinary configs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from padiclt import experiments

DEFAULT_SEED = 0
SEED_STRIDE = 1000  # experiment seed = acceptance-suite offset + SEED_STRIDE * seed

# (experiment, config fields, seed offset as in tests/test_acceptance.py)
WORKLOADS: dict[str, list[tuple[str, dict, int]]] = {
    "action": [
        ("dheq-vs-matrix", dict(h=3, p=3, N=8), 2),
        ("action-law", dict(h=3, p=5, N=32), 3),
        ("contraction", dict(h=3, p=3), 8),
        ("dist-norms", dict(h=3, p=3), 10),
    ],
    "lie-kernel": [
        ("kernels", dict(h=4, p=3), 1),
        ("kernels", dict(h=3, p=5, N=32), 1),
        ("lie-bracket", dict(h=4, p=3), 1),
        ("fn-sequence", dict(h=3, p=3, Dmax=12), 5),
        ("reachability", dict(h=4, p=3), 1),
        ("lf-diagnostic", dict(h=4, p=3), 7),
        ("lie-weights", dict(h=4, p=3), 1),
    ],
    "formal": [
        ("formal-group-axioms", dict(h=2, p=2), 9),
        ("formal-group-axioms", dict(h=2, p=3), 9),
        ("level-structure", dict(h=1, e=1, p=7), 1),
        ("j-homomorphism", dict(h=4, p=3, N=8), 1),
        ("j-homomorphism", dict(h=3, p=5, N=32), 1),
        ("logarithm", dict(h=2, p=5), 1),
        ("height", dict(h=2, p=2), 1),
        ("gm-identities", dict(h=2, p=2, Dmax=12), 1),
        ("endomorphism-frobenius", dict(h=2, p=2), 1),
        ("period-convergence", dict(h=3, p=2, nmax=6), 1),
    ],
}

# Experiments that build no unramified context, and those that build one at
# a precision other than the config's N.
_NO_CONTEXT = {"formal-group-axioms", "gm-identities", "logarithm", "height",
               "level-structure", "period-convergence"}
_CONTEXT_N = {"endomorphism-frobenius": 1}


def make_cells(workload: str, seed: int) -> list[experiments.ExperimentConfig]:
    return [experiments.ExperimentConfig(name, seed=offset + SEED_STRIDE * seed, **fields)
            for name, fields, offset in WORKLOADS[workload]]


def label(cfg: experiments.ExperimentConfig) -> str:
    """Seed-free name of a cell, e.g. ``kernels(p=3,h=4,N=8)``."""
    return f"{cfg.experiment}(p={cfg.p},h={cfg.h},N={cfg.N})"


def setup_contexts(cells) -> list[tuple[int, int, int]]:
    """Every distinct (p, e, N) that make_context builds for these cells."""
    out = {(c.p, c.h, _CONTEXT_N.get(c.experiment, c.N))
           for c in cells if c.experiment not in _NO_CONTEXT}
    return sorted(out)


def checks_digest(report) -> str:
    """Digest of the (check_id, measured, passed) list of a report.

    It leaves out ``config`` and ``inputs_digest``, so a change to the
    config schema does not change it.
    """
    rows = [[c["check_id"], c["measured"], c["passed"]]
            for c in report.to_json_obj()["checks"]]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CellResult:
    label: str
    seconds: float
    passed: bool
    blob: bytes = b""
    digest: str = ""
    error: str = ""


def run_cell(cfg: experiments.ExperimentConfig) -> CellResult:
    """Run one cell; an exception is a failed cell, not a failed run.

    ``run`` and ``emit`` are looked up on the module at call time, so a
    tracer that rebinds them sees the call.
    """
    t0 = time.perf_counter()
    try:
        report = experiments.run(cfg)
        blob = experiments.emit(report, "json")
    except Exception as exc:  # the run goes on; the cell counts as failed
        return CellResult(label(cfg), time.perf_counter() - t0, False,
                          error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return CellResult(label(cfg), seconds, report.passed, blob, checks_digest(report))


def run_pass(cells, on_cell=None) -> list[CellResult]:
    """One closed-loop pass: each cell starts when the previous one ended."""
    results = []
    for i, cfg in enumerate(cells):
        if on_cell is not None:
            on_cell(i)
        results.append(run_cell(cfg))
    return results


def failures(passes: list[list[CellResult]], expected: dict[str, str] | None,
             reference: list[CellResult] | None = None) -> list[str]:
    """Why each failed cell failed, one entry per failed cell per pass.

    A cell fails if it raised, if a check did not pass, if its digest differs
    from ``expected`` (label -> digest, when given), or if its report bytes
    differ from the same cell in ``reference`` (default: the first pass).
    """
    reference = reference if reference is not None else passes[0]
    out = []
    for n, results in enumerate(passes):
        for i, r in enumerate(results):
            where = f"pass {n} cell {i} {r.label}"
            if r.error:
                out.append(f"{where}: raised {r.error}")
            elif not r.passed:
                out.append(f"{where}: a check did not pass")
            elif expected is not None and expected.get(f"{i}:{r.label}") != r.digest:
                out.append(f"{where}: digest {r.digest} != recorded "
                           f"{expected.get(f'{i}:{r.label}')}")
            elif reference[i].blob and r.blob != reference[i].blob:
                out.append(f"{where}: report bytes differ from the reference pass")
    return out
