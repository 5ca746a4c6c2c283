#!/usr/bin/env python3
"""Time single layers of the stack at pinned sizes.

Usage, from the repository root:

    python3 scripts/bench_layers.py [--k 5] [--out layers.json]

Each layer below runs k times on fixed, seeded inputs that are built before
the clock starts; the figure kept is the median of the k time.perf_counter
durations, in seconds.  The JSON object printed to standard output (and
written to --out) also records the Python version and nproc, since the
figures only compare on one machine.  The script only times: it has no
threshold and fails on no figure.

    series.TruncSeries.mul  F * F for the working group law F of
                            lt_construct(7, 7X + X^7, Dmax=38, N=8)
    formal.lt_construct     lt_construct(3, 3X + X^3, Dmax=20, N=8)
    formal.lt_construct_level
                            lt_construct(7, 7X + X^7, Dmax=38, N=6), the group law
                            of level-structure at p = 7
    formal.lt_construct_p343
                            lt_construct(7, 7X + X^343, Dmax=347, N=6), where f has
                            one sparse high term: the powers of the induction must
                            follow an addition chain of 343, not run through 2..343
    series.compose_univariate
                            [5]([7](X)) for gm_module(3, Dmax=40, N=8)
    series.substitute_two   F(F(X, Y), Z) for the group law F of
                            lt_construct(2, 2X + X^4, Dmax=20, N=8), the
                            associativity side of formal-group-axioms
    domain.DomainFunc.mul   two dense random functions, (p, h, N) = (5, 3, 8), Dmax=10
    domain.gamma_act        a Gamma_1 element on a dense random function,
                            (p, h, N) = (3, 3, 8), Dmax=6
    domain.gamma_act_h4     the same at (p, h, N) = (3, 4, 8), Dmax=6, where the
                            Horner scheme of the substitution has a middle level
    domain.den_power        den^(-8) for the denominator of a Gamma_1 element,
                            (p, h, N) = (3, 3, 8), Dmax=6 (action-law's s = -2, D = 6)
    linalg.kernel_basis     the rows {source column: k}, one per (operator, target), that
                            lie_table gives x_01, x_02 at (p, h, N) = (3, 3, 8), Dmax=8
                            (criterion 12's n-row kernel, solved by elimination)
    domain.operator_kernel  the whole operator_kernel for x_01, x_02, x_03 at
                            (p, h, N) = (3, 4, 8), Dmax=8 (criterion 12's largest system)
    padics.frobenius        8,000 calls sigma^k(a), k in (1, 2, 3, 1), at (p, e, N) = (3, 4, 8)
    padics.make_context     the contexts (p, e, N) = (3, 3, 8), (3, 4, 8), (5, 3, 32) and
                            (2, 2, 1), the ones bench/run.py's setup_s builds over its
                            three workloads
    domain.lie_act          all 16 operators x_ij on a dense random section of twist 2,
                            (p, h, N) = (3, 4, 8), Dmax=7
    domain.reach_span       the lf-diagnostic ladder Dmax = 6, 8, 10 from w_1^3 at twist 2,
                            (p, h, N) = (3, 4, 8), the growing case of outside-Vs-grows
    divalg.nrd              20 reduced norms of random units, (p, h, N) = (3, 4, 8)
    linalg.determinant      5 determinants of embedded random units, (p, h, N) = (2, 6, 8),
                            where the packed subset expansion has 64 states
    linalg.determinant_h8   the same at (p, h, N) = (2, 8, 8): 256 states, past the size
                            up to which the minors stay unreduced
    divalg.j_embed          20 embeddings of random units, (p, h, N) = (3, 4, 8)
    divalg.mat_mul          20 products j(a) j(b) of embedded random units, (p, h, N) = (3, 4, 8)
    divalg.div_mul          20 products a b of random units, (p, h, N) = (3, 4, 8)
    divalg.div_inv          20 inverses of random units, (p, h, N) = (3, 4, 8)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from padiclt import domain  # noqa: E402
from padiclt.divalg import div_inv, div_mul, j_embed, mat_mul, nrd, sample_gamma  # noqa: E402
from padiclt.formal import gm_module, lt_construct  # noqa: E402
from padiclt.linalg import determinant, kernel_basis  # noqa: E402
from padiclt.padics import frobenius, make_context  # noqa: E402
from padiclt.series import TruncSeries, compose_univariate, series_var, substitute_two  # noqa: E402


def _truncseries_mul():
    F = lt_construct(7, {1: 7, 7: 1}, 38, 8).work_series()[1]
    return lambda: F.mul(F)


def _lt_construct(p: int = 3, q: int = 3, dmax: int = 20, N: int = 8):
    return lambda: lt_construct(p, {1: p, q: 1}, dmax, N)


def _compose_univariate():
    G = gm_module(3, 40, 8)
    f, g = G.mult(5), G.mult(7)
    return lambda: compose_univariate(f, g)


def _substitute_two():
    F = lt_construct(2, {1: 2, 4: 1}, 20, 8).F
    u = TruncSeries(F.ring, 3, 20, {(a, b, 0): c for (a, b), c in F.terms.items()})
    z = series_var(F.ring, 3, 20, 2)
    return lambda: substitute_two(F, u, z)


def _domainfunc_mul():
    ctx = make_context(5, 3, 8)
    rng = random.Random(0)
    f, g = (domain.random_domain_func(ctx, 3, 10, rng) for _ in range(2))
    return lambda: f.mul(g)


def _gamma_act(h: int = 3):
    ctx = make_context(3, h, 8)
    rng = random.Random(1)
    gamma = sample_gamma(ctx, 1, rng)
    f = domain.random_domain_func(ctx, h, 6, rng)
    return lambda: domain.gamma_act(gamma, f)


def _den_power():
    ctx = make_context(3, 3, 8)
    mat = domain._gamma_matrix(sample_gamma(ctx, 1, random.Random(1)))
    den = domain.DomainFunc(ctx, 3, 6, {(0, 0): mat[0][0], (1, 0): mat[1][0],
                                        (0, 1): mat[2][0]})
    return lambda: domain._den_power(den, -8)


def _kernel_basis():
    ctx = make_context(3, 3, 8)
    exps = domain.monomials(3, 8)
    col_of = {e: k for k, e in enumerate(exps)}
    table = domain.lie_table(0, [(0, 1), (0, 2)], exps, 9, ctx.p ** ctx.N)
    rows = {(*op, b): {col_of[a]: ctx.from_int(k)}
            for (op, a), img in table.items() for b, k in img.items()}
    args = ([rows[key] for key in sorted(rows)], len(exps), ctx, ctx.N)
    return lambda: kernel_basis(*args)


def _operator_kernel():
    ctx = make_context(3, 4, 8)
    return lambda: domain.operator_kernel(ctx, 4, [(0, 1), (0, 2), (0, 3)], 0, 8)


def _frobenius():
    ctx = make_context(3, 4, 8)
    rng = random.Random(2)
    xs = [ctx.random_element(rng) for _ in range(2000)]

    def run():
        for x in xs:
            for k in (1, 2, 3, 1):
                frobenius(x, k)
    return run


def _make_context():
    return lambda: [make_context(*c) for c in ((3, 3, 8), (3, 4, 8), (5, 3, 32), (2, 2, 1))]


def _lie_act():
    ctx = make_context(3, 4, 8)
    x = domain.Section(domain.random_domain_func(ctx, 4, 7, random.Random(3)), 2)
    return lambda: [domain.lie_act(i, j, x) for i in range(4) for j in range(4)]


def _reach_span():
    x = domain.monomial_section(make_context(3, 4, 8), 4, 12, (3, 0, 0), 2)
    return lambda: [domain.reach_span(x, dmax) for dmax in (6, 8, 10)]


def _units(p: int = 3, h: int = 4, count: int = 20):
    ctx = make_context(p, h, 8)
    rng = random.Random(4)
    return [sample_gamma(ctx, 0, rng) for _ in range(count)]


def _nrd():
    units = _units()
    return lambda: [nrd(a) for a in units]


def _determinant(h: int = 6):
    units = _units(2, h, 5)
    mats = [(j_embed(a), a.ctx) for a in units]
    return lambda: [determinant(m, ctx) for m, ctx in mats]


def _j_embed():
    units = _units()
    return lambda: [j_embed(a) for a in units]


def _mat_mul():
    mats = [j_embed(a) for a in _units()]
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    return lambda: [mat_mul(A, B) for A, B in pairs]


def _div_mul():
    units = _units()
    pairs = list(zip(units, units[1:] + units[:1]))
    return lambda: [div_mul(a, b) for a, b in pairs]


def _div_inv():
    units = _units()
    return lambda: [div_inv(a) for a in units]


LAYERS = {
    "series.TruncSeries.mul": _truncseries_mul,
    "formal.lt_construct": _lt_construct,
    "formal.lt_construct_level": lambda: _lt_construct(7, 7, 38, 6),
    "formal.lt_construct_p343": lambda: _lt_construct(7, 343, 347, 6),
    "series.compose_univariate": _compose_univariate,
    "series.substitute_two": _substitute_two,
    "domain.DomainFunc.mul": _domainfunc_mul,
    "domain.gamma_act": _gamma_act,
    "domain.gamma_act_h4": lambda: _gamma_act(4),
    "domain.den_power": _den_power,
    "linalg.kernel_basis": _kernel_basis,
    "domain.operator_kernel": _operator_kernel,
    "padics.frobenius": _frobenius,
    "padics.make_context": _make_context,
    "domain.lie_act": _lie_act,
    "domain.reach_span": _reach_span,
    "divalg.nrd": _nrd,
    "linalg.determinant": _determinant,
    "linalg.determinant_h8": lambda: _determinant(8),
    "divalg.j_embed": _j_embed,
    "divalg.mat_mul": _mat_mul,
    "divalg.div_mul": _div_mul,
    "divalg.div_inv": _div_inv,
}


def median_time(fn, k: int) -> float:
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=5, help="timed runs per layer (median kept)")
    ap.add_argument("--out", type=Path, help="also write the JSON object here")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("--k must be at least 1")
    report = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "k": args.k,
        "median_s": {name: median_time(build(), args.k) for name, build in LAYERS.items()},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
