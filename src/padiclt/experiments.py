"""Seeded verification experiments and their report records.

Each experiment is a function of an ExperimentConfig that adds its check
records to the recorder `run` gives it; reports serialize deterministically
(timings are kept out of the byte stream unless explicitly requested).  The
acceptance suite runs the same experiments with pinned configurations.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import divalg, dist, domain, formal, periods, series
from .divalg import (
    div_mul, div_one, j_embed, mat_eq, mat_mul, nrd, sample_gamma, sample_obh,
)
from .domain import (
    DomainFunc, Section, contraction_profile, domain_const, domain_monomial,
    domain_var, fn_sequence, gamma_act, in_parabolic, lf_diagnostic, lie_act,
    lie_finite_difference, lie_table, monomial_section, monomials, operator_kernel, p_act,
    random_domain_func, reach_span,
)
from .linalg import determinant
from .padics import (
    _PRIME_BOUND, _is_prime, _vp, make_context, scalar_inv, scalar_mul, scalar_sub,
)
from .series import IntModRing, TruncSeries, UnramRing, compose_univariate, series_var, substitute_two


class ConfigInvalidError(ValueError):
    """A config the experiments cannot run: unknown name, wrong type, out of
    domain, or beyond a size budget."""


SCHEMA_VERSION = 1

# Size budgets, each stated with the size it bounds in EXPERIMENTS; times
# are with Python 3.11 on a 2-vCPU x86-64 host.
LIE_BRACKET_TRIALS = 200_000   # h = 5: 157,500 trials; h = 6: 653,184
KERNEL_COLUMNS = 1_000         # h = 5: 495 columns in about 0.01 s; h = 6: 1,287 in 0.02 s
LIE_WEIGHT_CALLS = 160_000     # h = 10: 150,150 calls in about 0.8 s; h = 11: 264,264
LF_MONOMIALS = 10_000          # h = 7: 8,008 in about 0.3 s; h = 8: 19,448 in 0.8 s
DIFFERENCE_DIGITS = 3_000      # N = 8: h = 5 has 2,800 in about 1 s, h = 6 6,048 in 3 s
FN_STEPS = 40_000              # Dmax = 8: h = 7 makes 37,752 in about 0.7 s; h = 8 70,785
# at N = 8, h <= 5 fits dheq-vs-matrix, action-law and vs-stability, h <= 4
# fits contraction and dist-norms, and action-law at h = 2 fits N <= 68
ACTION_DIGITS = 20_000
# the determinant behind Nrd has 2^h subset states, each a minor of h
# coordinates of N digits; at N = 8, h <= 8 fits j-homomorphism
NRD_DIGITS = 20_000
LEVEL_DEGREE = 80  # p = 13 gives 74, p = 17 gives 98
# height fits p <= 7, endomorphism-frobenius p = 2 to h = 8 and p = 7 to h = 3
FORMAL_DEGREE = 400
# h = 2 fits nmax <= 21 (about 0.6 s), h = 3 fits nmax <= 17
PERIOD_TERMS = 50_000
# the precision N of the experiments with no other budget that grows with N;
# at p = 3, h = 3, N = 4,000 formal-group-axioms takes 0.7 to 0.9 s and each
# other one at most 0.16 s (fn-sequence); at N = 8,000, 2.2 s and 0.38 s
WORKING_PRECISION = 4_000
# p^h goes into formal-group-axioms' digest and report as a decimal integer,
# and Python writes at most 4,300 digits; p = 2 fits h <= 13,287 (0.06 s)
POWER_DIGITS = 4_000


@dataclass
class ExperimentConfig:
    experiment: str
    p: int = 5
    h: int = 2
    e: int | None = None
    N: int = 8
    Dmax: int = 8
    nmax: int = 6
    seed: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.e is None:
            self.e = self.h

    def validate(self) -> None:
        if not isinstance(self.experiment, str) or not isinstance(self.out, (str, type(None))):
            raise ConfigInvalidError("experiment and out must be strings")
        for name in ("p", "h", "e", "N", "Dmax", "nmax", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigInvalidError(f"{name} must be an integer, got {value!r}")
        if self.p >= _PRIME_BOUND:
            raise ConfigInvalidError(
                f"p = {self.p} is beyond the primality test's budget p < {_PRIME_BOUND}")
        if not _is_prime(self.p):
            raise ConfigInvalidError(f"p = {self.p} is not prime")
        if self.h < 1 or self.N < 1 or self.Dmax < 1 or self.nmax < 0:
            raise ConfigInvalidError("bounds must be positive")
        if self.e < self.h:
            raise ConfigInvalidError("need coefficient degree e >= h")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "ExperimentConfig":
        known = {k: v for k, v in d.items() if k in ExperimentConfig.__dataclass_fields__}
        unknown = set(d) - set(known)
        if unknown:
            raise ConfigInvalidError(f"unknown config fields: {sorted(unknown)}")
        try:
            return ExperimentConfig(**known)
        except TypeError as exc:
            raise ConfigInvalidError(str(exc)) from exc


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    inputs_digest: str
    measured: object
    passed: bool
    runtime_ms: float = 0.0


@dataclass
class Report:
    experiment: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self, with_timings: bool = False) -> dict:
        checks = [dict(vars(c)) for c in self.checks]
        if not with_timings:
            for d in checks:
                del d["runtime_ms"]
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "passed": self.passed,
            "checks": checks,
        }


def _digest(cfg: ExperimentConfig, check_id: str, **extra) -> str:
    payload = {"config": cfg.to_json(), "check": check_id, **extra}
    payload["config"].pop("out", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Recorder:
    """The check records of one run.  A record's runtime runs from the end of
    the previous record, the first one's from the recorder's creation, so the
    runtimes add up to the experiment's time."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.records: list[CheckRecord] = []
        self._end = time.perf_counter()

    def add(self, check_id: str, anchor: str, passed: bool, measured, **extra):
        """Record one check; `extra` goes into its inputs digest."""
        digest = _digest(self.cfg, check_id, **extra)
        start, self._end = self._end, time.perf_counter()
        self.records.append(CheckRecord(
            check_id, anchor, digest, measured, bool(passed),
            round((self._end - start) * 1000, 3)))

    def tally(self, check_id: str, anchor: str, verdicts, count: str = "trials",
              minimum: int = 1, **measured):
        """Record a check from its per-trial verdicts as {count: how many, "ok":
        how many hold, **measured}; it passes only when at least
        max(minimum, 1) verdicts were counted and every one holds."""
        verdicts = [bool(v) for v in verdicts]
        ok = sum(verdicts)
        self.add(check_id, anchor, len(verdicts) >= max(minimum, 1) and ok == len(verdicts),
                 {count: len(verdicts), "ok": ok, **measured})


def _vp_factorial(n: int, p: int) -> int:
    """v_p(n!) = sum_k floor(n / p^k), by Legendre's formula."""
    return sum(n // p ** k for k in range(1, n.bit_length() + 1))


def _period_terms(cfg: ExperimentConfig) -> int:
    """T_0 + ... + T_nmax, where a_n of period-convergence has at most
    T_n = T_(n-1) + ... + T_(n-h) monomials (T_0 = 1; the Fibonacci numbers
    at h = 2); the sum stops once it passes PERIOD_TERMS."""
    counts = [1]
    while len(counts) <= cfg.nmax and sum(counts) <= PERIOD_TERMS:
        counts.append(sum(counts[-cfg.h:]))
    return sum(counts)


def _action_digits(cfg: ExperimentConfig, degree: int) -> int:
    """p-adic digits of a function of total degree <= `degree`: C(h-1+degree, h-1)
    monomials, each of e = h coordinates of N digits; the cost of the
    substitution action grows with both the count and the width."""
    return math.comb(cfg.h - 1 + degree, cfg.h - 1) * cfg.h * cfg.N


# ---------------------------------------------------------------- experiments

def exp_j_homomorphism(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """j and Nrd = det j multiplicative on 200 pairs; Nrd = 1 mod p^n on Gamma_n.

    j(a), j(b) and j(ab) are built once per pair and give both checks; only
    the three determinants are kept, so the time of j-multiplicative includes
    them and nrd-multiplicative times only the comparisons.
    """
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    verdicts, norms = [], []
    for _ in range(200):
        a = sample_gamma(ctx, 0, rng)
        b = sample_gamma(ctx, 0, rng)
        ja, jb, jab = j_embed(a), j_embed(b), j_embed(div_mul(a, b))
        verdicts.append(mat_eq(jab, mat_mul(ja, jb)))
        norms.append((determinant(ja, ctx), determinant(jb, ctx), determinant(jab, ctx)))
    rec.tally("j-multiplicative", "j(ab) = j(a) j(b) in the frozen order", verdicts, "pairs")
    rec.tally("nrd-multiplicative", "Nrd(ab) = Nrd(a) Nrd(b) via det of j",
              [nab == scalar_mul(na, nb) for na, nb, nab in norms], "pairs")

    def congruent(n):
        v = scalar_sub(nrd(sample_gamma(ctx, n, rng)), ctx.one()).valuation()
        return v is None or v >= n
    rec.tally("nrd-congruence", "Nrd(1 + p^n u) = 1 mod p^n",
              [congruent(n) for n in (1, 2, 3) for _ in range(20)])


def _matrix_oracle_gens(gamma, ctx, h, dmax):
    """Independent route: substituted generators read off the embedded matrix
    as column series (w . j(gamma))_i / (w . j(gamma))_0."""
    mat = j_embed(gamma)
    cols = []
    for c in range(h):
        terms = {tuple([0] * (h - 1)): mat[0][c]}
        for r in range(1, h):
            e = [0] * (h - 1)
            e[r - 1] = 1
            terms[tuple(e)] = mat[r][c]
        cols.append(DomainFunc(ctx, h, dmax, terms))
    c0 = cols[0].coeff(tuple([0] * (h - 1)))
    c0i = scalar_inv(c0)
    one = domain_const(ctx, h, dmax, ctx.one())
    neg_eps = one.sub(cols[0].scale(c0i))
    inv = one
    pw = one
    for _ in range(dmax):
        pw = pw.mul(neg_eps)
        if pw.is_zero_at_precision():
            break
        inv = inv.add(pw)
    inv = inv.scale(c0i)
    return [cols[i].mul(inv) for i in range(1, h)]


def exp_dheq_vs_matrix(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """gamma(w_i) against the embedded matrix, and the P-action on 50 members of P."""
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    verdicts = []
    for _ in range(50):
        g = sample_gamma(ctx, 0, rng)
        oracle = _matrix_oracle_gens(g, ctx, cfg.h, 6)
        verdicts += [gamma_act(g, domain_var(ctx, cfg.h, 6, i)).eq(oracle[i - 1])
                     for i in range(1, cfg.h)]
    rec.tally("dheq-matches-matrix",
              "gamma(w_i) = (w j(gamma))_i / (w j(gamma))_0 as series", verdicts)

    def restricts():
        g = sample_gamma(ctx, 0, rng)
        f = random_domain_func(ctx, cfg.h, 5, rng)
        return p_act(j_embed(g), f).eq(gamma_act(g, Section(f, 0)).func)
    rec.tally("p-action-restricts",
              "a(w_i) substitution along j agrees with the gamma action",
              [restricts() for _ in range(20)])

    verdicts = []
    for k in range(50):
        # half the sample from the embedded unit group, half generic in P
        a = j_embed(sample_gamma(ctx, 0, rng)) if k % 2 else \
            domain.sample_parabolic(ctx, cfg.h, rng)
        if in_parabolic(a, cfg.p):
            verdicts += [p_act(a, wi).gauss_valuation() == wi.gauss_valuation()
                         for wi in (domain_var(ctx, cfg.h, 6, i) for i in range(1, cfg.h))]
    rec.tally("p-action-norms", "||a(w_i)||_D = ||w_i||_D on 50 members of P",
              verdicts, minimum=50 * (cfg.h - 1))


def exp_action_law(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """gamma(gamma'(x)) = (gamma gamma')(x) and ||gamma(x)||_D = ||x||_D."""
    dmax = 6
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)

    verdicts, floor_seen = [], None
    for s in (-2, 0, 3):
        for _ in range(4):
            g1 = sample_gamma(ctx, 0, rng)
            g2 = sample_gamma(ctx, 0, rng)
            x = Section(random_domain_func(ctx, cfg.h, dmax, rng), s)
            d = gamma_act(g1, gamma_act(g2, x)).sub(gamma_act(div_mul(g1, g2), x))
            v = None if d.is_zero_at_precision() else d.gauss_valuation()
            if v is not None:
                floor_seen = v if floor_seen is None else min(floor_seen, v)
            verdicts.append(v is None or v > dmax)
    rec.tally("law-mod-truncation",
              "gamma(gamma'(x)) = (gamma gamma')(x) modulo the weight-Dmax ideal",
              verdicts, min_defect_weight=floor_seen)

    # elevated degree budget: low degrees agree exactly at full precision
    if cfg.h == 2:
        W = cfg.h * cfg.N + (cfg.h - 1) * dmax
        verdicts = []
        for s in (-2, 0, 3):
            for _ in range(2):
                g1 = sample_gamma(ctx, 0, rng)
                g2 = sample_gamma(ctx, 0, rng)
                f = random_domain_func(ctx, cfg.h, dmax, rng)
                x = Section(DomainFunc(ctx, cfg.h, W, dict(f.terms)), s)
                d = gamma_act(g1, gamma_act(g2, x)).sub(gamma_act(div_mul(g1, g2), x))
                verdicts.append(all(sum(e) > dmax for e in d.func.terms))
        rec.tally("law-exact-low-degrees",
                  "composition exact mod p^N to degree 6 at elevated budget",
                  verdicts, budget=W)

    def preserved(s):
        g = sample_gamma(ctx, 0, rng)
        x = Section(random_domain_func(ctx, cfg.h, 4, rng), s)
        return gamma_act(g, x).gauss_valuation() == x.gauss_valuation()
    rec.tally("norm-preservation", "||gamma(x)||_D = ||x||_D",
              [preserved(s) for s in (-2, 0, 3) for _ in range(6)])


def exp_lie_weights(cfg: ExperimentConfig, rec: _Recorder) -> None:
    ctx = make_context(cfg.p, cfg.h, cfg.N)

    def weighted(x, e, s):
        return lie_act(0, 0, x).func.eq(x.func.scale_int(s - sum(e))) and all(
            lie_act(i, i, x).func.eq(x.func.scale_int(e[i - 1])) for i in range(1, cfg.h))
    rec.tally("diagonal-weights", "x_00(w^a phi^s) = (s-|a|) w^a phi^s and x_ii -> a_i",
              [weighted(monomial_section(ctx, cfg.h, 8, e, s), e, s)
               for s in (0, 1, 3) for e in monomials(cfg.h, 6)], "monomials")

    killed = all(
        lie_act(0, j, monomial_section(ctx, cfg.h, 6, (0,) * (cfg.h - 1), s))
        .is_zero_at_precision()
        for j in range(1, cfg.h) for s in (0, 1, 3))
    rec.add("n-kills-highest-weight", "upper operators annihilate phi_0^s",
            killed, {})


def _add_scaled(out: dict, f: dict, k: int, pn: int) -> None:
    """out += k f for {monomial: integer mod pn} dicts, dropping what cancels."""
    for b, c in f.items():
        c = (out.get(b, 0) + k * c) % pn
        if c:
            out[b] = c
        else:
            out.pop(b, None)


def exp_lie_bracket(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """[x_ij, x_kl] = d_jk x_il - d_li x_kj on the monomial sections of degree <= 5.

    Every operator is a monomial map with integer multipliers, so for each
    twist domain.lie_table gives each operator's image of each monomial that
    occurs (degree <= 5, and their images) as {monomial: integer mod p^N}.
    The images x_b(x) are table entries, and x_a(x_b(x)) is the entry of x_a
    on each term of x_b(x) scaled by its integer, taken for each unordered
    pair {a, b}.  Every section here is a monomial at precision N, so the
    identity is checked exactly with its negative terms moved across:
    x_a x_b x + d_li x_kj x = x_b x_a x + d_jk x_il x.  The trial (b, a) is the
    same equation with its sides swapped, so one comparison decides both.
    """
    h = cfg.h
    ops = [(i, j) for i in range(h) for j in range(h)]
    exps = monomials(h, 5)
    pn = cfg.p ** cfg.N
    verdicts = []
    for s in (0, 2):
        table = lie_table(s, ops, exps, 7, pn)
        images = {b for img in table.values() for b in img}
        table.update(lie_table(s, ops, images.difference(exps), 7, pn))

        def act(op, f):
            out = {}
            for b, k in f.items():
                _add_scaled(out, table[op, b], k, pn)
            return out

        for e in exps:
            first = {b: table[b, e] for b in ops}
            for n, a in enumerate(ops):
                for b in ops[n:]:
                    (i, j), (k, l) = a, b
                    ab = act(a, first[b])
                    ba = act(b, first[a]) if b != a else dict(ab)
                    if l == i:
                        _add_scaled(ab, first[k, j], 1, pn)
                    if j == k:
                        _add_scaled(ba, first[i, l], 1, pn)
                    verdicts += [ab == ba] * (1 if b == a else 2)
    rec.tally("gl-bracket", "[x_ij, x_kl] = d_jk x_il - d_li x_kj on sections", verdicts)


def exp_finite_difference(cfg: ExperimentConfig, rec: _Recorder) -> None:
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    # measured pre-build: the defect gains exactly h units of v(p)/h per step
    step_floor = cfg.h
    verdicts, min_step = [], None
    for _ in range(20):
        delta = sample_obh(ctx, rng)
        f = random_domain_func(ctx, cfg.h, 4, rng)
        x = Section(DomainFunc(ctx, cfg.h, 30, dict(f.terms)), 1)
        prev = None
        for k in (2, 3, 4, 5):
            quot, dx = lie_finite_difference(delta, x, k)
            # the quotient keeps precision N - k: compare there, or a term of
            # D_delta(x) that the quotient dropped as 0 would count as defect
            err = quot.sub(Section(dx.func.at_precision(cfg.N - k), dx.twist))
            v = None if err.is_zero_at_precision() else err.func.gauss_valuation()
            if prev is not None:
                verdicts.append(v is None or v - prev >= step_floor)
                if v is not None:
                    step = v - prev
                    min_step = step if min_step is None else min(min_step, step)
            if v is None:
                break
            prev = v
    rec.tally("difference-quotient-converges",
              "valuation of p^-k (gamma(x)-x) - D_delta(x) grows by >= h units per step",
              verdicts, "steps", min_step=min_step)

    zero_case = lie_finite_difference(
        divalg.DivElem(ctx, tuple(ctx.zero() for _ in range(cfg.h))),
        Section(random_domain_func(ctx, cfg.h, 4, rng), 0), 2)
    rec.add("zero-direction", "delta = 0 gives (0, 0)",
            zero_case[0].is_zero_at_precision() and zero_case[1].is_zero_at_precision(),
            {})

    # diagonal sanity: D(w_1 phi^0) = (M_11 - M_00) w_1 for diagonal j(delta)
    lam = ctx.random_unit(rng)
    delta = divalg.div_from_scalar(lam)
    x = Section(domain_var(ctx, cfg.h, 6, 1), 0)
    mat = j_embed(delta)
    expected = domain_var(ctx, cfg.h, 6, 1).scale(scalar_sub(mat[1][1], mat[0][0]))
    got = domain.lie_derived_operator(delta, x)
    rec.add("derived-diagonal", "D_delta(w_1) = (j(delta)_11 - j(delta)_00) w_1",
            got.func.eq(expected), {})


def exp_fn_sequence(cfg: ExperimentConfig, rec: _Recorder) -> None:
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    dmax = cfg.Dmax
    d = 2
    # the second check compares f_n for n from Dmax - d to nmax
    nmax = max(10, dmax - d)
    # f_n divides by n! and keeps N - v_p(n!) digits: compare f_n there, or a
    # coefficient it dropped as 0 is held against the other side at precision N
    prec = [cfg.N - _vp_factorial(n, cfg.p) for n in range(nmax + 1)]

    def agree(f, g, n):
        return f.at_precision(prec[n]).eq(g.at_precision(prec[n]))

    verdicts = []
    tails = []  # per twist: the (n, closed form, f_n) the second check compares, and deg_d
    for s in (-1, 0, 2):
        terms = {e: ctx.random_element(rng) for e in monomials(cfg.h, dmax) if sum(e) >= d}
        f0 = DomainFunc(ctx, cfg.h, dmax, terms)
        if not any(sum(e) == d for e in f0.terms):
            f0 = f0.add(domain_monomial(ctx, cfg.h, dmax, (d,) + (0,) * (cfg.h - 2),
                                        ctx.random_unit(rng)))
        recs, closed = fn_sequence(f0, d, s, nmax)
        verdicts += [agree(a, b, n) for n, (a, b) in enumerate(zip(recs, closed))]
        deg_d = DomainFunc(ctx, cfg.h, dmax, {e: c for e, c in f0.terms.items() if sum(e) == d})
        tails.append(([(n, closed[n], recs[n]) for n in range(dmax - d, nmax + 1)], deg_d))
        # homogeneous input is fixed
        hom_rec, hom_closed = fn_sequence(deg_d, d, s, 3)
        verdicts.append(all(agree(r, deg_d, n) and agree(c, deg_d, n)
                            for n, (r, c) in enumerate(zip(hom_rec, hom_closed))))
    rec.tally("recursion-equals-closed-form",
              "f_n = (1/n)((d+n-s) f_{n-1} + x_00 f_{n-1}) matches (-1)^n C(i-1,n) scaling",
              verdicts, "comparisons")
    rec.tally("stabilizes-to-lowest-slice", "f_n equals the degree-d part once n >= Dmax - d",
              [agree(closed_n, deg_d, n) and agree(rec_n, deg_d, n)
               for tail, deg_d in tails for n, closed_n, rec_n in tail], "comparisons")


def exp_vs_stability(cfg: ExperimentConfig, rec: _Recorder) -> None:
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    verdicts, bases = [], []
    for s in range(0, 6):
        bases.append(monomials(cfg.h, s))
        for e in bases[-1]:
            g = sample_gamma(ctx, 0, rng)
            y = gamma_act(g, monomial_section(ctx, cfg.h, s + 2, e, s))
            verdicts.append(all(sum(t) <= s for t in y.func.terms))
    rec.tally("gamma-stabilizes-Vs", "gamma(w^a phi_0^s) stays in V_s for |a| <= s", verdicts)

    dims_ok = all(len(basis) == math.comb(s + cfg.h - 1, cfg.h - 1)
                  for s, basis in enumerate(bases))
    rec.add("Vs-dimension", "dim V_s = C(s+h-1, h-1)",
            dims_ok, {"s_range": [0, 5]})


def exp_reachability(cfg: ExperimentConfig, rec: _Recorder) -> None:
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    dmax = 8
    ok = True
    for s in (0, 1, 3):
        r = reach_span(monomial_section(ctx, cfg.h, dmax, (0,) * (cfg.h - 1), s), dmax)
        ok = ok and r.monomials == set(monomials(cfg.h, s))
    rec.add("highest-weight-spans-Vs", "the span of phi_0^s is exactly V_s",
            ok, {})

    full = set(monomials(cfg.h, dmax))
    e = (2,) + (1,) * (cfg.h - 2)  # degree d = h > s for small s
    ok2 = all(
        reach_span(monomial_section(ctx, cfg.h, dmax, e, s), dmax).monomials == full
        for s in range(0, sum(e)))
    rec.add("high-degree-reaches-all",
            "homogeneous degree d > s reaches every monomial below the bound",
            ok2, {"degree": sum(e)})

    ok3 = all(
        reach_span(monomial_section(ctx, cfg.h, dmax, e, s), dmax).monomials == full
        for s in (-1, -3) for e in [(0,) * (cfg.h - 1), (1,) + (0,) * (cfg.h - 2)])
    rec.add("negative-twist-reaches-all", "s < 0 reaches every monomial",
            ok3, {})


def exp_kernels(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """Kernels of systems of Lie operators on the monomials of degree <= 8."""
    h = cfg.h
    ctx = make_context(cfg.p, h, cfg.N)
    const = tuple([0] * (h - 1))

    ok = True
    dims = {}
    for dm in (2, 5, 8):
        k = operator_kernel(ctx, h, [(0, j) for j in range(1, h)], 0, dm)
        dims[dm] = len(k.basis)
        ok = ok and len(k.basis) == 1 and set(k.basis[0].terms) == {const} and k.reliable
    rec.add("n-row-kernel-is-constants",
            "df/dw_j = 0 for all j forces a constant (every Dmax <= 8)",
            ok, {"dimensions": dims})

    nops = [(i, j) for i in range(h) for j in range(h) if i < j]
    dims = []
    ok = True
    for s in (2, 3):
        k2 = operator_kernel(ctx, h, nops, s, 5, within_vs=True)
        dims.append(len(k2.basis))
        ok = ok and len(k2.basis) == 1 and set(k2.basis[0].terms) == {const}
    rec.add("n-kernel-in-Vs-is-line",
            "within V_s the upper-triangular kernel is the line phi_0^s",
            ok, {"dimensions": dims})

    k3 = operator_kernel(ctx, h, [], 0, 4)
    rec.add("empty-system-full-space", "no constraints leave the whole space",
            len(k3.basis) == len(monomials(h, 4)), {"dimension": len(k3.basis)})


def exp_lf_diagnostic(cfg: ExperimentConfig, rec: _Recorder) -> None:
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    ladder = (6, 8, 10)
    verdicts = []
    for s in (0, 1, 3):
        dim_vs = math.comb(s + cfg.h - 1, cfg.h - 1)
        for _ in range(3):
            terms = {e: ctx.random_element(rng) for e in monomials(cfg.h, s)}
            f = DomainFunc(ctx, cfg.h, 10, terms)
            if f.is_zero_at_precision():
                continue
            v = lf_diagnostic(Section(f, s), ladder)
            verdicts.append(v.kind == "finite" and v.dimension is not None
                            and v.dimension <= dim_vs)
    rec.tally("Vs-vectors-finite", "vectors inside V_s report a stable dimension",
              verdicts, ladder=list(ladder))

    ok2 = True
    for s in (0, 1, 2):
        e = (s + 1,) + (0,) * (cfg.h - 2)
        v = lf_diagnostic(monomial_section(ctx, cfg.h, 12, e, s), ladder)
        ok2 = ok2 and v.kind == "growing"
    rec.add("outside-Vs-grows", "w_1^(s+1) phi_0^s keeps growing along the ladder",
            ok2, {"ladder": list(ladder)})

    v = lf_diagnostic(Section(domain_const(ctx, cfg.h, 10, ctx.one()), 0), ladder)
    rec.add("constant-is-finite", "the constant section at s = 0 has dimension 1",
            v.kind == "finite" and v.dimension == 1, {})


def exp_contraction(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """Gamma_n contracts vD(gamma f - f) by n h, and b^alpha by |alpha| n h."""
    # the second check's degree budget keeps the truncation floor above |alpha| n h
    bdmax = 14 if cfg.h == 2 else 10
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    verdicts, worst = [], {}
    dmax = 10 if cfg.h == 2 else 6
    for n in (1, 2, 3):
        rng = random.Random(cfg.seed + n)
        mins = None
        for _ in range(12):
            g = sample_gamma(ctx, n, rng)
            f = random_domain_func(ctx, cfg.h, dmax, rng)
            prof = contraction_profile(g, f)
            verdicts.append(prof is None or prof >= n * cfg.h)
            if prof is not None:
                mins = prof if mins is None else min(mins, prof)
        worst[n] = mins
    rec.tally("gamma-n-contracts",
              "vD(gamma f - f) - vD(f) >= n h for gamma in Gamma_n (measured, frozen)",
              verdicts, min_profiles=worst)

    verdicts = []
    n = 1
    rng = random.Random(cfg.seed + 100)
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        for _ in range(2):
            gs = [sample_gamma(ctx, n, rng) for _ in range(2)]
            f = random_domain_func(ctx, cfg.h, 3, rng)
            x = Section(DomainFunc(ctx, cfg.h, bdmax, dict(f.terms)), 0)
            y = dist.apply_b_iterated(dist.BMonomialSet(gs, alpha), x)
            verdicts.append(y.is_zero_at_precision()
                            or y.gauss_valuation() - f.gauss_valuation() >= sum(alpha) * n * cfg.h)
    rec.tally("b-monomial-contracts", "vD(b^a f) - vD(f) >= |a| n h, iterating the single step",
              verdicts)


def exp_formal_group_axioms(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p = cfg.p
    dmax = 20
    rng = random.Random(cfg.seed)
    for tag, fdict in (("height-1", {1: p, p: 1}),
                       ("height-h", {1: p, p ** cfg.h: 1})):
        M = formal.lt_construct(p, fdict, dmax, cfg.N)
        ring, F = M.ring, M.F
        comm = F.eq(TruncSeries(ring, 2, dmax,
                                {(e[1], e[0]): c for e, c in F.terms.items()}))
        u3 = TruncSeries(ring, 3, dmax, {(e[0], e[1], 0): c for e, c in F.terms.items()})
        v3 = TruncSeries(ring, 3, dmax, {(0, e[0], e[1]): c for e, c in F.terms.items()})
        assoc = substitute_two(F, u3, series_var(ring, 3, dmax, 2)).eq(
            substitute_two(F, series_var(ring, 3, dmax, 0), v3))
        unital = TruncSeries(ring, 2, dmax,
                             {e: c for e, c in F.terms.items() if e[1] == 0}).eq(
            TruncSeries(ring, 2, dmax, {(1, 0): ring.one()}))
        mult_ok = all(
            compose_univariate(M.mult(a), M.mult(b)).eq(M.mult(a * b))
            for a, b in [(2, 3), (rng.randrange(2, 30), rng.randrange(2, 30))])
        log = formal.logarithm(M)
        num = log.numerator
        logX = TruncSeries(ring, 2, dmax, {(e[0], 0): c for e, c in num.terms.items()})
        logY = TruncSeries(ring, 2, dmax, {(0, e[0]): c for e, c in num.terms.items()})
        log_ok = compose_univariate(num, F).eq(logX.add(logY))
        rec.add(f"axioms-{tag}",
                "F(X,0)=X, commutativity, associativity, [a][b]=[ab], log additivity",
                comm and assoc and unital and mult_ok and log_ok,
                {"f": fdict, "Dmax": dmax}, f=sorted(fdict.items()))

    G = formal.gm_module(p, max(dmax, p + 1), cfg.N)
    expect = {(n,): math.comb(p, n) for n in range(1, p + 1)}
    gm_ok = G.mult(p).eq(TruncSeries(G.ring, 1, G.dmax, expect))
    rec.add("gm-p-multiplication", "[p] on the multiplicative law is (1+X)^p - 1",
            gm_ok, {})


def exp_gm_identities(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p = cfg.p
    dmax = cfg.Dmax
    rng = random.Random(cfg.seed)
    G = formal.gm_module(p, dmax, cfg.N)
    one_ok = G.mult(1).eq(series_var(G.ring, 1, dmax, 0))
    rec.add("one-is-identity", "[1](X) = X", one_ok, {})
    expect = {(n,): math.comb(p, n) for n in range(1, min(p, dmax) + 1)}
    rec.add("p-binomial", "[p](X) = (1+X)^p - 1 exactly",
            G.mult(p).eq(TruncSeries(G.ring, 1, dmax, expect)), {})
    pairs = [(rng.randrange(-20, 20), rng.randrange(-20, 20)) for _ in range(6)]
    rec.tally("composition", "[a][b] = [ab] for sampled integers",
              [compose_univariate(G.mult(a), G.mult(b)).eq(G.mult(a * b)) for a, b in pairs])


def exp_logarithm(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p = cfg.p
    ga = formal.ga_module(p, 10, cfg.N)
    la = formal.logarithm(ga)
    ga_ok = la.numerator.eq(TruncSeries(la.numerator.ring, 1, 10,
                                        {(1,): p ** la.denom_exp}))
    rec.add("additive-log", "the additive law has logarithm X", ga_ok, {})

    G = formal.gm_module(p, 12, cfg.N)
    lg = formal.logarithm(G)
    ring = lg.numerator.ring
    d = lg.denom_exp
    expect = {}
    for n in range(1, 13):
        v = _vp(n, p)
        c = pow(n // p ** v, -1, ring.pN) * p ** (d - v) * (1 if n % 2 == 1 else -1)
        expect[(n,)] = c % ring.pN
    rec.add("multiplicative-log",
            "the multiplicative law integrates to sum (-1)^(n+1) X^n / n",
            lg.numerator.eq(TruncSeries(ring, 1, 12, expect)), {"denom_exp": d})

    M = formal.lt_construct(3, {1: 3, 3: 1}, 15, cfg.N)
    log = formal.logarithm(M)
    num = log.numerator
    r2 = num.ring
    F = M.F
    logX = TruncSeries(r2, 2, 15, {(e[0], 0): c for e, c in num.terms.items()})
    logY = TruncSeries(r2, 2, 15, {(0, e[0]): c for e, c in num.terms.items()})
    add_ok = compose_univariate(num, F).eq(logX.add(logY))
    lin_ok = all(compose_univariate(num, M.mult(a)).eq(num.scale_int(a))
                 for a in (2, 5))
    rec.add("lubin-tate-log-additivity",
            "phi(F(X,Y)) = phi(X) + phi(Y) and phi([a]) = a phi",
            add_ok and lin_ok, {"p": 3, "Dmax": 15})


def exp_height(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p = cfg.p
    gm_h = formal.height(formal.gm_module(p, p + 2, cfg.N).reduce())
    rec.add("multiplicative-height", "the multiplicative reduction has height 1",
            gm_h == 1, {"height": gm_h})
    ga_h = formal.height(formal.ga_module(p, p + 2, cfg.N).reduce())
    rec.add("additive-height", "the additive reduction has height infinity",
            ga_h == math.inf, {"height": "inf"})
    for hh in (2, 3):
        M = formal.lt_construct(p, {1: p, p ** hh: 1}, p ** hh + 2, min(cfg.N, 6))
        got = formal.height(M.reduce())
        rec.add(f"lubin-tate-height-{hh}",
                "[p] = g(X^(q^h)) with g'(0) != 0 read off the reduction",
                got == hh, {"expected": hh, "got": got})


def exp_level_structure(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p = cfg.p
    dm = 6 * (p - 1) + 2
    prec = 6
    M = formal.lt_construct(p, {1: p, p: 1}, dm, prec)
    tors = formal.torsion_polynomial(M, 1)
    phi_over_x = {k - 1: v for k, v in tors.items()}
    R = series.QuotRing(IntModRing(p, prec), [phi_over_x.get(k, 0) for k in range(p)])
    pts = formal.make_level_points(M, R, 1)
    ok = formal.level_structure_check(M, pts, 1, R)
    rec.add("torsion-points-form-level-structure",
            "X prod (X - [a](x)) equals [p](X) in the torsion quotient ring",
            ok, {"p": p, "precision": prec})

    zero_ok = not formal.level_structure_check(M, [R.zero()] * p, 1, R)
    rec.add("zero-map-rejected", "phi = 0 fails: X^p does not divide [p](X)",
            zero_ok, {})

    triv = formal.level_structure_check(M, [R.zero()], 0, R)
    card = False
    try:
        formal.level_structure_check(M, [R.zero()] * (p + 1), 1, R)
    except formal.WrongCardinalityError:
        card = True
    rec.add("level-zero-and-cardinality",
            "m = 0 passes with the zero point; wrong cardinality raises",
            triv and card, {})


def exp_endomorphism_frobenius(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p = cfg.p
    hh = cfg.h
    ctxr = UnramRing(make_context(p, hh, 1))
    M = formal.lt_construct(p, {1: p, p ** hh: 1}, p ** hh + 4, min(cfg.N, 6))
    red = M.reduce(ctxr)
    tau = formal.frobenius_power_series(red, 1)
    endo = formal.check_endomorphism(tau, red)
    rec.add("frobenius-is-endomorphism",
            "X^q commutes with the reduced law and its multiplications",
            endo, {"p": p, "h": hh})
    power = formal.frobenius_power_series(red, hh).eq(red.mult(p))
    rec.add("frobenius-power-is-p", "tau^h = [p] on the height-h reduction",
            power, {})
    ident = formal.check_endomorphism(series_var(red.ring, 1, red.dmax, 0), red)
    non = True
    if p >= 3:
        bad = TruncSeries(red.ring, 1, red.dmax,
                          {(1,): red.ring.one(), (2,): red.ring.one()})
        non = not formal.check_endomorphism(bad, red)
    rec.add("identity-and-counterexample",
            "the identity passes; X + X^2 fails additivity",
            ident and non, {})


def exp_period_convergence(cfg: ExperimentConfig, rec: _Recorder) -> None:
    p, h, nmax = cfg.p, cfg.h, cfg.nmax
    budget = periods.degree_budget(p, nmax)
    coeffs = periods.univ_log_coeffs(h, p, nmax, budget)
    rec_ok = all(periods.recursion_defect(coeffs, h, p, n).is_zero()
                 for n in range(1, nmax + 1))
    den_ok = all(a.denom <= n for n, a in enumerate(coeffs))
    rec.add("recursion-identity", "p a_n = sum u_i^(q^(n-i)) a_{n-i} exactly",
            rec_ok and den_ok, {"nmax": nmax})

    stages = nmax // h
    bounded = True
    origin_ok = True
    for n in range(stages + 1):
        for i in range(h):
            if n * h + i > nmax:
                continue
            ph = periods.phi_approx(coeffs, h, p, i, n)
            bounded = bounded and ph.monomial_denominators_bounded_by_degree()
            num, den = ph.eval_origin()
            if i == 0:
                origin_ok = origin_ok and num == p ** den
            else:
                origin_ok = origin_ok and num == 0
    rec.add("approximants-power-bounded",
            "p^n a_{nh} and p^(n+1) a_{nh+i} are power-bounded on the l=1 disc",
            bounded, {"stages": stages})
    rec.add("origin-normalization", "the period point of the origin is [1:0:...:0]",
            origin_ok, {})

    decreasing = True
    diffs = []
    prev = None
    for n in range(stages):
        d = periods.phi_approx(coeffs, h, p, 0, n + 1).sub(
            periods.phi_approx(coeffs, h, p, 0, n))
        v = periods.norm_l(d, 1)
        diffs.append(v)
        if prev is not None and v <= prev:
            decreasing = False
        prev = v
    rec.add("phi-differences-contract",
            "||phi_0^(n+1) - phi_0^(n)||_1 strictly decreases",
            decreasing and len(diffs) >= 2, {"difference_valuations": diffs})

    ui = periods.univ_one(h, p, budget).mul_monomial(1, 1)
    norm_ok = all(periods.norm_l(ui, l) == 1 for l in (1, 2)) \
        and periods.norm_l(periods.univ_one(h, p, budget), 1) == 0
    rng = random.Random(cfg.seed)
    for _ in range(20):
        f = periods.UnivPoly(h, p, budget, rng.randrange(3),
                             {tuple(rng.randrange(3) for _ in range(h - 1)): rng.randrange(1, 30)
                              for _ in range(3)})
        g = periods.UnivPoly(h, p, budget, rng.randrange(2),
                             {tuple(rng.randrange(3) for _ in range(h - 1)): rng.randrange(1, 30)
                              for _ in range(3)})
        if f.is_zero() or g.is_zero():
            continue
        for l in (1, 2):
            norm_ok = norm_ok and periods.norm_l(f.mul(g), l) == \
                periods.norm_l(f, l) + periods.norm_l(g, l)
    rec.add("l-norm-family", "||u_i||_l = |p|^(1/l) and the norms multiply",
            norm_ok, {})


def exp_dist_norms(cfg: ExperimentConfig, rec: _Recorder) -> None:
    """Norms of b-monomials, the signed expansion of (gamma - 1)^2, and two
    evaluation orders of b^alpha on a section."""
    W = cfg.h * cfg.N + 5 if cfg.h == 2 else 12
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    r = Fraction(1, cfg.p)
    norm_ok = dist.dist_norm_r({(0, 0): 1}, r, cfg.p) == 1
    for alpha in [(1, 0), (2, 1), (0, 3)]:
        norm_ok = norm_ok and dist.dist_norm_r({alpha: 1}, r, cfg.p) == r ** sum(alpha)
    r2 = Fraction(2, 2 * cfg.p - 1)
    for alpha in [(1, 1), (3, 0)]:
        norm_ok = norm_ok and dist.dist_norm_r({alpha: 1}, r2, cfg.p) == r2 ** sum(alpha)
    rec.add("b-monomial-norms", "||b^a||_r = r^|a| for the sup norm family",
            norm_ok, {})

    sq = g1 = div_one(ctx)
    one = g1.key()
    # gamma, gamma^2 and 1 must be three keys at precision N, or the expansion
    # merges them; inside the domain some gamma in Gamma_1 keeps them apart
    while len({one, g1.key(), sq.key()}) < 3:
        g1 = sample_gamma(ctx, 1, rng)
        sq = div_mul(g1, g1)
    g2 = sample_gamma(ctx, 1, rng)
    exp_ok = len(dist.expand_b_monomial(dist.BMonomialSet([g1], (0,)), ctx)) == 1
    mu = dist.expand_b_monomial(dist.BMonomialSet([g1], (2,)), ctx)
    keys = {g.key(): c for c, g in mu.pairs}
    exp_ok = exp_ok and keys.get(sq.key()) == ctx.from_int(1) \
        and keys.get(g1.key()) == ctx.from_int(-2) \
        and keys.get(one) == ctx.from_int(1)
    rec.add("signed-expansion", "(gamma-1)^2 = d_{g^2} - 2 d_g + d_1",
            exp_ok, {})

    f = random_domain_func(ctx, cfg.h, 4, rng)
    agree = True
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        B = dist.BMonomialSet([g1, g2], alpha)
        x = Section(DomainFunc(ctx, cfg.h, W, dict(f.terms)), 2)
        via_expand = dist.apply_group_ring(dist.expand_b_monomial(B, ctx), x)
        via_iter = dist.apply_b_iterated(B, x)
        d = via_expand.sub(via_iter)
        if cfg.h == 2:
            agree = agree and not {e for e in d.func.terms if sum(e) <= 4}
        else:
            agree = agree and (d.is_zero_at_precision() or d.gauss_valuation() > W)
    rec.add("evaluation-orders-agree",
            "expanding b^a and iterating (gamma-1) give the same action",
            agree, {"budget": W})


@dataclass(frozen=True)
class _Record:
    """An experiment, its domain as (holds(cfg), "condition: reason") pairs and
    its budgets as (size(cfg), limit, message with {} for the size) triples,
    each cheap at any config; `run` checks them before any work."""
    func: Callable[[ExperimentConfig, _Recorder], None]
    domain: tuple = ()
    budgets: tuple = ()


def _action(degree, stated: str) -> tuple:
    """The budget of an action experiment whose largest function has degree D."""
    return (lambda c: _action_digits(c, degree(c)), ACTION_DIGITS,
            f"builds functions of {{}} = C(h-1+D, h-1) h N p-adic digits, D = {stated}")


_FORMAL = "truncates a formal-group series at degree {} = "
_PRECISION = (lambda c: c.N, WORKING_PRECISION, "works at precision {} = N p-adic digits")

EXPERIMENTS = {
    "j-homomorphism": _Record(exp_j_homomorphism, budgets=(
        # past h = 15, 2^h alone exceeds the budget: cap h so the count stays small
        (lambda c: 2 ** min(c.h, NRD_DIGITS.bit_length()) * c.h * c.N, NRD_DIGITS,
         "takes determinants of at least {} = 2^min(h, 15) h N p-adic digits"),)),
    "dheq-vs-matrix": _Record(exp_dheq_vs_matrix, (
        (lambda c: c.h >= 2, "h >= 2: it acts on the coordinates w_1..w_(h-1)"),),
        (_action(lambda c: 6, "6"),)),
    "action-law": _Record(exp_action_law, budgets=(
        _action(lambda c: 2 * c.N + 6 if c.h == 2 else 6,
                "2N + 6 at h = 2 for the exact low-degree check, else 6"),)),
    "lie-weights": _Record(exp_lie_weights, budgets=(
        (lambda c: 3 * c.h * math.comb(c.h + 5, 6), LIE_WEIGHT_CALLS,
         "applies Lie operators {} = 3 h C(h+5, 6) times"), _PRECISION)),
    "lie-bracket": _Record(exp_lie_bracket, budgets=(
        (lambda c: 2 * math.comb(c.h + 4, 5) * c.h ** 4, LIE_BRACKET_TRIALS,
         "needs {} = 2 C(h+4, 5) h^4 bracket trials"), _PRECISION)),
    "finite-difference": _Record(exp_finite_difference, (
        (lambda c: c.h >= 2, "h >= 2: its derived-diagonal check acts on w_1"),
        (lambda c: c.N >= 6, "N >= 6: the quotient at k <= 5 keeps precision N - k > 0")),
        ((lambda c: _action_digits(c, 4), DIFFERENCE_DIGITS,
          "acts on functions of {} = C(h+3, 4) h N p-adic digits"),)),
    "fn-sequence": _Record(exp_fn_sequence, (
        (lambda c: c.Dmax >= 2, "Dmax >= 2: f_0 has a term of degree d = 2"),
        (lambda c: c.N > _vp_factorial(max(10, c.Dmax - 2), c.p),
         "N > v_p(m!), m = max(10, Dmax - 2): f_m keeps N - v_p(m!) digits"),),
        # C(h-1+Dmax, 64) is at most the monomial count once h - 1 and Dmax
        # pass 64, and beyond every budget: the count stays cheap
        ((lambda c: math.comb(c.h - 1 + c.Dmax, min(c.h - 1, c.Dmax, 64))
          * (max(10, c.Dmax - 2) + 1), FN_STEPS,
          "takes at least {} monomial steps, C(h-1+Dmax, h-1) in each of f_0..f_m"),
         _PRECISION)),
    "vs-stability": _Record(exp_vs_stability, budgets=(_action(lambda c: 7, "s + 2 for s <= 5"),)),
    "reachability": _Record(exp_reachability, (
        (lambda c: c.h >= 2, "h >= 2: its seeds need a coordinate w_1"),
        (lambda c: c.h <= 8, "h <= 8: its degree-h seed fits under the truncation degree 8")),
        (_PRECISION,)),
    "kernels": _Record(exp_kernels, (
        (lambda c: c.N >= 2 * max(_vp(k, c.p) for k in range(1, 9)),
         "N >= 2 max_{k<=8} v_p(k): d(w^k)/dw pivots at valuation v_p(k), "
         "and a kernel is reliable only up to N/2"),),
        ((lambda c: math.comb(c.h + 7, 8), KERNEL_COLUMNS,
          "needs {} = C(h+7, 8) monomial columns"), _PRECISION)),
    "lf-diagnostic": _Record(exp_lf_diagnostic, (
        (lambda c: c.h >= 2, "h >= 2: its growing section is a power of the coordinate w_1"),),
        ((lambda c: math.comb(c.h + 9, 10), LF_MONOMIALS, "spans {} = C(h+9, 10) monomials"),
         _PRECISION)),
    "contraction": _Record(exp_contraction, budgets=(
        _action(lambda c: 14 if c.h == 2 else 10, "14 at h = 2, else 10"),)),
    "formal-group-axioms": _Record(exp_formal_group_axioms, budgets=(
        (lambda c: max(20, c.p + 1), FORMAL_DEGREE, _FORMAL + "max(20, p + 1)"), _PRECISION,
        # past h = 4 POWER_DIGITS, p^h has more digits than the budget at any
        # p >= 2: cap h so the float stays finite
        (lambda c: math.floor(min(c.h, 4 * POWER_DIGITS) * math.log10(c.p)) + 1, POWER_DIGITS,
         "writes the degree p^h of its height-h law, at least {} decimal digits, "
         "into its report"))),
    "gm-identities": _Record(exp_gm_identities, budgets=(
        (lambda c: c.Dmax, FORMAL_DEGREE, _FORMAL + "Dmax"), _PRECISION)),
    "logarithm": _Record(exp_logarithm, budgets=(_PRECISION,)),
    "height": _Record(exp_height, budgets=(
        (lambda c: c.p ** 3 + 2, FORMAL_DEGREE, _FORMAL + "p^3 + 2"), _PRECISION)),
    "level-structure": _Record(exp_level_structure, budgets=(
        (lambda c: 6 * (c.p - 1) + 2, LEVEL_DEGREE,
         "truncates its Lubin-Tate group at degree {} = 6(p-1) + 2"),)),
    "endomorphism-frobenius": _Record(exp_endomorphism_frobenius, budgets=(
        # past h = 9, p^h alone exceeds the budget: cap h so the degree stays small
        (lambda c: c.p ** min(c.h, FORMAL_DEGREE.bit_length()) + 4, FORMAL_DEGREE,
         "truncates a formal-group series at degree {} = p^min(h, 9) + 4"),)),
    "period-convergence": _Record(exp_period_convergence, (
        (lambda c: c.h >= 2, "h >= 2: a_n lives on the deformation base u_1..u_(h-1)"),
        (lambda c: c.nmax >= 2 * c.h,
         "nmax >= 2h: phi-differences-contract compares two differences")),
        ((_period_terms, PERIOD_TERMS, "recurses through at least {} monomials of a_0..a_nmax"),)),
    "dist-norms": _Record(exp_dist_norms, (
        (lambda c: c.N >= 2, "N >= 2: gamma = 1 mod p for every gamma in Gamma_1"),
        (lambda c: c.p != 2 or c.N >= 3,
         "N >= 3 at p = 2: gamma^2 = 1 mod 4 for every gamma in Gamma_1"),
        (lambda c: c.p != 2 or c.h >= 2 or c.N >= 4,
         "N >= 4 at p = 2 and h = 1: gamma^2 = 1 mod 8 for every gamma in 1 + 2Z_2")),
        (_action(lambda c: 2 * c.N + 5 if c.h == 2 else 12,
                 "2N + 5 at h = 2 for the exact low-degree check, else 12"),)),
}


def run(cfg: ExperimentConfig) -> Report:
    """Run one experiment, once its config is valid and inside the record's
    domain and budgets."""
    cfg.validate()
    record = EXPERIMENTS.get(cfg.experiment)
    if record is None:
        raise ConfigInvalidError(f"unknown experiment {cfg.experiment!r}; see `list`")
    where = (f"{cfg.experiment} at p = {cfg.p}, h = {cfg.h}, N = {cfg.N}, Dmax = {cfg.Dmax}, "
             f"nmax = {cfg.nmax}")
    for holds, statement in record.domain:
        if not holds(cfg):
            raise ConfigInvalidError(f"{where} needs {statement}")
    for size, limit, message in record.budgets:
        used = size(cfg)
        if used > limit:
            raise ConfigInvalidError(f"{where} {message.format(used)}; the budget is {limit}")
    rec = _Recorder(cfg)
    record.func(cfg, rec)
    return Report(cfg.experiment, cfg.to_json(), rec.records)


def emit(report: Report, fmt: str = "json", with_timings: bool = False) -> bytes:
    """Serialize a report with stable field ordering (byte-deterministic
    unless timings are requested)."""
    obj = report.to_json_obj(with_timings)
    if fmt == "json":
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        cols = ["check_id", "anchor", "inputs_digest", "measured", "passed"]
        if with_timings:
            cols.append("runtime_ms")
        lines = [",".join(cols)]
        for c in obj["checks"]:
            row = []
            for col in cols:
                val = c[col]
                if col == "measured":
                    val = json.dumps(val, sort_keys=True, separators=(",", ":"))
                sval = str(val)
                if "," in sval or '"' in sval:
                    sval = '"' + sval.replace('"', '""') + '"'
                row.append(sval)
            lines.append(",".join(row))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "table":
        width = max((len(c["check_id"]) for c in obj["checks"]), default=8)
        lines = [f"experiment: {obj['experiment']}  passed: {obj['passed']}"]
        for c in obj["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"  {c['check_id']:<{width}}  {status}  {c['anchor']}")
        return ("\n".join(lines) + "\n").encode()
    raise ConfigInvalidError(f"unknown format {fmt!r}")
