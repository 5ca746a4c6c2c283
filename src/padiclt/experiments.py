"""Seeded verification experiments and their report records.

Each experiment is a pure function of an ExperimentConfig producing check
records; reports serialize deterministically (timings are kept out of the
byte stream unless explicitly requested).  The acceptance suite drives the
same functions with pinned configurations.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import divalg, dist, domain, formal, periods, series
from .divalg import (
    div_mul, div_one, j_embed, mat_eq, mat_mul, nrd, sample_gamma, sample_obh,
)
from .domain import (
    DomainFunc, Section, contraction_profile, domain_const, domain_monomial,
    domain_var, fn_sequence, gamma_act, in_parabolic, lf_diagnostic, lie_act,
    lie_finite_difference, monomial_section, monomials, operator_kernel, p_act,
    random_domain_func, reach_span,
)
from .padics import make_context, scalar_inv, scalar_mul, scalar_sub
from .series import IntModRing, TruncSeries, UnramRing, compose_univariate, series_var, substitute_two


class UnknownExperimentError(ValueError):
    pass


class ConfigInvalidError(ValueError):
    pass


SCHEMA_VERSION = 1

# Size budgets: the largest work a run may ask for (h = 5 fits both).
LIE_BRACKET_TRIALS = 200_000   # h = 5: 157,500 trials; h = 6: 653,184
KERNEL_COLUMNS = 1_000         # monomials of degree <= 8; h = 5: 495; h = 6: 1,287
# p-adic digits of the largest function the action experiments build, see
# _check_action_budget; at N = 8, h <= 5 fits dheq-vs-matrix and action-law
# and h <= 4 fits contraction and dist-norms, and action-law at h = 2 fits
# N <= 68
ACTION_DIGITS = 20_000
# p-adic digits 2^h h N of the determinant behind Nrd: 2^h subset states, each
# a minor of h coordinates of N digits; at N = 8, h <= 8 fits j-homomorphism
NRD_DIGITS = 20_000


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
        if self.p < 2 or any(self.p % k == 0 for k in range(2, int(self.p ** 0.5) + 1)):
            raise ConfigInvalidError(f"p = {self.p} is not prime")
        if self.h < 1 or self.N < 1 or self.Dmax < 1 or self.nmax < 0:
            raise ConfigInvalidError("bounds must be positive")
        if self.e < self.h:
            raise ConfigInvalidError("need coefficient degree e >= h")

    def to_json(self) -> dict:
        d = asdict(self)
        return d

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
        checks = []
        for c in self.checks:
            d = {
                "check_id": c.check_id,
                "anchor": c.anchor,
                "inputs_digest": c.inputs_digest,
                "measured": c.measured,
                "passed": c.passed,
            }
            if with_timings:
                d["runtime_ms"] = c.runtime_ms
            checks.append(d)
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


_TRIAL_COUNTS = ("trials", "pairs", "comparisons")


class _Recorder:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.records: list[CheckRecord] = []
        self._end = 0.0  # perf_counter() at the end of the last record

    def add(self, check_id: str, anchor: str, passed: bool, measured, t0: float, **extra):
        """Record one check; a check that counted zero trials, pairs or comparisons fails.

        Its runtime runs from t0, or from the end of the previous record if
        that is later, so checks that share one t0 never count the same time
        twice.
        """
        if isinstance(measured, dict) and any(measured.get(k) == 0 for k in _TRIAL_COUNTS):
            passed = False
        digest = _digest(self.cfg, check_id, **extra)
        start, self._end = max(t0, self._end), time.perf_counter()
        self.records.append(CheckRecord(
            check_id, anchor, digest, measured, bool(passed),
            round((self._end - start) * 1000, 3)))


def _check_action_budget(cfg: ExperimentConfig, degree: int) -> None:
    """Reject a config whose largest function exceeds ACTION_DIGITS p-adic digits.

    A function truncated at total degree `degree` has C(h-1+degree, h-1)
    monomials, each coefficient e = h coordinates of N digits; the cost of
    the substitution action grows with both the count and the width.
    """
    digits = math.comb(cfg.h - 1 + degree, cfg.h - 1) * cfg.h * cfg.N
    if digits > ACTION_DIGITS:
        raise ConfigInvalidError(
            f"{cfg.experiment} at h = {cfg.h}, N = {cfg.N} builds functions of degree "
            f"<= {degree} with {digits} p-adic digits; the budget is {ACTION_DIGITS}")


# ---------------------------------------------------------------- experiments

def exp_j_homomorphism(cfg: ExperimentConfig) -> list[CheckRecord]:
    """j and Nrd = det j multiplicative on 200 pairs; Nrd = 1 mod p^n on Gamma_n.

    Size budget: 2^h h N p-adic digits in the determinant, at most NRD_DIGITS
    (h <= 8 at N = 8); a larger config is a config error.
    """
    digits = 2 ** cfg.h * cfg.h * cfg.N
    if digits > NRD_DIGITS:
        raise ConfigInvalidError(
            f"j-homomorphism at h = {cfg.h}, N = {cfg.N} takes determinants of "
            f"{digits} p-adic digits; the budget is {NRD_DIGITS}")
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    pairs = 200

    t0 = time.perf_counter()
    ok = 0
    triples = []
    for _ in range(pairs):
        a = sample_gamma(ctx, 0, rng)
        b = sample_gamma(ctx, 0, rng)
        ab = div_mul(a, b)
        triples.append((a, b, ab))
        if mat_eq(j_embed(ab), mat_mul(j_embed(a), j_embed(b))):
            ok += 1
    rec.add("j-multiplicative", "j(ab) = j(a) j(b) in the frozen order",
            ok == pairs, {"pairs": pairs, "ok": ok}, t0)

    t0 = time.perf_counter()
    nrd_ok = sum(nrd(ab) == scalar_mul(nrd(a), nrd(b)) for a, b, ab in triples)
    rec.add("nrd-multiplicative", "Nrd(ab) = Nrd(a) Nrd(b) via det of j",
            nrd_ok == pairs, {"pairs": pairs, "ok": nrd_ok}, t0)

    t0 = time.perf_counter()
    cong_ok, trials = 0, 0
    for n in (1, 2, 3):
        for _ in range(20):
            g = sample_gamma(ctx, n, rng)
            d = scalar_sub(nrd(g), ctx.one())
            v = d.valuation()
            trials += 1
            if v is None or v >= n:
                cong_ok += 1
    rec.add("nrd-congruence", "Nrd(1 + p^n u) = 1 mod p^n",
            cong_ok == trials, {"trials": trials, "ok": cong_ok}, t0)
    return rec.records


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


def exp_dheq_vs_matrix(cfg: ExperimentConfig) -> list[CheckRecord]:
    """gamma(w_i) against the embedded matrix, and the P-action on 50 members of P.

    Size budget: functions of degree <= 6, at most ACTION_DIGITS p-adic
    digits (h <= 5 at N = 8); a larger config is a config error.
    """
    _check_action_budget(cfg, 6)
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    t0 = time.perf_counter()
    trials, ok = 0, 0
    for _ in range(50):
        g = sample_gamma(ctx, 0, rng)
        oracle = _matrix_oracle_gens(g, ctx, cfg.h, 6)
        for i in range(1, cfg.h):
            trials += 1
            acted = gamma_act(g, domain_var(ctx, cfg.h, 6, i))
            if acted.eq(oracle[i - 1]):
                ok += 1
    rec.add("dheq-matches-matrix",
            "gamma(w_i) = (w j(gamma))_i / (w j(gamma))_0 as series",
            ok == trials, {"trials": trials, "ok": ok}, t0)

    t0 = time.perf_counter()
    restr_ok, restr_trials = 0, 0
    for _ in range(20):
        g = sample_gamma(ctx, 0, rng)
        f = random_domain_func(ctx, cfg.h, 5, rng)
        restr_trials += 1
        if p_act(j_embed(g), f).eq(gamma_act(g, Section(f, 0)).func):
            restr_ok += 1
    rec.add("p-action-restricts",
            "a(w_i) substitution along j agrees with the gamma action",
            restr_ok == restr_trials, {"trials": restr_trials, "ok": restr_ok}, t0)

    t0 = time.perf_counter()
    norm_ok, norm_trials = 0, 0
    for k in range(50):
        # half the sample from the embedded unit group, half generic in P
        a = j_embed(sample_gamma(ctx, 0, rng)) if k % 2 else \
            domain.sample_parabolic(ctx, cfg.h, rng)
        if not in_parabolic(a, cfg.p):
            continue
        for i in range(1, cfg.h):
            wi = domain_var(ctx, cfg.h, 6, i)
            norm_trials += 1
            if p_act(a, wi).gauss_valuation() == wi.gauss_valuation():
                norm_ok += 1
    rec.add("p-action-norms", "||a(w_i)||_D = ||w_i||_D on 50 members of P",
            norm_ok == norm_trials and norm_trials >= 50 * (cfg.h - 1),
            {"trials": norm_trials, "ok": norm_ok}, t0)
    return rec.records


def exp_action_law(cfg: ExperimentConfig) -> list[CheckRecord]:
    """gamma(gamma'(x)) = (gamma gamma')(x) and ||gamma(x)||_D = ||x||_D.

    Size budget: functions of degree <= 6, and at h = 2 of degree <= 2N + 6
    (the exact low-degree check), at most ACTION_DIGITS p-adic digits (h <= 5
    at N = 8, N <= 68 at h = 2); a larger config is a config error.
    """
    dmax = 6
    _check_action_budget(cfg, cfg.h * cfg.N + (cfg.h - 1) * dmax if cfg.h == 2 else dmax)
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)

    t0 = time.perf_counter()
    ok, trials = 0, 0
    floor_seen = None
    for s in (-2, 0, 3):
        for _ in range(4):
            g1 = sample_gamma(ctx, 0, rng)
            g2 = sample_gamma(ctx, 0, rng)
            x = Section(random_domain_func(ctx, cfg.h, dmax, rng), s)
            lhs = gamma_act(g1, gamma_act(g2, x))
            rhs = gamma_act(div_mul(g1, g2), x)
            d = lhs.sub(rhs)
            trials += 1
            if d.is_zero_at_precision():
                ok += 1
            else:
                v = d.gauss_valuation()
                floor_seen = v if floor_seen is None else min(floor_seen, v)
                if v > dmax:
                    ok += 1
    rec.add("law-mod-truncation",
            "gamma(gamma'(x)) = (gamma gamma')(x) modulo the weight-Dmax ideal",
            ok == trials, {"trials": trials, "ok": ok, "min_defect_weight": floor_seen},
            t0)

    # elevated degree budget: low degrees agree exactly at full precision
    if cfg.h == 2:
        t0 = time.perf_counter()
        W = cfg.h * cfg.N + (cfg.h - 1) * dmax
        exact_ok, exact_trials = 0, 0
        for s in (-2, 0, 3):
            for _ in range(2):
                g1 = sample_gamma(ctx, 0, rng)
                g2 = sample_gamma(ctx, 0, rng)
                f = random_domain_func(ctx, cfg.h, dmax, rng)
                x = Section(DomainFunc(ctx, cfg.h, W, dict(f.terms)), s)
                lhs = gamma_act(g1, gamma_act(g2, x))
                rhs = gamma_act(div_mul(g1, g2), x)
                low = {e for e in lhs.sub(rhs).func.terms if sum(e) <= dmax}
                exact_trials += 1
                if not low:
                    exact_ok += 1
        rec.add("law-exact-low-degrees",
                "composition exact mod p^N to degree 6 at elevated budget",
                exact_ok == exact_trials,
                {"trials": exact_trials, "ok": exact_ok, "budget": W}, t0)

    t0 = time.perf_counter()
    np_ok, np_trials = 0, 0
    for s in (-2, 0, 3):
        for _ in range(6):
            g = sample_gamma(ctx, 0, rng)
            x = Section(random_domain_func(ctx, cfg.h, 4, rng), s)
            np_trials += 1
            if gamma_act(g, x).gauss_valuation() == x.gauss_valuation():
                np_ok += 1
    rec.add("norm-preservation", "||gamma(x)||_D = ||x||_D",
            np_ok == np_trials, {"trials": np_trials, "ok": np_ok}, t0)
    return rec.records


def exp_lie_weights(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    t0 = time.perf_counter()
    ok, trials = 0, 0
    for s in (0, 1, 3):
        for e in monomials(cfg.h, 6):
            x = monomial_section(ctx, cfg.h, 8, e, s)
            trials += 1
            good = lie_act(0, 0, x).func.eq(x.func.scale_int(s - sum(e)))
            for i in range(1, cfg.h):
                good = good and lie_act(i, i, x).func.eq(x.func.scale_int(e[i - 1]))
            if good:
                ok += 1
    rec.add("diagonal-weights",
            "x_00(w^a phi^s) = (s-|a|) w^a phi^s and x_ii -> a_i",
            ok == trials, {"monomials": trials, "ok": ok}, t0)

    t0 = time.perf_counter()
    killed = all(
        lie_act(0, j, monomial_section(ctx, cfg.h, 6, (0,) * (cfg.h - 1), s))
        .is_zero_at_precision()
        for j in range(1, cfg.h) for s in (0, 1, 3))
    rec.add("n-kills-highest-weight", "upper operators annihilate phi_0^s",
            killed, {}, t0)
    return rec.records


def exp_lie_bracket(cfg: ExperimentConfig) -> list[CheckRecord]:
    """[x_ij, x_kl] = d_jk x_il - d_li x_kj on the monomial sections of degree <= 5.

    Each operator image is computed once per section: the h^2 images x_b(x),
    and x_a(x_b(x)) and x_b(x_a(x)) for each unordered pair {a, b}.  Every
    section here is a monomial at precision N and lie_act keeps precision
    and Dmax, so the identity is checked exactly with its negative terms
    moved across: x_a x_b x + d_li x_kj x = x_b x_a x + d_jk x_il x.  The
    trial (b, a) is the same equation with its sides swapped, so one
    comparison decides both.

    Size budget: 2 C(h+4, h-1) h^4 trials, at most LIE_BRACKET_TRIALS
    (h <= 5); a larger h is a config error.
    """
    h = cfg.h
    needed = 2 * math.comb(h + 4, h - 1) * h ** 4
    if needed > LIE_BRACKET_TRIALS:
        raise ConfigInvalidError(
            f"lie-bracket at h = {h} needs {needed} bracket trials; "
            f"the budget is {LIE_BRACKET_TRIALS} (h <= 5)")
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, h, cfg.N)
    t0 = time.perf_counter()
    ops = [(i, j) for i in range(h) for j in range(h)]
    ok, trials = 0, 0
    for s in (0, 2):
        for e in monomials(h, 5):
            x = monomial_section(ctx, h, 7, e, s)
            first = {b: lie_act(*b, x) for b in ops}
            for n, a in enumerate(ops):
                for b in ops[n:]:
                    (i, j), (k, l) = a, b
                    ab = lie_act(i, j, first[b])
                    ba = lie_act(k, l, first[a]) if b != a else ab
                    lhs = ab.add(first[k, j]) if l == i else ab
                    rhs = ba.add(first[i, l]) if j == k else ba
                    pair = 1 if b == a else 2
                    trials += pair
                    if lhs.eq(rhs):
                        ok += pair
    rec.add("gl-bracket", "[x_ij, x_kl] = d_jk x_il - d_li x_kj on sections",
            ok == trials, {"trials": trials, "ok": ok}, t0)
    return rec.records


def exp_finite_difference(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    t0 = time.perf_counter()
    # measured pre-build: the defect gains exactly h units of v(p)/h per step
    step_floor = cfg.h
    ok, trials = 0, 0
    min_step = None
    for _ in range(20):
        delta = sample_obh(ctx, rng)
        f = random_domain_func(ctx, cfg.h, 4, rng)
        x = Section(DomainFunc(ctx, cfg.h, 30, dict(f.terms)), 1)
        prev = None
        for k in (2, 3, 4, 5):
            quot, dx = lie_finite_difference(delta, x, k)
            err = quot.sub(dx)
            v = None if err.is_zero_at_precision() else err.func.gauss_valuation()
            if prev is not None:
                trials += 1
                if v is None or v - prev >= step_floor:
                    ok += 1
                if v is not None:
                    step = v - prev
                    min_step = step if min_step is None else min(min_step, step)
            if v is None:
                break
            prev = v
    rec.add("difference-quotient-converges",
            "valuation of p^-k (gamma(x)-x) - D_delta(x) grows by >= h units per step",
            ok == trials, {"steps": trials, "ok": ok, "min_step": min_step}, t0)

    t0 = time.perf_counter()
    zero_case = lie_finite_difference(
        divalg.DivElem(ctx, tuple(ctx.zero() for _ in range(cfg.h))),
        Section(random_domain_func(ctx, cfg.h, 4, rng), 0), 2)
    rec.add("zero-direction", "delta = 0 gives (0, 0)",
            zero_case[0].is_zero_at_precision() and zero_case[1].is_zero_at_precision(),
            {}, t0)

    t0 = time.perf_counter()
    # diagonal sanity: D(w_1 phi^0) = (M_11 - M_00) w_1 for diagonal j(delta)
    lam = ctx.random_unit(rng)
    delta = divalg.div_from_scalar(lam)
    x = Section(domain_var(ctx, cfg.h, 6, 1), 0)
    mat = j_embed(delta)
    expected = domain_var(ctx, cfg.h, 6, 1).scale(scalar_sub(mat[1][1], mat[0][0]))
    got = domain.lie_derived_operator(delta, x)
    rec.add("derived-diagonal", "D_delta(w_1) = (j(delta)_11 - j(delta)_00) w_1",
            got.func.eq(expected), {}, t0)
    return rec.records


def exp_fn_sequence(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    t0 = time.perf_counter()
    dmax = cfg.Dmax
    d = 2
    # the second check compares f_n for n from Dmax - d to nmax
    nmax = max(10, dmax - d)
    ok, trials = 0, 0
    tails = []  # per twist: the (closed form, f_n) pairs the second check compares, and deg_d
    for s in (-1, 0, 2):
        terms = {e: ctx.random_element(rng) for e in monomials(cfg.h, dmax) if sum(e) >= d}
        f0 = DomainFunc(ctx, cfg.h, dmax, terms)
        if not any(sum(e) == d for e in f0.terms):
            f0 = f0.add(domain_monomial(ctx, cfg.h, dmax, (d,) + (0,) * (cfg.h - 2),
                                        ctx.random_unit(rng)))
        recs, closed = fn_sequence(f0, d, s, nmax)
        for a, b in zip(recs, closed):
            trials += 1
            if a.eq(b):
                ok += 1
        deg_d = DomainFunc(ctx, cfg.h, dmax, {e: c for e, c in f0.terms.items() if sum(e) == d})
        tails.append(([(closed[n], recs[n]) for n in range(dmax - d, nmax + 1)], deg_d))
        # homogeneous input is fixed
        trials += 1
        hom_rec, hom_closed = fn_sequence(deg_d, d, s, 3)
        if all(g.eq(deg_d) for g in hom_rec + hom_closed):
            ok += 1
    rec.add("recursion-equals-closed-form",
            "f_n = (1/n)((d+n-s) f_{n-1} + x_00 f_{n-1}) matches (-1)^n C(i-1,n) scaling",
            ok == trials, {"comparisons": trials, "ok": ok}, t0)

    t0 = time.perf_counter()
    stab_ok, stab_trials = 0, 0
    for tail, deg_d in tails:
        for closed_n, rec_n in tail:
            stab_trials += 1
            if closed_n.eq(deg_d) and rec_n.eq(deg_d):
                stab_ok += 1
    rec.add("stabilizes-to-lowest-slice",
            "f_n equals the degree-d part once n >= Dmax - d",
            stab_ok == stab_trials, {"comparisons": stab_trials, "ok": stab_ok}, t0)
    return rec.records


def exp_vs_stability(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    t0 = time.perf_counter()
    ok, trials = 0, 0
    bases = []
    for s in range(0, 6):
        basis = [e for e in monomials(cfg.h, s)]
        bases.append(basis)
        for e in basis:
            g = sample_gamma(ctx, 0, rng)
            y = gamma_act(g, monomial_section(ctx, cfg.h, s + 2, e, s))
            trials += 1
            if all(sum(t) <= s for t in y.func.terms):
                ok += 1
    rec.add("gamma-stabilizes-Vs", "gamma(w^a phi_0^s) stays in V_s for |a| <= s",
            ok == trials, {"trials": trials, "ok": ok}, t0)

    t0 = time.perf_counter()
    dims_ok = all(len(basis) == math.comb(s + cfg.h - 1, cfg.h - 1)
                  for s, basis in enumerate(bases))
    rec.add("Vs-dimension", "dim V_s = C(s+h-1, h-1)",
            dims_ok, {"s_range": [0, 5]}, t0)
    return rec.records


def exp_reachability(cfg: ExperimentConfig) -> list[CheckRecord]:
    if cfg.h < 2:
        raise ConfigInvalidError(
            "reachability needs h >= 2: its seed monomials need a coordinate w_1")
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    dmax = 8
    t0 = time.perf_counter()
    ok = True
    for s in (0, 1, 3):
        r = reach_span(monomial_section(ctx, cfg.h, dmax, (0,) * (cfg.h - 1), s), dmax)
        ok = ok and r.monomials == set(monomials(cfg.h, s))
    rec.add("highest-weight-spans-Vs", "the span of phi_0^s is exactly V_s",
            ok, {}, t0)

    t0 = time.perf_counter()
    full = set(monomials(cfg.h, dmax))
    e = (2,) + (1,) * (cfg.h - 2)  # degree d = h > s for small s
    ok2 = all(
        reach_span(monomial_section(ctx, cfg.h, dmax, e, s), dmax).monomials == full
        for s in range(0, sum(e)))
    rec.add("high-degree-reaches-all",
            "homogeneous degree d > s reaches every monomial below the bound",
            ok2, {"degree": sum(e)}, t0)

    t0 = time.perf_counter()
    ok3 = all(
        reach_span(monomial_section(ctx, cfg.h, dmax, e, s), dmax).monomials == full
        for s in (-1, -3) for e in [(0,) * (cfg.h - 1), (1,) + (0,) * (cfg.h - 2)])
    rec.add("negative-twist-reaches-all", "s < 0 reaches every monomial",
            ok3, {}, t0)
    return rec.records


def exp_kernels(cfg: ExperimentConfig) -> list[CheckRecord]:
    """Kernels of systems of Lie operators on the monomials of degree <= 8.

    Size budget: the largest system has C(h+7, h-1) monomial columns, at
    most KERNEL_COLUMNS (h <= 5); a larger h is a config error.
    """
    h = cfg.h
    columns = math.comb(h + 7, h - 1)
    if columns > KERNEL_COLUMNS:
        raise ConfigInvalidError(
            f"kernels at h = {h} needs {columns} monomial columns; "
            f"the budget is {KERNEL_COLUMNS} (h <= 5)")
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, h, cfg.N)
    const = tuple([0] * (h - 1))

    t0 = time.perf_counter()
    ok = True
    dims = {}
    for dm in (2, 5, 8):
        k = operator_kernel(ctx, h, [(0, j) for j in range(1, h)], 0, dm)
        dims[dm] = len(k.basis)
        ok = ok and len(k.basis) == 1 and set(k.basis[0].terms) == {const} and k.reliable
    rec.add("n-row-kernel-is-constants",
            "df/dw_j = 0 for all j forces a constant (every Dmax <= 8)",
            ok, {"dimensions": dims}, t0)

    t0 = time.perf_counter()
    nops = [(i, j) for i in range(h) for j in range(h) if i < j]
    dims = []
    ok = True
    for s in (2, 3):
        k2 = operator_kernel(ctx, h, nops, s, 5, within_vs=True)
        dims.append(len(k2.basis))
        ok = ok and len(k2.basis) == 1 and set(k2.basis[0].terms) == {const}
    rec.add("n-kernel-in-Vs-is-line",
            "within V_s the upper-triangular kernel is the line phi_0^s",
            ok, {"dimensions": dims}, t0)

    t0 = time.perf_counter()
    k3 = operator_kernel(ctx, h, [], 0, 4)
    rec.add("empty-system-full-space", "no constraints leave the whole space",
            len(k3.basis) == len(monomials(h, 4)), {"dimension": len(k3.basis)}, t0)
    return rec.records


def exp_lf_diagnostic(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    ladder = (6, 8, 10)
    t0 = time.perf_counter()
    ok, trials = 0, 0
    for s in (0, 1, 3):
        dim_vs = math.comb(s + cfg.h - 1, cfg.h - 1)
        for _ in range(3):
            exps = [e for e in monomials(cfg.h, s)]
            terms = {e: ctx.random_element(rng) for e in exps}
            f = DomainFunc(ctx, cfg.h, 10, terms)
            if f.is_zero_at_precision():
                continue
            v = lf_diagnostic(Section(f, s), ladder)
            trials += 1
            if v.kind == "finite" and v.dimension is not None and v.dimension <= dim_vs:
                ok += 1
    rec.add("Vs-vectors-finite", "vectors inside V_s report a stable dimension",
            ok == trials, {"trials": trials, "ok": ok, "ladder": list(ladder)}, t0)

    t0 = time.perf_counter()
    ok2 = True
    for s in (0, 1, 2):
        e = (s + 1,) + (0,) * (cfg.h - 2)
        v = lf_diagnostic(monomial_section(ctx, cfg.h, 12, e, s), ladder)
        ok2 = ok2 and v.kind == "growing"
    rec.add("outside-Vs-grows", "w_1^(s+1) phi_0^s keeps growing along the ladder",
            ok2, {"ladder": list(ladder)}, t0)

    t0 = time.perf_counter()
    v = lf_diagnostic(Section(domain_const(ctx, cfg.h, 10, ctx.one()), 0), ladder)
    rec.add("constant-is-finite", "the constant section at s = 0 has dimension 1",
            v.kind == "finite" and v.dimension == 1, {}, t0)
    return rec.records


def exp_contraction(cfg: ExperimentConfig) -> list[CheckRecord]:
    """Gamma_n contracts vD(gamma f - f) by n h, and b^alpha by |alpha| n h.

    Size budget: functions of degree <= 14 at h = 2 and <= 10 beyond, at
    most ACTION_DIGITS p-adic digits (h <= 4 at N = 8); a larger config is a
    config error.
    """
    # the second check's degree budget keeps the truncation floor above |alpha| n h
    bdmax = 14 if cfg.h == 2 else 10
    _check_action_budget(cfg, bdmax)
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    t0 = time.perf_counter()
    ok, trials = 0, 0
    worst = {}
    dmax = 10 if cfg.h == 2 else 6
    for n in (1, 2, 3):
        rng = random.Random(cfg.seed + n)
        mins = None
        for _ in range(12):
            g = sample_gamma(ctx, n, rng)
            f = random_domain_func(ctx, cfg.h, dmax, rng)
            prof = contraction_profile(g, f)
            trials += 1
            if prof is None or prof >= n * cfg.h:
                ok += 1
            if prof is not None:
                mins = prof if mins is None else min(mins, prof)
        worst[n] = mins
    rec.add("gamma-n-contracts",
            "vD(gamma f - f) - vD(f) >= n h for gamma in Gamma_n (measured, frozen)",
            ok == trials, {"trials": trials, "ok": ok, "min_profiles": worst}, t0)

    t0 = time.perf_counter()
    ok2, trials2 = 0, 0
    n = 1
    rng = random.Random(cfg.seed + 100)
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        for _ in range(2):
            gs = [sample_gamma(ctx, n, rng) for _ in range(2)]
            f = random_domain_func(ctx, cfg.h, 3, rng)
            x = Section(DomainFunc(ctx, cfg.h, bdmax, dict(f.terms)), 0)
            y = dist.apply_b_iterated(dist.BMonomialSet(gs, alpha), x)
            trials2 += 1
            if y.is_zero_at_precision():
                ok2 += 1
            elif y.gauss_valuation() - f.gauss_valuation() >= sum(alpha) * n * cfg.h:
                ok2 += 1
    rec.add("b-monomial-contracts",
            "vD(b^a f) - vD(f) >= |a| n h, iterating the single step",
            ok2 == trials2, {"trials": trials2, "ok": ok2}, t0)
    return rec.records


def exp_formal_group_axioms(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p = cfg.p
    dmax = 20
    rng = random.Random(cfg.seed)
    for tag, fdict in (("height-1", {1: p, p: 1}),
                       ("height-h", {1: p, p ** cfg.h: 1})):
        t0 = time.perf_counter()
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
                {"f": fdict, "Dmax": dmax}, t0, f=sorted(fdict.items()))

    t0 = time.perf_counter()
    G = formal.gm_module(p, max(dmax, p + 1), cfg.N)
    expect = {(n,): math.comb(p, n) for n in range(1, p + 1)}
    gm_ok = G.mult(p).eq(TruncSeries(G.ring, 1, G.dmax, expect))
    rec.add("gm-p-multiplication", "[p] on the multiplicative law is (1+X)^p - 1",
            gm_ok, {}, t0)
    return rec.records


def exp_gm_identities(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p = cfg.p
    dmax = cfg.Dmax
    rng = random.Random(cfg.seed)
    G = formal.gm_module(p, dmax, cfg.N)
    t0 = time.perf_counter()
    one_ok = G.mult(1).eq(series_var(G.ring, 1, dmax, 0))
    rec.add("one-is-identity", "[1](X) = X", one_ok, {}, t0)
    t0 = time.perf_counter()
    expect = {(n,): math.comb(p, n) for n in range(1, p + 1)}
    rec.add("p-binomial", "[p](X) = (1+X)^p - 1 exactly",
            G.mult(p).eq(TruncSeries(G.ring, 1, dmax, expect)), {}, t0)
    t0 = time.perf_counter()
    ok, trials = 0, 0
    for _ in range(6):
        a = rng.randrange(-20, 20)
        b = rng.randrange(-20, 20)
        trials += 1
        if compose_univariate(G.mult(a), G.mult(b)).eq(G.mult(a * b)):
            ok += 1
    rec.add("composition", "[a][b] = [ab] for sampled integers",
            ok == trials, {"trials": trials, "ok": ok}, t0)
    return rec.records


def exp_logarithm(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p = cfg.p
    t0 = time.perf_counter()
    ga = formal.ga_module(p, 10, cfg.N)
    la = formal.logarithm(ga)
    ga_ok = la.numerator.eq(TruncSeries(la.numerator.ring, 1, 10,
                                        {(1,): p ** la.denom_exp}))
    rec.add("additive-log", "the additive law has logarithm X", ga_ok, {}, t0)

    t0 = time.perf_counter()
    G = formal.gm_module(p, 12, cfg.N)
    lg = formal.logarithm(G)
    ring = lg.numerator.ring
    d = lg.denom_exp
    expect = {}
    for n in range(1, 13):
        v = 0
        u = n
        while u % p == 0:
            u //= p
            v += 1
        c = pow(u, -1, ring.pN) * p ** (d - v) * (1 if n % 2 == 1 else -1)
        expect[(n,)] = c % ring.pN
    rec.add("multiplicative-log",
            "the multiplicative law integrates to sum (-1)^(n+1) X^n / n",
            lg.numerator.eq(TruncSeries(ring, 1, 12, expect)), {"denom_exp": d}, t0)

    t0 = time.perf_counter()
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
            add_ok and lin_ok, {"p": 3, "Dmax": 15}, t0)
    return rec.records


def exp_height(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p = cfg.p
    t0 = time.perf_counter()
    gm_h = formal.height(formal.gm_module(p, p + 2, cfg.N).reduce())
    rec.add("multiplicative-height", "the multiplicative reduction has height 1",
            gm_h == 1, {"height": gm_h}, t0)
    t0 = time.perf_counter()
    ga_h = formal.height(formal.ga_module(p, p + 2, cfg.N).reduce())
    rec.add("additive-height", "the additive reduction has height infinity",
            ga_h == math.inf, {"height": "inf"}, t0)
    heights = {}
    ok = True
    for hh in (2, 3):
        t0 = time.perf_counter()
        M = formal.lt_construct(p, {1: p, p ** hh: 1}, p ** hh + 2, min(cfg.N, 6))
        got = formal.height(M.reduce())
        heights[hh] = got
        ok = ok and got == hh
        rec.add(f"lubin-tate-height-{hh}",
                "[p] = g(X^(q^h)) with g'(0) != 0 read off the reduction",
                got == hh, {"expected": hh, "got": got}, t0)
    return rec.records


def exp_level_structure(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p = cfg.p
    prec = 6
    dm = 6 * (p - 1) + 2
    t0 = time.perf_counter()
    M = formal.lt_construct(p, {1: p, p: 1}, dm, prec)
    tors = formal.torsion_polynomial(M, 1)
    phi_over_x = {k - 1: v for k, v in tors.items()}
    R = series.QuotRing(IntModRing(p, prec), [phi_over_x.get(k, 0) for k in range(p)])
    pts = formal.make_level_points(M, R, 1)
    ok = formal.level_structure_check(M, pts, 1, R)
    rec.add("torsion-points-form-level-structure",
            "X prod (X - [a](x)) equals [p](X) in the torsion quotient ring",
            ok, {"p": p, "precision": prec}, t0)

    t0 = time.perf_counter()
    zero_ok = not formal.level_structure_check(M, [R.zero()] * p, 1, R)
    rec.add("zero-map-rejected", "phi = 0 fails: X^p does not divide [p](X)",
            zero_ok, {}, t0)

    t0 = time.perf_counter()
    triv = formal.level_structure_check(M, [R.zero()], 0, R)
    card = False
    try:
        formal.level_structure_check(M, [R.zero()] * (p + 1), 1, R)
    except formal.WrongCardinalityError:
        card = True
    rec.add("level-zero-and-cardinality",
            "m = 0 passes with the zero point; wrong cardinality raises",
            triv and card, {}, t0)
    return rec.records


def exp_endomorphism_frobenius(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p = cfg.p
    hh = cfg.h
    t0 = time.perf_counter()
    ctxr = UnramRing(make_context(p, hh, 1))
    M = formal.lt_construct(p, {1: p, p ** hh: 1}, p ** hh + 4, min(cfg.N, 6))
    red = M.reduce(ctxr)
    tau = formal.frobenius_power_series(red, 1)
    endo = formal.check_endomorphism(tau, red)
    rec.add("frobenius-is-endomorphism",
            "X^q commutes with the reduced law and its multiplications",
            endo, {"p": p, "h": hh}, t0)
    t0 = time.perf_counter()
    power = formal.frobenius_power_series(red, hh).eq(red.mult(p))
    rec.add("frobenius-power-is-p", "tau^h = [p] on the height-h reduction",
            power, {}, t0)
    t0 = time.perf_counter()
    ident = formal.check_endomorphism(series_var(red.ring, 1, red.dmax, 0), red)
    non = True
    if p >= 3:
        bad = TruncSeries(red.ring, 1, red.dmax,
                          {(1,): red.ring.one(), (2,): red.ring.one()})
        non = not formal.check_endomorphism(bad, red)
    rec.add("identity-and-counterexample",
            "the identity passes; X + X^2 fails additivity",
            ident and non, {}, t0)
    return rec.records


def exp_period_convergence(cfg: ExperimentConfig) -> list[CheckRecord]:
    rec = _Recorder(cfg)
    p, h = cfg.p, cfg.h
    nmax = cfg.nmax
    budget = periods.degree_budget(p, nmax)
    t0 = time.perf_counter()
    coeffs = periods.univ_log_coeffs(h, p, nmax, budget)
    rec_ok = all(periods.recursion_defect(coeffs, h, p, n).is_zero()
                 for n in range(1, nmax + 1))
    den_ok = all(a.denom <= n for n, a in enumerate(coeffs))
    rec.add("recursion-identity", "p a_n = sum u_i^(q^(n-i)) a_{n-i} exactly",
            rec_ok and den_ok, {"nmax": nmax}, t0)

    t0 = time.perf_counter()
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
            bounded, {"stages": stages}, t0)
    rec.add("origin-normalization", "the period point of the origin is [1:0:...:0]",
            origin_ok, {}, t0)

    t0 = time.perf_counter()
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
            decreasing and len(diffs) >= 2, {"difference_valuations": diffs}, t0)

    t0 = time.perf_counter()
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
            norm_ok, {}, t0)
    return rec.records


def exp_dist_norms(cfg: ExperimentConfig) -> list[CheckRecord]:
    """Norms of b-monomials, the signed expansion of (gamma - 1)^2, and two
    evaluation orders of b^alpha on a section.

    Size budget: functions of degree <= 2N + 5 at h = 2 and <= 12 beyond, at
    most ACTION_DIGITS p-adic digits (h <= 4 at N = 8, N <= 69 at h = 2); a
    larger config is a config error.
    """
    W = cfg.h * cfg.N + 5 if cfg.h == 2 else 12
    _check_action_budget(cfg, W)
    rec = _Recorder(cfg)
    ctx = make_context(cfg.p, cfg.h, cfg.N)
    rng = random.Random(cfg.seed)
    t0 = time.perf_counter()
    r = Fraction(1, cfg.p)
    norm_ok = dist.dist_norm_r({(0, 0): 1}, r, cfg.p) == 1
    for alpha in [(1, 0), (2, 1), (0, 3)]:
        norm_ok = norm_ok and dist.dist_norm_r({alpha: 1}, r, cfg.p) == r ** sum(alpha)
    r2 = Fraction(2, 2 * cfg.p - 1)
    for alpha in [(1, 1), (3, 0)]:
        norm_ok = norm_ok and dist.dist_norm_r({alpha: 1}, r2, cfg.p) == r2 ** sum(alpha)
    rec.add("b-monomial-norms", "||b^a||_r = r^|a| for the sup norm family",
            norm_ok, {}, t0)

    t0 = time.perf_counter()
    g1 = sample_gamma(ctx, 1, rng)
    g2 = sample_gamma(ctx, 1, rng)
    exp_ok = len(dist.expand_b_monomial(dist.BMonomialSet([g1], (0,)), ctx)) == 1
    mu = dist.expand_b_monomial(dist.BMonomialSet([g1], (2,)), ctx)
    keys = {g.key(): c for c, g in mu.pairs}
    sq = div_mul(g1, g1)
    exp_ok = exp_ok and keys.get(sq.key()) == ctx.from_int(1) \
        and keys.get(g1.key()) == ctx.from_int(-2) \
        and keys.get(div_one(ctx).key()) == ctx.from_int(1)
    rec.add("signed-expansion", "(gamma-1)^2 = d_{g^2} - 2 d_g + d_1",
            exp_ok, {}, t0)

    t0 = time.perf_counter()
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
            agree, {"budget": W}, t0)
    return rec.records


EXPERIMENTS = {
    "j-homomorphism": exp_j_homomorphism,
    "dheq-vs-matrix": exp_dheq_vs_matrix,
    "action-law": exp_action_law,
    "lie-weights": exp_lie_weights,
    "lie-bracket": exp_lie_bracket,
    "finite-difference": exp_finite_difference,
    "fn-sequence": exp_fn_sequence,
    "vs-stability": exp_vs_stability,
    "reachability": exp_reachability,
    "kernels": exp_kernels,
    "lf-diagnostic": exp_lf_diagnostic,
    "contraction": exp_contraction,
    "formal-group-axioms": exp_formal_group_axioms,
    "gm-identities": exp_gm_identities,
    "logarithm": exp_logarithm,
    "height": exp_height,
    "level-structure": exp_level_structure,
    "endomorphism-frobenius": exp_endomorphism_frobenius,
    "period-convergence": exp_period_convergence,
    "dist-norms": exp_dist_norms,
}


def run(cfg: ExperimentConfig) -> Report:
    cfg.validate()
    if cfg.experiment not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment {cfg.experiment!r}; see `list`")
    checks = EXPERIMENTS[cfg.experiment](cfg)
    return Report(cfg.experiment, cfg.to_json(), checks)


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
