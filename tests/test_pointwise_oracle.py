"""Independent pointwise validation of the substitution actions.

The series routes (dheq coefficients, geometric inversion, power chains)
are cross-checked against plain scalar arithmetic: move a point of the
domain by the fractional-linear action of the embedded matrix and compare
values. Truncation tails sit above p^(Dmax+1) and are invisible at the
working precision, so the comparisons are exact.
"""

import random

from padiclt.padics import make_context, scalar_add, scalar_inv, scalar_mul, scalar_mul_int
from padiclt.divalg import j_embed, sample_gamma
from padiclt.domain import (
    DomainFunc,
    Section,
    gamma_act,
    in_parabolic,
    p_act,
    random_domain_func,
    sample_parabolic,
)


def _evaluate(f, point):
    # the value of f at a point of the domain (a list of h-1 scalars)
    acc = f.ctx.zero()
    for e, c in f.terms.items():
        term = c
        for i, a in enumerate(e):
            for _ in range(a):
                term = scalar_mul(term, point[i])
        acc = scalar_add(acc, term)
    return acc


def _domain_point(ctx, h, rng):
    # |w_i| <= |p| <= |p|^(1 - i/h) keeps the point inside the domain
    return [scalar_mul_int(ctx.random_element(rng), ctx.p) for _ in range(h - 1)]


def _moved_point(mat, point, ctx, h):
    row = [ctx.one()] + point
    out = []
    for c in range(h):
        acc = ctx.zero()
        for r in range(h):
            acc = scalar_add(acc, scalar_mul(row[r], mat[r][c]))
        out.append(acc)
    inv0 = scalar_inv(out[0])
    return [scalar_mul(out[i], inv0) for i in range(1, h)], out[0]


def test_gamma_action_pointwise():
    for h, p in [(2, 5), (3, 3)]:
        ctx = make_context(p, h, 8)
        rng = random.Random(h * 7 + p)
        for _ in range(10):
            g = sample_gamma(ctx, 0, rng)
            f = random_domain_func(ctx, h, 4, rng)
            f10 = DomainFunc(ctx, h, 10, dict(f.terms))
            w = _domain_point(ctx, h, rng)
            moved, _ = _moved_point(j_embed(g), w, ctx, h)
            assert _evaluate(gamma_act(g, f10), w) == _evaluate(f10, moved)


def test_twisted_section_pointwise():
    ctx = make_context(5, 2, 8)
    rng = random.Random(1)
    for s in (-2, 3):
        for _ in range(8):
            g = sample_gamma(ctx, 0, rng)
            f = random_domain_func(ctx, 2, 4, rng)
            x = Section(DomainFunc(ctx, 2, 10, dict(f.terms)), s)
            w = _domain_point(ctx, 2, rng)
            moved, den0 = _moved_point(j_embed(g), w, ctx, 2)
            expected = _evaluate(x.func, moved)
            if s >= 0:
                for _ in range(s):
                    expected = scalar_mul(expected, den0)
            else:
                inv = scalar_inv(den0)
                for _ in range(-s):
                    expected = scalar_mul(expected, inv)
            assert _evaluate(gamma_act(g, x).func, w) == expected


def test_parabolic_action_pointwise():
    for h, p in [(2, 5), (3, 3)]:
        ctx = make_context(p, h, 8)
        rng = random.Random(h + p + 2)
        for _ in range(10):
            a = sample_parabolic(ctx, h, rng)
            assert in_parabolic(a, p)
            f = random_domain_func(ctx, h, 4, rng)
            f10 = DomainFunc(ctx, h, 10, dict(f.terms))
            w = _domain_point(ctx, h, rng)
            moved, _ = _moved_point(a, w, ctx, h)
            assert _evaluate(p_act(a, f10), w) == _evaluate(f10, moved)


def test_parabolic_norm_preservation_on_generic_members():
    from padiclt.domain import domain_var
    for h, p in [(2, 5), (3, 3)]:
        ctx = make_context(p, h, 8)
        rng = random.Random(h * p + 5)
        for _ in range(25):
            a = sample_parabolic(ctx, h, rng)
            for i in range(1, h):
                wi = domain_var(ctx, h, 6, i)
                assert p_act(a, wi).gauss_valuation() == wi.gauss_valuation()
