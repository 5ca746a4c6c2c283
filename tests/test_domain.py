import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclt.padics import (
    make_context,
    scalar_add,
    scalar_inv,
    scalar_mul,
    scalar_mul_int,
    scalar_neg,
    scalar_sub,
)
from padiclt.divalg import div_from_scalar, div_mul, div_one, j_embed, sample_gamma, sample_obh
from padiclt.domain import (
    DomainFunc,
    NotInPError,
    Section,
    ZeroAtPrecisionError,
    contraction_profile,
    domain_const,
    domain_monomial,
    domain_var,
    fn_sequence,
    gamma_act,
    lf_diagnostic,
    lie_act,
    lie_derived_operator,
    lie_finite_difference,
    monomial_section,
    monomials,
    operator_kernel,
    p_act,
    random_domain_func,
    reach_span,
)
from padiclt.padics import frobenius
from padiclt import domain, linalg, padics, periods, series
from padiclt.linalg import divide_by_pivot
from padiclt.series import UnramRing, substitute

CTX2 = make_context(5, 2, 8)
CTX3 = make_context(3, 3, 8)


def test_gauss_valuation_of_generators():
    for ctx, h in ((CTX2, 2), (CTX3, 3)):
        assert domain_const(ctx, h, 4, ctx.one()).gauss_valuation() == 0
        for i in range(1, h):
            assert domain_var(ctx, h, 4, i).gauss_valuation() == h - i
    with pytest.raises(ZeroAtPrecisionError):
        DomainFunc(CTX2, 2, 4).gauss_valuation()


def test_gauss_valuation_multiplicative():
    rng = random.Random(0)
    for ctx, h in ((CTX2, 2), (CTX3, 3)):
        for _ in range(100):
            f = random_domain_func(ctx, h, 3, rng)
            g = random_domain_func(ctx, h, 3, rng)
            vf, vg = f.gauss_valuation(), g.gauss_valuation()
            if vf + vg < h * (ctx.N - 2):
                assert f.mul(g).gauss_valuation() == vf + vg


def test_precision_errors_are_one_class_each():
    # the series class catches what the domain and linalg layers raise
    caught = []
    for raise_it in (lambda: domain_const(CTX2, 2, 4, CTX2.from_int(3)).scale_down(1),
                     lambda: divide_by_pivot(CTX2.one(), CTX2.from_int(5))):
        try:
            raise_it()
        except series.PrecisionLossError as exc:
            caught.append(exc)
    assert len(caught) == 2
    assert series.PrecisionLossError is linalg.PrecisionLossError is padics.PrecisionLossError
    assert ZeroAtPrecisionError is periods.ZeroAtPrecisionError is padics.ZeroAtPrecisionError


def test_series_operations_keep_the_domain_type():
    # the inherited TruncSeries operations build DomainFuncs, so a power or a
    # product of domain functions goes through DomainFunc.mul
    rng = random.Random(15)
    f = random_domain_func(CTX3, 3, 4, rng)
    g = random_domain_func(CTX3, 3, 4, rng)
    c = CTX3.random_unit(rng)
    w = domain_var(CTX3, 3, 4, 1)
    for out in (f.add(g), f.sub(g), f.neg(), f.scale(c), f.scale_int(3), f.mul(g), f.pow(0),
                f.pow(3), f.at_precision(5), f.scale_int(9).scale_down(2),
                series.geometric_inverse(domain_const(CTX3, 3, 4, CTX3.one()).add(f.mul(w)))):
        assert type(out) is DomainFunc and (out.ctx, out.h, out.dmax) == (CTX3, 3, 4)
    assert f.pow(3).eq(f.mul(f).mul(f)) and f.pow(0).eq(domain_const(CTX3, 3, 4, CTX3.one()))


def test_identity_acts_trivially():
    rng = random.Random(1)
    for s in (-2, 0, 3):
        x = Section(random_domain_func(CTX3, 3, 5, rng), s)
        assert gamma_act(div_one(CTX3), x).eq(x)


def test_scalar_gamma_on_generator():
    rng = random.Random(2)
    lam = CTX2.random_unit(rng)
    g = div_from_scalar(lam)
    acted = gamma_act(g, domain_var(CTX2, 2, 6, 1))
    expect = domain_var(CTX2, 2, 6, 1).scale(scalar_mul(frobenius(lam), scalar_inv(lam)))
    assert acted.eq(expect)


def test_action_is_ring_homomorphism():
    # the degree budget must hold the full product: substitution of a
    # polynomial inside the budget is the exact truncation of the action
    rng = random.Random(3)
    g = sample_gamma(CTX3, 0, rng)
    dmax = 6
    f1 = DomainFunc(CTX3, 3, dmax, dict(random_domain_func(CTX3, 3, 3, rng).terms))
    f2 = DomainFunc(CTX3, 3, dmax, dict(random_domain_func(CTX3, 3, 3, rng).terms))
    assert gamma_act(g, f1.mul(f2)).eq(gamma_act(g, f1).mul(gamma_act(g, f2)))
    assert gamma_act(g, f1.add(f2)).eq(gamma_act(g, f1).add(gamma_act(g, f2)))


def test_action_law_holds_modulo_truncation_ideal():
    rng = random.Random(4)
    for ctx, h in ((CTX2, 2), (CTX3, 3)):
        for s in (-1, 0, 2):
            g1, g2 = sample_gamma(ctx, 0, rng), sample_gamma(ctx, 0, rng)
            x = Section(random_domain_func(ctx, h, 6, rng), s)
            d = gamma_act(g1, gamma_act(g2, x)).sub(gamma_act(div_mul(g1, g2), x))
            assert d.is_zero_at_precision() or d.gauss_valuation() > 6


def test_action_law_exact_in_low_degrees_at_elevated_budget():
    rng = random.Random(5)
    W = 2 * CTX2.N + 6
    for s in (-2, 0, 3):
        g1, g2 = sample_gamma(CTX2, 0, rng), sample_gamma(CTX2, 0, rng)
        f = random_domain_func(CTX2, 2, 6, rng)
        x = Section(DomainFunc(CTX2, 2, W, dict(f.terms)), s)
        d = gamma_act(g1, gamma_act(g2, x)).sub(gamma_act(div_mul(g1, g2), x))
        assert not {e for e in d.func.terms if sum(e) <= 6}


def test_norm_preserved_by_action():
    rng = random.Random(6)
    for ctx, h in ((CTX2, 2), (CTX3, 3)):
        for s in (-2, 0, 3):
            g = sample_gamma(ctx, 0, rng)
            x = Section(random_domain_func(ctx, h, 4, rng), s)
            assert gamma_act(g, x).gauss_valuation() == x.gauss_valuation()


def test_gamma_act_rejects_non_units():
    from padiclt.padics import NonUnitError
    from padiclt.divalg import DivElem
    pi = DivElem(CTX2, (CTX2.zero(), CTX2.one()))
    with pytest.raises(NonUnitError):
        gamma_act(pi, domain_var(CTX2, 2, 4, 1))


def test_p_act_membership_and_restriction():
    rng = random.Random(7)
    g = sample_gamma(CTX3, 0, rng)
    a = j_embed(g)
    f = random_domain_func(CTX3, 3, 4, rng)
    assert p_act(a, f).eq(gamma_act(g, Section(f, 0)).func)
    bad = [row[:] for row in a]
    bad[0][1] = CTX3.one()  # top-row entry must lie in p o_h
    with pytest.raises(NotInPError):
        p_act(bad, f)


def test_lie_weights_and_nilpotent_kill():
    for s in (0, 1, 3):
        for e in monomials(3, 4):
            x = monomial_section(CTX3, 3, 6, e, s)
            assert lie_act(0, 0, x).func.eq(x.func.scale_int(s - sum(e)))
            for i in (1, 2):
                assert lie_act(i, i, x).func.eq(x.func.scale_int(e[i - 1]))
    for j in (1, 2):
        assert lie_act(0, j, monomial_section(CTX3, 3, 6, (0, 0), 4)).is_zero_at_precision()


def test_gl_bracket_on_monomials():
    ops = [(i, j) for i in range(2) for j in range(2)]
    for s in (0, 2):
        for e in monomials(2, 4):
            x = monomial_section(CTX2, 2, 6, e, s)
            for (i, j) in ops:
                for (k, l) in ops:
                    lhs = lie_act(i, j, lie_act(k, l, x)).sub(lie_act(k, l, lie_act(i, j, x)))
                    rhs = Section(DomainFunc(CTX2, 2, 6), s)
                    if j == k:
                        rhs = rhs.add(lie_act(i, l, x))
                    if l == i:
                        rhs = rhs.sub(lie_act(k, j, x))
                    assert lhs.eq(rhs)


def test_finite_difference_zero_direction_and_diagonal():
    rng = random.Random(8)
    zero_delta = sample_obh(CTX2, rng)
    zero_delta = type(zero_delta)(CTX2, tuple(CTX2.zero() for _ in range(2)))
    x = Section(random_domain_func(CTX2, 2, 4, rng), 0)
    q, d = lie_finite_difference(zero_delta, x, 2)
    assert q.is_zero_at_precision() and d.is_zero_at_precision()

    lam = CTX2.random_unit(rng)
    delta = div_from_scalar(lam)
    mat = j_embed(delta)
    x1 = Section(domain_var(CTX2, 2, 6, 1), 0)
    expect = domain_var(CTX2, 2, 6, 1).scale(scalar_sub(mat[1][1], mat[0][0]))
    assert lie_derived_operator(delta, x1).func.eq(expect)


def test_finite_difference_convergence():
    ctx = make_context(5, 2, 12)
    rng = random.Random(9)
    for _ in range(5):
        delta = sample_obh(ctx, rng)
        f = random_domain_func(ctx, 2, 4, rng)
        x = Section(DomainFunc(ctx, 2, 30, dict(f.terms)), 1)
        prev = None
        for k in (2, 3, 4, 5):
            quot, dx = lie_finite_difference(delta, x, k)
            err = quot.sub(dx)
            v = None if err.is_zero_at_precision() else err.func.gauss_valuation()
            if prev is not None and v is not None:
                assert v - prev >= 2
            if v is None:
                break
            prev = v


def test_fn_sequence_base_cases():
    rng = random.Random(10)
    hom = domain_monomial(CTX2, 2, 8, (3,), CTX2.random_unit(rng))
    rec, closed = fn_sequence(hom, 3, 1, 4)
    assert all(g.eq(hom) for g in rec + closed)
    f0 = hom.add(domain_monomial(CTX2, 2, 8, (5,), CTX2.random_unit(rng)))
    rec, closed = fn_sequence(f0, 3, 0, 0)
    assert rec[0].eq(f0) and closed[0].eq(f0)


def test_fn_sequence_matches_closed_form():
    ctx = make_context(3, 2, 8)
    rng = random.Random(11)
    for s in (-1, 0, 2):
        terms = {e: ctx.random_element(rng) for e in monomials(2, 10) if sum(e) >= 2}
        f0 = DomainFunc(ctx, 2, 10, terms)
        if not any(sum(e) == 2 for e in f0.terms):
            f0 = f0.add(domain_monomial(ctx, 2, 10, (2,), ctx.random_unit(rng)))
        rec, closed = fn_sequence(f0, 2, s, 10)
        for a, b in zip(rec, closed):
            assert a.eq(b)
        deg2 = DomainFunc(ctx, 2, 10, {e: c for e, c in f0.terms.items() if sum(e) == 2})
        assert closed[8].eq(deg2)


def test_fn_sequence_inverts_once_per_step(monkeypatch):
    # the old recursion divided every coefficient by n through divide_by_pivot
    ctx = make_context(3, 2, 8)
    rng = random.Random(12)
    terms = {e: ctx.random_element(rng) for e in monomials(2, 10) if sum(e) >= 2}
    f0 = DomainFunc(ctx, 2, 10, terms).add(domain_monomial(ctx, 2, 10, (2,), ctx.one()))
    rec = [f0]
    for n in range(1, 10):
        prev = rec[-1]
        combined = prev.scale_int(2 + n - 1).add(prev.scale_int(1).sub(_reference_euler(prev)))
        rec.append(DomainFunc(ctx, 2, 10, {e: divide_by_pivot(c, ctx.from_int(n))
                                           for e, c in combined.terms.items()}))
    inversions = []
    real_inv = linalg.scalar_inv
    monkeypatch.setattr(linalg, "scalar_inv", lambda a: inversions.append(a) or real_inv(a))
    got, _ = fn_sequence(f0, 2, 1, 9)
    assert len(inversions) == 9
    for a, b in zip(got, rec):
        _assert_identical(a, b)


def test_fn_sequence_rejects_bad_input():
    f = domain_monomial(CTX2, 2, 6, (1,))
    with pytest.raises(ValueError):
        fn_sequence(f, 2, 0, 3)  # has a term below degree d


@settings(max_examples=20, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 5))
def test_reach_span_of_highest_weight(s, seed):
    r = reach_span(monomial_section(CTX3, 3, 8, (0, 0), s), 8)
    assert r.monomials == set(monomials(3, s))
    assert r.dimension == math.comb(s + 2, 2)


def test_reach_span_full_cases():
    full = set(monomials(3, 8))
    assert reach_span(monomial_section(CTX3, 3, 8, (2, 1), 2), 8).monomials == full
    assert reach_span(monomial_section(CTX3, 3, 8, (1, 0), -2), 8).monomials == full


def test_operator_kernels():
    k = operator_kernel(CTX3, 3, [(0, 1), (0, 2)], 0, 8)
    assert len(k.basis) == 1 and set(k.basis[0].terms) == {(0, 0)} and k.reliable
    nops = [(0, 1), (0, 2), (1, 2)]
    k2 = operator_kernel(CTX3, 3, nops, 3, 5, within_vs=True)
    assert len(k2.basis) == 1 and set(k2.basis[0].terms) == {(0, 0)}
    k3 = operator_kernel(CTX3, 3, [], 0, 3)
    assert len(k3.basis) == len(monomials(3, 3))


def test_lf_diagnostic_verdicts():
    assert lf_diagnostic(monomial_section(CTX3, 3, 10, (1, 1), 3)).kind == "finite"
    v = lf_diagnostic(monomial_section(CTX3, 3, 12, (4, 0), 3))
    assert v.kind == "growing"
    c = lf_diagnostic(Section(domain_const(CTX3, 3, 10, CTX3.one()), 0))
    assert c.kind == "finite" and c.dimension == 1


def test_contraction_marker_and_bound():
    rng = random.Random(12)
    x = random_domain_func(CTX2, 2, 5, rng)
    assert contraction_profile(div_one(CTX2), x) is None
    for n in (1, 2, 3):
        for _ in range(10):
            g = sample_gamma(CTX2, n, rng)
            prof = contraction_profile(g, random_domain_func(CTX2, 2, 8, rng))
            assert prof is None or prof >= 2 * n


def test_vs_stability_support():
    rng = random.Random(13)
    for s in (0, 1, 3):
        for e in monomials(3, s):
            g = sample_gamma(CTX3, 0, rng)
            y = gamma_act(g, monomial_section(CTX3, 3, s + 2, e, s))
            assert all(sum(t) <= s for t in y.func.terms)


def _eliminated_kernel(ctx, h, ops, s, dmax, within_vs=False):
    """operator_kernel by general elimination: the one-entry rows of lie_table,
    one per (operator, target monomial), handed to linalg.kernel_basis."""
    exps = [e for e in monomials(h, dmax) if not within_vs or sum(e) <= s]
    col_of = {e: k for k, e in enumerate(exps)}
    table = domain.lie_table(s, ops, exps, dmax + 1, ctx.p ** ctx.N)
    rows = {(*op, b): {col_of[a]: ctx.from_int(k)}
            for (op, a), img in table.items() for b, k in img.items()}
    result = linalg.kernel_basis([rows[key] for key in sorted(rows)], len(exps), ctx, ctx.N)
    funcs = [DomainFunc(ctx, h, dmax, {exps[k]: v for k, v in enumerate(vec)
                                       if not v.is_zero_at_precision()})
             for vec in result.basis]
    return domain.KernelComputation(funcs, result.reliable, result.max_pivot_valuation)


def _kernel_outcome(k):
    return ([{e: c.key() for e, c in f.terms.items()} for f in k.basis], k.reliable,
            k.max_pivot_valuation)


@st.composite
def _operator_systems(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    h = draw(st.integers(1, 4))
    op = st.tuples(st.integers(0, h - 1), st.integers(0, h - 1))
    return (make_context(p, h, draw(st.integers(1, 6))), h,
            draw(st.lists(op, max_size=h * h + 2)), draw(st.integers(-3, 6)),
            draw(st.integers(0, 6)), draw(st.booleans()))


@given(_operator_systems())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_operator_kernel_matches_elimination(system):
    # operators in any number, diagonal and repeated ones included, with targets
    # past Dmax and twists on either side of the degrees, with and without V_s
    assert _kernel_outcome(operator_kernel(*system)) == _kernel_outcome(
        _eliminated_kernel(*system))


def test_operator_kernel_pivot_past_half_precision():
    # d/dw on w^0..w^8 at (p, N) = (2, 3): 8 = 0 mod 2^3 leaves w^8 free, and
    # w^4 pivots at valuation 2 > 3 // 2
    k = operator_kernel(make_context(2, 2, 3), 2, [(0, 1)], 0, 8)
    assert _kernel_outcome(k) == ([{(0,): ((1, 0), 3)}, {(8,): ((1, 0), 3)}], False, 2)


def test_kernel_vectors_are_annihilated():
    nops = [(0, 1), (0, 2), (1, 2)]
    k = operator_kernel(CTX3, 3, nops, 3, 5, within_vs=True)
    for f in k.basis:
        for (i, j) in nops:
            assert lie_act(i, j, Section(f, 3)).is_zero_at_precision()


# --- the lazy coefficient kernel against the per-pair scalar loop ---------

def _reference_mul(f: DomainFunc, g: DomainFunc) -> DomainFunc:
    """The product with one scalar_mul/scalar_add per pair of coefficients."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            if sum(e1) + sum(e2) > f.dmax:
                continue
            exp = tuple(a + b for a, b in zip(e1, e2))
            t = scalar_mul(c1, c2)
            out[exp] = scalar_add(out[exp], t) if exp in out else t
    return DomainFunc(f.ctx, f.h, f.dmax, out)


def _reference_substitution(f: DomainFunc, gens: list[DomainFunc]) -> DomainFunc:
    """f(gens) summed term by term: acc + (prod of generator powers) * c."""
    ctx, h, dmax = f.ctx, f.h, f.dmax
    pows = []
    for i in range(h - 1):
        row = [domain_const(ctx, h, dmax, ctx.one())]
        for _ in range(max((e[i] for e in f.terms), default=0)):
            row.append(_reference_mul(row[-1], gens[i]))
        pows.append(row)
    acc = DomainFunc(ctx, h, dmax)
    for e, c in f.terms.items():
        term = domain_const(ctx, h, dmax, ctx.one())
        for i, a in enumerate(e):
            if a:
                term = _reference_mul(term, pows[i][a])
        acc = acc.add(term.scale(c))
    return acc


def _assert_identical(a: DomainFunc, b: DomainFunc) -> None:
    assert set(a.terms) == set(b.terms)
    for exp, c in a.terms.items():
        assert (c.coords, c.prec) == (b.terms[exp].coords, b.terms[exp].prec), exp


def _assert_one_precision(got: DomainFunc, ref: DomainFunc, low: int) -> None:
    """got obeys the rule of one precision per product against ref, the per-pair
    reference: all of got's coefficients share one precision q, at least `low`
    and at most any precision ref reports, and got is ref cut to precision q."""
    precs = {c.prec for c in got.terms.values()}
    assert len(precs) <= 1
    q = precs.pop() if precs else low
    assert low <= q <= min((c.prec for c in ref.terms.values()), default=q)
    _assert_identical(got, ref.at_precision(q))


def _least_precision(*fs: DomainFunc) -> int:
    return min(c.prec for f in fs for c in f.terms.values())


def _assert_product_rule(f: DomainFunc, g: DomainFunc) -> None:
    """f*g is the reference product cut to the least precision of f and g."""
    got = f.mul(g)
    if not (f.terms and g.terms):
        assert got.is_zero()
        return
    q = _least_precision(f, g)
    assert {c.prec for c in got.terms.values()} <= {q}
    _assert_one_precision(got, _reference_mul(f, g), q)


def _mixed_precision(f: DomainFunc, rng, low: int) -> DomainFunc:
    """f with each coefficient cut to a random precision in [low, N]."""
    return DomainFunc(f.ctx, f.h, f.dmax, {e: c.at_precision(rng.randint(low, f.ctx.N))
                                            for e, c in f.terms.items()})


CTX_WIDE = make_context(2, 3, 32)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_mul_matches_reference_wide_coefficients(h):
    rng = random.Random(20 + h)
    for dmax in (0, 1, 4):
        for _ in range(4):
            f = random_domain_func(CTX_WIDE, h, dmax, rng)
            g = random_domain_func(CTX_WIDE, h, dmax, rng)
            _assert_identical(f.mul(g), _reference_mul(f, g))


def test_mul_empty_operand_and_degree_zero():
    rng = random.Random(21)
    f = random_domain_func(CTX3, 3, 3, rng)
    empty = DomainFunc(CTX3, 3, 3)
    assert f.mul(empty).is_zero_at_precision() and empty.mul(f).is_zero_at_precision()
    a, b = random_domain_func(CTX3, 3, 0, rng), random_domain_func(CTX3, 3, 0, rng)
    prod = a.mul(b)
    _assert_identical(prod, _reference_mul(a, b))
    assert set(prod.terms) <= {(0, 0)}


def test_mul_rejects_mixed_contexts():
    from padiclt.padics import ContextMismatchError
    with pytest.raises(ContextMismatchError):
        domain_var(CTX2, 2, 4, 1).mul(domain_var(make_context(3, 2, 8), 2, 4, 1))


def test_mul_drops_outputs_that_cancel():
    ctx = CTX2
    w = domain_var(ctx, 2, 4, 1)
    one = domain_const(ctx, 2, 4, ctx.one())
    # (1 + w)(1 - w) = 1 - w^2: the w coefficient cancels exactly
    prod = one.add(w).mul(one.sub(w))
    _assert_identical(prod, _reference_mul(one.add(w), one.sub(w)))
    assert set(prod.terms) == {(0,), (2,)}
    # p^5 * p^3 = p^8 vanishes mod p^8, and still sets the precision
    a = domain_const(ctx, 2, 4, ctx.from_int(5 ** 5))
    b = domain_const(ctx, 2, 4, ctx.from_int(5 ** 3)).add(w)
    prod = a.mul(b)
    _assert_identical(prod, _reference_mul(a, b))
    assert set(prod.terms) == {(1,)}


def test_mul_mixed_precision_within_and_across_operands():
    rng = random.Random(22)
    for ctx, h in ((CTX2, 2), (CTX3, 3), (CTX_WIDE, 3)):
        for _ in range(6):
            f = _mixed_precision(random_domain_func(ctx, h, 4, rng), rng, 1)
            g = _mixed_precision(random_domain_func(ctx, h, 4, rng), rng, 1)
            _assert_product_rule(f, g)
            # a uniform operand times a mixed one
            u = random_domain_func(ctx, h, 4, rng).at_precision(3)
            _assert_product_rule(u, f)
            _assert_product_rule(f, u)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([(2, 1, 6), (2, 2, 32), (3, 3, 4), (5, 2, 8)]),
       st.integers(2, 4), st.integers(0, 5), st.integers(0, 10 ** 6), st.booleans())
def test_mul_matches_reference_hypothesis(params, h, dmax, seed, mixed):
    ctx = make_context(*params)
    rng = random.Random(seed)
    f = random_domain_func(ctx, h, dmax, rng, ensure_nonzero=False)
    g = random_domain_func(ctx, h, rng.randint(0, dmax), rng, ensure_nonzero=False)
    if mixed:
        f, g = _mixed_precision(f, rng, 1), _mixed_precision(g, rng, 1)
        _assert_product_rule(f, g)
    else:
        _assert_identical(f.mul(g), _reference_mul(f, g))


def test_substitution_takes_the_least_input_precision():
    # c0 = 5 at precision 2 times the constant 5 of the generator is 0 mod
    # 25; it still takes part, so every coefficient of f(gen) = 25 + 3 + 5 w
    # has precision 2 (the per-pair reference keeps 3 at precision 8)
    ctx = CTX2
    c0, c1 = ctx.from_int(5, prec=2), ctx.from_int(3)
    f = DomainFunc(ctx, 2, 4, {(1,): c0, (0,): c1})
    gen = domain_const(ctx, 2, 4, ctx.from_int(5)).add(domain_var(ctx, 2, 4, 1))
    out = substitute(f, [gen])
    _assert_one_precision(out, _reference_substitution(f, [gen]), 2)
    assert {e: c.key() for e, c in out.terms.items()} == {(0,): ((3, 0), 2), (1,): ((5, 0), 2)}


def test_substitution_sum_is_independent_of_a_cancelled_partial_sum():
    # with gen = 1 + w the constant term collects a + b + c; a + b = 25 is 0
    # at precision 2, and the sequential reference restarts from c = 3 at
    # precision 8.  One accumulator gives 28 = 3 mod 25 in any order.
    ctx = CTX2
    a, b, c = ctx.from_int(5, prec=2), ctx.from_int(20), ctx.from_int(3)
    f = DomainFunc(ctx, 2, 4, {(0,): a, (1,): b, (2,): c})
    gen = domain_const(ctx, 2, 4, ctx.one()).add(domain_var(ctx, 2, 4, 1))
    out = substitute(f, [gen])
    _assert_one_precision(out, _reference_substitution(f, [gen]), 2)
    assert out.terms[(0,)].key() == ((3, 0), 2)
    reordered = DomainFunc(ctx, 2, 4, {(2,): c, (1,): b, (0,): a})
    _assert_identical(substitute(reordered, [gen]), out)


def test_substitution_matches_reference_mixed_precision():
    rng = random.Random(23)
    for ctx, h in ((CTX2, 2), (CTX3, 3), (make_context(2, 2, 6), 3)):
        for trial in range(8):
            f = random_domain_func(ctx, h, 4, rng)
            gens = [random_domain_func(ctx, h, 4, rng) for _ in range(h - 1)]
            if trial % 2:
                f = _mixed_precision(f, rng, 1)
                gens = [_mixed_precision(g, rng, 1) for g in gens]
                _assert_one_precision(substitute(f, gens),
                                      _reference_substitution(f, gens),
                                      _least_precision(f, *gens))
            else:
                _assert_identical(substitute(f, gens),
                                  _reference_substitution(f, gens))


_HORNER_CTX = {p: make_context(p, 2, 6) for p in (2, 3, 5)}


def _sparse_func(ctx, h: int, dmax: int, rng, size: int) -> DomainFunc:
    exps = monomials(h, dmax)
    return DomainFunc(ctx, h, dmax, {e: ctx.random_element(rng)
                                     for e in rng.sample(exps, min(size, len(exps)))})


def _horner_case(ctx, h: int, dmax: int, shape: str, rng) -> tuple[DomainFunc, list]:
    const = (0,) * (h - 1)
    if shape == "empty":
        f = DomainFunc(ctx, h, dmax)
    elif shape == "gap":
        top = (dmax,) + const[1:] if h > 1 else const
        f = DomainFunc(ctx, h, dmax, {top: ctx.random_unit(rng), const: ctx.random_element(rng)})
    elif shape == "dense" and h <= 3:
        f = random_domain_func(ctx, h, dmax, rng)
    else:
        f = _sparse_func(ctx, h, dmax, rng, rng.randint(1, 8))
    gens = []
    for _ in range(h - 1):
        if h <= 3:
            gens.append(random_domain_func(ctx, h, dmax, rng))
        elif rng.random() < 0.1:
            gens.append(DomainFunc(ctx, h, dmax))
        else:
            # dense generators cost the per-pair reference too much beyond
            # h = 3; a constant term keeps the powers from vanishing
            g = _sparse_func(ctx, h, dmax, rng, rng.randint(0, 5))
            gens.append(g.add(domain_const(ctx, h, dmax, ctx.random_element(rng))))
    return f, gens


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from(["sparse", "gap", "empty", "dense"]),
       st.integers(0, 10 ** 6), st.booleans())
def test_substitution_matches_reference_at_every_horner_level(p, shape, seed, mixed):
    # h = 1 substitutes nothing, h = 2 has only the last variable, and h >= 4
    # has middle levels; "gap" is c w_1^Dmax + d, whose steps below Dmax
    # have no group of their own
    ctx = _HORNER_CTX[p]
    rng = random.Random(seed)
    for h in range(1, 6):
        for dmax in range(6):
            f, gens = _horner_case(ctx, h, dmax, shape, rng)
            if mixed:
                f = _mixed_precision(f, rng, 1)
                gens = [_mixed_precision(g, rng, 1) for g in gens]
            got = substitute(f, gens)
            ref = _reference_substitution(f, gens)
            if not f.terms:
                assert got.is_zero() and ref.is_zero()
            elif mixed:
                _assert_one_precision(got, ref, _least_precision(f, *gens))
            else:
                _assert_identical(got, ref)


def test_substitution_keeps_the_precision_of_a_cancelled_horner_group():
    # f = w_1 (w_2 + 2) + terms free of w_1: with P_1 = 1 + 3 w_2 the top group
    # g_1(P_1) = 3 + 3 w_2 is 0 at its precision 1 and leaves no term, while
    # every other coefficient has precision 8.  Its pairs are nonempty, so one
    # flat sum over the terms of f has precision 1, and so must f(P), which
    # is 5 + 7 + 2 + 5 = 1 mod 3 since P_1 = 1 mod 3.
    ctx = CTX3
    low = {(1, 1): ctx.from_int(1, prec=1), (1, 0): ctx.from_int(2, prec=1)}
    high = {(0, 0): ctx.from_int(5), (0, 1): ctx.from_int(7), (0, 2): ctx.from_int(2),
            (0, 3): ctx.from_int(5)}
    f = DomainFunc(ctx, 3, 4, {**low, **high})
    p0 = DomainFunc(ctx, 3, 4, {(0, 0): ctx.from_int(2), (1, 0): ctx.one(),
                                (0, 1): ctx.from_int(10)})
    p1 = DomainFunc(ctx, 3, 4, {(0, 0): ctx.one(), (0, 1): ctx.from_int(3)})
    assert substitute(DomainFunc(ctx, 3, 4, low), [p0, p1]).is_zero()
    out = substitute(f, [p0, p1])
    assert out.terms and {c.prec for c in out.terms.values()} == {1}
    _assert_one_precision(out, _reference_substitution(f, [p0, p1]), 1)
    # one flat sum over the terms of f, as one _lazy_combine call
    flat = series._lazy_combine(UnramRing(ctx), 2, 4,
                                [({(0, 0): c}, p0.pow(e[0]).mul(p1.pow(e[1])).terms)
                                 for e, c in f.terms.items()])
    _assert_identical(out, DomainFunc(ctx, 3, 4, flat))


# --- the packed substitution against the bodies it replaced ----------------

def _reference_substitution_data(nums: list[DomainFunc], den: DomainFunc):
    """nums[i]/den and den_inv, with c0^-1 scaling the dense inverse."""
    c0inv = scalar_inv(den.coeff((0,) * den.nvars))
    den_inv = series.geometric_inverse(den.scale(c0inv)).scale(c0inv)
    return [num.mul(den_inv) for num in nums], den_inv


def _reference_horner(f: DomainFunc, gens: list[DomainFunc]) -> DomainFunc:
    """f(P) by the Horner scheme with one _lazy_combine call per step, each at
    its own precision, and the result cut to q once at the end."""
    ctx, nvars, dmax = f.ctx, f.nvars, f.dmax
    if not f.terms:
        return f._build({}, filtered=True)
    used = [gens[i] for i in range(nvars) if any(e[i] for e in f.terms)]
    q = min(c.prec for g in (f, *used) for c in g.terms.values())
    const = (0,) * nvars
    pows = [domain_const(ctx, f.h, dmax, ctx.one())]
    for _ in range(max(e[-1] for e in f.terms) if nvars else 0):
        pows.append(gens[-1] if len(pows) == 1 else pows[-1].mul(gens[-1]))

    def pairs(terms: dict, i: int) -> list:
        if i >= nvars - 1:
            return [({const: c}, pows[e[-1] if e else 0].terms) for e, c in terms.items()]
        groups: dict = {}
        for e, c in terms.items():
            groups.setdefault(e[i], {})[e] = c
        step: list = []
        for a in range(max(groups), -1, -1):
            if step:
                step = [(series._lazy_combine(UnramRing(ctx), nvars, dmax, step), gens[i].terms)]
            if a in groups:
                step += pairs(groups[a], i + 1)
        return step

    out = series._lazy_combine(UnramRing(ctx), nvars, dmax, pairs(f.terms, 0))
    if out and next(iter(out.values())).prec > q:
        return f._build({e: c.at_precision(q) for e, c in out.items()})
    return f._build(out, filtered=True)


def _reference_gamma_weights(gamma, h: int, ctx, dmax: int):
    """Numerators and denominator of the substitution for gamma, built term by
    term from the formula of the domain module docstring."""
    lam = gamma.coeffs
    p = ctx.p
    nums = []
    for i in range(1, h):
        terms: dict = {}
        zero = [0] * (h - 1)
        for jj in range(1, h + 1):
            if jj <= i:
                coef = frobenius(lam[i - jj], jj)
            else:
                coef = scalar_mul_int(frobenius(lam[(h + i - jj) % h], jj % h), p)
            if jj == h:
                exp = tuple(zero)  # w_h := 1
            else:
                e = zero[:]
                e[jj - 1] = 1
                exp = tuple(e)
            terms[exp] = scalar_add(terms[exp], coef) if exp in terms else coef
        nums.append(DomainFunc(ctx, h, dmax, terms))
    den_terms = {tuple([0] * (h - 1)): lam[0]}
    for jj in range(1, h):
        e = [0] * (h - 1)
        e[jj - 1] = 1
        den_terms[tuple(e)] = frobenius(lam[h - jj], jj)
    return nums, DomainFunc(ctx, h, dmax, den_terms)


def _reference_p_weights(a, h: int, ctx, dmax: int):
    """Numerators a_{0i} + sum_j a_{ji} w_j and denominator a_{00} + sum_j a_{j0} w_j."""
    def column(i):
        terms = {tuple([0] * (h - 1)): a[0][i]}
        for j in range(1, h):
            e = [0] * (h - 1)
            e[j - 1] = 1
            terms[tuple(e)] = a[j][i]
        return DomainFunc(ctx, h, dmax, terms)
    return [column(i) for i in range(1, h)], column(0)


def _generator_substitution_data(nums: list[DomainFunc], den: DomainFunc, inverse: bool = False):
    """nums[i]/den as (c0^-1 nums[i]) * 1/(1 + eps), and den_inv on request."""
    c0 = den.coeff((0,) * den.nvars)
    if c0.valuation() != 0:
        raise padics.NonUnitError("denominator constant term is not a unit")
    c0inv = scalar_inv(c0)
    u = series.geometric_inverse(den.scale(c0inv))
    gens = [num.scale(c0inv).mul(u) for num in nums]
    return gens, u.scale(c0inv) if inverse else None


def _generator_act(f: DomainFunc, nums: list[DomainFunc], den: DomainFunc, s: int) -> DomainFunc:
    """f(nums/den) * den^s by the generators nums[i]/den and the twist branches."""
    gens, den_inv = _generator_substitution_data(nums, den, inverse=s < 0)
    out = _reference_horner(f, gens)
    if s > 0:
        out = out.mul(den.pow(s))
    elif s < 0:
        out = out.mul(den_inv.pow(-s))
    return out


def _reference_gamma_act(gamma, x: Section) -> Section:
    f, s = x.func, x.twist
    nums, den = _reference_gamma_weights(gamma, f.h, f.ctx, f.dmax)
    gens, den_inv = _reference_substitution_data(nums, den)
    out = _reference_horner(f, gens)
    if s > 0:
        out = out.mul(den.pow(s))
    elif s < 0:
        out = out.mul(den_inv.pow(-s))
    return Section(out, s)


def _extreme_func(ctx, h: int, dmax: int, q: int) -> DomainFunc:
    """Every monomial of degree <= dmax with every coordinate p^q - 1, at precision q."""
    top = ctx.p ** q - 1
    return DomainFunc(ctx, h, dmax, {e: ctx.from_coords([top] * ctx.e, q)
                                     for e in monomials(h, dmax)})


_PACKED_CTX = {params: make_context(*params)
               for params in ((2, 2, 6), (3, 2, 6), (5, 2, 6), (3, 3, 8), (2, 4, 5))}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_PACKED_CTX)), st.integers(0, 10 ** 6))
def test_packed_substitution_matches_the_horner_oracle(params, seed):
    # "extreme" makes every coordinate of f and of the generators p^q - 1,
    # with dense generators, so each slot sum is as large as the inputs allow
    ctx = _PACKED_CTX[params]
    rng = random.Random(seed)
    for h in range(2, 6):
        for mode in ("uniform", "mixed", "extreme"):
            dmax = rng.randint(0, 7 - h)
            if mode == "extreme":
                q = rng.randint(1, ctx.N)
                f = _extreme_func(ctx, h, dmax, q)
                gens = [_extreme_func(ctx, h, dmax, q) for _ in range(h - 1)]
            else:
                f = random_domain_func(ctx, h, dmax, rng)
                gens = [random_domain_func(ctx, h, dmax, rng) for _ in range(h - 1)]
                if mode == "mixed":
                    f = _mixed_precision(f, rng, 1)
                    gens = [_mixed_precision(g, rng, 1) for g in gens]
            _assert_identical(substitute(f, gens), _reference_horner(f, gens))


_GAMMA_CTX = {h: make_context(3 if h < 5 else 2, h, 6) for h in range(2, 6)}


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_gamma_act_matches_the_reference_path(seed, mixed):
    # the whole twisted action against f(num/den) den^s with the dense inverse
    # den_inv = c0^-1 / (1 + eps) and the Horner oracle
    rng = random.Random(seed)
    for h in range(2, 6):
        ctx = _GAMMA_CTX[h]
        for s in (-2, 0, 3):
            dmax = rng.randint(1, 7 - h)
            gamma = sample_gamma(ctx, rng.randint(0, 2), rng)
            f = random_domain_func(ctx, h, dmax, rng)
            if mixed:
                f = _mixed_precision(f, rng, 1)
            got = gamma_act(gamma, Section(f, s))
            want = _reference_gamma_act(gamma, Section(f, s))
            assert got.twist == want.twist == s
            _assert_identical(got.func, want.func)


_ACT_CTX = {h: make_context(3 if h < 5 else 2, h, 6) for h in range(1, 6)}


def _mixed_scalar(c, rng, low: int):
    return c.at_precision(rng.randint(low, c.ctx.N))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10 ** 6), st.booleans())
def test_act_matches_the_generator_path(h, seed, mixed):
    # gamma_act and p_act against the generators nums[i]/den, the Horner
    # oracle and the twist branches, for every twist s from -3 to D + 2
    # (den^(s-D) a polynomial from s = D on); "mixed" cuts every matrix entry
    # and every coefficient of f to its own precision
    ctx = _ACT_CTX[h]
    rng = random.Random(seed)
    dmax = rng.randint(0, 7 - h) if h > 1 else 3
    f = random_domain_func(ctx, h, rng.randint(0, dmax), rng)
    f = DomainFunc(ctx, h, dmax, dict(f.terms))
    gamma = sample_gamma(ctx, rng.randint(0, 2), rng)
    a = domain.sample_parabolic(ctx, h, rng)
    if mixed:
        f = _mixed_precision(f, rng, 1)
        gamma = type(gamma)(ctx, tuple(_mixed_scalar(c, rng, 1) for c in gamma.coeffs))
        a = [[_mixed_scalar(c, rng, 1) for c in row] for row in a]
    D = max(map(sum, f.terms))
    nums, den = _reference_gamma_weights(gamma, h, ctx, dmax)
    for s in range(-3, D + 3):
        got = gamma_act(gamma, Section(f, s))
        assert got.twist == s
        _assert_identical(got.func, _generator_act(f, nums, den, s))
    _assert_identical(p_act(a, f), _generator_act(f, *_reference_p_weights(a, h, ctx, dmax), 0))
    # each substituted generator w_i -> nums[i]/den, precision included
    gens, den_inv = _generator_substitution_data(nums, den, inverse=True)
    _, ref_inv = _reference_substitution_data(nums, den)
    _assert_identical(den_inv, ref_inv)
    for i, g in enumerate(gens if dmax else [], 1):
        _assert_identical(gamma_act(gamma, domain_var(ctx, h, dmax, i)), g)


def _matrix_with_den(ctx, h: int, den: dict) -> list:
    """The identity substitution matrix with column 0 replaced by `den` (row -> scalar)."""
    mat = [[ctx.one() if r == c else ctx.zero() for c in range(h)] for r in range(h)]
    for r, c in den.items():
        mat[r][0] = c
    return mat


def test_act_takes_the_precision_of_den():
    # den = 1 + w_1 with its constant at precision 3 and f = w_1: every
    # coefficient of w_1 den^(s-1) has precision 3, den^0 at s = 1 included
    ctx = CTX3
    mat = _matrix_with_den(ctx, 3, {0: ctx.from_int(1, prec=3), 1: ctx.one()})
    f = domain_var(ctx, 3, 6, 1)
    nums, den = _reference_p_weights(mat, 3, ctx, 6)
    for s in (0, 1, 2):
        out = domain._act(f, mat, s)
        assert out.terms and {c.prec for c in out.terms.values()} == {3}
        _assert_identical(out, _generator_act(f, nums, den, s))
    # a constant at s = 0 keeps its own precision: den takes no part
    c = domain_const(ctx, 3, 6, ctx.from_int(7, prec=5))
    out = domain._act(c, mat, 0)
    assert {e: x.key() for e, x in out.terms.items()} == {(0, 0): ((7, 0, 0), 5)}
    _assert_identical(out, _generator_act(c, nums, den, 0))
    assert {x.prec for x in domain._act(c, mat, 1).terms.values()} == {3}


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_gamma_matrix_matches_the_term_by_term_weights(h):
    rng = random.Random(40 + h)
    ctx = _ACT_CTX[h]
    unit = [tuple(int(j == r) for j in range(1, h)) for r in range(h)]
    for n in (0, 1, 2):
        gamma = sample_gamma(ctx, n, rng)
        nums, den = _reference_gamma_weights(gamma, h, ctx, 2)
        mat = domain._gamma_matrix(gamma)
        for c, col in enumerate([den, *nums]):
            for r in range(h):
                if unit[r] in col.terms:
                    assert mat[r][c].key() == col.terms[unit[r]].key(), (r, c)
                else:
                    assert mat[r][c].is_zero_at_precision(), (r, c)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.integers(-6, 8), st.integers(0, 10 ** 6), st.booleans())
def test_den_power_matches_pow_and_the_geometric_inverse(h, m, seed, mixed):
    ctx = _ACT_CTX[h]
    rng = random.Random(seed)
    dmax = rng.randint(0, 6)
    _, den = _reference_gamma_weights(sample_gamma(ctx, rng.randint(0, 1), rng), h, ctx, dmax)
    if mixed:
        den = _mixed_precision(den, rng, 1)
    got = domain._den_power(den, m)
    if m > 0:
        want = den.pow(m)
    elif m < 0:
        want = _reference_substitution_data([], den)[1].pow(-m)
    else:
        want = domain_const(ctx, h, dmax, ctx.from_int(1, prec=_least_precision(den)))
    _assert_identical(got, want)


def test_den_power_rejects_a_non_unit_constant():
    from padiclt.padics import NonUnitError
    w = domain_var(CTX3, 3, 4, 1)
    for den in (w, w.add(domain_const(CTX3, 3, 4, CTX3.from_int(3)))):
        for m in (-2, 0, 2):
            with pytest.raises(NonUnitError):
                domain._den_power(den, m)


def test_monomials_match_filtered_product():
    for h in range(1, 6):
        for dmax in range(9):
            old = [t for t in itertools.product(range(dmax + 1), repeat=h - 1) if sum(t) <= dmax]
            old.sort(key=lambda t: (sum(t), t))
            assert monomials(h, dmax) == old


def test_monomials_count_without_enumerating_the_cube():
    assert len(monomials(8, 6)) == math.comb(13, 7)


# --- the one-pass Lie operator and linear ops against the old compositions ---

def _reference_partial(f: DomainFunc, j: int) -> DomainFunc:
    """d/dw_j for 1 <= j <= h-1."""
    out = {}
    for e, c in f.terms.items():
        n = e[j - 1]
        if n:
            ne = list(e)
            ne[j - 1] = n - 1
            out[tuple(ne)] = scalar_mul_int(c, n)
    return DomainFunc(f.ctx, f.h, f.dmax, out)


def _reference_mul_var(f: DomainFunc, i: int) -> DomainFunc:
    """Multiplication by w_i (1 <= i <= h-1); degree overflow truncates."""
    out = {}
    for e, c in f.terms.items():
        if sum(e) + 1 > f.dmax:
            continue
        ne = list(e)
        ne[i - 1] += 1
        out[tuple(ne)] = c
    return DomainFunc(f.ctx, f.h, f.dmax, out)


def _reference_euler(f: DomainFunc) -> DomainFunc:
    """sum_l w_l d/dw_l, the degree operator."""
    return DomainFunc(f.ctx, f.h, f.dmax,
                      {e: scalar_mul_int(c, sum(e)) for e, c in f.terms.items()})


def _reference_add(f: DomainFunc, g: DomainFunc) -> DomainFunc:
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = scalar_add(out[e], c) if e in out else c
    return DomainFunc(f.ctx, f.h, f.dmax, out)


def _reference_sub(f: DomainFunc, g: DomainFunc) -> DomainFunc:
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = scalar_sub(out[e], c) if e in out else scalar_neg(c)
    return DomainFunc(f.ctx, f.h, f.dmax, out)


def _reference_neg(f: DomainFunc) -> DomainFunc:
    return DomainFunc(f.ctx, f.h, f.dmax, {e: scalar_neg(c) for e, c in f.terms.items()})


def _reference_lie_act(i: int, j: int, x: Section) -> Section:
    """The (i,j) operator as d/dw_j or s f - euler f, then w_i *."""
    f, s = x.func, x.twist
    g = _reference_partial(f, j) if j else _reference_sub(f.scale_int(s), _reference_euler(f))
    return Section(_reference_mul_var(g, i) if i else g, s)


def _assert_lie_matches_reference(x: Section) -> None:
    h = x.func.h
    for i in range(h):
        for j in range(h):
            got, want = lie_act(i, j, x), _reference_lie_act(i, j, x)
            assert got.twist == want.twist == x.twist
            assert got.func.dmax == want.func.dmax
            _assert_identical(got.func, want.func)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.integers(0, 5),
       st.integers(-4, 6), st.integers(0, 10 ** 6), st.booleans())
def test_lie_act_matches_reference_hypothesis(p, h, dmax, s, seed, mixed):
    ctx = make_context(p, h, 4)
    rng = random.Random(seed)
    f = random_domain_func(ctx, h, dmax, rng, ensure_nonzero=False)
    if mixed:
        f = _mixed_precision(f, rng, 1)
    _assert_lie_matches_reference(Section(f, s))


def test_lie_act_zero_multiplier_s_equals_degree():
    # s = |a| kills w^a under x_00 and x_i0; the other terms stay
    ctx = CTX3
    f = DomainFunc(ctx, 3, 6, {(2, 1): ctx.from_int(7), (1, 0): ctx.from_int(2)})
    x = Section(f, 3)
    _assert_lie_matches_reference(x)
    assert set(lie_act(0, 0, x).func.terms) == {(1, 0)}
    assert set(lie_act(2, 0, x).func.terms) == {(1, 1)}
    assert lie_act(0, 0, monomial_section(ctx, 3, 6, (1, 2), 3)).is_zero_at_precision()


def test_lie_act_multiplier_divisible_by_p_power_of_precision():
    # a_1 = 5 kills a coefficient at precision 1 mod 5; at precision 3 the
    # result is 5 c at precision 3
    ctx = CTX2
    lo, hi = ctx.from_int(2, prec=1), ctx.from_int(2, prec=3)
    for c, survives in ((lo, False), (hi, True)):
        x = Section(DomainFunc(ctx, 2, 6, {(5,): c}), 0)
        _assert_lie_matches_reference(x)
        out = lie_act(0, 1, x).func
        assert bool(out.terms) == survives
        if survives:
            assert out.terms[(4,)].key() == ((10, 0), 3)
    # j = 0: s - |a| = 25 vanishes at precision 2, not at precision 3
    for prec, survives in ((2, False), (3, True)):
        x = Section(DomainFunc(ctx, 2, 6, {(1,): ctx.from_int(1, prec=prec)}), 26)
        _assert_lie_matches_reference(x)
        assert bool(lie_act(0, 0, x).func.terms) == survives
        assert bool(lie_act(1, 0, x).func.terms) == survives


def test_lie_act_truncates_raising_a_degree_dmax_term():
    ctx = CTX3
    f = DomainFunc(ctx, 3, 4, {(3, 1): ctx.from_int(1), (1, 0): ctx.from_int(1)})
    x = Section(f, 1)
    _assert_lie_matches_reference(x)
    # x_10 and x_20 raise the degree: the degree-4 term leaves the budget
    assert set(lie_act(1, 0, x).func.terms) == set()  # s - |a| = 0 on w_1
    assert set(lie_act(1, 0, Section(f, 0)).func.terms) == {(2, 0)}
    # x_12 keeps the degree: the degree-4 term stays
    assert set(lie_act(1, 2, x).func.terms) == {(4, 0)}


def test_lie_act_negative_twist():
    ctx = CTX3
    rng = random.Random(31)
    f = random_domain_func(ctx, 3, 5, rng)
    for s in (-1, -3, -7):
        x = Section(f, s)
        _assert_lie_matches_reference(x)
        out = lie_act(0, 0, x).func
        for e, c in f.terms.items():
            assert out.terms[e].key() == scalar_mul_int(c, s - sum(e)).key()


def _reference_closure(x: Section, dmax: int) -> set:
    """The monomials of degree <= dmax reached from the terms of x by
    _reference_lie_act, each step taken on a monomial of coefficient 1."""
    ctx, h, s = x.func.ctx, x.func.h, x.twist
    seen = {e for e in x.func.terms if sum(e) <= dmax}
    frontier = list(seen)
    while frontier:
        y = monomial_section(ctx, h, dmax, frontier.pop(), s)
        for i in range(h):
            for j in range(h):
                for b in _reference_lie_act(i, j, y).func.terms:
                    if b not in seen:
                        seen.add(b)
                        frontier.append(b)
    return seen


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.integers(0, 6),
       st.integers(-4, 6), st.integers(0, 10 ** 6))
def test_reach_span_is_the_closure_of_the_operators(p, h, dmax, s, seed):
    # every multiplier a_j or s - |a| has absolute value at most dmax + |s|;
    # at the least N with p^N above that, none vanishes mod p^N
    n = 1
    while p ** n <= dmax + abs(s):
        n += 1
    ctx = make_context(p, h, n)
    rng = random.Random(seed)
    exps = monomials(h, dmax)
    seeds = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
    x = Section(DomainFunc(ctx, h, dmax, {e: ctx.one() for e in seeds}), s)
    assert reach_span(x, dmax).monomials == _reference_closure(x, dmax)


def test_reach_span_keeps_edges_whose_multiplier_p_to_the_n_divides():
    # reach_span is a span in characteristic 0: from w_1^2 at s = 0 every
    # multiplier is +-2, so at p = 2, N = 1 each operator kills w_1^2, yet
    # the span is all 15 monomials of degree <= 4
    ctx = make_context(2, 3, 1)
    x = monomial_section(ctx, 3, 4, (2, 0), 0)
    assert reach_span(x, 4).monomials == set(monomials(3, 4))
    assert len(monomials(3, 4)) == 15
    assert lie_act(0, 1, x).is_zero_at_precision()
    assert _reference_closure(x, 4) == {(2, 0)}


def _assert_linear_ops_match(f: DomainFunc, g: DomainFunc) -> None:
    for got, want in ((f.add(g), _reference_add(f, g)), (f.sub(g), _reference_sub(f, g)),
                      (f.neg(), _reference_neg(f))):
        assert got.dmax == want.dmax == f.dmax
        _assert_identical(got, want)
        assert all(sum(e) <= f.dmax and not c.is_zero_at_precision()
                   for e, c in got.terms.items())


def test_linear_ops_cancel_to_zero():
    rng = random.Random(32)
    f = _mixed_precision(random_domain_func(CTX3, 3, 4, rng), rng, 1)
    _assert_linear_ops_match(f, f)
    _assert_linear_ops_match(f, f.neg())
    assert f.sub(f).is_zero_at_precision() and f.add(f.neg()).is_zero_at_precision()
    # 5 at precision 2 plus 20 is 0 mod 25: the sum is dropped
    a = DomainFunc(CTX2, 2, 4, {(1,): CTX2.from_int(5, prec=2), (0,): CTX2.one()})
    b = DomainFunc(CTX2, 2, 4, {(1,): CTX2.from_int(20)})
    _assert_linear_ops_match(a, b)
    assert set(a.add(b).terms) == {(0,)}


def test_linear_ops_with_a_wider_operand():
    rng = random.Random(33)
    f = random_domain_func(CTX3, 3, 3, rng)
    g = random_domain_func(CTX3, 3, 6, rng)
    _assert_linear_ops_match(f, g)  # g's terms above degree 3 are dropped
    _assert_linear_ops_match(g, f)
    assert max(sum(e) for e in f.add(g).terms) <= 3


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([(2, 2, 6), (3, 3, 4), (5, 2, 8)]), st.integers(0, 5),
       st.integers(0, 5), st.integers(0, 10 ** 6), st.booleans())
def test_linear_ops_match_reference_hypothesis(params, dmax_f, dmax_g, seed, mixed):
    ctx = make_context(*params)
    h = params[1]
    rng = random.Random(seed)
    f = random_domain_func(ctx, h, dmax_f, rng, ensure_nonzero=False)
    g = random_domain_func(ctx, h, dmax_g, rng, ensure_nonzero=False)
    if mixed:
        f, g = _mixed_precision(f, rng, 1), _mixed_precision(g, rng, 1)
    # share monomials with equal or opposite coefficients, so sums cancel
    shared = list(f.terms.items())
    shared = shared[::3] + [(e, scalar_neg(c)) for e, c in shared[1::3]]
    g = DomainFunc(ctx, h, dmax_g, {**g.terms, **dict(shared)})
    _assert_linear_ops_match(f, g)
    _assert_linear_ops_match(g, f)
