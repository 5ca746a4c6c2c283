import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclt.padics import ContextMismatchError, PadicScalar, _vp, make_context
from padiclt.series import (
    IntModRing,
    PrecisionLossError,
    QuotRing,
    TruncSeries,
    UnramRing,
    compose_univariate,
    reduce_mod_p,
    series_from_int_coeffs,
    series_var,
    substitute,
    substitute_two,
)
from padiclt import series
from padiclt.formal import (
    InconclusiveError,
    eval_series_in_quot,
    _binom_int,
    _horner_in_quot,
    NotFrobeniusPolyError,
    WrongCardinalityError,
    check_endomorphism,
    frobenius_power_series,
    ga_module,
    gm_module,
    height,
    level_structure_check,
    logarithm,
    lt_construct,
    _rows_in_quot,
    make_level_points,
    torsion_polynomial,
)

R = IntModRing(3, 8)


def _const(ring, nvars: int, dmax: int, value) -> TruncSeries:
    return TruncSeries(ring, nvars, dmax, {(0,) * nvars: value})


def test_identity_composition():
    g = series_from_int_coeffs(R, {1: 1, 2: 1}, 10)
    assert compose_univariate(g, series_var(R, 1, 10, 0)).eq(g)


def test_divexact_int_raises_on_inexact_division():
    # a / (p^v u) needs p^v | a, and is (a / p^v) u^-1 mod p^(N - v)
    for a, n in ((1, 3), (18, 27), (3 ** 7 + 9, 3 ** 3 * 2)):
        with pytest.raises(PrecisionLossError):
            R.divexact_int(a, n)
    for a, n in ((18, 6), (3 ** 5 * 7, 45), (-27, 54), (5, 7), (3 ** 8 + 3, 3)):
        v = _vp(n, 3)
        q = R.divexact_int(a, n)
        assert 0 <= q < 3 ** (8 - v) and (q * n - a) % 3 ** 8 == 0, (a, n)


@pytest.mark.parametrize("p,fdict", [(2, {1: 2, 2: 1}), (2, {1: 2, 4: 1}),
                                     (3, {1: 3, 3: 1})])
def test_lubin_tate_functional_equation_and_axioms(p, fdict):
    dmax = 12
    M = lt_construct(p, fdict, dmax, 8)
    ring, F = M.ring, M.F
    # F(X, 0) = X
    assert TruncSeries(ring, 2, dmax,
                       {e: c for e, c in F.terms.items() if e[1] == 0}).eq(
        TruncSeries(ring, 2, dmax, {(1, 0): 1}))
    # commutativity
    assert F.eq(TruncSeries(ring, 2, dmax, {(e[1], e[0]): c for e, c in F.terms.items()}))
    # f commutes with F
    fs = series_from_int_coeffs(ring, fdict, dmax)
    fX = TruncSeries(ring, 2, dmax, {(e[0], 0): c for e, c in fs.terms.items()})
    fY = TruncSeries(ring, 2, dmax, {(0, e[0]): c for e, c in fs.terms.items()})
    assert compose_univariate(fs, F).eq(substitute_two(F, fX, fY))
    # [p] = f, multiplications compose
    assert M.mult(p).eq(fs)
    for a, b in [(2, 3), (-1, 2)]:
        assert compose_univariate(M.mult(a), M.mult(b)).eq(M.mult(a * b))


def test_lt_rejects_bad_frobenius_polys():
    with pytest.raises(NotFrobeniusPolyError):
        lt_construct(3, {1: 1, 3: 1}, 8, 6)       # linear term not p
    with pytest.raises(NotFrobeniusPolyError):
        lt_construct(3, {1: 3, 2: 1}, 8, 6)       # X^2 is not a p-power mod p
    with pytest.raises(NotFrobeniusPolyError):
        lt_construct(3, {1: 3, 3: 2}, 8, 6)       # reduction coefficient != 1


def test_gm_identities():
    G = gm_module(5, 12, 8)
    assert G.mult(1).eq(series_var(G.ring, 1, 12, 0))
    assert G.mult(5).eq(series_from_int_coeffs(
        G.ring, {n: math.comb(5, n) for n in range(1, 6)}, 12))
    rng = random.Random(1)
    for _ in range(5):
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
        assert compose_univariate(G.mult(a), G.mult(b)).eq(G.mult(a * b))


def test_logarithms():
    la = logarithm(ga_module(3, 10, 8))
    assert la.numerator.eq(series_from_int_coeffs(
        la.numerator.ring, {1: 3 ** la.denom_exp}, 10))

    G = gm_module(5, 12, 8)
    lg = logarithm(G)
    ring, d = lg.numerator.ring, lg.denom_exp
    expect = {}
    for n in range(1, 13):
        v, u = 0, n
        while u % 5 == 0:
            u //= 5
            v += 1
        expect[(n,)] = (pow(u, -1, ring.pN) * 5 ** (d - v) * (-1) ** (n + 1)) % ring.pN
    assert lg.numerator.eq(TruncSeries(ring, 1, 12, expect))

    M = lt_construct(3, {1: 3, 3: 1}, 15, 8)
    log = logarithm(M)
    num = log.numerator
    r2 = num.ring
    logX = TruncSeries(r2, 2, 15, {(e[0], 0): c for e, c in num.terms.items()})
    logY = TruncSeries(r2, 2, 15, {(0, e[0]): c for e, c in num.terms.items()})
    assert compose_univariate(num, M.F).eq(logX.add(logY))
    for a in (2, 7):
        assert compose_univariate(num, M.mult(a)).eq(num.scale_int(a))


def test_heights():
    assert height(gm_module(2, 6, 6).reduce()) == 1
    assert height(ga_module(2, 6, 6).reduce()) == math.inf
    for p, h in [(2, 2), (2, 3), (3, 2)]:
        M = lt_construct(p, {1: p, p ** h: 1}, p ** h + 2, 6)
        assert height(M.reduce()) == h
    with pytest.raises(InconclusiveError):
        height(gm_module(5, 3, 6).reduce())   # Dmax < q


def test_frobenius_endomorphism():
    for p, h in [(2, 2), (3, 2), (2, 3)]:
        ctxr = UnramRing(make_context(p, h, 1))
        red = lt_construct(p, {1: p, p ** h: 1}, p ** h + 4, 6).reduce(ctxr)
        tau = frobenius_power_series(red, 1)
        assert check_endomorphism(tau, red)
        assert frobenius_power_series(red, h).eq(red.mult(p))
    ga3 = ga_module(3, 8, 6).reduce()
    bad = TruncSeries(ga3.ring, 1, 8, {(1,): 1, (2,): 1})
    assert not check_endomorphism(bad, ga3)
    assert check_endomorphism(series_var(ga3.ring, 1, 8, 0), ga3)


def _level_ring(p, prec=6):
    M = lt_construct(p, {1: p, p: 1}, 6 * (p - 1) + 2, prec)
    tors = torsion_polynomial(M, 1)
    phi_over_x = {k - 1: v for k, v in tors.items()}
    ring = QuotRing(IntModRing(p, prec), [phi_over_x.get(k, 0) for k in range(p)])
    return M, ring


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_structure_torsion_points(p):
    M, ring = _level_ring(p)
    pts = make_level_points(M, ring, 1)
    assert level_structure_check(M, pts, 1, ring)
    assert not level_structure_check(M, [ring.zero()] * p, 1, ring)


def test_level_structure_edge_cases():
    M, ring = _level_ring(3)
    assert level_structure_check(M, [ring.zero()], 0, ring)
    with pytest.raises(WrongCardinalityError):
        level_structure_check(M, [ring.zero()] * 4, 1, ring)


def test_reduce_mod_p_into_extension():
    M = lt_construct(2, {1: 2, 4: 1}, 8, 6)
    red = reduce_mod_p(M.F, UnramRing(make_context(2, 2, 1)))
    assert all(not c.is_zero_at_precision() for c in red.terms.values())


def test_int_mod_series_stores_reduced_coefficients():
    ring = IntModRing(3, 4)
    f = TruncSeries(ring, 1, 5, {(1,): -1, (2,): 85, (3,): 81, (6,): 1})
    assert f.terms == {(1,): 80, (2,): 4}
    assert f.add(TruncSeries(ring, 1, 5)).terms == f.terms
    assert f.eq(TruncSeries(ring, 1, 5, {(1,): 80, (2,): 4}))


def test_quot_ring_requires_monic_modulus():
    with pytest.raises(ValueError):
        QuotRing(IntModRing(3, 6), [1, 2])


# -- the lazy product kernel against the per-pair loop it replaced ---------

def _reference_mul(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """The old TruncSeries.mul: one ring.mul and ring.add per pair of terms."""
    ring = f.ring
    dmax = f.dmax
    out: dict = {}
    for e1, c1 in f.terms.items():
        d1 = sum(e1)
        for e2, c2 in g.terms.items():
            if d1 + sum(e2) > dmax:
                continue
            exp = tuple(a + b for a, b in zip(e1, e2))
            t = ring.mul(c1, c2)
            if exp in out:
                out[exp] = ring.add(out[exp], t)
            else:
                out[exp] = t
    return TruncSeries(ring, f.nvars, dmax, out)


def _reference_quot_mul(ring: QuotRing, a, b):
    """The old QuotRing.mul: schoolbook product, then reduction mod Phi."""
    pN, deg, phi = ring.base.pN, ring.deg, ring.phi
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % pN
    for d in range(len(prod) - 1, deg - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(deg):
                prod[d - deg + k] = (prod[d - deg + k] - c * phi[k]) % pN
    return tuple(prod[:deg])


def _key(c):
    return (c.coords, c.prec) if hasattr(c, "coords") else c


def _assert_identical(a: TruncSeries, b: TruncSeries) -> None:
    assert (a.nvars, a.dmax) == (b.nvars, b.dmax)
    assert set(a.terms) == set(b.terms)
    for exp, c in a.terms.items():
        assert _key(c) == _key(b.terms[exp]), exp


def _assert_product_rule(f: TruncSeries, g: TruncSeries) -> None:
    """Over an unramified ring f*g has one precision q, the least of any
    coefficient of f and g, and is the per-pair reference product cut to q;
    on inputs of one precision that is the reference itself."""
    got, ref = f.mul(g), _reference_mul(f, g)
    if not (f.terms and g.terms):
        assert got.is_zero()
        return
    q = min(c.prec for c in [*f.terms.values(), *g.terms.values()])
    assert all(c.prec == q for c in got.terms.values())
    assert all(q <= c.prec for c in ref.terms.values())
    _assert_identical(got, TruncSeries(ref.ring, ref.nvars, ref.dmax,
                                       {e: c.at_precision(q) for e, c in ref.terms.items()}))


def _ring(kind: str, p: int, rng):
    N = rng.randint(1, 6)
    if kind == "int":
        return IntModRing(p, N), lambda: rng.randrange(-p ** N, 2 * p ** N)
    ctx = make_context(p, rng.randint(1, 3), N)
    return UnramRing(ctx), lambda: ctx.random_element(rng, prec=rng.randint(1, N))


def _random_series(ring, draw, nvars, dmax, nterms, rng) -> TruncSeries:
    terms = {tuple(rng.randint(0, dmax + 1) for _ in range(nvars)): draw()
             for _ in range(nterms)}
    return TruncSeries(ring, nvars, dmax, terms)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(["int", "unram"]), st.sampled_from([2, 3, 5, 7]),
       st.integers(1, 3), st.integers(0, 5), st.integers(0, 3),
       st.integers(0, 9), st.integers(0, 9), st.integers(0, 10 ** 6))
def test_mul_matches_reference_hypothesis(kind, p, nvars, dmax, extra, na, nb, seed):
    rng = random.Random(seed)
    ring, draw = _ring(kind, p, rng)
    f = _random_series(ring, draw, nvars, dmax, na, rng)
    # g may have a larger Dmax, so it carries terms above f's bound
    g = _random_series(ring, draw, nvars, dmax + extra, nb, rng)
    if kind == "int":
        _assert_identical(f.mul(g), _reference_mul(f, g))
        _assert_identical(g.mul(f), _reference_mul(g, f))
    else:
        _assert_product_rule(f, g)
        _assert_product_rule(g, f)


def _reference_eq(f: TruncSeries, g: TruncSeries) -> bool:
    """The old TruncSeries.eq: ring.eq through coeff() on the union of the keys."""
    keys = set(f.terms) | set(g.terms)
    return all(f.ring.eq(f.coeff(k), g.coeff(k)) for k in keys)


def _near(ring, c, rng):
    """c itself, c at a lower precision, c moved by a unit at its precision
    or by p^N, or a term that is nonzero yet 0 at the ring's precision N."""
    r = rng.randrange(4)
    if isinstance(ring, IntModRing):
        return c + [0, ring.pN, 1, -ring.pN][r]
    ctx = ring.ctx
    if r == 1:
        return c.at_precision(rng.randint(1, c.prec))
    if r == 2:
        return PadicScalar(ctx, ((c.coords[0] + 1) % ctx.p ** c.prec,) + c.coords[1:], c.prec)
    if r == 3:
        return ctx.from_int(ctx.p ** ctx.N, prec=ctx.N + 1)
    return c


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(["int", "unram"]), st.sampled_from([2, 3, 5]), st.integers(1, 3),
       st.integers(0, 4), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_eq_matches_reference_hypothesis(kind, p, nvars, dmax, n, seed):
    rng = random.Random(seed)
    ring, draw = _ring(kind, p, rng)
    f = _random_series(ring, draw, nvars, dmax, n, rng)
    # g shares, drops, perturbs or cuts f's terms and may hold terms of its own
    terms = {e: _near(ring, c, rng) for e, c in f.terms.items() if rng.randrange(6)}
    keys = sorted(f.terms)
    for e in rng.sample(keys, min(len(keys), rng.randint(0, 1))):
        terms[e] = _near(ring, draw(), rng)
    extra = tuple(rng.randint(0, dmax) for _ in range(nvars))
    if rng.randrange(2) and extra not in f.terms:
        terms[extra] = _near(ring, draw(), rng)
    g = TruncSeries(ring, nvars, dmax, terms)
    assert f.eq(g) == _reference_eq(f, g)
    assert g.eq(f) == _reference_eq(g, f)
    assert f.eq(f)


def _reference_add(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """The old TruncSeries.add: the cancelled sums dropped, then __init__'s filter."""
    out = dict(f.terms)
    ring = f.ring
    for exp, c in g.terms.items():
        if exp in out:
            s = ring.add(out[exp], c)
            if ring.is_zero(s):
                del out[exp]
            else:
                out[exp] = s
        else:
            out[exp] = c
    return TruncSeries(ring, f.nvars, f.dmax, out)


def _reference_neg(f: TruncSeries) -> TruncSeries:
    return TruncSeries(f.ring, f.nvars, f.dmax, {e: f.ring.neg(c) for e, c in f.terms.items()})


def _assert_linear_ops_match(f: TruncSeries, g: TruncSeries) -> None:
    for got, want in ((f.add(g), _reference_add(f, g)),
                      (f.sub(g), _reference_add(f, _reference_neg(g))),
                      (f.neg(), _reference_neg(f))):
        _assert_identical(got, want)
        assert all(sum(e) <= f.dmax and not f.ring.is_zero(c) for e, c in got.terms.items())


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(["int", "unram", "quot"]), st.sampled_from([2, 3, 5]),
       st.integers(1, 3), st.integers(0, 5), st.integers(-2, 3),
       st.integers(0, 9), st.integers(0, 9), st.integers(0, 10 ** 6))
def test_linear_ops_match_reference_hypothesis(kind, p, nvars, dmax, extra, na, nb, seed):
    rng = random.Random(seed)
    if kind == "quot":
        ring = QuotRing(IntModRing(p, 3), [rng.randrange(p ** 3) for _ in range(2)] + [1])
        draw = lambda: tuple(rng.randrange(-p ** 3, 2 * p ** 3) for _ in range(2))  # noqa: E731
    else:
        ring, draw = _ring(kind, p, rng)
    f = _random_series(ring, draw, nvars, dmax, na, rng)
    # g's Dmax may be above or below f's; some shared monomials cancel
    g = _random_series(ring, draw, nvars, max(dmax + extra, 0), nb, rng)
    shared = list(f.terms.items())
    g.terms.update({e: c for e, c in shared[::3] if sum(e) <= g.dmax})
    g.terms.update({e: ring.neg(c) for e, c in shared[1::3] if sum(e) <= g.dmax})
    _assert_linear_ops_match(f, g)
    _assert_linear_ops_match(g, f)


def test_linear_ops_cancel_and_truncate():
    ring = IntModRing(3, 4)
    x = series_var(ring, 1, 6, 0)
    f = _const(ring, 1, 6, 1).add(x.scale_int(5))
    assert f.sub(f).is_zero() and f.add(f.neg()).is_zero()
    # 27 + 54 = 81 = 0 mod 3^4: the X coefficient cancels
    a, b = x.scale_int(27).add(_const(ring, 1, 6, 1)), x.scale_int(54)
    _assert_linear_ops_match(a, b)
    assert set(a.add(b).terms) == {(0,)}
    # terms of a wider operand above the left Dmax are dropped
    wide = series_var(ring, 1, 9, 0).pow(8).add(series_var(ring, 1, 9, 0))
    _assert_linear_ops_match(a, wide)
    assert set(a.add(wide).terms) == {(0,), (1,)} and set(a.sub(wide).terms) == {(0,), (1,)}


def test_mul_empty_operands_and_dmax_zero():
    rng = random.Random(3)
    for kind in ("int", "unram"):
        ring, draw = _ring(kind, 3, rng)
        f = _random_series(ring, draw, 2, 4, 6, rng)
        empty = TruncSeries(ring, 2, 4)
        assert f.mul(empty).is_zero() and empty.mul(f).is_zero()
        a, b = _const(ring, 2, 0, draw()), _random_series(ring, draw, 2, 0, 3, rng)
        _assert_identical(a.mul(b), _reference_mul(a, b))
        assert set(a.mul(b).terms) <= {(0, 0)}


def test_mul_drops_cancelled_terms():
    ring = IntModRing(3, 4)
    x = series_var(ring, 1, 6, 0)
    one = _const(ring, 1, 6, 1)
    # (1 + X)(1 - X) = 1 - X^2 and 9X * 9 = 81X = 0 mod 3^4
    assert set(one.add(x).mul(one.sub(x)).terms) == {(0,), (2,)}
    assert x.scale_int(9).mul(_const(ring, 1, 6, 9)).is_zero()


def test_mul_unram_mixed_precision():
    ctx = make_context(5, 2, 8)
    ring = UnramRing(ctx)
    x = series_var(ring, 1, 4, 0)
    # 5^5 (prec 6) * 5^3: the product is 0 at precision 6 and still lowers
    # the X coefficient's precision to 6, as the per-pair loop did
    a = _const(ring, 1, 4, ctx.from_int(5 ** 5, prec=6))
    b = _const(ring, 1, 4, ctx.from_int(5 ** 3)).add(x)
    prod = a.mul(b)
    _assert_identical(prod, _reference_mul(a, b))
    assert set(prod.terms) == {(1,)} and prod.terms[(1,)].prec == 6
    # one coefficient at precision 3 puts the whole product at precision 3:
    # X^2 = 2 * 9 comes from precision-8 coefficients alone, and the per-pair
    # loop kept it at precision 8
    f = TruncSeries(ring, 1, 4, {(0,): ctx.from_int(7, prec=3), (1,): ctx.from_int(2)})
    g = TruncSeries(ring, 1, 4, {(0,): ctx.from_int(4), (1,): ctx.from_int(9)})
    prod = f.mul(g)
    _assert_product_rule(f, g)
    assert {e: c.key() for e, c in prod.terms.items()} == {
        (0,): ((28, 0), 3), (1,): ((71, 0), 3), (2,): ((18, 0), 3)}
    assert _reference_mul(f, g).terms[(2,)].prec == 8
    rng = random.Random(4)
    for _ in range(20):
        f = _random_series(ring, lambda: ctx.random_element(rng, prec=rng.randint(1, 8)),
                           2, 5, 8, rng)
        g = _random_series(ring, lambda: ctx.random_element(rng, prec=rng.randint(1, 8)),
                           2, 5, 8, rng)
        _assert_product_rule(f, g)


def test_mul_rejects_mixed_contexts_and_other_rings():
    ring = UnramRing(make_context(3, 2, 6))
    other = UnramRing(make_context(5, 2, 6))
    with pytest.raises(ContextMismatchError):
        series_var(ring, 1, 3, 0).mul(series_var(other, 1, 3, 0))
    quot = QuotRing(IntModRing(3, 4), [1, 0, 1])
    x = TruncSeries(quot, 1, 3, {(1,): quot.one()})
    with pytest.raises(TypeError):
        x.mul(x)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 10 ** 6))
def test_quot_ring_mul_matches_reference(p, N, deg, seed):
    rng = random.Random(seed)
    pN = p ** N
    ring = QuotRing(IntModRing(p, N), [rng.randrange(pN) for _ in range(deg)] + [1])
    for _ in range(10):
        a = tuple(rng.randrange(pN) for _ in range(deg))
        b = tuple(rng.randrange(pN) for _ in range(deg))
        assert ring.mul(a, b) == _reference_quot_mul(ring, a, b)


# -- the one substitution engine against the bodies it replaced -----------

def _reference_compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """The old compose_univariate: Horner on TruncSeries.mul and add."""
    ring = g.ring
    deg = max((e[0] for e in f.terms), default=0)
    acc = TruncSeries(ring, g.nvars, g.dmax)
    for d in range(deg, -1, -1):
        acc = acc.mul(g)
        c = f.coeff((d,))
        if not ring.is_zero(c):
            acc = acc.add(_const(ring, g.nvars, g.dmax, c))
    return acc


def _reference_substitute_two(F: TruncSeries, u: TruncSeries, v: TruncSeries) -> TruncSeries:
    """The old substitute_two: one product u^i v^j per term of F."""
    ring = u.ring
    du = max((e[0] for e in F.terms), default=0)
    dv = max((e[1] for e in F.terms), default=0)
    u_pows = [_const(ring, u.nvars, u.dmax, ring.one())]
    for _ in range(du):
        u_pows.append(u_pows[-1].mul(u))
    v_pows = [_const(ring, v.nvars, v.dmax, ring.one())]
    for _ in range(dv):
        v_pows.append(v_pows[-1].mul(v))
    acc = TruncSeries(ring, u.nvars, u.dmax)
    for (i, j), c in F.terms.items():
        acc = acc.add(u_pows[i].mul(v_pows[j]).scale(c))
    return acc


def _reference_flat(f: TruncSeries, gens: list[TruncSeries]) -> TruncSeries:
    """f(P) as one flat sum of c prod P_i^e_i over the terms of f."""
    like = gens[0]
    acc = TruncSeries(like.ring, like.nvars, f.dmax)
    for e, c in f.terms.items():
        term = _const(like.ring, like.nvars, f.dmax, like.ring.one())
        for g, a in zip(gens, e):
            term = term.mul(g.pow(a))
        acc = acc.add(term.scale(c))
    return acc


def _reference_lazy_mul(ring: IntModRing, nvars: int, dmax: int, a: dict, b: dict) -> dict:
    """The old _lazy_mul over Z/p^N: unreduced sums, each cut once mod p^N."""
    if not a or not b:
        return {}
    stride = dmax + 1
    sums = series._products([(series._pack_terms(a, dmax, stride),
                              series._right(series._pack_terms(b, dmax, stride)))], dmax)
    out = {}
    for k, v in sums.items():
        v %= ring.pN
        if v:
            out[series._exponent(k, nvars, stride)] = v
    return out


_SUBST_CTX = {(p, e): make_context(p, e, 12) for p in (2, 3, 5) for e in (1, 2, 3)}


def _one_precision_ring(kind: str, p: int, N: int, rng):
    """A ring and a draw of reduced coefficients of one precision.  The old
    Horner kept a constant it added to an empty sum unreduced; reduced draws
    keep that difference out of a comparison by term dict."""
    if kind == "int":
        ring = IntModRing(p, N)
        return ring, lambda: rng.randrange(ring.pN)
    ctx = _SUBST_CTX[p, rng.randint(1, 3)]
    return UnramRing(ctx), lambda: ctx.random_element(rng, prec=N)


def _vanishing(ring, draw, nvars: int, dmax: int, rng) -> TruncSeries:
    g = _random_series(ring, draw, nvars, dmax, rng.randint(0, 8), rng)
    g.terms.pop((0,) * nvars, None)
    return g


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(["int", "unram"]), st.sampled_from([2, 3, 5]), st.integers(1, 12),
       st.integers(1, 3), st.integers(0, 6), st.integers(-3, 3),
       st.sampled_from(["random", "empty", "constant", "high"]), st.integers(0, 10 ** 6))
def test_substitution_matches_the_replaced_bodies(kind, p, N, arity, dmax, shift, shape, seed):
    # the generators have arity 1 to 3 and Dmax dmax; f's Dmax is off by
    # `shift` either way, and "high" puts a term of f above the generators'
    rng = random.Random(seed)
    ring, draw = _one_precision_ring(kind, p, N, rng)
    fdmax = dmax + (max(shift, 1) if shape == "high" else shift)
    fdmax = max(fdmax, 0)
    if shape == "empty":
        f = TruncSeries(ring, 1, fdmax)
    elif shape == "constant":
        f = TruncSeries(ring, 1, fdmax, {(0,): draw()})
    else:
        f = _random_series(ring, draw, 1, fdmax, rng.randint(1, 8), rng)
        if shape == "high":
            f.terms[(fdmax,)] = draw()
    g = _vanishing(ring, draw, arity, dmax, rng)
    _assert_identical(compose_univariate(f, g), _reference_compose(f, g))

    F = TruncSeries(ring, 2, fdmax, {(e[0], rng.randint(0, fdmax)): c
                                     for e, c in f.terms.items()})
    u, v = (_vanishing(ring, draw, arity, dmax, rng) for _ in range(2))
    _assert_identical(substitute_two(F, u, v), _reference_substitute_two(F, u, v))

    # substitute itself: f of 1 to 3 variables, generators with a constant term
    k = rng.randint(1, 3)
    f = _random_series(ring, draw, k, dmax, rng.randint(0, 6), rng)
    gens = [_random_series(ring, draw, arity, dmax, rng.randint(0, 5), rng) for _ in range(k)]
    _assert_identical(substitute(f, gens), _reference_flat(f, gens))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 12), st.integers(1, 3), st.integers(0, 6),
       st.integers(0, 3), st.integers(0, 10 ** 6))
def test_lazy_combine_matches_the_replaced_product(p, N, nvars, dmax, extra, seed):
    # over Z/p^N, with draws in [-p^N, 2 p^N) and a right factor whose Dmax
    # may exceed dmax; a sum of two pairs is the sum of their products
    rng = random.Random(seed)
    ring = IntModRing(p, N)
    draw = lambda: rng.randrange(-ring.pN, 2 * ring.pN)  # noqa: E731
    a, c = (_random_series(ring, draw, nvars, dmax, rng.randint(0, 9), rng).terms
            for _ in range(2))
    b, d = (_random_series(ring, draw, nvars, dmax + extra, rng.randint(0, 9), rng).terms
            for _ in range(2))
    assert series._lazy_combine(ring, nvars, dmax, [(a, b)]) == \
        _reference_lazy_mul(ring, nvars, dmax, a, b)
    both = TruncSeries(ring, nvars, dmax, _reference_lazy_mul(ring, nvars, dmax, a, b)).add(
        TruncSeries(ring, nvars, dmax, _reference_lazy_mul(ring, nvars, dmax, c, d)))
    assert series._lazy_combine(ring, nvars, dmax, [(a, b), (c, d)]) == both.terms


def test_composition_takes_the_least_input_precision():
    # f = 2 (precision 3) + X + X^2: the old Horner added the constant 2 last,
    # at its own precision, and kept the X term at precision 8; composition
    # now gives every coefficient the least precision, 3, of f and g
    ctx = make_context(5, 2, 8)
    ring = UnramRing(ctx)
    f = TruncSeries(ring, 1, 4, {(0,): ctx.from_int(2, prec=3), (1,): ctx.one(),
                                 (2,): ctx.one()})
    g = TruncSeries(ring, 1, 4, {(1,): ctx.one(), (2,): ctx.from_int(5)})
    got, old = compose_univariate(f, g), _reference_compose(f, g)
    assert {c.prec for c in got.terms.values()} == {3}
    assert old.terms[(1,)].prec == 8 and old.terms[(0,)].prec == 3
    _assert_identical(got, TruncSeries(ring, 1, 4, {e: c.at_precision(3)
                                                    for e, c in old.terms.items()}))
    # g + g^2 = X + 6 X^2 + 10 X^3 + 25 X^4, plus 2
    assert {e: c.key() for e, c in got.terms.items()} == {
        (0,): ((2, 0), 3), (1,): ((1, 0), 3), (2,): ((6, 0), 3), (3,): ((10, 0), 3),
        (4,): ((25, 0), 3)}


def test_substitution_rejects_a_constant_term_and_other_rings():
    ring = IntModRing(3, 4)
    f = series_from_int_coeffs(ring, {1: 1, 2: 2}, 5)
    g = series_from_int_coeffs(ring, {0: 1, 1: 1}, 5)
    x, y = series_var(ring, 2, 5, 0), series_var(ring, 2, 5, 1)
    F = TruncSeries(ring, 2, 5, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    with pytest.raises(ValueError):
        compose_univariate(f, g)
    for u, v in ((x.add(_const(ring, 2, 5, 3)), y), (x, y.add(_const(ring, 2, 5, 1)))):
        with pytest.raises(ValueError):
            substitute_two(F, u, v)
    quot = QuotRing(IntModRing(3, 4), [1, 0, 1])
    t = TruncSeries(quot, 1, 3, {(1,): quot.one()})
    with pytest.raises(TypeError):
        substitute(t, [t])


def _reference_eval_two_var(series: TruncSeries, x, y, ring: QuotRing):
    """A two-variable series at (x, y): one product x^i y^j per term."""
    xp, yp = [ring.one()], [ring.one()]
    for _ in range(max((e[0] for e in series.terms), default=0)):
        xp.append(ring.mul(xp[-1], x))
    for _ in range(max((e[1] for e in series.terms), default=0)):
        yp.append(ring.mul(yp[-1], y))
    acc = ring.zero()
    for (i, j), c in series.terms.items():
        term = ring.mul(xp[i], yp[j])
        acc = ring.add(acc, ring.mul_int(term, c) if isinstance(c, int) else ring.mul(term, c))
    return acc


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(1, 5), st.integers(0, 8),
       st.booleans(), st.integers(0, 10 ** 6))
def test_quot_evaluation_matches_the_term_by_term_sum(p, N, deg, dmax, tuples, seed):
    # int coefficients (a Z/p^N series) or tuple ones (a series over the ring)
    rng = random.Random(seed)
    base = IntModRing(p, N)
    ring = QuotRing(base, [rng.randrange(base.pN) for _ in range(deg)] + [1])
    draw = ((lambda: tuple(rng.randrange(base.pN) for _ in range(deg))) if tuples
            else (lambda: rng.randrange(-base.pN, 2 * base.pN)))
    coeff_ring = ring if tuples else base
    x, y = (tuple(rng.randrange(base.pN) for _ in range(deg)) for _ in range(2))
    F = _random_series(coeff_ring, draw, 2, dmax, rng.randint(0, 12), rng)
    assert _horner_in_quot(_rows_in_quot(F, y, ring), x, ring) == \
        _reference_eval_two_var(F, x, y, ring)
    f = TruncSeries(coeff_ring, 2, dmax, {(i, 0): c for (i, _), c in F.terms.items()})
    g = TruncSeries(coeff_ring, 1, dmax, {(i,): c for (i, _), c in f.terms.items()})
    assert eval_series_in_quot(g, x, ring) == _reference_eval_two_var(f, x, y, ring)


# -- the relaxed Lubin-Tate induction against the composition per degree ---

def _reference_step(f_series, cur, n, two_var, ring, at):
    """The old correction step: E = f(G) - G(f, ..., f) composed at Dmax `at`
    (n for the step that lt_construct ran before the relaxed induction, cur's
    Dmax for the one before that), returned at cur's Dmax."""
    f = TruncSeries(ring, 1, at, f_series.terms)
    g = TruncSeries(ring, cur.nvars, at, cur.terms)
    if two_var:
        fX = TruncSeries(ring, 2, at, {(e[0], 0): c for e, c in f.terms.items()})
        fY = TruncSeries(ring, 2, at, {(0, e[0]): c for e, c in f.terms.items()})
        err = compose_univariate(f, g).sub(substitute_two(g, fX, fY))
    else:
        err = compose_univariate(f, g).sub(compose_univariate(g, f))
    denom = ring.p ** n - ring.p
    return TruncSeries(ring, cur.nvars, cur.dmax,
                       {e: ring.divexact_int(c, denom)
                        for e, c in err.terms.items() if sum(e) == n})


def _reference_lt_construct(p, f_coeffs, dmax, N, mults, full_dmax=False):
    """(working F, public F, {a: [a]}) by one composition per degree, every
    [a] by its own induction (also a = p, which lt_construct reads off f)."""
    work = IntModRing(p, N + dmax)
    public = IntModRing(p, N)
    f = series_from_int_coeffs(work, f_coeffs, dmax)

    def induction(cur):
        for n in range(2, dmax + 1):
            cur = cur.add(_reference_step(f, cur, n, cur.nvars == 2, work,
                                          dmax if full_dmax else n))
        return cur

    F = induction(TruncSeries(work, 2, dmax, {(1, 0): 1, (0, 1): 1}))
    mult = {a: induction(TruncSeries(work, 1, dmax, {(1,): work.from_int(a)}))
            for a in mults}
    return F, F.map_coefficients(public.from_int, public), {
        a: g.map_coefficients(public.from_int, public) for a, g in mult.items()}


def _assert_module_matches(M, reference):
    F_work, F_pub, mult = reference
    _assert_identical(M.F, F_pub)
    _assert_identical(M.work_series()[1], F_work)
    for a, g in mult.items():
        _assert_identical(M.mult(a), g)


@pytest.mark.parametrize("p,fdict,dmax", [(2, {1: 2, 2: 1}, 10), (3, {1: 3, 9: 1}, 11),
                                          (7, {1: 7, 7: 1}, 14)])
def test_lt_construct_matches_full_dmax_induction(p, fdict, dmax):
    mults = (2, -1, p + 1)
    _assert_module_matches(lt_construct(p, fdict, dmax, 6),
                           _reference_lt_construct(p, fdict, dmax, 6, mults, full_dmax=True))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3),
       st.sampled_from(["plain", "extra", "sparse"]), st.sampled_from([1, 4, 8]),
       st.integers(0, 10 ** 6))
def test_lt_construct_matches_the_composition_per_degree(p, h, shape, N, seed):
    # f = pX + X^q, q = p^h (or p where p^h > 27); "extra" adds p-divisible
    # terms below Dmax, and "sparse" takes Dmax < 2q and a top term above
    # Dmax/2, where most parts of G and of its powers are zero
    rng = random.Random(seed)
    q = p ** h if p ** h <= 27 else p
    fdict = {1: p, q: 1}
    if shape == "sparse":
        dmax = rng.randint(q, 2 * q - 1)
        top = rng.randint(dmax // 2 + 1, dmax)
        fdict[top] = fdict.get(top, 0) + p * rng.randint(1, 9)
    else:
        dmax = rng.randint(2, q + 4)
        for _ in range(rng.randint(1, 3) if shape == "extra" else 0):
            e = rng.randint(2, dmax)
            fdict[e] = fdict.get(e, 0) + p * rng.randint(-9, 9)
    mults = (0, -1, p, p * p, rng.randint(-50, 50))
    _assert_module_matches(lt_construct(p, fdict, dmax, N),
                           _reference_lt_construct(p, fdict, dmax, N, mults))


def test_binom_int_for_every_integer_top():
    # C(a, n) = a (a-1) ... (a-n+1) / n!, which for negative a is the
    # (-1)^n C(n-a-1, n) that the binomial series of den^a relies on
    for a in range(-8, 9):
        for n in range(10):
            falling = math.prod(range(a - n + 1, a + 1))
            assert _binom_int(a, n) == falling // math.factorial(n), (a, n)
            if a < 0:
                assert _binom_int(a, n) == (-1) ** n * math.comb(n - a - 1, n)
            else:
                assert _binom_int(a, n) == math.comb(a, n)
