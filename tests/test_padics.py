import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclt.divalg import DivElem
from padiclt.padics import (
    ContextMismatchError,
    NonUnitError,
    PadicScalar,
    UnramContext,
    _coords_mul,
    _is_irreducible_mod_p,
    _pack,
    _reduce_packed,
    _slot_width,
    _unpack,
    frobenius,
    make_context,
    scalar_add,
    scalar_inv,
    scalar_mul,
    scalar_mul_int,
    scalar_neg,
    scalar_sub,
    valuation,
)

CTX32 = make_context(3, 2, 8)
CTX51 = make_context(5, 1, 8)


def test_degree_one_context_is_degenerate():
    assert CTX51.modulus == (0, 1)
    assert CTX51.frobenius == ((1,),)


def test_least_irreducible_quadratic_over_f2():
    # exhaustive search oracle: x^2+x+1 is the only irreducible quadratic
    ctx = make_context(2, 2, 8)
    assert ctx.modulus == (1, 1, 1)


def _monic(p: int, d: int) -> list[tuple[int, ...]]:
    """Every monic polynomial of degree d over F_p, coefficients low to high."""
    return [low + (1,) for low in itertools.product(range(p), repeat=d)]


def _poly_mul(a, b, p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [2, 3])
def test_rabin_test_matches_factor_search(p, e):
    reducible = {_poly_mul(a, b, p)
                 for d in range(1, e) for a in _monic(p, d) for b in _monic(p, e - d)}
    got = {f for f in _monic(p, e) if _is_irreducible_mod_p(list(f), p)}
    assert got == set(_monic(p, e)) - reducible
    # Gauss's count of monic irreducibles: (p^2 - p)/2 and (p^3 - p)/3
    assert len(got) == (p ** e - p) // e


def test_frobenius_order_and_residue_power():
    rng = random.Random(0)
    for ctx in (CTX32, make_context(5, 3, 8)):
        for _ in range(20):
            a = ctx.random_element(rng)
            b = a
            for _ in range(ctx.e):
                b = frobenius(b)
            assert b == a
            ap = a
            for _ in range(ctx.p - 1):
                ap = scalar_mul(ap, a)
            v = scalar_sub(frobenius(a), ap).valuation()
            assert v is None or v >= 1


def test_frobenius_fixes_rationals_and_is_multiplicative():
    rng = random.Random(1)
    c = CTX32.from_int(7)
    assert frobenius(c) == c
    for _ in range(100):
        a, b = CTX32.random_element(rng), CTX32.random_element(rng)
        assert frobenius(scalar_mul(a, b)) == scalar_mul(frobenius(a), frobenius(b))


def _reference_frobenius(a, k):
    """sigma applied k times, one matrix-vector product per application."""
    ctx = a.ctx
    if ctx.e == 1:
        return a
    coords = a.coords
    pn = ctx.p ** a.prec
    for _ in range(k % ctx.e):
        out = [0] * ctx.e
        for j, cj in enumerate(coords):
            for i in range(ctx.e):
                out[i] += cj * ctx.frobenius[j][i]
        coords = tuple(c % pn for c in out)
    return PadicScalar(ctx, coords, a.prec)


@pytest.mark.parametrize("p,e,N", [(3, 4, 8), (2, 3, 6), (5, 2, 4), (7, 3, 3)])
def test_frobenius_power_matches_repeated_application(p, e, N):
    # precisions above N included: the cached sigma^k matrix must not be cut
    # mod p^N there, since the entries of M^k mod p^N and mod p^prec differ
    ctx = make_context(p, e, N)
    rng = random.Random(p * e * N)
    for prec in (1, N - 1, N, N + 3, 2 * N):
        if prec < 1:
            continue
        for _ in range(10):
            a = ctx.random_element(rng, prec=prec)
            for k in range(-e - 1, 2 * e + 1):
                got, want = frobenius(a, k), _reference_frobenius(a, k)
                assert (got.coords, got.prec) == (want.coords, want.prec), (prec, k)


coord_pairs = st.tuples(st.integers(0, 3 ** 8 - 1), st.integers(0, 3 ** 8 - 1))


@settings(max_examples=60, derandomize=True)
@given(coord_pairs, coord_pairs)
def test_ring_axioms(ca, cb):
    a = CTX32.from_coords(ca)
    b = CTX32.from_coords(cb)
    assert scalar_add(a, b) == scalar_add(b, a)
    assert scalar_mul(a, b) == scalar_mul(b, a)
    assert scalar_sub(scalar_add(a, b), b) == a


@settings(max_examples=60, derandomize=True)
@given(coord_pairs, coord_pairs, coord_pairs)
def test_mul_associative_distributive(ca, cb, cc):
    a, b, c = (CTX32.from_coords(x) for x in (ca, cb, cc))
    assert scalar_mul(scalar_mul(a, b), c) == scalar_mul(a, scalar_mul(b, c))
    assert scalar_mul(a, scalar_add(b, c)) == scalar_add(scalar_mul(a, b), scalar_mul(a, c))


def test_add_identity_and_precision_min():
    a = CTX32.from_int(17, prec=5)
    z = CTX32.zero()
    s = scalar_add(a, z)
    assert s == a and s.prec == 5


def test_geometric_series_inverse_identity():
    ctx = make_context(7, 1, 6)
    s = ctx.zero()
    for k in range(6):
        s = scalar_add(s, ctx.from_int(7 ** k))
    assert scalar_mul(ctx.from_int(1 - 7), s) == ctx.one()


def test_inverse_examples():
    rng = random.Random(2)
    assert scalar_inv(CTX32.one()) == CTX32.one()
    for _ in range(100):
        a = CTX32.random_unit(rng)
        assert scalar_mul(a, scalar_inv(a)) == CTX32.one()
        assert scalar_inv(scalar_inv(a)) == a
    with pytest.raises(NonUnitError):
        scalar_inv(CTX32.from_int(3))
    with pytest.raises(NonUnitError):
        scalar_inv(CTX32.zero())


def test_valuation_examples_and_properties():
    assert valuation(CTX51.from_int(125)) == 3
    assert valuation(CTX51.zero()) is None
    rng = random.Random(3)
    ctx = make_context(3, 2, 10)
    for _ in range(100):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        va, vb = valuation(a), valuation(b)
        if va is not None and vb is not None and va + vb < 5:
            assert valuation(scalar_mul(a, b)) == va + vb
        if va is not None and vb is not None and va != vb:
            assert valuation(scalar_add(a, b)) == min(va, vb)


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        scalar_add(CTX32.one(), CTX51.one())


def test_reduction_idempotence():
    rng = random.Random(4)
    for _ in range(50):
        a = CTX32.random_element(rng)
        b = CTX32.from_coords(a.coords)
        assert a == b and b.coords == tuple(c % CTX32.pN for c in b.coords)


def test_context_serialization_round_trip():
    s = CTX32.to_json()
    assert UnramContext.from_json(s) == CTX32


def _reduced(x: PadicScalar) -> bool:
    return len(x.coords) == x.ctx.e and all(0 <= c < x.ctx.p ** x.prec for c in x.coords)


def test_every_constructor_path_stores_reduced_coordinates():
    # PadicScalar.__eq__ compares the coordinate tuples of two scalars of one
    # precision, which is right only if every path that builds a scalar
    # stores its coordinates in [0, p^prec)
    from padiclt import divalg, domain, linalg
    rng = random.Random(7)
    for p, e, N in ((3, 2, 8), (2, 3, 6), (5, 1, 4), (3, 4, 5)):
        ctx = make_context(p, e, N)
        made = [ctx.zero(), ctx.one(), ctx.gen(), ctx.from_int(-7), ctx.from_int(p ** (N + 2) + 5),
                ctx.from_int(-1, prec=2), ctx.from_coords([-3] + [p ** (2 * N)] * (e - 1)),
                ctx.from_coords([p ** N + 1] * e, prec=N + 3), ctx.random_unit(rng),
                ctx.random_element(rng, prec=2 * N)]
        for _ in range(20):
            a, b = ctx.random_element(rng), ctx.random_element(rng, prec=rng.randint(1, N))
            u = ctx.random_unit(rng)
            made += [scalar_add(a, b), scalar_sub(a, b), scalar_sub(b, a), scalar_neg(a),
                     scalar_mul(a, b), scalar_mul_int(a, -p - 1), scalar_inv(u),
                     a.at_precision(1), b.at_precision(N + 2), frobenius(b, rng.randint(-e, e)),
                     linalg.divide_by_pivot(scalar_mul_int(a, p), ctx.from_int(p * (p + 1)))]
        h = e if e > 1 else 2
        dctx = ctx if e > 1 else make_context(p, 2, N)
        f = domain.random_domain_func(dctx, h, 3, rng)
        g = domain.random_domain_func(dctx, h, 3, rng)
        gamma = divalg.sample_gamma(dctx, 0, rng)
        A, B = divalg.j_embed(gamma), divalg.j_embed(divalg.sample_gamma(dctx, 1, rng))
        made += list(f.mul(g).terms.values())
        made += list(domain.gamma_act(gamma, domain.Section(f, -1)).func.terms.values())
        made += list(domain.lie_act(1, 0, domain.Section(f, 2)).func.terms.values())
        made += list(f.scale_int(p).scale_down(1).terms.values())
        made += [x for row in A for x in row] + [x for row in divalg.mat_mul(A, B) for x in row]
        made += list(divalg.div_mul(gamma, gamma).coeffs) + [linalg.determinant(A, dctx)]
        made += [x for vec in linalg.kernel_basis(A[:1], len(A), dctx, N).basis for x in vec]
        bad = [x for x in made if not _reduced(x)]
        assert not bad, bad


@settings(max_examples=60, derandomize=True)
@given(coord_pairs, coord_pairs, st.integers(1, 8), st.integers(1, 8))
def test_equality_compares_at_the_least_precision(ca, cb, na, nb):
    a, b = CTX32.from_coords(ca, prec=na), CTX32.from_coords(cb, prec=nb)
    n = min(na, nb)
    assert (a == b) == all((x - y) % 3 ** n == 0 for x, y in zip(a.coords, b.coords))
    if na == nb:
        assert (a == b) == (a.coords == b.coords)
    assert a == a.at_precision(n) and a.at_precision(n) == a


def test_from_coords_rejects_more_than_e_coordinates():
    ctx = make_context(5, 1, 4)
    assert ctx.from_coords([-3]).coords == (622,)
    with pytest.raises(ValueError):
        ctx.from_coords([-3, 5 ** 8])
    # the same check on outside input: a coefficient with three coordinates at e = 2
    with pytest.raises(ValueError):
        DivElem.from_json(CTX32, '{"coeffs": [[1, 2, 3], [0, 1]]}')


def _reduce_poly(prod, modulus, e, pn):
    """Reference: prod mod (Phi, pn) one degree at a time, from the top."""
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(e):
                prod[d - e + k] = (prod[d - e + k] - c * modulus[k]) % pn
    return tuple(prod[:e])


_REDUCTION_CTX = {(p, e): make_context(p, e, 8) for p in (2, 3, 5) for e in range(1, 6)}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 10 ** 6))
def test_packed_reduction_matches_reduce_poly(top, count, seed):
    # a packed sum of `count` products of coordinates below p^top, once with
    # every slot at the largest value the slot width allows for and once with
    # random slots below it: _unpack inverts _pack, and the sum reduced at
    # p^top and then cut mod p^q is the reduction one degree at a time at p^q,
    # for every q <= top (divalg.mat_mul and div_mul rely on this)
    rng = random.Random(seed)
    for (p, e), ctx in _REDUCTION_CTX.items():
        pn = p ** top
        bound = count * e * (pn - 1) ** 2
        width = _slot_width(count, e, pn)
        for slots in ([bound] * (2 * e - 1), [rng.randint(0, bound) for _ in range(2 * e - 1)]):
            packed = _pack(slots, width)
            assert _unpack(packed, width, 2 * e - 1) == tuple(slots)
            got = _reduce_packed({5: packed, 9: 0}, width, ctx.modulus, e, pn)
            assert set(got) <= {5} and got.get(5, 0) >> (e * width) == 0
            coords = _unpack(got.get(5, 0), width, e)
            for q in range(1, top + 1):
                pq = p ** q
                want = _reduce_poly([v % pq for v in slots], ctx.modulus, e, pq)
                assert tuple(c % pq for c in coords) == want
        # the unpacked product folds by the same rows
        a, b = (tuple(rng.randrange(pn) for _ in range(e)) for _ in range(2))
        prod = [sum(a[i] * b[d - i] for i in range(e) if 0 <= d - i < e) % pn
                for d in range(2 * e - 1)]
        assert _coords_mul(a, b, ctx.modulus, e, pn) == _reduce_poly(prod, ctx.modulus, e, pn)
