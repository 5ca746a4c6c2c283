import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclt.linalg import determinant
from padiclt.padics import (
    NonUnitError,
    frobenius,
    make_context,
    scalar_add,
    scalar_mul,
    scalar_mul_int,
    scalar_neg,
    scalar_sub,
)
from padiclt.divalg import (
    DivElem,
    div_from_scalar,
    div_inv,
    div_mul,
    div_one,
    j_embed,
    mat_eq,
    mat_mul,
    nrd,
    sample_gamma,
    sample_obh,
)

CTX = make_context(5, 3, 8)
H = 3


def _pi(power: int) -> DivElem:
    """Pi^power for 0 <= power < h."""
    return DivElem(CTX, tuple(CTX.one() if i == power else CTX.zero() for i in range(H)))


def _pi_valuation(a: DivElem) -> int | None:
    """min_i (h v(lambda_i) + i), the Pi-adic valuation; None if every lambda_i is 0."""
    vals = [H * v + i for i, c in enumerate(a.coeffs) if (v := c.valuation()) is not None]
    return min(vals, default=None)


def test_pi_relations():
    assert div_mul(_pi(1), _pi(2)) == div_from_scalar(CTX.from_int(5))
    rng = random.Random(0)
    for _ in range(20):
        lam = CTX.random_element(rng)
        lhs = div_mul(_pi(1), div_from_scalar(lam))
        rhs = div_mul(div_from_scalar(frobenius(lam)), _pi(1))
        assert lhs == rhs


def test_one_is_neutral():
    rng = random.Random(1)
    a = sample_obh(CTX, rng)
    assert div_mul(div_one(CTX), a) == a
    assert div_mul(a, div_one(CTX)) == a


def test_associativity_random_triples():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = (sample_obh(CTX, rng) for _ in range(3))
        assert div_mul(div_mul(a, b), c) == div_mul(a, div_mul(b, c))


def test_inverse_by_direct_multiplication():
    rng = random.Random(3)
    one = div_one(CTX)
    assert div_inv(one) == one
    for _ in range(100):
        a = sample_gamma(CTX, 0, rng)
        ia = div_inv(a)
        assert div_mul(a, ia) == one
        assert div_mul(ia, a) == one
    lam = CTX.random_unit(rng)
    from padiclt.padics import scalar_inv
    assert div_inv(div_from_scalar(lam)) == div_from_scalar(scalar_inv(lam))
    with pytest.raises(NonUnitError):
        div_inv(_pi(1))


def test_j_identity_and_diagonal():
    jm = j_embed(div_one(CTX))
    for r in range(H):
        for c in range(H):
            expect = CTX.one() if r == c else CTX.zero()
            assert jm[r][c] == expect
    rng = random.Random(4)
    lam = CTX.random_unit(rng)
    jd = j_embed(div_from_scalar(lam))
    for r in range(H):
        for c in range(H):
            if r == c:
                assert jd[r][c] == frobenius(lam, r)
            else:
                assert jd[r][c].is_zero_at_precision()


def test_j_composition_order_frozen_by_oracle():
    # j(ab) = j(a) j(b) holds on every pair, and the reversed order fails on some
    rng = random.Random(5)
    reversed_failures = 0
    for _ in range(20):
        a = sample_gamma(CTX, 0, rng)
        b = sample_gamma(CTX, 0, rng)
        jab = j_embed(div_mul(a, b))
        assert mat_eq(jab, mat_mul(j_embed(a), j_embed(b)))
        if not mat_eq(jab, mat_mul(j_embed(b), j_embed(a))):
            reversed_failures += 1
    assert reversed_failures > 0


def test_j_injective_at_precision():
    rng = random.Random(6)
    for _ in range(20):
        a = sample_obh(CTX, rng)
        b = sample_obh(CTX, rng)
        if a == b:
            continue
        assert not mat_eq(j_embed(a), j_embed(b))


def test_nrd_examples():
    assert nrd(div_one(CTX)) == CTX.one()
    rng = random.Random(7)
    lam = CTX.random_unit(rng)
    field_norm = lam
    for k in range(1, H):
        field_norm = scalar_mul(field_norm, frobenius(lam, k))
    assert nrd(div_from_scalar(lam)) == field_norm
    for _ in range(100):
        a, b = sample_gamma(CTX, 0, rng), sample_gamma(CTX, 0, rng)
        assert nrd(div_mul(a, b)) == scalar_mul(nrd(a), nrd(b))
        assert frobenius(nrd(a)) == nrd(a)  # lands in Q_p
        assert nrd(a).valuation() == 0


def test_nrd_congruence_on_filtration():
    rng = random.Random(8)
    for n in (1, 2, 3):
        for _ in range(20):
            g = sample_gamma(CTX, n, rng)
            v = scalar_sub(nrd(g), CTX.one()).valuation()
            assert v is None or v >= n


def test_filtration_membership():
    # sample_gamma(n) lies in Gamma_n = 1 + p^n o_{B_h} (Gamma_0 := the units)
    rng = random.Random(9)
    assert sample_gamma(CTX, 0, rng).is_unit()
    for n in range(1, 4):
        g = sample_gamma(CTX, n, rng)
        diff = (scalar_sub(g.coeffs[0], CTX.one()),) + g.coeffs[1:]
        assert all(v is None or v >= n for v in (c.valuation() for c in diff))


def test_sampler_is_deterministic():
    a = sample_gamma(CTX, 2, random.Random(123))
    b = sample_gamma(CTX, 2, random.Random(123))
    assert a == b
    assert sample_gamma(CTX, 0, random.Random(1)).is_unit()


def test_pi_valuation_additive():
    rng = random.Random(10)
    for _ in range(100):
        a, b = sample_obh(CTX, rng), sample_obh(CTX, rng)
        wa, wb = _pi_valuation(a), _pi_valuation(b)
        if wa is not None and wb is not None and wa + wb < H * CTX.N - H:
            assert _pi_valuation(div_mul(a, b)) == wa + wb


def _permutation_expansion(mat):
    """sum over permutations of sign * prod_r mat[r][perm[r]], one scalar op per step."""
    n = len(mat)
    expect = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = mat[0][perm[0]]
        for r in range(1, n):
            term = scalar_mul(term, mat[r][perm[r]])
        if sign < 0:
            term = scalar_neg(term)
        expect = term if expect is None else scalar_add(expect, term)
    return expect


def test_determinant_against_permutation_expansion():
    rng = random.Random(12)
    for ctx in (CTX, make_context(2, 3, 32)):
        for n in range(1, 6):
            for _ in range(3):
                mat = [[ctx.random_element(rng) for _ in range(n)] for _ in range(n)]
                assert determinant(mat, ctx).key() == _permutation_expansion(mat).key()
        # the permutation (0 1 2)(3 4) is odd
        perm = (1, 2, 0, 4, 3)
        mat = [[ctx.one() if c == perm[r] else ctx.zero() for c in range(5)] for r in range(5)]
        assert determinant(mat, ctx).key() == ctx.from_int(-1).key()
        assert _permutation_expansion(mat).key() == ctx.from_int(-1).key()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [8, 32])
def test_nrd_lands_in_zp_as_a_multiplicative_unit(p, N):
    rng = random.Random(13)
    for h in range(1, 6):
        ctx = make_context(p, h, N)
        for _ in range(4):
            a, b = sample_gamma(ctx, 0, rng), sample_gamma(ctx, 0, rng)
            na = nrd(a)
            assert not any(na.coords[1:]) and na.prec == N
            assert na.valuation() == 0
            assert nrd(div_mul(a, b)).key() == scalar_mul(na, nrd(b)).key()


# ---------------------------------------------------------------------------
# The scalar loops the packed j_embed, mat_mul and div_mul replaced, kept as
# oracles: one PadicScalar operation per step.

def _reference_div_mul(a, b):
    ctx = a.ctx
    h = ctx.e
    out = [ctx.zero() for _ in range(h)]
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero_at_precision():
            continue
        for j, bj in enumerate(b.coeffs):
            if bj.is_zero_at_precision():
                continue
            term = scalar_mul(ai, frobenius(bj, i))
            k = i + j
            if k >= h:
                term = scalar_mul_int(term, ctx.p)
                k -= h
            out[k] = scalar_add(out[k], term)
    return DivElem(ctx, tuple(out))


def _reference_j_embed(a):
    ctx = a.ctx
    h = ctx.e
    mat = []
    for r in range(h):
        row = []
        rr = r if r >= 1 else h
        for c in range(h):
            lam = frobenius(a.coeffs[(c - r) % h], r)
            if c >= 1 and rr > c:
                lam = scalar_mul_int(lam, ctx.p)
            row.append(lam)
        mat.append(row)
    return mat


def _reference_mat_mul(A, B):
    n = len(A)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = scalar_mul(A[r][0], B[0][c])
            for k in range(1, n):
                acc = scalar_add(acc, scalar_mul(A[r][k], B[k][c]))
            row.append(acc)
        out.append(row)
    return out


_context = functools.lru_cache(maxsize=None)(make_context)


def _mat_key(mat):
    return [[x.key() for x in row] for row in mat]


def _random_coeff(ctx, rng, mixed):
    """Zero, all coordinates p^q - 1 (the widest slot sums), or random, at
    precision N or, if mixed, at a random precision."""
    q = rng.randint(1, ctx.N) if mixed else ctx.N
    kind = rng.random()
    if kind < 0.2:
        return ctx.zero().at_precision(q)
    if kind < 0.4:
        return ctx.from_coords([ctx.p ** q - 1] * ctx.e, q)
    return ctx.random_element(rng, q)


def _random_elem(ctx, rng, mixed):
    return DivElem(ctx, tuple(_random_coeff(ctx, rng, mixed) for _ in range(ctx.e)))


def _assert_layer_matches_reference(a, b):
    assert div_mul(a, b).key() == _reference_div_mul(a, b).key()
    ja, jb = j_embed(a), j_embed(b)
    assert _mat_key(ja) == _mat_key(_reference_j_embed(a))
    assert _mat_key(mat_mul(ja, jb)) == _mat_key(_reference_mat_mul(ja, jb))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.sampled_from([1, 8, 32]),
       st.booleans(), st.integers(0, 2 ** 32))
def test_div_layer_matches_reference(p, h, N, mixed, seed):
    ctx = _context(p, h, N)
    rng = random.Random(seed)
    a, b = _random_elem(ctx, rng, mixed), _random_elem(ctx, rng, mixed)
    _assert_layer_matches_reference(a, b)
    # matrices that are not embeddings: mixed precision along rows and columns
    n = rng.randint(1, 5)
    A, B = ([[_random_coeff(ctx, rng, mixed) for _ in range(n)] for _ in range(n)]
            for _ in range(2))
    assert _mat_key(mat_mul(A, B)) == _mat_key(_reference_mat_mul(A, B))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.sampled_from([1, 8, 32]),
       st.integers(0, 2 ** 32))
def test_j_embed_matches_reference_at_mixed_precisions(p, h, N, seed):
    # every coefficient at its own precision, 0 and N included, so the slots of
    # one packed Frobenius pass are cut to different powers of p
    ctx = _context(p, h, N)
    rng = random.Random(seed)
    coeffs = []
    for _ in range(h):
        q = rng.randint(0, N)
        coeffs.append(rng.choice([ctx.from_coords([p ** q - 1] * h, q),
                                  ctx.random_element(rng, q), ctx.zero().at_precision(q)]))
    a = DivElem(ctx, tuple(coeffs))
    assert _mat_key(j_embed(a)) == _mat_key(_reference_j_embed(a))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [1, 8, 32])
def test_div_layer_matches_reference_at_the_widest_slot_sums(p, N):
    """Inputs that reach the slot-width bound exactly, so one bit less carries."""
    for h in range(1, 6):
        ctx = _context(p, h, N)
        top = ctx.from_coords([p ** N - 1] * h)
        # b_j = sigma^j(top) makes every wrapped term of coefficient 0 top * top
        a = DivElem(ctx, (top,) * h)
        b = DivElem(ctx, tuple(frobenius(top, j) for j in range(h)))
        _assert_layer_matches_reference(a, b)
        full = [[top] * h for _ in range(h)]
        assert _mat_key(mat_mul(full, full)) == _mat_key(_reference_mat_mul(full, full))


def test_div_layer_precisions_pinned():
    ctx = make_context(3, 3, 8)
    x, y = ctx.from_int(2, 5), ctx.from_int(4, 7)
    a = DivElem(ctx, (x, ctx.zero().at_precision(2), ctx.one()))
    b = DivElem(ctx, (y, ctx.zero(), ctx.one().at_precision(6)))
    # a zero coefficient adds no pair, so none of its precision
    assert [c.prec for c in div_mul(a, b).coeffs] == [5, 6, 5]
    assert [[c.prec for c in row] for row in j_embed(a)] == [[5, 2, 8], [8, 5, 2], [2, 8, 5]]
    A, B = j_embed(a), j_embed(b)
    assert [[c.prec for c in row] for row in mat_mul(A, B)] == [[2] * 3] * 3
    B = [[y] * 3, [ctx.one()] * 3, [ctx.one().at_precision(6)] * 3]
    C = [[ctx.one()] * 3, [x, ctx.one(), ctx.one()], [ctx.one()] * 3]
    assert [[c.prec for c in row] for row in mat_mul(C, B)] == [[6] * 3, [5] * 3, [6] * 3]
