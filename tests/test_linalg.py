import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padiclt.domain as domain
from padiclt.divalg import mat_mul
from padiclt.linalg import KernelResult, determinant, divide_by_pivot, kernel_basis
from padiclt.padics import (
    ContextMismatchError,
    make_context,
    scalar_add,
    scalar_mul,
    scalar_neg,
    scalar_sub,
)


def _reference_kernel_basis(rows, ncols, ctx, prec):
    """The dense elimination: one PadicScalar per entry, every entry rescanned per pivot."""
    a = [row[:] for row in rows]
    nrows = len(a)
    pivots = {}
    used_rows = set()
    max_pivot_v = 0
    while True:
        best = None
        for r in range(nrows):
            if r in used_rows:
                continue
            for c in range(ncols):
                if c in pivots:
                    continue
                v = a[r][c].valuation()
                if v is None:
                    continue
                if best is None or (v, c, r) < best:
                    best = (v, c, r)
        if best is None:
            break
        v, col, row = best
        max_pivot_v = max(max_pivot_v, v)
        piv = a[row][col]
        a[row] = [divide_by_pivot(x, piv) for x in a[row]]
        for r in range(nrows):
            if r != row and not a[r][col].is_zero_at_precision():
                f = a[r][col]
                a[r] = [scalar_sub(x, scalar_mul(f, y)) for x, y in zip(a[r], a[row])]
        pivots[col] = row
        used_rows.add(row)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [ctx.zero().at_precision(prec) for _ in range(ncols)]
        vec[f] = ctx.one().at_precision(prec)
        for c, r in pivots.items():
            vec[c] = scalar_neg(a[r][f])
        basis.append(vec)
    return KernelResult(basis, max_pivot_v, max_pivot_v <= prec // 2)


def _outcome(fn, rows, ncols, ctx, prec):
    """(basis keys, max pivot valuation, reliable), or the type of the raised exception."""
    try:
        result = fn(rows, ncols, ctx, prec)
    except Exception as exc:  # the exception type is part of the compared behaviour
        return type(exc)
    return ([[x.key() for x in vec] for vec in result.basis], result.max_pivot_valuation,
            result.reliable)


def _assert_same(rows, ncols, ctx, prec):
    got = _outcome(kernel_basis, rows, ncols, ctx, prec)
    assert got == _outcome(_reference_kernel_basis, rows, ncols, ctx, prec)
    return got


def _random_rows(ctx, rng, nrows, ncols):
    """Rows of one precision each: zero rows, entries of positive valuation,
    and rows that are combinations of earlier rows."""
    p, N = ctx.p, ctx.N
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            prec = rng.randint(1, N)
            rows.append([ctx.zero().at_precision(prec) for _ in range(ncols)])
        elif kind < 0.35 and len(rows) >= 2:
            r1, r2 = rng.sample(rows, 2)
            s1, s2 = ctx.random_element(rng), ctx.random_element(rng)
            rows.append([scalar_add(scalar_mul(s1, x), scalar_mul(s2, y)) for x, y in zip(r1, r2)])
        else:
            prec = rng.randint(1, N)
            row = []
            for _ in range(ncols):
                if rng.random() < 0.4:
                    row.append(ctx.zero().at_precision(prec))
                else:
                    shift = p ** rng.randint(0, prec)
                    x = ctx.random_element(rng, prec)
                    row.append(ctx.from_coords([c * shift for c in x.coords], prec))
            rows.append(row)
    return rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2, 3]), st.integers(1, 7),
       st.integers(0, 7), st.integers(0, 7), st.integers(0, 2 ** 32))
def test_kernel_basis_matches_reference(p, e, N, nrows, ncols, seed):
    ctx = make_context(p, e, N)
    rng = random.Random(seed)
    rows = _random_rows(ctx, rng, nrows, ncols)
    _assert_same(rows, ncols, ctx, rng.randint(1, N))


def test_kernel_basis_matches_reference_on_operator_kernels(monkeypatch):
    calls = []

    def checked(rows, ncols, ctx, prec):
        calls.append(_assert_same(rows, ncols, ctx, prec))
        return kernel_basis(rows, ncols, ctx, prec)

    monkeypatch.setattr(domain, "kernel_basis", checked)
    ctx = make_context(3, 3, 8)
    nops = [(i, j) for i in range(3) for j in range(3) if i != j]
    domain.operator_kernel(ctx, 3, [(0, 1), (0, 2)], 0, 5)
    domain.operator_kernel(ctx, 3, nops, 3, 4, within_vs=True)
    domain.operator_kernel(make_context(2, 2, 6), 2, [(0, 1), (1, 0)], 1, 6)
    assert len(calls) == 3 and all(isinstance(c, tuple) for c in calls)


def test_kernel_basis_no_columns_and_no_rows():
    ctx = make_context(3, 2, 6)
    assert _assert_same([[], []], 0, ctx, 6) == ([], 0, True)
    basis, max_v, reliable = _assert_same([], 3, ctx, 4)
    one, zero = ((1, 0), 4), ((0, 0), 4)
    assert basis == [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert (max_v, reliable) == (0, True)


def test_kernel_basis_unreliable_past_half_precision():
    ctx = make_context(3, 1, 8)
    rows = [[ctx.from_int(3 ** 5), ctx.from_int(3 ** 6)]]
    basis, max_v, reliable = _assert_same(rows, 2, ctx, 8)
    # the row divided by 3^5 keeps 8 - 5 = 3 digits: x0 = -3 x1 mod 3^3
    assert basis == [[((27 - 3,), 3), ((1,), 8)]]
    assert (max_v, reliable) == (5, False)


def test_kernel_basis_rejects_mixed_precision_rows():
    ctx = make_context(5, 2, 8)
    with pytest.raises(ValueError):
        kernel_basis([[ctx.one(), ctx.one().at_precision(5)]], 2, ctx, 8)
    with pytest.raises(ValueError):
        kernel_basis([[ctx.one(), ctx.zero().at_precision(3)]], 2, ctx, 8)


def test_kernel_basis_rejects_other_ring():
    ctx = make_context(5, 2, 8)
    other = make_context(3, 2, 8)
    with pytest.raises(ContextMismatchError):
        kernel_basis([[ctx.one(), other.one()]], 2, ctx, 8)


def _reference_determinant(matrix, ctx):
    """The column-subset expansion with one scalar_mul and one scalar_add per term."""
    n = len(matrix)
    prec = min(x.prec for row in matrix for x in row) if n else ctx.N
    dp = {0: ctx.one().at_precision(prec)}
    for _ in range(n):
        ndp = {}
        for subset, val in dp.items():
            r = bin(subset).count("1")
            count_less = 0
            for c in range(n):
                bit = 1 << c
                if subset & bit:
                    count_less += 1
                    continue
                term = scalar_mul(val, matrix[r][c])
                if (r - count_less) % 2:
                    term = scalar_neg(term)
                key = subset | bit
                ndp[key] = scalar_add(ndp[key], term) if key in ndp else term
        dp = ndp
    return dp[(1 << n) - 1]


def _random_entry(ctx, rng, mixed):
    """Zero, all coordinates p^q - 1, or random, at precision N or a random one."""
    q = rng.randint(1, ctx.N) if mixed else ctx.N
    kind = rng.random()
    if kind < 0.2:
        return ctx.zero().at_precision(q)
    if kind < 0.4:
        return ctx.from_coords([ctx.p ** q - 1] * ctx.e, q)
    return ctx.random_element(rng, q)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.sampled_from([1, 8, 32]),
       st.integers(0, 5), st.booleans(), st.integers(0, 2 ** 32))
def test_determinant_matches_reference(p, e, N, n, mixed, seed):
    ctx = make_context(p, e, N)
    rng = random.Random(seed)
    mat = [[_random_entry(ctx, rng, mixed) for _ in range(n)] for _ in range(n)]
    assert determinant(mat, ctx).key() == _reference_determinant(mat, ctx).key()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_determinant_matches_reference_at_the_widest_slot_sum(p):
    # det [[t, t], [u, t]] = t^2 - t u, with t all coordinates p^N - 1 and u all
    # coordinates 1: both terms put e (p^N - 1)^2 into the middle slot, the bound
    for e in range(1, 6):
        for N in (1, 8, 32):
            ctx = make_context(p, e, N)
            t, u = ctx.from_coords([p ** N - 1] * e), ctx.from_coords([1] * e)
            mat = [[t, t], [u, t]]
            assert determinant(mat, ctx).key() == _reference_determinant(mat, ctx).key()


def test_determinant_of_empty_matrix_and_other_ring():
    ctx = make_context(3, 2, 6)
    assert determinant([], ctx).key() == ctx.one().key()
    with pytest.raises(ContextMismatchError):
        determinant([[make_context(5, 2, 6).one()]], ctx)


def test_packed_kernels_at_precision_zero():
    # p^0 = 1 makes every slot bound 0; the slots still need a nonzero width
    ctx = make_context(3, 2, 6)
    z = ctx.zero().at_precision(0)
    assert determinant([[z, z], [z, z]], ctx).key() == z.key()
    assert [[x.key() for x in row] for row in mat_mul([[z]], [[z]])] == [[z.key()]]
