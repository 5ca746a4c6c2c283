"""Exact linear algebra over precision-tracked p-adic scalars.

Elimination pivots on minimal valuation (ties: smallest column, then row)
so that every division is by the entry of least valuation seen so far and
the absolute-precision loss is bounded by the pivot valuations.

kernel_basis takes sparse rows, dicts col -> PadicScalar, and eliminates over
sparse rows of plain integer coordinates: a row is one precision plus a dict
col -> (coords, valuation) holding only its nonzero entries.  One precision
per row is exact, not an approximation.  The entries of each row coming in
carry one precision (kernel_basis checks this); a row with no entries takes
the given one.
Dividing a row of precision P by a pivot of valuation v lowers every entry
to P - v; subtracting f times the pivot row from row r lowers every entry
of r to min(P_r, P_pivot), because f comes from row r.  So each row keeps a
single precision throughout.  A zero entry is all-zero coordinates at any
precision, so leaving it out of the dict loses nothing; only the output
needs the row's precision back, for the zeros of the returned basis.

Valuations are cached when an entry is written, and each row keeps its least
(valuation, col), so a pivot step scans rows, not entries.  The pivot's unit
part is inverted once per step, and only the rows with a nonzero entry in
the pivot column are updated, over the pivot row's nonzero columns (their
other entries are only cut to the new precision).  Scalars are built only
for the returned basis.

No experiment calls kernel_basis: domain.operator_kernel reads its one-entry
systems off their columns.  The tests hold that read-off to kernel_basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .padics import (
    ContextMismatchError,
    PadicScalar,
    PrecisionLossError,
    UnramContext,
    _coords_mul,
    _coords_valuation,
    _pack,
    _reduce_packed,
    _slot_width,
    _unpack,
    scalar_inv,
    scalar_mul,
    scalar_sub,
)


def _shift_down(a: PadicScalar, v: int) -> PadicScalar:
    """Exact division by p^v; requires every coordinate divisible by p^v."""
    if v == 0:
        return a
    if a.prec <= v:
        raise PrecisionLossError(f"cannot divide by p^{v} at precision {a.prec}")
    pv = a.ctx.p ** v
    if any(c % pv for c in a.coords):
        raise PrecisionLossError("entry not divisible by pivot power")
    return PadicScalar(a.ctx, tuple(c // pv for c in a.coords), a.prec - v)


def pivot_divider(pivot: PadicScalar):
    """The map a -> a / pivot for v(a) >= v(pivot), each result losing v(pivot)
    digits of precision; the pivot's unit part is inverted once, here."""
    v = pivot.valuation()
    if v is None:
        raise PrecisionLossError("pivot is zero at precision")
    inv = scalar_inv(_shift_down(pivot, v))
    return lambda a: scalar_mul(_shift_down(a, v), inv)


def divide_by_pivot(a: PadicScalar, pivot: PadicScalar) -> PadicScalar:
    """a / pivot where v(a) >= v(pivot); loses v(pivot) digits of precision."""
    return pivot_divider(pivot)(a)


def solve_unit_system(matrix: list[list[PadicScalar]], rhs: list[PadicScalar]) -> list[PadicScalar]:
    """Solve M x = rhs for a square M invertible mod p (all pivots units)."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    ctx = rhs[0].ctx
    for col in range(n):
        piv_row = None
        for r in range(col, n):
            if a[r][col].valuation() == 0:
                piv_row = r
                break
        if piv_row is None:
            raise PrecisionLossError("no unit pivot: matrix not invertible mod p")
        a[col], a[piv_row] = a[piv_row], a[col]
        inv = scalar_inv(a[col][col])
        a[col] = [scalar_mul(inv, x) for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero_at_precision():
                f = a[r][col]
                a[r] = [scalar_sub(x, scalar_mul(f, y)) for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


@dataclass
class KernelResult:
    basis: list[list[PadicScalar]]
    max_pivot_valuation: int
    reliable: bool


def _row_best(row: dict[int, tuple]) -> tuple[int, int] | None:
    """Least (valuation, col) over the entries of a sparse row that can pivot."""
    return min(((v, c) for c, (_, v) in row.items() if v is not None), default=None)


def kernel_basis(rows: list[dict[int, PadicScalar]], ncols: int, ctx: UnramContext,
                 prec: int) -> KernelResult:
    """Right kernel of the matrix given by `rows` over the scalar ring.

    Each row maps columns in range(ncols) to its entries; a column it leaves
    out is 0.  The entries of one row must carry the same precision
    (different rows may differ, and a row with no entries has precision
    `prec`); a row of mixed precision raises ValueError, and an entry of
    another ring than `ctx` raises ContextMismatchError.  Pivots are chosen
    with minimal valuation; ties break toward the smallest column index
    (callers order columns graded-lexicographically), then the smallest row.
    The result is flagged unreliable when a pivot's valuation exceeds prec/2.
    """
    p, e, modulus = ctx.p, ctx.e, ctx.modulus
    precs: list[int] = []  # the one precision of each row
    # col -> (coords, valuation) of each nonzero entry; valuation None (an input
    # entry that is 0 at its precision but not reduced) never pivots
    ents: list[dict[int, tuple]] = []
    for row in rows:
        row_precs = {x.prec for x in row.values()}
        if len(row_precs) > 1:
            raise ValueError(f"row of mixed precision {sorted(row_precs)}")
        ent = {}
        for c, x in row.items():
            if x.ctx is not ctx and not x.ctx.same_ring(ctx):
                raise ContextMismatchError("kernel_basis: entry from another ring")
            if any(x.coords):
                ent[c] = (x.coords, x.valuation())
        precs.append(row_precs.pop() if row_precs else prec)
        ents.append(ent)
    nrows = len(ents)
    best = [_row_best(ent) for ent in ents]
    unused = set(range(nrows))
    pivots: dict[int, int] = {}  # col -> row
    max_pivot_v = 0

    while True:
        cands = [(best[r][0], best[r][1], r) for r in unused if best[r] is not None]
        if not cands:
            break
        v, col, row = min(cands)
        max_pivot_v = max(max_pivot_v, v)
        # divide the pivot row by the pivot: the row drops to precision P - v
        n = precs[row] - v
        pn, pv = p ** n, p ** v
        pivot_row = {}
        unit = tuple(x // pv for x in ents[row][col][0])
        inv = scalar_inv(PadicScalar(ctx, unit, n)).coords
        for c, (coords, _) in ents[row].items():
            if any(x % pv for x in coords):
                raise PrecisionLossError("entry not divisible by pivot power")
            q = _coords_mul(tuple(x // pv for x in coords), inv, modulus, e, pn)
            if any(q):
                pivot_row[c] = (q, _coords_valuation(q, p))
        ents[row], precs[row] = pivot_row, n
        # row r -= f * pivot row, for every row r with a nonzero f in the pivot column;
        # every entry of r drops to precision min(P_r, n)
        for r, ent in enumerate(ents):
            if r == row or col not in ent:
                continue
            f = ent[col][0]
            m = min(precs[r], n)
            pm = p ** m
            new = {}
            for c, (x, vx) in ent.items():
                if c not in pivot_row and vx is not None and vx < m:
                    new[c] = (tuple(y % pm for y in x), vx)
            for c, (y, _) in pivot_row.items():
                fy = _coords_mul(f, y, modulus, e, pm)
                x = ent[c][0] if c in ent else (0,) * e
                d = tuple((a - b) % pm for a, b in zip(x, fy))
                if any(d):
                    new[c] = (d, _coords_valuation(d, p))
            ents[r], precs[r], best[r] = new, m, _row_best(new)
        pivots[col] = row
        unused.discard(row)

    zero, one = ctx.zero().at_precision(prec), ctx.one().at_precision(prec)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for c, r in pivots.items():
            x = ents[r][f][0] if f in ents[r] else (0,) * e
            pr = p ** precs[r]
            vec[c] = PadicScalar(ctx, tuple((-y) % pr for y in x), precs[r])
        basis.append(vec)
    return KernelResult(basis, max_pivot_v, max_pivot_v <= prec // 2)


@lru_cache(maxsize=None)
def _subset_steps(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each column subset S of an n x n matrix, the pairs (S | {c}, 2c + sign)
    over the columns c not in S: sign 1 when placing row |S| at column c adds an
    odd number of inversions, |S| minus the columns of S below c."""
    steps = []
    for subset in range(1 << n):
        row, below, out = bin(subset).count("1"), 0, []
        for c in range(n):
            if subset >> c & 1:
                below += 1
            else:
                out.append((subset | 1 << c, 2 * c + (row - below) % 2))
        steps.append(tuple(out))
    return tuple(steps)


# Up to this size the minors stay unreduced through every row: one reduction of
# the full minor costs less than one per row.  Past it the unreduced slots grow
# as (p^q)^n and the products of wide ints dominate.  Determinants of embedded
# units (2 vCPUs, Python 3.11): deferring was 1.4-1.6x faster at n = 2..5, about even
# at n = 6, and 2.0x, 2.7x and 2.5x slower at (p, n, q) = (3, 7, 8), (2, 8, 8)
# and (3, 8, 8).
_DEFER_MAX_N = 6


def determinant(matrix: list[list[PadicScalar]], ctx: UnramContext) -> PadicScalar:
    """Division-free determinant by expansion over column subsets.

    The value of each state, the minor on the first |S| rows and the columns
    of S, has the one precision q of the result, the least precision of any
    entry.  Each entry is reduced mod p^q and packed once (see the padics
    module docstring); a term that enters with a minus sign takes the packed
    complement p^q - v instead, so no slot goes negative.  Each level sums,
    per new subset, the packed products of the states it extends with their
    new entries.

    For n <= _DEFER_MAX_N no level is reduced: the full minor is a polynomial
    of degree n(e-1) in x, and each of its n(e-1)+1 slots sums at most
    n! e^(n-1) products of n coordinates of at most p^q (a complement can be
    p^q itself).  Those slots are folded mod the monic Phi over Z and cut mod
    p^q once, at the end.  For larger n the sums are reduced mod (Phi, p^q)
    after every level, as padics does.  Both equal one scalar_mul and one
    scalar_add per term at precision q, coordinates and precision both.
    """
    n = len(matrix)
    if not n:
        return ctx.one()
    p, e, modulus = ctx.p, ctx.e, ctx.modulus
    q = min(x.prec for row in matrix for x in row)
    pq = p ** q
    defer = n <= _DEFER_MAX_N
    if defer:
        width = (factorial(n) * e ** (n - 1) * pq ** n).bit_length()
    else:
        # a state below p^q times an entry up to p^q: the bound of p^q + 1
        width = _slot_width(n, e, pq + 1)
    full = _pack([pq] * e, width)
    # entry (r, c) at index 2c (+v mod p^q, packed) and 2c + 1 (its complement)
    rows = []
    for row in matrix:
        out = []
        for x in row:
            if x.ctx is not ctx and not x.ctx.same_ring(ctx):
                raise ContextMismatchError("determinant: entry from another ring")
            v = _pack(x.coords if x.prec == q else [c % pq for c in x.coords], width)
            out += (v, full - v)
        rows.append(out)
    steps = _subset_steps(n)
    # the packed minor on the first popcount(S) rows, by column subset S; where
    # the levels are reduced, a minor that is 0 mod (Phi, p^q) is dropped
    dp = {0: 1}
    for row in rows:
        sums: dict[int, int] = {}
        for subset, packed in dp.items():
            for target, k in steps[subset]:
                if target in sums:
                    sums[target] += packed * row[k]
                else:
                    sums[target] = packed * row[k]
        dp = sums if defer else _reduce_packed(sums, width, modulus, e, pq)
    minor = dp.get((1 << n) - 1, 0)
    if not defer:
        return PadicScalar(ctx, _unpack(minor, width, e), q)
    coeffs = list(_unpack(minor, width, n * (e - 1) + 1))
    for d in range(len(coeffs) - 1, e - 1, -1):  # x^d = x^(d-e) (x^e - Phi)
        c = coeffs[d] % pq
        if c:
            for k in range(e):
                coeffs[d - e + k] -= c * modulus[k]
    return PadicScalar(ctx, tuple([c % pq for c in coeffs[:e]]), q)
