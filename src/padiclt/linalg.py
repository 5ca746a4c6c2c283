"""Exact linear algebra over precision-tracked p-adic scalars.

Elimination pivots on minimal valuation (ties: smallest column, then row)
so that every division is by the entry of least valuation seen so far and
the absolute-precision loss is bounded by the pivot valuations.

kernel_basis eliminates over sparse rows of plain integer coordinates: a row
is one precision plus a dict col -> (coords, valuation) holding only its
nonzero entries.  One precision per row is exact, not an approximation.  The
rows coming in each carry one precision (kernel_basis checks this).
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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

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


def kernel_basis(rows: list[list[PadicScalar]], ncols: int, ctx: UnramContext,
                 prec: int) -> KernelResult:
    """Right kernel of the matrix given by `rows` over the scalar ring.

    Every entry of one row must carry the same precision (different rows may
    differ); a row of mixed precision raises ValueError, and an entry of
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
        entries = [row[c] for c in range(ncols)]
        row_precs = {x.prec for x in entries}
        if len(row_precs) > 1:
            raise ValueError(f"row of mixed precision {sorted(row_precs)}")
        ent = {}
        for c, x in enumerate(entries):
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


def determinant(matrix: list[list[PadicScalar]], ctx: UnramContext) -> PadicScalar:
    """Division-free determinant by expansion over column subsets.

    The value of each state, the minor on the first |S| rows and the columns
    of S, has the one precision q of the result, the least precision of any
    entry.  Entries are reduced mod p^q and packed once (see the padics module
    docstring), with (-v) mod p^q for the terms that enter with a minus sign,
    so no slot goes negative.  Each level sums, per new subset, the packed
    products of the states it extends with their new entries, at most n of
    them, and reduces the sums once mod (Phi, p^q); states stay packed between
    levels.  The result equals one scalar_mul and one scalar_add per term at
    precision q, coordinates and precision both.
    """
    n = len(matrix)
    if not n:
        return ctx.one()
    p, e, modulus = ctx.p, ctx.e, ctx.modulus
    q = min(x.prec for row in matrix for x in row)
    pq = p ** q
    width = _slot_width(n, e, pq)
    # (+v, -v) mod p^q, packed, of every entry
    signed = []
    for row in matrix:
        out = []
        for x in row:
            if x.ctx is not ctx and not x.ctx.same_ring(ctx):
                raise ContextMismatchError("determinant: entry from another ring")
            out.append((_pack([v % pq for v in x.coords], width),
                        _pack([-v % pq for v in x.coords], width)))
        signed.append(out)
    # dp over subsets of columns: the packed minor on the first popcount(S) rows;
    # a minor that is 0 mod (Phi, p^q) is dropped, as it adds nothing
    dp = {0: 1 % pq}
    for r in range(n):
        sums: dict[int, int] = defaultdict(int)
        for subset, packed in dp.items():
            count_less = 0
            for c in range(n):
                bit = 1 << c
                if subset & bit:
                    count_less += 1
                    continue
                # inserting (row r, col c) adds r - count_less inversions
                sums[subset | bit] += packed * signed[r][c][(r - count_less) % 2]
        dp = _reduce_packed(sums, width, modulus, e, pq)
    return PadicScalar(ctx, _unpack(dp.get((1 << n) - 1, 0), width, e), q)
