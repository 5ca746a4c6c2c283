"""The maximal order of the invariant-1/h division algebra over Q_p.

Elements are written in the normal form lambda_0 + lambda_1*Pi + ... +
lambda_{h-1}*Pi^(h-1) with lambda_i integral over the degree-h unramified
context and the relations Pi^h = p, Pi*lam = sigma(lam)*Pi.  The embedding
j into h x h matrices is left multiplication on the right K_h-vector space
with basis {1, Pi^(h-1), ..., Pi}; the reduced norm is det(j(.)).

j_embed, mat_mul and div_mul work on integer coordinates, as
linalg.determinant does.  sigma^r is one product with the cached matrix
padics._frobenius_rows(ctx, r, .); j_embed applies it to all h coefficients
at once through its packed columns, padics._frobenius_columns.  mat_mul and
div_mul sum the packed products (see the padics module docstring) of each
output coefficient, reduce all sums once mod (Phi, p^top), top the largest
input precision, and cut each coefficient to its own precision q <= top.  This equals the
one-scalar-operation-per-step loops, coordinates and precision both, for
these precisions q:

- j_embed: entry (r, c) keeps the precision of its coefficient
  lambda_{(c-r) mod h}; sigma^r and the factor p act at that precision.
- mat_mul: entry (r, c) has the least precision of row r of A and column c
  of B.
- div_mul: coefficient k has the least of N and the precisions of a_i and
  b_j over the pairs with a_i, b_j both nonzero and i + j = k mod h; with no
  such pair it is 0 at precision N.  The pairs with i + j >= h carry the
  factor p of Pi^h = p.
"""

from __future__ import annotations

from operator import mul

from .linalg import determinant, solve_unit_system
from .padics import (
    ContextMismatchError,
    NonUnitError,
    PadicScalar,
    UnramContext,
    _frobenius_columns,
    _frobenius_rows,
    _pack,
    _reduce_packed,
    _slot_width,
    _unpack,
    frobenius,
    scalar_add,
    scalar_mul_int,
)

class DivElem:
    """Element of o_{B_h} in Pi-normal form over a degree-h context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: UnramContext, coeffs: tuple[PadicScalar, ...]):
        if len(coeffs) != ctx.e:
            raise ValueError(f"need h={ctx.e} coefficients, got {len(coeffs)}")
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def h(self) -> int:
        return self.ctx.e

    def __repr__(self) -> str:
        return f"DivElem({[list(c.coords) for c in self.coeffs]})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivElem):
            return NotImplemented
        return self.ctx.same_ring(other.ctx) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def key(self) -> tuple:
        return tuple(c.key() for c in self.coeffs)

    def is_unit(self) -> bool:
        return self.coeffs[0].valuation() == 0


def div_one(ctx: UnramContext) -> DivElem:
    return div_from_scalar(ctx.one())


def div_from_scalar(lam: PadicScalar) -> DivElem:
    ctx = lam.ctx
    return DivElem(ctx, (lam,) + tuple(ctx.zero() for _ in range(ctx.e - 1)))


def _check_ctx(a: DivElem, b: DivElem) -> None:
    if not a.ctx.same_ring(b.ctx):
        raise ContextMismatchError("division-algebra elements from different contexts")


def div_mul(a: DivElem, b: DivElem) -> DivElem:
    """Normal-form product via Pi^i lam = sigma^i(lam) Pi^i and Pi^h = p.

    Coefficient k sums a_i sigma^i(b_j) over i + j = k mod h, times p when
    i + j >= h; its precision is in the module docstring.
    """
    _check_ctx(a, b)
    ctx = a.ctx
    h = e = ctx.e
    p, modulus = ctx.p, ctx.modulus
    lhs = [(i, x) for i, x in enumerate(a.coeffs) if any(x.coords)]
    rhs = [(j, y) for j, y in enumerate(b.coeffs) if any(y.coords)]
    top = max((x.prec for _, x in lhs + rhs), default=0)
    # coefficient 0 takes one plain product and h-1 products times p
    width = _slot_width(1 + p * (h - 1), e, p ** top)
    # twisted[i][j]: sigma^i(b_j), packed
    twisted = {i: {} for i, _ in lhs}
    for j, y in rhs:
        for i in twisted:
            c = y.coords
            if i:
                pn, rows = _frobenius_rows(ctx, i, y.prec)
                c = [sum(map(mul, row, c)) % pn for row in rows]
            twisted[i][j] = _pack(c, width)
    acc: dict[int, int] = {}
    precs: dict[int, int] = {}
    for i, x in lhs:
        xp = _pack(x.coords, width)
        for j, y in rhs:
            k, term = i + j, xp * twisted[i][j]
            if k >= h:
                k, term = k - h, term * p
            acc[k] = acc.get(k, 0) + term
            precs[k] = min(precs.get(k, ctx.N), x.prec, y.prec)
    acc = _reduce_packed(acc, width, modulus, e, p ** top)
    out = [ctx.zero()] * h
    for k, q in precs.items():
        out[k] = PadicScalar(ctx, _unpack(acc.get(k, 0), width, e), top).at_precision(q)
    return DivElem(ctx, tuple(out))


def div_inv(a: DivElem) -> DivElem:
    """Two-sided inverse of a unit, via the linear system x * a = 1.

    The system is linear in the coordinates of x because right
    multiplication only Frobenius-twists the known coefficients of a.
    """
    ctx = a.ctx
    h = ctx.e
    if not a.is_unit():
        raise NonUnitError("element is not in Gamma = o_{B_h}^x")
    # M[k][j] = coefficient of Pi^k in Pi^j * a restricted to x_j, i.e.
    # sigma^j(lambda_{(k-j) mod h}) times p when j > k.
    matrix = []
    for k in range(h):
        row = []
        for j in range(h):
            lam = frobenius(a.coeffs[(k - j) % h], j)
            if j > k:
                lam = scalar_mul_int(lam, ctx.p)
            row.append(lam)
        matrix.append(row)
    rhs = [ctx.one()] + [ctx.zero() for _ in range(h - 1)]
    x = solve_unit_system(matrix, rhs)
    return DivElem(ctx, tuple(x))


def j_embed(a: DivElem) -> list[list[PadicScalar]]:
    """The h x h matrix of left multiplication by `a` on {1, Pi^(h-1), ..., Pi}.

    Row 0 is (lambda_0, p*lambda_1, ..., p*lambda_{h-1}); row r >= 1 has
    sigma^r(lambda_{h-r}) in column 0, sigma^r(lambda_{c-r}) for r <= c and
    p*sigma^r(lambda_{h+c-r}) for r > c.  Each entry keeps the precision of
    its coefficient.

    sigma^r acts on all h coefficients in one sum of e products: coordinate k
    of every coefficient packs into one int, one slot per coefficient, and
    column k of sigma^r mod p^top packs with a stride of h slots, so slot
    (m h + i) of the sum is coordinate m of sigma^r(lambda_i), unreduced and
    below e p^(2 top).  Each slot is then cut to its coefficient's precision.
    """
    ctx = a.ctx
    h, p = ctx.e, ctx.p
    coeffs = a.coeffs
    pns = [p ** x.prec for x in coeffs]
    top = max(x.prec for x in coeffs)
    width = (h * p ** (2 * top)).bit_length()
    stride, mask = h * width, (1 << width) - 1
    inputs = [_pack(col, width) for col in zip(*(x.coords for x in coeffs))]
    mat = [[coeffs[0]] + [PadicScalar(ctx, tuple([x * p % pn for x in y.coords]), y.prec)
                          for y, pn in zip(coeffs[1:], pns[1:])]]
    for r in range(1, h):
        images = sum(map(mul, _frobenius_columns(ctx, r, top, stride), inputs))
        row = []
        for c in range(h):
            i = (c - r) % h
            pn, k = pns[i], p if 0 < c < r else 1
            coords = [(images >> s & mask) * k % pn for s in range(i * width, h * stride, stride)]
            row.append(PadicScalar(ctx, tuple(coords), coeffs[i].prec))
        mat.append(row)
    return mat


def mat_mul(A: list[list[PadicScalar]], B: list[list[PadicScalar]]) -> list[list[PadicScalar]]:
    """A @ B, one packed dot product per entry and one reduction for all.

    Entry (r, c) has the least precision of row r of A and column c of B.
    """
    n = len(A)
    if not n:
        return []
    ctx = A[0][0].ctx
    if not ctx.same_ring(B[0][0].ctx):
        raise ContextMismatchError("mat_mul: matrices over different rings")
    p, e = ctx.p, ctx.e
    top = max(x.prec for M in (A, B) for row in M for x in row)
    width = _slot_width(n, e, p ** top)
    rows = [[_pack(x.coords, width) for x in row] for row in A]
    cols = [[_pack(x.coords, width) for x in col] for col in zip(*B)]
    acc = _reduce_packed({(r, c): sum(map(mul, row, col))
                          for r, row in enumerate(rows) for c, col in enumerate(cols)},
                         width, ctx.modulus, e, p ** top)
    col_precs = [min(x.prec for x in col) for col in zip(*B)]
    out = []
    for r, row in enumerate(A):
        qr = min(x.prec for x in row)
        out.append([PadicScalar(ctx, _unpack(acc.get((r, c), 0), width, e), top)
                    .at_precision(min(qr, qc)) for c, qc in enumerate(col_precs)])
    return out


def mat_eq(A: list[list[PadicScalar]], B: list[list[PadicScalar]]) -> bool:
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def nrd(a: DivElem) -> PadicScalar:
    """Reduced norm as det(j(a)); lands in Z_p up to precision."""
    return determinant(j_embed(a), a.ctx)


def sample_gamma(ctx: UnramContext, n: int, rng) -> DivElem:
    """Uniform element of Gamma_n mod p^N drawn from the random.Random rng."""
    h = ctx.e
    if n == 0:
        coeffs = [ctx.random_unit(rng)]
        coeffs += [ctx.random_element(rng) for _ in range(h - 1)]
        return DivElem(ctx, tuple(coeffs))
    pn = ctx.p ** n
    pN = ctx.pN
    shifted_range = ctx.p ** max(ctx.N - n, 0)

    def p_n_multiple():
        return ctx.from_coords([pn * rng.randrange(shifted_range) % pN for _ in range(ctx.e)])

    coeffs = [scalar_add(ctx.one(), p_n_multiple())]
    coeffs += [p_n_multiple() for _ in range(h - 1)]
    return DivElem(ctx, tuple(coeffs))


def sample_obh(ctx: UnramContext, rng) -> DivElem:
    """Uniform integral element (not necessarily a unit)."""
    return DivElem(ctx, tuple(ctx.random_element(rng) for _ in range(ctx.e)))
