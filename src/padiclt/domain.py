"""Function algebra of the fundamental domain and its group/Lie actions.

Functions are polynomials in w_1..w_{h-1} over a degree-h unramified
context, truncated at total degree Dmax, normed by the Gauss valuation

    vD(f) = min_alpha ( h * v(c_alpha) + sum_i alpha_i * (h - i) )

in units of v(p)/h, so that ||w_i|| = |p|^(1 - i/h).  The unit group of the
division-algebra order acts by the fractional-linear substitution

    gamma(w_i) = ( sum_{j<=i} sigma^j(lam_{i-j}) w_j
                   + sum_{j>i} p sigma^j(lam_{h+i-j}) w_j ) / den,
    den = lam_0 + sum_{j>=1} sigma^j(lam_{h-j}) w_j,

with the j = h numerator term read as p*lam_i (w_h := 1, sigma^h = id),
which is exactly right multiplication of the row (1, w_1, ..., w_{h-1}) by
the embedded matrix.  Sections carry a twist s and transform with the
extra factor den^s.

A DomainFunc is a series.TruncSeries in h-1 variables over UnramRing(ctx):
sums, scalings, powers, equality and products are the series ones, and each
builds a DomainFunc again.  A product, like a substitution, has one
absolute precision, the least of its inputs (see the series module
docstring).

The action is linear in the homogeneous coordinates (w_0 := 1, w_1, ...,
w_{h-1}), as a pullback of sections of O(s) on P^{h-1}: den and the
numerators num_i are the columns of the substitution matrix, read as linear
forms.  For f of total degree D, homogenised as F(w_0, w) =
sum_a c_a w_0^(D-|a|) w^a,

    f(num/den) den^s = F(den, num) den^(s-D),

which _act computes as one series.substitute, the h linear forms its
generators, times _den_power, a binomial series.  The result has one
precision, the least of f, of the numerators f uses and of den; a constant
f at s = 0 does not meet den, and _act returns it as it is.

Each Lie operator is one monomial map: the (i,j) matrix unit (w_0 := 1) sends
w^a to k w^(a - e_j + e_i), k = a_j for j != 0 and k = s - |a| for j = 0 (s
the twist).  _lie_move is that rule, and the one place that computes k and
the target: it gives nothing when k = 0 or, for i != 0 = j, when the target
lands above Dmax.  lie_act scales each coefficient by k at its own precision
and drops what is 0 there.  That is exactly the composition of d/dw_j, w_i *
and s f - sum_l w_l df/dw_l: s c and |a| c have the precision of c, so
s c - |a| c is (s - |a|) c whichever was 0.  lie_table reads the rule as
{monomial: k mod p^N} per (operator, monomial), for lie-bracket and for
operator_kernel.  reach_span follows its moves i != j in characteristic 0:
an edge exists whenever k is a nonzero integer, even where p^N divides k and
lie_act gives 0.  Since each operator is one monomial map, an equation
(operator, target) of operator_kernel has one entry, k on its source column:
least-valuation elimination pivots each column on its entry of least v_p(k)
and clears the column's other equations, touching no other column, and
operator_kernel reads that result off the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divalg import DivElem, div_one, j_embed
from .formal import _binom_int
from .linalg import determinant, pivot_divider
from .padics import (
    NonUnitError,
    PadicScalar,
    UnramContext,
    ZeroAtPrecisionError,
    _shift_down,
    _vp,
    frobenius,
    scalar_add,
    scalar_inv,
    scalar_mul,
    scalar_mul_int,
)
from .series import TruncSeries, UnramRing, substitute


class NotInPError(ValueError):
    """Matrix fails the Iwahori-type membership conditions."""


def monomials(h: int, dmax: int) -> list[tuple[int, ...]]:
    """All exponent tuples in N^(h-1) of total degree <= dmax, graded-lex."""

    def of_degree(n: int, d: int) -> list[tuple[int, ...]]:
        # the n-tuples summing to d, in increasing lexicographic order
        if n <= 1:
            return [(d,)] if n else [()] if d == 0 else []
        return [(a,) + rest for a in range(d + 1) for rest in of_degree(n - 1, d - a)]

    return [t for d in range(dmax + 1) for t in of_degree(h - 1, d)]


class DomainFunc(TruncSeries):
    """Sparse polynomial in w_1..w_{h-1}, coefficients in the context ring."""

    __slots__ = ()

    def __init__(self, ctx: UnramContext, h: int, dmax: int,
                 terms: dict[tuple[int, ...], PadicScalar] | None = None):
        super().__init__(UnramRing(ctx), h - 1, dmax, terms)

    @property
    def ctx(self) -> UnramContext:
        return self.ring.ctx

    @property
    def h(self) -> int:
        return self.nvars + 1

    is_zero_at_precision = TruncSeries.is_zero

    # the series product, as an entry of this class's own: bench/tracer.py
    # times the products of functions as DomainFunc.mul
    mul = TruncSeries.mul

    def scale_down(self, k: int) -> "DomainFunc":
        """Exact division of every coefficient by p^k."""
        return self._build({e: _shift_down(c, k) for e, c in self.terms.items()},
                           filtered=True)

    def gauss_valuation(self) -> int:
        """vD(f) in units of v(p)/h."""
        if not self.terms:
            raise ZeroAtPrecisionError("Gauss valuation of a function that is 0 at precision")
        h = self.h
        best = None
        for e, c in self.terms.items():
            v = c.valuation()
            if v is None:
                continue
            w = h * v + sum(a * (h - i - 1) for i, a in enumerate(e))
            if best is None or w < best:
                best = w
        if best is None:
            raise ZeroAtPrecisionError("Gauss valuation of a function that is 0 at precision")
        return best

    def at_precision(self, n: int) -> "DomainFunc":
        return self._build({e: c.at_precision(n) for e, c in self.terms.items()})


def domain_const(ctx, h, dmax, c: PadicScalar) -> DomainFunc:
    return DomainFunc(ctx, h, dmax, {(0,) * (h - 1): c})


def domain_monomial(ctx, h, dmax, exp, c: PadicScalar | None = None) -> DomainFunc:
    return DomainFunc(ctx, h, dmax, {tuple(exp): c if c is not None else ctx.one()})


def domain_var(ctx, h, dmax, i: int) -> DomainFunc:
    """The coordinate w_i, 1 <= i <= h-1."""
    e = [0] * (h - 1)
    e[i - 1] = 1
    return domain_monomial(ctx, h, dmax, e)


def random_domain_func(ctx, h, dmax, rng, ensure_nonzero=True) -> DomainFunc:
    terms = {e: ctx.random_element(rng) for e in monomials(h, dmax)}
    f = DomainFunc(ctx, h, dmax, terms)
    while ensure_nonzero and f.is_zero_at_precision():
        f = random_domain_func(ctx, h, dmax, rng, False)
    return f


@dataclass
class Section:
    """f * phi_0^s with ||f phi_0^s|| := ||f||_D."""

    func: DomainFunc
    twist: int

    def sub(self, other: "Section") -> "Section":
        if self.twist != other.twist:
            raise ValueError("sections of different twists do not subtract")
        return Section(self.func.sub(other.func), self.twist)

    def add(self, other: "Section") -> "Section":
        if self.twist != other.twist:
            raise ValueError("sections of different twists do not add")
        return Section(self.func.add(other.func), self.twist)

    def scale(self, c: PadicScalar) -> "Section":
        return Section(self.func.scale(c), self.twist)

    def scale_int(self, k: int) -> "Section":
        return Section(self.func.scale_int(k), self.twist)

    def scale_down(self, k: int) -> "Section":
        return Section(self.func.scale_down(k), self.twist)

    def eq(self, other: "Section") -> bool:
        return self.twist == other.twist and self.func.eq(other.func)

    def is_zero_at_precision(self) -> bool:
        return self.func.is_zero_at_precision()

    def gauss_valuation(self) -> int:
        return self.func.gauss_valuation()


def monomial_section(ctx, h, dmax, exp, s: int) -> Section:
    return Section(domain_monomial(ctx, h, dmax, exp), s)


def _den_power(den: DomainFunc, m: int) -> DomainFunc:
    """den^m = sum_{k <= Dmax} C(m, k) c0^(m-k) t^k for any integer m, t = den - c0.

    t^k = 0 beyond Dmax, and C(m, k) is formal._binom_int (0 for k > m >= 0).
    The sum is one series.substitute in t; its coefficients start from 1 at
    den's least precision, so den^m, den^0 included, has that precision.
    """
    const = (0,) * den.nvars
    c0 = den.coeff(const)
    if c0.valuation() != 0:
        raise NonUnitError("denominator constant term is not a unit")
    base = c0 if m >= 0 else scalar_inv(c0)
    top = min(m, den.dmax) if m >= 0 else den.dmax
    pows = [den.ctx.from_int(1, min(c.prec for c in den.terms.values()))]
    for _ in range(m if m >= 0 else top - m):
        pows.append(scalar_mul(pows[-1], base))
    binom = TruncSeries(den.ring, 1, den.dmax, {
        (k,): scalar_mul_int(pows[abs(m - k)], _binom_int(m, k)) for k in range(top + 1)})
    t = den._build({e: c for e, c in den.terms.items() if e != const}, filtered=True)
    return substitute(binom, [t])


def _act(f: DomainFunc, mat: list[list[PadicScalar]], s: int) -> DomainFunc:
    """f(num/den) den^s as F(den, num) den^(s-D), see the module docstring: column
    c of `mat` is the form sum_r mat[r][c] w_r (w_0 := 1), den for c = 0, else num_c."""
    if not f.terms:
        return f
    ctx, h, dmax = f.ctx, f.h, f.dmax
    deg = max(map(sum, f.terms))
    if not deg and not s:
        return f
    unit = [tuple(int(j == r) for j in range(1, h)) for r in range(h)]
    cols = [DomainFunc(ctx, h, dmax, {unit[r]: mat[r][c] for r in range(h)}) for c in range(h)]
    hom = TruncSeries(f.ring, h, dmax, {(deg - sum(e),) + e: c for e, c in f.terms.items()})
    return substitute(hom, cols).mul(_den_power(cols[0], s - deg))


def _gamma_matrix(gamma: DivElem) -> list[list[PadicScalar]]:
    """The substitution matrix of gamma by the formula of the module docstring:
    row r holds the coefficients of w_r, and row 0 the term j = h (w_h := 1)."""
    lam, h, p = gamma.coeffs, gamma.h, gamma.ctx.p

    def entry(r: int, c: int) -> PadicScalar:
        j = r or h
        x = frobenius(lam[(c - j) % h], j)
        return scalar_mul_int(x, p) if 0 < c < j else x

    return [[entry(r, c) for c in range(h)] for r in range(h)]


def gamma_act(gamma: DivElem, x: Section | DomainFunc):
    """The twisted substitution action of a unit gamma.

    On a plain function this is f -> f(gamma(w)); on a section of twist s
    the result picks up the factor den^s (the transform of phi_0^s).
    """
    if isinstance(x, DomainFunc):
        return gamma_act(gamma, Section(x, 0)).func
    f = x.func
    ctx, h = f.ctx, f.h
    if gamma.h != h or not gamma.ctx.same_ring(ctx):
        raise ValueError("gamma and section live over different contexts")
    if not gamma.is_unit():
        raise NonUnitError("gamma is not a unit of the maximal order")
    return Section(_act(f, _gamma_matrix(gamma), x.twist), x.twist)


def sample_parabolic(ctx: UnramContext, h: int, rng) -> list[list[PadicScalar]]:
    """Random member of P: unit diagonal, top-row and subdiagonal entries in
    p o_h (the membership conditions then force a unit determinant)."""
    p = ctx.p
    mat = []
    for i in range(h):
        row = []
        for j in range(h):
            if i == j:
                row.append(ctx.random_unit(rng))
            elif (i == 0 and j >= 1) or (1 <= j < i):
                row.append(scalar_mul_int(ctx.random_element(rng), p))
            else:
                row.append(ctx.random_element(rng))
        mat.append(row)
    return mat


def in_parabolic(a: list[list[PadicScalar]], p: int) -> bool:
    """Membership in P: GL_h(o_h) with subdiagonal and a_{0k} entries in p o_h."""
    h = len(a)
    for i in range(h):
        for j in range(h):
            v = a[i][j].valuation()
            below_diag = 1 <= j < i
            top_row = i == 0 and j >= 1
            if (below_diag or top_row) and (v is not None and v < 1):
                return False
    det = determinant(a, a[0][0].ctx)
    return det.valuation() == 0


def p_act(a: list[list[PadicScalar]], f: DomainFunc) -> DomainFunc:
    """a(w_i) = (a_{0i} + sum_j a_{ji} w_j) / (a_{00} + sum_j a_{j0} w_j): `a` is
    the substitution matrix of _act."""
    if not in_parabolic(a, f.ctx.p):
        raise NotInPError("matrix fails the P-membership conditions")
    return _act(f, a, 0)


def _lie_move(i: int, j: int, a: tuple, s: int, dmax: int) -> tuple[int, tuple] | None:
    """(k, b) with x_ij(w^a phi_0^s) = k w^b phi_0^s, or None when k = 0 or,
    for i != 0 = j, when b would pass total degree dmax."""
    if j:
        k = a[j - 1]
    else:
        d = sum(a)
        k = s - d
        if i and d >= dmax:
            return None
    if not k:
        return None
    if i == j:
        return k, a
    b = list(a)
    if j:
        b[j - 1] -= 1
    if i:
        b[i - 1] += 1
    return k, tuple(b)


def lie_act(i: int, j: int, x: Section) -> Section:
    """The operator of the (i,j) matrix unit on sections (w_0 := 1):

        j != 0   : w_i * df/dw_j
        i = j = 0: s f - sum_l w_l df/dw_l
        i > j = 0: w_i * (s f - sum_l w_l df/dw_l)

    computed as one monomial map (see the module docstring).
    """
    f, s = x.func, x.twist
    ctx, dmax = f.ctx, f.dmax
    zero = (0,) * ctx.e
    powers: dict[int, int] = {}  # p^prec, once per precision met
    out = {}
    for a, c in f.terms.items():
        move = _lie_move(i, j, a, s, dmax)
        if move is None:
            continue
        k, b = move
        prec = c.prec
        pn = powers.get(prec)
        if pn is None:
            pn = powers[prec] = ctx.p ** prec
        coords = tuple([v * k % pn for v in c.coords])
        if coords != zero:
            out[b] = PadicScalar(ctx, coords, c.prec)
    return Section(f._build(out, filtered=True), s)


def lie_table(s: int, ops, exps, dmax: int, pn: int) -> dict:
    """{(op, a): {b: k mod pn}}, x_op(w^a phi_0^s) = k w^b phi_0^s truncated at
    degree dmax, for each operator op = (i, j) and each exponent a in `exps`;
    pn is the modulus p^N of the coefficients.  The image is {} where
    k = 0 mod pn or b passes dmax."""
    table = {}
    for a in exps:
        for op in ops:
            move = _lie_move(*op, a, s, dmax)
            k = move[0] % pn if move else 0
            table[op, a] = {move[1]: k} if k else {}
    return table


def lie_derived_operator(delta: DivElem, x: Section) -> Section:
    """sum_{i,j} j(delta)_{ij} lie_act(i,j), the derived action of delta."""
    mat = j_embed(delta)
    h = delta.h
    acc = Section(DomainFunc(x.func.ctx, h, x.func.dmax), x.twist)
    for i in range(h):
        for j in range(h):
            c = mat[i][j]
            if c.is_zero_at_precision():
                continue
            acc = acc.add(lie_act(i, j, x).scale(c))
    return acc


def one_plus_scaled(delta: DivElem, k: int) -> DivElem:
    """1 + p^k delta, an element of Gamma_k."""
    ctx = delta.ctx
    one = div_one(ctx)
    return DivElem(ctx, tuple(
        scalar_add(o, scalar_mul_int(d, ctx.p ** k))
        for o, d in zip(one.coeffs, delta.coeffs)))


def lie_finite_difference(delta: DivElem, x: Section, k: int) -> tuple[Section, Section]:
    """Difference quotient p^(-k) (gamma(x) - x) for gamma = 1 + p^k delta,
    paired with the derived-operator value it converges to.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    quotient = gamma_act(one_plus_scaled(delta, k), x).sub(x).scale_down(k)
    derived = lie_derived_operator(delta, x)
    return quotient, derived


def fn_sequence(f0: DomainFunc, d: int, s: int, nmax: int
                ) -> tuple[list[DomainFunc], list[DomainFunc]]:
    """The lowering sequence f_n and its closed form, both to n = nmax.

    Recursively f_n = (1/n) ((d+n-s) f_{n-1} + x_00-part); in closed form
    the degree-(d+i) slice of f_0 is scaled by (-1)^n C(i-1, n).  The two
    lists agree exactly (at the recursion's propagated precision).
    """
    if any(sum(e) < d for e in f0.terms):
        raise ValueError("f0 has terms of total degree below d")
    if all(sum(e) != d for e in f0.terms):
        raise ValueError("degree-d part of f0 is zero")
    ctx = f0.ctx
    rec = [f0]
    for n in range(1, nmax + 1):
        prev = rec[-1]
        x00 = lie_act(0, 0, Section(prev, s)).func
        combined = prev.scale_int(d + n - s).add(x00)
        divided = {}
        if combined.terms:  # n may be 0 at precision; only a division can fail on it
            divide = pivot_divider(ctx.from_int(n))
            divided = {e: divide(c) for e, c in combined.terms.items()}
        rec.append(DomainFunc(ctx, f0.h, f0.dmax, divided))
    closed = []
    for n in range(nmax + 1):
        terms = {}
        for e, c in f0.terms.items():
            i = sum(e) - d
            if i == 0:
                terms[e] = c
            else:
                coef = (-1) ** n * math.comb(i - 1, n) if n <= i - 1 else 0
                if coef:
                    terms[e] = scalar_mul_int(c, coef)
        closed.append(DomainFunc(ctx, f0.h, f0.dmax, terms))
    return rec, closed


@dataclass
class ReachResult:
    monomials: set[tuple[int, ...]]
    dimension: int
    twist: int


def reach_span(x: Section, dmax: int) -> ReachResult:
    """Monomial span of the operator closure of x up to total degree dmax.

    The diagonal operators separate monomials (eigenvalue tuples
    (s - |a|, a_1, ..., a_{h-1}) are distinct), so the closure of a single
    vector is spanned by monomials.  Its edges are the _lie_move moves of the
    operators i != j, whose multipliers a_j and s - |a| are integers: an edge
    exists exactly when the multiplier is a nonzero integer.
    """
    if x.is_zero_at_precision():
        raise ValueError("reach_span of a zero section")
    h, s = x.func.h, x.twist
    ops = [(i, j) for i in range(h) for j in range(h) if i != j]
    seen = {e for e in x.func.terms if sum(e) <= dmax}
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for i, j in ops:
            move = _lie_move(i, j, a, s, dmax)
            if move is not None and move[1] not in seen:
                seen.add(move[1])
                frontier.append(move[1])
    return ReachResult(seen, len(seen), s)


@dataclass
class KernelComputation:
    basis: list[DomainFunc]
    reliable: bool
    max_pivot_valuation: int


def operator_kernel(ctx: UnramContext, h: int, ops: list[tuple[int, int]],
                    s: int, dmax: int, within_vs: bool = False) -> KernelComputation:
    """Joint kernel of the listed (i, j) operators on degree <= dmax functions, read
    off lie_table's columns (see the module docstring): the free monomials, graded-lex,
    at coefficient 1, unreliable past pivot valuation N/2.  Targets past dmax still
    constrain (the operators on actual functions)."""
    exps = monomials(h, dmax)
    if within_vs:
        exps = [e for e in exps if sum(e) <= s]
    pivot_v: dict[tuple[int, ...], int] = {}  # column -> least v_p of its entries
    for (_, a), img in lie_table(s, ops, exps, dmax + 1, ctx.p ** ctx.N).items():
        for k in img.values():  # 0 < k < p^N
            pivot_v[a] = min(_vp(k, ctx.p), pivot_v.get(a, ctx.N))
    basis = [DomainFunc(ctx, h, dmax, {a: ctx.one()}) for a in exps if a not in pivot_v]
    top = max(pivot_v.values(), default=0)
    return KernelComputation(basis, top <= ctx.N // 2, top)


@dataclass
class LfVerdict:
    kind: str               # "finite" or "growing"
    dimension: int | None
    ladder: tuple[int, ...]
    dimensions: tuple[int, ...]


def lf_diagnostic(x: Section, ladder: tuple[int, ...] = (6, 8, 10)) -> LfVerdict:
    """Truncation proxy for local finiteness: does dim reach_span stabilize."""
    dims = tuple(reach_span(x, dm).dimension for dm in ladder)
    if len(dims) >= 2 and dims[-1] == dims[-2]:
        return LfVerdict("finite", dims[-1], ladder, dims)
    return LfVerdict("growing", None, ladder, dims)


def contraction_profile(gamma: DivElem, x: Section | DomainFunc) -> int | None:
    """vD(gamma(x) - x) - vD(x), or None when the difference vanishes."""
    sec = x if isinstance(x, Section) else Section(x, 0)
    moved = gamma_act(gamma, sec)
    diff = moved.sub(sec)
    if diff.is_zero_at_precision():
        return None
    return diff.gauss_valuation() - sec.gauss_valuation()
