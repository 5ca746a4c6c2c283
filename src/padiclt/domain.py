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
builds a DomainFunc again.  Products go through series._lazy_combine, which
gives a product one absolute precision, the least of its inputs (see the
series module docstring).  _substitution_data divides the numerators by
den = c0 (1 + eps) as (c0^-1 num) * 1/(1 + eps), so the unit c0^-1 scales h
terms, not a dense series; den_inv itself is built only for a negative
twist.  _apply_substitution evaluates f(P) by a Horner scheme in the
generators, entirely on packed integers at one precision and slot width.

Each Lie operator is one monomial map: the (i,j) matrix unit (w_0 := 1) sends
w^a to k w^(a - e_j + e_i), k = a_j for j != 0 and k = s - |a| for j = 0 (s
the twist).  lie_act scales each coefficient by k at its own precision and
drops what is 0 there or, for i != 0 = j, lands above Dmax.  That is exactly
the composition of d/dw_j, w_i * and s f - sum_l w_l df/dw_l: s c and |a| c
have the precision of c, so s c - |a| c is (s - |a|) c whichever was 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divalg import DivElem, div_one, j_embed
from .linalg import KernelResult, determinant, kernel_basis, pivot_divider
from .padics import (
    NonUnitError,
    PadicScalar,
    PrecisionLossError,
    UnramContext,
    ZeroAtPrecisionError,
    _reduce_packed,
    _slot_width,
    frobenius,
    scalar_add,
    scalar_inv,
    scalar_mul,
    scalar_mul_int,
)
from .series import (
    TruncSeries,
    UnramRing,
    _pack_terms,
    _products,
    _right,
    _unpack_terms,
    geometric_inverse,
)


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
        pk = self.ctx.p ** k
        out = {}
        for e, c in self.terms.items():
            if any(x % pk for x in c.coords):
                raise PrecisionLossError(f"coefficient at {e} not divisible by p^{k}")
            if c.prec <= k:
                raise PrecisionLossError(f"precision exhausted dividing by p^{k}")
            out[e] = PadicScalar(self.ctx, tuple(x // pk for x in c.coords), c.prec - k)
        return self._build(out)

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

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "Dmax": self.dmax,
            "terms": [[list(e), list(c.coords)] for e, c in sorted(self.terms.items())],
        }

    @staticmethod
    def from_json(ctx: UnramContext, d: dict) -> "DomainFunc":
        return DomainFunc(ctx, d["h"], d["Dmax"],
                          {tuple(e): ctx.from_coords(c) for e, c in d["terms"]})

    def evaluate(self, point: list[PadicScalar]) -> PadicScalar:
        """Value at a point of the domain (list of h-1 scalars)."""
        acc = self.ctx.zero()
        for e, c in self.terms.items():
            term = c
            for i, a in enumerate(e):
                for _ in range(a):
                    term = scalar_mul(term, point[i])
            acc = scalar_add(acc, term)
        return acc


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

    def to_json(self) -> dict:
        d = self.func.to_json()
        d["s"] = self.twist
        return d

    @staticmethod
    def from_json(ctx: UnramContext, d: dict) -> "Section":
        return Section(DomainFunc.from_json(ctx, d), d["s"])


def monomial_section(ctx, h, dmax, exp, s: int) -> Section:
    return Section(domain_monomial(ctx, h, dmax, exp), s)


def _substitution_data(nums: list[DomainFunc], den: DomainFunc,
                       inverse: bool = False) -> tuple[list[DomainFunc], DomainFunc | None]:
    """Substituted generators nums[i]/den, plus den_inv if `inverse` asks for it.

    den = c0 (1 + eps) with c0 a unit, and u = 1/(1 + eps) is the geometric
    series sum (-eps)^k, exact to the truncation since eps has positive
    degree.  nums[i]/den is (c0^-1 nums[i]) u: the unit c0^-1 scales the
    h terms of a numerator, not the dense u.  den_inv = c0^-1 u is built only
    on request (a negative twist), and is None otherwise.
    """
    c0 = den.coeff((0,) * den.nvars)
    if c0.valuation() != 0:
        raise NonUnitError("denominator constant term is not a unit")
    c0inv = scalar_inv(c0)
    u = geometric_inverse(den.scale(c0inv))
    gens = [num.scale(c0inv).mul(u) for num in nums]
    return gens, u.scale(c0inv) if inverse else None


def _apply_substitution(f: DomainFunc, gens: list[DomainFunc]) -> DomainFunc:
    """f(P): every w_i of f replaced by P_{i-1} = gens[i-1], cut at f's Dmax.

    A multivariate Horner scheme (Ceberio and Kreinovich, "Greedy algorithms
    for optimizing multivariate Horner schemes", SIGSAM Bull. 38(1), 2004).
    Grouping the terms of f by their exponent of w_1 gives
    f(P) = sum_a P_0^a g_a(P_1, ...), summed as acc = acc * P_0 + g_a from
    the top exponent down, with one product by P_0 per step, also where no
    term has that exponent.  Each g_a is summed the same way in P_1, and so
    on; at the last variable a group sum_b c_b P_last^b takes the powers of
    P_last, built once per call.  Each step is one series._products call
    over the pairs (acc, P_i) and those of the level below, and one
    padics._reduce_packed; a level's last step stays a list of pairs for the
    level above, so the outermost sum is one step as well.

    The result has one precision q: the least precision of any coefficient
    of f and of any nonempty generator that a term of f substitutes.  The
    whole substitution runs mod p^q, on packed coordinates (see the padics
    module docstring): the generators and the powers of P_last are packed
    once, every Horner sum stays a dict key -> packed int, and scalars and
    exponent tuples are built only for the result.  Reduction mod p^q is a
    ring map, so this is f(P) mod p^q exactly, as one flat sum over the
    terms of f would give it.  One slot width serves every step.  At one
    output key a step forms at most |P_i| products for a pair (acc, P_i), of
    which it has at most one per level, and one for each pair (c, P_last^b),
    of which it has at most Dmax + 1 (the terms of one last-level group); so
    the sizes of the substituted generators plus Dmax + 1 bound every step's
    count of products, the powers of P_last included.
    """
    ctx, nvars, dmax = f.ctx, f.nvars, f.dmax
    if not f.terms:
        return f._build({}, filtered=True)
    used = [i for i in range(nvars) if any(e[i] for e in f.terms)]
    q = min(c.prec for g in (f, *(gens[i] for i in used)) for c in g.terms.values())
    pn, modulus = ctx.p ** q, ctx.modulus
    width = _slot_width(sum(len(gens[i].terms) for i in used) + dmax + 1, ctx.e, pn)
    stride = dmax + 1
    top = stride ** nvars  # a key's degree digit
    const = (0,) * nvars

    def left(packed: dict[int, int]) -> list[tuple[int, int, int]]:
        return [(k // top, k, x) for k, x in packed.items()]

    def step_sum(pairs: list) -> dict[int, int]:
        return _reduce_packed(_products(pairs, dmax), width, modulus, ctx.e, pn)

    packed = {i: _pack_terms(gens[i].terms, dmax, stride, width, pn) for i in used}
    right = {i: _right(t) for i, t in packed.items()}
    pows = [_right([(0, 0, 1)])]
    for _ in range(max(e[-1] for e in f.terms) if nvars else 0):
        pows.append(right[nvars - 1] if len(pows) == 1 else
                    _right(left(step_sum([(packed[nvars - 1], pows[-1])]))))

    def pairs(terms: dict, i: int) -> list:
        # pairs whose products sum to c * prod_{j >= i} P_j^e_j over the terms
        # c w^e of `terms`; the powers of P_0..P_{i-1} are the caller's
        if i >= nvars - 1:
            return [(_pack_terms({const: c}, dmax, stride, width, pn), pows[e[-1] if e else 0])
                    for e, c in terms.items()]
        groups: dict[int, dict] = {}
        for e, c in terms.items():
            groups.setdefault(e[i], {})[e] = c
        step: list = []
        for a in range(max(groups), -1, -1):
            if step:
                step = [(left(step_sum(step)), right[i])]
            if a in groups:
                step += pairs(groups[a], i + 1)
        return step

    out = _unpack_terms(step_sum(pairs(f.terms, 0)), ctx, nvars, stride, width, q)
    return f._build(out, filtered=True)


def _gamma_weights(gamma: DivElem, h: int, ctx, dmax: int):
    """Numerators and denominator of the substitution for gamma."""
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
    den = DomainFunc(ctx, h, dmax, den_terms)
    return nums, den


def gamma_act(gamma: DivElem, x: Section | DomainFunc, dmax: int | None = None):
    """The twisted substitution action of a unit gamma.

    On a plain function this is f -> f(gamma(w)); on a section of twist s
    the result picks up the factor den^s (the transform of phi_0^s).
    """
    if isinstance(x, DomainFunc):
        return gamma_act(gamma, Section(x, 0), dmax).func
    f = x.func
    ctx, h = f.ctx, f.h
    if gamma.h != h or not gamma.ctx.same_ring(ctx):
        raise ValueError("gamma and section live over different contexts")
    if not gamma.is_unit():
        raise NonUnitError("gamma is not a unit of the maximal order")
    dm = f.dmax if dmax is None else dmax
    if dm != f.dmax:
        f = DomainFunc(ctx, h, dm, dict(f.terms))
    nums, den = _gamma_weights(gamma, h, ctx, dm)
    s = x.twist
    gens, den_inv = _substitution_data(nums, den, inverse=s < 0)
    out = _apply_substitution(f, gens)
    if s > 0:
        out = out.mul(den.pow(s))
    elif s < 0:
        out = out.mul(den_inv.pow(-s))
    return Section(out, s)


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


def p_act(a: list[list[PadicScalar]], f: DomainFunc, dmax: int | None = None) -> DomainFunc:
    """a(w_i) = (a_{0i} + sum_j a_{ji} w_j) / (a_{00} + sum_j a_{j0} w_j)."""
    ctx, h = f.ctx, f.h
    if not in_parabolic(a, ctx.p):
        raise NotInPError("matrix fails the P-membership conditions")
    dm = f.dmax if dmax is None else dmax
    if dm != f.dmax:
        f = DomainFunc(ctx, h, dm, dict(f.terms))
    nums = []
    for i in range(1, h):
        terms = {tuple([0] * (h - 1)): a[0][i]}
        for j in range(1, h):
            e = [0] * (h - 1)
            e[j - 1] = 1
            terms[tuple(e)] = a[j][i]
        nums.append(DomainFunc(ctx, h, dm, terms))
    den_terms = {tuple([0] * (h - 1)): a[0][0]}
    for j in range(1, h):
        e = [0] * (h - 1)
        e[j - 1] = 1
        den_terms[tuple(e)] = a[j][0]
    den = DomainFunc(ctx, h, dm, den_terms)
    gens, _ = _substitution_data(nums, den)
    return _apply_substitution(f, gens)


def lie_act(i: int, j: int, x: Section) -> Section:
    """The operator of the (i,j) matrix unit on sections (w_0 := 1):

        j != 0   : w_i * df/dw_j
        i = j = 0: s f - sum_l w_l df/dw_l
        i > j = 0: w_i * (s f - sum_l w_l df/dw_l)

    computed as one monomial map (see the module docstring).
    """
    f, s = x.func, x.twist
    ctx, dmax = f.ctx, f.dmax
    out = {}
    for a, c in f.terms.items():
        k = a[j - 1] if j else s - sum(a)
        if not k or (i and not j and sum(a) >= dmax):
            continue
        pn = ctx.p ** c.prec
        coords = tuple([v * k % pn for v in c.coords])
        if any(coords):
            b = list(a)
            if j:
                b[j - 1] -= 1
            if i:
                b[i - 1] += 1
            out[tuple(b)] = PadicScalar(ctx, coords, c.prec)
    return Section(f._build(out, filtered=True), s)


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
    vector is spanned by monomials; the off-diagonal moves carry integer
    multipliers a_j and (s - |a|), and an edge exists exactly when the
    multiplier is a nonzero integer.
    """
    if x.is_zero_at_precision():
        raise ValueError("reach_span of a zero section")
    h = x.func.h
    s = x.twist
    seed = {e for e in x.func.terms if sum(e) <= dmax}
    frontier = list(seed)
    seen = set(seed)
    while frontier:
        e = frontier.pop()
        deg = sum(e)
        nxt = []
        for j in range(1, h):
            if e[j - 1] > 0:
                low = list(e)
                low[j - 1] -= 1
                nxt.append(tuple(low))  # x_{0j}, multiplier a_j != 0
                for i in range(1, h):
                    if i != j:
                        ex = list(e)
                        ex[j - 1] -= 1
                        ex[i - 1] += 1
                        nxt.append(tuple(ex))  # x_{ij}, multiplier a_j != 0
        if s != deg and deg + 1 <= dmax:
            for i in range(1, h):
                up = list(e)
                up[i - 1] += 1
                nxt.append(tuple(up))  # x_{i0}, multiplier s - |a| != 0
        for t in nxt:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return ReachResult(seen, len(seen), s)


@dataclass
class KernelComputation:
    basis: list[DomainFunc]
    reliable: bool
    max_pivot_valuation: int


def operator_kernel(ctx: UnramContext, h: int, ops: list[tuple[int, int]],
                    s: int, dmax: int, within_vs: bool = False) -> KernelComputation:
    """Joint kernel of the listed (i, j) operators on degree <= dmax functions.

    Columns are monomials in graded-lex order; elimination pivots on minimal
    valuation (ties graded-lex), flagged unreliable past valuation N/2.
    """
    if within_vs:
        basis_exps = [e for e in monomials(h, dmax) if sum(e) <= s]
    else:
        basis_exps = monomials(h, dmax)
    col_of = {e: k for k, e in enumerate(basis_exps)}
    ncols = len(basis_exps)
    # equations indexed by (op, target monomial); target monomials that
    # overflow the space still constrain (the operator on actual functions)
    raw: dict[tuple, dict[int, PadicScalar]] = {}
    for (i, j) in ops:
        for e in basis_exps:
            img = lie_act(i, j, monomial_section(ctx, h, dmax + 1, e, s))
            for te, tc in img.func.terms.items():
                key = (i, j, te)
                row = raw.setdefault(key, {})
                col = col_of[e]
                row[col] = scalar_add(row[col], tc) if col in row else tc
    zero = ctx.zero()
    rows = [[raw[key].get(c, zero) for c in range(ncols)] for key in sorted(raw)]
    result: KernelResult = kernel_basis(rows, ncols, ctx, ctx.N)
    funcs = []
    for vec in result.basis:
        terms = {basis_exps[k]: v for k, v in enumerate(vec) if not v.is_zero_at_precision()}
        funcs.append(DomainFunc(ctx, h, dmax, terms))
    return KernelComputation(funcs, result.reliable, result.max_pivot_valuation)


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
