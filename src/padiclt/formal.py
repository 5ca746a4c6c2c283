"""One-dimensional formal Z_p-modules: Lubin-Tate laws, logarithms, heights,
endomorphism checks, and Drinfeld level structures at desk scale.

Constructions run at an internal working precision N + Dmax (each degree of
the Lubin-Tate induction divides by p*(p^(n-1)-1) exactly once), so the
returned coefficients are exact mod p^N for exact polynomial inputs.

The law F and each [a] come from one induction G_n = E_n / (p^n - p), E_n
the degree-n part of f(G_<n) - G_<n(f(X), f(Y)), or of f(G_<n) - G_<n(f(X)).
It is relaxed (van der Hoeven, "Relax, but don't be too lazy", J. Symb.
Comput. 34, 2002): degree n is summed from parts that are already final, not
from a new composition.  G has no constant term, so for k >= 2 every product
in [G^k]_n = sum_i [G^a]_i [G^b]_(n-i), a + b = k, has two factors of degree
< n; G_n enters f(G) at degree n only as p G_n, and G(f) only as p^n G_n.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .padics import _vp
from .series import (
    IntModRing,
    PrecisionLossError,
    QuotRing,
    TruncSeries,
    _lazy_combine,
    compose_univariate,
    geometric_inverse,
    reduce_mod_p,
    series_from_int_coeffs,
    substitute,
    substitute_two,
)


class NotFrobeniusPolyError(ValueError):
    """Input fails f = pX mod deg 2 or f = X^(p^j) mod p."""


class InconclusiveError(ValueError):
    """Truncation bound too small to decide the height."""


class WrongCardinalityError(ValueError):
    """Level structure handed the wrong number of points."""


def _binom_int(a: int, n: int) -> int:
    """C(a, n) for any integer a (integral for all n >= 0)."""
    if n == 0:
        return 1
    if a >= 0:
        return math.comb(a, n)
    return (-1) ** n * math.comb(n - a - 1, n)


class FormalModule:
    """A commutative formal group law F with Z_p-multiplications [a].

    `F` is public at precision N; `_F_work` keeps the working-precision copy
    used to generate multiplication series without precision loss.  The
    cache of [a]-series is filled on demand (single-threaded builds; callers
    sharing a module across threads should pre-warm the cache).
    """

    def __init__(self, p: int, ring: IntModRing, F: TruncSeries, dmax: int,
                 mult_builder, frobenius_poly: dict[int, int] | None = None,
                 work_data=None):
        self.p = p
        self.ring = ring
        self.F = F
        self.dmax = dmax
        self._mult_builder = mult_builder
        self.frobenius_poly = frobenius_poly
        self._work = work_data  # (work_ring, F_work) or None
        self._mult_cache: dict[int, TruncSeries] = {}

    def mult(self, a: int) -> TruncSeries:
        """[a]_F(X) truncated to Dmax, at the module's public precision."""
        if a not in self._mult_cache:
            self._mult_cache[a] = self._mult_builder(a)
        return self._mult_cache[a]

    def work_series(self) -> tuple[IntModRing, TruncSeries]:
        if self._work is not None:
            return self._work
        return self.ring, self.F

    def reduce(self, target_ring=None) -> "FormalModule":
        """The reduction mod p (optionally into F_{p^e} via an UnramRing)."""
        new_ring = target_ring or IntModRing(self.p, 1)
        Fbar = reduce_mod_p(self.F, new_ring)

        def builder(a: int) -> TruncSeries:
            return reduce_mod_p(self.mult(a), new_ring)

        return FormalModule(self.p, new_ring, Fbar, self.dmax, builder)


def _xy_linear(ring, dmax: int) -> TruncSeries:
    return TruncSeries(ring, 2, dmax, {(1, 0): ring.one(), (0, 1): ring.one()})


def _lt_induction(f: TruncSeries, lin: TruncSeries, ring: IntModRing,
                  dmax: int) -> TruncSeries:
    """The G = lin mod deg 2 with f(G) = G(f(X_1), ..., f(X_k)), to degree Dmax.

    [G^k]_n is one _lazy_combine over ([G^a]_i, [G^b]_(n-i)) along the
    addition chain k -> (floor(k/2), ceil(k/2)) of the exponents of f; rhs
    sums G_m(f, ..., f) by degree, each G_m substituted once, at degree m + 1.
    """
    nvars, pad = lin.nvars, (0,) * (lin.nvars - 1)
    gens = [TruncSeries(ring, nvars, dmax, {pad[:v] + e + pad[v:]: c for e, c in f.terms.items()})
            for v in range(nvars)]
    fj = {e[0]: c for e, c in f.terms.items() if e[0] >= 2}
    chain, new = set(), set(fj)
    while new:
        chain |= new
        new = {h for k in new for h in (k // 2, k - k // 2) if h > 1} - chain
    chain = sorted(chain)
    parts = {k: {} for k in (1, *chain)}  # k -> degree -> terms of [G^k]_degree
    parts[1][1] = lin.terms
    rhs = defaultdict(lambda: defaultdict(int))  # degree -> terms of sum_m G_m(f)
    for n in range(2, dmax + 1):
        for e, c in substitute(lin._build(parts[1].get(n - 1, {}), filtered=True),
                               gens).terms.items():
            rhs[sum(e)][e] += c
        for k in chain:
            if k > n:
                break
            left, right = parts[k // 2], parts[k - k // 2]
            power = _lazy_combine(ring, nvars, n, [(t, right[n - i]) for i, t in left.items()
                                                   if n - i in right])
            if power:
                parts[k][n] = power
        err = defaultdict(int, {e: -c for e, c in rhs.pop(n, {}).items()})
        for j, c in fj.items():
            for e, x in parts[j].get(n, {}).items():
                err[e] += c * x
        denom = ring.p ** n - ring.p
        corr = {e: q for e, c in err.items() if (q := ring.divexact_int(c, denom))}
        if corr:
            parts[1][n] = corr
    return lin._build({e: c for terms in parts[1].values() for e, c in terms.items()},
                      filtered=True)


def _check_frobenius_poly(p: int, f_coeffs: dict[int, int]) -> int:
    """Validate f = pX mod deg 2 and f = X^(p^j) mod p; return q = p^j."""
    if f_coeffs.get(0, 0) != 0 or f_coeffs.get(1, 0) != p:
        raise NotFrobeniusPolyError("need f(X) = pX mod deg 2")
    residue = {e: c % p for e, c in f_coeffs.items() if c % p}
    if len(residue) != 1:
        raise NotFrobeniusPolyError("need f(X) = X^(p^j) mod p")
    (exp, c), = residue.items()
    j = _vp(exp, p)
    if exp != p ** j or j < 1 or c % p != 1:
        raise NotFrobeniusPolyError("need f(X) = X^(p^j) mod p with unit coefficient 1")
    return exp


def lt_construct(p: int, f_coeffs: dict[int, int], dmax: int, N: int = 8) -> FormalModule:
    """The unique formal group law with F = X+Y mod deg 2 commuting with f.

    Built degree by degree (the induction solving E_n/(p^n - p)); the input
    polynomial is taken with exact integer coefficients.  [p]_F equals f.
    """
    _check_frobenius_poly(p, f_coeffs)
    work = IntModRing(p, N + dmax)
    f_work = series_from_int_coeffs(work, f_coeffs, dmax)

    F = _lt_induction(f_work, _xy_linear(work, dmax), work, dmax)

    public = IntModRing(p, N)
    F_pub = F.map_coefficients(public.from_int, public)

    def builder(a: int) -> TruncSeries:
        if a == p:
            return f_work.map_coefficients(public.from_int, public)
        lin = TruncSeries(work, 1, dmax, {(1,): work.from_int(a)})
        return _lt_induction(f_work, lin, work, dmax).map_coefficients(public.from_int, public)

    return FormalModule(p, public, F_pub, dmax, builder,
                        frobenius_poly=dict(f_coeffs), work_data=(work, F))


def gm_module(p: int, dmax: int, N: int = 8) -> FormalModule:
    """The multiplicative module: F = X+Y+XY, [a] = sum C(a,n) X^n."""
    ring = IntModRing(p, N)
    work = IntModRing(p, N + dmax)
    F_terms = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    F = TruncSeries(ring, 2, dmax, F_terms)
    F_work = TruncSeries(work, 2, dmax, F_terms)

    def builder(a: int) -> TruncSeries:
        return TruncSeries(ring, 1, dmax,
                           {(n,): ring.from_int(_binom_int(a, n))
                            for n in range(1, dmax + 1)})

    return FormalModule(p, ring, F, dmax, builder, work_data=(work, F_work))


def ga_module(p: int, dmax: int, N: int = 8) -> FormalModule:
    """The additive module: F = X+Y, [a] = aX."""
    ring = IntModRing(p, N)
    work = IntModRing(p, N + dmax)

    def builder(a: int) -> TruncSeries:
        return TruncSeries(ring, 1, dmax, {(1,): ring.from_int(a)})

    return FormalModule(p, ring, _xy_linear(ring, dmax), dmax, builder,
                        frobenius_poly={1: p},
                        work_data=(work, _xy_linear(work, dmax)))


class Logarithm:
    """p^(-denom_exp) * numerator, the isomorphism to G_a over Q_p."""

    __slots__ = ("numerator", "denom_exp")

    def __init__(self, numerator: TruncSeries, denom_exp: int):
        self.numerator = numerator
        self.denom_exp = denom_exp


def logarithm(module: FormalModule) -> Logarithm:
    """The unique phi = X mod deg 2 with d phi = F_X(0,X)^(-1) dX.

    Returned as a scaled numerator (denominator exponent max v_p(n), n up
    to Dmax) because the coefficients genuinely live in Q_p.  Raises
    PrecisionLossError if the module lacks the working margin to pay for
    the integration denominators.
    """
    ring, F = module.work_series()
    p, dmax = module.p, module.dmax
    d = 0
    n = 1
    while p ** (d + 1) <= dmax:
        d += 1
    margin = ring.N - module.ring.N
    if margin < d:
        raise PrecisionLossError(
            f"needs {d} spare digits for denominators; first exhausted at degree {p ** (margin + 1)}"
        )

    # psi = F_X(0, X); F = X + Y + ... so psi has constant term 1
    psi = TruncSeries(ring, 1, dmax,
                      {(e[1],): ring.mul_int(c, e[0])
                       for e, c in F.terms.items() if e[0] == 1})
    inv = geometric_inverse(psi)

    # numerator of p^d * integral: coefficient of X^(n+1) is (p^d/(n+1)) c_n
    num_terms = {}
    for (n,), c in inv.terms.items():
        k = n + 1
        if k > dmax:
            continue
        v = _vp(k, p)
        u = k // p ** v
        scaled = ring.mul_int(ring.mul(c, ring.inv_unit(ring.from_int(u))), p ** (d - v))
        num_terms[(k,)] = scaled
    num_work = TruncSeries(ring, 1, dmax, num_terms)
    public = module.ring
    return Logarithm(num_work.map_coefficients(public.from_int, public), d)


def height(module: FormalModule) -> int | float:
    """Height of a module over F_{p^e}: [p] = g(X^(q^h)) with g'(0) != 0.

    Returns math.inf when [p] vanishes up to Dmax (conclusive only relative
    to the truncation bound); raises InconclusiveError when Dmax < q or the
    lowest surviving exponent is not a q-power.
    """
    q = module.p
    if module.dmax < q:
        raise InconclusiveError(f"Dmax = {module.dmax} < q = {q} cannot see height 1")
    mp = module.mult(module.p)
    if mp.is_zero():
        return math.inf
    e0 = min(e[0] for e in mp.terms)
    h = _vp(e0, q)
    if e0 != q ** h or h < 1:
        raise InconclusiveError(f"lowest exponent {e0} of [p] is not a positive q-power")
    return h


def check_endomorphism(phi: TruncSeries, module: FormalModule,
                       sample_mults=(2, 3)) -> bool:
    """phi(F(X,Y)) = F(phi X, phi Y) and phi [a] = [a] phi for sampled a."""
    ring = module.ring
    if not ring.is_zero(phi.constant_term()):
        raise ValueError("endomorphisms must fix 0")
    F = module.F
    lhs = compose_univariate(phi, F)
    phiX = TruncSeries(ring, 2, F.dmax, {(e[0], 0): c for e, c in phi.terms.items()})
    phiY = TruncSeries(ring, 2, F.dmax, {(0, e[0]): c for e, c in phi.terms.items()})
    rhs = substitute_two(F, phiX, phiY)
    if not lhs.eq(rhs):
        return False
    for a in sample_mults:
        ma = module.mult(a)
        if not compose_univariate(phi, ma).eq(compose_univariate(ma, phi)):
            return False
    return True


def frobenius_power_series(module: FormalModule, power: int = 1) -> TruncSeries:
    """X^(q^power) over the module's ring (q = p)."""
    exp = module.p ** power
    ring = module.ring
    if exp > module.dmax:
        raise InconclusiveError(f"X^{exp} exceeds Dmax = {module.dmax}")
    return TruncSeries(ring, 1, module.dmax, {(exp,): ring.one()})


def torsion_polynomial(module: FormalModule, m: int) -> dict[int, int]:
    """[p^m](X), the m-fold composite of f, with coefficients mod p^N of the
    module's ring; zero coefficients are dropped.

    f has degree d, so the composite has degree d^m, and compose_univariate
    truncated there is exact.
    """
    if module.frobenius_poly is None:
        raise ValueError("module has no exact [p] polynomial")
    dmax = max(module.frobenius_poly) ** m
    f = series_from_int_coeffs(module.ring, module.frobenius_poly, dmax)
    cur = series_from_int_coeffs(module.ring, {1: 1}, dmax)
    for _ in range(m):
        cur = compose_univariate(f, cur)
    return {e: c for (e,), c in cur.terms.items()}


def eval_series_in_quot(series: TruncSeries, x, ring: QuotRing):
    """Horner evaluation of a one-variable series at a quotient-ring element."""
    coeffs = [series.coeff((d,)) for d in range(max((e[0] for e in series.terms), default=0) + 1)]
    return _horner_in_quot([c if isinstance(c, tuple) else ring.from_int(c) for c in coeffs],
                           x, ring)


def _rows_in_quot(series: TruncSeries, y, ring: QuotRing) -> list:
    """row_i = sum_j c_ij y^j of a two-variable series, i = 0..its top exponent of x."""
    yp = [ring.one()]
    for _ in range(max((e[1] for e in series.terms), default=0)):
        yp.append(ring.mul(yp[-1], y))
    rows = [ring.zero()] * (max((e[0] for e in series.terms), default=0) + 1)
    for (i, j), c in series.terms.items():
        rows[i] = ring.add(rows[i], ring.mul_int(yp[j], c) if isinstance(c, int)
                           else ring.mul(yp[j], c))
    return rows


def _horner_in_quot(rows: list, x, ring: QuotRing):
    """sum_i rows[i] x^i, as acc = acc x + row_i from the top index down."""
    acc = ring.zero()
    for row in reversed(rows):
        acc = ring.add(ring.mul(acc, x), row)
    return acc


def make_level_points(module: FormalModule, ring: QuotRing, m: int) -> list:
    """phi(a/p^m) := [a]_F(xbar) of the tautological root, a = 0..p^m-1."""
    xbar = ring.gen()
    pts = []
    for a in range(module.p ** m):
        if a == 0:
            pts.append(ring.zero())
        else:
            pts.append(eval_series_in_quot(module.mult(a), xbar, ring))
    return pts


def _polyring_divmod(dividend: list, divisor: list, ring: QuotRing):
    """Long division in R[T] for a monic divisor; returns (quotient, remainder)."""
    rem = list(dividend)
    dd, dv = len(rem) - 1, len(divisor) - 1
    quot = [ring.zero()] * max(dd - dv + 1, 0)
    for k in range(dd - dv, -1, -1):
        c = rem[k + dv]
        if ring.is_zero(c):
            continue
        quot[k] = c
        for j in range(dv + 1):
            rem[k + j] = ring.sub(rem[k + j], ring.mul(c, divisor[j]))
    while len(rem) > 1 and ring.is_zero(rem[-1]):
        rem.pop()
    return quot, rem


def level_structure_check(module: FormalModule, points: list, m: int,
                          ring: QuotRing) -> bool:
    """Drinfeld condition at desk scale (h = 1): the product of (T - phi(a))
    over a in p^(-m)Z/Z divides [p^m](T) in R[T], and phi is additive for
    the group law.
    """
    pm = module.p ** m
    if len(points) != pm:
        raise WrongCardinalityError(f"expected {pm} points, got {len(points)}")
    if m == 0:
        return ring.is_zero(points[0])

    # additivity: phi(a + b) = F(phi(a), phi(b)), with the rows of F at phi(b)
    # built once for every a
    for b in range(pm):
        rows = _rows_in_quot(module.F, points[b], ring)
        for a in range(pm):
            if not ring.eq(points[(a + b) % pm], _horner_in_quot(rows, points[a], ring)):
                return False

    # divisibility: prod (T - phi(a)) | [p^m](T)
    prod = [ring.one()]
    for a in range(pm):
        neg = ring.neg(points[a])
        prod = [ring.zero()] + prod
        for k in range(len(prod) - 1):
            prod[k] = ring.add(prod[k], ring.mul(prod[k + 1], neg))
    torsion = torsion_polynomial(module, m)
    deg = max(torsion)
    dividend = [ring.from_int(torsion.get(k, 0)) for k in range(deg + 1)]
    _, rem = _polyring_divmod(dividend, prod, ring)
    return len(rem) == 1 and ring.is_zero(rem[0])
