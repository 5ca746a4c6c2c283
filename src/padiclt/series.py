"""Sparse truncated power series over exchangeable coefficient rings.

A TruncSeries stores exponent tuples -> coefficients up to a total-degree
bound Dmax; multiplication silently drops degrees beyond Dmax (the series
is a class representative mod deg Dmax+1).  Coefficient rings are small
adapter objects; the ones used here are integers mod p^N (covers Z_p and
F_p), unramified extensions via PadicScalar (covers F_{p^e}), and monic
polynomial quotients for torsion-point rings.  domain.DomainFunc is a
TruncSeries over an unramified ring; every operation here builds a result
of its operand's own type, so a DomainFunc stays one.

This module owns the sparse product engine: _lazy_mul over Z/p^N and
_lazy_combine over unramified coefficients (the quotient rings only serve
pointwise evaluation, and a product of series over any other ring raises
TypeError).  Both are built from _pack_terms, which keys the terms and
packs their coefficients, and _products, the one product loop; domain's
substitution uses them too.  A monomial X^a of degree d in n variables is
keyed by the int d (Dmax+1)^n + sum a_i (Dmax+1)^i, the degree in the top
digit.  The terms of the right factor are sorted by total degree, so for
each left term the partners that stay within Dmax are a prefix found by
bisection; every exponent and degree of a kept pair is at most Dmax, so
adding two keys never carries from one digit into the next.  Over Z/p^N
each output key accumulates the plain integer sum of its products and is
reduced once, `% p^N`: reduction mod p^N is a ring map from Z, so reducing
the sum equals summing the reduced products.

_lazy_combine computes sum_k F_k * G_k over a list of pairs of term dicts
without building a scalar per coefficient product.  Coefficients are cut
mod p^q and packed, and each output key's sum of packed products is
reduced once mod (Phi, p^q) by padics._reduce_packed (the packed format and
its slot width are described in the padics module docstring).  At one
output key a pair (F, G) forms at most min(|F|, |G|) coefficient products,
since a term of F meets at most one term of G there; the sum C of these
counts over the pairs is the count that sets the slot width.

A product has one absolute precision q, the least precision of any
coefficient of the pairs that take part (Caruso, Roe and Vaccon, "Tracking
p-adic precision", LMS J. Comput. Math. 17A, 2014): every output coefficient
is the one accumulated integer sum reduced once mod (Phi, p^q).  On inputs
of one precision it is exactly the per-pair scalar loop; on mixed inputs
the result claims no more precision than its least precise input, and no
summation order can change it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from operator import attrgetter

from .padics import (
    ContextMismatchError,
    PadicScalar,
    PrecisionLossError,
    UnramContext,
    _coords_mul,
    _reduce_packed,
    _slot_width,
    scalar_add,
    scalar_inv,
    scalar_mul,
    scalar_mul_int,
    scalar_neg,
    scalar_sub,
)


class IntModRing:
    """Z/p^N, the workhorse ring for Z_p-coefficient series (N=1 gives F_p)."""

    def __init__(self, p: int, N: int):
        self.p = p
        self.N = N
        self.pN = p ** N

    def __repr__(self):
        return f"IntModRing({self.p}^{self.N})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return k % self.pN

    def add(self, a, b):
        return (a + b) % self.pN

    def sub(self, a, b):
        return (a - b) % self.pN

    def neg(self, a):
        return (-a) % self.pN

    def mul(self, a, b):
        return (a * b) % self.pN

    def mul_int(self, a, k):
        return (a * k) % self.pN

    def is_zero(self, a):
        return a % self.pN == 0

    def eq(self, a, b):
        return (a - b) % self.pN == 0

    def valuation(self, a):
        a %= self.pN
        if a == 0:
            return None
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def inv_unit(self, a):
        return pow(a, -1, self.pN)

    def divexact_int(self, a, n):
        """a / n when n = p^v * u divides a exactly mod p^N (value mod p^(N-v))."""
        v = 0
        u = n
        while u % self.p == 0:
            u //= self.p
            v += 1
        a %= self.pN
        if v:
            if a % self.p ** v:
                raise PrecisionLossError(f"coefficient not divisible by p^{v}")
            a //= self.p ** v
        modulus = self.p ** (self.N - v)
        return (a * pow(u, -1, modulus)) % modulus


class UnramRing:
    """PadicScalar coefficients over an UnramContext (N=1 gives F_{p^e})."""

    def __init__(self, ctx: UnramContext):
        self.ctx = ctx
        self.p = ctx.p
        self.N = ctx.N

    def __repr__(self):
        return f"UnramRing(p={self.p}, e={self.ctx.e}, N={self.N})"

    def zero(self):
        return self.ctx.zero()

    def one(self):
        return self.ctx.one()

    def from_int(self, k):
        return self.ctx.from_int(k)

    def add(self, a, b):
        return scalar_add(a, b)

    def sub(self, a, b):
        return scalar_sub(a, b)

    def neg(self, a):
        return scalar_neg(a)

    def mul(self, a, b):
        return scalar_mul(a, b)

    def mul_int(self, a, k):
        return scalar_mul_int(a, k)

    def is_zero(self, a):
        return not any(a.coords)

    def eq(self, a, b):
        return a == b

    def valuation(self, a):
        return a.valuation()

    def inv_unit(self, a):
        return scalar_inv(a)


class QuotRing:
    """R = (Z/p^N)[x] / (Phi) for a monic Phi; elements are int tuples."""

    def __init__(self, base: IntModRing, phi: list[int]):
        if base.from_int(phi[-1]) != 1:
            raise ValueError("quotient modulus must be monic")
        self.base = base
        self.phi = tuple(base.from_int(c) for c in phi)
        self.deg = len(phi) - 1

    def __repr__(self):
        return f"QuotRing(deg {self.deg} over {self.base!r})"

    def zero(self):
        return (0,) * self.deg

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        return (self.base.from_int(k),) + (0,) * (self.deg - 1)

    def gen(self):
        if self.deg == 1:
            # x is congruent to -phi[0]
            return (self.base.neg(self.phi[0]),)
        return (0, 1) + (0,) * (self.deg - 2)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        return _coords_mul(a, b, self.phi, self.deg, self.base.pN)

    def mul_int(self, a, k):
        return tuple(self.base.mul_int(x, k) for x in a)

    def is_zero(self, a):
        return all(x % self.base.pN == 0 for x in a)

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))


class TruncSeries:
    """Sparse truncated series; exponents are tuples of length nvars."""

    __slots__ = ("ring", "nvars", "dmax", "terms")

    def __init__(self, ring, nvars: int, dmax: int, terms: dict | None = None):
        self.ring = ring
        self.nvars = nvars
        self.dmax = dmax
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if sum(exp) <= dmax and not ring.is_zero(c):
                    self.terms[exp] = c

    def _build(self, terms: dict, filtered: bool = False) -> "TruncSeries":
        """A series of self's type, ring, arity and Dmax holding `terms`.

        Terms above Dmax and zero coefficients are dropped as in __init__,
        unless `filtered` says that no term needs it; the dict is then kept.
        """
        f = object.__new__(type(self))
        f.ring, f.nvars, f.dmax = self.ring, self.nvars, self.dmax
        if not filtered:
            dmax, is_zero = self.dmax, self.ring.is_zero
            terms = {e: c for e, c in terms.items() if sum(e) <= dmax and not is_zero(c)}
        f.terms = terms
        return f

    def __repr__(self):
        items = sorted(self.terms)[:6]
        return f"{type(self).__name__}({len(self.terms)} terms, dmax={self.dmax}, lead={items})"

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: tuple):
        return self.terms.get(exp, self.ring.zero())

    def constant_term(self):
        return self.coeff((0,) * self.nvars)

    def eq(self, other: "TruncSeries") -> bool:
        """Coefficientwise ring.eq; a monomial missing on one side is 0 there."""
        ring, a, b = self.ring, self.terms, other.terms
        if a.keys() == b.keys():
            for e, c in a.items():
                if not ring.eq(c, b[e]):
                    return False
            return True
        zero = ring.zero()
        return all(ring.eq(a.get(e, zero), b.get(e, zero)) for e in a.keys() | b.keys())

    def add(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, self.ring.add, None)

    def sub(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, self.ring.sub, self.ring.neg)

    def _combine(self, other: "TruncSeries", op, unmatched) -> "TruncSeries":
        # both operands hold only nonzero terms within their Dmax: drop just
        # the sums that cancel and the terms of other above self.dmax
        ring, dmax = self.ring, self.dmax
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in out:
                c = op(out[exp], c)
                if ring.is_zero(c):
                    del out[exp]
                else:
                    out[exp] = c
            elif other.dmax <= dmax or sum(exp) <= dmax:
                out[exp] = unmatched(c) if unmatched else c
        return self._build(out, filtered=True)

    def neg(self) -> "TruncSeries":
        neg = self.ring.neg
        return self._build({e: neg(c) for e, c in self.terms.items()}, filtered=True)

    def scale(self, c) -> "TruncSeries":
        mul = self.ring.mul
        return self._build({e: mul(v, c) for e, v in self.terms.items()})

    def scale_int(self, k: int) -> "TruncSeries":
        mul_int = self.ring.mul_int
        return self._build({e: mul_int(v, k) for e, v in self.terms.items()})

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        return self._build(_lazy_mul(self.ring, self.nvars, self.dmax, self.terms, other.terms),
                           filtered=True)

    def pow(self, k: int) -> "TruncSeries":
        result = self._build({(0,) * self.nvars: self.ring.one()})
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    def derivative(self, var: int = 0) -> "TruncSeries":
        ring = self.ring
        out = {}
        for exp, c in self.terms.items():
            n = exp[var]
            if n:
                ne = list(exp)
                ne[var] = n - 1
                out[tuple(ne)] = ring.mul_int(c, n)
        return self._build(out)

    def integrate(self, var: int = 0) -> "TruncSeries":
        """Antiderivative with zero constant term; divisions must be exact."""
        ring = self.ring
        out = {}
        for exp, c in self.terms.items():
            n = exp[var]
            ne = list(exp)
            ne[var] = n + 1
            if sum(ne) > self.dmax:
                continue
            try:
                out[tuple(ne)] = ring.divexact_int(c, n + 1)
            except PrecisionLossError as exc:
                raise PrecisionLossError(
                    f"integration hit inexact division by {n + 1} at degree {sum(exp)}"
                ) from exc
        return self._build(out)

    def map_coefficients(self, fn, new_ring) -> "TruncSeries":
        out = {}
        for exp, c in self.terms.items():
            nc = fn(c)
            if not new_ring.is_zero(nc):
                out[exp] = nc
        return TruncSeries(new_ring, self.nvars, self.dmax, out)

    def to_json(self) -> dict:
        return {
            "vars": self.nvars,
            "Dmax": self.dmax,
            "terms": [[list(exp), coeff_repr(c)] for exp, c in sorted(self.terms.items())],
        }


def geometric_inverse(u: TruncSeries) -> TruncSeries:
    """1/u for a series u with constant term 1: sum_k (1 - u)^k, k < Dmax + 1.

    1 - u has no constant term, so its Dmax+1-st power is 0 mod deg Dmax+1;
    the sum stops early at the first power that is 0.
    """
    one = u._build({(0,) * u.nvars: u.ring.one()})
    x = one.sub(u)
    inv = pw = one
    for _ in range(u.dmax):
        pw = pw.mul(x)
        if pw.is_zero():
            break
        inv = inv.add(pw)
    return inv


def _lazy_mul(ring, nvars: int, dmax: int, a: dict, b: dict) -> dict:
    """Terms of the product of the term dicts a and b, truncated at total degree dmax.

    Over Z/p^N equal, coefficient for coefficient, to multiplying every pair
    of terms with ring.mul and summing with ring.add; over an unramified ring
    it is _lazy_combine on the one pair.  See the module docstring.
    """
    if not a or not b:
        return {}
    if isinstance(ring, UnramRing):
        return _lazy_combine(ring.ctx, nvars, dmax, [(a, b)])
    if not isinstance(ring, IntModRing):
        raise TypeError(f"series products need Z/p^N or unramified coefficients, not {ring!r}")
    stride = dmax + 1
    sums = _products([(_pack_terms(a, dmax, stride), _right(_pack_terms(b, dmax, stride)))],
                     dmax)
    pN = ring.pN
    out = {}
    for k, v in sums.items():
        v %= pN
        if v:
            out[_exponent(k, nvars, stride)] = v
    return out


def _pack_terms(terms: dict, dmax: int, stride: int, width: int = 0,
                pn: int = 0) -> list[tuple[int, int, int]]:
    """(degree, key, x) for each term within dmax; see the module docstring.

    x is the coefficient itself when width is 0 (an int of Z/p^N), and else
    the coordinates of the PadicScalar cut mod pn and packed at that width.
    """
    out = []
    for exp, c in terms.items():
        d = sum(exp)
        if d <= dmax:
            key = d
            for a in reversed(exp):
                key = key * stride + a
            if width:
                # padics._pack with the cut mod pn fused in: this loop runs once
                # per term of every product, and a call per term costs more
                x = 0
                for v in reversed(c.coords):
                    x = (x << width) + v % pn
                c = x
            out.append((d, key, c))
    return out


def _right(packed: list[tuple[int, int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """A right factor for _products: its degrees and its (key, x), sorted by degree."""
    packed = sorted(packed)
    return [d for d, _, _ in packed], [(k, x) for _, k, x in packed]


def _products(pairs: list, dmax: int) -> dict[int, int]:
    """key -> the sum of x1 * x2 over the term pairs of `pairs` within dmax.

    A pair is (left, right): left a list of (degree, key, x), right the
    output of _right.  The partners of a left term that stay within dmax
    are a prefix of right, found by bisection.
    """
    acc: dict[int, int] = defaultdict(int)
    for left, (degs, right) in pairs:
        for d1, k1, x1 in left:
            for k2, x2 in right[:bisect_right(degs, dmax - d1)]:
                acc[k1 + k2] += x1 * x2
    return acc


def _exponent(key: int, nvars: int, stride: int) -> tuple[int, ...]:
    """The exponent tuple of a key; its degree digit is dropped."""
    exp = []
    for _ in range(nvars):
        key, a = divmod(key, stride)
        exp.append(a)
    return tuple(exp)


def _unpack_terms(packed: dict[int, int], ctx: UnramContext, nvars: int, stride: int,
                  width: int, q: int) -> dict[tuple[int, ...], PadicScalar]:
    """Exponent -> PadicScalar at precision q of each key -> packed coordinates."""
    # padics._unpack inline: one call per output term would cost more than the loop
    mask = (1 << width) - 1
    shifts = range(0, ctx.e * width, width)
    return {_exponent(k, nvars, stride):
            PadicScalar(ctx, tuple([(x >> s) & mask for s in shifts]), q)
            for k, x in packed.items()}


_prec = attrgetter("prec")


def _lazy_combine(ctx: UnramContext, nvars: int, dmax: int,
                  pairs: list[tuple[dict, dict]]) -> dict[tuple[int, ...], PadicScalar]:
    """Terms of sum F*G over `pairs` of term dicts, truncated at total degree dmax.

    Every coefficient has the one precision q of the module docstring: the
    least precision of any coefficient of a pair whose two sides are both
    nonempty.  On inputs of one precision this equals, coordinates and
    precision both, one scalar_mul/scalar_add per pair of coefficients.
    """
    pairs = [(F, G) for F, G in pairs if F and G]
    if not pairs:
        return {}
    precs: set[int] = set()
    count = 0
    for F, G in pairs:
        cf, cg = next(iter(F.values())), next(iter(G.values()))
        if not cf.ctx.same_ring(cg.ctx):
            raise ContextMismatchError(
                f"context mismatch: (p={cf.ctx.p}, e={cf.ctx.e}) vs (p={cg.ctx.p}, e={cg.ctx.e})")
        precs.update(map(_prec, F.values()))
        precs.update(map(_prec, G.values()))
        count += min(len(F), len(G))
    q = min(precs)
    e = ctx.e
    pn = ctx.p ** q
    width = _slot_width(count, e, pn)
    stride = dmax + 1
    acc = _products([(_pack_terms(F, dmax, stride, width, pn),
                      _right(_pack_terms(G, dmax, stride, width, pn))) for F, G in pairs], dmax)
    return _unpack_terms(_reduce_packed(acc, width, ctx.modulus, e, pn), ctx, nvars, stride,
                         width, q)


def coeff_repr(c):
    if isinstance(c, int):
        return c
    if isinstance(c, PadicScalar):
        return list(c.coords)
    return list(c)


def series_const(ring, nvars: int, dmax: int, value) -> TruncSeries:
    if ring.is_zero(value):
        return TruncSeries(ring, nvars, dmax)
    return TruncSeries(ring, nvars, dmax, {(0,) * nvars: value})


def series_var(ring, nvars: int, dmax: int, var: int) -> TruncSeries:
    exp = [0] * nvars
    exp[var] = 1
    return TruncSeries(ring, nvars, dmax, {tuple(exp): ring.one()})


def series_from_int_coeffs(ring, coeffs: dict[int, int], dmax: int) -> TruncSeries:
    """One-variable series from {exponent: integer coefficient}."""
    return TruncSeries(ring, 1, dmax,
                       {(e,): ring.from_int(c) for e, c in coeffs.items()})


def compose_univariate(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g) for one-variable f and any-arity g with g(0) = 0, by Horner."""
    if not g.ring.is_zero(g.constant_term()):
        raise ValueError("substituted series must have zero constant term")
    ring = g.ring
    deg = max((e[0] for e in f.terms), default=0)
    acc = TruncSeries(ring, g.nvars, g.dmax)
    for d in range(deg, -1, -1):
        acc = acc.mul(g)
        c = f.coeff((d,))
        if not ring.is_zero(c):
            acc = acc.add(series_const(ring, g.nvars, g.dmax, c))
    return acc


def substitute_two(F: TruncSeries, u: TruncSeries, v: TruncSeries) -> TruncSeries:
    """F(u, v) for a two-variable F; u, v share arity/dmax and vanish at 0."""
    ring = u.ring
    for s in (u, v):
        if not ring.is_zero(s.constant_term()):
            raise ValueError("substituted series must have zero constant term")
    du = max((e[0] for e in F.terms), default=0)
    dv = max((e[1] for e in F.terms), default=0)
    u_pows = [series_const(ring, u.nvars, u.dmax, ring.one())]
    for _ in range(du):
        u_pows.append(u_pows[-1].mul(u))
    v_pows = [series_const(ring, v.nvars, v.dmax, ring.one())]
    for _ in range(dv):
        v_pows.append(v_pows[-1].mul(v))
    acc = TruncSeries(ring, u.nvars, u.dmax)
    for (i, j), c in F.terms.items():
        term = u_pows[i].mul(v_pows[j]).scale(c)
        acc = acc.add(term)
    return acc


def reduce_mod_p(f: TruncSeries, target_ring=None) -> TruncSeries:
    """Reduce an IntModRing series mod p, optionally into F_{p^e}."""
    ring = f.ring
    if not isinstance(ring, IntModRing):
        raise TypeError("reduce_mod_p expects IntModRing coefficients")
    new_ring = target_ring or IntModRing(ring.p, 1)
    return f.map_coefficients(new_ring.from_int, new_ring)
