"""Sparse truncated power series over exchangeable coefficient rings.

A TruncSeries stores exponent tuples -> coefficients up to a total-degree
bound Dmax; multiplication silently drops degrees beyond Dmax (the series
is a class representative mod deg Dmax+1).  Coefficient rings are small
adapter objects; the ones used here are integers mod p^N (covers Z_p and
F_p), unramified extensions via PadicScalar (covers F_{p^e}), and monic
polynomial quotients for torsion-point rings.  domain.DomainFunc is a
TruncSeries over an unramified ring; every operation here builds a result
of its operand's own type, so a DomainFunc stays one.

This module owns the one sparse product engine, for Z/p^N and unramified
coefficients alike (the quotient rings only serve pointwise evaluation, and
a product or substitution over any other ring raises TypeError):
_lazy_combine, sum_k F_k * G_k over pairs of term dicts (TruncSeries.mul is
one pair), and substitute, f(P_1, ..., P_n) by a Horner scheme, of which
compose_univariate and substitute_two are each one call.  Both are built
from _pack_terms, which keys the terms and packs their coefficients,
_products, the one product loop, and _kernel, the one dispatch on the ring.
A monomial X^a of degree d in n variables is keyed by the int
d (Dmax+1)^n + sum a_i (Dmax+1)^i, the degree in the top digit.  The terms
of the right factor are sorted by total degree, so for each left term the
partners that stay within Dmax are a prefix found by bisection; every
exponent and degree of a kept pair is at most Dmax, so adding two keys never
carries from one digit into the next.

Each output key accumulates the plain integer sum of its products and is
reduced once.  Over Z/p^N coefficients stay ints and the sum is cut
`% p^N`: reduction mod p^N is a ring map from Z, so reducing the sum equals
summing the reduced products.  Over an unramified ring coefficients are cut
mod p^q and packed, and the sum is reduced once mod (Phi, p^q) by
padics._reduce_packed (the packed format and its slot width are described
in the padics module docstring).  At one output key a pair (F, G) forms at
most min(|F|, |G|) coefficient products, since a term of F meets at most
one term of G there; the sum of these counts sets the slot width.

Over an unramified ring a result has one absolute precision q, the least
precision of any coefficient that takes part (Caruso, Roe and Vaccon,
"Tracking p-adic precision", LMS J. Comput. Math. 17A, 2014): of the pairs
of a product whose two sides are both nonempty, and of f and the generators
that f uses in a substitution (for compose_univariate and substitute_two, f
cut at the generators' Dmax).  On inputs of one precision this is exactly
the per-pair scalar loop; on mixed inputs the result claims no more
precision than its least precise input, and no summation order changes it.
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
    _vp,
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

    def inv_unit(self, a):
        return pow(a, -1, self.pN)

    def divexact_int(self, a, n):
        """a / n when n = p^v * u divides a exactly mod p^N (value mod p^(N-v))."""
        v = _vp(n, self.p)
        u = n // self.p ** v
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
        pn = self.base.pN
        return tuple([(x + y) % pn for x, y in zip(a, b)])

    def sub(self, a, b):
        pn = self.base.pN
        return tuple([(x - y) % pn for x, y in zip(a, b)])

    def neg(self, a):
        pn = self.base.pN
        return tuple([-x % pn for x in a])

    def mul(self, a, b):
        return _coords_mul(a, b, self.phi, self.deg, self.base.pN)

    def mul_int(self, a, k):
        pn = self.base.pN
        return tuple([x * k % pn for x in a])

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
            # Z/p^N coefficients are stored reduced, as every ring operation returns them
            pN = ring.pN if isinstance(ring, IntModRing) else None
            for exp, c in terms.items():
                if pN:
                    c %= pN
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
        return self._build(_lazy_combine(self.ring, self.nvars, self.dmax,
                                         [(self.terms, other.terms)]), filtered=True)

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

    def map_coefficients(self, fn, new_ring) -> "TruncSeries":
        out = {}
        for exp, c in self.terms.items():
            nc = fn(c)
            if not new_ring.is_zero(nc):
                out[exp] = nc
        return TruncSeries(new_ring, self.nvars, self.dmax, out)


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


def _kernel(ring, dicts: list[dict], count: int):
    """(width, pn, reduce, unpack): how products over `ring` of the term dicts
    `dicts` run, for at most `count` coefficient products at one output key.

    Over Z/p^N the coefficients stay ints (width 0) and reduce cuts each
    sum mod pn = p^N.  Over an unramified ring they are packed mod pn = p^q,
    q the least precision in `dicts`, and reduce is padics._reduce_packed.
    unpack(packed, nvars, stride) gives the terms of the reduced sums.
    """
    if isinstance(ring, IntModRing):
        pn = ring.pN
        return (0, pn, lambda acc: {k: r for k, v in acc.items() if (r := v % pn)},
                lambda packed, nvars, stride: {
                    _exponent(k, nvars, stride): v for k, v in packed.items()})
    if not isinstance(ring, UnramRing):
        raise TypeError(f"series products need Z/p^N or unramified coefficients, not {ring!r}")
    ctx = ring.ctx
    precs = []
    for terms in filter(None, dicts):
        c = next(iter(terms.values()))
        if not c.ctx.same_ring(ctx):
            raise ContextMismatchError(
                f"context mismatch: (p={ctx.p}, e={ctx.e}) vs (p={c.ctx.p}, e={c.ctx.e})")
        precs.append(min(map(_prec, terms.values())))
    q = min(precs)
    e, modulus, pn = ctx.e, ctx.modulus, ctx.p ** q
    width = _slot_width(count, e, pn)
    return (width, pn, lambda acc: _reduce_packed(acc, width, modulus, e, pn),
            lambda packed, nvars, stride: _unpack_terms(packed, ctx, nvars, stride, width, q))


def _lazy_combine(ring, nvars: int, dmax: int, pairs: list[tuple[dict, dict]]) -> dict:
    """Terms of sum F*G over `pairs` of term dicts, truncated at total degree dmax.

    Over Z/p^N this equals one ring.mul/ring.add per pair of terms.  Over an
    unramified ring every coefficient has the one precision q of the module
    docstring, the least precision of any coefficient of a pair whose two
    sides are both nonempty; on inputs of one precision this equals,
    coordinates and precision both, one scalar_mul/scalar_add per pair.
    """
    pairs = [(F, G) for F, G in pairs if F and G]
    if not pairs:
        return {}
    width, pn, reduce, unpack = _kernel(ring, [d for pair in pairs for d in pair],
                                        sum(min(len(F), len(G)) for F, G in pairs))
    stride = dmax + 1
    acc = _products([(_pack_terms(F, dmax, stride, width, pn),
                      _right(_pack_terms(G, dmax, stride, width, pn))) for F, G in pairs], dmax)
    return unpack(reduce(acc), nvars, stride)


def substitute(f: TruncSeries, gens: list[TruncSeries]) -> TruncSeries:
    """f(P): every variable X_i of f replaced by P_i = gens[i], cut at f's Dmax.

    f has any arity and one generator per variable, which share its ring and
    Dmax; the generators set the result's arity and type (f's if there are
    none).  A multivariate Horner scheme (Ceberio and Kreinovich, "Greedy
    algorithms for optimizing multivariate Horner schemes", SIGSAM Bull.
    38(1), 2004): grouping the terms of f by their exponent of X_0 gives
    f(P) = sum_a P_0^a g_a(P_1, ...), summed as acc = acc * P_0 + g_a from
    the top exponent down, with one product by P_0 per step, also where no
    term has that exponent.  Each g_a is summed the same way in P_1, and so
    on; at the last variable a group sum_b c_b P_last^b takes the powers of
    P_last, built once per call.  Each step is one _products call over the
    pairs (acc, P_i) and those of the level below, and one reduction; a
    level's last step stays a list of pairs for the level above, so the
    outermost sum is one step as well.  The generators and the powers of
    P_last are packed once, and every Horner sum stays a dict key -> int.

    Over an unramified ring the result has the precision q of the module
    docstring, and one slot width serves every step: at one output key a
    step forms at most |P_i| products for a pair (acc, P_i), of which it has
    at most one per level, and one for each pair (c, P_last^b), of which it
    has at most Dmax + 1 (the terms of one last-level group).
    """
    nvars, dmax = f.nvars, f.dmax
    like = gens[0] if gens else f
    if not f.terms:
        return like._build({}, filtered=True)
    used = [i for i in range(nvars) if any(e[i] for e in f.terms)]
    width, pn, reduce, unpack = _kernel(f.ring, [f.terms, *(gens[i].terms for i in used)],
                                        sum(len(gens[i].terms) for i in used) + dmax + 1)
    stride = dmax + 1
    top = stride ** like.nvars  # a key's degree digit
    const = (0,) * like.nvars

    def left(packed: dict[int, int]) -> list[tuple[int, int, int]]:
        return [(k // top, k, x) for k, x in packed.items()]

    def step_sum(pairs: list) -> dict[int, int]:
        return reduce(_products(pairs, dmax))

    packed = {i: _pack_terms(gens[i].terms, dmax, stride, width, pn) for i in used}
    right = {i: _right(t) for i, t in packed.items()}
    pows = [_right([(0, 0, 1)])]
    for _ in range(max(e[-1] for e in f.terms) if nvars else 0):
        pows.append(right[nvars - 1] if len(pows) == 1 else
                    _right(left(step_sum([(packed[nvars - 1], pows[-1])]))))

    def pairs(terms: dict, i: int) -> list:
        # pairs whose products sum to c * prod_{j >= i} P_j^e_j over the terms
        # c X^e of `terms`; the powers of P_0..P_{i-1} are the caller's
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

    return like._build(unpack(step_sum(pairs(f.terms, 0)), like.nvars, stride), filtered=True)


def series_var(ring, nvars: int, dmax: int, var: int) -> TruncSeries:
    exp = [0] * nvars
    exp[var] = 1
    return TruncSeries(ring, nvars, dmax, {tuple(exp): ring.one()})


def series_from_int_coeffs(ring, coeffs: dict[int, int], dmax: int) -> TruncSeries:
    """One-variable series from {exponent: integer coefficient}."""
    return TruncSeries(ring, 1, dmax,
                       {(e,): ring.from_int(c) for e, c in coeffs.items()})


def compose_univariate(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g) for one-variable f and any-arity g with g(0) = 0."""
    if not g.ring.is_zero(g.constant_term()):
        raise ValueError("substituted series must have zero constant term")
    return substitute(TruncSeries(g.ring, 1, g.dmax, f.terms), [g])


def substitute_two(F: TruncSeries, u: TruncSeries, v: TruncSeries) -> TruncSeries:
    """F(u, v) for a two-variable F; u, v share arity/dmax and vanish at 0."""
    if any(not s.ring.is_zero(s.constant_term()) for s in (u, v)):
        raise ValueError("substituted series must have zero constant term")
    return substitute(TruncSeries(u.ring, 2, u.dmax, F.terms), [u, v])


def reduce_mod_p(f: TruncSeries, target_ring=None) -> TruncSeries:
    """Reduce an IntModRing series mod p, optionally into F_{p^e}."""
    ring = f.ring
    if not isinstance(ring, IntModRing):
        raise TypeError("reduce_mod_p expects IntModRing coefficients")
    new_ring = target_ring or IntModRing(ring.p, 1)
    return f.map_coefficients(new_ring.from_int, new_ring)
