"""Exact arithmetic in Z_p and its unramified extensions, tracked mod p^N.

A scalar is an element of o_e = Z_p[x]/(Phi(x)) for a monic polynomial Phi
of degree e that is irreducible mod p, stored as a coordinate vector of
length e with entries reduced mod p^N.  The absolute precision N propagates
through arithmetic by min.  The Frobenius lift sigma (the unique ring
automorphism reducing to c -> c^p on the residue field) is realized as an
e x e matrix obtained by Hensel-lifting the p-power map.

Packed coordinates (Kronecker substitution, Harvey arXiv:0712.4046) serve
every bulk product: series, domain, divalg and linalg.  Coordinates
c_0..c_{e-1} below p^q pack into the int sum c_i 2^(i W) (_pack, _unpack):
the low coordinate in the low W-bit slot.  The product of two packed ints
holds the 2e-1 coordinates of the unreduced product in x, one per slot,
each at most e (p^q - 1)^2, so a sum of C products stays at most
S = C e (p^q - 1)^2 per slot.  _reduce_packed folds each slot d >= e into
the low e as slot_d times the packed row x^d mod (Phi, p^q) (_phi_rows,
entries below p^q), so a low slot reaches at most S (1 + (e-1)(p^q - 1))
before it is cut mod p^q once.  _slot_width is the bit length of that
bound: no slot carries into the next, so products add freely.  Reduction by
the monic Phi is Z-linear and mod p^q a ring map, so this is each product
reduced and summed at precision q; and since p^q divides p^m for m >= q, a
sum reduced at p^m and cut mod p^q is the sum reduced at p^q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul


class ContextMismatchError(ValueError):
    """Scalars from different (p, e, modulus) contexts were mixed."""


class NonUnitError(ArithmeticError):
    """Inversion was requested for a non-unit (or zero-at-precision) element."""


class PrecisionLossError(ArithmeticError):
    """A division consumed more p-adic precision than available."""


class ZeroAtPrecisionError(ArithmeticError):
    """A norm or valuation of something that vanishes at the working precision."""


def _poly_gcd_deg_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Degree of gcd(f, g) in F_p[x] (-1 for gcd zero)."""

    def deg(h):
        for d in range(len(h) - 1, -1, -1):
            if h[d] % p:
                return d
        return -1

    f = [c % p for c in f]
    g = [c % p for c in g]
    while deg(g) >= 0:
        df, dg = deg(f), deg(g)
        if df < dg:
            f, g = g, f
            continue
        lead = (f[deg(f)] * pow(g[deg(g)], -1, p)) % p
        shift = df - dg
        for k in range(dg + 1):
            if g[k]:
                f[k + shift] = (f[k + shift] - lead * g[k]) % p
        if deg(f) < deg(g):
            f, g = g, f
    return deg(f)


def _is_irreducible_mod_p(poly: list[int], p: int) -> bool:
    """Rabin test: x^(p^e) = x mod poly and gcd(x^(p^(e/r)) - x, poly) = 1."""
    poly = tuple(poly)  # _coords_mul caches its rows per modulus
    e = len(poly) - 1
    if e == 1:
        return True

    x = (0, 1) + (0,) * (e - 2)

    def frob_power(times: int) -> tuple[int, ...]:
        # x^(p^times) mod poly by repeated p-th powering
        cur = x
        for _ in range(times):
            acc = (1,) + (0,) * (e - 1)
            base = cur
            n = p
            while n:
                if n & 1:
                    acc = _coords_mul(acc, base, poly, e, p)
                base = _coords_mul(base, base, poly, e, p)
                n >>= 1
            cur = acc
        return cur

    if frob_power(e) != x:
        return False
    primes = set()
    n = e
    r = 2
    while r * r <= n:
        while n % r == 0:
            primes.add(r)
            n //= r
        r += 1
    if n > 1:
        primes.add(n)
    for r in primes:
        h = frob_power(e // r)
        diff = [(h[k] - x[k]) % p for k in range(e)]
        if _poly_gcd_deg_mod_p(diff, list(poly), p) != 0:
            return False
    return True


def _coords_valuation(coords: tuple[int, ...], p: int) -> int | None:
    """min_i v_p(coords[i]) over the nonzero coordinates; None if all are 0."""
    best: int | None = None
    for c in coords:
        if c == 0:
            continue
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        if best is None or v < best:
            best = v
            if best == 0:
                return 0
    return best


@dataclass(frozen=True)
class UnramContext:
    """Degree-e unramified extension of Q_p at absolute precision N.

    `modulus` is monic of degree e (coefficients low to high, length e+1)
    with entries in {0..p-1}; `frobenius` is the matrix of sigma in the
    basis 1, x, ..., x^(e-1), entries mod p^N, stored column-major as a
    tuple of columns.
    """

    p: int
    e: int
    N: int
    modulus: tuple[int, ...]
    frobenius: tuple[tuple[int, ...], ...]
    # (k, prec) -> (p^prec, rows of the matrix of sigma^k mod p^prec); see frobenius()
    _frobenius_powers: dict = field(default_factory=dict, init=False, repr=False,
                                    compare=False)

    @property
    def pN(self) -> int:
        return self.p ** self.N

    def same_ring(self, other: "UnramContext") -> bool:
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def zero(self) -> "PadicScalar":
        return PadicScalar(self, (0,) * self.e, self.N)

    def one(self) -> "PadicScalar":
        return self.from_int(1)

    def gen(self) -> "PadicScalar":
        """The class of x (a generator of the residue field for e >= 2)."""
        coords = [0] * self.e
        if self.e > 1:
            coords[1] = 1
        return PadicScalar(self, tuple(coords), self.N)

    def from_int(self, k: int, prec: int | None = None) -> "PadicScalar":
        n = self.N if prec is None else prec
        coords = [k % self.p ** n] + [0] * (self.e - 1)
        return PadicScalar(self, tuple(coords), n)

    def from_coords(self, coords, prec: int | None = None) -> "PadicScalar":
        """Coordinates mod p^prec, missing ones 0; more than e raise ValueError."""
        n = self.N if prec is None else prec
        pn = self.p ** n
        cs = [int(c) % pn for c in coords]
        if len(cs) > self.e:
            raise ValueError(f"need at most e={self.e} coordinates, got {len(cs)}")
        cs += [0] * (self.e - len(cs))
        return PadicScalar(self, tuple(cs), n)

    def random_element(self, rng, prec: int | None = None) -> "PadicScalar":
        n = self.N if prec is None else prec
        pn = self.p ** n
        return PadicScalar(self, tuple(rng.randrange(pn) for _ in range(self.e)), n)

    def random_unit(self, rng) -> "PadicScalar":
        while True:
            a = self.random_element(rng)
            if a.valuation() == 0:
                return a

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "e": self.e,
                "N": self.N,
                "modulus": list(self.modulus),
                "frobenius": [list(col) for col in self.frobenius],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(s: str) -> "UnramContext":
        d = json.loads(s)
        return UnramContext(
            d["p"], d["e"], d["N"],
            tuple(d["modulus"]),
            tuple(tuple(col) for col in d["frobenius"]),
        )


class PadicScalar:
    """Element of o_e reduced mod p^prec, immutable."""

    __slots__ = ("ctx", "coords", "prec")

    def __init__(self, ctx: UnramContext, coords: tuple[int, ...], prec: int):
        self.ctx = ctx
        self.coords = coords
        self.prec = prec

    def __repr__(self) -> str:
        return f"PadicScalar({list(self.coords)} mod {self.ctx.p}^{self.prec})"

    def __eq__(self, other) -> bool:
        """Equality at the minimum of the two precisions.

        Every constructor path stores coordinates reduced mod p^prec, so at
        one precision the coordinate tuples decide it.
        """
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if not self.ctx.same_ring(other.ctx):
            return False
        if self.prec == other.prec:
            return self.coords == other.coords
        n = min(self.prec, other.prec)
        pn = self.ctx.p ** n
        return all((a - b) % pn == 0 for a, b in zip(self.coords, other.coords))

    def __hash__(self):
        return hash((self.coords, self.prec))

    def key(self) -> tuple:
        return (self.coords, self.prec)

    def at_precision(self, n: int) -> "PadicScalar":
        if n == self.prec:
            return self
        pn = self.ctx.p ** n
        return PadicScalar(self.ctx, tuple(c % pn for c in self.coords), n)

    def is_zero_at_precision(self) -> bool:
        return all(c == 0 for c in self.coords)

    def valuation(self) -> int | None:
        """min_i v_p(coords[i]), or None as the ">= prec" marker."""
        v = _coords_valuation(self.coords, self.ctx.p)
        return None if v is None or v >= self.prec else v

    def is_unit(self) -> bool:
        return self.valuation() == 0


def _check_ctx(a: PadicScalar, b: PadicScalar) -> None:
    if not a.ctx.same_ring(b.ctx):
        raise ContextMismatchError(
            f"context mismatch: (p={a.ctx.p}, e={a.ctx.e}) vs (p={b.ctx.p}, e={b.ctx.e})"
        )


def scalar_add(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    _check_ctx(a, b)
    n = min(a.prec, b.prec)
    pn = a.ctx.p ** n
    return PadicScalar(a.ctx, tuple((x + y) % pn for x, y in zip(a.coords, b.coords)), n)


def scalar_sub(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    _check_ctx(a, b)
    n = min(a.prec, b.prec)
    pn = a.ctx.p ** n
    return PadicScalar(a.ctx, tuple((x - y) % pn for x, y in zip(a.coords, b.coords)), n)


def scalar_neg(a: PadicScalar) -> PadicScalar:
    pn = a.ctx.p ** a.prec
    return PadicScalar(a.ctx, tuple((-x) % pn for x in a.coords), a.prec)


def _coords_mul(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], e: int,
                pn: int) -> tuple[int, ...]:
    """Coordinates of a*b mod (Phi, pn), for coordinate tuples a and b of length e;
    x^d, d >= e, is folded into the low e by _phi_rows, as in _reduce_packed."""
    if e == 1:
        return ((a[0] * b[0]) % pn,)
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    low = prod[:e]
    for c, row in zip(prod[e:], _phi_rows(modulus, pn)):
        if c:
            for k, r in enumerate(row):
                low[k] += c * r
    return tuple([c % pn for c in low])


def _pack(coords, width: int) -> int:
    """sum_i coords[i] 2^(i width): the low coordinate in the low slot."""
    x = 0
    for v in reversed(coords):
        x = (x << width) + v
    return x


def _unpack(x: int, width: int, e: int) -> tuple[int, ...]:
    """The low e slots of x: the inverse of _pack on e slots below 2^width."""
    mask = (1 << width) - 1
    return tuple([(x >> s) & mask for s in range(0, e * width, width)])


def _slot_width(count: int, e: int, pn: int) -> int:
    """Bits per slot for sums of `count` products of packed coordinates below
    pn, with the headroom of _reduce_packed; see the module docstring."""
    slot = count * e * (pn - 1) ** 2
    return (slot * (1 + (e - 1) * (pn - 1))).bit_length() or 1


@lru_cache(maxsize=None)
def _phi_rows(modulus: tuple[int, ...], pn: int) -> tuple[tuple[int, ...], ...]:
    """The coordinates of x^d mod (Phi, pn) for d = e..2e-2, e = deg Phi (monic)."""
    e = len(modulus) - 1
    rows = [tuple([-c % pn for c in modulus[:e]])]  # x^e
    for _ in range(e - 2):
        *low, top = rows[-1]  # x^(d+1) = x * x^d, its top coordinate times x^e folded back
        rows.append(tuple([(a + top * b) % pn for a, b in zip([0] + low, rows[0])]))
    return tuple(rows)


def _reduce_packed(acc: dict, width: int, modulus: tuple[int, ...], e: int,
                   pn: int) -> dict:
    """key -> the packed coordinates mod (Phi, pn) of each packed sum of acc, by
    the fold of the module docstring; sums that reduce to 0 are dropped."""
    mask = (1 << width) - 1
    low = (1 << (e * width)) - 1
    high = range(e * width, (2 * e - 1) * width, width)  # the shifts of slots e..2e-2
    rows = [(s, _pack(row, width)) for s, row in zip(high, _phi_rows(modulus, pn))]
    shifts = range(width, e * width, width)
    out = {}
    for k, v in acc.items():
        x = v & low
        for s, row in rows:
            x += ((v >> s) & mask) * row
        v = (x & mask) % pn
        for s in shifts:
            v |= ((x >> s) & mask) % pn << s
        if v:
            out[k] = v
    return out


def scalar_mul(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    _check_ctx(a, b)
    ctx = a.ctx
    n = min(a.prec, b.prec)
    return PadicScalar(ctx, _coords_mul(a.coords, b.coords, ctx.modulus, ctx.e, ctx.p ** n), n)


def scalar_mul_int(a: PadicScalar, k: int) -> PadicScalar:
    pn = a.ctx.p ** a.prec
    return PadicScalar(a.ctx, tuple((c * k) % pn for c in a.coords), a.prec)


def _residue_inverse(a: PadicScalar) -> PadicScalar:
    """Inverse of the residue of `a` in F_{p^e}, via extended Euclid in F_p[x]."""
    ctx = a.ctx
    p = ctx.p
    if ctx.e == 1:
        return ctx.from_int(pow(a.coords[0] % p, -1, p), 1)

    def polydeg(f):
        for d in range(len(f) - 1, -1, -1):
            if f[d] % p:
                return d
        return -1

    r0 = [c % p for c in ctx.modulus]
    r1 = [c % p for c in a.coords]
    s0, s1 = [0], [1]
    while polydeg(r1) > 0:
        d0, d1 = polydeg(r0), polydeg(r1)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        lead = (r0[polydeg(r0)] * pow(r1[polydeg(r1)], -1, p)) % p
        shift = polydeg(r0) - polydeg(r1)
        for k in range(len(r1)):
            if r1[k]:
                r0[k + shift] = (r0[k + shift] - lead * r1[k]) % p
        s0 = s0 + [0] * (len(s1) + shift - len(s0))
        for k in range(len(s1)):
            if s1[k]:
                s0[k + shift] = (s0[k + shift] - lead * s1[k]) % p
    d = polydeg(r1)
    if d < 0:
        raise NonUnitError("zero residue has no inverse")
    c_inv = pow(r1[d], -1, p)
    inv = [(c_inv * x) % p for x in s1]
    return ctx.from_coords(inv, 1)


def scalar_inv(a: PadicScalar) -> PadicScalar:
    """Newton lift of the residue-field inverse.  Requires v(a) = 0."""
    if a.valuation() != 0:
        raise NonUnitError("cannot invert: valuation > 0 or zero at precision")
    ctx = a.ctx
    x = _residue_inverse(a)
    n = 1
    two = ctx.from_int(2, a.prec)
    while n < a.prec:
        n = min(2 * n, a.prec)
        xl = x.at_precision(n)
        al = a.at_precision(n)
        x = scalar_mul(xl, scalar_sub(two.at_precision(n), scalar_mul(al, xl)))
    return x.at_precision(a.prec)


def _frobenius_rows(ctx: UnramContext, k: int, prec: int) -> tuple[int, tuple]:
    """(p^prec, rows of M^k mod p^prec) for the Frobenius matrix M, cached on ctx."""
    key = (k, prec)
    if key not in ctx._frobenius_powers:
        e, pn = ctx.e, ctx.p ** prec
        m = [[ctx.frobenius[j][i] for j in range(e)] for i in range(e)]
        power = m
        for _ in range(k - 1):
            power = [[sum(map(mul, row, col)) % pn for col in zip(*m)] for row in power]
        ctx._frobenius_powers[key] = (pn, tuple(tuple(x % pn for x in row) for row in power))
    return ctx._frobenius_powers[key]


def frobenius(a: PadicScalar, k: int = 1) -> PadicScalar:
    """sigma^k(a) via the context's Frobenius matrix M.

    Applying M k times with a reduction mod p^prec after each step gives
    M^k a mod p^prec, with M^k the integer power: reduction mod p^prec is a
    ring map.  So one product with M^k mod p^prec (cached per context and
    precision) is the same, at every precision, prec > N included.
    """
    ctx = a.ctx
    k %= ctx.e
    if k == 0:
        return a
    pn, rows = _frobenius_rows(ctx, k, a.prec)
    c = a.coords
    return PadicScalar(ctx, tuple(sum(map(mul, row, c)) % pn for row in rows), a.prec)


def valuation(a: PadicScalar) -> int | None:
    return a.valuation()


def _lift_root_newton(ctx_nofrob: UnramContext, start: PadicScalar) -> PadicScalar:
    """Root of the modulus congruent to `start` mod p, Hensel-lifted to full precision."""
    mod = ctx_nofrob.modulus
    e = ctx_nofrob.e

    def poly_eval(coeffs, x: PadicScalar) -> PadicScalar:
        acc = ctx_nofrob.zero().at_precision(x.prec)
        for c in reversed(coeffs):
            acc = scalar_add(scalar_mul(acc, x), ctx_nofrob.from_int(c, x.prec))
        return acc

    deriv = [mod[k] * k for k in range(1, e + 1)]
    r = start.at_precision(1)
    n = 1
    while n < ctx_nofrob.N:
        n = min(2 * n, ctx_nofrob.N)
        r = r.at_precision(n)
        fr = poly_eval(mod, r)
        dfr = poly_eval(deriv, r)
        r = scalar_sub(r, scalar_mul(fr, scalar_inv(dfr)))
    return r


def make_context(p: int, e: int, N: int) -> UnramContext:
    """Build the degree-e unramified context at precision N.

    The modulus is the irreducible monic of degree e over F_p with the least
    base-p integer encoding (degenerate case e=1: the polynomial x).  The
    Frobenius matrix is computed by Hensel-lifting the p-power map on the
    residue field.
    """
    if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    if e < 1 or N < 1:
        raise ValueError("need e >= 1 and N >= 1")

    if e == 1:
        modulus = (0, 1)  # the polynomial x
        ctx = UnramContext(p, 1, N, modulus, ((1,),))
        return ctx

    modulus = None
    for code in range(p ** e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        cand = coeffs + [1]
        if _is_irreducible_mod_p(cand, p):
            modulus = tuple(cand)
            break
    assert modulus is not None  # counting argument: irreducibles always exist

    identity_cols = tuple(
        tuple(1 if i == j else 0 for i in range(e)) for j in range(e)
    )
    ctx0 = UnramContext(p, e, N, modulus, identity_cols)

    # sigma(x) is the root of the modulus congruent to x^p mod p
    xbar = ctx0.gen().at_precision(1)
    start = xbar
    for _ in range(p - 1):
        start = scalar_mul(start, xbar)
    root = _lift_root_newton(ctx0, start)

    cols = []
    power = ctx0.one()
    for _ in range(e):
        cols.append(power.coords)
        power = scalar_mul(power, root)
    return UnramContext(p, e, N, modulus, tuple(cols))
