"""Universal-logarithm coefficients over the deformation base and the
period-coordinate approximants, with the l-indexed norm family

    ||f||_l = sup |c_beta| |p|^(|beta|/l),

reported as integer valuations in units of v(p)/l.

Polynomials in u_1..u_{h-1} are carried with exact integer numerators and a
per-polynomial denominator exponent (f = p^(-denom) * numerator), so the
recursion identity and all norms are computed exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .padics import ZeroAtPrecisionError


class DegreeOverflowError(ValueError):
    """The recursion would create exponents beyond Dmax (never truncated)."""


def _vp(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


@dataclass
class UnivPoly:
    """p^(-denom) * sum_beta c_beta u^beta with exact integer c_beta."""

    h: int
    p: int
    dmax: int
    denom: int
    terms: dict[tuple[int, ...], int]

    def normalized(self) -> "UnivPoly":
        """Cancel common p-powers between the denominator and all terms."""
        terms = {e: c for e, c in self.terms.items() if c}
        if not terms:
            return UnivPoly(self.h, self.p, self.dmax, 0, {})
        shift = min(self.denom, min(_vp(c, self.p) for c in terms.values()))
        if shift:
            terms = {e: c // self.p ** shift for e, c in terms.items()}
        return UnivPoly(self.h, self.p, self.dmax, self.denom - shift, terms)

    def is_zero(self) -> bool:
        return not any(self.terms.values())

    def scale_p_power(self, k: int) -> "UnivPoly":
        """Multiply by p^k (k >= 0), cancelling into the denominator."""
        return UnivPoly(self.h, self.p, self.dmax, self.denom,
                        {e: c * self.p ** k for e, c in self.terms.items()}).normalized()

    def add(self, other: "UnivPoly") -> "UnivPoly":
        d = max(self.denom, other.denom)
        pa = self.p ** (d - self.denom)
        pb = self.p ** (d - other.denom)
        out = {e: c * pa for e, c in self.terms.items()}
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c * pb
        return UnivPoly(self.h, self.p, self.dmax, d, out).normalized()

    def sub(self, other: "UnivPoly") -> "UnivPoly":
        neg = UnivPoly(other.h, other.p, other.dmax, other.denom,
                       {e: -c for e, c in other.terms.items()})
        return self.add(neg)

    def mul(self, other: "UnivPoly") -> "UnivPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if max(exp) > self.dmax:
                    raise DegreeOverflowError(f"exponent {exp} exceeds Dmax {self.dmax}")
                out[exp] = out.get(exp, 0) + c1 * c2
        return UnivPoly(self.h, self.p, self.dmax,
                        self.denom + other.denom, out).normalized()

    def mul_monomial(self, var: int, exponent: int) -> "UnivPoly":
        """Multiply by u_var^exponent (var in 1..h-1)."""
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[var - 1] += exponent
            if ne[var - 1] > self.dmax:
                raise DegreeOverflowError(
                    f"exponent {ne[var - 1]} of u_{var} exceeds Dmax {self.dmax}")
            out[tuple(ne)] = c
        return UnivPoly(self.h, self.p, self.dmax, self.denom, out)

    def eval_origin(self) -> tuple[int, int]:
        """(numerator, denominator exponent) of the value at u = 0."""
        c = self.terms.get((0,) * (self.h - 1), 0)
        return c, self.denom

    def norm_valuation(self, l: int) -> int:
        """||.||_l as a valuation in units of v(p)/l: min l*v_p(c) + |beta|."""
        if self.is_zero():
            raise ZeroAtPrecisionError("norm of the zero polynomial")
        best = None
        for e, c in self.terms.items():
            if c == 0:
                continue
            w = l * (_vp(c, self.p) - self.denom) + sum(e)
            if best is None or w < best:
                best = w
        return best

    def monomial_denominators_bounded_by_degree(self) -> bool:
        """Every monomial's irreducible denominator exponent is <= |beta|,
        i.e. the polynomial is power-bounded on the l=1 polydisc."""
        g = self.normalized()
        return all(g.denom - _vp(c, g.p) <= sum(e) for e, c in g.terms.items() if c)

    def to_json(self) -> dict:
        g = self.normalized()
        return {
            "vars": g.h - 1,
            "Dmax": g.dmax,
            "denominator_exponent": g.denom,
            "terms": [[list(e), c] for e, c in sorted(g.terms.items())],
        }

    @staticmethod
    def from_json(p: int, s: str | dict) -> "UnivPoly":
        d = json.loads(s) if isinstance(s, str) else s
        return UnivPoly(d["vars"] + 1, p, d["Dmax"], d["denominator_exponent"],
                        {tuple(e): c for e, c in d["terms"]})


def univ_one(h: int, p: int, dmax: int) -> UnivPoly:
    return UnivPoly(h, p, dmax, 0, {(0,) * (h - 1): 1})


def degree_budget(p: int, nmax: int) -> int:
    """Largest exponent the recursion can produce: (q^nmax - 1)/(q - 1)."""
    return (p ** nmax - 1) // (p - 1)


def univ_log_coeffs(h: int, p: int, nmax: int, dmax: int) -> list[UnivPoly]:
    """Coefficients a_0..a_nmax of the universal logarithm sum a_n X^(q^n).

    Generated by p * a_n = sum_{i=1..h} u_i^(q^(n-i)) a_{n-i} with u_h := 1,
    a_0 = 1, vanishing negative indices (q = p).  Carried exactly: the
    numerator recursion is num_n = sum p^(i-1) u_i^(q^(n-i)) num_{n-i} with
    a_n = num_n / p^n.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    q = p
    nums: list[UnivPoly] = [univ_one(h, p, dmax)]
    for n in range(1, nmax + 1):
        acc = UnivPoly(h, p, dmax, 0, {})
        for i in range(1, h + 1):
            if n - i < 0:
                continue
            prev = nums[n - i]
            term = UnivPoly(h, p, dmax, 0,
                            {e: c * p ** (i - 1) for e, c in prev.terms.items()})
            if i < h:
                term = term.mul_monomial(i, q ** (n - i))
            acc = acc.add(term)
        if acc.denom != 0:
            raise AssertionError("numerator recursion produced a denominator")
        nums.append(acc)
    return [UnivPoly(h, p, dmax, n, dict(nums[n].terms)).normalized()
            for n in range(nmax + 1)]


def recursion_defect(coeffs: list[UnivPoly], h: int, p: int, n: int) -> UnivPoly:
    """p*a_n - sum u_i^(q^(n-i)) a_{n-i}; identically zero for valid output."""
    q = p
    lhs = coeffs[n].scale_p_power(1)
    for i in range(1, h + 1):
        if n - i < 0:
            continue
        term = coeffs[n - i]
        if i < h:
            term = term.mul_monomial(i, q ** (n - i))
        lhs = lhs.sub(term)
    return lhs


def phi_approx(coeffs: list[UnivPoly], h: int, p: int, i: int, n: int) -> UnivPoly:
    """Stage-n approximant of the i-th period coordinate:
    p^n a_{nh} for i = 0, p^(n+1) a_{nh+i} for i >= 1."""
    if not 0 <= i <= h - 1:
        raise ValueError("coordinate index out of range")
    idx = n * h + i
    if idx >= len(coeffs):
        raise ValueError(f"need a_{idx}; only {len(coeffs) - 1} computed")
    power = n if i == 0 else n + 1
    return coeffs[idx].scale_p_power(power)


def norm_l(f: UnivPoly, l: int) -> int:
    if l < 1:
        raise ValueError("l must be a positive integer")
    return f.norm_valuation(l)
