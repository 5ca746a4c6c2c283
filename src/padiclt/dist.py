"""Truncated group-ring elements in the b-basis and the r-indexed norms.

A distribution is carried as a finite signed combination of Dirac terms
delta_gamma; the b-monomials b^alpha = prod (gamma_i - 1)^alpha_i expand
into such combinations with binomial coefficients, and the norm family

    ||sum d_alpha b^alpha||_r = sup |d_alpha| r^|alpha|,   1/p <= r < 1,

is evaluated exactly over the rationals.  Application to a section is the
linear extension of the substitution action; no multiplication of general
distributions is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .divalg import DivElem, div_mul, div_one
from .domain import Section, gamma_act
from .padics import PadicScalar, _vp, scalar_add


class ExpansionTooLargeError(ValueError):
    """The signed binomial expansion would exceed the term budget."""


_EXPANSION_BUDGET = 1 << 14


class GroupRingElem:
    """Normal-form list of (coefficient, unit) pairs, duplicates merged."""

    __slots__ = ("ctx", "pairs")

    def __init__(self, ctx, pairs: list[tuple[PadicScalar, DivElem]]):
        self.ctx = ctx
        merged: dict = {}
        order: dict = {}
        for c, g in pairs:
            if not g.is_unit():
                raise ValueError("group elements must be units")
            k = g.key()
            if k in merged:
                merged[k] = (scalar_add(merged[k][0], c), g)
            else:
                merged[k] = (c, g)
                order[k] = len(order)
        self.pairs = [merged[k] for k in sorted(merged, key=order.get)
                      if not merged[k][0].is_zero_at_precision()]

    def __len__(self):
        return len(self.pairs)


@dataclass
class BMonomialSet:
    """Base tuple gamma_1..gamma_t with an exponent vector alpha."""

    gammas: list[DivElem]
    alpha: tuple[int, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.alpha):
            raise ValueError("base tuple and exponent lengths differ")


def dist_norm_r(coeffs: dict[tuple[int, ...], int], r: Fraction, p: int) -> Fraction:
    """sup |d_alpha| r^|alpha| over the finitely many stored integer terms, exact."""
    if not Fraction(1, p) <= r < 1:
        raise ValueError("r must lie in [1/p, 1)")
    best = Fraction(0)
    for alpha, d in coeffs.items():
        if d == 0:
            continue
        val = Fraction(1, p ** _vp(d, p)) * r ** sum(alpha)
        if val > best:
            best = val
    return best


def expand_b_monomial(B: BMonomialSet, ctx) -> GroupRingElem:
    """prod_i (gamma_i - 1)^alpha_i as a signed sum of Dirac terms.

    The i-th factor contributes sum_k C(alpha_i, k) (-1)^(alpha_i - k)
    delta_{gamma_i^k}; factors multiply in the fixed order i = 1..t.
    """
    n_terms = math.prod(a + 1 for a in B.alpha)
    if n_terms > _EXPANSION_BUDGET:
        raise ExpansionTooLargeError(f"{n_terms} terms exceed the expansion budget")
    pairs: list[tuple[int, DivElem]] = [(1, div_one(ctx))]
    for gamma_i, a in zip(B.gammas, B.alpha):
        if a == 0:
            continue
        powers = [div_one(ctx)]
        for _ in range(a):
            powers.append(div_mul(powers[-1], gamma_i))
        new_pairs = []
        for coef, g in pairs:
            for k in range(a + 1):
                sign = (-1) ** (a - k)
                new_pairs.append((coef * sign * math.comb(a, k), div_mul(g, powers[k])))
        pairs = new_pairs
    return GroupRingElem(ctx, [(ctx.from_int(c), g) for c, g in pairs])


def apply_group_ring(mu: GroupRingElem, x: Section) -> Section:
    """sum c_k gamma_k(x), the module action of a group-ring element."""
    acc = None
    for c, g in mu.pairs:
        term = gamma_act(g, x).scale(c)
        acc = term if acc is None else acc.add(term)
    if acc is None:
        from .domain import DomainFunc
        return Section(DomainFunc(x.func.ctx, x.func.h, x.func.dmax), x.twist)
    return acc


def apply_b_iterated(B: BMonomialSet, x: Section) -> Section:
    """Apply prod (gamma_i - 1)^alpha_i by iterating y -> gamma(y) - y.

    The rightmost factor acts first, matching operator composition in the
    expanded form.
    """
    for gamma_i, a in reversed(list(zip(B.gammas, B.alpha))):
        for _ in range(a):
            x = gamma_act(gamma_i, x).sub(x)
    return x
