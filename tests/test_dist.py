import random
from fractions import Fraction

import pytest

from padiclt.padics import make_context
from padiclt.divalg import DivElem, div_mul, div_one, sample_gamma
from padiclt.domain import DomainFunc, Section, gamma_act, random_domain_func
from padiclt.dist import (
    BMonomialSet,
    ExpansionTooLargeError,
    GroupRingElem,
    apply_b_iterated,
    apply_group_ring,
    dist_norm_r,
    expand_b_monomial,
)

CTX = make_context(3, 2, 8)


def test_norm_examples():
    r = Fraction(1, 3)
    assert dist_norm_r({(0, 0): 1}, r, 3) == 1
    assert dist_norm_r({(1, 0): 1}, r, 3) == r
    for alpha in [(2, 1), (0, 3)]:
        assert dist_norm_r({alpha: 1}, r, 3) == r ** sum(alpha)
    r2 = Fraction(2, 5)
    assert dist_norm_r({(1, 1): 1}, r2, 3) == r2 ** 2
    assert dist_norm_r({(0, 0): 9, (1, 0): 1}, r, 3) == r  # sup of p^-2 and r
    with pytest.raises(ValueError):
        dist_norm_r({(0, 0): 1}, Fraction(1, 9), 3)


def test_expansion_shapes():
    rng = random.Random(0)
    g1 = sample_gamma(CTX, 1, rng)
    g2 = sample_gamma(CTX, 1, rng)
    assert len(expand_b_monomial(BMonomialSet([g1, g2], (0, 0)), CTX)) == 1
    mu = expand_b_monomial(BMonomialSet([g1, g2], (1, 0)), CTX)
    got = {g.key(): c for c, g in mu.pairs}
    assert got == {g1.key(): CTX.from_int(1), div_one(CTX).key(): CTX.from_int(-1)}
    sq = expand_b_monomial(BMonomialSet([g1], (2,)), CTX)
    got = {g.key(): c for c, g in sq.pairs}
    assert got == {
        div_mul(g1, g1).key(): CTX.from_int(1),
        g1.key(): CTX.from_int(-2),
        div_one(CTX).key(): CTX.from_int(1),
    }


def test_expansion_budget():
    rng = random.Random(1)
    g = sample_gamma(CTX, 1, rng)
    with pytest.raises(ExpansionTooLargeError):
        expand_b_monomial(BMonomialSet([g, g], (200, 200)), CTX)


def test_dirac_application_and_linearity():
    rng = random.Random(2)
    g1 = sample_gamma(CTX, 1, rng)
    g2 = sample_gamma(CTX, 1, rng)
    x = Section(random_domain_func(CTX, 2, 5, rng), 2)
    assert apply_group_ring(GroupRingElem(CTX, [(CTX.one(), g1)]), x).eq(gamma_act(g1, x))
    mu = GroupRingElem(CTX, [(CTX.one(), g1), (CTX.from_int(3), g2)])
    assert apply_group_ring(mu, x).eq(gamma_act(g1, x).add(gamma_act(g2, x).scale_int(3)))


def test_evaluation_orders_agree_exactly():
    rng = random.Random(3)
    g1 = sample_gamma(CTX, 1, rng)
    g2 = sample_gamma(CTX, 1, rng)
    f = random_domain_func(CTX, 2, 4, rng)
    W = 2 * CTX.N + 4
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        B = BMonomialSet([g1, g2], alpha)
        x = Section(DomainFunc(CTX, 2, W, dict(f.terms)), 2)
        d = apply_group_ring(expand_b_monomial(B, CTX), x).sub(apply_b_iterated(B, x))
        assert not {e for e in d.func.terms if sum(e) <= 4}


def test_b_monomial_contraction():
    rng = random.Random(4)
    n = 1
    for alpha in [(1, 0), (2, 0), (1, 1)]:
        gs = [sample_gamma(CTX, n, rng), sample_gamma(CTX, n, rng)]
        f = random_domain_func(CTX, 2, 3, rng)
        x = Section(DomainFunc(CTX, 2, 12, dict(f.terms)), 0)
        y = apply_b_iterated(BMonomialSet(gs, alpha), x)
        if not y.is_zero_at_precision():
            assert y.gauss_valuation() - f.gauss_valuation() >= sum(alpha) * n * 2


def test_scalars_and_units_are_unhashable_and_group_ring_merges_by_key():
    # __eq__ compares at the lower precision, so no hash can agree with it
    with pytest.raises(TypeError):
        hash(CTX.one())
    with pytest.raises(TypeError):
        hash(div_one(CTX))
    g = sample_gamma(CTX, 1, random.Random(5))
    same = DivElem(CTX, tuple(CTX.from_coords(c.coords) for c in g.coeffs))
    mu = GroupRingElem(CTX, [(CTX.one(), g), (CTX.from_int(2), same), (CTX.one(), div_one(CTX))])
    assert len(mu) == 2
    assert mu.pairs[0][0] == CTX.from_int(3) and mu.pairs[0][1] == g
    assert len(GroupRingElem(CTX, [(CTX.one(), g), (CTX.from_int(-1), g)])) == 0
