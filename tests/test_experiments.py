import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclt import divalg, domain, experiments
from padiclt.domain import DomainFunc, Section, _lie_move, lie_act, monomial_section, monomials
from padiclt.experiments import ExperimentConfig, run
from padiclt.padics import make_context


def _reference_lie_bracket(ctx, h):
    """(trials, ok) of the gl-bracket check as one loop per ordered pair:
    four compositions of lie_act, a difference section and a right side
    built from zero."""
    ops = [(i, j) for i in range(h) for j in range(h)]
    ok, trials = 0, 0
    for s in (0, 2):
        zero = Section(DomainFunc(ctx, h, 7), s)
        for e in monomials(h, 5):
            x = monomial_section(ctx, h, 7, e, s)
            for (i, j) in ops:
                for (k, l) in ops:
                    lhs = lie_act(i, j, lie_act(k, l, x)).sub(lie_act(k, l, lie_act(i, j, x)))
                    rhs = zero
                    if j == k:
                        rhs = rhs.add(lie_act(i, l, x))
                    if l == i:
                        rhs = rhs.sub(lie_act(k, j, x))
                    trials += 1
                    if lhs.eq(rhs):
                        ok += 1
    return trials, ok


def _reference_lie_bracket_on_sections(ctx, h):
    """(trials, ok) of the gl-bracket check on sections: the images x_b(x) once
    per section, then x_a(x_b(x)) and x_b(x_a(x)) as two more calls of lie_act
    for each unordered pair {a, b}, compared with Section.eq."""
    ops = [(i, j) for i in range(h) for j in range(h)]
    ok, trials = 0, 0
    for s in (0, 2):
        for e in monomials(h, 5):
            x = monomial_section(ctx, h, 7, e, s)
            first = {b: lie_act(*b, x) for b in ops}
            for n, a in enumerate(ops):
                for b in ops[n:]:
                    (i, j), (k, l) = a, b
                    ab = lie_act(i, j, first[b])
                    ba = lie_act(k, l, first[a]) if b != a else ab
                    lhs = ab.add(first[k, j]) if l == i else ab
                    rhs = ba.add(first[i, l]) if j == k else ba
                    pair = 1 if b == a else 2
                    trials += pair
                    if lhs.eq(rhs):
                        ok += pair
    return trials, ok


# Broken versions of the monomial rule domain._lie_move.  Patched into
# domain, each one reaches lie_act and lie_table alike, so the check and
# the references above run the same broken operators.

def _x12_doubled_at_a1_one(i, j, a, s, dmax):
    """The rule, but x_12 acts twice over on the monomials with a_1 = 1."""
    move = _lie_move(i, j, a, s, dmax)
    if move and (i, j) == (1, 2) and a[0] == 1:
        return 2 * move[0], move[1]
    return move


def _x01_moved_up(i, j, a, s, dmax):
    """The rule, but x_01's image of each monomial lands on w_1 times its target."""
    move = _lie_move(i, j, a, s, dmax)
    if move and (i, j) == (0, 1):
        k, b = move
        return k, (b[0] + 1,) + b[1:]
    return move


def _x10_tripled_on_w1w2(i, j, a, s, dmax):
    """The rule, but x_10 triples its image of the one monomial w_1 w_2."""
    move = _lie_move(i, j, a, s, dmax)
    if move and (i, j) == (1, 0) and a == (1, 1) + (0,) * (len(a) - 2):
        return 3 * move[0], move[1]
    return move


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("h", (1, 2, 3, 4))
def test_bracket_check_matches_reference(h, p, monkeypatch):
    ctx = make_context(p, h, 8)
    cfg = ExperimentConfig("lie-bracket", p=p, h=h, N=8)
    for rule, broken_from_h in ((_lie_move, None), (_x12_doubled_at_a1_one, 3),
                                (_x01_moved_up, 2)):
        monkeypatch.setattr(domain, "_lie_move", rule)
        (check,) = run(cfg).checks
        want = _reference_lie_bracket(ctx, h)
        assert (check.measured["trials"], check.measured["ok"]) == want, rule.__name__
        assert want[0] == 2 * math.comb(h + 4, h - 1) * h ** 4
        broken = broken_from_h is not None and h >= broken_from_h
        assert check.passed is not broken, rule.__name__
        assert (want[1] < want[0]) is broken, rule.__name__


def test_doubled_x12_fails_a_pinned_share_of_trials(monkeypatch):
    monkeypatch.setattr(domain, "_lie_move", _x12_doubled_at_a1_one)
    (check,) = run(ExperimentConfig("lie-bracket", p=3, h=3)).checks
    assert check.measured == {"trials": 3402, "ok": 3276} and not check.passed


def test_j_homomorphism_embeds_each_element_once(monkeypatch):
    # 200 pairs embed a, b and ab once each and take their three determinants;
    # nrd-congruence embeds and takes the determinant of 60 more elements
    counts = {"j_embed": 0, "determinant": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for module in (divalg, experiments):
        for name in counts:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report = run(ExperimentConfig("j-homomorphism", p=3, h=4, N=8, seed=1))
    assert report.passed
    assert counts == {"j_embed": 660, "determinant": 660}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 4), st.integers(1, 8),
       st.sampled_from([_lie_move, _x12_doubled_at_a1_one, _x01_moved_up, _x10_tripled_on_w1w2]))
def test_bracket_tables_match_the_check_on_sections(p, h, N, rule):
    # N down to 1 makes products of multipliers vanish mod p^N, and the broken
    # rules make some trials fail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain, "_lie_move", rule)
        (check,) = run(ExperimentConfig("lie-bracket", p=p, h=h, N=N)).checks
        want = _reference_lie_bracket_on_sections(make_context(p, h, N), h)
    assert (check.measured["trials"], check.measured["ok"]) == want


def test_bracket_fails_when_lie_act_is_wrong_on_one_monomial(monkeypatch):
    monkeypatch.setattr(domain, "_lie_move", _x10_tripled_on_w1w2)
    (check,) = run(ExperimentConfig("lie-bracket", p=3, h=3, N=8)).checks
    assert check.measured["ok"] < check.measured["trials"] == 3402 and not check.passed


def test_bracket_applies_the_rule_once_per_operator_and_monomial(monkeypatch):
    # 16 operators on the 56 monomials of degree <= 5 and the 28 of degree 6
    # (their images under x_i0), for each of the two twists: 2,688 calls
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return _lie_move(*args)

    monkeypatch.setattr(domain, "_lie_move", counted)
    report = run(ExperimentConfig("lie-bracket", p=3, h=4, N=8, seed=1))
    assert report.passed and len(calls) == 2688
