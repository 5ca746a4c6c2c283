import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclt import divalg, experiments
from padiclt.domain import DomainFunc, Section, lie_act, monomial_section, monomials
from padiclt.experiments import ExperimentConfig, run
from padiclt.padics import make_context


def _reference_lie_bracket(ctx, h, act):
    """(trials, ok) of the gl-bracket check as one loop per ordered pair:
    four compositions of `act`, a difference section and a right side built
    from zero."""
    ops = [(i, j) for i in range(h) for j in range(h)]
    ok, trials = 0, 0
    for s in (0, 2):
        zero = Section(DomainFunc(ctx, h, 7), s)
        for e in monomials(h, 5):
            x = monomial_section(ctx, h, 7, e, s)
            for (i, j) in ops:
                for (k, l) in ops:
                    lhs = act(i, j, act(k, l, x)).sub(act(k, l, act(i, j, x)))
                    rhs = zero
                    if j == k:
                        rhs = rhs.add(act(i, l, x))
                    if l == i:
                        rhs = rhs.sub(act(k, j, x))
                    trials += 1
                    if lhs.eq(rhs):
                        ok += 1
    return trials, ok


def _reference_lie_bracket_on_sections(ctx, h, act):
    """(trials, ok) of the gl-bracket check on sections: the images x_b(x) once
    per section, then x_a(x_b(x)) and x_b(x_a(x)) as two more calls of `act`
    for each unordered pair {a, b}, compared with Section.eq."""
    ops = [(i, j) for i in range(h) for j in range(h)]
    ok, trials = 0, 0
    for s in (0, 2):
        for e in monomials(h, 5):
            x = monomial_section(ctx, h, 7, e, s)
            first = {b: act(*b, x) for b in ops}
            for n, a in enumerate(ops):
                for b in ops[n:]:
                    (i, j), (k, l) = a, b
                    ab = act(i, j, first[b])
                    ba = act(k, l, first[a]) if b != a else ab
                    lhs = ab.add(first[k, j]) if l == i else ab
                    rhs = ba.add(first[i, l]) if j == k else ba
                    pair = 1 if b == a else 2
                    trials += pair
                    if lhs.eq(rhs):
                        ok += pair
    return trials, ok


def _x12_doubled_at_a1_one(i, j, x):
    """lie_act, but x_12 acts twice over on the terms with a_1 = 1."""
    y = lie_act(i, j, x)
    if (i, j) != (1, 2):
        return y
    f = x.func
    part = DomainFunc(f.ctx, f.h, f.dmax, {a: c for a, c in f.terms.items() if a[0] == 1})
    return y.add(lie_act(i, j, Section(part, x.twist)))


def _x01_moved_up(i, j, x):
    """lie_act, but each term of x_01's image lands on w_1 times its monomial."""
    y = lie_act(i, j, x)
    if (i, j) != (0, 1):
        return y
    f = y.func
    moved = {(b[0] + 1,) + b[1:]: c for b, c in f.terms.items()}
    return Section(DomainFunc(f.ctx, f.h, f.dmax, moved), y.twist)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("h", (1, 2, 3, 4))
def test_bracket_check_matches_reference(h, p, monkeypatch):
    ctx = make_context(p, h, 8)
    cfg = ExperimentConfig("lie-bracket", p=p, h=h, N=8)
    for act, broken_from_h in ((lie_act, None), (_x12_doubled_at_a1_one, 3),
                               (_x01_moved_up, 2)):
        monkeypatch.setattr(experiments, "lie_act", act)
        (check,) = run(cfg).checks
        want = _reference_lie_bracket(ctx, h, act)
        assert (check.measured["trials"], check.measured["ok"]) == want, act.__name__
        assert want[0] == 2 * math.comb(h + 4, h - 1) * h ** 4
        broken = broken_from_h is not None and h >= broken_from_h
        assert check.passed is not broken, act.__name__
        assert (want[1] < want[0]) is broken, act.__name__


def test_doubled_x12_fails_a_pinned_share_of_trials(monkeypatch):
    monkeypatch.setattr(experiments, "lie_act", _x12_doubled_at_a1_one)
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


def _x10_tripled_on_w1w2(i, j, x):
    """lie_act, but x_10 triples its image of the one monomial w_1 w_2."""
    y = lie_act(i, j, x)
    if (i, j) == (1, 0) and set(x.func.terms) == {(1, 1) + (0,) * (x.func.h - 3)}:
        return y.scale_int(3)
    return y


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 4), st.integers(1, 8),
       st.sampled_from([lie_act, _x12_doubled_at_a1_one, _x01_moved_up, _x10_tripled_on_w1w2]))
def test_bracket_tables_match_the_check_on_sections(p, h, N, act):
    # N down to 1 makes products of multipliers vanish mod p^N, and the broken
    # operators make some trials fail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "lie_act", act)
        (check,) = run(ExperimentConfig("lie-bracket", p=p, h=h, N=N)).checks
    want = _reference_lie_bracket_on_sections(make_context(p, h, N), h, act)
    assert (check.measured["trials"], check.measured["ok"]) == want


def test_bracket_fails_when_lie_act_is_wrong_on_one_monomial(monkeypatch):
    monkeypatch.setattr(experiments, "lie_act", _x10_tripled_on_w1w2)
    (check,) = run(ExperimentConfig("lie-bracket", p=3, h=3, N=8)).checks
    assert check.measured["ok"] < check.measured["trials"] == 3402 and not check.passed


def test_bracket_rejects_an_image_coefficient_that_is_not_an_integer(monkeypatch):
    def times_x(i, j, x):
        # lie_act times the generator x of the residue extension, on x_11
        y = lie_act(i, j, x)
        ctx = x.func.ctx
        return y.scale(ctx.from_coords([0, 1])) if (i, j) == (1, 1) else y

    monkeypatch.setattr(experiments, "lie_act", times_x)
    with pytest.raises(ValueError, match="not an integer"):
        run(ExperimentConfig("lie-bracket", p=3, h=3, N=8))


def test_bracket_calls_lie_act_once_per_operator_and_monomial(monkeypatch):
    # 16 operators on the 56 monomials of degree <= 5 and the 28 of degree 6
    # (their images under x_i0), for each of the two twists: 2,688 calls
    calls = []

    def counted(i, j, x):
        calls.append((i, j))
        return lie_act(i, j, x)

    monkeypatch.setattr(experiments, "lie_act", counted)
    report = run(ExperimentConfig("lie-bracket", p=3, h=4, N=8, seed=1))
    assert report.passed and len(calls) <= 2720
