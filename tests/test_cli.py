import dataclasses
import json
import math
import os
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclt import experiments
from padiclt.cli import main
from padiclt.experiments import (
    EXPERIMENTS,
    ConfigInvalidError,
    ExperimentConfig,
    emit,
    run,
)
from padiclt.series import TruncSeries


def test_list_names_cover_the_registry(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(EXPERIMENTS)
    assert len(EXPERIMENTS) == 20


def test_list_prints_each_records_statements(capsys):
    # the domain statements and budgets that run checks are what list prints
    assert main(["list"]) == 0
    lines = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()
                 if " " in line)
    # logarithm has no domain and one budget, its working precision
    assert lines["logarithm"] == (f"n <= {experiments.WORKING_PRECISION}: "
                                  "works at precision n = N p-adic digits")
    for name, record in EXPERIMENTS.items():
        for _, statement in record.domain:
            assert statement in lines[name] and ": " in statement, name
        for _, limit, _ in record.budgets:
            assert f"n <= {limit}: " in lines[name], name
    assert "h >= 2: its seeds need a coordinate w_1" in lines["reachability"]


def test_unknown_experiment_exits_2(capsys):
    assert main(["run", "no-such-thing"]) == 2


def test_invalid_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 4}))
    assert main(["run", "height", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"e": 1, "h": 3}))
    assert main(["run", "height", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["run", "height", "--config", str(cfg)]) == 2
    for bad in ({"p": "5"}, [1, 2], "height", None, {"seed": 1.5}, {"h": True},
                {"N": None}, {"out": 3}):
        cfg.write_text(json.dumps(bad))
        assert main(["run", "height", "--config", str(cfg)]) == 2, bad
    with pytest.raises(ConfigInvalidError):
        run(ExperimentConfig("height", p="5"))
    with pytest.raises(ConfigInvalidError):
        run(ExperimentConfig(["height"]))
    # reachability's seeds need a domain coordinate, and one of degree h
    # must fit under its truncation degree 8
    assert main(["run", "reachability", "--h", "1"]) == 2
    assert main(["run", "reachability", "--h", "9"]) == 2
    for h in (1, 9, 40):
        with pytest.raises(ConfigInvalidError):
            run(ExperimentConfig("reachability", h=h))
    # sizes beyond an experiment's budget exit 2 before any work, not hang
    for name in ("lie-bracket", "kernels"):
        assert main(["run", name, "--h", "12"]) == 2, name
        assert main(["run", name, "--h", "6"]) == 2, name
        with pytest.raises(ConfigInvalidError, match="budget"):
            run(ExperimentConfig(name, h=12, Dmax=40))
    # j-homomorphism's determinant has 2^h states
    assert main(["run", "j-homomorphism", "--h", "14"]) == 2
    assert main(["run", "j-homomorphism", "--h", "4", "--N", "400"]) == 2
    assert main(["run", "j-homomorphism", "--h", str(10 ** 12)]) == 2


def test_large_p_exits_2_without_trial_division():
    # 10^14 + 31 is prime, and past every degree budget; trial division up to
    # its square root took over a second
    t0 = time.perf_counter()
    assert main(["run", "height", "--p", "100000000000031"]) == 2
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(ConfigInvalidError, match="budget"):
        run(ExperimentConfig("height", p=3_317_044_064_679_887_385_961_981))
    with pytest.raises(ConfigInvalidError, match="not prime"):
        run(ExperimentConfig("height", p=3_215_031_751))


def test_action_experiments_exit_2_beyond_their_budget():
    # the p-adic digits of the largest function bound the action experiments
    for name in ("dheq-vs-matrix", "action-law", "contraction", "dist-norms"):
        assert main(["run", name, "--h", "12"]) == 2, name
        with pytest.raises(ConfigInvalidError, match="budget"):
            run(ExperimentConfig(name, h=12))
    assert main(["run", "dheq-vs-matrix", "--h", "6"]) == 2
    assert main(["run", "action-law", "--h", "6"]) == 2
    assert main(["run", "vs-stability", "--h", "6"]) == 2
    assert main(["run", "contraction", "--h", "5"]) == 2
    assert main(["run", "dist-norms", "--h", "5"]) == 2
    # at h = 2 the exact low-degree checks truncate at degree 2N + 6 and 2N + 5
    assert main(["run", "action-law", "--h", "2", "--N", "69"]) == 2
    assert main(["run", "dist-norms", "--h", "2", "--N", "70"]) == 2


def test_level_structure_exits_2_beyond_its_degree_budget():
    # the Lubin-Tate group law is truncated at degree 6(p-1)+2: p = 101 needs 602
    assert main(["run", "level-structure", "--p", "101"]) == 2
    assert main(["run", "level-structure", "--p", "17"]) == 2
    with pytest.raises(ConfigInvalidError, match="budget"):
        run(ExperimentConfig("level-structure", p=17, h=1, e=1))


def test_formal_experiments_exit_2_beyond_their_degree_budget():
    # height truncates at p^3 + 2, endomorphism-frobenius at p^h + 4 and
    # gm-identities at Dmax; p = 7 gives 345, p = 11 gives 1,333
    assert main(["run", "height", "--p", "11"]) == 2
    assert main(["run", "endomorphism-frobenius", "--p", "11", "--h", "3"]) == 2
    assert main(["run", "endomorphism-frobenius", "--p", "23", "--h", "2"]) == 2
    assert main(["run", "endomorphism-frobenius", "--p", "2", "--h", str(10 ** 12)]) == 2
    assert main(["run", "gm-identities", "--Dmax", "401"]) == 2
    assert main(["run", "gm-identities", "--Dmax", "800"]) == 2
    for cfg in (ExperimentConfig("height", p=13), ExperimentConfig("gm-identities", Dmax=401),
                ExperimentConfig("endomorphism-frobenius", p=3, h=6)):
        with pytest.raises(ConfigInvalidError, match="budget"):
            run(cfg)


def test_period_convergence_exits_2_outside_its_domain_and_budget():
    # h = 1 has no deformation base, and nmax < 2h leaves fewer than two
    # differences to compare
    for args in (["--h", "1"], ["--nmax", "0"], ["--nmax", "3"], ["--h", "1", "--nmax", "0"],
                 ["--p", "2", "--h", "2", "--nmax", "2"], ["--h", "3", "--nmax", "5"]):
        assert main(["run", "period-convergence", *args]) == 2, args
    # the monomials of a_0..a_nmax grow like the h-step Fibonacci numbers:
    # h = 2 fits nmax = 21 (46,367), h = 3 fits nmax = 17 (42,762)
    for args in (["--nmax", "22"], ["--nmax", "40"], ["--h", "3", "--nmax", "21"],
                 ["--h", "3", "--nmax", "18"], ["--nmax", str(10 ** 12)],
                 ["--h", str(10 ** 6), "--nmax", str(3 * 10 ** 6)]):
        assert main(["run", "period-convergence", *args]) == 2, args
    with pytest.raises(ConfigInvalidError, match="budget"):
        run(ExperimentConfig("period-convergence", h=3, nmax=21))
    with pytest.raises(ConfigInvalidError, match="nmax >= 2h"):
        run(ExperimentConfig("period-convergence", h=2, nmax=3))


def test_kernels_and_lf_diagnostic_exit_2_outside_their_domains(capsys):
    # kernels needs N >= 2 max_{k <= 8} v_p(k): 6 at p = 2, 2 at p = 3 and 5, 1 at p = 11
    for args in (["--p", "2", "--N", "5"], ["--p", "3", "--N", "1"], ["--p", "5", "--N", "1"]):
        assert main(["run", "kernels", *args]) == 2, args
        assert "needs N >=" in capsys.readouterr().err
    for args in (["--p", "2", "--N", "6"], ["--p", "11", "--N", "1"]):
        assert main(["run", "kernels", *args]) == 0, args
    # lf-diagnostic's growing section is a power of w_1
    assert main(["run", "lf-diagnostic", "--h", "1"]) == 2
    assert "needs h >= 2" in capsys.readouterr().err
    with pytest.raises(ConfigInvalidError, match="needs h >= 2"):
        run(ExperimentConfig("lf-diagnostic", h=1))


def test_known_failures_pass_or_exit_2_with_their_reason(capsys):
    # each failed, raised or ran long before its domain was stated, its
    # budget set or its check mended; the exits 2 come before any work
    for args, code, reason in (
            (["logarithm", "--N", "100000"], 2, "works at precision 100000"),
            (["height", "--N", "4001"], 2, "works at precision 4001"),
            (["height", "--N", "4000"], 0, ""),
            (["formal-group-axioms", "--h", "100000"], 2, "decimal digits"),
            (["formal-group-axioms", "--h", "1000000000000"], 2, "decimal digits"),
            (["finite-difference", "--h", "1"], 2, "needs h >= 2"),
            (["dheq-vs-matrix", "--h", "1"], 2, "needs h >= 2"),
            (["fn-sequence", "--p", "2"], 2, "needs N > v_p(m!)"),
            (["fn-sequence", "--N", "2"], 2, "needs N > v_p(m!)"),
            (["fn-sequence", "--p", "3", "--Dmax", "20"], 2, "needs N > v_p(m!)"),
            (["finite-difference", "--N", "3"], 2, "needs N >= 6"),
            (["dist-norms", "--N", "1"], 2, "needs N >= 2"),
            (["dist-norms", "--p", "2", "--N", "2"], 2, "needs N >= 3 at p = 2"),
            (["dist-norms", "--p", "2", "--h", "1", "--N", "3"], 2, "needs N >= 4 at p = 2"),
            (["fn-sequence", "--p", "2", "--N", "9"], 0, ""),
            (["fn-sequence", "--p", "2", "--N", "11", "--seed", "3"], 0, ""),
            (["fn-sequence", "--p", "3", "--Dmax", "20", "--N", "9"], 0, ""),
            (["finite-difference", "--p", "2", "--h", "3"], 0, ""),
            (["dist-norms", "--p", "2", "--N", "3"], 0, ""),
            (["dist-norms", "--p", "2", "--h", "1", "--N", "4"], 0, "")):
        t0 = time.perf_counter()
        assert main(["run", *args, "--out", os.devnull]) == code, args
        assert code == 0 or time.perf_counter() - t0 < 1, args
        assert reason in capsys.readouterr().err, args


# Budgets small enough that no drawn run takes long, and large enough that
# every @example below runs its checks rather than exiting 2 on a budget.
_FUZZ_LIMITS = {
    "j-homomorphism": 400, "dheq-vs-matrix": 1_200, "action-law": 1_200, "lie-weights": 2_000,
    "lie-bracket": 30_000, "finite-difference": 700, "fn-sequence": 1_000,
    "vs-stability": 1_200, "reachability": 40, "kernels": 45, "lf-diagnostic": 300,
    "contraction": 1_200, "formal-group-axioms": 40, "gm-identities": 40, "logarithm": 40,
    "height": 40, "level-structure": 26,
    "endomorphism-frobenius": 40, "period-convergence": 2_000, "dist-norms": 1_200,
}
_FUZZ_EXPERIMENTS = {
    name: dataclasses.replace(record, budgets=tuple(
        (size, _FUZZ_LIMITS[name], message) for size, _, message in record.budgets))
    for name, record in EXPERIMENTS.items()}
_DEFAULTS = dict(p=5, h=2, N=8, Dmax=8, nmax=6, seed=1)
# the configs that failed, raised or ran long before their experiments
# stated a domain or mended a check
_KNOWN_FAILURES = [("finite-difference", dict(h=1)), ("dheq-vs-matrix", dict(h=1)),
           ("fn-sequence", dict(p=2)), ("fn-sequence", dict(N=2)),
           ("fn-sequence", dict(p=3, Dmax=20)), ("finite-difference", dict(p=2, h=3)),
           ("finite-difference", dict(N=3)), ("dist-norms", dict(N=1)),
           ("dist-norms", dict(p=2, N=3))]


def test_fuzz_budgets_admit_every_example():
    for name, kw in _KNOWN_FAILURES:
        cfg = ExperimentConfig(name, **kw)
        for size, limit, _ in _FUZZ_EXPERIMENTS[name].budgets:
            assert size(cfg) <= limit, (name, kw)


def _known_failure_examples(test):
    for name, kw in reversed(_KNOWN_FAILURES):
        test = example(name=name, **{**_DEFAULTS, **kw})(test)
    return test


@settings(max_examples=500, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(EXPERIMENTS)), p=st.sampled_from([2, 3, 5, 7, 11, 13]),
       h=st.sampled_from(range(1, 7)), N=st.sampled_from(range(1, 15)),
       Dmax=st.sampled_from(range(1, 25)), nmax=st.sampled_from(range(25)),
       seed=st.integers(0, 2 ** 32))
@_known_failure_examples
def test_every_config_passes_or_exits_2(name, p, h, N, Dmax, nmax, seed):
    # the checks are exact, so an exit 1 is a fault of the program or of a
    # domain statement; an exception escapes and fails the test
    args = ["run", name, "--out", os.devnull]
    for flag, value in (("p", p), ("h", h), ("N", N), ("Dmax", Dmax), ("nmax", nmax),
                        ("seed", seed)):
        args += [f"--{flag}", str(value)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "EXPERIMENTS", _FUZZ_EXPERIMENTS)
        assert main(args) in (0, 2)


@pytest.mark.parametrize("dmax", [13, 16])
def test_fn_sequence_compares_the_tail_beyond_dmax_12(dmax, tmp_path):
    # the tail f_n, n >= Dmax - 2, reaches past n = 10 from Dmax = 13 on
    out = tmp_path / "report.json"
    assert main(["run", "fn-sequence", "--Dmax", str(dmax), "--out", str(out)]) == 0
    checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["stabilizes-to-lowest-slice"]["measured"]["comparisons"] > 0


def test_zero_trial_checks_fail(capsys):
    # at h=1 there is no domain variable, so the action checks count no trials;
    # run rejects h = 1, so the experiment is called past its record here
    rec = experiments._Recorder(ExperimentConfig("dheq-vs-matrix", p=3, h=1))
    EXPERIMENTS["dheq-vs-matrix"].func(rec.cfg, rec)
    zero = [c for c in rec.records if c.measured.get("trials") == 0]
    assert [c.check_id for c in zero] == ["dheq-matches-matrix", "p-action-norms"]
    assert not any(c.passed for c in zero)
    assert main(["run", "dheq-vs-matrix", "--h", "1", "--p", "3"]) == 2


def test_zero_step_difference_quotient_fails(monkeypatch):
    # a quotient equal to its limit ends each walk before the first step:
    # "steps": 0 must fail like "trials": 0
    monkeypatch.setattr(experiments, "lie_finite_difference", lambda delta, x, k: (x, x))
    rep = run(ExperimentConfig("finite-difference", p=5, h=2))
    first = rep.checks[0]
    assert first.check_id == "difference-quotient-converges"
    assert first.measured["steps"] == 0 and not first.passed


def test_run_writes_deterministic_report(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["run", "gm-identities", "--p", "3", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["schema_version"] == 1
    assert obj["passed"] is True
    assert all("runtime_ms" not in c for c in obj["checks"])
    assert all(c["anchor"] for c in obj["checks"])


def test_emit_round_trip(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "height", "--p", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["emit", str(out), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "check_id,anchor,inputs_digest,measured,passed"
    assert main(["emit", str(out), "--format", "table"]) == 0


def test_emit_empty_report_has_header_only():
    from padiclt.experiments import Report
    blob = emit(Report("height", {}), "csv")
    assert blob.decode().strip() == "check_id,anchor,inputs_digest,measured,passed"


def test_run_api_errors():
    with pytest.raises(ConfigInvalidError):
        run(ExperimentConfig("nope"))
    with pytest.raises(ConfigInvalidError):
        run(ExperimentConfig("height", p=6))
    with pytest.raises(ConfigInvalidError):
        ExperimentConfig.from_json({"experiment": "height", "bogus": 1})


def test_config_round_trip():
    cfg = ExperimentConfig("kernels", p=3, h=3, N=6, seed=9)
    again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg


def test_timings_flag_included_when_requested():
    rep = run(ExperimentConfig("gm-identities", p=3))
    with_t = json.loads(emit(rep, "json", with_timings=True))
    assert all("runtime_ms" in c for c in with_t["checks"])


def test_check_runtimes_fit_in_the_run():
    # each record's runtime begins where the previous one ended, so none is
    # counted twice
    for name, kw in (("j-homomorphism", dict(p=3, h=2)), ("fn-sequence", dict(p=3, Dmax=6)),
                     ("vs-stability", dict(p=3)), ("period-convergence", dict(p=2, nmax=4))):
        t0 = time.perf_counter()
        rep = run(ExperimentConfig(name, **kw))
        wall_ms = (time.perf_counter() - t0) * 1000
        checks = json.loads(emit(rep, "json", with_timings=True))["checks"]
        assert len(checks) >= 2 and rep.passed, name
        assert sum(c["runtime_ms"] for c in checks) <= wall_ms, name


def test_second_check_runtime_covers_its_comparisons(monkeypatch):
    # each comparison sleeps; a check timed apart from the first one must
    # report at least the sleeps of its own comparisons
    sleep_s = 0.002

    def slow(fn):
        def wrapped(*args):
            time.sleep(sleep_s)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(TruncSeries, "eq", slow(TruncSeries.eq))
    rep = run(ExperimentConfig("fn-sequence", p=3, h=2, Dmax=6))
    second = rep.checks[1]
    assert second.check_id == "stabilizes-to-lowest-slice" and rep.passed
    assert second.runtime_ms >= second.measured["comparisons"] * sleep_s * 1000

    monkeypatch.setattr(experiments.math, "comb", slow(math.comb))
    rep = run(ExperimentConfig("vs-stability", p=3, h=2))
    second = rep.checks[1]
    assert second.check_id == "Vs-dimension" and rep.passed
    assert second.runtime_ms >= 6 * sleep_s * 1000  # one dimension per s in 0..5


def test_first_check_runtime_covers_the_setup(monkeypatch):
    # the first record's runtime runs from the recorder's creation, so it
    # covers make_context and whatever else precedes the first check
    sleep_s = 0.05
    make_context = experiments.make_context

    def slow(*args):
        time.sleep(sleep_s)
        return make_context(*args)

    monkeypatch.setattr(experiments, "make_context", slow)
    for name in ("lie-weights", "kernels"):
        rep = run(ExperimentConfig(name, p=3, h=2))
        assert rep.passed and rep.checks[0].runtime_ms >= sleep_s * 1000, name
