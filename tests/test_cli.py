import json
import math
import time

import pytest

from padiclt import experiments
from padiclt.cli import main
from padiclt.experiments import (
    EXPERIMENTS,
    ConfigInvalidError,
    ExperimentConfig,
    UnknownExperimentError,
    emit,
    run,
)
from padiclt.series import TruncSeries


def test_list_names_cover_the_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)
    assert len(EXPERIMENTS) == 20


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
    # reachability's seeds need a domain coordinate
    assert main(["run", "reachability", "--h", "1"]) == 2
    with pytest.raises(ConfigInvalidError):
        run(ExperimentConfig("reachability", h=1))
    # sizes beyond an experiment's budget exit 2 before any work, not hang
    for name in ("lie-bracket", "kernels"):
        assert main(["run", name, "--h", "12"]) == 2, name
        assert main(["run", name, "--h", "6"]) == 2, name
        with pytest.raises(ConfigInvalidError, match="budget"):
            run(ExperimentConfig(name, h=12, Dmax=40))
    # j-homomorphism's determinant has 2^h states
    assert main(["run", "j-homomorphism", "--h", "14"]) == 2
    assert main(["run", "j-homomorphism", "--h", "4", "--N", "400"]) == 2


def test_action_experiments_exit_2_beyond_their_budget():
    # the p-adic digits of the largest function bound the action experiments
    for name in ("dheq-vs-matrix", "action-law", "contraction", "dist-norms"):
        assert main(["run", name, "--h", "12"]) == 2, name
        with pytest.raises(ConfigInvalidError, match="budget"):
            run(ExperimentConfig(name, h=12))
    assert main(["run", "dheq-vs-matrix", "--h", "6"]) == 2
    assert main(["run", "action-law", "--h", "6"]) == 2
    assert main(["run", "contraction", "--h", "5"]) == 2
    assert main(["run", "dist-norms", "--h", "5"]) == 2
    # at h = 2 the exact low-degree checks truncate at degree 2N + 6 and 2N + 5
    assert main(["run", "action-law", "--h", "2", "--N", "69"]) == 2
    assert main(["run", "dist-norms", "--h", "2", "--N", "70"]) == 2


@pytest.mark.parametrize("dmax", [13, 16])
def test_fn_sequence_compares_the_tail_beyond_dmax_12(dmax, tmp_path):
    # the tail f_n, n >= Dmax - 2, reaches past n = 10 from Dmax = 13 on
    out = tmp_path / "report.json"
    assert main(["run", "fn-sequence", "--Dmax", str(dmax), "--out", str(out)]) == 0
    checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["stabilizes-to-lowest-slice"]["measured"]["comparisons"] > 0


def test_zero_trial_checks_fail(capsys):
    # at h=1 there is no domain variable, so the action checks count no trials
    rep = run(ExperimentConfig("dheq-vs-matrix", p=3, h=1))
    zero = [c for c in rep.checks if c.measured.get("trials") == 0]
    assert [c.check_id for c in zero] == ["dheq-matches-matrix", "p-action-norms"]
    assert not any(c.passed for c in zero) and not rep.passed
    assert main(["run", "dheq-vs-matrix", "--h", "1", "--p", "3"]) == 1


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
    with pytest.raises(UnknownExperimentError):
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
    # these experiments time several checks from one start; each record's
    # runtime must begin where the previous one ended, so none is counted twice
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
