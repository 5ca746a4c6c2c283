"""Command-line runner: `padiclt run|list|emit`.

Exit codes: 0 all checks pass, 1 any check fails, 2 configuration error.
Reports are byte-deterministic for a fixed config unless --with-timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENTS,
    CheckRecord,
    ConfigInvalidError,
    ExperimentConfig,
    Report,
    emit,
    run,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiclt",
        description="p-adic workbench experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment and emit its report")
    runp.add_argument("experiment", help="experiment name (see `list`)")
    runp.add_argument("--config", type=Path, help="JSON config file")
    runp.add_argument("--seed", type=int, help="override the RNG seed")
    runp.add_argument("--out", type=Path, help="write the report here (default stdout)")
    runp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    runp.add_argument("--with-timings", action="store_true",
                      help="include per-check runtimes (breaks byte determinism)")
    for name in ("p", "h", "e", "N", "Dmax", "nmax"):
        runp.add_argument(f"--{name}", type=int, dest=name)

    sub.add_parser("list", help="list each experiment with its domain and size budgets")

    emitp = sub.add_parser("emit", help="re-emit a saved JSON report")
    emitp.add_argument("report", type=Path)
    emitp.add_argument("--format", choices=("json", "csv", "table"), default="table")
    emitp.add_argument("--out", type=Path)
    emitp.add_argument("--with-timings", action="store_true")
    return parser


def _load_config(args) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalidError(f"cannot read config: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigInvalidError(f"config must be a JSON object, got {type(base).__name__}")
    base["experiment"] = args.experiment
    for name in ("seed", "p", "h", "e", "N", "Dmax", "nmax"):
        val = getattr(args, name, None)
        if val is not None:
            base[name] = val
    return ExperimentConfig.from_json(base)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name, record in EXPERIMENTS.items():
            stated = [statement for _, statement in record.domain] + [
                f"n <= {limit}: {message.format('n')}" for _, limit, message in record.budgets]
            print(f"{name:<24}{'; '.join(stated)}".rstrip())
        return 0

    if args.command == "emit":
        try:
            obj = json.loads(args.report.read_text())
            report = Report(obj["experiment"], obj["config"], [
                CheckRecord(c["check_id"], c["anchor"], c["inputs_digest"],
                            c["measured"], c["passed"], c.get("runtime_ms", 0.0))
                for c in obj["checks"]])
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        blob = emit(report, args.format, args.with_timings)
        if args.out:
            args.out.write_bytes(blob)
        else:
            sys.stdout.buffer.write(blob)
        return 0 if report.passed else 1

    try:
        cfg = _load_config(args)
        report = run(cfg)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    blob = emit(report, args.format, args.with_timings)
    out = args.out or (Path(cfg.out) if cfg.out else None)
    if out:
        out.write_bytes(blob)
        print(f"{report.experiment}: {'PASS' if report.passed else 'FAIL'} -> {out}")
    else:
        sys.stdout.buffer.write(blob)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
