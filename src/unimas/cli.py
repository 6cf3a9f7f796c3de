"""Command-line entry point.

Exit codes: 0 all properties hold, 2 a property was violated (or a
scenario expectation failed), 3 parse or configuration error (a trace
without its header or with a line missing or repeated, a path that cannot
be opened), 4 no property was violated but one is inconclusive (the run
was cut off by ``max_rounds`` before it went quiet).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, apply_config_text, apply_setting, parse_header
from .fuzz import fuzz_config, generate
from .monitor import MonitorFault, evaluate_trace, exit_code, render_verdicts
from .scenario import (
    RunResult,
    ScenarioError,
    load_test,
    parse_scenario,
    replay_crash,
    run_scenario,
)
from .trace import parse_trace

PARSE_ERROR = 3


def _load_config(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(RunConfig()))  # the file, each --set, the flags, checked once built
    if args.config:
        apply_config_text(values, Path(args.config).read_text())
    for setting in args.set or []:
        key, eq, value = setting.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {setting!r}")
        apply_setting(values, key, value)
    if args.seed is not None:
        values["seed"] = args.seed
    if getattr(args, "inject", None):
        values["inject"] = args.inject.lower()
    if getattr(args, "cap", None) is not None:
        values["cap"] = args.cap
    return RunConfig(**values)


def _write_outputs(args: argparse.Namespace, result: RunResult) -> None:
    if getattr(args, "trace", None):
        with open(args.trace, "w") as out:  # one block at a time, not one more copy
            out.writelines(result.log.blocks())
    if getattr(args, "dump", None):
        Path(args.dump).write_text(result.store.dump())
    if getattr(args, "journal", None):
        Path(args.journal).write_text("".join(line + "\n" for line in result.store.journal_lines))


def _report_result(result: RunResult) -> int:
    for line in result.reports:
        print(line)
    sys.stdout.write(render_verdicts(result.verdicts))
    for failure in result.expectation_failures:
        print(f"expectation|failed|{failure}")
    print(f"# rounds={result.rounds_used} max_reply_latency={result.monitor.max_reply_latency}")
    print(f"# trace_sha256={result.trace_hash}")
    return result.exit_code


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    commands = parse_scenario(Path(args.scenario).read_text())
    result = run_scenario(commands, cfg)
    _write_outputs(args, result)
    return _report_result(result)


def cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = fuzz_config(args.seed, _load_config(args))  # --print-only refuses what a run does
    commands = generate(args.seed, args.events, cfg)
    if args.print_only:
        for command in commands:
            print(command.render())
        return 0
    result = run_scenario(commands, cfg)
    _write_outputs(args, result)
    return _report_result(result)


def cmd_load(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    summary = load_test(cfg, clients=args.clients)
    print(f"clients={args.clients} granted={summary.granted} busy={summary.busy}")
    sys.stdout.write(render_verdicts(summary.result.verdicts))
    return summary.result.exit_code


def cmd_replay_crash(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    commands = parse_scenario(Path(args.scenario).read_text())
    equivalent = replay_crash(commands, args.at, cfg, torn=args.torn)
    print(f"replay_crash|at={args.at}|{'equivalent' if equivalent else 'MISMATCH'}")
    return 0 if equivalent else 2


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.trace) as lines:  # read one line at a time
        parsed = parse_trace(lines)
        if not parsed.header:  # not a trace, or one whose head was cut off
            raise ConfigError(f"{args.trace}: no '# config' header, so no run to verify")
        try:
            verdicts = evaluate_trace(parsed, parse_header(parsed.header))
        except MonitorFault as exc:  # a line missing or repeated: not a trace a run wrote
            raise ConfigError(f"{args.trace}: {exc}") from exc
    sys.stdout.write(render_verdicts(verdicts))
    return exit_code(verdicts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimas",
        description="Deterministic multi-agent IMS runtime with runtime verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
        p.add_argument("--config", help="config file of key = value lines")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one setting")
        p.add_argument("--seed", type=int, required=seed_required, default=None)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario")
    common(run_p)
    run_p.add_argument("--inject", metavar="pN", help="disable one guard (p1..p11)")
    run_p.add_argument("--trace", help="write the trace to this path")
    run_p.add_argument("--dump", help="write the store dump to this path")
    run_p.add_argument("--journal", help="write the journal to this path")
    run_p.set_defaults(fn=cmd_run)

    fuzz_p = sub.add_parser("fuzz", help="run a seeded random scenario")
    common(fuzz_p, seed_required=True)
    fuzz_p.add_argument("--events", type=int, required=True)
    fuzz_p.add_argument("--inject", metavar="pN")
    fuzz_p.add_argument("--trace", help="write the trace to this path")
    fuzz_p.add_argument("--print-only", action="store_true", help="print commands, do not run")
    fuzz_p.set_defaults(fn=cmd_fuzz)

    load_p = sub.add_parser("load", help="session capacity load test")
    load_p.add_argument("--clients", type=int, required=True)
    load_p.add_argument("--cap", type=int, default=None)
    common(load_p)
    load_p.set_defaults(fn=cmd_load)

    crash_p = sub.add_parser("replay-crash", help="crash/recover equivalence check")
    crash_p.add_argument("scenario")
    crash_p.add_argument("--at", type=int, required=True, help="crash after this event index")
    crash_p.add_argument("--torn", action="store_true", help="tear the last journal line")
    common(crash_p)
    crash_p.set_defaults(fn=cmd_replay_crash)

    report_p = sub.add_parser("report", help="re-evaluate verdicts from a trace file")
    report_p.add_argument("trace")
    report_p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
