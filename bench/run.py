"""Benchmark entry point: one workload, measured for a fixed time.

    python3 bench/run.py --workload term_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, no threads.  The workload's scenario is generated
from the seed, then run in repetitions ("reps") until ``--seconds`` have
passed.  Every rep does the same whole round of work through the public
API: set-up (``parse_scenario`` plus ``ScenarioRunner``), the live run
with the monitor on, offline re-verification (``parse_trace`` plus
``evaluate_trace``) and journal replay (``store.replay``).

The first rep is judged by every output check and not timed; every later
rep must repeat its outputs.  A timed figure is the fastest sample of its
phase in the run, scaled by the machine's speed (see ``Speed``).
``--trace 0`` reports the end-to-end metrics of the timed reps.
``--trace 1`` alternates an untraced rep with a traced one and reports
the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
#: repeats inside one rep, so that each phase has tens of samples per run
SETUP_REPEATS = 3
VERIFY_REPEATS = 2
REPLAY_REPEATS = 4
#: trace events per timed segment of the live run, a few milliseconds each
SEGMENT_EVENTS = 64
#: the calibration loop's fastest time on the reference machine (see README)
CALIBRATION_REF_S = 0.0070
#: calibration loops before each phase: the more, the steadier their fastest
CALIBRATION_REPEATS = 3


@dataclass
class Rep:
    setup_s: list[float]  # each set-up: parse_scenario + ScenarioRunner
    parse_s: list[float]  # the parse_scenario part of each
    live_s: float
    live_segments: list[float]  # the live run cut every SEGMENT_EVENTS trace events
    live_peak_rss_mb: float  # the process's peak so far; the live run's own in the first rep
    verify_s: list[float]  # each parse_trace + evaluate_trace
    replay_s: list[float]  # each store.replay
    calibration_s: list[float]  # each calibration_loop, CALIBRATION_REPEATS per phase
    events: int
    trace_line_count: int
    trace_bytes: int
    rounds: int
    trace_sha: str
    result: object
    trace_lines: list[str]
    offline: list[str]
    replayed_dump: str


def use_sources() -> bool:
    """Put the checkout's ``src/`` on the import path; False if it is absent."""
    if not (ROOT / "src" / "unimas" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def calibration_loop() -> int:
    """A fixed piece of pure-Python work of the kind the program does
    (string formatting and splitting, dict and list updates), a few
    milliseconds long.  Its fastest time in a run gauges how fast the
    machine ran then; see ``Speed``."""
    table: dict[str, list[int]] = {}
    total = 0
    for i in range(10000):
        key = f"k{i % 257}"
        row = table.setdefault(key, [])
        row.append(i)
        parts = f"{i}|{key}|{len(row)}".split("|")
        total += len(parts[1]) + int(parts[0]) % 7
    return total


def run_rep(work, tracer=None) -> Rep:
    """One whole round: set-up, live run, offline verify, replay."""
    from unimas.config import parse_header
    from unimas.monitor import evaluate_trace
    from unimas.scenario import ScenarioRunner, parse_scenario
    from unimas.store import replay
    from unimas.trace import parse_trace

    calibration_s = []

    def phase(name: str) -> None:
        gc.collect()
        for _ in range(CALIBRATION_REPEATS):
            start = perf_counter()
            calibration_loop()
            calibration_s.append(perf_counter() - start)
        if tracer is not None:
            tracer.phase = name

    phase("setup")
    setup_s, parse_s = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        commands = parse_scenario(work.text)
        parsed_at = perf_counter()
        runner = ScenarioRunner(work.cfg)
        setup_s.append(perf_counter() - start)
        parse_s.append(parsed_at - start)
    if tracer is not None:
        tracer.trace_runner(runner)

    phase("live")
    stamps: list[float] = []
    if tracer is None:
        runner.world.observers.append(lambda _event: stamps.append(perf_counter()))
    start = perf_counter()
    result = runner.run(commands)
    end = perf_counter()
    live_s = end - start
    bounds = [start, *stamps[SEGMENT_EVENTS::SEGMENT_EVENTS], end]
    live_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = result.log.text()
    phase("verify")
    verify_s = []
    for _ in range(VERIFY_REPEATS):
        start = perf_counter()
        lines = text.splitlines()
        parsed = parse_trace(lines)
        offline = evaluate_trace(parsed, parse_header(parsed.header))
        verify_s.append(perf_counter() - start)

    phase("replay")
    journal = list(result.store.journal_lines)
    replay_s = []
    for _ in range(REPLAY_REPEATS):
        start = perf_counter()
        replayed = replay(journal, work.cfg)
        replay_s.append(perf_counter() - start)

    return Rep(
        setup_s=setup_s,
        parse_s=parse_s,
        live_s=live_s,
        live_segments=[b - a for a, b in zip(bounds, bounds[1:])],
        live_peak_rss_mb=live_peak_rss_mb,
        verify_s=verify_s,
        replay_s=replay_s,
        calibration_s=calibration_s,
        events=len(journal),
        trace_line_count=len(lines),
        trace_bytes=len(text),
        rounds=result.rounds_used,
        trace_sha=hashlib.sha256(text.encode()).hexdigest(),
        result=result,
        trace_lines=lines,
        offline=[v.render() for v in offline],
        replayed_dump=replayed.dump(),
    )


def outcome_pairs(result) -> list[tuple[str, str]]:
    out = []
    for o in result.outcomes:
        if o is None:
            out.append(("none", ""))
        elif o.reply is not None:
            out.append((o.status, o.reply.render()))
        else:
            out.append((o.status, o.reason))
    return out


@dataclass
class Judged:
    problems: list[str]
    failed: int
    latencies: list[int]


def judge(work, rep: Rep) -> Judged:
    """Every output check on one rep (see checks.py)."""
    import checks

    result = rep.result
    live = [v.render() for v in result.verdicts]
    replies = checks.gateway_replies(rep.trace_lines)
    problems = checks.check_verdicts(live, rep.offline)
    problems += checks.check_replay(result.store.dump(), rep.replayed_dump)
    problems += checks.check_one_reply(replies, work.commands)
    outcomes = outcome_pairs(result)
    if work.name == "term_mix":
        problems += checks.check_lag(replies)
        problems += checks.check_term_mix(work, outcomes, result.store.dump())
    elif work.name == "report_heavy":
        problems += checks.check_lag(replies)
        problems += checks.check_report_heavy(
            work, outcomes, result.store.dump(), rep.trace_lines
        )
    elif work.name == "session_rush":
        problems += checks.check_session_rush(work, outcomes)
    failed = checks.failed_commands(replies, work.commands, work.cfg.liveness_k)
    return Judged(problems, failed, sorted(r.latency for r in replies))


class Speed:
    """How the timed figures of one run are read.

    On a shared machine neighbours slow the CPU in spells of a fraction of
    a second, by up to a factor of two, and the speed it reaches between
    spells shifts by up to a third from one minute to the next.  A total
    or a median of samples follows how much of the run fell into spells,
    and the fastest sample follows the minute's speed.  So each figure is
    the fastest sample of its phase in the run (the reasoning of
    ``timeit``; for the live run, the sum over its segments of each
    segment's fastest time across reps, since a whole run nearly always
    meets a spell), scaled to the reference machine by the ratio of
    ``CALIBRATION_REF_S`` to the fastest ``calibration_loop`` of the same
    run.  A slower program has slower fastest samples too.
    """

    def __init__(self, reps: list[Rep]) -> None:
        self.calibration_s = min(s for r in reps for s in r.calibration_s)
        self.scale = CALIBRATION_REF_S / self.calibration_s

    def fastest(self, samples) -> float:
        return min(samples) * self.scale

    def live_s(self, reps: list[Rep]) -> float:
        segments = list(zip(*(r.live_segments for r in reps), strict=True))
        return sum(min(segment) for segment in segments) * self.scale


def end_to_end(work, first: Rep, reps: list[Rep], judged: Judged) -> dict[str, tuple[float, str]]:
    import checks

    speed = Speed(reps)
    return {
        "setup_s": (speed.fastest(s for r in reps for s in r.setup_s), "s"),
        "cmd_per_s": (work.commands / speed.live_s(reps), "1/s"),
        "rounds_per_cmd": (reps[0].rounds / work.commands, "rounds"),
        "reply_rounds_p50": (float(checks.percentile(judged.latencies, 0.50)), "rounds"),
        "reply_rounds_p99": (float(checks.percentile(judged.latencies, 0.99)), "rounds"),
        "peak_rss_mb": (first.live_peak_rss_mb, "MB"),
        "verify_cmd_per_s": (work.commands / speed.fastest(s for r in reps for s in r.verify_s), "1/s"),
        "replay_events_per_s": (first.events / speed.fastest(s for r in reps for s in r.replay_s), "1/s"),
    }


def per_layer(work, tracer, traced: list[Rep], plain: list[Rep]) -> dict[str, tuple[float, str]]:
    """Spans and counts from the traced reps, as measured; whole-phase
    timings (parse, verify, replay) from the untraced reps, where no
    wrapper adds to them, read like the end-to-end ones (see ``Speed``)."""
    cmds = work.commands * len(traced)
    rounds = sum(r.rounds for r in traced)
    t = tracer
    rep = plain[0]
    speed = Speed(plain)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    envelopes = t.counted("envelopes")
    mutations = t.calls("store.execute")
    overhead = min(r.live_s for r in traced) / min(r.live_s for r in plain)
    return {
        "bdi.step_us": (t.per_call_us("bdi.step"), "us"),
        "bdi.steps_per_cmd": (ratio(t.calls("bdi.step"), cmds), "count"),
        "bdi.oa_backlog": (ratio(t.counted("oa_backlog"), t.counted("oa_steps")), "count"),
        "runtime.round_self_us": (
            ratio(t.total("runtime.run_round", self_time=True), rounds) * 1e6,
            "us",
        ),
        "runtime.route_us_per_envelope": (ratio(t.total("runtime.route"), envelopes) * 1e6, "us"),
        "runtime.envelopes_per_cmd": (ratio(envelopes, cmds), "count"),
        "runtime.is_quiescent_us": (t.per_call_us("runtime.is_quiescent"), "us"),
        "store.execute_us": (t.per_call_us("store.execute"), "us"),
        "store.query_us": (t.per_call_us("store.query"), "us"),
        "store.query_bytes": (ratio(t.counted("query_bytes"), t.calls("store.query")), "B"),
        "store.accept_ratio": (ratio(t.counted("accepted"), mutations), "ratio"),
        "store.replay_us_per_event": (
            speed.fastest(s for r in plain for s in r.replay_s) / rep.events * 1e6,
            "us",
        ),
        "agents.build_report_us": (t.per_call_us("agents.build_report"), "us"),
        "agents.store_handler_self_us": (
            t.per_call_us("agents.store_handler", self_time=True),
            "us",
        ),
        "terms.check_scalar_calls_per_cmd": (ratio(t.calls("terms.check_scalar"), cmds), "count"),
        "terms.check_scalar_us": (t.per_call_us("terms.check_scalar"), "us"),
        "terms.blob_bytes_per_cmd": (ratio(t.counted("blob_bytes"), cmds), "B"),
        "monitor.observe_us": (t.per_call_us("monitor.observe"), "us"),
        "monitor.events_per_cmd": (ratio(t.calls("monitor.observe"), cmds), "count"),
        "monitor.snapshot_ms": (t.per_call_us("monitor.check_snapshot") / 1e3, "ms"),
        "trace.append_us": (t.per_call_us("trace.append"), "us"),
        "trace.bytes_per_cmd": (rep.trace_bytes / work.commands, "B"),
        "trace.parse_us_per_line": (
            speed.fastest(s for r in plain for s in r.verify_s) / rep.trace_line_count * 1e6,
            "us",
        ),
        "scenario.parse_ms": (speed.fastest(s for r in plain for s in r.parse_s) * 1e3, "ms"),
        "scenario.loop_self_us_per_round": (
            ratio(t.total("scenario.run", self_time=True), rounds) * 1e6,
            "us",
        ),
        "tracing.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, per-rep samples included, here")
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"error: no unimas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from layers import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](args.seed)

    plain: list[Rep] = []
    traced: list[Rep] = []
    tracer = Tracer() if args.trace else None
    first = run_rep(work)
    judged = judge(work, first)
    plain.append(first)
    reference = (first.trace_sha, first.result.store.dump(), first.replayed_dump, first.offline)

    deadline = perf_counter() + args.seconds
    while len(plain) + len(traced) < MIN_REPS or perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                rep = run_rep(work, tracer)
            finally:
                tracer.uninstall()
            traced.append(rep)
        else:
            rep = run_rep(work)
            plain.append(rep)
        # reps are deterministic: each must repeat the judged first one
        if (rep.trace_sha, rep.result.store.dump(), rep.replayed_dump, rep.offline) != reference:
            judged.problems.append("a repetition produced other outputs than the first")
        rep.result = rep.trace_lines = rep.replayed_dump = None  # keep only the timings

    reps = plain + traced
    if tracer is not None:
        metrics = per_layer(work, tracer, traced, plain[1:])
    else:
        metrics = end_to_end(work, first, plain[1:], judged)
    for problem in judged.problems:
        print(f"check failed: {problem}")
    print(
        f"# workload={work.name} seed={work.seed} commands={work.commands} reps={len(reps)} "
        f"traced={len(traced)} max_reply_rounds={judged.latencies[-1]} "
        f"calibration_ms={Speed(plain[1:]).calibration_s * 1e3:.4g} "
        f"python={sys.version.split()[0]} nproc={os.cpu_count()}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    record = {
        "correct": not judged.problems,
        "attempted": work.commands * len(reps),
        "failed": judged.failed * len(reps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        detail = dict(record, workload=work.name, seed=work.seed, problems=judged.problems)
        detail["reps"] = [
            {
                "setup_s": r.setup_s,
                "live_s": r.live_s,
                "live_segments": r.live_segments,
                "verify_s": r.verify_s,
                "replay_s": r.replay_s,
                "calibration_s": r.calibration_s,
            }
            for r in reps
        ]
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
