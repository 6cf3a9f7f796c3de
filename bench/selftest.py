"""Self-test of the output checks: each must pass on real output and fail
on a tampered copy of it.

    python3 bench/selftest.py

Runs each workload once (seed 0, about ten seconds in all), confirms that
every check passes, then tampers with one output at a time and confirms
that the matching check reports it.  Exits 1 if a check passes real
output as bad or misses a tampering.
"""

from __future__ import annotations

import base64
import sys

import run

Tamper = tuple[str, object]  # (description, problems found: list or failed count)


def reply_index(lines: list[str], conversation: str) -> int:
    """Index of the reply envelope to the gateway on a conversation."""
    for i, line in enumerate(lines):
        p = line.split("|")
        if len(p) == 8 and p[2] == "envelope" and p[4] == "GW" and p[6] == conversation:
            return i
    raise LookupError(conversation)


def with_field(line: str, index: int, value: str) -> str:
    parts = line.split("|", 7)
    parts[index] = value
    return "|".join(parts)


def common_tampers(checks, work, rep, judged) -> list[Tamper]:
    result = rep.result
    live = [v.render() for v in result.verdicts]
    lines = rep.trace_lines
    out: list[Tamper] = []

    violated = [live[0].replace("|holds|", "|violated|")] + live[1:]
    out.append(("a live verdict violated", checks.check_verdicts(violated, violated)))
    out.append(("offline verdicts differ", checks.check_verdicts(live, rep.offline[:-1])))

    dump = result.store.dump()
    out.append(("replayed dump one byte off", checks.check_replay(dump, dump[:-2] + "\n")))

    at = reply_index(lines, "GW:3")
    dropped = lines[:at] + lines[at + 1 :]
    out.append(("a reply dropped", checks.check_one_reply(checks.gateway_replies(dropped), work.commands)))
    doubled = lines[: at + 1] + lines[at:]
    out.append(("a reply doubled", checks.check_one_reply(checks.gateway_replies(doubled), work.commands)))

    failing = lines[:at] + [with_field(lines[at], 5, "failure")] + lines[at + 1 :]
    failed = checks.failed_commands(checks.gateway_replies(failing), work.commands, work.cfg.liveness_k)
    out.append(("a failure reply", ["counted as failed"] if failed == judged.failed + 1 else []))
    late_round = str(int(lines[at].split("|")[0]) + work.cfg.liveness_k + 1)
    late = lines[:at] + [with_field(lines[at], 0, late_round)] + lines[at + 1 :]
    failed = checks.failed_commands(checks.gateway_replies(late), work.commands, work.cfg.liveness_k)
    out.append(("a reply after K rounds", ["counted as failed"] if failed == judged.failed + 1 else []))
    if work.name != "session_rush":
        out.append(("a reply after LAG rounds", checks.check_lag(checks.gateway_replies(late))))
    return out


def term_mix_tampers(checks, work, rep) -> list[Tamper]:
    outcomes = run.outcome_pairs(rep.result)
    dump = rep.result.store.dump()
    reg = next(
        i
        for i, (line, (status, _)) in enumerate(zip(work.text.splitlines(), outcomes))
        if line.startswith("REGISTER_STUDENT ") and status == "ok"
    )
    refused = outcomes[:reg] + [("refused", "Student Already Registerd")] + outcomes[reg + 1 :]
    lines = dump.splitlines()
    log = next(i for i, line in enumerate(lines) if line.startswith("lecture_logs|"))
    more = lines[:log] + [lines[log].replace("lectures_delivered=", "lectures_delivered=1")] + lines[log + 1 :]
    student = next(i for i, line in enumerate(lines) if line.startswith("students|"))
    renamed = lines[:student] + [lines[student].replace("st_id=3520", "st_id=3521")] + lines[student + 1 :]
    return [
        ("a registration refused", checks.check_term_mix(work, refused, dump)),
        ("a lecture total changed", checks.check_term_mix(work, outcomes, "\n".join(more) + "\n")),
        ("a national id changed", checks.check_term_mix(work, outcomes, "\n".join(renamed) + "\n")),
    ]


def session_rush_tampers(checks, work, rep) -> list[Tamper]:
    outcomes = run.outcome_pairs(rep.result)
    grant = next(i for i, (s, d) in enumerate(outcomes) if d.startswith("ok(") and d != "ok()")
    busy = next(i for i, (_, d) in enumerate(outcomes) if d == "busy")
    sid = int(outcomes[grant][1][3:-1])
    other_sid = outcomes[:grant] + [("ok", f"ok({sid + 1})")] + outcomes[grant + 1 :]
    granted = outcomes[:busy] + [("ok", "ok(999)")] + outcomes[busy + 1 :]
    return [
        ("a session id changed", checks.check_session_rush(work, other_sid)),
        ("a busy refusal granted", checks.check_session_rush(work, granted)),
    ]


def report_heavy_tampers(checks, work, rep) -> list[Tamper]:
    outcomes = run.outcome_pairs(rep.result)
    dump = rep.result.store.dump()
    index = work.final_reports["admissions_per_year"]
    status, content = outcomes[index]
    kind, nrows, blob = content[len("report(") : -1].split(",")
    text = checks.decode(blob).replace("|", "|1", 2)
    forged = "B" + base64.urlsafe_b64encode(text.encode()).decode()
    wrong = outcomes[:index] + [(status, f"report({kind},{nrows},{forged})")] + outcomes[index + 1 :]
    lines = rep.trace_lines
    write = next(i for i, line in enumerate(lines) if line.split("|")[2:3] == ["domain_event"])
    last_seq = max(int(line.split("|")[1]) for line in lines if not line.startswith("#"))
    late_write = lines[:-1] + [with_field(lines[write], 1, str(last_seq + 1))] + lines[-1:]
    return [
        ("a final report row changed", checks.check_report_heavy(work, wrong, dump, lines)),
        ("a write after the drain point", checks.check_drained(work, late_write)),
    ]


def main() -> int:
    if not run.use_sources():
        print("error: run from a checkout with src/unimas", file=sys.stderr)
        return 2
    import checks
    from workloads import WORKLOADS

    bad = 0
    specific = {
        "term_mix": term_mix_tampers,
        "report_heavy": report_heavy_tampers,
        "session_rush": session_rush_tampers,
    }
    for name, generate in WORKLOADS.items():
        work = generate(0)
        rep = run.run_rep(work)
        judged = run.judge(work, rep)
        print(f"{name}: real output: {'passes' if not judged.problems else judged.problems}")
        bad += bool(judged.problems)
        for what, problems in common_tampers(checks, work, rep, judged) + specific[name](
            checks, work, rep
        ):
            caught = bool(problems)
            bad += not caught
            print(f"  {'caught' if caught else 'MISSED'}: {what}")
    print("selftest", "ok" if not bad else f"failed ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
