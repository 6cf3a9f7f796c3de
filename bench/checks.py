"""Output checks, computed apart from the program.

Nothing here calls into the program's own validation, report or dump
parsing code: trace lines, dumps and report blobs are read with this
module's parsers, and the expected figures come from the generator's
facts or from small models of the documented rules.  Each check returns a
list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import base64
import math
from collections import defaultdict
from dataclasses import dataclass

from workloads import LAG, Workload


@dataclass(frozen=True)
class Reply:
    """One gateway request as seen on the trace."""

    command: int  # index of the scenario command
    requests: int
    replies: int
    performative: str
    latency: int  # rounds from request to reply


def decode(token: str) -> str:
    if not token.startswith("B"):
        raise ValueError(f"not a blob token: {token[:16]!r}")
    return base64.urlsafe_b64decode(token[1:]).decode()


def parse_dump(text: str) -> dict[str, list[dict[str, str]]]:
    tables: dict[str, list[dict[str, str]]] = defaultdict(list)
    for line in text.splitlines():
        table, _pk, kv = line.split("|", 2)
        tables[table].append(dict(pair.split("=", 1) for pair in kv.split(",")))
    return tables


def gateway_replies(trace_lines: list[str]) -> list[Reply]:
    """Per gateway conversation: request count, reply count, reply latency.

    A gateway conversation is ``GW:n``; the n-th request the gateway sends
    carries the n-th scenario command, since no command is refused at the
    gateway in these workloads (the first check below confirms it).
    """
    sent: dict[str, int] = {}
    requests: dict[str, int] = defaultdict(int)
    replies: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for line in trace_lines:
        if line.startswith("#"):
            continue
        rnd, _seq, kind, _sender, receiver, performative, conversation, _ = line.split("|", 7)
        if kind != "envelope" or not conversation.startswith("GW:"):
            continue
        if performative == "request":
            requests[conversation] += 1
            sent[conversation] = int(rnd)
        elif receiver == "GW":
            replies[conversation].append((int(rnd), performative))
    order = sorted(sent, key=lambda c: int(c[3:]))
    out = []
    for index, conversation in enumerate(order):
        got = replies.get(conversation, [])
        first_round, performative = got[0] if got else (sent[conversation], "none")
        out.append(
            Reply(
                command=index,
                requests=requests[conversation],
                replies=len(got),
                performative=performative,
                latency=first_round - sent[conversation],
            )
        )
    return out


def failed_commands(replies: list[Reply], commands: int, k: int) -> int:
    """No reply, a ``failure`` reply, or a reply after more than K rounds."""
    missing = commands - len(replies)
    bad = sum(
        1 for r in replies if r.replies == 0 or r.performative == "failure" or r.latency > k
    )
    return missing + bad


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- checks every workload gets -------------------------------------------


def check_verdicts(live: list[str], offline: list[str]) -> list[str]:
    problems = [f"live verdict not holding: {v}" for v in live if v.split("|")[1] != "holds"]
    if len(live) != 12:
        problems.append(f"expected 12 verdicts, got {len(live)}")
    if offline != live:
        problems.append("offline verdicts differ from the live ones")
    return problems


def check_replay(live_dump: str, replayed_dump: str) -> list[str]:
    return [] if live_dump == replayed_dump else ["replayed store dump differs from the live one"]


def check_one_reply(replies: list[Reply], commands: int) -> list[str]:
    problems = []
    if len(replies) != commands:
        problems.append(f"{commands} commands but {len(replies)} gateway requests")
    for r in replies:
        if r.requests != 1 or r.replies != 1:
            problems.append(
                f"command {r.command}: {r.requests} requests and {r.replies} replies"
            )
    return problems


def check_lag(replies: list[Reply]) -> list[str]:
    """The generator's premise: every reply lands within LAG rounds."""
    worst = max((r.latency for r in replies), default=0)
    return [] if worst < LAG else [f"a reply took {worst} rounds, the generator assumes < {LAG}"]


# -- workload-specific checks ---------------------------------------------


def check_term_mix(work: Workload, outcomes: list[tuple[str, str]], dump: str) -> list[str]:
    """Facts that hold whatever order the relays deliver in."""
    problems = []
    commands = work.text.splitlines()
    registered = sum(
        1
        for line, (status, _) in zip(commands, outcomes)
        if line.startswith("REGISTER_STUDENT ") and status == "ok"
    )
    if registered != len(work.st_ids):
        problems.append(
            f"{registered} registrations accepted, {len(work.st_ids)} distinct national ids sent"
        )
    tables = parse_dump(dump)
    if {row["st_id"] for row in tables["students"]} != work.st_ids:
        problems.append("stored national ids differ from the distinct ids sent")
    stored = {int(row["class_id"]): int(row["lectures_delivered"]) for row in tables["lecture_logs"]}
    if stored != work.lecture_totals:
        wrong = sorted(set(stored.items()) ^ set(work.lecture_totals.items()))[:3]
        problems.append(f"lecture totals differ from the sums sent, e.g. {wrong}")
    return problems


def expected_sessions(lines: list[str], cap: int) -> list[tuple[str, str]]:
    """Sequential model of the capacity guard: (status, detail) per command."""
    open_sids: set[int] = set()
    next_sid = 1
    out = []
    for line in lines:
        verb, _, arg = line.partition(" ")
        if verb == "OPEN_SESSION":
            if len(open_sids) < cap:
                open_sids.add(next_sid)
                out.append(("ok", f"ok({next_sid})"))
                next_sid += 1
            else:
                out.append(("refused", "busy"))
        elif verb == "CLOSE_SESSION":
            sid = int(arg.partition("=")[2])
            if sid in open_sids:
                open_sids.remove(sid)
                out.append(("ok", "ok()"))
            else:
                out.append(("failed", "unknown session"))
        else:
            out.append(("ok", "report"))
    return out


def check_session_rush(work: Workload, outcomes: list[tuple[str, str]]) -> list[str]:
    expected = expected_sessions(work.text.splitlines(), work.cfg.cap)
    got = [(s, "report" if d.startswith("report(") else d) for s, d in outcomes]
    problems = []
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            problems.append(f"command {index}: expected {want}, got {have}")
            if len(problems) == 3:
                break
    if len(expected) != len(got):
        problems.append(f"{len(expected)} expected outcomes, {len(got)} seen")
    grants = sum(1 for s, d in expected if d.startswith("ok(") and d != "ok()")
    busy = sum(1 for s, d in expected if d == "busy")
    if not grants or not busy:
        problems.append(f"the workload must meet grants and busy refusals ({grants}, {busy})")
    return problems


def expected_report(kind: str, tables: dict[str, list[dict[str, str]]], lab_count: int) -> list[str]:
    """A report's lines, from the documented rules over a dump."""
    students = tables["students"]
    counts: dict[int, int] = defaultdict(int)
    if kind == "admissions_per_year":
        for s in students:
            if s["admit_year"]:
                counts[int(s["admit_year"])] += 1
    elif kind == "graduates_per_year":
        # graduated once every final-semester class of the program has a
        # result; the year is that of the latest such result
        semesters = {p["p_id"]: p["semester_count"] for p in tables["programs"]}
        finals: dict[str, set[str]] = defaultdict(set)
        for c in tables["classes"]:
            if semesters.get(c["p_id"]) == c["semester"]:
                finals[c["p_id"]].add(c["class_id"])
        years: dict[str, dict[str, int]] = defaultdict(dict)
        for r in tables["results"]:
            years[r["student_id"]][r["class_id"]] = int(r["year"])
        for s in students:
            need = finals.get(s["program_id"])
            have = years.get(s["student_id"], {})
            if need and need <= have.keys():
                counts[max(have[c] for c in need)] += 1
    elif kind == "attendance":
        logs = sorted(tables["lecture_logs"], key=lambda log: int(log["class_id"]))
        return [f"attendance|{l['class_id']}:{l['subject']}|{l['lectures_delivered']}" for l in logs]
    elif kind in ("teacher_student_ratio", "lab_student_ratio"):
        num = len(tables["teachers"]) if kind == "teacher_student_ratio" else lab_count
        label = "teachers_to_students" if kind == "teacher_student_ratio" else "labs_to_students"
        value = f"{num}/{len(students)}" if students else "undefined"
        return [f"{kind}|{label}|{value}"]
    return [f"{kind}|{year}|{counts[year]}" for year in sorted(counts)]


def check_report_heavy(
    work: Workload, outcomes: list[tuple[str, str]], dump: str, trace_lines: list[str]
) -> list[str]:
    problems = []
    tables = parse_dump(dump)
    for kind, index in work.final_reports.items():
        status, content = outcomes[index]
        if status != "ok" or not content.startswith("report("):
            problems.append(f"final {kind} report: {status} {content[:40]}")
            continue
        r_kind, nrows, blob = content[len("report(") : -1].split(",")
        lines = decode(blob).splitlines()
        want = expected_report(kind, tables, work.cfg.lab_count)
        if r_kind != kind or int(nrows) != len(lines) or lines != want:
            problems.append(f"final {kind} report differs from the one computed from the dump")
        elif kind == "graduates_per_year" and not lines:
            problems.append("graduates_per_year has no rows; the workload should make graduates")
    problems += check_drained(work, trace_lines)
    return problems


def check_drained(work: Workload, trace_lines: list[str]) -> list[str]:
    """The final reports' store queries come after the last store write."""
    finals = {f"GW:{index}" for index in work.final_reports.values()}
    last_write = -1
    first_query = None
    for line in trace_lines:
        if line.startswith("#"):
            continue
        _rnd, seq, kind, _s, receiver, performative, conversation, _ = line.split("|", 7)
        if kind in ("domain_event", "session_open", "session_close"):
            last_write = int(seq)
        elif (
            kind == "envelope"
            and receiver == "OA"
            and performative == "request"
            and conversation.rpartition(">")[2] in finals
            and first_query is None
        ):
            first_query = int(seq)
    if first_query is None or first_query < last_write:
        return ["the final reports were not sent after a drain point"]
    return []
