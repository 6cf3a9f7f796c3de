"""Naive references, independent of the code they check.

``naive_statuses`` is a full-trace property checker: quadratic scans and
recomputation everywhere, sharing no logic with unimas.monitor and reading
nothing from unimas.store, so that agreement between the two is evidence,
not tautology.  ``reference_report``
computes a report's lines from a whole store dump, apart from the store's
report queries and the report agent.  ``parse_dump`` reads a dump back
into rows, for these references and the tests.  Desk scale only.
"""

from __future__ import annotations

from collections import defaultdict

from unimas.config import RunConfig
from unimas.terms import decode_blob
from unimas.trace import ParsedTrace

# What P9 calls required, written out here rather than read from the store's
# schema, so that a field the store makes optional by mistake still shows.

#: the fields an accepted command must not leave empty, by command
REQUIRED_COMMAND_FIELDS = {
    "add_student": ("st_id", "name", "dpt_id"),
    "add_teacher": ("name", "designation", "contact", "email"),
    "admit": ("student_id", "p_id"),
    "add_program": ("name", "session", "semester_count", "fee"),
    "add_class": ("p_id", "semester", "subject", "day", "period"),
    "assign_teacher": ("class_id", "teacher_id"),
    "deliver_lecture": ("class_id", "subject"),
    "schedule_exam": ("term", "class_id", "subject", "date"),
    "record_result": ("student_id", "class_id", "subject", "marks"),
}

#: the store's tables, each with the fields a persisted row must not leave empty
REQUIRED_ROW_FIELDS = {
    "students": ("student_id", "st_id", "name", "dpt_id"),
    "teachers": ("teacher_id", "name", "designation", "contact", "email"),
    "programs": ("p_id", "name", "session", "semester_count"),
    "fees": ("p_id", "semester", "amount"),
    "classes": ("class_id", "p_id", "semester", "subject", "day", "period"),
    "lecture_logs": ("class_id", "subject", "lectures_delivered"),
    "datesheet": ("class_id", "date", "term", "subject"),
    "results": ("student_id", "class_id", "subject", "marks", "year"),
    "sessions": ("sid", "dpt_id"),
}


def _kv(content: str) -> tuple[str, dict[str, str]]:
    name, _, inner = content[:-1].partition("(")
    out: dict[str, str] = {}
    for pair in inner.split(","):
        if pair:
            k, _, v = pair.partition("=")
            out[k] = v
    return name, out


def parse_dump(dump: str) -> dict[str, list[dict[str, str]]]:
    """The rows of a store dump by table, in dump order, each field as its dump text."""
    tables: dict[str, list[dict[str, str]]] = {t: [] for t in REQUIRED_ROW_FIELDS}
    for line in dump.splitlines():
        if not line:
            continue
        table, _, kv = line.split("|", 2)
        tables[table].append(dict(p.split("=", 1) for p in kv.split(",")))
    return tables


def reference_report(kind: str, dump: str, lab_count: int) -> list[str]:
    """One report's ``kind|label|value`` lines, computed from a store dump."""
    tables = parse_dump(dump)
    students = tables["students"]
    rows: list[tuple[str, str]] = []

    if kind == "admissions_per_year":
        admitted: dict[str, int] = defaultdict(int)
        for s in students:
            if s["admit_year"]:
                admitted[s["admit_year"]] += 1
        rows = [(year, str(admitted[year])) for year in sorted(admitted, key=int)]
    elif kind == "graduates_per_year":
        # A student graduates in the year their last final-semester result
        # lands, once every final-semester class of their program has one.
        by_program = {p["p_id"]: p["semester_count"] for p in tables["programs"]}
        results = {(r["student_id"], r["class_id"]): r["year"] for r in tables["results"]}
        final_classes: dict[str, list[str]] = defaultdict(list)
        for c in tables["classes"]:
            if by_program.get(c["p_id"]) == c["semester"]:
                final_classes[c["p_id"]].append(c["class_id"])
        graduated: dict[str, int] = defaultdict(int)
        for s in students:
            finals = final_classes.get(s["program_id"], ())
            years = [results.get((s["student_id"], c)) for c in finals]
            if finals and all(y is not None for y in years):
                graduated[max(years, key=int)] += 1
        rows = [(year, str(graduated[year])) for year in sorted(graduated, key=int)]
    elif kind == "attendance":
        rows = [
            (f"{log['class_id']}:{log['subject']}", log["lectures_delivered"])
            for log in tables["lecture_logs"]
        ]
    elif kind in ("teacher_student_ratio", "lab_student_ratio"):
        if kind == "teacher_student_ratio":
            label, numerator = "teachers_to_students", len(tables["teachers"])
        else:
            label, numerator = "labs_to_students", lab_count
        rows = [(label, f"{numerator}/{len(students)}" if students else "undefined")]
    else:
        raise ValueError(f"unknown report kind: {kind}")
    return [f"{kind}|{label}|{value}" for label, value in rows]


def naive_statuses(parsed: ParsedTrace, cfg: RunConfig) -> dict[str, str]:
    events = list(parsed)
    domain = [(e.seq, *_kv(e.content)) for e in events if e.kind == "domain_event"]
    statuses = {f"P{i}": "holds" for i in range(1, 13)}

    def flag(pid: str) -> None:
        statuses[pid] = "violated"

    # P1: any two accepted registrations sharing st_id
    registrations = [(seq, kv["st_id"]) for seq, name, kv in domain if name == "add_student"]
    for i, (_, a) in enumerate(registrations):
        if any(b == a for _, b in registrations[:i]):
            flag("P1")

    # P2/P3: replay the session open/close sequence
    count = 0
    for event in events:
        if event.kind == "session_open":
            _, kv = _kv(event.content)
            if count >= cfg.cap:
                flag("P2")
            if kv["dpt_id"] not in cfg.cs_roster:
                flag("P3")
            count += 1
        elif event.kind == "session_close":
            count -= 1

    # P4: two accepted admissions for one student
    admits = [kv["student_id"] for _, name, kv in domain if name == "admit"]
    if len(admits) != len(set(admits)):
        flag("P4")

    # P6: two accepted classes in one cohort slot
    slots = [
        (kv["p_id"], kv["semester"], kv["day"], kv["period"])
        for _, name, kv in domain
        if name == "add_class"
    ]
    if len(slots) != len(set(slots)):
        flag("P6")

    # P7: recount lectures before every accepted exam
    for seq, name, kv in domain:
        if name != "schedule_exam":
            continue
        delivered = sum(
            int(k2["times"])
            for s2, n2, k2 in domain
            if n2 == "deliver_lecture" and k2["class_id"] == kv["class_id"] and s2 < seq
        )
        minimum = cfg.min_lectures_mid if kv["term"] == "mid" else cfg.min_lectures_final
        if delivered < minimum:
            flag("P7")

    # P8: two accepted exams for one class on one date
    exams = [(kv["class_id"], kv["date"]) for _, name, kv in domain if name == "schedule_exam"]
    if len(exams) != len(set(exams)):
        flag("P8")

    # P9 per event: empty required field in any accepted command
    for _, name, kv in domain:
        if any(kv.get(f, "") == "" for f in REQUIRED_COMMAND_FIELDS[name]):
            flag("P9")

    # P10: accepted marks outside bounds
    for _, name, kv in domain:
        if name == "record_result":
            lo, hi = cfg.marks_bounds(kv["subject"])
            if not lo <= int(kv["marks"]) <= hi:
                flag("P10")

    # P11: malformed report replies
    for event in events:
        if event.kind == "envelope" and event.performative == "inform":
            name, _ = _kv(event.content)
            if name != "report":
                continue
            inner = event.content[len("report(") : -1].split(",")
            if len(inner) != 3:
                flag("P11")
                continue
            lines = decode_blob(inner[2]).splitlines()
            if len(lines) != int(inner[1]) or any(
                not ln.startswith(inner[0] + "|") or ln.endswith("|") for ln in lines
            ):
                flag("P11")

    # snapshot rules: P5 plus persisted P1/P6/P8/P9
    snapshots = [e for e in events if e.kind == "snapshot"]
    for snap in snapshots:
        tables = parse_dump(decode_blob(snap.content))
        fee_keys = {(r["p_id"], r["semester"]) for r in tables["fees"]}
        for program in tables["programs"]:
            for s in range(1, int(program["semester_count"]) + 1):
                if (program["p_id"], str(s)) not in fee_keys:
                    flag("P5")
        for table, rows in tables.items():
            for row in rows:
                if any(row.get(f, "") == "" for f in REQUIRED_ROW_FIELDS[table]):
                    flag("P9")
        persisted = {
            "P1": [r["st_id"] for r in tables["students"]],
            "P6": [(r["p_id"], r["semester"], r["day"], r["period"]) for r in tables["classes"]],
            "P8": [(r["class_id"], r["date"]) for r in tables["datesheet"]],
        }
        for pid, keys in persisted.items():
            if len(keys) != len(set(keys)):
                flag(pid)

    # P12: request/reply pairing and latency over the whole trace
    requests: dict[str, list[int]] = {}
    replies: dict[str, list[int]] = {}
    for event in events:
        if event.kind != "envelope":
            continue
        target = requests if event.performative == "request" else replies
        target.setdefault(event.conversation, []).append(event.round)
    for conversation, sent in requests.items():
        answered = replies.get(conversation, [])
        if len(answered) > len(sent):
            flag("P12")
        elif len(answered) < len(sent):
            if parsed.complete:
                flag("P12")
        elif answered and max(answered) - min(sent) > cfg.liveness_k:
            flag("P12")
    # a cut-off trace could still go on: P12 is open unless already violated
    if not parsed.complete and statuses["P12"] != "violated":
        statuses["P12"] = "inconclusive"
    return statuses
