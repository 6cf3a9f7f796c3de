"""The single database behind the orchestrator: validated commands, an
append-only journal, deterministic replay, and session admission control.

Commands are validated first (refusals touch nothing), then journaled,
then applied.  A command is read once, as wire text: ``_normalize`` zips
its args (the request term's args, in schema order) with the schema into
one ``dict[str, str]``, the text the journal and the trace carry, and
validation, the journal record and ``_mutate`` all read that dict.  The
schema is the one place that knows a field is a number: an int field must
be ASCII decimal text (``-?[0-9]+``) and is kept in canonical form
(``02025`` becomes ``2025``); text fields are kept as written.  Numbers are
compared as ``int(text)``; rows are spread from the dict and stay text, so
dumps stay canonical, under the int-tuple key each write computes;
``dump`` renders them in key order.
``replay`` folds a journal back into an identical store by passing each
record's text straight to ``_mutate``, without validation, since
journaled events are facts.  A report query ``query(kind)`` is answered
with ``rows(<blob>,<kind>)``, only the aggregate rows of that report: the
per-year reports read counters that ``_mutate`` maintains on every write
(so ``replay`` rebuilds them), and the others read the live tables, a
table size or the lecture-log rows.  Each journal record carries the
conversation of the request that caused it (``_conv``), which reads back
as its command's conversation.
"""

from __future__ import annotations

import datetime
import re
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .config import RunConfig
from .terms import Command, Refusal, Term, encode_blob, refusal_line

# Refusal reason literals; the odd spellings are load-bearing.
ALREADY_REGISTERED = "Student Already Registerd"
TEACHER_ALREADY_REGISTERED = "Teacher Already Registerd"
BUSY = "busy"
UNAUTHORIZED = "unauthorized access"
DUPLICATE_ADMISSION = "duplicate admission request"
SAME_TIMING = "same timing"
TEACHER_CONFLICT = "teacher time conflict"
INSUFFICIENT_LECTURES = "insufficient lectures"
SAME_DATE = "same date conflict"
INCOMPLETE = "incomplete record"
MARKS_BOUNDS = "marks out of bounds"


@dataclass(frozen=True)
class Field:
    """A command field; it is required unless it has a default."""

    name: str
    int_typed: bool = False
    default: str | None = None


# Command vocabulary: field order is canonical for journal and trace lines.
SCHEMAS: dict[str, tuple[Field, ...]] = {
    "open_session": (Field("dpt_id"),),
    "close_session": (Field("sid", int_typed=True),),
    "add_student": (Field("st_id"), Field("name"), Field("dpt_id")),
    "add_teacher": (Field("name"), Field("designation"), Field("contact"), Field("email")),
    "admit": (
        Field("student_id", int_typed=True),
        Field("p_id", int_typed=True),
        Field("year", int_typed=True, default="1"),
    ),
    "add_program": (
        Field("name"),
        Field("session"),
        Field("semester_count", int_typed=True),
        Field("fee", int_typed=True),
    ),
    "add_class": (
        Field("p_id", int_typed=True),
        Field("semester", int_typed=True),
        Field("subject"),
        Field("day", int_typed=True),
        Field("period", int_typed=True),
    ),
    "assign_teacher": (Field("class_id", int_typed=True), Field("teacher_id", int_typed=True)),
    "deliver_lecture": (
        Field("class_id", int_typed=True),
        Field("subject"),
        Field("times", int_typed=True, default="1"),
    ),
    "schedule_exam": (
        Field("term"),
        Field("class_id", int_typed=True),
        Field("subject"),
        Field("date"),
    ),
    "record_result": (
        Field("student_id", int_typed=True),
        Field("class_id", int_typed=True),
        Field("subject"),
        Field("marks", int_typed=True),
        Field("year", int_typed=True, default="1"),
    ),
    "query": (Field("q"),),
}

TABLE_FIELDS: dict[str, tuple[str, ...]] = {
    "students": ("student_id", "st_id", "name", "dpt_id", "program_id", "admit_year"),
    "teachers": ("teacher_id", "name", "designation", "contact", "email"),
    "programs": ("p_id", "name", "session", "semester_count"),
    "fees": ("p_id", "semester", "amount"),
    "classes": ("class_id", "p_id", "semester", "subject", "day", "period", "teacher_id"),
    "lecture_logs": ("class_id", "subject", "lectures_delivered"),
    "datesheet": ("class_id", "date", "term", "subject"),
    "results": ("student_id", "class_id", "subject", "marks", "year"),
    "sessions": ("sid", "dpt_id"),
}

TABLE_PK: dict[str, tuple[str, ...]] = {
    "students": ("student_id",),
    "teachers": ("teacher_id",),
    "programs": ("p_id",),
    "fees": ("p_id", "semester"),
    "classes": ("class_id",),
    "lecture_logs": ("class_id",),
    "datesheet": ("class_id", "date"),
    "results": ("student_id", "class_id"),
    "sessions": ("sid",),
}

#: Fields that may legitimately be empty in a persisted row.
OPTIONAL_ROW_FIELDS = {
    "students": ("program_id", "admit_year"),
    "classes": ("teacher_id",),
}

Row = dict[str, str]

#: the text an int field takes
_INT = re.compile(r"-?[0-9]+")
_new = tuple.__new__  # a NamedTuple from its fields, past its Python-level __new__

#: trace kind of an accepted command's event, where it is not domain_event
_EVENT_KINDS = {"open_session": "session_open", "close_session": "session_close"}


class Outcome(NamedTuple):
    result: Term | Refusal
    draft: tuple[str, str] | None = None  # (trace kind, content); None for an accepted query

    @property
    def accepted(self) -> bool:
        return not isinstance(self.result, Refusal)


class JournalCorruption(Exception):
    def __init__(self, seq: int, detail: str) -> None:
        super().__init__(f"journal corrupt at seq {seq}: {detail}")
        self.seq = seq


def _crc(payload: str) -> str:
    return f"{zlib.crc32(payload.encode()) & 0xFFFFFFFF:08x}"


def journal_line(seq: int, command: Command, args_text: str) -> str:
    """The journal record of ``command``, whose rendered args are ``args_text``."""
    # _conv ties the event back to the request that caused it, which is how
    # crash recovery tells re-drivable commands from durable ones.
    payload = f"{seq}|{command.name}|{args_text},_conv={command.conversation}"
    return f"{payload}|{_crc(payload)}"


#: ``table|pk|field=value,...``, the dump line of a row; every row holds
#: every field of its table
_ROW_FORMATS = {
    table: f"{table}|{':'.join(f'{{{f}}}' for f in TABLE_PK[table])}|"
    + ",".join(f"{f}={{{f}}}" for f in fields)
    for table, fields in TABLE_FIELDS.items()
}


# -- report queries: aggregate rows, from counters or the live tables -----

Rows = list[tuple[str, str]]


def _per_year(counts: Counter[int]) -> Rows:
    return [(str(year), str(n)) for year, n in sorted(counts.items()) if n]


def _admissions_per_year(store: Store) -> Rows:
    return _per_year(store._admissions)


def _graduates_per_year(store: Store) -> Rows:
    return _per_year(store._graduates)


def _attendance(store: Store) -> Rows:
    # class ids rise, so dict order is key order
    logs = store.tables["lecture_logs"].values()
    return [(f"{log['class_id']}:{log['subject']}", log["lectures_delivered"]) for log in logs]


def _teacher_student_counts(store: Store) -> Rows:
    tables = store.tables
    return [("teachers", str(len(tables["teachers"]))), ("students", str(len(tables["students"])))]


def _student_count(store: Store) -> Rows:
    return [("students", str(len(store.tables["students"])))]


#: ``query(q=<report kind>)``: the aggregate rows each report is built from.
REPORT_QUERIES = {
    "graduates_per_year": _graduates_per_year,
    "admissions_per_year": _admissions_per_year,
    "attendance": _attendance,
    "teacher_student_ratio": _teacher_student_counts,
    "lab_student_ratio": _student_count,
}


class Store:
    def __init__(self, cfg: RunConfig | None = None) -> None:
        self.cfg = cfg or RunConfig()
        self.tables: dict[str, dict[tuple, Row]] = {name: {} for name in TABLE_FIELDS}
        self.journal_lines: list[str] = []
        self.next_sid = 1  # sessions close; any other next id is len(table) + 1
        # uniqueness indexes, maintained by _mutate so replay rebuilds them
        self._st_ids: set[str] = set()
        self._emails: set[str] = set()
        self._slots: set[tuple[str, str, str, str]] = set()
        self._teacher_slots: dict[tuple[str, str, str], str] = {}  # -> class_id
        # report aggregates, maintained by _mutate so replay rebuilds them
        self._admissions: Counter[int] = Counter()  # admit_year -> students
        self._final_program: dict[str, str] = {}  # final-semester class_id -> p_id
        self._finals: Counter[str] = Counter()  # p_id -> final-semester classes
        # (student_id, p_id) -> final class_id -> year of the student's result
        self._final_years: dict[tuple[str, str], dict[str, int]] = defaultdict(dict)
        self._graduated: dict[str, dict[str, int]] = defaultdict(dict)  # p_id -> student_id -> year
        self._graduates: Counter[int] = Counter()  # graduation year -> students

    # -- reads ---------------------------------------------------------

    def dump(self) -> str:
        lines = [
            _ROW_FORMATS[table].format_map(rows[key])
            for table, rows in sorted(self.tables.items())
            for key in sorted(rows)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def open_session_count(self) -> int:
        return len(self.tables["sessions"])

    # -- command pipeline ----------------------------------------------

    def _injected(self, flag: str) -> bool:
        return self.cfg.inject == flag

    def _normalize(self, command: Command) -> tuple[dict[str, str], Refusal | None]:
        """Name the args by the schema, fill defaults, check completeness and
        int fields; the args as wire text in schema order, the text the
        journal and the trace carry, with each int field in canonical form."""
        schema = SCHEMAS.get(command.name)
        if schema is None or len(command.args) != len(schema):
            return {}, Refusal("malformed command", fault=True)
        args: dict[str, str] = {}
        for f, v in zip(schema, command.args):
            if v == "":
                if f.default is not None:
                    v = f.default
                elif not self._injected("p9"):
                    return {}, Refusal(INCOMPLETE)
            elif f.int_typed and not (v.isdigit() and v.isascii() and (v[0] != "0" or v == "0")):
                if not _INT.fullmatch(v):  # any text but canonical ASCII digits comes here
                    return {}, Refusal(f"invalid field {f.name}", fault=True)
                if (canonical := str(int(v))) != v:
                    v = canonical
            args[f.name] = v
        return args, None

    def execute(self, command: Command) -> Outcome:
        """Validate and apply one command; queries are read-only."""
        name = command.name
        a, refusal = self._normalize(command)
        if refusal is None:
            try:
                refusal = self._validate(name, a)
            except (ValueError, KeyError):
                # reachable only with p9 injected and an int field left empty
                refusal = Refusal("invalid field", fault=True)
        if refusal is not None:
            return _new(Outcome, (refusal, ("refusal", refusal_line(name, refusal.reason))))

        if name == "query":
            return self._run_query(a["q"])
        args_text = ",".join([f"{k}={v}" for k, v in a.items()])
        seq = len(self.journal_lines) + 1
        self.journal_lines.append(journal_line(seq, command, args_text))  # journal first
        reply, extra = self._mutate(name, a)
        if extra:  # every command has a field, so args_text is never empty
            args_text = f"{args_text},{extra}"
        kind = _EVENT_KINDS.get(name, "domain_event")
        return _new(Outcome, (reply, (kind, f"{name}({args_text})")))

    def _run_query(self, kind: str) -> Outcome:
        text = "".join(f"{label}|{value}\n" for label, value in REPORT_QUERIES[kind](self))
        return Outcome(result=Term("rows", (encode_blob(text), kind)))

    # -- validation (business rules; skipped checks are fault injection) --

    def _validate(self, name: str, a: dict[str, str]) -> Refusal | None:
        """Numbers are compared as ``int(a[k])``, text as its wire text."""
        t = self.tables
        if name == "open_session":
            if a["dpt_id"] not in self.cfg.cs_roster and not self._injected("p3"):
                return Refusal(UNAUTHORIZED)
            if self.open_session_count() >= self.cfg.cap and not self._injected("p2"):
                return Refusal(BUSY)
        elif name == "close_session":
            if (int(a["sid"]),) not in t["sessions"]:
                return Refusal("unknown session", fault=True)
        elif name == "add_student":
            if a["st_id"] in self._st_ids and not self._injected("p1"):
                return Refusal(ALREADY_REGISTERED)
        elif name == "add_teacher":
            if a["email"] in self._emails:
                return Refusal(TEACHER_ALREADY_REGISTERED)
        elif name == "admit":
            student = t["students"].get((int(a["student_id"]),))
            if student is None:
                return Refusal("unknown student", fault=True)
            if (int(a["p_id"]),) not in t["programs"]:
                return Refusal("unknown program", fault=True)
            if student["program_id"] != "" and not self._injected("p4"):
                return Refusal(DUPLICATE_ADMISSION)
        elif name == "add_program":
            if a["session"] not in ("morning", "evening"):
                return Refusal("invalid field session", fault=True)
            if int(a["semester_count"]) < 1:
                return Refusal("invalid field semester_count", fault=True)
            if int(a["fee"]) < 0:
                return Refusal("invalid field fee", fault=True)
        elif name == "add_class":
            program = t["programs"].get((int(a["p_id"]),))
            if program is None:
                return Refusal("unknown program", fault=True)
            if not 1 <= int(a["semester"]) <= int(program["semester_count"]):
                return Refusal("invalid semester", fault=True)
            if not (0 <= int(a["day"]) <= 4 and 0 <= int(a["period"]) <= 7):
                return Refusal("invalid timing", fault=True)
            slot = (a["p_id"], a["semester"], a["day"], a["period"])
            if slot in self._slots and not self._injected("p6"):
                return Refusal(SAME_TIMING)
        elif name == "assign_teacher":
            target = t["classes"].get((int(a["class_id"]),))
            if target is None:
                return Refusal("unknown class", fault=True)
            teacher_id = a["teacher_id"]
            if (int(teacher_id),) not in t["teachers"]:
                return Refusal("unknown teacher", fault=True)
            holder = self._teacher_slots.get((teacher_id, target["day"], target["period"]))
            if holder is not None and holder != target["class_id"]:
                return Refusal(TEACHER_CONFLICT)
        elif name in ("deliver_lecture", "schedule_exam"):
            class_id = int(a["class_id"])
            cls = t["classes"].get((class_id,))
            if cls is None:
                return Refusal("unknown class", fault=True)
            if a["subject"] != cls["subject"]:
                return Refusal("unknown subject", fault=True)
            if name == "deliver_lecture":
                if int(a["times"]) < 1:
                    return Refusal("invalid field times", fault=True)
            else:
                term, date = a["term"], a["date"]
                if term not in ("mid", "final"):
                    return Refusal("invalid field term", fault=True)
                if not _canonical_date(date):
                    return Refusal("invalid field date", fault=True)
                delivered = int(t["lecture_logs"][(class_id,)]["lectures_delivered"])
                minimum = (
                    self.cfg.min_lectures_mid if term == "mid" else self.cfg.min_lectures_final
                )
                if delivered < minimum and not self._injected("p7"):
                    return Refusal(INSUFFICIENT_LECTURES)
                if (class_id, date) in t["datesheet"] and not self._injected("p8"):
                    return Refusal(SAME_DATE)
        elif name == "record_result":
            student = t["students"].get((int(a["student_id"]),))
            if student is None:
                return Refusal("unknown student", fault=True)
            if student["program_id"] == "":
                return Refusal("student not admitted", fault=True)
            cls = t["classes"].get((int(a["class_id"]),))
            if cls is None:
                return Refusal("unknown class", fault=True)
            subject = a["subject"]
            if subject != cls["subject"]:
                return Refusal("unknown subject", fault=True)
            lo, hi = self.cfg.marks_bounds(subject)
            if not lo <= int(a["marks"]) <= hi and not self._injected("p10"):
                return Refusal(MARKS_BOUNDS)
        elif name == "query":
            if a["q"] not in REPORT_QUERIES:
                return Refusal("unknown query", fault=True)
        return None

    # -- mutation (also the replay path; never validates) ----------------

    def _grade(self, student_id: str, p_id: str) -> None:
        """Recount one student's graduation from one program: they graduate
        in the year of their latest final-semester result once they are in
        the program and every final-semester class of it has their result."""
        year = self._graduated[p_id].pop(student_id, None)
        if year is not None:
            self._graduates[year] -= 1
        years = self._final_years.get((student_id, p_id))
        enrolled = self.tables["students"][(int(student_id),)]["program_id"] == p_id
        if enrolled and years and len(years) == self._finals[p_id]:
            year = max(years.values())
            self._graduated[p_id][student_id] = year
            self._graduates[year] += 1

    def _mutate(self, name: str, a: dict[str, str]) -> tuple[Term, str]:
        """Apply an accepted command, its args as wire text; returns (reply,
        extra trace kv).  Each row is stored under its int-tuple key."""
        t = self.tables
        if name == "open_session":
            sid = self.next_sid
            self.next_sid += 1
            t["sessions"][(sid,)] = {"sid": str(sid), **a}
            return _new(Term, ("ok", (str(sid),))), f"sid={sid}"
        if name == "close_session":
            t["sessions"].pop((int(a["sid"]),), None)
            return _new(Term, ("ok", ())), ""
        if name == "add_student":
            student_id = len(t["students"]) + 1
            self._st_ids.add(a["st_id"])
            t["students"][(student_id,)] = {
                "student_id": str(student_id),
                **a,
                "program_id": "",
                "admit_year": "",
            }
            return _new(Term, ("ok", (str(student_id),))), f"student_id={student_id}"
        if name == "add_teacher":
            teacher_id = len(t["teachers"]) + 1
            self._emails.add(a["email"])
            t["teachers"][(teacher_id,)] = {"teacher_id": str(teacher_id), **a}
            return _new(Term, ("ok", (str(teacher_id),))), f"teacher_id={teacher_id}"
        if name == "admit":
            student = t["students"][(int(a["student_id"]),)]
            left = student["program_id"]  # set only on a re-admission, under p4
            if left:
                self._admissions[int(student["admit_year"])] -= 1
            student["program_id"], student["admit_year"] = a["p_id"], a["year"]
            self._admissions[int(a["year"])] += 1
            if left:  # a first admission has no results yet to count
                self._grade(student["student_id"], left)
                self._grade(student["student_id"], a["p_id"])
            return _new(Term, ("ok", ())), ""
        if name == "add_program":
            p_id = len(t["programs"]) + 1
            program = {"p_id": str(p_id), **a}
            fee = program.pop("fee")
            t["programs"][(p_id,)] = program
            if not self._injected("p5"):
                # fee rows are created atomically with the program
                for semester in range(1, int(a["semester_count"]) + 1):
                    t["fees"][(p_id, semester)] = {
                        "p_id": str(p_id),
                        "semester": str(semester),
                        "amount": fee,
                    }
            return _new(Term, ("ok", (str(p_id),))), f"p_id={p_id}"
        if name == "add_class":
            p_id, semester = a["p_id"], a["semester"]
            final = t["programs"][(int(p_id),)]["semester_count"] == semester
            class_id = len(t["classes"]) + 1
            if final:
                # a new final class: nobody has its result yet
                self._final_program[str(class_id)] = p_id
                self._finals[p_id] += 1
                for year in self._graduated.pop(p_id, {}).values():
                    self._graduates[year] -= 1
            self._slots.add((p_id, semester, a["day"], a["period"]))
            t["classes"][(class_id,)] = {"class_id": str(class_id), **a, "teacher_id": ""}
            t["lecture_logs"][(class_id,)] = {
                "class_id": str(class_id),
                "subject": a["subject"],
                "lectures_delivered": "0",
            }
            return _new(Term, ("ok", (str(class_id),))), f"class_id={class_id}"
        if name == "assign_teacher":
            cls = t["classes"][(int(a["class_id"]),)]
            if cls["teacher_id"]:
                self._teacher_slots.pop((cls["teacher_id"], cls["day"], cls["period"]), None)
            cls["teacher_id"] = a["teacher_id"]
            self._teacher_slots[(cls["teacher_id"], cls["day"], cls["period"])] = cls["class_id"]
            return _new(Term, ("ok", ())), ""
        if name == "deliver_lecture":
            log = t["lecture_logs"][(int(a["class_id"]),)]
            count = int(log["lectures_delivered"]) + int(a["times"])
            log["lectures_delivered"] = str(count)
            return _new(Term, ("ok", (log["lectures_delivered"],))), f"total={count}"
        if name == "schedule_exam":
            t["datesheet"][(int(a["class_id"]), a["date"])] = a
            return _new(Term, ("ok", ())), ""
        if name == "record_result":
            student_id, class_id = a["student_id"], a["class_id"]
            t["results"][(int(student_id), int(class_id))] = a
            p_id = self._final_program.get(class_id)
            if p_id is not None:  # overwrites the year of an earlier result
                self._final_years[(student_id, p_id)][class_id] = int(a["year"])
                self._grade(student_id, p_id)
            return _new(Term, ("ok", ())), ""
        raise ValueError(f"no mutation for command {name}")


def _canonical_date(text: str) -> bool:
    """Whether ``text`` is a date in its one ISO form, ``YYYY-MM-DD``;
    ``fromisoformat`` alone also takes ``20250501`` and ``2025-W18-4``."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


def _parse_journal_line(expected_seq: int, line: str) -> tuple[str, dict[str, str], str]:
    """(command name, args as wire text, conversation) of one record."""
    parts = line.split("|")
    if len(parts) != 4:
        raise JournalCorruption(expected_seq, "bad frame")
    seq_text, name, kv, crc = parts
    if _crc(f"{seq_text}|{name}|{kv}") != crc:
        raise JournalCorruption(expected_seq, "checksum mismatch")
    if not seq_text.isdigit() or int(seq_text) != expected_seq:
        raise JournalCorruption(expected_seq, f"unexpected seq {seq_text!r}")
    if name not in SCHEMAS or name == "query":
        raise JournalCorruption(expected_seq, f"unknown event {name!r}")
    args, sep, conversation = kv.rpartition(",_conv=")
    if not sep:
        raise JournalCorruption(expected_seq, "no conversation")
    try:
        return name, dict(pair.split("=", 1) for pair in args.split(",")), conversation
    except ValueError as exc:
        raise JournalCorruption(expected_seq, f"bad command args {args!r}") from exc


def journal_conversations(journal: list[str]) -> list[str]:
    """The conversation of each record of a valid journal, in order."""
    return [_parse_journal_line(seq, line)[2] for seq, line in enumerate(journal, 1)]


def recover(journal: list[str], cfg: RunConfig | None = None) -> tuple[Store, int | None]:
    """Fold the valid prefix of a journal into a fresh store.

    Returns (store, None) for a clean journal, or (store built from the
    prefix, seq of the first bad record) when corruption is found.
    """
    store = Store(cfg)
    for line in journal:
        expected = len(store.journal_lines) + 1
        try:
            name, args, _ = _parse_journal_line(expected, line)
            store._mutate(name, args)
        except Exception:  # JournalCorruption, or a framed record that cannot apply
            return store, expected
        store.journal_lines.append(line)
    return store, None


def replay(journal: list[str], cfg: RunConfig | None = None) -> Store:
    """Fold a journal into a fresh store; raises JournalCorruption."""
    store, bad = recover(journal, cfg)
    if bad is not None:
        raise JournalCorruption(bad, "halted at first bad record")
    return store
