"""Runtime-verification monitor.

Consumes the totally ordered trace and decides twelve properties:

    P1  registration-uniqueness   no accepted duplicate student id
    P2  scalability-cap           open sessions never exceed the cap
    P3  access-roster             sessions only for roster departments
    P4  duplicate-admission       no accepted second admission
    P5  fee-sync                  every program semester has a fee row
    P6  time-conflict             no two cohort classes share a slot
    P7  term-thresholds           exams only after enough lectures
    P8  datesheet-conflict        one paper per class per day
    P9  no-loss/completeness      no empty required field accepted/persisted
    P10 marks-bounds              accepted marks stay within bounds
    P11 report-not-null           every produced report is well formed
    P12 bounded-liveness          every request answered exactly once in K

Properties judge accepted events and persisted state: a refusal is the
system doing its job, never a violation.  Each property is violated at its
first witness in trace order, a late or extra reply included, and stays
violated for the run.  Only P12 is left to the end of the trace: a request
still open there is violated on a complete trace, and a truncated trace,
which could still go on, is inconclusive unless already violated.  The
monitor is a pure observer; it shares no code with the store's own
validation.  ``Monitor.read`` is its one loop: offline over a trace file, live
over each ``TraceLog`` block as it is rendered and the rest at ``close``, after
which the verdicts are read.  Live, it lags fewer than ``BLOCK_LINES`` events
behind ``World.emit``, so a ``MonitorFault`` surfaces at a block boundary;
``World.observers`` remains the hook that gets each event as it is emitted.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .config import RunConfig
from .store import OPTIONAL_ROW_FIELDS, SCHEMAS, TABLE_FIELDS
from .terms import decode_blob
from .trace import ParsedTrace, TraceEvent


class PropertyId(str, Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P6 = "P6"
    P7 = "P7"
    P8 = "P8"
    P9 = "P9"
    P10 = "P10"
    P11 = "P11"
    P12 = "P12"


HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    property: PropertyId
    status: str
    witness_seq: int | None = None
    explanation: str | None = None

    def render(self) -> str:
        seq = "-" if self.witness_seq is None else str(self.witness_seq)
        return f"{self.property.value}|{self.status}|{seq}|{self.explanation or '-'}"


class MonitorFault(Exception):
    """Instrumentation bug: events arrived out of order."""


def command_fields(content: str) -> tuple[str, dict[str, str]]:
    """The name and fields of a ``domain_event`` or ``session_open`` line,
    each field as its trace text; ValueError on bad syntax."""
    if not content.endswith(")") or "(" not in content:
        raise ValueError(f"bad command syntax: {content!r}")
    name, _, inner = content[:-1].partition("(")
    fields: dict[str, str] = {}
    if inner:
        for pair in inner.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(f"bad command args: {content!r}")
            fields[key] = value
    return name, fields


#: P1, P4, P6 and P8 are one rule: no two accepted events of the command, and
#: no two rows of its table, share a key; a row names its fields as the
#: command does and counts only if its filter field is filled (P4: admitted).
#: (property, command, key fields, table, row filter, message about the key)
UNIQUE_KEYS = (
    (PropertyId.P1, "add_student", ("st_id",), "students", "", "st_id {0} registered twice"),
    (PropertyId.P4, "admit", ("student_id",), "students", "program_id", "student {0} admitted twice"),
    (PropertyId.P6, "add_class", ("p_id", "semester", "day", "period"), "classes", "",
     "slot clash p={0[0]} semester={0[1]} timing={0[2]}/{0[3]}"),
    (PropertyId.P8, "schedule_exam", ("class_id", "date"), "datesheet", "", "class {0[0]} examined twice on {0[1]}"),
)
#: command -> the fields an accepted event must not leave empty (P9), in schema order
_REQUIRED_COMMAND_FIELDS = {c: tuple(f.name for f in fs if f.default is None) for c, fs in SCHEMAS.items()}
#: table -> the fields a persisted row must not leave empty (P9), in table order
_REQUIRED_ROW_FIELDS = {
    table: tuple(f for f in fields if f not in OPTIONAL_ROW_FIELDS.get(table, ()))
    for table, fields in TABLE_FIELDS.items()
}


class Monitor:
    def __init__(self, cfg: RunConfig | None = None) -> None:
        self.cfg = cfg or RunConfig()
        self._next_seq = 0
        self._violations: dict[PropertyId, tuple[int, str]] = {}
        # mirrors built only from trace events; command -> (pid, key getter, message, key -> first seq)
        self._firsts = {c: (pid, itemgetter(*keys), msg, {}) for pid, c, keys, _, _, msg in UNIQUE_KEYS}
        # table -> (row filter, the rule above) of each rule on its rows
        self._rules = {t: [(f, self._firsts[c]) for _, c, _, u, f, _ in UNIQUE_KEYS if u == t] for t in TABLE_FIELDS}
        self._open_sessions = 0
        self._lectures: dict[str, int] = {}
        # P12's open conversations, oldest first: id -> [requests, replies, request seq, request round]
        self._conversations: dict[str, list[int]] = {}
        self.max_reply_latency = 0

    # -- verdict bookkeeping -------------------------------------------

    def _flag(self, pid: PropertyId, seq: int, explanation: str) -> None:
        if pid not in self._violations:  # monotone: first witness wins
            self._violations[pid] = (seq, explanation)

    # -- event intake ----------------------------------------------------

    def read(self, events: Iterable[TraceEvent]) -> None:
        """Observe each event in order; ``self.observe`` is looked up per call, so a class wrapper sees it."""
        observe = self.observe
        for event in events:
            observe(event)

    def observe(self, event: TraceEvent) -> None:
        seq, rnd, kind, _sender, _receiver, performative, conversation, content = event
        if seq != self._next_seq:
            raise MonitorFault(f"expected seq {self._next_seq}, saw {seq}")
        self._next_seq = seq + 1

        if kind == "envelope":
            # P12 keeps only open conversations: a late reply is flagged when
            # seen, an answered conversation is dropped, and a reply to none
            # is extra
            conversations = self._conversations
            conv = conversations.get(conversation)
            if performative == "request":
                if conv is None:
                    conversations[conversation] = [1, 0, seq, rnd]
                else:
                    conv[0] += 1
                    conv[2:] = seq, rnd
                return
            if conv is None:
                self._flag(PropertyId.P12, seq, f"extra reply on conversation {conversation}")
            else:
                requests, replies, request_seq, request_round = conv
                latency = rnd - request_round
                if latency > self.max_reply_latency:
                    self.max_reply_latency = latency
                if latency > self.cfg.liveness_k:
                    self._flag(
                        PropertyId.P12,
                        request_seq,
                        f"reply to {conversation} after {latency} rounds, bound {self.cfg.liveness_k}",
                    )
                if replies + 1 == requests:
                    del conversations[conversation]
                else:
                    conv[1] = replies + 1
            if performative == "inform" and content.startswith("report("):
                self._check_report(event)
        elif kind == "domain_event":
            self._observe_domain(event)
        elif kind == "session_open":
            self._observe_session_open(event)
        elif kind == "session_close":
            self._open_sessions = max(0, self._open_sessions - 1)
        elif kind == "snapshot":
            self.check_snapshot(decode_blob(content), seq=seq)
        # refusals carry no obligations: refusing bad input is correct

    def _check_report(self, event: TraceEvent) -> None:
        try:
            term_args = event.content[len("report(") : -1].split(",")
            if len(term_args) != 3:
                raise ValueError("report content must be (kind, nrows, blob)")
            kind, nrows_text, blob = term_args
            lines = decode_blob(blob).splitlines()
            if int(nrows_text) != len(lines):
                raise ValueError("row count mismatch")
            for line in lines:
                row_kind, _, value = line.split("|")
                if row_kind != kind or value == "":
                    raise ValueError("malformed report row")
        except (ValueError, IndexError) as exc:
            self._flag(PropertyId.P11, event.seq, f"null or malformed report: {exc}")

    def _observe_domain(self, event: TraceEvent) -> None:
        name, fields = command_fields(event.content)
        for field in _REQUIRED_COMMAND_FIELDS.get(name, ()):
            if fields.get(field, "") == "":
                self._flag(PropertyId.P9, event.seq, f"{name} accepted with empty {field}")
        get = fields.get

        unique = self._firsts.get(name)
        if unique is not None:
            pid, key_of, message, firsts = unique
            try:
                key = key_of(fields)
            except KeyError:  # a missing field reads as "", as P9 reads it
                key = key_of(defaultdict(str, fields))
            first = firsts.setdefault(key, event.seq)
            if first != event.seq:
                self._flag(pid, event.seq, f"{message.format(key)} (first at seq {first})")
        if name == "add_class":
            self._lectures[get("class_id", "")] = 0
        elif name == "deliver_lecture":
            class_id = get("class_id", "")
            self._lectures[class_id] = self._lectures.get(class_id, 0) + int(get("times") or 0)
        elif name == "schedule_exam":
            term = get("term", "")
            minimum = (
                self.cfg.min_lectures_mid if term == "mid" else self.cfg.min_lectures_final
            )
            delivered = self._lectures.get(get("class_id", ""), 0)
            if delivered < minimum:
                self._flag(
                    PropertyId.P7,
                    event.seq,
                    f"{term} exam after {delivered} lectures, minimum {minimum}",
                )
        elif name == "record_result":
            lo, hi = self.cfg.marks_bounds(get("subject", ""))
            marks = int(get("marks") or 0)
            if not lo <= marks <= hi:
                self._flag(
                    PropertyId.P10, event.seq, f"marks {marks} outside [{lo}, {hi}]"
                )

    def _observe_session_open(self, event: TraceEvent) -> None:
        dpt = command_fields(event.content)[1].get("dpt_id", "")
        if dpt not in self.cfg.cs_roster:
            self._flag(PropertyId.P3, event.seq, f"session for department {dpt} outside roster")
        if self._open_sessions >= self.cfg.cap:
            self._flag(
                PropertyId.P2,
                event.seq,
                f"session opened with {self._open_sessions} already open, cap {self.cfg.cap}",
            )
        self._open_sessions += 1

    # -- state-level rules (independent re-check over a dump) ------------

    def check_snapshot(self, dump_text: str, seq: int = 0) -> None:
        # a snapshot is ground truth for what is durable, so it re-seeds the mirrors:
        # an event lost to a torn journal write before a crash is re-driven, not a duplicate
        self._open_sessions = 0
        self._lectures = {}
        for _, _, _, firsts in self._firsts.values():
            firsts.clear()
        fee_rows: set[tuple[str, str]] = set()
        programs: list[tuple[str, str]] = []  # (p_id, semester_count) in dump order
        empty: dict[str, str] = {}  # table -> its first required field found empty
        for line in dump_text.splitlines():
            if not line:
                continue
            table, _, kv = line.split("|", 2)
            required = _REQUIRED_ROW_FIELDS.get(table)
            if required is None:
                raise ValueError(f"unknown table in dump: {table}")
            row: dict[str, str] = defaultdict(str)  # a missing field reads as empty
            for pair in kv.split(","):
                key, _, value = pair.partition("=")
                row[key] = value
            for row_filter, (pid, key_of, message, firsts) in self._rules[table]:
                if row_filter and not row[row_filter]:
                    continue
                key = key_of(row)
                if key in firsts:
                    self._flag(pid, seq, f"persisted {message.format(key)}")
                firsts[key] = seq
            if table == "sessions":
                self._open_sessions += 1
            elif table == "lecture_logs":
                self._lectures[row["class_id"]] = int(row["lectures_delivered"] or 0)
            elif table == "fees":
                fee_rows.add((row["p_id"], row["semester"]))
            elif table == "programs":
                programs.append((row["p_id"], row["semester_count"]))
            for name in required:
                if not row[name]:
                    empty.setdefault(table, name)
                    break

        for p_id, semester_count in programs:
            for semester in range(1, int(semester_count or 0) + 1):
                if (p_id, str(semester)) not in fee_rows:
                    self._flag(PropertyId.P5, seq, f"program {p_id} semester {semester} has no fee row")
        for table in TABLE_FIELDS:  # P9's first finding in TABLE_FIELDS order, not the dump's
            if table in empty:
                self._flag(PropertyId.P9, seq, f"{table} row persisted with empty {empty[table]}")

    # -- final verdicts ----------------------------------------------------

    def finalize(self, trace_complete: bool) -> list[Verdict]:
        """One verdict per property on the trace so far."""
        out: list[Verdict] = []
        for pid in PropertyId:
            if pid in self._violations:
                seq, explanation = self._violations[pid]
                out.append(Verdict(pid, VIOLATED, seq, explanation))
            elif pid is PropertyId.P12:
                out.append(self._liveness_verdict(trace_complete))
            else:
                out.append(Verdict(pid, HOLDS))
        return out

    def _liveness_verdict(self, trace_complete: bool) -> Verdict:
        """P12 with no extra or late reply: the oldest request still open is
        violated on a complete trace; a truncated trace could still go on,
        so it is inconclusive, open request or not."""
        p12 = PropertyId.P12
        if not self._conversations:
            if trace_complete:
                return Verdict(p12, HOLDS)
            return Verdict(p12, INCONCLUSIVE, None, "trace incomplete: the run did not go quiet")
        conversation, (_, _, seq, _) = next(iter(self._conversations.items()))
        if trace_complete:
            return Verdict(p12, VIOLATED, seq, f"request {conversation} never answered")
        return Verdict(p12, INCONCLUSIVE, seq, f"request {conversation} pending at truncation")


def render_verdicts(verdicts: list[Verdict]) -> str:
    return "\n".join(v.render() for v in verdicts) + "\n"


def exit_code(verdicts: list[Verdict]) -> int:
    """2 if a property is violated, else 4 if one is inconclusive (a run
    cut off before quiescence), else 0."""
    statuses = {v.status for v in verdicts}
    if VIOLATED in statuses:
        return 2
    return 4 if INCONCLUSIVE in statuses else 0


def evaluate_trace(parsed: ParsedTrace, cfg: RunConfig) -> list[Verdict]:
    """From-scratch re-evaluation of a recorded trace (the offline path)."""
    monitor = Monitor(cfg)
    monitor.read(parsed)  # parsed one line at a time
    return monitor.finalize(trace_complete=parsed.complete)
