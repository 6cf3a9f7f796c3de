"""Scenario files and the harness that drives them through the world.

A scenario is one command per line, ``VERB key=value ...``; ``#`` starts a
comment.  EXPECT_REFUSAL binds to the last command before it, CRASH lines
skipped, and fails the run if that command was accepted; a second one for
the same command is refused.  A crash restarts the agents mid-run in the
same world, rebuilds the store from its journal, and re-drives whatever
was never acknowledged, which is exactly the no-loss story the store is
supposed to support.  There is one crash path, ``ScenarioRunner._crash``,
and the run loop calls it from one place: where the journal reaches an
explicit crash_at event index, or where a CRASH line is next with no
command in flight.  A run keeps each product once: its report lines are
read from the report replies its outcomes hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from sys import intern

from .agents import GATEWAY, REPORT_KINDS, SERVED_BY, build_world, fresh_agents, store_handler
from .config import RunConfig, with_fixed_window
from .monitor import Monitor, Verdict, exit_code as verdict_exit_code
from .runtime import register_agent, run_round
from .store import SCHEMAS, Store, journal_conversations, recover
from .terms import (
    Envelope,
    Performative,
    Term,
    check_scalar,
    conversation_id,
    decode_blob,
    refusal_line,
    served_conversation,
)
from .trace import TraceLog


class ScenarioError(Exception):
    def __init__(self, line: int, detail: str) -> None:
        super().__init__(f"line {line}: {detail}")
        self.line = line


@dataclass(frozen=True, slots=True)
class ScenarioCommand:
    verb: str
    args: tuple[tuple[str, str], ...]
    line: int = 0

    def get(self, key: str, default: str = "") -> str:
        for k, v in self.args:
            if k == key:
                return v
        return default

    def render(self) -> str:
        if not self.args:
            return self.verb
        return f"{self.verb} " + " ".join(f"{k}={v}" for k, v in self.args)


#: verb -> store command
_VERB_TO_COMMAND = {
    "OPEN_SESSION": "open_session",
    "CLOSE_SESSION": "close_session",
    "REGISTER_STUDENT": "add_student",
    "REGISTER_TEACHER": "add_teacher",
    "ADMIT": "admit",
    "ADD_PROGRAM": "add_program",
    "ADD_CLASS": "add_class",
    "ASSIGN_TEACHER": "assign_teacher",
    "DELIVER_LECTURE": "deliver_lecture",
    "SCHEDULE_EXAM": "schedule_exam",
    "RECORD_RESULT": "record_result",
}

#: Command fields whose scenario key is not the field name.
_RENAMED = {"dpt_id": "dept", "semester_count": "semesters"}

# verb -> (receiving agent, store command, (scenario key, default) per
# command field in schema order)
_VERB_COMMANDS: dict[str, tuple[str, str, tuple[tuple[str, str], ...]]] = {
    verb: (
        SERVED_BY[command],
        command,
        tuple(
            (_RENAMED.get(f.name, f.name), "" if f.default is None else f.default)
            for f in SCHEMAS[command]
        ),
    )
    for verb, command in _VERB_TO_COMMAND.items()
}

GENERATE_REPORT = "GENERATE_REPORT"
CRASH = "CRASH"
EXPECT_REFUSAL = "EXPECT_REFUSAL"

VERBS = frozenset(_VERB_COMMANDS) | {GENERATE_REPORT, CRASH, EXPECT_REFUSAL}

#: verb -> (known keys, required keys); a key with a store default is optional.
_VERB_KEYS = {
    verb: (frozenset(k for k, _ in fields), frozenset(k for k, default in fields if not default))
    for verb, (_, _, fields) in _VERB_COMMANDS.items()
}

#: Verbs allowed without an open session.
_SESSION_EXEMPT = ("OPEN_SESSION", "CLOSE_SESSION")


def parse_scenario(text: str) -> list[ScenarioCommand]:
    """The commands of a scenario text, one string per verb and key (interned).

    Each distinct ``key=value`` token is read and its value checked once;
    equal tokens share one ``(key, value)`` pair.  A token seen before is
    the same text, so only its line's duplicate-key check applies to it.
    """
    commands: list[ScenarioCommand] = []
    pairs_by_token: dict[str, tuple[str, str]] = {}
    last = ""  # the last verb other than CRASH: EXPECT_REFUSAL binds past CRASH, as in ``run``
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        verb, pairs = intern(tokens[0]), tokens[1:]
        if verb not in VERBS:
            raise ScenarioError(lineno, f"unknown verb {verb}")
        args: list[tuple[str, str]] = []
        seen: set[str] = set()
        for token in pairs:
            pair = pairs_by_token.get(token)
            fresh = pair is None
            if fresh:
                key, eq, value = token.partition("=")
                if not eq or not key:
                    raise ScenarioError(lineno, f"expected key=value, got {token!r}")
                pair = pairs_by_token[token] = (intern(key), value)
            key, value = pair
            if key in seen:
                raise ScenarioError(lineno, f"duplicate key {key}")
            if fresh and value:
                try:
                    check_scalar(value)
                except ValueError as exc:
                    raise ScenarioError(lineno, str(exc)) from exc
            seen.add(key)
            args.append(pair)
        command = ScenarioCommand(verb, tuple(args), lineno)
        _validate_keys(command, seen)
        if verb == EXPECT_REFUSAL:
            if not last:
                raise ScenarioError(lineno, "EXPECT_REFUSAL has no preceding command")
            if last == EXPECT_REFUSAL:
                raise ScenarioError(lineno, "EXPECT_REFUSAL already asserted for this command")
        if verb != CRASH:
            last = verb
        commands.append(command)
    return commands


def _validate_keys(command: ScenarioCommand, given: set[str]) -> None:
    lineno = command.line
    if command.verb == CRASH:
        if given:
            raise ScenarioError(lineno, "CRASH takes no arguments")
        return
    if command.verb == EXPECT_REFUSAL:
        if not given <= {"reason"}:
            raise ScenarioError(lineno, "EXPECT_REFUSAL takes only reason=")
        return
    if command.verb == GENERATE_REPORT:
        kind = command.get("kind")
        if given != {"kind"} or kind not in REPORT_KINDS:
            raise ScenarioError(lineno, f"GENERATE_REPORT needs kind= one of {REPORT_KINDS}")
        return
    known, required = _VERB_KEYS[command.verb]
    if not given <= known:
        raise ScenarioError(lineno, f"unknown key {sorted(given - known)[0]}")
    missing = required - given
    if missing:
        raise ScenarioError(lineno, f"missing key {sorted(missing)[0]}")


def _content_for(command: ScenarioCommand) -> tuple[str, Term]:
    """(receiver, request content with its args in schema order).

    This is where a scenario value enters the system, so each is checked
    here, once: ``fuzz`` and ``load_test`` build commands without
    ``parse_scenario``, and nothing downstream checks again.  Values pass
    as written; the store alone reads the int fields.
    """
    if command.verb == GENERATE_REPORT:
        return SERVED_BY["report"], Term("report", (check_scalar(command.get("kind")),))
    receiver, store_command, fields = _VERB_COMMANDS[command.verb]
    given = dict(command.args)
    args = tuple([check_scalar(value) if (value := given.get(key)) else default for key, default in fields])
    return receiver, tuple.__new__(Term, (store_command, args))


@dataclass(slots=True)
class CommandOutcome:
    status: str  # ok | refused | failed | gateway_refused | applied_no_reply | no_reply
    reply: Term | None = None
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.status in ("ok", "applied_no_reply")


@dataclass
class RunResult:
    cfg: RunConfig
    outcomes: list[CommandOutcome | None]
    verdicts: list[Verdict]
    expectation_failures: list[str]
    log: TraceLog
    store: Store
    rounds_used: int
    quiescent: bool
    monitor: Monitor

    @property
    def exit_code(self) -> int:
        if self.expectation_failures:
            return 2
        return verdict_exit_code(self.verdicts)

    @property
    def trace_hash(self) -> str:
        return self.log.sha256()

    @property
    def reports(self) -> list[str]:
        """The lines of every report reply, in command order.  Each report
        takes the same GW -> RPA -> OA -> RPA -> GW path, so that is also
        the order in which they came back."""
        lines: list[str] = []
        for outcome in self.outcomes:
            reply = outcome and outcome.reply
            if reply and reply.name == "report" and len(reply.args) == 3:
                lines.extend(decode_blob(reply.args[2]).splitlines())
        return lines


class ScenarioRunner:
    """Feeds scenario commands through the gateway, round by round."""

    def __init__(self, cfg: RunConfig | None = None) -> None:
        self.cfg = cfg or RunConfig()
        self.world, self.store = build_world(self.cfg)
        self.monitor = Monitor(self.cfg)
        self.world.log.readers.append(self.monitor.read)  # a block at a time; verdicts after close
        self.commands: list[ScenarioCommand] = []  # all but CRASH and EXPECT_REFUSAL
        self.pending: dict[str, int] = {}  # conversation -> command index
        self.outcomes: list[CommandOutcome | None] = []
        self.sessions_open = 0

    # -- outcome intake ---------------------------------------------------

    def _collect_replies(self) -> None:
        for env in self.world.mailboxes[GATEWAY]:
            idx = self.pending.pop(env.conversation, None)
            if idx is None:
                continue
            content, performative = env.content, env.performative
            if performative == Performative.INFORM:
                outcome = CommandOutcome("ok", reply=content)
                verb = self.commands[idx].verb
                if verb == "OPEN_SESSION":
                    self.sessions_open += 1
                elif verb == "CLOSE_SESSION":
                    self.sessions_open = max(0, self.sessions_open - 1)
            elif performative == Performative.REFUSE:
                outcome = CommandOutcome("refused", reason=decode_blob(content.args[0]))
            else:
                reason = decode_blob(content.args[0]) if content.args else "failure"
                outcome = CommandOutcome("failed", reason=reason)
            self.outcomes[idx] = outcome

    # -- command injection --------------------------------------------------

    def _inject(self, idx: int, command: ScenarioCommand) -> bool:
        """Hand one command to the gateway, or refuse it there when no
        session is open; False, handing nothing, while a session open is
        in flight."""
        if command.verb not in _SESSION_EXEMPT and self.sessions_open == 0:
            if any(self.commands[i].verb == "OPEN_SESSION" for i in self.pending.values()):
                return False  # don't jump the gun
            self.world.emit(
                "refusal",
                sender=GATEWAY,
                receiver="gateway",
                content=refusal_line(command.verb, "no open session"),
            )
            self.outcomes[idx] = CommandOutcome("gateway_refused", reason="no open session")
            return True
        receiver, content = _content_for(command)
        gw = self.world.agents[GATEWAY]
        conversation = conversation_id(GATEWAY, gw.next_seq)
        request = Envelope(GATEWAY, receiver, Performative.REQUEST, conversation, content)
        gw.adopt("issue", content.args, request)
        self.pending[conversation] = idx
        return True

    # -- crash recovery -------------------------------------------------------

    def _crash(self, torn: bool) -> list[int]:
        """Restart every agent in the same world, on the store rebuilt from its journal.

        A command in flight that the journal holds counts as done, its
        reply lost (``applied_no_reply``); the others are returned, in
        the order they were injected, to be driven again.
        """
        journal = list(self.store.journal_lines)
        if torn and journal:
            journal[-1] = journal[-1][: max(1, len(journal[-1]) // 2)]
        rebuilt, _bad = recover(journal, self.cfg)
        # journaled commands by the gateway request they serve
        applied = {served_conversation(c, c) for c in journal_conversations(rebuilt.journal_lines)}
        for state in fresh_agents(self.cfg):
            # conversation ids must stay unique across the restart
            state.next_seq = self.world.agents[state.id].next_seq
            register_agent(self.world, state)  # with an empty mailbox
        self.world.command_handler = store_handler(rebuilt)
        self.store = rebuilt
        # a snapshot of the rebuilt store marks the crash boundary on the
        # trace; the monitor re-seeds from it so re-driven commands do not
        # read as duplicates
        self.world.emit_snapshot(rebuilt.dump())
        self.sessions_open = self.store.open_session_count()
        redo = []
        for conversation, idx in self.pending.items():
            if conversation in applied:
                self.outcomes[idx] = CommandOutcome("applied_no_reply")
            else:
                redo.append(idx)
        self.pending.clear()
        return redo

    # -- main loop --------------------------------------------------------------

    def run(
        self,
        commands: list[ScenarioCommand],
        crash_at: int | None = None,
        torn: bool = False,
    ) -> RunResult:
        if crash_at is not None and crash_at < 0:
            raise ValueError(f"crash index {crash_at} is negative")
        expectations: dict[int, str | None] = {}
        plain = self.commands = []
        crash_positions: set[int] = set()  # a CRASH line comes before plain[i]
        for command in commands:
            if command.verb == EXPECT_REFUSAL:
                expectations[len(plain) - 1] = command.get("reason") or None
            elif command.verb == CRASH:
                crash_positions.add(len(plain))
            else:
                plain.append(command)

        self.outcomes = [None] * len(plain)
        # commands not yet handed to the gateway; always in index order,
        # since a crash puts the ones it re-drives, all earlier, in front
        queue = deque(range(len(plain)))
        window = self.cfg.pipeline_window
        while True:
            at = queue[0] if queue else len(plain)
            reached = crash_at is not None and len(self.store.journal_lines) >= crash_at
            if reached or (at in crash_positions and not self.pending):
                if reached:
                    crash_at = None
                else:
                    crash_positions.discard(at)
                queue.extendleft(reversed(self._crash(torn)))
                continue
            self._collect_replies()
            while queue and len(self.pending) < window and queue[0] not in crash_positions:
                if not self._inject(queue[0], plain[queue[0]]):
                    break
                queue.popleft()
            quiet = self.world.is_quiescent()
            if quiet and self.pending:
                # nothing left that could ever answer these
                for idx in self.pending.values():
                    self.outcomes[idx] = CommandOutcome("no_reply")
                self.pending.clear()
                continue
            if quiet and not queue and not crash_positions:
                break
            if self.world.round >= self.cfg.max_rounds:
                break
            run_round(self.world)

        quiescent = self.world.is_quiescent() and not self.pending
        self.world.emit_snapshot(self.store.dump())
        self.world.log.close(complete=quiescent)
        verdicts = self.monitor.finalize(trace_complete=quiescent)

        failures = []
        for idx, expected_reason in sorted(expectations.items()):
            outcome = self.outcomes[idx] if 0 <= idx < len(self.outcomes) else None
            line = plain[idx].line
            if outcome is None:
                failures.append(f"line {line}: expected refusal, no reply")
            elif outcome.accepted:
                failures.append(f"line {line}: expected refusal, command was accepted")
            elif expected_reason is not None and outcome.reason != expected_reason.replace("_", " "):
                failures.append(
                    f"line {line}: expected refusal {expected_reason!r}, got {outcome.reason!r}"
                )

        return RunResult(
            cfg=self.cfg,
            outcomes=self.outcomes,
            verdicts=verdicts,
            expectation_failures=failures,
            log=self.world.log,
            store=self.store,
            rounds_used=self.world.round,
            quiescent=quiescent,
            monitor=self.monitor,
        )


def run_scenario(
    commands: list[ScenarioCommand],
    cfg: RunConfig | None = None,
    crash_at: int | None = None,
    torn: bool = False,
) -> RunResult:
    return ScenarioRunner(cfg).run(commands, crash_at=crash_at, torn=torn)


def replay_crash(
    commands: list[ScenarioCommand],
    crash_at: int,
    cfg: RunConfig | None = None,
    torn: bool = False,
) -> bool:
    """Whether a crash and recovery leave the store dump of the
    uninterrupted run, at window 1.

    ``crash_at`` is a journal index of the uninterrupted run; one the run
    never reaches is refused, since no crash would happen there.
    """
    cfg = with_fixed_window(cfg or RunConfig(), 1, "replay-crash")
    baseline = run_scenario(commands, cfg)
    events = len(baseline.store.journal_lines)
    if not 0 <= crash_at <= events:
        raise ValueError(f"crash index {crash_at} outside the run's journal, 0..{events}")
    crashed = run_scenario(commands, cfg, crash_at=crash_at, torn=torn)
    return baseline.store.dump() == crashed.store.dump()


@dataclass(frozen=True)
class LoadSummary:
    granted: int
    busy: int
    result: RunResult


def load_test(cfg: RunConfig | None = None, clients: int = 1) -> LoadSummary:
    """Open `clients` sessions without closing, at window 64; count granted vs busy."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    cfg = with_fixed_window(cfg or RunConfig(), 64, "load")
    args = (("dept", cfg.cs_roster[0]),)
    commands = [ScenarioCommand("OPEN_SESSION", args, line=i + 1) for i in range(clients)]
    result = run_scenario(commands, cfg)
    granted = sum(1 for o in result.outcomes if o is not None and o.status == "ok")
    busy = sum(
        1 for o in result.outcomes if o is not None and o.status == "refused" and o.reason == "busy"
    )
    return LoadSummary(granted=granted, busy=busy, result=result)
