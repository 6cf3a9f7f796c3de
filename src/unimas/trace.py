"""Totally ordered observation stream.

Every observable fact of a run (messages routed, store events, refusals,
session changes, state snapshots) becomes one TraceEvent, rendered as one
line:

    round|seq|kind|sender|receiver|performative|conversation|content

Lines are bit-exact and hashable; metadata lines start with ``#`` (the
config header and the completion trailer).  A trace file round-trips to
the same event objects, which is what makes offline re-verification agree
with the live monitor by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple

KINDS = ("envelope", "domain_event", "refusal", "session_open", "session_close", "snapshot")

_NA = "-"


class TraceEvent(NamedTuple):
    """One trace line as a tuple; ``parse`` and ``World.emit``, the two
    places that make events, refuse a kind outside ``KINDS``."""

    seq: int
    round: int
    kind: str
    sender: str = _NA
    receiver: str = _NA
    performative: str = _NA
    conversation: str = _NA
    content: str = _NA

    def render(self) -> str:
        seq, rnd, kind, sender, receiver, performative, conversation, content = self
        return f"{rnd}|{seq}|{kind}|{sender}|{receiver}|{performative}|{conversation}|{content}"

    @staticmethod
    def parse(line: str) -> "TraceEvent":
        parts = line.split("|")
        if len(parts) != 8:
            raise ValueError(f"bad trace line: {line!r}")
        rnd, seq, kind, sender, receiver, performative, conversation, content = parts
        if kind not in KINDS:
            raise ValueError(f"unknown trace kind: {kind}")
        return TraceEvent(
            int(seq), int(rnd), kind, sender, receiver, performative, conversation, content
        )


class TraceLog:
    """Accumulates rendered lines and assigns the global sequence."""

    def __init__(self, header: str = "") -> None:
        self.lines: list[str] = []
        self._next_seq = 0
        if header:
            self.lines.append(f"# config {header}")

    def next_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def append(self, event: TraceEvent) -> None:
        self.lines.append(event.render())

    def close(self, complete: bool) -> None:
        self.lines.append(f"# end complete={'true' if complete else 'false'}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()


@dataclass(frozen=True)
class ParsedTrace:
    header: str
    events: tuple[TraceEvent, ...]
    complete: bool


def parse_trace(lines: Iterable[str]) -> ParsedTrace:
    header = ""
    complete = False
    events: list[TraceEvent] = []
    for raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line[0] != "#":
            events.append(TraceEvent.parse(line))
        elif line.startswith("# config "):
            header = line[len("# config "):]
        elif line.startswith("# end "):
            complete = line.endswith("complete=true")
    return ParsedTrace(header=header, events=tuple(events), complete=complete)
