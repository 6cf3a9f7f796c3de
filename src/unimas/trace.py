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
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from typing import NamedTuple

KINDS = ("envelope", "domain_event", "refusal", "session_open", "session_close", "snapshot")
KIND_SET = frozenset(KINDS)

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
        return _lines((self,))[:-1]

    @staticmethod
    def parse(line: str) -> "TraceEvent":
        try:
            rnd, seq, kind, sender, receiver, performative, conversation, content = line.split("|")
        except ValueError:
            raise ValueError(f"bad trace line: {line!r}") from None
        if kind not in KIND_SET:
            raise ValueError(f"unknown trace kind: {kind}")
        return tuple.__new__(
            TraceEvent,
            (int(seq), int(rnd), kind, sender, receiver, performative, conversation, content),
        )


def _lines(events: Iterable[TraceEvent]) -> str:
    """The one definition of the line format: each event's line, newline-ended."""
    return "".join(
        [f"{rnd}|{seq}|{kind}|{sender}|{receiver}|{performative}|{conversation}|{content}\n"
         for seq, rnd, kind, sender, receiver, performative, conversation, content in events]
    )


#: Lines per block: ``TraceLog`` renders each full block into one string.
BLOCK_LINES = 256


class TraceLog:
    """Keeps events in blocks of ``BLOCK_LINES`` lines, each full block
    rendered at once into one string and the rest when read; the ``# config``
    header is the first line of the first block.  ``next_seq`` is the global
    sequence number of the next event, which ``World.emit`` assigns.  Each of
    ``readers`` gets a block's events when it is rendered, the rest at the first ``close``."""

    def __init__(self, header: str = "") -> None:
        self._blocks: list[str] = []  # each ends in a newline
        self._head = f"# config {header}\n" if header else ""  # until the first block is full
        self._tail: list[TraceEvent] = []
        self._end = ""
        self.next_seq = 0
        self.readers: list[Callable[[list[TraceEvent]], None]] = []

    def append(self, event: TraceEvent) -> None:
        tail = self._tail
        tail.append(event)
        if len(tail) + bool(self._head) == BLOCK_LINES:  # the header is a line of the first block
            self._blocks.append(self._head + _lines(tail))
            self._head = ""
            self._tail = []  # a new list, so a reader that raises leaves the log whole
            for read in self.readers:
                read(tail)

    def close(self, complete: bool) -> None:
        if not self._end:  # the first close hands over the rest
            for read in self.readers:
                read(self._tail)
        self._end = f"# end complete={'true' if complete else 'false'}\n"

    def blocks(self) -> Iterator[str]:
        """The text in pieces of whole lines, in order."""
        yield from self._blocks
        if rest := self._head + _lines(self._tail) + self._end:
            yield rest

    def text(self) -> str:
        return "".join(self.blocks())

    def sha256(self) -> str:
        """The digest of ``text()``, fed one block at a time."""
        digest = hashlib.sha256()
        for block in self.blocks():
            digest.update(block.encode())
        return digest.hexdigest()


class ParsedTrace:
    """A trace's config header, its events and its completion flag.

    The header is read from the ``#`` lines before the first event, where
    ``TraceLog`` writes it, and the ``# end`` trailer from the last one.
    Iterating the trace yields its events once, each parsed as it is
    reached, so a bad line raises ``ValueError`` there; ``complete`` is
    known once the events have been read, whether the lines come as a list
    or from a one-shot iterator (an open file).
    """

    def __init__(self, lines: Iterable[str]) -> None:
        self.header = ""
        self.complete = False
        rest = iter(lines)
        for raw in rest:  # the metadata before the first event
            line = raw.rstrip("\n")
            if line and line[0] != "#":
                rest = chain((raw,), rest)
                break
            self._note(line)
        self._lines = rest

    def _note(self, line: str) -> None:
        if line.startswith("# config "):
            self.header = line[len("# config "):]
        elif line.startswith("# end "):
            self.complete = line.endswith("complete=true")

    def __iter__(self) -> Iterator[TraceEvent]:
        parse = TraceEvent.parse
        for line in self._lines:
            if line[-1:] == "\n":
                line = line.rstrip("\n")
            if line and line[0] != "#":
                yield parse(line)
            else:
                self._note(line)


def parse_trace(lines: Iterable[str]) -> ParsedTrace:
    return ParsedTrace(lines)
