"""Wire-level value types shared by every layer.

Everything that crosses an agent boundary (message content, store commands,
trace lines) is built from scalars: restricted text tokens, carried as
written.  A number is its decimal text; only the store's schema knows which
fields are numbers.  The restriction keeps every rendered line (trace,
journal, dump) parseable without an escaping scheme; payloads that need
arbitrary text travel as base64 blobs.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from typing import NamedTuple

# Characters that would break the line-oriented wire formats.
_FORBIDDEN = re.compile(r'[|,()" \n\r\t]')


def check_scalar(value: str) -> str:
    """Validate a term argument; raises ValueError on non-text or unsafe text."""
    if not isinstance(value, str):
        raise ValueError(f"term scalar must be str, got {type(value).__name__}")
    if _FORBIDDEN.search(value):
        raise ValueError(f"unsafe characters in term scalar: {value!r}")
    return value


def encode_blob(text: str) -> str:
    """Encode arbitrary text into a single safe, never-empty scalar token."""
    return "B" + base64.urlsafe_b64encode(text.encode()).decode()


def decode_blob(token: str) -> str:
    if not token.startswith("B"):
        raise ValueError(f"not a blob token: {token[:16]!r}")
    return base64.urlsafe_b64decode(token[1:].encode()).decode()


def refusal_line(command: str, reason: str) -> str:
    """Trace content of a refused command: its name and blob-encoded reason."""
    return f"refused(cmd={command},reason={encode_blob(reason)})"


class Term(NamedTuple):
    """A predicate term: name plus ordered scalar arguments.

    Construction checks nothing: a value is checked once, where it enters
    the system (``check_scalar``), and names are literals of the program.
    """

    name: str
    args: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.name}({','.join(self.args)})"


class Performative:
    """Speech-act type of a message: plain str constants, which the trace
    and the orchestrator's percepts carry as they are."""

    REQUEST = "request"
    INFORM = "inform"
    REFUSE = "refuse"
    FAILURE = "failure"


#: Performatives that answer an earlier request.
REPLIES = (Performative.INFORM, Performative.REFUSE, Performative.FAILURE)


class Envelope(NamedTuple):
    """Typed inter-agent message; construction refuses an empty conversation."""

    sender: str
    receiver: str
    performative: str  # a Performative constant
    conversation: str
    content: Term


def _new_envelope(
    cls: type[Envelope],
    sender: str,
    receiver: str,
    performative: str,
    conversation: str,
    content: Term,
) -> Envelope:
    if not conversation:
        raise ValueError("conversation id must be non-empty")
    return tuple.__new__(cls, (sender, receiver, performative, conversation, content))


# A NamedTuple may not define __new__ in its body, so the check is set here.
Envelope.__new__ = _new_envelope  # type: ignore[assignment]


def conversation_id(agent: str, seq: int, served: str = "") -> str:
    """``<agent>:<seq>``, the id of a conversation an agent opens; one opened
    to serve another conversation carries it after a ``>`` (``FSA:0>GW:2``),
    so a reply finds its way home from the id alone."""
    opened = f"{agent}:{seq}"
    return f"{opened}>{served}" if served else opened


def conversation_origin(conversation: str) -> str:
    """The agent that opened a conversation (encoded as the id prefix)."""
    return conversation.split(":", 1)[0]


def served_conversation(conversation: str, default: str | None = None) -> str:
    """The conversation a hop serves, after its ``>``; for an id that serves
    none, ``default``, or LookupError when there is no default."""
    _, sep, served = conversation.partition(">")
    if sep:
        return served
    if default is None:
        raise LookupError(f"no originating conversation in {conversation}")
    return default


def failed(reason: str) -> Term:
    """The content of a failure reply: its reason as a blob."""
    return Term("failed", (encode_blob(reason),))


class Command(NamedTuple):
    """A store command: name, args in schema order (the request term's
    args), conversation."""

    name: str
    args: tuple[str, ...]
    conversation: str


@dataclass(frozen=True)
class Refusal:
    """A rejected command or request.

    ``fault`` distinguishes referential/protocol errors (answered with a
    failure performative) from business-rule refusals (answered with refuse).
    """

    reason: str
    fault: bool = False
