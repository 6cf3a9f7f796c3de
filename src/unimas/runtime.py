"""Agent registry, mailboxes, and the deterministic round scheduler.

One round steps every registered agent exactly once, in registration
order, over the mailbox snapshot taken at round start.  Envelopes produced
during the round are routed at round end and become visible one round
later, which removes all intra-round ordering ambiguity.

Store commands emitted by an agent's cycle are applied through the
world's command handler immediately after that agent's step; each outcome
flows back to the emitting agent as one belief percept for its next cycle.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import bdi
from .terms import Command, Envelope, encode_blob
from .trace import _NA, KIND_SET, TraceEvent, TraceLog

#: Applies a command; returns its (trace kind, content) draft or None, and its percept.
CommandHandler = Callable[[Command], tuple[tuple[str, str] | None, bdi.Belief]]


class World:
    """All agents, their mailboxes, the round counter, and the trace sink.

    A world made without a command handler routes envelopes but can apply
    no store command.
    """

    def __init__(
        self,
        command_handler: CommandHandler | None = None,
        log: TraceLog | None = None,
    ) -> None:
        self.agents: dict[str, bdi.AgentState] = {}  # in registration order
        self.mailboxes: dict[str, list[Envelope]] = {}
        self.round = 0
        self.command_handler = command_handler
        self.log = log or TraceLog()
        self.observers: list[Callable[[TraceEvent], None]] = []

    def emit(
        self,
        kind: str,
        sender: str = _NA,
        receiver: str = _NA,
        performative: str = _NA,
        conversation: str = _NA,
        content: str = _NA,
    ) -> TraceEvent:
        if kind not in KIND_SET:
            raise ValueError(f"unknown trace kind: {kind}")
        log = self.log
        seq = log.next_seq
        log.next_seq = seq + 1
        event = tuple.__new__(
            TraceEvent,
            (seq, self.round, kind, sender, receiver, performative, conversation, content),
        )
        log.append(event)
        for observe in self.observers:
            observe(event)
        return event

    def emit_snapshot(self, dump_text: str) -> None:
        self.emit("snapshot", content=encode_blob(dump_text))

    def is_quiescent(self) -> bool:
        """True when ``run_round`` would step no agent."""
        mailboxes = self.mailboxes
        for aid, state in self.agents.items():
            if mailboxes[aid] or state.percepts or state.goals or state.intentions:
                return False
        return True


def register_agent(world: World, state: bdi.AgentState) -> World:
    world.agents[state.id] = state
    world.mailboxes[state.id] = []
    return world


def route(world: World, envelopes: Sequence[Envelope]) -> World:
    """Append envelopes to receiver mailboxes in list order, tracing each.

    Every receiver is a registered agent: a served agent, the orchestrator
    or a conversation's opener.  Any other is a routing bug, and raises
    ``KeyError`` before its envelope is traced.
    """
    mailboxes, emit = world.mailboxes, world.emit
    for env in envelopes:
        sender, receiver, performative, conversation, (name, args) = env
        mailboxes[receiver].append(env)
        # the content as ``Term.render`` writes it, inline: once per envelope
        emit("envelope", sender, receiver, performative, conversation, f"{name}({','.join(args)})")
    return world


def run_round(world: World) -> World:
    """Step every agent once over its round-start mailbox; route at round end."""
    produced: list[Envelope] = []
    mailboxes = world.mailboxes
    for aid, state in world.agents.items():
        inbox = mailboxes[aid]
        if not inbox and not state.percepts and not state.goals and not state.intentions:
            continue  # idle agent, nothing to do this round
        mailboxes[aid] = []
        # the state is fresh from step, so the outcome percepts go on it
        state, outbox, commands = bdi.step(state, inbox)
        for command in commands:
            draft, percept = world.command_handler(command)
            if draft is not None:
                world.emit(draft[0], aid, "store", _NA, command.conversation, draft[1])
            state.percepts.append(percept)
        world.agents[aid] = state
        produced.extend(outbox)
    route(world, produced)
    world.round += 1
    return world
