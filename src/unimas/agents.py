"""The ten functional agents as plan libraries over the BDI kernel.

One table, ``SERVED_BY``, names the agent that receives each request; the
harness routes every request by it, so no agent checks it again.  Every
agent but the gateway and the orchestrator is a relay made by
``relay_agent``: one plan sends whatever request reaches it on to the
orchestrator under a fresh conversation id, and one sends the store's
answer back to whoever opened the original conversation.  The report
agent is the same relay with its own two steps: it asks the store for one
report kind's aggregate rows (``query(kind)`` is answered with
``rows(<blob>,<kind>)``) and answers with the report built from them.
Only the orchestrator ever emits store commands.

Conversation ids (``terms.conversation_id``) are ``<agent>:<seq>``,
suffixed with the conversation they serve (``FSA:0>GW:2``), so both the
opener of any hop and the originating request are recoverable from the id
alone: every reply is routed home by its id, with no table at all.  Each
plan step sends one envelope built by ``_request`` (a hop to
the orchestrator) or ``_reply`` (an answer to a conversation's opener).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from . import bdi, runtime
from .bdi import Belief, BeliefMatch, CommandStep, Goal, MessageMatch, Plan, SendStep
from .config import ConfigError, RunConfig
from .runtime import World, register_agent
from .store import REPORT_QUERIES, Store
from .trace import TraceLog
from .terms import (
    REPLIES,
    Command,
    Envelope,
    Performative,
    Refusal,
    Term,
    conversation_id,
    conversation_origin,
    decode_blob,
    encode_blob,
    failed,
    served_conversation,
)

GATEWAY = "GW"
ORCHESTRATOR = "OA"

#: Registration order; Table-style roster with the gateway standing in for
#: the graphical interface agent.
ROSTER = ("GW", "SA", "TA", "ASA", "CSA", "DSA", "FSA", "RA", "RPA", "OA")

#: The one routing table: the agent that receives each request.  A relay
#: forwards whatever request reaches it, so nothing else decides this.
SERVED_BY: dict[str, str] = {
    "add_student": "SA",
    "add_teacher": "TA",
    "admit": "ASA",
    "add_class": "CSA",
    "assign_teacher": "CSA",
    "deliver_lecture": "CSA",
    "schedule_exam": "DSA",
    "add_program": "FSA",
    "record_result": "RA",
    "report": "RPA",
    "open_session": ORCHESTRATOR,
    "close_session": ORCHESTRATOR,
}

REPORT_KINDS = tuple(REPORT_QUERIES)

#: The least ``liveness_k`` under which P12 can hold: the rounds of the
#: longest reply path, one per hop each way.  A request served by the
#: orchestrator goes GW -> OA, one served by a relay GW -> relay -> OA.
MIN_LIVENESS_K = 2 * max(1 if agent == ORCHESTRATOR else 2 for agent in SERVED_BY.values())


# -- gateway -----------------------------------------------------------------


def _issue(agent_id: str, goal: Goal) -> list[Envelope]:
    if goal.message is None:  # passed on unread, so a None would reach ``route``
        raise LookupError("an issue goal carries the request it sends")
    return [goal.message]


def gateway_agent() -> bdi.AgentState:
    """Scenario bridge: an injected ``issue`` goal keeps the request it
    sends as its message, under the conversation ``GW:<adoption seq>``.

    Replies are read off the mailbox by the harness; the gateway keeps no
    plans for them.
    """
    return bdi.make_agent(GATEWAY, [Plan(name="gw_issue", goal="issue", body=(SendStep(_issue),))])


# -- envelopes ---------------------------------------------------------------


def _request(agent_id: str, goal: Goal, content: Term) -> Envelope:
    """A hop to the orchestrator under a fresh conversation id that carries
    the conversation it serves, so the reply can be routed home and store
    events stay attributable to the request that caused them."""
    conversation = conversation_id(agent_id, goal.adoption_seq, goal.message.conversation)
    return Envelope(agent_id, ORCHESTRATOR, Performative.REQUEST, conversation, content)


def _reply(agent_id: str, conversation: str, performative: str, content: Term) -> Envelope:
    """An answer on ``conversation``, to the agent that opened it."""
    receiver = conversation_origin(conversation)
    return Envelope(agent_id, receiver, performative, conversation, content)


# -- relay agents ------------------------------------------------------------


def _relay_request(agent_id: str, goal: Goal) -> list[Envelope]:
    return [_request(agent_id, goal, goal.message.content)]


def _relay_reply(agent_id: str, goal: Goal) -> list[Envelope]:
    reply = goal.message
    home = served_conversation(reply.conversation)
    return [_reply(agent_id, home, reply.performative, reply.content)]


def relay_agent(
    agent_id: str,
    forward: Callable[[str, Goal], list[Envelope]] = _relay_request,
    answer: Callable[[str, Goal], list[Envelope]] = _relay_reply,
) -> bdi.AgentState:
    """A relay: ``forward`` sends any request it receives on to the
    orchestrator, and ``answer`` sends any reply home."""
    plans = [
        Plan(
            name=f"{agent_id.lower()}_request",
            goal="relay_request",
            when=MessageMatch(Performative.REQUEST),
            body=(SendStep(forward),),
        ),
        Plan(
            name=f"{agent_id.lower()}_reply",
            goal="relay_reply",
            when=MessageMatch(REPLIES),
            body=(SendStep(answer),),
        ),
    ]
    return bdi.make_agent(agent_id, plans, advance_every_intention=True)


# -- report agent ------------------------------------------------------------


def build_report(kind: str, rows_text: str, cfg: RunConfig) -> list[str]:
    """One statistical report's ``kind|label|value`` lines, built from its
    query's rows; never absent, possibly none.  A ratio is written as
    numerator/denominator, never divided, and ``undefined`` over zero."""
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind: {kind}")
    rows = [line.split("|", 1) for line in rows_text.splitlines()]
    if kind == "teacher_student_ratio":
        counts = dict(rows)
        rows = [("teachers_to_students", _ratio(int(counts["teachers"]), int(counts["students"])))]
    elif kind == "lab_student_ratio":
        rows = [("labs_to_students", _ratio(cfg.lab_count, int(dict(rows)["students"])))]
    return [f"{kind}|{label}|{value}" for label, value in rows]


def _ratio(numerator: int, denominator: int) -> str:
    return f"{numerator}/{denominator}" if denominator else "undefined"


def _report_query(agent_id: str, goal: Goal) -> list[Envelope]:
    return [_request(agent_id, goal, Term("query", (goal.params[0],)))]


def report_agent(cfg: RunConfig) -> bdi.AgentState:
    """A relay that turns ``report(kind)`` into ``query(kind)`` and the
    store's ``rows(<blob>,<kind>)`` into the report; like every relay it
    keeps nothing between the two hops."""
    broken = cfg.inject == "p11"

    def reply_with_report(agent_id: str, goal: Goal) -> list[Envelope]:
        home = served_conversation(goal.message.conversation)
        if goal.message.performative != Performative.INFORM:
            return [_reply(agent_id, home, Performative.FAILURE, failed("store query failed"))]
        blob, kind = goal.params[:2]
        if broken:
            content = Term("report", (kind,))  # guard off: absent result
        else:
            lines = build_report(kind, decode_blob(blob), cfg)
            content = Term("report", (kind, str(len(lines)), encode_blob("\n".join(lines))))
        return [_reply(agent_id, home, Performative.INFORM, content)]

    return relay_agent("RPA", _report_query, reply_with_report)


# -- orchestrator ------------------------------------------------------------


def _build_command(agent_id: str, goal: Goal) -> list[Command]:
    request = goal.message
    return [tuple.__new__(Command, (request.content.name, goal.params, request.conversation))]


def store_reply(conversation: str, performative: str, name: str, *args: str) -> Belief:
    """The orchestrator's percept of a store outcome: the reply it is to
    send on ``conversation``, as a performative and a content term."""
    return tuple.__new__(Belief, ("store_reply", (conversation, performative, name, *args)))


def _reply_stored(agent_id: str, goal: Goal) -> list[Envelope]:
    # a store_reply percept: conversation, performative, content term
    conversation, performative, name = goal.params[:3]
    return [_reply(agent_id, conversation, performative, tuple.__new__(Term, (name, goal.params[3:])))]


def orchestrator_agent() -> bdi.AgentState:
    """The store's only client; every command passes through here.

    It turns every request into a store command whatever its shape: the
    store alone judges a command's name and arity, and a malformed one
    comes back as a refusal like any other.

    Like the relays and the report agent, it advances every intention each
    cycle, not just the oldest, so a command's store step and the reply to
    an earlier one share a round and it keeps pace with the gateway's one
    request per round.
    """
    plans = [
        Plan(
            name="oa_request",
            goal="oa_handle",
            when=MessageMatch(Performative.REQUEST),
            body=(CommandStep(_build_command),),
        ),
        Plan(
            name="oa_store_reply",
            goal="oa_reply",
            when=BeliefMatch("store_reply"),
            body=(SendStep(_reply_stored),),
        ),
    ]
    return bdi.make_agent(ORCHESTRATOR, plans, advance_every_intention=True)


# -- world assembly ----------------------------------------------------------


def store_handler(store: Store) -> runtime.CommandHandler:
    """Adapter: command in; its trace draft, if any, and its outcome percept out."""

    def handle(command: Command) -> tuple[tuple[str, str] | None, Belief]:
        result, draft = store.execute(command)
        if isinstance(result, Refusal):
            performative, name = (
                (Performative.FAILURE, "failed") if result.fault else (Performative.REFUSE, "refused")
            )
            args = (encode_blob(result.reason),)
        else:
            performative, name, args = Performative.INFORM, result.name, result.args
        return draft, store_reply(command.conversation, performative, name, *args)

    return handle


def check_liveness_k(cfg: RunConfig) -> None:
    """Refuse a ``liveness_k`` under which P12 can never hold."""
    if cfg.liveness_k < MIN_LIVENESS_K:
        raise ConfigError(
            f"liveness_k={cfg.liveness_k} can never hold: "
            f"the longest reply path takes {MIN_LIVENESS_K} rounds"
        )


def fresh_agents(cfg: RunConfig) -> list[bdi.AgentState]:
    """The roster, new, in registration order; an agent not in the table is a relay."""
    builders = {GATEWAY: gateway_agent, "RPA": partial(report_agent, cfg), ORCHESTRATOR: orchestrator_agent}
    return [builders[aid]() if aid in builders else relay_agent(aid) for aid in ROSTER]


def build_world(cfg: RunConfig | None = None) -> tuple[World, Store]:
    """A fresh world with the full roster registered and the store attached."""
    cfg = cfg or RunConfig()
    check_liveness_k(cfg)
    store = Store(cfg)
    world = World(command_handler=store_handler(store), log=TraceLog(header=cfg.header()))
    for state in fresh_agents(cfg):
        register_agent(world, state)
    return world, store
