"""Belief-desire-intention kernel with one deterministic deliberation step.

An agent's state holds beliefs (ground facts), goals (adopted desires not
yet committed), a static plan library, and a stack of intentions (committed
plans in execution); a committed goal lives only in its intention.
``step`` runs one full cycle and builds the successor state once:

    1. deliberate -- commit the goals waiting from earlier cycles, then
                     adopt and commit the goal each inbox envelope, then
                     each queued belief percept, triggers; unhandled
                     percepts are persisted as plain beliefs.  A goal
                     commits the first plan, in declaration order, that
                     serves it, and moves into that intention; a goal no
                     plan serves waits in ``goals``.  A goal raised by a
                     message keeps that envelope, and its params are the
                     content's args.  So a cycle's cost does not grow with
                     the goals the agent already pursues (the gateway
                     holds up to ``pipeline_window`` of them),
    2. execute    -- advance the oldest intention by exactly one step; an
                     agent with ``advance_every_intention`` set advances
                     every intention it holds at this point by one step
                     instead, oldest first.  The orchestrator, the relays
                     and the report agent set it; the gateway does not, so
                     it stays the one throttle on how fast commands enter.

``step`` returns a fresh state and never mutates its input: no clocks, no
randomness, no shared mutation.
All tie-breaking is fixed (goals by adoption order, plans by declaration
order) so that traces are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from .terms import REPLIES, Command, Envelope, Performative, check_scalar

#: Makes a NamedTuple from its fields without the Python-level ``__new__``.
_new = tuple.__new__


class Belief(NamedTuple):
    """A ground fact: predicate name plus scalar arguments.  Construction
    checks nothing; plan-authored facts are checked by ``add``."""

    predicate: str
    args: tuple[str, ...] = ()


class BeliefBase(frozenset[Belief]):
    """Immutable set of ground beliefs, as in AgentSpeak(L).

    Adding returns a new base, or this one when the belief is held.
    """

    __slots__ = ()

    def add(self, belief: Belief) -> "BeliefBase":
        return self if belief in self else BeliefBase(self | {belief})

    def as_beliefs(self) -> list[Belief]:
        """The beliefs, by predicate, then by ``repr`` of their args."""
        return sorted(self, key=lambda b: (b.predicate, repr(b.args)))


def add(predicate: str, *args: str) -> Belief:
    """A belief a plan writes, its predicate and args checked."""
    if not predicate:
        raise ValueError("belief predicate must be non-empty")
    for a in args:
        check_scalar(a)
    return Belief(predicate, args)


class Goal(NamedTuple):
    """An adopted desire; adoption_seq is unique per agent lifetime.

    A goal raised by an inbox envelope keeps it as ``message``, and its
    params are the envelope content's args; so does a goal adopted with
    the request it is to send (the gateway's ``issue``).
    """

    name: str
    params: tuple[str, ...]
    adoption_seq: int
    message: Envelope | None = None


# --- plans ----------------------------------------------------------------


@dataclass(frozen=True)
class MessageMatch:
    """Trigger over an envelope's performative: one, or a tuple of them."""

    performative: str | tuple[str, ...]

    def __post_init__(self) -> None:
        wanted = self.performative
        named = wanted if type(wanted) is tuple else (wanted,)
        if not named or any(p not in (Performative.REQUEST, *REPLIES) for p in named):
            raise ValueError(f"MessageMatch needs a performative or a tuple of them, not {wanted!r}")


@dataclass(frozen=True)
class BeliefMatch:
    """Trigger pattern over belief additions (percepts and own updates)."""

    predicate: str


# A plan step's ``make`` runs as ``make(agent_id, goal)``, in the context of
# the intention it serves; a request it opens goes under
# ``terms.conversation_id(agent_id, goal.adoption_seq, served)``.
@dataclass(frozen=True)
class SendStep:
    make: Callable[[str, Goal], list[Envelope]]


@dataclass(frozen=True)
class BelieveStep:
    make: Callable[[str, Goal], list[Belief]]


@dataclass(frozen=True)
class CommandStep:
    make: Callable[[str, Goal], list[Command]]


@dataclass(frozen=True)
class GoalStep:
    make: Callable[[str, Goal], list[tuple[str, tuple[str, ...]]]]


Step = SendStep | BelieveStep | CommandStep | GoalStep

Trigger = MessageMatch | BeliefMatch


@dataclass(frozen=True)
class Plan:
    """A recipe serving one goal name.

    ``when`` optionally marks the plan as a perception handler: an inbox
    envelope matching a MessageMatch (or a belief percept matching a
    BeliefMatch) adopts a fresh goal named ``goal``.  Several plans may
    serve the same goal; the first declared is the one committed.
    """

    name: str
    goal: str
    body: tuple[Step, ...]
    when: Trigger | None = None

    def __post_init__(self) -> None:
        # the cycle dispatches on the exact class of a step and a trigger
        if not self.body:
            raise ValueError(f"plan {self.name} has an empty body")
        for step in self.body:
            if type(step) not in Step.__args__:
                raise ValueError(f"plan {self.name}: {step!r} is not a {Step}")
        if self.when is not None and type(self.when) not in Trigger.__args__:
            raise ValueError(f"plan {self.name}: {self.when!r} is not a {Trigger}")


class PlanLibrary(tuple[Plan, ...]):
    """The plans in declaration order, indexed by trigger and by goal name
    as Jason indexes relevant plans.  Each index, built with the library in
    one declaration-order pass, holds what a scan of the plans in order
    finds, so every choice is the scan's."""

    def __init__(self, plans: Iterable[Plan] = ()) -> None:
        self.on_message: dict[str, Plan] = {}  # performative -> the first plan a message triggers
        self.on_percept: dict[str, Plan] = {}  # predicate -> the first plan a belief percept triggers
        self.serving: dict[str, Plan] = {}  # goal name -> the first plan serving it
        for plan in self:
            self.serving.setdefault(plan.goal, plan)
            when = plan.when
            if type(when) is BeliefMatch:
                self.on_percept.setdefault(when.predicate, plan)
            elif when is not None:  # a MessageMatch
                wanted = when.performative
                for performative in wanted if type(wanted) is tuple else (wanted,):
                    self.on_message.setdefault(performative, plan)


class Intention(NamedTuple):
    """A committed plan: program counter over the plan body."""

    plan: Plan
    pc: int
    origin_goal: Goal


@dataclass(slots=True)
class AgentState:
    id: str
    beliefs: BeliefBase
    plan_library: PlanLibrary
    #: The goals without an intention yet, in adoption order; a committed
    #: goal is its intention's ``origin_goal`` and nowhere else.
    goals: list[Goal] = field(default_factory=list)
    intentions: list[Intention] = field(default_factory=list)
    next_seq: int = 0
    percepts: list[Belief] = field(default_factory=list)
    #: False: one intention step per cycle (AgentSpeak(L)); True: every
    #: intention held at the start of the execute phase steps once.
    advance_every_intention: bool = False

    def adopt(
        self, name: str, params: tuple[str, ...], message: Envelope | None = None
    ) -> None:
        goal = _new(Goal, (name, params, self.next_seq, message))
        self.goals.append(goal)
        self.next_seq += 1


def make_agent(
    agent_id: str,
    plans: Sequence[Plan],
    beliefs: Iterable[Belief] = (),
    advance_every_intention: bool = False,
) -> AgentState:
    return AgentState(
        id=agent_id,
        beliefs=BeliefBase(beliefs),
        plan_library=PlanLibrary(plans),
        advance_every_intention=advance_every_intention,
    )


class StepResult(NamedTuple):
    state: AgentState
    outbox: tuple[Envelope, ...]
    commands: tuple[Command, ...]


def _deliberate(state: AgentState, inbox: Sequence[Envelope]) -> AgentState:
    """Perceive and commit in one pass: the successor state, built once, not
    yet executed.  The goals waiting from earlier cycles commit first, then
    the goal each envelope and then each percept triggers, in adoption
    order.  A triggered goal commits at once: its trigger plan serves it."""
    library = state.plan_library
    serving, on_message, on_percept = library.serving, library.on_message, library.on_percept
    intentions, waiting, seq, beliefs = list(state.intentions), [], state.next_seq, state.beliefs
    for goal in state.goals:
        plan = serving.get(goal.name)
        if plan is None:
            waiting.append(goal)
        else:
            intentions.append(_new(Intention, (plan, 0, goal)))
    for env in inbox:
        trigger = on_message.get(env.performative)  # the first matching plan names the goal
        if trigger is not None:
            goal = _new(Goal, (trigger.goal, env.content.args, seq, env))
            intentions.append(_new(Intention, (serving[trigger.goal], 0, goal)))
            seq += 1
    for percept in state.percepts:
        trigger = on_percept.get(percept.predicate)
        if trigger is not None:
            goal = _new(Goal, (trigger.goal, percept.args, seq, None))
            intentions.append(_new(Intention, (serving[trigger.goal], 0, goal)))
            seq += 1
        else:
            beliefs = beliefs.add(percept)  # unhandled percepts become knowledge
    return AgentState(
        state.id, beliefs, library, waiting, intentions, seq, [], state.advance_every_intention
    )


def _execute(state: AgentState) -> tuple[tuple[Envelope, ...], tuple[Command, ...]]:
    """Advance the oldest intention by one step or, with
    ``advance_every_intention``, every intention held now, oldest first.

    An intention that finishes or fails takes its goal with it; steps only
    adopt goals, never intentions, so the held list (the successor's own)
    is not touched while the pass runs, and is updated in place after it.
    A failed step never escapes the cycle: it surfaces as a ``failed``
    belief next cycle, for recovery plans.
    """
    held = state.intentions
    if not held:
        return (), ()
    outbox: list[Envelope] = []
    commands: list[Command] = []
    every, agent_id = state.advance_every_intention, state.id
    kept: list[Intention] = []
    for plan, pc, goal in held if every else held[:1]:
        step = plan.body[pc]
        kind = type(step)
        try:
            if kind is SendStep:
                outbox.extend(step.make(agent_id, goal))
            elif kind is CommandStep:
                commands.extend(step.make(agent_id, goal))
            elif kind is BelieveStep:
                added = step.make(agent_id, goal)
                for belief in added:
                    state.beliefs = state.beliefs.add(belief)
                state.percepts.extend(added)
            else:  # GoalStep, the one class left (Plan admits no other)
                for name, params in step.make(agent_id, goal):
                    state.adopt(name, params)
        except Exception:
            state.percepts.append(Belief("failed", (goal.name,)))
            continue
        pc += 1
        if pc < len(plan.body):
            kept.append(_new(Intention, (plan, pc, goal)))
    held[: len(held) if every else 1] = kept  # in place of those that ran
    return tuple(outbox), tuple(commands)


def step(state: AgentState, inbox: Sequence[Envelope]) -> StepResult:
    """One full deliberation cycle; pure in (state, inbox), since the
    successor is built fresh before it executes."""
    state = _deliberate(state, inbox)
    return _new(StepResult, (state, *_execute(state)))
