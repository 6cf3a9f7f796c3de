"""Belief-desire-intention kernel with one deterministic deliberation step.

An agent is a value: beliefs (ground facts), goals (adopted desires), a
static plan library, and a stack of intentions (committed plans in
execution).  ``step`` runs one full cycle:

    1. perceive   -- fold inbox envelopes and queued belief percepts into
                     new goals via plan triggers; unhandled percepts are
                     persisted as plain beliefs,
    2. commit     -- every goal without a live intention commits the first
                     plan, in declaration order, whose context holds,
    3. execute    -- advance the oldest intention by exactly one step; an
                     agent with ``advance_every_intention`` set advances
                     every intention it holds at this point by one step
                     instead, oldest first.

The cycle is a pure function of (state, inbox): no clocks, no randomness,
no shared mutation.  All tie-breaking is fixed (goals by adoption order,
plans by declaration order) so that traces are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from .terms import Command, Envelope, Performative, Scalar, Term, check_scalar


@dataclass(frozen=True)
class Belief:
    """A ground fact: predicate name plus scalar arguments."""

    predicate: str
    args: tuple[Scalar, ...] = ()

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ValueError("belief predicate must be non-empty")
        for a in self.args:
            check_scalar(a)


class BeliefBase:
    """Set of ground beliefs indexed by predicate name.

    Treated as immutable: every update returns a new base, sharing the
    untouched predicate buckets with its parent.
    """

    __slots__ = ("_by_pred", "_size")

    def __init__(self, beliefs: Iterable[Belief] = ()) -> None:
        self._by_pred: dict[str, frozenset[tuple[Scalar, ...]]] = {}
        self._size = 0
        for b in beliefs:
            bucket = self._by_pred.get(b.predicate, frozenset())
            if b.args not in bucket:
                self._check_arity(b)
                self._by_pred[b.predicate] = bucket | {b.args}
                self._size += 1

    def _check_arity(self, belief: Belief) -> None:
        bucket = self._by_pred.get(belief.predicate)
        if bucket:
            arity = len(next(iter(bucket)))
            if len(belief.args) != arity:
                raise ValueError(
                    f"arity mismatch for {belief.predicate}: "
                    f"{len(belief.args)} vs established {arity}"
                )

    def __len__(self) -> int:
        return self._size

    def __contains__(self, belief: Belief) -> bool:
        return belief.args in self._by_pred.get(belief.predicate, ())

    def matching(self, predicate: str) -> list[tuple[Scalar, ...]]:
        """All argument tuples for a predicate, in sorted order."""
        return sorted(self._by_pred.get(predicate, ()), key=repr)

    def _copy(self) -> "BeliefBase":
        twin = BeliefBase.__new__(BeliefBase)
        twin._by_pred = dict(self._by_pred)
        twin._size = self._size
        return twin

    def add(self, belief: Belief) -> "BeliefBase":
        if belief in self:
            return self
        self._check_arity(belief)
        twin = self._copy()
        bucket = twin._by_pred.get(belief.predicate, frozenset())
        twin._by_pred[belief.predicate] = bucket | {belief.args}
        twin._size += 1
        return twin

    def remove(self, belief: Belief) -> "BeliefBase":
        if belief not in self:
            return self
        twin = self._copy()
        bucket = twin._by_pred[belief.predicate] - {belief.args}
        if bucket:
            twin._by_pred[belief.predicate] = bucket
        else:
            del twin._by_pred[belief.predicate]
        twin._size -= 1
        return twin

    def as_beliefs(self) -> list[Belief]:
        out = [
            Belief(pred, args)
            for pred in sorted(self._by_pred)
            for args in sorted(self._by_pred[pred], key=repr)
        ]
        return out


@dataclass(frozen=True)
class BeliefDelta:
    """One belief-base edit, applied in list order by update_beliefs."""

    op: str  # "add" | "remove"
    belief: Belief

    def __post_init__(self) -> None:
        if self.op not in ("add", "remove"):
            raise ValueError(f"bad delta op: {self.op}")


def add(predicate: str, *args: Scalar) -> BeliefDelta:
    return BeliefDelta("add", Belief(predicate, args))


def remove(predicate: str, *args: Scalar) -> BeliefDelta:
    return BeliefDelta("remove", Belief(predicate, args))


def update_beliefs(base: BeliefBase, deltas: Sequence[BeliefDelta]) -> BeliefBase:
    """Apply deltas in order; re-adding or removing-absent are no-ops."""
    for d in deltas:
        base = base.add(d.belief) if d.op == "add" else base.remove(d.belief)
    return base


@dataclass(frozen=True)
class Goal:
    """An adopted desire; adoption_seq is unique per agent lifetime."""

    name: str
    params: tuple[Scalar, ...]
    adoption_seq: int


# --- plans ----------------------------------------------------------------


@dataclass(frozen=True)
class MessageMatch:
    """Trigger pattern over incoming envelopes; None fields match anything."""

    performative: Performative | tuple[Performative, ...] | None = None
    content: str | None = None

    def matches(self, env: Envelope) -> bool:
        if isinstance(self.performative, tuple):
            if env.performative not in self.performative:
                return False
        elif self.performative is not None and env.performative != self.performative:
            return False
        return self.content is None or env.content.name == self.content


@dataclass(frozen=True)
class BeliefMatch:
    """Trigger pattern over belief additions (percepts and own updates)."""

    predicate: str

    def matches(self, belief: Belief) -> bool:
        return belief.predicate == self.predicate


@dataclass
class StepCtx:
    """Execution context handed to a plan step."""

    agent_id: str
    beliefs: BeliefBase
    goal: Goal

    @property
    def params(self) -> tuple[Scalar, ...]:
        return self.goal.params

    def conversation(self) -> str:
        """Deterministic conversation id for requests opened by this intention."""
        return f"{self.agent_id}:{self.goal.adoption_seq}"


@dataclass(frozen=True)
class MessageDraft:
    receiver: str
    performative: Performative
    conversation: str
    content: Term


@dataclass(frozen=True)
class SendStep:
    make: Callable[[StepCtx], list[MessageDraft]]
    kind: str = field(default="send-message", init=False)


@dataclass(frozen=True)
class BelieveStep:
    make: Callable[[StepCtx], list[BeliefDelta]]
    kind: str = field(default="update-belief", init=False)


@dataclass(frozen=True)
class CommandStep:
    make: Callable[[StepCtx], list[Command]]
    kind: str = field(default="store-command", init=False)


@dataclass(frozen=True)
class GoalStep:
    make: Callable[[StepCtx], list[tuple[str, tuple[Scalar, ...]]]]
    kind: str = field(default="emit-goal", init=False)


Step = SendStep | BelieveStep | CommandStep | GoalStep

Context = Callable[[BeliefBase, tuple[Scalar, ...]], bool]


@dataclass(frozen=True)
class Plan:
    """A recipe serving one goal name.

    ``when`` optionally marks the plan as a perception handler: an inbox
    envelope matching a MessageMatch (or a belief percept matching a
    BeliefMatch) adopts a fresh goal named ``goal``.  Several plans may
    serve the same goal; declaration order breaks ties.
    """

    name: str
    goal: str
    body: tuple[Step, ...]
    when: MessageMatch | BeliefMatch | None = None
    context: Context | None = None

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError(f"plan {self.name} has an empty body")

    def context_holds(self, beliefs: BeliefBase, params: tuple[Scalar, ...]) -> bool:
        return True if self.context is None else bool(self.context(beliefs, params))


@dataclass(frozen=True)
class Intention:
    """A committed plan: program counter over the plan body."""

    plan: Plan
    bound_params: tuple[Scalar, ...]
    pc: int
    origin_goal: Goal


@dataclass(frozen=True)
class AgentState:
    id: str
    beliefs: BeliefBase
    plan_library: tuple[Plan, ...]
    goals: tuple[Goal, ...] = ()
    intentions: tuple[Intention, ...] = ()
    next_seq: int = 0
    percepts: tuple[Belief, ...] = ()
    #: False: one intention step per cycle (AgentSpeak(L)); True: every
    #: intention held at the start of the execute phase steps once.
    advance_every_intention: bool = False


def make_agent(agent_id: str, plans: Sequence[Plan], beliefs: Iterable[Belief] = ()) -> AgentState:
    return AgentState(id=agent_id, beliefs=BeliefBase(beliefs), plan_library=tuple(plans))


def adopt_goal(state: AgentState, name: str, params: tuple[Scalar, ...]) -> AgentState:
    goal = Goal(name, params, state.next_seq)
    return replace(state, goals=state.goals + (goal,), next_seq=state.next_seq + 1)


def inject_percepts(state: AgentState, beliefs: Sequence[Belief]) -> AgentState:
    """Queue belief percepts for the agent's next perceive phase."""
    if not beliefs:
        return state
    return replace(state, percepts=state.percepts + tuple(beliefs))


@dataclass(frozen=True)
class StepResult:
    state: AgentState
    outbox: tuple[Envelope, ...]
    commands: tuple[Command, ...]


class _Work:
    """Mutable working copy of an AgentState for one cycle."""

    __slots__ = ("id", "beliefs", "plans", "goals", "intentions", "next_seq", "percepts", "every")

    def __init__(self, state: AgentState) -> None:
        self.id = state.id
        self.beliefs = state.beliefs
        self.plans = state.plan_library
        self.goals = list(state.goals)
        self.intentions = list(state.intentions)
        self.next_seq = state.next_seq
        self.percepts = list(state.percepts)
        self.every = state.advance_every_intention

    def freeze(self) -> AgentState:
        return AgentState(
            id=self.id,
            beliefs=self.beliefs,
            plan_library=self.plans,
            goals=tuple(self.goals),
            intentions=tuple(self.intentions),
            next_seq=self.next_seq,
            percepts=tuple(self.percepts),
            advance_every_intention=self.every,
        )

    def adopt(self, name: str, params: tuple[Scalar, ...]) -> None:
        self.goals.append(Goal(name, params, self.next_seq))
        self.next_seq += 1

    def drop(self, intention: Intention) -> None:
        seq = intention.origin_goal.adoption_seq
        self.intentions = [i for i in self.intentions if i.origin_goal.adoption_seq != seq]
        self.goals = [g for g in self.goals if g.adoption_seq != seq]


def _perceive(work: _Work, inbox: Sequence[Envelope]) -> None:
    for env in inbox:
        for plan in work.plans:
            if isinstance(plan.when, MessageMatch) and plan.when.matches(env):
                params = (
                    env.sender,
                    env.performative.value,
                    env.conversation,
                    env.content.name,
                ) + env.content.args
                work.adopt(plan.goal, params)
                break  # first matching plan names the goal

    pending, work.percepts = work.percepts, []
    for percept in pending:
        for plan in work.plans:
            if isinstance(plan.when, BeliefMatch) and plan.when.matches(percept):
                work.adopt(plan.goal, percept.args)
                break
        else:
            work.beliefs = work.beliefs.add(percept)  # unhandled percepts become knowledge


def _commit_options(work: _Work) -> None:
    committed = {i.origin_goal.adoption_seq for i in work.intentions}
    for goal in work.goals:
        if goal.adoption_seq in committed:
            continue
        for plan in work.plans:
            if plan.goal == goal.name and plan.context_holds(work.beliefs, goal.params):
                work.intentions.append(
                    Intention(plan=plan, bound_params=goal.params, pc=0, origin_goal=goal)
                )
                break  # first applicable plan per goal wins


def _execute_one(
    work: _Work, index: int = 0
) -> tuple[tuple[Envelope, ...], tuple[Command, ...]]:
    """Advance the intention at ``index`` (default: the oldest) by one step."""
    if not work.intentions:
        return (), ()

    intention = work.intentions[index]
    step = intention.plan.body[intention.pc]
    ctx = StepCtx(agent_id=work.id, beliefs=work.beliefs, goal=intention.origin_goal)

    outbox: list[Envelope] = []
    commands: list[Command] = []
    try:
        if isinstance(step, SendStep):
            for draft in step.make(ctx):
                outbox.append(
                    Envelope(
                        sender=work.id,
                        receiver=draft.receiver,
                        performative=draft.performative,
                        conversation=draft.conversation,
                        content=draft.content,
                    )
                )
        elif isinstance(step, BelieveStep):
            deltas = step.make(ctx)
            work.beliefs = update_beliefs(work.beliefs, deltas)
            work.percepts.extend(d.belief for d in deltas if d.op == "add")
        elif isinstance(step, CommandStep):
            commands.extend(step.make(ctx))
        elif isinstance(step, GoalStep):
            for name, params in step.make(ctx):
                work.adopt(name, params)
    except Exception:
        # Plan failure never escapes the cycle: the intention is dropped and
        # a failure belief surfaces next cycle for recovery plans.
        work.drop(intention)
        work.percepts.append(Belief("failed", (intention.origin_goal.name,)))
        return (), ()

    pc = intention.pc + 1
    if pc == len(intention.plan.body):
        work.drop(intention)  # completion removes goal too
    else:
        work.intentions[index] = Intention(
            plan=intention.plan,
            bound_params=intention.bound_params,
            pc=pc,
            origin_goal=intention.origin_goal,
        )
    return tuple(outbox), tuple(commands)


def _execute_each(work: _Work) -> tuple[tuple[Envelope, ...], tuple[Command, ...]]:
    """Advance every intention held now by one step, oldest first.

    Steps only adopt goals, never intentions, so the list can only shrink:
    a finished or failed intention leaves it and the next one takes its
    index.
    """
    outbox: list[Envelope] = []
    commands: list[Command] = []
    index = 0
    for _ in range(len(work.intentions)):
        held = len(work.intentions)
        sent, issued = _execute_one(work, index)
        outbox.extend(sent)
        commands.extend(issued)
        if len(work.intentions) == held:
            index += 1
    return tuple(outbox), tuple(commands)


def step(state: AgentState, inbox: Sequence[Envelope]) -> StepResult:
    """One full deliberation cycle; pure in (state, inbox)."""
    if not inbox and not state.percepts and not state.goals and not state.intentions:
        return StepResult(state, (), ())  # quiescent fast path

    work = _Work(state)
    _perceive(work, inbox)
    _commit_options(work)
    outbox, commands = _execute_each(work) if work.every else _execute_one(work)
    return StepResult(work.freeze(), outbox, commands)
