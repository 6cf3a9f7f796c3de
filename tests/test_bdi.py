"""Kernel oracles: every behavior here is either a spec-stated example or a
hand-derived trace frozen as a golden file."""

from dataclasses import MISSING, fields
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from unimas import bdi
from unimas.bdi import (
    AgentState,
    Belief,
    BeliefBase,
    BeliefMatch,
    BelieveStep,
    CommandStep,
    Goal,
    GoalStep,
    Intention,
    MessageMatch,
    Plan,
    SendStep,
    StepResult,
    add,
    make_agent,
    step,
)
from unimas.agents import build_world
from unimas.fuzz import fuzz
from unimas.runtime import run_round
from unimas.scenario import parse_scenario, run_scenario
from unimas.terms import REPLIES, Command, Envelope, Performative, Term, conversation_id

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _copy(state: AgentState) -> AgentState:
    """Every field of ``state``, its lists copied."""
    return AgentState(
        state.id,
        state.beliefs,
        state.plan_library,
        list(state.goals),
        list(state.intentions),
        state.next_seq,
        list(state.percepts),
    )


def adopt_goal(state: AgentState, name: str, params: tuple[str, ...]) -> AgentState:
    """A copy of ``state`` with one more goal adopted."""
    twin = _copy(state)
    twin.adopt(name, params)
    return twin


def _adopted(state: AgentState) -> list[Goal]:
    """Every goal the agent pursues, waiting or held by an intention, in
    adoption order."""
    held = [i.origin_goal for i in state.intentions]
    return sorted(state.goals + held, key=lambda g: g.adoption_seq)


# -- the belief base -----------------------------------------------------------


def test_add_to_empty_base():
    base = BeliefBase().add(add("student", "1", "Ali"))
    assert Belief("student", ("1", "Ali")) in base
    assert len(base) == 1


def test_readd_is_noop():
    base = BeliefBase([Belief("student", ("1", "Ali"))])
    assert base.add(add("student", "1", "Ali")) is base


def test_updates_do_not_mutate_parent():
    base = BeliefBase()
    child = base.add(add("q", "7"))
    assert len(base) == 0 and len(child) == 1


def test_add_checks_the_predicate_and_every_arg():
    assert add("p", "1", "a") == Belief("p", ("1", "a"))
    assert add("ready") == Belief("ready", ())


@pytest.mark.parametrize(
    "predicate, args",
    [
        ("", ()),
        ("", ("1",)),
        ("p", (7,)),
        ("p", (None,)),
        # each character that would break a trace, journal or dump line, in the last arg
        *[("p", ("1", f"a{c}b")) for c in '|,()" \n\r\t'],
    ],
)
def test_add_refuses_an_empty_predicate_or_an_unsafe_arg(predicate, args):
    with pytest.raises(ValueError):
        add(predicate, *args)


def test_repeats_are_held_once_and_listed_by_predicate_then_args():
    beliefs = [Belief("q", ("b",)), Belief("p", ("2",)), Belief("q", ("a",)), Belief("p", ("10",))]
    base = BeliefBase(beliefs + beliefs[::-1])
    assert len(base) == 4 and base.add(beliefs[0]) is base
    # args order by repr: "('10',)" sorts before "('2',)"
    assert base.as_beliefs() == [
        Belief("p", ("10",)),
        Belief("p", ("2",)),
        Belief("q", ("a",)),
        Belief("q", ("b",)),
    ]


added = st.lists(st.integers(0, 5).map(lambda n: add("p", str(n))), max_size=12)


@given(added)
def test_adding_matches_set_fold(beliefs):
    """Independent oracle: fold the same additions over a plain set."""
    base = BeliefBase()
    for belief in beliefs:
        base = base.add(belief)
    assert {b.args for b in base.as_beliefs()} == {b.args for b in beliefs}


@given(added)
def test_adding_is_idempotent_on_readds(beliefs):
    base = BeliefBase()
    for belief in beliefs:
        base = base.add(belief)
    for belief in beliefs:
        assert base.add(belief) is base  # re-adding never grows or copies the base


# -- deliberation, driven through step ---------------------------------------


def _noop_send(agent_id, goal):
    return []


def _plan(name, goal):
    return Plan(name=name, goal=goal, body=(SendStep(_noop_send),))


def _two_step(name, goal):
    """A plan whose two steps each send one message naming the plan and step."""

    def send(k):
        return SendStep(
            lambda agent_id, goal: [Envelope("A", "B", Performative.INFORM, "A:0", Term(f"{name}_{k}"))]
        )

    return Plan(name=name, goal=goal, body=(send(1), send(2)))


def _running(state):
    return [(i.plan.name, i.pc) for i in state.intentions]


def _sent(result):
    return [e.content.name for e in result.outbox]


def test_no_goals_no_options():
    result = step(make_agent("A", [_two_step("p1", "g")]), [])
    assert result.state.intentions == [] and result.outbox == ()
    # a goal no plan serves stays waiting, with no intention
    agent = adopt_goal(make_agent("A", [_two_step("p1", "g")]), "other", ())
    result = step(agent, [])
    assert result.state.intentions == [] and result.outbox == ()
    assert [g.name for g in result.state.goals] == ["other"]


def test_a_goal_no_plan_serves_waits_without_holding_back_later_goals():
    agent = make_agent("A", [_two_step("p1", "g")])
    agent = adopt_goal(adopt_goal(agent, "other", ()), "g", ())
    first = step(agent, [])
    assert _running(first.state) == [("p1", 1)] and _sent(first) == ["p1_1"]
    second = step(first.state, [])
    assert _sent(second) == ["p1_2"] and second.state.intentions == []
    # still adopted, in its place, each cycle
    assert [(g.name, g.adoption_seq) for g in second.state.goals] == [("other", 0)]


def test_single_goal_single_plan():
    agent = adopt_goal(make_agent("A", [_two_step("p1", "g")]), "g", ())
    result = step(agent, [])
    assert _running(result.state) == [("p1", 1)]
    assert _sent(result) == ["p1_1"]


def test_two_matching_plans_in_declaration_order():
    agent = make_agent("A", [_two_step("p1", "g"), _two_step("p2", "g")])
    result = step(adopt_goal(agent, "g", ()), [])
    assert _running(result.state) == [("p1", 1)]
    assert _sent(result) == ["p1_1"]


def test_commit_appends_intention_pc_zero():
    agent = make_agent("A", [_two_step("p1", "g1"), _two_step("p2", "g2")])
    agent = adopt_goal(adopt_goal(agent, "g1", ()), "g2", ())
    result = step(agent, [])
    # g2's intention is committed behind g1's, which took this cycle's step
    assert _running(result.state) == [("p1", 1), ("p2", 0)]
    assert [g.name for g in _adopted(result.state)] == ["g1", "g2"]  # kept until completion


def test_commits_keep_adoption_order():
    # the library declares g2's plan first; intentions still follow adoption
    agent = make_agent("A", [_two_step("p2", "g2"), _two_step("p1", "g1")])
    agent = adopt_goal(adopt_goal(agent, "g1", ()), "g2", ())
    result = step(agent, [])
    assert _running(result.state) == [("p1", 1), ("p2", 0)]
    assert _sent(result) == ["p1_1"]


def test_commit_twice_same_goal_rejected():
    agent = make_agent("A", [_two_step("p1", "g1"), _two_step("p2", "g2")])
    agent = adopt_goal(adopt_goal(agent, "g1", ()), "g2", ())
    first = step(agent, [])
    assert _running(first.state) == [("p1", 1), ("p2", 0)]
    # both goals hold live intentions now; the second cycle's deliberation
    # must leave them alone, so p1 finishes and p2 is still there once
    second = step(first.state, [])
    assert _sent(second) == ["p1_2"]
    assert _running(second.state) == [("p2", 0)]
    assert [g.name for g in _adopted(second.state)] == ["g2"]


# -- step ---------------------------------------------------------------------


@pytest.mark.parametrize("every", [False, True])
def test_a_quiescent_step_sends_nothing_and_changes_nothing(every):
    agent = make_agent("A", [_plan("p1", "g")], [Belief("q", ("1",))], advance_every_intention=every)
    result = step(agent, [])
    assert result.outbox == () and result.commands == ()
    assert _observable(result.state) == _observable(agent)
    assert result.state.plan_library.advance_every_intention is every


@pytest.mark.parametrize("performative", [Performative.REQUEST, *REPLIES])
def test_the_content_name_plays_no_part_in_choosing_a_plan(performative):
    plans = [
        Plan(name=name, goal=goal, body=_two_step(name, goal).body, when=MessageMatch(wanted))
        for name, goal, wanted in (("requests", "serve", Performative.REQUEST), ("answers", "answer", REPLIES))
    ]
    want = ("requests", "serve") if performative == Performative.REQUEST else ("answers", "answer")
    for name in ("register", "tick", "failed"):
        env = Envelope("X", "A", performative, "X:0", Term(name, ("1",)))
        (held,) = step(make_agent("A", plans), [env]).state.intentions
        assert (held.plan.name, held.origin_goal.name) == want
        assert held.origin_goal.message is env and held.origin_goal.params == ("1",)


def test_a_believe_step_adds_its_beliefs_and_queues_them_as_percepts():
    believe = Plan(
        name="pb", goal="b", body=(BelieveStep(lambda agent_id, goal: [add("ready"), add("seen", "1")]),)
    )
    react = Plan(name="pr", goal="react", body=_two_step("pr", "react").body, when=BeliefMatch("ready"))
    first = step(adopt_goal(make_agent("A", [believe, react]), "b", ()), [])
    assert first.state.beliefs.as_beliefs() == [Belief("ready", ()), Belief("seen", ("1",))]
    assert first.state.percepts == [Belief("ready", ()), Belief("seen", ("1",))]
    # next cycle "ready" raises its plan's goal; "seen", which no plan
    # triggers on, is already known and stays so
    second = step(first.state, [])
    assert second.state.percepts == []
    assert _running(second.state) == [("pr", 1)] and _sent(second) == ["pr_1"]
    assert len(second.state.beliefs) == 2


def test_request_creates_intention_same_cycle():
    # hand-trace of one cycle: perceive adopts the goal, deliberation commits
    # it, and the first body step runs immediately
    plan = Plan(
        name="on_register",
        goal="register",
        when=MessageMatch(Performative.REQUEST),
        body=(BelieveStep(lambda agent_id, goal: [add("seen", goal.message.sender)]), SendStep(_noop_send)),
    )
    agent = make_agent("SA", [plan])
    env = Envelope("GW", "SA", Performative.REQUEST, "GW:0", Term("register", ("7",)))
    result = step(agent, [env])
    assert len(result.state.intentions) == 1
    assert result.state.intentions[0].pc == 1  # first step already executed
    assert Belief("seen", ("GW",)) in result.state.beliefs


def test_last_step_completion_removes_goal_and_intention():
    plan = Plan(name="one_shot", goal="g", body=(SendStep(
        lambda agent_id, goal: [Envelope("A", "B", Performative.INFORM, "A:0", Term("hi"))]
    ),))
    agent = adopt_goal(make_agent("A", [plan]), "g", ())
    result = step(agent, [])
    assert result.state.intentions == []
    assert result.state.goals == []
    assert len(result.outbox) == 1
    assert result.outbox[0].sender == "A"


def test_step_failure_becomes_failed_belief():
    def boom(agent_id, goal):
        raise RuntimeError("broken step")

    agent = adopt_goal(make_agent("A", [Plan(name="p", goal="g", body=(SendStep(boom),))]), "g", ())
    result = step(agent, [])
    assert result.state.intentions == []
    follow_up = step(result.state, [])
    assert Belief("failed", ("g",)) in follow_up.state.beliefs


def test_plan_refuses_a_step_or_trigger_of_any_other_class():
    # the cycle dispatches on the exact class, so no other may reach it
    class Subclassed(SendStep):
        pass

    for body in ((lambda agent_id, goal: [],), (SendStep(_noop_send), Subclassed(_noop_send))):
        with pytest.raises(ValueError, match="is not a"):
            Plan(name="p", goal="g", body=body)
    with pytest.raises(ValueError, match="is not a"):
        Plan(name="p", goal="g", body=(SendStep(_noop_send),), when="request")


def test_step_is_deterministic():
    plan = Plan(
        name="on_msg",
        goal="handle",
        when=MessageMatch((Performative.REQUEST, *REPLIES)),
        body=(BelieveStep(lambda agent_id, goal: [add("got", goal.message.conversation)]),),
    )
    env = Envelope("B", "A", Performative.INFORM, "B:4", Term("note", ("1",)))
    results = [step(make_agent("A", [plan]), [env]) for _ in range(2)]
    assert results[0].state.beliefs.as_beliefs() == results[1].state.beliefs.as_beliefs()
    assert results[0].outbox == results[1].outbox


def test_goal_intention_bijection_every_cycle():
    agent = make_agent("A", [_plan("p1", "g1"), _two_step("p2", "g2")])
    # "idle" has no plan, so it is never committed
    for goal in ("g1", "idle", "g2", "g1"):
        agent = adopt_goal(agent, goal, ())
    state = agent
    for _ in range(6):
        state = step(state, []).state
        origins = [i.origin_goal.adoption_seq for i in state.intentions]
        assert len(origins) == len(set(origins))
        # no goal is both waiting and held
        assert not {g.adoption_seq for g in state.goals} & set(origins)
    assert [g.name for g in state.goals] == ["idle"]


# -- the 2-plan, 2-goal golden trace ------------------------------------------


def _toy_agent() -> AgentState:
    ping = Plan(
        name="ping_plan",
        goal="ping",
        body=(
            BelieveStep(lambda agent_id, goal: [add("mark", goal.params[0])]),
            GoalStep(lambda agent_id, goal: [("pong", (goal.params[0],))]),
        ),
    )
    pong = Plan(
        name="pong_plan",
        goal="pong",
        body=(BelieveStep(lambda agent_id, goal: [add("done", goal.params[0])]),),
    )
    agent = make_agent("TOY", [ping, pong])
    agent = adopt_goal(agent, "ping", ("1",))
    agent = adopt_goal(agent, "ping", ("2",))
    return agent


def _snapshot(cycle: int, state: AgentState) -> str:
    goals = ",".join(f"{g.name}#{g.adoption_seq}" for g in _adopted(state))
    intentions = ",".join(f"{i.plan.name}@{i.pc}" for i in state.intentions)
    beliefs = ",".join(
        f"{b.predicate}({','.join(str(a) for a in b.args)})" for b in state.beliefs.as_beliefs()
    )
    return f"cycle={cycle}|goals={goals}|intentions={intentions}|beliefs={beliefs}"


def test_toy_agent_matches_golden_trace():
    state = _toy_agent()
    lines = []
    for cycle in range(1, 11):
        state = step(state, []).state
        lines.append(_snapshot(cycle, state))
    golden = (DATA / "toy_kernel_trace.txt").read_text().splitlines()
    assert lines == golden


def test_oldest_runnable_intention_advances_each_cycle():
    """Single-step fairness: the head intention gains exactly one pc per cycle
    until it completes."""
    state = _toy_agent()
    state = step(state, []).state  # two intentions now live, head at pc 1
    head = state.intentions[0]
    assert head.pc == 1
    state = step(state, []).state
    # head intention completed (2 steps), second one unchanged at pc 0
    assert [i.pc for i in state.intentions] == [0]


# -- every runnable intention once per cycle -------------------------------------


def _send(text):
    def send(agent_id, goal):
        conversation = conversation_id(agent_id, goal.adoption_seq)
        return [Envelope("A", "B", Performative.INFORM, conversation, Term(text))]

    return SendStep(send)


def _command(name):
    return CommandStep(lambda agent_id, goal: [Command(name, (), conversation_id(agent_id, goal.adoption_seq))])


def test_every_intention_advances_once_per_cycle_oldest_first():
    def boom(agent_id, goal):
        raise RuntimeError("broken step")

    plans = [
        Plan(name="two", goal="two", body=(_command("two_1"), _send("two_2"))),
        Plan(name="broken", goal="broken", body=(SendStep(boom),)),
        Plan(name="spawn", goal="spawn", body=(GoalStep(lambda agent_id, goal: [("late", ())]),)),
        Plan(name="send", goal="send", body=(_send("send"),)),
        Plan(name="cmd", goal="cmd", body=(_command("cmd"),)),
        Plan(name="late", goal="late", body=(_command("late"),)),
    ]
    agent = make_agent("A", plans, advance_every_intention=True)
    for goal in ("two", "broken", "spawn", "send", "cmd", "send"):
        agent = adopt_goal(agent, goal, ())
    first = step(agent, [])
    # one step each, in adoption order; the failed one does not stop the rest
    assert [(c.name, c.conversation) for c in first.commands] == [("two_1", "A:0"), ("cmd", "A:4")]
    assert [(e.content.name, e.conversation) for e in first.outbox] == [
        ("send", "A:3"),
        ("send", "A:5"),
    ]
    assert [(i.plan.name, i.pc) for i in first.state.intentions] == [("two", 1)]
    assert first.state.percepts == [Belief("failed", ("broken",))]
    # the goal adopted mid-cycle waits for the next cycle's deliberation, and
    # the two-step intention takes its second step only now: each once, not drain
    assert [g.name for g in _adopted(first.state)] == ["two", "late"]
    second = step(first.state, [])
    assert [c.name for c in second.commands] == ["late"]
    assert [e.content.name for e in second.outbox] == ["two_2"]
    assert second.state.intentions == [] and second.state.goals == []
    assert second.state.plan_library.advance_every_intention


# -- step never mutates its input -----------------------------------------------


def _observable(state):
    return (
        _adopted(state),
        list(state.goals),
        list(state.intentions),
        list(state.percepts),
        state.next_seq,
        state.beliefs.as_beliefs(),
    )


def test_step_never_mutates_its_input():
    state = _toy_agent()
    for _ in range(10):
        state = assert_step_agrees_with_reference(state, []).state

    # the orchestrator with a request in its inbox and a store outcome queued
    oa = build_world()[0].agents["OA"]
    oa.percepts.append(Belief("store_reply", ("GW:1", "inform", "ok", "1")))
    request = Envelope("GW", "OA", Performative.REQUEST, "GW:0", Term("open_session", ("CS",)))
    result = assert_step_agrees_with_reference(oa, [request])
    assert len(result.commands) == 1 and len(result.outbox) == 1

    def boom(agent_id, goal):
        raise RuntimeError("broken step")

    broken = adopt_goal(make_agent("A", [Plan(name="p", goal="g", body=(SendStep(boom),))]), "g", ())
    result = assert_step_agrees_with_reference(broken, [])
    assert result.state.percepts == [Belief("failed", ("g",))]

    every = make_agent(
        "A", [_two_step("p1", "g1"), _two_step("p2", "g2")], advance_every_intention=True
    )
    every = adopt_goal(adopt_goal(every, "g1", ()), "g2", ())
    for _ in range(3):
        every = assert_step_agrees_with_reference(every, []).state


# -- plan choice: the plan library's indexes agree with a linear scan ------------

PERFORMATIVES = (Performative.REQUEST, *REPLIES)


def _scan_trigger(library, env=None, percept=None):
    """The first plan, in declaration order, that an envelope or a belief
    percept triggers: the reference the indexed choice must equal."""
    for plan in library:
        when = plan.when
        if env is not None and isinstance(when, MessageMatch):
            wanted = when.performative
            if isinstance(wanted, tuple):
                fits = env.performative in wanted
            else:
                fits = env.performative == wanted
            if fits:
                return plan
        if percept is not None and isinstance(when, BeliefMatch) and when.predicate == percept.predicate:
            return plan
    return None


def _scan_commit(library, goal):
    for plan in library:
        if plan.goal == goal.name:
            return plan
    return None


def _check_choice(state, env=None, percept=None, goal_name=None):
    """Deliberate over one envelope or percept, or one goal adopted, on a
    copy of ``state``; the goal adopted and the plan committed are the
    linear scan's."""
    state = _copy(state)
    library = state.plan_library
    # only this percept is queued, so every goal from ``first_new`` on is
    # this check's; the state's own percepts are checked by the reference cycle
    state.percepts = [] if percept is None else [percept]
    first_new = state.next_seq
    if goal_name is not None:
        state.adopt(goal_name, ("1",))
    after = bdi._deliberate(state, [] if env is None else [env])
    trigger = _scan_trigger(library, env, percept)
    if env is not None:
        assert library.on_message.get(env.performative) == trigger, env
    if percept is not None:
        assert library.on_percept.get(percept.predicate) == trigger, percept
        assert (percept in after.beliefs) == (trigger is None)  # unhandled, it is knowledge
    expected_goals = [goal_name] if goal_name else [] if trigger is None else [trigger.goal]
    adopted = [g for g in _adopted(after) if g.adoption_seq >= first_new]
    assert [g.name for g in adopted] == expected_goals, (env, percept)
    if not adopted:
        return
    goal = adopted[0]
    expected = _scan_commit(library, goal)
    committed = [i.plan for i in after.intentions if i.origin_goal is goal]
    assert committed == ([] if expected is None else [expected]), goal
    assert (goal in after.goals) == (expected is None)


def assert_plan_choice_is_the_scans(agent):
    """Every performative, every predicate a plan triggers on (and one none
    does) and every goal a plan serves (and one none does): each choice
    equals the scan's, and each step the reference cycle's, from the
    agent's state and from the state a step over that envelope leaves."""
    library = agent.plan_library
    envs = [Envelope("X", agent.id, performative, "X:0", Term("any", ("1",))) for performative in PERFORMATIVES]
    predicates = {p.when.predicate for p in library if isinstance(p.when, BeliefMatch)}
    percepts = [Belief(pred, ("1",)) for pred in sorted(predicates | {"failed", "unnamed"})]
    goals = sorted({p.goal for p in library} | {"unserved"})
    states = [agent] + [assert_step_agrees_with_reference(agent, [env]).state for env in envs]
    for state in states:
        for env in envs:
            _check_choice(state, env=env)
            assert_step_agrees_with_reference(state, [env])
        for percept in percepts:
            _check_choice(state, percept=percept)
            with_percept = _copy(state)
            with_percept.percepts.append(percept)
            assert_step_agrees_with_reference(with_percept, [])
        for name in goals:
            _check_choice(state, goal_name=name)
            assert_step_agrees_with_reference(adopt_goal(state, name, ("1",)), envs)


# -- step against the three-phase reference cycle -----------------------------------


def _reference_perceive(state: AgentState, inbox: Sequence[Envelope]) -> None:
    for env in inbox:
        plan = _scan_trigger(state.plan_library, env=env)
        if plan is not None:
            state.adopt(plan.goal, env.content.args, env)
    pending, state.percepts = state.percepts, []
    for percept in pending:
        plan = _scan_trigger(state.plan_library, percept=percept)
        if plan is not None:
            state.adopt(plan.goal, percept.args)
        else:
            state.beliefs = state.beliefs.add(percept)


def _reference_commit(state: AgentState) -> None:
    waiting = []
    for goal in state.goals:
        plan = _scan_commit(state.plan_library, goal)
        if plan is None:
            waiting.append(goal)
        else:
            state.intentions.append(Intention(plan, 0, goal))
    state.goals = waiting


def reference_step(state: AgentState, inbox: Sequence[Envelope]) -> StepResult:
    """The cycle as three phases over a copy: perceive every envelope and
    percept into goals, commit every goal in adoption order, execute."""
    state = _copy(state)
    _reference_perceive(state, inbox)
    _reference_commit(state)
    outbox, commands = bdi._execute(state)
    return StepResult(state, outbox, commands)


def assert_step_agrees_with_reference(state: AgentState, inbox: Sequence[Envelope]) -> StepResult:
    """``step`` equals the reference on every successor field, the outbox
    and the commands, and leaves its input's lists as they were."""
    before = _observable(state)
    lists = (state.goals, state.intentions, state.percepts)
    result = step(state, inbox)
    assert _observable(state) == before
    want = reference_step(state, inbox)
    for f in fields(AgentState):
        assert getattr(result.state, f.name) == getattr(want.state, f.name), f.name
    assert (result.outbox, result.commands) == (want.outbox, want.commands)
    after = result.state
    assert not {id(x) for x in lists} & {id(after.goals), id(after.intentions), id(after.percepts)}
    return result


def test_the_successor_has_every_field_and_shares_no_list_with_its_input():
    state = make_agent("A", [_two_step("p1", "g")], [Belief("b", ())], advance_every_intention=True)
    state = step(adopt_goal(state, "g", ()), []).state
    state.adopt("idle", ())
    state.percepts.append(Belief("p", ()))
    for f in fields(AgentState):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        assert getattr(state, f.name) != default, f"the test state leaves {f.name} at its default"
    after = assert_step_agrees_with_reference(state, []).state
    assert after.percepts == [] and after.goals == state.goals and after.next_seq == state.next_seq
    assert after.beliefs == state.beliefs | {Belief("p", ())}
    assert after.plan_library.advance_every_intention and after.id == "A"


def _message_plan(name, goal, performative=PERFORMATIVES):
    return Plan(name=name, goal=goal, body=(SendStep(_noop_send),), when=MessageMatch(performative))


def _boom(agent_id, goal):
    raise RuntimeError("broken step")


#: Plan libraries of this file's tests, then one that mixes every trigger
#: shape ahead of the plans it shadows, then one whose steps adopt goals
#: (served and not), add beliefs that trigger plans, and fail.
TEST_LIBRARIES = (
    [_two_step("p1", "g"), _two_step("p2", "g")],
    list(_toy_agent().plan_library),
    [_message_plan("on_register", "register", Performative.REQUEST)],
    [_message_plan("on_msg", "handle")],
    [
        _plan("serve_first", "serve"),
        _message_plan("answers", "answer", REPLIES),
        _message_plan("requests", "serve", Performative.REQUEST),
        _message_plan("registers", "register", Performative.REQUEST),  # shadowed by "requests"
        _message_plan("informs", "answer", Performative.INFORM),  # shadowed by "answers"
        _message_plan("any", "loop"),  # every performative is taken above
        Plan(name="on_failed", goal="recover", body=(SendStep(_noop_send),), when=BeliefMatch("failed")),
        Plan(name="on_done", goal="loop", body=(SendStep(_noop_send),), when=BeliefMatch("done")),
        Plan(name="on_failed_too", goal="serve", body=(SendStep(_noop_send),), when=BeliefMatch("failed")),
        _plan("loop_any", "loop"),
    ],
    [
        Plan(
            name="spawn",
            goal="serve",
            body=(GoalStep(lambda agent_id, goal: [("work", ()), ("unserved", ())]), _send("s")),
            when=MessageMatch(Performative.REQUEST),
        ),
        Plan(name="work", goal="work", body=(BelieveStep(lambda agent_id, goal: [add("done")]), _command("w"))),
        Plan(name="broken", goal="answer", body=(SendStep(_boom),), when=MessageMatch(REPLIES)),
        Plan(name="on_done", goal="tidy", body=(_send("tidied"),), when=BeliefMatch("done")),
        Plan(name="on_failed", goal="work", body=(_command("retry"),), when=BeliefMatch("failed")),
    ],
)


@pytest.mark.parametrize("plans", TEST_LIBRARIES)
def test_the_indexed_plan_choice_and_step_are_the_references_for_the_test_libraries(plans):
    assert_plan_choice_is_the_scans(make_agent("A", plans))
    assert_plan_choice_is_the_scans(make_agent("A", plans, advance_every_intention=True))


def test_the_indexed_plan_choice_and_step_are_the_references_for_every_roster_agent():
    world, _ = build_world()
    assert len(world.agents) == 10
    for agent in world.agents.values():
        assert_plan_choice_is_the_scans(agent)


def test_every_step_of_a_run_agrees_with_the_reference(monkeypatch):
    # every roster agent in the states a run takes it through, the
    # gateway's goals adopted by the harness included
    steps = []

    def checked(state, inbox):
        steps.append(state.id)
        return assert_step_agrees_with_reference(state, inbox)

    monkeypatch.setattr(bdi, "step", checked)
    fuzz(1, 300)
    run_scenario(parse_scenario((SCENARIOS / "reports.scn").read_text()))
    assert set(steps) == set(build_world()[0].agents)


_triggers = st.one_of(
    st.none(),
    st.builds(
        MessageMatch,
        st.one_of(
            st.sampled_from(PERFORMATIVES),
            st.lists(st.sampled_from(PERFORMATIVES), min_size=1, max_size=3, unique=True).map(tuple),
        ),
    ),
    st.builds(BeliefMatch, st.sampled_from(["failed", "p", "q"])),
)


@given(st.lists(st.tuples(st.sampled_from(["g0", "g1", "g2"]), _triggers), min_size=1, max_size=8))
def test_the_indexed_plan_choice_is_the_linear_scans_for_any_library(shapes):
    plans = [
        Plan(name=f"p{i}", goal=goal, body=(SendStep(_noop_send),), when=when)
        for i, (goal, when) in enumerate(shapes)
    ]
    assert_plan_choice_is_the_scans(make_agent("A", plans))


#: Plan steps by name: each kind of step, one that fails, and goal steps
#: that adopt a goal some plan may serve and one that none does.
_STEPS = {
    "send": _send("sent"),
    "command": _command("cmd"),
    "believe_p": BelieveStep(lambda agent_id, goal: [add("p", *goal.params[:1])]),
    "believe_q": BelieveStep(lambda agent_id, goal: [add("q")]),
    "adopt_g0": GoalStep(lambda agent_id, goal: [("g0", goal.params)]),
    "adopt_unserved": GoalStep(lambda agent_id, goal: [("unserved", ())]),
    "fail": SendStep(_boom),
}

_goal_names = st.sampled_from(["g0", "g1", "g2", "unserved"])
_plans = st.lists(
    st.tuples(
        st.sampled_from(["g0", "g1", "g2"]),
        _triggers,
        st.lists(st.sampled_from(sorted(_STEPS)), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=6,
)
_inboxes = st.lists(st.lists(st.sampled_from(PERFORMATIVES), max_size=4), min_size=1, max_size=5)


@given(
    _plans,
    st.lists(_goal_names, max_size=4),
    st.lists(st.sampled_from(["failed", "p", "q", "unnamed"]), max_size=3),
    _inboxes,
    st.booleans(),
)
def test_step_agrees_with_the_reference_cycle_for_any_library_inbox_and_percepts(
    shapes, goals, predicates, inboxes, every
):
    plans = [
        Plan(name=f"p{i}", goal=goal, body=tuple(_STEPS[k] for k in body), when=when)
        for i, (goal, when, body) in enumerate(shapes)
    ]
    state = make_agent("A", plans, advance_every_intention=every)
    for name in goals:
        state.adopt(name, ("1",))  # from outside, as the harness adopts the gateway's
    state.percepts.extend(Belief(pred, ("1",)) for pred in predicates)
    for cycle, performatives in enumerate(inboxes):
        inbox = [
            Envelope("X", "A", performative, f"X:{cycle}.{k}", Term("any", (str(k),)))
            for k, performative in enumerate(performatives)
        ]
        state = assert_step_agrees_with_reference(state, inbox).state


@pytest.mark.parametrize(
    "wanted", [None, (), "ask", "", [Performative.REQUEST], (Performative.REQUEST, None), ("inform", "ask")]
)
def test_a_message_trigger_must_name_a_performative_or_a_tuple_of_them(wanted):
    with pytest.raises(ValueError, match="performative"):
        MessageMatch(wanted)


# -- a goal no message raised has no message ----------------------------------------


def test_a_step_reading_the_message_of_a_goal_no_message_raised_fails_its_plan():
    reads = Plan(name="reads", goal="g", body=(SendStep(lambda agent_id, goal: [goal.message.content]),))
    result = step(adopt_goal(make_agent("A", [reads]), "g", ()), [])
    assert result.outbox == () and result.state.intentions == []
    assert result.state.percepts == [Belief("failed", ("g",))]
    # the gateway passes its goal's message on unread, so it checks for one
    gateway = adopt_goal(build_world()[0].agents["GW"], "issue", ("x",))
    result = step(gateway, [])
    assert result.outbox == () and result.state.percepts == [Belief("failed", ("issue",))]
    # and in a world, no envelope reaches ``route``
    world, _ = build_world()
    world.agents["GW"].adopt("issue", ("x",))
    run_round(world)
    assert world.log.text().count("|envelope|") == 0
    assert world.agents["GW"].percepts == [Belief("failed", ("issue",))]
