import pytest

from unimas.agents import ROSTER, build_world
from unimas.bdi import BelieveStep, MessageMatch, Plan, SendStep, add, make_agent
from unimas.runtime import World, register_agent, route, run_round
from unimas.terms import REPLIES, Envelope, Performative, Term

from test_bdi import assert_plan_choice_is_the_scans


#: Answers any request with ``pong``.
RESPONDER = Plan(
    name="respond",
    goal="respond",
    when=MessageMatch(Performative.REQUEST),
    body=(
        SendStep(
            lambda agent_id, goal: [
                Envelope("SA", goal.message.sender, Performative.INFORM, goal.message.conversation, Term("pong"))
            ]
        ),
    ),
)
#: Notes the conversation of any message.
NOTER = Plan(
    name="noter",
    goal="note",
    when=MessageMatch((Performative.REQUEST, *REPLIES)),
    body=(BelieveStep(lambda agent_id, goal: [add("noted", goal.message.conversation)]),),
)
#: Answers an inform (a ``tick``) with another, to itself.
LOOP = Plan(
    name="loop",
    goal="loop",
    when=MessageMatch(Performative.INFORM),
    body=(
        SendStep(
            lambda agent_id, goal: [
                Envelope("A", "A", Performative.INFORM, goal.message.conversation, Term("tick"))
            ]
        ),
    ),
)


def _agent(agent_id, plans=()):
    return make_agent(agent_id, plans or [Plan(name="idle", goal="never", body=(SendStep(lambda c: []),))])


def _rounds_to_quiescence(world, max_rounds):
    """Run rounds until the world is quiescent or ``max_rounds`` ran; the rounds run."""
    rounds = 0
    while not world.is_quiescent() and rounds < max_rounds:
        run_round(world)
        rounds += 1
    return rounds


def test_register_into_empty_world():
    world = World()
    register_agent(world, _agent("SA"))
    assert list(world.agents) == ["SA"]
    assert world.mailboxes["SA"] == []


def test_register_full_roster():
    world, _ = build_world()
    assert len(world.agents) == 10
    assert tuple(world.agents) == ROSTER


def test_route_empty_is_noop():
    world = World()
    register_agent(world, _agent("SA"))
    route(world, [])
    assert world.mailboxes["SA"] == []
    assert world.log.text() == ""  # nothing routed, nothing traced


def test_route_is_fifo_per_receiver():
    world = World()
    register_agent(world, _agent("SA"))
    register_agent(world, _agent("GW"))
    e1 = Envelope("GW", "SA", Performative.REQUEST, "GW:0", Term("a"))
    e2 = Envelope("GW", "SA", Performative.REQUEST, "GW:1", Term("b"))
    route(world, [e1, e2])
    assert [e.content.name for e in world.mailboxes["SA"]] == ["a", "b"]


def test_route_raises_on_a_receiver_that_is_not_registered():
    # a routing bug is loud: no reply stands in for the lost envelope
    world = World()
    register_agent(world, _agent("GW"))
    env = Envelope("GW", "XX", Performative.REQUEST, "GW:0", Term("a"))
    with pytest.raises(KeyError, match="XX"):
        route(world, [env])
    assert world.mailboxes == {"GW": []}
    assert world.log.text() == ""  # the envelope was not traced


def test_route_stops_at_the_first_unregistered_receiver():
    # envelopes before it are delivered and traced; none after it is
    world = World()
    register_agent(world, _agent("SA"))
    register_agent(world, _agent("GW"))
    sent = [
        Envelope("GW", receiver, Performative.REQUEST, f"GW:{i}", Term("a"))
        for i, receiver in enumerate(("SA", "XX", "SA"))
    ]
    with pytest.raises(KeyError, match="XX"):
        route(world, sent)
    assert world.mailboxes == {"SA": [sent[0]], "GW": []}
    assert world.log.text().count("\n") == 1 and "GW:0" in world.log.text()


def test_quiescent_round_only_advances_counter():
    world = World()
    register_agent(world, _agent("SA"))
    assert world.is_quiescent()
    run_round(world)
    assert world.round == 1
    assert world.mailboxes["SA"] == []
    assert world.is_quiescent()
    assert world.log.text() == ""  # an idle round traces nothing


def test_an_agent_is_busy_exactly_when_run_round_would_step_it():
    # a held goal that no plan serves still gets the agent stepped, so the
    # world is not quiet while it waits
    world = World()
    register_agent(world, _agent("SA"))
    world.agents["SA"].adopt("unserved", ())
    assert not world.is_quiescent()
    run_round(world)
    assert world.agents["SA"].goals  # stepped, and still holding it
    assert not world.is_quiescent()


def test_run_until_quiescent_on_quiescent_world():
    world = World()
    register_agent(world, _agent("SA"))
    assert _rounds_to_quiescence(world, max_rounds=10) == 0
    assert world.is_quiescent()
    assert world.round == 0


def test_round_delivers_next_round():
    """Hand-traced two rounds: a request handled in round 1 is answered in
    round 2, and the reply is readable in round 3."""
    world = World()
    register_agent(world, _agent("GW"))
    register_agent(world, make_agent("SA", [RESPONDER]))
    route(world, [Envelope("GW", "SA", Performative.REQUEST, "GW:0", Term("ping"))])
    run_round(world)  # SA consumed the request and sent the reply at round end
    assert [e.content.name for e in world.mailboxes["GW"]] == ["pong"]
    assert world.round == 1


def test_same_scenario_same_trace_hash():
    def run_once():
        world = World()
        register_agent(world, _agent("GW"))
        register_agent(world, make_agent("SA", [NOTER]))
        route(world, [Envelope("GW", "SA", Performative.REQUEST, "GW:0", Term("x", ("1",)))])
        for _ in range(4):
            run_round(world)
        world.log.close(complete=True)
        return world.log.sha256()

    assert run_once() == run_once()


def test_register_request_quiesces_quickly():
    from unimas.scenario import ScenarioRunner, parse_scenario

    runner = ScenarioRunner()
    commands = parse_scenario(
        "OPEN_SESSION dept=CS\nREGISTER_STUDENT st_id=1 name=A dept=CS\n"
    )
    result = runner.run(commands)
    assert result.quiescent
    assert result.rounds_used <= 2 * 8  # two serial commands
    assert result.monitor.max_reply_latency <= 10


def test_single_register_request_quiescent_in_five_rounds():
    """Hand-count of the mediated flow with round-end routing:

    round 1  SA consumes the request, re-issues it to OA
    round 2  OA turns it into a store command; outcome percept lands
    round 3  OA sends the reply to SA
    round 4  SA forwards the reply to the gateway
    round 5  the gateway drains its mailbox; world is quiescent
    """
    world, _store = build_world()
    route(
        world,
        [Envelope("GW", "SA", Performative.REQUEST, "GW:0", Term("add_student", ("1", "A", "CS")))],
    )
    assert _rounds_to_quiescence(world, max_rounds=10) == 5
    assert world.is_quiescent()


def test_self_messaging_agent_never_quiesces():
    world = World()
    register_agent(world, make_agent("A", [LOOP]))
    route(world, [Envelope("A", "A", Performative.INFORM, "A:0", Term("tick"))])
    assert _rounds_to_quiescence(world, max_rounds=25) == 25
    assert not world.is_quiescent()


def test_monitor_observer_does_not_change_trace():
    from unimas.config import RunConfig
    from unimas.monitor import Monitor

    def run_once(attach_monitor):
        world, _store = build_world(RunConfig())
        if attach_monitor:
            world.observers.append(Monitor(RunConfig()).observe)
        content = Term("open_session", ("CS",))
        request = Envelope("GW", "OA", Performative.REQUEST, "GW:0", content)
        world.agents["GW"].adopt("issue", content.args, request)
        for _ in range(8):
            run_round(world)
        world.log.close(complete=True)
        return world.log.sha256()

    assert run_once(True) == run_once(False)


@pytest.mark.parametrize(
    "plans", [[RESPONDER], [NOTER], [LOOP], [LOOP, RESPONDER, NOTER], [NOTER, LOOP, RESPONDER]]
)
def test_the_indexed_plan_choice_and_step_are_the_references_for_this_files_libraries(plans):
    assert_plan_choice_is_the_scans(_agent("A", plans))
