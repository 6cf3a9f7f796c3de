import gc
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import cache

import pytest
import runs
from hypothesis import given, settings, strategies as st

from unimas import scenario, terms
from unimas.config import ConfigError, RunConfig, parse_config_text, parse_header
from unimas.fuzz import fuzz, generate
from unimas.monitor import PropertyId
from unimas.scenario import (
    ScenarioCommand,
    ScenarioError,
    ScenarioRunner,
    load_test,
    parse_scenario,
    replay_crash,
    run_scenario,
)
from unimas.trace import TraceEvent

# -- parsing -------------------------------------------------------------------


def test_empty_file_parses_to_nothing():
    assert parse_scenario("") == []
    assert parse_scenario("# only a comment\n\n") == []


def test_single_command_parses():
    commands = parse_scenario("REGISTER_STUDENT st_id=111 name=Ali dept=CS\n")
    assert len(commands) == 1
    assert commands[0].verb == "REGISTER_STUDENT"
    assert commands[0].get("st_id") == "111"
    assert commands[0].line == 1


def test_unknown_verb_reports_line_number():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("OPEN_SESSION dept=CS\nFLY_TO_MOON now=yes\n")
    assert err.value.line == 2


def test_missing_required_key_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("REGISTER_STUDENT st_id=1 name=A\n")


def test_expect_refusal_needs_a_preceding_command():
    with pytest.raises(ScenarioError):
        parse_scenario("EXPECT_REFUSAL\n")


def test_double_expect_refusal_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("OPEN_SESSION dept=EE\nEXPECT_REFUSAL\nEXPECT_REFUSAL\n")
    assert err.value.line == 3


def test_a_second_expect_refusal_across_a_crash_is_rejected():
    # both bind to the second REGISTER_STUDENT, where a run would keep only one
    text = (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "EXPECT_REFUSAL reason=busy\n"
        "CRASH\n"
        "EXPECT_REFUSAL reason=Student_Already_Registerd\n"
    )
    with pytest.raises(ScenarioError, match="already asserted for this command") as err:
        parse_scenario(text)
    assert err.value.line == 6
    lines = text.splitlines(keepends=True)
    assert len(parse_scenario("".join(lines[:3] + lines[4:]))) == 5  # one expectation binds across


def test_bad_report_kind_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("GENERATE_REPORT kind=everything\n")


_STUDENT = "REGISTER_STUDENT st_id=1 name=A dept=CS\n"


@pytest.mark.parametrize(
    "text, error",
    [
        # the offending token repeats one from an earlier line
        (_STUDENT + "REGISTER_STUDENT st_id=1 st_id=1\n", "line 2: duplicate key st_id"),
        (_STUDENT + "OPEN_SESSION st_id=1 dept=CS\n", "line 2: unknown key st_id"),
        (_STUDENT + "REGISTER_STUDENT st_id=1 name=A\n", "line 2: missing key dept"),
        # the first failing token wins: the duplicate key before its unsafe value
        (_STUDENT + "REGISTER_STUDENT st_id=1 st_id=A,B\n", "line 2: duplicate key st_id"),
        (
            _STUDENT + "REGISTER_STUDENT st_id=1 name=A,B dept=CS\n",
            "line 2: unsafe characters in term scalar: 'A,B'",
        ),
    ],
    ids=["duplicate", "unknown", "missing", "duplicate-then-unsafe", "unsafe"],
)
def test_errors_are_the_same_for_a_token_seen_before(text, error):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert (str(err.value), err.value.line) == (error, 2)


_token = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-@."),
    min_size=1,
    max_size=10,
)


@given(
    st.lists(
        st.builds(
            lambda st_id, name: ScenarioCommand(
                "REGISTER_STUDENT", (("st_id", st_id), ("name", name), ("dept", "CS"))
            ),
            _token,
            _token,
        ),
        max_size=6,
    )
)
@settings(max_examples=50)
def test_parse_print_roundtrip(commands):
    printed = "".join(f"{c.render()}\n" for c in commands)
    reparsed = parse_scenario(printed)
    assert [(c.verb, c.args) for c in reparsed] == [(c.verb, c.args) for c in commands]


# -- config --------------------------------------------------------------------


def test_config_file_roundtrip_via_header():
    cfg = parse_config_text(
        "cap = 10\nmin_lectures_mid = 4\nmin_lectures_final = 8\nmin_marks = 5\n"
        "max_marks = 90\nliveness_k = 50\nseed = 9\nmax_rounds = 500\nlab_count = 3\n"
        "cs_roster = CS IT\npipeline_window = 4\ninject = p3\n"
    )
    # every key away from its default, so none can round-trip by falling back to it
    default = RunConfig()
    unchanged = [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)]
    assert unchanged == []
    assert cfg.cap == 10 and cfg.cs_roster == ("CS", "IT")
    assert parse_header(cfg.header()) == cfg


def test_config_refuses_a_roster_entry_the_header_cannot_carry():
    # a scenario and a config file end a line at "#", so no "C#S" could be named
    for bad in ("CS,EE", "C|S", "C S", "C(S)", "C#S"):
        with pytest.raises(ConfigError):
            RunConfig(cs_roster=("CS", bad))
    with pytest.raises(ConfigError):
        RunConfig(cs_roster=())


def test_config_reads_back_from_its_header_or_is_refused():
    accepted = (
        RunConfig(),
        RunConfig(cs_roster=("CS", "EE", "-")),
        RunConfig(cs_roster=("A=B",)),
        RunConfig(inject="p10", seed=-5),
    )
    for cfg in accepted:
        assert parse_header(cfg.header()) == cfg, cfg
    refused = (
        {"cs_roster": ("A+B",)},
        {"cs_roster": ("", "CS")},
        {"cs_roster": ("C#S",)},
    )
    for settings in refused:
        with pytest.raises(ConfigError):
            RunConfig(**settings)


def test_marks_bounds_are_checked_once_on_the_finished_config():
    # raising both bounds past the other's old value, in either order
    pair = ("max_marks = 200", "min_marks = 150")
    first, second = (parse_config_text("\n".join(order)) for order in (pair, pair[::-1]))
    assert first == second and (first.min_marks, first.max_marks) == (150, 200)
    assert parse_header(first.header()) == first
    pair = ("max_marks = 50", "min_marks = 60")
    for order in (pair, pair[::-1]):
        with pytest.raises(ConfigError, match="must not exceed"):
            parse_config_text("\n".join(order))


def test_config_rejects_unknown_key_and_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("caps = 10\n")
    with pytest.raises(ConfigError):
        parse_config_text("cap = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("cap = 0\n")
    # inject takes p1..p11 wherever the config comes from
    for flag in ("p99", "P1", "p0", "p12"):
        with pytest.raises(ConfigError):
            parse_config_text(f"inject = {flag}\n")
        with pytest.raises(ConfigError):
            parse_header(RunConfig().header().replace("inject=-", f"inject={flag}"))


# -- runner --------------------------------------------------------------------


def test_gateway_requires_open_session():
    result = run_scenario(parse_scenario("REGISTER_STUDENT st_id=1 name=A dept=CS\n"))
    assert result.outcomes[0].status == "gateway_refused"
    assert result.outcomes[0].reason == "no open session"


def test_expect_refusal_passes_on_refusal_and_fails_on_accept():
    refused = runs.run(
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "EXPECT_REFUSAL reason=Student_Already_Registerd\n"
    )
    assert refused.exit_code == 0 and not refused.expectation_failures

    accepted = runs.run("OPEN_SESSION dept=CS\nREGISTER_STUDENT st_id=1 name=A dept=CS\nEXPECT_REFUSAL\n")
    assert accepted.exit_code == 2
    assert accepted.expectation_failures


def test_truncated_run_reports_an_unanswered_expectation_as_no_reply():
    text = (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "EXPECT_REFUSAL\n"
    )
    result = run_scenario(parse_scenario(text), RunConfig(max_rounds=5))
    assert result.outcomes[2] is None  # cut off before any reply came
    assert result.expectation_failures == ["line 3: expected refusal, no reply"]
    assert result.exit_code == 2


def test_injected_run_exits_2_with_expected_property():
    result = runs.run(
        "OPEN_SESSION dept=CS\nREGISTER_STUDENT st_id=1 name=A dept=CS\nREGISTER_STUDENT st_id=1 name=A dept=CS\n",
        RunConfig(inject="p1"),
    )
    assert result.exit_code == 2
    violated = [v.property for v in result.verdicts if v.status == "violated"]
    assert violated == [PropertyId.P1]


def test_same_run_twice_identical_trace_hash():
    text = (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "GENERATE_REPORT kind=attendance\n"
    )
    a = run_scenario(parse_scenario(text), RunConfig(seed=5))
    b = run_scenario(parse_scenario(text), RunConfig(seed=5))
    assert a.trace_hash == b.trace_hash


# -- crash replay ------------------------------------------------------------------


CRASH_TEXT = (
    "OPEN_SESSION dept=CS\n"
    "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
    "ADD_PROGRAM name=p session=morning semesters=2 fee=100\n"
    "ADMIT student_id=1 p_id=1\n"
    "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
    "DELIVER_LECTURE class_id=1 subject=Math times=16\n"
    "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
    "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=90\n"
)


def test_negative_crash_index_is_refused():
    with pytest.raises(ValueError):
        run_scenario(parse_scenario(CRASH_TEXT), crash_at=-1)


def test_crash_at_zero_equals_fresh_run():
    assert replay_crash(parse_scenario(CRASH_TEXT), crash_at=0)


@pytest.mark.parametrize("at", [1, 3, 5, 8])
def test_crash_mid_scenario_dump_identical(at):
    assert replay_crash(parse_scenario(CRASH_TEXT), crash_at=at), f"dump diverged at crash point {at}"


def test_torn_write_recovers_and_matches():
    assert replay_crash(parse_scenario(CRASH_TEXT), crash_at=4, torn=True)


def test_torn_write_redrive_is_not_a_duplicate_to_the_monitor():
    # the torn event is legitimately re-driven after recovery; the crash
    # snapshot re-seeds the monitor so no property reads it as a duplicate
    from dataclasses import replace as dc_replace

    cfg = dc_replace(RunConfig(), pipeline_window=1)
    result = run_scenario(parse_scenario(CRASH_TEXT), cfg, crash_at=2, torn=True)
    statuses = {v.property.value: v.status for v in result.verdicts}
    assert statuses["P1"] == "holds"
    assert all(s == "holds" for p, s in statuses.items() if p != "P12")


def test_crash_marker_in_scenario():
    text = CRASH_TEXT.replace(
        "ADMIT student_id=1 p_id=1\n", "CRASH\nADMIT student_id=1 p_id=1\n"
    )
    baseline = run_scenario(parse_scenario(CRASH_TEXT))
    crashed = run_scenario(parse_scenario(text))
    assert crashed.store.dump() == baseline.store.dump()


def test_a_crash_restarts_the_agents_in_the_one_world_under_fresh_conversation_ids(monkeypatch):
    """Crashed at a journal index with a request in flight, its store event
    kept or torn, and at CRASH lines at window 8.  Each agent restarts on
    the program it runs, its throttle flag with it, and its conversation
    seq, and nothing else of its mind or its mailbox; the crash builds no
    plan."""
    from test_golden_hashes import _with_crash_lines
    from unimas.bdi import PlanLibrary
    from unimas.trace import parse_trace

    builds = []
    build = PlanLibrary.__init__
    monkeypatch.setattr(PlanLibrary, "__init__", lambda self, *args, **kw: builds.append(1) or build(self, *args, **kw))

    runs = [(RunConfig(), CRASH_TEXT, {"crash_at": 4, "torn": torn}) for torn in (False, True)]
    runs.append((RunConfig(pipeline_window=8), _with_crash_lines(), {}))
    in_flight, busy = [], []
    for cfg, text, crash in runs:
        runner = ScenarioRunner(cfg)
        world = runner.world

        def restart(torn, crash_once=runner._crash, agents=world.agents, mailboxes=world.mailboxes):
            kept = {aid: (a.plan_library, a.next_seq) for aid, a in agents.items()}
            busy.append(any(a.intentions or a.percepts or mailboxes[a.id] for a in agents.values()))
            built = len(builds)
            redo = crash_once(torn)
            assert len(builds) - built == 0, "plan libraries built in a crash"
            for aid, state in agents.items():
                program, seq = kept[aid]
                assert state.plan_library is program and state.next_seq == seq, aid
                mind = (state.beliefs, state.goals, state.intentions, state.percepts, mailboxes[aid])
                assert not any(mind), aid
            return redo

        runner._crash = restart
        result = runner.run(parse_scenario(text), **crash)
        assert runner.world is world and result.log is world.log, crash
        events = list(parse_trace(result.log.text().splitlines()))
        assert sum(e.kind == "snapshot" for e in events) > 1, crash  # it crashed
        requests = [e.conversation for e in events if e.performative == terms.Performative.REQUEST]
        assert len(requests) == len(set(requests)), f"a conversation id opened twice: {crash}"
        statuses = [o.status for o in result.outcomes]
        in_flight.append((sum(c.startswith("GW:") for c in requests), statuses.count("applied_no_reply")))
    # ADMIT was in flight: kept, it ends without a reply; torn, it is driven again
    assert in_flight[:2] == [(8, 1), (9, 0)]
    assert busy[:2] == [True, True] and len(busy) == 5  # one crash each, then three CRASH lines


# -- load test ----------------------------------------------------------------------


def test_load_single_client():
    summary = load_test(RunConfig(cap=10), clients=1)
    assert (summary.granted, summary.busy) == (1, 0)


def test_load_at_capacity_all_granted():
    summary = load_test(RunConfig(cap=10), clients=10)
    assert (summary.granted, summary.busy) == (10, 0)


def test_load_over_capacity_busy():
    summary = runs.load(RunConfig(cap=10), 11)
    assert (summary.granted, summary.busy) == (10, 1)
    assert summary.result.exit_code == 0  # busy refusals are correct behavior


def test_load_well_over_capacity():
    # scaled version of the 1000-cap/1500-client shape: all surplus goes busy
    summary = load_test(RunConfig(cap=10), clients=15)
    assert (summary.granted, summary.busy) == (10, 5)


# -- fuzz ---------------------------------------------------------------------------


def test_generate_is_deterministic():
    cfg = RunConfig()
    assert [c.render() for c in generate(3, 50, cfg)] == [c.render() for c in generate(3, 50, cfg)]


def test_fuzz_same_seed_same_hash():
    assert fuzz(1, 100).trace_hash == fuzz(1, 100).trace_hash


def test_fuzz_different_seeds_differ():
    assert runs.fuzz(1, 100).trace_hash != runs.fuzz(2, 100).trace_hash


def test_fuzz_small_sweep_no_violations():
    for seed in range(1, 4):
        result = runs.fuzz(seed, 120)
        assert result.exit_code == 0, [v.render() for v in result.verdicts if v.status != "holds"]
        assert result.quiescent


#: Peak bytes a fuzz run may allocate per event, under tracemalloc: 1,718 on
#: Python 3.11.7.  With a fresh pair and value string per generated argument
#: it peaked at 2,011; a trace held one string per line, with commands and
#: outcomes in per-instance dicts, peaks near 2,840.
FUZZ_PEAK_BYTES_PER_EVENT = 2050


def test_a_fuzz_run_peaks_below_its_memory_bound():
    fuzz(1, 20)  # imports and lazily built tables are not the run's
    gc.collect()  # the collector starts from the same counts wherever the test runs
    tracemalloc.start()
    try:
        fuzz(1, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1000 < FUZZ_PEAK_BYTES_PER_EVENT, peak


#: How much the Python work per command may grow at 4x the commands, or at
#: window 64 against window 8.  On Python 3.11.7 a run takes 818.1 trace
#: events per command at 1k commands, 816.6 at 4k and 818.1 at window 64; a
#: commit phase that walked every goal held took 1,307.8 at window 64.
GROWTH_RATIO = 1.02

#: Trace events per command of ``fuzz(1, 1000)`` at window 8 on CPython
#: 3.11.7.  It was 1,078.9 with a plan scan per message, percept and goal,
#: NamedTuple ``__new__`` calls per command and a trace line rendered per
#: append, 940.1 with plan contexts, content-name triggers, belief deltas
#: and an unknown-receiver check in the router, 911.2 with a step that
#: copied the agent's state and then perceived and committed in two passes,
#: 818.1 with the live monitor called once per emitted event and P9 walking
#: each command's whole schema, and 815.4 with a context tuple built for each
#: plan step and the store's draft and percept handed over in sequences.
#: Building each program once took it to 803.6, and the gateway's session
#: gate, which records each session command it sends, back to 804.6.
EVENTS_PER_COMMAND = 804.6


@cache
def _trace_events_per_command(n_commands: int, window: int) -> float:
    cfg = RunConfig(seed=1, pipeline_window=window)
    commands = generate(1, n_commands, cfg)
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1
        return tracer  # line and return events of the frame too

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run_scenario(commands, cfg)
    finally:
        sys.settrace(previous)
    return count / n_commands


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="trace event counts move between Python versions; the bound is CPython 3.11's",
)
def test_python_work_per_command_stays_within_its_bound():
    assert _trace_events_per_command(1000, 8) <= EVENTS_PER_COMMAND * 1.03


def test_python_work_per_command_stays_flat_as_a_run_and_its_window_grow():
    # trace events count interpreter work exactly, a loop that calls nothing
    # included, so a per-goal walk creeping back into the step shows here
    # where a timing's noise would hide it
    base = _trace_events_per_command(1000, 8)
    assert _trace_events_per_command(4000, 8) / base < GROWTH_RATIO
    assert _trace_events_per_command(1000, 64) / base < GROWTH_RATIO


def test_parsed_commands_share_one_string_per_verb_and_key(monkeypatch):
    first, second = parse_scenario("OPEN_SESSION dept=CS\nOPEN_SESSION dept=EE\n")
    assert first.verb is second.verb
    assert first.args[0][0] is second.args[0][0]
    # equal tokens are one pair, and each distinct value is checked once
    checked: list[str] = []
    monkeypatch.setattr(scenario, "check_scalar", checked.append)
    text = (
        "OPEN_SESSION dept=CS\n"
        + "REGISTER_STUDENT st_id=7 name=Ali dept=CS\n" * 2
        + "DELIVER_LECTURE class_id=1 subject=Math times=\n" * 2
    )
    session, student, again, lecture, repeat = parse_scenario(text)
    assert all(a is b for a, b in zip(student.args, again.args))
    assert all(a is b for a, b in zip(lecture.args, repeat.args))
    assert student.args[2] is session.args[0]
    assert checked == ["CS", "7", "Ali", "1", "Math"]
    parse_scenario(text)  # the pairs live for one parse only
    assert checked == ["CS", "7", "Ali", "1", "Math"] * 2


def test_generated_commands_share_one_pair_per_key_and_value():
    args = [pair for command in generate(1, 500) for pair in command.args]
    first: dict[tuple[str, str], tuple[str, str]] = {}
    assert all(first.setdefault(pair, pair) is pair for pair in args)
    assert len(first) < len(args) / 2


#: Each documented configuration key (README, "Configuration") away from
#: its default, as a config line.
DOCUMENTED_SETTINGS = (
    "cap = 1",
    "cap = 2",
    "min_lectures_mid = 3",
    "min_lectures_mid = 40",
    "min_lectures_final = 5",
    "max_marks = 50",
    "min_marks = 40",
    "lab_count = 3",
    "cs_roster = CS+EE",
    "liveness_k = 4",
)


def test_fuzz_holds_under_every_documented_configuration():
    for setting in DOCUMENTED_SETTINGS:
        cfg = parse_config_text(setting)
        assert parse_header(cfg.header()) == cfg, setting
        result = fuzz(2, 2000, cfg)
        assert result.exit_code == 0, (setting, [v.render() for v in result.verdicts])
        assert [v.status for v in result.verdicts] == ["holds"] * 12, setting


@pytest.mark.parametrize("seed", [1, 2])
def test_wide_window_fuzz_stream_keeps_reply_latency_bounded(seed):
    # 64 commands in flight: the orchestrator must keep pace with the
    # gateway, or replies queue for about twice the window (past K = 100)
    cfg = RunConfig(seed=seed, pipeline_window=64)
    result = run_scenario(generate(seed, 3000, cfg), cfg)
    assert [v.status for v in result.verdicts] == ["holds"] * 12
    assert result.monitor.max_reply_latency <= 20


_ONE_RELAY_STREAM = (
    "OPEN_SESSION dept=CS\n"
    "ADD_PROGRAM name=BSc session=morning semesters=2 fee=5000\n"
    "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
    + "DELIVER_LECTURE class_id=1 subject=Math\n" * 400
)
_REPORT_STREAM = "OPEN_SESSION dept=CS\n" + "GENERATE_REPORT kind=attendance\n" * 400


@pytest.mark.parametrize("window", [64, 128])
@pytest.mark.parametrize("text", [_ONE_RELAY_STREAM, _REPORT_STREAM], ids=["relay", "report"])
def test_one_verb_stream_keeps_reply_latency_bounded(text, window):
    # every command of the stream queues at one relay (CSA) or at the report
    # agent: each must keep pace with the gateway as the orchestrator does,
    # or replies wait for several windows' worth of rounds (past K = 100)
    result = run_scenario(parse_scenario(text), RunConfig(pipeline_window=window))
    assert [v.status for v in result.verdicts] == ["holds"] * 12
    assert result.monitor.max_reply_latency <= 10


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_fuzzed_journal_replays_to_identical_store(seed):
    from unimas.store import replay

    result = runs.fuzz(seed, 150)
    rebuilt = replay(result.store.journal_lines, result.cfg)
    assert rebuilt.dump() == result.store.dump()


@pytest.mark.parametrize("seed", [4, 9])
def test_trace_text_roundtrips_to_same_events(seed):
    from unimas.trace import parse_trace

    cfg = RunConfig(seed=seed, pipeline_window=8)
    runner = ScenarioRunner(cfg)
    seen = []
    runner.world.observers.append(seen.append)
    result = runner.run(generate(seed, 120, cfg))
    assert result.log.text() == fuzz(seed, 120).log.text()  # the fuzz run itself
    parsed = parse_trace(result.log.text().splitlines())
    assert list(parsed) == seen
    assert parsed.complete == result.quiescent
    assert parsed.header == result.cfg.header()


@pytest.mark.parametrize("seed", [5, 7, 13])
def test_fuzz_with_p4_injection_detects_duplicate_admissions(seed):
    # the generator forces duplicate-admission attempts well before 1000 events
    result = fuzz(seed, 1000, RunConfig(inject="p4"))
    violated = {v.property for v in result.verdicts if v.status == "violated"}
    assert violated == {PropertyId.P4}


@pytest.mark.parametrize("flag", ["p1", "p5", "p6", "p7", "p8", "p10", "p11"])
def test_fuzz_stream_isolates_each_reachable_guard(flag):
    # boundary pressure in the generated stream reaches every guard that a
    # default-config fuzz run can exercise; detection never cross-triggers
    result = fuzz(11, 1200, RunConfig(inject=flag))
    violated = sorted(v.property.value for v in result.verdicts if v.status == "violated")
    assert violated == [flag.upper()]


def test_unsafe_value_rejected_at_parse_time():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("OPEN_SESSION dept=CS\nREGISTER_STUDENT st_id=1 name=A,B dept=CS\n")
    assert err.value.line == 2


def test_p9_injection_with_empty_int_field_stays_contained():
    # the store turns the unvalidatable command into a fault, not a crash
    text = (
        "OPEN_SESSION dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters= fee=100\n"
    )
    result = run_scenario(parse_scenario(text), RunConfig(inject="p9"))
    assert result.outcomes[1].status == "failed"
    assert result.quiescent


# -- trust boundary: each value is checked once, where it enters -----------------


@pytest.mark.parametrize("value", ["Ali|B", "Ali,B", "Ali B"])
def test_unsafe_value_of_a_built_command_is_refused_before_it_is_traced(value):
    # fuzz and load_test build commands without parse_scenario, so the
    # gateway's check is the one they pass through
    student = ScenarioCommand(
        "REGISTER_STUDENT", (("st_id", "1"), ("name", value), ("dept", "CS"))
    )
    runner = ScenarioRunner()
    with pytest.raises(ValueError, match="unsafe"):
        runner.run([ScenarioCommand("OPEN_SESSION", (("dept", "CS"),)), student])
    lines = runner.world.log.text().splitlines()
    assert lines[1:]  # the session was traced, the value never
    assert not any(value in line for line in lines)
    # parsed, the same value is refused with its line number
    with pytest.raises(ScenarioError) as err:
        parse_scenario(f"OPEN_SESSION dept=CS\n{student.render()}\n")
    assert err.value.line == 2


@given(
    seed=st.integers(0, 10_000),
    events=st.integers(1, 40),
    name=st.text(alphabet="Ab1|,() \"", min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_every_trace_line_parses_into_eight_fields(seed, events, name):
    # the property the scalar check protects: no value can split a trace line
    cfg = RunConfig(seed=seed, pipeline_window=8)
    commands = [
        replace(c, args=tuple((k, name if k == "name" else v) for k, v in c.args))
        if c.verb == "REGISTER_STUDENT"
        else c
        for c in generate(seed, events, cfg)
    ]
    runner = ScenarioRunner(cfg)
    try:
        runner.run(commands)
    except ValueError as exc:
        assert "unsafe" in str(exc)
    for line in runner.world.log.text().splitlines():
        if not line.startswith("#"):
            assert len(line.split("|")) == len(TraceEvent.parse(line)) == 8


def test_each_scalar_is_checked_once_per_command(monkeypatch):
    # counted by name in every module that holds check_scalar, so a re-check
    # added downstream of the gateway shows up here
    calls = 0
    check = terms.check_scalar

    def counted(value):
        nonlocal calls
        calls += 1
        return check(value)

    for name, module in list(sys.modules.items()):
        if name == "unimas" or name.startswith("unimas."):
            for attr, value in list(vars(module).items()):
                if value is check:
                    monkeypatch.setattr(module, attr, counted)
    fuzz(1, 2000)
    assert 0 < calls / 2000 <= 4
