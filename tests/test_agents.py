"""Operation-level behavior of the ten agents, driven through scenarios.

Everything here runs the real world: gateway -> relay agent ->
orchestrator -> store and back, so the assertions cover the full mediated
path, not store shortcuts.
"""

from collections import Counter

import pytest
import runs
from oracle import parse_dump, reference_report
from runs import GOLDEN_CFG, SCENARIOS, TRAPS

from unimas import bdi
from unimas.agents import (
    GATEWAY,
    MIN_LIVENESS_K,
    ORCHESTRATOR,
    REPORT_KINDS,
    ROSTER,
    SERVED_BY,
    build_report,
    build_world,
    store_handler,
)
from unimas.bdi import Belief
from unimas.config import RunConfig
from unimas.fuzz import fuzz_config, generate
from unimas.runtime import route, run_round
from unimas.scenario import ScenarioRunner, parse_scenario, run_scenario
from unimas.store import SCHEMAS, Store
from unimas.terms import (
    Command,
    Envelope,
    Performative,
    Term,
    decode_blob,
    encode_blob,
    failed,
    refusal_line,
)
from unimas.trace import KIND_SET, parse_trace

SESSION = "OPEN_SESSION dept=CS\n"


def outcome_reasons(result):
    return [(o.status, o.reason) for o in result.outcomes]


def table(result, name):
    """One table's rows from the run's final store dump, in key order."""
    return parse_dump(result.store.dump())[name]


# -- student agent -------------------------------------------------------------


def test_first_student_gets_id_one():
    result = runs.run(SESSION + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n")
    assert result.outcomes[1].reply == Term("ok", ("1",))


def test_duplicate_registration_refused_with_paper_literal():
    result = runs.run(
        SESSION
        + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
    )
    assert result.outcomes[2].status == "refused"
    assert result.outcomes[2].reason == "Student Already Registerd"


def test_two_students_monotone_ids():
    result = runs.run(
        SESSION
        + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        + "REGISTER_STUDENT st_id=222 name=Sara dept=CS\n"
    )
    assert [o.reply.args[0] for o in result.outcomes[1:]] == ["1", "2"]


# -- values as written ------------------------------------------------------------

# Each case: scenario lines after the session, the status and reason of the
# last command, and lines the final dump or a journal record's args must hold.
VALUE_CASES = {
    "leading-zero-contact": (
        "REGISTER_TEACHER name=T designation=d contact=03001234567 email=t@u\n",
        ("ok", ""),
        ["teachers|1|teacher_id=1,name=T,designation=d,contact=03001234567,email=t@u"],
    ),
    "st-id-0111-then-111": (
        "REGISTER_STUDENT st_id=0111 name=A dept=CS\nREGISTER_STUDENT st_id=111 name=B dept=CS\n",
        ("ok", ""),
        [
            "students|1|student_id=1,st_id=0111,name=A,dpt_id=CS,program_id=,admit_year=",
            "students|2|student_id=2,st_id=111,name=B,dpt_id=CS,program_id=,admit_year=",
        ],
    ),
    "superscript-digit": (
        "REGISTER_STUDENT st_id=² name=A dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=2 fee=10\n"
        "ADMIT student_id=² p_id=1\n",
        ("failed", "invalid field student_id"),
        ["students|1|student_id=1,st_id=²,name=A,dpt_id=CS,program_id=,admit_year="],
    ),
    "int-fields-canonical": (
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=2 fee=10\n"
        "ADMIT student_id=01 p_id=1 year=02025\n",
        ("ok", ""),
        [
            "student_id=1,p_id=1,year=2025",
            "students|1|student_id=1,st_id=1,name=A,dpt_id=CS,program_id=1,admit_year=2025",
        ],
    ),
}


@pytest.mark.parametrize("case", VALUE_CASES)
def test_values_cross_as_written_and_only_int_fields_are_read(case):
    # text fields keep the scenario's text; the store's schema alone reads a
    # field as a number, refuses one that is not ASCII decimal, and keeps it
    # in canonical form
    lines, last, held = VALUE_CASES[case]
    result = runs.run(SESSION + lines)
    assert all(o.status in ("ok", "failed") for o in result.outcomes)
    assert (result.outcomes[-1].status, result.outcomes[-1].reason) == last
    assert result.exit_code == 0  # P1-P12 hold
    journal = [line.split("|")[2].rpartition(",_conv=")[0] for line in result.store.journal_lines]
    stored = set(result.store.dump().splitlines()) | set(journal)
    assert set(held) <= stored, sorted(stored)


# -- teacher agent ---------------------------------------------------------------


def test_teacher_registration_mirrors_student_rule():
    result = runs.run(
        SESSION
        + "REGISTER_TEACHER name=Tariq designation=lecturer contact=0300 email=t@u.edu\n"
        + "REGISTER_TEACHER name=Other designation=professor contact=0301 email=t@u.edu\n"
        + "REGISTER_TEACHER name=NoDesignation designation= contact=0302 email=x@u.edu\n"
    )
    assert result.outcomes[1].reply == Term("ok", ("1",))
    assert result.outcomes[2].status == "refused"
    assert result.outcomes[3].status == "refused"
    assert result.outcomes[3].reason == "incomplete record"


# -- admission agent ---------------------------------------------------------------


ADMISSION_PREFIX = (
    SESSION
    + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
    + "ADD_PROGRAM name=bscs session=morning semesters=8 fee=5000\n"
)


def test_admission_sets_program():
    result = runs.run(ADMISSION_PREFIX + "ADMIT student_id=1 p_id=1\n")
    assert result.outcomes[3].status == "ok"
    assert [s["program_id"] for s in table(result, "students")] == ["1"]


def test_second_admission_refused_any_program():
    result = runs.run(
        ADMISSION_PREFIX
        + "ADD_PROGRAM name=bsse session=evening semesters=8 fee=5000\n"
        + "ADMIT student_id=1 p_id=1\n"
        + "ADMIT student_id=1 p_id=2\n"
    )
    assert result.outcomes[5].status == "refused"
    assert result.outcomes[5].reason == "duplicate admission request"


def test_admission_unknown_program_fails():
    result = runs.run(ADMISSION_PREFIX + "ADMIT student_id=1 p_id=77\n")
    assert result.outcomes[3].status == "failed"


# -- fee structure agent ------------------------------------------------------------


def test_new_program_syncs_fee_rows():
    result = runs.run(SESSION + "ADD_PROGRAM name=bscs session=morning semesters=8 fee=5000\n")
    assert [f["p_id"] for f in table(result, "fees")] == ["1"] * 8


def test_incomplete_program_is_atomic():
    result = runs.run(SESSION + "ADD_PROGRAM name=bscs session=morning semesters=8 fee=\n")
    assert result.outcomes[1].status == "refused"
    assert table(result, "programs") == []
    assert table(result, "fees") == []


# -- class schedule agent ---------------------------------------------------------


CLASS_PREFIX = ADMISSION_PREFIX + "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"


def test_first_class_id_one_and_slot_conflicts():
    result = runs.run(
        CLASS_PREFIX
        + "ADD_CLASS p_id=1 semester=1 subject=Physics day=0 period=0\n"
        + "ADD_CLASS p_id=1 semester=2 subject=Physics day=0 period=0\n"
    )
    assert result.outcomes[3].reply == Term("ok", ("1",))
    assert result.outcomes[4].status == "refused"
    assert result.outcomes[4].reason == "same timing"
    assert result.outcomes[5].status == "ok"  # other semester, same slot


def test_assign_teacher_conflict_and_overwrite():
    result = runs.run(
        CLASS_PREFIX
        + "ADD_CLASS p_id=1 semester=2 subject=Logic day=0 period=0\n"
        + "REGISTER_TEACHER name=T designation=prof contact=1 email=t@u\n"
        + "ASSIGN_TEACHER class_id=1 teacher_id=1\n"
        + "ASSIGN_TEACHER class_id=2 teacher_id=1\n"
        + "ASSIGN_TEACHER class_id=1 teacher_id=1\n"
    )
    statuses = [o.status for o in result.outcomes[6:]]
    assert statuses == ["ok", "refused", "ok"]
    assert result.outcomes[7].reason == "teacher time conflict"


# -- datesheet agent -------------------------------------------------------------


def test_exam_thresholds_through_agents():
    result = runs.run(
        CLASS_PREFIX
        + "DELIVER_LECTURE class_id=1 subject=Math times=15\n"
        + "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
        + "DELIVER_LECTURE class_id=1 subject=Math\n"
        + "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
        + "SCHEDULE_EXAM term=final class_id=1 subject=Math date=2025-05-02\n"
    )
    assert result.outcomes[5].status == "refused"  # 15 lectures
    assert result.outcomes[5].reason == "insufficient lectures"
    assert result.outcomes[7].status == "ok"  # 16 lectures
    assert result.outcomes[8].status == "refused"  # final needs 32


def test_same_day_conflict_through_agents():
    result = runs.run(
        CLASS_PREFIX
        + "DELIVER_LECTURE class_id=1 subject=Math times=32\n"
        + "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
        + "SCHEDULE_EXAM term=final class_id=1 subject=Math date=2025-05-01\n"
    )
    assert result.outcomes[6].status == "refused"
    assert result.outcomes[6].reason == "same date conflict"


@pytest.mark.parametrize("spelling", ["2025-W18-4", "20250501"])
def test_exam_date_in_another_iso_spelling_is_refused(spelling):
    # date.fromisoformat reads both as 2025-05-01; only that form is a date
    result = runs.run(
        CLASS_PREFIX
        + "DELIVER_LECTURE class_id=1 subject=Math times=32\n"
        + "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
        + f"SCHEDULE_EXAM term=final class_id=1 subject=Math date={spelling}\n"
    )
    assert (result.outcomes[6].status, result.outcomes[6].reason) == ("failed", "invalid field date")
    assert result.exit_code == 0
    assert result.store.dump().count("datesheet|") == 1


# -- result agent -----------------------------------------------------------------


RESULT_PREFIX = CLASS_PREFIX + "ADMIT student_id=1 p_id=1\n"


@pytest.mark.parametrize("marks,status", [(-1, "refused"), (0, "ok"), (100, "ok"), (101, "refused")])
def test_marks_boundaries_through_agents(marks, status):
    result = runs.run(
        RESULT_PREFIX + f"RECORD_RESULT student_id=1 class_id=1 subject=Math marks={marks}\n"
    )
    assert result.outcomes[5].status == status


# -- report agent -----------------------------------------------------------------


def test_report_on_empty_store_is_zero_rows_not_absent():
    result = runs.run(SESSION + "GENERATE_REPORT kind=admissions_per_year\n")
    assert result.outcomes[1].status == "ok"
    assert result.outcomes[1].reply.args[1] == "0"
    assert result.reports == []


def test_teacher_student_ratio_by_brute_force_counts():
    lines = [SESSION.strip()]
    for i in range(3):
        lines.append(
            f"REGISTER_TEACHER name=T{i} designation=prof contact=1{i} email=t{i}@u"
        )
    for i in range(60):
        lines.append(f"REGISTER_STUDENT st_id=C{i:03d} name=S{i} dept=CS")
    lines.append("GENERATE_REPORT kind=teacher_student_ratio")
    result = runs.run("\n".join(lines) + "\n")
    assert result.reports == ["teacher_student_ratio|teachers_to_students|3/60"]


def test_zero_denominator_is_undefined_marker():
    result = runs.run(SESSION + "GENERATE_REPORT kind=teacher_student_ratio\n")
    assert result.reports == ["teacher_student_ratio|teachers_to_students|undefined"]


def _trace_report_lines(result) -> list[str]:
    """The lines of every well-formed report reply to GW, in trace order."""
    lines: list[str] = []
    for event in parse_trace(result.log.text().splitlines()):
        if event.kind != "envelope" or event.receiver != GATEWAY:
            continue
        if event.performative == "inform" and event.content.startswith("report("):
            args = event.content[len("report(") : -1].split(",")
            if len(args) == 3:
                lines.extend(decode_blob(args[2]).splitlines())
    return lines


def test_reports_are_the_report_replies_in_trace_order():
    # runs without a crash: a crash can drop a reply the trace already shows
    result = runs.fuzz(3, 3000)
    assert result.cfg.pipeline_window == 8
    assert result.reports and result.reports == _trace_report_lines(result)
    broken = runs.scenario("reports.scn", RunConfig(inject="p11"))
    assert broken.reports == _trace_report_lines(broken) == []


def test_report_from_query_rows_directly():
    store = Store(RunConfig())
    answer = store.execute(Command("query", ("lab_student_ratio",), "t:0")).result
    rows_text = decode_blob(answer.args[0])
    lines = build_report("lab_student_ratio", rows_text, RunConfig(lab_count=4))
    assert lines == ["lab_student_ratio|labs_to_students|undefined"]


def _report_round_trip(cfg: RunConfig, answer: Envelope) -> Envelope:
    """Step a fresh report agent over one report request and the given answer
    to its query; returns the agent's reply, checking that it kept nothing."""
    rpa = build_world(cfg)[0].agents["RPA"]
    request_content = Term("report", ("lab_student_ratio",))
    request = Envelope(GATEWAY, "RPA", Performative.REQUEST, "GW:0", request_content)
    asked = bdi.step(rpa, [request])
    query = Term("query", ("lab_student_ratio",))
    assert asked.outbox == (
        Envelope("RPA", ORCHESTRATOR, Performative.REQUEST, "RPA:0>GW:0", query),
    )
    assert len(asked.state.beliefs) == 0 and not asked.state.intentions
    answered = bdi.step(asked.state, [answer])
    assert len(answered.state.beliefs) == 0 and not answered.state.intentions
    [reply] = answered.outbox
    assert (reply.sender, reply.receiver, reply.conversation) == ("RPA", GATEWAY, "GW:0")
    return reply


ROWS = Term("rows", (encode_blob("students|4\n"), "lab_student_ratio"))


def test_report_agent_routes_the_rows_home_by_conversation_id():
    answer = Envelope(ORCHESTRATOR, "RPA", Performative.INFORM, "RPA:0>GW:0", ROWS)
    reply = _report_round_trip(RunConfig(lab_count=2), answer)
    assert reply.performative is Performative.INFORM
    rendered = encode_blob("lab_student_ratio|labs_to_students|2/4")
    assert reply.content == Term("report", ("lab_student_ratio", "1", rendered))


def test_report_agent_fails_a_refused_query():
    refused = Term("refused", (encode_blob("busy"),))
    answer = Envelope(ORCHESTRATOR, "RPA", Performative.REFUSE, "RPA:0>GW:0", refused)
    reply = _report_round_trip(RunConfig(), answer)
    assert reply.performative is Performative.FAILURE
    assert reply.content == Term("failed", (encode_blob("store query failed"),))


def test_report_agent_under_p11_answers_an_absent_report():
    answer = Envelope(ORCHESTRATOR, "RPA", Performative.INFORM, "RPA:0>GW:0", ROWS)
    reply = _report_round_trip(RunConfig(inject="p11"), answer)
    assert reply.performative is Performative.INFORM
    assert reply.content == Term("report", ("lab_student_ratio",))


def test_report_replies_within_four_rounds():
    # gateway -> RPA -> OA, store, OA -> RPA -> gateway: as many rounds as a
    # relayed write
    result = runs.scenario("reports.scn")
    assert result.cfg.pipeline_window == 1
    assert result.monitor.max_reply_latency == 4


FINAL_REPORTS = "".join(f"GENERATE_REPORT kind={kind}\n" for kind in REPORT_KINDS)
#: Graduation in the year of the latest of several final-semester results.
SPREAD_FINALS = (
    SESSION
    + "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
    + "REGISTER_STUDENT st_id=2 name=B dept=CS\n"
    + "ADD_PROGRAM name=p session=morning semesters=1 fee=10\n"
    + "ADMIT student_id=1 p_id=1 year=2023\n"
    + "ADMIT student_id=2 p_id=1 year=2023\n"
    + "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
    + "ADD_CLASS p_id=1 semester=1 subject=Logic day=0 period=1\n"
    + "RECORD_RESULT student_id=1 class_id=2 subject=Logic marks=70 year=2026\n"
    + "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=90 year=2024\n"
    + "RECORD_RESULT student_id=2 class_id=1 subject=Math marks=80 year=2025\n"
)
#: Two programs of one final-semester class each; students 1 and 2 of
#: program 1 graduate in 2022 and 2023, student 3 of program 2 does not.
TRAP_BASE = (
    SESSION
    + "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
    + "REGISTER_STUDENT st_id=2 name=B dept=CS\n"
    + "REGISTER_STUDENT st_id=3 name=C dept=CS\n"
    + "ADD_PROGRAM name=p session=morning semesters=1 fee=10\n"
    + "ADD_PROGRAM name=q session=evening semesters=1 fee=20\n"
    + "ADMIT student_id=1 p_id=1 year=2020\n"
    + "ADMIT student_id=2 p_id=1 year=2021\n"
    + "ADMIT student_id=3 p_id=2 year=2021\n"
    + "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
    + "ADD_CLASS p_id=2 semester=1 subject=Art day=1 period=0\n"
    + "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=60 year=2022\n"
    + "RECORD_RESULT student_id=2 class_id=1 subject=Math marks=70 year=2023\n"
)
#: Later writes that must revise the graduate and admission counts.
TRAP_CASES = {
    # a new final-semester class un-graduates program 1 until its result lands
    "late_final": (
        "ADD_CLASS p_id=1 semester=1 subject=Logic day=0 period=1\n"
        "RECORD_RESULT student_id=2 class_id=3 subject=Logic marks=80 year=2021\n",
        RunConfig(),
    ),
    "overwrite_later": (
        "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=65 year=2024\n",
        RunConfig(),
    ),
    "overwrite_earlier": (
        "RECORD_RESULT student_id=2 class_id=1 subject=Math marks=75 year=2019\n",
        RunConfig(),
    ),
    # program 1's final class does not count for a student of program 2
    "other_program": (
        "RECORD_RESULT student_id=3 class_id=1 subject=Math marks=50 year=2024\n",
        RunConfig(),
    ),
    # re-admissions move student 3 into the program of that result, and
    # student 1 out of the program they graduated from
    "p4_move": (
        "RECORD_RESULT student_id=3 class_id=1 subject=Math marks=50 year=2024\n"
        "ADMIT student_id=3 p_id=1 year=2025\n"
        "ADMIT student_id=1 p_id=2 year=2026\n",
        RunConfig(inject="p4"),
    ),
}
REPORT_CASES = [p.name for p in sorted(SCENARIOS.glob("*.scn"))] + [
    "fuzz1", "fuzz2", "fuzz3", "empty", "spread_finals", "traps", "traps+p4", *TRAP_CASES
]


def _report_case(case: str):
    if case == "empty":
        return parse_scenario(SESSION), RunConfig()
    if case == "spread_finals":
        return parse_scenario(SPREAD_FINALS), RunConfig()
    if case.startswith("traps"):
        cfg = RunConfig(inject="p4") if case.endswith("+p4") else RunConfig()
        return parse_scenario(TRAPS.read_text()), cfg
    if case in TRAP_CASES:
        text, cfg = TRAP_CASES[case]
        return parse_scenario(TRAP_BASE + text), cfg
    if case.startswith("fuzz"):
        seed = int(case[len("fuzz") :])
        cfg = RunConfig(seed=seed, lab_count=seed)
        return generate(seed, 2000, cfg), cfg
    return parse_scenario((SCENARIOS / case).read_text()), GOLDEN_CFG.get(case, RunConfig())


@pytest.mark.parametrize("case", REPORT_CASES)
def test_live_reports_equal_reference_from_dump(case):
    # one command in flight at a time, so the appended reports read the
    # final store that the dump shows
    commands, cfg = _report_case(case)
    assert cfg.pipeline_window == 1
    result = run_scenario(commands + parse_scenario(FINAL_REPORTS), cfg)
    dump = result.store.dump()
    finals = result.outcomes[-len(REPORT_KINDS) :]
    for kind, outcome in zip(REPORT_KINDS, finals):
        assert outcome.status == "ok" and outcome.reply.args[0] == kind
        lines = decode_blob(outcome.reply.args[2]).splitlines()
        assert lines == reference_report(kind, dump, cfg.lab_count)


def test_graduates_and_admissions_reports():
    result = runs.run(
        SESSION
        + "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        + "REGISTER_STUDENT st_id=2 name=B dept=CS\n"
        + "ADD_PROGRAM name=p session=morning semesters=1 fee=10\n"
        + "ADMIT student_id=1 p_id=1 year=2024\n"
        + "ADMIT student_id=2 p_id=1 year=2025\n"
        + "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        + "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=90 year=2025\n"
        + "GENERATE_REPORT kind=admissions_per_year\n"
        + "GENERATE_REPORT kind=graduates_per_year\n"
        + "GENERATE_REPORT kind=attendance\n"
    )
    assert "admissions_per_year|2024|1" in result.reports
    assert "admissions_per_year|2025|1" in result.reports
    # student 1 finished the single final-semester class in 2025
    assert "graduates_per_year|2025|1" in result.reports
    assert "attendance|1:Math|0" in result.reports


# -- orchestrator ------------------------------------------------------------------


def _ask_orchestrator(content: Term):
    """Send one request from the gateway straight to a fresh world's
    orchestrator; returns the reply and the store commands it issued."""
    world, store = build_world()
    commands = []
    handle = world.command_handler

    def recording(command):
        commands.append(command)
        return handle(command)

    world.command_handler = recording
    route(world, [Envelope(GATEWAY, ORCHESTRATOR, Performative.REQUEST, "GW:0", content)])
    while not world.mailboxes[GATEWAY] and world.round < 10:
        run_round(world)
    [reply] = world.mailboxes[GATEWAY]
    return reply, commands, store


def test_oa_handle_query_informs_rows():
    reply, commands, store = _ask_orchestrator(Term("query", ("admissions_per_year",)))
    assert reply.performative is Performative.INFORM
    assert reply.content.name == "rows"
    assert [c.name for c in commands] == ["query"]
    assert store.journal_lines == []


def test_oa_handle_passes_store_refusal_through():
    reply, _, _ = _ask_orchestrator(Term("open_session", ("EE",)))
    assert reply.performative is Performative.REFUSE
    assert decode_blob(reply.content.args[0]) == "unauthorized access"


def test_oa_handle_malformed_content_fails():
    # the orchestrator forwards every request; the store alone judges its
    # shape, refusing an unknown name or a wrong arity as a fault
    for content in (Term("dance", ("1", "2")), Term("add_student", ("1",))):
        world, store = build_world()
        route(world, [Envelope(GATEWAY, ORCHESTRATOR, Performative.REQUEST, "GW:0", content)])
        while not world.is_quiescent() and world.round < 10:
            run_round(world)
        events = list(parse_trace(world.log.text().splitlines()))
        replies = [e for e in events if e.kind == "envelope" and e.receiver == GATEWAY]
        assert [(e.performative, e.content) for e in replies] == [
            ("failure", failed("malformed command").render())
        ], content
        refusals = [e.content for e in events if e.kind == "refusal"]
        assert refusals == [refusal_line(content.name, "malformed command")], content
        assert store.journal_lines == [], content


def test_relay_forwards_the_received_terms_and_performative():
    sa = build_world()[0].agents["SA"]
    request_content = Term("add_student", ("111", "Ali", "CS"))
    request = Envelope(GATEWAY, "SA", Performative.REQUEST, "GW:0", request_content)
    first = bdi.step(sa, [request])
    [to_oa] = first.outbox
    assert (to_oa.receiver, to_oa.conversation) == (ORCHESTRATOR, "SA:0>GW:0")
    assert to_oa.content is request_content
    reply_content = Term("refused", (encode_blob("Student Already Registerd"),))
    reply = Envelope(ORCHESTRATOR, "SA", Performative.REFUSE, to_oa.conversation, reply_content)
    [to_gw] = bdi.step(first.state, [reply]).outbox
    assert (to_gw.receiver, to_gw.conversation) == (GATEWAY, "GW:0")
    assert to_gw.performative is Performative.REFUSE
    assert to_gw.content is reply_content


def test_gateway_issue_goal_keeps_its_request():
    runner = ScenarioRunner()
    assert runner._inject(0, parse_scenario(SESSION)[0])
    gw = runner.world.agents[GATEWAY]
    [goal] = gw.goals
    content = Term("open_session", ("CS",))
    assert goal.message == Envelope(GATEWAY, ORCHESTRATOR, Performative.REQUEST, "GW:0", content)
    [sent] = bdi.step(gw, []).outbox
    assert sent is goal.message


def test_store_ok_percept_is_the_reply_term_unencoded():
    handle = store_handler(Store())
    _, opened = handle(Command("open_session", ("CS",), "GW:0"))
    assert opened == Belief("store_reply", ("GW:0", "inform", "ok", "1"))
    _, closed = handle(Command("close_session", ("1",), "GW:1"))
    assert closed == Belief("store_reply", ("GW:1", "inform", "ok"))
    # a refusal is replied with refused(<blob>), a fault with failed(<blob>)
    _, unknown = handle(Command("close_session", ("1",), "GW:2"))
    assert unknown == Belief(
        "store_reply", ("GW:2", "failure", "failed", encode_blob("unknown session"))
    )
    student = Command("add_student", ("5", "A", "CS"), "GW:3")
    handle(student)
    _, twice = handle(student)
    reason = encode_blob("Student Already Registerd")
    assert twice == Belief("store_reply", ("GW:3", "refuse", "refused", reason))


#: One accepted instance of every store command, in an order that accepts each.
ACCEPTED_COMMANDS = (
    ("open_session", ("CS",)),
    ("add_student", ("111", "Ali", "CS")),
    ("add_teacher", ("Tariq", "lecturer", "0300", "t@uni.edu")),
    ("add_program", ("BSCS", "morning", "1", "100")),
    ("admit", ("1", "1", "2024")),
    ("add_class", ("1", "1", "Math", "0", "0")),
    ("assign_teacher", ("1", "1")),
    ("deliver_lecture", ("1", "Math", "32")),
    ("schedule_exam", ("final", "1", "Math", "2025-05-01")),
    ("record_result", ("1", "1", "Math", "70", "2025")),
    ("query", ("attendance",)),
    ("close_session", ("1",)),
)


def test_every_command_hands_over_one_draft_and_one_percept():
    assert sorted(name for name, _ in ACCEPTED_COMMANDS) == sorted(SCHEMAS)
    store = Store()
    handle = store_handler(Store())  # a twin fed the same commands
    seq = 0
    for name, args in ACCEPTED_COMMANDS:
        for command_args, performative in (
            (("", *args[1:]), "refuse"),  # first field empty: refused as incomplete, a business rule
            ((*args, "extra"), "failure"),  # one arg too many: refused as malformed, a fault
            (args, "inform"),
        ):
            command = Command(name, command_args, f"GW:{seq}")
            seq += 1
            outcome = store.execute(command)
            draft, percept = handle(command)
            assert outcome.accepted == (performative == "inform"), command
            assert draft == outcome.draft, command
            if name == "query" and outcome.accepted:
                assert draft is None
            else:
                kind, content = draft
                assert kind in KIND_SET and content, command
            assert percept.predicate == "store_reply", command
            assert percept.args[:2] == (command.conversation, performative), command


def test_the_orchestrator_replies_once_to_every_command_it_issues():
    cfg = fuzz_config(1)
    runner = ScenarioRunner(cfg)
    handle = runner.world.command_handler
    issued = []

    def recording(command):
        issued.append(command.conversation)
        return handle(command)

    runner.world.command_handler = recording
    result = runner.run(generate(1, 400, cfg))
    replies = Counter(
        event.conversation
        for event in parse_trace(result.log.text().splitlines())
        if event.kind == "envelope" and event.sender == ORCHESTRATOR
    )
    assert len(issued) >= 400 and any(c.startswith("RPA:") for c in issued)
    assert replies == Counter(issued) and set(replies.values()) == {1}


def test_exactly_one_reply_per_request_in_trace():
    result = runs.run(
        SESSION
        + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        + "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        + "GENERATE_REPORT kind=attendance\n"
    )
    requests: dict[str, int] = {}
    replies: dict[str, int] = {}
    events = parse_trace(result.log.text().splitlines())
    for event in events:
        if event.kind != "envelope":
            continue
        bucket = requests if event.performative == "request" else replies
        bucket[event.conversation] = bucket.get(event.conversation, 0) + 1
    assert requests and all(replies.get(c, 0) == n for c, n in requests.items())
    # conversation pairing: no reply without a matching prior request
    assert set(replies) <= set(requests)


def test_journal_state_equivalence_after_run():
    from unimas.store import replay

    result = runs.run(ADMISSION_PREFIX + "ADMIT student_id=1 p_id=1\n")
    rebuilt = replay(result.store.journal_lines, result.cfg)
    assert rebuilt.dump() == result.store.dump()


def test_only_orchestrator_produces_commands():
    result = runs.run(ADMISSION_PREFIX + "ADMIT student_id=1 p_id=1\n")
    store_kinds = ("domain_event", "refusal", "session_open", "session_close")
    events = parse_trace(result.log.text().splitlines())
    producers = {e.sender for e in events if e.kind in store_kinds and e.receiver == "store"}
    assert producers == {"OA"}


def test_roster_is_ten_agents_registered_before_commands():
    world, _ = build_world()
    assert tuple(world.agents) == ROSTER and len(ROSTER) == 10
    # every program but the gateway's advances all its intentions in one
    # cycle; the gateway, one request per round, is the throttle
    assert [a for a in ROSTER if not world.agents[a].plan_library.advance_every_intention] == [GATEWAY]
    # a program is built once: two worlds share every one but the report
    # agent's, which is built from the config, and the seven relays share one
    other, _ = build_world()
    programs = {aid: state.plan_library for aid, state in world.agents.items()}
    shared = [aid for aid, state in other.agents.items() if state.plan_library is programs[aid]]
    assert shared == [aid for aid in ROSTER if aid != "RPA"]
    relays = {id(programs[aid]) for aid in ROSTER if aid not in (GATEWAY, "RPA", ORCHESTRATOR)}
    assert len(relays) == 1 and programs["RPA"] is not programs["SA"]


def test_every_request_is_served_by_a_roster_agent():
    assert set(SERVED_BY.values()) == set(ROSTER) - {GATEWAY}


def test_liveness_floor_is_the_longest_reply_path_a_run_takes():
    # a relayed request (here a report) takes GW -> relay -> OA and back
    relayed = (SCENARIOS / "lifecycle.scn").read_text() + "GENERATE_REPORT kind=attendance\n"
    result = runs.run(relayed)
    assert result.cfg.pipeline_window == 1
    assert result.monitor.max_reply_latency == MIN_LIVENESS_K == 4
    # a session command takes GW -> OA and back
    direct = runs.run(SESSION + "CLOSE_SESSION sid=1\n")
    assert direct.monitor.max_reply_latency == 2
