import random
from collections import defaultdict

import pytest

from oracle import REQUIRED_COMMAND_FIELDS, REQUIRED_ROW_FIELDS, naive_statuses
from test_acceptance import GOLDEN, GOLDEN_CFG, SCENARIOS
from test_golden_hashes import _with_crash_lines
from unimas.bdi import BelieveStep, MessageMatch, Plan, make_agent
from unimas.config import RunConfig
from unimas.fuzz import fuzz, fuzz_config, generate
from unimas.monitor import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    Monitor,
    MonitorFault,
    PropertyId,
    command_fields,
    evaluate_trace,
    render_verdicts,
)
from unimas.scenario import ScenarioRunner, parse_scenario, run_scenario
from unimas.store import OPTIONAL_ROW_FIELDS, SCHEMAS, TABLE_FIELDS, Store
from unimas.terms import Command, Performative, encode_blob
from unimas.trace import BLOCK_LINES, TraceEvent, parse_trace


def ev(seq, kind, **fields):
    return TraceEvent(seq=seq, round=seq, kind=kind, **fields)


def domain(seq, content, conversation="GW:0"):
    return ev(seq, "domain_event", sender="OA", receiver="store", conversation=conversation, content=content)


def test_command_fields_refuse_bad_syntax():
    for bad in ("add_student", "add_student(st_id=1"):
        with pytest.raises(ValueError, match="bad command syntax"):
            command_fields(bad)
    for bad in ("add_student(st_id)", "admit(p_id=1,)", "admit(student_id=1,p_id,year=2)"):
        with pytest.raises(ValueError, match="bad command args"):  # a field without '='
            command_fields(bad)
    assert command_fields("close_session()") == ("close_session", {})
    assert command_fields("q(k=a=b)") == ("q", {"k": "a=b"})  # only the first '=' splits


def _traffic():
    for name in GOLDEN:
        commands = parse_scenario((SCENARIOS / name).read_text())
        yield run_scenario(commands, GOLDEN_CFG.get(name, RunConfig()))
    for seed in (1, 2, 3):
        yield fuzz(seed, 2000)


def test_command_fields_equal_the_parsed_command_on_real_traffic():
    # the store keeps each int field in canonical form, so its trace text
    # is what rendering its int gives back, and the fields, in order, spell
    # the event's content
    seen = 0
    for result in _traffic():
        for event in parse_trace(result.log.text().splitlines()):
            if event.kind in ("domain_event", "session_open"):
                name, fields = command_fields(event.content)
                ints = [fields[f.name] for f in SCHEMAS[name] if f.int_typed]
                assert all(str(int(v)) == v for v in ints), event
                kv = ",".join(f"{k}={v}" for k, v in fields.items())
                assert f"{name}({kv})" == event.content
                seen += 1
    assert seen > 1000


def statuses(verdicts):
    return {v.property: v.status for v in verdicts}


# -- observe ------------------------------------------------------------------


def test_out_of_order_seq_is_a_monitor_fault():
    monitor = Monitor()
    with pytest.raises(MonitorFault):
        monitor.observe(ev(5, "domain_event", content="add_student(st_id=1,name=A,dpt_id=CS)"))


def test_duplicate_accepted_registration_flags_p1():
    monitor = Monitor()
    monitor.observe(domain(0, "add_student(st_id=111,name=A,dpt_id=CS,student_id=1)"))
    monitor.observe(domain(1, "add_student(st_id=111,name=B,dpt_id=CS,student_id=2)"))
    verdicts = monitor.finalize(trace_complete=True)
    assert statuses(verdicts)[PropertyId.P1] == VIOLATED
    p1 = [v for v in verdicts if v.property is PropertyId.P1][0]
    assert p1.witness_seq == 1
    assert p1.explanation == "st_id 111 registered twice (first at seq 0)"


def test_a_key_field_missing_from_an_event_reads_as_empty():
    monitor = Monitor()
    monitor.observe(domain(0, "add_class(p_id=1,semester=1,subject=S,day=0,class_id=1)"))
    monitor.observe(domain(1, "add_class(p_id=1,semester=1,subject=S,day=0,period=,class_id=2)"))
    flagged = [v.render() for v in monitor.finalize(True) if v.status != HOLDS]
    assert flagged == [
        "P6|violated|1|slot clash p=1 semester=1 timing=0/ (first at seq 0)",
        "P9|violated|0|add_class accepted with empty period",
    ]


def test_session_open_at_cap_flags_p2():
    monitor = Monitor(RunConfig(cap=2))
    for seq in range(2):
        monitor.observe(ev(seq, "session_open", content="open_session(dpt_id=CS,sid=%d)" % seq))
    assert statuses(monitor.finalize(True))[PropertyId.P2] == HOLDS
    monitor.observe(ev(2, "session_open", content="open_session(dpt_id=CS,sid=3)"))
    assert statuses(monitor.finalize(True))[PropertyId.P2] == VIOLATED


def test_close_frees_capacity():
    monitor = Monitor(RunConfig(cap=1))
    monitor.observe(ev(0, "session_open", content="open_session(dpt_id=CS,sid=1)"))
    monitor.observe(ev(1, "session_close", content="close_session(sid=1)"))
    monitor.observe(ev(2, "session_open", content="open_session(dpt_id=CS,sid=2)"))
    assert statuses(monitor.finalize(True))[PropertyId.P2] == HOLDS


def test_roster_breach_flags_p3():
    monitor = Monitor()
    monitor.observe(ev(0, "session_open", content="open_session(dpt_id=EE,sid=1)"))
    assert statuses(monitor.finalize(True))[PropertyId.P3] == VIOLATED


def test_accepted_marks_out_of_stated_config_flags_p10():
    monitor = Monitor(RunConfig(max_marks=100))
    monitor.observe(
        domain(0, "record_result(student_id=1,class_id=1,subject=Math,marks=105,year=1)")
    )
    assert statuses(monitor.finalize(True))[PropertyId.P10] == VIOLATED


def test_refusals_never_violate():
    monitor = Monitor()
    monitor.observe(
        ev(
            0,
            "refusal",
            sender="OA",
            receiver="store",
            content=f"refused(cmd=add_student,reason={encode_blob('Student Already Registerd')})",
        )
    )
    assert all(v.status == HOLDS for v in monitor.finalize(True))


def test_violation_is_monotone():
    monitor = Monitor()
    monitor.observe(domain(0, "add_student(st_id=1,name=A,dpt_id=CS,student_id=1)"))
    monitor.observe(domain(1, "add_student(st_id=1,name=B,dpt_id=CS,student_id=2)"))
    first = statuses(monitor.finalize(True))[PropertyId.P1]
    monitor.observe(domain(2, "add_student(st_id=2,name=C,dpt_id=CS,student_id=3)"))
    assert first == VIOLATED
    assert statuses(monitor.finalize(True))[PropertyId.P1] == VIOLATED


# -- check_snapshot ------------------------------------------------------------


def _dump_with_missing_fee() -> str:
    store = Store(RunConfig())
    store.execute(Command("add_program", ("p", "morning", "8", "100"), "t:0"))
    dump = store.dump()
    lines = [ln for ln in dump.splitlines() if not ln.startswith("fees|8:")]
    missing = next(ln for ln in dump.splitlines() if ln.startswith("fees|"))
    assert missing  # sanity: fee rows exist to begin with
    return "\n".join(ln for ln in lines if not ln.endswith("semester=8,amount=100")) + "\n"


def test_snapshot_fee_gap_flags_p5():
    monitor = Monitor()
    monitor.check_snapshot(_dump_with_missing_fee())
    verdicts = monitor.finalize(True)
    assert statuses(verdicts)[PropertyId.P5] == VIOLATED


def test_snapshot_on_empty_store_holds_vacuously():
    monitor = Monitor()
    monitor.check_snapshot(Store(RunConfig()).dump())
    verdicts = monitor.finalize(True)
    assert all(v.status == HOLDS for v in verdicts if v.property is not PropertyId.P12)


def test_snapshot_clean_store_all_holds():
    store = Store(RunConfig())
    store.execute(Command("add_program", ("p", "morning", "2", "10"), "t:0"))
    monitor = Monitor()
    monitor.check_snapshot(store.dump())
    verdicts = monitor.finalize(True)
    assert all(v.status == HOLDS for v in verdicts if v.property is not PropertyId.P12)


def test_snapshot_empty_required_field_flags_p9():
    monitor = Monitor()
    dump = "teachers|1|teacher_id=1,name=T,designation=,contact=1,email=t@u\n"
    monitor.check_snapshot(dump)
    verdicts = monitor.finalize(True)
    assert statuses(verdicts)[PropertyId.P9] == VIOLATED


def test_snapshot_row_missing_a_field_reads_it_as_empty():
    # each row lacks a field the snapshot check reads: a row filter and a
    # key (students), a lecture count, a semester count and a fee semester
    dump = (
        "fees|1:1|p_id=1,amount=5\n"
        "lecture_logs|1|class_id=1,subject=Math\n"
        "programs|1|p_id=1,name=bscs,session=morning\n"
        "students|1|student_id=1,name=S01,dpt_id=CS\n"
    )
    monitor = Monitor()
    monitor.check_snapshot(dump, seq=3)
    [p9] = [v for v in monitor.finalize(True) if v.status != HOLDS]
    assert p9.render() == "P9|violated|3|students row persisted with empty st_id"


def test_p9_names_the_first_empty_required_field_in_schema_order():
    # an optional field left empty is no finding; of several empty required
    # fields, the first in the command's schema is named
    for name, required in REQUIRED_COMMAND_FIELDS.items():
        for first in range(len(required) + 1):
            empty = set(required[first:])
            args = ",".join(
                f"{f.name}={'' if f.name in empty or f.default is not None else '1'}" for f in SCHEMAS[name]
            )
            monitor = Monitor()
            monitor.observe(domain(0, f"{name}({args})"))
            [p9] = [v for v in monitor.finalize(True) if v.property is PropertyId.P9]
            if empty:
                assert p9.render() == f"P9|violated|0|{name} accepted with empty {required[first]}"
            else:
                assert p9.status == HOLDS, name


def test_oracle_requires_what_the_store_schema_requires():
    # the oracle writes "required" out itself, so a field the store's schema
    # makes optional by mistake shows here
    required = {n: tuple(f.name for f in s if f.default is None) for n, s in SCHEMAS.items()}
    assert {n: required[n] for n in REQUIRED_COMMAND_FIELDS} == REQUIRED_COMMAND_FIELDS
    assert set(required) - set(REQUIRED_COMMAND_FIELDS) == {"open_session", "close_session", "query"}
    rows = {
        table: tuple(f for f in fields if f not in OPTIONAL_ROW_FIELDS.get(table, ()))
        for table, fields in TABLE_FIELDS.items()
    }
    assert rows == REQUIRED_ROW_FIELDS


def _student_row(student_id, st_id, program_id=""):
    return (
        f"students|{student_id}|student_id={student_id},st_id={st_id},name=A,dpt_id=CS,"
        f"program_id={program_id},admit_year={'1' if program_id else ''}"
    )


def _class_row(class_id, day):
    return (
        f"classes|{class_id}|class_id={class_id},p_id=1,semester=1,subject=S{class_id},"
        f"day={day},period=0,teacher_id="
    )


def _exam_row(class_id, date, term):
    return f"datesheet|{class_id}:{date}|class_id={class_id},date={date},term={term},subject=Math"


def _snapshot_events(*rows):
    """Three events, the third (seq 2) a snapshot of ``rows``; the
    registration at seq 1 is not in it, as if lost to a torn journal write."""
    return [
        ev(0, "session_open", content="open_session(dpt_id=CS,sid=1)"),
        domain(1, "add_student(st_id=333,name=B,dpt_id=CS,student_id=3)"),
        ev(2, "snapshot", content=encode_blob("\n".join(rows) + "\n")),
    ]


def _after_snapshot(*rows):
    monitor = Monitor()
    monitor.read(_snapshot_events(*rows))
    return monitor


@pytest.mark.parametrize(
    "first, apart, clash, verdict",
    [
        (
            _student_row(1, 111),
            _student_row(2, 112),
            _student_row(2, 111),
            "P1|violated|2|persisted st_id 111 registered twice",
        ),
        (  # a students row counts toward P4 once its program_id is set
            _student_row(1, 111, program_id="1"),
            _student_row(1, 112),
            _student_row(1, 112, program_id="2"),
            "P4|violated|2|persisted student 1 admitted twice",
        ),
        (
            _class_row(1, 0),
            _class_row(2, 1),
            _class_row(2, 0),
            "P6|violated|2|persisted slot clash p=1 semester=1 timing=0/0",
        ),
        (
            _exam_row(1, "2025-05-01", "mid"),
            _exam_row(1, "2025-05-02", "final"),
            _exam_row(1, "2025-05-01", "final"),
            "P8|violated|2|persisted class 1 examined twice on 2025-05-01",
        ),
    ],
)
def test_snapshot_key_clash_flags_at_the_snapshot_seq(first, apart, clash, verdict):
    # the monitor, offline and live, and the oracle all judge the snapshot's rows
    apart_verdicts = _live_checked_offline_and_by_the_oracle(_snapshot_events(first, apart))
    assert all(v.status == HOLDS for v in apart_verdicts)
    clash_verdicts = _live_checked_offline_and_by_the_oracle(_snapshot_events(first, clash))
    assert [v.render() for v in clash_verdicts if v.status != HOLDS] == [verdict]


def test_snapshot_verdicts_on_a_dump_with_four_faults_are_pinned():
    # rows in the store's dump order (tables sorted by name); P9's first
    # finding is the one TABLE_FIELDS order gives (students before classes),
    # P5's the first program of the dump, P1's the first clash in its table
    dump = "\n".join([
        "classes|1|class_id=1,p_id=1,semester=1,subject=,day=0,period=0,teacher_id=",
        "fees|1:1|p_id=1,semester=1,amount=100",
        "fees|2:2|p_id=2,semester=2,amount=100",
        "programs|1|p_id=1,name=BS,session=morning,semester_count=2",
        "programs|2|p_id=2,name=MS,session=evening,semester_count=2",
        _student_row(1, 111),
        "students|2|student_id=2,st_id=111,name=,dpt_id=,program_id=,admit_year=",
        _student_row(3, 111),
    ]) + "\n"
    monitor = Monitor()
    monitor.check_snapshot(dump, seq=9)
    assert render_verdicts(monitor.finalize(True)) == (
        "P1|violated|9|persisted st_id 111 registered twice\n"
        "P2|holds|-|-\n"
        "P3|holds|-|-\n"
        "P4|holds|-|-\n"
        "P5|violated|9|program 1 semester 2 has no fee row\n"
        "P6|holds|-|-\n"
        "P7|holds|-|-\n"
        "P8|holds|-|-\n"
        "P9|violated|9|students row persisted with empty name\n"
        "P10|holds|-|-\n"
        "P11|holds|-|-\n"
        "P12|holds|-|-\n"
    )


def test_key_reseeded_by_a_snapshot_names_the_snapshot_as_first():
    monitor = _after_snapshot(_student_row(1, 111, program_id="1"), _student_row(2, 222), _class_row(1, 0))
    monitor.observe(domain(3, "add_student(st_id=333,name=B,dpt_id=CS,student_id=3)"))  # re-driven
    monitor.observe(domain(4, "admit(student_id=2,p_id=1,year=1)"))
    monitor.observe(domain(5, "add_class(p_id=1,semester=1,subject=S2,day=1,period=0,class_id=2)"))
    assert all(v.status == HOLDS for v in monitor.finalize(True))
    monitor.observe(domain(6, "add_student(st_id=111,name=C,dpt_id=CS,student_id=4)"))
    monitor.observe(domain(7, "admit(student_id=1,p_id=1,year=1)"))
    monitor.observe(domain(8, "add_class(p_id=1,semester=1,subject=S3,day=0,period=0,class_id=3)"))
    flagged = [v.render() for v in monitor.finalize(True) if v.status != HOLDS]
    assert flagged == [
        "P1|violated|6|st_id 111 registered twice (first at seq 2)",
        "P4|violated|7|student 1 admitted twice (first at seq 2)",
        "P6|violated|8|slot clash p=1 semester=1 timing=0/0 (first at seq 2)",
    ]


# -- finalize (bounded liveness) --------------------------------------------------


def _envelope(seq, round_, performative, conversation):
    return TraceEvent(
        seq=seq,
        round=round_,
        kind="envelope",
        sender="GW",
        receiver="SA",
        performative=performative,
        conversation=conversation,
        content="x()",
    )


def test_paired_conversations_hold():
    monitor = Monitor()
    monitor.observe(_envelope(0, 0, "request", "GW:0"))
    monitor.observe(_envelope(1, 3, "inform", "GW:0"))
    assert statuses(monitor.finalize(True))[PropertyId.P12] == HOLDS
    assert monitor.max_reply_latency == 3


def test_unanswered_request_on_complete_trace_violates():
    monitor = Monitor()
    monitor.observe(_envelope(0, 0, "request", "GW:7"))
    verdicts = monitor.finalize(trace_complete=True)
    p12 = [v for v in verdicts if v.property is PropertyId.P12][0]
    assert p12.status == VIOLATED
    assert "GW:7" in (p12.explanation or "")


def test_truncated_trace_is_inconclusive_not_violated():
    monitor = Monitor()
    monitor.observe(_envelope(0, 0, "request", "GW:7"))
    assert statuses(monitor.finalize(trace_complete=False))[PropertyId.P12] == INCONCLUSIVE


def test_reply_after_bound_violates():
    monitor = Monitor(RunConfig(liveness_k=100))
    monitor.observe(_envelope(0, 0, "request", "GW:0"))
    monitor.observe(_envelope(1, 101, "inform", "GW:0"))
    assert statuses(monitor.finalize(True))[PropertyId.P12] == VIOLATED


# -- non-replying stub drives P12 end to end ---------------------------------------


def test_non_replying_agent_stub_violates_p12():
    from unimas.scenario import ScenarioRunner

    runner = ScenarioRunner(RunConfig())
    swallow = Plan(
        name="swallow",
        goal="swallow",
        when=MessageMatch(Performative.REQUEST),
        body=(BelieveStep(lambda agent_id, goal: []),),
    )
    runner.world.agents["SA"] = make_agent("SA", [swallow])
    result = runner.run(
        parse_scenario("OPEN_SESSION dept=CS\nREGISTER_STUDENT st_id=1 name=A dept=CS\n")
    )
    assert result.quiescent  # the request died quietly, world settled
    assert statuses(result.verdicts)[PropertyId.P12] == VIOLATED
    assert all(
        status == HOLDS
        for pid, status in statuses(result.verdicts).items()
        if pid is not PropertyId.P12
    )


# -- incremental/batch agreement ---------------------------------------------------


GOLDEN_TEXT = """
OPEN_SESSION dept=CS
REGISTER_STUDENT st_id=111 name=Ali dept=CS
REGISTER_STUDENT st_id=111 name=Ali dept=CS
ADD_PROGRAM name=bscs session=morning semesters=2 fee=1000
ADMIT student_id=1 p_id=1
ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0
DELIVER_LECTURE class_id=1 subject=Math times=16
SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01
RECORD_RESULT student_id=1 class_id=1 subject=Math marks=88
GENERATE_REPORT kind=teacher_student_ratio
"""


@pytest.mark.parametrize("inject", [None, "p1", "p4", "p10"])
def test_live_offline_and_naive_oracle_agree(inject):
    cfg = RunConfig(inject=inject)
    commands = parse_scenario(GOLDEN_TEXT)
    if inject:  # give the disabled guard something to wave through
        extra = {
            "p1": "REGISTER_STUDENT st_id=111 name=Again dept=CS",
            "p4": "ADMIT student_id=1 p_id=1",
            "p10": "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=101",
        }[inject]
        commands = parse_scenario(GOLDEN_TEXT + extra + "\n")
    _assert_live_offline_and_naive_oracle_agree(commands, cfg)


def test_live_offline_and_naive_oracle_agree_on_a_cut_off_run():
    # cut off with every request so far answered, so nothing is open
    commands = parse_scenario((SCENARIOS / "lifecycle.scn").read_text())
    _assert_live_offline_and_naive_oracle_agree(commands, RunConfig(max_rounds=13))


def _report_reply(nrows, rows):
    """A request on GW:0 and its report reply of ``nrows`` and those rows."""
    return [
        _envelope(0, 0, "request", "GW:0"),
        _envelope(1, 4, "inform", "GW:0")._replace(
            content=f"report(lab_student_ratio,{nrows},{encode_blob(rows)})"
        ),
    ]


#: Hand-built complete traces, each breaking one property's rule as README
#: states it, by name, with the verdict the monitor gives.
HAND_BUILT_VIOLATIONS = {
    # add_class resets its class's count, so the 16 lectures before it do not count
    "lectures_logged_before_their_class": (
        "P7|violated|2|mid exam after 0 lectures, minimum 16",
        [
            domain(0, "deliver_lecture(class_id=1,subject=Math,times=16,total=16)"),
            domain(1, "add_class(p_id=1,semester=1,subject=Math,day=0,period=0,class_id=1)"),
            domain(2, "schedule_exam(term=mid,class_id=1,subject=Math,date=2025-05-01)"),
        ],
    ),
    "report_rows_fewer_than_counted": (
        "P11|violated|1|null or malformed report: row count mismatch",
        _report_reply(2, "lab_student_ratio|labs_to_students|1/4"),
    ),
    "report_row_of_another_kind": (
        "P11|violated|1|null or malformed report: malformed report row",
        _report_reply(1, "teacher_student_ratio|teachers_to_students|1/4"),
    ),
    "reply_on_a_conversation_never_opened": (
        "P12|violated|0|extra reply on conversation GW:5",
        [_envelope(0, 4, "inform", "GW:5")],
    ),
    "reply_before_its_request": (
        "P12|violated|0|extra reply on conversation GW:0",
        [_envelope(0, 0, "inform", "GW:0"), _envelope(1, 1, "request", "GW:0")],
    ),
    # a reply answers the oldest request it owes and is timed from it
    "late_first_request": (
        "P12|violated|0|reply to GW:0 after 201 rounds, bound 100",
        [
            _envelope(0, 0, "request", "GW:0"),
            _envelope(1, 200, "request", "GW:0"),
            _envelope(2, 201, "inform", "GW:0"),
            _envelope(3, 202, "inform", "GW:0"),
        ],
    ),
    # finalize names the open request with the least seq, whatever the dict order
    "oldest_open_request": (
        "P12|violated|1|request B:0 never answered",
        [
            _envelope(0, 0, "request", "A:0"),
            _envelope(1, 1, "request", "B:0"),
            _envelope(2, 2, "request", "A:0"),
            _envelope(3, 3, "inform", "A:0"),
        ],
    ),
}


@pytest.mark.parametrize("verdict,events", HAND_BUILT_VIOLATIONS.values(), ids=list(HAND_BUILT_VIOLATIONS))
def test_live_offline_and_naive_oracle_agree_on_a_hand_built_violation(verdict, events):
    assert verdict in [v.render() for v in _live_checked_offline_and_by_the_oracle(events)]


def test_requests_on_one_conversation_each_answered_within_k_hold():
    # 99 rounds from the first request, 1 from the second: each in time,
    # though the last reply is 201 rounds after the first request
    events = [
        _envelope(0, 0, "request", "GW:0"),
        _envelope(1, 99, "inform", "GW:0"),
        _envelope(2, 200, "request", "GW:0"),
        _envelope(3, 201, "inform", "GW:0"),
    ]
    assert all(v.status == HOLDS for v in _live_checked_offline_and_by_the_oracle(events))


def _live_checked_offline_and_by_the_oracle(events, cfg=RunConfig()):
    """The live verdicts on ``events`` as a complete trace, once the
    offline monitor and the oracle agree with them."""
    monitor = Monitor(cfg)
    monitor.read(events)
    live = monitor.finalize(trace_complete=True)
    lines = [f"# config {cfg.header()}", *(event.render() for event in events), "# end complete=true"]
    _assert_offline_and_naive_oracle_agree_with(live, lines, cfg)
    return live


def _assert_live_offline_and_naive_oracle_agree(commands, cfg):
    result = run_scenario(commands, cfg)
    _assert_offline_and_naive_oracle_agree_with(result.verdicts, result.log.text().splitlines(), cfg)


def _assert_offline_and_naive_oracle_agree_with(live, lines, cfg):
    offline = evaluate_trace(parse_trace(lines), cfg)
    assert [v.render() for v in offline] == [v.render() for v in live]

    naive = naive_statuses(parse_trace(lines), cfg)
    assert naive == {v.property.value: v.status for v in live}


# -- one-edit mutants of real traces ----------------------------------------------


def _one_edit_mutants(lines, rng, count):
    """``count`` (edit, trace) pairs: a copy of a trace with one event line
    dropped, repeated or swapped with another, or an ``inform`` inserted on a
    conversation never opened; its seqs renumbered, as a run would write them."""
    header, *events, trailer = lines
    for _ in range(count):
        edited = list(events)
        i, j = rng.randrange(len(edited)), rng.randrange(len(edited))
        edit = rng.choice(("drop", "repeat", "swap", "stray inform"))
        if edit == "drop":
            del edited[i]
        elif edit == "repeat":
            edited.insert(i, edited[i])
        elif edit == "swap":
            edited[i], edited[j] = edited[j], edited[i]
        else:
            edited.insert(i, f"{edited[i].split('|', 1)[0]}|0|envelope|OA|GW|inform|GW:99999|ok()")
        renumbered = []
        for seq, line in enumerate(edited):
            rnd, _, rest = line.split("|", 2)
            renumbered.append(f"{rnd}|{seq}|{rest}")
        yield f"{edit} at {i}, {j}", [header, *renumbered, trailer]


@pytest.mark.parametrize("seed", [1, 2])
def test_monitor_and_naive_oracle_agree_on_one_edit_mutants_of_a_fuzz_trace(seed):
    lines = fuzz(seed, 100).log.text().splitlines()
    _assert_monitor_and_naive_oracle_agree_on_mutants(lines, fuzz_config(seed), seed)


def _assert_monitor_and_naive_oracle_agree_on_mutants(lines, cfg, seed):
    violated = 0
    for edit, mutant in _one_edit_mutants(lines, random.Random(seed), 150):
        monitor = {v.property.value: v.status for v in evaluate_trace(parse_trace(mutant), cfg)}
        assert monitor == naive_statuses(parse_trace(mutant), cfg), edit
        violated += VIOLATED in monitor.values()
    assert violated > 0  # the edits do break properties, so agreeing is no tautology


# -- retiring answered conversations keeps every P12 verdict ----------------------


def _p12(verdicts):
    return next(v for v in verdicts if v.property is PropertyId.P12)


def _answered(seq, count, first_id=100):
    """``count`` conversations from ``seq`` on, each answered in 4 rounds."""
    for i in range(count):
        conversation = f"GW:{first_id + i}"
        yield _envelope(seq, seq, "request", conversation)
        yield _envelope(seq + 1, seq + 4, "inform", conversation)
        seq += 2


def test_an_extra_reply_on_an_answered_conversation_is_flagged_at_its_seq():
    monitor = Monitor()
    monitor.observe(_envelope(0, 0, "request", "GW:0"))
    monitor.observe(_envelope(1, 4, "inform", "GW:0"))
    monitor.observe(_envelope(2, 5, "inform", "GW:0"))
    p12 = _p12(monitor.finalize(trace_complete=True))
    assert (p12.status, p12.witness_seq, p12.explanation) == (
        VIOLATED,
        2,
        "extra reply on conversation GW:0",
    )


def test_a_late_reply_is_still_named_after_many_answered_conversations():
    # the answered ids sort before GW:99, so a kept record would be met first
    monitor = Monitor(RunConfig(liveness_k=100))
    monitor.observe(_envelope(0, 0, "request", "GW:99"))
    monitor.observe(_envelope(1, 150, "inform", "GW:99"))
    for event in _answered(2, 200):
        monitor.observe(event)
    p12 = _p12(monitor.finalize(trace_complete=True))
    assert (p12.status, p12.witness_seq, p12.explanation) == (
        VIOLATED,
        0,
        "reply to GW:99 after 150 rounds, bound 100",
    )


def test_a_late_reply_violates_a_cut_off_trace_however_the_ids_sort():
    # the pending request's id sorts before the late one's, then after it
    for pending in ("A:0", "C:0"):
        monitor = Monitor(RunConfig(liveness_k=4))
        monitor.observe(_envelope(0, 0, "request", pending))
        monitor.observe(_envelope(1, 0, "request", "B:0"))
        monitor.observe(_envelope(2, 9, "inform", "B:0"))
        p12 = _p12(monitor.finalize(trace_complete=False))
        assert (p12.status, p12.witness_seq, p12.explanation) == (
            VIOLATED,
            1,
            "reply to B:0 after 9 rounds, bound 4",
        ), pending


def test_a_cut_off_trace_with_nothing_open_is_inconclusive():
    monitor = Monitor()
    for event in _answered(0, 3):
        monitor.observe(event)
    assert _p12(monitor.finalize(trace_complete=True)).status == HOLDS
    p12 = _p12(monitor.finalize(trace_complete=False))
    assert (p12.status, p12.witness_seq) == (INCONCLUSIVE, None)


def test_a_conversation_pending_at_truncation_is_still_named():
    monitor = Monitor()
    monitor.observe(_envelope(0, 0, "request", "GW:7"))
    for event in _answered(1, 200):
        monitor.observe(event)
    p12 = _p12(monitor.finalize(trace_complete=False))
    assert (p12.status, p12.witness_seq, p12.explanation) == (
        INCONCLUSIVE,
        0,
        "request GW:7 pending at truncation",
    )


def _latency_over_all_conversations(events):
    """The worst reply latency over every conversation, none forgotten; a
    reply is timed from the oldest request it owes."""
    requested, worst = defaultdict(list), 0
    for event in events:
        if event.kind != "envelope":
            continue
        if event.performative == "request":
            requested[event.conversation].append(event.round)
        else:
            worst = max(worst, event.round - requested[event.conversation].pop(0))
    return worst


def test_max_reply_latency_is_the_worst_over_every_conversation():
    # latencies 3, 9, 2, 12 (late at K=10) and one left pending; the 9
    # belongs to a retired conversation
    events = [
        _envelope(0, 0, "request", "GW:0"),
        _envelope(1, 1, "request", "GW:1"),
        _envelope(2, 3, "inform", "GW:0"),
        _envelope(3, 4, "request", "GW:2"),
        _envelope(4, 6, "refuse", "GW:2"),
        _envelope(5, 6, "request", "GW:3"),
        _envelope(6, 7, "request", "GW:4"),
        _envelope(7, 10, "failure", "GW:1"),
        _envelope(8, 18, "inform", "GW:3"),
    ]
    monitor = Monitor(RunConfig(liveness_k=10))
    for event in events:
        monitor.observe(event)
    assert monitor.max_reply_latency == _latency_over_all_conversations(events) == 12
    assert list(monitor._conversations) == ["GW:4"]  # only the pending one


def test_the_monitor_keeps_only_open_conversations_and_none_after_a_quiescent_run():
    # fuzz(1, 2000), driven here so that every event can be checked: a
    # monitor fed the run's events one at a time holds, after each, exactly
    # the conversations asked and not yet answered, and the live monitor,
    # which reads the trace a block at a time, ends where that one does
    from unimas.fuzz import generate
    from unimas.scenario import ScenarioRunner

    cfg = RunConfig(pipeline_window=8, seed=1)
    runner = ScenarioRunner(cfg)
    events = []
    runner.world.observers.append(events.append)
    result = runner.run(generate(1, 2000, cfg))
    assert result.trace_hash == fuzz(1, 2000).trace_hash
    assert result.quiescent

    stepped = Monitor(cfg)
    opened: set[str] = set()
    for event in events:
        stepped.observe(event)
        if event.kind == "envelope":
            if event.performative == "request":
                opened.add(event.conversation)
            else:
                opened.discard(event.conversation)
        assert set(stepped._conversations) == opened, event
    assert statuses(result.verdicts)[PropertyId.P12] == HOLDS
    assert runner.monitor._conversations == stepped._conversations == {}
    assert result.monitor.max_reply_latency == stepped.max_reply_latency
    assert stepped.max_reply_latency == _latency_over_all_conversations(events) == 4
    assert stepped.finalize(trace_complete=True) == result.verdicts


# -- offline verification reads the trace file one line at a time ------------------


def test_streamed_offline_verdicts_equal_live_ones_on_every_golden_scenario(tmp_path):
    for name in GOLDEN:
        commands = parse_scenario((SCENARIOS / name).read_text())
        cfg = GOLDEN_CFG.get(name, RunConfig())
        live = run_scenario(commands, cfg)
        path = tmp_path / f"{name}.trace"
        path.write_text(live.log.text())
        with open(path) as lines:
            offline = evaluate_trace(parse_trace(lines), cfg)
        assert [v.render() for v in offline] == [v.render() for v in live.verdicts], name


# -- the live monitor reads the trace a block at a time ----------------------------

LIFECYCLE = (SCENARIOS / "lifecycle.scn").read_text()


def _padded(pad, text=LIFECYCLE):
    """``text`` after ``pad`` commands that the gateway refuses, one trace
    event each, since no session is open yet."""
    return parse_scenario("REGISTER_STUDENT st_id=1 name=A dept=CS\n" * pad + text)


def _assert_readers_get_each_event_once_in_order(commands, cfg=RunConfig(), **crash):
    runner = ScenarioRunner(cfg)
    log = runner.world.log
    read, emitted = [], []
    log.readers.append(read.extend)  # a second reader beside the monitor

    def behind(event):
        # every event of each full block has been read, and none past it;
        # the config line is the first line of the first block
        emitted.append(event)
        lines = len(emitted) + 1
        assert len(read) == max(0, lines // BLOCK_LINES * BLOCK_LINES - 1), event

    runner.world.observers.append(behind)
    result = runner.run(commands, **crash)
    text = log.text()
    assert [e.seq for e in read] == list(range(log.next_seq))
    assert read == emitted == list(parse_trace(text.splitlines()))
    assert result.verdicts == evaluate_trace(parse_trace(text.splitlines()), cfg)
    log.close(complete=result.quiescent)  # a second close hands over nothing
    assert len(read) == len(emitted) and log.text() == text
    assert runner.monitor.finalize(result.quiescent) == result.verdicts
    return result


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("past", [-1, 0, 1])
def test_a_run_ending_at_a_block_boundary_is_read_once_in_order(block, past):
    events = block * BLOCK_LINES - 1 + past  # a block is full at BLOCK_LINES - 1 events
    pad = events - run_scenario(_padded(0)).log.next_seq
    result = _assert_readers_get_each_event_once_in_order(_padded(pad))
    assert result.log.next_seq == events and result.exit_code == 0


_CRASH_LINES = LIFECYCLE.replace("\nADMIT student_id=5 ", "\nCRASH\nADMIT student_id=5 ").replace(
    "\nADD_CLASS p_id=1 semester=2 subject=Databases", "\nCRASH\nADD_CLASS p_id=1 semester=2 subject=Databases"
)


@pytest.mark.parametrize(
    "commands, cfg, crash, snapshots",
    [
        (_padded(200), RunConfig(), {"crash_at": 25}, 2),
        (_padded(200), RunConfig(), {"crash_at": 25, "torn": True}, 2),
        (_padded(200, _CRASH_LINES), RunConfig(), {}, 3),
        (_padded(200), RunConfig(max_rounds=100), {}, 1),
    ],
    ids=["crash_at", "crash_at_torn", "crash_lines", "max_rounds"],
)
def test_a_crashed_or_cut_off_run_is_read_once_in_order(commands, cfg, crash, snapshots):
    # 200 refusals first put each crash, and the cut, past the first block
    result = _assert_readers_get_each_event_once_in_order(commands, cfg, **crash)
    events = list(parse_trace(result.log.text().splitlines()))
    assert [e.seq for e in events if e.kind == "snapshot"][0] > BLOCK_LINES
    assert sum(e.kind == "snapshot" for e in events) == snapshots
    assert result.quiescent == (cfg.max_rounds == RunConfig.max_rounds)


# -- a snapshot replaces what came before it ----------------------------------------


def test_offline_verdicts_equal_the_naive_oracles_on_crashed_runs():
    # each crash's snapshot replaces the keys, open sessions and lecture
    # counts seen before it, and a torn record's command is driven again
    lifecycle = parse_scenario(LIFECYCLE)
    runs = [
        (lifecycle, RunConfig(pipeline_window=window), at, torn)
        for window in (1, 8)
        for at in range(51)
        for torn in (False, True)
    ]
    for seed in (1, 2, 3):
        cfg = fuzz_config(seed)
        commands = generate(seed, 300, cfg)
        runs += [(commands, cfg, at, torn) for at in (20, 60, 100, 150, 200) for torn in (False, True)]
    for commands, cfg, at, torn in runs:
        lines = run_scenario(commands, cfg, crash_at=at, torn=torn).log.text().splitlines()
        offline = {v.property.value: v.status for v in evaluate_trace(parse_trace(lines), cfg)}
        assert offline == naive_statuses(parse_trace(lines), cfg), (cfg, at, torn)


@pytest.mark.parametrize(
    "text, cfg, crash",
    [
        (_with_crash_lines(), RunConfig(pipeline_window=8), {}),
        (LIFECYCLE, RunConfig(), {"crash_at": 25, "torn": True}),
    ],
    ids=["crash_lines", "crash_at_torn"],
)
def test_monitor_and_naive_oracle_agree_on_one_edit_mutants_of_a_crashed_run(text, cfg, crash):
    lines = run_scenario(parse_scenario(text), cfg, **crash).log.text().splitlines()
    assert sum(line.split("|")[2] == "snapshot" for line in lines[1:-1]) > 1  # it crashed
    _assert_monitor_and_naive_oracle_agree_on_mutants(lines, cfg, 1)
