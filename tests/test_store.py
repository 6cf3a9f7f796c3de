from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from oracle import parse_dump, reference_report

from unimas.agents import build_report
from unimas.config import RunConfig
from unimas.scenario import parse_scenario, run_scenario
from unimas.store import (
    ALREADY_REGISTERED,
    BUSY,
    DUPLICATE_ADMISSION,
    INCOMPLETE,
    INSUFFICIENT_LECTURES,
    MARKS_BOUNDS,
    REPORT_QUERIES,
    SAME_DATE,
    SCHEMAS,
    SAME_TIMING,
    TEACHER_CONFLICT,
    UNAUTHORIZED,
    JournalCorruption,
    Store,
    _crc,
    journal_conversations,
    recover,
    replay,
)
from unimas.terms import Command, Refusal, Term, decode_blob


def cmd(__name: str, **kv: str) -> Command:
    """A command with its args named; a field not named is sent empty."""
    fields = [f.name for f in SCHEMAS[__name]]
    assert kv.keys() <= set(fields), kv
    return Command(__name, tuple(kv.get(f, "") for f in fields), "t:0")


def refused(outcome) -> str:
    assert isinstance(outcome, Refusal), f"expected refusal, got {outcome}"
    return outcome.reason


def ok(store: Store, command: Command) -> Term:
    """Execute a command the store must accept; returns its reply."""
    result = store.execute(command).result
    assert isinstance(result, Term), f"expected acceptance, got {result}"
    return result


def open_session(store: Store, dpt_id: str) -> Term | Refusal:
    return store.execute(cmd("open_session", dpt_id=dpt_id)).result


def rows(store: Store, table: str, **filters) -> list[dict[str, str]]:
    """A table's rows as the store's dump shows them, in key order."""
    wanted = {k: str(v) for k, v in filters.items()}
    return [
        row
        for row in parse_dump(store.dump())[table]
        if all(row[k] == v for k, v in wanted.items())
    ]


@pytest.fixture
def store() -> Store:
    return Store(RunConfig())


def seed_class(store: Store, semesters: int = 2) -> int:
    ok(store, cmd("add_program", name="prog", session="morning", semester_count=str(semesters), fee="1000"))
    return ok(store, cmd("add_class", p_id="1", semester="1", subject="Math", day="0", period="0")).args[0]


# -- sessions ---------------------------------------------------------------


def test_unauthorized_department_refused(store):
    assert refused(open_session(store, "EE")) == UNAUTHORIZED


def test_busy_beyond_cap():
    store = Store(RunConfig(cap=10))
    for sid in range(1, 11):
        assert open_session(store, "CS") == Term("ok", (str(sid),))
    assert refused(open_session(store, "CS")) == BUSY
    # close one, retry succeeds
    ok(store, cmd("close_session", sid="1"))
    assert open_session(store, "CS") == Term("ok", ("11",))


def test_cap_default_is_paper_value():
    assert RunConfig().cap == 1000


# -- execute / validation -----------------------------------------------------


def test_missing_required_field_is_incomplete(store):
    assert refused(store.execute(cmd("add_student", st_id="111", dpt_id="CS")).result) == INCOMPLETE


@pytest.mark.parametrize("bad", ["--2", "2x", "two", "+2", "1_0", "²"])
def test_text_in_an_int_field_is_a_fault_not_a_crash(store, bad):
    # an int field takes ASCII decimal text only: "--2" once reached int()
    # and raised, and int() alone would take "+2", "1_0" and "²"
    outcome = store.execute(
        cmd("add_program", name="p", session="morning", semester_count=bad, fee="100")
    ).result
    assert refused(outcome) == "invalid field semester_count" and outcome.fault
    assert store.journal_lines == []


def test_an_int_field_keeps_its_text_when_canonical(store):
    # a canonical field is held as sent, not as a second string of its text
    fee = "".join(["50", "00"])  # a string of its own, not a shared constant
    ok(store, cmd("add_program", name="p", session="morning", semester_count="2", fee=fee))
    assert store.tables["fees"][(1, 1)]["amount"] is fee
    ok(store, cmd("add_program", name="q", session="morning", semester_count="2", fee="0700"))
    assert store.tables["fees"][(2, 1)]["amount"] == "700"


def test_unknown_command_or_wrong_arity_is_one_fault(store):
    for command in (
        Command("enroll", ("1",), "t:0"),
        Command("add_student", ("111", "Ali"), "t:0"),
        Command("add_student", ("111", "Ali", "CS", "x"), "t:0"),
    ):
        outcome = store.execute(command).result
        assert refused(outcome) == "malformed command" and outcome.fault
    assert store.journal_lines == []


def test_add_student_assigns_monotone_ids(store):
    assert ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS")) == Term("ok", ("1",))
    assert ok(store, cmd("add_student", st_id="222", name="Sara", dpt_id="CS")) == Term("ok", ("2",))
    students = rows(store, "students")
    assert [(r["student_id"], r["st_id"]) for r in students] == [("1", "111"), ("2", "222")]
    assert [line.split("|")[0] for line in store.journal_lines] == ["1", "2"]  # dense event sequence


def test_duplicate_st_id_uses_paper_literal(store):
    ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS"))
    outcome = store.execute(cmd("add_student", st_id="111", name="Ali", dpt_id="CS")).result
    assert refused(outcome) == ALREADY_REGISTERED == "Student Already Registerd"


def test_duplicate_teacher_email_refused(store):
    teacher = dict(name="T", designation="lecturer", contact="0300", email="t@u.edu")
    ok(store, cmd("add_teacher", **teacher))
    assert "Registerd" in refused(store.execute(cmd("add_teacher", **teacher)).result)


def test_admit_sets_program_once(store):
    ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS"))
    ok(store, cmd("add_program", name="p", session="morning", semester_count="2", fee="100"))
    ok(store, cmd("admit", student_id="1", p_id="1"))
    assert rows(store, "students", student_id=1)[0]["program_id"] == "1"
    again = store.execute(cmd("admit", student_id="1", p_id="1")).result
    assert refused(again) == DUPLICATE_ADMISSION


def test_admit_unknown_program_is_fault(store):
    ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS"))
    outcome = store.execute(cmd("admit", student_id="1", p_id="9")).result
    assert isinstance(outcome, Refusal) and outcome.fault


def test_program_creates_fee_row_per_semester(store):
    ok(store, cmd("add_program", name="bscs", session="morning", semester_count="8", fee="5000"))
    fee_rows = rows(store, "fees", p_id=1)
    assert len(fee_rows) == 8  # row count equals the semester count
    assert {r["amount"] for r in fee_rows} == {"5000"}


def test_two_programs_get_distinct_ids(store):
    p1 = ok(store, cmd("add_program", name="a", session="morning", semester_count="1", fee="1"))
    p2 = ok(store, cmd("add_program", name="b", session="evening", semester_count="1", fee="1"))
    assert (p1.args, p2.args) == (("1",), ("2",))
    assert [(r["p_id"], r["name"]) for r in rows(store, "programs")] == [("1", "a"), ("2", "b")]


def test_incomplete_program_creates_nothing(store):
    outcome = store.execute(cmd("add_program", name="a", session="morning", semester_count="2")).result
    assert refused(outcome) == INCOMPLETE
    assert rows(store, "programs") == [] and rows(store, "fees") == []
    assert store.journal_lines == []  # refusal purity


def test_first_class_id_is_one(store):
    class_id = seed_class(store)
    assert class_id == "1"


def test_same_slot_same_cohort_refused(store):
    seed_class(store)
    outcome = store.execute(cmd("add_class", p_id="1", semester="1", subject="Phy", day="0", period="0")).result
    assert refused(outcome) == SAME_TIMING


def test_same_slot_other_semester_accepted(store):
    # conflict scope is the (program, semester) cohort
    seed_class(store, semesters=2)
    assert ok(store, cmd("add_class", p_id="1", semester="2", subject="Phy", day="0", period="0")).args == ("2",)
    assert rows(store, "classes", class_id=2)[0]["semester"] == "2"


def test_assign_teacher_slot_conflict(store):
    seed_class(store)
    ok(store, cmd("add_class", p_id="1", semester="1", subject="Phy", day="0", period="1"))
    ok(store, cmd("add_class", p_id="1", semester="2", subject="Lab", day="0", period="0"))
    ok(store, cmd("add_teacher", name="T", designation="prof", contact="1", email="t@u"))
    ok(store, cmd("assign_teacher", class_id="1", teacher_id="1"))
    # same teacher, same (day, period) in another cohort: refused
    outcome = store.execute(cmd("assign_teacher", class_id="3", teacher_id="1")).result
    assert refused(outcome) == TEACHER_CONFLICT
    # different slot is fine, and reassignment overwrites
    ok(store, cmd("assign_teacher", class_id="2", teacher_id="1"))
    ok(store, cmd("assign_teacher", class_id="1", teacher_id="1"))
    assert rows(store, "classes", class_id=1)[0]["teacher_id"] == "1"


@pytest.mark.parametrize(
    "term,count,accepted",
    [("mid", "15", False), ("mid", "16", True), ("final", "31", False), ("final", "32", True)],
)
def test_exam_lecture_thresholds(store, term, count, accepted):
    seed_class(store)
    ok(store, cmd("deliver_lecture", class_id="1", subject="Math", times=count))
    outcome = store.execute(
        cmd("schedule_exam", term=term, class_id="1", subject="Math", date="2025-05-01")
    ).result
    if accepted:
        assert not isinstance(outcome, Refusal)
    else:
        assert refused(outcome) == INSUFFICIENT_LECTURES


def test_same_class_same_day_refused(store):
    seed_class(store)
    ok(store, cmd("deliver_lecture", class_id="1", subject="Math", times="32"))
    ok(store, cmd("schedule_exam", term="mid", class_id="1", subject="Math", date="2025-05-01"))
    outcome = store.execute(
        cmd("schedule_exam", term="final", class_id="1", subject="Math", date="2025-05-01")
    ).result
    assert refused(outcome) == SAME_DATE
    # another day is fine
    ok(store, cmd("schedule_exam", term="final", class_id="1", subject="Math", date="2025-05-02"))


def _seed_result_target(store):
    ok(store, cmd("add_student", st_id="1", name="A", dpt_id="CS"))
    seed_class(store)
    ok(store, cmd("admit", student_id="1", p_id="1"))


@pytest.mark.parametrize("marks,accepted", [("-1", False), ("0", True), ("100", True), ("101", False)])
def test_marks_bounds_inclusive(store, marks, accepted):
    _seed_result_target(store)
    outcome = store.execute(
        cmd("record_result", student_id="1", class_id="1", subject="Math", marks=marks)
    ).result
    if accepted:
        assert not isinstance(outcome, Refusal)
        stored = rows(store, "results", student_id=1)[0]["marks"]
        assert stored == marks  # accepted, never clamped
    else:
        assert refused(outcome) == MARKS_BOUNDS


def test_per_subject_marks_override():
    store = Store(RunConfig(marks_overrides=(("Math", 10, 50),)))
    _seed_result_target(store)
    assert refused(
        store.execute(cmd("record_result", student_id="1", class_id="1", subject="Math", marks="51")).result
    ) == MARKS_BOUNDS
    ok(store, cmd("record_result", student_id="1", class_id="1", subject="Math", marks="50"))


# -- query ---------------------------------------------------------------------


def answer(store: Store, q: str) -> str:
    return decode_blob(ok(store, cmd("query", q=q)).args[0])


def test_query_empty_store(store):
    assert {q: answer(store, q) for q in REPORT_QUERIES} == {
        "graduates_per_year": "",
        "admissions_per_year": "",
        "attendance": "",
        "teacher_student_ratio": "teachers|0\nstudents|0\n",
        "lab_student_ratio": "students|0\n",
    }


def test_query_read_your_write(store):
    ok(store, cmd("add_student", st_id="777", name="Zoe", dpt_id="CS"))
    assert answer(store, "lab_student_ratio") == "students|1\n"
    students = rows(store, "students", st_id="777")
    assert len(students) == 1 and students[0]["name"] == "Zoe"


def test_query_unknown_table_is_fault(store):
    # a table name or a whole dump is not a report query either
    for q in ("nope", "students", "dump"):
        outcome = store.execute(cmd("query", q=q)).result
        assert isinstance(outcome, Refusal) and outcome.fault


def test_queries_are_not_journaled(store):
    ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS"))
    for q in REPORT_QUERIES:
        assert store.execute(cmd("query", q=q)).accepted
    assert len(store.journal_lines) == 1


def test_report_query_answer_is_its_aggregate_rows_only(store):
    ok(store, cmd("add_program", name="p", session="morning", semester_count="1", fee="10"))
    for i in range(300):
        ok(store, cmd("add_student", st_id=f"S{i:03d}", name=f"N{i}", dpt_id="CS"))
        ok(store, cmd("admit", student_id=str(i + 1), p_id="1", year="2024"))
    sizes = {}
    for q in ("teacher_student_ratio", "lab_student_ratio", "admissions_per_year"):
        answer = store.execute(cmd("query", q=q)).result
        assert isinstance(answer, Term) and answer.name == "rows"
        sizes[q] = len(answer.args[0])
    assert all(size < 200 for size in sizes.values()), sizes


# -- journal / replay -----------------------------------------------------------

TRAPS = Path(__file__).parent / "data" / "traps.scn"
P4 = RunConfig(inject="p4")


def _trap_store() -> Store:
    """The live store after every report-aggregate trap, re-admissions included."""
    return run_scenario(parse_scenario(TRAPS.read_text()), P4).store


def test_recovered_reports_equal_reference_at_every_journal_prefix():
    journal = _trap_store().journal_lines
    for k in range(len(journal) + 1):
        store, bad = recover(journal[:k], P4)
        assert bad is None
        dump = store.dump()
        for q in REPORT_QUERIES:
            lines = build_report(q, answer(store, q), P4)
            assert lines == reference_report(q, dump, P4.lab_count), (k, q)


def test_lecture_logs_iterate_in_key_order():
    # attendance lists the lecture logs in dict order, which must be key
    # order: class ids rise and a delivered lecture updates its log in place
    live = _trap_store()
    journal = live.journal_lines
    assert sum(line.split("|")[1] == "add_class" for line in journal) > 2
    assert sum(line.split("|")[1] == "deliver_lecture" for line in journal) > 2
    stores = [live] + [recover(journal[:k], P4)[0] for k in range(len(journal) + 1)]
    for store in stores:
        logs = store.tables["lecture_logs"]
        assert list(logs) == sorted(logs)


def test_replay_empty_journal_is_empty_store():
    fresh = replay([], RunConfig())
    assert fresh.dump() == ""


def _busy_store() -> Store:
    store = Store(RunConfig())
    ok(store, cmd("open_session", dpt_id="CS"))
    ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS"))
    ok(store, cmd("add_program", name="p", session="morning", semester_count="3", fee="900"))
    ok(store, cmd("admit", student_id="1", p_id="1"))
    ok(store, cmd("add_class", p_id="1", semester="1", subject="Math", day="1", period="2"))
    ok(store, cmd("deliver_lecture", class_id="1", subject="Math", times="16"))
    ok(store, cmd("schedule_exam", term="mid", class_id="1", subject="Math", date="2025-05-01"))
    ok(store, cmd("record_result", student_id="1", class_id="1", subject="Math", marks="98"))
    return store


def test_replay_reproduces_live_state_table_for_table():
    live = _busy_store()
    assert replay(live.journal_lines, RunConfig()).dump() == live.dump()


def test_truncated_journal_halts_at_bad_seq():
    live = _busy_store()
    lines = list(live.journal_lines)
    lines[4] = lines[4][: len(lines[4]) // 2]  # torn write mid-record
    with pytest.raises(JournalCorruption) as err:
        replay(lines, RunConfig())
    assert err.value.seq == 5
    rebuilt, bad = recover(lines, RunConfig())
    assert bad == 5
    assert len(rebuilt.journal_lines) == 4


def test_journal_records_read_back_their_conversations():
    store = Store(RunConfig())
    ok(store, Command("open_session", ("CS",), "GW:0"))
    ok(store, Command("add_student", ("1", "A", "CS"), "SA:0>GW:1"))
    assert journal_conversations(store.journal_lines) == ["GW:0", "SA:0>GW:1"]
    # a framed record that names no conversation is corrupt
    payload = "1|open_session|dpt_id=CS"
    without_conv = f"{payload}|{_crc(payload)}"
    with pytest.raises(JournalCorruption):
        replay([without_conv], RunConfig())


@given(st.integers(0, 8))
def test_replay_of_any_prefix_is_consistent(k):
    live = _busy_store()
    prefix = live.journal_lines[:k]
    rebuilt = replay(prefix, RunConfig())
    assert rebuilt.journal_lines == prefix
    # the next record's seq is the journal's length plus one
    ok(rebuilt, cmd("open_session", dpt_id="CS"))
    assert rebuilt.journal_lines[-1].startswith(f"{k + 1}|open_session|")


def test_dump_parses_back(store):
    live = _busy_store()
    tables = parse_dump(live.dump())
    assert [r["st_id"] for r in tables["students"]] == ["111"]
    assert len(tables["fees"]) == 3
    assert tables["sessions"][0]["dpt_id"] == "CS"


def test_injection_disables_exactly_one_guard():
    store = Store(RunConfig(inject="p1"))
    ok(store, cmd("add_student", st_id="111", name="Ali", dpt_id="CS"))
    ok(store, cmd("add_student", st_id="111", name="Ali2", dpt_id="CS"))
    assert [r["st_id"] for r in rows(store, "students")] == ["111", "111"]  # duplicate accepted under p1
    # other guards still live
    assert refused(store.execute(cmd("add_student", st_id="222", name="", dpt_id="CS")).result) == INCOMPLETE
