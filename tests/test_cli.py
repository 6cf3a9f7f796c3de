import hashlib
from pathlib import Path

import pytest

from unimas.cli import main
from unimas.store import replay
from unimas.terms import encode_blob
from unimas.trace import BLOCK_LINES

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_run_golden_scenario_exits_zero(capsys):
    code = run_cli("run", str(SCENARIOS / "registration.scn"))
    out = capsys.readouterr().out
    assert code == 0
    assert "P1|holds|-|-" in out
    assert "P12|holds|-|-" in out
    assert "max_reply_latency=" in out


def test_run_with_injection_exits_two(capsys):
    code = run_cli("run", str(SCENARIOS / "registration.scn"), "--set", "inject=p1")
    out = capsys.readouterr().out
    assert code == 2
    assert "P1|violated|" in out


def test_injected_duplicate_names_both_events(capsys):
    code = run_cli("run", str(SCENARIOS / "registration.scn"), "--set", "inject=p1")
    out = capsys.readouterr().out
    assert code == 2
    assert "P1|violated|20|st_id 3520111111111 registered twice (first at seq 5)\n" in out


def test_run_unknown_file_exits_three(capsys):
    assert run_cli("run", "does-not-exist.scn") == 3
    for command in ("run", "report"):  # a directory is no file either
        assert run_cli(command, str(SCENARIOS)) == 3, command
        assert "Is a directory" in capsys.readouterr().err, command


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    for line, message in {
        "TELEPORT to=mars": "line 1: ",
        "CRASH now=1": "line 1: CRASH takes no arguments",
        "EXPECT_REFUSAL why=x": "line 1: EXPECT_REFUSAL takes only reason=",
    }.items():
        bad.write_text(line + "\n")
        assert run_cli("run", str(bad)) == 3, line
        assert message in capsys.readouterr().err, line


def test_bad_config_exits_three(tmp_path, capsys):
    scenario = str(SCENARIOS / "registration.scn")
    cfg = tmp_path / "bad.cfg"
    for text, message in {"cap = lots": "line 1: bad value for cap", "cap 3": "line 1: expected key = value"}.items():
        cfg.write_text(text + "\n")
        assert run_cli("run", scenario, "--config", str(cfg)) == 3, text
        assert message in capsys.readouterr().err, text
    assert run_cli("run", scenario, "--set", "cap") == 3
    assert "--set expects key=value" in capsys.readouterr().err


def test_config_file_and_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("cap = 3\n")
    code = run_cli("run", str(SCENARIOS / "sessions.scn"), "--config", str(cfg))
    assert code == 0
    code = run_cli("run", str(SCENARIOS / "sessions.scn"), "--set", "cap=3")
    assert code == 0


def test_trace_report_roundtrip(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    code = run_cli(
        "run", str(SCENARIOS / "lifecycle.scn"), "--trace", str(trace), "--set", "seed=4"
    )
    assert code == 0
    live_out = capsys.readouterr().out
    live_verdicts = [ln for ln in live_out.splitlines() if ln.startswith("P")]

    code = run_cli("report", str(trace))
    offline_out = capsys.readouterr().out
    assert code == 0
    offline_verdicts = [ln for ln in offline_out.splitlines() if ln.startswith("P")]
    assert offline_verdicts == live_verdicts


def test_marks_bounds_set_in_either_order_run_and_report_alike(tmp_path, capsys):
    scenario = str(SCENARIOS / "results.scn")
    pair = ("max_marks=200", "min_marks=150")
    runs = []
    for order in (pair, pair[::-1]):
        trace = tmp_path / f"{order[0]}+{order[1]}.trace"
        sets = [arg for setting in order for arg in ("--set", setting)]
        assert run_cli("run", scenario, *sets, "--trace", str(trace)) == 0, order
        live_out = capsys.readouterr().out
        # the header names min_marks first; report reads it back as one config
        assert run_cli("report", str(trace)) == 0, order
        offline_out = capsys.readouterr().out
        assert offline_out.count("\n") == 12 and offline_out in live_out
        runs.append((live_out, trace.read_bytes()))
    assert runs[0] == runs[1]  # the same trace_sha256 line among the rest
    assert live_out.splitlines()[-1].startswith("# trace_sha256=")
    pair = ("max_marks=50", "min_marks=60")
    for order in (pair, pair[::-1]):
        sets = [arg for setting in order for arg in ("--set", setting)]
        assert run_cli("run", scenario, *sets) == 3, order
        assert "must not exceed" in capsys.readouterr().err


def test_a_per_subject_marks_bound_is_an_unknown_key_however_it_is_set(tmp_path, capsys):
    # one pair of marks bounds holds for every subject, as the paper states P10
    scenario = str(SCENARIOS / "results.scn")
    assert run_cli("run", scenario, "--set", "max_marks.Math=50") == 3
    assert "unknown config key: max_marks.Math" in capsys.readouterr().err
    cfg = tmp_path / "marks.cfg"
    cfg.write_text("min_marks.Math = 10\n")
    assert run_cli("run", scenario, "--config", str(cfg)) == 3
    assert "line 1: unknown config key: min_marks.Math" in capsys.readouterr().err
    trace = tmp_path / "run.trace"
    assert run_cli("run", scenario, "--trace", str(trace)) == 0
    header, rest = trace.read_text().split("\n", 1)
    trace.write_text(f"{header},marks.Math=0:50\n{rest}")
    capsys.readouterr()
    assert run_cli("report", str(trace)) == 3
    assert "unknown config key: marks.Math" in capsys.readouterr().err


def test_a_fuzz_trace_of_several_blocks_hashes_as_printed_and_reports_the_live_verdicts(
    tmp_path, capsys
):
    trace = tmp_path / "fuzz.trace"
    code = run_cli("fuzz", "--seed", "1", "--events", "600", "--trace", str(trace))
    live_out = capsys.readouterr().out
    data = trace.read_bytes()
    assert data.count(b"\n") > 2 * BLOCK_LINES
    assert f"# trace_sha256={hashlib.sha256(data).hexdigest()}\n" in live_out

    assert run_cli("report", str(trace)) == code == 0
    offline_out = capsys.readouterr().out
    assert offline_out.count("\n") == 12 and offline_out in live_out


def test_truncated_run_exits_four_live_and_offline(tmp_path, capsys):
    scenario = tmp_path / "short.scn"
    scenario.write_text(
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=C1 name=A dept=CS\n"
        "REGISTER_STUDENT st_id=C2 name=B dept=CS\n"
    )
    trace = tmp_path / "run.trace"
    code = run_cli("run", str(scenario), "--set", "max_rounds=5", "--trace", str(trace))
    assert code == 4
    assert "P12|inconclusive|" in capsys.readouterr().out
    assert run_cli("report", str(trace)) == 4
    assert "P12|inconclusive|" in capsys.readouterr().out


def test_a_run_cut_off_with_nothing_open_exits_four_live_and_offline(tmp_path, capsys):
    # lifecycle.scn has answered 3 of its 50 commands by round 13
    trace = tmp_path / "run.trace"
    code = run_cli(
        "run", str(SCENARIOS / "lifecycle.scn"), "--set", "max_rounds=13", "--trace", str(trace)
    )
    assert code == 4
    assert "P12|inconclusive|" in capsys.readouterr().out
    assert run_cli("report", str(trace)) == 4
    assert "P12|inconclusive|" in capsys.readouterr().out


def test_report_of_a_config_header_alone_exits_four(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("run", str(SCENARIOS / "lifecycle.scn"), "--trace", str(trace)) == 0
    trace.write_text(trace.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert run_cli("report", str(trace)) == 4
    assert "P12|inconclusive|" in capsys.readouterr().out


def test_dump_and_journal_outputs(tmp_path, capsys):
    dump = tmp_path / "store.dump"
    journal = tmp_path / "events.journal"
    code = run_cli(
        "run",
        str(SCENARIOS / "results.scn"),
        "--dump",
        str(dump),
        "--journal",
        str(journal),
    )
    assert code == 0
    assert "students|1|" in dump.read_text()
    lines = journal.read_text().splitlines()
    assert lines and lines[0].startswith("1|open_session|")
    assert replay(lines).dump() == dump.read_text()
    # a run that journals nothing writes an empty journal, which replays
    # to the run's (empty) dump
    empty = tmp_path / "none.scn"
    empty.write_text("OPEN_SESSION dept=EE\n")
    assert run_cli("run", str(empty), "--dump", str(dump), "--journal", str(journal)) == 0
    assert journal.read_text() == dump.read_text() == ""
    assert replay(journal.read_text().splitlines()).dump() == ""


def test_reports_printed_on_stdout(capsys):
    code = run_cli("run", str(SCENARIOS / "reports.scn"))
    out = capsys.readouterr().out
    assert code == 0
    assert "teacher_student_ratio|teachers_to_students|undefined" in out
    assert "teacher_student_ratio|teachers_to_students|1/4" in out
    assert "lab_student_ratio|labs_to_students|1/4" in out


def test_fuzz_print_only_deterministic(capsys):
    assert run_cli("fuzz", "--seed", "2", "--events", "25", "--print-only") == 0
    first = capsys.readouterr().out
    assert run_cli("fuzz", "--seed", "2", "--events", "25", "--print-only") == 0
    assert capsys.readouterr().out == first
    assert first.startswith("OPEN_SESSION dept=CS")


def test_fuzz_print_only_refuses_what_a_fuzz_run_refuses(capsys):
    refusals = {
        "pipeline_window=3": "fixed pipeline_window of 8",
        "liveness_k=2": "liveness_k=2 can never hold",
    }
    for setting, message in refusals.items():
        for print_only in ((), ("--print-only",)):
            argv = ("fuzz", "--seed", "1", "--events", "10", "--set", setting, *print_only)
            assert run_cli(*argv) == 3, argv
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == "", argv


def test_fuzz_run_small(capsys):
    assert run_cli("fuzz", "--seed", "5", "--events", "60") == 0
    assert "trace_sha256=" in capsys.readouterr().out


def test_load_summary_line(capsys):
    assert run_cli("load", "--clients", "11", "--set", "cap=10") == 0
    out = capsys.readouterr().out
    assert "clients=11 granted=10 busy=1" in out


def test_load_at_paper_capacity_exits_zero(capsys):
    assert run_cli("load", "--clients", "1001", "--set", "cap=1000") == 0
    out = capsys.readouterr().out
    assert "clients=1001 granted=1000 busy=1" in out
    assert "P12|holds|-|-" in out


def test_fixed_window_commands_refuse_a_configured_window(tmp_path, capsys):
    assert run_cli("fuzz", "--seed", "1", "--events", "10", "--set", "pipeline_window=64") == 3
    assert "fixed pipeline_window of 8" in capsys.readouterr().err
    cfg = tmp_path / "window.cfg"
    cfg.write_text("pipeline_window = 8\n")
    assert run_cli("load", "--clients", "2", "--config", str(cfg)) == 3
    assert "fixed pipeline_window of 64" in capsys.readouterr().err
    code = run_cli(
        "replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", "7", "--set", "pipeline_window=2"
    )
    assert code == 3
    assert "fixed pipeline_window of 1" in capsys.readouterr().err
    # the command's own window is not a conflict
    assert run_cli("load", "--clients", "2", "--set", "pipeline_window=64") == 0


def test_replay_crash_cli(capsys):
    code = run_cli("replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", "7")
    assert code == 0
    assert "replay_crash|at=7|equivalent" in capsys.readouterr().out
    code = run_cli("replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", "7", "--torn")
    assert code == 0


def test_bad_inject_flag_exits_three(tmp_path):
    scenario = str(SCENARIOS / "registration.scn")
    assert run_cli("run", scenario, "--inject", "p99") == 3  # no such flag: a usage error
    assert run_cli("run", scenario, "--set", "inject=p99") == 3
    assert run_cli("run", scenario, "--set", "inject=P1") == 3
    cfg = tmp_path / "inject.cfg"
    cfg.write_text("inject = p99\n")
    assert run_cli("run", scenario, "--config", str(cfg)) == 3


def test_a_setting_the_trace_header_cannot_carry_exits_three(tmp_path, capsys):
    # a comma would split the header field, so report could not read it back
    scenario = str(SCENARIOS / "sessions.scn")
    trace = tmp_path / "run.trace"
    # and a scenario or a config file ends a line at "#"
    refused = {"cs_roster=CS,EE": "bad cs_roster entry", "cs_roster=CS+C#S": "without '+' or '#'"}
    for setting, message in refused.items():
        assert run_cli("run", scenario, "--set", setting, "--trace", str(trace)) == 3, setting
        assert message in capsys.readouterr().err
    assert not trace.exists()
    cfg = tmp_path / "roster.cfg"
    cfg.write_text("cs_roster = CS,EE\n")
    assert run_cli("fuzz", "--seed", "1", "--events", "10", "--config", str(cfg)) == 3
    # nor does report read such a roster back from a header
    assert run_cli("run", str(SCENARIOS / "registration.scn"), "--trace", str(trace)) == 0
    trace.write_text(trace.read_text().replace("cs_roster=CS,", "cs_roster=CS+C#S,", 1))
    capsys.readouterr()
    assert run_cli("report", str(trace)) == 3
    assert "without '+' or '#'" in capsys.readouterr().err


def test_replay_crash_beyond_the_journal_exits_three(capsys):
    # lifecycle.scn journals 50 events; a crash index outside 0..50 never fires
    for at in ("100000", "-1", "51"):
        assert run_cli("replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", at) == 3
        assert "outside the run's journal, 0..50" in capsys.readouterr().err
    assert run_cli("replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", "50") == 0


def test_report_on_a_malformed_middle_line_exits_three(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("run", str(SCENARIOS / "lifecycle.scn"), "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines()
    middle = len(lines) // 2
    lines[middle] = lines[middle].replace("|", ";", 1)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("report", str(trace)) == 3
    assert capsys.readouterr().err.startswith("error: bad trace line")


def test_report_of_a_trace_with_a_line_missing_or_repeated_exits_three(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("run", str(SCENARIOS / "registration.scn"), "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines(keepends=True)
    deleted, repeated = lines[:4] + lines[5:], lines[:5] + lines[4:]  # line 5
    for edited, seen in ((deleted, "expected seq 3, saw 4"), (repeated, "expected seq 4, saw 3")):
        trace.write_text("".join(edited))
        capsys.readouterr()
        assert run_cli("report", str(trace)) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {trace}: {seen}\n" and captured.out == ""


LIVENESS_K_BELOW_THE_REPLY_PATH = {
    "run": ("run", str(SCENARIOS / "registration.scn")),
    "fuzz": ("fuzz", "--seed", "2", "--events", "3000"),
    "load": ("load", "--clients", "3"),
    "replay-crash": ("replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", "7"),
}


def test_every_run_command_refuses_a_liveness_k_below_the_reply_path(capsys):
    # GW -> relay -> OA and back takes 4 rounds, so K=3 could never hold
    for argv in LIVENESS_K_BELOW_THE_REPLY_PATH.values():
        assert run_cli(*argv, "--set", "liveness_k=3") == 3, argv
        assert "liveness_k=3 can never hold" in capsys.readouterr().err
    assert run_cli("fuzz", "--seed", "2", "--events", "300", "--set", "liveness_k=4") == 0


def test_report_evaluates_a_recorded_trace_at_its_recorded_liveness_k(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    code = run_cli(
        "run", str(SCENARIOS / "registration.scn"), "--set", "liveness_k=4", "--trace", str(trace)
    )
    assert code == 0
    trace.write_text(trace.read_text().replace("liveness_k=4,", "liveness_k=3,", 1))
    capsys.readouterr()
    assert run_cli("report", str(trace)) == 2
    assert "bound 3" in capsys.readouterr().out


def test_report_of_a_file_without_a_config_header_exits_three(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("run", str(SCENARIOS / "lifecycle.scn"), "--trace", str(trace)) == 0
    headless = [line for line in trace.read_text().splitlines() if not line.startswith("# config")]
    # an empty file, only comments, and a real trace whose header was cut off
    for text in ("", "# a comment\n#\n", "\n".join(headless) + "\n"):
        trace.write_text(text)
        capsys.readouterr()
        assert run_cli("report", str(trace)) == 3
        captured = capsys.readouterr()
        assert "no '# config' header" in captured.err and captured.out == ""


USAGE_ERRORS = {
    ("fuzz", "--events", "10"): "required: --seed",
    ("run",): "required: scenario",
    # the deleted aliases of --set: --inject, --cap, and --seed outside fuzz
    ("run", str(SCENARIOS / "registration.scn"), "--inject", "p1"): "unrecognized arguments: --inject p1",
    ("load", "--clients", "2", "--cap", "1"): "unrecognized arguments: --cap 1",
    ("replay-crash", str(SCENARIOS / "lifecycle.scn"), "--at", "7", "--seed", "4"): "arguments: --seed 4",
}


def test_a_usage_error_is_refused_input_and_exits_three(capsys):
    # not argparse's own 2, which would read as a violated property
    for argv, message in USAGE_ERRORS.items():
        assert run_cli(*argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unimas") and message in captured.err, argv
        assert captured.out == "", argv
    with pytest.raises(SystemExit) as exc:
        run_cli("fuzz", "--help")
    assert exc.value.code == 0


def test_report_of_a_trace_with_a_bad_snapshot_or_header_field_exits_three(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("run", str(SCENARIOS / "registration.scn"), "--trace", str(trace)) == 0
    header, *events = trace.read_text().splitlines()
    at = next(i for i, line in enumerate(events) if line.split("|")[2] == "snapshot")
    snapshot = events[at].rsplit("|", 1)[0]
    edits = {
        "not a blob token": (header, f"{snapshot}|not_a_blob"),
        "unknown table in dump": (header, f"{snapshot}|{encode_blob('lockers|1|a=1')}"),
        "bad header field": (f"{header},oops", events[at]),
    }
    for message, (edited_header, edited_snapshot) in edits.items():
        lines = [edited_header, *events[:at], edited_snapshot, *events[at + 1 :]]
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("report", str(trace)) == 3, message
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == "", message


def test_a_refusal_for_another_reason_fails_its_expectation_and_exits_two(tmp_path, capsys):
    scenario = tmp_path / "wrong_reason.scn"
    scenario.write_text(
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=C1 name=A dept=CS\n"
        "REGISTER_STUDENT st_id=C1 name=A dept=CS\n"
        "EXPECT_REFUSAL reason=busy\n"
    )
    assert run_cli("run", str(scenario)) == 2
    out = capsys.readouterr().out
    assert "P1|holds|-|-" in out
    assert "expectation|failed|line 3: expected refusal 'busy', got 'Student Already Registerd'\n" in out
