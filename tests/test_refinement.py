"""A run refines its sequential specification.

The gateway sends one request per round and every command passes the
orchestrator in arrival order, so the ten agents should be a transparent
pipeline: the same commands applied in scenario order straight to one
``Store``, behind the gateway's "no open session" rule, give the run's
per-command status, reason and reply, and its final dump.  The model
shares with the run only what states the specification: how a scenario
line becomes a request (``scenario._content_for``), the store, and how a
report is built from its rows (``agents.build_report``).

Crashed runs are left out, and so is the small-scope enumeration at
windows above 1: a command queued behind a session's close passes the
gateway's gate there, so the run and the model part on ``CLOSE_SESSION``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest
from test_acceptance import GOLDEN, GOLDEN_CFG, SCENARIOS
from test_agents import TRAPS

from unimas import scenario
from unimas.agents import build_report
from unimas.config import RunConfig
from unimas.fuzz import generate
from unimas.scenario import CRASH, EXPECT_REFUSAL, ScenarioCommand, parse_scenario, run_scenario
from unimas.store import Store
from unimas.terms import Command, Refusal, Term, decode_blob, encode_blob


def sequential_model(commands: list[ScenarioCommand], cfg: RunConfig):
    """Each command's (status, reason, reply), and the final dump, of the
    commands applied in order to one store."""
    store = Store(cfg)
    outcomes = []
    for command in commands:
        if command.verb in (CRASH, EXPECT_REFUSAL):
            continue
        if command.verb not in scenario._SESSION_EXEMPT and not store.open_session_count():
            outcomes.append(("gateway_refused", "no open session", None))
            continue
        _, (name, args) = scenario._content_for(command)
        if name == "report":  # RPA asks the store for the kind's rows, then builds the report
            rows = store.execute(Command("query", args, "model")).result
            if isinstance(rows, Refusal):
                result = Refusal("store query failed", fault=True)
            else:
                lines = build_report(args[0], decode_blob(rows.args[0]), cfg)
                result = Term("report", (args[0], str(len(lines)), encode_blob("\n".join(lines))))
        else:
            result = store.execute(Command(name, args, "model")).result
        if isinstance(result, Refusal):
            outcomes.append(("failed" if result.fault else "refused", result.reason, None))
        else:
            outcomes.append(("ok", "", result))
    return outcomes, store.dump()


def mismatch(commands: list[ScenarioCommand], cfg: RunConfig) -> str | None:
    """Where the run of ``commands`` parts from the sequential model, if it does."""
    result = run_scenario(commands, cfg)
    outcomes, dump = sequential_model(commands, cfg)
    plain = [c for c in commands if c.verb not in (CRASH, EXPECT_REFUSAL)]
    ran = [(o.status, o.reason, o.reply) for o in result.outcomes]
    for command, got, want in zip(plain, ran, outcomes, strict=True):
        if got != want:
            return f"{command.render()}: ran {got}, model {want}"
    return None if result.store.dump() == dump else "final dumps differ"


@pytest.mark.parametrize("window", [1, 8])
def test_scenario_runs_equal_their_commands_applied_to_one_store(window):
    for name in (*GOLDEN, TRAPS):
        path = SCENARIOS / name  # TRAPS is a whole path
        cfg = replace(GOLDEN_CFG.get(name, RunConfig()), pipeline_window=window)
        assert mismatch(parse_scenario(path.read_text()), cfg) is None, name


@pytest.mark.parametrize("window", [1, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzz_runs_equal_their_commands_applied_to_one_store(seed, window):
    cfg = RunConfig(seed=seed, pipeline_window=window)
    assert mismatch(generate(seed, 3000, cfg), cfg) is None


#: Two opens, a close, one command of each other verb, and two reports.
SMALL_SCOPE = parse_scenario(
    "OPEN_SESSION dept=CS\n"
    "OPEN_SESSION dept=EE\n"
    "CLOSE_SESSION sid=1\n"
    "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
    "REGISTER_TEACHER name=T designation=lecturer contact=03001111111 email=t@uni.edu\n"
    "ADD_PROGRAM name=p session=morning semesters=1 fee=10\n"
    "ADMIT student_id=1 p_id=1\n"
    "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
    "ASSIGN_TEACHER class_id=1 teacher_id=1\n"
    "DELIVER_LECTURE class_id=1 subject=Math times=16\n"
    "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
    "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=90\n"
    "GENERATE_REPORT kind=teacher_student_ratio\n"
    "GENERATE_REPORT kind=attendance\n"
)


def test_every_three_commands_after_an_open_equal_the_sequential_model_at_window_1():
    cfg = RunConfig(cap=1)
    opened = SMALL_SCOPE[0]
    for sequence in product(SMALL_SCOPE, repeat=3):
        assert mismatch([opened, *sequence], cfg) is None
