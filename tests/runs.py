"""The canonical runs, each built once per test session.

A run is a pure function of its commands, config, ``crash_at`` and
``torn`` (C4 checks that), so a test that only reads a ``RunResult`` takes
it from here.  A test builds its own run to check determinism by running
twice, to watch a run as it happens (a monkeypatch or a wrapper,
``sys.settrace``, ``tracemalloc``, ``TraceLog.readers``, a world observer or
the bench tracer), or through ``cli.main`` or ``replay_crash``.  A shared
run must not be changed: ``test_shared_runs_stay_read_only``, which
``conftest.py`` runs last, checks each one's trace sha256, dump and journal.
"""

import gc
from functools import cache
from pathlib import Path

from unimas import fuzz as fuzzing
from unimas.bdi import BelieveStep, MessageMatch, Plan, make_agent
from unimas.config import RunConfig
from unimas.scenario import RunResult, ScenarioRunner, load_test, parse_scenario, run_scenario
from unimas.terms import Performative

SCENARIOS = Path(__file__).parent.parent / "scenarios"
#: All the report-aggregate traps in one run, with reports between the writes.
TRAPS = Path(__file__).parent / "data" / "traps.scn"
GOLDEN = (
    "registration.scn", "teachers.scn", "admissions.scn", "scheduling.scn", "examinations.scn",
    "results.scn", "reports.scn", "sessions.scn", "lifecycle.scn",
)
#: Per-scenario config tweaks (sessions.scn needs a reachable cap).
GOLDEN_CFG = {"sessions.scn": RunConfig(cap=3)}

#: (the arguments of each shared run, the run, its fingerprint when built)
BUILT: list[tuple[tuple, RunResult, tuple]] = []


def fingerprint(result: RunResult) -> tuple:
    return result.trace_hash, result.store.dump(), list(result.store.journal_lines)


def _shared(build):
    """``build``, called once per arguments; each run it makes goes in
    ``BUILT`` and, since it lives for the session, out of the cyclic
    collector's reach: full collections that walked the shared runs took
    about 1 s of Tier-1 (2 vCPU, Python 3.11.7)."""

    @cache
    def shared(*args):
        built = build(*args)
        result = getattr(built, "result", built)  # a LoadSummary holds its run
        BUILT.append((args, result, fingerprint(result)))
        gc.freeze()
        return built

    return shared


fuzz = _shared(fuzzing.fuzz)  # (seed, n_events)
load = _shared(load_test)  # (cfg, clients): a LoadSummary
_run = _shared(lambda text, cfg, crash_at, torn: run_scenario(parse_scenario(text), cfg, crash_at, torn))


@_shared
def silent_sa() -> RunResult:
    """A session and a registration, run with a student agent that takes
    every request and never replies: P12's fault, which no flag injects."""
    runner = ScenarioRunner(RunConfig())
    swallow = Plan("swallow", "swallow", (BelieveStep(lambda agent_id, goal: []),), MessageMatch(Performative.REQUEST))
    runner.world.agents["SA"] = make_agent("SA", [swallow])
    return runner.run(parse_scenario("OPEN_SESSION dept=CS\nREGISTER_STUDENT st_id=1 name=A dept=CS\n"))


def run(text: str, cfg: RunConfig | None = None, crash_at: int | None = None, torn: bool = False) -> RunResult:
    """The run of the scenario ``text``."""
    return _run(text, cfg or RunConfig(), crash_at, torn)


def scenario(name: str | Path, cfg: RunConfig | None = None, **crash) -> RunResult:
    """The run of a scenario file (a name in ``scenarios/`` or a whole
    path), under ``cfg`` or else the config the golden suite gives it."""
    return run((SCENARIOS / name).read_text(), cfg or GOLDEN_CFG.get(name, RunConfig()), **crash)


def crashed_lifecycle():
    """``(cfg, crash_at, torn, run)`` of the 204 crashed ``lifecycle.scn``
    runs: windows 1 and 8, ``crash_at`` 0 to 50, torn and not."""
    for cfg in (RunConfig(pipeline_window=1), RunConfig(pipeline_window=8)):
        for crash_at in range(51):
            for torn in (False, True):
                yield cfg, crash_at, torn, scenario("lifecycle.scn", cfg, crash_at=crash_at, torn=torn)
