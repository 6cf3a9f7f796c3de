"""The benchmark's per-layer tracer (``bench/layers.py``) patches entry points
of the program by name.  Tier-1 does not run the benchmark, so this checks
that every name it patches still exists, that it leaves no wrapper
behind, and that its after-call hooks can read a live run.  The harness
itself is not run here."""

from pathlib import Path

from unimas import agents, bdi, monitor, runtime, scenario, store, terms, trace

BENCH = Path(__file__).parent.parent / "bench"
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _entry_points():
    return {
        "bdi.step": bdi.step,
        "runtime.route": runtime.route,
        "scenario.run_round": scenario.run_round,
        "World.is_quiescent": runtime.World.is_quiescent,
        "Store.execute": store.Store.execute,
        "agents.build_report": agents.build_report,
        "terms.check_scalar": terms.check_scalar,
        "terms.encode_blob": terms.encode_blob,
        "Monitor.observe": monitor.Monitor.observe,
        "Monitor.check_snapshot": monitor.Monitor.check_snapshot,
        "TraceLog.append": trace.TraceLog.append,
        "ScenarioRunner.run": scenario.ScenarioRunner.run,
    }


def test_layer_tracer_installs_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    before = _entry_points()
    tracer = layers.Tracer()
    try:
        tracer.install()
        wrapped = _entry_points()
        assert all(wrapped[name] is not fn for name, fn in before.items())
    finally:
        tracer.uninstall()
    after = _entry_points()
    assert all(after[name] is fn for name, fn in before.items())


def test_layer_tracer_callbacks_read_a_live_run(monkeypatch):
    # the tracer's after-call hooks read kernel, router and store values
    # (AgentState.id/.goals/.intentions, Outcome.accepted); run them once
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    commands = scenario.parse_scenario((SCENARIOS / "registration.scn").read_text())
    tracer = layers.Tracer()
    try:
        tracer.install()
        runner = scenario.ScenarioRunner()
        tracer.trace_runner(runner)
        result = runner.run(commands)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    # a per-layer metric divides by these calls: a hot path that went round
    # a patched entry point would read as zero
    for span in (
        "runtime.route",
        "runtime.run_round",
        "runtime.is_quiescent",
        "store.execute",
        "monitor.observe",
        "trace.append",
        "scenario.run",
        "bdi.step",
    ):
        assert tracer.calls(span) > 0, span
    # monitor.observe_us and monitor.events_per_cmd divide by this count, so
    # the live monitor, reading a block at a time, observes each event once
    events = list(trace.parse_trace(result.log.text().splitlines()))
    assert tracer.calls("monitor.observe") == len(events) == result.log.next_seq
    assert tracer.counted("oa_steps") > 0
    assert tracer.counted("envelopes") > 0
    assert tracer.calls("agents.store_handler") > 0
