"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines alongside the assertions.
"""

from __future__ import annotations

import time
from dataclasses import replace
from multiprocessing import Pool
from pathlib import Path

import pytest
import runs
from runs import GOLDEN, SCENARIOS

from unimas.config import RunConfig
from unimas.fuzz import fuzz
from unimas.monitor import HOLDS, VIOLATED, PropertyId, evaluate_trace
from unimas.scenario import parse_scenario, run_scenario
from unimas.trace import parse_trace

def _statuses(verdicts):
    return {v.property: v.status for v in verdicts}


@pytest.fixture(scope="module")
def golden_runs():
    started = time.perf_counter()
    golden = {name: runs.scenario(name) for name in GOLDEN}
    return golden, time.perf_counter() - started


# -- criterion 1: property coverage over the golden suite ---------------------


def test_c1_golden_suite_all_hold(golden_runs):
    golden, elapsed = golden_runs
    assert len(golden) >= 8
    for name, result in golden.items():
        assert result.exit_code == 0, (name, result.expectation_failures)
        assert result.quiescent, name
        assert all(v.status == HOLDS for v in result.verdicts), (
            name,
            [v.render() for v in result.verdicts if v.status != HOLDS],
        )
        assert len(result.verdicts) == len(PropertyId) == 12
    assert elapsed < 5.0, f"golden suite took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1: PASS - {len(golden)} golden scenarios, 12 properties each, "
        f"all hold, {elapsed:.2f}s"
    )


# -- criterion 2: monitor soundness under fault injection ----------------------

MUTATIONS: dict[str, tuple[str, RunConfig]] = {
    "p1": (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n",
        RunConfig(),
    ),
    "p2": (
        "OPEN_SESSION dept=CS\nOPEN_SESSION dept=CS\nOPEN_SESSION dept=CS\n",
        RunConfig(cap=2),
    ),
    "p3": ("OPEN_SESSION dept=EE\n", RunConfig()),
    "p4": (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=2 fee=100\n"
        "ADMIT student_id=1 p_id=1\n"
        "ADMIT student_id=1 p_id=1\n",
        RunConfig(),
    ),
    "p5": (
        "OPEN_SESSION dept=CS\nADD_PROGRAM name=p session=morning semesters=4 fee=100\n",
        RunConfig(),
    ),
    "p6": (
        "OPEN_SESSION dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=2 fee=100\n"
        "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        "ADD_CLASS p_id=1 semester=1 subject=Physics day=0 period=0\n",
        RunConfig(),
    ),
    "p7": (
        "OPEN_SESSION dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=1 fee=100\n"
        "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        "DELIVER_LECTURE class_id=1 subject=Math times=15\n"
        "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n",
        RunConfig(),
    ),
    "p8": (
        "OPEN_SESSION dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=1 fee=100\n"
        "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        "DELIVER_LECTURE class_id=1 subject=Math times=32\n"
        "SCHEDULE_EXAM term=mid class_id=1 subject=Math date=2025-05-01\n"
        "SCHEDULE_EXAM term=final class_id=1 subject=Math date=2025-05-01\n",
        RunConfig(),
    ),
    "p9": (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_TEACHER name=T designation= contact=0300 email=t@u\n",
        RunConfig(),
    ),
    "p10": (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=111 name=Ali dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=1 fee=100\n"
        "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        "ADMIT student_id=1 p_id=1\n"
        "RECORD_RESULT student_id=1 class_id=1 subject=Math marks=101\n",
        RunConfig(),
    ),
    "p11": ("OPEN_SESSION dept=CS\nGENERATE_REPORT kind=attendance\n", RunConfig()),
}


def test_c2_mutation_suite_detects_each_fault_exactly():
    detected = []
    for flag, (text, base_cfg) in MUTATIONS.items():
        expected = PropertyId(flag.upper())
        cfg = replace(base_cfg, inject=flag)

        clean = runs.run(text, base_cfg)
        assert all(v.status == HOLDS for v in clean.verdicts), (
            flag,
            "guarded run must hold",
        )

        injected = runs.run(text, cfg)
        statuses = _statuses(injected.verdicts)
        assert statuses[expected] == VIOLATED, (flag, statuses)
        others = {p: s for p, s in statuses.items() if p is not expected}
        assert all(s == HOLDS for s in others.values()), (flag, statuses)
        detected.append(flag)

    # P12 soundness via a deliberately non-replying agent stub
    result = runs.silent_sa()
    statuses = _statuses(result.verdicts)
    assert statuses[PropertyId.P12] == VIOLATED
    assert all(s == HOLDS for p, s in statuses.items() if p is not PropertyId.P12)

    print(
        f"\nACCEPTANCE 2: PASS - {len(detected)}/11 injections detected with zero "
        f"cross-triggers; P12 caught via non-replying stub"
    )


# -- criterion 3: paper constants ----------------------------------------------


def test_c3_paper_constants_exact():
    big = runs.load(RunConfig(cap=1000), 1001)
    assert (big.granted, big.busy) == (1000, 1)
    assert big.result.exit_code == 0
    assert {v.property: v.status for v in big.result.verdicts}[PropertyId.P12] == HOLDS
    small = runs.load(RunConfig(cap=10), 11)
    assert (small.granted, small.busy) == (10, 1)

    exam_text = (
        "OPEN_SESSION dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=1 fee=100\n"
        "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        "DELIVER_LECTURE class_id=1 subject=Math times={n}\n"
        "SCHEDULE_EXAM term={term} class_id=1 subject=Math date=2025-05-01\n"
    )
    for term, count, accepted in (
        ("mid", 15, False),
        ("mid", 16, True),
        ("final", 31, False),
        ("final", 32, True),
    ):
        result = runs.run(exam_text.format(n=count, term=term))
        outcome = result.outcomes[-1]
        assert outcome.accepted == accepted, (term, count, outcome)
        if not accepted:
            assert outcome.reason == "insufficient lectures"

    marks_text = (
        "OPEN_SESSION dept=CS\n"
        "REGISTER_STUDENT st_id=1 name=A dept=CS\n"
        "ADD_PROGRAM name=p session=morning semesters=1 fee=100\n"
        "ADD_CLASS p_id=1 semester=1 subject=Math day=0 period=0\n"
        "ADMIT student_id=1 p_id=1\n"
        "RECORD_RESULT student_id=1 class_id=1 subject=Math marks={m}\n"
    )
    for marks, accepted in ((-1, False), (0, True), (100, True), (101, False)):
        result = runs.run(marks_text.format(m=marks))
        assert result.outcomes[-1].accepted == accepted, (marks, result.outcomes[-1])

    print(
        "\nACCEPTANCE 3: PASS - cap 1000/1001 -> 1000 granted 1 busy (and 10/11); "
        "mid 15/16 and final 31/32 boundaries exact; marks -1/0/100/101 exact"
    )


# -- criterion 4: determinism and the fuzz sweep ----------------------------------


def _sweep_one(seed: int):
    result = fuzz(seed, 10_000)
    bad = [v.render() for v in result.verdicts if v.status != HOLDS]
    return seed, result.trace_hash, bad, result.quiescent


def test_c4_determinism_and_fuzz_sweep():
    text = (SCENARIOS / "lifecycle.scn").read_text()
    cfg = RunConfig(seed=11)
    assert (
        run_scenario(parse_scenario(text), cfg).trace_hash
        == run_scenario(parse_scenario(text), cfg).trace_hash
    )
    assert fuzz(3, 500).trace_hash == fuzz(3, 500).trace_hash

    started = time.perf_counter()
    with Pool(2) as pool:
        sweep = pool.map(_sweep_one, range(1, 21))
    elapsed = time.perf_counter() - started
    for seed, _hash, bad, quiescent in sweep:
        assert not bad, (seed, bad)
        assert quiescent, seed
    assert len({h for _, h, _, _ in sweep}) == 20  # seeds genuinely differ
    assert elapsed < 60.0, f"fuzz sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 4: PASS - identical trace hashes on repeat runs; seeds 1..20 "
        f"x 10,000 events, zero violations, {elapsed:.1f}s"
    )


# -- criterion 5: no-loss crash sweep -----------------------------------------------


def test_c5_crash_replay_sweep_byte_identical():
    started = time.perf_counter()
    for cfg, crash_at, torn, crashed in runs.crashed_lifecycle():
        baseline = runs.scenario("lifecycle.scn", cfg)
        n_events = len(baseline.store.journal_lines)
        assert n_events == 50  # so the crashes cover every index 0..n_events
        assert crashed.store.dump() == baseline.store.dump(), (cfg.pipeline_window, crash_at, torn)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"crash sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 5: PASS - crash at every index 0..{n_events} (plus torn-write "
        f"variant) at windows 1 and 8 byte-identical, {elapsed:.1f}s"
    )


# -- criterion 6: incremental/batch monitor agreement ---------------------------------


def test_c6_offline_reevaluation_matches_live():
    compared = 0
    for seed in range(1, 6):
        live = runs.fuzz(seed, 400)
        parsed = parse_trace(live.log.text().splitlines())
        offline = evaluate_trace(parsed, live.cfg)
        assert [(v.property, v.status, v.witness_seq) for v in offline] == [
            (v.property, v.status, v.witness_seq) for v in live.verdicts
        ], seed
        compared += 1
    print(
        f"\nACCEPTANCE 6: PASS - offline re-evaluation of {compared} fuzz traces "
        f"matches live verdicts exactly"
    )


# -- criterion 7: bounded liveness over the golden suite -------------------------------


def test_c7_reply_latency_bound(golden_runs):
    golden, _ = golden_runs
    worst = 0
    for name, result in golden.items():
        latency = result.monitor.max_reply_latency
        assert latency <= 10, (name, latency)
        assert latency <= result.cfg.liveness_k
        worst = max(worst, latency)
    print(
        f"\nACCEPTANCE 7: PASS - every request answered; max reply latency across "
        f"the golden suite is {worst} rounds (bound 10, K=100)"
    )


# -- criterion 8: BDI kernel golden trace ------------------------------------------------


def test_c8_kernel_golden_trace():
    from test_bdi import _snapshot, _toy_agent
    from unimas.bdi import step

    state = _toy_agent()
    lines = []
    for cycle in range(1, 11):
        state = step(state, []).state
        lines.append(_snapshot(cycle, state))
    golden = (Path(__file__).parent / "data" / "toy_kernel_trace.txt").read_text().splitlines()
    assert lines == golden
    print(
        "\nACCEPTANCE 8: PASS - 2-plan/2-goal toy agent matches the hand-derived "
        "10-cycle golden trace"
    )
