"""Pinned outputs: trace and journal sha256 plus exit code of fixed runs.

``tests/data/golden_hashes.txt`` holds one ``name trace_sha256
journal_sha256 exit_code`` line per run.  A change that alters any trace
or journal on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_hashes.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from dataclasses import replace

from test_acceptance import GOLDEN, GOLDEN_CFG, MUTATIONS, SCENARIOS
from test_agents import TRAPS

from unimas.config import RunConfig
from unimas.fuzz import fuzz, generate
from unimas.scenario import RunResult, load_test, parse_scenario, run_scenario

HASHES = Path(__file__).parent / "data" / "golden_hashes.txt"


def _scenario(name: str, cfg: RunConfig, **crash) -> RunResult:
    return run_scenario(parse_scenario((SCENARIOS / name).read_text()), cfg, **crash)


def _with_crash_lines() -> str:
    """lifecycle.scn with a CRASH line first, in the middle and last."""
    lines = (SCENARIOS / "lifecycle.scn").read_text().splitlines(keepends=True)
    middle = len(lines) // 2
    return "CRASH\n" + "".join(lines[:middle]) + "CRASH\n" + "".join(lines[middle:]) + "CRASH\n"


def _runs():
    for name in GOLDEN:
        yield name, lambda name=name: _scenario(name, GOLDEN_CFG.get(name, RunConfig()))
    yield "reports.scn+inject=p11", lambda: _scenario("reports.scn", RunConfig(inject="p11"))
    yield "fuzz-seed1-2000", lambda: fuzz(1, 2000)
    yield "traps.scn+inject=p4", lambda: run_scenario(
        parse_scenario(TRAPS.read_text()), RunConfig(inject="p4")
    )
    # each guard-off path, under the flag its mutation case detects
    for flag, (text, cfg) in MUTATIONS.items():
        injected = replace(cfg, inject=flag)
        yield f"mutation-{flag}+inject={flag}", lambda text=text, cfg=injected: run_scenario(
            parse_scenario(text), cfg
        )
    # crashed runs: at a journal index, at CRASH lines, and both at once
    for torn in (False, True):
        yield f"lifecycle.scn+crash_at=25+torn={torn}", lambda torn=torn: _scenario(
            "lifecycle.scn", RunConfig(), crash_at=25, torn=torn
        )
    yield "lifecycle.scn+CRASH-lines+window=8", lambda: run_scenario(
        parse_scenario(_with_crash_lines()), RunConfig(pipeline_window=8)
    )
    yield "lifecycle.scn+CRASH-lines+crash_at=10", lambda: run_scenario(
        parse_scenario(_with_crash_lines()), RunConfig(), crash_at=10
    )
    # a deep gateway queue: window 64, so the gateway holds about 60 goals
    yield "load+cap=1000+clients=1001", lambda: load_test(RunConfig(cap=1000), clients=1001).result


def _line(name: str, result: RunResult) -> str:
    journal = "\n".join(result.store.journal_lines) + "\n"
    journal_hash = hashlib.sha256(journal.encode()).hexdigest()
    return f"{name} {result.trace_hash} {journal_hash} {result.exit_code}"


def golden_lines() -> list[str]:
    return [_line(name, run()) for name, run in _runs()]


def test_golden_outputs_match_pinned_hashes():
    pinned = HASHES.read_text().splitlines()
    assert golden_lines() == pinned


#: sha256 of the rendered ``generate(seed, 2500)`` stream, one line per command
FUZZ_STREAMS = {
    2: "fe3f25c5907a82d3766036a6f8911f3dae3d272de2ae16ad31a308193f8b5641",
    3: "02b9b482209894d045623363d91c9637ff891067286e9a48c6be91908e6411b9",
}


def test_fuzz_streams_match_pinned_hashes():
    for seed, pinned in FUZZ_STREAMS.items():
        text = "".join(f"{command.render()}\n" for command in generate(seed, 2500))
        assert hashlib.sha256(text.encode()).hexdigest() == pinned, seed


if __name__ == "__main__":
    HASHES.write_text("\n".join(golden_lines()) + "\n")
