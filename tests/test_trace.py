"""Trace events: the line format round-trips, and only the two places that
make events (``TraceEvent.parse`` and ``World.emit``) check the kind."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import runs
from runs import GOLDEN
from test_acceptance import MUTATIONS
from unimas.config import parse_header
from unimas.monitor import VIOLATED, evaluate_trace
from unimas.runtime import World
from unimas.trace import BLOCK_LINES, KINDS, TraceEvent, TraceLog, parse_trace

# any text a field can carry on a line: no field separator, no line break
field_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="|\n\r")
)


@pytest.mark.parametrize("kind", KINDS)
@given(
    seq=st.integers(min_value=0),
    rnd=st.integers(min_value=0),
    fields=st.tuples(field_text, field_text, field_text, field_text, field_text),
)
def test_parse_inverts_render_for_every_kind(kind, seq, rnd, fields):
    event = TraceEvent(seq, rnd, kind, *fields)
    assert TraceEvent.parse(event.render()) == event


def test_parse_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown trace kind"):
        TraceEvent.parse("0|0|bogus|-|-|-|-|-")


@pytest.mark.parametrize("line", ["0|0|envelope|-|-|-|-", "0|0|envelope|-|-|-|-|-|-"])
def test_parse_refuses_seven_or_nine_fields(line):
    with pytest.raises(ValueError, match="bad trace line"):
        TraceEvent.parse(line)


@pytest.mark.parametrize(
    "events", [0, 1, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1, 2 * BLOCK_LINES]
)
@pytest.mark.parametrize("header", ["", "cap=3"])
def test_trace_log_text_and_digest_equal_its_lines_joined_at_every_block_boundary(events, header):
    # and its readers get each full block's events as it is rendered, the
    # rest at the first close, and nothing at a second
    log = TraceLog(header)
    lines = [f"# config {header}"] if header else []
    appended, read = [], []
    log.readers.append(read.extend)

    def check():
        joined = "".join(f"{line}\n" for line in lines)
        blocks = list(log.blocks())
        assert log.text() == "".join(blocks) == joined
        assert log.sha256() == hashlib.sha256(joined.encode()).hexdigest()
        assert [block.count("\n") for block in blocks[:-1]] == [BLOCK_LINES] * (len(blocks) - 1)
        assert len(blocks) == -(-len(lines) // BLOCK_LINES)  # full blocks joined, the rest in one

    for seq in range(events):
        event = TraceEvent(seq, seq // 3, "envelope", "GW", "SA", "request", f"GW:{seq}", f"x({seq})")
        log.append(event)
        lines.append(event.render())
        appended.append(event)
        assert read == appended[: max(0, len(lines) // BLOCK_LINES * BLOCK_LINES - bool(header))]
    check()
    for _ in range(2):
        log.close(complete=events % 2 == 0)
        assert read == appended
    lines.append(f"# end complete={'true' if events % 2 == 0 else 'false'}")
    check()


@pytest.mark.parametrize("events", [0, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1])
@pytest.mark.parametrize("header", ["", "cap=3"])
def test_a_trace_log_read_mid_run_equals_its_lines_joined_and_reads_again_after_more(events, header):
    # the log keeps the events past its last full block and renders them
    # only when read, so a read mid-run changes nothing it reads later
    log = TraceLog(header)
    lines = [f"# config {header}"] if header else []

    def read_equals_lines():
        joined = "".join(f"{line}\n" for line in lines)
        assert log.text() == joined
        assert log.sha256() == hashlib.sha256(joined.encode()).hexdigest()
        assert "".join(log.blocks()) == joined

    seq = 0
    for batch in (events, events, 1):
        for _ in range(batch):
            event = TraceEvent(seq, seq // 2, "refusal", "GW", "gateway", "-", "-", f"r({seq})")
            log.append(event)
            lines.append(event.render())
            seq += 1
        read_equals_lines()
        read_equals_lines()  # a second read of the same events
    log.close(complete=True)
    lines.append("# end complete=true")
    read_equals_lines()


def test_parse_trace_keeps_header_and_trailer_and_skips_other_metadata():
    lines = ["# config cap=3", "# a note", "0|0|session_close|OA|store|-|GW:0|-", ""]
    parsed = parse_trace(lines + ["# end complete=true"])
    assert parsed.header == "cap=3"
    assert tuple(parsed) == (TraceEvent(0, 0, "session_close", "OA", "store", "-", "GW:0"),)
    assert parsed.complete  # known once the events have been read


def test_emit_refuses_an_unknown_kind_and_appends_nothing():
    world = World()
    with pytest.raises(ValueError, match="unknown trace kind"):
        world.emit("bogus")
    assert world.log.text() == ""
    assert world.emit("session_close").seq == 0  # no sequence number was spent


def test_parse_trace_reads_a_one_shot_iterator_one_line_at_a_time():
    lines = iter(
        [
            "# config cap=3\n",
            "0|0|session_close|OA|store|-|GW:0|-\n",
            "1|1|no-such-kind|-|-|-|-|-\n",
            "# end complete=true\n",
        ]
    )
    parsed = parse_trace(lines)
    assert parsed.header == "cap=3"
    events = iter(parsed)
    assert next(events) == TraceEvent(0, 0, "session_close", "OA", "store", "-", "GW:0")
    with pytest.raises(ValueError, match="unknown trace kind"):
        next(events)  # a bad line raises when it is reached
    assert next(lines) == "# end complete=true\n"  # and nothing past it was read


def test_parse_trace_of_an_iterator_knows_completion_once_the_events_are_read():
    lines = ["# config cap=3", "0|0|session_close|OA|store|-|GW:0|-", "# end complete=true"]
    parsed = parse_trace(iter(lines))
    assert not parsed.complete
    assert len(list(parsed)) == 1
    assert parsed.complete
    assert list(parsed) == []  # one-shot, as the iterator it reads


def _events_and_verdicts(first, second):
    """The events parsed from ``first`` and the verdicts evaluated from
    ``second``, two reads of the same trace."""
    parsed = parse_trace(first)
    events = list(parsed)
    verdicts = evaluate_trace(parse_trace(second), parse_header(parsed.header))
    return events, [v.render() for v in verdicts]


def test_parse_trace_reads_lines_with_newlines_as_it_reads_split_lines(tmp_path):
    # a trace read from a file keeps each line's newline; the golden runs
    # and every injected fault must read the same events and verdicts both ways
    results = [runs.scenario(name) for name in GOLDEN]
    for flag, (text, cfg) in MUTATIONS.items():
        results.append(runs.run(text, replace(cfg, inject=flag)))
    path = tmp_path / "trace.txt"
    violated = 0
    for result in results:
        text = result.log.text()
        split = text.splitlines()
        expected = _events_and_verdicts(split, split)
        assert expected[0]
        kept = text.splitlines(keepends=True)
        assert all(line.endswith("\n") for line in kept)
        assert _events_and_verdicts(kept, kept) == expected
        path.write_text(text)
        with path.open() as first, path.open() as second:
            assert _events_and_verdicts(first, second) == expected
        violated += sum(f"|{VIOLATED}|" in v for v in expected[1])
    assert violated >= len(MUTATIONS)
