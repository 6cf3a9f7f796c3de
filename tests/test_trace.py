"""Trace events: the line format round-trips, and only the two places that
make events (``TraceEvent.parse`` and ``World.emit``) check the kind."""

import pytest
from hypothesis import given, strategies as st

from unimas.runtime import World
from unimas.trace import KINDS, TraceEvent, parse_trace

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


def test_parse_trace_keeps_header_and_trailer_and_skips_other_metadata():
    lines = ["# config cap=3", "# a note", "0|0|session_close|OA|store|-|GW:0|-", ""]
    parsed = parse_trace(lines + ["# end complete=true"])
    assert parsed.header == "cap=3"
    assert parsed.complete
    assert parsed.events == (TraceEvent(0, 0, "session_close", "OA", "store", "-", "GW:0"),)


def test_emit_refuses_an_unknown_kind_and_appends_nothing():
    world = World()
    with pytest.raises(ValueError, match="unknown trace kind"):
        world.emit("bogus")
    assert world.log.lines == []
    assert world.emit("session_close").seq == 0  # no sequence number was spent
