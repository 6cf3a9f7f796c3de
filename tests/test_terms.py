import pytest
from hypothesis import given, strategies as st

from unimas.terms import (
    Envelope,
    Performative,
    Term,
    check_scalar,
    conversation_id,
    conversation_origin,
    decode_blob,
    encode_blob,
    served_conversation,
)


def test_scalar_rejects_unsafe_text():
    for bad in ("a b", "x|y", "p,q", "f(", ")", 'say"hi"', "nl\n"):
        with pytest.raises(ValueError):
            check_scalar(bad)


def test_scalar_rejects_bool_and_float():
    # and an int: every value is carried as its text
    for bad in (True, 1.5, 1):
        with pytest.raises(ValueError):
            check_scalar(bad)  # type: ignore[arg-type]


@given(st.text())
def test_blob_roundtrip(text):
    token = encode_blob(text)
    assert check_scalar(token) == token or token == ""
    assert decode_blob(token) == text


def test_conversation_origin():
    assert conversation_origin("GW:15") == "GW"
    assert conversation_origin("SA:3") == "SA"


def test_conversation_ids_carry_the_conversation_they_serve():
    hop = conversation_id("FSA", 0, served=conversation_id("GW", 2))
    assert hop == "FSA:0>GW:2"
    assert conversation_origin(hop) == "FSA"
    assert served_conversation(hop) == "GW:2"
    # a gateway request serves no other conversation
    assert served_conversation("GW:2", default="GW:2") == "GW:2"
    with pytest.raises(LookupError):
        served_conversation("GW:2")


def test_envelope_requires_conversation():
    with pytest.raises(ValueError):
        Envelope("GW", "SA", Performative.REQUEST, "", Term("x"))
