"""The serving wire protocol: framing, limits, envelope validation."""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import protocol


def run(coro):
    return asyncio.run(coro)


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_encode_is_length_prefixed_compact_sorted_json(self):
        frame = protocol.encode_message({"b": 1, "a": 2})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert frame[4:] == b'{"a":2,"b":1}'

    def test_round_trip(self):
        message = {"op": "read", "seq": 3, "page_id": 17}

        async def scenario():
            reader = feed(protocol.encode_message(message))
            return await protocol.read_frame(reader)

        assert run(scenario()) == message

    def test_multiple_frames_read_in_order(self):
        async def scenario():
            reader = feed(
                protocol.encode_message({"seq": 1})
                + protocol.encode_message({"seq": 2})
            )
            first = await protocol.read_frame(reader)
            second = await protocol.read_frame(reader)
            third = await protocol.read_frame(reader)
            return first, second, third

        first, second, third = run(scenario())
        assert (first["seq"], second["seq"]) == (1, 2)
        assert third is None  # clean EOF between frames

    def test_eof_mid_length_prefix_is_protocol_error(self):
        async def scenario():
            return await protocol.read_frame(feed(b"\x00\x00"))

        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            run(scenario())

    def test_eof_mid_body_is_protocol_error(self):
        async def scenario():
            frame = protocol.encode_message({"op": "ping", "seq": 1})
            return await protocol.read_frame(feed(frame[:-2]))

        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            run(scenario())

    def test_oversized_length_rejected_before_read(self):
        async def scenario():
            prefix = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            return await protocol.read_frame(feed(prefix))

        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            run(scenario())

    def test_oversized_message_refused_at_encode(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.encode_message({"blob": "x" * protocol.MAX_FRAME_BYTES})


class TestDecode:
    def test_non_json_body(self):
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_message(b"\xff\xfe")

    def test_non_object_body(self):
        body = json.dumps([1, 2]).encode()
        with pytest.raises(protocol.ProtocolError, match="expected an object"):
            protocol.decode_message(body)


class TestEnvelope:
    def test_validate_accepts_every_known_op(self):
        for op in protocol.DATA_OPS + protocol.CONTROL_OPS:
            assert protocol.validate_request({"op": op, "seq": 0}) == (op, 0)

    def test_unknown_op_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.validate_request({"op": "drop_table", "seq": 0})

    @pytest.mark.parametrize("seq", [None, -1, "0", 1.5, True])
    def test_bad_seq_rejected(self, seq):
        with pytest.raises(protocol.ProtocolError, match="seq"):
            protocol.validate_request({"op": "ping", "seq": seq})

    def test_error_response_shape(self):
        response = protocol.error_response(
            7, protocol.ERR_OVERLOADED, "queue full", reason="queue_full")
        assert response["ok"] is False
        assert response["seq"] == 7
        assert response["error"]["kind"] == "overloaded"
        assert response["error"]["reason"] == "queue_full"

    def test_error_response_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown error kind"):
            protocol.error_response(1, "weird", "detail")


def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
#: Envelopes with a known or any op and a ``seq`` of any JSON type.
ENVELOPES = st.fixed_dictionaries({
    "op": st.sampled_from(protocol.DATA_OPS + protocol.CONTROL_OPS)
    | JSON_VALUES,
    "seq": JSON_VALUES,
}).map(lambda message: json.dumps(message).encode())
#: One frame as a broken or hostile client might send it.
FRAMES = st.one_of(
    st.binary(max_size=48).map(framed),                        # non-JSON
    JSON_VALUES.map(lambda v: framed(json.dumps(v).encode())),  # non-object
    ENVELOPES.map(framed),                                     # wrong types
    st.tuples(ENVELOPES, st.integers(1, 40)).map(              # truncated
        lambda pair: framed(pair[0])[:-pair[1]]),
    st.integers(protocol.MAX_FRAME_BYTES + 1, 2**32 - 1).map(  # oversized
        lambda n: struct.pack(">I", n)),
    st.integers(1, 5_000).map(                                 # too deep
        lambda depth: framed(b"[" * depth + b"]" * depth)),
    st.integers(4_000, 6_000).map(lambda n: framed(b"9" * n)),  # too long
)


class TestFuzz:
    """Whatever bytes arrive, the protocol layer answers with a message,
    a clean EOF or a :class:`~repro.serve.protocol.ProtocolError` —
    never another exception, which would kill the session unreported."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FRAMES, min_size=1, max_size=3))
    def test_a_byte_stream_reads_as_messages_or_a_protocol_error(
            self, frames):
        async def read_all():
            reader = feed(b"".join(frames))
            messages = []
            while (message := await protocol.read_frame(reader)) is not None:
                messages.append(message)
            return messages

        try:
            messages = run(read_all())
        except protocol.ProtocolError:
            return
        for message in messages:
            assert isinstance(message, dict)
            try:
                op, seq = protocol.validate_request(message)
            except protocol.ProtocolError:
                continue
            assert op in protocol.DATA_OPS + protocol.CONTROL_OPS
            assert type(seq) is int and seq >= 0

    @settings(max_examples=300, deadline=None)
    @given(FRAMES)
    def test_a_frame_body_decodes_to_an_object_or_a_protocol_error(
            self, frame):
        try:
            message = protocol.decode_message(frame[4:])
        except protocol.ProtocolError:
            return
        assert isinstance(message, dict)
