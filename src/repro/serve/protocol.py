"""The wire protocol: length-prefixed JSON frames over a byte stream.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  JSON keeps the protocol debuggable (``nc`` plus a
hex prefix is a working client) and the framing keeps it robust —
partial reads never split a message, and a runaway length is rejected
before any allocation (:data:`MAX_FRAME_BYTES`).

Requests are objects with an ``op`` field and a client-assigned ``seq``
(monotonically increasing per session; the server rejects regressions,
which catches duplicated or reordered client pipelines).  Responses
echo ``seq`` and carry ``ok``; failures carry a typed ``error`` object
whose ``kind`` is one of :data:`ERROR_KINDS` — ``overloaded`` is the
one clients must expect under load (admission control sheds, it does
not queue unboundedly).

Operations
----------

========== =============================================================
``hello``   open a session: ``{"op": "hello", "seq": 0, "tenant": 0}``
``ping``    liveness probe; echoes ``pong``
``read``    ``{"page_id": P, "offset": O, "nbytes": N}``
``write``   same shape; marks the page dirty
``read_batch`` ``{"page_ids": [...], "offsets": [...], "nbytes": N}``
``txn``     ``{"ops": [{"kind": "read"|"write", "page_id": ..}, ...]}``
            executed back-to-back in one step of the event loop (no
            other session's op interleaves)
``stats``   server counters snapshot
``crash``   chaos hook: drop volatile state, recover, check invariants
``goodbye`` close the session cleanly
========== =============================================================
"""

from __future__ import annotations

import asyncio
import json
import struct

#: Frames beyond this are a protocol violation, not a big request.
MAX_FRAME_BYTES = 1 << 20

#: The 4-byte big-endian unsigned frame-length prefix.
_LENGTH = struct.Struct(">I")

#: Typed error kinds a response's ``error.kind`` may carry.
ERR_OVERLOADED = "overloaded"
ERR_BAD_REQUEST = "bad_request"
ERR_BAD_SEQ = "bad_seq"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_INTERNAL = "internal"

ERROR_KINDS = (
    ERR_OVERLOADED,
    ERR_BAD_REQUEST,
    ERR_BAD_SEQ,
    ERR_SHUTTING_DOWN,
    ERR_INTERNAL,
)

#: Request ops that perform buffer-manager work (and therefore pass
#: through admission control); the rest are session bookkeeping.
DATA_OPS = ("read", "write", "read_batch", "txn")
CONTROL_OPS = ("hello", "ping", "stats", "crash", "goodbye")


class ProtocolError(ValueError):
    """A malformed frame or message (fatal for the session)."""


def encode_message(message: dict) -> bytes:
    """One framed message: length prefix + compact sorted JSON."""
    body = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_message(body: bytes) -> dict:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Beside bad UTF-8 and bad JSON: an integer past Python's digit
        # limit (ValueError) and nesting past its recursion limit.
        raise ProtocolError(f"frame is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame decodes to {type(message).__name__}, expected an object"
        )
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one framed message; ``None`` on clean EOF between frames.

    EOF in the middle of a frame (a client died mid-send) raises
    :class:`ProtocolError` — the session is broken either way, but the
    caller can distinguish a clean goodbye from a torn one.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame (length)") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame (body)") from exc
    return decode_message(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one framed message and drain the transport."""
    writer.write(encode_message(message))
    await writer.drain()


# ----------------------------------------------------------------------
# Response builders (shared by the server and its tests)
# ----------------------------------------------------------------------
def ok_response(seq: int, **fields) -> dict:
    return {"ok": True, "seq": seq, **fields}


def error_response(seq: int, kind: str, detail: str, **fields) -> dict:
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}")
    return {
        "ok": False,
        "seq": seq,
        "error": {"kind": kind, "detail": detail, **fields},
    }


def validate_request(message: dict) -> tuple[str, int]:
    """Check the envelope; returns ``(op, seq)`` or raises ProtocolError."""
    op = message.get("op")
    if op not in DATA_OPS and op not in CONTROL_OPS:
        raise ProtocolError(f"unknown op {op!r}")
    seq = message.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError(f"seq must be a non-negative integer, got {seq!r}")
    return op, seq
