"""The cluster wire protocol: length-prefixed binary frames over TCP.

One frame per request or response, in both directions::

    uint32 (big-endian)   total payload length
    uint8                 frame type (FrameType)
    uint32 (big-endian)   meta length
    bytes                 meta — a JSON object (UTF-8)
    bytes                 blob — type-specific binary body (may be empty)

The meta/blob split keeps the hot path cheap: an EXECUTE frame's batch
travels as raw little-endian int64 bytes (or, for exact >62-bit
results, self-describing fixed-width ``"bigint"`` limbs — see
:func:`repro.core.serialize.array_to_payload`), while everything
small and structural rides in the JSON meta.

Frame types
-----------

``HELLO``    first frame on every connection, both directions.  The
             client announces ``{"version": PROTOCOL_VERSION}``; the
             server echoes its own version (plus a server name).  Each
             end accepts any peer version in
             :data:`SUPPORTED_VERSIONS` and refuses everything else
             with ``ERROR`` + close — no silent reinterpretation.  A
             server started with a shared secret additionally includes
             a ``"challenge"`` hex nonce in its HELLO reply and expects
             an ``AUTH`` frame next.
``AUTH``     the client's answer to an auth challenge:
             ``{"mac": HMAC-SHA256(secret, challenge_bytes)}`` as hex.
             Verified with a constant-time compare; a mismatch (or a
             missing/ill-formed AUTH) is refused with the stable
             :data:`ERR_AUTH` token and the connection closed.  Never
             sent to — and never requested by — a server running
             without a secret, so the default wire bytes are unchanged.
``LOAD``     bind the connection to one shard: a full compile key
             (matrix digest + compile options), the shard's column
             range, and the expected plan fingerprint.  The server
             resolves it through :meth:`CompileCache.load_key` — from
             the shared artifact store **by content digest only**;
             kernels and matrices never cross the wire.
``EXECUTE``  one batch (meta: engine + array payload header, plus an
             optional ``"trace"`` context — ``{"trace_id", "span_id"}``
             — when the client is tracing, and an optional
             ``"deadline_s"`` remaining-budget float when the client
             propagates request deadlines; blob: the batch bytes).
             Answered by ``RESULT`` — or, when the budget has already
             expired by the time the server would execute, by ``ERROR``
             with the stable :data:`ERR_EXPIRED` token (the work was
             abandoned client-side; skipping it is the correct answer).
``RESULT``   the shard's column slice (same array payload form) plus
             the resolved engine and server-side busy seconds; when the
             EXECUTE carried trace context, also a ``"spans"`` list of
             server-side span records parented on the propagated
             ``span_id`` (see :mod:`repro.obs.tracing`).
``FAULT``    replace (``action="set"``) or drop (``action="clear"``)
             the connection's fault-override set — the network form of
             :meth:`FastCircuit.multiply_batch`'s per-call ``overrides``.
``STATS``    request the server's counters; answered with ``OK``.
``OK``       generic success (meta carries the reply body).
``ERROR``    failure; meta carries ``error`` (a stable token) and
             ``message`` (human-readable).

Security note: frames carry nothing executable — batches and results
are raw bytes or fixed-width integer limbs, everything else is JSON.
v3 closed the last gap: the decode-only shim for v1's pickled >62-bit
results is gone from :func:`repro.core.serialize.array_from_payload`,
so a ``"pickle"`` codec frame is rejected like any other malformed
payload.  Fleets still belong on trusted private networks — the same
trust model as the shared artifact directory; see ``docs/cluster.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import socket
import struct
import zlib
from enum import IntEnum
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.serialize import array_from_payload, array_to_payload

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "ERR_AUTH",
    "ERR_EXPIRED",
    "ERR_PROTOCOL",
    "FrameType",
    "ProtocolError",
    "RemoteFault",
    "auth_response",
    "encode_frame",
    "decode_payload",
    "send_frame",
    "recv_frame",
    "read_frame",
    "encode_overrides",
    "decode_overrides",
    "batch_frame",
    "result_frame",
    "frame_array",
]

#: Bumped on any change to the frame layout or the meaning of a frame
#: type.  v2 replaced the pickled >62-bit result codec with the
#: self-describing ``"bigint"`` frame form; v3 retired v1 (and the
#: pickle decode shim with it) and added optional distributed-tracing
#: context: EXECUTE meta may carry ``"trace"``, RESULT meta may carry
#: ``"spans"``.
PROTOCOL_VERSION = 3

#: Peer versions either end accepts at HELLO time.  v2 is tolerated for
#: one release as the rolling-upgrade window: trace context is additive
#: (a v2 server ignores the unknown ``"trace"`` meta key; a v3 client
#: tolerates a RESULT without ``"spans"``), so mixed v2/v3 fleets serve
#: correctly — they just lose server-side spans.  Drop v2 from this
#: tuple next release.
SUPPORTED_VERSIONS = (2, 3)

#: Upper bound on one frame's payload; a length prefix beyond this is
#: treated as a corrupt or hostile stream and the connection dropped
#: (1 GiB comfortably covers a 64-lane batch of any servable width).
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!BI")


class FrameType(IntEnum):
    HELLO = 1
    OK = 2
    ERROR = 3
    LOAD = 4
    EXECUTE = 5
    RESULT = 6
    FAULT = 7
    STATS = 8
    AUTH = 9


#: Stable ERROR token for a failed (or missing) AUTH response to a
#: server-issued HELLO challenge.
ERR_AUTH = "auth"

#: Stable ERROR token for an EXECUTE whose propagated deadline budget
#: was already exhausted when the server would have run it.
ERR_EXPIRED = "expired"

#: Stable ERROR token for a frame the receiver could not parse (torn
#: framing, non-JSON meta, a blob failing its CRC32).  A client that
#: only ever sends well-formed frames treats this answer as *transport*
#: damage — the bytes were corrupted in flight — and retries on a fresh
#: connection rather than surfacing an application error.
ERR_PROTOCOL = "protocol"


def auth_response(secret: str, challenge: str) -> str:
    """The MAC a client sends for a server's HELLO ``challenge``.

    HMAC-SHA256 over the challenge nonce bytes keyed by the shared
    secret, hex-encoded.  Raises :class:`ProtocolError` for a challenge
    that is not valid hex — a malformed challenge is a protocol
    violation, not an authentication failure.
    """
    try:
        nonce = bytes.fromhex(str(challenge))
    except ValueError as exc:
        raise ProtocolError(f"malformed auth challenge: {exc}") from exc
    return hmac.new(secret.encode("utf-8"), nonce, hashlib.sha256).hexdigest()


class ProtocolError(RuntimeError):
    """The peer sent something that is not a well-formed frame."""


class RemoteFault(RuntimeError):
    """The server answered ERROR; ``token`` is its stable error code."""

    def __init__(self, token: str, message: str) -> None:
        super().__init__(f"{token}: {message}")
        self.token = token


# -- encode / decode ----------------------------------------------------------


def encode_frame(ftype: FrameType, meta: dict[str, Any], blob: bytes = b"") -> bytes:
    """One wire-ready frame: length prefix + type + meta JSON + blob."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload_len = _HEAD.size + len(meta_bytes) + len(blob)
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {payload_len} bytes exceeds the cap")
    return b"".join(
        (
            _LEN.pack(payload_len),
            _HEAD.pack(int(ftype), len(meta_bytes)),
            meta_bytes,
            blob,
        )
    )


def decode_payload(payload: bytes) -> tuple[FrameType, dict[str, Any], bytes]:
    """Split one length-delimited payload back into (type, meta, blob)."""
    if len(payload) < _HEAD.size:
        raise ProtocolError(f"truncated frame ({len(payload)} bytes)")
    code, meta_len = _HEAD.unpack_from(payload)
    try:
        ftype = FrameType(code)
    except ValueError as exc:
        raise ProtocolError(f"unknown frame type {code}") from exc
    end = _HEAD.size + meta_len
    if end > len(payload):
        raise ProtocolError("frame meta extends past the payload")
    try:
        meta = json.loads(payload[_HEAD.size : end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame meta is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("frame meta must be a JSON object")
    return ftype, meta, payload[end:]


# -- synchronous transport (the client side) ----------------------------------


def send_frame(
    sock: socket.socket,
    ftype: FrameType,
    meta: dict[str, Any],
    blob: bytes = b"",
) -> None:
    sock.sendall(encode_frame(ftype, meta, blob))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[FrameType, dict[str, Any], bytes]:
    """Block (under the socket's timeout) for one complete frame."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame")
    return decode_payload(_recv_exact(sock, length))


# -- asyncio transport (the server side) --------------------------------------


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[FrameType, dict[str, Any], bytes]:
    """Read one complete frame; raises ``IncompleteReadError`` at EOF."""
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame")
    return decode_payload(await reader.readexactly(length))


# -- frame bodies -------------------------------------------------------------

def encode_overrides(overrides: tuple[Sequence, Mapping]) -> dict[str, Any]:
    """JSON form of an engine fault-override schedule.

    The schedule format :mod:`repro.hwsim.fast` defines —
    ``(stuck_out, carry)`` with tiny index/value pair lists — which is
    what makes live fault injection replayable on a server that holds
    only the kernel.
    """
    stuck_out, carry = overrides
    return {
        "stuck": [[int(i), int(v)] for i, v in stuck_out],
        "carry": {
            kind: [[int(s), int(v)] for s, v in pairs]
            for kind, pairs in carry.items()
        },
    }


def decode_overrides(meta: dict[str, Any]) -> tuple[list, dict]:
    """Inverse of :func:`encode_overrides`, structure checked.

    Whether the schedule fits a kernel is
    :func:`repro.hwsim.fast.check_overrides`'s question, which the shard
    server asks against its loaded kernel.
    """
    try:
        stuck_out = [(int(i), int(v)) for i, v in meta["stuck"]]
        carry = {
            str(kind): [(int(s), int(v)) for s, v in pairs]
            for kind, pairs in meta["carry"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed fault override frame: {exc}") from exc
    return stuck_out, carry


def batch_frame(
    batch: np.ndarray,
    engine: str,
    trace: dict[str, Any] | None = None,
    deadline_s: float | None = None,
) -> bytes:
    """An EXECUTE frame carrying one batch for ``engine``.

    ``trace`` is the optional v3 trace context — a small JSON object
    (``{"trace_id", "span_id"}``) identifying the client-side span this
    dispatch belongs to.  Omitted entirely when the client isn't
    tracing, so the untraced wire bytes are identical to v2's.

    ``deadline_s`` is the batch's *remaining* deadline budget in
    seconds, measured at frame-build time.  A relative budget rather
    than an absolute instant because client and server clocks are not
    synchronized; the server restarts the countdown from frame receipt,
    which only ever errs in the generous direction (network transit
    time is forgiven).  Omitted when no request in the batch carries a
    deadline.
    """
    meta, blob = array_to_payload(batch)
    meta["engine"] = engine
    meta["crc32"] = zlib.crc32(blob)
    if trace is not None:
        meta["trace"] = trace
    if deadline_s is not None:
        meta["deadline_s"] = round(float(deadline_s), 6)
    return encode_frame(FrameType.EXECUTE, meta, blob)


def result_frame(
    result: np.ndarray,
    engine: str,
    busy_s: float,
    spans: list[dict[str, Any]] | None = None,
) -> bytes:
    """A RESULT frame carrying one shard's column slice.

    ``spans`` is the optional v3 return leg of trace propagation: the
    server-side span records (dicts, see
    :meth:`repro.obs.tracing.Span.to_dict`) parented on the EXECUTE
    frame's propagated context, for the client tracer to adopt.
    """
    meta, blob = array_to_payload(result)
    meta["engine"] = engine
    meta["busy_s"] = round(float(busy_s), 9)
    meta["crc32"] = zlib.crc32(blob)
    if spans:
        meta["spans"] = spans
    return encode_frame(FrameType.RESULT, meta, blob)


def frame_array(meta: dict[str, Any], blob: bytes) -> np.ndarray:
    """Decode an EXECUTE/RESULT frame's array, mapping codec errors to
    :class:`ProtocolError` so transport code has one failure type.

    When the sender stamped a ``crc32`` (every v3 peer does), the blob
    is verified first: a payload bit flipped in transit must surface as
    a :class:`ProtocolError` — and therefore a retry or local fallback
    — never as a silently wrong product.  Frames from older peers
    carry no checksum and skip the verification.
    """
    expected = meta.get("crc32")
    if expected is not None and zlib.crc32(blob) != expected:
        raise ProtocolError(
            f"array blob failed its CRC32 check ({len(blob)} bytes); "
            "payload corrupted in transit"
        )
    try:
        return array_from_payload(meta, blob)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
