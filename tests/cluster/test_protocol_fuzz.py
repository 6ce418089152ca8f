"""Protocol robustness: malformed frames get stable errors, never hangs.

Two layers of fuzzing, both fully deterministic (seeded RNG):

* **decoder fuzz** — thousands of truncated / bit-flipped / type-confused
  payloads through :func:`decode_payload` and :func:`frame_array`; the
  only acceptable outcomes are a well-formed decode or
  :class:`ProtocolError`.  No other exception type, ever — transport
  code maps exactly one failure type.
* **live-server fuzz** — raw sockets against a real :class:`ShardServer`
  sending garbage, torn frames, hostile length prefixes, and
  out-of-order frame types.  Every case must end in a stable error
  token or a clean disconnect within the socket timeout: a malformed
  peer can never wedge a connection handler.
* **fault schedules** — well-framed FAULT frames whose override schedule
  the loaded kernel cannot apply.  The ERROR must come at the FAULT
  frame, and the connection must keep serving exact products.
"""

import socket

import numpy as np
import pytest

from repro.cluster import ClusterController, FrameType, MAX_FRAME_BYTES
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    batch_frame,
    decode_payload,
    encode_frame,
    encode_overrides,
    frame_array,
    recv_frame,
    send_frame,
)
from repro.hwsim.faults import inject_stuck_output
from repro.serve.cache import CompileCache

_LEN_PREFIX = 4  # uint32 length precedes every payload


def _payload(frame: bytes) -> bytes:
    """Strip the wire length prefix: decode_payload's input."""
    return frame[_LEN_PREFIX:]


def _valid_frames():
    batch = np.arange(24, dtype=np.int64).reshape(4, 6) - 7
    return [
        encode_frame(FrameType.HELLO, {"version": PROTOCOL_VERSION}),
        encode_frame(FrameType.STATS, {}),
        encode_frame(FrameType.OK, {"answer": 42}, b"tail bytes"),
        batch_frame(batch, "auto"),
        batch_frame(batch, "fused", trace={"trace_id": "t", "span_id": "s"},
                    deadline_s=0.25),
    ]


class TestDecoderFuzz:
    def test_truncations_never_raise_anything_but_protocol_error(self):
        for frame in _valid_frames():
            payload = _payload(frame)
            for cut in range(len(payload)):
                try:
                    decode_payload(payload[:cut])
                except ProtocolError:
                    pass

    def test_random_bit_flips_decode_or_protocol_error(self):
        rng = np.random.default_rng(1234)
        frames = _valid_frames()
        for _ in range(400):
            payload = bytearray(_payload(frames[rng.integers(len(frames))]))
            for _ in range(int(rng.integers(1, 4))):
                payload[rng.integers(len(payload))] ^= 1 << rng.integers(8)
            try:
                ftype, meta, blob = decode_payload(bytes(payload))
            except ProtocolError:
                continue
            # A parse that survived must still be type-safe to consume.
            assert isinstance(meta, dict)
            if ftype in (FrameType.EXECUTE, FrameType.RESULT):
                try:
                    frame_array(meta, blob)
                except ProtocolError:
                    pass

    def test_blob_bit_flip_is_caught_by_the_crc(self):
        # The CRC backstop: a flip in the *array bytes* — past every
        # structural check — must still fail loudly, not compute.
        batch = np.arange(64, dtype=np.int64).reshape(8, 8)
        payload = bytearray(_payload(batch_frame(batch, "auto")))
        ftype, meta, blob = decode_payload(bytes(payload))
        flipped = bytearray(blob)
        flipped[5] ^= 0x10
        with pytest.raises(ProtocolError, match="CRC32"):
            frame_array(meta, bytes(flipped))
        # And the pristine blob still decodes exactly.
        assert np.array_equal(frame_array(meta, blob), batch)

    def test_type_confusion_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_payload(b"\xff" + b"\x00\x00\x00\x02" + b"{}")
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_payload(b"\x02" + b"\x00\x00\x00\x04" + b"[42]")
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_payload(b"\x02" + b"\x00\x00\x00\x04" + b"\xff\xfe\x00\x01")
        with pytest.raises(ProtocolError, match="past the payload"):
            decode_payload(b"\x02" + b"\x00\x00\xff\xff" + b"{}")


@pytest.fixture()
def server(tmp_path):
    with ClusterController(tmp_path / "store") as controller:
        controller.start_local_fleet(1)
        yield controller.endpoints[0]


def _connect(endpoint, timeout=5.0):
    sock = socket.create_connection(endpoint, timeout=timeout)
    sock.settimeout(timeout)
    return sock


def _expect_error_or_disconnect(sock, token=None):
    """The server must answer an ERROR (optionally a specific token) or
    close cleanly — within the socket timeout, which is the no-hang
    guarantee."""
    try:
        ftype, meta, _ = recv_frame(sock)
    except (ConnectionError, EOFError, ProtocolError):
        return None
    assert ftype is FrameType.ERROR
    if token is not None:
        assert meta.get("error") == token
    return meta


class TestLiveServerFuzz:
    def test_garbage_bytes_get_a_clean_close(self, server):
        sock = _connect(server)
        try:
            sock.sendall(b"\x00" * 3)  # torn length prefix
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""  # server closed, no reply needed
        finally:
            sock.close()

    def test_hostile_length_prefix_is_refused(self, server):
        sock = _connect(server)
        try:
            hello = encode_frame(FrameType.HELLO, {"version": PROTOCOL_VERSION})
            sock.sendall(hello)
            recv_frame(sock)  # server HELLO
            sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            _expect_error_or_disconnect(sock, token="protocol")
        finally:
            sock.close()

    def test_announced_length_never_sent_disconnects_not_hangs(self, server):
        sock = _connect(server, timeout=5.0)
        try:
            hello = encode_frame(FrameType.HELLO, {"version": PROTOCOL_VERSION})
            sock.sendall(hello)
            recv_frame(sock)
            # Announce 1 KiB, send 3 bytes, walk away: the server must
            # notice at our close and drop the connection, not wait on
            # bytes that never come after the peer is gone.
            sock.sendall((1024).to_bytes(4, "big") + b"abc")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""
        finally:
            sock.close()

    def test_execute_before_hello_is_refused(self, server):
        sock = _connect(server)
        try:
            batch = np.ones((2, 4), dtype=np.int64)
            sock.sendall(batch_frame(batch, "auto"))
            _expect_error_or_disconnect(sock, token="version")
        finally:
            sock.close()

    def test_wrong_version_gets_the_stable_token(self, server):
        sock = _connect(server)
        try:
            send_frame(sock, FrameType.HELLO, {"version": 999})
            _expect_error_or_disconnect(sock, token="version")
        finally:
            sock.close()

    def test_corrupt_frame_after_handshake_gets_protocol_token(self, server):
        sock = _connect(server)
        try:
            send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
            recv_frame(sock)
            # A plausible length with a garbage body.
            sock.sendall((16).to_bytes(4, "big") + b"\xde\xad" * 8)
            _expect_error_or_disconnect(sock, token="protocol")
        finally:
            sock.close()

    def test_execute_without_load_is_a_stable_refusal(self, server):
        sock = _connect(server)
        try:
            send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
            recv_frame(sock)
            batch = np.ones((2, 4), dtype=np.int64)
            sock.sendall(batch_frame(batch, "auto"))
            meta = _expect_error_or_disconnect(sock)
            assert meta is not None and meta["error"] == "not-loaded"
        finally:
            sock.close()

    def test_fuzzed_streams_never_wedge_the_server(self, server):
        """Seeded random garbage over many fresh connections; after all
        of them the server must still answer a well-formed STATS."""
        rng = np.random.default_rng(99)
        for _ in range(25):
            sock = _connect(server, timeout=2.0)
            try:
                blob = rng.bytes(int(rng.integers(1, 200)))
                sock.sendall(blob)
                try:
                    sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                try:
                    while sock.recv(4096):
                        pass
                except (ConnectionError, OSError):
                    pass
            finally:
                sock.close()
        sock = _connect(server)
        try:
            send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
            recv_frame(sock)
            send_frame(sock, FrameType.STATS, {})
            ftype, meta, _ = recv_frame(sock)
            assert ftype is FrameType.OK
            assert meta["stats"]["connections"] >= 26
        finally:
            sock.close()


@pytest.fixture()
def loaded_server(tmp_path):
    """A one-server fleet whose store holds one compiled matrix; yields
    the endpoint, the LOAD meta for it, the matrix and its cache entry."""
    store = tmp_path / "store"
    matrix = np.random.default_rng(3).integers(-20, 21, size=(6, 4))
    entry = CompileCache(directory=store).get(matrix)
    key = entry.key
    load = {
        "matrix_digest": key.matrix_digest,
        "input_width": key.input_width,
        "scheme": key.scheme,
        "tree_style": key.tree_style,
        "start": 0,
        "stop": matrix.shape[1],
    }
    with ClusterController(store) as controller:
        controller.start_local_fleet(1)
        yield controller.endpoints[0], load, matrix, entry


_EMPTY_CARRY = {"add": [], "sub": [], "neg": []}

#: Well-framed schedules no kernel engine can apply.
_BAD_SCHEDULES = {
    "unknown-carry-kind": {"stuck": [], "carry": {"mul": [[0, 1]]}},
    "missing-carry-kinds": {"stuck": [], "carry": {}},
    "stuck-slot-out-of-range": {"stuck": [[10**6, 1]], "carry": _EMPTY_CARRY},
    "negative-stuck-slot": {"stuck": [[-1, 1]], "carry": _EMPTY_CARRY},
    "stuck-value-not-a-bit": {"stuck": [[0, 7]], "carry": _EMPTY_CARRY},
    "carry-slot-out-of-range": {
        "stuck": [],
        "carry": {**_EMPTY_CARRY, "add": [[10**6, 0]]},
    },
}


class TestFaultScheduleChecks:
    def _hello(self, endpoint):
        sock = _connect(endpoint)
        send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
        recv_frame(sock)
        return sock

    @pytest.mark.parametrize("name", sorted(_BAD_SCHEDULES))
    def test_bad_schedule_is_refused_at_the_fault_frame(self, loaded_server, name):
        endpoint, load, matrix, _ = loaded_server
        sock = self._hello(endpoint)
        try:
            send_frame(sock, FrameType.LOAD, load)
            ftype, _, _ = recv_frame(sock)
            assert ftype is FrameType.OK
            send_frame(sock, FrameType.FAULT, {"action": "set", **_BAD_SCHEDULES[name]})
            ftype, meta, _ = recv_frame(sock)
            assert ftype is FrameType.ERROR
            assert meta["error"] == "protocol"
            assert "loaded kernel" in meta["message"]
            # The refused schedule was never kept: the same connection
            # still returns the fault-free product, on every engine.
            vectors = np.random.default_rng(4).integers(-128, 128, size=(5, 6))
            for engine in ("auto", "bitplane"):
                sock.sendall(batch_frame(vectors, engine))
                ftype, meta, blob = recv_frame(sock)
                assert ftype is FrameType.RESULT, meta
                assert np.array_equal(frame_array(meta, blob), vectors @ matrix)
            send_frame(sock, FrameType.STATS, {})
            _, meta, _ = recv_frame(sock)
            stats = meta["stats"]
            assert stats["faults_set"] == 0
            assert stats["errors"] == 1 and stats["executes"] == 2
        finally:
            sock.close()

    def test_fault_before_load_is_a_stable_refusal(self, loaded_server):
        endpoint, load, _, _ = loaded_server
        sock = self._hello(endpoint)
        try:
            for action in ("set", "clear"):
                send_frame(
                    sock,
                    FrameType.FAULT,
                    {"action": action, "stuck": [], "carry": _EMPTY_CARRY},
                )
                meta = _expect_error_or_disconnect(sock)
                assert meta is not None and meta["error"] == "not-loaded"
            # The refusals left the connection usable.
            send_frame(sock, FrameType.LOAD, load)
            ftype, _, _ = recv_frame(sock)
            assert ftype is FrameType.OK
        finally:
            sock.close()

    def test_schedule_from_the_netlist_is_kept(self, loaded_server):
        """The check refuses only what the kernel cannot apply: a live
        fault taken from the compiled netlist is acknowledged and
        replayed bit-exactly by the server."""
        endpoint, load, _, entry = loaded_server
        circuit = entry.circuit
        injection = inject_stuck_output(
            circuit.netlist, circuit.column_probes[1].src, 1
        )
        vectors = np.random.default_rng(5).integers(-128, 128, size=(5, 6))
        try:
            overrides = entry.fast.fault_overrides()
            faulty = entry.fast.multiply_batch(vectors, engine="bitplane")
        finally:
            injection.revert()
        sock = self._hello(endpoint)
        try:
            send_frame(sock, FrameType.LOAD, load)
            recv_frame(sock)
            send_frame(
                sock, FrameType.FAULT, {"action": "set", **encode_overrides(overrides)}
            )
            ftype, meta, _ = recv_frame(sock)
            assert ftype is FrameType.OK and meta["active"] is True
            sock.sendall(batch_frame(vectors, "auto"))
            ftype, meta, blob = recv_frame(sock)
            assert ftype is FrameType.RESULT and meta["engine"] == "bitplane"
            assert np.array_equal(frame_array(meta, blob), faulty)
        finally:
            sock.close()
