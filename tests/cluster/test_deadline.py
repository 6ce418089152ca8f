"""Deadline propagation over the wire: servers skip abandoned work.

The EXECUTE frame's ``deadline_s`` is the batch's *remaining* budget;
the server restarts the countdown at frame receipt and re-checks on the
worker thread — the executor queue is exactly where budgets die under
load.  An exhausted budget is answered with the stable ``"expired"``
token, which the client maps to :class:`DeadlineExceeded` (not a link
failure: falling back locally would just perform the abandoned work
more slowly).
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterController
from repro.serve.admission import DeadlineExceeded


def _matrix(seed=0, shape=(10, 8)):
    return np.random.default_rng(seed).integers(-50, 51, size=shape)


@pytest.fixture()
def fleet(tmp_path):
    with ClusterController(tmp_path / "store") as controller:
        controller.start_local_fleet(1)
        yield controller


class TestWireDeadlines:
    def test_exhausted_budget_is_skipped_with_the_stable_token(self, fleet):
        matrix = _matrix()
        vectors = np.random.default_rng(1).integers(-80, 81, size=(4, 10))
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            remote = handle.sharded._remotes[0]
            # Warm path first: generous budgets execute remotely.
            out, _, _, _ = remote.execute(vectors, "auto", deadline_s=30.0)
            assert np.array_equal(out, vectors @ matrix)
            # A zero budget is exhausted by the time the worker runs it.
            with pytest.raises(DeadlineExceeded):
                remote.execute(vectors, "auto", deadline_s=0.0)
            stats = fleet.fleet_stats()
            assert stats[0]["expired_skips"] == 1
            # Crucially: the refusal is NOT a link failure.  The breaker
            # did not move and the next request serves remotely.
            assert remote.healthy
            assert remote.breaker_state == "closed"
            out, _, _, _ = remote.execute(vectors, "auto", deadline_s=30.0)
            assert np.array_equal(out, vectors @ matrix)

    def test_undeadlined_execute_wire_bytes_unchanged(self, fleet):
        matrix = _matrix(2)
        vectors = np.random.default_rng(2).integers(-80, 81, size=(3, 10))
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            remote = handle.sharded._remotes[0]
            out, _, _, _ = remote.execute(vectors, "auto")
            assert np.array_equal(out, vectors @ matrix)
            assert fleet.fleet_stats()[0]["expired_skips"] == 0

    def test_service_deadline_threads_to_the_wire(self, fleet):
        """submit(deadline_s=...) with a healthy budget: served remotely
        and bit-exactly (the budget rides the frame but never bites)."""
        matrix = _matrix(3)
        vectors = np.random.default_rng(3).integers(-80, 81, size=(5, 10))
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            rows = asyncio.run(
                service.submit_many(handle, vectors, deadline_s=30.0)
            )
            assert np.array_equal(rows, vectors @ matrix)
            remote = handle.sharded._remotes[0]
            assert remote.remote_calls >= 1
            assert remote.local_fallbacks == 0
            assert handle.telemetry.snapshot()["admission"]["expired"] == 0

    def test_a_request_without_deadline_never_expires(self, fleet):
        """Coalesced with a request whose budget is nearly spent, a
        request with no deadline must not inherit that budget: the batch
        forwards none, so no server can refuse it as expired."""
        matrix = _matrix(5)
        vectors = np.random.default_rng(5).integers(-80, 81, size=(2, 10))
        budgets = np.random.default_rng(6).uniform(0.002, 0.0023, size=60)
        with fleet.remote_service(max_delay_s=0.002) as service:
            handle = fleet.deploy_fleet(service, matrix)

            async def trial(budget):
                return await asyncio.gather(
                    service.submit(handle, vectors[0]),
                    service.submit(handle, vectors[1], deadline_s=budget),
                    return_exceptions=True,
                )

            for budget in budgets:
                free, _ = asyncio.run(trial(float(budget)))
                assert not isinstance(free, Exception), free
                assert np.array_equal(free, vectors[0] @ matrix)

    def test_malformed_deadline_meta_is_refused(self, fleet):
        import socket
        import zlib

        from repro.cluster.protocol import (
            PROTOCOL_VERSION,
            FrameType,
            encode_frame,
            recv_frame,
            send_frame,
        )
        from repro.core.serialize import array_to_payload

        matrix = _matrix(4)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            key_meta = handle.sharded._remotes[0].key_meta
            sock = socket.create_connection(fleet.endpoints[0], timeout=5.0)
            sock.settimeout(5.0)
            try:
                send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
                recv_frame(sock)
                send_frame(sock, FrameType.LOAD, key_meta)
                ftype, _, _ = recv_frame(sock)
                assert ftype is FrameType.OK
                vectors = np.ones((1, matrix.shape[0]), dtype=np.int64)
                meta, blob = array_to_payload(vectors)
                meta["engine"] = "auto"
                meta["crc32"] = zlib.crc32(blob)
                meta["deadline_s"] = "soon"
                sock.sendall(encode_frame(FrameType.EXECUTE, meta, blob))
                ftype, meta, _ = recv_frame(sock)
                assert ftype is FrameType.ERROR
                assert meta["error"] == "protocol"
                assert "deadline_s" in meta["message"]
            finally:
                sock.close()
