"""Fleet integration: bit-exactness, faults, failures, and lifecycle.

Every test runs a real loopback fleet — :class:`ShardServer` instances
on background event loops, each resolving kernels from a shared
artifact store by content digest — and drives it through the same
:class:`MatMulService` facade production traffic uses.  The load-bearing
claims:

* a 3-server fleet is **bit-exact** with the monolithic multiplier,
  through both the direct path and the micro-batcher, including
  per-shard fault injection and >62-bit (``"bigint"``-frame) shards;
* warm deploys execute **zero** plan/build/lower/fuse stages anywhere
  in the process (client and servers), by stage counter;
* a server killed mid-stream degrades to **local fallback** — results
  stay exact, the link is marked unhealthy, and a host that comes back
  is promoted to remote serving automatically (manual ``revive()``
  stays as the fast path);
* fault-override schedules survive connection death — a FAULT frame
  acknowledged on a link that then dies is re-synced on the retry
  connection, in every interleaving;
* ``service.close()`` rejects queued requests instead of hanging them
  and closes every shard socket.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.core.stages import STAGES
from repro.cluster import (
    PROTOCOL_VERSION,
    ClusterController,
    FrameType,
    RemoteShard,
    RemoteShardError,
)
from repro.cluster.protocol import encode_frame, recv_frame, send_frame
from repro.hwsim.faults import fault_campaign, inject_stuck_output
from repro.serve import CompileCache, MatMulService


def _matrix(seed=0, shape=(20, 18), sparsity=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-100, 101, size=shape)
    matrix[rng.random(shape) < sparsity] = 0
    return matrix


def _vectors(seed, batch, rows, width=8):
    lo = -(1 << (width - 1))
    return np.random.default_rng(seed).integers(
        lo, -lo, size=(batch, rows)
    )


@pytest.fixture()
def fleet(tmp_path):
    """A 3-server loopback fleet over a fresh artifact store."""
    with ClusterController(tmp_path / "store") as controller:
        controller.start_local_fleet(3)
        yield controller


class TestFleetBitExactness:
    def test_three_server_fleet_matches_monolith(self, fleet):
        matrix = _matrix()
        vectors = _vectors(1, 9, 20)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            assert handle.sharded.backend == "remote"
            assert handle.shard_count == 3
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            # Micro-batched path over the same deployment.
            rows = asyncio.run(service.submit_many(handle, vectors))
            assert np.array_equal(rows, vectors @ matrix)
            # Every shard actually went over its socket.
            per_shard = handle.sharded.utilization()["per_shard"]
            assert all(p["remote_calls"] >= 2 for p in per_shard)
            assert all(p["healthy"] for p in per_shard)
            assert all(p["local_fallbacks"] == 0 for p in per_shard)

    def test_more_shards_than_servers_multiplexes(self, fleet):
        matrix = _matrix(2, shape=(12, 10))
        vectors = _vectors(3, 5, 12)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix, shards=5)
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            endpoints = {
                p["endpoint"]
                for p in handle.sharded.utilization()["per_shard"]
            }
            assert len(endpoints) == 3  # round-robin reuse

    def test_warm_fleet_deploy_is_zero_stage(self, fleet):
        matrix = _matrix(4)
        vectors = _vectors(5, 6, 20)
        with fleet.remote_service() as warmup:
            fleet.deploy_fleet(warmup, matrix)
        before = STAGES.snapshot()
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
        delta = STAGES.delta(before)
        for stage in ("plan", "build", "lower", "fuse"):
            assert delta.get(stage, 0) == 0, (stage, delta)

    def test_wide_shards_travel_as_bigint_frames(self, fleet):
        rng = np.random.default_rng(11)
        matrix = np.hstack(
            [
                rng.integers(-2, 3, size=(40, 2)),
                rng.integers(-(2**20), 2**20, size=(40, 3)),
            ]
        )
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(
                service, matrix, shards=2, input_width=40
            )
            widths = [
                s.fast.kernel.result_width for s in handle.sharded.shards
            ]
            assert max(widths) > 62  # at least one genuinely wide shard
            vectors = rng.integers(-(2**39), 2**39, size=(4, 40))
            out = service.multiply(handle, vectors)
            assert out.dtype == object
            golden = [
                sum(int(vectors[b, r]) * int(matrix[r, j]) for r in range(40))
                for b in range(4)
                for j in range(5)
            ]
            assert [int(x) for x in out.ravel()] == golden


class TestFaultsOverTheNetwork:
    def test_per_shard_injection_matches_local_gates(self, fleet):
        matrix = _matrix(7, shape=(12, 9))
        vectors = _vectors(8, 6, 12)
        with fleet.remote_service() as service:
            # use_cache=False: live netlists to inject into (the remote
            # path persists the fault-free artifacts for the servers).
            handle = fleet.deploy_fleet(service, matrix, use_cache=False)
            golden = service.multiply(handle, vectors)
            assert np.array_equal(golden, vectors @ matrix)
            shard = handle.sharded.shards[1]
            component = shard.circuit.netlist.components[40]
            injection = inject_stuck_output(
                shard.circuit.netlist, component, 1
            )
            try:
                faulty = service.multiply(handle, vectors)
                # The shard's columns match its own local gate engine
                # under the same fault — replayed over a FAULT frame.
                local = shard.fast.multiply_batch(vectors, engine="bitplane")
                assert np.array_equal(
                    faulty[:, shard.start : shard.stop], local
                )
                # Unfaulted shards are untouched.
                other = handle.sharded.shards[0]
                assert np.array_equal(
                    faulty[:, other.start : other.stop],
                    golden[:, other.start : other.stop],
                )
                # Auto-engine resolved to gates while faults are live.
                snap = service.telemetry(handle)
                assert snap["engine"]["effective"] == "bitplane"
            finally:
                injection.revert()
            # Revert propagates (a FAULT clear frame): fused again.
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            snap = service.telemetry(handle)
            assert snap["engine"]["effective"] == "fused:dense"

    def test_server_and_client_engine_labels_agree(self, fleet):
        """Server STATS and client telemetry name the executor alike,
        fault-free and while a FAULT override sends batches to gates."""
        matrix = _matrix(7, shape=(12, 9))
        vectors = _vectors(8, 4, 12)

        def labels(service, handle):
            client = set(service.telemetry(handle)["engine"]["batches"])
            server = set()
            for remote in handle.sharded._remotes:
                server |= set(remote.stats()["engine_batches"])
            return client, server

        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix, use_cache=False)
            service.multiply(handle, vectors)
            client, server = labels(service, handle)
            assert client == server == {"fused:dense"}
            shard = handle.sharded.shards[1]
            injection = inject_stuck_output(
                shard.circuit.netlist, shard.circuit.netlist.components[40], 1
            )
            try:
                service.multiply(handle, vectors)
            finally:
                injection.revert()
            client, server = labels(service, handle)
            assert client == server == {"fused:dense", "bitplane"}

    def test_fault_campaign_runs_unchanged_over_the_fleet(self, fleet):
        from repro.core.plan import plan_matrix
        from repro.hwsim.builder import build_circuit

        matrix = _matrix(9, shape=(10, 8))
        vectors = _vectors(10, 5, 10)
        circuit = build_circuit(plan_matrix(matrix, input_width=8))
        with fleet.remote_service() as service:
            served = fault_campaign(
                circuit, vectors, max_faults=10, service=service, shards=3
            )
            assert served["served"] is True
            assert served["telemetry"]["shards"]["backend"] == "remote"
        direct = fault_campaign(circuit, vectors, max_faults=10)
        # The fleet sweep reports the same coverage as the direct path.
        assert served["injected"] == direct["injected"]
        assert served["detected"] == direct["detected"]


class TestFailureSemantics:
    def test_killed_server_falls_back_locally_mid_stream(self, fleet):
        matrix = _matrix(12)
        vectors = _vectors(13, 7, 20)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            fleet.kill_server(0)
            # Still bit-exact: the dead shard is served locally.
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            per_shard = handle.sharded.utilization()["per_shard"]
            assert per_shard[0]["healthy"] is False
            assert per_shard[0]["local_fallbacks"] >= 1
            assert per_shard[1]["healthy"] and per_shard[2]["healthy"]
            # Unhealthy links fail fast: further traffic stays exact and
            # keeps counting fallbacks without re-probing the dead host.
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            assert (
                handle.sharded.utilization()["per_shard"][0]["local_fallbacks"]
                >= 2
            )

    def test_stats_on_a_killed_host_degrades_like_execute(self, fleet):
        """Satellite regression: stats() used to raise raw transport
        errors without dropping the broken connection or updating
        health, so a dead host could wedge fleet telemetry collection
        while execute() had already degraded gracefully."""
        matrix = _matrix(24)
        vectors = _vectors(25, 3, 20)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix)
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            remote = handle.sharded._remotes[0]
            assert remote.stats()["executes"] >= 1
            fleet.kill_server(0)
            # The same RemoteShardError execute() raises — not a raw
            # socket error — and the connection is torn down.
            with pytest.raises(RemoteShardError):
                remote.stats()
            assert remote.healthy is False
            assert remote._conn is None
            # Telemetry collection keeps working (probe state included)
            # and traffic stays exact through the local fallback.
            assert remote.telemetry()["probe"]["consecutive_failures"] >= 1
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )

    def test_fault_schedule_resyncs_when_link_dies_after_fault_ack(
        self, fleet
    ):
        """Satellite regression: a FAULT frame acknowledged on a
        connection that dies before (or after) its EXECUTE must be
        re-synced on the retry connection — the server's override state
        lives and dies with the connection, so skipping the re-send
        would silently serve fault-free results mid-campaign."""
        matrix = _matrix(26, shape=(12, 9))
        vectors = _vectors(27, 5, 12)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix, use_cache=False)
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )
            shard = handle.sharded.shards[1]
            component = shard.circuit.netlist.components[40]
            injection = inject_stuck_output(
                shard.circuit.netlist, component, 1
            )
            try:
                # Sync the schedule: the FAULT frame is acknowledged on
                # the current connection.
                faulted = service.multiply(handle, vectors)
                golden = shard.fast.multiply_batch(vectors, engine="bitplane")
                assert np.array_equal(
                    faulted[:, shard.start : shard.stop], golden
                )
                remote = handle.sharded._remotes[1]
                assert remote._synced is not None
                # The link dies *between* the FAULT ack and the next
                # EXECUTE: sever the socket under the client.  The next
                # call's first attempt fails in-flight, and the retry
                # lands on a fresh connection whose server-side override
                # state is empty — the schedule must be re-sent.
                remote._conn.sock.close()
                faulted = service.multiply(handle, vectors)
                assert np.array_equal(
                    faulted[:, shard.start : shard.stop], golden
                )
                # The retry succeeded remotely — no silent local
                # fallback, no lingering unhealthy mark.
                assert remote.healthy is True
                assert remote.local_fallbacks == 0
            finally:
                injection.revert()
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )

    def test_dead_host_rejoins_automatically_without_revive(self, tmp_path):
        """The tentpole acceptance path: kill a loopback server under
        offered load, restart it on the same endpoint, and watch the
        link return to remote serving with *no* revive() call — every
        request in between answered bit-exactly."""
        import time as _time

        from repro.cluster import BackoffPolicy

        matrix = _matrix(28, shape=(10, 8))
        vectors = _vectors(29, 4, 10)
        with ClusterController(tmp_path / "store") as controller:
            controller.start_local_fleet(1)
            with controller.remote_service(
                probe_backoff=BackoffPolicy(
                    initial_s=0.01, multiplier=1.5, max_s=0.05, jitter=0.0
                )
            ) as service:
                handle = controller.deploy_fleet(service, matrix, shards=1)
                remote = handle.sharded._remotes[0]
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )
                controller.kill_server(0)
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )
                assert remote.healthy is False
                controller.restart_server(0)
                # Keep offering load; the link revives through its own
                # traffic once the backoff deadline passes.
                deadline = _time.monotonic() + 10.0
                while not remote.healthy and _time.monotonic() < deadline:
                    assert np.array_equal(
                        service.multiply(handle, vectors), vectors @ matrix
                    )
                    _time.sleep(0.01)
                assert remote.healthy is True
                probe = remote.telemetry()["probe"]
                assert probe["auto_revivals"] >= 1
                assert probe["consecutive_failures"] == 0
                # Remote serving actually resumed.
                calls_before = remote.remote_calls
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )
                assert remote.remote_calls > calls_before

    def test_fleet_stats_reports_dead_hosts(self, fleet):
        fleet.kill_server(1)
        stats = fleet.fleet_stats()
        assert len(stats) == 3
        assert "error" in stats[1]
        assert stats[0].get("name") and stats[2].get("name")

    def test_unknown_digest_is_a_clean_error(self, fleet):
        host, port = fleet.endpoints[0]
        shard = RemoteShard(
            host,
            port,
            {
                "matrix_digest": "0" * 64,
                "input_width": 8,
                "scheme": "csd",
                "tree_style": "compact",
                "start": 0,
                "stop": 4,
            },
            timeout_s=5.0,
        )
        # The server answers (no transport failure), refusing the LOAD:
        # at execute time that is the fall-back-locally signal — the
        # store cannot serve this shard until refilled — with the
        # refusal's stable token preserved in the message.
        with pytest.raises(RemoteShardError, match="unknown-kernel"):
            shard.execute(np.zeros((1, 4), dtype=np.int64), "auto")
        assert not shard.healthy
        # Deploy-time warmup keeps the loud behaviour: a misconfigured
        # store should fail the deploy, not silently serve locally.
        shard.revive()
        from repro.cluster import RemoteFault

        with pytest.raises(RemoteFault, match="unknown-kernel"):
            shard.warm()
        shard.close()

    def test_version_mismatch_is_refused_at_handshake(self, fleet):
        host, port = fleet.endpoints[0]
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            sock.settimeout(5.0)
            send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION + 1})
            ftype, meta, _ = recv_frame(sock)
            assert ftype is FrameType.ERROR
            assert meta["error"] == "version"
        finally:
            sock.close()

    def test_execute_before_load_is_refused(self, fleet):
        host, port = fleet.endpoints[0]
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            sock.settimeout(5.0)
            send_frame(sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
            recv_frame(sock)
            sock.sendall(
                encode_frame(
                    FrameType.EXECUTE,
                    {"engine": "auto", "codec": "i64", "shape": [1, 4]},
                    b"\x00" * 32,
                )
            )
            ftype, meta, _ = recv_frame(sock)
            assert ftype is FrameType.ERROR
            assert meta["error"] == "not-loaded"
        finally:
            sock.close()

    def test_unknown_engine_is_refused(self, fleet):
        """A loaded link refuses an engine outside ``SERVE_ENGINES`` —
        the removed ``batched`` gate engine included."""
        from repro.cluster import RemoteFault
        from repro.cluster.protocol import batch_frame

        matrix = _matrix(16, shape=(10, 8))
        vectors = _vectors(17, 2, 10)
        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, matrix, shards=1)
            remote = handle.sharded._remotes[0]
            with remote._lock:
                conn = remote._ensure()
                with pytest.raises(RemoteFault, match="unknown engine 'batched'"):
                    conn.request(batch_frame(vectors, "batched"))

    def test_unknown_engine_is_an_application_error(self, tmp_path):
        """A well-framed EXECUTE naming an engine the server lacks is
        refused to the caller; it is not wire damage, so the link is
        neither retried on a fresh connection nor marked unhealthy."""
        from repro.cluster import RemoteFault

        matrix = _matrix(16, shape=(10, 8))
        vectors = _vectors(17, 2, 10)
        with ClusterController(tmp_path / "store") as controller:
            controller.start_local_fleet(1)
            with controller.remote_service() as service:
                handle = controller.deploy_fleet(service, matrix, shards=1)
                remote = handle.sharded._remotes[0]
                connections = remote.stats()["connections"]
                with pytest.raises(RemoteFault, match="unknown engine 'batched'"):
                    remote.execute(vectors, "batched")
                assert remote.healthy is True
                assert remote.stats()["connections"] == connections
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )

    def test_revive_reprobes_a_recovered_host(self, tmp_path):
        matrix = _matrix(14, shape=(10, 8))
        vectors = _vectors(15, 4, 10)
        with ClusterController(tmp_path / "store") as controller:
            controller.start_local_fleet(1)
            with controller.remote_service() as service:
                handle = controller.deploy_fleet(service, matrix, shards=1)
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )
                controller.kill_server(0)
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )
                remote = handle.sharded._remotes[0]
                assert not remote.healthy
                # Host comes back on the *same* port?  Ports are
                # ephemeral here, so model recovery by starting a new
                # server and retargeting the handle, then reviving.
                replacement = controller.start_local_fleet(1)[-1]
                remote.host, remote.port = replacement
                remote.revive()
                assert np.array_equal(
                    service.multiply(handle, vectors), vectors @ matrix
                )
                assert remote.healthy
                assert (
                    handle.sharded.utilization()["per_shard"][0]["remote_calls"]
                    >= 2
                )


class TestServiceClose:
    def test_close_rejects_queued_requests_and_closes_sockets(self, fleet):
        matrix = _matrix(16, shape=(10, 8))

        async def main():
            # A deadline far in the future: submits stay queued until
            # close() — which must reject them, not strand them.
            service = fleet.remote_service(max_delay_s=30.0, max_batch=64)
            handle = fleet.deploy_fleet(service, matrix)
            vec = np.zeros(10, dtype=np.int64)
            tasks = [
                asyncio.create_task(service.submit(handle, vec))
                for _ in range(4)
            ]
            await asyncio.sleep(0.05)
            assert handle.batcher.pending == 4
            service.close()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            assert all("service closed" in str(r) for r in results)
            return handle

        handle = asyncio.run(asyncio.wait_for(main(), timeout=30.0))
        # Sockets are gone: the remote handles were closed.
        assert handle.sharded._remotes == []

    def test_close_is_idempotent_and_keeps_local_backends_working(self):
        matrix = _matrix(17, shape=(8, 6))
        service = MatMulService()
        handle = service.deploy(matrix, shards=2)
        vectors = _vectors(18, 3, 8)
        assert np.array_equal(
            service.multiply(handle, vectors), vectors @ matrix
        )
        service.close()
        service.close()


class TestStoreSemantics:
    def test_servers_share_one_store_and_count_loads(self, fleet):
        matrix = _matrix(19)
        with fleet.remote_service() as service:
            fleet.deploy_fleet(service, matrix)
            stats = fleet.fleet_stats()
            assert [s["loads"] for s in stats] == [1, 1, 1]
            assert all(s["store"]["persistent"] for s in stats)

    def test_memory_only_cache_with_explicit_store_still_feeds_fleet(
        self, fleet
    ):
        """A cache that persists nowhere (or elsewhere) must not starve
        the servers: the remote deploy persists each shard's artifacts
        into the fleet store itself."""
        from repro.serve.shards import ShardedMultiplier

        matrix = _matrix(22, shape=(10, 8))
        vectors = _vectors(23, 4, 10)
        with ShardedMultiplier(
            matrix,
            shards=2,
            cache=CompileCache(),  # memory-only: persists nothing
            backend="remote",
            endpoints=fleet.endpoints,
            store=str(fleet.store),
        ) as sharded:
            out = sharded.multiply_batch(vectors)
            assert np.array_equal(out, vectors @ matrix)
            per_shard = sharded.utilization()["per_shard"]
            assert all(p["remote_calls"] == 1 for p in per_shard)

    def test_deploy_without_endpoints_is_a_clear_error(self, tmp_path):
        from repro.serve.shards import ShardedMultiplier

        with pytest.raises(ValueError, match="endpoints"):
            ShardedMultiplier(_matrix(20), shards=2, backend="remote")

    def test_deploy_without_store_is_a_clear_error(self, tmp_path):
        from repro.serve.shards import ShardedMultiplier

        with pytest.raises(ValueError, match="store"):
            ShardedMultiplier(
                _matrix(21),
                shards=2,
                backend="remote",
                endpoints=[("127.0.0.1", 1)],
            )

    def test_remote_shard_error_type_is_exported(self):
        assert issubclass(RemoteShardError, RuntimeError)
