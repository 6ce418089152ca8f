"""End-to-end observability: span trees and flight-recorder events
through the real serve path — local thread shards and a loopback fleet.

The acceptance claims of the obs release:

* one ``submit`` against a 3-server fleet yields a **single-trace span
  tree** covering queue-wait, coalescing, shard dispatch, the wire
  round-trip, and the server-side execute — with the server spans
  linked by *propagated* context (parented on the client's wire span
  ids), not reconstructed by timestamp;
* a trace **survives the reconnect-retry path**: a request whose first
  connection attempt dies on a stale socket completes its tree on the
  retry connection;
* shard death leaves a ``shard_unhealthy`` event and an automatic
  JSONL dump of the flight-recorder window.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.cluster import BackoffPolicy, ClusterController
from repro.obs import FlightRecorder, Tracer, span_tree, tree_stages
from repro.serve import CompileCache, MatMulService


def _matrix(seed=0, shape=(20, 18), sparsity=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-100, 101, size=shape)
    matrix[rng.random(shape) < sparsity] = 0
    return matrix


def _find(spans, stage):
    return [s for s in spans if s.stage == stage]


class TestLocalServiceTracing:
    def test_one_submit_yields_one_span_tree(self):
        tracer = Tracer()
        matrix = _matrix(1, shape=(10, 8))
        with MatMulService(cache=CompileCache(), tracer=tracer) as service:
            handle = service.deploy(matrix, name="m0", shards=2)
            vector = np.arange(10, dtype=np.int64) - 4
            row = asyncio.run(service.submit(handle, vector))
        assert np.array_equal(row, vector @ matrix)
        (trace_id,) = tracer.trace_ids()
        spans = tracer.spans(trace_id)
        (tree,) = span_tree(spans)
        root = tree["span"]
        assert root.stage == "request"
        assert root.attrs["deployment"] == "m0"
        assert root.attrs["latency_s"] > 0.0
        assert tree_stages(tree) == {
            "request", "queue_wait", "coalesce", "shard_dispatch"
        }
        (coalesce,) = _find(spans, "coalesce")
        assert coalesce.parent_id == root.span_id
        assert coalesce.attrs["lanes"] == 1
        dispatches = _find(spans, "shard_dispatch")
        assert len(dispatches) == 2  # one per shard
        assert {d.parent_id for d in dispatches} == {coalesce.span_id}
        assert {d.attrs["shard"] for d in dispatches} == {0, 1}

    def test_coalesced_requests_keep_their_own_traces(self):
        tracer = Tracer()
        matrix = _matrix(2, shape=(6, 5))
        with MatMulService(
            cache=CompileCache(), tracer=tracer, max_batch=2, max_delay_s=0.2
        ) as service:
            handle = service.deploy(matrix, name="m0", shards=1)
            vectors = np.ones((2, 6), dtype=np.int64)
            rows = asyncio.run(service.submit_many(handle, vectors))
        assert np.array_equal(rows, vectors @ matrix)
        traces = tracer.trace_ids()
        assert len(traces) == 2  # one trace per request, even coalesced
        # Exactly one coalesce span: it lives in the carrier's trace
        # and names the other trace instead of re-parenting it.
        (coalesce,) = _find(tracer.spans(), "coalesce")
        assert coalesce.attrs["lanes"] == 2
        other = [t for t in traces if t != coalesce.trace_id]
        assert coalesce.attrs["linked_traces"] == other
        # Each request still recorded its own queue_wait.
        for trace_id in traces:
            assert len(_find(tracer.spans(trace_id), "queue_wait")) == 1

    def test_a_failed_batch_records_its_coalesce_span_with_the_error(self):
        from repro.obs import StageProfiler

        tracer, profiler = Tracer(), StageProfiler()
        matrix = _matrix(3, shape=(6, 5))
        with MatMulService(
            cache=CompileCache(), tracer=tracer, profiler=profiler
        ) as service:
            handle = service.deploy(matrix, shards=1)

            def boom(*args, **kwargs):
                raise RuntimeError("shard on fire")

            handle.sharded.multiply_batch = boom
            with pytest.raises(RuntimeError, match="on fire"):
                asyncio.run(service.submit(handle, np.ones(6, dtype=np.int64)))
        (coalesce,) = _find(tracer.spans(), "coalesce")
        assert coalesce.attrs["error"] == "RuntimeError: shard on fire"
        assert coalesce.duration_s > 0.0
        (request,) = _find(tracer.spans(), "request")
        assert coalesce.parent_id == request.span_id
        assert "error" in request.attrs
        # The profiler books only batches that ran.
        assert "coalesce" not in StageProfiler.stage_totals(profiler.snapshot())

    def test_untraced_service_records_nothing(self):
        matrix = _matrix(3, shape=(6, 5))
        with MatMulService(cache=CompileCache()) as service:
            handle = service.deploy(matrix, shards=1)
            asyncio.run(service.submit(handle, np.ones(6, dtype=np.int64)))
            telem = service.telemetry()
        assert "observability" not in telem

    def test_slow_request_exemplar_carries_its_trace_id(self):
        tracer = Tracer()
        recorder = FlightRecorder()
        matrix = _matrix(4, shape=(6, 5))
        with MatMulService(
            cache=CompileCache(), tracer=tracer, recorder=recorder,
            slow_request_s=0.0,  # every request is an exemplar
        ) as service:
            handle = service.deploy(matrix, name="m0", shards=1)
            asyncio.run(service.submit(handle, np.ones(6, dtype=np.int64)))
        (exemplar,) = recorder.events(kind="slow_request")
        assert exemplar["deployment"] == "m0"
        assert exemplar["latency_s"] >= exemplar["threshold_s"]
        # The exemplar's trace id pulls exactly that request's tree.
        spans = tracer.spans(exemplar["trace_id"])
        (tree,) = span_tree(spans)
        assert tree["span"].stage == "request"

    def test_lifecycle_events_reach_the_recorder(self):
        recorder = FlightRecorder()
        matrix = _matrix(5, shape=(6, 5))
        with MatMulService(cache=CompileCache(), recorder=recorder) as service:
            handle = service.deploy(matrix, name="m0", shards=1)
            service.swap(handle, matrix * 2)
            service.undeploy(handle)
        kinds = [e["kind"] for e in recorder.events()]
        assert kinds == ["deploy", "swap", "undeploy", "service_close"]
        deploy, swap, undeploy, close = recorder.events()
        assert deploy["deployment"] == "m0" and deploy["shards"] == 1
        assert swap["old_digest"] != swap["new_digest"]
        assert close["deployments"] == []  # m0 already undeployed

    def test_telemetry_reports_observability_occupancy(self):
        tracer = Tracer()
        recorder = FlightRecorder()
        matrix = _matrix(6, shape=(6, 5))
        with MatMulService(
            cache=CompileCache(), tracer=tracer, recorder=recorder
        ) as service:
            handle = service.deploy(matrix, shards=1)
            asyncio.run(service.submit(handle, np.ones(6, dtype=np.int64)))
            obs = service.telemetry()["observability"]
        assert obs["tracer"]["recorded"] == tracer.stats()["recorded"] > 0
        assert obs["flight_recorder"]["recorded"] >= 1


@pytest.fixture()
def fleet(tmp_path):
    """A 3-server loopback fleet over a fresh artifact store."""
    with ClusterController(tmp_path / "store") as controller:
        controller.start_local_fleet(3)
        yield controller


class TestFleetTracing:
    def test_one_submit_yields_a_six_stage_tree_with_server_spans(self, fleet):
        tracer = Tracer()
        matrix = _matrix()
        with fleet.remote_service(tracer=tracer) as service:
            handle = fleet.deploy_fleet(service, matrix)
            assert handle.shard_count == 3
            vector = np.arange(20, dtype=np.int64) - 9
            row = asyncio.run(service.submit(handle, vector))
        assert np.array_equal(row, vector @ matrix)
        (trace_id,) = tracer.trace_ids()
        spans = tracer.spans(trace_id)
        (tree,) = span_tree(spans)  # single root: one connected tree
        assert tree["span"].stage == "request"
        assert tree_stages(tree) == {
            "request", "queue_wait", "coalesce", "shard_dispatch",
            "wire", "server_execute",
        }
        wires = _find(spans, "wire")
        servers = _find(spans, "server_execute")
        assert len(wires) == 3 and len(servers) == 3
        # The load-bearing linkage: every server-side span is parented
        # on a *client* wire span id — context propagated through the
        # EXECUTE frame, not guessed from clocks.
        wire_ids = {w.span_id for w in wires}
        assert {s.parent_id for s in servers} <= wire_ids
        assert {s.attrs["server"] for s in servers} == {
            "local-0", "local-1", "local-2"
        }
        for span in servers:
            assert span.trace_id == trace_id
            assert span.duration_s > 0.0
            assert span.attrs["lanes"] == 1
        for wire in wires:
            assert wire.attrs["server_spans"] == 1
            assert wire.attrs["endpoint"].startswith("127.0.0.1:")

    def test_trace_survives_reconnect_retry(self, tmp_path):
        tracer = Tracer()
        recorder = FlightRecorder()
        matrix = _matrix(7, shape=(10, 8))
        vector = np.arange(10, dtype=np.int64)
        with ClusterController(tmp_path / "store") as controller:
            controller.start_local_fleet(1)
            with controller.remote_service(
                tracer=tracer, recorder=recorder
            ) as service:
                handle = controller.deploy_fleet(service, matrix, shards=1)
                asyncio.run(service.submit(handle, vector))
                # Kill and immediately restart on the same endpoint: the
                # client's pooled connection is now a dead socket, so the
                # next request must fail once and retry on a fresh one.
                controller.kill_server(0)
                controller.restart_server(0)
                row = asyncio.run(service.submit(handle, vector))
                remote = handle.sharded._remotes[0]
                assert np.array_equal(row, vector @ matrix)
                assert remote.healthy is True
        # The retried request's tree is complete — including the
        # server-side span from the *second* connection.
        trace_id = tracer.trace_ids()[-1]
        (tree,) = span_tree(tracer.spans(trace_id))
        assert "server_execute" in tree_stages(tree)
        (server_span,) = _find(tracer.spans(trace_id), "server_execute")
        (wire_span,) = _find(tracer.spans(trace_id), "wire")
        assert server_span.parent_id == wire_span.span_id
        # The retry never went unhealthy: no fallback, no death event.
        assert recorder.events(kind="local_fallback") == []
        assert recorder.events(kind="shard_unhealthy") == []

    def test_shard_death_leaves_events_and_an_auto_dump(self, tmp_path):
        recorder = FlightRecorder(auto_dump_path=tmp_path / "blackbox.jsonl")
        matrix = _matrix(8, shape=(10, 8))
        vector = np.arange(10, dtype=np.int64)
        with ClusterController(tmp_path / "store") as controller:
            controller.start_local_fleet(1)
            with controller.remote_service(
                recorder=recorder,
                probe_backoff=BackoffPolicy(
                    initial_s=0.01, multiplier=1.5, max_s=0.05, jitter=0.0
                ),
            ) as service:
                handle = controller.deploy_fleet(service, matrix, shards=1)
                asyncio.run(service.submit(handle, vector))
                controller.kill_server(0)
                # Served anyway — locally — and recorded as such.
                row = asyncio.run(service.submit(handle, vector))
                assert np.array_equal(row, vector @ matrix)
                (death,) = recorder.events(kind="shard_unhealthy")
                assert death["endpoint"].startswith("127.0.0.1:")
                assert death["error"]
                (fallback,) = recorder.events(kind="local_fallback")
                assert fallback["shard"] == 0
                # The black box dumped itself the moment the link died.
                dumped = [
                    json.loads(line)
                    for line in (tmp_path / "blackbox.jsonl")
                    .read_text()
                    .splitlines()
                ]
                assert any(e["kind"] == "shard_unhealthy" for e in dumped)
                assert recorder.stats()["auto_dumps"] >= 1
                # Manual revival after restart is recorded too.  probe()
                # respects the backoff schedule, so poll until it is due.
                controller.restart_server(0)
                remote = handle.sharded._remotes[0]
                deadline = time.monotonic() + 10.0
                while not remote.probe() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert remote.healthy is True
                (revival,) = recorder.events(kind="shard_revived")
                assert revival["via"] == "probe"


class TestFleetProfiling:
    def test_server_profiles_merge_into_one_fleet_histogram(self, tmp_path):
        from repro.obs import FleetMetrics, StageProfiler, to_prometheus

        matrix = _matrix()
        profiler = StageProfiler()
        tracer = Tracer()
        with ClusterController(
            tmp_path / "store", profile_servers=True
        ) as controller:
            controller.start_local_fleet(3)
            with controller.remote_service(
                profiler=profiler, tracer=tracer, max_batch=4
            ) as service:
                handle = controller.deploy_fleet(service, matrix)
                vectors = np.arange(160, dtype=np.int64).reshape(8, 20) - 80
                rows = asyncio.run(service.submit_many(handle, vectors))
                assert np.array_equal(rows, vectors @ matrix)
                doc = FleetMetrics(service=service).collect()
                rtt_samples = [
                    s for r in handle.sharded._remotes for s in r.rtt._samples
                ]
        # One reading per boundary feeds every sink: the coalesce spans
        # and the profiler's coalesce samples are the same intervals, and
        # so are the wire spans, wire samples and the links' RTT windows
        # (equal up to the profiler's 1e-9 s rounding of its sums).
        client = StageProfiler.stage_totals(profiler.snapshot())
        for stage in ("coalesce", "wire"):
            spans = _find(tracer.spans(), stage)
            assert len(spans) == client[stage]["count"] >= 2
            assert sum(s.duration_s for s in spans) == pytest.approx(
                client[stage]["sum"], rel=0, abs=1e-9
            )
        assert len(rtt_samples) == client["wire"]["count"]
        assert sum(rtt_samples) == pytest.approx(
            client["wire"]["sum"], rel=0, abs=1e-9
        )
        # Every server's STATS carried its own server_execute histogram.
        profiled = [s for s in doc["servers"] if "profile" in s]
        assert len(profiled) == 3
        for stats in profiled:
            (entry,) = stats["profile"]["stages"]
            assert entry["stage"] == "server_execute"
            assert entry["variant"].startswith("fused:")
            assert entry["count"] >= 1
        # The merged fleet profile holds client stages AND the summed
        # server-side execute histogram.
        totals = StageProfiler.stage_totals(doc["profile"])
        assert {"queue_wait", "coalesce", "shard_dispatch", "wire",
                "server_execute"} <= set(totals)
        assert totals["server_execute"]["count"] == sum(
            e["profile"]["stages"][0]["count"] for e in profiled
        )
        # Containment sanity: the wire round-trip includes the server
        # execute, the dispatch includes the wire.
        assert totals["shard_dispatch"]["sum"] >= totals["wire"]["sum"]
        assert totals["wire"]["sum"] >= totals["server_execute"]["sum"]
        text = to_prometheus(doc)
        assert 'stage="server_execute"' in text
        assert "# TYPE repro_stage_duration_seconds histogram" in text

    def test_a_failed_wire_is_a_span_not_a_sample(self, tmp_path):
        """A dead link's wire span is recorded, marked ``error``; its
        time goes to the local fallback's shard_dispatch, not to the
        profiler's wire histogram or the link's RTT window."""
        from repro.obs import StageProfiler

        tracer, profiler = Tracer(), StageProfiler()
        matrix = _matrix(9, shape=(10, 8))
        vector = np.arange(10, dtype=np.int64)
        with ClusterController(tmp_path / "store") as controller:
            controller.start_local_fleet(1)
            with controller.remote_service(
                tracer=tracer, profiler=profiler
            ) as service:
                handle = controller.deploy_fleet(service, matrix, shards=1)
                asyncio.run(service.submit(handle, vector))
                controller.kill_server(0)
                row = asyncio.run(service.submit(handle, vector))
                assert np.array_equal(row, vector @ matrix)
                remote = handle.sharded._remotes[0]
                assert len(remote.rtt) == 1
        spans = tracer.spans(tracer.trace_ids()[-1])
        (tree,) = span_tree(spans)
        assert tree["span"].stage == "request"
        (wire,) = _find(spans, "wire")
        assert "RemoteShardError" in wire.attrs["error"]
        assert "server_spans" not in wire.attrs
        (dispatch,) = _find(spans, "shard_dispatch")
        assert dispatch.attrs["local_fallback"] is True
        assert wire.parent_id == dispatch.span_id
        totals = StageProfiler.stage_totals(profiler.snapshot())
        assert totals["wire"]["count"] == 1
        assert totals["shard_dispatch"]["count"] == 2

    def test_unprofiled_fleet_stats_carry_no_profile(self, fleet):
        from repro.obs import FleetMetrics

        with fleet.remote_service() as service:
            handle = fleet.deploy_fleet(service, _matrix())
            asyncio.run(
                service.submit(handle, np.arange(20, dtype=np.int64))
            )
            doc = FleetMetrics(service=service).collect()
        assert all("profile" not in s for s in doc["servers"])
        assert "profile" not in doc
