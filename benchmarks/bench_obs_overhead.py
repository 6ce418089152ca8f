"""Observability overhead benchmark: the traced path must stay cheap.

The same offered load — 64 concurrent single-vector requests,
micro-batched by the service — is served against one loopback
3-server shard fleet over one prewarmed store by two deployments of
the same 384x384 matrix:

* **untraced** — ``tracer=None``/``recorder=None``, the default
  uninstrumented path (pays only ``None`` checks);
* **traced** — a :class:`~repro.obs.tracing.Tracer`, a
  :class:`~repro.obs.recorder.FlightRecorder`, and
  ``slow_request_s=0.0`` so *every* request also writes a
  ``slow_request`` exemplar — the most expensive instrumentation the
  stack offers.

Both deployments stay live on the same fleet and the measured waves
**interleave** (untraced, traced, untraced, traced, ...), taking the
best wave of each: a sequential A-then-B design confounds the
comparison with machine warm-up drift, which on loopback is the same
order of magnitude as the effect being measured.

Two contracts are asserted:

* **<10% overhead** — best traced wave is within ``OVERHEAD_CAP``
  (1.10x) of the best untraced wave, both bit-exact;
* **complete trees** — the traced run's carrier traces assemble into
  single-root span trees covering all six stages (request, queue_wait,
  coalesce, shard_dispatch, wire, server_execute), with every
  server-side span parented on a client wire span id — context
  propagated through the EXECUTE frame, not guessed from clocks.

Results are written to ``BENCH_obs_overhead.json`` at the repo root,
including the absolute per-request instrumentation cost (µs), which is
the number to watch — the ratio scales with how much work each
request carries — and each interleaved round's traced/untraced ratio
with their median, which show how far host noise spreads the ratio.

Run::

    pytest benchmarks/bench_obs_overhead.py
"""

import asyncio
import json
import pathlib
import time

import numpy as np

from repro.cluster import ClusterController
from repro.obs import FlightRecorder, Tracer, span_tree, tree_stages
from repro.serve.prewarm import prewarm

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DIM = 384
SPARSITY = 0.5
SERVERS = 3
OFFERED = 64
WARMUP_WAVES = 3
MEASURE_ROUNDS = 12
OVERHEAD_CAP = 1.10

ALL_STAGES = {
    "request", "queue_wait", "coalesce", "shard_dispatch",
    "wire", "server_execute",
}


def _matrix():
    rng = np.random.default_rng(23)
    matrix = rng.integers(-128, 128, size=(DIM, DIM))
    matrix[rng.random((DIM, DIM)) < SPARSITY] = 0
    return matrix


def _wave(service, handle, vectors, golden):
    """One offered wave: 64 concurrent submits, bit-exact asserted."""

    async def drive():
        start = time.perf_counter()
        rows = await service.submit_many(handle, vectors)
        return rows, time.perf_counter() - start

    rows, elapsed = asyncio.run(drive())
    assert np.array_equal(rows, golden)
    return elapsed


def _assert_complete_trees(tracer):
    """Every carrier trace assembles into one six-stage tree with the
    server spans hanging off client wire spans.  Returns the count."""
    spans = tracer.spans()
    carriers = {s.trace_id for s in spans if s.stage == "coalesce"}
    assert carriers, "traced run produced no coalesce spans"
    for trace_id in carriers:
        trace = [s for s in spans if s.trace_id == trace_id]
        trees = span_tree(trace)
        assert len(trees) == 1, f"trace {trace_id} is not one connected tree"
        assert tree_stages(trees[0]) == ALL_STAGES
        wire_ids = {s.span_id for s in trace if s.stage == "wire"}
        servers = [s for s in trace if s.stage == "server_execute"]
        assert len(servers) == SERVERS
        assert {s.parent_id for s in servers} <= wire_ids
    return len(carriers)


def test_obs_overhead(tmp_path):
    matrix = _matrix()
    vectors = np.random.default_rng(29).integers(-128, 128, size=(OFFERED, DIM))
    golden = vectors @ matrix
    store = tmp_path / "store"
    prewarm(
        {
            "defaults": {"input_width": 8, "scheme": "csd"},
            "workloads": [
                {"name": "fleet", "matrix": matrix.tolist(), "shards": SERVERS}
            ],
        },
        store=store,
    )

    tracer = Tracer(capacity=65536)
    recorder = FlightRecorder()
    with ClusterController(store) as controller:
        controller.start_local_fleet(SERVERS)
        with controller.remote_service() as untraced_service, (
            controller.remote_service(
                tracer=tracer, recorder=recorder, slow_request_s=0.0
            )
        ) as traced_service:
            untraced_handle = controller.deploy_fleet(untraced_service, matrix)
            traced_handle = controller.deploy_fleet(traced_service, matrix)
            for _ in range(WARMUP_WAVES):
                _wave(untraced_service, untraced_handle, vectors, golden)
                _wave(traced_service, traced_handle, vectors, golden)
            untraced_s = traced_s = float("inf")
            round_ratios = []
            pair = (
                (untraced_service, untraced_handle),
                (traced_service, traced_handle),
            )
            for round_i in range(MEASURE_ROUNDS):
                # Alternate which deployment goes first so cache/
                # scheduler warm-up from one wave never systematically
                # favors the other config.
                first, second = (
                    pair if round_i % 2 == 0 else (pair[1], pair[0])
                )
                for service, handle in (first, second):
                    elapsed = _wave(service, handle, vectors, golden)
                    if service is untraced_service:
                        untraced_round = elapsed
                    else:
                        traced_round = elapsed
                untraced_s = min(untraced_s, untraced_round)
                traced_s = min(traced_s, traced_round)
                round_ratios.append(traced_round / untraced_round)

    overhead_x = traced_s / untraced_s
    # The per-round ratios show the host's spread around the best-of
    # figure the cap is asserted on.
    round_ratio_median = float(np.median(round_ratios))
    assert overhead_x < OVERHEAD_CAP, (
        f"traced path costs {overhead_x:.3f}x untraced "
        f"(cap {OVERHEAD_CAP}x): traced {traced_s:.6f}s "
        f"vs untraced {untraced_s:.6f}s; median round ratio "
        f"{round_ratio_median:.3f}"
    )
    complete_trees = _assert_complete_trees(tracer)
    tracer_stats = tracer.stats()
    # One trace per request per traced wave (warm-up included), and
    # every request left a slow_request exemplar.
    traced_waves = WARMUP_WAVES + MEASURE_ROUNDS
    assert len(tracer.trace_ids()) == OFFERED * traced_waves
    assert len(recorder.events(kind="slow_request")) == OFFERED * traced_waves

    record = {
        "matrix": f"{DIM}x{DIM} csd, ~{SPARSITY:.0%} element sparsity, s8 inputs",
        "offered_batch": OFFERED,
        "servers": SERVERS,
        "interleaved_rounds_best_of": MEASURE_ROUNDS,
        "seconds": {
            "untraced": round(untraced_s, 6),
            "traced": round(traced_s, 6),
        },
        "requests_per_s": {
            "untraced": round(OFFERED / untraced_s, 1),
            "traced": round(OFFERED / traced_s, 1),
        },
        "overhead_x": round(overhead_x, 3),
        "round_ratios": [round(r, 3) for r in round_ratios],
        "round_ratio_median": round(round_ratio_median, 3),
        "overhead_cap_x": OVERHEAD_CAP,
        "overhead_us_per_request": round(
            (traced_s - untraced_s) / OFFERED * 1e6, 2
        ),
        "spans_recorded": tracer_stats["recorded"],
        "complete_six_stage_trees": complete_trees,
        "flight_recorder_events": recorder.stats()["recorded"],
        "bit_exact": True,
    }
    out_path = REPO_ROOT / "BENCH_obs_overhead.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
