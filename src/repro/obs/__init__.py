"""`repro.obs` — observability for the served multiplier stack.

The paper's whole argument is a latency/throughput trade-off (pipelined
spatial multipliers vs. batched accelerators, Figs. 5–7), so the
reproduction must say where each request's time goes.  This package is
the measurement substrate those numbers come from, three instruments
over one serving stack:

* :mod:`repro.obs.tracing` — distributed request tracing.  One
  ``submit()`` yields one span tree: the request root, its queue-wait
  in the micro-batcher, the coalesced batch execution, per-shard
  dispatch, and — for remote backends — the wire round-trip with the
  *server-side* execute span linked in by trace context propagated on
  the EXECUTE frame (protocol v3), not reconstructed by client-side
  guessing.
* :mod:`repro.obs.metrics` — fleet metrics aggregation: one merged
  JSON document per collection (deployment telemetry + scraped
  per-server STATS + fleet rollup) and a dependency-free Prometheus
  text exposition writer.  ``python -m repro.obs.top`` renders the
  same documents as a one-shot or watch terminal view.
* :mod:`repro.obs.recorder` — the flight recorder: a bounded,
  thread-safe ring of structured events (deploys, swaps, shard health
  transitions, revival probes, slow-request exemplars, SLO burn
  transitions) dumpable as JSONL on demand or automatically when a
  shard dies.

Phase 2 adds the *time dimension* on top of those instruments:

* :mod:`repro.obs.history` — :class:`MetricsHistory`, a bounded ring
  of timestamped ``FleetMetrics.collect()`` documents (background
  sampler with clean ``close()``), with windowed counter deltas/rates,
  latency percentile series, and atomic JSONL persistence.
* :mod:`repro.obs.slo` — declarative latency/availability SLOs
  evaluated over the history with SRE-style multi-window burn-rate
  rules, emitting ``slo_burn``/``slo_ok`` flight-recorder events and
  the ``repro_slo_*`` Prometheus families.
* :mod:`repro.obs.profile` — :class:`StageProfiler`, near-zero-overhead
  log-bucketed histograms of per-stage serving durations keyed by
  executor variant, merged fleet-wide and exposed as real Prometheus
  histogram types.

All instruments are opt-in at the serve layer
(``MatMulService(tracer=..., recorder=..., profiler=...)``); the
uninstrumented path pays only ``None`` checks, held to <10% overhead by
``benchmarks/bench_obs_overhead.py`` and
``benchmarks/bench_slo_alerting.py``.  See ``docs/observability.md``
for the span taxonomy, metrics glossary, and event schema.
"""

from repro.obs.history import MetricsHistory
from repro.obs.metrics import FleetMetrics, to_prometheus
from repro.obs.profile import StageProfiler
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import (
    AvailabilitySLO,
    BurnRatePolicy,
    LatencySLO,
    SLOEngine,
)
from repro.obs.tracing import (
    Span,
    SpanContext,
    Tracer,
    span_tree,
    trace_meta,
    tree_stages,
)

__all__ = [
    "AvailabilitySLO",
    "BurnRatePolicy",
    "FleetMetrics",
    "FlightRecorder",
    "LatencySLO",
    "MetricsHistory",
    "SLOEngine",
    "Span",
    "SpanContext",
    "StageProfiler",
    "Tracer",
    "span_tree",
    "trace_meta",
    "tree_stages",
    "to_prometheus",
]
