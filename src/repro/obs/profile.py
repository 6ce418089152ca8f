"""Continuous stage profiling: where serving time goes, as histograms.

Tracing (:mod:`repro.obs.tracing`) answers "where did *this* request's
time go" — one span tree, high fidelity, bounded retention.  The stage
profiler answers the fleet-wide version: the full *distribution* of
per-stage durations (``queue_wait``, ``coalesce``, ``shard_dispatch``,
``wire``, ``server_execute``), keyed by the executor variant label
(``fused:float32`` / ``fused:float64`` / ``fused:int64`` /
``fused:object`` / ``bitplane`` / ...), continuously, for every request — which is what
proving the paper's latency/throughput envelope under live traffic
requires.  That only works if recording is near-free, so:

* **Log-bucketed fixed bins.**  Bucket edges are precomputed
  (log-spaced, 10 µs to 10 s by default) and shared by every series;
  recording is one ``searchsorted`` plus an integer increment into a
  preallocated counts array — no per-sample allocation, no growing
  reservoir.  Batched recording (``record_many``) bins a whole
  duration array with one ``searchsorted`` + ``bincount``.
* **Mergeable.**  A snapshot is plain counts; snapshots from every
  host in a fleet (service-side stages from the client,
  ``server_execute`` from each :class:`~repro.cluster.server.ShardServer`'s
  STATS) merge by addition in :meth:`FleetMetrics.collect
  <repro.obs.metrics.FleetMetrics.collect>`, provided they share the
  same edges.
* **Prometheus-native.**  The snapshot renders as a *real* Prometheus
  histogram family (``repro_stage_duration_seconds_bucket`` with
  cumulative ``le`` buckets, ``_sum``, ``_count``) via
  :func:`repro.obs.metrics.to_prometheus` — quantiles come out of
  ``histogram_quantile()`` downstream, not out of this process.

Opt-in like the tracer: every hook takes ``profiler=None`` and
instruments nothing by default.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

import numpy as np

__all__ = ["DEFAULT_EDGES", "StageProfiler"]

#: Default histogram bucket upper bounds (seconds): log-spaced, four
#: buckets per decade from 10 µs to 10 s.  Everything above the last
#: edge lands in the implicit ``+Inf`` overflow bucket.  One shared
#: edge vector per fleet is what makes snapshots mergeable.
DEFAULT_EDGES = np.logspace(-5, 1, 25)

#: How specific a stage is within the request pipeline, used when a
#: caller (the SLO engine) must attribute a regression to one stage and
#: several nested stages moved together — ``wire`` contains
#: ``server_execute``, ``shard_dispatch`` contains ``wire``, and so on,
#: so ties between a parent and the child that explains it resolve to
#: the child.
STAGE_SPECIFICITY = {
    "request": 0,
    "queue_wait": 1,
    "coalesce": 1,
    "shard_dispatch": 2,
    "wire": 3,
    "server_execute": 4,
}


class _Series:
    """One (stage, variant) histogram: preallocated counts + sum/count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, bins: int) -> None:
        self.counts = np.zeros(bins, dtype=np.int64)
        self.sum = 0.0
        self.count = 0


class StageProfiler:
    """Streaming per-stage duration histograms (see module docstring).

    Thread-safe: recorders are shard-pool threads, the asyncio loop
    thread, and (server-side) executor workers; snapshotters are
    telemetry scrapes.  The per-record critical section is two integer
    adds and one float add.

    Args:
        edges: increasing histogram bucket upper bounds in seconds
            (default :data:`DEFAULT_EDGES`).  All profilers that will be
            merged fleet-wide must share the same edges.
    """

    def __init__(self, edges: Iterable[float] | None = None) -> None:
        arr = np.asarray(
            DEFAULT_EDGES if edges is None else list(edges), dtype=float
        )
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("edges must be a non-empty 1-D sequence")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = arr
        self._bins = arr.size + 1  # + the +Inf overflow bucket
        self._lock = threading.Lock()
        self._series: dict[tuple[str, str], _Series] = {}

    # -- recording -----------------------------------------------------------

    def _get(self, stage: str, variant: str) -> _Series:
        key = (stage, variant)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series(self._bins)
        return series

    def record(self, stage: str, duration_s: float, variant: str = "") -> None:
        """Count one stage duration (seconds) into its bucket."""
        duration = float(duration_s)
        # side="left": bucket i holds durations <= edges[i], matching
        # Prometheus ``le`` (less-or-equal) bucket semantics.
        idx = int(np.searchsorted(self.edges, duration, side="left"))
        with self._lock:
            series = self._get(stage, variant)
            series.counts[idx] += 1
            series.sum += duration
            series.count += 1

    def record_many(
        self, stage: str, durations_s, variant: str = ""
    ) -> None:
        """Count a whole array of durations in one binning pass."""
        arr = np.asarray(durations_s, dtype=float).ravel()
        if arr.size == 0:
            return
        idx = np.searchsorted(self.edges, arr, side="left")
        binned = np.bincount(idx, minlength=self._bins)
        total = float(arr.sum())
        with self._lock:
            series = self._get(stage, variant)
            series.counts += binned
            series.sum += total
            series.count += int(arr.size)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable state: edges plus every series' counts.

        The wire/merge form: ``{"edges": [...], "stages": [{"stage",
        "variant", "counts", "sum", "count"}, ...]}``, stages sorted for
        stable output.
        """
        with self._lock:
            stages = [
                {
                    "stage": stage,
                    "variant": variant,
                    "counts": [int(c) for c in series.counts],
                    "sum": round(series.sum, 9),
                    "count": series.count,
                }
                for (stage, variant), series in sorted(self._series.items())
            ]
        return {"edges": [float(e) for e in self.edges], "stages": stages}

    def stats(self) -> dict[str, Any]:
        """Collector-health digest for the service telemetry block."""
        with self._lock:
            return {
                "series": len(self._series),
                "samples": sum(s.count for s in self._series.values()),
                "buckets": self._bins,
            }

    @staticmethod
    def merge(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any] | None:
        """Sum compatible snapshots into one fleet-wide snapshot.

        Snapshots must share bucket edges to be addable; a snapshot
        whose edges differ from the first usable one is skipped (and
        counted in the result's ``"skipped"`` field) rather than
        corrupting the merged counts — mixed-version fleets degrade to
        partial coverage, never to wrong numbers.  Returns ``None``
        when nothing usable was given.
        """
        edges: list[float] | None = None
        merged: dict[tuple[str, str], dict[str, Any]] = {}
        skipped = 0
        for snap in snapshots:
            if not isinstance(snap, dict) or "edges" not in snap:
                continue
            snap_edges = [float(e) for e in snap["edges"]]
            if edges is None:
                edges = snap_edges
            elif snap_edges != edges:
                skipped += 1
                continue
            for entry in snap.get("stages", []):
                key = (str(entry["stage"]), str(entry.get("variant", "")))
                into = merged.get(key)
                if into is None:
                    merged[key] = {
                        "stage": key[0],
                        "variant": key[1],
                        "counts": [int(c) for c in entry["counts"]],
                        "sum": float(entry["sum"]),
                        "count": int(entry["count"]),
                    }
                else:
                    into["counts"] = [
                        a + int(b) for a, b in zip(into["counts"], entry["counts"])
                    ]
                    into["sum"] += float(entry["sum"])
                    into["count"] += int(entry["count"])
        if edges is None:
            return None
        for entry in merged.values():
            entry["sum"] = round(entry["sum"], 9)
        doc: dict[str, Any] = {
            "edges": edges,
            "stages": [merged[key] for key in sorted(merged)],
        }
        if skipped:
            doc["skipped"] = skipped
        return doc

    @staticmethod
    def stage_totals(snapshot: dict[str, Any] | None) -> dict[str, dict[str, float]]:
        """Per-stage ``{"sum": seconds, "count": n}`` across variants.

        The reduction the SLO engine diffs between history samples to
        attribute a latency regression to one pipeline stage.
        """
        totals: dict[str, dict[str, float]] = {}
        for entry in (snapshot or {}).get("stages", []):
            stage = str(entry["stage"])
            into = totals.setdefault(stage, {"sum": 0.0, "count": 0.0})
            into["sum"] += float(entry["sum"])
            into["count"] += float(entry["count"])
        return totals
