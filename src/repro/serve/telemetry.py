"""Service telemetry: the numbers an operator watches on a dashboard.

Kept deliberately dependency-free (no prometheus client in this
container): a bounded reservoir of per-request latencies for percentile
estimation plus monotonic counters, snapshotted into a plain dict that
serializes straight to JSON for the throughput benchmark and any
external scraper.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

import numpy as np

__all__ = ["LatencyWindow", "RateWindow", "DeploymentTelemetry"]


def _point_label(point: float) -> str:
    """Percentile point → stable snapshot key: 50 → ``"p50"``, 99.9 →
    ``"p99_9"``.

    Fractional points keep their fraction (dot swapped for an
    underscore so the key stays a valid identifier/Prometheus label);
    the old ``f"p{int(p)}"`` collapsed 99.9 onto ``"p99"`` and silently
    overwrote the real p99 entry.
    """
    return "p" + f"{float(point):g}".replace(".", "_")


class LatencyWindow:
    """Rolling window of request latencies with percentile snapshots.

    Thread-safe on its own: recorders (shard-pool threads, the cluster
    client's RTT path) and snapshotters (telemetry readers) hold
    different outer locks, and iterating a ``deque`` while another
    thread appends raises ``RuntimeError`` — so reads and writes
    serialize on an internal lock here.
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._samples: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def record(self, latency_s: float) -> None:
        with self._lock:
            self._samples.append(latency_s)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentiles(self, *points: float) -> dict[str, float]:
        """``{"p50": ..., "p99_9": ...}`` over the current window
        (NaN-free: an empty window reports zeros so snapshots stay
        JSON-friendly).  Fractional points keep their fraction in the
        key — ``percentiles(99, 99.9)`` yields distinct ``"p99"`` and
        ``"p99_9"`` entries."""
        with self._lock:
            if not self._samples:
                return {_point_label(p): 0.0 for p in points}
            arr = np.array(self._samples, dtype=float)
        values = np.percentile(arr, points)
        return {_point_label(p): float(v) for p, v in zip(points, values)}

    def summary(self) -> dict:
        """The standard dashboard digest of one window: p50/p99/p99.9.

        Shared by deployment latency snapshots and the cluster client's
        per-shard RTT reporting, so every latency-shaped number in
        telemetry reads the same way.  p99.9 is in the standard digest
        because tail SLOs are where the paper's batching trade-off
        actually bites — and it must not collide with p99 (see
        :func:`_point_label`).
        """
        pct = self.percentiles(50, 99, 99.9)
        return {
            "p50": round(pct["p50"], 6),
            "p99": round(pct["p99"], 6),
            "p99_9": round(pct["p99_9"], 6),
            "samples": len(self),
        }


class RateWindow:
    """Sliding-window event rate: events per second over the recent past.

    The lifetime ``products / uptime`` quotient answers "how much work
    has this deployment ever done" but decays toward zero the moment
    traffic stops — a deployment idle for an hour reports ~0 rps
    forever, which is useless to an adaptive controller that needs the
    *current* arrival rate.  This window answers "how fast right now":
    events are counted into coarse time buckets (1 s by default) and
    the rate is the bucket sum over the window span, so memory is
    O(window/bucket) regardless of traffic volume.

    Thread-safe; the clock is injectable (tests drive a fake, so rate
    assertions never race real time).  Until a full window has elapsed
    since construction the divisor is the elapsed time instead, so a
    young window reports its true rate rather than an underestimate.
    """

    def __init__(
        self,
        window_s: float = 30.0,
        bucket_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if not 0 < bucket_s <= window_s:
            raise ValueError(
                f"bucket_s must be in (0, {window_s}], got {bucket_s}"
            )
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self._span = max(1, int(round(self.window_s / self.bucket_s)))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: deque[list[float]] = deque()  # [bucket_index, count]
        self._started = clock()
        self.total = 0

    def _trim(self, index: int) -> None:
        cutoff = index - self._span
        while self._buckets and self._buckets[0][0] <= cutoff:
            self._buckets.popleft()

    def record(self, count: int = 1) -> None:
        now = self._clock()
        index = int(now / self.bucket_s)
        with self._lock:
            if self._buckets and self._buckets[-1][0] == index:
                self._buckets[-1][1] += count
            else:
                self._buckets.append([index, count])
                self._trim(index)
            self.total += int(count)

    def rate(self) -> float:
        """Events per second over the window (0.0 when quiet)."""
        now = self._clock()
        with self._lock:
            self._trim(int(now / self.bucket_s))
            counted = sum(c for _, c in self._buckets)
            horizon = min(
                self.window_s, max(now - self._started, self.bucket_s)
            )
        return counted / horizon


class DeploymentTelemetry:
    """Counters and latency stats for one deployed matrix.

    Thread-safe; shared by the asyncio submit path (loop thread), the
    shard executor threads, and synchronous ``run_stream`` rollouts.
    """

    def __init__(
        self,
        max_batch: int = 64,
        window: int = 4096,
        max_delay_s: float | None = None,
        rate_window_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_batch = max_batch
        # The micro-batcher flush deadline this deployment is actually
        # running with; surfaced in snapshots so an operator reading a
        # dashboard can see the configured latency/throughput trade-off
        # next to the measured percentiles.
        self.max_delay_s = max_delay_s
        self._lock = threading.Lock()
        self._latency = LatencyWindow(window)
        self._clock = clock
        self._started = clock()
        # Windowed rates alongside the lifetime quotient: the lifetime
        # ``products / uptime`` number never recovers from an idle
        # stretch, while the adaptive-batching controller needs the
        # *current* arrival rate to pick a flush deadline.
        self._arrivals = RateWindow(window_s=rate_window_s, clock=clock)
        self._completions = RateWindow(window_s=rate_window_s, clock=clock)
        self.requests = 0
        self.products = 0
        self.batches = 0
        self.lanes = 0
        # Hardware batches per *effective* engine: an "auto" deployment
        # serves fused traffic until a fault campaign flips it to the
        # gate-level engine, and an operator should be able to see both
        # the current choice and the history on the dashboard.  Fused
        # batches arrive dtype-qualified ("fused:float32" /
        # "fused:float64" / "fused:int64" / "fused:object" /
        # "fused:mixed") so the dashboard also shows which compute dtype
        # the fused fold ran in.
        self.engine_batches: dict[str, int] = {}
        self.effective_engine: str | None = None
        # Zero-downtime matrix swaps this deployment has been through —
        # a dashboard's tell that latency blips line up with rollouts.
        self.swaps = 0
        # Overload accounting: requests refused rather than served.
        # ``sheds`` is the bounded-queue rejections (QueueFull),
        # ``quota_rejections`` the per-tenant token-bucket refusals,
        # ``expired`` the admitted requests whose deadline ran out
        # before execution (dropped at flush or refused by a shard
        # server).  Together with ``requests`` these reconcile against
        # offered load exactly: arrivals == requests + sheds +
        # quota_rejections + expired (+ still in flight).
        self.sheds = 0
        self.quota_rejections = 0
        self.expired = 0
        self._shed_by_tenant: dict[str, dict[str, int]] = {}

    def record_arrival(self, count: int = 1) -> None:
        """Requests *offered* (called at submit time, before queueing).

        Feeds the windowed arrival rate — the load signal an adaptive
        batching controller reacts to, distinct from the completion
        rate when the service is falling behind.
        """
        self._arrivals.record(count)

    def record_request(self, latency_s: float) -> None:
        """One request completed end to end (submit to result)."""
        with self._lock:
            self.requests += 1
            self.products += 1
            self._latency.record(latency_s)
        self._completions.record(1)

    def record_products(self, count: int) -> None:
        """Products completed outside the request path (stream rollouts)."""
        with self._lock:
            self.products += int(count)
        self._completions.record(int(count))

    def record_batch(self, lanes: int, engine: str | None = None) -> None:
        """One hardware batch dispatched with ``lanes`` lanes filled.

        ``engine`` is the *effective* engine the batch executed on (the
        resolved value of an ``"auto"`` deployment), recorded per batch.
        Fused execution reports the variant-qualified label
        (``fused:<variant>`` from
        :meth:`~repro.serve.shards.ShardedMultiplier.executor_label`);
        this class treats all labels as opaque strings.
        """
        with self._lock:
            self.batches += 1
            self.lanes += int(lanes)
            if engine is not None:
                self.effective_engine = engine
                self.engine_batches[engine] = (
                    self.engine_batches.get(engine, 0) + 1
                )

    def record_swap(self) -> None:
        """One zero-downtime matrix swap flipped routing."""
        with self._lock:
            self.swaps += 1

    _SHED_REASONS = ("queue_full", "quota", "expired")

    def record_shed(self, reason: str, tenant: str = "default") -> None:
        """One request refused: ``"queue_full"``, ``"quota"``, or
        ``"expired"``.

        Counted per tenant so a dashboard can tell "the fleet is
        saturated" (sheds spread across tenants) from "one tenant is
        over quota" at a glance.
        """
        if reason not in self._SHED_REASONS:
            raise ValueError(
                f"unknown shed reason {reason!r}; expected one of "
                f"{self._SHED_REASONS}"
            )
        with self._lock:
            if reason == "queue_full":
                self.sheds += 1
            elif reason == "quota":
                self.quota_rejections += 1
            else:
                self.expired += 1
            per = self._shed_by_tenant.setdefault(
                tenant, {r: 0 for r in self._SHED_REASONS}
            )
            per[reason] += 1

    @property
    def uptime_s(self) -> float:
        return self._clock() - self._started

    def snapshot(self) -> dict:
        """Point-in-time metrics dict (JSON-serializable)."""
        with self._lock:
            elapsed = max(self.uptime_s, 1e-9)
            occupancy = (
                self.lanes / (self.batches * self.max_batch)
                if self.batches
                else 0.0
            )
            return {
                "uptime_s": round(elapsed, 6),
                "batching": {
                    "max_batch": self.max_batch,
                    "max_delay_s": self.max_delay_s,
                },
                "engine": {
                    "effective": self.effective_engine,
                    "batches": dict(self.engine_batches),
                },
                "requests": self.requests,
                "products": self.products,
                "batches": self.batches,
                "swaps": self.swaps,
                # Lifetime offered load; with the admission block below
                # this reconciles exactly: arrivals == requests + sheds
                # + quota_rejections + expired (+ in flight).
                "arrivals": self._arrivals.total,
                "admission": {
                    "sheds": self.sheds,
                    "quota_rejections": self.quota_rejections,
                    "expired": self.expired,
                    "per_tenant": {
                        tenant: dict(per)
                        for tenant, per in self._shed_by_tenant.items()
                    },
                },
                # Lifetime average — kept for continuity, but it decays
                # toward zero over any idle stretch and never recovers.
                "throughput_rps": round(self.products / elapsed, 3),
                # Windowed rates: what's happening *now*.  These are the
                # signals the adaptive controller and the fleet rollup
                # (repro.obs.metrics) actually consume.
                "throughput_rps_windowed": round(self._completions.rate(), 3),
                "arrival_rate_rps": round(self._arrivals.rate(), 3),
                "latency_s": self._latency.summary(),
                "lane_occupancy": round(occupancy, 4),
            }
