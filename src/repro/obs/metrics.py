"""Fleet metrics: one merged document, one scrape format.

The stack already measures a lot — every deployment's
:class:`~repro.serve.telemetry.DeploymentTelemetry` snapshot, every
shard link's health/RTT block, every server's STATS counters — but each
lives behind a different call on a different object.  This module
merges them into **one JSON document per collection**, which is what the
SLO engine reads and what a dashboard wants to poll:

* :class:`FleetMetrics` — bind a :class:`~repro.serve.MatMulService`
  (the client-side view: deployments, batchers, shard links, compile
  cache, tracer/recorder occupancy) and optionally the fleet's
  endpoints (the server-side view: per-server STATS scraped over
  throwaway connections, dead hosts degrading to error entries).
  :meth:`FleetMetrics.collect` returns the merged document with a
  fleet-level rollup (total executes/loads, per-engine batch mix,
  healthy-host count) computed across both sides.
* :func:`to_prometheus` — render any collected document as
  Prometheus text exposition (version 0.0.4), dependency-free: the
  container has no prometheus client, and the format is simple enough
  that a writer is smaller than the dependency gate would be.  Metric
  names are stable (``repro_*``); labels carry deployment, shard,
  server, and engine identities.

``python -m repro.obs.top`` (:mod:`repro.obs.top`) is the terminal
consumer of the same documents.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

__all__ = ["FleetMetrics", "to_prometheus"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import MatMulService


class FleetMetrics:
    """Merge client-side telemetry and scraped server STATS (see module).

    Args:
        service: the serving side whose deployments to report (optional
            — a pure scraper passes only endpoints).
        endpoints: ``[(host, port), ...]`` fleet servers to scrape for
            STATS; defaults to the service's endpoints when it has any.
        timeout_s: per-server scrape timeout (scrapes use throwaway
            connections, so a dead host costs one timeout and an error
            entry, never a wedged collection).
        auth_secret: shared secret for fleets whose servers demand the
            HMAC handshake; defaults to the service's secret when it
            has one.
    """

    def __init__(
        self,
        service: "MatMulService | None" = None,
        endpoints: list[tuple[str, int]] | None = None,
        timeout_s: float = 2.0,
        auth_secret: str | None = None,
    ) -> None:
        if service is None and not endpoints:
            raise ValueError(
                "FleetMetrics needs a service, endpoints, or both"
            )
        self.service = service
        if endpoints is None and service is not None and service.endpoints:
            endpoints = list(service.endpoints)
        if auth_secret is None and service is not None:
            auth_secret = getattr(service, "auth_secret", None)
        self.endpoints = [(str(h), int(p)) for h, p in endpoints] if endpoints else []
        self.timeout_s = float(timeout_s)
        self.auth_secret = auth_secret

    def scrape_servers(self) -> list[dict[str, Any]]:
        """Per-server STATS (``{"endpoint": ..., "error": ...}`` for dead
        hosts); empty list when no endpoints are configured."""
        if not self.endpoints:
            return []
        # Imported lazily so a purely local service can collect metrics
        # without the cluster subsystem in its import graph.
        from repro.cluster.client import ClusterClient

        client = ClusterClient(
            self.endpoints,
            timeout_s=self.timeout_s,
            auth_secret=self.auth_secret,
        )
        return client.fleet_stats()

    def collect(self) -> dict[str, Any]:
        """One merged metrics document (JSON-serializable).

        When the service carries a stage profiler and/or scraped
        servers report one in STATS, their snapshots are merged by
        addition into a fleet-wide ``"profile"`` section (client-side
        stages plus every host's ``server_execute`` in one histogram
        set — see :class:`repro.obs.profile.StageProfiler`).
        """
        doc: dict[str, Any] = {"collected_at": round(time.time(), 6)}
        if self.service is not None:
            doc["service"] = self.service.telemetry()
        servers = self.scrape_servers()
        if self.endpoints:
            doc["servers"] = servers
        doc["fleet"] = self._rollup(doc.get("service"), servers)
        snapshots = []
        profiler = getattr(self.service, "profiler", None)
        if profiler is not None:
            snapshots.append(profiler.snapshot())
        snapshots.extend(
            stats["profile"] for stats in servers if "profile" in stats
        )
        if snapshots:
            from repro.obs.profile import StageProfiler

            merged = StageProfiler.merge(snapshots)
            if merged is not None:
                doc["profile"] = merged
        return doc

    @staticmethod
    def _rollup(
        service: dict[str, Any] | None, servers: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Fleet-level aggregates across deployments and servers."""
        deployments = (service or {}).get("deployments", {})
        engine_batches: dict[str, int] = {}
        requests = products = batches = arrivals = 0
        sheds = quota_rejections = expired = 0
        arrival = served = 0.0
        shard_links = healthy_links = fallbacks = revivals = 0
        for snap in deployments.values():
            requests += snap.get("requests", 0)
            products += snap.get("products", 0)
            batches += snap.get("batches", 0)
            arrivals += snap.get("arrivals", 0)
            admission = snap.get("admission", {})
            sheds += admission.get("sheds", 0)
            quota_rejections += admission.get("quota_rejections", 0)
            expired += admission.get("expired", 0)
            arrival += snap.get("arrival_rate_rps", 0.0)
            served += snap.get("throughput_rps_windowed", 0.0)
            for engine, count in snap.get("engine", {}).get("batches", {}).items():
                engine_batches[engine] = engine_batches.get(engine, 0) + count
            for shard in snap.get("shards", {}).get("per_shard", []):
                if "healthy" in shard:
                    shard_links += 1
                    healthy_links += bool(shard["healthy"])
                    fallbacks += shard.get("local_fallbacks", 0)
                    revivals += shard.get("probe", {}).get("auto_revivals", 0)
        server_engine: dict[str, int] = {}
        executes = loads = 0
        errors = expired_skips = auth_failures = 0
        reachable = 0
        for stats in servers:
            if "error" in stats:
                continue
            reachable += 1
            executes += stats.get("executes", 0)
            loads += stats.get("loads", 0)
            errors += stats.get("errors", 0)
            expired_skips += stats.get("expired_skips", 0)
            auth_failures += stats.get("auth_failures", 0)
            for engine, count in stats.get("engine_batches", {}).items():
                server_engine[engine] = server_engine.get(engine, 0) + count
        return {
            "deployments": len(deployments),
            "requests": requests,
            "products": products,
            "batches": batches,
            # Lifetime offered load: the denominator availability SLOs
            # delta against (arrivals == requests + sheds + quota +
            # expired for a quiesced deployment).
            "arrivals": arrivals,
            "arrival_rate_rps": round(arrival, 3),
            "throughput_rps_windowed": round(served, 3),
            "engine_batches": engine_batches,
            "shed": {
                "queue_full": sheds,
                "quota": quota_rejections,
                "expired": expired,
            },
            "remote_links": {
                "total": shard_links,
                "healthy": healthy_links,
                "local_fallbacks": fallbacks,
                # Automatic link revivals (probe- or traffic-driven):
                # a counter family MetricsHistory turns into a rate.
                "revivals": revivals,
            },
            "servers": {
                "configured": len(servers),
                "reachable": reachable,
                "executes": executes,
                "loads": loads,
                "errors": errors,
                "expired_skips": expired_skips,
                "auth_failures": auth_failures,
                "engine_batches": server_engine,
            },
        }


# -- Prometheus text exposition ----------------------------------------------


def _escape(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Exposition:
    """Accumulates samples grouped per metric, then renders the text."""

    def __init__(self) -> None:
        self._metrics: dict[str, tuple[str, str, list[str]]] = {}

    def add(
        self,
        name: str,
        mtype: str,
        help_text: str,
        value: float | int,
        **labels: Any,
    ) -> None:
        if name not in self._metrics:
            self._metrics[name] = (mtype, help_text, [])
        label_text = ""
        if labels:
            body = ",".join(
                f'{key}="{_escape(val)}"' for key, val in sorted(labels.items())
            )
            label_text = "{" + body + "}"
        rounded = round(float(value), 9)
        rendered = repr(int(rounded)) if rounded == int(rounded) else repr(rounded)
        self._metrics[name][2].append(f"{name}{label_text} {rendered}")

    def add_histogram(
        self,
        name: str,
        help_text: str,
        edges: list[float],
        counts: list[int],
        total_sum: float,
        total_count: int,
        **labels: Any,
    ) -> None:
        """One Prometheus histogram: cumulative ``le`` buckets (ending in
        ``+Inf``) plus ``_sum`` / ``_count``, all samples registered
        under the base ``name`` so one TYPE/HELP header covers them —
        the shape ``histogram_quantile()`` requires."""
        if name not in self._metrics:
            self._metrics[name] = ("histogram", help_text, [])
        samples = self._metrics[name][2]

        def label_text(extra: dict[str, Any]) -> str:
            merged = {**labels, **extra}
            body = ",".join(
                f'{key}="{_escape(val)}"' for key, val in sorted(merged.items())
            )
            return "{" + body + "}" if body else ""

        cumulative = 0
        for edge, count in zip(edges, counts):
            cumulative += int(count)
            samples.append(
                f"{name}_bucket{label_text({'le': repr(float(edge))})} {cumulative}"
            )
        samples.append(
            f"{name}_bucket{label_text({'le': '+Inf'})} {int(total_count)}"
        )
        rounded = round(float(total_sum), 9)
        rendered = repr(int(rounded)) if rounded == int(rounded) else repr(rounded)
        samples.append(f"{name}_sum{label_text({})} {rendered}")
        samples.append(f"{name}_count{label_text({})} {int(total_count)}")

    def render(self) -> str:
        lines: list[str] = []
        for name, (mtype, help_text, samples) in self._metrics.items():
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {mtype}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"


def to_prometheus(doc: dict[str, Any]) -> str:
    """Render one :meth:`FleetMetrics.collect` document as Prometheus
    text exposition (format 0.0.4).

    Counter samples map to ``*_total`` names, point-in-time values to
    gauges, and latency digests to quantile-labelled gauge families —
    the conventional shape a Prometheus (or victoria/grafana-agent)
    scraper expects from a ``/metrics`` page.
    """
    exp = _Exposition()
    service = doc.get("service", {})
    for name, snap in service.get("deployments", {}).items():
        labels = {"deployment": name}
        exp.add(
            "repro_uptime_seconds", "gauge",
            "Deployment uptime.", snap.get("uptime_s", 0.0), **labels,
        )
        exp.add(
            "repro_requests_total", "counter",
            "Requests completed through submit().", snap.get("requests", 0), **labels,
        )
        exp.add(
            "repro_products_total", "counter",
            "Vector products computed.", snap.get("products", 0), **labels,
        )
        exp.add(
            "repro_batches_total", "counter",
            "Hardware batches dispatched.", snap.get("batches", 0), **labels,
        )
        exp.add(
            "repro_swaps_total", "counter",
            "Zero-downtime matrix swaps.", snap.get("swaps", 0), **labels,
        )
        exp.add(
            "repro_throughput_rps", "gauge",
            "Lifetime products per second.", snap.get("throughput_rps", 0.0), **labels,
        )
        exp.add(
            "repro_throughput_windowed_rps", "gauge",
            "Windowed products per second.",
            snap.get("throughput_rps_windowed", 0.0), **labels,
        )
        exp.add(
            "repro_arrival_rate_rps", "gauge",
            "Windowed request arrival rate.",
            snap.get("arrival_rate_rps", 0.0), **labels,
        )
        exp.add(
            "repro_lane_occupancy", "gauge",
            "Mean fraction of batch lanes filled.",
            snap.get("lane_occupancy", 0.0), **labels,
        )
        latency = snap.get("latency_s", {})
        for key, quantile in (("p50", "0.5"), ("p99", "0.99"), ("p99_9", "0.999")):
            if key in latency:
                exp.add(
                    "repro_request_latency_seconds", "gauge",
                    "End-to-end request latency quantiles.",
                    latency[key], quantile=quantile, **labels,
                )
        admission = snap.get("admission", {})
        if admission:
            for reason, count in (
                ("queue_full", admission.get("sheds", 0)),
                ("quota", admission.get("quota_rejections", 0)),
                ("expired", admission.get("expired", 0)),
            ):
                exp.add(
                    "repro_requests_shed_total", "counter",
                    "Requests shed by admission control or deadline expiry.",
                    count, reason=reason, **labels,
                )
            for tenant, per_reason in admission.get("per_tenant", {}).items():
                for reason, count in per_reason.items():
                    exp.add(
                        "repro_tenant_requests_shed_total", "counter",
                        "Per-tenant shed breakdown by reason.",
                        count, tenant=tenant, reason=reason, **labels,
                    )
        for engine, count in snap.get("engine", {}).get("batches", {}).items():
            exp.add(
                "repro_engine_batches_total", "counter",
                "Hardware batches per resolved engine.",
                count, engine=engine, **labels,
            )
        for shard in snap.get("shards", {}).get("per_shard", []):
            shard_labels = {**labels, "shard": shard.get("shard", 0)}
            exp.add(
                "repro_shard_busy_seconds", "counter",
                "Cumulative shard execution time.",
                shard.get("busy_s", 0.0), **shard_labels,
            )
            exp.add(
                "repro_shard_calls_total", "counter",
                "Batches executed by the shard.",
                shard.get("calls", 0), **shard_labels,
            )
            if "healthy" in shard:
                exp.add(
                    "repro_shard_healthy", "gauge",
                    "1 when the shard's remote link is healthy.",
                    int(bool(shard["healthy"])),
                    endpoint=shard.get("endpoint", ""), **shard_labels,
                )
                exp.add(
                    "repro_shard_local_fallbacks_total", "counter",
                    "Batches served locally because the link was down.",
                    shard.get("local_fallbacks", 0), **shard_labels,
                )
    cache = service.get("cache")
    if cache:
        for key in ("hits", "kernel_hits", "disk_hits", "misses"):
            exp.add(
                "repro_compile_cache_lookups_total", "counter",
                "Compile cache lookups by outcome.",
                cache.get(key, 0), outcome=key,
            )
    obs = service.get("observability", {})
    if "tracer" in obs:
        exp.add(
            "repro_tracer_spans_total", "counter",
            "Spans recorded by the service tracer.",
            obs["tracer"].get("recorded", 0),
        )
    if "flight_recorder" in obs:
        exp.add(
            "repro_flight_recorder_events_total", "counter",
            "Events recorded by the flight recorder.",
            obs["flight_recorder"].get("recorded", 0),
        )
    for stats in doc.get("servers", []):
        endpoint = stats.get("endpoint", "")
        if "error" in stats:
            exp.add(
                "repro_server_up", "gauge",
                "1 when the shard server answered STATS.", 0, endpoint=endpoint,
            )
            continue
        labels = {"endpoint": endpoint, "server": stats.get("name", "")}
        exp.add(
            "repro_server_up", "gauge",
            "1 when the shard server answered STATS.", 1, endpoint=endpoint,
        )
        exp.add(
            "repro_server_uptime_seconds", "gauge",
            "Shard server uptime.", stats.get("uptime_s", 0.0), **labels,
        )
        exp.add(
            "repro_server_executes_total", "counter",
            "Batches executed by the server.", stats.get("executes", 0), **labels,
        )
        exp.add(
            "repro_server_loads_total", "counter",
            "Kernel LOADs answered by the server.", stats.get("loads", 0), **labels,
        )
        exp.add(
            "repro_server_errors_total", "counter",
            "Request errors answered by the server.", stats.get("errors", 0), **labels,
        )
        exp.add(
            "repro_server_expired_skips_total", "counter",
            "Batches skipped because their deadline budget expired in queue.",
            stats.get("expired_skips", 0), **labels,
        )
        exp.add(
            "repro_server_auth_failures_total", "counter",
            "Connections rejected by the HELLO auth handshake.",
            stats.get("auth_failures", 0), **labels,
        )
        for engine, count in stats.get("engine_batches", {}).items():
            exp.add(
                "repro_server_engine_batches_total", "counter",
                "Server batches per resolved engine.", count,
                engine=engine, **labels,
            )
    fleet = doc.get("fleet", {})
    if fleet:
        links = fleet.get("remote_links", {})
        exp.add(
            "repro_fleet_remote_links", "gauge",
            "Remote shard links across all deployments.", links.get("total", 0),
        )
        exp.add(
            "repro_fleet_remote_links_healthy", "gauge",
            "Healthy remote shard links.", links.get("healthy", 0),
        )
        exp.add(
            "repro_fleet_servers_reachable", "gauge",
            "Fleet servers that answered the scrape.",
            fleet.get("servers", {}).get("reachable", 0),
        )
        for reason, count in fleet.get("shed", {}).items():
            exp.add(
                "repro_fleet_requests_shed_total", "counter",
                "Requests shed across all deployments, by reason.",
                count, reason=reason,
            )
    profile = doc.get("profile", {})
    for entry in profile.get("stages", []):
        exp.add_histogram(
            "repro_stage_duration_seconds",
            "Per-stage serving durations (fleet-merged histograms).",
            profile.get("edges", []),
            entry.get("counts", []),
            entry.get("sum", 0.0),
            entry.get("count", 0),
            stage=entry.get("stage", ""),
            variant=entry.get("variant", ""),
        )
    for status in doc.get("slo", []):
        slo_label = {"slo": status.get("slo", "")}
        exp.add(
            "repro_slo_error_budget_remaining", "gauge",
            "Fraction of the SLO error budget left over the slow window.",
            status.get("error_budget_remaining", 1.0), **slo_label,
        )
        for window in ("fast", "slow"):
            burn = status.get(f"burn_{window}")
            if burn is not None:
                exp.add(
                    "repro_slo_burn_rate", "gauge",
                    "Error-budget burn rate (error fraction / budget).",
                    burn, window=window, **slo_label,
                )
        exp.add(
            "repro_slo_firing", "gauge",
            "1 while the SLO's multi-window burn alert is firing.",
            int(bool(status.get("firing"))), **slo_label,
        )
    return exp.render()
