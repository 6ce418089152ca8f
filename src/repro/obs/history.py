"""Fleet metrics over time: a bounded ring of collected documents.

:meth:`FleetMetrics.collect <repro.obs.metrics.FleetMetrics.collect>`
answers "what is the fleet doing *right now*"; what the SLO engine
(:mod:`repro.obs.slo`) needs is the *time dimension* — how counters,
rates, and percentiles evolve.  :class:`MetricsHistory` is that dimension:

* a **bounded ring** of timestamped collection documents (default 512
  samples), filled by explicit :meth:`sample` calls or by a background
  thread (:meth:`start` / :meth:`close`, clean daemon lifecycle);
* **windowed queries** over the ring — :meth:`rate` / :meth:`delta`
  turn any monotonic counter (dotted path into the document:
  ``"fleet.shed.queue_full"``, ``"fleet.servers.expired_skips"``,
  ``"fleet.engine_batches.fused:float32"``) into an increase or
  per-second rate over a trailing window, :meth:`counter_rates` does it
  for every numeric counter under ``fleet`` at once, and
  :meth:`percentile_series` extracts a deployment latency quantile as a
  timestamped series;
* **persistence** — :meth:`dump_jsonl` / :meth:`load_jsonl` write and
  reload the ring as JSONL through the artifact store's atomic-write
  discipline (:func:`repro.core.serialize.atomic_write_text`), so a
  history survives a process restart and an incident's window can be
  archived next to the flight-recorder dump.

The clock is injectable (tests drive a fake, so rate math never races
real time), and listeners registered via ``on_sample=`` run after every
sample — which is how the SLO engine evaluates its burn rules on every
fresh collection without a second polling loop.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.core.serialize import atomic_write_text

__all__ = ["MetricsHistory"]


def _lookup(doc: Any, path: str) -> Any:
    """Dotted-path lookup (``"fleet.shed.queue_full"``); None if absent.

    Path segments are dict keys only — engine labels like
    ``fused:float32`` contain no dots, so segments never need escaping.
    """
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _numeric_leaves(node: Any, prefix: str, out: dict[str, float]) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
        return
    if isinstance(node, dict):
        for key, value in node.items():
            _numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key), out)


class MetricsHistory:
    """A sampler turning one-shot collections into a queryable timeline.

    Args:
        metrics: anything with a ``collect() -> dict`` method — a
            :class:`~repro.obs.metrics.FleetMetrics` in practice.
        capacity: ring size in samples; the oldest falls off.
        clock: timestamp source for samples and window math (default
            ``time.time`` — wall clock, so dumped histories line up
            with flight-recorder events; tests inject a fake).
        on_sample: callables invoked as ``fn(entry)`` after each sample
            lands in the ring (``entry`` is ``{"ts": ..., "doc": ...}``).
    """

    def __init__(
        self,
        metrics: Any,
        capacity: int = 512,
        clock: Callable[[], float] = time.time,
        on_sample: Iterable[Callable[[dict[str, Any]], None]] = (),
    ) -> None:
        if capacity < 2:
            # One sample has no deltas; a history that cannot answer its
            # own queries is a configuration error, not a degraded mode.
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.metrics = metrics
        self.capacity = int(capacity)
        self._clock = clock
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._listeners: list[Callable[[dict[str, Any]], None]] = list(on_sample)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Background-loop resilience accounting: a scrape that raises
        # (fleet mid-restart) must not kill the sampler thread, but it
        # must not vanish either.
        self.sample_errors = 0
        self.last_error: str | None = None

    # -- sampling ------------------------------------------------------------

    def add_listener(self, fn: Callable[[dict[str, Any]], None]) -> None:
        self._listeners.append(fn)

    def sample(self) -> dict[str, Any]:
        """Collect once, append to the ring, notify listeners.

        Returns the ring entry (``{"ts", "doc"}``).  Collection or
        listener exceptions propagate to the caller here; the
        background loop wraps this and survives them instead.
        """
        doc = self.metrics.collect()
        entry = {"ts": float(self._clock()), "doc": doc}
        with self._lock:
            self._ring.append(entry)
        for fn in self._listeners:
            fn(entry)
        return entry

    def start(self, interval_s: float) -> "MetricsHistory":
        """Sample every ``interval_s`` seconds on a daemon thread.

        Idempotent while running; :meth:`close` stops and joins.  A
        failing collection is counted (``sample_errors`` /
        ``last_error``) and the loop continues — a fleet mid-restart
        must not kill its own history.
        """
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.is_set():
                try:
                    self.sample()
                except Exception as exc:  # noqa: BLE001 - loop must survive
                    self.sample_errors += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"
                self._stop.wait(interval_s)

        self._thread = threading.Thread(
            target=_loop, name="repro-metrics-history", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the background sampler and join it; idempotent."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)

    def __enter__(self) -> "MetricsHistory":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the timeline --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def samples(self, window_s: float | None = None) -> list[dict[str, Any]]:
        """Ring entries oldest-first; with ``window_s``, only those
        whose timestamp is within the trailing window of *now*."""
        with self._lock:
            entries = list(self._ring)
        if window_s is None:
            return entries
        cutoff = float(self._clock()) - float(window_s)
        return [e for e in entries if e["ts"] >= cutoff]

    def latest(self) -> dict[str, Any] | None:
        with self._lock:
            return self._ring[-1] if self._ring else None

    @staticmethod
    def value(doc: dict[str, Any], path: str) -> Any:
        """Dotted-path lookup into one collected document."""
        return _lookup(doc, path)

    def series(
        self, path: str, window_s: float | None = None
    ) -> list[tuple[float, float]]:
        """``[(ts, value), ...]`` of a numeric dotted path over the
        window; samples where the path is absent are skipped."""
        out: list[tuple[float, float]] = []
        for entry in self.samples(window_s):
            value = _lookup(entry["doc"], path)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.append((entry["ts"], float(value)))
        return out

    def delta(self, path: str, window_s: float | None = None) -> float | None:
        """Counter increase over the window (clamped at 0 across
        resets); ``None`` with fewer than two samples carrying it."""
        points = self.series(path, window_s)
        if len(points) < 2:
            return None
        return max(0.0, points[-1][1] - points[0][1])

    def rate(self, path: str, window_s: float | None = None) -> float | None:
        """Counter increase per second over the window, or ``None``.

        The denominator is the samples' actual timestamp span, not the
        nominal window — a sampler that hiccuped reports a true rate,
        not one diluted by the gap it never observed.
        """
        points = self.series(path, window_s)
        if len(points) < 2:
            return None
        span = points[-1][0] - points[0][0]
        if span <= 0:
            return None
        return max(0.0, points[-1][1] - points[0][1]) / span

    def counter_rates(
        self, window_s: float | None = None, root: str = "fleet"
    ) -> dict[str, float]:
        """Per-second increase of every numeric leaf under ``root``.

        One call covers all the counter families at once — sheds,
        server ``expired_skips`` / ``auth_failures`` / ``errors``,
        revivals, per-variant ``engine_batches.*`` — keyed by dotted
        path (``"fleet.shed.queue_full"``).  Gauges that decreased
        clamp to 0.0 (this is counter math; read gauges via
        :meth:`series`).
        """
        entries = self.samples(window_s)
        if len(entries) < 2:
            return {}
        first, last = entries[0], entries[-1]
        span = last["ts"] - first["ts"]
        if span <= 0:
            return {}
        start: dict[str, float] = {}
        end: dict[str, float] = {}
        _numeric_leaves(_lookup(first["doc"], root), root, start)
        _numeric_leaves(_lookup(last["doc"], root), root, end)
        return {
            path: max(0.0, end[path] - start.get(path, 0.0)) / span
            for path in sorted(end)
        }

    def percentile_series(
        self,
        deployment: str | None = None,
        point: str = "p99",
        window_s: float | None = None,
    ) -> list[tuple[float, float]]:
        """A deployment latency quantile as a timestamped series.

        ``deployment=None`` takes the *worst* (max) quantile across all
        deployments per sample — the conservative reading a latency SLO
        wants.  ``point`` is a snapshot key (``"p50"`` / ``"p99"`` /
        ``"p99_9"``).
        """
        out: list[tuple[float, float]] = []
        for entry in self.samples(window_s):
            deployments = _lookup(entry["doc"], "service.deployments")
            if not isinstance(deployments, dict):
                continue
            if deployment is not None:
                snaps = [deployments.get(deployment)]
            else:
                snaps = list(deployments.values())
            values = [
                float(snap["latency_s"][point])
                for snap in snaps
                if isinstance(snap, dict) and point in snap.get("latency_s", {})
            ]
            if values:
                out.append((entry["ts"], max(values)))
        return out

    # -- persistence ---------------------------------------------------------

    def dump_jsonl(self, path: str | pathlib.Path) -> int:
        """Write the ring as JSONL (one sample per line, oldest first)
        with the artifact store's private-tmp + ``os.replace``
        discipline; returns the number of samples written."""
        entries = self.samples()
        text = "".join(
            json.dumps(entry, sort_keys=True, default=str) + "\n"
            for entry in entries
        )
        atomic_write_text(path, text)
        return len(entries)

    def load_jsonl(self, path: str | pathlib.Path) -> int:
        """Append a dumped history's samples back into the ring.

        Entries must carry ``ts`` and ``doc``; a malformed line raises
        ``ValueError`` (a torn file is impossible by construction — the
        dump is atomic — so damage means the wrong file).  Returns the
        number of samples loaded; the ring cap still applies.
        """
        loaded = 0
        for lineno, line in enumerate(
            pathlib.Path(path).read_text().splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON history sample: {exc}"
                ) from exc
            if (
                not isinstance(entry, dict)
                or "ts" not in entry
                or not isinstance(entry.get("doc"), dict)
            ):
                raise ValueError(
                    f"{path}:{lineno}: history samples need 'ts' and 'doc'"
                )
            entry["ts"] = float(entry["ts"])
            with self._lock:
                self._ring.append(entry)
            loaded += 1
        return loaded

    def stats(self) -> dict[str, Any]:
        """Sampler-health digest (ring occupancy, background errors)."""
        with self._lock:
            size = len(self._ring)
            newest = self._ring[-1]["ts"] if self._ring else None
            oldest = self._ring[0]["ts"] if self._ring else None
        return {
            "samples": size,
            "capacity": self.capacity,
            "span_s": (
                round(newest - oldest, 6) if size >= 2 else 0.0
            ),
            "running": self._thread is not None and self._thread.is_alive(),
            "sample_errors": self.sample_errors,
            "last_error": self.last_error,
        }
