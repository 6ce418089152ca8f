"""Distributed request tracing: span records for the serve path.

One served request crosses four concurrency domains — the caller's
coroutine, the micro-batcher's coalescing loop, the shard executor's
worker threads, and (for remote backends) a fleet server on the far
side of a socket.  A latency number alone cannot say *where* a slow
request spent its time; the spans give that breakdown (queue wait,
coalesce, shard dispatch, wire, server execute).  This module is the
measurement substrate:

* :class:`Span` — one timed operation: ``trace_id`` (shared by every
  span of one request), ``span_id``, ``parent_id``, ``stage`` (a name
  from the taxonomy in ``docs/observability.md``), wall-clock start,
  duration, and a small free-form ``attrs`` dict.  Spans serialize to
  plain JSON dicts — which is also how server-side spans ride RESULT
  frames back to the client (:mod:`repro.cluster.protocol`).
* :class:`Tracer` — a bounded, thread-safe span collector.  Every span
  is recorded after the fact, from the one interval its boundary reads
  for all its sinks; a span whose children must parent on it allocates
  only its id up front.  A ``Tracer`` is *opt-in*: every serve-layer
  hook takes ``tracer=None`` and instruments nothing by default, so the
  untraced hot path pays only a ``None`` check
  (``benchmarks/bench_obs_overhead.py`` holds the traced path to <10%
  overhead on top of that).
* :func:`span_tree` — assemble a flat span list into parent/child
  trees, the form the tests and the flight-recorder dumps consume.

Trace context crosses boundaries explicitly — as a ``(trace_id,
span_id)`` pair threaded through call signatures and, across the wire,
as the optional ``"trace"`` field of an EXECUTE frame (protocol v3) —
never through thread-locals or contextvars: the batcher executes on
loop-pool threads and the cluster client on shard-pool threads, where
ambient context would silently fail to propagate.
"""

from __future__ import annotations

import itertools
import json
import secrets
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "span_tree",
    "tree_stages",
    "trace_meta",
]

#: Id generation: 16 hex chars for trace ids, 8 for span ids — small
#: enough to keep frame metas cheap, large enough that collisions
#: within one collector window are negligible.  Ids are allocated from
#: a per-process counter XOR'd with a random origin rather than drawn
#: fresh from ``secrets`` per span: bitwise-unique within the process
#: by construction, randomly offset across processes (same birthday
#: bound as 32 random bits, which is what ``token_hex(4)`` gave), and
#: ~5x cheaper — id generation is on the traced hot path, three ids
#: per served request.
_ID_MASK = 0xFFFFFFFF
_ID_BASE = secrets.randbits(32)
_TRACE_PREFIX = secrets.token_hex(4)  # pins trace ids to this process
_id_counter = itertools.count(secrets.randbits(24))


@dataclass(slots=True)
class SpanContext:
    """The propagatable identity of a span: what children parent onto."""

    trace_id: str
    span_id: str

    def to_meta(self) -> dict[str, str]:
        """The wire form: the ``"trace"`` field of an EXECUTE frame."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


def trace_meta(context: "SpanContext | None") -> dict[str, str] | None:
    """``context.to_meta()`` tolerant of ``None`` (untraced requests)."""
    return None if context is None else context.to_meta()


@dataclass(slots=True)
class Span:
    """One finished timed operation in a trace.

    ``start_s`` is wall-clock (``time.time``) so spans recorded on
    different hosts sort plausibly side by side; ``duration_s`` is
    measured with a monotonic clock at the recording site, so durations
    are exact even when wall clocks drift.  Tree structure relies only
    on ``parent_id`` links, never on timestamps.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    stage: str
    start_s: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (RESULT frames, flight-recorder dumps)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "stage": self.stage,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 9),
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Validated inverse of :meth:`to_dict`.

        Raises ``ValueError`` on structural garbage — a span arriving in
        a RESULT frame must never poison the collector with unusable
        records.
        """
        try:
            attrs = data.get("attrs", {})
            if not isinstance(attrs, dict):
                raise TypeError("attrs must be an object")
            parent = data.get("parent_id")
            return cls(
                trace_id=str(data["trace_id"]),
                span_id=str(data["span_id"]),
                parent_id=None if parent is None else str(parent),
                stage=str(data["stage"]),
                start_s=float(data["start_s"]),
                duration_s=float(data["duration_s"]),
                attrs=dict(attrs),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed span record: {data!r}") from exc


class Tracer:
    """Bounded, thread-safe span collector (see module docstring).

    Args:
        capacity: spans retained (oldest evicted first).  Bounded so an
            always-on tracer in a long-lived service is a window, not a
            leak; evictions are counted in :meth:`stats`.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0

    # -- id generation --------------------------------------------------------

    @staticmethod
    def new_trace_id() -> str:
        return _TRACE_PREFIX + format(next(_id_counter) & _ID_MASK, "08x")

    @staticmethod
    def new_span_id() -> str:
        return format((_ID_BASE ^ next(_id_counter)) & _ID_MASK, "08x")

    # -- recording -----------------------------------------------------------

    def record(self, span: Span) -> None:
        """Add one finished span (local or deserialized off the wire)."""
        with self._lock:
            self._spans.append(span)
            self.recorded += 1

    def record_many(self, spans: "list[Span]") -> None:
        """Add finished spans under one lock acquisition.

        The batcher records one ``queue_wait`` span per coalesced
        request at flush time — up to 64 at once on the event-loop
        thread, where per-span locking is measurable.
        """
        with self._lock:
            self._spans.extend(spans)
            self.recorded += len(spans)

    def adopt(self, records: Iterable[dict[str, Any]]) -> list[Span]:
        """Deserialize and record spans that rode a RESULT frame.

        Malformed records raise ``ValueError`` (the frame was already
        validated structurally; a bad span is a peer bug worth surfacing,
        not silently dropping).
        """
        adopted = [Span.from_dict(r) for r in records]
        self.record_many(adopted)
        return adopted

    # -- reading --------------------------------------------------------------

    def spans(self, trace_id: str | None = None) -> list[Span]:
        """Snapshot of retained spans, optionally one trace's."""
        with self._lock:
            out = list(self._spans)
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        return out

    def trace_ids(self) -> list[str]:
        """Distinct trace ids currently retained, oldest first."""
        seen: dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            buffered = len(self._spans)
            recorded = self.recorded
        return {
            "recorded": recorded,
            "buffered": buffered,
            "evicted": recorded - buffered,
            "capacity": self._spans.maxlen,
        }

    def to_jsonl(self, trace_id: str | None = None) -> str:
        """One span per line — the flight-recorder-adjacent dump form."""
        return "\n".join(
            json.dumps(s.to_dict(), sort_keys=True) for s in self.spans(trace_id)
        )


def span_tree(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Assemble spans into ``{"span": Span, "children": [...]}`` trees.

    Returns the list of roots (spans whose parent is ``None`` or not in
    the input — a truncated collector window must still assemble).
    Children are ordered by start time.  Typically fed one trace:
    ``span_tree(tracer.spans(trace_id))``.
    """
    spans = sorted(spans, key=lambda s: s.start_s)
    nodes = {s.span_id: {"span": s, "children": []} for s in spans}
    roots: list[dict[str, Any]] = []
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def tree_stages(tree: dict[str, Any]) -> set[str]:
    """Every stage name reachable from one :func:`span_tree` node."""
    stages = {tree["span"].stage}
    for child in tree["children"]:
        stages |= tree_stages(child)
    return stages
