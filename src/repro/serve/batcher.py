"""Asyncio micro-batching: filling the bit-plane lanes from live traffic.

The bit-plane engine (:mod:`repro.hwsim.fast`) advances up to 64 batch
lanes per ``uint64`` word in one cycle loop, so a 64-lane call costs
barely more than a 1-lane call — but reservoir serving traffic arrives
as *single vectors*.  :class:`MicroBatcher` closes that gap: concurrent
``submit`` calls are coalesced into one lane-packed execution, flushed
either when the batch fills (``max_batch`` lanes) or when the oldest
queued request has waited ``max_delay_s`` — the classic
throughput-versus-tail-latency deadline found in inference servers.

The batcher is engine-agnostic: it owns no circuit, only an ``execute``
callable mapping a ``(B, rows)`` array to ``(rows, label)`` — the
``(B, cols)`` results and the label naming the executor that ran the
batch — which the service binds to a
:class:`~repro.serve.shards.ShardedMultiplier`.
Execution runs in the event loop's default thread-pool executor so the
loop keeps accepting (and coalescing) requests while a batch simulates.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serve.admission import DeadlineExceeded

__all__ = ["BatcherStats", "MicroBatcher"]


@dataclass
class BatcherStats:
    """Counters describing how well traffic is filling the lanes."""

    requests: int = 0
    batches: int = 0
    lanes_dispatched: int = 0
    full_flushes: int = 0
    deadline_flushes: int = 0
    forced_flushes: int = 0
    # Requests dropped at flush time because their deadline had already
    # passed — work the client abandoned while it sat in the queue.
    expired: int = 0

    def mean_occupancy(self, max_batch: int) -> float:
        """Mean fraction of available lanes filled per dispatched batch."""
        if not self.batches:
            return 0.0
        return self.lanes_dispatched / (self.batches * max_batch)


class MicroBatcher:
    """Coalesce single-vector requests into lane-packed batch executions.

    Must be used from within a running asyncio event loop; one batcher
    serves one deployment.  ``submit`` preserves per-request results —
    request *k* of a coalesced batch receives row *k* of the batch
    result, so callers are oblivious to the batching.
    """

    def __init__(
        self,
        execute: Callable[..., tuple[np.ndarray, str]],
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        validate: Callable[[np.ndarray], None] | None = None,
        tracer=None,
        profiler=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self._execute = execute
        self._validate = validate
        # Optional repro.obs.tracing.Tracer.  When set and a submit
        # passes its request span, the batcher records each request's
        # queue_wait and one coalesce span per dispatched batch — and
        # calls ``execute`` with a ``trace=`` keyword (the coalesce
        # span's context) so the executor can hang shard spans under
        # it.  Untraced submits call ``execute(vectors)`` exactly as
        # before.
        self._tracer = tracer
        # Optional repro.obs.profile.StageProfiler: every request's
        # queue_wait (enqueue -> flush) is histogrammed per batch —
        # unlike the tracer this needs no per-request span, so it
        # covers *all* traffic at the cost of one vectorized binning
        # per flush — and each batch that runs adds one coalesce
        # sample under the label ``execute`` returned with its rows.
        self._profiler = profiler
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = BatcherStats()
        # Pending entries: (vector, future, span, deadline, enq_pc)
        # where ``span`` is the request's parent SpanContext when traced
        # (else None) and ``enq_pc`` the one enqueue perf_counter read
        # that both the queue_wait span and the profiler's histogram
        # use (None when neither is on).  The queue_wait span's
        # wall-clock start is reconstructed once per flush rather than
        # sampled per submit.  ``deadline`` is an absolute
        # ``time.monotonic()`` instant (or None); expired entries are
        # dropped at flush.
        self._pending: list[
            tuple[np.ndarray, asyncio.Future, object, float | None,
                  float | None]
        ] = []
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: set[asyncio.Task] = set()
        # The loop (and its thread) this batcher coalesces on, captured
        # at first submit; lets teardown paths hop onto the loop thread.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: int | None = None

    # -- public API ----------------------------------------------------------

    async def submit(
        self, vector: np.ndarray, span=None, deadline: float | None = None
    ) -> np.ndarray:
        """Queue one vector; resolves to its product row when its batch runs.

        With a ``validate`` callable installed, a malformed vector raises
        here — to its own caller only — instead of poisoning the batch it
        would have been coalesced into.

        ``span`` is the request's root :class:`SpanContext` (the
        service's ``request`` span); with a tracer configured it
        parents this request's ``queue_wait`` span and — for the batch
        carrier — the ``coalesce`` span.  Context is passed explicitly
        because the batch executes on a loop-pool thread where ambient
        context would not propagate.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  A
        request still queued when its deadline passes is dropped at the
        next flush with :class:`DeadlineExceeded` instead of being
        executed; the surviving batch's remaining budget is forwarded to
        ``execute`` as a ``deadline_s=`` keyword so downstream shard
        servers can skip abandoned work too.
        """
        arr = np.asarray(vector)
        if self._validate is not None:
            self._validate(arr)
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._loop_thread = threading.get_ident()
        future: asyncio.Future = loop.create_future()
        if self._tracer is None:
            span = None
        enq_pc = (
            time.perf_counter()
            if span is not None or self._profiler is not None
            else None
        )
        self._pending.append((arr, future, span, deadline, enq_pc))
        self.stats.requests += 1
        if len(self._pending) >= self.max_batch:
            self._flush("full")
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_delay_s, self._flush, "deadline"
            )
        return await future

    async def drain(self) -> None:
        """Force-flush the queue and wait for every in-flight batch."""
        self._flush("forced")
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)

    def reject_pending(self, exc: Exception) -> None:
        """Fail every queued-but-unflushed request with ``exc``, now.

        The synchronous teardown hook: when a deployment is retired its
        executor is about to close, so requests still waiting for a
        flush deadline must be rejected cleanly rather than dispatched
        into a dead executor.  In-flight batches are unaffected (their
        futures resolve or fail on their own).

        Asyncio futures and timer handles are not thread-safe, so a call
        from outside the coalescing loop's thread (an operator thread
        retiring a deployment) is marshalled onto the loop via
        ``call_soon_threadsafe`` and *waited for*, so that when this
        method returns the queue really is empty and the caller may shut
        executors down.  (A batch the deadline timer flushed before the
        rejection landed runs to completion — or fails — into its own
        futures, exactly as any in-flight batch would.)  On the loop
        thread — or with no loop ever seen — it rejects inline.
        """
        loop = self._loop
        if (
            loop is not None
            and loop.is_running()
            and threading.get_ident() != self._loop_thread
        ):
            done = threading.Event()

            def _reject_and_signal() -> None:
                try:
                    self._reject_pending_now(exc)
                finally:
                    done.set()

            loop.call_soon_threadsafe(_reject_and_signal)
            # Bounded wait: if the loop stops before running the
            # callback, nothing can flush the queue into a dead executor
            # either, so proceeding is safe.
            done.wait(timeout=5.0)
        else:
            self._reject_pending_now(exc)

    def _reject_pending_now(self, exc: Exception) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        for entry in pending:
            future = entry[1]
            if not future.done():
                future.set_exception(exc)

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- internals -----------------------------------------------------------

    def _flush(self, reason: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        # Drop already-expired requests before the batch is stacked:
        # their clients have abandoned them, so executing them only
        # steals lanes from live traffic.  Expired entries fail here —
        # immediately, on the loop thread — and never count as
        # dispatched lanes.
        budget: float | None = None
        if any(entry[3] is not None for entry in batch):
            now = time.monotonic()
            live = []
            for entry in batch:
                deadline = entry[3]
                if deadline is not None and now >= deadline:
                    self.stats.expired += 1
                    future = entry[1]
                    if not future.done():
                        future.set_exception(
                            DeadlineExceeded(
                                "request deadline expired before its batch "
                                "was dispatched"
                            )
                        )
                else:
                    live.append(entry)
            batch = live
            if not batch:
                return
            # The *loosest* surviving deadline becomes the batch's wire
            # budget: a downstream skip is only safe once every request
            # in the batch has expired, so one request without a
            # deadline leaves the whole batch without a budget.
            if all(entry[3] is not None for entry in batch):
                budget = max(entry[3] for entry in batch) - now
        self.stats.batches += 1
        self.stats.lanes_dispatched += len(batch)
        if reason == "full":
            self.stats.full_flushes += 1
        elif reason == "deadline":
            self.stats.deadline_flushes += 1
        else:
            self.stats.forced_flushes += 1
        task = asyncio.get_running_loop().create_task(
            self._run(batch, reason, budget)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _trace_batch(self, batch: list[tuple], reason: str, start: float):
        """Record each traced request's queue_wait; build the coalesce span.

        A coalesced batch can carry requests from *different* traces,
        and a span has one parent: the batch's ``coalesce`` span is
        parented on the first traced request (the carrier) with every
        other trace id listed in a ``linked_traces`` attribute — see
        ``docs/observability.md``.  ``start`` is the flush's one
        perf_counter read.  The coalesce span comes back unrecorded,
        its id allocated so shard spans can parent on it; :meth:`_run`
        records it once the results are back.  Returns ``None`` when
        nothing in the batch is traced.
        """
        traced = [(entry[2], entry[4]) for entry in batch if entry[2] is not None]
        if not traced:
            return None
        # Built inline and recorded under one lock: this runs on the
        # event-loop thread for up to ``max_batch`` requests per flush,
        # where per-span helper-call and locking overhead is measurable.
        # Each queue_wait's wall-clock start is back-derived from one
        # ``time.time()`` sample here minus its monotonic wait, keeping
        # the per-submit cost to a single ``perf_counter`` read.
        from repro.obs.tracing import Span, Tracer

        now_wall = time.time()
        self._tracer.record_many(
            [
                Span(
                    trace_id=ctx.trace_id,
                    span_id=Tracer.new_span_id(),
                    parent_id=ctx.span_id,
                    stage="queue_wait",
                    start_s=now_wall - (start - enq_pc),
                    duration_s=max(0.0, start - enq_pc),
                    attrs={"reason": reason},
                )
                for ctx, enq_pc in traced
            ]
        )
        carrier = traced[0][0]
        attrs = {"lanes": len(batch), "reason": reason}
        linked = sorted(
            {
                ctx.trace_id
                for ctx, _ in traced[1:]
                if ctx.trace_id != carrier.trace_id
            }
        )
        if linked:
            attrs["linked_traces"] = linked
        return Span(
            carrier.trace_id, Tracer.new_span_id(), carrier.span_id,
            "coalesce", now_wall, 0.0, attrs,
        )

    async def _run(
        self,
        batch: list[
            tuple[np.ndarray, asyncio.Future, object, float | None,
                  float | None]
        ],
        reason: str,
        budget: float | None = None,
    ) -> None:
        loop = asyncio.get_running_loop()
        coalesce = start = None
        if self._profiler is not None or self._tracer is not None:
            # One clock read per flush: it ends every request's queue
            # wait and starts the batch's coalesce interval.
            start = time.perf_counter()
            if self._profiler is not None:
                # One vectorized binning per dispatched batch covers
                # every request's enqueue -> dispatch wait, traced or not.
                self._profiler.record_many(
                    "queue_wait", [start - entry[4] for entry in batch]
                )
            if self._tracer is not None:
                coalesce = self._trace_batch(batch, reason, start)
        results = error = None
        label = ""
        try:
            # Inside the try so even a shape mismatch at stack time fails
            # every waiting future instead of leaving them pending forever.
            vectors = np.stack([entry[0] for entry in batch])
            kwargs: dict = {}
            if coalesce is not None:
                kwargs["trace"] = coalesce.context
            if budget is not None:
                # Only passed when a deadline exists so deadline-free
                # deployments keep calling plain ``execute(vectors)``
                # (and ``execute(vectors, trace=...)``) callables.
                kwargs["deadline_s"] = budget
            run = functools.partial(self._execute, vectors, **kwargs)
            results, label = await loop.run_in_executor(None, run)
        except Exception as exc:  # propagate to every caller in the batch
            error = exc
        if start is not None:
            # The batch's one coalesce reading: flush until the results
            # are back on the loop, thread-pool hop included.  It feeds
            # the span (a failed batch's too, marked ``error``) and, for
            # a batch that ran, the profiler sample under its label.
            elapsed = time.perf_counter() - start
            if coalesce is not None:
                coalesce.duration_s = elapsed
                if error is not None:
                    coalesce.attrs["error"] = f"{type(error).__name__}: {error}"
                self._tracer.record(coalesce)
            if self._profiler is not None and error is None:
                self._profiler.record("coalesce", elapsed, variant=label)
        if error is not None:
            for entry in batch:
                future = entry[1]
                if not future.done():
                    future.set_exception(error)
            return
        for entry, row in zip(batch, results):
            future = entry[1]
            if not future.done():
                future.set_result(row)
