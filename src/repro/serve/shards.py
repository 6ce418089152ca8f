"""Column-sharded execution of matrices too wide for one device.

Columns are independent in this architecture — each column owns its own
reduction trees, combination chain, and subtractor, and every column
reads the same broadcast input vector — so a wide matrix splits cleanly
into column-range shards with *no partial-sum plumbing*: shard ``k``
computes output columns ``[start_k, stop_k)`` and the full result is the
concatenation.  This is exactly the Sec. VIII tiling discussion
(:mod:`repro.core.tiling`), lifted from a latency model into an executor.

:class:`ShardedMultiplier` partitions a matrix either into a requested
number of near-equal shards or under a LUT budget via
:func:`repro.core.tiling.plan_column_tiles` (the paper's greedy device
packing), compiles each shard once (optionally through a
:class:`repro.serve.cache.CompileCache`), and executes all shards
concurrently.  Results are bit-exact with the monolithic circuit —
asserted by the serve test suite across sparsities, widths, recoding
schemes, backends, and injected faults.

Two execution backends:

* ``backend="thread"`` (default) — one thread per shard over the shared
  compiled engine.  Zero setup cost, but numpy releases the GIL only
  partially, so parallelism saturates early.
* ``backend="remote"`` — multi-process execution over sockets
  (:mod:`repro.cluster`; a loopback fleet is the one-host form): each
  shard is bound to a :class:`~repro.cluster.client.RemoteShard`
  endpoint, which LOADs the shard's kernel **by content digest** from
  the shared artifact store (``endpoints=`` names the fleet; the store
  comes from the cache's directory or ``store=``) and then streams
  batches as binary frames.  Live faults ride along as FAULT-frame
  override schedules (the shard's per-call ``fault_overrides``
  snapshot), so campaigns stay bit-exact over the network.  A shard
  whose host times out is retried once on a fresh connection and then
  served *locally* (the compiled engine is still in this process) —
  degraded latency, never a failed batch.  Recovery is automatic: once
  the link's jittered-backoff deadline (:mod:`repro.cluster.health`)
  passes, the next batch doubles as a revival probe and a host that
  answers is promoted straight back to remote serving;
  ``RemoteShard.revive()`` remains as the manual fast path.

Engine selection: every execution method takes ``engine``, defaulting
to ``"auto"`` — the fused cycle-loop-free engine when no shard has live
faults, the bit-plane gate engine otherwise (faults break the static
schedule).  The rule and its ``fused:<variant>`` reporting label live in
:mod:`repro.hwsim.fast` (:func:`~repro.hwsim.fast.resolve_engine`,
:func:`~repro.hwsim.fast.executor_label`);
:meth:`ShardedMultiplier.resolve_engine` applies them to the whole
deployment so the serve layer can record the *effective* engine.
"""

from __future__ import annotations

import pathlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.plan import plan_matrix
from repro.core.tiling import plan_column_tiles
from repro.hwsim.builder import CompiledCircuit, build_circuit
from repro.hwsim.fast import (
    SERVE_ENGINES,
    FastCircuit,
    executor_label,
    resolve_engine,
)
from repro.hwsim.fused import validate_batch
from repro.obs.tracing import Span, SpanContext, Tracer
from repro.serve.cache import CompileCache, compile_key, persist_artifacts

__all__ = [
    "Shard",
    "ShardedMultiplier",
    "even_column_shards",
    "SHARD_BACKENDS",
    "SERVE_ENGINES",
]

SHARD_BACKENDS = ("thread", "remote")


def even_column_shards(cols: int, shards: int) -> list[tuple[int, int]]:
    """Near-equal ``[start, stop)`` column ranges covering ``cols``."""
    if cols < 1:
        raise ValueError(f"cols must be >= 1, got {cols}")
    if not 1 <= shards <= cols:
        raise ValueError(f"shards must be in [1, {cols}], got {shards}")
    base, extra = divmod(cols, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for k in range(shards):
        stop = start + base + (1 if k < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass
class Shard:
    """One compiled column range plus its execution accounting.

    ``circuit`` is ``None`` when the shard came out of a kernel-cache
    hit — there is no netlist in the process, only the kernel.  Fault
    injection needs the netlist, so campaigns deploy with fresh compiles.
    """

    index: int
    start: int
    stop: int
    circuit: CompiledCircuit | None
    fast: FastCircuit
    calls: int = 0
    busy_s: float = 0.0

    @property
    def cols(self) -> int:
        return self.stop - self.start

    @property
    def digest(self) -> str:
        return self.fast.kernel.fingerprint


class ShardedMultiplier:
    """A fixed matrix executed as concurrently-simulated column shards.

    Args:
        matrix: 2-D signed integer matrix (the full, unsharded ``V``).
        shards: partition into this many near-equal column ranges.
        lut_budget: alternatively, partition greedily so each shard fits
            the budget (Sec. VIII; see ``plan_column_tiles``).  Exactly
            one of ``shards`` / ``lut_budget`` may be given; the default
            is a single shard.
        input_width / scheme / tree_style: compile options, as for
            :func:`repro.core.plan.plan_matrix`.
        cache: optional :class:`CompileCache`; shard compiles go through
            it so identical shards across deployments are compiled once
            (and, with a warm kernel store, never built at all).
        backend: ``"thread"`` (default) or ``"remote"``; see the module
            docstring for the trade-offs.  Either way a multi-shard
            deployment runs one pool thread per shard.
        endpoints: remote backend only — ``[(host, port), ...]`` shard
            servers; shard ``k`` binds to endpoint ``k % len(endpoints)``.
        store: remote backend only — the shared artifact directory the
            fleet loads kernels from.  Defaults to ``cache.directory``;
            required explicitly when compiling outside a persistent
            cache (the fresh-compile path then persists each shard's
            fault-free artifacts itself so servers can resolve them).
        request_timeout_s: remote backend only — per-request socket
            timeout (connect, send, and the full response).
        probe_backoff: remote backend only — revival backoff policy
            shared by every shard link
            (:class:`repro.cluster.health.BackoffPolicy`; ``None`` for
            the default).  Benchmarks and tests pass an aggressive one.
        probe_clock: remote backend only — monotonic-seconds callable
            driving the probe schedules (tests inject a fake clock so
            revival scenarios run with zero real sleeps).
        tracer: optional :class:`repro.obs.tracing.Tracer`.  When set
            *and* a call passes ``trace=``, each shard's execution is
            recorded as a ``shard_dispatch`` span (remote shards adding
            a ``wire`` child for the socket round-trip, with the
            server's ``server_execute`` span adopted from the RESULT
            frame).  ``None`` (default) instruments nothing.
        recorder: optional :class:`repro.obs.recorder.FlightRecorder`
            receiving shard-link health events (``shard_unhealthy``,
            ``shard_revived``, ``probe_failed``, ``local_fallback``).
        profiler: optional :class:`repro.obs.profile.StageProfiler`
            histogramming every shard execution (``shard_dispatch``,
            and ``wire`` for the remote round-trip) keyed by the
            variant-qualified engine label.  Unlike the tracer it needs
            no per-call ``trace=`` context — with a profiler set, *all*
            traffic is histogrammed.  ``None`` (default) records
            nothing.
        auth_secret: remote backend only — shared secret for fleets
            whose servers demand the HELLO challenge/response handshake
            (``--auth-secret``); ``None`` against open fleets.
        trip_threshold: remote backend only — consecutive failed
            requests before a shard link's circuit breaker opens (see
            :class:`repro.cluster.client.RemoteShard`); the default of
            1 trips on the first exhausted request.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        shards: int | None = None,
        lut_budget: int | None = None,
        input_width: int = 8,
        scheme: str = "csd",
        tree_style: str = "compact",
        cache: CompileCache | None = None,
        backend: str = "thread",
        endpoints: list[tuple[str, int]] | None = None,
        store: str | None = None,
        request_timeout_s: float = 5.0,
        probe_backoff=None,
        probe_clock=time.monotonic,
        tracer=None,
        recorder=None,
        profiler=None,
        auth_secret: str | None = None,
        trip_threshold: int = 1,
    ) -> None:
        arr = np.asarray(matrix, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"expected a non-empty 2-D matrix, got shape {arr.shape}")
        if shards is not None and lut_budget is not None:
            raise ValueError("pass either shards or lut_budget, not both")
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"backend must be one of {SHARD_BACKENDS}, got {backend!r}"
            )
        store_dir = None
        if backend == "remote":
            if not endpoints:
                raise ValueError(
                    "backend='remote' needs endpoints=[(host, port), ...]"
                )
            store_dir = store if store is not None else (
                cache.directory if cache is not None else None
            )
            if store_dir is None:
                raise ValueError(
                    "backend='remote' needs a shared artifact store: pass a "
                    "CompileCache with directory=... or store=..."
                )
        self.matrix = arr
        self.input_width = int(input_width)
        self.scheme = scheme
        self.tree_style = tree_style
        self.backend = backend
        self.tracer = tracer
        self.recorder = recorder
        self.profiler = profiler
        if lut_budget is not None:
            ranges = plan_column_tiles(arr, lut_budget, scheme=scheme)
        else:
            ranges = even_column_shards(arr.shape[1], shards if shards else 1)
        # The fleet resolves kernels from store_dir, so a remote deploy
        # must guarantee its shards' artifacts land *there* — which the
        # cache only does when it persists to that same directory.
        store_separately = backend == "remote" and (
            cache is None
            or cache.directory is None
            or pathlib.Path(store_dir) != cache.directory
        )
        self.shards: list[Shard] = []
        for k, (start, stop) in enumerate(ranges):
            piece = arr[:, start:stop]
            if cache is not None:
                entry = cache.get(
                    piece,
                    input_width=input_width,
                    scheme=scheme,
                    tree_style=tree_style,
                )
                circuit, fast, plan = entry.circuit, entry.fast, entry.plan
            else:
                # Compiled outside the shared cache (fault campaigns do
                # this for netlist privacy).
                plan = plan_matrix(
                    piece,
                    input_width=input_width,
                    scheme=scheme,
                    tree_style=tree_style,
                )
                circuit = build_circuit(plan)
                fast = FastCircuit.from_compiled(circuit)
            if store_separately:
                if plan is None:
                    # A kernel-only memory hit (load_key) carries no
                    # plan; the memo/disk path recovers it cheaply.
                    plan = cache.get_plan(
                        piece,
                        input_width=input_width,
                        scheme=scheme,
                        tree_style=tree_style,
                    )
                persist_artifacts(
                    store_dir,
                    compile_key(piece, input_width, scheme, tree_style),
                    plan,
                    fast.kernel,
                    fast.fuse(),
                )
            self.shards.append(
                Shard(index=k, start=start, stop=stop, circuit=circuit, fast=fast)
            )
        self._pool: ThreadPoolExecutor | None = None
        self._remotes: list = []
        if backend == "remote":
            # Imported lazily: the serve layer stays importable (and
            # thread deploys stay zero-cost) without the cluster
            # subsystem.
            from repro.cluster.client import ClusterClient

            client = ClusterClient(
                endpoints,
                timeout_s=request_timeout_s,
                probe_backoff=probe_backoff,
                clock=probe_clock,
                recorder=recorder,
                auth_secret=auth_secret,
                trip_threshold=trip_threshold,
            )
            for k, shard in enumerate(self.shards):
                self._remotes.append(
                    client.shard_handle(
                        k,
                        {
                            "matrix_digest": compile_key(
                                arr[:, shard.start : shard.stop],
                                input_width,
                                scheme,
                                tree_style,
                            ).matrix_digest,
                            "input_width": self.input_width,
                            "scheme": scheme,
                            "tree_style": tree_style,
                            "start": shard.start,
                            "stop": shard.stop,
                            "fingerprint": shard.fast.kernel.fingerprint,
                        },
                    )
                )
            # Deploy-time warmup: bind and LOAD each link now, so a
            # misconfigured store fails the deploy loudly while a
            # merely-unreachable host stays a soft (fallback) state.
            # Concurrent, so a deploy over dead hosts costs one connect
            # timeout, not one per shard; on a refusal every
            # already-opened socket is closed before the raise.
            with ThreadPoolExecutor(
                max_workers=max(1, len(self._remotes)),
                thread_name_prefix="repro-shard-warm",
            ) as warmers:
                outcomes = []
                for remote, future in [
                    (r, warmers.submit(r.warm)) for r in self._remotes
                ]:
                    try:
                        future.result()
                    except Exception as exc:  # noqa: BLE001 - re-raised
                        outcomes.append((remote, exc))
            if outcomes:
                for remote in self._remotes:
                    remote.close()
                raise outcomes[0][1]
        if len(self.shards) > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=len(self.shards), thread_name_prefix="repro-shard"
            )
        self._stats_lock = threading.Lock()
        # In-flight batch accounting for drain(): the swap protocol
        # needs "no batch is executing against the old matrix" as a
        # waitable condition.
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._created = time.monotonic()

    # -- structure -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def shard_ranges(self) -> list[tuple[int, int]]:
        return [(s.start, s.stop) for s in self.shards]

    # -- execution -----------------------------------------------------------

    def validate_vector(self, vector: np.ndarray) -> None:
        """Raise ValueError unless ``vector`` is one servable request.

        Used by the micro-batcher to reject a malformed request at submit
        time, before it can be coalesced with (and fail alongside) valid
        traffic.
        """
        arr = np.asarray(vector)
        if arr.ndim != 1:
            raise ValueError(
                f"expected a vector of length {self.rows}, got shape {arr.shape}"
            )
        validate_batch(arr[None, :], self.rows, self.input_width)

    def has_faults(self) -> bool:
        """True when any shard has live or snapshotted faults pending."""
        return any(s.fast.has_faults for s in self.shards)

    def resolve_engine(self, engine: str = "auto") -> str:
        """The engine an execution with ``engine`` would actually run.

        :func:`repro.hwsim.fast.resolve_engine` over the whole
        deployment: one faulted shard sends the batch to ``bitplane``.
        The serve layer records the resolved value per hardware call.
        """
        return resolve_engine(engine, self.has_faults)

    def fused_variant(self) -> str:
        """The fused compute dtype this deployment runs.

        One of :attr:`~repro.hwsim.fused.FusedCircuit.VARIANTS`, or
        ``"mixed"`` when column shards resolve differently (shard
        result widths straddle a dtype boundary).  Forces each shard's
        fused executor to build — call only when fused execution is
        (about to be) live.
        """
        variants = {s.fast.fused_variant for s in self.shards}
        return variants.pop() if len(variants) == 1 else "mixed"

    def executor_label(self, engine: str) -> str:
        """The deployment's reporting label for a resolved engine
        (:func:`repro.hwsim.fast.executor_label`, ``fused:mixed`` when
        shards differ).  A reporting label, never an engine name."""
        return executor_label(engine, self.fused_variant)

    def resolve_executor(self, engine: str = "auto") -> str:
        """:meth:`resolve_engine` plus variant qualification.

        The label the serve layer records per hardware call; the
        cluster server derives the same label from the same selector on
        the same artifacts, so client- and server-side reporting agree.
        """
        return self.executor_label(self.resolve_engine(engine))

    def _run_shard(
        self,
        shard: Shard,
        batch: np.ndarray,
        engine: str,
        trace=None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """One shard's batch, booked from one clock reading.

        The execute step is the shard's local engine, or its remote link
        with the local fallback.  The interval read around it feeds the
        shard's busy time, the profiler's ``shard_dispatch`` histogram
        and, when traced, the ``shard_dispatch`` span, which is recorded
        afterwards from that interval.  Only the span's id exists up
        front, for a ``wire`` child to parent on.
        """
        traced = self.tracer is not None and trace is not None
        label = (
            executor_label(engine, lambda: shard.fast.fused_variant)
            if traced or self.profiler is not None
            else ""
        )
        dispatch = attrs = None
        if traced:
            dispatch = SpanContext(trace.trace_id, Tracer.new_span_id())
            attrs = {
                "shard": shard.index,
                "columns": [shard.start, shard.stop],
                "backend": self.backend,
                "engine": label,
            }
            start_wall = time.time()
        start = time.perf_counter()
        try:
            if self.backend == "remote":
                out = self._execute_remote(
                    shard, batch, engine, dispatch, attrs, deadline_s, label
                )
            else:
                out = shard.fast.multiply_batch(batch, engine=engine)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.record(
                    Span(
                        dispatch.trace_id, dispatch.span_id, trace.span_id,
                        "shard_dispatch", start_wall, elapsed, attrs,
                    )
                )
        with self._stats_lock:
            shard.calls += 1
            shard.busy_s += elapsed
        if self.profiler is not None:
            self.profiler.record("shard_dispatch", elapsed, variant=label)
        return out

    def _execute_remote(
        self,
        shard: Shard,
        batch: np.ndarray,
        engine: str,
        dispatch: SpanContext | None,
        attrs: dict | None,
        deadline_s: float | None,
        label: str,
    ) -> np.ndarray:
        """One shard's batch over its endpoint, falling back locally.

        The shard's *current* live-fault schedule is snapshotted here
        and synchronized to the server (a FAULT frame only when it
        changed).  A :class:`~repro.cluster.client.RemoteShardError`
        (connect/timeout twice, or an already-unhealthy link) degrades
        to local execution on the shard's in-process engine — same
        kernel, same overrides, bit-identical result — and marks the
        traced dispatch span's ``attrs`` with ``local_fallback``.

        When tracing, the dispatch gains a ``wire`` child covering the
        socket round-trip; the wire span's context rides the EXECUTE
        frame, and the server's ``server_execute`` span comes back in
        the RESULT for the tracer to adopt — so the client holds a
        single tree linked by propagated ids, not clock math.
        """
        from repro.cluster.client import RemoteShardError

        remote = self._remotes[shard.index]
        overrides = shard.fast.fault_overrides()
        try:
            wire_start = time.perf_counter()
            if dispatch is not None:
                with self.tracer.start_span(
                    "wire",
                    parent=dispatch,
                    endpoint=remote.endpoint,
                    shard=shard.index,
                ) as wire:
                    out, _, _, spans = remote.execute(
                        batch,
                        engine,
                        overrides,
                        trace=wire.context.to_meta(),
                        deadline_s=deadline_s,
                    )
                    wire.annotate(server_spans=len(spans))
                if spans:
                    self.tracer.adopt(spans)
            else:
                out, _, _, _ = remote.execute(
                    batch, engine, overrides, deadline_s=deadline_s
                )
        except RemoteShardError as exc:
            remote.local_fallbacks += 1
            if self.recorder is not None:
                self.recorder.record(
                    "local_fallback",
                    endpoint=remote.endpoint,
                    shard=shard.index,
                    error=str(exc),
                )
            if attrs is not None:
                attrs["local_fallback"] = True
            return shard.fast.multiply_batch(batch, engine=engine, overrides=overrides)
        if self.profiler is not None:
            # The successful round-trip only: a fallback's time belongs
            # to its local shard_dispatch, not to a wire that was never
            # completed.
            self.profiler.record(
                "wire", time.perf_counter() - wire_start, variant=label
            )
        return out

    def multiply_batch(
        self,
        vectors: np.ndarray,
        engine: str = "auto",
        trace=None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """``(B, rows) -> (B, cols)``, every shard advancing concurrently.

        Each shard receives the *full* input vectors (the architecture
        broadcasts inputs to every column) and produces its own column
        slice; slices concatenate into the monolithic result bit-exactly.
        ``engine`` defaults to ``"auto"`` (see :meth:`resolve_engine`).

        The batch is checked once per executing thread: a local shard's
        engine validates what it runs, and the remote backend validates
        here, before anything reaches the wire (a remote shard's local
        fallback checks again, as its engine runs the batch).

        ``trace`` is an optional :class:`repro.obs.tracing.SpanContext`
        naming the parent span (the batcher's ``coalesce`` span); with a
        tracer configured it hangs per-shard ``shard_dispatch`` spans —
        and, for remote shards, ``wire``/``server_execute`` children —
        under it.  Context crosses the executor's thread pool explicitly
        as this argument, never through ambient thread-local state.

        ``deadline_s`` is the batch's remaining deadline budget (set by
        the micro-batcher from its requests' propagated deadlines).  It
        rides the remote backend's EXECUTE meta so servers can skip
        abandoned work — a server ``"expired"`` refusal propagates as
        :class:`~repro.serve.admission.DeadlineExceeded` to every
        request in the batch.  Local backends execute regardless: the
        work is already here and bounded.
        """
        if self.backend == "remote":
            batch = validate_batch(vectors, self.rows, self.input_width)
        else:
            batch = np.atleast_2d(np.asarray(vectors))
        engine = self.resolve_engine(engine)
        with self._inflight_cv:
            self._inflight += 1
        try:
            if batch.shape[0] == 0:
                pieces = [
                    s.fast.multiply_batch(batch, engine=engine) for s in self.shards
                ]
            elif self._pool is None:
                pieces = [
                    self._run_shard(s, batch, engine, trace, deadline_s)
                    for s in self.shards
                ]
            else:
                futures = [
                    self._pool.submit(
                        self._run_shard, s, batch, engine, trace, deadline_s
                    )
                    for s in self.shards
                ]
                pieces = [f.result() for f in futures]
            return np.concatenate(pieces, axis=1)
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def multiply(self, vector: np.ndarray | list[int]) -> np.ndarray:
        """One vector through every shard; returns the ``(cols,)`` product."""
        arr = np.asarray(vector, dtype=np.int64).ravel()
        return self.multiply_batch(arr[None, :])[0]

    # -- telemetry / lifecycle ----------------------------------------------

    @property
    def inflight(self) -> int:
        """Batches currently executing (all backends)."""
        with self._inflight_cv:
            return self._inflight

    def drain(self, timeout_s: float | None = None) -> bool:
        """Block until no batch is executing; ``True`` on quiescence.

        The swap protocol's barrier: after routing flips away from this
        executor, ``drain()`` returning ``True`` means every batch that
        ever saw the old matrix has finished, so it is safe to close.
        ``False`` means the timeout elapsed with work still in flight.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._inflight_cv:
            while self._inflight:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True

    def poke_probes(self) -> dict:
        """Probe due unhealthy remote links now (idle-fleet revival).

        Execute traffic already revives lazily; this is the hook for
        housekeeping loops (telemetry scrapes, benchmarks) that want
        recovery before the next request pays for the probe.  Local
        backends trivially report nothing to do.
        """
        if self.backend != "remote" or not self._remotes:
            return {"probed": 0, "revived": 0, "waiting": 0}
        from repro.cluster.health import HealthProber

        return HealthProber(self._remotes).poke()

    def utilization(self) -> dict:
        """Per-shard busy time against wall-clock since construction.

        Remote deployments additionally report each shard's link health,
        endpoint, RTT percentiles, and how many batches fell back to
        local execution — the per-shard view an operator needs to tell a
        slow host from a dead one.
        """
        elapsed = max(time.monotonic() - self._created, 1e-9)
        with self._stats_lock:
            per_shard = []
            for s in self.shards:
                entry = {
                    "shard": s.index,
                    "columns": [s.start, s.stop],
                    "calls": s.calls,
                    "busy_s": round(s.busy_s, 6),
                    "utilization": round(s.busy_s / elapsed, 6),
                }
                # Which fused dtype this shard runs and its exactness
                # margin — reported only once built (never forces a
                # build from a telemetry scrape).
                fused = s.fast.built_fused
                if fused is not None:
                    entry["fused_variant"] = fused.variant
                    entry["spare_bits"] = fused.spare_bits
                if self.backend == "remote" and self._remotes:
                    entry.update(self._remotes[s.index].telemetry())
                per_shard.append(entry)
        return {
            "shards": self.shard_count,
            "backend": self.backend,
            "elapsed_s": round(elapsed, 6),
            "per_shard": per_shard,
        }

    def close(self, wait: bool = True) -> None:
        """Release executors and sockets.

        ``wait=False`` is the force-close path for a wedged executor
        (a drain that timed out): pools are shut down without joining
        their workers (queued work cancelled), and remote sockets are
        closed first — which is what actually unblocks a worker wedged
        in a socket read.  The abandoned batch's futures then fail with
        the transport error instead of hanging forever.
        """
        if not wait:
            # Closing sockets before the pool shutdown interrupts
            # blocked recv()s so wedged workers can exit.
            for remote in self._remotes:
                remote.close()
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None
        for remote in self._remotes:
            remote.close()
        self._remotes = []

    def __enter__(self) -> "ShardedMultiplier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
