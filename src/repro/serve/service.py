"""`MatMulService`: deploy fixed matrices, serve vector streams.

The facade that ties the serve layer together, one paper concept per
collaborator:

* ``deploy(matrix, ...)`` compiles through the content-addressed
  :class:`~repro.serve.cache.CompileCache` (repeat deploys never
  re-plan) into a :class:`~repro.serve.shards.ShardedMultiplier`
  (Sec. VIII column tiling, executed concurrently), returning a
  deployment handle;
* ``await submit(handle, vector)`` routes single-vector requests through
  the deployment's :class:`~repro.serve.batcher.MicroBatcher`, which
  coalesces them into bit-plane lane-packed executions (the Sec. VI
  wrapper's sequential batching, amortized across *users* instead of a
  local SRAM);
* ``run_stream(handle, ...)`` rolls out reservoir state trajectories for
  deployments created by ``deploy_esn`` — every state update's batched
  recurrent product is one sharded hardware call;
* ``swap(handle, matrix)`` replaces a deployment's matrix with zero
  downtime: the new executor is compiled (and, for remote backends,
  LOADed onto the fleet by content digest) *alongside* the old, routing
  flips atomically, and the old executor drains and closes — in-flight
  requests finish on the matrix they were submitted against, queued and
  future requests see the new one, and a fleet refusal rolls back
  before routing ever changes;
* ``telemetry()`` reports throughput, p50/p99 latency, lane occupancy,
  shard utilization, and compile-cache hit rates.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.serialize import matrix_digest
from repro.obs.tracing import Span, SpanContext, Tracer
from repro.reservoir.hw_esn import HardwareESN
from repro.reservoir.quantize import IntegerESN
from repro.serve.admission import (
    AdmissionController,
    DeadlineExceeded,
    QueueFull,
    QuotaExceeded,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import CompileCache
from repro.serve.shards import SERVE_ENGINES, ShardedMultiplier
from repro.serve.telemetry import DeploymentTelemetry

__all__ = ["Deployment", "MatMulService", "ServedESN"]


@dataclass
class Deployment:
    """Handle to one deployed matrix: the object callers submit against.

    ``engine`` is the *configured* engine — ``"auto"`` by default, which
    resolves per hardware call to the fused cycle-loop-free engine for
    fault-free shards and to the bit-plane gate engine whenever faults
    are active.  The resolved choice of every batch is recorded in the
    deployment's telemetry under ``"engine"``.

    ``sharded`` is *re-bound* by :meth:`MatMulService.swap` — the
    execute and validate paths read it through this handle on every
    call, which is what makes the swap's routing flip a single atomic
    attribute assignment.  ``config`` remembers the shard-executor
    keyword arguments the deployment was built with so a swap can
    rebuild an identical executor around the new matrix.
    """

    name: str
    matrix_digest: str
    sharded: ShardedMultiplier
    batcher: MicroBatcher
    telemetry: DeploymentTelemetry
    engine: str = "auto"
    esn: "ServedESN | None" = field(default=None, repr=False)
    config: dict = field(default_factory=dict, repr=False)
    swap_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def rows(self) -> int:
        return self.sharded.rows

    @property
    def cols(self) -> int:
        return self.sharded.cols

    @property
    def shard_count(self) -> int:
        return self.sharded.shard_count


class ServedESN(HardwareESN):
    """A :class:`HardwareESN` whose hardware products come from a deployment.

    Built by :meth:`MatMulService.deploy_esn`.  The base class is
    constructed with ``backend="functional"`` so no *monolithic* gate
    circuit is compiled: the deployment's shards are the circuit, and
    every product runs through them on the deployment's engine (by
    default ``"auto"``: fused while fault-free, the bit-plane gate engine
    under injected faults).
    """

    def __init__(
        self,
        esn: IntegerESN,
        sharded: ShardedMultiplier,
        telemetry: DeploymentTelemetry,
        scheme: str = "csd",
        include_input: bool = False,
        input_quant_width: int = 8,
        plan=None,
        engine: str = "auto",
    ) -> None:
        super().__init__(
            esn,
            scheme=scheme,
            backend="functional",
            include_input=include_input,
            input_quant_width=input_quant_width,
            plan=plan,
        )
        self._sharded = sharded
        self._telemetry = telemetry
        self._engine = engine

    def _hardware_multiply(self, vector: np.ndarray) -> np.ndarray:
        arr = np.asarray(vector)
        batch = arr if arr.ndim == 2 else arr[None, :]
        effective, out = _resolved_multiply(self._sharded, self._engine, batch)
        self._telemetry.record_batch(batch.shape[0], engine=effective)
        self._telemetry.record_products(batch.shape[0])
        return out if arr.ndim == 2 else out[0]


def _resolved_multiply(
    sharded: ShardedMultiplier,
    engine: str,
    batch: np.ndarray,
    trace=None,
    deadline_s: float | None = None,
) -> tuple[str, np.ndarray]:
    """Resolve ``engine`` and execute, returning ``(label, result)``.

    ``label`` is the variant-qualified reporting label
    (:meth:`ShardedMultiplier.executor_label`): gate engines verbatim,
    fused execution as ``fused:<dtype>`` so telemetry says which compute
    dtype (``float32``, ``float64``, ``int64`` or ``object``) the fold
    ran in.

    Resolution and execution are not atomic: a fault injected between
    ``resolve_engine("auto") -> "fused"`` and the shard run makes the
    fused engine refuse mid-batch.  For ``"auto"`` deployments that
    refusal is retried on the gate engine — the fallback stays
    transparent under concurrent fault injection instead of failing the
    whole coalesced batch.  Explicitly pinned engines keep the refusal.

    ``trace`` (an optional span context) threads straight through to
    the shard executor — see :meth:`ShardedMultiplier.multiply_batch`.
    """
    effective = sharded.resolve_engine(engine)
    try:
        out = sharded.multiply_batch(
            batch, engine=effective, trace=trace, deadline_s=deadline_s
        )
        return sharded.executor_label(effective), out
    except ValueError:
        if engine != "auto" or effective != "fused":
            raise
        return "bitplane", sharded.multiply_batch(
            batch, engine="bitplane", trace=trace, deadline_s=deadline_s
        )


class MatMulService:
    """Deploy compiled spatial multipliers and serve traffic against them.

    One service owns one compile cache and any number of deployments.
    ``submit``/``submit_many`` are coroutines (the micro-batcher needs a
    running event loop to coalesce under its deadline); ``multiply`` is
    the synchronous direct path — one hardware call per invocation, no
    coalescing — kept as the baseline the throughput benchmark compares
    against.
    """

    def __init__(
        self,
        cache: CompileCache | None = None,
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        engine: str = "auto",
        backend: str = "thread",
        endpoints: list[tuple[str, int]] | None = None,
        store: str | None = None,
        request_timeout_s: float = 5.0,
        probe_backoff=None,
        probe_clock=time.monotonic,
        tracer=None,
        recorder=None,
        profiler=None,
        slow_request_s: float | None = None,
        admission: AdmissionController | None = None,
        auth_secret: str | None = None,
        trip_threshold: int = 1,
        telemetry_window: int = 4096,
    ) -> None:
        """``backend``/``endpoints``/``store``/``request_timeout_s`` are
        service-wide deployment defaults: a service constructed with
        ``backend="remote"`` (as :meth:`ClusterController.deploy_fleet
        <repro.cluster.controller.ClusterController.deploy_fleet>` does)
        routes *every* deploy — including the private deployments
        ``fault_campaign(service=...)`` creates — over the fleet, with
        no caller changes.  ``deploy(...)`` can still override any of
        them per deployment.

        Observability is opt-in (see :mod:`repro.obs`): ``tracer`` (a
        :class:`~repro.obs.tracing.Tracer`) records a span tree per
        ``submit`` — request root, queue wait, coalesced batch, shard
        dispatch, and for remote backends the wire round-trip with the
        server's execute span adopted off the RESULT frame.
        ``recorder`` (a :class:`~repro.obs.recorder.FlightRecorder`)
        receives lifecycle events (``deploy``/``undeploy``/``swap``/
        ``service_close``), shard-link health transitions, and — with
        ``slow_request_s`` set — ``slow_request`` exemplars carrying
        the trace id of each request whose end-to-end latency crossed
        the threshold.  ``profiler`` (a
        :class:`~repro.obs.profile.StageProfiler`) continuously
        histograms per-stage durations — ``queue_wait`` and
        ``coalesce`` here and in the batcher, ``shard_dispatch`` /
        ``wire`` in the shard executor — keyed by the executor variant
        label.  All default to ``None``: the uninstrumented hot path
        pays only ``None`` checks.  ``telemetry_window`` sizes each
        deployment's latency reservoir (smaller windows track SLO
        recoveries faster; the default keeps the historical 4096).

        ``admission`` is an optional
        :class:`~repro.serve.admission.AdmissionController` shared by
        every deployment: ``submit`` sheds excess load with
        :class:`QuotaExceeded`/:class:`QueueFull` *before* queueing
        instead of letting the micro-batcher queue grow without bound.
        ``None`` (the default) admits everything, as before.
        ``auth_secret`` and ``trip_threshold`` are remote-backend
        deployment defaults (shared-secret HELLO handshake; per-link
        circuit-breaker trip count — see
        :class:`~repro.cluster.client.RemoteShard`).
        """
        if engine not in SERVE_ENGINES:
            raise ValueError(
                f"engine must be one of {SERVE_ENGINES}, got {engine!r}"
            )
        self.cache = cache if cache is not None else CompileCache()
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.engine = engine
        self.backend = backend
        self.endpoints = endpoints
        self.store = store
        self.request_timeout_s = request_timeout_s
        # Revival probing knobs for remote deployments (see
        # repro.cluster.health): benchmarks pass an aggressive backoff,
        # tests a fake clock.
        self.probe_backoff = probe_backoff
        self.probe_clock = probe_clock
        self.tracer = tracer
        self.recorder = recorder
        self.profiler = profiler
        self.slow_request_s = slow_request_s
        self.admission = admission
        self.auth_secret = auth_secret
        self.trip_threshold = trip_threshold
        self.telemetry_window = int(telemetry_window)
        self._deployments: dict[str, Deployment] = {}

    def _record_event(self, kind: str, **fields) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, **fields)

    # -- deployment ----------------------------------------------------------

    def deploy(
        self,
        matrix: np.ndarray,
        name: str | None = None,
        input_width: int = 8,
        scheme: str = "csd",
        tree_style: str = "compact",
        shards: int | None = None,
        lut_budget: int | None = None,
        backend: str | None = None,
        max_batch: int | None = None,
        max_delay_s: float | None = None,
        use_cache: bool = True,
        engine: str | None = None,
        endpoints: list[tuple[str, int]] | None = None,
        store: str | None = None,
        request_timeout_s: float | None = None,
    ) -> Deployment:
        """Compile (through the cache) and register one served matrix.

        ``backend`` selects the shard executor (``"thread"`` or
        ``"remote"``; see
        :class:`~repro.serve.shards.ShardedMultiplier`), defaulting to
        the service-wide value.  Remote deployments take the fleet
        ``endpoints``, artifact ``store``, and ``request_timeout_s``
        from the service unless overridden here.
        ``max_batch`` / ``max_delay_s`` override the service-wide
        micro-batching limits for this deployment; the effective values
        are recorded in every telemetry snapshot under ``"batching"``.
        ``use_cache=False`` compiles private shards outside the shared
        compile cache — required by experiments that mutate shard
        netlists (fault campaigns), since cached circuits are shared
        across deployments and kernel-cache hits carry no netlist at all.
        ``engine`` pins this deployment's execution engine (overriding
        the service-wide default): ``"auto"`` serves the fused
        cycle-loop-free schedule while the deployment is fault-free and
        falls back to the bit-plane gate engine whenever faults are
        active; an explicit gate engine forces cycle simulation.  Every
        batch's *resolved* engine lands in telemetry under ``"engine"``.
        """
        arr = np.asarray(matrix, dtype=np.int64)
        digest = matrix_digest(arr)
        engine = engine if engine is not None else self.engine
        if engine not in SERVE_ENGINES:
            raise ValueError(
                f"engine must be one of {SERVE_ENGINES}, got {engine!r}"
            )
        backend = backend if backend is not None else self.backend
        # The full shard-executor construction recipe, remembered on the
        # handle so swap() can rebuild an identical executor around a
        # new matrix.
        shard_config = dict(
            shards=shards,
            lut_budget=lut_budget,
            input_width=input_width,
            scheme=scheme,
            tree_style=tree_style,
            cache=self.cache if use_cache else None,
            backend=backend,
            endpoints=endpoints if endpoints is not None else self.endpoints,
            store=store if store is not None else self.store,
            request_timeout_s=(
                request_timeout_s
                if request_timeout_s is not None
                else self.request_timeout_s
            ),
            probe_backoff=self.probe_backoff,
            probe_clock=self.probe_clock,
            tracer=self.tracer,
            recorder=self.recorder,
            profiler=self.profiler,
            auth_secret=self.auth_secret,
            trip_threshold=self.trip_threshold,
        )
        sharded = ShardedMultiplier(arr, **shard_config)
        batch_limit = max_batch if max_batch is not None else self.max_batch
        delay = max_delay_s if max_delay_s is not None else self.max_delay_s
        telemetry = DeploymentTelemetry(
            max_batch=batch_limit,
            window=self.telemetry_window,
            max_delay_s=delay,
        )

        # Execute and validate read the executor through the handle on
        # every call (late binding): swap() re-points deployment.sharded
        # and the very next batch runs against the new matrix, with no
        # batcher rebuild and no routing table beyond this attribute.
        # ``trace`` arrives from a tracing batcher (the coalesce span's
        # context) and threads through to the shard executor.
        def _execute(
            batch: np.ndarray, trace=None, deadline_s: float | None = None
        ) -> np.ndarray:
            start = time.perf_counter() if self.profiler is not None else 0.0
            effective, out = _resolved_multiply(
                deployment.sharded, engine, batch, trace=trace,
                deadline_s=deadline_s,
            )
            if self.profiler is not None:
                # The batch's coalesced execution, keyed by the engine
                # it actually resolved to — the per-variant cost
                # distribution the profiler exists to expose.
                self.profiler.record(
                    "coalesce", time.perf_counter() - start, variant=effective
                )
            telemetry.record_batch(batch.shape[0], engine=effective)
            return out

        def _validate(vector: np.ndarray) -> None:
            deployment.sharded.validate_vector(vector)

        if name is None:
            name = f"m-{digest[:12]}"
        base, suffix = name, 1
        while name in self._deployments:
            suffix += 1
            name = f"{base}-{suffix}"
        deployment = Deployment(
            name=name,
            matrix_digest=digest,
            sharded=sharded,
            batcher=MicroBatcher(
                _execute,
                max_batch=batch_limit,
                max_delay_s=delay,
                validate=_validate,
                tracer=self.tracer,
                profiler=self.profiler,
            ),
            telemetry=telemetry,
            engine=engine,
            config=shard_config,
        )
        self._deployments[name] = deployment
        self._record_event(
            "deploy",
            deployment=name,
            matrix_digest=digest,
            backend=backend,
            shards=sharded.shard_count,
        )
        return deployment

    def deploy_esn(
        self,
        esn: IntegerESN,
        name: str | None = None,
        include_input: bool = False,
        input_quant_width: int = 8,
        scheme: str = "csd",
        shards: int | None = None,
        lut_budget: int | None = None,
        backend: str | None = None,
        max_batch: int | None = None,
        max_delay_s: float | None = None,
        engine: str | None = None,
    ) -> Deployment:
        """Deploy a quantized reservoir's recurrent matrix for rollouts.

        Compiles exactly what :class:`HardwareESN` would — ``W^T``, or
        the augmented ``[W^T ; W_in^T]`` with ``include_input=True`` —
        but through the service's cache and shard executor.  The handle's
        ``esn`` attribute is the bound :class:`ServedESN`; drive it with
        :meth:`run_stream`.
        """
        if include_input:
            matrix = np.vstack([esn.w_q.T, esn.w_in_q.T])
            stream_width = max(esn.state_width, input_quant_width)
        else:
            matrix = esn.w_q.T
            stream_width = esn.state_width
        # Plan the monolithic matrix once, through the cache's plan memo:
        # the ServedESN facade adopts it, and a single-shard deploy below
        # finds it memoized instead of re-planning the same bytes.
        plan = self.cache.get_plan(matrix, input_width=stream_width, scheme=scheme)
        deployment = self.deploy(
            matrix,
            name=name if name is not None else f"esn-{matrix_digest(matrix)[:12]}",
            input_width=stream_width,
            scheme=scheme,
            shards=shards,
            lut_budget=lut_budget,
            backend=backend,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            engine=engine,
        )
        deployment.esn = ServedESN(
            esn,
            deployment.sharded,
            deployment.telemetry,
            scheme=scheme,
            include_input=include_input,
            input_quant_width=input_quant_width,
            plan=plan,
            engine=deployment.engine,
        )
        return deployment

    @property
    def deployments(self) -> dict[str, Deployment]:
        return dict(self._deployments)

    def undeploy(self, handle: "Deployment | str") -> None:
        """Retire one deployment: shut its shard executor down and drop
        it from the registry (and from service-wide telemetry).

        Needed by anything that deploys transiently — fault campaigns, A/B
        recompiles — so a long-lived service does not accumulate dead
        executors.  Requests still queued in the micro-batcher are
        rejected with a clear error before the executor closes;
        idempotent on already-retired handles.
        """
        name = handle if isinstance(handle, str) else handle.name
        deployment = self._deployments.pop(name, None)
        if deployment is not None:
            deployment.batcher.reject_pending(
                RuntimeError(f"deployment {name!r} was retired")
            )
            deployment.sharded.close()
            self._record_event("undeploy", deployment=name)

    def swap(
        self,
        handle: "Deployment | str",
        matrix: np.ndarray,
        drain_timeout_s: float = 30.0,
        **config_overrides,
    ) -> Deployment:
        """Replace a deployment's matrix with zero downtime.

        The new matrix is compiled into a fresh shard executor built
        with the deployment's remembered configuration (sharding,
        compile options, backend, fleet endpoints — override any of
        them via keyword arguments) *while the old one keeps serving*.
        For remote backends that construction performs the LOAD-by-
        digest warmup against every fleet endpoint, so **any shard's
        refusal raises here and rolls back for free** — routing has not
        changed, already-opened sockets are closed, and the old matrix
        never stopped serving.  Only after the new executor stands does
        routing flip: one atomic re-bind of ``deployment.sharded``,
        which the execute/validate closures read on every call.
        Batches already executing finish against the old executor
        (their results are bit-exact for the matrix they were submitted
        against), which is then drained and closed.

        The new matrix must have the same number of rows — the served
        interface queued requests were validated against.  Column count
        may change (the result row just gets wider or narrower).
        Reservoir deployments (``deploy_esn``) are refused: a
        :class:`ServedESN` holds reservoir state derived from its
        matrix, so swapping underneath it would corrupt rollouts.

        Returns the same (mutated) handle.  Raises ``TimeoutError``
        when the old executor still has batches in flight after
        ``drain_timeout_s`` (the flip is already done and stays done).
        A drain timeout means something is *wedged* — a worker stuck in
        a dead socket read, an executor that will never come back — so
        the old executor is force-closed (``close(wait=False)``: pools
        shut down without joining, remote sockets closed first, which
        is what unblocks a wedged read) and the abandonment is recorded
        as a ``drain_abandoned`` flight-recorder event.  The wedged
        batch's futures fail with the resulting transport error instead
        of hanging forever, and the service no longer leaks an
        unreachable executor.
        """
        name = handle if isinstance(handle, str) else handle.name
        try:
            deployment = self._deployments[name]
        except KeyError:
            raise KeyError(f"no deployment named {name!r}") from None
        with deployment.swap_lock:
            if deployment.esn is not None:
                raise ValueError(
                    f"deployment {name!r} serves a reservoir; swap() would "
                    "corrupt its rollout state — undeploy and redeploy instead"
                )
            arr = np.asarray(matrix, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[0] != deployment.rows:
                raise ValueError(
                    f"swap matrix must keep the served interface of "
                    f"{deployment.rows} rows, got shape {arr.shape}"
                )
            config = {**deployment.config, **config_overrides}
            # Build alongside the old executor; a compile failure or a
            # fleet LOAD refusal raises out of here with routing (and
            # the old executor) untouched.
            new_sharded = ShardedMultiplier(arr, **config)
            old_sharded = deployment.sharded
            # The atomic flip: the next _execute/_validate call reads
            # the new executor through the handle.
            old_digest = deployment.matrix_digest
            deployment.sharded = new_sharded
            deployment.matrix_digest = matrix_digest(arr)
            deployment.config = config
            deployment.telemetry.record_swap()
            self._record_event(
                "swap",
                deployment=name,
                old_digest=old_digest,
                new_digest=deployment.matrix_digest,
            )
            if not old_sharded.drain(timeout_s=drain_timeout_s):
                abandoned = old_sharded.inflight
                self._record_event(
                    "drain_abandoned",
                    deployment=name,
                    inflight=abandoned,
                    timeout_s=drain_timeout_s,
                )
                # Force-close rather than leak: the executor is already
                # unroutable (the flip happened), and a batch that has
                # not finished within the drain window is wedged, not
                # slow.  wait=False closes sockets first so a worker
                # stuck in a dead read is unblocked and the abandoned
                # futures fail instead of hanging.
                old_sharded.close(wait=False)
                raise TimeoutError(
                    f"deployment {name!r} swapped, but the previous executor "
                    f"still had {abandoned} batch(es) in flight after "
                    f"{drain_timeout_s}s; it was force-closed and the work "
                    "abandoned"
                )
            old_sharded.close()
        return deployment

    # -- request paths -------------------------------------------------------

    def _shed(self, handle: Deployment, tenant: str, reason: str) -> None:
        """Book one refused request: telemetry counter + recorder event."""
        handle.telemetry.record_shed(reason, tenant)
        self._record_event(
            "request_shed", deployment=handle.name, tenant=tenant, reason=reason
        )

    async def submit(
        self,
        handle: Deployment,
        vector: np.ndarray,
        tenant: str = "default",
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """One vector in, its product row out, micro-batched underneath.

        With a tracer configured this opens the request's root span and
        threads its context through the batcher, the shard executor,
        and (remote backends) the wire — one ``submit`` yields one span
        tree.  With a recorder and ``slow_request_s`` set, a request
        over the threshold leaves a ``slow_request`` exemplar carrying
        its trace id, so the slow request's exact tree can be pulled
        from the tracer afterwards.

        With an :class:`AdmissionController` configured on the service,
        the request is admitted *first*: over-quota tenants get
        :class:`QuotaExceeded`, a full service queue gets
        :class:`QueueFull` — both immediately, before any queueing, so
        shed load costs the service nothing but the check.  ``tenant``
        names the quota bucket (and the shed-accounting breakdown).

        ``deadline_s`` is this request's latency budget.  A request
        still queued when it expires fails with
        :class:`DeadlineExceeded` at the next flush instead of
        executing, and the remaining budget propagates to remote shard
        servers so they skip abandoned work too.  Every shed/expired
        outcome lands in telemetry (``sheds`` / ``quota_rejections`` /
        ``expired``, with per-tenant breakdown) and as a
        ``request_shed`` flight-recorder event.
        """
        handle.telemetry.record_arrival()
        if self.admission is not None:
            try:
                self.admission.admit(tenant)
            except QuotaExceeded:
                self._shed(handle, tenant, "quota")
                raise
            except QueueFull:
                self._shed(handle, tenant, "queue_full")
                raise
        try:
            return await self._submit_admitted(
                handle, vector, tenant, deadline_s
            )
        finally:
            if self.admission is not None:
                self.admission.release(tenant)

    async def _submit_admitted(
        self,
        handle: Deployment,
        vector: np.ndarray,
        tenant: str,
        deadline_s: float | None,
    ) -> np.ndarray:
        # The root span is recorded post-hoc from the interval submit
        # measures for telemetry anyway: only its *context* (the ids
        # children parent onto) must exist up front.  This keeps the
        # per-request tracing cost to id generation plus one record —
        # the span-object-per-call shape of ``start_span`` is reserved
        # for the per-batch spans, where it amortizes.
        if self.tracer is None:
            ctx = None
        else:
            ctx = SpanContext(Tracer.new_trace_id(), Tracer.new_span_id())
            start_wall = time.time()
        deadline = (
            None if deadline_s is None else time.monotonic() + float(deadline_s)
        )
        start = time.perf_counter()
        try:
            if ctx is None:
                result = await handle.batcher.submit(vector, deadline=deadline)
            else:
                result = await handle.batcher.submit(
                    vector, span=ctx, deadline=deadline
                )
        except Exception as exc:
            if isinstance(exc, DeadlineExceeded):
                # Dropped at flush time (or refused by a shard server
                # whose propagated budget had died): an admitted request
                # the service declined to execute.
                self._shed(handle, tenant, "expired")
            if ctx is not None:
                self.tracer.record(Span(
                    ctx.trace_id, ctx.span_id, None, "request", start_wall,
                    time.perf_counter() - start,
                    {"deployment": handle.name,
                     "error": f"{type(exc).__name__}: {exc}"},
                ))
            raise
        elapsed = time.perf_counter() - start
        handle.telemetry.record_request(elapsed)
        if ctx is not None:
            self.tracer.record(Span(
                ctx.trace_id, ctx.span_id, None, "request", start_wall,
                elapsed,
                {"deployment": handle.name, "latency_s": elapsed},
            ))
        if (
            self.slow_request_s is not None
            and elapsed >= self.slow_request_s
            and self.recorder is not None
        ):
            self.recorder.record(
                "slow_request",
                deployment=handle.name,
                latency_s=round(elapsed, 6),
                threshold_s=self.slow_request_s,
                trace_id=ctx.trace_id if ctx is not None else None,
            )
        return result

    async def submit_many(
        self,
        handle: Deployment,
        vectors: np.ndarray,
        tenant: str = "default",
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Submit a set of independent requests concurrently; ordered rows."""
        batch = np.atleast_2d(np.asarray(vectors))
        rows = await asyncio.gather(
            *(
                self.submit(handle, vec, tenant=tenant, deadline_s=deadline_s)
                for vec in batch
            )
        )
        return np.stack(rows)

    def multiply(
        self, handle: Deployment, vectors: np.ndarray, engine: str | None = None
    ) -> np.ndarray:
        """Synchronous direct path: one hardware call, no coalescing."""
        batch = np.atleast_2d(np.asarray(vectors))
        effective, out = _resolved_multiply(
            handle.sharded, engine if engine is not None else handle.engine, batch
        )
        handle.telemetry.record_batch(batch.shape[0], engine=effective)
        handle.telemetry.record_products(batch.shape[0])
        return out

    def run_stream(
        self,
        handle: Deployment,
        inputs_q: np.ndarray,
        initial_states: np.ndarray | None = None,
        washout: int = 0,
    ) -> np.ndarray:
        """Reservoir rollout(s) on a ``deploy_esn`` deployment.

        A 3-D ``(B, steps, n_inputs)`` input rolls out ``B`` independent
        sequences in lock-step — each step's ``B`` recurrent products are
        one sharded hardware batch filling ``B`` bit-plane lanes.  1-D or
        2-D inputs run a single sequence (products fill one lane each,
        exactly like :meth:`HardwareESN.run`).
        """
        if handle.esn is None:
            raise ValueError(
                f"deployment {handle.name!r} was not created by deploy_esn; "
                "run_stream needs a served reservoir"
            )
        arr = np.asarray(inputs_q)
        if arr.ndim == 3:
            return handle.esn.run_batch(arr, initial_states, washout)
        return handle.esn.run(arr, initial_state=initial_states, washout=washout)

    # -- observability / lifecycle ------------------------------------------

    def telemetry(self, handle: Deployment | None = None) -> dict:
        """Metrics for one deployment, or the whole service when omitted."""
        if handle is not None:
            snap = handle.telemetry.snapshot()
            # Merge the configured engine into the snapshot's per-batch
            # effective-engine record: a dashboard reader sees both what
            # the deployment asked for and what it actually ran.
            snap["engine"] = {"configured": handle.engine, **snap["engine"]}
            return {
                "name": handle.name,
                "matrix_digest": handle.matrix_digest,
                **snap,
                "batcher": {
                    "requests": handle.batcher.stats.requests,
                    "batches": handle.batcher.stats.batches,
                    "full_flushes": handle.batcher.stats.full_flushes,
                    "deadline_flushes": handle.batcher.stats.deadline_flushes,
                    "forced_flushes": handle.batcher.stats.forced_flushes,
                    "expired": handle.batcher.stats.expired,
                    "mean_occupancy": round(
                        handle.batcher.stats.mean_occupancy(
                            handle.batcher.max_batch
                        ),
                        4,
                    ),
                },
                "shards": handle.sharded.utilization(),
            }
        doc = {
            "cache": self.cache.stats(),
            "deployments": {
                name: self.telemetry(dep)
                for name, dep in self._deployments.items()
            },
        }
        if self.admission is not None:
            # The service-wide admission view (queue depth, per-tenant
            # buckets) next to the per-deployment shed counters.
            doc["admission"] = self.admission.snapshot()
        # Collector health (not span/event payloads — those are pulled
        # from the instruments directly): enough for a dashboard to see
        # that tracing is live and whether the rings are evicting.
        obs = {}
        if self.tracer is not None:
            obs["tracer"] = self.tracer.stats()
        if self.recorder is not None:
            obs["flight_recorder"] = self.recorder.stats()
        if self.profiler is not None:
            obs["profiler"] = self.profiler.stats()
        if obs:
            doc["observability"] = obs
        return doc

    def close(self) -> None:
        """Shut the service down: reject queued work, then stop executors.

        Requests still coalescing in a deployment's micro-batcher are
        failed with a clear error *before* its executor (thread pool or
        remote connections) goes away — a closing
        service must never leave a caller awaiting a future no batch
        will ever resolve, and must never dispatch into a dead executor.
        Remote deployments additionally close their shard sockets, so
        fleet servers see a clean disconnect instead of idle
        connections.  Idempotent; in-flight batches run to completion
        into their own futures first (executors shut down with
        ``wait=True``).
        """
        for deployment in self._deployments.values():
            deployment.batcher.reject_pending(
                RuntimeError(
                    f"service closed while the request was queued "
                    f"(deployment {deployment.name!r})"
                )
            )
            deployment.sharded.close()
        self._record_event(
            "service_close", deployments=sorted(self._deployments)
        )

    def __enter__(self) -> "MatMulService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
