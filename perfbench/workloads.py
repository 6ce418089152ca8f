"""The benchmark's workloads, driven through the public ``repro`` API.

Every workload makes its inputs from the seed, sets itself up several
times from an empty compile cache (the median is ``setup_s``), then
measures.  Each op's result is compared, outside the timer, with an
independent integer reference: ``gemm_exact`` for products,
``IntegerESN.step`` for reservoir states.

* ``batch-sparse512`` — one closed-loop caller, ``MatMulService.multiply``
  of 64 vectors against a 512x512 s8 matrix at 95% sparsity: the kernel
  is nearly the whole call.
* ``esn-step128`` — one ``ServedESN.step`` after another on a 128-dim
  reservoir at 75% sparsity: batch-1 recurrent latency, where per-call
  dispatch outweighs the kernel.
* ``serve-burst64`` — two callers each submit bursts of 1 to 128 single
  vectors into ``MatMulService.submit`` on a 64x64 matrix at 50%
  sparsity and wait for each burst: the micro-batcher, its timer and
  asyncio, not the kernel.
* ``fleet-batch256`` — one closed-loop caller, batch-64 ``multiply`` over
  a two-server loopback fleet holding one column shard each: the
  ``cluster`` protocol, client and server.

The traced run (``trace()``) reports per-layer metrics; layers a
workload never calls report 0.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from types import SimpleNamespace

import numpy as np

from harness import (
    SpanLog,
    chain_self_s,
    median,
    median_time_s,
    percentile_ms,
    settle,
)
from repro.baselines.reference import gemm_exact
from repro.cluster.client import RemoteShard
from repro.cluster.controller import ClusterController
from repro.cluster.protocol import batch_frame, decode_payload, frame_array
from repro.core.multiplier import FixedMatrixMultiplier
from repro.core.plan import plan_matrix
from repro.core.stages import STAGES
from repro.hwsim.builder import build_circuit
from repro.hwsim.codegen import generate_source
from repro.hwsim.fast import FastCircuit, lower
from repro.hwsim.fused import FusedCircuit, fuse, select_variant
from repro.reservoir.quantize import quantize_esn
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import CompileCache
from repro.serve.service import MatMulService
from repro.serve.shards import ShardedMultiplier

STAGE_NAMES = ("plan", "build", "lower", "fuse", "codegen")

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "core.plan.plan_matrix_s": "s",
    "hwsim.builder.build_circuit_s": "s",
    "hwsim.fast.lower_s": "s",
    "hwsim.fused.fuse_s": "s",
    "hwsim.codegen.generate_source_s": "s",
    "serve.cache.get_cold_self_s": "s",
    "serve.cache.get_kernel_hit_s": "s",
    "core.plan.terms": "count",
    "hwsim.fused.execute_ms": "ms",
    "hwsim.fused.term_ops": "count",
    "hwsim.fused.bytes_moved": "bytes",
    "hwsim.fused.kernel_share": "ratio",
    "host.blas_gemm_ms": "ms",
    "paper.eq5_latency_ms": "ms",
    "hwsim.fast.multiply_batch_self_ms": "ms",
    "serve.shards.multiply_batch_self_ms": "ms",
    "serve.shards.validate_vector_us": "us",
    "serve.service.multiply_self_ms": "ms",
    "serve.service.submit_self_ms": "ms",
    "reservoir.step_self_us": "us",
    "serve.batcher.queue_wait_ms": "ms",
    "serve.batcher.self_ms": "ms",
    "serve.batcher.batch_size_mean": "count",
    "serve.batcher.lane_occupancy": "ratio",
    "serve.batcher.deadline_flush_ratio": "ratio",
    "cluster.client.rtt_ms": "ms",
    "cluster.server.execute_ms": "ms",
    "cluster.wire_self_ms": "ms",
    "cluster.protocol.encode_us": "us",
    "cluster.protocol.decode_us": "us",
    "cluster.retries": "count",
    "cluster.local_fallbacks": "count",
    "bench.generator_late_p99_ms": "ms",
    "bench.unattributed_share": "ratio",
    "bench.tracing_overhead": "ratio",
}


def sparse_s8(rng: np.random.Generator, rows: int, cols: int, sparsity: float):
    """s8 matrix with exactly ``round(sparsity * size)`` zero entries."""
    matrix = rng.integers(-128, 128, size=(rows, cols), dtype=np.int64)
    matrix[matrix == 0] = 1
    flat = matrix.ravel()
    flat[rng.choice(flat.size, size=round(flat.size * sparsity), replace=False)] = 0
    return matrix


def s8_vectors(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.integers(-128, 128, size=shape, dtype=np.int64)


def tail_latencies(latencies_s) -> dict:
    """Tail percentiles of one op, for the report line.

    They are reported but not bounded: on a shared 2-vCPU host their
    run-to-run spread (IQR over median across seeds) measured 0.2 to 1.5,
    wider than any bound a regression gate can use.
    """
    return {
        f"latency_p{q}_ms": percentile_ms(latencies_s, q) for q in (90, 95, 99)
    }


class Workload:
    """Inputs, set-up and measurement of one named workload."""

    name = ""
    batch = 1  # vectors per op
    setups = 5  # cold set-ups per run; setup_s is their median
    shards = 1

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._stores = itertools.count()

    def fresh_store(self) -> str:
        path = self.workdir / f"store-{next(self._stores)}"
        path.mkdir(parents=True)
        return str(path)

    # -- set-up ---------------------------------------------------------------

    def run_setups(self):
        """Cold set-ups: returns the last context, times and counters."""
        times, counters = [], []
        ctx = None
        for k in range(self.setups):
            if ctx is not None:
                self.teardown(ctx)
            settle()
            before = STAGES.snapshot()
            start = time.perf_counter()
            ctx = self.setup()
            times.append(time.perf_counter() - start)
            stages = STAGES.delta(before)
            counters.append(self.counters(ctx, stages))
        settle()
        return ctx, times, counters

    def counters(self, ctx, stages: dict) -> dict:
        return {
            "stages": {s: stages.get(s, 0) for s in STAGE_NAMES},
            "cache": {
                k: v
                for k, v in ctx.service.cache.stats().items()
                if k in ("hits", "kernel_hits", "disk_hits", "misses", "codegen_hits")
            },
            "executor": ctx.handle.sharded.resolve_executor(ctx.handle.engine),
        }

    def counters_ok(self, counters: dict) -> bool:
        """A cold set-up compiles each shard once and never twice."""
        stages, cache = counters["stages"], counters["cache"]
        return (
            all(stages[s] == self.shards for s in ("plan", "build", "lower", "fuse"))
            and stages["codegen"] <= self.shards
            and cache["misses"] == self.shards
        )

    def teardown(self, ctx) -> None:
        ctx.service.close()

    def close(self) -> None:
        """Release what the workload holds across set-ups."""

    # -- compile pipeline, called directly on the workload's matrices ---------

    def pieces(self) -> list[tuple[np.ndarray, int]]:
        """``(matrix, input_width)`` of every compiled shard."""
        raise NotImplementedError

    def compile_layers(self) -> dict:
        """Median stage times over three direct compiles of every shard."""
        runs = []
        for _ in range(3):
            totals = dict.fromkeys(STAGE_NAMES, 0.0)
            compiled = []
            for piece, width in self.pieces():
                t0 = time.perf_counter()
                plan = plan_matrix(piece, input_width=width, scheme="csd")
                t1 = time.perf_counter()
                circuit = build_circuit(plan)
                t2 = time.perf_counter()
                kernel = lower(circuit)
                t3 = time.perf_counter()
                fused = fuse(kernel)
                t4 = time.perf_counter()
                variant = select_variant(
                    fused.terms, fused.rows, fused.cols, fused.result_width
                )
                if variant == "generated":
                    generate_source(fused)
                t5 = time.perf_counter()
                for stage, dt in zip(STAGE_NAMES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                    totals[stage] += dt
                compiled.append((piece, width, plan, fused, variant))
            runs.append(totals)
        stages = {s: median([r[s] for r in runs]) for s in STAGE_NAMES}
        return {"stages": stages, "compiled": compiled}

    def kernel_layers(self, compiled, execute_s: list[float], batch: int) -> dict:
        """Kernel counts and sizes per call of ``batch`` rows, beside the
        host ceiling and the paper's Eq. 5 model for the same shape."""
        term_ops, moved, ceiling, model = [], [], [], []
        for piece, width, plan, fused, variant in compiled:
            rows, cols = piece.shape
            operands = rows * cols * 8 if variant == "dense" else 4 * fused.terms * 8
            term_ops.append(fused.terms * batch)
            moved.append(8 * batch * (rows + cols) + operands)
            a = self.rng.standard_normal((batch, rows))
            b = self.rng.standard_normal((rows, cols))
            ceiling.append(median_time_s(lambda: a @ b, 50))
            mult = FixedMatrixMultiplier(piece, input_width=width, scheme="csd", plan=plan)
            model.append(mult.latency_s(batch=batch))
        return {
            "core.plan.terms": sum(fused.terms for _, _, _, fused, _ in compiled),
            "hwsim.fused.execute_ms": median(execute_s) * 1e3 if execute_s else 0.0,
            "hwsim.fused.term_ops": float(np.mean(term_ops)),
            "hwsim.fused.bytes_moved": float(np.mean(moved)),
            "host.blas_gemm_ms": float(np.mean(ceiling)) * 1e3,
            "paper.eq5_latency_ms": float(np.mean(model)) * 1e3,
        }

    def cache_layers(self, log: SpanLog, stages: dict, ctx) -> dict:
        cold = sum(log.durations("serve.cache.get"))
        store = ctx.service.cache.directory

        def warm_get():
            cache = CompileCache(directory=store)
            for piece, width in self.pieces():
                cache.get(piece, input_width=width)

        return {
            "serve.cache.get_cold_self_s": cold - sum(stages.values()),
            "serve.cache.get_kernel_hit_s": median_time_s(warm_get, 3),
        }

    def traced_setup(self):
        """One set-up with the compile cache's entry points spanned."""
        compile_info = self.compile_layers()
        log = SpanLog()
        log.wrap(CompileCache, "get", "serve.cache.get")
        log.wrap(CompileCache, "load_key", "serve.cache.load_key")
        log.active = True
        try:
            ctx = self.setup(traced=True)
        finally:
            log.active = False
            log.restore()
        layers = {
            "core.plan.plan_matrix_s": compile_info["stages"]["plan"],
            "hwsim.builder.build_circuit_s": compile_info["stages"]["build"],
            "hwsim.fast.lower_s": compile_info["stages"]["lower"],
            "hwsim.fused.fuse_s": compile_info["stages"]["fuse"],
            "hwsim.codegen.generate_source_s": compile_info["stages"]["codegen"],
        }
        layers.update(self.cache_layers(log, compile_info["stages"], ctx))
        vector = self.sample_vector()
        layers["serve.shards.validate_vector_us"] = (
            median_time_s(lambda: ctx.handle.sharded.validate_vector(vector), 201) * 1e6
        )
        settle()
        return ctx, layers, compile_info["compiled"]

    def sample_vector(self) -> np.ndarray:
        raise NotImplementedError


# -- closed loops ---------------------------------------------------------------


class ClosedLoop(Workload):
    """One caller; the next op starts when the previous one returns."""

    #: Ops per chunk: about 0.1 s of work.  Throughput is the median over
    #: chunks, and results are verified between chunks, off the clock.
    chunk = 100
    op_span = ""
    levels: list[str] = []  # traced call chain, outermost first

    def op(self, ctx, k: int):
        raise NotImplementedError

    def check(self, ctx, k: int, out) -> bool:
        raise NotImplementedError

    def trace_points(self):
        """``(owner, attribute, span name, size argument)`` to wrap."""
        return [
            (ShardedMultiplier, "multiply_batch", "serve.shards.multiply_batch", 1),
            (FastCircuit, "multiply_batch", "hwsim.fast.multiply_batch", 1),
            (FusedCircuit, "execute", "hwsim.fused.execute", 1),
        ]

    def loop(self, ctx, seconds: float, log: SpanLog | None = None) -> dict:
        latencies, rates = [], []
        attempted = failed = 0
        busy = 0.0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            outs, chunk_latencies = [], []
            chunk_start = time.perf_counter()
            for _ in range(self.chunk):
                k = ctx.next_op
                ctx.next_op += 1
                t0 = time.perf_counter()
                try:
                    out = self.op(ctx, k)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    out = exc
                t1 = time.perf_counter()
                chunk_latencies.append(t1 - t0)
                outs.append((k, out))
                if log is not None:
                    log.add(self.op_span, t0, t1)
            elapsed = time.perf_counter() - chunk_start
            busy += elapsed
            rates.append(len(outs) * self.batch / elapsed)
            # Kept as arrays, so memory does not grow with throughput.
            latencies.append(np.asarray(chunk_latencies))
            for k, out in outs:
                attempted += 1
                if isinstance(out, Exception) or not self.check(ctx, k, out):
                    failed += 1
        return {
            "latencies": np.concatenate(latencies),
            "rates": rates,
            "attempted": attempted,
            "failed": failed,
            "busy_s": busy,
        }

    def measure(self, ctx, seconds: float) -> tuple[dict, dict]:
        run = self.loop(ctx, seconds)
        lat = run["latencies"]
        products = median(run["rates"])
        metrics = {
            "products_per_s": (products, "1/s"),
            "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        }
        report = {"ops": len(lat), "chunks": len(run["rates"]), **tail_latencies(lat)}
        return metrics, {**run, "report": report}

    def trace(self, seconds: float) -> tuple[dict, dict, int, int]:
        ctx, layers, compiled = self.traced_setup()
        log = SpanLog()
        untraced, traced = [], []
        attempted = failed = 0
        for phase in range(4):
            if phase % 2:
                for owner, attr, name, size_arg in self.trace_points():
                    log.wrap(owner, attr, name, size_arg)
                log.active = True
            try:
                run = self.loop(ctx, seconds / 4, log if phase % 2 else None)
            finally:
                log.active = False
                log.restore()
            (traced if phase % 2 else untraced).append(run)
            attempted += run["attempted"]
            failed += run["failed"]
        mean_untraced = np.mean(np.concatenate([r["latencies"] for r in untraced]))
        mean_traced = np.mean(np.concatenate([r["latencies"] for r in traced]))
        selfs = chain_self_s(log, self.levels)
        ops = len(log.spans[self.op_span])
        op_time = sum(log.durations(self.op_span))
        busy = sum(r["busy_s"] for r in traced)
        layers.update(
            self.kernel_layers(compiled, log.durations("hwsim.fused.execute"), self.batch)
        )
        layers.update(self.chain_layers(ctx, log, selfs, ops))
        layers["hwsim.fused.kernel_share"] = selfs["hwsim.fused.execute"] / op_time
        layers["bench.unattributed_share"] = (busy - op_time) / busy
        layers["bench.tracing_overhead"] = mean_traced / mean_untraced - 1.0
        shares = {name: value / op_time for name, value in selfs.items()}
        report = {"ops_traced": ops, "self_share": shares}
        self.teardown(ctx)
        return layers, report, attempted, failed

    def chain_layers(self, ctx, log: SpanLog, selfs: dict, ops: int) -> dict:
        return {
            "serve.shards.multiply_batch_self_ms": selfs["serve.shards.multiply_batch"] / ops * 1e3,
            "hwsim.fast.multiply_batch_self_ms": selfs["hwsim.fast.multiply_batch"] / ops * 1e3,
        }


class BatchProducts(ClosedLoop):
    """Batch-64 ``MatMulService.multiply`` against one fixed matrix."""

    batch = 64
    pool = 16  # distinct input batches, each with a precomputed reference
    rows = 0
    sparsity = 0.0
    op_span = "serve.service.multiply"

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.matrix = sparse_s8(self.rng, self.rows, self.rows, self.sparsity)
        self.inputs = s8_vectors(self.rng, self.pool, self.batch, self.rows)
        flat = self.inputs.reshape(-1, self.rows)
        self.refs = gemm_exact(self.matrix, flat).reshape(self.pool, self.batch, -1)

    def pieces(self):
        cols = self.matrix.shape[1]
        bounds = np.linspace(0, cols, self.shards + 1).astype(int)
        return [
            (np.ascontiguousarray(self.matrix[:, a:b]), 8)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

    def sample_vector(self):
        return self.inputs[0, 0]

    def first_result(self, ctx) -> None:
        ctx.next_op = 0
        out = ctx.service.multiply(ctx.handle, self.inputs[0])
        if not np.array_equal(out, self.refs[0]):
            raise RuntimeError(f"{self.name}: first product differs from gemm_exact")

    def op(self, ctx, k):
        return ctx.service.multiply(ctx.handle, self.inputs[k % self.pool])

    def check(self, ctx, k, out):
        return np.array_equal(out, self.refs[k % self.pool])

    def chain_layers(self, ctx, log, selfs, ops):
        layers = super().chain_layers(ctx, log, selfs, ops)
        layers["serve.service.multiply_self_ms"] = selfs[self.op_span] / ops * 1e3
        return layers


class BatchSparse512(BatchProducts):
    name = "batch-sparse512"
    rows = 512
    sparsity = 0.95
    setups = 7
    chunk = 10
    levels = [
        "serve.service.multiply",
        "serve.shards.multiply_batch",
        "hwsim.fast.multiply_batch",
        "hwsim.fused.execute",
    ]

    def setup(self, traced: bool = False):
        service = MatMulService(cache=CompileCache(directory=self.fresh_store()))
        handle = service.deploy(self.matrix, input_width=8, shards=1, backend="thread")
        ctx = SimpleNamespace(service=service, handle=handle)
        self.first_result(ctx)
        return ctx


class FleetBatch256(BatchProducts):
    name = "fleet-batch256"
    rows = 256
    sparsity = 0.95
    shards = 2
    setups = 15
    chunk = 16
    levels = [
        "serve.service.multiply",
        "serve.shards.multiply_batch",
        "cluster.client.execute",
        "hwsim.fast.multiply_batch",
        "hwsim.fused.execute",
    ]

    def setup(self, traced: bool = False):
        controller = ClusterController(self.fresh_store(), profile_servers=traced)
        try:
            controller.start_local_fleet(self.shards)
            service = controller.remote_service()
            handle = controller.deploy_fleet(service, self.matrix, input_width=8)
        except BaseException:
            controller.stop()
            raise
        ctx = SimpleNamespace(service=service, handle=handle, controller=controller)
        self.first_result(ctx)
        return ctx

    def teardown(self, ctx) -> None:
        ctx.service.close()
        ctx.controller.stop()

    def counters(self, ctx, stages):
        counters = super().counters(ctx, stages)
        counters["servers"] = [
            {
                k: stats["store"][k]
                for k in ("kernel_hits", "fused_hits", "codegen_hits", "misses", "disk_hits")
            }
            for stats in ctx.controller.fleet_stats()
        ]
        return counters

    def counters_ok(self, counters):
        # Servers resolve every shard from the store: no compile stage runs
        # for them, so the process-wide stage counts stay one per shard.
        return super().counters_ok(counters) and all(
            s["kernel_hits"] == 1 and s["misses"] == 0 and s["disk_hits"] == 0
            for s in counters["servers"]
        )

    def cache_layers(self, log, stages, ctx):
        cold = sum(log.durations("serve.cache.get"))
        return {
            "serve.cache.get_cold_self_s": cold - sum(stages.values()),
            "serve.cache.get_kernel_hit_s": median(log.durations("serve.cache.load_key")),
        }

    def trace_points(self):
        return [
            (ShardedMultiplier, "multiply_batch", "serve.shards.multiply_batch", 1),
            (RemoteShard, "execute", "cluster.client.execute", 1),
            (FastCircuit, "multiply_batch", "hwsim.fast.multiply_batch", 1),
            (FusedCircuit, "execute", "hwsim.fused.execute", 1),
        ]

    def chain_layers(self, ctx, log, selfs, ops):
        layers = super().chain_layers(ctx, log, selfs, ops)
        # The wire is the client's round trip minus the server's execution.
        layers["cluster.wire_self_ms"] = selfs["cluster.client.execute"] / ops * 1e3
        layers["cluster.client.rtt_ms"] = median(log.durations("cluster.client.execute")) * 1e3
        stats = ctx.controller.fleet_stats()
        executes = [
            (series["sum"], series["count"])
            for server in stats
            for series in server["profile"]["stages"]
            if series["stage"] == "server_execute"
        ]
        layers["cluster.server.execute_ms"] = (
            sum(t for t, _ in executes) / sum(n for _, n in executes) * 1e3
        )
        # A reconnect opens a server connection beyond the one link per
        # shard and the one this stats scrape opened on each server.
        links = ctx.handle.shard_count
        layers["cluster.retries"] = sum(s["connections"] for s in stats) - links - len(stats)
        shards = ctx.handle.sharded.utilization()["per_shard"]
        layers["cluster.local_fallbacks"] = sum(s["local_fallbacks"] for s in shards)
        batch = self.inputs[0]
        layers["cluster.protocol.encode_us"] = (
            median_time_s(lambda: batch_frame(batch, "auto"), 201) * 1e6
        )
        payload = batch_frame(batch, "auto")[4:]  # strip the length prefix

        def decode():
            _, meta, blob = decode_payload(payload)
            frame_array(meta, blob)

        layers["cluster.protocol.decode_us"] = median_time_s(decode, 201) * 1e6
        return layers


class EsnStep128(ClosedLoop):
    name = "esn-step128"
    dim = 128
    sparsity = 0.75
    setups = 25
    chunk = 1000
    op_span = "reservoir.step"
    levels = [
        "reservoir.step",
        "serve.shards.multiply_batch",
        "hwsim.fast.multiply_batch",
        "hwsim.fused.execute",
    ]

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        rng = self.rng
        w = rng.uniform(-1.0, 1.0, size=(self.dim, self.dim))
        flat = w.ravel()
        flat[rng.choice(flat.size, size=round(flat.size * self.sparsity), replace=False)] = 0.0
        w *= 0.9 / np.max(np.abs(np.linalg.eigvals(w)))
        w_in = rng.uniform(-0.5, 0.5, size=(self.dim, 1))
        self.esn = quantize_esn(w, w_in, weight_width=8, state_width=8)
        self.drive = rng.integers(-127, 128, size=(1 << 16, 1), dtype=np.int64)
        self.initial = s8_vectors(rng, self.dim)

    def pieces(self):
        return [(np.ascontiguousarray(self.esn.w_q.T), self.esn.state_width)]

    def sample_vector(self):
        return self.initial

    def setup(self, traced: bool = False):
        service = MatMulService(cache=CompileCache(directory=self.fresh_store()))
        handle = service.deploy_esn(self.esn, backend="thread")
        state = handle.esn.step(self.initial, self.drive[0])
        if not np.array_equal(state, self.esn.step(self.initial, self.drive[0])):
            raise RuntimeError("esn-step128: first state differs from IntegerESN.step")
        return SimpleNamespace(
            service=service, handle=handle, state=state, reference=state, next_op=1
        )

    def op(self, ctx, k):
        ctx.state = ctx.handle.esn.step(ctx.state, self.drive[k % len(self.drive)])
        return ctx.state

    def check(self, ctx, k, out):
        # The reference walks its own trajectory: once the served states
        # diverge, every later step counts as failed.
        ctx.reference = self.esn.step(ctx.reference, self.drive[k % len(self.drive)])
        return np.array_equal(out, ctx.reference)

    def chain_layers(self, ctx, log, selfs, ops):
        layers = super().chain_layers(ctx, log, selfs, ops)
        layers["reservoir.step_self_us"] = selfs[self.op_span] / ops * 1e6
        return layers


# -- submit bursts ------------------------------------------------------------------


class ServeBurst64(Workload):
    """Bursts of single vectors into ``MatMulService.submit``.

    Two callers share the event loop.  Each submits a burst of 1 to
    ``max_burst`` single vectors at once, its size drawn from the seed,
    and waits for all of them before its next burst.  The micro-batcher
    (64 lanes, 2 ms) coalesces both callers' requests: it flushes a full
    batch at once and the rest when its 2 ms timer fires, so batch sizes
    range from 1 to 64 and both flush paths run.  With one caller the
    process sat idle 42% of the time, mostly in timer waits, and how long
    each wake-up took followed the host's load; with two it is busy 93%
    of the time.  Each request is timed from the instant its burst
    began; how long its caller took to reach the request's ``submit`` is
    reported as ``bench.generator_late_p99_ms``.
    """

    name = "serve-burst64"
    rows = 64
    sparsity = 0.5
    setups = 15
    pool = 4096
    #: Callers start no burst after this much of a chunk; results are
    #: verified between chunks, off the clock.
    chunk_s = 0.1
    max_burst = 128
    callers = 2

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.matrix = sparse_s8(self.rng, self.rows, self.rows, self.sparsity)
        self.vectors = s8_vectors(self.rng, self.pool, self.rows)
        self.refs = gemm_exact(self.matrix, self.vectors)
        self._phases = itertools.count()
        self.loop = asyncio.new_event_loop()

    def pieces(self):
        return [(self.matrix, 8)]

    def sample_vector(self):
        return self.vectors[0]

    def setup(self, traced: bool = False):
        service = MatMulService(cache=CompileCache(directory=self.fresh_store()))
        handle = service.deploy(self.matrix, input_width=8, backend="thread")
        out = self.loop.run_until_complete(service.submit(handle, self.vectors[0]))
        if not np.array_equal(out, self.refs[0]):
            raise RuntimeError(f"{self.name}: first product differs from gemm_exact")
        return SimpleNamespace(service=service, handle=handle)

    def close(self) -> None:
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    async def _bursts(self, ctx, seconds: float, per_request: bool) -> dict:
        """Closed-loop bursts for ``seconds``; per-request latencies are
        kept only when ``per_request`` (the traced run's budget needs them,
        and their memory would otherwise grow with throughput)."""
        phase = next(self._phases)
        rngs = [np.random.default_rng([self.seed, phase, c]) for c in range(self.callers)]
        service, handle, vectors = ctx.service, ctx.handle, self.vectors
        op_latency, rates, late, latency = [], [], [], []
        requests = failed = 0
        due_sum = done_sum = 0.0

        async def request(pick: int, due: float):
            start = time.perf_counter()
            row = await service.submit(handle, vectors[pick])
            return row, start - due, time.perf_counter() - due

        async def caller(rng, bursts: list, stop: float) -> None:
            while time.perf_counter() < stop:
                picks = rng.integers(0, self.pool, size=rng.integers(1, self.max_burst + 1))
                due = time.perf_counter()
                got = await asyncio.gather(
                    *(request(p, due) for p in picks), return_exceptions=True
                )
                op_latency.append(time.perf_counter() - due)
                bursts.append((picks, got, due))

        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            bursts = []
            chunk_start = time.perf_counter()
            stop = chunk_start + self.chunk_s
            await asyncio.gather(*(caller(rng, bursts, stop) for rng in rngs))
            products = sum(len(picks) for picks, _, _ in bursts)
            rates.append(products / (time.perf_counter() - chunk_start))
            chunk_late, chunk_latency = [], []
            for picks, got, due in bursts:
                for pick, result in zip(picks, got):
                    requests += 1
                    if isinstance(result, BaseException) or not np.array_equal(
                        result[0], self.refs[pick]
                    ):
                        failed += 1
                        continue
                    chunk_late.append(result[1])
                    chunk_latency.append(result[2])
                    due_sum += due
                    done_sum += due + result[2]
            if per_request:
                late.append(np.asarray(chunk_late))
                latency.append(np.asarray(chunk_latency))
        return {
            "requests": requests,
            "failed": failed,
            "latency": np.concatenate(latency) if per_request else None,
            "late": np.concatenate(late) if per_request else None,
            "due_sum": due_sum,
            "done_sum": done_sum,
            "op_latency": np.asarray(op_latency),
            "rates": rates,
        }

    def measure(self, ctx, seconds: float):
        run = self.loop.run_until_complete(self._bursts(ctx, seconds, per_request=False))
        lat = run["op_latency"]
        metrics = {
            "products_per_s": (median(run["rates"]), "1/s"),
            "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        }
        report = {"ops": len(lat), "chunks": len(run["rates"]), **tail_latencies(lat)}
        return metrics, {"attempted": run["requests"], "failed": run["failed"], "report": report}

    def trace_points(self):
        return [
            (MatMulService, "submit", "serve.service.submit", None),
            (MicroBatcher, "submit", "serve.batcher.submit", None),
            (ShardedMultiplier, "validate_vector", "serve.shards.validate_vector", None),
            (ShardedMultiplier, "multiply_batch", "serve.shards.multiply_batch", 1),
            (FastCircuit, "multiply_batch", "hwsim.fast.multiply_batch", 1),
            (FusedCircuit, "execute", "hwsim.fused.execute", 1),
        ]

    def trace(self, seconds: float):
        ctx, layers, compiled = self.traced_setup()
        log = SpanLog()
        untraced, traced = [], []
        stats = ctx.handle.batcher.stats

        def batcher_counts():
            return np.array([stats.batches, stats.lanes_dispatched, stats.deadline_flushes])

        for phase in range(4):
            if phase % 2:
                for owner, attr, name, size_arg in self.trace_points():
                    log.wrap(owner, attr, name, size_arg)
                before = batcher_counts()
                log.active = True
            try:
                run = self.loop.run_until_complete(
                    self._bursts(ctx, seconds / 4, per_request=True)
                )
            finally:
                log.active = False
                log.restore()
            if phase % 2:
                run["batcher"] = batcher_counts() - before
                traced.append(run)
            else:
                untraced.append(run)
        batches, lanes, deadline_flushes = sum(r["batcher"] for r in traced)
        layers.update(
            self.kernel_layers(
                compiled, log.durations("hwsim.fused.execute"), round(lanes / batches)
            )
        )
        budget = self.request_budget(log, traced)
        latency = budget["latency"]
        layers["serve.service.submit_self_ms"] = budget["service"] * 1e3
        layers["serve.batcher.self_ms"] = budget["batcher"] * 1e3
        layers["serve.batcher.queue_wait_ms"] = budget["queue_wait"] * 1e3
        layers["serve.shards.multiply_batch_self_ms"] = budget["shards"] * 1e3
        layers["hwsim.fast.multiply_batch_self_ms"] = budget["fast"] * 1e3
        layers["hwsim.fused.kernel_share"] = budget["kernel"] / latency
        layers["serve.batcher.batch_size_mean"] = lanes / batches
        layers["serve.batcher.deadline_flush_ratio"] = deadline_flushes / batches
        layers["serve.batcher.lane_occupancy"] = lanes / (batches * ctx.handle.batcher.max_batch)
        layers["bench.generator_late_p99_ms"] = percentile_ms(
            np.concatenate([r["late"] for r in traced]), 99
        )
        layers["bench.unattributed_share"] = budget["unattributed"] / latency
        layers["bench.tracing_overhead"] = (
            np.mean(np.concatenate([r["latency"] for r in traced]))
            / np.mean(np.concatenate([r["latency"] for r in untraced]))
            - 1.0
        )
        shares = {
            name: value / latency
            for name, value in budget.items()
            if name not in ("latency", "requests")
        }
        report = {"requests_traced": budget["requests"], "latency_share": shares}
        attempted = sum(r["requests"] for r in untraced + traced)
        failed = sum(r["failed"] for r in untraced + traced)
        self.teardown(ctx)
        return layers, report, attempted, failed

    @staticmethod
    def request_budget(log: SpanLog, runs: list[dict]) -> dict:
        """Where the mean request's time went, in seconds.

        Per request, from the instant its burst began: the caller's
        fan-out until the request reached ``submit``, the service's own work around the batcher, the batcher's own
        work before validation and after its batch returns (result
        delivery), validation, queue wait until its batch starts
        executing, then the batch's shard, engine and kernel time, which
        every request in the batch waits through.  Sums over requests
        equal size-weighted sums over batches, so no request has to be
        matched to its batch.
        """
        spans = log.spans
        submits = spans["serve.batcher.submit"]
        validates = spans["serve.shards.validate_vector"]
        fast = {s.parent: s for s in spans["hwsim.fast.multiply_batch"]}
        kernel = {s.parent: s for s in spans["hwsim.fused.execute"]}
        shards_s = fast_s = kernel_s = batch_start = batch_end = 0.0
        for b in spans["serve.shards.multiply_batch"]:
            f = fast[b.seq]
            x = kernel[f.seq]
            shards_s += b.size * (b.duration - f.duration)
            fast_s += b.size * (f.duration - x.duration)
            kernel_s += b.size * x.duration
            batch_start += b.size * b.start
            batch_end += b.size * b.end
        requests = sum(r["requests"] for r in runs)
        due = sum(r["due_sum"] for r in runs)
        done = sum(r["done_sum"] for r in runs)
        late = sum(float(np.sum(r["late"])) for r in runs)
        submit_start = sum(s.start for s in submits)
        submit_end = sum(s.end for s in submits)
        validate_start = sum(s.start for s in validates)
        validate_end = sum(s.end for s in validates)
        parts = {
            "generator_late": late,
            "service": (submit_start - due - late) + (done - submit_end),
            "batcher": (validate_start - submit_start) + (submit_end - batch_end),
            "validate": validate_end - validate_start,
            "queue_wait": batch_start - validate_end,
            "shards": shards_s,
            "fast": fast_s,
            "kernel": kernel_s,
        }
        parts["unattributed"] = (done - due) - sum(parts.values())
        budget = {name: value / requests for name, value in parts.items()}
        budget["latency"] = (done - due) / requests
        budget["requests"] = requests
        return budget


WORKLOADS = {
    w.name: w
    for w in (
        BatchSparse512,
        EsnStep128,
        ServeBurst64,
        FleetBatch256,
    )
}
