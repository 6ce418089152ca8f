"""`ShardServer`: one network host of a sharded spatial multiplier.

Ship the kernel once, stream batches: an asyncio TCP server that

* **loads kernels by content digest** from a shared
  :class:`~repro.serve.cache.CompileCache` artifact store
  (:meth:`~repro.serve.cache.CompileCache.load_key`) — a LOAD frame
  carries a compile key and a column range, never a matrix or a kernel;
* **executes batches** on the same engine-auto selection the in-process
  shard executor uses — the fused cycle-loop-free schedule while the
  connection is fault-free, the bit-plane gate engine whenever FAULT
  overrides are active (and whenever the client pins a gate engine);
* **replays faults deterministically**: FAULT frames install the exact
  override schedule :meth:`FastCircuit.fault_overrides` produces, so a
  client-side fault campaign stays bit-exact across the network.  Each
  schedule is checked against the loaded kernel
  (:func:`repro.hwsim.fast.check_overrides`) before it is kept, so a
  schedule the engines cannot apply is refused at its FAULT frame, never
  at a later EXECUTE;
* answers STATS with its counters (loads, executes, per-engine batches,
  store statistics, and per kernel run fused its compute dtype and
  exactness margin) for fleet dashboards.

Batches execute in the event loop's default thread pool, so the loop
keeps accepting frames (from other connections) while numpy works.  Each
connection serves one shard at a time — the cluster client opens one
connection per shard — and all connection state (kernel, overrides) dies
with the connection.

Run one from a shell (the deployment unit of ``docs/cluster.md``)::

    python -m repro.cluster.server --store /shared/artifacts --port 9401

The first stdout line is a JSON object with the bound host/port (port 0
picks a free one), so orchestration scripts can scrape endpoints.
"""

from __future__ import annotations

import argparse
import asyncio
import hmac
import json
import pathlib
import secrets
import threading
import time
from typing import Any

from repro.hwsim.fast import (
    EMPTY_OVERRIDES,
    SERVE_ENGINES,
    check_overrides,
    executor_label,
    overrides_active,
    resolve_engine,
)
from repro.serve.cache import CompileCache, CompileKey
from repro.cluster.protocol import (
    ERR_AUTH,
    ERR_EXPIRED,
    ERR_PROTOCOL,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameType,
    ProtocolError,
    auth_response,
    decode_overrides,
    encode_frame,
    frame_array,
    read_frame,
    result_frame,
)

__all__ = ["ShardServer", "main"]


class _Connection:
    """Per-connection shard state: the loaded engine plus live overrides."""

    def __init__(self) -> None:
        self.fast = None  # FastCircuit, after a successful LOAD
        self.key: CompileKey | None = None
        self.columns: tuple[int, int] | None = None
        self.overrides = EMPTY_OVERRIDES


class ShardServer:
    """Serve shard kernels from a shared artifact store over TCP.

    Args:
        store: artifact directory (shared with the deploying client and
            any sibling servers), or an existing :class:`CompileCache`.
        host / port: bind address; port 0 binds an ephemeral port
            (read :attr:`port` after :meth:`start`).
        name: server identity echoed in the HELLO reply and stats.
        auth_secret: optional shared secret.  When set, every HELLO
            reply carries a fresh challenge nonce and the connection
            must answer with a correct AUTH frame (HMAC-SHA256,
            constant-time compare) before any other frame is accepted;
            a wrong or missing answer is refused with the stable
            ``"auth"`` token and the connection closed.  ``None`` (the
            default) keeps the handshake exactly as before.
        profiler: optional :class:`repro.obs.profile.StageProfiler`.
            When set, every EXECUTE's busy time lands in the
            ``server_execute`` stage histogram keyed by the
            variant-qualified executor label, and STATS replies carry
            the profiler snapshot under ``"profile"`` so
            :class:`repro.obs.metrics.FleetMetrics` can merge it
            fleet-wide.  ``None`` (the default) records nothing.
    """

    def __init__(
        self,
        store: str | pathlib.Path | CompileCache,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        auth_secret: str | None = None,
        profiler=None,
    ) -> None:
        if isinstance(store, CompileCache):
            self.cache = store
        else:
            self.cache = CompileCache(directory=store)
        if self.cache.directory is None:
            raise ValueError(
                "a shard server needs an on-disk artifact store; construct "
                "the CompileCache with directory=..."
            )
        self.host = host
        self.port = int(port)
        self.name = name if name is not None else f"shard-{id(self) & 0xFFFF:04x}"
        self.auth_secret = auth_secret
        self.profiler = profiler
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stats_lock = threading.Lock()
        self._started = time.monotonic()
        self.connections = 0
        self.loads = 0
        self.executes = 0
        self.faults_set = 0
        self.errors = 0
        self.auth_failures = 0
        self.expired_skips = 0
        self.engine_batches: dict[str, int] = {}
        # Per artifact stem executed fused: its compute dtype and spare
        # bits, the same values the client reports per shard.
        self.fused_kernels: dict[str, dict[str, Any]] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` for port 0."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, abort_connections: bool = True) -> None:
        """Stop listening; with ``abort_connections`` also drop every
        live connection mid-stream (how tests model a dying host)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if abort_connections:
            for writer in list(self._writers):
                transport = writer.transport
                if transport is not None:
                    transport.abort()

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    def stats(self) -> dict[str, Any]:
        with self._stats_lock:
            doc = {
                "name": self.name,
                "uptime_s": round(time.monotonic() - self._started, 6),
                "connections": self.connections,
                "loads": self.loads,
                "executes": self.executes,
                "faults_set": self.faults_set,
                "errors": self.errors,
                "auth_failures": self.auth_failures,
                "expired_skips": self.expired_skips,
                "auth_required": self.auth_secret is not None,
                "engine_batches": dict(self.engine_batches),
                "fused_kernels": {k: dict(v) for k, v in self.fused_kernels.items()},
                "store": self.cache.stats(),
            }
        if self.profiler is not None:
            doc["profile"] = self.profiler.snapshot()
        return doc

    def _count(self, field: str, engine: str | None = None) -> None:
        with self._stats_lock:
            setattr(self, field, getattr(self, field) + 1)
            if engine is not None:
                self.engine_batches[engine] = self.engine_batches.get(engine, 0) + 1

    # -- the per-connection protocol loop ------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count("connections")
        self._writers.add(writer)
        state = _Connection()
        try:
            if not await self._handshake(reader, writer):
                return
            while True:
                try:
                    ftype, meta, blob = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # clean (or abrupt) client disconnect
                except ProtocolError as exc:
                    # A corrupt stream (garbage length prefix, torn
                    # frame): answer with the stable token and drop the
                    # connection — framing is unrecoverable mid-stream.
                    self._count("errors")
                    writer.write(_error(ERR_PROTOCOL, str(exc)))
                    await writer.drain()
                    return
                try:
                    reply = await self._dispatch(state, ftype, meta, blob)
                except ProtocolError as exc:
                    self._count("errors")
                    reply = _error(ERR_PROTOCOL, str(exc))
                except Exception as exc:  # noqa: BLE001 - fail the request,
                    # not the server: the client maps this to a retry or
                    # a local fallback.
                    self._count("errors")
                    reply = _error("execution", f"{type(exc).__name__}: {exc}")
                writer.write(reply)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            ftype, meta, _ = await read_frame(reader)
        except (asyncio.IncompleteReadError, ConnectionError, ProtocolError):
            return False
        version = meta.get("version")
        if ftype is not FrameType.HELLO or version not in SUPPORTED_VERSIONS:
            self._count("errors")
            writer.write(
                _error(
                    "version",
                    f"server speaks protocols {SUPPORTED_VERSIONS}, "
                    f"client sent {version!r}",
                )
            )
            await writer.drain()
            return False
        hello: dict[str, Any] = {"version": PROTOCOL_VERSION, "server": self.name}
        challenge = None
        if self.auth_secret is not None:
            challenge = secrets.token_hex(32)
            hello["challenge"] = challenge
        writer.write(encode_frame(FrameType.HELLO, hello))
        await writer.drain()
        if challenge is None:
            return True
        return await self._verify_auth(reader, writer, challenge)

    async def _verify_auth(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        challenge: str,
    ) -> bool:
        """Demand one correct AUTH frame before anything else is served.

        Every refusal path — wrong MAC, wrong frame type, malformed
        meta — answers with the same stable ``"auth"`` token and closes,
        so a probing client learns nothing beyond "authentication
        failed".  The MAC compare is constant-time
        (:func:`hmac.compare_digest`).
        """
        try:
            ftype, meta, _ = await read_frame(reader)
        except (asyncio.IncompleteReadError, ConnectionError, ProtocolError):
            return False
        expected = auth_response(self.auth_secret, challenge)
        mac = meta.get("mac") if ftype is FrameType.AUTH else None
        if not isinstance(mac, str) or not hmac.compare_digest(expected, mac):
            self._count("errors")
            self._count("auth_failures")
            writer.write(_error(ERR_AUTH, "authentication failed"))
            await writer.drain()
            return False
        writer.write(encode_frame(FrameType.OK, {"authenticated": True}))
        await writer.drain()
        return True

    async def _dispatch(
        self, state: _Connection, ftype: FrameType, meta: dict, blob: bytes
    ) -> bytes:
        if ftype is FrameType.LOAD:
            return await self._load(state, meta)
        if ftype is FrameType.EXECUTE:
            return await self._execute(state, meta, blob)
        if ftype is FrameType.FAULT:
            return self._fault(state, meta)
        if ftype is FrameType.STATS:
            return encode_frame(FrameType.OK, {"stats": self.stats()})
        raise ProtocolError(f"unexpected frame type {ftype.name}")

    async def _load(self, state: _Connection, meta: dict) -> bytes:
        try:
            key = CompileKey(
                matrix_digest=str(meta["matrix_digest"]),
                input_width=int(meta["input_width"]),
                scheme=str(meta["scheme"]),
                tree_style=str(meta["tree_style"]),
            )
            start, stop = int(meta["start"]), int(meta["stop"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed LOAD frame: {exc}") from exc
        loop = asyncio.get_running_loop()
        try:
            # Artifact I/O (and a possible re-fuse backfill) off the loop.
            entry = await loop.run_in_executor(None, self.cache.load_key, key)
        except KeyError as exc:
            self._count("errors")
            return _error("unknown-kernel", str(exc))
        expected = meta.get("fingerprint")
        if expected is not None and entry.kernel.fingerprint != str(expected):
            self._count("errors")
            return _error(
                "fingerprint-mismatch",
                f"store kernel for {key.stem!r} has fingerprint "
                f"{entry.kernel.fingerprint[:16]}..., client expected "
                f"{str(expected)[:16]}...",
            )
        if entry.kernel.cols != stop - start:
            self._count("errors")
            return _error(
                "shape-mismatch",
                f"kernel has {entry.kernel.cols} columns, LOAD named the "
                f"range [{start}, {stop})",
            )
        state.fast = entry.fast
        state.key = key
        state.columns = (start, stop)
        state.overrides = EMPTY_OVERRIDES
        self._count("loads")
        return encode_frame(
            FrameType.OK,
            {
                "rows": entry.kernel.rows,
                "cols": entry.kernel.cols,
                "result_width": entry.kernel.result_width,
                "fingerprint": entry.kernel.fingerprint,
                "source": entry.source,
            },
        )

    async def _execute(self, state: _Connection, meta: dict, blob: bytes) -> bytes:
        if state.fast is None:
            return _error("not-loaded", "EXECUTE before a successful LOAD")
        engine = str(meta.get("engine", "auto"))
        if engine not in SERVE_ENGINES:
            # A well-framed request this server cannot run: an
            # application error for the caller, never link damage.
            self._count("errors")
            return _error("unknown-engine", f"unknown engine {engine!r}")
        budget = meta.get("deadline_s")
        if budget is not None:
            try:
                budget = float(budget)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"malformed deadline_s: {budget!r}") from exc
        received = time.monotonic()
        batch = frame_array(meta, blob)
        # Store kernels are fault-free, so the connection's overrides
        # are the only fault source ``auto`` must see here.
        resolved = resolve_engine(engine, lambda: overrides_active(state.overrides))
        trace = meta.get("trace")
        loop = asyncio.get_running_loop()

        def _run():
            # The budget is re-checked on the worker thread, not just at
            # frame receipt: under load the executor queue itself is
            # where the budget dies, and skipping there is exactly the
            # work-shedding the client asked for.
            if budget is not None and time.monotonic() - received >= budget:
                raise _BudgetExpired()
            return state.fast.multiply_batch(
                batch, engine=resolved, overrides=state.overrides
            )

        start = time.perf_counter()
        try:
            result = await loop.run_in_executor(None, _run)
        except _BudgetExpired:
            self._count("expired_skips")
            return _error(
                ERR_EXPIRED,
                f"deadline budget of {budget:.6f}s exhausted before "
                "execution; batch skipped",
            )
        busy = time.perf_counter() - start
        # STATS/RESULT carry the variant-qualified executor label, built
        # by the client's own labeller from the same artifacts — so the
        # server-side view in ``repro.obs`` agrees with client telemetry.
        label = executor_label(resolved, lambda: state.fast.fused_variant)
        self._count("executes", engine=label)
        if resolved == "fused":
            fused = state.fast.built_fused
            with self._stats_lock:
                self.fused_kernels[state.key.stem] = {
                    "fused_variant": fused.variant,
                    "spare_bits": fused.spare_bits,
                }
        if self.profiler is not None:
            self.profiler.record("server_execute", busy, variant=label)
        spans = None
        if isinstance(trace, dict):
            spans = [self._server_span(state, trace, label, batch, busy)]
        return result_frame(result, label, busy, spans=spans)

    def _server_span(
        self,
        state: _Connection,
        trace: dict,
        engine: str,
        batch,
        busy_s: float,
    ) -> dict[str, Any]:
        """One ``server_execute`` span record for a traced EXECUTE.

        Parented on the *propagated* client span (the v3 ``"trace"``
        context), which is what lets the client assemble a single tree
        without guessing.  ``start_s`` is this host's wall clock — the
        tree hangs together by parent links, not by clock agreement.

        Built as the wire dict directly (the shape of
        :meth:`repro.obs.tracing.Span.to_dict`) rather than via a
        ``Span`` round-trip: this sits on every traced EXECUTE's
        serving path.
        """
        from repro.obs.tracing import Tracer

        lanes = int(batch.shape[0]) if getattr(batch, "ndim", 0) == 2 else 0
        return {
            "trace_id": str(trace.get("trace_id", "")),
            "span_id": Tracer.new_span_id(),
            "parent_id": str(trace.get("span_id", "")) or None,
            "stage": "server_execute",
            "start_s": round(time.time() - busy_s, 6),
            "duration_s": round(busy_s, 9),
            "attrs": {
                "server": self.name,
                "engine": engine,
                "lanes": lanes,
                "columns": list(state.columns) if state.columns else None,
            },
        }

    def _fault(self, state: _Connection, meta: dict) -> bytes:
        if state.fast is None:
            return _error("not-loaded", "FAULT before a successful LOAD")
        action = meta.get("action")
        if action == "clear":
            state.overrides = EMPTY_OVERRIDES
        elif action == "set":
            overrides = decode_overrides(meta)
            try:
                check_overrides(overrides, state.fast.kernel)
            except ValueError as exc:
                # Kept, it would fail every later EXECUTE on this
                # connection; refused, the previous schedule stays.
                raise ProtocolError(
                    f"fault override frame does not fit the loaded kernel: {exc}"
                ) from exc
            state.overrides = overrides
            self._count("faults_set")
        else:
            raise ProtocolError(f"unknown FAULT action {action!r}")
        return encode_frame(FrameType.OK, {"active": overrides_active(state.overrides)})


class _BudgetExpired(Exception):
    """Internal marker: an EXECUTE's deadline budget died pre-execution."""


def _error(token: str, message: str) -> bytes:
    return encode_frame(FrameType.ERROR, {"error": token, "message": message})


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.cluster.server``: run one shard server."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.server",
        description=(
            "Serve compiled shard kernels from a shared artifact store "
            "over the repro cluster protocol."
        ),
    )
    parser.add_argument(
        "--store",
        required=True,
        help="artifact directory shared with the deploying client "
        "(filled by `python -m repro.serve.prewarm` or by cached deploys)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    parser.add_argument("--name", default=None, help="server identity for stats")
    parser.add_argument(
        "--auth-secret",
        default=None,
        help="shared secret for the HELLO challenge/response handshake "
        "(off by default; clients must pass the same auth_secret=)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record server_execute duration histograms and expose them "
        "in STATS replies (merged fleet-wide by repro.obs)",
    )
    args = parser.parse_args(argv)

    async def _run() -> None:
        profiler = None
        if args.profile:
            from repro.obs.profile import StageProfiler

            profiler = StageProfiler()
        server = ShardServer(
            args.store,
            host=args.host,
            port=args.port,
            name=args.name,
            auth_secret=args.auth_secret,
            profiler=profiler,
        )
        await server.start()
        print(
            json.dumps(
                {"host": server.host, "port": server.port, "store": str(args.store)}
            ),
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
