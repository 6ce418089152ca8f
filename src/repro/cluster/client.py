"""Client side of the cluster protocol: shard handles and fleet fan-out.

:class:`RemoteShard` is the unit the serve layer actually executes
through: one column shard bound to one endpoint, with

* lazy connect + HELLO/version handshake + LOAD(digest) on first use
  (and again after every reconnect — connection state is the only
  server-side state);
* per-request timeouts (socket-level, covering connect, send and the
  full response);
* lazy fault synchronization: the shard's current override schedule is
  diffed against what the server last acknowledged, and a FAULT frame
  is sent only when it changed — steady-state traffic pays zero fault
  frames, a campaign's inject/revert cycle pays exactly two;
* **one reconnect-retry**: a transport failure tears the connection
  down and retries once on a fresh connection; a second failure marks
  the shard *unhealthy* and raises :class:`RemoteShardError`, which the
  sharded executor treats as "fall back to local execution";
* **automatic revival**: an unhealthy shard fails fast (no timeout per
  batch) only until its jittered-backoff deadline
  (:class:`repro.cluster.health.ProbeState`) passes — the next batch
  after that spends a *single* connection attempt as a revival probe,
  and success promotes the shard straight back to remote serving.
  :meth:`RemoteShard.revive` remains as the manual fast path: it clears
  the backoff schedule so the very next call probes immediately.

:class:`ClusterClient` maps shard indices onto an endpoint list
(round-robin when there are more shards than hosts) and offers
fleet-level stats probes.  It holds no sockets itself; every
:class:`RemoteShard` owns exactly one.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.cluster.health import BackoffPolicy, ProbeState
from repro.cluster.protocol import (
    ERR_AUTH,
    ERR_EXPIRED,
    ERR_PROTOCOL,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameType,
    ProtocolError,
    RemoteFault,
    auth_response,
    batch_frame,
    encode_frame,
    encode_overrides,
    frame_array,
    recv_frame,
    send_frame,
)
from repro.hwsim.fast import CARRY_KINDS, EMPTY_OVERRIDES
from repro.serve.admission import DeadlineExceeded
from repro.serve.telemetry import LatencyWindow

__all__ = ["RemoteShardError", "RemoteShard", "ClusterClient"]

#: Failures of the link itself, as opposed to a server that answered.
#: One tuple so every request path (execute, stats, probe, warm) tears
#: down and books health identically.
_TRANSPORT_ERRORS = (OSError, ConnectionError, ProtocolError, EOFError)


class RemoteShardError(RuntimeError):
    """This shard cannot currently be served remotely (fall back local)."""


def _overrides_token(overrides: tuple[Sequence, Mapping]) -> tuple:
    """Hashable normal form for change detection."""
    stuck_out, carry = overrides
    return (
        tuple((int(i), int(v)) for i, v in stuck_out),
        tuple(
            (kind, tuple((int(s), int(v)) for s, v in carry.get(kind, ())))
            for kind in CARRY_KINDS
        ),
    )


class _Connection:
    """One socket speaking the cluster protocol, request/response."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float,
        auth_secret: str | None = None,
    ) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.settimeout(timeout_s)
        try:
            send_frame(self.sock, FrameType.HELLO, {"version": PROTOCOL_VERSION})
            ftype, meta, _ = recv_frame(self.sock)
            if ftype is FrameType.ERROR:
                raise RemoteFault(
                    str(meta.get("error", "error")), str(meta.get("message", ""))
                )
            if ftype is not FrameType.HELLO or meta.get("version") not in SUPPORTED_VERSIONS:
                raise ProtocolError(f"unexpected handshake reply {ftype.name}")
            challenge = meta.get("challenge")
            if challenge is not None:
                # The server demands the shared-secret handshake.  A
                # client without the secret fails *here*, loudly, with
                # the same stable token the server would use — not with
                # a confusing mid-request refusal later.
                if auth_secret is None:
                    raise RemoteFault(
                        ERR_AUTH,
                        f"{host}:{port} requires a shared secret "
                        "(pass auth_secret=)",
                    )
                send_frame(
                    self.sock,
                    FrameType.AUTH,
                    {"mac": auth_response(auth_secret, str(challenge))},
                )
                ftype, meta, _ = recv_frame(self.sock)
                if ftype is FrameType.ERROR:
                    raise RemoteFault(
                        str(meta.get("error", "error")),
                        str(meta.get("message", "")),
                    )
                if ftype is not FrameType.OK:
                    raise ProtocolError(
                        f"unexpected auth reply {ftype.name}"
                    )
        except BaseException:
            self.sock.close()
            raise

    def request(
        self, frame: bytes
    ) -> tuple[FrameType, dict[str, Any], bytes]:
        """Send one frame, return the (non-ERROR) reply.

        ERROR replies raise :class:`RemoteFault` — the connection itself
        is still good (the server answered), so callers must not treat
        it as a transport failure.
        """
        self.sock.sendall(frame)
        ftype, meta, blob = recv_frame(self.sock)
        if ftype is FrameType.ERROR:
            raise RemoteFault(
                str(meta.get("error", "error")), str(meta.get("message", ""))
            )
        return ftype, meta, blob

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteShard:
    """One column shard served over one endpoint (see module docstring).

    ``key_meta`` is the LOAD frame body: the shard piece's compile key
    (content digest + options), its column range, and the expected plan
    fingerprint — everything the server needs to resolve the kernel
    from the shared store, and nothing it could execute unverified.
    """

    def __init__(
        self,
        host: str,
        port: int,
        key_meta: dict[str, Any],
        timeout_s: float = 5.0,
        probe_backoff: BackoffPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Any | None = None,
        auth_secret: str | None = None,
        trip_threshold: int = 1,
    ) -> None:
        if trip_threshold < 1:
            raise ValueError(
                f"trip_threshold must be >= 1, got {trip_threshold}"
            )
        self.host = host
        self.port = int(port)
        self.key_meta = dict(key_meta)
        self.timeout_s = float(timeout_s)
        self.auth_secret = auth_secret
        # Circuit breaker: the link must fail ``trip_threshold``
        # *consecutive* requests (each already retried once on a fresh
        # connection) before it is marked unhealthy — i.e. before the
        # breaker opens and traffic stops touching the network.  The
        # default of 1 is the historical behavior: one exhausted request
        # trips immediately.  Higher values tolerate isolated blips
        # (each failed request still falls back locally) without
        # abandoning the link.
        self.trip_threshold = int(trip_threshold)
        self._failure_streak = 0
        self.healthy = True
        # Optional FlightRecorder: health transitions on this link are
        # exactly the events an operator reads after an incident.
        self.recorder = recorder
        self.probe_state = ProbeState(probe_backoff, clock)
        # Round-trip times, recorded by the shard executor from the one
        # reading that also times its ``wire`` span and profiler sample:
        # each successful :meth:`execute` call, fault sync and
        # reconnect-retry included.
        self.rtt = LatencyWindow(1024)
        self.remote_calls = 0
        # Batches the executor served locally because this link was down;
        # incremented by the sharded executor's fallback path.
        self.local_fallbacks = 0
        self.load_info: dict[str, Any] | None = None
        self._conn: _Connection | None = None
        self._synced: tuple | None = None
        # One request in flight per connection: the protocol is strict
        # request/response.
        self._lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def breaker_state(self) -> str:
        """This link's circuit-breaker state, in the classic vocabulary.

        ``"closed"`` — healthy, traffic flows remotely.  ``"open"`` —
        tripped; every batch fails fast to local fallback without
        touching the network.  ``"half_open"`` — the backoff deadline
        has passed, so the next batch is spent as a single revival
        probe (success re-closes the breaker, failure re-opens it with
        a longer backoff).  The states are a reading of the existing
        ``healthy`` flag + :class:`~repro.cluster.health.ProbeState`
        machinery, not a separate state machine that could disagree
        with it.
        """
        if self.healthy:
            return "closed"
        return "half_open" if self.probe_state.due() else "open"

    # -- connection management ----------------------------------------------

    def _ensure(self) -> _Connection:
        if self._conn is None:
            conn = _Connection(
                self.host, self.port, self.timeout_s, auth_secret=self.auth_secret
            )
            try:
                _, meta, _ = conn.request(
                    encode_frame(FrameType.LOAD, self.key_meta)
                )
            except BaseException:
                conn.close()
                raise
            self.load_info = meta
            self._conn = conn
            self._synced = _overrides_token(EMPTY_OVERRIDES)
        return self._conn

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._synced = None

    def warm(self) -> bool:
        """Best-effort connect + LOAD now (deploy-time warmup).

        Transport failures are swallowed — the host may simply not be
        up yet, and the execute path has its own retry-then-fallback —
        but a server that *answers* with a refusal (unknown digest,
        fingerprint mismatch) raises :class:`RemoteFault`: that is a
        store misconfiguration worth failing the deploy over.
        """
        with self._lock:
            try:
                self._ensure()
                return True
            except RemoteFault:
                self._drop()
                raise
            except (OSError, ConnectionError, ProtocolError, EOFError):
                self._drop()
                return False

    def revive(self) -> None:
        """Manual fast path: clear the unhealthy flag *and* the backoff
        schedule so the very next call probes the host immediately."""
        with self._lock:
            self.healthy = True
            self._failure_streak = 0
            self.probe_state.reset()

    def probe_due(self) -> bool:
        """True when an unhealthy link's backoff deadline has passed."""
        return self.probe_state.due()

    def probe(self) -> bool:
        """One explicit revival attempt (connect + HELLO + LOAD).

        Respects the backoff schedule — inside the window it returns
        ``False`` without touching the network.  Success promotes the
        shard back to healthy; failure grows the backoff.  Already
        healthy is trivially ``True``.  Driven by
        :class:`repro.cluster.health.HealthProber` for idle fleets;
        execute traffic performs the same probe implicitly.
        """
        with self._lock:
            if self.healthy:
                return True
            if not self.probe_state.due():
                return False
            self.probe_state.note_probe()
            try:
                self._ensure()
            except RemoteFault as exc:
                self._drop()
                self.probe_state.note_failure(f"LOAD refused: {exc}")
                self._record("probe_failed", error=f"LOAD refused: {exc}")
                return False
            except _TRANSPORT_ERRORS as exc:
                self._drop()
                self.probe_state.note_failure(str(exc))
                self._record("probe_failed", error=str(exc))
                return False
            self.healthy = True
            self._failure_streak = 0
            self.probe_state.note_success(revived=True)
            self._record("shard_revived", via="probe")
            return True

    def close(self) -> None:
        with self._lock:
            self._drop()

    # -- request paths --------------------------------------------------------

    def _record(self, kind: str, **fields: Any) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, endpoint=self.endpoint, **fields)

    def _mark_unhealthy(self, error: str) -> None:
        self.healthy = False
        self.probe_state.note_failure(error)
        self._record("shard_unhealthy", error=error)

    def _run_request(self, fn: Callable[[_Connection], Any]) -> Any:
        """The shared request skeleton: ensure-connection, retry once,
        book health — ``fn(conn)`` performs the actual frame exchange.

        A healthy link gets the usual two attempts.  An unhealthy link
        whose backoff deadline has passed gets exactly *one* — this call
        doubles as the revival probe, and success flips the shard back
        to healthy; inside the backoff window it fails fast without
        touching the network.  Callers hold ``self._lock``.
        """
        was_healthy = self.healthy
        if not was_healthy:
            if not self.probe_state.due():
                raise RemoteShardError(f"{self.endpoint} is marked unhealthy")
            self.probe_state.note_probe()
        attempts = 2 if was_healthy else 1
        last_exc: Exception | None = None
        for _ in range(attempts):
            try:
                conn = self._ensure()
            except RemoteFault as exc:
                # The server answered the (re-)LOAD with a refusal —
                # e.g. a bounded store evicted this kernel.  Remote
                # service cannot resume until the store is refilled,
                # but the batch must not fail: fall back locally.
                self._drop()
                self._failure_streak += 1
                self._mark_unhealthy(f"LOAD refused: {exc}")
                raise RemoteShardError(
                    f"{self.endpoint} refused LOAD ({exc}); serving locally"
                ) from exc
            except _TRANSPORT_ERRORS as exc:
                last_exc = exc
                self._drop()
                continue
            try:
                result = fn(conn)
            except RemoteFault as exc:
                if exc.token == ERR_PROTOCOL:
                    # The server judged our frame malformed — but this
                    # client only sends well-formed frames, so the bytes
                    # were damaged in flight.  Wire corruption is a link
                    # problem: retry on a fresh connection (and fall
                    # back locally if that fails too), never surface a
                    # corrupted execution as an application error.
                    last_exc = exc
                    self._drop()
                    continue
                # The link is fine — the server answered, refusing
                # *this request* (bad engine, unknown kernel).  An
                # application error the caller must see.
                self._failure_streak = 0
                raise
            except _TRANSPORT_ERRORS as exc:
                last_exc = exc
                self._drop()
                continue
            self._failure_streak = 0
            if not was_healthy:
                self.healthy = True
                self.probe_state.note_success(revived=True)
                self._record("shard_revived", via="traffic")
            return result
        self._failure_streak += 1
        if was_healthy and self._failure_streak < self.trip_threshold:
            # Below the breaker's trip threshold: this batch falls back
            # locally, but the link stays "closed" — the next request
            # gets fresh attempts instead of waiting out a backoff.
            raise RemoteShardError(
                f"{self.endpoint} failed twice ({last_exc}); serving "
                f"locally (breaker closed, streak "
                f"{self._failure_streak}/{self.trip_threshold})"
            ) from last_exc
        self._mark_unhealthy(str(last_exc))
        failure = "failed twice" if attempts == 2 else "failed its revival probe"
        raise RemoteShardError(
            f"{self.endpoint} {failure} ({last_exc}); serving locally"
        ) from last_exc

    def execute(
        self,
        batch: np.ndarray,
        engine: str,
        overrides: tuple[Sequence, Mapping] | None = None,
        trace: dict[str, Any] | None = None,
        deadline_s: float | None = None,
    ) -> tuple[np.ndarray, str, float, list[dict[str, Any]]]:
        """One batch through the remote shard;
        ``(columns, engine, busy_s, spans)``.

        ``trace`` is the optional v3 trace context
        (``{"trace_id", "span_id"}``) stamped onto the EXECUTE frame;
        ``spans`` is whatever server-side span records the RESULT
        carried back (empty against an untraced request or a v2
        server).  Propagation rides the same frame as the batch, so
        every retry re-sends the context with the batch it belongs to.

        ``deadline_s`` is the batch's remaining deadline budget,
        stamped onto the EXECUTE meta so the server can skip work the
        clients have already abandoned.  A server ``"expired"`` refusal
        surfaces as :class:`~repro.serve.admission.DeadlineExceeded` —
        *not* :class:`RemoteShardError` — because falling back locally
        would just perform the abandoned work more slowly; the link
        itself stays healthy.

        Synchronizes ``overrides`` (the shard's current live-fault
        schedule) before the batch when it changed, retries exactly once
        on a fresh connection after a transport failure, and marks the
        shard unhealthy — raising :class:`RemoteShardError`, the
        executor's fall-back-locally signal — when the retry fails too,
        *or* when a (re-)LOAD is refused (a bounded store may have
        evicted the kernel mid-service; the batch must still succeed).
        A :class:`RemoteFault` answering the EXECUTE itself is raised
        as-is: the link is healthy and the request was wrong — an
        application error the caller must see.

        The fault-sync token (``self._synced``) is committed only after
        the server's OK: a FAULT acknowledged on a connection that then
        dies is forgotten with the connection (:meth:`_drop` nulls the
        token, :meth:`_ensure` resets it to the fresh connection's
        empty schedule), so every retry re-diffs and re-sends — the
        override schedule can never be silently lost across reconnects.
        """
        wanted = _overrides_token(overrides if overrides is not None else EMPTY_OVERRIDES)

        def run(conn: _Connection) -> tuple[np.ndarray, str, float, list]:
            if wanted != self._synced:
                if wanted == _overrides_token(EMPTY_OVERRIDES):
                    conn.request(
                        encode_frame(FrameType.FAULT, {"action": "clear"})
                    )
                else:
                    meta = {"action": "set"}
                    meta.update(encode_overrides(overrides))
                    conn.request(encode_frame(FrameType.FAULT, meta))
                self._synced = wanted
                self._record(
                    "fault_sync",
                    active=wanted != _overrides_token(EMPTY_OVERRIDES),
                )
            _, meta, blob = conn.request(
                batch_frame(batch, engine, trace=trace, deadline_s=deadline_s)
            )
            self.remote_calls += 1
            spans = meta.get("spans")
            return (
                frame_array(meta, blob),
                str(meta.get("engine", engine)),
                float(meta.get("busy_s", 0.0)),
                spans if isinstance(spans, list) else [],
            )

        with self._lock:
            try:
                return self._run_request(run)
            except RemoteFault as exc:
                if exc.token == ERR_EXPIRED:
                    raise DeadlineExceeded(str(exc)) from exc
                raise

    def stats(self) -> dict[str, Any]:
        """The server's STATS reply.

        Same failure semantics as :meth:`execute`: transport failures
        tear the connection down, retry once, and mark the shard
        unhealthy (raising :class:`RemoteShardError`) when the retry
        fails too — a dead host degrades telemetry collection exactly
        like it degrades serving, instead of wedging it with raw socket
        errors on a connection nobody tears down.
        """

        def run(conn: _Connection) -> dict[str, Any]:
            _, meta, _ = conn.request(encode_frame(FrameType.STATS, {}))
            return meta.get("stats", {})

        with self._lock:
            return self._run_request(run)

    def telemetry(self) -> dict[str, Any]:
        """Client-side view of this shard link for utilization reports."""
        return {
            "endpoint": self.endpoint,
            "healthy": self.healthy,
            "remote_calls": self.remote_calls,
            "local_fallbacks": self.local_fallbacks,
            "rtt_s": self.rtt.summary(),
            "probe": self.probe_state.telemetry(),
            "breaker": {
                "state": self.breaker_state,
                "trip_threshold": self.trip_threshold,
                "failure_streak": self._failure_streak,
            },
        }


class ClusterClient:
    """Map column shards onto a fleet of endpoints.

    Args:
        endpoints: ``[(host, port), ...]`` — one per shard server.
            Shards are assigned round-robin (shard ``k`` to endpoint
            ``k % len(endpoints)``), so fewer hosts than shards simply
            multiplexes connections onto servers.
        timeout_s: per-request socket timeout for every shard handle.
        probe_backoff: revival backoff policy for every shard handle
            (``None`` — each handle gets the default
            :class:`~repro.cluster.health.BackoffPolicy`).  Benchmarks
            and tests pass an aggressive one; production keeps the
            default's 30 s ceiling.
        clock: monotonic-seconds callable for the probe schedules
            (tests inject a fake to avoid wall sleeps).
    """

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        timeout_s: float = 5.0,
        probe_backoff: BackoffPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Any | None = None,
        auth_secret: str | None = None,
        trip_threshold: int = 1,
    ) -> None:
        if not endpoints:
            raise ValueError("a cluster client needs at least one endpoint")
        self.endpoints = [(str(h), int(p)) for h, p in endpoints]
        self.timeout_s = float(timeout_s)
        self.probe_backoff = probe_backoff
        self.clock = clock
        # Handed to every shard handle so link health transitions land
        # in one flight-recorder ring for the whole fleet.
        self.recorder = recorder
        self.auth_secret = auth_secret
        self.trip_threshold = int(trip_threshold)

    def shard_handle(self, index: int, key_meta: dict[str, Any]) -> RemoteShard:
        """The :class:`RemoteShard` for shard ``index``."""
        host, port = self.endpoints[index % len(self.endpoints)]
        return RemoteShard(
            host,
            port,
            key_meta,
            timeout_s=self.timeout_s,
            probe_backoff=self.probe_backoff,
            clock=self.clock,
            recorder=self.recorder,
            auth_secret=self.auth_secret,
            trip_threshold=self.trip_threshold,
        )

    def fleet_stats(self) -> list[dict[str, Any]]:
        """STATS from every endpoint (``{"error": ...}`` for dead hosts).

        Uses throwaway probe connections (no LOAD), so it is safe to
        call while deployments stream batches on their own sockets.
        Endpoints are scraped concurrently (one thread each), so a
        wedged host costs one ``timeout_s`` for the whole fleet instead
        of one per unresponsive endpoint; report order still matches
        :attr:`endpoints`.
        """

        def _scrape(host: str, port: int) -> dict[str, Any]:
            try:
                conn = _Connection(
                    host, port, self.timeout_s, auth_secret=self.auth_secret
                )
                try:
                    _, meta, _ = conn.request(encode_frame(FrameType.STATS, {}))
                    return {"endpoint": f"{host}:{port}", **meta.get("stats", {})}
                finally:
                    conn.close()
            except (OSError, ConnectionError, ProtocolError, RemoteFault) as exc:
                return {"endpoint": f"{host}:{port}", "error": str(exc)}

        if len(self.endpoints) <= 1:
            return [_scrape(host, port) for host, port in self.endpoints]
        with ThreadPoolExecutor(
            max_workers=len(self.endpoints), thread_name_prefix="repro-stats"
        ) as pool:
            futures = [
                pool.submit(_scrape, host, port) for host, port in self.endpoints
            ]
            return [f.result() for f in futures]
