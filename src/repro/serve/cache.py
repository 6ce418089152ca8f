"""Content-addressed compile cache for deployed multipliers.

Compiling a matrix is the expensive step of a deployment: CSD recoding
and the result-width analysis (the plan), then netlist construction and
the lowering to flat engine arrays.  A service that deploys the same
reservoir to many replicas — or redeploys after a restart — should never
pay that cost twice for the same bytes.

:class:`CompileCache` keys compiled circuits on
:func:`repro.core.serialize.matrix_digest` plus the compile options
(``input_width``, ``scheme``, ``tree_style``) — everything that affects
the resulting circuit.  Entries are held in memory under an LRU policy;
with a ``directory`` every compile persists its artifacts per key
via :mod:`repro.core.serialize`:

* ``<key>.plan.json`` — the compilation plan (cheap, human-auditable);
* ``<key>.kernel.npz`` — the lowered kernel, i.e. the exact flat arrays
  the bit-plane engine executes;
* ``<key>.fused.npz`` — the fused shift-add schedule
  (:class:`~repro.hwsim.fused.FusedKernel`), i.e. what the
  cycle-loop-free ``engine="fused"`` serving path executes (folded to
  one coefficient matrix and run as a single exact matrix product).

A *fresh process* deploying a known matrix therefore loads the kernel
and fused schedule, performing **zero** planning, ``build_circuit``,
lowering or fusing work (the contract asserted by
``benchmarks/bench_compile_cold_start.py`` and
``benchmarks/bench_fused_sparse.py`` against
:data:`repro.core.stages.STAGES`); if only the plan survives (older
store, pruned kernel), it skips re-planning and pays just the mechanical
netlist build.  A store written before the fused artifact existed
re-fuses from the loaded kernel (cheap next to a build) and backfills
the missing artifact.

Stores written by older versions may also hold ``<key>.codegen.py``
files (generated executor source).  Nothing reads them any more; they
stay in the per-key suffix list only so that eviction removes them with
their key, and ``stats()["codegen_hits"]`` stays reported, always 0.

The cache compiles deterministically (``rng=None``), so a key always
names exactly one circuit; stored artifacts are verified on load
(plan fingerprint for plans, format/kind/fingerprint header for
kernels) and any mismatch degrades to a recompile, never a wrong
answer.

Fleet loading: :meth:`CompileCache.load_key` resolves a compile by
:class:`CompileKey` alone — artifacts or ``KeyError``, never a compile —
which is how cluster shard servers (:mod:`repro.cluster.server`) answer
``LOAD(digest, ...)`` requests from a shared store without matrices or
kernels ever crossing the network.  :func:`persist_artifacts` is the
matching producer-side escape hatch for compiles that must happen
outside the shared cache (fault campaigns) but still feed the store.

Disk eviction: with ``max_disk_bytes`` and/or ``max_age_s`` set, the
directory becomes a bounded artifact store.  An ``index.json`` manifest
records per-key sizes and last-use times (shareable by a deploy fleet —
all manifest and artifact writes stage to private temp names and
``os.replace`` into place, so concurrent writers are last-writer-wins,
never torn);
after every store or load the cache prunes expired keys and then the
least-recently-used keys until the store fits the byte budget.  A key's
plan, kernel, fused (and legacy codegen) artifacts are evicted together,
so a surviving key is always a full-speed kernel hit.  Unbounded stores (no limits set) keep
the manifest as a cheap per-store record — loads skip manifest work,
and a later bounded cache over the same directory adopts everything by
file mtime.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.core.plan import MatrixPlan, plan_matrix
from repro.core.serialize import (
    atomic_write_text,
    fused_from_npz,
    fused_to_npz,
    kernel_from_npz,
    kernel_to_npz,
    matrix_digest,
    plan_fingerprint,
    plan_from_dict,
    plan_to_dict,
)
from repro.hwsim.builder import CompiledCircuit, build_circuit
from repro.hwsim.fast import FastCircuit, LoweredKernel
from repro.hwsim.fused import FusedKernel, fuse, term_density

__all__ = [
    "CompileKey",
    "CompiledEntry",
    "CompileCache",
    "compile_key",
    "persist_artifacts",
]

_DISK_FORMAT_VERSION = 1
_INDEX_FORMAT_VERSION = 1
_INDEX_NAME = "index.json"

# Per-key artifact suffixes — the single place the naming scheme lives;
# CompileKey, eviction, and manifest adoption all derive from this.
# ``.codegen.py`` (generated source) is written by older versions only;
# it stays listed so eviction and adoption still cover those files.
_ARTIFACT_SUFFIXES = (".plan.json", ".kernel.npz", ".fused.npz", ".codegen.py")
_PLAN_SUFFIX, _KERNEL_SUFFIX, _FUSED_SUFFIX = _ARTIFACT_SUFFIXES[:3]


@dataclass(frozen=True)
class CompileKey:
    """Everything that determines a compiled circuit, hashed and explicit."""

    matrix_digest: str
    input_width: int
    scheme: str
    tree_style: str

    @property
    def stem(self) -> str:
        """Stable per-key artifact basename (shared by plan and kernel)."""
        return (
            f"{self.matrix_digest[:32]}-w{self.input_width}"
            f"-{self.scheme}-{self.tree_style}"
        )

    @property
    def filename(self) -> str:
        """Stable on-disk name for this key's persisted plan."""
        return f"{self.stem}{_PLAN_SUFFIX}"

    @property
    def kernel_filename(self) -> str:
        """Stable on-disk name for this key's persisted lowered kernel."""
        return f"{self.stem}{_KERNEL_SUFFIX}"

    @property
    def fused_filename(self) -> str:
        """Stable on-disk name for this key's persisted fused schedule."""
        return f"{self.stem}{_FUSED_SUFFIX}"


def compile_key(
    matrix: np.ndarray,
    input_width: int = 8,
    scheme: str = "csd",
    tree_style: str = "compact",
) -> CompileKey:
    """Content-addressed cache key for one (matrix, options) compile."""
    return CompileKey(
        matrix_digest=matrix_digest(matrix),
        input_width=int(input_width),
        scheme=str(scheme),
        tree_style=str(tree_style),
    )


def _plan_payload(key: CompileKey, plan: MatrixPlan) -> tuple[dict, str]:
    """The on-disk JSON form of one plan artifact, plus its fingerprint."""
    fingerprint = plan_fingerprint(plan)
    payload = {
        "format_version": _DISK_FORMAT_VERSION,
        "key": {
            "matrix_digest": key.matrix_digest,
            "input_width": key.input_width,
            "scheme": key.scheme,
            "tree_style": key.tree_style,
        },
        "fingerprint": fingerprint,
        "plan": plan_to_dict(plan),
    }
    return payload, fingerprint


def persist_artifacts(
    directory: str | pathlib.Path,
    key: CompileKey,
    plan: MatrixPlan,
    kernel: LoweredKernel,
    fused: FusedKernel | None = None,
) -> None:
    """Write one compile's artifacts into a store without a cache instance.

    The escape hatch for deployments that must compile *outside* the
    shared :class:`CompileCache` (fault campaigns use ``use_cache=False``
    so their live netlists are private) but still need the fleet's
    artifact store populated — remote shard servers only ever load by
    digest, never receive kernels over the wire.  Enforces the store
    invariant the cache itself keeps: artifacts are fault-free and the
    kernel was lowered from exactly this plan.
    """
    if kernel.has_faults:
        raise ValueError(
            "refusing to persist a fault-bearing kernel into an artifact "
            "store; stores hold only fault-free compiles"
        )
    payload, fingerprint = _plan_payload(key, plan)
    if kernel.fingerprint != fingerprint:
        raise ValueError(
            "kernel fingerprint does not match the plan being persisted"
        )
    if fused is not None and fused.fingerprint != fingerprint:
        raise ValueError(
            "fused fingerprint does not match the plan being persisted"
        )
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_text(directory / key.filename, json.dumps(payload))
    kernel_to_npz(
        kernel,
        directory / key.kernel_filename,
        metadata=_term_metadata(fused) if fused is not None else None,
    )
    if fused is not None:
        fused_to_npz(fused, directory / key.fused_filename)


def _term_metadata(fused: FusedKernel) -> dict:
    """Advisory term statistics for a kernel artifact header."""
    return {
        "term_count": fused.terms,
        "term_density": term_density(fused.terms, fused.rows, fused.cols),
    }


@dataclass
class CompiledEntry:
    """One cached compilation: plan, lowered kernel, and the fast engine.

    ``circuit`` (the object netlist) is populated only when this process
    actually built one — a kernel-cache hit never constructs a netlist,
    which is the whole point.  Callers that need the object graph (fault
    injection, VCD dumps) should compile outside the kernel store or
    check ``circuit is not None``.  ``plan`` may likewise be ``None`` on
    a :meth:`CompileCache.load_key` hit against a store whose plan
    artifact was pruned — the kernel alone is executable.
    """

    key: CompileKey
    plan: MatrixPlan | None
    circuit: CompiledCircuit | None
    fast: FastCircuit
    kernel: LoweredKernel
    fused: FusedKernel
    source: str  # "memory" | "kernel" | "disk" | "compiled"

    @property
    def fingerprint(self) -> str:
        return self.kernel.fingerprint


class CompileCache:
    """LRU compile cache with optional on-disk artifact persistence.

    Thread-safe: a service may deploy from multiple threads.  Note that
    cached :class:`FastCircuit` instances are *shared* between all users
    of a key — callers that inject netlist faults should compile outside
    the cache (or use distinct cache instances) so experiments cannot
    contaminate served traffic.

    Args:
        capacity: in-memory LRU entry count.
        directory: artifact store for plans and kernels (optional).
        max_disk_bytes: byte budget for the artifact store; exceeding it
            evicts least-recently-used keys (both artifacts together).
            ``None`` disables size-based pruning.
        max_age_s: artifacts unused for longer than this are pruned on
            the next disk access.  ``None`` disables age-based pruning.
    """

    def __init__(
        self,
        capacity: int = 32,
        directory: str | pathlib.Path | None = None,
        max_disk_bytes: int | None = None,
        max_age_s: float | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError(f"max_disk_bytes must be >= 1, got {max_disk_bytes}")
        if max_age_s is not None and max_age_s <= 0:
            raise ValueError(f"max_age_s must be > 0, got {max_age_s}")
        self.capacity = capacity
        self.directory = pathlib.Path(directory) if directory is not None else None
        self.max_disk_bytes = max_disk_bytes
        self.max_age_s = max_age_s
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[CompileKey, CompiledEntry] = OrderedDict()
        # Plans are tiny next to compiled circuits, so the plan memo keeps
        # a wider LRU: a plan computed for one consumer (say a served
        # ESN's facade) is still warm when another (a single-shard
        # compile of the same matrix) asks for it.  Each memo value is
        # ``(plan, fingerprint)`` — the fingerprint is computed exactly
        # once per plan (at store or load verification time) and reused
        # by the kernel-hit integrity check.
        self._plans: OrderedDict[CompileKey, tuple[MatrixPlan, str]] = OrderedDict()
        self._plan_capacity = max(4 * capacity, 64)
        self._lock = threading.Lock()
        self._disk_lock = threading.Lock()
        self.hits = 0
        self.kernel_hits = 0
        self.fused_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.plan_hits = 0
        self.evicted_keys = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup --------------------------------------------------------------

    def get(
        self,
        matrix: np.ndarray,
        input_width: int = 8,
        scheme: str = "csd",
        tree_style: str = "compact",
    ) -> CompiledEntry:
        """Return the compiled circuit for ``matrix``, compiling on miss.

        Resolution order: in-memory LRU -> persisted kernel (skips build
        and lowering) -> persisted plan (skips planning) -> full compile.
        """
        key = compile_key(matrix, input_width, scheme, tree_style)
        entry = self._memory_hit(key)
        if entry is not None:
            return entry
        kernel = self._load_kernel(key)
        if kernel is not None:
            # Zero-rebuild cold start: the kernel is the executable; the
            # plan rides along (from memo or its own artifact) for
            # consumers that inspect widths/planes.
            plan, plan_fp, _ = self._plan_for(
                key, matrix, input_width, scheme, tree_style
            )
            # A stale kernel (e.g. written against a plan that was later
            # tampered with or replaced) is never executed.
            if kernel.fingerprint == plan_fp:
                return self._kernel_hit(key, kernel, plan)
        plan, _, plan_source = self._plan_for(
            key, matrix, input_width, scheme, tree_style
        )
        circuit = build_circuit(plan)
        fast = FastCircuit.from_compiled(circuit)
        fused = fast.fuse()
        self._store_kernel(key, fast.kernel, fused=fused)
        self._store_fused(key, fused)
        entry = CompiledEntry(
            key=key,
            plan=plan,
            circuit=circuit,
            fast=fast,
            kernel=fast.kernel,
            fused=fused,
            source="disk" if plan_source == "disk" else "compiled",
        )
        return self._admit(entry, fused_loaded=False)

    def load_key(self, key: CompileKey) -> CompiledEntry:
        """Load a persisted compile **by key alone** — no matrix anywhere.

        The shard-server resolution path: a fleet server is handed a
        content digest plus compile options (a :class:`CompileKey`) and
        must answer from the shared artifact store or not at all —
        kernels never travel over the wire, and without the matrix bytes
        there is nothing to recompile from.  Raises ``KeyError`` when
        the store holds no (valid) kernel for the key.

        A plan artifact, when present, rides along (and cross-checks the
        kernel's fingerprint); a missing fused artifact is re-fused from
        the loaded kernel and backfilled, exactly as :meth:`get` does.
        """
        entry = self._memory_hit(key)
        if entry is not None:
            return entry
        kernel = self._load_kernel(key)
        if kernel is None:
            raise KeyError(f"artifact store has no kernel for {key.stem!r}")
        plan: MatrixPlan | None = None
        loaded_plan = self._load_plan(key)
        if loaded_plan is not None:
            plan, plan_fp = loaded_plan
            if kernel.fingerprint != plan_fp:
                # The kernel artifact does not belong to the plan that
                # shares its stem — tampering or a torn store; refuse.
                raise KeyError(
                    f"kernel for {key.stem!r} does not match its stored plan"
                )
        return self._kernel_hit(key, kernel, plan)

    def _memory_hit(self, key: CompileKey) -> CompiledEntry | None:
        """The in-memory LRU entry for ``key``, relabelled ``memory``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return replace(entry, source="memory")

    def _kernel_hit(
        self, key: CompileKey, kernel: LoweredKernel, plan: MatrixPlan | None
    ) -> CompiledEntry:
        """Serve a verified persisted kernel: attach its fused schedule
        (re-fused and backfilled when absent or stale), then admit it
        as a ``kernel`` hit."""
        fused = self._load_fused(key)
        if fused is not None and fused.fingerprint != kernel.fingerprint:
            fused = None  # stale schedule: never execute it
        fused_loaded = fused is not None
        if fused is None:
            # Pre-fused-artifact store (or a pruned/corrupt schedule):
            # re-fuse from the loaded kernel and backfill the artifact.
            fused = fuse(kernel)
            self._store_fused(key, fused)
        entry = CompiledEntry(
            key=key,
            plan=plan,
            circuit=None,
            fast=FastCircuit(kernel, plan=plan, fused=fused),
            kernel=kernel,
            fused=fused,
            source="kernel",
        )
        return self._admit(entry, fused_loaded)

    def _admit(self, entry: CompiledEntry, fused_loaded: bool) -> CompiledEntry:
        """Count a store-side lookup by its source and insert the entry
        into the in-memory LRU."""
        with self._lock:
            if entry.source == "kernel":
                self.kernel_hits += 1
            elif entry.source == "disk":
                self.disk_hits += 1
            else:
                self.misses += 1
            if fused_loaded:
                self.fused_hits += 1
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry

    def get_plan(
        self,
        matrix: np.ndarray,
        input_width: int = 8,
        scheme: str = "csd",
        tree_style: str = "compact",
    ) -> MatrixPlan:
        """Return just the compilation plan for ``matrix`` (no netlist).

        Consumers that only need the plan (latency models, a served ESN's
        functional facade) share the same memo that :meth:`get` plans
        through, so asking for the plan first never causes a later full
        compile of the same key to re-plan — and vice versa.
        """
        key = compile_key(matrix, input_width, scheme, tree_style)
        plan, _, _ = self._plan_for(key, matrix, input_width, scheme, tree_style)
        return plan

    def _plan_for(
        self,
        key: CompileKey,
        matrix: np.ndarray,
        input_width: int,
        scheme: str,
        tree_style: str,
    ) -> tuple[MatrixPlan, str, str]:
        """Plan via memo -> disk -> fresh compile.

        Returns ``(plan, fingerprint, source)``; the fingerprint is the
        one computed when the plan was stored or disk-verified, so
        callers never re-hash a plan the cache already hashed.
        """
        with self._lock:
            memo = self._plans.get(key)
            if memo is not None:
                self._plans.move_to_end(key)
                self.plan_hits += 1
                return memo[0], memo[1], "memory"
        loaded = self._load_plan(key)
        if loaded is not None:
            plan, fingerprint = loaded
            source = "disk"
        else:
            source = "planned"
            plan = plan_matrix(
                np.asarray(matrix, dtype=np.int64),
                input_width=input_width,
                scheme=scheme,
                tree_style=tree_style,
            )
            fingerprint = self._store_plan(key, plan)
        with self._lock:
            self._plans[key] = (plan, fingerprint)
            self._plans.move_to_end(key)
            while len(self._plans) > self._plan_capacity:
                self._plans.popitem(last=False)
        return plan, fingerprint, source

    # -- statistics ----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """In-memory hit fraction over all lookups (0.0 when untouched)."""
        total = self.hits + self.kernel_hits + self.disk_hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "kernel_hits": self.kernel_hits,
            "fused_hits": self.fused_hits,
            # Generated source is no longer loaded; the key stays, fixed
            # at 0, for readers of older stats documents.
            "codegen_hits": 0,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "plan_hits": self.plan_hits,
            "hit_rate": round(self.hit_rate, 4),
            "persistent": self.directory is not None,
            "evicted_keys": self.evicted_keys,
        }

    @property
    def _evicting(self) -> bool:
        return self.max_disk_bytes is not None or self.max_age_s is not None

    def disk_stats(self) -> dict:
        """Manifest-level view of the artifact store (empty when none)."""
        if self.directory is None:
            return {"persistent": False, "keys": 0, "bytes": 0}
        with self._disk_lock:
            index = self._load_index()
            # Fold in anything the manifest missed (unbounded caches only
            # record their own stores) so the report reflects the disk.
            self._adopt_untracked(index)
            total = sum(e["bytes"] for e in index["entries"].values())
            return {
                "persistent": True,
                "keys": len(index["entries"]),
                "bytes": total,
                "max_disk_bytes": self.max_disk_bytes,
                "max_age_s": self.max_age_s,
            }

    # -- persistence ---------------------------------------------------------

    def _plan_path(self, key: CompileKey) -> pathlib.Path | None:
        if self.directory is None:
            return None
        return self.directory / key.filename

    def _kernel_path(self, key: CompileKey) -> pathlib.Path | None:
        if self.directory is None:
            return None
        return self.directory / key.kernel_filename

    def _fused_path(self, key: CompileKey) -> pathlib.Path | None:
        if self.directory is None:
            return None
        return self.directory / key.fused_filename

    def _store_plan(self, key: CompileKey, plan: MatrixPlan) -> str:
        """Persist a plan (when a directory is set); returns its fingerprint."""
        path = self._plan_path(key)
        if path is None:
            return plan_fingerprint(plan)
        payload, fingerprint = _plan_payload(key, plan)
        atomic_write_text(path, json.dumps(payload))
        self._touch(key, stored=True)
        return fingerprint

    def _load_plan(self, key: CompileKey) -> tuple[MatrixPlan, str] | None:
        """Load a persisted plan, verifying content integrity; returns
        ``(plan, fingerprint)``, or None on any mismatch (the caller
        falls back to a fresh compile)."""
        path = self._plan_path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("format_version") != _DISK_FORMAT_VERSION:
                return None
            plan = plan_from_dict(payload["plan"])
            fingerprint = plan_fingerprint(plan)
            if fingerprint != payload.get("fingerprint"):
                return None
            if matrix_digest(plan.matrix()) != key.matrix_digest:
                return None
        except (OSError, KeyError, ValueError, json.JSONDecodeError):
            return None
        self._touch(key)
        return plan, fingerprint

    def _store_kernel(
        self,
        key: CompileKey,
        kernel: LoweredKernel,
        fused: FusedKernel | None = None,
    ) -> None:
        path = self._kernel_path(key)
        if path is None:
            return
        kernel_to_npz(
            kernel,
            path,
            metadata=_term_metadata(fused) if fused is not None else None,
        )
        self._touch(key, stored=True)

    def _load_kernel(self, key: CompileKey) -> LoweredKernel | None:
        """Load a persisted kernel; None on absence or any validation
        failure (the caller falls back to plan-or-compile)."""
        path = self._kernel_path(key)
        if path is None or not path.exists():
            return None
        try:
            kernel = kernel_from_npz(path)
        except (
            OSError,
            KeyError,
            ValueError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
        ):
            return None
        if kernel.has_faults:
            # The cache only ever writes fault-free kernels, and the
            # fingerprint (the *plan* fingerprint) deliberately does not
            # cover the fault snapshot — so a fault-bearing artifact here
            # is tampering or a foreign experiment's file.  Serving it
            # would silently corrupt results; rebuild instead.
            return None
        self._touch(key)
        return kernel

    def _store_fused(self, key: CompileKey, fused: FusedKernel) -> None:
        """Best-effort persist: unlike the compile-path artifact writes,
        this also runs on warm kernel hits (backfilling pre-fused-era
        stores), so a read-only shared store must degrade to an
        unpersisted schedule, never fail the deploy."""
        path = self._fused_path(key)
        if path is None:
            return
        try:
            fused_to_npz(fused, path)
        except OSError:
            return
        self._touch(key, stored=True)

    def _load_fused(self, key: CompileKey) -> FusedKernel | None:
        """Load a persisted fused schedule; None on absence or any
        validation failure (the caller re-fuses from the kernel)."""
        path = self._fused_path(key)
        if path is None or not path.exists():
            return None
        try:
            fused = fused_from_npz(path)
        except (
            OSError,
            KeyError,
            ValueError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
        ):
            return None
        self._touch(key)
        return fused

    # -- disk eviction -------------------------------------------------------

    def _index_path(self) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / _INDEX_NAME

    def _load_index(self) -> dict:
        """Read the manifest, tolerating absence/corruption (rebuilt from
        the directory contents on the next prune).

        Entry shape is validated here — a foreign or hand-edited
        manifest must not be able to crash a deploy downstream, so
        anything without numeric ``bytes``/``last_used`` is dropped (and
        re-adopted from the files on the next bounded store).
        """
        try:
            payload = json.loads(self._index_path().read_text())
            if payload.get("format_version") != _INDEX_FORMAT_VERSION:
                raise ValueError("stale index format")
            raw = payload.get("entries")
            if not isinstance(raw, dict):
                raise ValueError("malformed index")
            entries = {
                stem: {"bytes": int(e["bytes"]), "last_used": float(e["last_used"])}
                for stem, e in raw.items()
                if isinstance(e, dict)
                and isinstance(e.get("bytes"), (int, float))
                and isinstance(e.get("last_used"), (int, float))
            }
            return {"format_version": _INDEX_FORMAT_VERSION, "entries": entries}
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            return {"format_version": _INDEX_FORMAT_VERSION, "entries": {}}

    def _write_index(self, index: dict) -> None:
        """Atomically publish the manifest (private tmp + ``os.replace``).

        Multiple shard servers may share one artifact directory; each
        writer stages to its own temp name, so concurrent rewrites are
        last-writer-wins on a complete manifest — a reader can observe a
        slightly stale index (repaired by the next adoption scan) but
        never a torn one.
        """
        atomic_write_text(self._index_path(), json.dumps(index, sort_keys=True))

    def _stem_files(self, stem: str) -> list[pathlib.Path]:
        assert self.directory is not None
        candidates = (
            self.directory / f"{stem}{suffix}" for suffix in _ARTIFACT_SUFFIXES
        )
        return [p for p in candidates if p.exists()]

    def _stem_sizes(self, stem: str) -> tuple[int, float] | None:
        """``(bytes, newest mtime)`` for a stem's surviving files, or
        ``None`` when they vanished (a concurrent evictor got there
        first) — never an exception."""
        total, newest = 0, 0.0
        found = False
        for path in self._stem_files(stem):
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            newest = max(newest, stat.st_mtime)
            found = True
        return (total, newest) if found else None

    def _touch(self, key: CompileKey, stored: bool = False) -> None:
        """Record a use of ``key``'s artifacts in the manifest, then prune.

        Kept cheap on the hot paths: loads on unbounded stores skip
        manifest maintenance entirely, and the O(directory) adoption
        scan runs only when a bounded store *writes* (loads just refresh
        their own key and prune from the manifest as-is, so warm-start
        latency does not scale with store size).  Shared-store races
        (another process evicting files mid-scan) degrade to skipped
        entries, never errors: this path must not be able to fail a
        deploy.
        """
        if self.directory is None or (not stored and not self._evicting):
            return
        with self._disk_lock:
            try:
                index = self._load_index()
                if self._evicting and stored:
                    self._adopt_untracked(index)
                sizes = self._stem_sizes(key.stem)
                if sizes is not None:
                    index["entries"][key.stem] = {
                        "bytes": sizes[0],
                        "last_used": time.time(),
                    }
                if self._evicting:
                    self._prune_locked(index)
                self._write_index(index)
            except OSError:
                return

    def _adopt_untracked(self, index: dict) -> None:
        """Fold artifacts the manifest does not know about (older stores,
        other writers) into it, aged by file mtime so they are eligible
        for eviction immediately."""
        assert self.directory is not None
        seen: set[str] = set()
        try:
            names = [p.name for p in self.directory.iterdir()]
        except OSError:
            names = []
        for name in names:
            for suffix in _ARTIFACT_SUFFIXES:
                if name.endswith(suffix):
                    seen.add(name[: -len(suffix)])
                    break
        for stem in seen:
            if stem not in index["entries"]:
                sizes = self._stem_sizes(stem)
                if sizes is not None:
                    index["entries"][stem] = {
                        "bytes": sizes[0],
                        "last_used": sizes[1],
                    }
        # Drop manifest entries whose files vanished out from under us.
        for stem in list(index["entries"]):
            if stem not in seen:
                del index["entries"][stem]

    def _prune_locked(self, index: dict) -> None:
        """Apply age then size policy to the manifest, deleting files."""
        entries = index["entries"]
        now = time.time()
        if self.max_age_s is not None:
            for stem in list(entries):
                if now - entries[stem]["last_used"] > self.max_age_s:
                    self._evict_stem(entries, stem)
        if self.max_disk_bytes is not None:
            total = sum(e["bytes"] for e in entries.values())
            by_age = sorted(entries, key=lambda s: entries[s]["last_used"])
            for stem in by_age:
                if total <= self.max_disk_bytes:
                    break
                total -= entries[stem]["bytes"]
                self._evict_stem(entries, stem)

    def _evict_stem(self, entries: dict, stem: str) -> None:
        for path in self._stem_files(stem):
            try:
                path.unlink()
            except OSError:
                pass
        del entries[stem]
        self.evicted_keys += 1
