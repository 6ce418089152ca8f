"""Vectorized and bit-plane gate-level simulation engines.

The repository ships four ways to execute one compiled netlist, each
bit-exact with the others (equivalence is asserted by tests on random
matrices, so any engine can stand in for any other):

* **object engine** (:mod:`repro.hwsim.netlist`) — one Python object per
  gate, one call per component per cycle.  Ideal for probing, waveform
  dumps and fault injection experiments; slowest by two to three orders
  of magnitude.
* **vectorized engine** (:class:`FastCircuit`, ``multiply`` /
  ``multiply_batch(engine="scalar")``) — the same netlist compiled to
  index arrays; every component *class* updates with a handful of numpy
  ops per cycle, one vector at a time exactly as the paper's SRAM
  wrapper streams them.  It is the gate-level oracle the faster engines
  are checked against.
* **bit-plane engine** (``multiply_batch(engine="bitplane")``, the
  default) — up to 64 batch lanes are packed into each ``uint64`` word
  ("bit-planes"), so one bitwise numpy op per component class per cycle
  advances all lanes at once: a serial adder over all lanes is three
  XOR/AND/OR expressions, not a per-lane add.  Batches larger than 64
  simply use multiple words.  This is the fastest *gate-level* engine —
  the one fault campaigns and verification runs should use; at batch >=
  64 it is well over an order of magnitude faster than looping the
  scalar path.
* **fused engine** (``multiply_batch(engine="fused")``) — not a
  simulation at all: :func:`repro.hwsim.fused.fuse` recovers the static
  CSD shift-add schedule from the kernel's topology once, and execution
  is one exact matrix product per batch — a float BLAS GEMM for every
  kernel whose width fits the mantissa — with **no cycle loop** (see
  :mod:`repro.hwsim.fused`).  Another order of magnitude faster than the
  bit-plane engine, bit-exact with it — but linear-only: it refuses to
  run while faults or per-call overrides are active (the serve layer
  auto-falls back to ``bitplane`` in that case).

Staged compilation
------------------

Since the matrix is fixed, everything between the matrix and the cycle
loop is a pure, cacheable transformation.  The pipeline has a
serializable artifact at each boundary::

    MatrixPlan --build_circuit--> Netlist --lower--> LoweredKernel --fuse--> FusedKernel

:func:`lower` extracts the flat index/opcode arrays the engines actually
execute into a :class:`LoweredKernel` — plain numpy arrays plus a few
scalars, with **no reference to component objects** — so a kernel can be
shipped to a shard server or persisted to disk
(:func:`repro.core.serialize.kernel_to_npz`) and re-executed without
ever rebuilding the netlist.  ``FastCircuit(kernel)`` is the execution
half; ``FastCircuit.from_compiled(circuit)`` remains the one-step
convenience that lowers and binds the live netlist.

Because every output is registered, evaluation order is irrelevant: each
cycle reads the previous cycle's output vector and writes a fresh one.
All engines honour faults injected on the underlying
:class:`~repro.hwsim.netlist.Netlist` (``stuck_output`` applied
post-commit, ``stuck_carry`` pre-compute), matching the object engine's
semantics exactly, so verification campaigns may run on whichever engine
is fastest for the batch at hand.  Faults take exactly two forms, and
neither is part of the kernel: live faults on a netlist, which a
:class:`FastCircuit` bound to that netlist re-reads on every call, and a
per-call override schedule (``overrides`` on
:meth:`FastCircuit.multiply_batch`, the format this module owns), which
is how a remote shard holding only the kernel replays the client's
current faults.  :func:`lower` therefore refuses a faulted netlist
rather than drop its faults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.stages import STAGES
from repro.hwsim.builder import CompiledCircuit
from repro.hwsim.components import (
    DFF,
    InputStream,
    SerialAdder,
    SerialNegator,
    SerialSubtractor,
)
from repro.hwsim.fused import FusedCircuit, FusedKernel, fuse, validate_batch

__all__ = [
    "FastCircuit",
    "LoweredKernel",
    "lower",
    "CARRY_KINDS",
    "EMPTY_OVERRIDES",
    "overrides_active",
    "check_overrides",
    "ALL_ENGINES",
    "SERVE_ENGINES",
    "resolve_engine",
    "executor_label",
    "pack_lanes",
    "unpack_lanes",
]

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Carry-bearing primitive classes: the keys of an override schedule's
#: ``carry`` map.
CARRY_KINDS = ("add", "sub", "neg")

#: The override schedule of a fault-free execution.  Immutable, so every
#: caller shares this one instance.
EMPTY_OVERRIDES: tuple[tuple, Mapping] = (
    (),
    MappingProxyType({kind: () for kind in CARRY_KINDS}),
)


def overrides_active(overrides: tuple[Sequence, Mapping]) -> bool:
    """True when the schedule would actually fault an execution."""
    stuck_out, carry = overrides
    return bool(stuck_out) or any(carry.values())


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack a leading batch axis of 0/1 values into ``uint64`` bit-planes.

    ``bits`` has shape ``(lanes, ...)``; the result has shape
    ``(ceil(lanes / 64), ...)`` where bit ``l`` of word ``w`` holds lane
    ``w * 64 + l``.  Unused trailing lanes are zero.
    """
    arr = np.asarray(bits)
    lanes = arr.shape[0]
    words = max(1, -(-lanes // _WORD_BITS))
    padded = np.zeros((words * _WORD_BITS,) + arr.shape[1:], dtype=np.uint64)
    padded[:lanes] = arr.astype(np.uint64)
    padded = padded.reshape((words, _WORD_BITS) + arr.shape[1:])
    shifts = np.arange(_WORD_BITS, dtype=np.uint64).reshape(
        (1, _WORD_BITS) + (1,) * (arr.ndim - 1)
    )
    return np.bitwise_or.reduce(padded << shifts, axis=1)


def unpack_lanes(words: np.ndarray, lanes: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: recover the first ``lanes`` lanes."""
    arr = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(_WORD_BITS, dtype=np.uint64).reshape(
        (1, _WORD_BITS) + (1,) * (arr.ndim - 1)
    )
    bits = (arr[:, None] >> shifts) & np.uint64(1)
    flat = bits.reshape((arr.shape[0] * _WORD_BITS,) + arr.shape[1:])
    return flat[:lanes].astype(np.int8)


@dataclass(frozen=True, eq=False)
class LoweredKernel:
    """The flat, executable form of one compiled spatial multiplier.

    Everything the cycle engines touch, and nothing else: index arrays
    naming which component slots are inputs/adders/subtractors/negators/
    DFFs (plus their operand slots and the output probes) and the scalar
    execution parameters.  Faults are never part of a kernel: they live
    on the netlist or arrive per call as an override schedule.

    A kernel is deliberately *dumb data* — numpy arrays and scalars — so
    it is picklable and serializable (:mod:`repro.core.serialize`
    persists kernels as ``.npz`` artifacts keyed by ``fingerprint``).
    Execution is ``FastCircuit(kernel)``.  ``fingerprint`` is the *plan*
    fingerprint: equal fingerprints imply identical circuit structure,
    hence bit-identical behaviour.
    """

    fingerprint: str
    rows: int
    cols: int
    input_width: int
    result_width: int
    decode_delta: int
    run_cycles: int
    size: int
    input_idx: np.ndarray
    add_idx: np.ndarray
    add_a: np.ndarray
    add_b: np.ndarray
    sub_idx: np.ndarray
    sub_a: np.ndarray
    sub_b: np.ndarray
    neg_idx: np.ndarray
    neg_b: np.ndarray
    dff_idx: np.ndarray
    dff_d: np.ndarray
    probe_idx: np.ndarray

    #: Names of every array field, in declaration order — the contract
    #: between this class and the .npz serializer.
    ARRAY_FIELDS = (
        "input_idx",
        "add_idx",
        "add_a",
        "add_b",
        "sub_idx",
        "sub_a",
        "sub_b",
        "neg_idx",
        "neg_b",
        "dff_idx",
        "dff_d",
        "probe_idx",
    )

    #: Names of every scalar field (the .npz JSON header).
    SCALAR_FIELDS = (
        "fingerprint",
        "rows",
        "cols",
        "input_width",
        "result_width",
        "decode_delta",
        "run_cycles",
        "size",
    )

    def __post_init__(self) -> None:
        for name in self.ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"kernel field {name} must be 1-D, got {arr.shape}")
            object.__setattr__(self, name, arr)
        pairs = (
            ("add_idx", "add_a"),
            ("add_idx", "add_b"),
            ("sub_idx", "sub_a"),
            ("sub_idx", "sub_b"),
            ("neg_idx", "neg_b"),
            ("dff_idx", "dff_d"),
        )
        for a, b in pairs:
            if len(getattr(self, a)) != len(getattr(self, b)):
                raise ValueError(f"kernel fields {a}/{b} disagree in length")

    def equivalent(self, other: "LoweredKernel") -> bool:
        """Field-by-field equality (arrays compared element-wise)."""
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if field.name in self.ARRAY_FIELDS:
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


def check_overrides(
    overrides: tuple[Sequence, Mapping], kernel: LoweredKernel
) -> None:
    """Raise ``ValueError`` unless the engines can apply ``overrides``
    to ``kernel``.

    The carry kinds must be exactly :data:`CARRY_KINDS`, every stuck
    slot must lie in ``[0, kernel.size)``, every carry slot below its
    kind's component count, and every value must be 0 or 1.  A schedule
    taken from a netlist the kernel was lowered from always passes; the
    shard server checks each schedule a FAULT frame brings before
    keeping it.
    """
    stuck_out, carry = overrides
    if set(carry) != set(CARRY_KINDS):
        raise ValueError(
            f"carry kinds must be exactly {CARRY_KINDS}, got {sorted(carry)}"
        )
    counts = (len(kernel.add_idx), len(kernel.sub_idx), len(kernel.neg_idx))
    groups = [("stuck output", stuck_out, kernel.size)] + [
        (f"{kind} carry", carry[kind], count)
        for kind, count in zip(CARRY_KINDS, counts)
    ]
    for name, pairs, limit in groups:
        for slot, value in pairs:
            if not 0 <= slot < limit:
                raise ValueError(f"{name} slot {slot} is outside [0, {limit})")
            if value not in (0, 1):
                raise ValueError(f"{name} value {value} is not 0 or 1")


def _lower_with_maps(
    circuit: CompiledCircuit,
) -> tuple[LoweredKernel, dict[int, int], dict[int, tuple[str, int]]]:
    """Lower a compiled circuit, also returning the live-netlist maps.

    The maps (``id(component) -> flat slot`` and ``id(component) ->
    (carry kind, per-kind slot)``) let a :class:`FastCircuit` bound to
    the netlist translate its injected faults into engine overrides on
    every call; they are deliberately not part of the kernel, which must
    stay object-free.
    """
    STAGES.increment("lower")
    plan = circuit.plan
    components = circuit.netlist.components
    index = {id(c): i for i, c in enumerate(components)}

    input_idx = [index[id(c)] for c in components if isinstance(c, InputStream)]

    def gather(kind):
        return [c for c in components if type(c) is kind]

    adders = gather(SerialAdder)
    subs = gather(SerialSubtractor)
    negs = gather(SerialNegator)
    dffs = gather(DFF)

    carry_slot: dict[int, tuple[str, int]] = {}
    for kind, group in zip(CARRY_KINDS, (adders, subs, negs)):
        for k, c in enumerate(group):
            carry_slot[id(c)] = (kind, k)

    kernel = LoweredKernel(
        fingerprint=circuit.digest,
        rows=plan.rows,
        cols=len(circuit.column_probes),
        input_width=plan.input_width,
        result_width=plan.result_width,
        decode_delta=circuit.decode_delta,
        run_cycles=circuit.run_cycles,
        size=len(components),
        input_idx=np.array(input_idx, dtype=np.int64),
        add_idx=np.array([index[id(c)] for c in adders], dtype=np.int64),
        add_a=np.array([index[id(c.a)] for c in adders], dtype=np.int64),
        add_b=np.array([index[id(c.b)] for c in adders], dtype=np.int64),
        sub_idx=np.array([index[id(c)] for c in subs], dtype=np.int64),
        sub_a=np.array([index[id(c.a)] for c in subs], dtype=np.int64),
        sub_b=np.array([index[id(c.b)] for c in subs], dtype=np.int64),
        neg_idx=np.array([index[id(c)] for c in negs], dtype=np.int64),
        neg_b=np.array([index[id(c.b)] for c in negs], dtype=np.int64),
        dff_idx=np.array([index[id(c)] for c in dffs], dtype=np.int64),
        dff_d=np.array([index[id(c.d)] for c in dffs], dtype=np.int64),
        probe_idx=np.array(
            [index[id(p.src)] for p in circuit.column_probes], dtype=np.int64
        ),
    )
    return kernel, index, carry_slot


def lower(circuit: CompiledCircuit) -> LoweredKernel:
    """Lower a compiled netlist to its flat executable arrays.

    A pure function of the circuit's structure; the result is
    position-independent data, ready to pickle, persist, or execute via
    ``FastCircuit(kernel)``.  A kernel carries no faults, so lowering a
    faulted netlist raises ``ValueError`` rather than silently drop them.
    """
    if next(circuit.netlist.iter_faults(), None) is not None:
        raise ValueError(
            "cannot lower a faulted netlist: a kernel carries no faults. "
            "Execute it with FastCircuit(circuit), which reads the live "
            "faults, or lower the fault-free netlist and pass the schedule "
            "per call with overrides="
        )
    kernel, _, _ = _lower_with_maps(circuit)
    return kernel


class FastCircuit:
    """Execute a :class:`LoweredKernel` with vectorized per-class updates.

    Two construction paths:

    * ``FastCircuit.from_compiled(circuit)`` (or ``FastCircuit(circuit)``)
      lowers the circuit and keeps the live netlist bound, so faults
      injected on the netlist *after* construction are honoured on the
      next call — the behaviour verification campaigns rely on;
    * ``FastCircuit(kernel)`` executes a pre-lowered kernel (from the
      compile cache's disk artifacts or a pickled shard) with no netlist
      anywhere in the process; it runs fault-free unless a call passes
      ``overrides``.
    """

    ENGINES = ("scalar", "bitplane", "fused")

    #: Engines that honour injected faults / per-call overrides.  The
    #: fused engine is linear-only and raises when any fault is active.
    FAULT_CAPABLE_ENGINES = ("scalar", "bitplane")

    def __init__(
        self,
        source: CompiledCircuit | LoweredKernel,
        plan=None,
        fused: FusedKernel | None = None,
    ) -> None:
        if isinstance(source, LoweredKernel):
            self.kernel = source
            self.plan = plan
            self.netlist = None
            self._global_index: dict[int, int] | None = None
            self._carry_slot: dict[int, tuple[str, int]] | None = None
        elif isinstance(source, CompiledCircuit):
            self.kernel, self._global_index, self._carry_slot = _lower_with_maps(
                source
            )
            self.plan = source.plan
            self.netlist = source.netlist
        else:
            raise TypeError(
                f"FastCircuit takes a CompiledCircuit or LoweredKernel, "
                f"got {type(source).__name__}"
            )
        k = self.kernel
        self.decode_delta = k.decode_delta
        self.run_cycles = k.run_cycles
        self.size = k.size
        self._input_idx = k.input_idx
        self._add_idx, self._add_a, self._add_b = k.add_idx, k.add_a, k.add_b
        self._sub_idx, self._sub_a, self._sub_b = k.sub_idx, k.sub_a, k.sub_b
        self._neg_idx, self._neg_b = k.neg_idx, k.neg_b
        self._dff_idx, self._dff_d = k.dff_idx, k.dff_d
        self._probe_idx = k.probe_idx
        if fused is not None and fused.fingerprint != k.fingerprint:
            raise ValueError(
                "fused kernel fingerprint does not match the lowered kernel"
            )
        self._fused_kernel = fused
        # The executor is built lazily on first fused execution so that
        # attaching artifacts never materializes the coefficient fold of
        # a deployment that only ever runs the gate engines.
        self._fused_exec: FusedCircuit | None = None

    @classmethod
    def from_compiled(cls, circuit: CompiledCircuit) -> "FastCircuit":
        return cls(circuit)

    # -- fused lowering ------------------------------------------------------

    @property
    def fused(self) -> FusedKernel | None:
        """The attached/derived fused kernel, if one exists (no forcing)."""
        return self._fused_kernel

    def fuse(self) -> FusedKernel:
        """The kernel's shift-add schedule, fusing (once) on first use.

        Runs the ``fuse`` pipeline stage unless a pre-fused kernel was
        attached at construction (the compile cache attaches persisted
        artifacts, so warm deploys never re-fuse).
        """
        if self._fused_kernel is None:
            self._fused_kernel = fuse(self.kernel)
        return self._fused_kernel

    def _fused_circuit(self) -> FusedCircuit:
        if self._fused_exec is None:
            self._fused_exec = FusedCircuit(self.fuse())
        return self._fused_exec

    @property
    def fused_variant(self) -> str:
        """The compute dtype fused execution uses (building it if needed).

        One of :attr:`FusedCircuit.VARIANTS` — the label telemetry,
        spans, and cluster STATS report as ``fused:<variant>`` so
        operators can tell which code actually ran.
        """
        return self._fused_circuit().variant

    @property
    def built_fused(self) -> FusedCircuit | None:
        """The already-built fused executor, or ``None`` (no forcing).

        Telemetry scrapes use this: reporting must never trigger fuse
        work on a deployment that has not executed fused.
        """
        return self._fused_exec

    @property
    def has_faults(self) -> bool:
        """True when any fault would apply to the next execution."""
        return overrides_active(self.fault_overrides())

    # -- fault plumbing -----------------------------------------------------

    def fault_overrides(self) -> tuple[Sequence, Mapping]:
        """The fault set to apply on the next execution.

        Returns ``(stuck_out, carry)`` where ``stuck_out`` is a list of
        ``(component index, value)`` applied post-commit, and ``carry``
        maps each of :data:`CARRY_KINDS` to ``(slot, value)`` lists
        applied to the packed carry planes before each compute — the
        same schedule the object engine uses in :meth:`Netlist.step`.

        With a live netlist bound, the netlist's *current* injected
        faults are translated; a bare kernel has none and returns
        :data:`EMPTY_OVERRIDES`.  The schedule is plain data and can be
        handed to a kernel-only engine's :meth:`multiply_batch` as
        ``overrides``.
        """
        if self.netlist is None:
            return EMPTY_OVERRIDES
        stuck_out: list[tuple[int, int]] = []
        carry: dict[str, list[tuple[int, int]]] = {k: [] for k in CARRY_KINDS}
        for component, kind, value in self.netlist.iter_faults():
            if kind == "stuck_output":
                stuck_out.append((self._global_index[id(component)], value))
            else:
                slot = self._carry_slot.get(id(component))
                if slot is None:
                    # The object engine fails on this too (no carry register
                    # to force); fail loudly rather than silently simulating
                    # fault-free and corrupting campaign coverage data.
                    raise ValueError(
                        f"stuck_carry fault on {type(component).__name__} "
                        f"{component.name!r}, which has no carry register"
                    )
                carry[slot[0]].append((slot[1], value))
        return stuck_out, carry

    # -- public API ---------------------------------------------------------

    def multiply(self, vector: np.ndarray | list[int]) -> np.ndarray:
        """Cycle-accurate ``a^T V``, bit-exact with the object simulator."""
        values = np.asarray(vector).ravel()
        batch = validate_batch(
            values[None, :], self.kernel.rows, self.kernel.input_width
        )
        return self._run_dense(batch, None)[0]

    def multiply_batch(
        self,
        vectors: np.ndarray,
        engine: str = "bitplane",
        overrides: tuple[Sequence, Mapping] | None = None,
    ) -> np.ndarray:
        """Evaluate a ``(B, rows)`` batch of vectors; returns ``(B, cols)``.

        ``engine`` selects the execution strategy:

        * ``"scalar"`` — per-vector loop over the dense engine (the seed
          behaviour; useful as a baseline and for debugging);
        * ``"bitplane"`` — one cycle loop over the whole batch with 64
          lanes packed per ``uint64`` word (default; fastest gate-level
          engine);
        * ``"fused"`` — the pre-fused static shift-add schedule, no
          cycle loop at all (:mod:`repro.hwsim.fused`).  Fault-free
          only: raises if faults or non-empty overrides are active.

        ``overrides`` replaces the fault set for this call only (the
        exact structure :meth:`fault_overrides` returns) — the hook
        remote shards use to replay the client's live faults on a
        server that only holds the kernel.  ``None`` means "resolve the
        current faults now".

        All engines validate identically and produce bit-identical
        results, including (for the gate-level engines) under injected
        faults.
        """
        if engine not in self.ENGINES:
            raise ValueError(f"engine must be one of {self.ENGINES}, got {engine!r}")
        batch = validate_batch(vectors, self.kernel.rows, self.kernel.input_width)
        if engine == "fused":
            if overrides_active(
                overrides if overrides is not None else self.fault_overrides()
            ):
                raise ValueError(
                    "engine='fused' executes the static shift-add schedule and "
                    "cannot apply faults; use a gate-level engine "
                    f"{self.FAULT_CAPABLE_ENGINES}"
                )
            return self._fused_circuit().execute(batch)
        if batch.shape[0] == 0:
            dtype = np.int64 if self.kernel.result_width <= 62 else object
            return np.zeros((0, len(self._probe_idx)), dtype=dtype)
        if engine == "scalar":
            return np.stack(
                [self._run_dense(row[None, :], overrides)[0] for row in batch]
            )
        return self._run_bitplane(batch, overrides)

    # -- shared helpers -----------------------------------------------------

    def _input_bit_streams(self, batch: np.ndarray) -> np.ndarray:
        """``(B, rows, cycles)`` sign-extended LSb-first input bits."""
        cycles = self.run_cycles
        width = self.kernel.input_width
        shifts = np.minimum(np.arange(cycles), width - 1).astype(np.int64)
        return ((batch[:, :, None] >> shifts[None, None, :]) & 1).astype(np.int8)

    def _decode_bits(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(B, probes, result_width)`` two's-complement bit slabs."""
        width = self.kernel.result_width
        if width <= 62:
            weights = np.left_shift(np.int64(1), np.arange(width, dtype=np.int64))
            weights[-1] = -weights[-1]
            return bits.astype(np.int64) @ weights
        # Wide results decode exactly into Python ints: dot each <= 62-bit
        # limb against int64 power-of-two weights (vectorized over every
        # lane and probe at once), then recombine the limbs — and apply
        # the two's-complement sign — in exact object arithmetic.
        slab = bits.astype(np.int64)
        unsigned: np.ndarray | None = None
        for lo in range(0, width, 62):
            chunk = slab[:, :, lo : min(lo + 62, width)]
            weights = np.left_shift(
                np.int64(1), np.arange(chunk.shape[2], dtype=np.int64)
            )
            limb = (chunk @ weights).astype(object)
            if lo:
                limb *= 1 << lo
            unsigned = limb if unsigned is None else unsigned + limb
        sign = bits[:, :, -1].astype(object)
        return unsigned - sign * (1 << width)

    # -- dense engine --------------------------------------------------------

    @staticmethod
    def _fault_index_arrays(
        stuck_out: Sequence, carry_faults: Mapping, values: np.ndarray
    ) -> tuple:
        """Faults as fancy-index ``(slots, values)`` pairs, or ``None``s.

        Hoisted out of the cycle loops: the fault-free hot path tests
        four ``None``s per cycle instead of iterating four Python lists,
        and a faulted run applies each kind with one vectorized
        assignment.  ``values`` maps a fault value 0/1 to the engine's
        lane representation (int8 bits or uint64 planes).
        """

        def pack(pairs):
            if not pairs:
                return None
            slots = np.array([s for s, _ in pairs], dtype=np.int64)
            return slots, values[[v for _, v in pairs]]

        return (pack(stuck_out),) + tuple(
            pack(carry_faults[kind]) for kind in CARRY_KINDS
        )

    def _run_dense(
        self, batch: np.ndarray, overrides: tuple[Sequence, Mapping] | None
    ) -> np.ndarray:
        lanes = batch.shape[0]
        cycles = self.run_cycles
        input_bits = self._input_bit_streams(batch)
        stuck_out, carry_faults = (
            overrides if overrides is not None else self.fault_overrides()
        )
        stuck, add_f, sub_f, neg_f = self._fault_index_arrays(
            stuck_out, carry_faults, np.array([0, 1], dtype=np.int8)
        )
        # Double-buffered state: every live component class writes its
        # slots every cycle (ConstantZero slots stay at their zero
        # initialization in both buffers), so swapping buffers replaces
        # the per-cycle full-state copy with zero allocation.
        out = np.zeros((lanes, self.size), dtype=np.int8)
        nxt = np.zeros((lanes, self.size), dtype=np.int8)
        add_carry = np.zeros((lanes, len(self._add_idx)), dtype=np.int8)
        sub_carry = np.ones((lanes, len(self._sub_idx)), dtype=np.int8)
        neg_carry = np.ones((lanes, len(self._neg_idx)), dtype=np.int8)
        captured = np.zeros((lanes, len(self._probe_idx), cycles), dtype=np.int8)
        for cycle in range(cycles):
            if add_f is not None:
                add_carry[:, add_f[0]] = add_f[1]
            if sub_f is not None:
                sub_carry[:, sub_f[0]] = sub_f[1]
            if neg_f is not None:
                neg_carry[:, neg_f[0]] = neg_f[1]
            nxt[:, self._input_idx] = input_bits[:, :, cycle]
            if len(self._add_idx):
                total = out[:, self._add_a] + out[:, self._add_b] + add_carry
                nxt[:, self._add_idx] = total & 1
                add_carry = total >> 1
            if len(self._sub_idx):
                total = out[:, self._sub_a] + (1 - out[:, self._sub_b]) + sub_carry
                nxt[:, self._sub_idx] = total & 1
                sub_carry = total >> 1
            if len(self._neg_idx):
                total = (1 - out[:, self._neg_b]) + neg_carry
                nxt[:, self._neg_idx] = total & 1
                neg_carry = total >> 1
            if len(self._dff_idx):
                nxt[:, self._dff_idx] = out[:, self._dff_d]
            if stuck is not None:
                nxt[:, stuck[0]] = stuck[1]
            out, nxt = nxt, out
            captured[:, :, cycle] = out[:, self._probe_idx]
        width = self.kernel.result_width
        slab = captured[:, :, self.decode_delta : self.decode_delta + width]
        return self._decode_bits(slab)

    # -- bit-plane engine ----------------------------------------------------

    def _run_bitplane(
        self, batch: np.ndarray, overrides: tuple[Sequence, Mapping] | None
    ) -> np.ndarray:
        lanes = batch.shape[0]
        cycles = self.run_cycles
        words = -(-lanes // _WORD_BITS)
        input_words = pack_lanes(self._input_bit_streams(batch))
        stuck_out, carry_faults = (
            overrides if overrides is not None else self.fault_overrides()
        )
        stuck, add_f, sub_f, neg_f = self._fault_index_arrays(
            stuck_out, carry_faults, np.array([0, _ALL_ONES], dtype=np.uint64)
        )
        # Double-buffered, as in _run_dense: no per-cycle state copy.
        out = np.zeros((words, self.size), dtype=np.uint64)
        nxt = np.zeros((words, self.size), dtype=np.uint64)
        add_carry = np.zeros((words, len(self._add_idx)), dtype=np.uint64)
        sub_carry = np.full((words, len(self._sub_idx)), _ALL_ONES, dtype=np.uint64)
        neg_carry = np.full((words, len(self._neg_idx)), _ALL_ONES, dtype=np.uint64)
        captured = np.zeros(
            (words, len(self._probe_idx), cycles), dtype=np.uint64
        )
        for cycle in range(cycles):
            if add_f is not None:
                add_carry[:, add_f[0]] = add_f[1]
            if sub_f is not None:
                sub_carry[:, sub_f[0]] = sub_f[1]
            if neg_f is not None:
                neg_carry[:, neg_f[0]] = neg_f[1]
            nxt[:, self._input_idx] = input_words[:, :, cycle]
            if len(self._add_idx):
                a = out[:, self._add_a]
                b = out[:, self._add_b]
                axb = a ^ b
                nxt[:, self._add_idx] = axb ^ add_carry
                add_carry = (a & b) | (axb & add_carry)
            if len(self._sub_idx):
                a = out[:, self._sub_a]
                b = ~out[:, self._sub_b]
                axb = a ^ b
                nxt[:, self._sub_idx] = axb ^ sub_carry
                sub_carry = (a & b) | (axb & sub_carry)
            if len(self._neg_idx):
                b = ~out[:, self._neg_b]
                nxt[:, self._neg_idx] = b ^ neg_carry
                neg_carry = b & neg_carry
            if len(self._dff_idx):
                nxt[:, self._dff_idx] = out[:, self._dff_d]
            if stuck is not None:
                nxt[:, stuck[0]] = stuck[1]
            out, nxt = nxt, out
            captured[:, :, cycle] = out[:, self._probe_idx]
        width = self.kernel.result_width
        slab = captured[:, :, self.decode_delta : self.decode_delta + width]
        return self._decode_bits(unpack_lanes(slab, lanes))


# Every way to execute a compiled netlist: the object-graph simulator
# plus the three FastCircuit strategies.  Consumers that accept an
# ``engine`` argument (SramWrapper, fault_campaign) validate against
# this single list.
ALL_ENGINES = ("object",) + FastCircuit.ENGINES

#: Engines a served call may name: ``"auto"`` plus every FastCircuit
#: engine.
SERVE_ENGINES = ("auto",) + FastCircuit.ENGINES


def resolve_engine(engine: str, has_faults: Callable[[], bool]) -> str:
    """The engine a call naming ``engine`` actually runs.

    ``"auto"`` is the fused schedule unless faults are active, and the
    bit-plane gate engine when they are (the fused engine refuses
    faults).  ``has_faults`` is asked only for ``"auto"``.  Explicit
    engines pass through; anything outside :data:`SERVE_ENGINES` raises
    ``ValueError``.  The serve layer, the shard server and the hardware
    ESN all resolve through here.
    """
    if engine == "auto":
        return "bitplane" if has_faults() else "fused"
    if engine not in FastCircuit.ENGINES:
        raise ValueError(f"engine must be one of {SERVE_ENGINES}, got {engine!r}")
    return engine


def executor_label(engine: str, fused_variant: Callable[[], str]) -> str:
    """The reporting label for a resolved engine.

    Gate engines pass through; ``"fused"`` gains its compute dtype
    (``fused:float32`` / ``fused:float64`` / ``fused:int64`` /
    ``fused:object``, or ``fused:mixed`` for a deployment whose shards
    differ), so telemetry, spans and cluster STATS say which code ran.
    ``fused_variant`` is asked only for ``"fused"``, because naming the
    variant builds the executor.
    """
    return f"fused:{fused_variant()}" if engine == "fused" else engine
