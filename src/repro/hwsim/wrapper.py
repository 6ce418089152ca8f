"""SRAM-fed design wrapper (Sec. VI of the paper).

"We 'wrap' the matrix multiplier with a small design that feeds inputs
from an SRAM, and captures results in that same SRAM.  This design
wrapper only adds a few extra LUTs and registers."

The wrapper models the deployment loop around the compiled array: input
vectors are queued in a word-addressed memory, streamed through the
multiplier (the paper's sequential batching), and the decoded results
written back.  It is the piece that turns the raw combinational fabric
into the "device memory to device memory" latency the paper compares
against the GPU's.

Simulation engine choice
------------------------

The *hardware being modelled* processes vectors strictly sequentially,
and the wrapper's cycle accounting always reflects that
(``total_cycles = vectors * cycles_per_vector``).  How the *simulation*
computes those products is independent, and selectable via ``engine``:

* ``"object"`` — one object-graph product per vector (slowest; use when
  you also need per-cycle probes or VCD dumps of the run);
* ``"scalar"`` — the vectorized engine, one vector at a time;
* ``"bitplane"`` (default) — the whole SRAM batch packed 64 lanes per
  ``uint64`` word and streamed through one cycle loop;
* ``"fused"`` — the static shift-add schedule with no cycle loop
  (fault-free only).

All engines are bit-exact with each other (asserted by tests), and the
gate-level ones stay so under injected faults, so the default is the
fastest engine that also honours faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hwsim.builder import CompiledCircuit
from repro.hwsim.fast import ALL_ENGINES as _ENGINES, FastCircuit

__all__ = ["SramWrapper", "WrapperRun"]


@dataclass
class WrapperRun:
    """Accounting for one wrapper invocation."""

    vectors: int
    cycles_per_vector: int
    total_cycles: int

    def latency_s(self, frequency_hz: float) -> float:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        return self.total_cycles / frequency_hz


@dataclass
class SramWrapper:
    """Memory-to-memory execution wrapper around a compiled circuit.

    Attributes:
        circuit: the compiled multiplier array.
        input_memory: queued input vectors (rows: vectors).
        output_memory: captured results, filled by :meth:`run`.
        engine: simulation engine (see module docstring).
    """

    circuit: CompiledCircuit
    input_memory: np.ndarray | None = None
    output_memory: np.ndarray | None = None
    engine: str = "bitplane"
    last_run: WrapperRun | None = field(default=None, init=False)
    _fast: FastCircuit | None = field(default=None, init=False, repr=False)
    _fast_circuit: CompiledCircuit | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self._check_engine()

    def _check_engine(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )

    def load(self, vectors: np.ndarray) -> None:
        """Write a batch of input vectors into the input SRAM."""
        arr = np.atleast_2d(np.asarray(vectors, dtype=np.int64))
        if arr.shape[1] != self.circuit.plan.rows:
            raise ValueError(
                f"vectors must have {self.circuit.plan.rows} elements, "
                f"got {arr.shape[1]}"
            )
        self.input_memory = arr

    def run(self) -> np.ndarray:
        """Stream every queued vector through the array, cycle-accurately.

        The modelled hardware products are sequential: each vector
        occupies the array for the full serial result
        (``circuit.run_cycles``), exactly as the latency model's
        ``batch_cycles`` assumes — the accounting below is identical for
        every engine.  Results are written to ``output_memory`` and
        returned.
        """
        self._check_engine()
        if self.input_memory is None:
            raise RuntimeError("no input vectors loaded; call load() first")
        per_vector = self.circuit.run_cycles
        if self.engine == "object" and len(self.input_memory):
            results = [self.circuit.multiply(v) for v in self.input_memory]
            self.output_memory = np.stack(results)
        else:
            # FastCircuit owns the empty-SRAM result shape/dtype rule, so
            # an empty run is also routed here (engine choice is moot for
            # zero vectors) — every engine stays behaviourally identical.
            if self._fast is None or self._fast_circuit is not self.circuit:
                self._fast = FastCircuit.from_compiled(self.circuit)
                self._fast_circuit = self.circuit
            engine = "scalar" if self.engine == "object" else self.engine
            self.output_memory = self._fast.multiply_batch(
                self.input_memory, engine=engine
            )
        vectors = self.output_memory.shape[0]
        self.last_run = WrapperRun(
            vectors=vectors,
            cycles_per_vector=per_vector,
            total_cycles=per_vector * vectors,
        )
        return self.output_memory
