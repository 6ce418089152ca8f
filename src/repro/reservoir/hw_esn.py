"""An integer ESN whose recurrent gemv runs on the compiled multiplier.

This closes the paper's loop: the reservoir's fixed recurrent matrix is
compiled once into the spatial bit-serial architecture, and every state
update's ``x(n-1)^T W`` product is produced by that hardware.  Two
execution backends are provided:

* ``backend="functional"`` — the multiplier's exact integer path (fast;
  bit-identical to the hardware by the library's own cross-validation);
* ``backend="gates"`` — the compiled circuit's execution engines
  (:mod:`repro.hwsim.fast`).  ``engine="auto"`` (the default) runs the
  fused cycle-loop-free shift-add schedule while the circuit is
  fault-free and falls back to the cycle-accurate bit-plane simulation
  whenever faults are injected; pass an explicit gate engine
  (``"bitplane"``/``"scalar"``) to force stepping every
  serial adder of the netlist each state update.

Both backends also accept *batched* states (:meth:`HardwareESN.step_batch`
/ :meth:`HardwareESN.run_batch`): ``B`` independent reservoir instances
advance in lock-step, with every update's ``B`` recurrent products
computed by one batched hardware multiply — on the ``gates`` backend a
single bit-plane pass of the compiled netlist per time step.

Because the multiplier computes row-vector-times-matrix (``o = a^T V``,
Eq. 3), the reservoir's update ``W x`` is expressed as ``x^T W^T``: the
*transpose* of the recurrent matrix is what gets compiled.
"""

from __future__ import annotations

import numpy as np

from repro.core.multiplier import FixedMatrixMultiplier
from repro.core.plan import MatrixPlan
from repro.hwsim.fast import SERVE_ENGINES, FastCircuit, resolve_engine
from repro.reservoir.quantize import IntegerESN

__all__ = ["HardwareESN"]

_BACKENDS = ("functional", "gates")


class HardwareESN:
    """Integer ESN bound to a compiled :class:`FixedMatrixMultiplier`.

    With ``include_input=True`` the *augmented* matrix ``[W^T ; W_in^T]``
    is compiled instead, and the whole pre-activation
    ``W x + W_in u`` comes out of the hardware in one product over the
    augmented vector ``[x, u]`` — no software matrix work remains in the
    state update (the paper's rectangular-matrix support at work).
    """

    def __init__(
        self,
        esn: IntegerESN,
        scheme: str = "csd",
        backend: str = "functional",
        rng: np.random.Generator | None = None,
        include_input: bool = False,
        input_quant_width: int = 8,
        plan: MatrixPlan | None = None,
        engine: str = "auto",
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.esn = esn
        self.backend = backend
        self.engine = engine
        self.include_input = include_input
        if include_input:
            matrix = np.vstack([esn.w_q.T, esn.w_in_q.T])
            stream_width = max(esn.state_width, input_quant_width)
        else:
            matrix = esn.w_q.T  # compile W^T so that x^T W^T == W x
            stream_width = esn.state_width
        self.multiplier = FixedMatrixMultiplier(
            matrix,
            input_width=stream_width,
            scheme=scheme,
            rng=rng,
            plan=plan,  # precomputed (e.g. serve-cache) plan skips re-planning
        )
        self._circuit = None
        if backend == "gates":
            if engine not in SERVE_ENGINES:
                raise ValueError(
                    f"engine must be 'auto' or one of {FastCircuit.ENGINES}, "
                    f"got {engine!r}"
                )
            self._circuit = FastCircuit.from_compiled(self.multiplier.build_circuit())

    @property
    def dim(self) -> int:
        return self.esn.dim

    def _gates_engine(self) -> str:
        """Resolve ``engine="auto"`` against the circuit's current faults."""
        return resolve_engine(self.engine, lambda: self._circuit.has_faults)

    def _hardware_multiply(self, vector: np.ndarray) -> np.ndarray:
        """One hardware product; a 2-D input batches independent vectors."""
        arr = np.asarray(vector)
        if arr.ndim == 2:
            if self.backend == "gates":
                return self._circuit.multiply_batch(arr, engine=self._gates_engine())
            return self.multiplier.multiply_batch(arr)
        if self.backend == "gates":
            return self._circuit.multiply_batch(
                arr[None, :], engine=self._gates_engine()
            )[0]
        return self.multiplier.multiply(arr)

    def recurrent_product(self, state: np.ndarray) -> np.ndarray:
        """``W_q x`` computed by the compiled hardware."""
        if self.include_input:
            raise RuntimeError(
                "include_input=True compiles the augmented matrix; use step()"
            )
        return self._hardware_multiply(state)

    def step(self, state: np.ndarray, u_q: np.ndarray) -> np.ndarray:
        if self.include_input:
            augmented = np.concatenate(
                [np.asarray(state, dtype=np.int64), np.atleast_1d(u_q)]
            )
            pre = self._hardware_multiply(augmented)
            return self.esn.activation(pre)
        return self.esn.step(state, u_q, recurrent_product=self.recurrent_product(state))

    def step_batch(self, states: np.ndarray, u_q: np.ndarray) -> np.ndarray:
        """One state update for ``B`` independent reservoir instances.

        ``states`` is ``(B, dim)`` and ``u_q`` is ``(B, n_inputs)`` (a
        1-D ``u_q`` is treated as a batch of single-input drives).  All
        ``B`` recurrent products go through the compiled hardware as one
        batched multiply — on the ``gates`` backend that is a single
        bit-plane pass of the netlist, the paper's amortization of one
        fixed matrix over a stream of vectors.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.int64))
        u = np.asarray(u_q, dtype=np.int64)
        if u.ndim == 1:
            u = u[:, None]
        if u.shape != (states.shape[0], self.esn.n_inputs):
            raise ValueError(
                f"inputs must have shape ({states.shape[0]}, "
                f"{self.esn.n_inputs}), got {u.shape}"
            )
        if self.include_input:
            pre = self._hardware_multiply(np.hstack([states, u]))
            return self.esn.activation(pre)
        # One batched hardware product, then delegate the update rule to
        # IntegerESN.step per lane so run_batch can never drift from run.
        recurrent = self._hardware_multiply(states)
        return np.stack(
            [
                self.esn.step(states[k], u[k], recurrent_product=recurrent[k])
                for k in range(states.shape[0])
            ]
        )

    def run_batch(
        self,
        inputs_q: np.ndarray,
        initial_states: np.ndarray | None = None,
        washout: int = 0,
    ) -> np.ndarray:
        """Roll out ``B`` independent reservoirs in lock-step.

        ``inputs_q`` must be 3-D, ``(B, steps, n_inputs)`` — the 2-D
        convenience shapes that :meth:`run` accepts are deliberately
        rejected here, because ``(steps, 1)`` would be silently
        reinterpreted as ``steps`` one-step sequences.  The result is
        ``(B, steps - washout, dim)``.  Each of the ``steps`` updates
        performs one *batched* hardware product over all ``B`` states,
        matching ``run`` bit-exactly per sequence — the sweep-many-
        reservoirs workload from the sparsity-in-RC literature.
        """
        u_seq = np.asarray(inputs_q, dtype=np.int64)
        if u_seq.ndim != 3 or u_seq.shape[2] != self.esn.n_inputs:
            raise ValueError(
                f"inputs must have shape (batch, steps, {self.esn.n_inputs}), "
                f"got {np.asarray(inputs_q).shape}"
            )
        batch, steps = u_seq.shape[0], u_seq.shape[1]
        if not 0 <= washout < steps:
            raise ValueError(f"washout {washout} out of range for {steps} steps")
        if initial_states is None:
            states = np.zeros((batch, self.dim), dtype=np.int64)
        else:
            states = np.atleast_2d(
                np.asarray(initial_states, dtype=np.int64)
            ).copy()
            if states.shape != (batch, self.dim):
                raise ValueError(
                    f"initial states must have shape ({batch}, {self.dim}), "
                    f"got {states.shape}"
                )
        harvested = np.empty((batch, steps - washout, self.dim), dtype=np.int64)
        for t in range(steps):
            states = self.step_batch(states, u_seq[:, t, :])
            if t >= washout:
                harvested[:, t - washout, :] = states
        return harvested

    def run(
        self,
        inputs_q: np.ndarray,
        initial_state: np.ndarray | None = None,
        washout: int = 0,
    ) -> np.ndarray:
        """Harvest states with every recurrent product on hardware."""
        u_seq = np.atleast_2d(np.asarray(inputs_q, dtype=np.int64))
        if u_seq.shape[0] == 1 and u_seq.shape[1] != self.esn.n_inputs:
            u_seq = u_seq.T
        steps = u_seq.shape[0]
        if not 0 <= washout < steps:
            raise ValueError(f"washout {washout} out of range for {steps} steps")
        state = (
            np.zeros(self.dim, dtype=np.int64)
            if initial_state is None
            else np.asarray(initial_state, dtype=np.int64).copy()
        )
        states = np.empty((steps - washout, self.dim), dtype=np.int64)
        for t in range(steps):
            state = self.step(state, u_seq[t])
            if t >= washout:
                states[t - washout] = state
        return states

    def step_latency_s(self) -> float:
        """Modelled wall-clock latency of one recurrent product on the FPGA."""
        return self.multiplier.latency_s()

    def summary(self) -> str:
        return (
            f"HardwareESN dim={self.dim} backend={self.backend}\n"
            + self.multiplier.summary()
        )
