"""The lowering boundary: ``lower(circuit) -> LoweredKernel`` and
kernel-only execution via ``FastCircuit(kernel)``.

The staged-pipeline contract: a kernel is pure data (picklable, no
component objects, no faults), lowering is a pure function of circuit
structure, and a bare kernel executes bit-exactly with the netlist-bound
engine it was lowered from.
"""

import pickle

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.core.stages import STAGES
from repro.hwsim.builder import build_circuit
from repro.hwsim.components import SerialAdder
from repro.hwsim.fast import (
    CARRY_KINDS,
    EMPTY_OVERRIDES,
    FastCircuit,
    LoweredKernel,
    lower,
    overrides_active,
)
from repro.hwsim.faults import inject_stuck_carry, inject_stuck_output


def _compiled(seed=0, rows=14, cols=10, scheme="csd", input_width=8, sparsity=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-80, 81, size=(rows, cols))
    matrix[rng.random((rows, cols)) < sparsity] = 0
    circuit = build_circuit(
        plan_matrix(matrix, input_width=input_width, scheme=scheme)
    )
    vectors = rng.integers(-128, 128, size=(6, rows))
    return matrix, circuit, vectors


class TestLowering:
    def test_lower_counts_one_stage(self):
        _, circuit, _ = _compiled()
        before = STAGES.snapshot()
        lower(circuit)
        assert STAGES.delta(before).get("lower") == 1

    def test_kernel_matches_circuit_metadata(self):
        _, circuit, _ = _compiled()
        kernel = lower(circuit)
        assert kernel.fingerprint == circuit.digest
        assert kernel.rows == circuit.plan.rows
        assert kernel.cols == circuit.plan.cols
        assert kernel.run_cycles == circuit.run_cycles
        assert kernel.decode_delta == circuit.decode_delta
        assert kernel.size == len(circuit.netlist)

    def test_lowering_is_deterministic(self):
        _, circuit, _ = _compiled()
        assert lower(circuit).equivalent(lower(circuit))

    def test_kernel_arrays_are_plain_int64(self):
        _, circuit, _ = _compiled()
        kernel = lower(circuit)
        for name in LoweredKernel.ARRAY_FIELDS:
            arr = getattr(kernel, name)
            assert isinstance(arr, np.ndarray) and arr.dtype == np.int64, name

    def test_mismatched_field_lengths_rejected(self):
        _, circuit, _ = _compiled()
        kernel = lower(circuit)
        fields = {
            name: getattr(kernel, name)
            for name in (
                LoweredKernel.SCALAR_FIELDS + LoweredKernel.ARRAY_FIELDS
            )
        }
        fields["add_a"] = fields["add_a"][:-1]
        with pytest.raises(ValueError, match="add_idx/add_a"):
            LoweredKernel(**fields)


class TestKernelExecution:
    @pytest.mark.parametrize("scheme", ["pn", "csd"])
    @pytest.mark.parametrize("engine", FastCircuit.ENGINES)
    def test_bare_kernel_matches_bound_engine(self, scheme, engine):
        matrix, circuit, vectors = _compiled(seed=3, scheme=scheme)
        bound = FastCircuit.from_compiled(circuit)
        bare = FastCircuit(lower(circuit))
        golden = vectors @ matrix
        assert np.array_equal(bound.multiply_batch(vectors, engine=engine), golden)
        assert np.array_equal(bare.multiply_batch(vectors, engine=engine), golden)

    def test_bare_kernel_has_no_netlist_or_plan(self):
        _, circuit, vectors = _compiled()
        bare = FastCircuit(lower(circuit))
        assert bare.netlist is None and bare.plan is None

    def test_pickle_round_trip_executes(self):
        matrix, circuit, vectors = _compiled(seed=4)
        kernel = pickle.loads(pickle.dumps(lower(circuit)))
        assert np.array_equal(
            FastCircuit(kernel).multiply_batch(vectors), vectors @ matrix
        )

    def test_rejects_non_circuit_source(self):
        with pytest.raises(TypeError, match="CompiledCircuit or LoweredKernel"):
            FastCircuit(np.zeros((2, 2)))

    def test_construction_from_kernel_does_not_relower(self):
        _, circuit, _ = _compiled()
        kernel = lower(circuit)
        before = STAGES.snapshot()
        FastCircuit(kernel)
        delta = STAGES.delta(before)
        assert delta.get("lower", 0) == 0 and delta.get("build", 0) == 0


class TestFaultSnapshotAndOverrides:
    def test_lower_refuses_faulted_netlist(self):
        """A kernel carries no faults, so lowering a faulted netlist
        raises instead of dropping them; ``FastCircuit(circuit)`` still
        lowers the structure and reads the live faults."""
        matrix, circuit, vectors = _compiled(seed=5)
        golden = vectors @ matrix
        inject_stuck_output(circuit.netlist, circuit.column_probes[0].src, 1)
        adder = next(
            c for c in circuit.netlist.components if isinstance(c, SerialAdder)
        )
        inject_stuck_carry(circuit.netlist, adder, 1)
        before = STAGES.snapshot()
        with pytest.raises(ValueError, match=r"FastCircuit\(circuit\).*overrides="):
            lower(circuit)
        assert STAGES.delta(before).get("lower", 0) == 0
        bound = FastCircuit(circuit)
        assert bound.has_faults
        faulty = bound.multiply_batch(vectors)
        assert not np.array_equal(faulty, golden)
        # The other way: lower the fault-free netlist, pass the faults
        # per call.
        overrides = bound.fault_overrides()
        circuit.netlist.clear_faults()
        bare = FastCircuit(lower(circuit))
        assert np.array_equal(bare.multiply_batch(vectors), golden)
        assert np.array_equal(
            bare.multiply_batch(vectors, overrides=overrides), faulty
        )

    def test_live_faults_beat_stale_snapshot_on_bound_engine(self):
        """A netlist-bound FastCircuit tracks the netlist's *current*
        faults, not the ones present when it was built."""
        matrix, circuit, vectors = _compiled(seed=6)
        bound = FastCircuit.from_compiled(circuit)
        golden = bound.multiply_batch(vectors)
        injection = inject_stuck_output(
            circuit.netlist, circuit.column_probes[0].src, 1
        )
        faulty = bound.multiply_batch(vectors)
        injection.revert()
        assert np.array_equal(bound.multiply_batch(vectors), golden)
        assert not np.array_equal(faulty, golden)

    def test_bare_kernel_shares_the_immutable_empty_schedule(self):
        _, circuit, _ = _compiled()
        stuck_out, carry = FastCircuit(lower(circuit)).fault_overrides()
        assert (stuck_out, carry) == EMPTY_OVERRIDES
        assert FastCircuit(lower(circuit)).fault_overrides() is EMPTY_OVERRIDES
        assert tuple(carry) == CARRY_KINDS
        assert not overrides_active(EMPTY_OVERRIDES)
        with pytest.raises(TypeError):
            carry["add"] = [(0, 1)]

    def test_explicit_overrides_replay_on_bare_kernel(self):
        """The remote-shard fault channel: overrides taken from a live
        engine reproduce its behaviour on a fault-free kernel."""
        matrix, circuit, vectors = _compiled(seed=7)
        clean_kernel = lower(circuit)
        bound = FastCircuit.from_compiled(circuit)
        injection = inject_stuck_output(
            circuit.netlist, circuit.column_probes[1].src, 0
        )
        faulty = bound.multiply_batch(vectors)
        overrides = bound.fault_overrides()
        injection.revert()
        bare = FastCircuit(clean_kernel)
        for engine in FastCircuit.FAULT_CAPABLE_ENGINES:
            assert np.array_equal(
                bare.multiply_batch(vectors, engine=engine, overrides=overrides),
                faulty,
            )
        # The fused engine refuses non-empty overrides (linear-only)...
        with pytest.raises(ValueError, match="fused"):
            bare.multiply_batch(vectors, engine="fused", overrides=overrides)
        # ...but accepts an explicitly empty override set (a shard
        # server's fault-free connection holds one).
        empty = ([], {"add": [], "sub": [], "neg": []})
        assert np.array_equal(
            bare.multiply_batch(vectors, engine="fused", overrides=empty),
            vectors @ matrix,
        )
        # Without overrides the clean kernel stays clean.
        assert np.array_equal(bare.multiply_batch(vectors), vectors @ matrix)
