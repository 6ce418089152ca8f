"""The fused engine: schedule recovery, equivalence, and fault refusal.

The fused engine is the repository's first *non-simulating* execution
path — ``fuse`` recovers the static CSD shift-add schedule from a
lowered kernel's topology and executes it without a cycle loop — so the
load-bearing property is bit-exactness against the gate-level engines
it replaces on the serving path.  The sweep here crosses sparsity,
input width, recoding scheme, signed edge values, and batch sizes that
span the bit-plane engine's 64-lane word boundary; the gate engines are
the oracle throughout.
"""

import numpy as np
import pytest

from repro.core.bits import signed_range
from repro.core.stages import STAGES
from repro.core.plan import plan_matrix
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import ALL_ENGINES, FastCircuit
from repro.hwsim.faults import inject_stuck_output
from repro.hwsim.fused import FusedCircuit, FusedKernel, csd_terms, fuse


def _compiled(matrix, input_width=8, scheme="csd"):
    plan = plan_matrix(matrix, input_width=input_width, scheme=scheme)
    return build_circuit(plan)


def _matrix(rng, shape, sparsity, magnitude=127):
    matrix = rng.integers(-magnitude, magnitude + 1, size=shape)
    matrix[rng.random(shape) < sparsity] = 0
    return matrix


class TestCsdTerms:
    @pytest.mark.parametrize("value", [0, 1, -1, 7, -7, 93, -128, 255, 2**40 + 5])
    def test_terms_reconstruct_value(self, value):
        assert sum(sign << shift for shift, sign in csd_terms(value)) == value

    def test_terms_are_nonadjacent_signed_digits(self):
        for value in range(-300, 301):
            terms = csd_terms(value)
            shifts = [s for s, _ in terms]
            assert all(g in (-1, 1) for _, g in terms)
            assert all(b - a >= 2 for a, b in zip(shifts, shifts[1:]))


class TestScheduleRecovery:
    @pytest.mark.parametrize("scheme", ["csd", "pn"])
    def test_recovered_coefficients_are_the_matrix(self, scheme):
        rng = np.random.default_rng(3)
        matrix = _matrix(rng, (14, 11), 0.6)
        fast = FastCircuit.from_compiled(_compiled(matrix, scheme=scheme))
        fused = fuse(fast.kernel)
        assert fused.fingerprint == fast.kernel.fingerprint
        assert fused.rows == 14 and fused.cols == 11
        assert np.array_equal(
            np.asarray(fused.coefficients(), dtype=np.int64), matrix
        )

    def test_fuse_counts_the_pipeline_stage_once(self):
        rng = np.random.default_rng(4)
        fast = FastCircuit.from_compiled(_compiled(_matrix(rng, (6, 5), 0.5)))
        before = STAGES.snapshot()
        fast.fuse()
        assert STAGES.delta(before).get("fuse") == 1
        # Cached thereafter: repeated executions never re-fuse.
        vectors = rng.integers(-128, 128, size=(3, 6))
        fast.multiply_batch(vectors, engine="fused")
        fast.multiply_batch(vectors, engine="fused")
        assert STAGES.delta(before).get("fuse") == 1

    def test_attached_fused_kernel_must_match_fingerprint(self):
        rng = np.random.default_rng(6)
        fast_a = FastCircuit.from_compiled(_compiled(_matrix(rng, (6, 5), 0.5)))
        fast_b = FastCircuit.from_compiled(_compiled(_matrix(rng, (6, 5), 0.2)))
        with pytest.raises(ValueError, match="fingerprint"):
            FastCircuit(fast_a.kernel, fused=fuse(fast_b.kernel))


class TestFusedKernelValidation:
    def _fields(self, **overrides):
        fields = dict(
            fingerprint="f",
            rows=4,
            cols=3,
            input_width=8,
            result_width=16,
            term_out=np.array([0, 0, 2]),
            term_row=np.array([1, 3, 0]),
            term_shift=np.array([0, 2, 1]),
            term_sign=np.array([1, -1, 1]),
        )
        fields.update(overrides)
        return fields

    def test_accepts_well_formed_terms(self):
        FusedKernel(**self._fields())

    def test_rejects_unsorted_outputs(self):
        with pytest.raises(ValueError, match="sorted"):
            FusedKernel(**self._fields(term_out=np.array([2, 0, 1])))

    def test_rejects_out_of_range_rows_and_outputs(self):
        with pytest.raises(ValueError, match="row"):
            FusedKernel(**self._fields(term_row=np.array([1, 4, 0])))
        with pytest.raises(ValueError, match="out"):
            FusedKernel(**self._fields(term_out=np.array([0, 0, 3])))

    def test_rejects_bad_signs_and_shifts(self):
        with pytest.raises(ValueError, match="sign"):
            FusedKernel(**self._fields(term_sign=np.array([1, 2, 1])))
        with pytest.raises(ValueError, match="shift"):
            FusedKernel(**self._fields(term_shift=np.array([0, -1, 1])))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            FusedKernel(**self._fields(term_sign=np.array([1, -1])))


class TestCrossEngineEquivalence:
    """fused == bitplane == scalar, across the design space."""

    @pytest.mark.parametrize("scheme", ["csd", "pn"])
    @pytest.mark.parametrize("sparsity", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("input_width", [4, 8])
    def test_property_sweep(self, scheme, sparsity, input_width):
        rng = np.random.default_rng(int(sparsity * 100) + input_width)
        matrix = _matrix(rng, (12, 10), sparsity, magnitude=100)
        fast = FastCircuit.from_compiled(
            _compiled(matrix, input_width=input_width, scheme=scheme)
        )
        lo, hi = signed_range(input_width)
        vectors = rng.integers(lo, hi + 1, size=(7, 12))
        # Signed edge values: the most negative/positive representable
        # inputs exercise the sign-extension path end to end.
        vectors[0, :] = lo
        vectors[1, :] = hi
        vectors[2, ::2] = lo
        vectors[2, 1::2] = hi
        golden = vectors @ matrix
        for engine in FastCircuit.ENGINES:
            assert np.array_equal(
                fast.multiply_batch(vectors, engine=engine), golden
            ), engine

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
    def test_batch_sizes_span_word_boundaries(self, batch):
        rng = np.random.default_rng(batch)
        matrix = _matrix(rng, (16, 9), 0.5)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        vectors = rng.integers(-128, 128, size=(batch, 16))
        golden = vectors @ matrix
        assert np.array_equal(
            fast.multiply_batch(vectors, engine="fused"), golden
        )
        assert np.array_equal(
            fast.multiply_batch(vectors, engine="bitplane"), golden
        )

    def test_wide_results_match_bitplane_exactly(self):
        """>62-bit accumulations: object dtype, exact Python integers."""
        rng = np.random.default_rng(11)
        matrix = rng.integers(-(2**20), 2**20, size=(40, 5))
        plan = plan_matrix(matrix, input_width=40, scheme="csd")
        assert plan.result_width > 62
        fast = FastCircuit.from_compiled(build_circuit(plan))
        vectors = rng.integers(-(2**39), 2**39, size=(4, 40))
        fused = fast.multiply_batch(vectors, engine="fused")
        gates = fast.multiply_batch(vectors, engine="bitplane")
        assert fused.dtype == object and gates.dtype == object
        assert np.array_equal(fused, gates)
        golden = [
            sum(int(vectors[b, r]) * int(matrix[r, j]) for r in range(40))
            for b in range(4)
            for j in range(5)
        ]
        assert [int(x) for x in fused.ravel()] == golden

    def test_empty_batch_and_empty_matrix_edges(self):
        rng = np.random.default_rng(12)
        matrix = _matrix(rng, (8, 6), 0.5)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        empty = fast.multiply_batch(np.zeros((0, 8)), engine="fused")
        assert empty.shape == (0, 6) and empty.dtype == np.int64
        # An all-zero matrix fuses to zero terms and yields zero outputs.
        zeros = FastCircuit.from_compiled(_compiled(np.zeros((4, 3), dtype=int)))
        fused = fuse(zeros.kernel)
        assert fused.terms == 0
        out = zeros.multiply_batch(rng.integers(-5, 5, size=(3, 4)), engine="fused")
        assert np.array_equal(out, np.zeros((3, 3), dtype=np.int64))

    def test_standalone_fused_circuit_validates_inputs(self):
        rng = np.random.default_rng(13)
        matrix = _matrix(rng, (6, 4), 0.4)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        circuit = FusedCircuit(fuse(fast.kernel))
        vector = rng.integers(-128, 128, size=6)
        assert np.array_equal(circuit.multiply(vector), vector @ matrix)
        with pytest.raises(ValueError, match="rows"):
            circuit.multiply_batch(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="fit"):
            circuit.multiply_batch(np.full((1, 6), 999))


class TestFaultRefusal:
    def test_live_faults_make_the_fused_engine_refuse(self):
        rng = np.random.default_rng(14)
        matrix = _matrix(rng, (8, 6), 0.5)
        circuit = _compiled(matrix)
        fast = FastCircuit.from_compiled(circuit)
        vectors = rng.integers(-128, 128, size=(3, 8))
        assert not fast.has_faults
        injection = inject_stuck_output(
            circuit.netlist, circuit.column_probes[0].src, 1
        )
        assert fast.has_faults
        with pytest.raises(ValueError, match="fused"):
            fast.multiply_batch(vectors, engine="fused")
        injection.revert()
        # Reverting restores fused service, bit-exact as ever.
        assert not fast.has_faults
        assert np.array_equal(
            fast.multiply_batch(vectors, engine="fused"), vectors @ matrix
        )

    def test_engine_registries_include_fused(self):
        assert FastCircuit.ENGINES == ("scalar", "bitplane", "fused")
        assert ALL_ENGINES == ("object", "scalar", "bitplane", "fused")
        assert "fused" not in FastCircuit.FAULT_CAPABLE_ENGINES
