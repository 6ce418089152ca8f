"""Equivalence and edge-case tests for the scalar / bit-plane engines.

The contract every test here enforces: the scalar (dense) and bit-plane
paths of :class:`FastCircuit` are bit-exact with the object-graph
``Netlist`` simulator (and with the functional integer path of
:class:`FixedMatrixMultiplier`) on arbitrary matrices, vectors, widths
and recoding schemes — including at the signed-range edges, under
injected faults, and through every consumer (wrapper, fault campaigns,
hardware ESN rollouts).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bits import signed_range
from repro.core.multiplier import FixedMatrixMultiplier
from repro.core.plan import plan_matrix
from repro.hwsim.builder import build_circuit
from repro.hwsim.components import SerialAdder, SerialNegator, SerialSubtractor
from repro.hwsim.fast import FastCircuit, pack_lanes, unpack_lanes
from repro.hwsim.faults import fault_campaign, inject_stuck_carry, inject_stuck_output
from repro.hwsim.wrapper import SramWrapper
from repro.reservoir.hw_esn import HardwareESN
from repro.reservoir.quantize import quantize_esn
from repro.reservoir.weights import random_input_weights, random_reservoir

ENGINES = ("scalar", "bitplane")


def compile_both(matrix, input_width=6, scheme="pn", tree_style="compact", seed=0):
    plan = plan_matrix(
        np.asarray(matrix),
        input_width=input_width,
        scheme=scheme,
        rng=np.random.default_rng(seed),
        tree_style=tree_style,
    )
    circuit = build_circuit(plan)
    return circuit, FastCircuit.from_compiled(circuit)


def edge_biased_batch(rng, batch, rows, input_width):
    """Random vectors with some entries forced to the signed-range edges."""
    lo, hi = signed_range(input_width)
    vectors = rng.integers(lo, hi + 1, size=(batch, rows))
    mask = rng.random((batch, rows))
    vectors[mask < 0.15] = lo
    vectors[mask > 0.85] = hi
    return vectors


class TestEngineEquivalence:
    """Scalar, bit-plane, object and functional paths all agree."""

    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 8),
        cols=st.integers(1, 6),
        input_width=st.integers(2, 9),
        scheme=st.sampled_from(["pn", "csd", "naf"]),
        batch=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed, rows, cols, input_width, scheme, batch):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-32, 32, size=(rows, cols))
        matrix[rng.random((rows, cols)) < 0.4] = 0
        circuit, fast = compile_both(matrix, input_width=input_width, scheme=scheme)
        vectors = edge_biased_batch(rng, batch, rows, input_width)
        golden = np.stack([circuit.multiply(v) for v in vectors])
        functional = FixedMatrixMultiplier(
            matrix, input_width=input_width, scheme=scheme,
            rng=np.random.default_rng(seed),
        ).multiply_batch(vectors)
        assert np.array_equal(functional, golden)
        for engine in ENGINES:
            assert np.array_equal(
                fast.multiply_batch(vectors, engine=engine), golden
            ), engine

    @pytest.mark.parametrize("tree_style", ["compact", "padded"])
    def test_tree_styles(self, rng, tree_style):
        matrix = rng.integers(-8, 8, size=(7, 5))
        circuit, fast = compile_both(matrix, tree_style=tree_style)
        vectors = rng.integers(-32, 32, size=(6, 7))
        golden = np.stack([circuit.multiply(v) for v in vectors])
        for engine in ENGINES:
            assert np.array_equal(
                fast.multiply_batch(vectors, engine=engine), golden
            )

    def test_signed_range_edges_exact(self, rng):
        """Every entry at lo or hi of the input range, where sign
        extension and carry chains are most stressed."""
        matrix = rng.integers(-16, 16, size=(5, 4))
        circuit, fast = compile_both(matrix, input_width=5)
        lo, hi = signed_range(5)
        vectors = np.array(
            [[lo] * 5, [hi] * 5, [lo, hi, lo, hi, lo], [hi, lo, hi, lo, hi]]
        )
        golden = vectors @ matrix
        assert np.array_equal(
            np.stack([circuit.multiply(v) for v in vectors]), golden
        )
        for engine in ENGINES:
            assert np.array_equal(
                fast.multiply_batch(vectors, engine=engine), golden
            )

    def test_wide_results_decode_as_python_ints(self):
        """result_width > 62 switches decode to exact object dtype."""
        matrix = np.array([[2**40, -(2**39)], [-(2**40), 3]], dtype=np.int64)
        circuit, fast = compile_both(matrix, input_width=24)
        assert circuit.plan.result_width > 62
        vectors = np.array([[2**23 - 1, -(2**23)], [-1, 1], [12345, -54321]])
        golden = vectors.astype(object) @ matrix.astype(object)
        assert np.array_equal(
            np.stack([circuit.multiply(v) for v in vectors]), golden
        )
        for engine in ENGINES:
            got = fast.multiply_batch(vectors, engine=engine)
            assert got.dtype == object
            assert np.array_equal(got, golden)

    def test_scalar_multiply_matches_batch_lane(self, rng):
        matrix = rng.integers(-16, 16, size=(6, 3))
        __, fast = compile_both(matrix)
        vectors = rng.integers(-32, 32, size=(3, 6))
        batched = fast.multiply_batch(vectors)
        for k, v in enumerate(vectors):
            assert np.array_equal(fast.multiply(v), batched[k])


class TestBatchShapesAndValidation:
    """Edge cases behave or raise identically to the scalar path."""

    @pytest.fixture
    def fast(self, rng):
        matrix = rng.integers(-8, 8, size=(4, 3))
        return compile_both(matrix, input_width=4)[1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wrong_vector_length_rejected(self, fast, engine):
        with pytest.raises(ValueError, match="vector length 3 != matrix rows 4"):
            fast.multiply_batch(np.zeros((2, 3)), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_range_rejected(self, fast, engine):
        bad = np.zeros((2, 4), dtype=np.int64)
        bad[1, 2] = 99
        with pytest.raises(ValueError, match="input 99 does not fit in s4"):
            fast.multiply_batch(bad, engine=engine)

    def test_scalar_path_raises_same_messages(self, fast):
        with pytest.raises(ValueError, match="vector length 3 != matrix rows 4"):
            fast.multiply([1, 2, 3])
        with pytest.raises(ValueError, match="input 99 does not fit in s4"):
            fast.multiply([99, 0, 0, 0])

    def test_unknown_engine_rejected(self, fast):
        with pytest.raises(ValueError, match="engine must be one of"):
            fast.multiply_batch(np.zeros((1, 4)), engine="quantum")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_of_one_keeps_batch_axis(self, fast, engine, rng):
        vectors = rng.integers(-8, 8, size=(1, 4))
        out = fast.multiply_batch(vectors, engine=engine)
        assert out.shape == (1, 3)
        assert np.array_equal(out[0], fast.multiply(vectors[0]))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_dim_input_promoted_to_batch(self, fast, engine, rng):
        vector = rng.integers(-8, 8, size=4)
        out = fast.multiply_batch(vector, engine=engine)
        assert out.shape == (1, 3)
        assert np.array_equal(out[0], fast.multiply(vector))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_batch(self, fast, engine):
        out = fast.multiply_batch(np.zeros((0, 4)), engine=engine)
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_three_dim_input_rejected(self, fast, engine):
        with pytest.raises(ValueError):
            fast.multiply_batch(np.zeros((2, 2, 4)), engine=engine)

    def test_batch_beyond_64_lanes_multi_word(self, rng):
        """70 lanes spill into a second uint64 bit-plane word."""
        matrix = rng.integers(-8, 8, size=(5, 4))
        circuit, fast = compile_both(matrix, input_width=6)
        vectors = edge_biased_batch(rng, 70, 5, 6)
        golden = vectors @ matrix
        assert np.array_equal(fast.multiply_batch(vectors, engine="bitplane"), golden)
        assert np.array_equal(fast.multiply_batch(vectors, engine="scalar"), golden)

    def test_exactly_64_and_65_lanes(self, rng):
        matrix = rng.integers(-8, 8, size=(3, 3))
        __, fast = compile_both(matrix)
        for batch in (63, 64, 65, 128, 129):
            vectors = rng.integers(-32, 32, size=(batch, 3))
            assert np.array_equal(
                fast.multiply_batch(vectors, engine="bitplane"), vectors @ matrix
            ), batch


class TestDegenerateCircuits:
    """Circuits with whole component classes empty still batch correctly."""

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((3, 3), dtype=np.int64),  # ConstantZero outputs only
            np.eye(4, dtype=np.int64),  # no adders needed per column
            -np.eye(4, dtype=np.int64),  # negators, no subtractors
            np.ones((2, 2), dtype=np.int64),  # no negative plane at all
            -np.ones((2, 2), dtype=np.int64),  # no positive plane at all
            np.array([[5]], dtype=np.int64),  # 1x1
        ],
    )
    def test_degenerate_matrices(self, matrix, rng):
        circuit, fast = compile_both(matrix, input_width=5)
        vectors = rng.integers(-16, 16, size=(67, matrix.shape[0]))
        golden = vectors @ matrix
        assert np.array_equal(
            np.stack([circuit.multiply(v) for v in vectors[:3]]), golden[:3]
        )
        for engine in ENGINES:
            assert np.array_equal(
                fast.multiply_batch(vectors, engine=engine), golden
            ), engine


class TestFaultEquivalence:
    """Injected faults behave identically on all four engines."""

    def build_faulty(self, rng):
        matrix = rng.integers(-8, 8, size=(6, 4))
        matrix[matrix == 0] = 1
        return compile_both(matrix, input_width=5)

    @pytest.mark.parametrize("value", [0, 1])
    def test_stuck_output_matches_object_engine(self, rng, value):
        circuit, fast = self.build_faulty(rng)
        victim = next(
            c for c in circuit.netlist.components if isinstance(c, SerialAdder)
        )
        vectors = rng.integers(-16, 16, size=(5, 6))
        injection = inject_stuck_output(circuit.netlist, victim, value)
        try:
            golden = np.stack([circuit.multiply(v) for v in vectors])
            for engine in ENGINES:
                assert np.array_equal(
                    fast.multiply_batch(vectors, engine=engine), golden
                ), engine
        finally:
            injection.revert()

    @pytest.mark.parametrize("value", [0, 1])
    def test_stuck_carry_matches_object_engine(self, rng, value):
        circuit, fast = self.build_faulty(rng)
        victims = [
            c
            for c in circuit.netlist.components
            if isinstance(c, (SerialAdder, SerialSubtractor, SerialNegator))
        ]
        vectors = rng.integers(-16, 16, size=(4, 6))
        for victim in victims[:3] + victims[-1:]:
            injection = inject_stuck_carry(circuit.netlist, victim, value)
            try:
                golden = np.stack([circuit.multiply(v) for v in vectors])
                for engine in ENGINES:
                    assert np.array_equal(
                        fast.multiply_batch(vectors, engine=engine), golden
                    ), engine
            finally:
                injection.revert()

    def test_revert_restores_all_engines(self, rng):
        circuit, fast = self.build_faulty(rng)
        victim = next(
            c for c in circuit.netlist.components if isinstance(c, SerialAdder)
        )
        vectors = rng.integers(-16, 16, size=(3, 6))
        clean = fast.multiply_batch(vectors)
        injection = inject_stuck_output(circuit.netlist, victim, 1)
        corrupted = fast.multiply_batch(vectors)
        injection.revert()
        assert not np.array_equal(corrupted, clean)
        for engine in ENGINES:
            assert np.array_equal(fast.multiply_batch(vectors, engine=engine), clean)

    def test_carry_fault_on_carryless_component_rejected(self, rng):
        """The object engine crashes on a DFF carry fault; the fast
        engines must refuse loudly too, never silently simulate
        fault-free."""
        circuit, fast = self.build_faulty(rng)
        dff = next(
            c for c in circuit.netlist.components if type(c).__name__ == "DFF"
        )
        circuit.netlist.add_fault(dff, "stuck_carry", 1)
        try:
            with pytest.raises(ValueError, match="no carry register"):
                fast.multiply_batch(rng.integers(-16, 16, size=(2, 6)))
        finally:
            circuit.netlist.remove_fault(dff)

    def test_campaign_unknown_engine_rejected_up_front(self, rng):
        circuit, __ = self.build_faulty(rng)
        with pytest.raises(ValueError, match=r"'object', 'scalar'"):
            fault_campaign(circuit, np.zeros((1, 6)), engine="objcet")
        with pytest.raises(
            ValueError, match=r"engines \('object', 'scalar', 'bitplane'\)$"
        ):
            fault_campaign(circuit, np.zeros((1, 6)), engine="fused")

    def test_campaign_engines_agree(self, rng):
        circuit, __ = self.build_faulty(rng)
        vectors = rng.integers(-16, 16, size=(4, 6))
        reports = {
            engine: fault_campaign(
                circuit,
                vectors,
                max_faults=25,
                rng=np.random.default_rng(3),
                engine=engine,
            )
            for engine in ("object", "scalar", "bitplane")
        }
        baseline = reports["object"]
        assert baseline["injected"] == 25
        for engine, report in reports.items():
            assert report == baseline, engine


class TestSramWrapperEngines:
    def make(self, rng, engine):
        matrix = rng.integers(-8, 8, size=(6, 4))
        circuit = build_circuit(plan_matrix(matrix, input_width=5))
        return SramWrapper(circuit, engine=engine), matrix

    @pytest.mark.parametrize("engine", ["object", "scalar", "bitplane", "fused"])
    def test_products_and_accounting_identical(self, rng, engine):
        wrapper, matrix = self.make(rng, engine)
        vectors = rng.integers(-16, 16, size=(7, 6))
        wrapper.load(vectors)
        results = wrapper.run()
        assert np.array_equal(results, vectors @ matrix)
        run = wrapper.last_run
        assert run.vectors == 7
        assert run.cycles_per_vector == wrapper.circuit.run_cycles
        assert run.total_cycles == 7 * wrapper.circuit.run_cycles

    def test_default_engine_is_bitplane(self, rng):
        wrapper, __ = self.make(rng, "bitplane")
        assert SramWrapper(wrapper.circuit).engine == "bitplane"

    def test_unknown_engine_rejected(self, rng):
        matrix = rng.integers(-8, 8, size=(3, 2))
        circuit = build_circuit(plan_matrix(matrix, input_width=4))
        with pytest.raises(ValueError, match="engine must be one of"):
            SramWrapper(circuit, engine="turbo")

    def test_engine_reassignment_validated_at_run(self, rng):
        wrapper, __ = self.make(rng, "bitplane")
        wrapper.load(rng.integers(-16, 16, size=(2, 6)))
        wrapper.engine = "objject"
        with pytest.raises(ValueError, match=r"'object', 'scalar'"):
            wrapper.run()

    @pytest.mark.parametrize("engine", ["object", "scalar", "bitplane", "fused"])
    def test_empty_sram_identical_across_engines(self, rng, engine):
        wrapper, __ = self.make(rng, engine)
        wrapper.load(np.zeros((0, 6), dtype=np.int64))
        results = wrapper.run()
        assert results.shape == (0, 4)
        assert wrapper.last_run.vectors == 0
        assert wrapper.last_run.total_cycles == 0

    def test_circuit_reassignment_invalidates_fast_cache(self, rng):
        wrapper, __ = self.make(rng, "bitplane")
        vectors = rng.integers(-16, 16, size=(3, 6))
        wrapper.load(vectors)
        wrapper.run()
        other = rng.integers(-8, 8, size=(6, 4))
        wrapper.circuit = build_circuit(plan_matrix(other, input_width=5))
        wrapper.load(vectors)
        assert np.array_equal(wrapper.run(), vectors @ other)

    def test_wrapper_streams_large_batch_one_call(self, rng):
        wrapper, matrix = self.make(rng, "bitplane")
        vectors = rng.integers(-16, 16, size=(100, 6))
        wrapper.load(vectors)
        assert np.array_equal(wrapper.run(), vectors @ matrix)
        assert wrapper.last_run.total_cycles == 100 * wrapper.circuit.run_cycles


class TestHardwareEsnBatched:
    def make_esn(self, dim=6, seed=3):
        rng = np.random.default_rng(seed)
        w = random_reservoir(dim, rng=rng)
        w_in = random_input_weights(dim, 1, rng=rng)
        return quantize_esn(w, w_in, weight_width=5, state_width=5)

    @pytest.mark.parametrize("backend", ["functional", "gates"])
    def test_step_batch_matches_scalar_steps(self, rng, backend):
        esn = self.make_esn()
        hw = HardwareESN(esn, backend=backend, rng=np.random.default_rng(0))
        states = rng.integers(-15, 16, size=(5, esn.dim))
        u = rng.integers(-15, 16, size=(5, 1))
        batched = hw.step_batch(states, u)
        for k in range(5):
            assert np.array_equal(batched[k], hw.step(states[k], u[k]))

    @pytest.mark.parametrize("backend", ["functional", "gates"])
    def test_run_batch_matches_per_sequence_run(self, rng, backend):
        esn = self.make_esn()
        hw = HardwareESN(esn, backend=backend, rng=np.random.default_rng(0))
        inputs = rng.integers(-15, 16, size=(4, 6, 1))
        batched = hw.run_batch(inputs, washout=2)
        assert batched.shape == (4, 4, esn.dim)
        for k in range(4):
            assert np.array_equal(batched[k], hw.run(inputs[k], washout=2))

    def test_include_input_batched(self, rng):
        esn = self.make_esn()
        hw = HardwareESN(
            esn,
            backend="gates",
            include_input=True,
            input_quant_width=5,
            rng=np.random.default_rng(0),
        )
        states = rng.integers(-15, 16, size=(3, esn.dim))
        u = rng.integers(-15, 16, size=(3, 1))
        batched = hw.step_batch(states, u)
        for k in range(3):
            assert np.array_equal(batched[k], hw.step(states[k], u[k]))

    def test_bad_batch_shapes_rejected(self, rng):
        esn = self.make_esn()
        hw = HardwareESN(esn, backend="functional", rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            hw.step_batch(np.zeros((2, esn.dim)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            hw.run_batch(np.zeros((2, 3, 2)))
        # A run()-style (steps, 1) array is ambiguous with (batch, steps):
        # run_batch must reject 2-D input rather than silently guess.
        with pytest.raises(ValueError):
            hw.run_batch(np.zeros((100, 1)))
        with pytest.raises(ValueError):
            hw.run_batch(np.zeros((2, 3, 1)), washout=3)
        with pytest.raises(ValueError):
            hw.run_batch(np.zeros((2, 3, 1)), initial_states=np.zeros((1, esn.dim)))


class TestBitPlanePacking:
    @given(
        lanes=st.integers(1, 140),
        inner=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, lanes, inner, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(lanes, inner)).astype(np.int8)
        words = pack_lanes(bits)
        assert words.shape == ((lanes + 63) // 64, inner)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_lanes(words, lanes), bits)

    def test_padding_lanes_are_zero(self):
        bits = np.ones((3, 2), dtype=np.int8)
        words = pack_lanes(bits)
        assert np.array_equal(words, np.full((1, 2), 0b111, dtype=np.uint64))
