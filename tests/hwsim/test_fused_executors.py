"""The fused engine's one executor: an exact fold run as one matrix product.

``FusedCircuit`` folds the CSD terms into the ``(rows, cols)``
coefficient matrix once and runs every batch as one product in the
dtype the kernel's ``result_width`` selects — float32, float64, int64
or exact Python integers.  The load-bearing property is bit-exactness
with the bit-plane gate oracle and a golden integer matmul across the
design space the original cross-engine sweep covers (sparsity, input
width, recoding scheme, signed edges, word-boundary batches, degenerate
schedules), in every dtype tier.  The dtype rule is pure policy on
scalars, tested directly.  :mod:`repro.hwsim.codegen` is off the
serving path but still imported by the repo benchmark, so its
determinism and loader contract stay tested here.
"""

import numpy as np
import pytest

from repro.core.bits import signed_range
from repro.core.plan import plan_matrix
from repro.core.stages import STAGES
from repro.hwsim import codegen
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit, lower
from repro.hwsim.fused import (
    FusedCircuit,
    FusedKernel,
    fuse,
    segment_prefixes,
    select_variant,
    term_density,
)


def _compiled(matrix, input_width=8, scheme="csd"):
    plan = plan_matrix(matrix, input_width=input_width, scheme=scheme)
    return build_circuit(plan)


def _matrix(rng, shape, sparsity, magnitude=100):
    matrix = rng.integers(-magnitude, magnitude + 1, size=shape)
    matrix[rng.random(shape) < sparsity] = 0
    return matrix


def _fused(matrix, input_width=8, scheme="csd"):
    return fuse(lower(_compiled(matrix, input_width=input_width, scheme=scheme)))


def _with_width(fused, result_width):
    """The same schedule declaring another ``result_width``."""
    arrays = {name: getattr(fused, name) for name in FusedKernel.ARRAY_FIELDS}
    return FusedKernel(
        fingerprint=fused.fingerprint,
        rows=fused.rows,
        cols=fused.cols,
        input_width=fused.input_width,
        result_width=result_width,
        **arrays,
    )


#: One declared width per dtype tier.
TIER_WIDTHS = {"float32": 20, "float64": 40, "int64": 60, "object": 70}


class TestCrossExecutorEquivalence:
    """fused == bitplane == golden, in every dtype tier."""

    @pytest.mark.parametrize("scheme", ["csd", "pn"])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("input_width", [4, 8])
    def test_property_sweep(self, scheme, sparsity, input_width):
        rng = np.random.default_rng(int(sparsity * 100) + input_width)
        matrix = _matrix(rng, (12, 10), sparsity)
        fast = FastCircuit.from_compiled(
            _compiled(matrix, input_width=input_width, scheme=scheme)
        )
        fused = fast.fuse()
        lo, hi = signed_range(input_width)
        vectors = rng.integers(lo, hi + 1, size=(7, 12))
        # Signed edges: most negative/positive representable inputs.
        vectors[0, :] = lo
        vectors[1, :] = hi
        vectors[2, ::2] = lo
        vectors[2, 1::2] = hi
        golden = vectors @ matrix
        oracle = fast.multiply_batch(vectors, engine="bitplane")
        assert np.array_equal(oracle, golden)
        circuit = FusedCircuit(fused)
        assert circuit.variant == "float32"  # s4/s8 x s8 fits the mantissa
        assert np.array_equal(circuit.multiply_batch(vectors), golden)
        for variant, width in TIER_WIDTHS.items():
            wider = FusedCircuit(_with_width(fused, width))
            assert wider.variant == variant
            assert np.array_equal(wider.multiply_batch(vectors), golden), variant

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
    def test_batch_sizes_span_word_boundaries(self, batch):
        rng = np.random.default_rng(batch)
        matrix = _matrix(rng, (16, 9), 0.5)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        vectors = rng.integers(-128, 128, size=(batch, 16))
        golden = vectors @ matrix
        assert np.array_equal(
            fast.multiply_batch(vectors, engine="bitplane"), golden
        )
        out = FusedCircuit(fast.fuse()).multiply_batch(vectors)
        assert out.dtype == np.int64 and np.array_equal(out, golden)

    def test_empty_batch_on_every_variant(self):
        rng = np.random.default_rng(7)
        fused = _fused(_matrix(rng, (8, 6), 0.5))
        for variant, width in TIER_WIDTHS.items():
            out = FusedCircuit(_with_width(fused, width)).multiply_batch(
                np.zeros((0, 8))
            )
            expected = object if variant == "object" else np.int64
            assert out.shape == (0, 6) and out.dtype == expected, variant

    def test_zero_term_kernel_on_every_variant(self):
        """All-zero matrix → zero-term schedule → zero outputs, every tier."""
        rng = np.random.default_rng(8)
        fused = _fused(np.zeros((4, 3), dtype=int))
        assert fused.terms == 0
        vectors = rng.integers(-5, 5, size=(3, 4))
        for variant, width in TIER_WIDTHS.items():
            circuit = FusedCircuit(_with_width(fused, width))
            assert circuit.bound == 0
            out = circuit.multiply_batch(vectors)
            assert np.array_equal(out, np.zeros((3, 3), dtype=np.int64)), variant

    def test_single_term_kernel_hits_the_gather_scale_specialization(self):
        """Power-of-two entries: one CSD term per populated output.  The
        fold runs it like any other schedule; codegen (kept for the repo
        benchmark) still collapses it to a gather-scale with no
        reduction."""
        matrix = np.zeros((5, 4), dtype=int)
        matrix[1, 0] = 4
        matrix[3, 2] = -8
        fused = _fused(matrix)
        starts, _ = segment_prefixes(fused.term_out)
        assert fused.terms == len(starts) == 2
        source = codegen.generate_source(fused)
        assert "reduceat" not in source and ".sum(" not in source
        rng = np.random.default_rng(9)
        vectors = rng.integers(-128, 128, size=(6, 5))
        golden = vectors @ matrix
        assert np.array_equal(FusedCircuit(fused).multiply_batch(vectors), golden)
        generated = codegen.load_execute(source, fused.fingerprint)
        assert np.array_equal(generated(vectors), golden)

    def test_wide_kernels_run_object_dtype(self):
        """>62-bit accumulations: object dtype, exact Python integers."""
        rng = np.random.default_rng(11)
        matrix = rng.integers(-(2**20), 2**20, size=(40, 5))
        plan = plan_matrix(matrix, input_width=40, scheme="csd")
        assert plan.result_width > 62
        fused = fuse(lower(build_circuit(plan)))
        circuit = FusedCircuit(fused)
        assert circuit.variant == "object" and circuit.spare_bits is None
        vectors = rng.integers(-(2**39), 2**39, size=(4, 40))
        out = circuit.multiply_batch(vectors)
        assert out.dtype == object
        golden = [
            sum(int(vectors[b, r]) * int(matrix[r, j]) for r in range(40))
            for b in range(4)
            for j in range(5)
        ]
        assert [int(x) for x in out.ravel()] == golden
        # Codegen still refuses rather than overflow int64 silently.
        with pytest.raises(ValueError, match="62"):
            codegen.generate_source(fused)


class TestSegmentPrefixes:
    def test_empty_schedule_yields_empty_boundaries(self):
        starts, segment_out = segment_prefixes(np.array([], dtype=np.int64))
        assert starts.shape == (0,) and starts.dtype == np.int64
        assert segment_out.shape == (0,) and segment_out.dtype == np.int64

    def test_boundaries_match_sorted_runs(self):
        starts, segment_out = segment_prefixes(np.array([0, 0, 2, 2, 2, 5]))
        assert starts.tolist() == [0, 2, 5]
        assert segment_out.tolist() == [0, 2, 5]

    def test_single_run(self):
        starts, segment_out = segment_prefixes(np.array([3, 3, 3]))
        assert starts.tolist() == [0] and segment_out.tolist() == [3]


class TestSelectorPolicy:
    def test_wide_kernels_always_run_object(self):
        assert select_variant(0, 4, 4, 63) == "object"
        assert select_variant(10**6, 100, 100, 80) == "object"

    def test_sparse_schedules_take_the_same_fold(self):
        """Density no longer picks an executor: a sparse schedule runs the
        same GEMM as a dense one of the same width."""
        assert select_variant(10, 10, 10, 20) == "float32"
        assert select_variant(0, 10, 10, 20) == "float32"

    def test_dense_schedules_keep_the_blas_fold(self):
        assert select_variant(100, 10, 10, 20) == "float32"
        assert select_variant(100, 10, 10, 40) == "float64"

    def test_dtype_boundaries_follow_the_exact_integer_ranges(self):
        assert [select_variant(1, 1, 1, w) for w in (24, 25, 53, 54, 62, 63)] == [
            "float32",
            "float64",
            "float64",
            "int64",
            "int64",
            "object",
        ]

    def test_density_of_an_empty_matrix_is_zero(self):
        assert term_density(0, 0, 5) == 0.0
        assert term_density(0, 5, 0) == 0.0

    def test_auto_variant_matches_the_selector(self):
        rng = np.random.default_rng(21)
        dense = _fused(_matrix(rng, (10, 8), 0.0))
        sparse = _fused(_matrix(rng, (16, 12), 0.95, magnitude=8))
        for fused in (dense, sparse):
            expected = select_variant(
                fused.terms, fused.rows, fused.cols, fused.result_width
            )
            assert FusedCircuit(fused).variant == expected

    def test_unknown_variant_is_rejected(self):
        """The executor takes only the kernel: no tier can be forced."""
        fused = _fused(np.eye(3, dtype=int))
        with pytest.raises(TypeError):
            FusedCircuit(fused, variant="quantum")


class TestExactnessBound:
    def test_bound_is_the_worst_column_at_the_widest_input(self):
        matrix = np.array([[3, -1], [-5, 0], [2, 7]])
        circuit = FusedCircuit(_fused(matrix, input_width=8))
        # 2**7 * max(|3|+|-5|+|2|, |-1|+|7|) = 128 * 10.
        assert circuit.bound == 1280
        # float32 holds 24 bits; 1280 needs ceil(log2 1280) = 11.
        assert circuit.spare_bits == 24 - 11

    def test_spare_bits_count_from_each_dtype(self):
        fused = _fused(np.array([[1, 0], [0, 1]]), input_width=8)
        bits = {v: FusedCircuit(_with_width(fused, w)).spare_bits for v, w in TIER_WIDTHS.items()}
        # S = 2**7, so each dtype keeps its exact bits minus 7.
        assert bits == {"float32": 17, "float64": 46, "int64": 55, "object": None}

    def test_fold_wider_than_the_declared_width_is_refused(self):
        """An artifact whose terms outgrow its declared result_width
        cannot run in the dtype that width picks: refused at
        construction, never executed inexactly."""
        matrix = np.array([[1 << 20], [1 << 20]])
        fused = _fused(matrix, input_width=8)
        assert FusedCircuit(fused).variant == "float64"  # honest width: 29
        lying = _with_width(fused, 20)  # claims float32
        with pytest.raises(ValueError, match="result_width 20"):
            FusedCircuit(lying)

    def test_overflowing_terms_are_folded_exactly_before_the_check(self):
        """Terms whose int64 fold would wrap are summed as Python
        integers, so the bound cannot be fooled by overflow."""
        fused = FusedKernel(
            fingerprint="f" * 64,
            rows=1,
            cols=1,
            input_width=2,
            result_width=20,
            term_out=np.zeros(4, dtype=np.int64),
            term_row=np.zeros(4, dtype=np.int64),
            term_shift=np.full(4, 62, dtype=np.int64),
            term_sign=np.ones(4, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="exact range"):
            FusedCircuit(fused)


class TestCodegen:
    def test_generation_is_deterministic(self):
        """Same kernel → byte-identical source, across fuse runs too."""
        rng = np.random.default_rng(31)
        matrix = _matrix(rng, (14, 11), 0.8)
        first = _fused(matrix)
        second = _fused(matrix)
        assert codegen.generate_source(first) == codegen.generate_source(second)

    def test_generation_counts_the_codegen_stage(self):
        fused = _fused(np.eye(4, dtype=int) * 3)
        before = STAGES.snapshot()
        source = codegen.generate_source(fused)
        assert STAGES.delta(before).get("codegen") == 1
        # Loading generated source is stage-free.
        codegen.load_execute(source, fused.fingerprint)
        assert STAGES.delta(before).get("codegen") == 1

    def test_header_round_trips(self):
        fused = _fused(np.eye(4, dtype=int) * 5)
        header = codegen.source_header(codegen.generate_source(fused))
        assert header["kind"] == codegen.CODEGEN_KIND
        assert header["format_version"] == codegen.CODEGEN_FORMAT_VERSION
        assert header["fingerprint"] == fused.fingerprint
        assert header["rows"] == 4 and header["cols"] == 4
        assert header["terms"] == fused.terms

    def test_loader_refuses_wrong_kind_version_and_fingerprint(self):
        fused = _fused(np.eye(3, dtype=int) * 7)
        source = codegen.generate_source(fused)
        with pytest.raises(ValueError, match="kind"):
            codegen.load_execute("# not-codegen\n", fused.fingerprint)
        bumped = source.replace(
            "# format_version=1", "# format_version=999", 1
        )
        with pytest.raises(ValueError, match="version"):
            codegen.load_execute(bumped, fused.fingerprint)
        with pytest.raises(ValueError, match="fingerprint"):
            codegen.load_execute(source, "deadbeef")

    def test_loader_refuses_source_without_execute(self):
        fused = _fused(np.eye(3, dtype=int) * 7)
        source = codegen.generate_source(fused)
        header_only = "\n".join(
            line for line in source.splitlines() if line.startswith("#")
        ) + "\n"
        with pytest.raises(ValueError, match="execute"):
            codegen.load_execute(header_only, fused.fingerprint)

    def test_precompiled_source_skips_regeneration(self):
        """Loading generated source must not re-enter the codegen stage,
        and the loaded module agrees with the fused executor."""
        matrix = np.eye(4, dtype=int) * 9
        fused = _fused(matrix)
        source = codegen.generate_source(fused)
        before = STAGES.snapshot()
        execute = codegen.load_execute(source, fused.fingerprint)
        assert STAGES.delta(before).get("codegen", 0) == 0
        vectors = np.arange(8).reshape(2, 4)
        assert np.array_equal(execute(vectors), vectors @ matrix)
        assert np.array_equal(FusedCircuit(fused).multiply_batch(vectors), vectors @ matrix)


class TestFastCircuitVariantSurface:
    def test_fused_variant_forces_and_reports(self):
        rng = np.random.default_rng(41)
        fast = FastCircuit.from_compiled(_compiled(_matrix(rng, (12, 9), 0.4)))
        assert fast.built_fused is None  # lazy until first use
        variant = fast.fused_variant
        assert variant == "float32"
        assert fast.built_fused.variant == variant

    def test_execution_resolves_the_variant(self):
        rng = np.random.default_rng(42)
        matrix = _matrix(rng, (12, 9), 0.4)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        vectors = rng.integers(-128, 128, size=(3, 12))
        fast.multiply_batch(vectors, engine="fused")
        assert fast.built_fused.variant in FusedCircuit.VARIANTS
        assert fast.built_fused.spare_bits >= 0
