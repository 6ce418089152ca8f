"""Property tests at the edges of the fused fold's exactness bound.

``FusedCircuit`` runs a kernel in float32 up to ``result_width`` 24,
float64 up to 53, int64 up to 62 and exact Python integers above.  The
proof (see its docstring) bounds every partial sum by
``S = 2**(w-1) * max_j sum_i |V_ij| <= 2**result_width``.  These tests
build kernels whose planned width is exactly 24/25, 53/54 and 62/63,
drive them with the inputs that reach ``S`` — each ``a_i`` at its min
or max, chosen by the sign of ``V_ij`` — and compare every product with
``gemm_exact``.  A kernel that declares a narrower width than its fold
must be refused, never run inexactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import gemm_exact
from repro.core.bits import signed_range
from repro.core.plan import plan_matrix
from repro.hwsim.fused import FusedCircuit, FusedKernel, csd_terms

#: (result_width, compute dtype, the dtype's exact bits).
EDGES = [
    (24, "float32", 24),
    (25, "float64", 53),
    (53, "float64", 53),
    (54, "int64", 62),
    (62, "int64", 62),
    (63, "object", None),
]
BATCHES = [0, 1, 64, 65]


def _kernel(matrix: np.ndarray, input_width: int, result_width: int) -> FusedKernel:
    """The CSD schedule of ``matrix`` declaring ``result_width``."""
    terms = [
        (j, i, shift, sign)
        for j in range(matrix.shape[1])
        for i in range(matrix.shape[0])
        for shift, sign in csd_terms(int(matrix[i, j]))
    ]
    fields = list(zip(*terms)) or [()] * 4
    out, row, shift, sign = (np.array(f, dtype=np.int64) for f in fields)
    return FusedKernel(
        fingerprint="e" * 64,
        rows=matrix.shape[0],
        cols=matrix.shape[1],
        input_width=input_width,
        result_width=result_width,
        term_out=out,
        term_row=row,
        term_shift=shift,
        term_sign=sign,
    )


def _split(total: int, weights: list[int]) -> list[int]:
    """``total`` as ``len(weights)`` non-negative parts in proportion."""
    parts = [total * w // sum(weights) for w in weights]
    parts[-1] += total - sum(parts)
    return parts


@st.composite
def edge_cases(draw):
    """A matrix whose planned result width is exactly an edge width."""
    width, dtype, bits = draw(st.sampled_from(EDGES))
    input_width = draw(st.integers(1, 16))
    rows = draw(st.integers(2, 6))
    mixed = draw(st.booleans())
    weights = draw(st.lists(st.integers(1, 50), min_size=rows, max_size=rows))
    edge = np.zeros(rows, dtype=np.int64)
    if mixed:
        # p_j = n_j = P: hi = (2**w - 1) P, the largest P within width.
        total = ((1 << (width - 1)) - 1) // ((1 << input_width) - 1)
        cut = draw(st.integers(1, rows - 1))
        edge[:cut] = _split(total, weights[:cut])
        edge[cut:] = [-v for v in _split(total, weights[cut:])]
    else:
        # Non-negative column: lo = -2**(w-1) * p reaches -2**(width-1).
        edge[:] = _split(1 << (width - input_width), weights)
    fillers = draw(st.integers(0, 3))
    columns = [edge]
    for _ in range(fillers):
        columns.append(
            np.array(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)))
        )
    if draw(st.booleans()):
        columns.append(np.zeros(rows, dtype=np.int64))  # an empty column
    order = draw(st.permutations(range(len(columns))))
    matrix = np.stack([columns[k] for k in order], axis=1).astype(np.int64)
    batch = draw(st.sampled_from(BATCHES))
    seed = draw(st.integers(0, 2**16))
    return width, dtype, bits, input_width, matrix, batch, seed


def _extreme_batch(matrix, input_width, batch, seed):
    """``batch`` vectors led by the ones that reach each column's
    extremes: ``a_i`` at its max where ``V_ij > 0`` and at its min where
    ``V_ij < 0`` (and the reverse), then random fill."""
    lo, hi = signed_range(input_width)
    extremes = []
    for j in np.argsort(-np.abs(matrix).sum(axis=0), kind="stable"):
        column = matrix[:, j]
        extremes.append(np.where(column < 0, hi, lo))  # most negative o_j
        extremes.append(np.where(column < 0, lo, hi))  # most positive o_j
    rng = np.random.default_rng(seed)
    fill = rng.integers(lo, hi + 1, size=(max(batch - len(extremes), 0), matrix.shape[0]))
    vectors = np.concatenate([np.array(extremes), fill])[:batch]
    return vectors.reshape(batch, matrix.shape[0]).astype(np.int64)


class TestBoundEdges:
    @settings(max_examples=150, deadline=None)
    @given(edge_cases())
    def test_edge_widths_are_exact(self, case):
        width, dtype, bits, input_width, matrix, batch, seed = case
        plan = plan_matrix(matrix, input_width=input_width, scheme="pn")
        assert plan.result_width == width
        circuit = FusedCircuit(_kernel(matrix, input_width, width))
        assert circuit.variant == dtype
        # The proof's bound holds on the actual fold ...
        assert circuit.bound <= 1 << width
        # ... and is tight: the width rule wastes at most one bit.
        if bits is None:
            assert circuit.spare_bits is None
        else:
            assert bits - width <= circuit.spare_bits <= bits - width + 1
        vectors = _extreme_batch(matrix, input_width, batch, seed)
        out = circuit.multiply_batch(vectors)
        assert out.shape == (batch, matrix.shape[1])
        assert np.array_equal(out, gemm_exact(matrix, vectors))

    @settings(max_examples=100, deadline=None)
    @given(edge_cases())
    def test_understated_width_is_refused_or_exact(self, case):
        """Declaring one bit less than planned either still fits the
        dtype's exact range (the check runs on the fold, not the label)
        or is refused at construction."""
        width, _, _, input_width, matrix, batch, seed = case
        kernel = _kernel(matrix, input_width, width - 1)
        bits = {"float32": 24, "float64": 53, "int64": 62}
        declared = next((b for b in bits.values() if width - 1 <= b), None)
        bound = int(np.abs(matrix).sum(axis=0).max()) << (input_width - 1)
        if declared is not None and bound > 1 << declared:
            with pytest.raises(ValueError, match="exact range"):
                FusedCircuit(kernel)
            return
        vectors = _extreme_batch(matrix, input_width, batch, seed)
        assert np.array_equal(
            FusedCircuit(kernel).multiply_batch(vectors), gemm_exact(matrix, vectors)
        )


@pytest.mark.parametrize("width", [24, 25, 53, 54, 62, 63])
@pytest.mark.parametrize("batch", BATCHES)
def test_zero_term_kernel_at_every_edge(width, batch):
    matrix = np.zeros((5, 3), dtype=np.int64)
    circuit = FusedCircuit(_kernel(matrix, 8, width))
    assert circuit.kernel.terms == 0 and circuit.bound == 0
    vectors = _extreme_batch(matrix, 8, batch, 0)
    assert np.array_equal(circuit.multiply_batch(vectors), gemm_exact(matrix, vectors))
