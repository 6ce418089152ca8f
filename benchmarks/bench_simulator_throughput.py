"""Measured simulator throughput: object vs vectorized vs bit-plane.

Real wall-clock numbers for cycle-accurate products on a 64x64
CSD-recoded matrix — the evidence behind shipping the gate-level
simulation engines.  Two kinds of measurement:

* the original pytest-benchmark single-product comparison (object
  engine vs vectorized engine);
* a batched comparison at batch = 64 of the seed per-vector loop
  (``engine="scalar"``) and the uint64 bit-plane packing
  (``engine="bitplane"``), whose results are written to
  ``BENCH_simulator_batched.json`` at the repo root.  The bit-plane
  engine must beat the per-vector loop by >= 10x — that is the asserted
  contract, not a hope.

Run the quick batched comparison alone with::

    pytest benchmarks/bench_simulator_throughput.py -k batched
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BATCH = 64


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(7)
    matrix = rng.integers(-128, 128, size=(64, 64))
    matrix[rng.random((64, 64)) < 0.5] = 0
    plan = plan_matrix(matrix, input_width=8, scheme="csd", rng=rng)
    circuit = build_circuit(plan)
    fast = FastCircuit.from_compiled(circuit)
    vector = rng.integers(-128, 128, size=64)
    golden = vector @ matrix
    return circuit, fast, matrix, vector, golden


def test_object_engine_product(benchmark, compiled):
    circuit, __, __, vector, golden = compiled
    result = benchmark(lambda: circuit.multiply(vector))
    assert np.array_equal(result, golden)


def test_vectorized_engine_product(benchmark, compiled):
    __, fast, __, vector, golden = compiled
    result = benchmark(lambda: fast.multiply(vector))
    assert np.array_equal(result, golden)
    # The vectorized engine should complete a 64x64 gate-accurate product
    # in single-digit milliseconds on any modern machine.
    assert benchmark.stats.stats.mean < 0.05


def _best_of(fn, repeats=3):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_engine_comparison(compiled):
    """Scalar loop vs bit-plane at batch=64, recorded to JSON."""
    __, fast, matrix, __, __ = compiled
    rng = np.random.default_rng(11)
    vectors = rng.integers(-128, 128, size=(BATCH, 64))
    golden = vectors @ matrix

    timings = {}
    for engine, repeats in (("scalar", 2), ("bitplane", 5)):
        result = fast.multiply_batch(vectors, engine=engine)  # warm + check
        assert np.array_equal(result, golden), engine
        timings[engine] = _best_of(
            lambda engine=engine: fast.multiply_batch(vectors, engine=engine),
            repeats=repeats,
        )

    speedup_bitplane = timings["scalar"] / timings["bitplane"]
    record = {
        "matrix": "64x64 csd, ~50% element sparsity, s8 inputs",
        "batch": BATCH,
        "engines": (
            "gate-level engines scalar/bitplane measured here; the fused "
            "engine (the cycle-loop-free shift-add schedule) is measured in "
            "BENCH_engine_fused.json"
        ),
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "products_per_second": {
            k: round(BATCH / v, 1) for k, v in timings.items()
        },
        "speedup_vs_scalar_loop": {
            "bitplane": round(speedup_bitplane, 2),
        },
    }
    out_path = REPO_ROOT / "BENCH_simulator_batched.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
    # Acceptance bar: the bit-plane engine amortizes one compiled structure
    # over 64 lanes; anything under 10x the per-vector loop is a regression.
    assert speedup_bitplane >= 10.0
