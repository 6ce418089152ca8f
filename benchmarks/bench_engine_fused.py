"""Measured fused-engine throughput against the gate-level engines.

The fused engine is the ``fuse`` stage's reason to exist: the compiled
structure *is* a static CSD shift-add schedule, so executing the
schedule directly (no cycle loop, no per-cycle allocation) should beat
even the bit-plane gate engine by an order of magnitude while staying
bit-exact.  This benchmark measures the fused and bit-plane engines on
the 64x64 CSD reference matrix (the same design point as
``bench_simulator_throughput.py``) at batch = 64 and writes the record
to ``BENCH_engine_fused.json`` at the repo root.

The asserted contract, not a hope: **fused >= 5x bitplane** products/s
at batch 64 (typically >= 15x), with results identical across engines.

Run::

    pytest benchmarks/bench_engine_fused.py
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.core.stages import STAGES
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BATCH = 64
REQUIRED_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(7)
    matrix = rng.integers(-128, 128, size=(64, 64))
    matrix[rng.random((64, 64)) < 0.5] = 0
    plan = plan_matrix(matrix, input_width=8, scheme="csd", rng=rng)
    fast = FastCircuit.from_compiled(build_circuit(plan))
    return fast, matrix


def _best_of(fn, repeats):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_engine_comparison(compiled):
    """Bit-plane vs fused at batch=64, recorded to JSON."""
    fast, matrix = compiled
    rng = np.random.default_rng(11)
    vectors = rng.integers(-128, 128, size=(BATCH, 64))
    golden = vectors @ matrix

    before = STAGES.snapshot()
    fused_kernel = fast.fuse()
    fuse_delta = STAGES.delta(before)
    assert fuse_delta.get("fuse") == 1

    timings = {}
    for engine, repeats in (("bitplane", 5), ("fused", 20)):
        result = fast.multiply_batch(vectors, engine=engine)  # warm + check
        assert np.array_equal(result, golden), engine
        timings[engine] = _best_of(
            lambda engine=engine: fast.multiply_batch(vectors, engine=engine),
            repeats=repeats,
        )

    speedup_vs_bitplane = timings["bitplane"] / timings["fused"]
    record = {
        "matrix": "64x64 csd, ~50% element sparsity, s8 inputs",
        "batch": BATCH,
        "engines": {
            "bitplane": "64 uint64-packed lanes per word, one cycle loop",
            "fused": "static CSD shift-add schedule, no cycle loop",
        },
        "fused_terms": int(fused_kernel.terms),
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "products_per_second": {
            k: round(BATCH / v, 1) for k, v in timings.items()
        },
        "fused_speedup_vs_bitplane": round(speedup_vs_bitplane, 2),
        "required_speedup_vs_bitplane": REQUIRED_SPEEDUP,
    }
    out_path = REPO_ROOT / "BENCH_engine_fused.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
    # Acceptance bar: dropping the cycle loop must be worth >= 5x over
    # the fastest gate-level engine at the reference design point.
    assert speedup_vs_bitplane >= REQUIRED_SPEEDUP
