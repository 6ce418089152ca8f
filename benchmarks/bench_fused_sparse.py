"""The fused executor against the tiers it replaced, across size x sparsity.

``FusedCircuit`` folds a kernel's CSD terms into one coefficient matrix
and runs each batch as a single exact matrix product — a float32 BLAS
GEMM for every point here (8-bit inputs and weights keep
``result_width`` far below the 24-bit mantissa).  It replaced three
executors; the two that mattered are rebuilt inline as baselines:

* the **int64 fold** — ``batch @ M`` on the int64 coefficient matrix,
  which numpy runs in its own loops, not BLAS;
* the **generated tier** — :func:`repro.hwsim.codegen.generate_source`
  plus :func:`~repro.hwsim.codegen.load_execute`, the per-kernel numpy
  module whose work scaled with the nonzero terms.

The sweep covers 64/256/512-wide square matrices at 50/90/95/99%
element sparsity.  Weights are drawn from [-8, 8], the few-terms-per-
nonzero regime the generated tier was built for, so the baselines are
at their strongest.  Every point is checked bit-exact against a golden
integer matmul (and, up to 256 wide, the bit-plane gate oracle), and
the whole curve lands in ``BENCH_fused_sparse.json`` at the repo root.
Floors:

* at 256x256 / 95% the executor clears **5x** the old best tier;
* it is no slower than the old best tier at **every** point;
* a second :class:`~repro.serve.cache.CompileCache` on the same
  directory runs **zero** plan/build/lower/fuse/codegen stages (proved
  against :data:`repro.core.stages.STAGES`).

Run::

    pytest benchmarks/bench_fused_sparse.py
"""

import json
import pathlib
import time

import numpy as np

from repro.core.stages import STAGES
from repro.hwsim import codegen
from repro.hwsim.fused import FusedCircuit
from repro.serve import CompileCache

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BATCH = 64
SIZES = (64, 256, 512)
SPARSITIES = (0.50, 0.90, 0.95, 0.99)
MAGNITUDE = 8
ASSERTED_POINT = "256x256-p95"
REQUIRED_SPEEDUP = 5.0  # at ASSERTED_POINT, against the old best tier
MIN_SPEEDUP = 1.0  # at every point
ORACLE_MAX_SIZE = 256  # the gate-level oracle runs up to this width
STAGE_NAMES = ("plan", "build", "lower", "fuse", "codegen")


def _matrix(size, sparsity):
    rng = np.random.default_rng(size + int(sparsity * 100))
    matrix = rng.integers(-MAGNITUDE, MAGNITUDE + 1, size=(size, size))
    matrix[rng.random((size, size)) < sparsity] = 0
    return matrix


def _best_of(fn, repeats):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_sparse_sweep(tmp_path):
    """Executor vs the replaced tiers across the sweep + the warm store."""
    rows = []
    matrices = []
    cache = CompileCache(directory=tmp_path)
    for size in SIZES:
        for sparsity in SPARSITIES:
            label = f"{size}x{size}-p{round(sparsity * 100)}"
            matrix = _matrix(size, sparsity)
            matrices.append(matrix)
            fast = cache.get(matrix).fast
            fused = fast.fuse()
            circuit = FusedCircuit(fused)
            vectors = np.random.default_rng(size).integers(-128, 128, size=(BATCH, size))
            golden = vectors @ matrix
            if size <= ORACLE_MAX_SIZE:
                assert np.array_equal(
                    fast.multiply_batch(vectors, engine="bitplane"), golden
                )
            # The replaced tiers, rebuilt from the same schedule.
            int64_fold = fused.coefficients().astype(np.int64)
            generated = codegen.load_execute(
                codegen.generate_source(fused), fused.fingerprint
            )
            runs = {
                "fused": lambda: circuit.execute(vectors),
                "int64_fold": lambda: vectors @ int64_fold,
                "generated": lambda: generated(vectors),
            }
            for name, run in runs.items():
                assert np.array_equal(run(), golden), (label, name)
            repeats = 5 if size >= 512 else 15
            seconds = {
                name: _best_of(run, 30 if name == "fused" else repeats)
                for name, run in runs.items()
            }
            old_best = min(("int64_fold", "generated"), key=seconds.get)
            rows.append(
                {
                    "point": label,
                    "shape": f"{size}x{size}",
                    "element_sparsity": sparsity,
                    "terms": int(fused.terms),
                    "result_width": fused.result_width,
                    "variant": circuit.variant,
                    "spare_bits": circuit.spare_bits,
                    "seconds": {k: round(v, 6) for k, v in seconds.items()},
                    "products_per_second": {
                        k: round(BATCH / v, 1) for k, v in seconds.items()
                    },
                    "old_best_tier": old_best,
                    "speedup_vs_old_best": round(seconds[old_best] / seconds["fused"], 2),
                }
            )

    # Warm store: a fresh cache re-serves every point from artifacts
    # alone — zero pipeline stages.
    before = STAGES.snapshot()
    warm = CompileCache(directory=tmp_path)
    for matrix in matrices:
        warm.get(matrix)
    delta = STAGES.delta(before)
    assert warm.kernel_hits == warm.fused_hits == len(matrices)
    for stage in STAGE_NAMES:
        assert delta.get(stage, 0) == 0, (stage, delta)

    record = {
        "batch": BATCH,
        "weight_magnitude": MAGNITUDE,
        "executor": "CSD terms folded once to a (rows, cols) matrix; one "
        "batch @ M per batch in the dtype result_width selects",
        "baselines": {
            "int64_fold": "the same fold as int64, batch @ M (numpy loops, no BLAS)",
            "generated": "codegen.generate_source + load_execute, "
            "fixed-width reshape-sum groups",
        },
        "sweep": rows,
        "asserted_point": ASSERTED_POINT,
        "required_speedup": REQUIRED_SPEEDUP,
        "min_speedup": MIN_SPEEDUP,
        "warm_store": {
            "stage_delta": {k: delta.get(k, 0) for k in STAGE_NAMES},
            "codegen_hits": warm.stats()["codegen_hits"],
        },
    }
    (REPO_ROOT / "BENCH_fused_sparse.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print()
    print(json.dumps(record, indent=2))

    by_point = {r["point"]: r for r in rows}
    assert by_point[ASSERTED_POINT]["speedup_vs_old_best"] >= REQUIRED_SPEEDUP, (
        by_point[ASSERTED_POINT]
    )
    for row in rows:
        assert row["speedup_vs_old_best"] >= MIN_SPEEDUP, row
