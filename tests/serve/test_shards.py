"""ShardedMultiplier: bit-exactness vs the monolithic circuit.

The load-bearing property of the serve layer: splitting a matrix into
column shards and simulating them concurrently must be *bit-exact* with
compiling and simulating the whole matrix at once — across sparsities,
input widths, both recoding schemes, every shard count, and with faults
injected into individual shard netlists.
"""

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.core.tiling import plan_column_tiles
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit
from repro.hwsim.faults import inject_stuck_output
from repro.serve.cache import CompileCache
from repro.serve.shards import ShardedMultiplier, even_column_shards


def _workload(sparsity, input_width, seed=0, rows=20, cols=18, batch=7):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-100, 101, size=(rows, cols))
    matrix[rng.random((rows, cols)) < sparsity] = 0
    lo = -(1 << (input_width - 1))
    hi = (1 << (input_width - 1)) - 1
    vectors = rng.integers(lo, hi + 1, size=(batch, rows))
    return matrix, vectors


class TestEvenColumnShards:
    def test_covers_and_balances(self):
        ranges = even_column_shards(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert ranges[0][0] == 0 and ranges[-1][1] == 10

    def test_single_shard(self):
        assert even_column_shards(5, 1) == [(0, 5)]

    def test_one_column_per_shard(self):
        assert even_column_shards(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            even_column_shards(4, 5)
        with pytest.raises(ValueError):
            even_column_shards(4, 0)


class TestShardedBitExactness:
    """The property sweep: sharded output == monolithic FastCircuit output."""

    @pytest.mark.parametrize("sparsity", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("input_width", [4, 8])
    @pytest.mark.parametrize("scheme", ["pn", "csd"])
    def test_sweep_vs_monolith(self, sparsity, input_width, scheme):
        matrix, vectors = _workload(sparsity, input_width, seed=int(sparsity * 100))
        mono = FastCircuit.from_compiled(
            build_circuit(plan_matrix(matrix, input_width=input_width, scheme=scheme))
        )
        golden = mono.multiply_batch(vectors)
        assert np.array_equal(golden, vectors @ matrix)
        for shards in (2, 3, 5):
            with ShardedMultiplier(
                matrix, shards=shards, input_width=input_width, scheme=scheme
            ) as sharded:
                assert sharded.shard_count == shards
                out = sharded.multiply_batch(vectors)
            assert np.array_equal(out, golden), (sparsity, input_width, scheme, shards)

    def test_single_vector_and_single_shard(self):
        matrix, vectors = _workload(0.8, 8)
        sharded = ShardedMultiplier(matrix, shards=1, input_width=8, scheme="csd")
        assert sharded.shard_count == 1
        assert np.array_equal(sharded.multiply(vectors[0]), vectors[0] @ matrix)

    def test_lut_budget_partitioning_matches_tiling_plan(self):
        matrix, vectors = _workload(0.6, 8, rows=16, cols=24)
        budget = 600
        sharded = ShardedMultiplier(
            matrix, lut_budget=budget, input_width=8, scheme="csd"
        )
        assert sharded.shard_ranges == plan_column_tiles(matrix, budget, scheme="csd")
        assert sharded.shard_count >= 2
        assert np.array_equal(sharded.multiply_batch(vectors), vectors @ matrix)
        sharded.close()

    def test_shards_through_cache_are_reused(self):
        matrix, vectors = _workload(0.8, 8)
        cache = CompileCache()
        a = ShardedMultiplier(matrix, shards=3, cache=cache)
        b = ShardedMultiplier(matrix, shards=3, cache=cache)
        assert cache.hits == 3 and cache.misses == 3
        # Same compiled plan, hence same digest, per shard.
        for sa, sb in zip(a.shards, b.shards):
            assert sa.digest == sb.digest
        assert np.array_equal(b.multiply_batch(vectors), vectors @ matrix)
        a.close()
        b.close()

    def test_rejects_conflicting_partition_args(self):
        matrix, _ = _workload(0.8, 8)
        with pytest.raises(ValueError, match="not both"):
            ShardedMultiplier(matrix, shards=2, lut_budget=5000)

    def test_rejects_unknown_backend(self):
        matrix, _ = _workload(0.8, 8)
        for backend in ("fpga", "process"):
            with pytest.raises(ValueError, match="backend"):
                ShardedMultiplier(matrix, shards=2, backend=backend)

    def test_empty_batch_shape(self):
        matrix, _ = _workload(0.8, 8)
        with ShardedMultiplier(matrix, shards=2) as sharded:
            out = sharded.multiply_batch(
                np.zeros((0, matrix.shape[0]), dtype=np.int64)
            )
        assert out.shape == (0, matrix.shape[1])

    def test_rejects_wrong_vector_length(self):
        matrix, _ = _workload(0.8, 8)
        sharded = ShardedMultiplier(matrix, shards=2)
        with pytest.raises(ValueError, match="shape"):
            sharded.multiply_batch(np.zeros((3, matrix.shape[0] + 1), dtype=np.int64))
        sharded.close()

    def test_rejects_out_of_range_inputs(self):
        matrix, _ = _workload(0.8, 4)
        sharded = ShardedMultiplier(matrix, shards=2, input_width=4)
        with pytest.raises(ValueError, match="does not fit"):
            sharded.multiply(np.full(matrix.shape[0], 100))
        sharded.close()

    def test_utilization_accounting(self):
        matrix, vectors = _workload(0.8, 8)
        sharded = ShardedMultiplier(matrix, shards=2)
        sharded.multiply_batch(vectors)
        util = sharded.utilization()
        assert util["shards"] == 2
        assert util["backend"] == "thread"
        assert [u["calls"] for u in util["per_shard"]] == [1, 1]
        assert all(u["busy_s"] > 0 for u in util["per_shard"])
        sharded.close()


class TestShardedFaults:
    """Netlist faults injected on one shard stay confined to its columns."""

    @pytest.mark.parametrize("scheme", ["pn", "csd"])
    def test_fault_on_one_shard_is_column_confined(self, scheme):
        matrix, vectors = _workload(0.5, 8, seed=3)
        golden = vectors @ matrix
        sharded = ShardedMultiplier(matrix, shards=3, input_width=8, scheme=scheme)
        victim = sharded.shards[1]
        # Stick the victim shard's first output probe high: its decoded
        # column reads as the all-ones stream while every other shard
        # keeps producing exact results.
        fault = inject_stuck_output(
            victim.fast.netlist, victim.circuit.column_probes[0].src, 1
        )
        faulty = sharded.multiply_batch(vectors)
        start, stop = victim.start, victim.stop
        assert np.array_equal(faulty[:, :start], golden[:, :start])
        assert np.array_equal(faulty[:, stop:], golden[:, stop:])
        # The faulty shard's slice matches the same shard simulated alone
        # (sharding changes *where* the fault lands, never its semantics),
        # and the stuck-high probe decodes to the all-ones value -1.
        standalone = victim.fast.multiply_batch(vectors)
        assert np.array_equal(faulty[:, start:stop], standalone)
        assert np.all(faulty[:, start] == -1)
        assert not np.array_equal(faulty[:, start:stop], golden[:, start:stop])
        # Reverting restores full bit-exactness.
        fault.revert()
        assert np.array_equal(sharded.multiply_batch(vectors), golden)
        sharded.close()
