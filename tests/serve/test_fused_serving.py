"""Serving on the fused engine: auto-selection, fallback, warm starts.

The serve layer's contract for the cycle-loop-free engine:

* fault-free deployments resolve ``engine="auto"`` to ``"fused"`` and
  record that per batch in telemetry;
* the moment a deployment has live faults it transparently falls back
  to the bit-plane gate engine — bit-exact with a live-fault gate-level
  simulation — and flips back when the faults are reverted;
* a warm artifact store makes a ``use_cache=True`` deploy perform
  **zero** plan/build/lower/fuse stage executions (proved against
  :data:`repro.core.stages.STAGES`, not timings);
* a deployment mixing <=62-bit and >62-bit shards returns one exact
  object-dtype result.
"""

import asyncio

import numpy as np
import pytest

from repro.core.stages import STAGES
from repro.hwsim.faults import inject_stuck_output
from repro.serve import CompileCache, MatMulService
from repro.serve.shards import SERVE_ENGINES, ShardedMultiplier


def _matrix(seed=0, shape=(16, 12)):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-100, 101, size=shape)
    matrix[rng.random(shape) < 0.6] = 0
    return matrix


class TestAutoSelection:
    def test_fault_free_deployment_serves_fused(self):
        matrix = _matrix()
        with MatMulService() as service:
            handle = service.deploy(matrix, shards=2)
            assert handle.engine == "auto"
            vectors = np.random.default_rng(1).integers(-128, 128, size=(5, 16))
            assert np.array_equal(service.multiply(handle, vectors), vectors @ matrix)
            snap = service.telemetry(handle)
            assert snap["engine"]["configured"] == "auto"
            assert snap["engine"]["effective"] == "fused:dense"
            assert snap["engine"]["batches"] == {"fused:dense": 1}

    def test_micro_batched_path_records_fused(self):
        matrix = _matrix(2)
        with MatMulService() as service:
            handle = service.deploy(matrix)
            vectors = np.random.default_rng(3).integers(-128, 128, size=(6, 16))
            result = asyncio.run(service.submit_many(handle, vectors))
            assert np.array_equal(result, vectors @ matrix)
            assert (
                service.telemetry(handle)["engine"]["effective"] == "fused:dense"
            )

    def test_explicit_engine_pin_overrides_auto(self):
        matrix = _matrix(4)
        with MatMulService() as service:
            handle = service.deploy(matrix, engine="bitplane")
            vectors = np.random.default_rng(5).integers(-128, 128, size=(4, 16))
            assert np.array_equal(service.multiply(handle, vectors), vectors @ matrix)
            snap = service.telemetry(handle)
            assert snap["engine"]["configured"] == "bitplane"
            assert snap["engine"]["batches"] == {"bitplane": 1}

    def test_rejects_unknown_engines(self):
        with MatMulService() as service:
            with pytest.raises(ValueError, match="engine"):
                service.deploy(_matrix(6), engine="quantum")
        with pytest.raises(ValueError, match="engine"):
            MatMulService(engine="quantum")

    def test_served_esn_rollout_records_fused(self):
        from repro.reservoir import (
            quantize_esn,
            random_input_weights,
            random_reservoir,
        )

        rng = np.random.default_rng(7)
        w = random_reservoir(14, element_sparsity=0.8, rng=rng)
        w_in = random_input_weights(14, 1, scale=1.0, rng=rng)
        esn = quantize_esn(w, w_in, weight_width=6, state_width=8)
        with MatMulService() as service:
            handle = service.deploy_esn(esn, shards=2)
            inputs = rng.integers(-100, 101, size=(20, 1))
            states = service.run_stream(handle, inputs)
            assert states.shape == (20, 14)
            effective = service.telemetry(handle)["engine"]["effective"]
            assert effective.startswith("fused:")


class TestFaultFallback:
    def test_faulted_deployment_selects_bitplane_and_matches_gate_sim(self):
        matrix = _matrix(8)
        with MatMulService() as service:
            # use_cache=False: fault injection needs live shard netlists.
            handle = service.deploy(matrix, shards=2, use_cache=False)
            vectors = np.random.default_rng(9).integers(-128, 128, size=(5, 16))
            clean = service.multiply(handle, vectors)
            assert np.array_equal(clean, vectors @ matrix)
            assert (
                service.telemetry(handle)["engine"]["effective"] == "fused:dense"
            )

            shard = handle.sharded.shards[0]
            injection = inject_stuck_output(
                shard.circuit.netlist, shard.circuit.column_probes[0].src, 1
            )
            assert handle.sharded.has_faults()
            assert handle.sharded.resolve_engine("auto") == "bitplane"
            faulty = service.multiply(handle, vectors)
            assert service.telemetry(handle)["engine"]["effective"] == "bitplane"
            assert not np.array_equal(faulty, clean)
            # Oracle: the seed per-vector gate engine, fault honoured live.
            expected = np.concatenate(
                [
                    s.fast.multiply_batch(vectors, engine="scalar")
                    for s in handle.sharded.shards
                ],
                axis=1,
            )
            assert np.array_equal(faulty, expected)

            injection.revert()
            # Faults gone: auto flips back to fused, results recover.
            assert handle.sharded.resolve_engine("auto") == "fused"
            assert np.array_equal(service.multiply(handle, vectors), clean)
            assert (
                service.telemetry(handle)["engine"]["effective"] == "fused:dense"
            )
            assert service.telemetry(handle)["engine"]["batches"]["bitplane"] == 1

    def test_race_between_resolution_and_execution_falls_back(self, monkeypatch):
        """A fault landing after "auto" resolved to fused must not fail
        the batch: the serve layer retries on the gate engine."""
        from repro.serve.service import _resolved_multiply

        matrix = _matrix(22)
        with MatMulService() as service:
            handle = service.deploy(matrix, shards=2, use_cache=False)
            shard = handle.sharded.shards[0]
            inject_stuck_output(
                shard.circuit.netlist, shard.circuit.column_probes[0].src, 1
            )
            # Simulate the stale resolution: "auto" still reports fused
            # even though the fault has already landed.
            monkeypatch.setattr(
                handle.sharded,
                "resolve_engine",
                lambda engine="auto": "fused" if engine == "auto" else engine,
            )
            vectors = np.random.default_rng(23).integers(-128, 128, size=(3, 16))
            effective, out = _resolved_multiply(handle.sharded, "auto", vectors)
            assert effective == "bitplane"
            expected = np.concatenate(
                [
                    s.fast.multiply_batch(vectors, engine="scalar")
                    for s in handle.sharded.shards
                ],
                axis=1,
            )
            assert np.array_equal(out, expected)

    def test_forcing_fused_on_a_faulted_deployment_raises(self):
        matrix = _matrix(10)
        with MatMulService() as service:
            handle = service.deploy(matrix, use_cache=False)
            shard = handle.sharded.shards[0]
            inject_stuck_output(
                shard.circuit.netlist, shard.circuit.column_probes[0].src, 1
            )
            vectors = np.random.default_rng(11).integers(-128, 128, size=(2, 16))
            with pytest.raises(ValueError, match="fused"):
                service.multiply(handle, vectors, engine="fused")


class TestWarmStartContract:
    def test_warm_disk_deploy_runs_zero_pipeline_stages(self, tmp_path):
        """The acceptance bar: plan == build == lower == fuse == 0."""
        matrix = _matrix(12)
        with MatMulService(cache=CompileCache(directory=tmp_path)) as warmer:
            warmer.deploy(matrix, shards=2)
        before = STAGES.snapshot()
        cache = CompileCache(directory=tmp_path)
        with MatMulService(cache=cache) as service:
            handle = service.deploy(matrix, shards=2)
            delta = STAGES.delta(before)
            for stage in ("plan", "build", "lower", "fuse", "codegen"):
                assert delta.get(stage, 0) == 0, (stage, delta)
            # Both shard lookups were kernel hits with persisted schedules.
            assert cache.kernel_hits == 2
            assert cache.fused_hits == 2
            assert cache.stats()["fused_hits"] == 2
            vectors = np.random.default_rng(13).integers(-128, 128, size=(4, 16))
            assert np.array_equal(service.multiply(handle, vectors), vectors @ matrix)
            assert (
                service.telemetry(handle)["engine"]["effective"] == "fused:dense"
            )

    def test_pre_fused_store_backfills_the_schedule_artifact(self, tmp_path):
        """Stores written before the fused artifact existed re-fuse from
        the kernel once and persist the schedule for the next deploy."""
        matrix = _matrix(14)
        cache = CompileCache(directory=tmp_path)
        key = cache.get(matrix).key
        (tmp_path / key.fused_filename).unlink()
        before = STAGES.snapshot()
        second = CompileCache(directory=tmp_path)
        entry = second.get(matrix)
        assert entry.source == "kernel"
        delta = STAGES.delta(before)
        assert delta.get("build", 0) == 0 and delta.get("lower", 0) == 0
        assert delta.get("fuse") == 1  # re-fused from the loaded kernel
        assert second.fused_hits == 0
        assert (tmp_path / key.fused_filename).exists()
        third = CompileCache(directory=tmp_path)
        before = STAGES.snapshot()
        third.get(matrix)
        assert STAGES.delta(before).get("fuse", 0) == 0
        assert third.fused_hits == 1

    def test_stale_fused_artifact_is_refused_and_rebuilt(self, tmp_path):
        """A schedule whose fingerprint does not match the plan is never
        executed — it is re-fused from the verified kernel instead."""
        from repro.core.serialize import fused_from_npz, fused_to_npz

        a, b = _matrix(15), _matrix(16)
        cache = CompileCache(directory=tmp_path)
        key_a = cache.get(a).key
        key_b = cache.get(b).key
        foreign = fused_from_npz(tmp_path / key_b.fused_filename)
        fused_to_npz(foreign, tmp_path / key_a.fused_filename)
        fresh = CompileCache(directory=tmp_path)
        entry = fresh.get(a)
        assert entry.fused.fingerprint == entry.kernel.fingerprint
        vectors = np.random.default_rng(17).integers(-128, 128, size=(3, 16))
        assert np.array_equal(
            entry.fast.multiply_batch(vectors, engine="fused"), vectors @ a
        )


class TestShardResults:
    def test_mixed_narrow_and_wide_shards_merge_exactly(self):
        """One <=62-bit shard and one >62-bit shard: the int64 and exact
        object column slices concatenate into one exact object result."""
        rng = np.random.default_rng(20)
        matrix = np.hstack(
            [
                rng.integers(-2, 3, size=(30, 2)),  # narrow columns
                rng.integers(-(2**18), 2**18, size=(30, 2)),  # wide columns
            ]
        )
        with ShardedMultiplier(matrix, shards=2, input_width=40) as sharded:
            widths = [s.fast.kernel.result_width for s in sharded.shards]
            assert widths[0] <= 62 < widths[1]  # a genuinely mixed deployment
            vectors = rng.integers(-(2**30), 2**30, size=(3, 30))
            out = sharded.multiply_batch(vectors)
            assert out.dtype == object
            golden = [
                sum(int(vectors[b, r]) * int(matrix[r, j]) for r in range(30))
                for b in range(3)
                for j in range(4)
            ]
            assert [int(x) for x in out.ravel()] == golden

    def test_engine_registry(self):
        assert SERVE_ENGINES == ("auto", "scalar", "bitplane", "fused")
        matrix = _matrix(21)
        with ShardedMultiplier(matrix, shards=2) as sharded:
            with pytest.raises(ValueError, match="engine"):
                sharded.multiply_batch(np.zeros((1, 16)), engine="quantum")
