"""MatMulService: the deploy/submit/run_stream facade and its telemetry."""

import asyncio

import numpy as np
import pytest

from repro.reservoir import quantize_esn, random_input_weights, random_reservoir
from repro.reservoir.hw_esn import HardwareESN
from repro.serve import CompileCache, MatMulService


def _matrix(seed=0, shape=(16, 12)):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-100, 101, size=shape)
    matrix[rng.random(shape) < 0.7] = 0
    return matrix


def _esn(seed=5, dim=18):
    rng = np.random.default_rng(seed)
    w = random_reservoir(dim, element_sparsity=0.8, rng=rng)
    w_in = random_input_weights(dim, 1, scale=1.0, rng=rng)
    return quantize_esn(w, w_in, weight_width=6, state_width=8)


class TestDeployAndSubmit:
    def test_submitted_requests_are_exact_products(self):
        matrix = _matrix()
        with MatMulService() as service:
            handle = service.deploy(matrix, shards=2)
            vectors = np.random.default_rng(1).integers(-128, 128, size=(9, 16))
            result = asyncio.run(service.submit_many(handle, vectors))
        assert np.array_equal(result, vectors @ matrix)

    def test_single_submit(self):
        matrix = _matrix()
        with MatMulService() as service:
            handle = service.deploy(matrix)
            vector = np.random.default_rng(2).integers(-128, 128, size=16)
            row = asyncio.run(service.submit(handle, vector))
        assert np.array_equal(row, vector @ matrix)

    def test_direct_multiply_path(self):
        matrix = _matrix()
        with MatMulService() as service:
            handle = service.deploy(matrix, shards=3)
            vectors = np.random.default_rng(3).integers(-128, 128, size=(4, 16))
            assert np.array_equal(
                service.multiply(handle, vectors), vectors @ matrix
            )

    def test_redeploy_hits_compile_cache(self):
        matrix = _matrix()
        with MatMulService() as service:
            first = service.deploy(matrix, shards=2)
            second = service.deploy(matrix, shards=2)
            assert service.cache.hits == 2  # both shard compiles reused
            assert first.name != second.name
            assert first.matrix_digest == second.matrix_digest

    def test_malformed_submit_fails_fast_without_poisoning_the_batch(self):
        matrix = _matrix()
        with MatMulService(max_delay_s=0.005) as service:
            handle = service.deploy(matrix, shards=2)
            vector = np.random.default_rng(6).integers(-128, 128, size=16)

            async def main():
                results = await asyncio.gather(
                    service.submit(handle, vector),
                    service.submit(handle, np.zeros(7, dtype=np.int64)),
                    return_exceptions=True,
                )
                return results

            ok, err = asyncio.run(main())
        assert np.array_equal(ok, vector @ matrix)
        assert isinstance(err, ValueError)

    def test_deployments_registry(self):
        with MatMulService() as service:
            handle = service.deploy(_matrix(), name="traffic")
            assert service.deployments["traffic"] is handle

    def test_shared_cache_across_services(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        matrix = _matrix()
        with MatMulService(cache=cache) as service:
            service.deploy(matrix)
        assert cache.misses == 1
        # A fresh service over the same persistent directory loads the
        # lowered kernel: no re-planning, no netlist rebuild.
        with MatMulService(cache=CompileCache(directory=tmp_path)) as fresh:
            fresh.deploy(matrix)
            assert fresh.cache.kernel_hits == 1
            assert fresh.cache.misses == 0


class TestDeploymentLifecycle:
    def test_deploy_rejects_unknown_backend(self):
        with MatMulService() as service:
            for backend in ("quantum", "process"):
                with pytest.raises(ValueError, match="backend"):
                    service.deploy(_matrix(), backend=backend)

    def test_deploy_without_cache_compiles_privately(self):
        matrix = _matrix()
        with MatMulService() as service:
            handle = service.deploy(matrix, shards=2, use_cache=False)
            assert service.cache.stats()["misses"] == 0
            assert all(s.circuit is not None for s in handle.sharded.shards)

    def test_undeploy_retires_and_rejects_queued_requests(self):
        matrix = _matrix()
        with MatMulService(max_delay_s=5.0) as service:  # deadline never fires
            handle = service.deploy(matrix, name="transient")
            vector = np.random.default_rng(8).integers(-128, 128, size=16)

            async def main():
                task = asyncio.create_task(service.submit(handle, vector))
                await asyncio.sleep(0.01)  # request is queued, not flushed
                service.undeploy(handle)
                return await asyncio.gather(task, return_exceptions=True)

            (result,) = asyncio.run(main())
        assert isinstance(result, RuntimeError)
        assert "retired" in str(result)
        assert "transient" not in service.deployments
        service.undeploy("transient")  # idempotent on unknown names

    def test_undeploy_from_another_thread_rejects_queued_requests(self):
        """Retiring a deployment from an operator thread must marshal the
        rejection onto the coalescing loop, not race it."""
        import threading

        matrix = _matrix()
        with MatMulService(max_delay_s=5.0) as service:
            handle = service.deploy(matrix, name="xthread")
            vector = np.random.default_rng(17).integers(-128, 128, size=16)

            async def main():
                task = asyncio.create_task(service.submit(handle, vector))
                await asyncio.sleep(0.01)
                worker = threading.Thread(target=service.undeploy, args=(handle,))
                worker.start()
                result = await asyncio.gather(task, return_exceptions=True)
                worker.join()
                return result

            (result,) = asyncio.run(main())
        assert isinstance(result, RuntimeError)
        assert "retired" in str(result)


class TestTelemetry:
    def test_snapshot_records_effective_batching_config(self):
        """The deploy-time micro-batching knobs are observable: an
        operator can read the deadline/batch limit a deployment is
        actually running with straight off its snapshot."""
        with MatMulService(max_batch=64, max_delay_s=0.002) as service:
            default = service.deploy(_matrix(), name="default")
            tuned = service.deploy(
                _matrix(1), name="tuned", max_batch=16, max_delay_s=0.01
            )
            assert service.telemetry(default)["batching"] == {
                "max_batch": 64,
                "max_delay_s": 0.002,
            }
            assert service.telemetry(tuned)["batching"] == {
                "max_batch": 16,
                "max_delay_s": 0.01,
            }
            # The batcher itself runs with the same effective values.
            assert tuned.batcher.max_batch == 16
            assert tuned.batcher.max_delay_s == 0.01

    def test_snapshot_reflects_traffic(self):
        matrix = _matrix()
        with MatMulService(max_delay_s=0.001) as service:
            handle = service.deploy(matrix, shards=2)
            vectors = np.random.default_rng(4).integers(-128, 128, size=(12, 16))
            asyncio.run(service.submit_many(handle, vectors))
            snap = service.telemetry(handle)
        assert snap["requests"] == 12
        assert snap["products"] == 12
        assert snap["throughput_rps"] > 0
        assert 0 < snap["latency_s"]["p50"] <= snap["latency_s"]["p99"]
        assert snap["lane_occupancy"] > 0
        assert snap["batcher"]["requests"] == 12
        assert snap["shards"]["shards"] == 2
        assert all(s["calls"] >= 1 for s in snap["shards"]["per_shard"])

    def test_service_wide_snapshot_includes_cache(self):
        with MatMulService() as service:
            service.deploy(_matrix(), name="a")
            snap = service.telemetry()
        assert snap["cache"]["misses"] == 1
        assert "a" in snap["deployments"]


class TestServedReservoir:
    def test_run_stream_batch_matches_hardware_esn(self):
        esn = _esn()
        reference = HardwareESN(esn, scheme="csd", include_input=True)
        rng = np.random.default_rng(7)
        inputs = rng.integers(-100, 101, size=(3, 12, 1))
        with MatMulService() as service:
            handle = service.deploy_esn(esn, include_input=True, shards=2)
            served = service.run_stream(handle, inputs, washout=2)
        assert np.array_equal(served, reference.run_batch(inputs, washout=2))

    def test_run_stream_single_sequence_matches_run(self):
        esn = _esn(seed=8)
        reference = HardwareESN(esn, scheme="csd", include_input=False)
        rng = np.random.default_rng(9)
        inputs = rng.integers(-100, 101, size=20)
        with MatMulService() as service:
            handle = service.deploy_esn(esn, include_input=False, shards=3)
            served = service.run_stream(handle, inputs, washout=3)
        assert np.array_equal(served, reference.run(inputs, washout=3))

    def test_run_stream_records_lane_occupancy(self):
        esn = _esn(seed=12)
        rng = np.random.default_rng(13)
        inputs = rng.integers(-100, 101, size=(4, 6, 1))
        with MatMulService() as service:
            handle = service.deploy_esn(esn, include_input=True, max_batch=64)
            service.run_stream(handle, inputs)
            snap = service.telemetry(handle)
        # 6 steps, each one hardware batch of 4 lanes.
        assert snap["batches"] == 6
        assert snap["lane_occupancy"] == pytest.approx(4 / 64)
        assert snap["products"] == 24

    def test_deploy_esn_plans_the_matrix_exactly_once(self, monkeypatch):
        """The serve cache's plan memo feeds both the ServedESN facade and
        the single-shard compile — no double planning of the same bytes."""
        import repro.core.multiplier as multiplier_mod
        import repro.serve.cache as cache_mod

        calls = []
        real_plan_matrix = cache_mod.plan_matrix

        def counting(matrix, *args, **kwargs):
            calls.append(np.asarray(matrix).shape)
            return real_plan_matrix(matrix, *args, **kwargs)

        monkeypatch.setattr(cache_mod, "plan_matrix", counting)
        monkeypatch.setattr(multiplier_mod, "plan_matrix", counting)
        esn = _esn(seed=14)
        with MatMulService() as service:
            service.deploy_esn(esn, include_input=True)
        assert len(calls) == 1

    def test_run_stream_requires_an_esn_deployment(self):
        with MatMulService() as service:
            handle = service.deploy(_matrix())
            with pytest.raises(ValueError, match="deploy_esn"):
                service.run_stream(handle, np.zeros((1, 3, 1), dtype=np.int64))
