"""MicroBatcher: coalescing, deadlines, ordering, and error paths.

Plain ``asyncio.run`` drivers (no pytest-asyncio in the container); the
execute callable is a numpy matmul so these tests exercise the batching
logic, not the simulator.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.serve.batcher import BatcherStats, MicroBatcher


MATRIX = np.arange(20, dtype=np.int64).reshape(5, 4) - 10


def _execute(batch: np.ndarray) -> tuple[np.ndarray, str]:
    return np.asarray(batch, dtype=np.int64) @ MATRIX, ""


def _vectors(n: int, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).integers(-5, 6, size=(n, 5))


class TestCoalescing:
    def test_full_batches_flush_immediately(self):
        batcher = MicroBatcher(_execute, max_batch=4, max_delay_s=60.0)

        async def main():
            vecs = _vectors(8)
            return vecs, await asyncio.gather(*(batcher.submit(v) for v in vecs))

        vecs, rows = asyncio.run(main())
        assert np.array_equal(np.stack(rows), vecs @ MATRIX)
        # A 60 s deadline can't have fired: both flushes were full batches.
        assert batcher.stats.batches == 2
        assert batcher.stats.full_flushes == 2
        assert batcher.stats.deadline_flushes == 0
        assert batcher.stats.requests == 8
        assert batcher.stats.mean_occupancy(4) == 1.0

    def test_deadline_flushes_partial_batch(self):
        batcher = MicroBatcher(_execute, max_batch=64, max_delay_s=0.005)

        async def main():
            vecs = _vectors(3)
            return vecs, await asyncio.gather(*(batcher.submit(v) for v in vecs))

        vecs, rows = asyncio.run(main())
        assert np.array_equal(np.stack(rows), vecs @ MATRIX)
        assert batcher.stats.batches == 1
        assert batcher.stats.deadline_flushes == 1
        assert batcher.stats.mean_occupancy(64) == pytest.approx(3 / 64)

    def test_each_request_gets_its_own_row(self):
        batcher = MicroBatcher(_execute, max_batch=16, max_delay_s=0.001)

        async def main():
            vecs = _vectors(16, seed=2)
            rows = await asyncio.gather(*(batcher.submit(v) for v in vecs))
            return vecs, rows

        vecs, rows = asyncio.run(main())
        for vec, row in zip(vecs, rows):
            assert np.array_equal(row, vec @ MATRIX)

    def test_execution_leaves_the_event_loop_responsive(self):
        """The batch runs in the executor, not on the loop thread."""
        seen_threads = []

        def execute(batch):
            seen_threads.append(threading.current_thread())
            return _execute(batch)

        batcher = MicroBatcher(execute, max_batch=2, max_delay_s=60.0)

        async def main():
            vecs = _vectors(2)
            await asyncio.gather(*(batcher.submit(v) for v in vecs))

        asyncio.run(main())
        assert seen_threads and all(
            t is not threading.main_thread() for t in seen_threads
        )


class TestDrainAndErrors:
    def test_drain_forces_partial_flush(self):
        batcher = MicroBatcher(_execute, max_batch=64, max_delay_s=60.0)

        async def main():
            vecs = _vectors(5)
            pending = [asyncio.ensure_future(batcher.submit(v)) for v in vecs]
            await asyncio.sleep(0)  # let submits enqueue
            await batcher.drain()
            return vecs, await asyncio.gather(*pending)

        vecs, rows = asyncio.run(main())
        assert np.array_equal(np.stack(rows), vecs @ MATRIX)
        assert batcher.stats.forced_flushes == 1
        assert batcher.pending == 0

    def test_execute_failure_propagates_to_every_request(self):
        def explode(batch):
            raise RuntimeError("shard on fire")

        batcher = MicroBatcher(explode, max_batch=2, max_delay_s=60.0)

        async def main():
            vecs = _vectors(2)
            return await asyncio.gather(
                *(batcher.submit(v) for v in vecs), return_exceptions=True
            )

        results = asyncio.run(main())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_stack_failure_fails_the_batch_instead_of_hanging(self):
        """Without a validator, a shape-mismatched vector must reject every
        coalesced future (a regression here = requests hang forever)."""
        batcher = MicroBatcher(_execute, max_batch=2, max_delay_s=60.0)

        async def main():
            good = _vectors(1)[0]
            bad = np.array([1, 2, 3])
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit(good),
                    batcher.submit(bad),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        results = asyncio.run(main())
        assert all(isinstance(r, Exception) for r in results)

    def test_validator_rejects_only_the_malformed_request(self):
        def validate(vector):
            if vector.shape != (5,):
                raise ValueError("wrong shape")

        batcher = MicroBatcher(
            _execute, max_batch=2, max_delay_s=0.005, validate=validate
        )

        async def main():
            good = _vectors(1)[0]
            results = await asyncio.gather(
                batcher.submit(good),
                batcher.submit(np.array([1, 2, 3])),
                return_exceptions=True,
            )
            return good, results

        good, (ok, err) = asyncio.run(main())
        assert np.array_equal(ok, good @ MATRIX)  # valid request unharmed
        assert isinstance(err, ValueError)
        assert batcher.stats.requests == 1  # rejected request never enqueued

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(_execute, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(_execute, max_delay_s=-1.0)

    def test_empty_stats(self):
        assert BatcherStats().mean_occupancy(64) == 0.0


class TestDeadlineBudget:
    def _captured_kwargs(self, deadlines):
        """Submit one vector per deadline (relative seconds or None) into
        one batch; return the keywords ``execute`` was called with."""
        calls = []

        def execute(batch, **kwargs):
            calls.append(kwargs)
            return _execute(batch)

        batcher = MicroBatcher(execute, max_batch=len(deadlines), max_delay_s=60.0)

        async def main():
            now = time.monotonic()
            vecs = _vectors(len(deadlines))
            await asyncio.gather(
                *(
                    batcher.submit(v, deadline=None if d is None else now + d)
                    for v, d in zip(vecs, deadlines)
                )
            )

        asyncio.run(main())
        (kwargs,) = calls
        return kwargs

    def test_a_request_without_deadline_leaves_the_batch_unbudgeted(self):
        assert "deadline_s" not in self._captured_kwargs([None, 5.0])
        assert "deadline_s" not in self._captured_kwargs([5.0, None])

    def test_the_loosest_deadline_is_the_batch_budget(self):
        budget = self._captured_kwargs([1.0, 5.0])["deadline_s"]
        assert 4.0 < budget <= 5.0
