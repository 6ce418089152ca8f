"""CompileCache: content-addressed keys, LRU policy, disk persistence."""

import json

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.core.serialize import (
    matrix_digest,
    plan_fingerprint,
    plan_from_dict,
    plan_to_dict,
)
from repro.core.stages import STAGES
from repro.hwsim.builder import build_circuit
from repro.serve.cache import CompileCache, compile_key


def _matrix(seed=0, shape=(12, 10)):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-50, 51, size=shape)
    matrix[rng.random(shape) < 0.7] = 0
    return matrix


class TestDigests:
    def test_matrix_digest_is_content_addressed(self):
        m = _matrix()
        assert matrix_digest(m) == matrix_digest(m.copy())
        assert matrix_digest(m) == matrix_digest(np.asfortranarray(m))
        assert matrix_digest(m) == matrix_digest(m.astype(np.int32))
        changed = m.copy()
        changed[0, 0] += 1
        assert matrix_digest(m) != matrix_digest(changed)

    def test_matrix_digest_distinguishes_shape(self):
        flat = np.arange(12).reshape(3, 4)
        assert matrix_digest(flat) != matrix_digest(flat.reshape(4, 3))

    def test_matrix_digest_rejects_non_2d(self):
        with pytest.raises(ValueError):
            matrix_digest(np.arange(5))

    def test_plan_fingerprint_survives_serialization_round_trip(self):
        plan = plan_matrix(_matrix(), input_width=8, scheme="csd")
        clone = plan_from_dict(plan_to_dict(plan))
        assert plan_fingerprint(clone) == plan_fingerprint(plan)

    def test_plan_fingerprint_tracks_compile_options(self):
        m = _matrix()
        base = plan_fingerprint(plan_matrix(m, input_width=8, scheme="csd"))
        assert base != plan_fingerprint(plan_matrix(m, input_width=6, scheme="csd"))
        assert base != plan_fingerprint(plan_matrix(m, input_width=8, scheme="pn"))
        assert base != plan_fingerprint(
            plan_matrix(m, input_width=8, scheme="csd", tree_style="padded")
        )

    def test_compiled_circuit_digest_is_the_plan_fingerprint(self):
        plan = plan_matrix(_matrix(), input_width=8, scheme="csd")
        circuit = build_circuit(plan)
        assert circuit.digest == plan.fingerprint() == plan_fingerprint(plan)

    def test_compile_key_fields(self):
        m = _matrix()
        key = compile_key(m, input_width=8, scheme="csd", tree_style="compact")
        assert key.matrix_digest == matrix_digest(m)
        assert key == compile_key(m.copy(), 8, "csd", "compact")
        assert key != compile_key(m, 8, "pn", "compact")
        assert key.filename.endswith(".plan.json")


class TestCompileCache:
    def test_memory_hits_share_compiled_objects(self):
        cache = CompileCache()
        m = _matrix()
        first = cache.get(m)
        second = cache.get(m.copy())
        assert first.source == "compiled"
        assert second.source == "memory"
        assert second.fast is first.fast
        assert second.circuit is first.circuit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_distinct_options_are_distinct_entries(self):
        cache = CompileCache()
        m = _matrix()
        cache.get(m, input_width=8)
        cache.get(m, input_width=6)
        cache.get(m, scheme="pn")
        assert cache.misses == 3 and cache.hits == 0
        assert len(cache) == 3

    def test_lru_eviction(self):
        cache = CompileCache(capacity=2)
        a, b, c = _matrix(1), _matrix(2), _matrix(3)
        cache.get(a)
        cache.get(b)
        cache.get(a)  # refresh a; b is now least recently used
        cache.get(c)  # evicts b
        assert len(cache) == 2
        cache.get(b)
        assert cache.misses == 4  # a, b, c, then b again after eviction

    def test_result_is_the_correct_circuit(self):
        cache = CompileCache()
        m = _matrix()
        entry = cache.get(m, input_width=8, scheme="csd")
        rng = np.random.default_rng(9)
        vectors = rng.integers(-128, 128, size=(5, m.shape[0]))
        assert np.array_equal(entry.fast.multiply_batch(vectors), vectors @ m)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)


class TestDiskPersistence:
    def test_fresh_process_loads_kernel_from_disk(self, tmp_path):
        """A warm artifact store serves the *kernel*: no planning, no
        netlist build, no lowering — asserted via the stage counters."""
        m = _matrix()
        warm = CompileCache(directory=tmp_path)
        first = warm.get(m)
        assert first.source == "compiled"
        assert list(tmp_path.glob("*.plan.json"))
        assert list(tmp_path.glob("*.kernel.npz"))

        cold = CompileCache(directory=tmp_path)
        before = STAGES.snapshot()
        loaded = cold.get(m)
        delta = STAGES.delta(before)
        assert loaded.source == "kernel"
        assert cold.kernel_hits == 1 and cold.misses == 0
        assert delta.get("plan", 0) == 0
        assert delta.get("build", 0) == 0
        assert delta.get("lower", 0) == 0
        assert loaded.circuit is None  # no netlist was ever constructed
        assert loaded.fingerprint == first.fingerprint
        assert loaded.kernel.equivalent(first.kernel)
        rng = np.random.default_rng(4)
        vectors = rng.integers(-128, 128, size=(3, m.shape[0]))
        assert np.array_equal(loaded.fast.multiply_batch(vectors), vectors @ m)

    def test_plan_survives_without_kernel(self, tmp_path):
        """Dropping the kernel artifact degrades to the plan-hit path:
        re-planning is skipped, only the mechanical build re-runs."""
        m = _matrix()
        CompileCache(directory=tmp_path).get(m)
        next(tmp_path.glob("*.kernel.npz")).unlink()
        cold = CompileCache(directory=tmp_path)
        before = STAGES.snapshot()
        loaded = cold.get(m)
        delta = STAGES.delta(before)
        assert loaded.source == "disk"
        assert cold.disk_hits == 1 and cold.kernel_hits == 0 and cold.misses == 0
        assert delta.get("plan", 0) == 0
        assert delta.get("build", 0) == 1
        # The rebuild re-persists the kernel for the next cold start.
        assert list(tmp_path.glob("*.kernel.npz"))

    def test_corrupt_artifacts_fall_back_to_compile(self, tmp_path):
        m = _matrix()
        CompileCache(directory=tmp_path).get(m)
        next(tmp_path.glob("*.plan.json")).write_text("{not json")
        next(tmp_path.glob("*.kernel.npz")).write_bytes(b"not a zip archive")
        cache = CompileCache(directory=tmp_path)
        entry = cache.get(m)
        assert entry.source == "compiled"
        assert cache.misses == 1 and cache.disk_hits == 0 and cache.kernel_hits == 0

    def test_tampered_plan_is_rejected_by_fingerprint(self, tmp_path):
        m = _matrix()
        CompileCache(directory=tmp_path).get(m)
        artifact = next(tmp_path.glob("*.plan.json"))
        payload = json.loads(artifact.read_text())
        payload["plan"]["positive"][0][0] += 1
        artifact.write_text(json.dumps(payload))
        next(tmp_path.glob("*.kernel.npz")).unlink()
        cache = CompileCache(directory=tmp_path)
        assert cache.get(m).source == "compiled"

    def test_v1_kernel_artifact_is_a_miss_and_rebuilt_at_v2(self, tmp_path):
        """A store written before the fault snapshot was dropped holds
        v1 kernels (five extra fault arrays).  The cache must treat one
        as a miss, rebuild from the intact plan and re-persist at v2."""
        from repro.core.serialize import KERNEL_FORMAT_VERSION, npz_header

        m = _matrix()
        entry = CompileCache(directory=tmp_path).get(m)
        path = tmp_path / entry.key.kernel_filename
        assert KERNEL_FORMAT_VERSION == 2
        assert npz_header(path)["format_version"] == 2
        with np.load(path, allow_pickle=False) as data:
            entries = {k: data[k] for k in data.files}
        header = json.loads(str(entries["__header__"][()]))
        header["format_version"] = 1
        entries["__header__"] = json.dumps(header)
        for name in ("stuck_idx", "stuck_val", "carry_kind", "carry_slot", "carry_val"):
            entries[name] = np.zeros(0, dtype=np.int64)
        np.savez_compressed(path, **entries)

        cold = CompileCache(directory=tmp_path)
        before = STAGES.snapshot()
        loaded = cold.get(m)
        # The v1 kernel is refused; the plan artifact still serves, so
        # the fallback is a plan-hit rebuild that rewrites the kernel.
        assert loaded.source == "disk"
        assert cold.kernel_hits == 0
        delta = STAGES.delta(before)
        assert delta.get("plan", 0) == 0 and delta.get("lower") == 1
        assert npz_header(path)["format_version"] == 2
        rng = np.random.default_rng(6)
        vectors = rng.integers(-128, 128, size=(3, m.shape[0]))
        assert np.array_equal(loaded.fast.multiply_batch(vectors), vectors @ m)
        assert CompileCache(directory=tmp_path).get(m).source == "kernel"

    def test_kernel_not_matching_plan_is_rejected(self, tmp_path):
        """A kernel whose fingerprint disagrees with the (re)planned
        matrix must never execute: cross-key copies are caught."""
        m, other = _matrix(), _matrix(seed=9)
        cache = CompileCache(directory=tmp_path)
        key_m = cache.get(m).key
        key_other = cache.get(other).key
        # Graft the other matrix's kernel artifact onto m's key.
        (tmp_path / key_other.kernel_filename).replace(
            tmp_path / key_m.kernel_filename
        )
        cold = CompileCache(directory=tmp_path)
        entry = cold.get(m)
        assert entry.source == "compiled"
        rng = np.random.default_rng(5)
        vectors = rng.integers(-128, 128, size=(3, m.shape[0]))
        assert np.array_equal(entry.fast.multiply_batch(vectors), vectors @ m)
