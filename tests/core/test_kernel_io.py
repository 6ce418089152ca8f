"""Kernel artifact round-trips: serialize -> load -> execute equivalence.

The ``.npz`` lowered-kernel artifact is the deployment unit of the
staged pipeline, so the load-bearing property is end-to-end: a kernel
written to disk and read back must execute bit-exactly with the circuit
it was lowered from — across recoding schemes, sparsity levels and
>62-bit result widths.  Faults are never part of the artifact.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.core.serialize import (
    KERNEL_FORMAT_VERSION,
    kernel_from_npz,
    kernel_to_npz,
)
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit, lower


def _circuit(seed=0, rows=12, cols=9, scheme="csd", input_width=8, sparsity=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-90, 91, size=(rows, cols))
    matrix[rng.random((rows, cols)) < sparsity] = 0
    circuit = build_circuit(
        plan_matrix(matrix, input_width=input_width, scheme=scheme)
    )
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    vectors = rng.integers(lo, hi + 1, size=(5, rows))
    return matrix, circuit, vectors


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ["pn", "csd"])
    @pytest.mark.parametrize("sparsity", [0.3, 0.7, 0.95])
    def test_execute_equivalence_across_schemes_and_sparsity(
        self, tmp_path, scheme, sparsity
    ):
        matrix, circuit, vectors = _circuit(
            seed=int(sparsity * 10), scheme=scheme, sparsity=sparsity
        )
        path = tmp_path / "k.kernel.npz"
        kernel_to_npz(lower(circuit), path)
        loaded = kernel_from_npz(path)
        golden = FastCircuit.from_compiled(circuit).multiply_batch(vectors)
        assert np.array_equal(golden, vectors @ matrix)
        for engine in FastCircuit.ENGINES:
            assert np.array_equal(
                FastCircuit(loaded).multiply_batch(vectors, engine=engine), golden
            )

    def test_round_trip_preserves_every_field(self, tmp_path):
        _, circuit, _ = _circuit(seed=3)
        kernel = lower(circuit)
        path = tmp_path / "k.kernel.npz"
        kernel_to_npz(kernel, path)
        assert kernel_from_npz(path).equivalent(kernel)

    def test_wide_result_width_round_trip(self, tmp_path):
        """>62-bit serial results decode through Python ints; the artifact
        must reproduce that object-dtype path exactly."""
        matrix = np.full((64, 2), (1 << 31) - 1, dtype=np.int64)
        circuit = build_circuit(plan_matrix(matrix, input_width=32))
        assert circuit.plan.result_width > 62
        path = tmp_path / "wide.kernel.npz"
        kernel_to_npz(lower(circuit), path)
        loaded = kernel_from_npz(path)
        a = np.full((1, 64), -(1 << 31), dtype=np.int64)
        want = int(-(1 << 31)) * ((1 << 31) - 1) * 64
        got = FastCircuit(loaded).multiply_batch(a)
        assert got.dtype == object
        assert int(got[0, 0]) == want and int(got[0, 1]) == want
        assert abs(want) > 2**62


class TestArtifactValidation:
    def _stored(self, tmp_path):
        _, circuit, _ = _circuit(seed=5)
        path = tmp_path / "k.kernel.npz"
        kernel_to_npz(lower(circuit), path)
        return path

    def test_unknown_format_version_rejected(self, tmp_path):
        path = self._stored(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            entries = {k: data[k] for k in data.files}
        header = json.loads(str(entries["__header__"][()]))
        header["format_version"] = KERNEL_FORMAT_VERSION + 1
        entries["__header__"] = json.dumps(header)
        np.savez(path, **entries)
        with pytest.raises(ValueError, match="format version"):
            kernel_from_npz(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = self._stored(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            entries = {k: data[k] for k in data.files}
        header = json.loads(str(entries["__header__"][()]))
        header["kind"] = "something-else"
        entries["__header__"] = json.dumps(header)
        np.savez(path, **entries)
        with pytest.raises(ValueError, match="artifact kind"):
            kernel_from_npz(path)

    def test_missing_array_rejected(self, tmp_path):
        path = self._stored(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            entries = {k: data[k] for k in data.files if k != "probe_idx"}
        np.savez(path, **entries)
        with pytest.raises(ValueError, match="probe_idx"):
            kernel_from_npz(path)

    def test_missing_header_rejected(self, tmp_path):
        path = self._stored(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            entries = {k: data[k] for k in data.files if k != "__header__"}
        np.savez(path, **entries)
        with pytest.raises(ValueError, match="no header"):
            kernel_from_npz(path)

    def test_truncated_file_raises_zip_error(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(zipfile.BadZipFile):
            kernel_from_npz(path)

    def test_write_is_atomic(self, tmp_path):
        path = self._stored(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
