"""Fused-kernel artifact round-trips and the reject-unknown policy.

The ``.fused.npz`` artifact is what makes the cycle-loop-free serving
path a zero-work warm start: a persisted schedule must execute
bit-exactly after a load in a process that never saw the matrix, and a
reader must refuse anything it does not fully understand (unknown
version, wrong artifact kind, missing arrays) so a stale store degrades
to a re-fuse, never to a wrong answer.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.core.plan import plan_matrix
from repro.core.serialize import (
    FUSED_FORMAT_VERSION,
    fused_from_npz,
    fused_to_npz,
    kernel_from_npz,
    kernel_to_npz,
    npz_header,
)
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit, lower
from repro.hwsim.fused import FusedCircuit, FusedKernel, fuse


def _fused(seed=0, rows=12, cols=9, scheme="csd", input_width=8, sparsity=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-90, 91, size=(rows, cols))
    matrix[rng.random((rows, cols)) < sparsity] = 0
    circuit = build_circuit(
        plan_matrix(matrix, input_width=input_width, scheme=scheme)
    )
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    vectors = rng.integers(lo, hi + 1, size=(5, rows))
    return matrix, circuit, fuse(lower(circuit)), vectors


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ["csd", "pn"])
    @pytest.mark.parametrize("sparsity", [0.2, 0.8])
    def test_loaded_schedule_is_equivalent_and_executes(
        self, tmp_path, scheme, sparsity
    ):
        matrix, _, fused, vectors = _fused(
            seed=1, scheme=scheme, sparsity=sparsity
        )
        path = tmp_path / "m.fused.npz"
        fused_to_npz(fused, path)
        loaded = fused_from_npz(path)
        assert loaded.equivalent(fused)
        assert loaded.fingerprint == fused.fingerprint
        assert np.array_equal(
            FusedCircuit(loaded).multiply_batch(vectors), vectors @ matrix
        )

    def test_wide_schedule_round_trips(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.integers(-(2**18), 2**18, size=(36, 4))
        plan = plan_matrix(matrix, input_width=40, scheme="csd")
        assert plan.result_width > 62
        fused = fuse(lower(build_circuit(plan)))
        path = tmp_path / "wide.fused.npz"
        fused_to_npz(fused, path)
        loaded = fused_from_npz(path)
        vectors = rng.integers(-(2**30), 2**30, size=(3, 36))
        out = FusedCircuit(loaded).multiply_batch(vectors)
        assert out.dtype == object
        golden = [
            sum(int(vectors[b, r]) * int(matrix[r, j]) for r in range(36))
            for b in range(3)
            for j in range(4)
        ]
        assert [int(x) for x in out.ravel()] == golden

    def test_loaded_schedule_binds_to_a_fast_circuit(self, tmp_path):
        """The compile-cache pattern: kernel + fused artifact, no netlist."""
        matrix, circuit, fused, vectors = _fused(seed=3)
        kernel = lower(circuit)
        fused_to_npz(fused, tmp_path / "m.fused.npz")
        loaded = fused_from_npz(tmp_path / "m.fused.npz")
        fast = FastCircuit(kernel, fused=loaded)
        assert fast.fused is loaded
        assert np.array_equal(
            fast.multiply_batch(vectors, engine="fused"), vectors @ matrix
        )


def _add_header_keys(path, **keys):
    """Rewrite an artifact's header with extra keys, as older stores
    wrote them (``term_count``/``term_density``)."""
    with np.load(path, allow_pickle=False) as data:
        entries = {k: data[k] for k in data.files}
    header = json.loads(str(entries.pop("__header__")[()]))
    header.update(keys)
    np.savez_compressed(path, __header__=json.dumps(header), **entries)


class TestTermMetadata:
    """Headers carry no term statistics; artifacts from older stores that
    did still load, because readers ignore keys they do not need."""

    def test_kernel_header_accepts_extra_metadata(self, tmp_path):
        _, circuit, fused, _ = _fused(seed=8)
        kernel = lower(circuit)
        path = tmp_path / "k.kernel.npz"
        kernel_to_npz(kernel, path)
        _add_header_keys(path, term_count=fused.terms, term_density=0.25)
        assert npz_header(path)["term_density"] == 0.25
        assert kernel_from_npz(path).equivalent(kernel)

    def test_pre_metadata_artifacts_still_load(self, tmp_path):
        """Fused artifacts are written without term keys, and load
        whether or not an older store added them."""
        _, _, fused, _ = _fused(seed=9)
        path = tmp_path / "f.fused.npz"
        fused_to_npz(fused, path)
        assert "term_count" not in npz_header(path)
        assert fused_from_npz(path).equivalent(fused)
        _add_header_keys(path, term_count=fused.terms, term_density=0.5)
        assert fused_from_npz(path).equivalent(fused)

    def test_npz_header_rejects_headerless_archives(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez_compressed(path, data=np.arange(3))
        with pytest.raises(ValueError, match="header"):
            npz_header(path)


class TestArtifactValidation:
    def _stored(self, tmp_path):
        _, _, fused, _ = _fused(seed=5)
        path = tmp_path / "f.fused.npz"
        fused_to_npz(fused, path)
        return path

    def _rewrite_header(self, path, mutate):
        with np.load(path, allow_pickle=False) as data:
            entries = {k: data[k] for k in data.files}
        header = json.loads(str(entries.pop("__header__")[()]))
        mutate(header, entries)
        np.savez_compressed(path, __header__=json.dumps(header), **entries)

    def test_rejects_unknown_format_version(self, tmp_path):
        path = self._stored(tmp_path)
        self._rewrite_header(
            path,
            lambda h, _: h.update(format_version=FUSED_FORMAT_VERSION + 1),
        )
        with pytest.raises(ValueError, match="version"):
            fused_from_npz(path)

    def test_rejects_wrong_artifact_kind(self, tmp_path):
        path = self._stored(tmp_path)
        self._rewrite_header(path, lambda h, _: h.update(kind="repro-something"))
        with pytest.raises(ValueError, match="kind"):
            fused_from_npz(path)

    def test_rejects_kernel_artifact_read_as_fused(self, tmp_path):
        """Cross-kind confusion must fail loudly, both directions."""
        _, circuit, _, _ = _fused(seed=6)
        path = tmp_path / "k.kernel.npz"
        kernel_to_npz(lower(circuit), path)
        with pytest.raises(ValueError, match="kind"):
            fused_from_npz(path)

    def test_rejects_missing_arrays_and_scalars(self, tmp_path):
        path = self._stored(tmp_path)
        self._rewrite_header(path, lambda h, e: e.pop("term_shift"))
        with pytest.raises(ValueError, match="term_shift"):
            fused_from_npz(path)
        path = self._stored(tmp_path)
        self._rewrite_header(path, lambda h, _: h.pop("result_width"))
        with pytest.raises(ValueError, match="result_width"):
            fused_from_npz(path)

    def test_rejects_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.fused.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises((ValueError, zipfile.BadZipFile)):
            fused_from_npz(path)

    def test_rejects_corrupted_terms_at_construction(self, tmp_path):
        """Header validation composes with FusedKernel's own checks."""
        path = self._stored(tmp_path)

        def corrupt(_, entries):
            entries["term_sign"] = np.array(
                [3] * len(entries["term_sign"]), dtype=np.int64
            )

        self._rewrite_header(path, corrupt)
        with pytest.raises(ValueError, match="sign"):
            fused_from_npz(path)
