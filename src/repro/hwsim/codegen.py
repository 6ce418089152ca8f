"""The ``codegen`` stage: compile a :class:`FusedKernel` to numpy source.

**Off the serving path.**  Nothing in ``repro`` calls this module any
more: :class:`repro.hwsim.fused.FusedCircuit` runs every schedule as one
exact BLAS-backed matrix product, which beat the generated executor at
every measured size and sparsity (``benchmarks/bench_fused_sparse.py``
keeps it as a baseline).  The module stays only because the repo
benchmark (``perfbench/workloads.py``) imports :func:`generate_source`
to time the stage; the compile cache neither writes nor reads
``.codegen.py`` files.  The description below is of the module itself.

A fused kernel is a *complete static program* — every gather index,
shift, and sign is known at compile time — so instead of interpreting
the term arrays through generic machinery, this pass emits a tiny
specialized Python module per kernel: the indexing arrays are baked in
as literals and the schedule's *shape* is exploited at generation time.
Outputs are grouped by their term count, so each group reduces with a
fixed-width ``reshape(B, n, k).sum(axis=2)`` — contiguous vectorized
sums instead of the generic ``np.add.reduceat`` the interpreted
segmented executor uses (measurably ~4x faster at high sparsity, where
reduceat's per-segment dispatch dominates).  Degenerate shapes collapse
completely: an empty schedule becomes a pure zero-fill, and
one-term-per-output groups become a gather-scale with no reduction at
all.  The result is einsum-free, loop-free numpy whose arithmetic
scales with the nonzero CSD terms, not the matrix area — the software
analogue of the paper's thesis that spatial multiplier cost tracks
nonzero terms.

Generated source is a **versioned artifact** like the plan/kernel/fused
``.npz`` files: a machine-parseable comment header carries the artifact
kind, format version, and the plan fingerprint of the kernel it was
generated from.  Generation counts the ``codegen`` stage in
:data:`repro.core.stages.STAGES`; loading does not.

Trust model: loading *executes* the source, so it inherits the artifact
store's existing trust boundary — stores are already trusted to supply
the kernels whose schedules we run.  :func:`load_execute` refuses any
source whose kind, format version, or fingerprint does not match the
kernel being served, so a stale or foreign file degrades to a cache
miss (regenerate), never to wrong results.

Only kernels with ``result_width <= 62`` are generatable: wider
accumulations need exact Python integers (see
:class:`repro.hwsim.fused.FusedCircuit`).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.stages import STAGES
from repro.hwsim.fused import FusedKernel, segment_prefixes

__all__ = [
    "CODEGEN_FORMAT_VERSION",
    "CODEGEN_KIND",
    "generate_source",
    "source_header",
    "load_execute",
]

#: Bump on any change to the generated module's contract (the
#: ``execute`` signature or the header grammar).  Loaders refuse other
#: versions, so old cached source degrades to regeneration, never to a
#: wrong executor.
CODEGEN_FORMAT_VERSION = 1

#: Artifact kind token, first header line of every generated module.
CODEGEN_KIND = "repro-fused-codegen"


def _int_list(values: np.ndarray) -> str:
    """A deterministic Python literal for a 1-D integer array."""
    return "[" + ", ".join(str(int(v)) for v in values) + "]"


def generate_source(kernel: FusedKernel) -> str:
    """Emit the specialized executor module for one fused kernel.

    Pure function of the kernel's term arrays — the same kernel always
    yields byte-identical source (asserted by the determinism test), so
    cached source never spuriously differs from a regeneration.
    Increments the ``codegen`` stage counter; cache hits load persisted
    source through :func:`load_execute` instead and leave the counter
    untouched.
    """
    STAGES.increment("codegen")
    if kernel.result_width > 62:
        raise ValueError(
            f"cannot generate int64 source for a {kernel.result_width}-bit "
            "kernel; accumulations wider than 62 bits run the segmented "
            "executor over exact Python integers"
        )
    starts, segment_out = segment_prefixes(kernel.term_out)
    coeff = kernel.term_sign * np.left_shift(np.int64(1), kernel.term_shift)
    lines = [
        f"# {CODEGEN_KIND}",
        f"# format_version={CODEGEN_FORMAT_VERSION}",
        f"# fingerprint={kernel.fingerprint}",
        f"# rows={kernel.rows} cols={kernel.cols} terms={kernel.terms}",
        f"# input_width={kernel.input_width} result_width={kernel.result_width}",
        "import numpy as np",
        "",
    ]
    if kernel.terms == 0:
        # Zero-term schedule (all-zero matrix): pure zero-fill.
        lines += [
            "def execute(batch):",
            f"    return np.zeros((batch.shape[0], {kernel.cols}), dtype=np.int64)",
        ]
        return "\n".join(lines) + "\n"

    # Group outputs by term count: every output in a group reduces over
    # the same fixed width k, so the reduction is one contiguous
    # reshape-sum per group instead of a generic per-segment reduceat.
    # Group order (ascending k via np.unique) and the index arithmetic
    # are pure functions of the sorted term arrays — determinism holds.
    lengths = np.diff(np.r_[starts, kernel.terms])
    body = [
        "def execute(batch):",
        f"    out = np.zeros((batch.shape[0], {kernel.cols}), dtype=np.int64)",
    ]
    for k in np.unique(lengths):
        k = int(k)
        mask = lengths == k
        outs = segment_out[mask]
        gather = (starts[mask][:, None] + np.arange(k)[None, :]).ravel()
        lines += [
            f"_ROW{k} = np.array({_int_list(kernel.term_row[gather])}, dtype=np.int64)",
            f"_COEFF{k} = np.array({_int_list(coeff[gather])}, dtype=np.int64)",
            f"_OUT{k} = np.array({_int_list(outs)}, dtype=np.int64)",
        ]
        if k == 1:
            # One term per output: the gather-scale is the whole sum.
            body.append(f"    out[:, _OUT{k}] = batch[:, _ROW{k}] * _COEFF{k}")
        else:
            body.append(
                f"    out[:, _OUT{k}] = (batch[:, _ROW{k}] * _COEFF{k})"
                f".reshape(batch.shape[0], {len(outs)}, {k}).sum(axis=2)"
            )
    body.append("    return out")
    lines += [""] + body
    return "\n".join(lines) + "\n"


def source_header(source: str) -> dict[str, Any]:
    """Parse the comment header of generated source into a dict.

    Returns ``{"kind": ..., "format_version": int, "fingerprint": ...,
    "rows": int, "cols": int, "terms": int, ...}``.  Raises
    ``ValueError`` for anything that does not carry a well-formed
    :data:`CODEGEN_KIND` header — the same strictness the ``.npz``
    readers apply to their JSON headers.
    """
    lines = source.splitlines()
    if not lines or lines[0].strip() != f"# {CODEGEN_KIND}":
        raise ValueError(f"not a {CODEGEN_KIND} module (missing kind header)")
    header: dict[str, Any] = {"kind": CODEGEN_KIND}
    for line in lines[1:]:
        if not line.startswith("# "):
            break
        for token in line[2:].split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"malformed codegen header line: {line!r}")
            header[key] = int(value) if value.lstrip("-").isdigit() else value
    if "format_version" not in header or "fingerprint" not in header:
        raise ValueError("codegen header missing format_version/fingerprint")
    return header


def load_execute(source: str, fingerprint: str) -> Callable[[np.ndarray], np.ndarray]:
    """Validate generated source and return its ``execute`` callable.

    Refuses (``ValueError``) source whose kind, format version, or
    fingerprint does not match the kernel being served; only validated
    source is executed.  Does **not** touch the ``codegen`` stage
    counter — loading cached source is exactly the work the counter
    proves warm deploys avoid.
    """
    header = source_header(source)
    if header["format_version"] != CODEGEN_FORMAT_VERSION:
        raise ValueError(
            f"codegen format version {header['format_version']} is not "
            f"supported (expected {CODEGEN_FORMAT_VERSION})"
        )
    if header["fingerprint"] != fingerprint:
        raise ValueError(
            f"generated source fingerprint {header['fingerprint']!r} does not "
            f"match kernel fingerprint {fingerprint!r}"
        )
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<{CODEGEN_KIND}:{fingerprint[:12]}>", "exec"), namespace)
    execute = namespace.get("execute")
    if not callable(execute):
        raise ValueError("generated source defines no execute(batch) callable")
    return execute
