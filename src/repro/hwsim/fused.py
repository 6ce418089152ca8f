"""The ``fuse`` stage: lower a :class:`LoweredKernel` to a shift-add schedule.

The gate-level engines *simulate* the paper's spatial multiplier — a
cycle loop advancing every serial adder, subtractor, negator and DFF of
the compiled netlist.  But the netlist is itself a mechanical encoding
of a static arithmetic fact: because the matrix is fixed, every output
column is a fixed signed sum of shifted input rows (the CSD shift-add
tree of Sec. III).  :func:`fuse` recovers that fact *from the kernel's
topology* — no plan, no netlist, no matrix required — and packages it as
a :class:`FusedKernel`: per output, the signed CSD terms as flat
``(row, shift, sign)`` integer arrays.

Execution (:class:`FusedCircuit`) is then a handful of vectorized int64
operations over a whole batch — gather the input rows, scale by
``sign << shift``, segment-sum per output — with **no cycle loop and no
per-cycle allocation**.  Results are bit-exact with every gate-level
engine (asserted by the cross-engine equivalence suite), including an
object-dtype fallback for accumulations wider than 62 bits.

How the recovery works
----------------------

Every component output in this architecture is registered, and the
decode window is fixed (``decode_delta``), so delaying a bit-serial
stream by one register stage doubles its decoded value.  Each component
is therefore a linear map on decoded values::

    input r   ->  x_r                  (delay 0)
    DFF       ->  2 * d
    adder     ->  2 * (a + b)
    subtract  ->  2 * (a - b)
    negator   ->  2 * (-b)

A single sweep over the kernel's slots in topological order (netlist
construction order, which the builder guarantees) propagates one sparse
integer linear combination per slot; the combination at each output
probe, divided by ``2**decode_delta``, is exactly that output's row
coefficients — the matrix column the hardware was compiled from.  Each
coefficient is then re-encoded in canonical signed-digit (NAF) form to
produce the ``(row, shift, sign)`` schedule.

Faults break linearity, so fusion refuses fault-bearing kernels and the
fused engine refuses per-call overrides: fault campaigns keep running on
the gate-level engines (the verification oracle), and the serve layer
falls back to ``bitplane`` automatically whenever a deployment has live
faults (see :func:`repro.hwsim.fast.resolve_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bits import signed_range
from repro.core.stages import STAGES

if TYPE_CHECKING:  # pragma: no cover - type-only import (fast imports fused)
    from repro.hwsim.fast import LoweredKernel

__all__ = [
    "FusedKernel",
    "FusedCircuit",
    "fuse",
    "csd_terms",
    "validate_batch",
    "segment_prefixes",
    "term_density",
    "select_variant",
    "DENSITY_THRESHOLD",
]

# Op codes for the topological sweep, assigned per kernel slot.
_OP_NONE, _OP_INPUT, _OP_ADD, _OP_SUB, _OP_NEG, _OP_DFF = range(6)

#: Term-density boundary between the dense fold and the sparse tiers.
#: Below this fraction of ``rows * cols`` the segmented/generated
#: executors do strictly less arithmetic than the dense matmul; above
#: it the BLAS-backed ``batch @ dense`` wins on memory locality.
DENSITY_THRESHOLD = 0.25


def segment_prefixes(term_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment boundaries of a sorted ``term_out`` array.

    Returns ``(starts, segment_out)``: ``starts[k]`` is the index of the
    first term of segment ``k`` (the shape ``np.add.reduceat`` wants)
    and ``segment_out[k]`` is the output column that segment feeds.
    Empty input yields two empty int64 arrays — outputs with no terms
    simply never appear (they stay zero in the scatter target).
    """
    term_out = np.ascontiguousarray(term_out, dtype=np.int64)
    if len(term_out) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, term_out[1:] != term_out[:-1]])
    return starts, term_out[starts]


def term_density(terms: int, rows: int, cols: int) -> float:
    """Fraction of the ``rows x cols`` area carrying CSD terms."""
    area = rows * cols
    return terms / area if area else 0.0


def select_variant(terms: int, rows: int, cols: int, result_width: int) -> str:
    """Pick the fused executor variant for a kernel's term statistics.

    Pure policy on scalars so callers holding only artifact *metadata*
    (term count persisted in the ``.npz`` header) can decide without
    loading term arrays or materializing the dense fold.  ``>62``-bit
    kernels always run segmented (exact Python integers); sparse
    schedules (density below :data:`DENSITY_THRESHOLD`) take the
    generated executor; dense ones keep the BLAS fold.
    """
    if result_width > 62:
        return "segmented"
    if term_density(terms, rows, cols) < DENSITY_THRESHOLD:
        return "generated"
    return "dense"


def validate_batch(vectors: np.ndarray, rows: int, input_width: int) -> np.ndarray:
    """Shape/range checks shared by every engine (gate-level and fused).

    Returns the batch as a 2-D int64 array (the input itself when it
    already is one); raises ``ValueError`` for anything that is not a
    ``(batch, rows)`` set of ``s{input_width}`` vectors.  The range test
    is one min/max pass; the mask is built only to name the offending
    value.
    """
    arr = np.atleast_2d(np.asarray(vectors))
    if arr.ndim != 2:
        raise ValueError(
            f"expected a (batch, rows) array of vectors, got shape {arr.shape}"
        )
    if arr.shape[1] != rows:
        raise ValueError(
            f"vector length {arr.shape[1]} != matrix rows {rows} "
            f"(batch shape {arr.shape})"
        )
    arr = arr.astype(np.int64, copy=False)
    lo, hi = signed_range(input_width)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        bad = int(arr[(arr < lo) | (arr > hi)][0])
        raise ValueError(f"input {bad} does not fit in s{input_width}")
    return arr


def csd_terms(value: int) -> list[tuple[int, int]]:
    """Canonical signed-digit (NAF) decomposition of an integer.

    Returns ``[(shift, sign), ...]`` with ``sign`` in ``{-1, +1}`` such
    that ``value == sum(sign << shift)``, no two shifts adjacent — the
    minimal-term signed-power-of-two form the paper's hardware wires up.
    """
    value = int(value)
    terms: list[tuple[int, int]] = []
    shift = 0
    while value:
        if value & 1:
            digit = 2 - (value & 3)  # +1 when value % 4 == 1, else -1
            terms.append((shift, digit))
            value -= digit
        value >>= 1
        shift += 1
    return terms


@dataclass(frozen=True, eq=False)
class FusedKernel:
    """The shift-add schedule of one compiled multiplier, as flat arrays.

    One entry per signed CSD term: output ``term_out[i]`` accumulates
    ``term_sign[i] * (x[term_row[i]] << term_shift[i])``.  Terms are
    sorted by output (then row, then shift), so execution is a gather, a
    scale, and one segmented reduction — no cycle loop.

    Like :class:`~repro.hwsim.fast.LoweredKernel`, a fused kernel is
    deliberately *dumb data*: picklable and serializable
    (:func:`repro.core.serialize.fused_to_npz`).  ``fingerprint`` is the
    plan fingerprint of the kernel it was fused from; fused kernels are
    always fault-free by construction (:func:`fuse` refuses fault
    snapshots).
    """

    fingerprint: str
    rows: int
    cols: int
    input_width: int
    result_width: int
    term_out: np.ndarray
    term_row: np.ndarray
    term_shift: np.ndarray
    term_sign: np.ndarray

    #: Array fields in declaration order — the .npz serializer contract.
    ARRAY_FIELDS = ("term_out", "term_row", "term_shift", "term_sign")

    #: Scalar fields (the .npz JSON header).
    SCALAR_FIELDS = ("fingerprint", "rows", "cols", "input_width", "result_width")

    def __post_init__(self) -> None:
        for name in self.ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"fused field {name} must be 1-D, got {arr.shape}")
            object.__setattr__(self, name, arr)
        n = len(self.term_out)
        for name in self.ARRAY_FIELDS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"fused field {name} disagrees in length")
        if n:
            if np.any(np.diff(self.term_out) < 0):
                raise ValueError("term_out must be sorted ascending")
            if self.term_out[0] < 0 or self.term_out[-1] >= self.cols:
                raise ValueError("term_out references an output out of range")
            if np.any((self.term_row < 0) | (self.term_row >= self.rows)):
                raise ValueError("term_row references a row out of range")
            if np.any(self.term_shift < 0):
                raise ValueError("term_shift must be non-negative")
            if np.any(np.abs(self.term_sign) != 1):
                raise ValueError("term_sign entries must be +1 or -1")

    @property
    def terms(self) -> int:
        """Total signed shift-add terms across all outputs."""
        return len(self.term_out)

    def coefficients(self) -> np.ndarray:
        """The ``(rows, cols)`` integer matrix the schedule computes.

        Reassembled from the CSD terms with exact Python integers, so it
        is valid at any width; for a kernel fused from a compile of
        matrix ``V`` this reproduces ``V`` exactly — a self-check the
        tests exploit.
        """
        out = np.zeros((self.rows, self.cols), dtype=object)
        for o, r, s, g in zip(
            self.term_out, self.term_row, self.term_shift, self.term_sign
        ):
            out[int(r), int(o)] += int(g) << int(s)
        return out

    def equivalent(self, other: "FusedKernel") -> bool:
        """Field-by-field equality (arrays compared element-wise)."""
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if field.name in self.ARRAY_FIELDS:
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


def fuse(kernel: "LoweredKernel") -> FusedKernel:
    """Recover the static shift-add schedule from a lowered kernel.

    A pure function of the kernel's adder/subtractor/negator/DFF
    topology: one sweep in slot order propagates each component's sparse
    linear combination of input rows, and the combination at every
    output probe (deflated by the decode window) is that output's exact
    integer coefficient per row, re-encoded as CSD terms.

    Raises ``ValueError`` for kernels with a fault snapshot (a stuck
    gate is not a linear map — run those on the gate-level engines) and
    for topologies this builder never produces (unordered operands,
    coefficients not divisible by the decode window).
    """
    STAGES.increment("fuse")
    if kernel.has_faults:
        raise ValueError(
            "cannot fuse a kernel with a fault snapshot; faults break the "
            "static shift-add schedule — execute it on a gate-level engine"
        )
    if len(kernel.input_idx) != kernel.rows:
        raise ValueError(
            f"kernel has {len(kernel.input_idx)} input slots for "
            f"{kernel.rows} rows"
        )
    size = kernel.size
    op = np.full(size, _OP_NONE, dtype=np.int8)
    op_a = np.full(size, -1, dtype=np.int64)
    op_b = np.full(size, -1, dtype=np.int64)
    row_of = np.full(size, -1, dtype=np.int64)
    op[kernel.input_idx] = _OP_INPUT
    row_of[kernel.input_idx] = np.arange(len(kernel.input_idx))
    op[kernel.add_idx] = _OP_ADD
    op_a[kernel.add_idx] = kernel.add_a
    op_b[kernel.add_idx] = kernel.add_b
    op[kernel.sub_idx] = _OP_SUB
    op_a[kernel.sub_idx] = kernel.sub_a
    op_b[kernel.sub_idx] = kernel.sub_b
    op[kernel.neg_idx] = _OP_NEG
    op_b[kernel.neg_idx] = kernel.neg_b
    op[kernel.dff_idx] = _OP_DFF
    op_a[kernel.dff_idx] = kernel.dff_d

    # One sparse linear combination {row: integer coefficient} per slot.
    # Slot order is construction order, which the builder keeps
    # topological; verified below rather than assumed.
    values: list[dict[int, int] | None] = [None] * size
    for slot in range(size):
        code = op[slot]
        if code == _OP_NONE:  # ConstantZero (culled column)
            values[slot] = {}
            continue
        if code == _OP_INPUT:
            values[slot] = {int(row_of[slot]): 1}
            continue
        combo: dict[int, int] = {}
        if code != _OP_NEG:
            a = int(op_a[slot])
            if not 0 <= a < slot or values[a] is None:
                raise ValueError(f"kernel slot {slot} is not topologically ordered")
            for r, c in values[a].items():
                combo[r] = c << 1
        if code != _OP_DFF:
            b = int(op_b[slot])
            if not 0 <= b < slot or values[b] is None:
                raise ValueError(f"kernel slot {slot} is not topologically ordered")
            scale = -1 if code in (_OP_SUB, _OP_NEG) else 1
            for r, c in values[b].items():
                total = combo.get(r, 0) + scale * (c << 1)
                if total:
                    combo[r] = total
                else:
                    combo.pop(r, None)
        values[slot] = combo

    window = 1 << kernel.decode_delta
    term_out: list[int] = []
    term_row: list[int] = []
    term_shift: list[int] = []
    term_sign: list[int] = []
    for j, probe in enumerate(kernel.probe_idx):
        combo = values[int(probe)]
        assert combo is not None
        for r in sorted(combo):
            coeff = combo[r]
            if coeff % window:
                raise ValueError(
                    f"output {j} row {r}: coefficient {coeff} is not aligned "
                    f"to the decode window (2**{kernel.decode_delta})"
                )
            for shift, sign in csd_terms(coeff >> kernel.decode_delta):
                term_out.append(j)
                term_row.append(r)
                term_shift.append(shift)
                term_sign.append(sign)

    return FusedKernel(
        fingerprint=kernel.fingerprint,
        rows=kernel.rows,
        cols=kernel.cols,
        input_width=kernel.input_width,
        result_width=kernel.result_width,
        term_out=np.array(term_out, dtype=np.int64),
        term_row=np.array(term_row, dtype=np.int64),
        term_shift=np.array(term_shift, dtype=np.int64),
        term_sign=np.array(term_sign, dtype=np.int64),
    )


class FusedCircuit:
    """Execute a :class:`FusedKernel`: ``y = Mx`` with no cycle loop.

    Three executor variants, all bit-exact with the gate engines:

    ``dense``
        The CSD terms are folded once into the per-``(row, out)``
        integer coefficient matrix they sum to; execution is a single
        int64 matrix product per batch.  O(rows * cols) per lane
        regardless of sparsity — fastest when the schedule is dense.
    ``segmented``
        CSR-style: gather the term rows, scale by ``sign << shift``,
        one ``np.add.reduceat`` per batch over the segment boundaries
        from :func:`segment_prefixes`.  O(terms) per lane.  Kernels
        wider than 62 bits always run this variant over exact Python
        integers (object dtype), matching the gate engines' decode
        types; narrow kernels run it in int64 — safe because the NAF
        absolute-term sum is at most ``4/3`` of the coefficient sum, so
        every partial sum is bounded by ``(4/3) * 2**61 < 2**63``.
    ``generated``
        The schedule compiled to specialized numpy source by
        :mod:`repro.hwsim.codegen` — same O(terms) arithmetic with the
        indexing arrays baked in, outputs grouped by term count so each
        group reduces with a contiguous fixed-width reshape-sum, and
        degenerate shapes (empty schedule, one term per output)
        collapsed at generation time.

    ``variant="auto"`` (the default) picks via :func:`select_variant`;
    only the chosen variant's state is materialized, so selecting
    against the dense fold never allocates it.  Pass ``source=`` to
    reuse cached generated source (skipping the ``codegen`` stage).
    """

    #: Executor variants, in preference order for dense → sparse.
    VARIANTS = ("dense", "segmented", "generated")

    def __init__(
        self,
        kernel: FusedKernel,
        variant: str = "auto",
        source: str | None = None,
    ) -> None:
        self.kernel = kernel
        self._wide = kernel.result_width > 62
        if variant == "auto":
            variant = select_variant(
                kernel.terms, kernel.rows, kernel.cols, kernel.result_width
            )
        if variant not in self.VARIANTS:
            raise ValueError(
                f"unknown fused executor variant {variant!r}; "
                f"expected one of {('auto',) + self.VARIANTS}"
            )
        if self._wide and variant != "segmented":
            raise ValueError(
                f"kernels wider than 62 bits require the segmented executor, "
                f"not {variant!r}"
            )
        if variant == "generated":
            from repro.hwsim import codegen  # deferred: codegen imports us

            if source is None:
                source = codegen.generate_source(kernel)
            self._generated = codegen.load_execute(source, kernel.fingerprint)
            self.source = source
        elif variant == "segmented":
            self._starts, self._segment_out = segment_prefixes(kernel.term_out)
            if self._wide:
                # Exact object path: coefficients as Python integers.
                self._coeff = np.array(
                    [
                        int(g) << int(s)
                        for g, s in zip(kernel.term_sign, kernel.term_shift)
                    ],
                    dtype=object,
                )
            else:
                self._coeff = kernel.term_sign * np.left_shift(
                    np.int64(1), kernel.term_shift
                )
        else:
            dense = np.zeros((kernel.rows, kernel.cols), dtype=np.int64)
            scaled = kernel.term_sign * np.left_shift(np.int64(1), kernel.term_shift)
            np.add.at(dense, (kernel.term_row, kernel.term_out), scaled)
            self._dense = dense
        self.variant = variant

    def multiply_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Evaluate a ``(B, rows)`` batch; returns ``(B, cols)``."""
        batch = validate_batch(vectors, self.kernel.rows, self.kernel.input_width)
        return self.execute(batch)

    def multiply(self, vector: np.ndarray | list[int]) -> np.ndarray:
        """One vector through the schedule; returns the ``(cols,)`` product."""
        values = np.asarray(vector).ravel()
        return self.multiply_batch(values[None, :])[0]

    def execute(self, batch: np.ndarray) -> np.ndarray:
        """Run a pre-validated int64 ``(B, rows)`` batch (the hot path)."""
        kernel = self.kernel
        if self.variant == "dense":
            return batch @ self._dense
        if self.variant == "generated":
            return self._generated(batch)
        dtype = object if self._wide else np.int64
        out = np.zeros((batch.shape[0], kernel.cols), dtype=dtype)
        if batch.shape[0] == 0 or kernel.terms == 0:
            return out
        gathered = batch[:, kernel.term_row]
        if self._wide:
            gathered = gathered.astype(object)
        sums = np.add.reduceat(gathered * self._coeff, self._starts, axis=1)
        out[:, self._segment_out] = sums
        return out
