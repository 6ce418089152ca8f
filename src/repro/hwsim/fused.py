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

Execution (:class:`FusedCircuit`) folds those terms once into the
``(rows, cols)`` coefficient matrix they sum to and runs one matrix
product per batch, in the narrowest dtype whose exact-integer range
covers the kernel's ``result_width`` — a float32 or float64 BLAS GEMM
for every realistic kernel — with **no cycle loop and no per-cycle
allocation**.  Results are bit-exact with every gate-level engine
(asserted by the cross-engine equivalence suite), including exact
Python integers for accumulations wider than 62 bits.

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
]

# Op codes for the topological sweep, assigned per kernel slot.
_OP_NONE, _OP_INPUT, _OP_ADD, _OP_SUB, _OP_NEG, _OP_DFF = range(6)

#: Compute dtypes of the fused fold, narrowest first, each with ``p``:
#: every integer of magnitude ``<= 2**p`` is exact in it (float32 and
#: float64 mantissas, and ``2**62`` as the int64 bound that keeps
#: ``2**p`` itself representable).  Wider kernels fall through to
#: exact Python integers (``object``).
_EXACT_BITS = (("float32", 24), ("float64", 53), ("int64", 62))


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
    """The compute dtype name of the fused fold for a kernel.

    ``"float32"`` when ``result_width <= 24``, ``"float64"`` when
    ``<= 53``, ``"int64"`` when ``<= 62``, else ``"object"`` (exact
    Python integers).  The name is also the executor's reporting label
    (``fused:float32``).  Only ``result_width`` decides; ``terms``,
    ``rows`` and ``cols`` are accepted so callers holding artifact
    metadata keep one call shape.
    """
    for name, bits in _EXACT_BITS:
        if result_width <= bits:
            return name
    return "object"


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

    The CSD terms are folded once into the ``(rows, cols)`` integer
    coefficient matrix ``V`` they sum to, and each batch runs one
    matrix product ``batch @ V`` in the compute dtype
    :func:`select_variant` picks from the kernel's ``result_width``:
    float32 up to 24 bits, float64 up to 53, int64 up to 62, exact
    Python integers (object dtype, returned as such) above.  The float
    dtypes run as a BLAS GEMM; the result is cast back to int64.

    **Why the float product is exact.**  For input width ``w`` let
    ``S = 2**(w-1) * max_j sum_i |V_ij|``.  Every input satisfies
    ``|a_i| <= 2**(w-1)``, so every product ``a_i * V_ij`` and every
    partial sum of a column's products — whatever order or blocking
    the BLAS uses — is an integer of magnitude ``<= S``.  A dtype whose
    integers are exact up to ``2**p`` therefore rounds nothing while
    ``S <= 2**p``: each operand (an ``a_i`` meeting a nonzero ``V_ij``
    has ``|a_i| <= S``), each product and each sum is representable,
    so every operation returns its exact integer.  The plan's width
    bounds ``S``: per column, ``plan._exact_result_width`` has
    ``hi + |lo| = (2**w - 1) * (p_j + n_j)`` with ``p_j + n_j >=
    sum_i |V_ij|`` and ``hi + |lo| < 2**result_width``, so
    ``S <= 2**result_width``, and the dtype rule above keeps
    ``result_width <= p``.  The bound is not assumed: the constructor
    computes ``S`` on the actual fold and raises ``ValueError`` when it
    exceeds the chosen dtype's exact range (an artifact whose terms are
    wider than its declared ``result_width``).  :attr:`spare_bits` is
    the margin left.
    """

    #: Compute dtype names (and reporting labels), narrowest first.
    VARIANTS = tuple(name for name, _ in _EXACT_BITS) + ("object",)

    def __init__(self, kernel: FusedKernel) -> None:
        self.kernel = kernel
        self.variant = select_variant(
            kernel.terms, kernel.rows, kernel.cols, kernel.result_width
        )
        fold = _fold(kernel)
        column_sums = np.abs(fold).sum(axis=0)
        column_max = int(column_sums.max()) if column_sums.size else 0
        #: Largest magnitude any partial sum of a product can reach.
        self.bound = column_max << (kernel.input_width - 1)
        bits = dict(_EXACT_BITS).get(self.variant)
        if bits is not None and self.bound > 1 << bits:
            raise ValueError(
                f"fused kernel {kernel.fingerprint[:12]} declares "
                f"result_width {kernel.result_width}, but its fold reaches "
                f"{self.bound} > 2**{bits}, past the exact range of "
                f"{self.variant}"
            )
        self._exact_bits = bits
        self._dtype = object if bits is None else np.dtype(self.variant)
        self._coeff = fold.astype(self._dtype)

    @property
    def spare_bits(self) -> int | None:
        """The compute dtype's exact bits minus ``ceil(log2 S)``.

        How much wider the kernel's products could grow before the
        dtype stops being exact; ``None`` for exact Python integers.
        """
        if self._exact_bits is None:
            return None
        need = (self.bound - 1).bit_length() if self.bound else 0
        return self._exact_bits - need

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
        out = batch.astype(self._dtype, copy=False) @ self._coeff
        if self._dtype is object:
            return out
        return out.astype(np.int64, copy=False)


def _fold(kernel: FusedKernel) -> np.ndarray:
    """The exact ``(rows, cols)`` integer matrix the CSD terms sum to.

    int64 when no column's terms can overflow it (term count times the
    largest shifted term stays below ``2**63``), else Python integers,
    so the bound :class:`FusedCircuit` checks is computed on exact
    values whatever the artifact holds.
    """
    counts = np.bincount(kernel.term_out, minlength=kernel.cols)
    if kernel.terms and int(counts.max()) << int(kernel.term_shift.max()) >= 1 << 63:
        return kernel.coefficients()
    fold = np.zeros((kernel.rows, kernel.cols), dtype=np.int64)
    scaled = kernel.term_sign * np.left_shift(np.int64(1), kernel.term_shift)
    np.add.at(fold, (kernel.term_row, kernel.term_out), scaled)
    return fold
