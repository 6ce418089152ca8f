"""Compile-pipeline stage counters.

The matrix-to-hardware path is an explicit four-stage pipeline with a
serializable artifact at every boundary::

    matrix --plan--> MatrixPlan --build--> Netlist --lower--> LoweredKernel
                                                                  --fuse--> FusedKernel

Each stage is instrumented with a process-global counter so callers can
*prove* which stages ran — the warm-start contract of the serve layer's
compile cache ("a kernel-cache hit performs zero ``build``/``lower``
work") is asserted against these counters by tests and by
``benchmarks/bench_compile_cold_start.py``, not inferred from timings.

Counted stages:

* ``"plan"`` — :func:`repro.core.plan.plan_matrix` (recoding + widths);
* ``"build"`` — :func:`repro.hwsim.builder.build_circuit` (netlist
  construction);
* ``"lower"`` — :func:`repro.hwsim.fast.lower` (netlist to flat
  index/opcode arrays);
* ``"fuse"`` — :func:`repro.hwsim.fused.fuse` (kernel topology to the
  static CSD shift-add schedule the cycle-loop-free engine executes);
* ``"codegen"`` — :func:`repro.hwsim.codegen.generate_source` (fused
  schedule to specialized numpy source).  Off the serving path: no
  deploy runs it, so it stays 0 on cold and warm deploys alike.

The registry is intentionally open: any future stage (RTL emission,
place-and-route modelling) can count itself without touching this
module.
"""

from __future__ import annotations

import threading
from collections import Counter

__all__ = ["StageCounters", "STAGES"]


class StageCounters:
    """Thread-safe monotonic counters, one per named pipeline stage."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()

    def increment(self, stage: str, n: int = 1) -> None:
        """Record ``n`` executions of ``stage``."""
        with self._lock:
            self._counts[stage] += n

    def count(self, stage: str) -> int:
        with self._lock:
            return self._counts[stage]

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def delta(self, since: dict[str, int]) -> dict[str, int]:
        """Per-stage growth relative to an earlier :meth:`snapshot`.

        Stages absent from both sides are omitted; a stage that never
        fired in the interval reports 0 only if it existed before.
        """
        now = self.snapshot()
        keys = set(now) | set(since)
        return {k: now.get(k, 0) - since.get(k, 0) for k in keys}

    def reset(self) -> None:
        """Zero every counter (test isolation only; production code
        should use :meth:`snapshot` + :meth:`delta` instead)."""
        with self._lock:
            self._counts.clear()


#: Process-global pipeline counters; see the module docstring.
STAGES = StageCounters()
