"""Plumbing shared by every workload: statistics, spans and the result line.

Spans are recorded from this directory only, by wrapping public
functions and methods of the program for the length of a traced phase
(:class:`SpanLog`).  Nothing inside ``src/`` is edited, and the wrappers
are removed again when the phase ends.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import gc
import inspect
import itertools
import json
import resource
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

class Span(NamedTuple):
    seq: int
    parent: int | None  # enclosing span on the same thread, if any
    start: float
    end: float
    size: int | None  # batch rows the call carried, when recorded

    @property
    def duration(self) -> float:
        return self.end - self.start


def percentile_ms(samples_s, q: float) -> float:
    return float(np.percentile(np.asarray(samples_s, dtype=float), q)) * 1e3


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect garbage and move the survivors out of the collector's reach.

    Called after set-up, so full collections in the timed phase do not
    rescan every object set-up left behind (netlists hold many).  Earlier
    frozen objects are thawed first: a torn-down set-up's cycles must
    still be collectable.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def median_time_s(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def union_s(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanLog:
    """In-memory spans around wrapped public callables.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a module-level
    function or a class's method) with a wrapper that records a
    :class:`Span` under ``name`` while ``active`` is true.  Synchronous
    spans know their enclosing span on the same thread (coroutines
    interleave, so theirs is not tracked).  ``size_arg`` names the
    positional argument whose length is the call's batch size.
    ``restore()`` puts every original back.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: dict[str, list[Span]] = defaultdict(list)
        self._originals: list[tuple[object, str, object]] = []
        self._seq = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, size_arg: int | None = None) -> None:
        original = owner.__dict__[attr]
        spans = self.spans[name]
        log = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not log.active:
                    return await original(*args, **kwargs)
                seq = next(log._seq)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    spans.append(Span(seq, None, start, time.perf_counter(), None))

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not log.active:
                    return original(*args, **kwargs)
                stack = log._stack()
                seq = next(log._seq)
                parent = stack[-1] if stack else None
                stack.append(seq)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    size = len(args[size_arg]) if size_arg is not None else None
                    spans.append(Span(seq, parent, start, end, size))

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span the benchmark timed itself (one whole op)."""
        self.spans[name].append(Span(next(self._seq), None, start, end, None))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans.get(name, ())]

    def covered_s(self, name: str) -> float:
        return union_s((s.start, s.end) for s in self.spans.get(name, ()))


def chain_self_s(log: SpanLog, levels: list[str]) -> dict[str, float]:
    """Self time of each level of a call chain, in total seconds.

    ``levels`` names spans from the outermost call inwards; each level's
    spans lie inside the previous level's.  A level's self time is the
    time its spans cover minus the time the next level's spans cover,
    so the chain's self times add up to the outermost level's covered
    time.  Parallel children (column shards on a pool) count once, by
    the interval they jointly cover.
    """
    covered = [log.covered_s(name) for name in levels] + [0.0]
    return {name: covered[k] - covered[k + 1] for k, name in enumerate(levels)}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final stdout line: ``metrics`` maps name -> (value, unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
