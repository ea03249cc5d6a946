"""Worker-pool execution of independent work units.

Length buckets share no data — each bucket reads its own gather of the
packed QKV tensor and scatters to a disjoint row set of the output — and
independent serving requests are likewise disjoint.  This module provides
the executor both fan-outs use: :class:`BucketExecutor`, a thin thread
pool (NumPy's BLAS and ufunc loops release the GIL, so threads give real
parallelism on the matmul-heavy bucket bodies) with a serial fast path
when ``workers == 1`` or there is only one item, so the default
configuration adds zero overhead and an identical execution order.

Deterministic assignment: :func:`partition_weighted` cuts an item list
into *contiguous* chunks balanced by weight, so the same inputs always
land on the same worker in the same order — the property the bitwise
serial-equivalence contract rests on.

Thread-safety contract: submitted callables must not allocate from a
shared :class:`~repro.core.memory_planner.LiveArena` (the engine
pre-acquires every bucket's scratch before fanning out) and must not
touch the module-global engine/dispatch switches (callers set those
before the fan-out).
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BucketExecutor",
    "SERIAL_EXECUTOR",
    "current_executor",
    "partition_weighted",
    "use_executor",
    "use_workers",
]

def partition_weighted(
    weights: Sequence[float] | np.ndarray,
    parts: int,
    *,
    quadratic: bool = False,
) -> list[tuple[int, int]]:
    """Cut ``range(len(weights))`` into ≤ ``parts`` contiguous chunks.

    Chunks are balanced by cumulative weight (each cut lands where the
    running total crosses ``i/parts`` of the whole) and every chunk is
    non-empty.  The result depends only on ``(weights, parts)`` — the
    deterministic segment→worker assignment that keeps parallel outputs
    bitwise equal to the serial path.

    ``quadratic=True`` balances by the *squares* of the weights.  For
    sequence lengths that is the Σlen² attention-work balance the
    unpadded-BERT scaling literature calls for: attention scales with
    len² per segment, so balancing raw token counts systematically
    overloads whichever device drew the long sequences.  Because every
    cut lands at most one item past the ideal fractional split, each
    chunk's weight is within ``max(w)`` (or ``max(w²)`` in quadratic
    mode) of the ideal ``total/parts`` — the bound the property tests
    pin down.
    """
    w = np.asarray(weights, dtype=np.float64)
    if quadratic:
        w = w * w
    n = int(w.shape[0])
    if n == 0:
        return []
    parts = max(1, min(int(parts), n))
    if parts == 1:
        return [(0, n)]
    cum = np.cumsum(w)
    total = float(cum[-1])
    bounds = [0]
    for i in range(1, parts):
        target = total * i / parts
        j = int(np.searchsorted(cum, target))
        j = max(j, bounds[-1] + 1)  # never an empty chunk
        j = min(j, n - (parts - i))  # leave room for the rest
        bounds.append(j)
    bounds.append(n)
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]


class BucketExecutor:
    """Run independent callables across ``workers`` threads.

    ``workers == 1`` (the default) never creates a pool: ``map`` runs
    inline in submission order, byte-identical to a plain loop.  Results
    always come back in item order regardless of completion order.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    @property
    def kind(self) -> str:
        """``"serial"`` or ``"thread"`` — how :meth:`map` fans out."""
        return "serial" if self.workers == 1 else "thread"

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        """``[fn(item) for item in items]``, fanned out when it pays off."""
        work: Sequence[Any] = list(items)
        if self.workers == 1 or len(work) <= 1:
            return [fn(item) for item in work]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="bucket-worker",
            )
        return list(self._pool.map(fn, work))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "BucketExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


#: the default executor: serial, stateless, shared freely
SERIAL_EXECUTOR = BucketExecutor(1)

# The executor stack is *per-thread*: a pool worker thread starts with
# an empty stack and therefore runs its own nested fan-outs (e.g. the
# attention bucket loop inside a megabatch segment chunk) serially —
# submitting back into the pool you are a worker of is a deadlock.
_tls = threading.local()


def _current_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_executor() -> BucketExecutor:
    """The innermost executor activated *on this thread*, else serial."""
    stack = _current_stack()
    return stack[-1] if stack else SERIAL_EXECUTOR


@contextlib.contextmanager
def use_executor(executor: BucketExecutor) -> Iterator[BucketExecutor]:
    """Make ``executor`` current (for this thread) within the block."""
    stack = _current_stack()
    stack.append(executor)
    try:
        yield executor
    finally:
        popped = stack.pop()
        assert popped is executor, "use_executor stack corrupted"


@contextlib.contextmanager
def use_workers(workers: int) -> Iterator[BucketExecutor]:
    """Shorthand: a fresh ``workers``-wide executor, shut down on exit."""
    executor = BucketExecutor(workers)
    try:
        with use_executor(executor):
            yield executor
    finally:
        executor.shutdown()
