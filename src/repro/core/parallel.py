"""Worker-pool execution of independent work units.

Length buckets share no data — each bucket reads its own rows of the
packed QKV tensor and scatters to a disjoint row set of the output —
the row parts of a row-local op write disjoint rows, and independent
serving requests are likewise disjoint.  This module provides the
executor every fan-out uses: :class:`BucketExecutor`, a thin thread
pool (NumPy's BLAS and ufunc loops release the GIL, so threads give real
parallelism on the matmul-heavy bodies) with a serial fast path when
``workers == 1`` or there is only one item, so the default
configuration adds zero overhead and an identical execution order.

Deterministic assignment: :func:`partition_weighted` cuts an item list
into *contiguous* chunks balanced by weight, and :func:`row_parts` cuts
rows at multiples of :data:`ROW_ALIGN`, so the same inputs always split
the same way — and a one-thread GEMM cut there keeps its bits.

Thread-safety contract: submitted callables must not allocate from a
shared :class:`~repro.core.memory_planner.LiveArena` (the engine takes
every buffer a fan-out writes before it starts) and must not touch the
module-global engine/dispatch switches (callers set those before the
fan-out).

Host default: a thread with no executor active runs on a process-wide
executor as wide as the host's usable cores (:func:`current_executor`).
OpenBLAS threads would oversubscribe the cores the pool already uses,
so every real fan-out pins OpenBLAS to one thread for its length and
restores the previous count afterwards (:func:`blas_pinned`).  The
packed encoder runs on one BLAS thread whether it fans out or not, and
decode's small-M GEMMs keep every BLAS thread.  Without a BLAS thread
control the default stays serial.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BucketExecutor",
    "SERIAL_EXECUTOR",
    "blas_pinned",
    "current_executor",
    "host_executor",
    "one_blas_thread",
    "partition_weighted",
    "row_parts",
    "use_executor",
    "use_workers",
]

#: a one-thread GEMM cut into row parts at multiples of this many rows
#: gives the whole call's bits: it is a multiple of every BLAS
#: micro-kernel height (OpenBLAS blocks ``m`` in 4 to 32 rows, 12 for
#: one x86_64 dgemm kernel), so every row stays in the micro-tile the
#: whole call puts it in.  A cut elsewhere moves rows between the main
#: and the tail kernels, which round differently at some ``k``
ROW_ALIGN = 96

#: the fewest multiply-adds a row part of a split GEMM may have.
#: OpenBLAS runs products below about 10^6 on separate small-matrix
#: kernels, which round differently, so a part must stay above that on
#: any build
SPLIT_MIN_MULADDS = 1 << 22


def row_parts(rows: int, parts: int) -> list[slice]:
    """``rows`` cut into at most ``parts`` contiguous, near-equal row
    ranges, every inner boundary a multiple of :data:`ROW_ALIGN` and
    every range at least half of it (one range below two alignments)."""
    parts = max(1, min(int(parts), rows // ROW_ALIGN))
    bounds = [0]
    for i in range(1, parts):
        bounds.append(int(rows * i / parts / ROW_ALIGN + 0.5) * ROW_ALIGN)
    bounds.append(rows)
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


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


class BlasThreads:
    """Get/set OpenBLAS's thread count through the library numpy loaded."""

    #: (setter, getter) symbol pairs: numpy's bundled scipy-openblas
    #: (64-bit interface), then a system OpenBLAS
    SYMBOLS = (
        ("scipy_openblas_set_num_threads64_",
         "scipy_openblas_get_num_threads64_"),
        ("openblas_set_num_threads", "openblas_get_num_threads"),
    )

    def __init__(self, lib: ctypes.CDLL, setter: str, getter: str) -> None:
        self._set = getattr(lib, setter)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._get = getattr(lib, getter)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int

    def get(self) -> int:
        return int(self._get())

    def set(self, threads: int) -> None:
        self._set(int(threads))

    @classmethod
    def find(cls) -> "BlasThreads | None":
        """The control of an OpenBLAS already mapped into this process
        (numpy loads it at import), else ``None``."""
        try:
            with open("/proc/self/maps") as maps:
                paths = {
                    line.split()[-1]
                    for line in maps
                    if "openblas" in line.rsplit("/", 1)[-1].lower()
                }
        except OSError:
            return None
        # numpy's own copy first (scipy may have mapped another)
        for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for setter, getter in cls.SYMBOLS:
                if hasattr(lib, setter) and hasattr(lib, getter):
                    return cls(lib, setter, getter)
        return None


_BLAS_UNSET = object()
_blas: "BlasThreads | None | object" = _BLAS_UNSET
_blas_lock = threading.Lock()
#: fan-outs running now, process-wide, and the count the first one saved
_blas_pins = 0
_blas_saved = 1


def blas_threads() -> "BlasThreads | None":
    """The process's OpenBLAS thread control, found once."""
    global _blas
    if _blas is _BLAS_UNSET:
        _blas = BlasThreads.find()
    return _blas  # type: ignore[return-value]


@contextlib.contextmanager
def blas_pinned() -> Iterator[None]:
    """OpenBLAS runs one thread per call inside the block.

    Concurrent blocks on several threads nest: the first one in saves
    the count, the last one out restores it, also when the block
    raises.  A no-op without a BLAS thread control.
    """
    global _blas_pins, _blas_saved
    blas = blas_threads()
    if blas is None:
        yield
        return
    with _blas_lock:
        if _blas_pins == 0:
            _blas_saved = blas.get()
            blas.set(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0:
                blas.set(_blas_saved)


def one_blas_thread(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Run ``fn`` under :func:`blas_pinned`, fanned out or not.

    For attention: OpenBLAS's threaded driver blocks ``k`` (and tiles a
    square ``q @ k.T``) differently from its one-thread driver, so a
    per-head ``probs @ v`` past 384 keys, or an fp64 ``q @ k.T`` past
    about 90, rounds differently by thread count.  A kernel that always
    runs on one BLAS thread gives the same bits inline, on a pool
    worker and on a one-core host.  The packed encoder's projection
    GEMMs follow the same rule (the model pins its whole layer stack):
    at BERT's ``k`` (768, 1024, 3072) both drivers block alike, but at
    some other ``k`` (500, 700, 1000, 2000) they do not.
    """

    @functools.wraps(fn)
    def pinned(*args: Any, **kwargs: Any) -> Any:
        with blas_pinned():
            return fn(*args, **kwargs)

    return pinned


def _enter_worker() -> None:
    """Pool-thread initializer: a worker's own fan-outs run serially
    (submitting back into the pool you are a worker of deadlocks)."""
    _tls.stack = [SERIAL_EXECUTOR]


class BucketExecutor:
    """Run independent callables across ``workers`` threads.

    ``workers == 1`` (the default) never creates a pool: ``map`` runs
    inline in submission order, byte-identical to a plain loop.  Results
    always come back in item order regardless of completion order.  A
    real fan-out runs under :func:`blas_pinned`.
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
                initializer=_enter_worker,
            )
        with blas_pinned():
            return list(self._pool.map(fn, work))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "BucketExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


#: the serial executor: stateless, shared freely
SERIAL_EXECUTOR = BucketExecutor(1)

# The executor stack is *per-thread*: a pool worker thread starts with
# SERIAL_EXECUTOR on its stack and therefore runs its own nested
# fan-outs (e.g. the attention bucket loop inside a serving worker's
# forward) serially — submitting back into the pool you are a worker of is a
# deadlock.
_tls = threading.local()

_host: BucketExecutor | None = None
_host_lock = threading.Lock()


def host_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def host_executor() -> BucketExecutor:
    """The process-wide default: one worker per usable core, or
    :data:`SERIAL_EXECUTOR` on one core or without a BLAS thread control
    (an unpinned fan-out oversubscribes the cores BLAS already uses)."""
    global _host
    if _host is None:
        with _host_lock:
            if _host is None:
                cores = host_cores()
                _host = (
                    BucketExecutor(cores)
                    if cores > 1 and blas_threads() is not None
                    else SERIAL_EXECUTOR
                )
    return _host


def _current_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_executor() -> BucketExecutor:
    """The innermost executor activated *on this thread*, else the host
    default (:func:`host_executor`); always serial on a pool worker."""
    stack = _current_stack()
    return stack[-1] if stack else host_executor()


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
