"""Activation-memory accounting for the encoder pipelines.

The paper's second motivation for zero padding is memory: "these padded
zeros also introduce significant memory overhead that can hinder a large
Transformer model from being efficiently deployed".  This module makes
that claim measurable:

* :class:`ActivationTrace` records the alloc/free sequence of every
  intermediate tensor a pipeline materialises (mirroring the launch
  sequences of :mod:`repro.core.estimator`);
* :func:`peak_live_bytes` gives the lower bound any allocator must pay;
* :class:`ArenaAllocator` is a best-fit offset allocator with free-list
  reuse — the strategy TurboTransformer's run-time memory scheduler uses
  — whose arena size upper-bounds a real deployment's activation pool.

The interesting output is the padded-vs-packed comparison: the unfused
padded pipelines must hold the quadratic ``B x H x S x S`` score tensor,
the packed fused pipelines either never materialise it (short kernel) or
hold only the ``sum(len_i^2)`` valid region (grouped kernel).

Live execution
--------------
:class:`LiveArena` promotes the offline accounting into an actual
allocator: one backing byte buffer, best-fit offsets from
:class:`ArenaAllocator`, and :meth:`LiveArena.take` handing out ndarray
*views* into it.  The vectorized engine requests every large
intermediate (packed QKV, attention scores, GELU/LN temporaries) from
the arena, so a steady-state forward — once the backing buffer has
converged for the shape — performs **zero** large ndarray allocations.
:func:`plan_live_forward` is the matching offline plan, equal event for
event to the engine's take/release sequence in the engine's own element
width (unlike :func:`trace_encoder_layer`, which models an fp16
deployment).
"""

from __future__ import annotations

import contextlib
import mmap
import os
import threading
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.config import BertConfig, OptimizationConfig
from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.memory import BYTES_PER_ELEMENT, BYTES_PER_FP32


@dataclass(frozen=True)
class MemEvent:
    """One allocation (positive bytes) or free (negative bytes)."""

    tensor: str
    bytes: int


@dataclass
class ActivationTrace:
    """Ordered alloc/free events of one forward pass."""

    events: list[MemEvent] = field(default_factory=list)
    _live: dict[str, int] = field(default_factory=dict)

    def alloc(self, tensor: str, nbytes: float) -> None:
        nbytes = int(nbytes)
        if tensor in self._live:
            raise ValueError(f"tensor {tensor!r} already live")
        if nbytes <= 0:
            raise ValueError(f"{tensor}: allocation must be positive")
        self._live[tensor] = nbytes
        self.events.append(MemEvent(tensor, nbytes))

    def free(self, tensor: str) -> None:
        if tensor not in self._live:
            raise ValueError(f"tensor {tensor!r} is not live")
        nbytes = self._live.pop(tensor)
        self.events.append(MemEvent(tensor, -nbytes))

    def free_all(self) -> None:
        for tensor in list(self._live):
            self.free(tensor)

    def take(
        self, tensor: str, shape: tuple[int, ...], dtype: np.dtype | type
    ) -> None:
        """:meth:`LiveArena.take`, symbolically (so is :meth:`release`):
        the planner runs the engine's own scratch helpers on a trace."""
        nbytes = np.prod(shape, dtype=np.int64) * np.dtype(dtype).itemsize
        self.alloc(tensor, nbytes)

    release = free

    @property
    def live_bytes(self) -> int:
        return sum(self._live.values())

    def __iter__(self) -> Iterator[MemEvent]:
        return iter(self.events)


def peak_live_bytes(trace: ActivationTrace) -> int:
    """Maximum simultaneously-live activation bytes — the floor for any
    allocator."""
    peak = 0
    live = 0
    for event in trace:
        live += event.bytes
        peak = max(peak, live)
    if live != 0:
        raise ValueError(
            f"trace leaks {live} bytes (unbalanced alloc/free)"
        )
    return peak


@dataclass(frozen=True)
class Placement:
    tensor: str
    offset: int
    bytes: int

    @property
    def end(self) -> int:
        return self.offset + self.bytes


class ArenaAllocator:
    """Best-fit offset assignment with free-chunk coalescing.

    Replays an :class:`ActivationTrace` and assigns every allocation a
    byte offset in a single arena, reusing freed space — the model-aware
    allocation strategy of TurboTransformer's memory scheduler.  The
    resulting :attr:`arena_bytes` is what a static activation pool would
    need.
    """

    def __init__(self, alignment: int = 256) -> None:
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        self.alignment = alignment
        self.arena_bytes = 0
        self._placements: dict[str, Placement] = {}
        #: sorted list of (offset, bytes) free chunks inside the arena
        self._free: list[tuple[int, int]] = []

    def _align(self, value: int) -> int:
        a = self.alignment
        return ((value + a - 1) // a) * a

    def allocate(self, tensor: str, nbytes: int) -> Placement:
        if tensor in self._placements:
            raise ValueError(f"tensor {tensor!r} already placed")
        need = self._align(nbytes)
        # best fit: smallest free chunk that holds the request
        best = None
        for i, (off, size) in enumerate(self._free):
            if size >= need and (best is None or size < self._free[best][1]):
                best = i
        if best is not None:
            off, size = self._free.pop(best)
            if size > need:
                self._free.append((off + need, size - need))
                self._free.sort()
            placement = Placement(tensor, off, need)
        else:
            placement = Placement(tensor, self.arena_bytes, need)
            self.arena_bytes += need
        self._placements[tensor] = placement
        return placement

    def release(self, tensor: str) -> None:
        placement = self._placements.pop(tensor, None)
        if placement is None:
            raise ValueError(f"tensor {tensor!r} is not placed")
        self._free.append((placement.offset, placement.bytes))
        self._free.sort()
        # coalesce adjacent free chunks
        merged: list[tuple[int, int]] = []
        for off, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((off, size))
        self._free = merged

    def replay(self, trace: ActivationTrace) -> int:
        """Place a whole trace; returns the final arena size in bytes."""
        for event in trace:
            if event.bytes > 0:
                self.allocate(event.tensor, event.bytes)
            else:
                self.release(event.tensor)
        return self.arena_bytes

    def live_placements(self) -> list[Placement]:
        return sorted(self._placements.values(), key=lambda p: p.offset)


def _reserve_host_mapping() -> mmap.mmap | bytes:
    """One private anonymous mapping of the host's physical memory size.

    No backing can usefully be larger, and pages become resident only
    when touched.  It is advised for transparent huge pages, as NumPy
    advises its own large allocations.  Returns an empty buffer where
    the host refuses the reservation (strict overcommit, an address-space
    limit, no anonymous ``mmap``).
    """
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        mapping = mmap.mmap(
            -1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        )
    except (AttributeError, OSError, OverflowError, ValueError):
        return b""
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel without THP
            mapping.madvise(mmap.MADV_HUGEPAGE)
    return mapping


class LiveArena:
    """A live best-fit arena handing out ndarray views of one byte buffer.

    Usage contract (enforced by the engine, asserted by tests):

    * :meth:`begin` starts a forward pass.  All views from the previous
      forward become invalid — including a model's returned output view,
      which is documented as valid only until the owning model's next
      arena forward.  Because nothing is live at that point, ``begin`` is
      the only place the backing buffer may grow.  It grows in place:
      the first growth reserves one anonymous mapping the size of the
      host's physical memory (only touched pages are resident), and
      every backing is a prefix of it, so a stale view aliases the new
      forward's buffers instead of pinning an old backing.  Only when the
      reservation is refused, or a backing would outgrow it, does the
      backing come from ``np.empty``.
    * :meth:`take` returns a view at a best-fit offset.  During warm-up a
      request may land beyond the current backing buffer; the arena then
      falls back to a plain ``np.empty`` (counted in
      :attr:`overflow_allocs`) and grows the backing at the next
      ``begin``.  For a fixed shape signature the placement sequence is
      deterministic, so by the first post-growth forward every request is
      served from the backing buffer — the steady state.
    * ``take``/``release`` are **not** thread-safe: every fan-out
      (attention buckets, row-split ops) works in buffers taken before
      it starts.
    """

    def __init__(self, alignment: int = 256) -> None:
        self.alignment = alignment
        self._buf = np.empty(0, dtype=np.uint8)
        #: the reserved mapping the backing grows in; None until the first
        #: growth, empty if the host refused it
        self._map: mmap.mmap | bytes | None = None
        self._alloc = ArenaAllocator(alignment)
        #: high-water mark of aligned arena bytes any forward has needed
        self._wanted_bytes = 0
        #: requests served by ``np.empty`` because the backing was too small
        self.overflow_allocs = 0
        self.forwards = 0
        #: raw (unaligned) live bytes right now / peak within this forward
        self._live_raw = 0
        self.peak_live_bytes = 0
        self._raw_sizes: dict[str, int] = {}

    @property
    def footprint_bytes(self) -> int:
        """Current backing-buffer size."""
        return self._buf.nbytes

    @property
    def in_steady_state(self) -> bool:
        """Whether the last forward was served entirely from the backing."""
        return self.forwards > 0 and self._wanted_bytes <= self._buf.nbytes

    def begin(self) -> None:
        """Start a forward pass; previous views are dead, backing may grow."""
        if self._wanted_bytes > self._buf.nbytes:
            if self._map is None:
                self._map = _reserve_host_mapping()
            if self._wanted_bytes <= len(self._map):
                self._buf = np.frombuffer(
                    self._map, np.uint8, count=self._wanted_bytes
                )
            else:
                self._buf = np.empty(self._wanted_bytes, dtype=np.uint8)
        self._alloc = ArenaAllocator(self.alignment)
        self._live_raw = 0
        self.peak_live_bytes = 0
        self._raw_sizes = {}
        self.forwards += 1

    def take(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A ``shape``/``dtype`` view into the arena, registered as ``name``."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        placement = self._alloc.allocate(name, max(1, nbytes))
        self._wanted_bytes = max(self._wanted_bytes, self._alloc.arena_bytes)
        self._raw_sizes[name] = nbytes
        self._live_raw += nbytes
        self.peak_live_bytes = max(self.peak_live_bytes, self._live_raw)
        if placement.end <= self._buf.nbytes:
            view = self._buf[placement.offset : placement.offset + nbytes]
            return view.view(dt).reshape(shape)
        self.overflow_allocs += 1
        return np.empty(shape, dtype=dt)

    def release(self, name: str) -> None:
        """Return ``name``'s chunk to the free list (its view is dead)."""
        self._alloc.release(name)
        self._live_raw -= self._raw_sizes.pop(name)

    def reserve(self, nbytes: int) -> None:
        """Pre-commit backing capacity: the next :meth:`begin` grows the
        buffer to at least ``nbytes``.

        Continuous serving reserves each token-budget tile's plans
        (:func:`plan_live_megabatch`) before its first megabatch, so no
        composition of the tile pays a warm-up ``np.empty`` overflow.
        """
        if nbytes < 0:
            raise ValueError(f"cannot reserve {nbytes} bytes")
        self._wanted_bytes = max(self._wanted_bytes, int(nbytes))


def trace_encoder_layer(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
    trace: ActivationTrace | None = None,
    layer: int = 0,
) -> ActivationTrace:
    """Activation alloc/free sequence of one encoder layer.

    Mirrors the pipelines of :mod:`repro.core.encoder`: the padded
    variants materialise padded intermediates including the quadratic
    score tensor; the packed variants keep everything at
    ``T = sum(len_i)`` rows, and with ``fused_mha`` the score tensor
    either never exists (short kernel) or exists packed plus its
    reduction statistics (grouped kernel).
    """
    t = trace if trace is not None else ActivationTrace()
    batch = len(seq_lens)
    hidden = config.hidden_size
    heads = config.num_heads
    tokens = int(np.sum(seq_lens))
    padded_rows = batch * max_seq_len
    rows = tokens if opt.remove_padding else padded_rows
    p = f"L{layer}."
    elem = BYTES_PER_ELEMENT

    # x (the layer input / residual) is assumed live on entry
    t.alloc(p + "qkv", rows * 3 * hidden * elem)
    if opt.fused_mha:
        from repro.attention.dispatch import mha_kernel

        kernel = mha_kernel(
            int(np.max(seq_lens)), config.head_size,
            opt.fused_mha_short_max_seq, A100_SPEC,
        )
        if kernel == "short":
            # Algorithm III.1: logits live in shared memory only
            t.alloc(p + "attn", tokens * hidden * elem)
        else:
            scores = int(np.sum(seq_lens.astype(np.int64) ** 2)) * heads
            stats_rows = tokens * heads
            t.alloc(p + "scores", scores * elem)
            t.alloc(p + "stats", 2 * stats_rows * BYTES_PER_FP32)
            t.alloc(p + "attn", tokens * hidden * elem)
            t.free(p + "scores")
            t.free(p + "stats")
    else:
        # batched-GEMM MHA: padded Q/K/V copies + padded score tensor
        t.alloc(p + "qkv_split", padded_rows * 3 * hidden * elem)
        t.alloc(p + "scores", batch * heads * max_seq_len * max_seq_len * elem)
        t.alloc(p + "attn", rows * hidden * elem)
        t.free(p + "scores")
        t.free(p + "qkv_split")
    t.free(p + "qkv")

    t.alloc(p + "proj", rows * hidden * elem)
    t.free(p + "attn")
    t.alloc(p + "ln0", rows * hidden * elem)
    if not opt.fuse_layernorm:
        # the unfused pipeline round-trips a temporary through memory
        t.alloc(p + "ln0_tmp", rows * hidden * elem)
        t.free(p + "ln0_tmp")
    t.free(p + "proj")

    t.alloc(p + "ffn_up", rows * config.ffn_size * elem)
    t.alloc(p + "ffn_down", rows * hidden * elem)
    t.free(p + "ffn_up")
    t.alloc(p + "out", rows * hidden * elem)
    if not opt.fuse_layernorm:
        t.alloc(p + "ln1_tmp", rows * hidden * elem)
        t.free(p + "ln1_tmp")
    t.free(p + "ffn_down")
    t.free(p + "ln0")
    t.free(p + "out")
    return t


def trace_model(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
) -> ActivationTrace:
    """Activation trace of the whole stack (input/output buffers included)."""
    trace = ActivationTrace()
    batch = len(seq_lens)
    hidden = config.hidden_size
    tokens = int(np.sum(seq_lens))
    padded = batch * max_seq_len * hidden * BYTES_PER_ELEMENT

    trace.alloc("input", padded)
    if opt.remove_padding:
        trace.alloc("packed_input", tokens * hidden * BYTES_PER_ELEMENT)
        trace.free("input")
    for layer in range(config.num_layers):
        trace_encoder_layer(
            config, opt, seq_lens, max_seq_len, trace=trace, layer=layer
        )
    if opt.remove_padding:
        trace.alloc("output", padded)
        trace.free("packed_input")
    trace.free_all()
    return trace


@dataclass(frozen=True)
class MemoryReport:
    """Peak live bytes and reusing-arena size for one configuration."""

    label: str
    peak_bytes: int
    arena_bytes: int

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 1e6

    @property
    def arena_mb(self) -> float:
        return self.arena_bytes / 1e6


def memory_report(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
) -> MemoryReport:
    """Peak-live and reusing-arena footprint of one configuration."""
    trace = trace_model(config, opt, seq_lens, max_seq_len)
    peak = peak_live_bytes(trace)
    arena = ArenaAllocator().replay(trace)
    return MemoryReport(label=opt.label, peak_bytes=peak, arena_bytes=arena)


def attention_kernel(
    config: BertConfig,
    opt: OptimizationConfig,
    max_len: int,
    device: DeviceSpec,
    mha: str | None,
) -> str | None:
    """The fused kernel a forward's attention runs, or ``None`` (no
    fused MHA, or ``mha`` forces a batched-GEMM path); the planner takes
    its bucket scratch."""
    from repro.attention.dispatch import mha_kernel

    if not opt.fused_mha or mha in ("zeropad", "cublas"):
        return None
    return mha_kernel(
        max_len, config.head_size, opt.fused_mha_short_max_seq, device
    )


def plan_live_forward(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
    *,
    device: DeviceSpec,
    mha: str | None = None,
    dtype: np.dtype | type = np.float64,
    tile: int | None = None,
    tile_split: int = 1,
    split: int = 1,
) -> ActivationTrace:
    """Symbolic take/release sequence of one *live* arena-backed forward.

    Equal, event for event (name, bytes, order), to the
    :class:`LiveArena` takes and releases of the vectorized packed
    engine, then a free of whatever is still live, in ``dtype`` bytes
    (not the fp16 deployment bytes of :func:`trace_encoder_layer`).
    Attention follows the engine's dispatch: unless ``mha`` (the
    dispatch override) forces ``"zeropad"``/``"cublas"``, a fused
    forward picks its kernel with :func:`~repro.attention.dispatch.mha_kernel`
    on ``device`` (that of the context its numerics run under) and takes
    each bucket's :func:`~repro.attention.bucketed.bucket_scratch`
    through the engine's own acquire/release helpers.  ``tile`` plans a
    megabatch forward, whose output is ``[tile, H]``, not the padded
    ``[B * max_seq_len, H]``.  ``tile_split`` is the long kernel's
    (see :func:`~repro.attention.bucketed.tile_split`): a lone bucket
    then takes one ``[L, L]`` tile per run.  ``split`` is the row-part
    count the layers fan out over (see
    :func:`~repro.core.encoder.layer_parts`): each part takes its own
    FFN block buffers (:func:`~repro.core.encoder.ffn_scratch`); every
    other row-split op takes what a whole one does.
    """
    from repro.attention import bucketed
    from repro.core.encoder import ffn_scratch, layer_parts
    from repro.core.padding import packing_from_lengths

    if not opt.remove_padding:
        raise ValueError(
            "the live arena only backs the packed pipeline; "
            "plan_live_forward needs remove_padding"
        )
    lens = np.asarray(seq_lens, dtype=np.int64)
    tokens = int(lens.sum())
    hidden = config.hidden_size
    kernel = attention_kernel(config, opt, int(lens.max()), device, mha)
    buckets = []
    if kernel is not None:
        packing = packing_from_lengths(lens, max_seq_len, cache=None)
        buckets = bucketed.build_buckets(packing)
    ffn = [
        buffer
        for taken in ffn_scratch(
            layer_parts(tokens, hidden, split) or [slice(0, tokens)],
            config.ffn_size,
        )
        for buffer in taken
    ]
    t = ActivationTrace()
    t.take("h0", (tokens, hidden), dtype)
    t.take("h1", (tokens, hidden), dtype)
    for _ in range(config.num_layers):
        t.take("qkv", (tokens, 3 * hidden), dtype)
        t.take("attn", (tokens, hidden), dtype)
        if buckets:
            scratch = bucketed.acquire_bucket_scratch(
                t, kernel, buckets, config.num_heads, config.head_size,
                dtype, tile_split,
            )
            bucketed.release_bucket_scratch(t, scratch)
        t.release("qkv")
        t.take("proj", (tokens, hidden), dtype)
        t.release("attn")
        t.take("ln0", (tokens, hidden), dtype)
        t.take("ln_tmp", (tokens, hidden), dtype)
        t.release("ln_tmp")
        t.release("proj")
        t.take("ffn_down", (tokens, hidden), dtype)
        for name, shape in ffn:
            t.take(name, shape, dtype)
        for name, _ in ffn:
            t.release(name)
        t.take("ln_tmp", (tokens, hidden), dtype)
        t.release("ln_tmp")
        t.release("ffn_down")
        t.release("ln0")
    t.take("output", (tile or len(lens) * max_seq_len, hidden), dtype)
    t.free_all()
    return t


def plan_live_megabatch(
    config: BertConfig,
    opt: OptimizationConfig,
    tile: int,
    max_seq_len: int,
    *,
    device: DeviceSpec,
    mha: str | None = None,
    dtype: np.dtype | type = np.float64,
    split: int = 1,
) -> list[ActivationTrace]:
    """Arena plans that together cover every megabatch of a tile.

    Each plan fills the tile, the most any row-proportional buffer
    takes.  Short-kernel scratch holds ``len^2`` scores per sequence:
    its worst layout is the canonical one
    (:func:`repro.core.estimator.canonical_tile_lengths`) at the longest
    length the short kernel takes.  Long-kernel float64 scratch holds an
    ``[L, L]`` tile per distinct length: its worst layout is the distinct
    lengths ``max_seq_len, max_seq_len - 1, ...`` that fit.  Past the
    short limit both plans are returned; a backing of their largest
    :class:`ArenaAllocator` replay holds any megabatch of the tile, up
    to alignment slack that :meth:`LiveArena.begin` absorbs once.
    ``split`` is the row-part count, as in :func:`plan_live_forward`.
    """
    from repro.attention.dispatch import mha_kernel
    from repro.core.estimator import canonical_tile_lengths

    longest = min(int(tile), int(max_seq_len))
    head, short_max = config.head_size, opt.fused_mha_short_max_seq
    short = max(
        (n for n in range(1, longest + 1)
         if mha_kernel(n, head, short_max, device) == "short"),
        default=0,
    )
    layouts = [canonical_tile_lengths(tile, short)] if short else []
    if short < longest:
        desc = np.arange(longest, 0, -1, dtype=np.int64)
        fit = desc[np.cumsum(desc) <= tile]
        rest = int(tile) - int(fit.sum())
        if rest:
            fit = np.concatenate([fit, canonical_tile_lengths(rest, longest)])
        layouts.append(fit)
    return [
        plan_live_forward(
            config, opt, lens, max_seq_len,
            device=device, mha=mha, dtype=dtype, tile=tile, split=split,
        )
        for lens in layouts
    ]


class ScratchPool:
    """Per-thread reusable scratch for kernel temporaries.

    The allocating kernel paths (no ``out=``) used to burn an
    allocation per call on their element-wise temporaries — for
    erf-GELU at bench shape that is a fresh ``[T, 4H]`` buffer per FFN,
    the #2 host cost after GEMM.  The pool keeps one high-water byte
    buffer per ``(thread, dtype)`` and hands out reshaped views, so in
    steady state the temporaries allocate nothing.

    Contract: a borrowed buffer is valid only until the same thread's
    next :meth:`take` of the same dtype — exactly one live borrow per
    thread per dtype, which the non-nesting kernel epilogues satisfy.
    Thread-locality makes the pool safe under the thread executor.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def take(
        self, shape: tuple[int, ...], dtype: np.dtype | type
    ) -> np.ndarray:
        """A ``shape``/``dtype`` scratch view, reused across calls."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        bufs: dict[str, np.ndarray] = getattr(self._local, "bufs", None)
        if bufs is None:
            bufs = {}
            self._local.bufs = bufs
        buf = bufs.get(dt.str)
        if buf is None or buf.nbytes < nbytes:
            buf = np.empty(max(1, nbytes), dtype=np.uint8)
            bufs[dt.str] = buf
        return buf[:nbytes].view(dt).reshape(shape)


#: the planner-provided scratch the kernel epilogues borrow from
KERNEL_SCRATCH = ScratchPool()
