"""Paged KV-cache arena: block tables over one contiguous store per stream.

TurboTransformers showed decoder serving needs block-managed dynamic
memory; vLLM-style paged attention made the block table the unit of
bookkeeping.  This module keeps that bookkeeping — per-request block
tables handed out of a fixed pool, and swap-based eviction under memory
pressure — while each stream's K/V rows live in exactly one place, its
contiguous mirror.  PackInfer's point is that contiguous per-request KV
is what batched decode attention reads; the block tables are the
pressure model, not a second copy of the rows.

Contract highlights:

* every request appended through :meth:`append_rows` keeps one
  contiguous float64 host *mirror* of its K and V (``[cap, H]`` each,
  grown in place by capacity doubling).  It is the only numeric copy of
  the rows.  :meth:`gathered` returns zero-copy ``[len, H]`` views of
  it — bitwise the rows that went in, in order, exactly what
  :meth:`PackedKVCache.keys`/``values`` stack for the oracle;
* K/V rows are stored in the engine's float64 numerics (like the
  megabatch arena); the *modelled* deployment bytes the telemetry gauges
  report are FP16 (:data:`~repro.gpusim.memory.BYTES_PER_ELEMENT`) and
  come from block counts, matching
  :attr:`~repro.decoder.generation.PackedKVCache.packed_bytes`.
  The float32 decode-cell weights meet these rows in float64 GEMMs, so
  the serving runtime casts them to float64 once per runtime rather than
  letting numpy cast them on every call — the same dgemm on the same
  float64 operands, hence the same bits;
* :meth:`append_rows` raises :class:`KVPressureError` instead of
  over-allocating when the block pool is exhausted — before it mutates
  anything — which is the runtime's cue to swap out a victim
  (:meth:`swap_out`) and resume it later (:meth:`swap_in`), bit for
  bit.  A swap moves the mirror, it never copies it: :meth:`swap_out`
  returns the stream's blocks and keeps its mirror as the host copy,
  :meth:`swap_in` claims fresh blocks and puts the same mirror back;
* capacity doubling keeps each resident mirror under twice its
  stream's length, and the block tables cap the total length at
  :attr:`capacity_tokens`, so the resident mirrors hold at most
  ``2 * capacity_tokens`` rows.  :attr:`overflow_allocs` counts the
  mirror growths and restores that take :attr:`resident_rows` past that
  bound — 0 in every correct run, the gate the ``decode_serving`` bench
  section enforces; a stream freed or swapped out while still counted
  resident trips it;
* :meth:`append_tokens` is the cost plane's append: the same block
  bookkeeping and pressure check on a row count alone, with no rows
  written and no mirror built.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.memory import BYTES_PER_ELEMENT

#: default tokens per KV block — small enough that ragged contexts waste
#: little tail, large enough that block tables stay short
DEFAULT_KV_BLOCK_TOKENS = 16


class KVPressureError(ValueError):
    """The block pool cannot hold the requested KV rows.

    Raised instead of silently allocating past capacity; the serving
    runtime reacts by swapping out a victim request (preemption) or
    deferring the admission, never by growing the pool mid-run.
    """


class PagedKVArena:
    """Fixed-size KV blocks with per-request block tables.

    ``capacity_tokens`` is rounded up to a whole number of
    ``block_tokens`` blocks.  All bookkeeping is deterministic: block
    ids are handed out from a free stack in LIFO order, so the same
    request sequence always produces the same tables.
    """

    def __init__(
        self,
        hidden: int,
        capacity_tokens: int,
        *,
        block_tokens: int = DEFAULT_KV_BLOCK_TOKENS,
    ) -> None:
        if hidden <= 0:
            raise ValueError(f"hidden must be positive, got {hidden}")
        if block_tokens <= 0:
            raise ValueError(
                f"block_tokens must be positive, got {block_tokens}"
            )
        if capacity_tokens < block_tokens:
            raise ValueError(
                f"capacity_tokens {capacity_tokens} below one block "
                f"({block_tokens} tokens)"
            )
        self.hidden = int(hidden)
        self.block_tokens = int(block_tokens)
        self.num_blocks = -(-int(capacity_tokens) // int(block_tokens))
        self._free: list[int] = list(range(self.num_blocks - 1, -1, -1))
        self._tables: dict[int, list[int]] = {}
        self._lengths: dict[int, int] = {}
        #: swapped-out requests: ``rid -> (len, mirror)``, the mirror
        #: moved out of :attr:`_mirrors` as the host copy; a length-only
        #: request keeps no copy (``None``)
        self._swapped: dict[
            int, tuple[int, tuple[np.ndarray, np.ndarray] | None]
        ] = {}
        #: contiguous host mirrors: ``rid -> ([cap, H] K, [cap, H] V)``
        self._mirrors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: rows (capacity, not length) of the mirrors in :attr:`_mirrors`
        self.resident_rows = 0
        #: mirror growths and restores past ``2 * capacity_tokens``
        #: resident rows
        self.overflow_allocs = 0
        self.evictions = 0
        self.swap_ins = 0
        self.peak_live_blocks = 0

    # -- capacity ------------------------------------------------------

    @property
    def capacity_tokens(self) -> int:
        return self.num_blocks * self.block_tokens

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def live_blocks(self) -> int:
        return self.num_blocks - len(self._free)

    @property
    def live_tokens(self) -> int:
        """Valid (non-tail) KV tokens resident in the pool."""
        return sum(self._lengths.values())

    @property
    def live_bytes(self) -> int:
        """Modelled FP16 deployment bytes of the live blocks (K + V)."""
        return (
            self.live_blocks
            * self.block_tokens
            * 2
            * self.hidden
            * BYTES_PER_ELEMENT
        )

    @property
    def peak_live_bytes(self) -> int:
        return (
            self.peak_live_blocks
            * self.block_tokens
            * 2
            * self.hidden
            * BYTES_PER_ELEMENT
        )

    @property
    def occupancy(self) -> float:
        """Valid-token fraction of the live blocks (1.0 = no tail waste)."""
        live_slots = self.live_blocks * self.block_tokens
        return self.live_tokens / live_slots if live_slots else 1.0

    def blocks_needed(self, rid: int, new_tokens: int) -> int:
        """Blocks :meth:`append_rows` would have to claim for ``rid``."""
        if new_tokens < 0:
            raise ValueError(f"new_tokens must be >= 0, got {new_tokens}")
        length = self._lengths.get(rid, 0)
        have = len(self._tables.get(rid, ()))
        need = -(-(length + new_tokens) // self.block_tokens)
        return max(0, need - have)

    # -- request bookkeeping -------------------------------------------

    def has(self, rid: int) -> bool:
        return rid in self._tables

    def is_swapped(self, rid: int) -> bool:
        return rid in self._swapped

    def context_len(self, rid: int) -> int:
        if rid not in self._lengths:
            raise KeyError(f"request {rid} holds no KV blocks")
        return self._lengths[rid]

    def block_table(self, rid: int) -> tuple[int, ...]:
        if rid not in self._tables:
            raise KeyError(f"request {rid} holds no KV blocks")
        return tuple(self._tables[rid])

    def _claim(self, rid: int, count: int) -> int:
        """Block bookkeeping for appending ``count`` tokens to ``rid``.

        Checks pressure before it touches anything, then claims the
        blocks and advances the length.  Returns the length before the
        append.
        """
        if rid in self._swapped:
            raise KVPressureError(
                f"request {rid} is swapped out; swap_in before appending"
            )
        grab = self.blocks_needed(rid, count)
        if grab > len(self._free):
            raise KVPressureError(
                f"request {rid} needs {grab} KV blocks, only "
                f"{len(self._free)} free of {self.num_blocks}"
            )
        table = self._tables.setdefault(rid, [])
        length = self._lengths.setdefault(rid, 0)
        for _ in range(grab):
            table.append(self._free.pop())
        self.peak_live_blocks = max(self.peak_live_blocks, self.live_blocks)
        self._lengths[rid] = length + count
        return length

    def _hold(self, rows: int) -> None:
        """Count ``rows`` more resident mirror rows; a resident set past
        ``2 * capacity_tokens`` rows is an overflow."""
        self.resident_rows += rows
        if self.resident_rows > 2 * self.capacity_tokens:
            self.overflow_allocs += 1

    def _release(self, rid: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Take ``rid``'s mirror (if any) out of the resident set."""
        mirror = self._mirrors.pop(rid, None)
        if mirror is not None:
            self.resident_rows -= mirror[0].shape[0]
        return mirror

    def append_rows(
        self, rid: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append ``[n, H]`` key/value rows to ``rid``'s block table and
        to its contiguous mirror."""
        if k_rows.ndim != 2 or k_rows.shape[1] != self.hidden:
            raise ValueError(
                f"expected [n, {self.hidden}] key rows, got {k_rows.shape}"
            )
        if v_rows.shape != k_rows.shape:
            raise ValueError("key and value rows must match")
        if rid in self._tables and rid not in self._mirrors:
            raise ValueError(
                f"request {rid} holds KV lengths only; it takes append_tokens"
            )
        n = k_rows.shape[0]
        length = self._claim(rid, n)
        # the mirror: grown by capacity doubling, then appended in place
        mirror = self._mirrors.get(rid)
        need = length + n
        if mirror is None or mirror[0].shape[0] < need:
            had = 0 if mirror is None else mirror[0].shape[0]
            cap = max(need, 2 * had)
            grown = (
                np.empty((cap, self.hidden), np.float64),
                np.empty((cap, self.hidden), np.float64),
            )
            if mirror is not None:
                grown[0][:length] = mirror[0][:length]
                grown[1][:length] = mirror[1][:length]
            self._mirrors[rid] = mirror = grown
            self._hold(cap - had)
        mirror[0][length:need] = k_rows
        mirror[1][length:need] = v_rows

    def append_tokens(self, rid: int, count: int) -> None:
        """Account ``count`` more tokens to ``rid`` without their rows.

        The cost plane's append: the block bookkeeping and pressure
        check of :meth:`append_rows`, but no row is written and no
        mirror is built, so the request can never be :meth:`gathered`.
        """
        if rid in self._mirrors:
            raise ValueError(
                f"request {rid} holds K/V rows; it takes append_rows"
            )
        self._claim(rid, count)

    def gathered(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        """``rid``'s contiguous ``([len, H], [len, H])`` keys and values.

        Zero-copy, read-only views of the request's mirror — bitwise
        the rows that went in, in order, exactly what
        :meth:`PackedKVCache.keys`/``values`` stack for the oracle.  A
        later append writes past ``len`` (or into a grown copy), so a
        view taken now keeps its rows.
        """
        length = self.context_len(rid)
        mirror = self._mirrors.get(rid)
        if mirror is None:
            raise ValueError(f"request {rid} holds KV lengths only")
        keys, values = mirror[0][:length], mirror[1][:length]
        keys.flags.writeable = False
        values.flags.writeable = False
        return keys, values

    def free(self, rid: int) -> None:
        """Return ``rid``'s blocks to the pool (request finished)."""
        self._release(rid)
        self._lengths.pop(rid, None)
        table = self._tables.pop(rid, None)
        if table is None:
            self._swapped.pop(rid, None)
            return
        self._free.extend(reversed(table))

    # -- eviction / preemption -----------------------------------------

    def swap_out(self, rid: int) -> int:
        """Evict ``rid`` to the host; returns the tokens swapped.

        The request's blocks return to the pool and its mirror moves,
        uncopied, to the swapped set as the host copy, so
        :meth:`swap_in` restores it bit for bit — a preempted request
        resumes from its KV, never recomputes it.  A length-only
        request keeps its length alone.
        """
        length = self.context_len(rid)
        self._swapped[rid] = (length, self._release(rid))
        table = self._tables.pop(rid)
        self._free.extend(reversed(table))
        self._lengths.pop(rid)
        self.evictions += 1
        return length

    def swap_in(self, rid: int) -> int:
        """Restore a swapped-out request into fresh blocks, putting its
        mirror (if it has one) back in place."""
        entry = self._swapped.get(rid)
        if entry is None:
            raise KeyError(f"request {rid} is not swapped out")
        length, mirror = entry
        need = -(-length // self.block_tokens)
        if need > len(self._free):
            raise KVPressureError(
                f"swap_in of request {rid} needs {need} blocks, only "
                f"{len(self._free)} free"
            )
        del self._swapped[rid]
        self._claim(rid, length)
        if mirror is not None:
            self._mirrors[rid] = mirror
            self._hold(mirror[0].shape[0])
        self.swap_ins += 1
        return length
