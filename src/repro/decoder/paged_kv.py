"""Paged KV-cache arena: fixed-size blocks over one live backing buffer.

TurboTransformers showed decoder serving needs block-managed dynamic
memory; vLLM-style paged attention made the block table the unit of
bookkeeping.  This module is that design on the repo's own substrate: a
persistent block pool carved out of a :class:`~repro.core.memory_planner.
LiveArena`, per-request block tables, and swap-based eviction under
memory pressure.

Contract highlights:

* the pool is **one** arena tensor ``[blocks, block_tokens, 2, hidden]``
  taken once at construction.  :func:`~repro.core.memory_planner.
  plan_paged_kv_arena` predicts its exact bytes, the constructor
  ``reserve()``s them, so the pool is backed from the first take and
  :attr:`overflow_allocs` stays 0 — the gate the ``decode_serving``
  bench section enforces;
* K/V rows are stored in the engine's float64 numerics (like the
  megabatch arena); the *modelled* deployment bytes the telemetry gauges
  report are FP16 (:data:`~repro.gpusim.memory.BYTES_PER_ELEMENT`),
  matching :attr:`~repro.decoder.generation.PackedKVCache.packed_bytes`.
  The float32 decode-cell weights meet these rows in float64 GEMMs, so
  the serving runtime casts them to float64 once per runtime rather than
  letting numpy cast them on every call — the same dgemm on the same
  float64 operands, hence the same bits;
* :meth:`append_rows` raises :class:`KVPressureError` instead of
  over-allocating when the pool is exhausted — the runtime's cue to
  swap out a victim (:meth:`swap_out`) and resume it later from the
  host copy (:meth:`swap_in`), bit for bit;
* :meth:`gathered` reconstructs a request's contiguous ``[len, H]``
  K/V exactly as :meth:`PackedKVCache.keys`/``values`` would — the
  property that keeps batched paged decode bitwise equal to the looped
  per-request oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.memory_planner import LiveArena, plan_paged_kv_arena, peak_live_bytes
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
        dtype: np.dtype | type = np.float64,
    ) -> None:
        plan = plan_paged_kv_arena(
            hidden, capacity_tokens, block_tokens, dtype=dtype
        )
        self.hidden = int(hidden)
        self.block_tokens = int(block_tokens)
        self.num_blocks = -(-int(capacity_tokens) // int(block_tokens))
        self.dtype = np.dtype(dtype)
        self._arena = LiveArena()
        self._arena.reserve(peak_live_bytes(plan))
        self._arena.begin()
        #: the whole pool: ``[block, slot, 0=K/1=V, hidden]``
        self._pool = self._arena.take(
            "kv_blocks",
            (self.num_blocks, self.block_tokens, 2, self.hidden),
            self.dtype,
        )
        self._free: list[int] = list(range(self.num_blocks - 1, -1, -1))
        self._tables: dict[int, list[int]] = {}
        self._lengths: dict[int, int] = {}
        #: host copies of swapped-out requests: ``rid -> [len, 2, H]``
        self._swapped: dict[int, np.ndarray] = {}
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
    def overflow_allocs(self) -> int:
        """Pool takes served by ``np.empty`` instead of the backing —
        0 forever when the plan-driven reserve sized the backing."""
        return self._arena.overflow_allocs

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

    def append_rows(
        self, rid: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append ``[n, H]`` key/value rows to ``rid``'s paged history."""
        if k_rows.ndim != 2 or k_rows.shape[1] != self.hidden:
            raise ValueError(
                f"expected [n, {self.hidden}] key rows, got {k_rows.shape}"
            )
        if v_rows.shape != k_rows.shape:
            raise ValueError("key and value rows must match")
        if rid in self._swapped:
            raise KVPressureError(
                f"request {rid} is swapped out; swap_in before appending"
            )
        n = k_rows.shape[0]
        grab = self.blocks_needed(rid, n)
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
        for i in range(n):
            blk = table[(length + i) // self.block_tokens]
            slot = (length + i) % self.block_tokens
            self._pool[blk, slot, 0] = k_rows[i]
            self._pool[blk, slot, 1] = v_rows[i]
        self._lengths[rid] = length + n

    def gathered(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        """``rid``'s contiguous ``([len, H], [len, H])`` keys and values.

        The gather copies block views into fresh C-contiguous arrays —
        bitwise the rows that went in, in order, exactly what
        :meth:`PackedKVCache.keys`/``values`` stack for the oracle.
        """
        length = self.context_len(rid)
        table = self._tables[rid]
        k_parts: list[np.ndarray] = []
        v_parts: list[np.ndarray] = []
        remaining = length
        for blk in table:
            take = min(remaining, self.block_tokens)
            k_parts.append(self._pool[blk, :take, 0])
            v_parts.append(self._pool[blk, :take, 1])
            remaining -= take
            if remaining <= 0:
                break
        return np.concatenate(k_parts), np.concatenate(v_parts)

    def free(self, rid: int) -> None:
        """Return ``rid``'s blocks to the pool (request finished)."""
        table = self._tables.pop(rid, None)
        if table is None:
            self._swapped.pop(rid, None)
            self._lengths.pop(rid, None)
            return
        self._free.extend(reversed(table))
        self._lengths.pop(rid, None)

    # -- eviction / preemption -----------------------------------------

    def swap_out(self, rid: int) -> int:
        """Evict ``rid`` to a host copy; returns the tokens swapped.

        The request's blocks return to the pool; its K/V survive in a
        host-side buffer so :meth:`swap_in` restores them bit for bit —
        a preempted request resumes from its KV, never recomputes it.
        """
        length = self.context_len(rid)
        keys, values = self.gathered(rid)
        self._swapped[rid] = np.stack([keys, values], axis=1)  # [len, 2, H]
        table = self._tables.pop(rid)
        self._free.extend(reversed(table))
        self._lengths.pop(rid)
        self.evictions += 1
        return length

    def swap_in(self, rid: int) -> int:
        """Restore a swapped-out request into fresh blocks."""
        host = self._swapped.get(rid)
        if host is None:
            raise KeyError(f"request {rid} is not swapped out")
        need = -(-host.shape[0] // self.block_tokens)
        if need > len(self._free):
            raise KVPressureError(
                f"swap_in of request {rid} needs {need} blocks, only "
                f"{len(self._free)} free"
            )
        del self._swapped[rid]
        self.append_rows(rid, host[:, 0], host[:, 1])
        self.swap_ins += 1
        return host.shape[0]
