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
  over-allocating when the pool is exhausted — before it mutates
  anything — which is the runtime's cue to swap out a victim
  (:meth:`swap_out`) and resume it later from the host copy
  (:meth:`swap_in`), bit for bit;
* besides its blocks, every request appended through :meth:`append_rows`
  keeps a contiguous float64 host *mirror* of its K and V (``[cap, H]``
  each, grown in place by capacity doubling).  :meth:`gathered` returns
  zero-copy ``[len, H]`` views of it — bitwise the rows that went in,
  in order, exactly what :meth:`PackedKVCache.keys`/``values`` stack for
  the oracle — so a decode step reads its context without regathering
  it from the blocks.  The pool stays the authoritative, modelled
  store: :meth:`swap_out` copies the host copy out of the blocks, drops
  the mirror, and :meth:`swap_in` rebuilds it through
  :meth:`append_rows`;
* :meth:`append_lengths` is the cost plane's append: the same block
  bookkeeping and pressure check on a row count alone, with no rows
  written and no mirror built.
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
        #: swapped-out requests: ``rid -> (len, [len, 2, H] host copy)``;
        #: a length-only request keeps no copy (``None``)
        self._swapped: dict[int, tuple[int, np.ndarray | None]] = {}
        #: contiguous host mirrors: ``rid -> ([cap, H] K, [cap, H] V)``
        self._mirrors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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

    def append_rows(
        self, rid: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append ``[n, H]`` key/value rows to ``rid``'s paged history
        and to its contiguous mirror."""
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
        # the pool: one slice copy per block the rows land in
        table, block = self._tables[rid], self.block_tokens
        done = 0
        while done < n:
            pos = length + done
            blk, slot = table[pos // block], pos % block
            take = min(block - slot, n - done)
            self._pool[blk, slot : slot + take, 0] = k_rows[done : done + take]
            self._pool[blk, slot : slot + take, 1] = v_rows[done : done + take]
            done += take
        # the mirror: grown by capacity doubling, then appended in place
        mirror = self._mirrors.get(rid)
        need = length + n
        if mirror is None or mirror[0].shape[0] < need:
            cap = need if mirror is None else max(need, 2 * mirror[0].shape[0])
            grown = (
                np.empty((cap, self.hidden), self.dtype),
                np.empty((cap, self.hidden), self.dtype),
            )
            if mirror is not None:
                grown[0][:length] = mirror[0][:length]
                grown[1][:length] = mirror[1][:length]
            self._mirrors[rid] = mirror = grown
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

    def _walk(self, rid: int) -> np.ndarray:
        """``rid``'s ``[len, 2, H]`` K/V copied out of its pool blocks."""
        length = self.context_len(rid)
        out = np.empty((length, 2, self.hidden), self.dtype)
        # a table holds exactly the blocks its length needs
        for i, blk in enumerate(self._tables[rid]):
            lo = i * self.block_tokens
            take = min(length - lo, self.block_tokens)
            out[lo : lo + take] = self._pool[blk, :take]
        return out

    def free(self, rid: int) -> None:
        """Return ``rid``'s blocks to the pool (request finished)."""
        self._mirrors.pop(rid, None)
        self._lengths.pop(rid, None)
        table = self._tables.pop(rid, None)
        if table is None:
            self._swapped.pop(rid, None)
            return
        self._free.extend(reversed(table))

    # -- eviction / preemption -----------------------------------------

    def swap_out(self, rid: int) -> int:
        """Evict ``rid`` to a host copy; returns the tokens swapped.

        The request's blocks return to the pool and its mirror is
        dropped; its K/V survive in a host-side copy taken from the
        blocks, so :meth:`swap_in` restores them bit for bit — a
        preempted request resumes from its KV, never recomputes it.  A
        length-only request keeps its length alone.
        """
        length = self.context_len(rid)
        rows = self._mirrors.pop(rid, None) is not None
        host = self._walk(rid) if rows else None
        self._swapped[rid] = (length, host)
        table = self._tables.pop(rid)
        self._free.extend(reversed(table))
        self._lengths.pop(rid)
        self.evictions += 1
        return length

    def swap_in(self, rid: int) -> int:
        """Restore a swapped-out request into fresh blocks (and, for a
        request with rows, a fresh mirror)."""
        entry = self._swapped.get(rid)
        if entry is None:
            raise KeyError(f"request {rid} is not swapped out")
        length, host = entry
        need = -(-length // self.block_tokens)
        if need > len(self._free):
            raise KVPressureError(
                f"swap_in of request {rid} needs {need} blocks, only "
                f"{len(self._free)} free"
            )
        del self._swapped[rid]
        if host is None:
            self.append_tokens(rid, length)
        else:
            self.append_rows(rid, host[:, 0], host[:, 1])
        self.swap_ins += 1
        return length
