"""End-to-end BERT encoder model with selectable optimisation preset.

:class:`BertEncoderModel` stacks :data:`BertConfig.num_layers` encoder
layers.  With ``remove_padding`` enabled, the zero-padding algorithm runs
*once* per forward pass (prefix-sum kernel + pack), activations stay
packed across all layers, and the output is unpacked at the very end —
matching the pipeline of Figure 2 (c).

Two steady-state accelerators bolt on per instance:

* ``arena`` — a :class:`~repro.core.memory_planner.LiveArena` backing
  every large activation (packed hidden states, attention scratch, FFN
  temporaries).  After the first forward per shape, the model performs
  zero large ndarray allocations; the returned tensor is a **view into
  the arena, valid until the next forward** on the same model.
* ``graph_cache`` — a :class:`~repro.gpusim.graph.GraphCache`.  The
  first forward per ``(device, config, preset, forced path, mask)`` key
  captures the full kernel-launch stream; same-key forwards replay it
  into the caller's context (bit-identical records, hooks still fire)
  instead of re-pricing every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.dispatch import forced_mha_path
from repro.core.config import BertConfig, OptimizationConfig
from repro.core.encoder import encoder_layer_packed, encoder_layer_padded
from repro.core.engine import is_vectorized
from repro.core.estimator import estimate_model_tiled
from repro.core.memory_planner import (
    ActivationTrace,
    ArenaAllocator,
    LiveArena,
    plan_live_forward,
    plan_live_megabatch,
)
from repro.core.padding import (
    CrossRequestPacking,
    pack,
    packing_from_lengths,
    packing_from_mask,
    unpack,
)
from repro.core.parallel import current_executor, partition_weighted
from repro.core.sharding import ShardSpec
from repro.core.weights import ModelWeights, init_model_weights
from repro.gpusim.graph import GraphCache, capture
from repro.gpusim.stream import (
    ExecutionContext,
    NullContext,
    resolve_context,
)


@dataclass(frozen=True)
class ForwardResult:
    """Output of one forward pass plus cost-model statistics."""

    hidden: np.ndarray
    time_us: float
    kernel_count: int
    flops: float
    dram_bytes: float


class BertEncoderModel:
    """A BERT encoder stack on the simulated-GPU substrate.

    Parameters
    ----------
    config:
        Architecture (heads, head size, layers, FFN scale).
    opt:
        Which ByteTransformer optimisations are active; pick one of the
        :data:`repro.core.config.STEPWISE_PRESETS` to replicate a Figure
        13 variant.
    weights:
        Shared :class:`ModelWeights`; initialised from ``seed`` when
        omitted.  Pass the same weights to different presets to assert
        numerical equivalence.
    arena:
        Optional :class:`LiveArena`; engages arena-backed execution on
        the vectorized packed float64 pipeline (the output becomes a
        view valid until the next forward).
    graph_cache:
        Optional :class:`GraphCache` for launch-stream capture/replay.
    """

    def __init__(
        self,
        config: BertConfig | None = None,
        opt: OptimizationConfig | None = None,
        weights: ModelWeights | None = None,
        seed: int = 0,
        arena: LiveArena | None = None,
        graph_cache: GraphCache | None = None,
    ) -> None:
        self.config = config or BertConfig()
        self.opt = opt or OptimizationConfig()
        self.arena = arena
        self.graph_cache = graph_cache
        if weights is not None and weights.num_layers != self.config.num_layers:
            raise ValueError(
                f"weights have {weights.num_layers} layers, config wants "
                f"{self.config.num_layers}"
            )
        self.weights = weights or init_model_weights(self.config, seed)
        if self.weights.hidden_size != self.config.hidden_size:
            raise ValueError(
                f"weights hidden size {self.weights.hidden_size} != config "
                f"hidden size {self.config.hidden_size}"
            )
        # warm the per-layer weight/bias splits and per-head views once so
        # the forward path never re-slices parameters
        self.weights.precompute(self.config.num_heads)
        #: every input of each arena plan already reserved (tile or
        #: lengths, max_seq_len, dtype, forced path, dispatch device;
        #: a chunked megabatch's output plan is keyed by tile and dtype)
        self._reserved_plans: set[tuple] = set()

    def forward(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        *,
        ctx: ExecutionContext | None = None,
    ) -> np.ndarray:
        """Run the stack on a padded ``[B, S, H]`` input with its mask.

        Always returns the padded ``[B, S, H]`` output (zeros on padding
        when the packed pipeline ran).  With an :attr:`arena`, the
        returned tensor is an arena view valid until the next forward;
        with a :attr:`graph_cache`, repeat shapes replay the captured
        launch stream instead of re-pricing every kernel.
        """
        if x.ndim != 3:
            raise ValueError(f"expected [B, S, H] input, got {x.shape}")
        batch, seq_len, hidden = x.shape
        if hidden != self.config.hidden_size:
            raise ValueError(
                f"hidden {hidden} != config hidden {self.config.hidden_size}"
            )
        if mask.shape != (batch, seq_len):
            raise ValueError(
                f"mask shape {mask.shape} != ({batch}, {seq_len})"
            )
        context = resolve_context(ctx)
        flat = x.reshape(batch * seq_len, hidden)

        if self.graph_cache is None or isinstance(context, NullContext):
            out = self._forward_numeric(flat, mask, batch, seq_len, context)
            return out.reshape(batch, seq_len, hidden)

        # launch-graph path: the stream depends only on (device, model
        # shape, preset, dispatch override, mask) — never on x's values —
        # so same-key forwards replay the captured stream into the
        # caller's context (hooks fire per replayed launch) while the
        # numerics run launch-free under a NullContext on the caller's
        # device, which picks the kernels the capture ran
        key = (
            context.device,
            self.config,
            self.opt,
            forced_mha_path(),
            mask.shape,
            mask.tobytes(),
        )
        graph = self.graph_cache.get(key)
        if graph is None:
            graph, out = capture(
                context.device,
                lambda cap_ctx: self._forward_numeric(
                    flat, mask, batch, seq_len, cap_ctx
                ),
            )
            self.graph_cache.put(key, graph)
        else:
            out = self._forward_numeric(
                flat, mask, batch, seq_len, NullContext(context.device)
            )
        graph.replay(context)
        return out.reshape(batch, seq_len, hidden)

    def forward_packed(
        self,
        x_tile: np.ndarray,
        mega: CrossRequestPacking,
        *,
        ctx: ExecutionContext | None = None,
        shard: "ShardSpec | None" = None,
    ) -> np.ndarray:
        """Run the stack over a pre-packed cross-request megabatch tile.

        ``x_tile`` is a ``[tile, H]`` buffer whose first
        ``mega.total_tokens`` rows are the merged requests' valid tokens
        (see :func:`repro.core.padding.pack_segments`); the quantization
        tail is ignored on input and zeroed on output.  Returns the
        ``[tile, H]`` packed output — scatter it back per request with
        :func:`repro.core.padding.scatter_segments`.

        The two planes split the way continuous serving needs them to:

        * **numerics** run launch-free over the *real* segments only
          (``x_tile[:total]`` under the merged :class:`PackedSeqs`, so
          attention sees per-request boundaries and results are bitwise
          what each request would get alone);
        * **cost** is the tile's canonical launch chain
          (:func:`~repro.core.estimator.estimate_model_tiled`), keyed by
          ``(device, config, preset, path, tile)`` in the
          :attr:`graph_cache` — identical megabatch tiles replay one
          captured graph regardless of their exact composition, which is
          what makes the hot serving path graph-replayable.

        With an :attr:`arena`, the backing is pre-reserved from the
        tile's canonical plan (:func:`plan_live_megabatch`) so
        differently-composed megabatches of one tile never regrow it;
        the returned tensor is an arena view valid until the next
        forward on this model.

        ``shard`` prices one tensor-parallel rank's slice of the chain
        (sharded GEMMs + the two all-reduces per layer; the context must
        carry a cluster).  The numeric plane is *not* resharded: a real
        all-reduce sums per-rank partials in a different float order
        than the single-device GEMM, which would break the bitwise
        oracle, so the exact numerics run once while the cost plane
        models each rank's stream — see DESIGN.md §14.
        """
        if not self.opt.remove_padding:
            raise ValueError(
                "forward_packed needs the packed pipeline (remove_padding)"
            )
        hidden = self.config.hidden_size
        if x_tile.ndim != 2 or x_tile.shape != (mega.tile, hidden):
            raise ValueError(
                f"expected [{mega.tile}, {hidden}] tile buffer, got "
                f"{x_tile.shape}"
            )
        context = resolve_context(ctx)
        # cost plane: price (or replay) the canonical tile launch chain.
        # A NullContext caller owns pricing elsewhere (the serving
        # runtime prices the tile on its fault-hooked context), so the
        # chain is skipped entirely rather than estimated into the void.
        if not isinstance(context, NullContext):
            estimate_model_tiled(
                context,
                self.config,
                self.opt,
                mega.tile,
                mega.packing.max_seq_len,
                shard=shard,
                cache=self.graph_cache,
            )
        # numeric plane: real segments only, launch-free
        return self._forward_numeric_packed(x_tile, mega)

    def prereserve_tiles(
        self,
        tiles: tuple[int, ...] | list[int],
        max_seq_len: int,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        """Pre-size the arena for every tile's canonical megabatch plan.

        Continuous serving calls this once up front with the batcher's
        tile set, so even the *first* megabatch of each tile runs from
        converged backing — no warm-up ``np.empty`` overflow allocs.
        A no-op without an arena or for an already-reserved plan.
        """
        if self.arena is None or not self.opt.remove_padding:
            return
        # megabatch numerics run under a NullContext: attention
        # dispatches on its device
        device = NullContext().device
        path = forced_mha_path()
        for tile in tiles:
            key = (tile, max_seq_len, np.dtype(dtype).str, path, device)
            if key not in self._reserved_plans:
                self._reserve(
                    key,
                    plan_live_megabatch(
                        self.config, self.opt, tile, max_seq_len,
                        device=device, mha=path, dtype=dtype,
                    ),
                )

    def _reserve(self, key: tuple, plans: list[ActivationTrace]) -> None:
        """Reserve the largest replay of ``plans``, the plans of ``key``."""
        alignment = self.arena.alignment
        self.arena.reserve(
            max(ArenaAllocator(alignment).replay(p) for p in plans)
        )
        self._reserved_plans.add(key)

    def _segment_chunks(
        self, mega: CrossRequestPacking
    ) -> list[tuple[int, int]] | None:
        """Deterministic contiguous segment chunks for executor fan-out.

        ``None`` when fan-out cannot pay: a serial executor, a single
        segment, or fewer than two resulting chunks.  Chunks are
        balanced by segment token count (the row count every projection
        GEMM scales with) via
        :func:`~repro.core.parallel.partition_weighted`, so the same
        megabatch always splits identically — the deterministic
        segment→worker assignment behind the bitwise contract.
        """
        executor = current_executor()
        if executor.workers <= 1 or mega.num_segments <= 1:
            return None
        chunks = partition_weighted(
            mega.packing.seq_lens, executor.workers
        )
        return chunks if len(chunks) > 1 else None

    def _run_packed_chunks(
        self,
        x_valid: np.ndarray,
        mega: CrossRequestPacking,
        chunks: list[tuple[int, int]],
        out: np.ndarray,
    ) -> np.ndarray:
        """Fan the megabatch's segment chunks out over the executor.

        Each worker runs the whole layer stack over its contiguous row
        range — issuing **one** tile GEMM per projection covering all of
        its segments — and writes its rows of ``out`` in place.

        Bitwise-equal to the serial megabatch by construction: BLAS
        row-splits ``m`` (chunking rows never changes GEMM bits), every
        non-GEMM op is row- or segment-local, and attention buckets are
        composition-invariant (the megabatch-vs-per-request equivalence
        the packing tests pin down).
        """
        context = NullContext()
        offsets = mega.packing.seq_offsets
        max_seq_len = mega.packing.max_seq_len
        sub_packs = [
            packing_from_lengths(
                mega.packing.seq_lens[s0:s1], max_seq_len, cache=None
            )
            for s0, s1 in chunks
        ]

        def run_chunk(i: int) -> None:
            s0, s1 = chunks[i]
            r0, r1 = int(offsets[s0]), int(offsets[s1])
            h = x_valid[r0:r1]
            for layer in self.weights.layers:
                h = encoder_layer_packed(
                    h,
                    layer,
                    self.config,
                    self.opt,
                    sub_packs[i],
                    ctx=context,
                )
            out[r0:r1] = h

        current_executor().map(run_chunk, range(len(chunks)))
        return out

    def _forward_numeric_packed(
        self, x_tile: np.ndarray, mega: CrossRequestPacking
    ) -> np.ndarray:
        """Megabatch numerics under a NullContext; returns [tile, H]."""
        context = NullContext()
        hidden = self.config.hidden_size
        total = mega.total_tokens
        packing = mega.packing
        x_valid = x_tile[:total]
        dt = x_tile.dtype
        arena = self.arena
        chunks = self._segment_chunks(mega)
        use_arena = (
            arena is not None
            and is_vectorized()
            and np.issubdtype(dt, np.floating)
        )
        if use_arena:
            if chunks is None:
                self.prereserve_tiles((mega.tile,), packing.max_seq_len, dt)
            else:
                # the chunk workers take nothing from the arena but the
                # [tile, H] output
                key = ("output", mega.tile, dt.str)
                if key not in self._reserved_plans:
                    plan = ActivationTrace()
                    plan.take("output", (mega.tile, hidden), dt)
                    self._reserve(key, [plan])
            arena.begin()
        if chunks is not None:
            out = (
                arena.take("output", (mega.tile, hidden), dt)
                if use_arena
                else np.empty((mega.tile, hidden), dtype=dt)
            )
            self._run_packed_chunks(x_valid, mega, chunks, out)
            out[total:] = 0.0
            return out
        if use_arena:
            cur = arena.take("h0", (total, hidden), dt)
            nxt = arena.take("h1", (total, hidden), dt)
            np.copyto(cur, x_valid)
            for layer in self.weights.layers:
                encoder_layer_packed(
                    cur,
                    layer,
                    self.config,
                    self.opt,
                    packing,
                    ctx=context,
                    scratch=arena,
                    out=nxt,
                )
                cur, nxt = nxt, cur
            out = arena.take("output", (mega.tile, hidden), dt)
            np.copyto(out[:total], cur)
            out[total:] = 0.0
            return out
        hidden_state = x_valid
        for layer in self.weights.layers:
            hidden_state = encoder_layer_packed(
                hidden_state,
                layer,
                self.config,
                self.opt,
                packing,
                ctx=context,
            )
        out = np.zeros((mega.tile, hidden), dtype=x_tile.dtype)
        out[:total] = hidden_state
        return out

    def _forward_numeric(
        self,
        flat: np.ndarray,
        mask: np.ndarray,
        batch: int,
        seq_len: int,
        context: ExecutionContext,
    ) -> np.ndarray:
        """One forward on the flat ``[B*S, H]`` tensor; returns flat out."""
        hidden = self.config.hidden_size
        if self.opt.remove_padding:
            packing = packing_from_mask(mask, ctx=context)
            arena = self.arena
            if (
                arena is not None
                and is_vectorized()
                and np.issubdtype(flat.dtype, np.floating)
            ):
                tokens = packing.total_tokens
                dt = flat.dtype
                # pre-size the backing from the shape's symbolic plan so
                # even the first forward per shape is served entirely
                # from the backing — zero warm-up np.empty overflows
                path = forced_mha_path()
                key = (
                    packing.seq_lens.tobytes(),
                    seq_len,
                    dt.str,
                    path,
                    context.device,
                )
                if key not in self._reserved_plans:
                    plan = plan_live_forward(
                        self.config, self.opt, packing.seq_lens, seq_len,
                        device=context.device, mha=path, dtype=dt,
                    )
                    self._reserve(key, [plan])
                arena.begin()
                cur = arena.take("h0", (tokens, hidden), dt)
                nxt = arena.take("h1", (tokens, hidden), dt)
                pack(flat, packing, ctx=context, out=cur)
                for layer in self.weights.layers:
                    encoder_layer_packed(
                        cur,
                        layer,
                        self.config,
                        self.opt,
                        packing,
                        ctx=context,
                        scratch=arena,
                        out=nxt,
                    )
                    cur, nxt = nxt, cur
                out = arena.take("output", (batch * seq_len, hidden), dt)
                unpack(cur, packing, ctx=context, out=out)
                return out
            hidden_state = pack(flat, packing, ctx=context)
            for layer in self.weights.layers:
                hidden_state = encoder_layer_packed(
                    hidden_state,
                    layer,
                    self.config,
                    self.opt,
                    packing,
                    ctx=context,
                )
            return unpack(hidden_state, packing, ctx=context)
        out = flat
        for layer in self.weights.layers:
            out = encoder_layer_padded(
                out, layer, self.config, self.opt, mask, ctx=context
            )
        # zero the padding so padded and packed pipelines agree exactly
        return out * mask.reshape(batch * seq_len, 1)

    def forward_with_stats(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        *,
        ctx: ExecutionContext | None = None,
    ) -> ForwardResult:
        """Forward pass returning output plus the run's cost statistics."""
        context = ctx if ctx is not None else ExecutionContext()
        before_time = context.elapsed_us()
        before_kernels = context.kernel_count()
        before_flops = context.total_flops()
        before_bytes = context.total_dram_bytes()
        hidden = self.forward(x, mask, ctx=context)
        return ForwardResult(
            hidden=hidden,
            time_us=context.elapsed_us() - before_time,
            kernel_count=context.kernel_count() - before_kernels,
            flops=context.total_flops() - before_flops,
            dram_bytes=context.total_dram_bytes() - before_bytes,
        )
