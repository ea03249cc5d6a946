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

Every forward runs its numerics one way: launch-free on the caller's
device, whether it is priced or not.  A priced forward takes its launch
stream from :func:`~repro.core.estimator.estimate_model`, which the
lock-step tests hold equal to what the kernels record.  The packed
numerics run on one BLAS thread, and all of their parallelism is the
current executor's — by default one worker per usable host core: each
layer fans its row-local ops out in aligned row parts and its attention
out by length buckets (or, for a batch of one, by tiles), every op
working in buffers taken before it fans out.  The bits are the serial
forward's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.dispatch import forced_mha_path
from repro.core.config import BertConfig, OptimizationConfig
from repro.core.encoder import encoder_layer_packed, encoder_layer_padded
from repro.core.engine import is_vectorized
from repro.core.estimator import estimate_model, estimate_model_tiled
from repro.core.memory_planner import (
    ActivationTrace,
    ArenaAllocator,
    LiveArena,
    plan_live_forward,
    plan_live_megabatch,
)
from repro.core.padding import (
    CrossRequestPacking,
    PackedSeqs,
    pack,
    packing_from_mask,
    unpack,
)
from repro.core.parallel import blas_pinned, current_executor
from repro.core.sharding import ShardSpec
from repro.core.weights import ModelWeights, init_model_weights
from repro.gpusim.device import DeviceSpec
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

    #: reserved plans remembered per model
    RESERVED_PLANS = 1024

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
        #: lengths, max_seq_len, dtype, forced path, dispatch device,
        #: tile split)
        self._reserved_plans: dict[tuple, None] = {}

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
        out = self._forward_numeric(
            flat, mask, batch, seq_len, NullContext(context.device)
        )
        if not isinstance(context, NullContext):
            self._price(context, mask)
        return out.reshape(batch, seq_len, hidden)

    def _price(self, context: ExecutionContext, mask: np.ndarray) -> None:
        """Record a forward's launch stream into ``context``.

        The stream is :func:`~repro.core.estimator.estimate_model`'s for
        the mask's lengths and the attention chain the numerics ran
        (:meth:`_attention_path`); the lock-step tests hold it equal to
        what the kernels record.  It depends only on (device, model
        shape, preset, dispatch override, mask) — never on x's values —
        so with a :attr:`graph_cache` the first forward per key
        captures it and same-key forwards replay it into the caller's
        context (hooks fire per replayed launch).
        """
        path = forced_mha_path()

        def stream(ctx: ExecutionContext) -> None:
            lens = np.asarray(mask.sum(axis=1), dtype=np.int64)
            estimate_model(
                ctx, self.config, self.opt, lens, mask.shape[1],
                mha=self._attention_path(path),
            )

        if self.graph_cache is None:
            stream(context)
            return
        key = (
            context.device,
            self.config,
            self.opt,
            path,
            mask.shape,
            mask.tobytes(),
        )
        graph = self.graph_cache.get(key)
        if graph is None:
            graph, _ = capture(context.device, stream)
            self.graph_cache.put(key, graph)
        graph.replay(context)

    def _attention_path(self, forced: str | None) -> str:
        """The attention chain the numeric pipeline runs under the
        dispatch override ``forced``, as :func:`estimate_model`'s
        ``mha``: the padded pipeline always runs the cuBLAS batched-GEMM
        chain, and the packed one ByteTransformer's fused kernels unless
        the preset has none or the override picks a batched-GEMM path
        (both of which run the zero-padding chain)."""
        if not self.opt.remove_padding:
            return "cublas"
        if self.opt.fused_mha and forced in (None, "fused"):
            return "fused"
        return "zeropad"

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
        split = current_executor().workers
        for tile in tiles:
            key = (tile, max_seq_len, np.dtype(dtype).str, path, device, split)
            if key not in self._reserved_plans:
                self._reserve(
                    plan_live_megabatch(
                        self.config, self.opt, tile, max_seq_len,
                        device=device, mha=path, dtype=dtype, split=split,
                    ),
                )
                self._reserved_plans[key] = None

    def _reserve(self, plans: list[ActivationTrace]) -> None:
        """Reserve the largest replay of ``plans``."""
        alignment = self.arena.alignment
        self.arena.reserve(
            max(ArenaAllocator(alignment).replay(p) for p in plans)
        )

    def _reserve_forward(
        self,
        packing: PackedSeqs,
        dtype: np.dtype,
        device: DeviceSpec,
        tile_split: int,
    ) -> None:
        """Reserve the backing for the one plan a padded-input forward
        runs (:func:`plan_live_forward`), keyed by every input it reads;
        its layers split their rows ``tile_split`` ways too."""
        path = forced_mha_path()
        key = (
            packing.seq_lens.tobytes(),
            packing.max_seq_len,
            dtype.str,
            path,
            device,
            tile_split,
        )
        if key in self._reserved_plans:
            return
        self._reserve(
            [
                plan_live_forward(
                    self.config, self.opt, packing.seq_lens,
                    packing.max_seq_len, device=device, mha=path,
                    dtype=dtype, tile_split=tile_split, split=tile_split,
                )
            ]
        )
        if len(self._reserved_plans) >= self.RESERVED_PLANS:
            # lengths are unbounded: forget the oldest (reserving again
            # only recomputes its plan)
            del self._reserved_plans[next(iter(self._reserved_plans))]
        self._reserved_plans[key] = None

    def _run_stack(
        self,
        h: np.ndarray,
        packing: PackedSeqs,
        context: ExecutionContext,
        *,
        nxt: np.ndarray | None = None,
        tile_split: int = 1,
    ) -> np.ndarray:
        """Every layer over packed ``h`` on one BLAS thread, each op
        fanned out over the current executor; returns the result.

        Each layer splits its row-local ops over the executor's workers
        and its attention over length buckets (and, ``tile_split``
        ways, a lone bucket's long-kernel tiles): see
        :func:`~repro.core.encoder.encoder_layer_packed`.  With the
        arena (``nxt`` given), see :meth:`_layer_stack`.

        Bitwise-equal to the serial stack.  The projection GEMMs never
        run on OpenBLAS's threaded driver, which rounds differently
        from the one-thread driver for some ``k`` (500, 700, 1000 and
        2000 on one x86_64 host), so the bits would depend on the
        thread count; all parallelism is the executor's.  On one thread
        a GEMM row keeps its bits under a row split aligned to
        :data:`~repro.core.parallel.ROW_ALIGN`, every other op is row- or
        tile-local, and attention runs on one BLAS thread over buckets
        of the whole batch.
        """
        with blas_pinned():
            return self._layer_stack(
                h, packing, context,
                scratch=self.arena if nxt is not None else None, nxt=nxt,
                split=current_executor().workers, tile_split=tile_split,
            )

    def _layer_stack(
        self,
        cur: np.ndarray,
        packing: PackedSeqs,
        context: ExecutionContext,
        *,
        scratch: LiveArena | None = None,
        nxt: np.ndarray | None = None,
        split: int = 1,
        tile_split: int = 1,
    ) -> np.ndarray:
        """Every layer over the packed rows ``cur``; returns the result.

        With ``scratch``, layers ping-pong between ``cur`` and ``nxt``
        and the result is whichever of the two the last layer wrote.
        Unsplit (the defaults), it runs under any context: under a
        recording one, the kernels record the stream a priced forward
        takes from the estimator.
        """
        for layer in self.weights.layers:
            result = encoder_layer_packed(
                cur,
                layer,
                self.config,
                self.opt,
                packing,
                ctx=context,
                scratch=scratch,
                out=nxt,
                split=split,
                tile_split=tile_split,
            )
            if scratch is not None:
                nxt = cur
            cur = result
        return cur

    def _arena_engaged(self, dtype: np.dtype) -> bool:
        return (
            self.arena is not None
            and is_vectorized()
            and np.issubdtype(dtype, np.floating)
        )

    def _forward_numeric_packed(
        self, x_tile: np.ndarray, mega: CrossRequestPacking
    ) -> np.ndarray:
        """Megabatch numerics under a NullContext; returns [tile, H].

        Its backing is the tile's plan, which holds one long-kernel
        tile per bucket, so a lone bucket's tiles are not split.
        """
        context = NullContext()
        hidden = self.config.hidden_size
        total = mega.total_tokens
        packing = mega.packing
        x_valid = x_tile[:total]
        dt = x_tile.dtype
        if not self._arena_engaged(dt):
            out = np.zeros((mega.tile, hidden), dtype=dt)
            out[:total] = self._run_stack(x_valid, packing, context)
            return out
        arena = self.arena
        self.prereserve_tiles((mega.tile,), packing.max_seq_len, dt)
        arena.begin()
        cur = arena.take("h0", (total, hidden), dt)
        nxt = arena.take("h1", (total, hidden), dt)
        np.copyto(cur, x_valid)
        cur = self._run_stack(cur, packing, context, nxt=nxt)
        out = arena.take("output", (mega.tile, hidden), dt)
        np.copyto(out[:total], cur)
        out[total:] = 0.0
        return out

    def _forward_numeric(
        self,
        flat: np.ndarray,
        mask: np.ndarray,
        batch: int,
        seq_len: int,
        context: NullContext,
    ) -> np.ndarray:
        """One forward's numerics on the flat ``[B*S, H]`` tensor,
        launch-free under ``context``; returns the flat output.

        The packed pipeline packs, runs the layer stack fanned out over
        the current executor (:meth:`_run_stack`) and unpacks; with the
        arena, its backing is reserved for exactly the plan the forward
        runs, so even the first forward per shape is served entirely
        from it.
        """
        if not self.opt.remove_padding:
            out = flat
            for layer in self.weights.layers:
                out = encoder_layer_padded(
                    out, layer, self.config, self.opt, mask, ctx=context
                )
            # zero the padding so padded and packed pipelines agree exactly
            return out * mask.reshape(batch * seq_len, 1)
        packing = packing_from_mask(mask, ctx=context)
        tile_split = current_executor().workers
        dt = flat.dtype
        if not self._arena_engaged(dt):
            hidden_state = pack(flat, packing, ctx=context)
            hidden_state = self._run_stack(
                hidden_state, packing, context, tile_split=tile_split
            )
            return unpack(hidden_state, packing, ctx=context)
        arena = self.arena
        tokens, hidden = packing.total_tokens, self.config.hidden_size
        self._reserve_forward(packing, dt, context.device, tile_split)
        arena.begin()
        cur = arena.take("h0", (tokens, hidden), dt)
        nxt = arena.take("h1", (tokens, hidden), dt)
        pack(flat, packing, ctx=context, out=cur)
        cur = self._run_stack(
            cur, packing, context, nxt=nxt, tile_split=tile_split
        )
        out = arena.take("output", (packing.padded_rows, hidden), dt)
        unpack(cur, packing, ctx=context, out=out)
        return out

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
