"""Incremental decoding with a packed KV cache.

Autoregressive generation is the other place variable lengths bite: at
each step every sequence in the batch has a *different* context length
(prompt + tokens generated so far).  A padded KV cache pays attention
traffic proportional to ``batch x max_context``; a packed cache — the
zero-padding algorithm applied to the time axis — pays only for real
context tokens.

:class:`PackedKVCache` stores per-sequence K/V histories;
:func:`decode_self_attention_step` runs one single-token attention step
for the whole batch as a grouped ``1 x len_i`` problem set (decode
attention is a batch of skinny GEMVs — bandwidth-bound on cache reads,
which is exactly what the packed layout shrinks).

Correctness contract (tested): feeding a sequence token by token through
the cache reproduces, row for row, the full causal self-attention over
the same tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import BertConfig
from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import BYTES_PER_ELEMENT
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.gemm import gemm
from repro.kernels.softmax import softmax_reference

#: sustained efficiency of the decode-attention kernel's math (it is
#: bandwidth-bound on cache reads; the constant rarely matters)
_DECODE_EFFICIENCY = 0.05


class PackedKVCache:
    """Per-sequence K/V history in packed (ragged) storage.

    Each sequence owns a growable ``[len_i, H]`` pair of buffers; total
    resident bytes are ``2 * sum(len_i) * H`` — no padding, ever.
    """

    def __init__(self, batch: int, hidden: int) -> None:
        if batch <= 0 or hidden <= 0:
            raise ValueError("batch and hidden must be positive")
        self.batch = batch
        self.hidden = hidden
        self._keys: list[list[np.ndarray]] = [[] for _ in range(batch)]
        self._values: list[list[np.ndarray]] = [[] for _ in range(batch)]

    def append(self, k_step: np.ndarray, v_step: np.ndarray) -> None:
        """Append one ``[B, H]`` key/value row per sequence."""
        if k_step.shape != (self.batch, self.hidden):
            raise ValueError(
                f"expected [{self.batch}, {self.hidden}] keys, got "
                f"{k_step.shape}"
            )
        if v_step.shape != k_step.shape:
            raise ValueError("key and value steps must match")
        for b in range(self.batch):
            self._keys[b].append(k_step[b])
            self._values[b].append(v_step[b])

    def append_prompt(
        self, k_prompt: np.ndarray, v_prompt: np.ndarray, seq_lens: np.ndarray
    ) -> None:
        """Prefill: append each sequence's valid prompt rows.

        ``k_prompt``/``v_prompt`` are padded ``[B, S, H]``; only the first
        ``seq_lens[b]`` rows of each are cached.
        """
        if k_prompt.shape != v_prompt.shape or k_prompt.ndim != 3:
            raise ValueError("prompt K/V must be matching [B, S, H]")
        if len(seq_lens) != self.batch:
            raise ValueError(f"{len(seq_lens)} lengths for batch {self.batch}")
        for b, length in enumerate(int(v) for v in seq_lens):
            if not (0 < length <= k_prompt.shape[1]):
                raise ValueError(f"sequence {b}: bad prompt length {length}")
            for t in range(length):
                self._keys[b].append(k_prompt[b, t])
                self._values[b].append(v_prompt[b, t])

    def lengths(self) -> np.ndarray:
        return np.asarray([len(k) for k in self._keys], dtype=np.int64)

    def keys(self, b: int) -> np.ndarray:
        return np.stack(self._keys[b])

    def values(self, b: int) -> np.ndarray:
        return np.stack(self._values[b])

    @property
    def packed_bytes(self) -> int:
        """Resident cache bytes in the packed layout (FP16 storage):
        K and V, valid context rows only — 0 for an empty cache."""
        return int(2 * self.lengths().sum()) * self.hidden * BYTES_PER_ELEMENT

    def padded_bytes(self, max_context: int | None = None) -> int:
        """What a padded cache would hold for the same state.

        ``max_context`` is the fixed shape a padded deployment would
        reserve per sequence; defaulting to the current batch maximum
        gives the tightest padded competitor.  An explicit cap below the
        longest resident context is rejected — it would *under*-count
        the padded layout and flatter the packed/padded comparison the
        telemetry gauges report.
        """
        longest = int(self.lengths().max())
        if max_context is None:
            cap = longest
        else:
            if max_context < longest:
                raise ValueError(
                    f"max_context {max_context} below the longest resident "
                    f"context {longest}; a padded cache could not hold it"
                )
            cap = int(max_context)
        return 2 * self.batch * cap * self.hidden * BYTES_PER_ELEMENT


def decode_attention_launch(
    context_lens: np.ndarray,
    num_heads: int,
    head_size: int,
    *,
    padded: bool = False,
    category: str = "decode_attention",
) -> KernelLaunch:
    """Cost descriptor of one single-token decode-attention step.

    The kernel streams each sequence's cached K and V once and emits one
    output row per sequence; with ``padded=True`` it streams the padded
    cache instead (every sequence at the batch maximum) — the cost a
    fixed-shape implementation pays.
    """
    batch = len(context_lens)
    hidden = num_heads * head_size
    if padded:
        effective = int(np.max(context_lens)) * batch
    else:
        effective = int(np.sum(context_lens))
    cache_bytes = 2.0 * effective * hidden * BYTES_PER_ELEMENT
    flops = 4.0 * effective * hidden + 8.0 * effective * num_heads
    return KernelLaunch(
        name="decode_attention" + ("_padded" if padded else ""),
        category=category,
        grid=max(1, batch * num_heads),
        block_threads=128,
        flops=flops,
        dram_bytes=cache_bytes + 2.0 * batch * hidden * BYTES_PER_ELEMENT,
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=_DECODE_EFFICIENCY,
        regs_per_thread=64,
    )


def decode_self_attention_step(
    q_step: np.ndarray,
    k_step: np.ndarray,
    v_step: np.ndarray,
    cache: PackedKVCache,
    num_heads: int,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """One decode step: append K/V, attend each new token to its history.

    ``q_step``/``k_step``/``v_step`` are ``[B, H]`` (one new token per
    sequence).  Returns the ``[B, H]`` attention output.  The new token's
    own K/V are part of the attended context (causal attention includes
    the current position).
    """
    batch, hidden = q_step.shape
    if batch != cache.batch or hidden != cache.hidden:
        raise ValueError(
            f"step shape {q_step.shape} does not match cache "
            f"({cache.batch}, {cache.hidden})"
        )
    if hidden % num_heads != 0:
        raise ValueError(f"hidden {hidden} not divisible by {num_heads} heads")
    head_size = hidden // num_heads

    cache.append(k_step, v_step)
    out = np.empty_like(q_step)
    for b in range(batch):
        out[b] = attend_to_cache(
            q_step[b], cache.keys(b), cache.values(b), num_heads
        )

    resolve_context(ctx).launch(
        decode_attention_launch(cache.lengths(), num_heads, head_size)
    )
    return out


def attend_to_cache(
    q_row: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    num_heads: int,
) -> np.ndarray:
    """Single-token attention of ``q_row [H]`` over ``[len, H]`` K/V.

    The per-head math every decode path in this repo shares — the looped
    per-request oracle, the batched serving path reading the paged
    arena's contiguous mirrors, and :func:`decode_self_attention_step`
    all call this with K/V in the same contiguous ``[len, H]`` layout,
    so their outputs are *bitwise* identical by construction.

    Two batched matmuls cover every head: the scores as
    ``k3.transpose(1, 0, 2) @ qh[:, :, None]`` and the output as
    ``probs[:, None, :] @ v3.transpose(1, 0, 2)``.  numpy computes each
    head of a stacked matrix-vector product with the same BLAS gemv
    call, on the same strided operand, that it makes for that head
    alone, so each head's bits are those of its own ``k3[:, h] @ qh[h]``
    and ``probs[h] @ v3[:, h]`` — two matmul calls per decode token
    instead of two per head.  The scores of all heads take a single row
    softmax over ``[heads, len]``: elementwise work along each row, so
    each head's probabilities are the bits a per-head softmax call
    would give.
    """
    hidden = q_row.shape[0]
    if hidden % num_heads != 0:
        raise ValueError(f"hidden {hidden} not divisible by {num_heads} heads")
    head_size = hidden // num_heads
    scale = 1.0 / math.sqrt(head_size)
    k3 = keys.reshape(-1, num_heads, head_size)
    v3 = values.reshape(-1, num_heads, head_size)
    qh = q_row.reshape(num_heads, head_size)
    scores = (k3.transpose(1, 0, 2) @ qh[:, :, None])[:, :, 0] * scale
    probs = softmax_reference(scores)
    return (probs[:, None, :] @ v3.transpose(1, 0, 2)).reshape(hidden)


# ----------------------------------------------------------------------
# the decode cell: the minimal autoregressive unit generation serves


@dataclass(frozen=True)
class DecodeCellWeights:
    """One decode cell: fused QKV projection, cached self-attention,
    output projection.

    This is the self-attention core of a decoder layer — the part whose
    cost and memory behaviour the KV cache changes — kept free of the
    cross-attention/FFN bulk so the generation loop stays cheap enough
    to run thousands of host-side steps in the bench and tests.
    """

    qkv_weight: np.ndarray
    qkv_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray

    def __post_init__(self) -> None:
        hidden = self.qkv_weight.shape[0]
        expectations = {
            "qkv_weight": (hidden, 3 * hidden),
            "qkv_bias": (3 * hidden,),
            "out_weight": (hidden, hidden),
            "out_bias": (hidden,),
        }
        for name, shape in expectations.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")

    @property
    def hidden_size(self) -> int:
        return self.qkv_weight.shape[0]

    def astype(self, dtype: np.dtype | type) -> DecodeCellWeights:
        """These weights in ``dtype``; arrays already in it are shared,
        not copied."""
        return DecodeCellWeights(
            qkv_weight=self.qkv_weight.astype(dtype, copy=False),
            qkv_bias=self.qkv_bias.astype(dtype, copy=False),
            out_weight=self.out_weight.astype(dtype, copy=False),
            out_bias=self.out_bias.astype(dtype, copy=False),
        )


def init_decode_cell(config: BertConfig, seed: int = 0) -> DecodeCellWeights:
    """Deterministic decode-cell weights for ``config``'s hidden size."""
    rng = np.random.default_rng(seed)
    h = config.hidden_size

    def w(*shape: int) -> np.ndarray:
        return rng.normal(0.0, 0.02, size=shape).astype(np.float32)

    return DecodeCellWeights(
        qkv_weight=w(h, 3 * h),
        qkv_bias=w(3 * h),
        out_weight=w(h, h),
        out_bias=w(h),
    )


def generate_cell_reference(
    weights: DecodeCellWeights,
    x_prompt: np.ndarray,
    steps: int,
    num_heads: int,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Looped per-request generation — the bitwise oracle.

    One request, one :class:`PackedKVCache`: the prompt is prefilled
    with a single QKV GEMM, the first token comes from the last prompt
    position attending over the whole prompt, and every further token
    feeds the previous output back through the cell one step at a time.
    Returns the ``[steps, H]`` generated hidden rows.  The serving
    runtime's batched paged path must reproduce these bytes for every
    request, however the scheduler interleaved them.
    """
    if x_prompt.ndim != 2 or x_prompt.shape[1] != weights.hidden_size:
        raise ValueError(
            f"prompt must be [len, {weights.hidden_size}], got "
            f"{x_prompt.shape}"
        )
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    hidden = weights.hidden_size
    prompt_len = x_prompt.shape[0]
    cache = PackedKVCache(1, hidden)

    qkv = gemm(
        x_prompt, weights.qkv_weight, bias=weights.qkv_bias,
        ctx=ctx, name="decode_qkv", category="decode_gemm",
    )
    k = qkv[:, hidden : 2 * hidden]
    v = qkv[:, 2 * hidden :]
    cache.append_prompt(
        k[None], v[None], np.asarray([prompt_len], dtype=np.int64)
    )
    attn = attend_to_cache(
        qkv[prompt_len - 1, :hidden], cache.keys(0), cache.values(0),
        num_heads,
    )
    y = gemm(
        attn[None, :], weights.out_weight, bias=weights.out_bias,
        ctx=ctx, name="decode_out", category="decode_gemm",
    )
    tokens = [y[0]]
    for _ in range(1, steps):
        qkv_t = gemm(
            tokens[-1][None, :], weights.qkv_weight, bias=weights.qkv_bias,
            ctx=ctx, name="decode_qkv", category="decode_gemm",
        )
        attn_t = decode_self_attention_step(
            qkv_t[:, :hidden],
            qkv_t[:, hidden : 2 * hidden],
            qkv_t[:, 2 * hidden :],
            cache,
            num_heads,
            ctx=ctx,
        )
        y = gemm(
            attn_t, weights.out_weight, bias=weights.out_bias,
            ctx=ctx, name="decode_out", category="decode_gemm",
        )
        tokens.append(y[0])
    return np.stack(tokens)


def max_decode_steps(prompt_len: int, decode_tokens: int, max_context: int) -> int:
    """Decode steps a request actually gets before hitting the context cap.

    The first token costs no cache growth beyond the prompt; each later
    token appends one KV row, so the cache after ``s`` steps holds
    ``prompt_len + s - 1`` rows and the cap admits at most
    ``max_context - prompt_len + 1`` steps.  Returns 0 only for a
    prompt already over the cap (which trace validation rejects).
    """
    if prompt_len <= 0 or decode_tokens <= 0:
        raise ValueError("prompt_len and decode_tokens must be positive")
    return max(0, min(int(decode_tokens), int(max_context) - prompt_len + 1))


def generation_traffic_ratio(
    prompt_lens: np.ndarray, steps: int, max_context: int
) -> float:
    """Padded/packed cache-traffic ratio over a whole generation.

    Closed form over the decode loop: at step ``t`` the packed kernel
    reads ``sum(prompt_i + t)`` context rows, the padded one
    ``batch * max_context``.  This is the headline number for decode-time
    zero padding.
    """
    lens = np.asarray(prompt_lens, dtype=np.float64)
    if steps <= 0:
        raise ValueError("steps must be positive")
    if (lens + steps > max_context).any():
        raise ValueError("generation would exceed max_context")
    packed = sum(float(lens.sum() + len(lens) * t) for t in range(1, steps + 1))
    padded = float(steps * len(lens) * max_context)
    return padded / packed
