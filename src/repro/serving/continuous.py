"""Continuous token-budget batching for the serving runtime.

The per-request batchers realise the paper's packing claim one dispatch
at a time: every dispatch builds its own :class:`PackedSeqs`, and every
distinct length vector is a fresh launch-graph key, so under live
traffic the PR 3 replay path almost never fires.  This module moves
packing up into the scheduler:

* :class:`~repro.workloads.batching.ContinuousBatcher` (re-exported
  here — it lives beside the other policies) admits requests into a
  rolling **megabatch** bounded by a token budget and quantizes each
  dispatch to a tile from a small set;
* :func:`build_megabatch` merges the admitted requests' inputs into one
  ``[tile, H]`` packed buffer via the cross-request pack path
  (:func:`repro.core.padding.pack_segments`);
* :func:`scatter_outputs` returns each request's rows of the megabatch
  output to its owner (the scatter-back half of the contract: the
  megabatch result is bitwise what each request would get alone);
* :func:`retile` re-quantizes the surviving segments of a faulted
  megabatch for a retry — expired segments were shed, so the retry
  covers only the still-affected ones, usually on a smaller tile.

Because every dispatch lands on one of a handful of tiles, the
``(device, config, preset, path, tile)`` graph key recurs and
steady-state serving runs on :meth:`LaunchGraph.replay` instead of eager
pricing — the property the ``continuous_serving`` bench section gates.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.padding import (
    CrossRequestPacking,
    merge_request_lengths,
    pack_segments,
    scatter_segments,
)
from repro.telemetry import current_telemetry
from repro.workloads.batching import (
    DEFAULT_TILES,
    ContinuousBatcher,
    DecodeRound,
    MixedContinuousBatcher,
    TokenBudgetExceededError,
    quantize_tile,
)
from repro.workloads.serving import Request

__all__ = [
    "DEFAULT_TILES",
    "ContinuousBatcher",
    "DecodeRound",
    "MixedContinuousBatcher",
    "TokenBudgetExceededError",
    "quantize_tile",
    "build_megabatch",
    "scatter_outputs",
    "retile",
]


def build_megabatch(
    requests: Sequence[Request],
    inputs: Callable[[Request], np.ndarray],
    max_seq_len: int,
    tile: int,
) -> tuple[np.ndarray, CrossRequestPacking]:
    """Merge per-request ``[len_i, H]`` inputs into one packed tile.

    ``inputs`` maps a request to its ``[seq_len, H]`` input rows (the
    runtime's deterministic per-request generator, so the bits are
    independent of how requests are grouped).  Returns the ``[tile, H]``
    buffer — valid rows first, quantization tail zeroed — plus the
    :class:`CrossRequestPacking` that locates every request's segment.
    """
    lens = np.asarray([r.seq_len for r in requests], dtype=np.int64)
    mega = merge_request_lengths(lens, max_seq_len, tile)
    packed = pack_segments([inputs(r) for r in requests], mega)
    tel = current_telemetry()
    if tel is not None and tel.owns_current_thread():
        tel.tracer.instant(
            "megabatch.build",
            category="packing",
            segments=len(requests),
            request_ids=[r.request_id for r in requests],
            tile=tile,
        )
    return packed, mega


def scatter_outputs(
    out_tile: np.ndarray, mega: CrossRequestPacking
) -> list[np.ndarray]:
    """Each request's ``[len_i, H]`` output rows, copied out of the tile.

    The copies (unlike the views of
    :func:`~repro.core.padding.scatter_segments`) survive the next
    forward on an arena-backed model, which is what a serving report
    needs.
    """
    outs = [seg.copy() for seg in scatter_segments(out_tile, mega)]
    tel = current_telemetry()
    if tel is not None and tel.owns_current_thread():
        tel.tracer.instant(
            "megabatch.scatter",
            category="packing",
            segments=mega.num_segments,
            tokens=mega.total_tokens,
        )
    return outs


def retile(
    total_tokens: int,
    tiles: tuple[int, ...],
    fallback_tile: int,
) -> int:
    """Quantized tile for a retried megabatch of ``total_tokens``.

    After a fault, expired segments are shed before the retry, so the
    surviving token count may fit a smaller tile — re-quantizing keeps
    the retry on a recurring graph key instead of paying the original
    tile's padded cost.  ``tiles`` is the batcher's
    :meth:`~repro.workloads.batching.ContinuousBatcher.effective_tiles`,
    read once per run by the caller; it is empty for a batcher without a
    tile set, which keeps the dispatch's own tile (``total_tokens``
    never exceeds it: survivors are a subset of the original megabatch).
    """
    return quantize_tile(total_tokens, tiles or (fallback_tile,))
