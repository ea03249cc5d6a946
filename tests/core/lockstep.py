"""The launch stream the numeric kernels record, for the lock-step tests.

A priced ``BertEncoderModel.forward`` records the estimator's stream and
runs its numerics launch-free, so comparing that forward's records with
``estimate_model`` would compare the estimator with itself.  This drives
the kernels the numerics run — ``packing_from_mask``/``pack``, the
model's own layer stack, ``unpack``; or ``encoder_layer_padded`` — under
a recording context instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoder import encoder_layer_padded
from repro.core.model import BertEncoderModel
from repro.core.padding import pack, packing_from_mask, unpack
from repro.gpusim import ExecutionContext
from repro.gpusim.device import DeviceSpec


def numeric_stream(
    model: BertEncoderModel,
    x: np.ndarray,
    mask: np.ndarray,
    device: DeviceSpec | None = None,
) -> ExecutionContext:
    """A context holding the launches the kernels of one forward of
    ``model`` on ``x``/``mask`` record, in order."""
    ctx = ExecutionContext(device) if device is not None else ExecutionContext()
    batch, seq_len, hidden = x.shape
    flat = x.reshape(batch * seq_len, hidden)
    if model.opt.remove_padding:
        packing = packing_from_mask(mask, ctx=ctx, cache=None)
        packed = pack(flat, packing, ctx=ctx)
        unpack(model._layer_stack(packed, packing, ctx), packing, ctx=ctx)
        return ctx
    for layer in model.weights.layers:
        flat = encoder_layer_padded(
            flat, layer, model.config, model.opt, mask, ctx=ctx
        )
    return ctx
