"""Fig 14's framework models as rows of the paper's Table I.

A framework model is a *cost model* of one of the systems the paper
benchmarks against in Figure 14.  All of them compute the same
mathematical function — BERT — so numerical validation is delegated to
:mod:`repro.core.reference`; what differs, and what Figure 14 measures,
is the schedule.  Each framework is one row of data over the one
estimator, :func:`~repro.core.estimator.estimate_model`:

* a padding policy — padded or packed (the preset's
  ``remove_padding``), or length-grouped (TurboTransformers' smart
  batching, padded per group);
* a fusion preset — the :class:`~repro.core.config.OptimizationConfig`
  the estimator prices;
* an MHA chain — an estimator path, or the framework's own chain where
  no estimator path emits it;
* a GEMM efficiency factor (XLA's GEMM algorithm picker).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import BertConfig, OptimizationConfig
from repro.core.estimator import MhaChain, estimate_model
from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.stream import ExecutionContext, KernelRecord


@dataclass(frozen=True)
class FrameworkFeatures:
    """One row of the paper's Table I."""

    variable_length_support: bool
    kernel_tuning: bool
    #: None = no fused MHA; an int = fused MHA up to that sequence length;
    #: -1 = fused MHA for any length
    fused_mha_max_seq: int | None
    #: "no" / "partially" / "yes"
    kernel_fusion: str

    def fused_mha_label(self) -> str:
        if self.fused_mha_max_seq is None:
            return "no"
        if self.fused_mha_max_seq < 0:
            return "yes"
        return f"<= {self.fused_mha_max_seq}"


def smart_batching(
    seq_lens: np.ndarray, group_cost_tokens: int
) -> list[np.ndarray]:
    """TurboTransformer's length-aware grouping, as a 1-D partition DP.

    Sentences are sorted by length (descending) and split into contiguous
    groups; a group of ``g`` sentences padded to its own maximum costs
    ``g * group_max`` padded tokens plus a fixed per-group charge of
    ``group_cost_tokens`` (modelling the extra kernel launches a group
    adds).  Dynamic programming finds the partition minimising total
    cost — small fixed charges yield many tight groups, large ones yield
    fewer, more padded groups.

    Returns the groups as arrays of *original batch indices*.
    """
    lens = np.asarray(seq_lens, dtype=np.int64)
    if lens.ndim != 1 or lens.size == 0:
        raise ValueError("need a non-empty 1-D length vector")
    if group_cost_tokens < 0:
        raise ValueError("group_cost_tokens must be non-negative")
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    n = lens.size

    # dp[i] = min cost of grouping sorted sentences [0, i)
    dp = np.full(n + 1, np.inf)
    split = np.zeros(n + 1, dtype=np.int64)
    dp[0] = 0.0
    for i in range(1, n + 1):
        # group (j, i]: max length is sorted_lens[j] (descending order)
        for j in range(i):
            cost = dp[j] + (i - j) * int(sorted_lens[j]) + group_cost_tokens
            if cost < dp[i]:
                dp[i] = cost
                split[i] = j
    groups: list[np.ndarray] = []
    i = n
    while i > 0:
        j = int(split[i])
        groups.append(order[j:i])
        i = j
    groups.reverse()
    return groups


@dataclass(frozen=True)
class LengthGrouping:
    """The length-grouped padding policy.

    The batch is split by :func:`smart_batching` and the padded encoder
    runs once per group, at the group's own maximum length.  The
    grouping scheduler and the run-time allocator run on the host,
    serialised with the GPU stream, so each group also costs host time.
    """

    #: ``smart_batching``'s fixed per-group charge, in padded tokens
    cost_tokens: int
    #: host time per group
    group_overhead_us: float
    #: host time per layer per group
    layer_overhead_us: float


class _ScaledGemms:
    """A view of a context that prices every tensor-core (GEMM) launch
    at ``factor`` times its compute efficiency."""

    def __init__(self, ctx: ExecutionContext, factor: float) -> None:
        self._ctx = ctx
        self._factor = factor

    def launch(self, launch: KernelLaunch) -> KernelRecord:
        if launch.compute_unit is ComputeUnit.TENSOR_FP16:
            launch = replace(
                launch,
                compute_efficiency=launch.compute_efficiency * self._factor,
            )
        return self._ctx.launch(launch)

    def __getattr__(self, name: str):
        return getattr(self._ctx, name)


@dataclass(frozen=True)
class Framework:
    """A framework's end-to-end BERT cost model: its Table I row and the
    policies that row selects over the one estimator."""

    #: display name used in reports (matches the paper's legend)
    name: str
    #: the framework's Table I row
    features: FrameworkFeatures
    #: the preset the estimator prices: fusion flags and packed/padded
    opt: OptimizationConfig
    #: the MHA chain: an estimator path name, the framework's own chain,
    #: or None for the path ``opt`` selects
    mha: str | MhaChain | None = None
    #: length-grouped padding (None = ``opt`` alone decides the padding)
    grouping: LengthGrouping | None = None
    #: factor on every GEMM's compute efficiency
    gemm_efficiency: float = 1.0
    #: largest max_seq_len the framework can serve (None = unlimited)
    max_supported_seq: int | None = None

    def supports(self, max_seq_len: int) -> bool:
        """Whether the framework can run this padded shape at all.

        TurboTransformer, for example, only supports sequences shorter
        than 512, so Figure 14 has no bars for it beyond that.
        """
        if self.max_supported_seq is None:
            return True
        return max_seq_len <= self.max_supported_seq

    def estimate(
        self,
        ctx: ExecutionContext,
        config: BertConfig,
        seq_lens: np.ndarray,
        max_seq_len: int,
    ) -> float:
        """Replay the framework's launch chain; return modelled time (us)."""
        if self.gemm_efficiency != 1.0:
            ctx = _ScaledGemms(ctx, self.gemm_efficiency)
        lens = np.asarray(seq_lens)
        runs, host_us = [(lens, max_seq_len)], 0.0
        if (g := self.grouping) is not None:
            groups = smart_batching(lens, g.cost_tokens)
            runs = [(lens[i], int(lens[i].max())) for i in groups]
            per_layer = g.layer_overhead_us * config.num_layers
            host_us = len(runs) * (g.group_overhead_us + per_layer)
        before = ctx.elapsed_us()
        for run_lens, run_seq in runs:
            estimate_model(
                ctx, config, self.opt, run_lens, run_seq, mha=self.mha
            )
        return ctx.elapsed_us() - before + host_us

    def latency_us(
        self,
        config: BertConfig,
        seq_lens: np.ndarray,
        max_seq_len: int,
        ctx: ExecutionContext | None = None,
    ) -> float:
        """Convenience: estimate on a fresh context."""
        if not self.supports(max_seq_len):
            raise ValueError(
                f"{self.name} does not support max_seq_len {max_seq_len}"
            )
        context = ctx if ctx is not None else ExecutionContext()
        return self.estimate(context, config, seq_lens, max_seq_len)


def table1_rows(frameworks: list[Framework]) -> str:
    """Render the Table I feature matrix for a list of frameworks."""
    header = (
        f"{'framework':<20}{'variable-len':>14}{'tuning':>9}"
        f"{'fused MHA':>12}{'fusion':>12}"
    )
    lines = [header]
    for fw in frameworks:
        f = fw.features
        lines.append(
            f"{fw.name:<20}"
            f"{'yes' if f.variable_length_support else 'no':>14}"
            f"{'yes' if f.kernel_tuning else 'no':>9}"
            f"{f.fused_mha_label():>12}"
            f"{f.kernel_fusion:>12}"
        )
    return "\n".join(lines)
