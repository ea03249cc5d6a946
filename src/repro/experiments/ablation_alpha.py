"""Extension ablation: sensitivity to the fill ratio α = avg/max length.

The paper evaluates only at α = 0.6.  This sweep varies α from 0.3 to
1.0 on the 12-layer end-to-end model and reports ByteTransformer's gain
over its own padded baseline and over FasterTransformer.  The expected
shape: gains shrink toward α = 1 (no padding to remove — only the fusion
wins remain) and grow as α falls (padding waste scales as 1/α for the
linear modules and 1/α² inside attention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BASELINE, FUSED_MHA
from repro.core.estimator import estimate_model
from repro.experiments.runner import (
    STANDARD_CONFIG,
    render_table,
)
from repro.frameworks import FASTER_TRANSFORMER
from repro.gpusim import ExecutionContext
from repro.workloads.generator import uniform_lengths

ALPHA_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    realised_alpha: float
    baseline_us: float
    faster_transformer_us: float
    byte_transformer_us: float

    @property
    def gain_vs_baseline(self) -> float:
        return self.baseline_us / self.byte_transformer_us - 1.0

    @property
    def gain_vs_ft(self) -> float:
        return self.faster_transformer_us / self.byte_transformer_us - 1.0


@dataclass(frozen=True)
class AlphaSweepResult:
    batch: int
    max_seq_len: int
    points: tuple[AlphaPoint, ...]

    def gains_monotone_decreasing(self) -> bool:
        """Padding-removal gains should shrink as α rises toward 1."""
        gains = [p.gain_vs_baseline for p in self.points]
        return all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))


def run(
    batch: int = 16,
    max_seq_len: int = 512,
    alphas: tuple[float, ...] = ALPHA_GRID,
    seed: int = 0,
) -> AlphaSweepResult:
    """Run the experiment sweep and return its structured result."""
    points = []
    for alpha in alphas:
        rng = np.random.default_rng(seed)
        lens = uniform_lengths(batch, max_seq_len, alpha, rng)
        ctx = ExecutionContext()
        base = estimate_model(ctx, STANDARD_CONFIG, BASELINE, lens, max_seq_len)
        ft_us = FASTER_TRANSFORMER.latency_us(STANDARD_CONFIG, lens, max_seq_len)
        ctx = ExecutionContext()
        bt = estimate_model(ctx, STANDARD_CONFIG, FUSED_MHA, lens, max_seq_len)
        points.append(
            AlphaPoint(
                alpha=alpha,
                realised_alpha=float(np.mean(lens)) / max_seq_len,
                baseline_us=base,
                faster_transformer_us=ft_us,
                byte_transformer_us=bt,
            )
        )
    return AlphaSweepResult(
        batch=batch, max_seq_len=max_seq_len, points=tuple(points)
    )


def format_result(result: AlphaSweepResult) -> str:
    """Render the result as the paper-style text block."""
    rows = [
        (
            f"{p.alpha:.1f}",
            f"{p.realised_alpha:.2f}",
            p.baseline_us / 1000,
            p.faster_transformer_us / 1000,
            p.byte_transformer_us / 1000,
            f"+{p.gain_vs_baseline:.0%}",
            f"+{p.gain_vs_ft:.0%}",
        )
        for p in result.points
    ]
    table = render_table(
        (
            "alpha",
            "realised",
            "baseline_ms",
            "FT_ms",
            "BT_ms",
            "vs base",
            "vs FT",
        ),
        rows,
        title=(
            f"Alpha sweep: end-to-end BERT, batch {result.batch}, "
            f"max seq {result.max_seq_len}"
        ),
    )
    trend = (
        "gain shrinks monotonically toward alpha = 1: "
        + ("yes" if result.gains_monotone_decreasing() else "NO")
    )
    return f"{table}\n{trend}"


def main() -> None:
    """Print the experiment's formatted result."""
    print(format_result(run()))


if __name__ == "__main__":
    main()
