"""Consolidated paper-vs-measured report.

Collects the :class:`~repro.experiments.runner.Comparison` lines from
every experiment that has paper-reported numbers and renders them as one
table — the executable version of EXPERIMENTS.md's headline section.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import (
    ablation_scheduler,
    fig3_breakdown,
    fig9_layernorm_fusion,
    fig10_gelu_fusion,
    fig11_mha_short,
    fig12_mha_long,
    fig13_stepwise,
    fig14_end_to_end,
    table2_flops,
)
from repro.experiments.runner import Comparison


@dataclass(frozen=True)
class PaperReport:
    comparisons: tuple[Comparison, ...]

    def render_text(self) -> str:
        lines = ["== paper vs measured (all comparable claims) =="]
        lines.extend(comp.render() for comp in self.comparisons)
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [
            "| claim | paper | ours |",
            "|---|---|---|",
        ]
        for comp in self.comparisons:
            lines.append(
                f"| {comp.metric} | {comp.paper} | {comp.measured} |"
            )
        return "\n".join(lines)


def collect(fast: bool = False) -> PaperReport:
    """Run every comparable experiment and gather its comparison lines.

    ``fast`` shrinks the sweeps (fewer sequence lengths, fewer batches)
    for quick smoke runs.  On a 2-core x86_64 host the full report (28
    comparisons) took 0.7–1.0 s and the fast one 0.13 s.
    """
    comparisons: list[Comparison] = []

    comparisons.extend(fig3_breakdown.comparisons(fig3_breakdown.run_all()))
    comparisons.extend(
        fig9_layernorm_fusion.comparisons(fig9_layernorm_fusion.run())
    )
    comparisons.extend(
        fig10_gelu_fusion.comparisons(fig10_gelu_fusion.run())
    )
    comparisons.extend(table2_flops.comparisons(table2_flops.run()))

    short_seqs = (128, 256) if fast else fig11_mha_short.SHORT_SEQS
    comparisons.extend(
        fig11_mha_short.comparisons(fig11_mha_short.run(seq_lens=short_seqs))
    )
    long_seqs = (512, 1024) if fast else fig12_mha_long.LONG_SEQS
    comparisons.extend(
        fig12_mha_long.comparisons(fig12_mha_long.run(seq_lens=long_seqs))
    )

    stepwise_seqs = (128, 512) if fast else fig13_stepwise.SEQ_GRID
    comparisons.extend(
        fig13_stepwise.comparisons(fig13_stepwise.run(seq_lens=stepwise_seqs))
    )

    batches = (8,) if fast else fig14_end_to_end.BATCH_GRID
    e2e_seqs = (128, 512) if fast else fig14_end_to_end.SEQ_GRID
    comparisons.extend(
        fig14_end_to_end.comparisons(
            fig14_end_to_end.run(batches=batches, seq_lens=e2e_seqs)
        )
    )

    sched_seqs = (512, 1024) if fast else ablation_scheduler.LONG_SEQS
    comparisons.extend(
        ablation_scheduler.comparisons(
            ablation_scheduler.run(seq_lens=sched_seqs)
        )
    )
    return PaperReport(comparisons=tuple(comparisons))


def main() -> None:
    """Print the experiment's formatted result."""
    print(collect().render_text())


if __name__ == "__main__":
    main()
