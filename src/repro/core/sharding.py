"""Tensor-parallel shard descriptors.

A :class:`ShardSpec` names one rank's slice of a Megatron-style
tensor-parallel group: attention heads and FFN columns are split across
``tp`` ranks, with the row-parallel output projections summed by an
all-reduce at the two sync points per encoder layer (after the attention
output GEMM and after the FFN down GEMM).

The spec lives in the *cost plane* only.  The numeric plane keeps
computing the full, unsharded encoder once — a real all-reduce sums
per-rank partials in a different floating-point order than the
single-device GEMM, which would break the repo's bitwise-oracle
contract.  The simulator instead prices each rank's kernel chain (plus
the collectives) while the numerics stay exact; see DESIGN.md §14.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hashing import cached_hash


@cached_hash
@dataclass(frozen=True)
class ShardSpec:
    """One rank's position in a tensor-parallel group.

    ``tp == 1`` is the unsharded identity spec: every consumer must
    produce the exact single-device stream for it (no collectives, no
    resharded GEMMs), so single- and multi-device paths share one code
    path without a behavioural fork.
    """

    tp: int = 1
    rank: int = 0

    def __post_init__(self) -> None:
        if self.tp < 1:
            raise ValueError(f"tp must be >= 1, got {self.tp}")
        if not (0 <= self.rank < self.tp):
            raise ValueError(
                f"rank must be in [0, {self.tp}), got {self.rank}"
            )

    @property
    def is_sharded(self) -> bool:
        return self.tp > 1

    def shard_dim(self, dim: int) -> int:
        """This rank's share of ``dim`` units split across the group.

        Remainder units go to the lowest ranks, so rank 0 always holds
        the largest share — which makes rank 0's chain the critical
        path and the one the serving tier prices.
        """
        base, rem = divmod(dim, self.tp)
        return base + (1 if self.rank < rem else 0)


#: the unsharded identity spec
UNSHARDED = ShardSpec()
