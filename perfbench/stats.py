"""Statistics the benchmark reports: percentiles with their sample
support, span self time and the SLO capacity search.

Nothing here imports the program under test, so it can be unit-tested
on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: a percentile is only reported as supported when at least this many
#: samples lie strictly beyond it
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the sample that supports it."""

    q: float
    value: float
    #: sample count
    n: int
    #: samples strictly greater than ``value``
    beyond: int

    @property
    def supported(self) -> bool:
        """Whether at least :data:`MIN_BEYOND` samples lie beyond it."""
        return self.beyond >= MIN_BEYOND


def percentile(values: Iterable[float], q: float) -> Percentile:
    """``np.percentile`` (linear method) with its sample support."""
    data = np.asarray(list(values), dtype=float)
    if not data.size:
        raise ValueError("percentile of an empty sample")
    value = float(np.percentile(data, q))
    return Percentile(q=q, value=value, n=int(data.size), beyond=int((data > value).sum()))


# ----------------------------------------------------------------------
# span self time


@dataclass(frozen=True)
class Span:
    """One recorded call: ``parent`` is the index of the enclosing span
    in the same list, or ``-1`` at the root."""

    name: str
    start: float
    end: float
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent work under one parent)
    or spill past the parent's end; only the union inside the parent's
    interval is subtracted, so self time is never negative.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


# ----------------------------------------------------------------------
# SLO capacity over a fixed rate ladder


@dataclass(frozen=True)
class CapacityResult:
    #: highest ladder rate below which every rung met the SLO, or
    #: ``None`` when even the lowest rung missed it
    capacity: float | None
    #: ``(rate, met)`` for every rung evaluated, in ladder order
    rungs: tuple[tuple[float, bool], ...]


def slo_capacity(
    ladder: Sequence[float], meets: Callable[[float], bool]
) -> CapacityResult:
    """Walk the fixed ``ladder`` upward and stop at the first miss.

    The capacity is the last rung of the unbroken run of passing rungs
    from the bottom, so it can only rise when a rung's verdict turns
    from miss to meet — a single lucky rung above a miss never counts.
    """
    rates = list(ladder)
    if not rates:
        raise ValueError("the rate ladder is empty")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("the rate ladder must be strictly increasing")
    capacity = None
    rungs = []
    for rate in rates:
        met = bool(meets(rate))
        rungs.append((rate, met))
        if not met:
            break
        capacity = rate
    return CapacityResult(capacity=capacity, rungs=tuple(rungs))
