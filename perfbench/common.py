"""Shared pieces of the three workloads: metric records, the correctness
ledger, host-clock helpers and the counts read from the program's
reports."""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from stats import percentile

#: the interactive latency limit every SLO metric is judged against
SLO_US = 25_000.0


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    #: samples behind the value (a timing's sample count, a ratio's base)
    n: int
    note: str = ""


@dataclass
class Ledger:
    """Operations attempted and correctness checks failed in one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str, count: int = 1) -> bool:
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok


def pct_metrics(prefix: str, values: list[float]) -> dict[str, Metric]:
    """``<prefix>_p50_us`` and ``<prefix>_p99_us`` with their support."""
    out = {}
    for q in (50, 99):
        p = percentile(values, q)
        note = f"{p.beyond} beyond" + ("" if p.supported else " (unsupported)")
        out[f"{prefix}_p{q}_us"] = Metric(p.value, "us", p.n, note)
    return out


# ----------------------------------------------------------------------
# host clock

#: the scale of every host timing, in seconds: about the reference
#: loop's time on an idle shared 2-core x86-64 VM under Python 3.11
REFERENCE_S = 0.05
REFERENCE_ROUNDS = 30_000


class _Job:
    __slots__ = ("tenant", "tokens")

    def __init__(self, tenant: str, tokens: int) -> None:
        self.tenant, self.tokens = tenant, tokens


def reference_loop() -> float:
    """Seconds one run of a fixed plain-Python event loop takes: a heap
    of small objects, per-key queues and dict updates, the kind of work
    the serving loop does.  It never touches the program under test.

    The cyclic garbage collector is off while it runs: its passes cost
    time in proportion to every object the process holds, so with it on
    the loop would slow down whenever the program (or the span recorder)
    holds more, and the scaled timings would read faster."""
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap: list = []
    queues: dict[str, list[_Job]] = {}
    done: dict[int, float] = {}
    for i in range(REFERENCE_ROUNDS):
        key = (i * 7919) % 1000
        heapq.heappush(heap, (key, i, _Job("ab"[i % 2], 1 + i % 512)))
        if i % 3 == 2:
            job = heapq.heappop(heap)[2]
            queue = queues.setdefault(job.tenant, [])
            queue.append(job)
            if len(queue) > 8:
                del queues[job.tenant]
                done[len(done)] = sum(j.tokens for j in queue) / len(queue)
    took = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return took


class HostClock:
    """Wall-clock timings in units of a reference host.

    A shared host's speed drifts: on a shared 2-core VM, bursts doubled
    the time of everything for tens of seconds, and whole runs of one
    seed came out up to 2x apart.  Each timing here is taken between two
    runs of :func:`reference_loop` and scaled by ``REFERENCE_S`` over
    their mean, so it reads as the seconds the work would take on a host
    where the loop takes ``REFERENCE_S``.  A change to the program moves
    the timing; a change in the host's speed moves both and cancels.
    """

    def __init__(self) -> None:
        self._last: float | None = None
        #: every reference time taken, for the record
        self.references: list[float] = []

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """``fn()`` and its scaled seconds."""
        if self._last is None:
            self._last = reference_loop()
        start = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - start
        ref = reference_loop()
        self.references.append(ref)
        scaled = raw * 2.0 * REFERENCE_S / (self._last + ref)
        self._last = ref
        return out, scaled

    def note(self) -> str:
        """The median reference time, from which raw seconds follow."""
        return f"reference loop median {statistics.median(self.references) * 1e3:.1f} ms"


#: the one clock of the process
clock = HostClock()


def timed_replays(
    seconds: float, replay: Callable[[], Any], check: Callable[[Any], None]
) -> list[float]:
    """Call ``replay`` until ``seconds`` have passed, at least once.

    Each call is timed on its own by :data:`clock`; ``check`` runs on
    its result outside the timing.
    """
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        out, took = clock.time(replay)
        times.append(took)
        check(out)
    return times


# ----------------------------------------------------------------------
# counts read from the program's reports


def check_settled(report, sent: int, ledger: Ledger, what: str) -> None:
    """Outcome conservation (sent = served + shed + failed + rejected)
    and no failed outcomes, for a serving or generation report."""
    counts = report.counts()
    settled = counts["served"] + counts["shed"] + counts["failed"] + counts["rejected"]
    ledger.attempted += sent
    ledger.check(
        settled == sent, f"{what}: {settled} settled of {sent} sent", abs(sent - settled)
    )
    ledger.check(
        counts["failed"] == 0, f"{what}: {counts['failed']} failed", counts["failed"]
    )


def serving_counts(report) -> dict[str, float]:
    """Retry, fault and degradation counts of a serving or generation
    report."""
    retries = sum(o.retries for o in report.outcomes)
    useful = sum(o.retries for o in report.served)
    degraded = sum(o.level != report.top_level for o in report.served)
    return {
        "serving.retry.attempts": retries,
        "serving.retry.useful_ratio": useful / retries if retries else 0.0,
        "serving.faults.injected": len(report.injected_faults),
        "serving.degradation.transitions": len(report.transitions),
        "serving.degradation.degraded_share": degraded / max(1, len(report.served)),
    }


def cache_counters(graph_cache, packing=None) -> dict[str, int]:
    """Lifetime counters of a launch-graph cache and, when given, a
    packing cache; the traced run takes them before and after its
    window."""
    kinds = graph_cache.kind_counts().values()
    out = {
        "graph.captures": sum(k["captures"] for k in kinds),
        "graph.replays": sum(k["replays"] for k in kinds),
    }
    if packing is not None:
        out["packing.hits"] = packing.hits
        out["packing.misses"] = packing.misses
    return out
