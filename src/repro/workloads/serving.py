"""A minimal online-serving trace emulator.

ByteTransformer's motivation is *online inference*: requests with
different sentence lengths arrive continuously and must be answered with
low latency.  A :class:`ServingTrace` is a seeded stream of requests with
Poisson arrivals and configurable length distribution; the serving example
replays it against each framework model and reports latency percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.workloads.generator import LengthDistribution, normal_lengths, uniform_lengths, zipf_lengths


@dataclass(frozen=True)
class Request:
    """One inference request."""

    request_id: int
    arrival_us: float
    seq_len: int
    #: relative latency budget: the request must *finish* within this many
    #: microseconds of arriving, or the serving runtime sheds it.
    #: ``None`` means the request waits forever (the pre-SLO behaviour).
    deadline_us: float | None = None
    #: owning tenant for multi-tenant serving; ``""`` is the anonymous
    #: single-tenant default every pre-gateway trace uses.
    tenant: str = ""

    @property
    def absolute_deadline_us(self) -> float | None:
        """The wall-clock (simulated) instant the deadline expires."""
        if self.deadline_us is None:
            return None
        return self.arrival_us + self.deadline_us

    def reanchored(
        self, arrival_us: float, deadline_us: float | None
    ) -> "Request":
        """This request as released at ``arrival_us`` with
        ``deadline_us`` of its budget left (gateway re-anchoring).

        A plain request is rebuilt by its constructor, about half the
        cost of ``dataclasses.replace``, which walks ``fields()`` on
        every call; the serving loop re-anchors every admitted request.
        A subclass's extra fields are copied by ``replace``.  Copying
        ``__dict__`` would be cheaper still, but in CPython reading an
        instance's ``__dict__`` slows every later attribute read on it,
        and the trace's requests are read on every replay.
        """
        if type(self) is not Request:
            return replace(
                self, arrival_us=arrival_us, deadline_us=deadline_us
            )
        return Request(
            self.request_id, arrival_us, self.seq_len, deadline_us,
            self.tenant,
        )


@dataclass(frozen=True)
class GenerationRequest(Request):
    """A request that decodes tokens after its prompt is prefilled.

    ``seq_len`` is the prompt length; ``decode_tokens`` is how many
    tokens the client asked for.  The decode runtime may truncate the
    stream earlier when the context window fills (see
    :func:`repro.decoder.generation.max_decode_steps`).  Being a frozen
    subclass keeps every ``Request`` consumer working unchanged —
    :meth:`Request.reanchored` (gateway re-anchoring) preserves the
    subclass and the extra field.
    """

    decode_tokens: int = 1

    def __post_init__(self) -> None:
        if self.decode_tokens < 1:
            raise ValueError(
                f"request {self.request_id} asks for {self.decode_tokens} "
                "decode tokens; generation needs at least 1"
            )


@dataclass(frozen=True)
class ServingTrace:
    """A stream of requests plus the padded shape they are served with."""

    requests: tuple[Request, ...]
    max_seq_len: int

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a trace needs at least one request")
        arrivals = [r.arrival_us for r in self.requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("requests must be sorted by arrival time")
        for request in self.requests:
            if request.seq_len < 1:
                raise ValueError(
                    f"request {request.request_id} has seq_len "
                    f"{request.seq_len}; lengths must be >= 1"
                )
            if request.seq_len > self.max_seq_len:
                raise ValueError(
                    f"request {request.request_id} has seq_len "
                    f"{request.seq_len} > trace max_seq_len {self.max_seq_len}"
                )
            if request.deadline_us is not None and request.deadline_us <= 0:
                raise ValueError(
                    f"request {request.request_id} has non-positive "
                    f"deadline_us {request.deadline_us}"
                )

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def batches(self, batch_size: int) -> list[list[Request]]:
        """Greedy arrival-order batching into groups of ``batch_size``."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        groups = []
        for start in range(0, len(self.requests), batch_size):
            groups.append(list(self.requests[start : start + batch_size]))
        return groups


def make_trace(
    num_requests: int,
    max_seq_len: int,
    *,
    alpha: float = 0.6,
    mean_interarrival_us: float = 500.0,
    distribution: LengthDistribution = LengthDistribution.UNIFORM,
    seed: int = 0,
    deadline_us: float | None = None,
) -> ServingTrace:
    """Generate a seeded Poisson-arrival request trace.

    ``deadline_us`` attaches the same relative latency budget to every
    request (``None`` keeps requests deadline-free).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    if distribution is LengthDistribution.UNIFORM:
        lens = uniform_lengths(num_requests, max_seq_len, alpha, rng)
    elif distribution is LengthDistribution.NORMAL:
        lens = normal_lengths(num_requests, max_seq_len, alpha, rng)
    elif distribution is LengthDistribution.ZIPF:
        lens = zipf_lengths(num_requests, max_seq_len, rng)
    else:
        raise ValueError(f"unsupported trace distribution {distribution!r}")

    gaps = rng.exponential(mean_interarrival_us, size=num_requests)
    arrivals = np.cumsum(gaps)
    requests = tuple(
        Request(
            request_id=i,
            arrival_us=float(arrivals[i]),
            seq_len=int(lens[i]),
            deadline_us=deadline_us,
        )
        for i in range(num_requests)
    )
    return ServingTrace(requests=requests, max_seq_len=max_seq_len)


def make_generation_trace(
    num_requests: int,
    max_seq_len: int,
    *,
    decode_tokens: int = 16,
    alpha: float = 0.6,
    mean_interarrival_us: float = 500.0,
    distribution: LengthDistribution = LengthDistribution.UNIFORM,
    seed: int = 0,
    deadline_us: float | None = None,
    tenant: str = "",
) -> ServingTrace:
    """Generation analogue of :func:`make_trace`.

    Prompt lengths follow the same seeded distributions; each request
    additionally asks for ``1 + Poisson(decode_tokens - 1)`` output
    tokens so decode demand is ragged the way prompt lengths are.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if decode_tokens < 1:
        raise ValueError(f"decode_tokens must be >= 1, got {decode_tokens}")
    rng = np.random.default_rng(seed)
    if distribution is LengthDistribution.UNIFORM:
        lens = uniform_lengths(num_requests, max_seq_len, alpha, rng)
    elif distribution is LengthDistribution.NORMAL:
        lens = normal_lengths(num_requests, max_seq_len, alpha, rng)
    elif distribution is LengthDistribution.ZIPF:
        lens = zipf_lengths(num_requests, max_seq_len, rng)
    else:
        raise ValueError(f"unsupported trace distribution {distribution!r}")
    steps = 1 + rng.poisson(decode_tokens - 1, size=num_requests)
    gaps = rng.exponential(mean_interarrival_us, size=num_requests)
    arrivals = np.cumsum(gaps)
    requests = tuple(
        GenerationRequest(
            request_id=i,
            arrival_us=float(arrivals[i]),
            seq_len=int(lens[i]),
            deadline_us=deadline_us,
            tenant=tenant,
            decode_tokens=int(steps[i]),
        )
        for i in range(num_requests)
    )
    return ServingTrace(requests=requests, max_seq_len=max_seq_len)
