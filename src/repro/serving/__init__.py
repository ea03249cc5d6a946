"""Fault-tolerant serving runtime.

ByteTransformer's setting is *online* inference; this package makes the
reproduction's serving emulator survive it: seeded fault injection into
the kernel-launch path (:mod:`~repro.serving.faults`), retry with
exponential backoff on the simulated clock (:mod:`~repro.serving.retry`),
deadline shedding and high-water-mark admission control
(:mod:`~repro.serving.admission`), a multi-tenant admission gateway with
QoS classes, weighted-fair sharing and overload protection
(:mod:`~repro.serving.gateway`), graceful degradation
(:mod:`~repro.serving.degradation`), and per-request outcome accounting
(:mod:`~repro.serving.report`), all driven by the one serving loop
(:mod:`~repro.serving.loop`) that
:class:`~repro.serving.runtime.ServingRuntime` and
:class:`~repro.serving.generation.GenerationRuntime` share.
"""

from repro.serving.admission import AdmissionController
from repro.serving.gateway import (
    AdmissionGateway,
    GatewayEvent,
    GatewayResult,
    QosClass,
    REASON_QUEUE_OVERFLOW,
    REASON_RATE_LIMIT,
    REASON_UNKNOWN_TENANT,
    ScheduledRequest,
    TenantPolicy,
    TokenBucket,
)
from repro.serving.continuous import (
    DEFAULT_TILES,
    ContinuousBatcher,
    TokenBudgetExceededError,
    build_megabatch,
    quantize_tile,
    retile,
    scatter_outputs,
)
from repro.serving.degradation import (
    DEFAULT_LEVELS,
    DegradationLadder,
    DegradationLevel,
    LadderTransition,
)
from repro.serving.faults import (
    LAUNCH_FAILURE,
    NO_FAULTS,
    SLOW_KERNEL,
    TRANSIENT_OOM,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.serving.report import (
    Outcome,
    REASON_ADMISSION,
    REASON_DEADLINE,
    REASON_RETRY_BUDGET,
    RequestOutcome,
    ServingReport,
)
from repro.serving.retry import NO_RETRIES, RetryPolicy
from repro.serving.runtime import ServingRuntime

__all__ = [
    "AdmissionController",
    "AdmissionGateway",
    "GatewayEvent",
    "GatewayResult",
    "QosClass",
    "REASON_QUEUE_OVERFLOW",
    "REASON_RATE_LIMIT",
    "REASON_UNKNOWN_TENANT",
    "ScheduledRequest",
    "TenantPolicy",
    "TokenBucket",
    "DEFAULT_TILES",
    "ContinuousBatcher",
    "TokenBudgetExceededError",
    "build_megabatch",
    "quantize_tile",
    "retile",
    "scatter_outputs",
    "DEFAULT_LEVELS",
    "DegradationLadder",
    "DegradationLevel",
    "LadderTransition",
    "LAUNCH_FAILURE",
    "NO_FAULTS",
    "SLOW_KERNEL",
    "TRANSIENT_OOM",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "Outcome",
    "REASON_ADMISSION",
    "REASON_DEADLINE",
    "REASON_RETRY_BUDGET",
    "RequestOutcome",
    "ServingReport",
    "NO_RETRIES",
    "RetryPolicy",
    "ServingRuntime",
]
