"""The priced interconnect: links, clusters and collective kernels.

One simulated A100 became a cluster.  A :class:`LinkSpec` models the
device-to-device fabric (NVLink or PCIe: per-direction bandwidth, hop
latency, and how much of that bandwidth survives when both directions
are in flight at once); a :class:`ClusterSpec` binds N copies of one
:class:`~repro.gpusim.device.DeviceSpec` together over one link model.

Collectives are *kernels*: :func:`all_reduce_launch` & friends build
ordinary :class:`~repro.gpusim.kernel.KernelLaunch` descriptors (with
the ``comm_*`` fields set) that flow through
:meth:`~repro.gpusim.stream.ExecutionContext.launch` like any GEMM —
they appear in launch streams, captured graphs, Chrome traces and the
profiler, and the context's launch hook fires on them, so seeded chaos
can strike communication exactly as it strikes compute.  Pricing lives
in :func:`collective_time_us`, the interconnect twin of
:func:`~repro.gpusim.timing.kernel_time_us`:

* **ring** all-reduce — ``2·(N-1)`` steps, each moving ``B/N`` bytes
  with both directions of every link busy (the bidirectional
  efficiency applies).  Bandwidth-optimal: the per-device traffic is
  ``2·B·(N-1)/N`` no matter how large the ring grows.
* **tree** all-reduce — a reduce then a broadcast along a binary tree:
  ``2·ceil(log2 N)`` hops each moving the *full* payload one direction.
  Latency-optimal: hop count grows with ``log N``, not ``N``.

Small payloads therefore prefer the tree (few latency terms), large
payloads the ring (the ``B/N`` chunks amortise the extra hops) — the
``"auto"`` algorithm picks whichever the link model prices cheaper,
and the crossover payload is a pure function of the cluster, asserted
stable by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.errors import LaunchConfigError
from repro.gpusim.kernel import KernelLaunch
from repro.hashing import cached_hash

#: kernel category every collective launch carries; the profiler, the
#: Chrome exporter's interconnect lane and the bench comm/compute split
#: all key off it
COLLECTIVE_CATEGORY = "collective"

#: the collective algorithms :func:`all_reduce_launch` accepts
ALL_REDUCE_ALGOS = ("auto", "ring", "tree")


@dataclass(frozen=True)
class LinkSpec:
    """One device-to-device link of the cluster fabric.

    ``bandwidth_gbs`` is the *per-direction* bandwidth of one link;
    ``latency_us`` the fixed cost of one hop (software stack + wire).
    ``bidirectional_efficiency`` is the fraction of per-direction
    bandwidth each direction sustains when both are loaded at once —
    NVLink is close to full duplex, PCIe contends on shared lanes and
    root-complex arbitration.
    """

    name: str
    bandwidth_gbs: float
    latency_us: float
    bidirectional_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0:
            raise ValueError(
                f"bandwidth_gbs must be positive, got {self.bandwidth_gbs}"
            )
        if self.latency_us < 0:
            raise ValueError(
                f"latency_us must be non-negative, got {self.latency_us}"
            )
        if not 0.0 < self.bidirectional_efficiency <= 1.0:
            raise ValueError(
                "bidirectional_efficiency must be in (0, 1], got "
                f"{self.bidirectional_efficiency}"
            )

    @property
    def duplex_bandwidth_gbs(self) -> float:
        """Per-direction bandwidth sustained under bidirectional load."""
        return self.bandwidth_gbs * self.bidirectional_efficiency


#: A100-SXM NVLink 3 fabric: 12 links x 25 GB/s per direction through
#: NVSwitch, near-full duplex, ~2 us software+switch hop latency.
NVLINK3_LINK = LinkSpec(
    name="nvlink3",
    bandwidth_gbs=300.0,
    latency_us=1.8,
    bidirectional_efficiency=0.95,
)

#: PCIe 4.0 x16 host fabric: ~25 GB/s effective per direction, shared
#: lanes contend hard bidirectionally, and each hop crosses the root
#: complex.
PCIE4_LINK = LinkSpec(
    name="pcie4",
    bandwidth_gbs=25.0,
    latency_us=4.0,
    bidirectional_efficiency=0.7,
)


@cached_hash
@dataclass(frozen=True)
class ClusterSpec:
    """N identical devices joined by one link model.

    Hashable and immutable for the same reason :class:`DeviceSpec` is:
    cluster identity participates in graph-cache keys and in the
    :meth:`~repro.gpusim.graph.LaunchGraph.replay` topology guard — a
    stream captured on one topology must never replay on another.
    """

    name: str
    device: DeviceSpec
    num_devices: int
    link: LinkSpec

    def __post_init__(self) -> None:
        if self.num_devices < 2:
            raise ValueError(
                f"a cluster needs >= 2 devices, got {self.num_devices}"
            )

    def with_devices(self, num_devices: int) -> "ClusterSpec":
        """The same fabric at a different device count."""
        return replace(
            self,
            num_devices=num_devices,
            name=f"{self.device.name}x{num_devices}-{self.link.name}",
        )


def make_cluster(
    num_devices: int,
    device: DeviceSpec = A100_SPEC,
    link: LinkSpec = NVLINK3_LINK,
    name: str | None = None,
) -> ClusterSpec:
    """Build a homogeneous cluster spec (the common case)."""
    return ClusterSpec(
        name=(
            name
            if name is not None
            else f"{device.name}x{num_devices}-{link.name}"
        ),
        device=device,
        num_devices=num_devices,
        link=link,
    )


# ----------------------------------------------------------------------
# pricing — the interconnect twin of timing.kernel_time_us

def ring_all_reduce_us(nbytes: float, devices: int, link: LinkSpec) -> float:
    """Ring all-reduce: reduce-scatter + all-gather, 2(N-1) chunk steps.

    Every step moves ``B/N`` bytes per device with both link directions
    in flight (each device sends to its successor while receiving from
    its predecessor), so the duplex bandwidth applies.
    """
    steps = 2 * (devices - 1)
    chunk = nbytes / devices
    per_step = link.latency_us + chunk / (link.duplex_bandwidth_gbs * 1e3)
    return steps * per_step


def tree_all_reduce_us(nbytes: float, devices: int, link: LinkSpec) -> float:
    """Tree all-reduce: binary-tree reduce then broadcast.

    ``2·ceil(log2 N)`` hops each move the full payload one direction —
    few latency terms, no payload amortisation.
    """
    hops = 2 * math.ceil(math.log2(devices))
    per_hop = link.latency_us + nbytes / (link.bandwidth_gbs * 1e3)
    return hops * per_hop


def all_gather_us(nbytes: float, devices: int, link: LinkSpec) -> float:
    """Ring all-gather of a ``nbytes`` total result: (N-1) chunk steps."""
    steps = devices - 1
    chunk = nbytes / devices
    per_step = link.latency_us + chunk / (link.duplex_bandwidth_gbs * 1e3)
    return steps * per_step


def p2p_us(nbytes: float, devices: int, link: LinkSpec) -> float:
    """Root-serialised point-to-point scatter/gather.

    The root exchanges ``B/N`` bytes with each of the other ``N-1``
    devices one after another over its own links (one direction loaded,
    so full per-direction bandwidth).
    """
    steps = devices - 1
    chunk = nbytes / devices
    per_step = link.latency_us + chunk / (link.bandwidth_gbs * 1e3)
    return steps * per_step


def collective_time_us(launch: KernelLaunch, cluster: ClusterSpec) -> float:
    """Total modelled latency of one collective launch, microseconds.

    The interconnect counterpart of
    :func:`~repro.gpusim.timing.kernel_time_us`: the device's kernel
    launch overhead (a collective is still a launched kernel) plus the
    link-model transfer time of the launch's algorithm, plus any
    ``extra_overhead_us`` the descriptor carries.
    """
    devices = launch.comm_devices
    if devices < 2:
        raise LaunchConfigError(
            f"launch {launch.name!r} is not a collective "
            f"(comm_devices={devices})"
        )
    if devices > cluster.num_devices:
        raise LaunchConfigError(
            f"collective {launch.name!r} spans {devices} devices but the "
            f"cluster {cluster.name!r} has {cluster.num_devices}"
        )
    link = cluster.link
    nbytes = launch.comm_bytes
    algo = launch.comm_algo
    if algo == "ring":
        transfer = ring_all_reduce_us(nbytes, devices, link)
    elif algo == "tree":
        transfer = tree_all_reduce_us(nbytes, devices, link)
    elif algo == "ring-ag":
        transfer = all_gather_us(nbytes, devices, link)
    elif algo == "p2p":
        transfer = p2p_us(nbytes, devices, link)
    else:
        raise LaunchConfigError(
            f"collective {launch.name!r} has unknown algorithm {algo!r}"
        )
    return (
        cluster.device.kernel_launch_overhead_us
        + launch.extra_overhead_us
        + transfer
    )


# ----------------------------------------------------------------------
# launch builders — collectives as ordinary KernelLaunch descriptors

def _collective_launch(
    name: str, nbytes: float, devices: int, algo: str
) -> KernelLaunch:
    if devices < 2:
        raise ValueError(
            f"a collective needs >= 2 devices, got {devices}"
        )
    if nbytes < 0:
        raise ValueError(f"comm_bytes must be non-negative, got {nbytes}")
    return KernelLaunch(
        name=name,
        category=COLLECTIVE_CATEGORY,
        grid=devices,
        block_threads=256,
        comm_bytes=float(nbytes),
        comm_devices=int(devices),
        comm_algo=algo,
    )


def choose_all_reduce_algo(
    nbytes: float, devices: int, link: LinkSpec
) -> str:
    """The cheaper of ring and tree for this payload on this link.

    A pure function of ``(nbytes, devices, link)`` — the choice is
    deterministic and therefore graph-replay safe.  Ties go to the ring
    (the bandwidth-optimal default).
    """
    ring = ring_all_reduce_us(nbytes, devices, link)
    tree = tree_all_reduce_us(nbytes, devices, link)
    return "tree" if tree < ring else "ring"


def all_reduce_launch(
    nbytes: float,
    cluster: ClusterSpec,
    *,
    devices: int | None = None,
    algo: str = "auto",
    name: str | None = None,
) -> KernelLaunch:
    """An all-reduce over ``devices`` (default: the whole cluster).

    ``algo="auto"`` resolves to ring or tree at build time via
    :func:`choose_all_reduce_algo`, so the descriptor that lands in a
    captured graph names the concrete algorithm it was priced as.
    """
    if algo not in ALL_REDUCE_ALGOS:
        raise ValueError(
            f"algo must be one of {ALL_REDUCE_ALGOS}, got {algo!r}"
        )
    group = devices if devices is not None else cluster.num_devices
    if algo == "auto":
        algo = choose_all_reduce_algo(nbytes, group, cluster.link)
    return _collective_launch(
        name if name is not None else f"allreduce_{algo}",
        nbytes,
        group,
        algo,
    )


def all_gather_launch(
    nbytes: float,
    cluster: ClusterSpec,
    *,
    devices: int | None = None,
    name: str | None = None,
) -> KernelLaunch:
    """A ring all-gather producing ``nbytes`` total on every device."""
    group = devices if devices is not None else cluster.num_devices
    return _collective_launch(
        name if name is not None else "allgather_ring",
        nbytes,
        group,
        "ring-ag",
    )


def scatter_launch(
    nbytes: float,
    cluster: ClusterSpec,
    *,
    devices: int | None = None,
    name: str | None = None,
) -> KernelLaunch:
    """A root-to-all point-to-point scatter of ``nbytes`` total."""
    group = devices if devices is not None else cluster.num_devices
    return _collective_launch(
        name if name is not None else "scatter_p2p", nbytes, group, "p2p"
    )


def gather_launch(
    nbytes: float,
    cluster: ClusterSpec,
    *,
    devices: int | None = None,
    name: str | None = None,
) -> KernelLaunch:
    """An all-to-root point-to-point gather of ``nbytes`` total."""
    group = devices if devices is not None else cluster.num_devices
    return _collective_launch(
        name if name is not None else "gather_p2p", nbytes, group, "p2p"
    )


def crossover_bytes(
    devices: int, link: LinkSpec, hi: float = 1 << 34
) -> float:
    """The payload where ring and tree all-reduce cost the same.

    Below it the tree's few latency hops win; above it the ring's
    ``B/N`` chunks win.  Solved in closed form from the two linear cost
    models (both are ``a + b·B``); returns ``inf`` when the ring never
    overtakes (N = 2, where ring and tree have identical hop counts and
    the ring moves less data) and 0.0 when the tree never wins.
    """
    if devices < 2:
        raise ValueError(f"devices must be >= 2, got {devices}")
    lat_ring = 2 * (devices - 1) * link.latency_us
    lat_tree = 2 * math.ceil(math.log2(devices)) * link.latency_us
    slope_ring = (
        2 * (devices - 1) / devices / (link.duplex_bandwidth_gbs * 1e3)
    )
    slope_tree = (
        2 * math.ceil(math.log2(devices)) / (link.bandwidth_gbs * 1e3)
    )
    if slope_ring >= slope_tree:
        # the ring never becomes cheaper with payload
        return 0.0 if lat_tree <= lat_ring else float("inf")
    if lat_tree >= lat_ring:
        return 0.0
    cross = (lat_ring - lat_tree) / (slope_tree - slope_ring)
    return min(cross, hi)
