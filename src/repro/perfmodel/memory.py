"""Cache/NUMA memory-path model.

Decides, per thread, which level of the hierarchy serves a kernel's
working set and at what per-thread bandwidth, accounting for:

* capacity sharing — threads co-resident in a cluster split its L2, all
  package threads split the L3 (this is why cluster-aware placement wins
  in Table 3);
* port vs aggregate cache bandwidth with a contention penalty when too
  many sharers hammer one instance;
* NUMA-controller bandwidth split among the threads placed in each
  region, with the oversubscription thrash penalty (Tables 1-2's
  block-vs-cyclic gap and the 64-thread collapse);
* a gather/scatter derating for indirection kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.base import Kernel, LoopFeature
from repro.machine.cache import CacheLevel, Sharing
from repro.machine.cpu import CPUModel
from repro.machine.vector import DType
from repro.perfmodel.placement import (
    PlacementProfile,
    placement_profile,
    reference_active,
)
from repro.util.errors import SimulationError

#: Bandwidth efficiency of gather/scatter relative to unit-stride when
#: data is served beyond the L1 (one element per cache line touched).
GATHER_EFFICIENCY = 0.5

#: Usable fraction of a cache's capacity for a thread's partitioned
#: working-set slice. With one or two sharers, streaming slices settle
#: into a shared cache with ~10% conflict loss; with three or more
#: sharers, inter-thread conflict misses escalate and only about half
#: the capacity is effectively retained (validated against the
#: set-associative simulator in tests/perfmodel/test_cachesim.py).
FIT_HEADROOM_FEW = 0.90
FIT_HEADROOM_MANY = 0.40
FEW_SHARERS = 2


def fit_headroom(sharers: int) -> float:
    """Capacity fraction usable when ``sharers`` threads share a cache."""
    if sharers < 1:
        raise SimulationError("sharers must be >= 1")
    return FIT_HEADROOM_FEW if sharers <= FEW_SHARERS else FIT_HEADROOM_MANY


@dataclass(frozen=True)
class MemoryTimes:
    """Per-iteration memory-path outcome for one thread."""

    seconds_per_iter: float
    serving_level: str  # cache level name, or "DRAM"
    per_thread_bandwidth: float  # bytes/s actually available


def _sharers_of_level(
    cpu: CPUModel,
    level: CacheLevel,
    core: int,
    cores: tuple[int, ...],
    profile: PlacementProfile | None = None,
) -> int:
    """How many active threads share the instance of ``level`` that
    ``core`` uses. ``profile`` (see :mod:`repro.perfmodel.placement`)
    answers the cluster/NUMA cases in O(1); without it the active maps
    are rebuilt from the topology each call."""
    if level.sharing is Sharing.CORE:
        return 1
    if level.sharing is Sharing.PACKAGE:
        return len(cores)
    if profile is not None:
        if level.sharing is Sharing.CLUSTER:
            return profile.cluster_sharers(core)
        if level.sharing is Sharing.NUMA:
            return profile.numa_sharers(core)
        raise SimulationError(f"unknown sharing {level.sharing}")
    topo = cpu.topology
    if level.sharing is Sharing.CLUSTER:
        return topo.active_per_cluster(cores).get(topo.cluster_of(core), 1)
    if level.sharing is Sharing.NUMA:
        return topo.active_per_numa(cores).get(topo.numa_of(core), 1)
    raise SimulationError(f"unknown sharing {level.sharing}")


def level_bandwidth_per_thread(
    cpu: CPUModel, level: CacheLevel, sharers: int
) -> float:
    """Bytes/s one thread can draw from ``level``.

    Public because the batch engine (:mod:`repro.perfmodel.batch`)
    computes the same per-(level, class) scalars — sharing the function
    is the bit-identity argument.
    """
    port = level.bandwidth_bytes_per_cycle * cpu.core.clock_hz
    agg = level.effective_aggregate_bandwidth(sharers)
    if agg is None:
        return port
    return min(port, agg * cpu.core.clock_hz / sharers)


def dram_bandwidth_per_thread(
    cpu: CPUModel,
    core: int,
    cores: tuple[int, ...],
    profile: PlacementProfile | None = None,
) -> float:
    """Bytes/s one thread can draw from DRAM given the placement.

    Shared with the batch engine; see :func:`level_bandwidth_per_thread`.
    """
    topo = cpu.topology
    mem = cpu.memory
    if mem.numa_local and topo.num_numa_nodes > 1:
        if profile is not None:
            active = profile.numa_sharers(core)
        else:
            region = topo.numa_of(core)
            active = topo.active_per_numa(cores).get(region, 1)
        regional = mem.effective_region_bandwidth(
            topo.num_numa_nodes, active
        )
        share = regional / active
    else:
        active = len(cores)
        total = mem.package_bandwidth
        if mem.thrash_threshold is not None and active > mem.thrash_threshold:
            total *= (mem.thrash_threshold / active) ** mem.thrash_exponent
        share = total / active
    if cpu.interconnect is not None and topo.num_sockets > 1:
        share = _socket_adjusted_share(cpu, share, cores)
    return min(share, mem.per_core_bandwidth_bytes)


def _socket_adjusted_share(
    cpu: CPUModel, local_share: float, cores: tuple[int, ...]
) -> float:
    """Per-thread DRAM share after the cross-socket interconnect term.

    When a placement spans sockets, first-touch page interleaving over
    the active sockets makes ``(spanned - 1) / spanned`` of each
    thread's traffic remote: it crosses the socket link, competes for
    its sustained bandwidth with every other remote-going thread, and
    pays the link latency on top of DRAM latency (arxiv 2502.10320
    measures exactly this collapse on the 2-socket SG2042). The remote
    and local fractions compose harmonically — time-weighted, like
    serial bandwidth stages.

    Deliberately *placement-global*: the result depends only on how many
    sockets the whole placement spans and the thread count, never on
    which socket ``core`` sits in. That keeps the term identical for
    every core of a symmetry class, which is what lets the batch engine
    reuse the scalar model's per-class calls bit-for-bit.
    """
    topo = cpu.topology
    spanned = topo.sockets_spanned(cores)
    if spanned <= 1:
        return local_share
    ic = cpu.interconnect
    assert ic is not None  # caller gated
    remote_fraction = (spanned - 1) / spanned
    remote_threads = len(cores) * remote_fraction
    link_share = ic.sustained_bandwidth / remote_threads
    lat = cpu.memory.latency_ns
    remote_share = (
        min(local_share, link_share) * lat / (lat + ic.latency_ns)
    )
    return 1.0 / (
        (1.0 - remote_fraction) / local_share
        + remote_fraction / remote_share
    )


def serving_level(
    cpu: CPUModel,
    kernel: Kernel,
    n: int,
    dtype: DType,
    core: int,
    cores: tuple[int, ...],
    profile: PlacementProfile | None = None,
) -> CacheLevel | None:
    """Innermost cache level whose (shared) capacity holds the working
    set, or ``None`` when the kernel streams from DRAM.

    Each thread works on ``footprint / nthreads`` bytes; a level fits if
    the combined slices of all threads sharing the instance fit its
    capacity (with a 10% headroom for conflict misses, matching what the
    set-associative simulator shows for streaming patterns).
    """
    nthreads = len(cores)
    slice_bytes = kernel.footprint_bytes(n, dtype) / nthreads
    for level in cpu.caches:
        sharers = _sharers_of_level(cpu, level, core, cores, profile)
        headroom = fit_headroom(sharers)
        if slice_bytes * sharers <= headroom * level.capacity_bytes:
            return level
    return None


def memory_time_per_iter(
    cpu: CPUModel,
    kernel: Kernel,
    n: int,
    dtype: DType,
    core: int,
    cores: tuple[int, ...],
    profile: PlacementProfile | None = None,
) -> MemoryTimes:
    """Seconds of memory-path time per main-loop iteration for the
    thread pinned to ``core``.

    ``profile`` is the placement's cached symmetry profile; when omitted
    it is looked up (cheaply, via the profile cache) so stand-alone
    callers get the O(1) sharer lookups too.
    """
    if n < 1:
        raise SimulationError(f"problem size must be >= 1, got {n}")
    if core not in cores:
        raise SimulationError(f"core {core} not in placement {cores}")
    if profile is None and not reference_active():
        profile = placement_profile(cpu.topology, cores)

    traits = kernel.traits
    bytes_per_iter = traits.bytes_per_iter(dtype)

    level = serving_level(cpu, kernel, n, dtype, core, cores, profile)
    if level is not None:
        sharers = _sharers_of_level(cpu, level, core, cores, profile)
        bandwidth = level_bandwidth_per_thread(cpu, level, sharers)
        name = level.name
        # Blocked kernels (traffic_scale < 1) also shrink outer-level
        # traffic; inner levels see the full stream.
        if level is not cpu.caches.levels[0]:
            bytes_per_iter *= traits.traffic_scale
    else:
        bandwidth = dram_bandwidth_per_thread(cpu, core, cores, profile)
        name = "DRAM"
        bytes_per_iter *= traits.traffic_scale

    if LoopFeature.INDIRECTION in traits.features and name != "L1D":
        bandwidth *= GATHER_EFFICIENCY

    if bandwidth <= 0:
        raise SimulationError("non-positive memory bandwidth")
    return MemoryTimes(
        seconds_per_iter=bytes_per_iter / bandwidth,
        serving_level=name,
        per_thread_bandwidth=bandwidth,
    )
