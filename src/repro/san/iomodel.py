"""Analytical I/O model: volume loads → disk contention → latencies/metrics.

This is the substrate that makes the paper's fault scenarios *mechanically*
real: an external workload written to a new volume V′ that happens to share
spindles with V1 drives up the utilisation of those disks, which inflates V1's
service times and therefore the running time of every query operator whose
tablespace lives on V1.

Model
-----
Per simulation tick, every volume has an offered load (:class:`VolumeLoad`).
The subsystem cache absorbs a fraction of reads (larger for sequential
streams) and of writes (write-back cache).  The residual I/Os are spread
evenly over the volume's disks; RAID write penalty multiplies back-end
writes.  Each disk then behaves like an M/M/1 server: with utilisation
``rho = iops / max_iops``, its latency is ``service_time / (1 - rho)``
(capped).  Volume response times combine cache hits with the average latency
of their disks; fabric transit adds a fixed overhead.

The model emits one flat metric sample per tick covering disks, volumes,
pools, subsystems, switches and HBA ports, using the storage-metric names of
Figure 4 / Table 2 (``readIO``, ``writeTime``, ``bytesRead``...).

Volume read/write counts are reported as *back-end* (rank-level) numbers, the
way enterprise controllers such as the paper's DS6000 expose them: the
activity of every volume co-located on the same disks is visible in each
volume's back-end counters.  This is what makes V1's ``writeIO`` anomalous in
Table 2 even though the contending writes target V′.  Front-end (host-issued)
counters are also emitted with a ``frontend`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .components import Disk, FcPort, Hba, StoragePool, StorageSubsystem
from .topology import SanTopology

__all__ = ["VolumeLoad", "SanPerfSample", "TopologyPlan", "IoSimulator", "MAX_UTILISATION"]

#: Utilisation is clamped below 1.0 so the latency curve stays finite.
MAX_UTILISATION = 0.95

#: Fixed fabric transit time added to every volume response (ms).
FABRIC_LATENCY_MS = 0.15

#: Background read IOPS a RAID rebuild imposes on every disk of the affected
#: pool (peers are read to reconstruct the rebuilding member).
REBUILD_PEER_IOPS = 45.0


@dataclass(frozen=True)
class VolumeLoad:
    """Offered I/O load on one volume during one tick."""

    read_iops: float = 0.0
    write_iops: float = 0.0
    read_kb: float = 8.0
    write_kb: float = 8.0
    sequential_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.read_iops < 0 or self.write_iops < 0:
            raise ValueError("iops must be non-negative")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must be in [0, 1]")

    def __add__(self, other: "VolumeLoad") -> "VolumeLoad":
        total_read = self.read_iops + other.read_iops
        total_write = self.write_iops + other.write_iops

        def _mix(a_w: float, a_v: float, b_w: float, b_v: float, default: float) -> float:
            if a_w + b_w <= 0:
                return default
            return (a_w * a_v + b_w * b_v) / (a_w + b_w)

        return VolumeLoad(
            read_iops=total_read,
            write_iops=total_write,
            read_kb=_mix(self.read_iops, self.read_kb, other.read_iops, other.read_kb, 8.0),
            write_kb=_mix(self.write_iops, self.write_kb, other.write_iops, other.write_kb, 8.0),
            sequential_fraction=_mix(
                self.read_iops + self.write_iops,
                self.sequential_fraction,
                other.read_iops + other.write_iops,
                other.sequential_fraction,
                0.0,
            ),
        )

    @property
    def total_iops(self) -> float:
        return self.read_iops + self.write_iops


@dataclass
class SanPerfSample:
    """Flat metric sample: ``(component_id, metric) -> value`` for one tick."""

    values: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Bytes read plus written over every volume this tick (fabric traffic).
    total_bytes: float = 0.0

    def set(self, component_id: str, metric: str, value: float) -> None:
        self.values[(component_id, metric)] = float(value)

    def get(self, component_id: str, metric: str, default: float = 0.0) -> float:
        return self.values.get((component_id, metric), default)

    def metrics_for(self, component_id: str) -> dict[str, float]:
        return {
            metric: value
            for (cid, metric), value in self.values.items()
            if cid == component_id
        }

    def volume_read_latency(self, volume_id: str) -> float:
        return self.get(volume_id, "readTime")

    def volume_write_latency(self, volume_id: str) -> float:
        return self.get(volume_id, "writeTime")


#: The load of a volume nothing reads or writes this tick.
_IDLE = VolumeLoad()


@dataclass(frozen=True)
class TopologyPlan:
    """Structural indices of one topology version, in topology order.

    Holds components, never their attributes: ``failed``, ``max_iops``,
    cache parameters and RAID level are read live on every tick, so only an
    added or removed component or edge (a new :attr:`SanTopology.version`)
    calls for a new plan.
    """

    version: int
    disks: tuple[Disk, ...]
    disk_ids: tuple[str, ...]
    subsystem_ids: tuple[str, ...]
    volume_ids: tuple[str, ...]
    #: volume id -> (subsystem, pool, disks the volume is striped over)
    volumes: dict[str, tuple[StorageSubsystem, StoragePool, tuple[Disk, ...]]]
    #: (pool id, its disks) for every pool that has disks
    pools: tuple[tuple[str, tuple[Disk, ...]], ...]
    switch_ids: tuple[str, ...]
    #: HBAs and FC ports: every one carries the total fabric traffic
    port_ids: tuple[str, ...]

    @classmethod
    def build(cls, topo: SanTopology) -> "TopologyPlan":
        disks = tuple(topo.disks)
        volumes = {
            v.component_id: (
                topo.subsystem_of_volume(v.component_id),
                topo.pool_of_volume(v.component_id),
                tuple(topo.disks_of_volume(v.component_id)),
            )
            for v in topo.volumes
        }
        pools = ((p.component_id, tuple(topo.disks_of_pool(p.component_id))) for p in topo.pools)
        return cls(
            version=topo.version,
            disks=disks,
            disk_ids=tuple(d.component_id for d in disks),
            subsystem_ids=tuple(s.component_id for s in topo.subsystems),
            volume_ids=tuple(volumes),
            volumes=volumes,
            pools=tuple((pid, pool_disks) for pid, pool_disks in pools if pool_disks),
            switch_ids=tuple(s.component_id for s in topo.switches),
            port_ids=tuple(c.component_id for c in topo if isinstance(c, (Hba, FcPort))),
        )


class IoSimulator:
    """Evaluates the analytical model for one topology.

    The simulator is stateless across ticks: contention is entirely
    determined by the per-tick offered loads, which keeps the model easy to
    reason about and to test.  Degraded disks (``failed`` or under RAID
    rebuild) are handled by capacity scaling.
    """

    def __init__(self, topology: SanTopology) -> None:
        self._topology = topology
        #: disks currently rebuilding: id -> capacity multiplier (< 1)
        self._rebuild_slowdown: dict[str, float] = {}
        #: degraded fabric switches: id -> (extra transit ms, error frames)
        self._switch_degradation: dict[str, tuple[float, float]] = {}
        self._plan: TopologyPlan | None = None

    @property
    def topology(self) -> SanTopology:
        return self._topology

    # -- degradation hooks (used by the fault injector) -----------------
    def start_rebuild(self, disk_id: str, capacity_factor: float = 0.6) -> None:
        """Mark a disk as rebuilding; it retains ``capacity_factor`` of IOPS."""
        if not 0.05 <= capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in [0.05, 1.0]")
        self._topology.get(disk_id)  # validate id
        self._rebuild_slowdown[disk_id] = capacity_factor

    def finish_rebuild(self, disk_id: str) -> None:
        self._rebuild_slowdown.pop(disk_id, None)

    @property
    def rebuilding_disks(self) -> set[str]:
        return set(self._rebuild_slowdown)

    def degrade_switch(
        self, switch_id: str, extra_latency_ms: float, error_frames: float = 25.0
    ) -> None:
        """Mark a fabric switch as degraded: every I/O transiting the fabric
        pays ``extra_latency_ms`` more, and the switch reports error frames.

        This models port congestion / CRC storms on a shared fabric element —
        the fault a shared-switch correlation scenario injects once and every
        environment attached to the fabric feels.
        """
        if extra_latency_ms < 0:
            raise ValueError("extra_latency_ms must be non-negative")
        self._topology.get(switch_id)  # validate id
        self._switch_degradation[switch_id] = (extra_latency_ms, error_frames)

    def restore_switch(self, switch_id: str) -> None:
        self._switch_degradation.pop(switch_id, None)

    @property
    def degraded_switches(self) -> set[str]:
        return set(self._switch_degradation)

    # -- core model ------------------------------------------------------
    @property
    def plan(self) -> TopologyPlan:
        """The structural indices of the current topology version."""
        plan = self._plan
        if plan is None or plan.version != self._topology.version:
            plan = self._plan = TopologyPlan.build(self._topology)
        return plan

    def simulate(self, loads: Mapping[str, VolumeLoad]) -> SanPerfSample:
        """Compute one tick of per-component metrics for the offered loads."""
        topo = self._topology
        plan = self.plan
        sample = SanPerfSample()
        values = sample.values

        # 1. Cache filtering + fan-out of residual volume I/O onto disks.
        disk_read_iops: dict[str, float] = dict.fromkeys(plan.disk_ids, 0.0)
        disk_write_iops: dict[str, float] = dict(disk_read_iops)
        volume_miss: dict[str, tuple[float, float]] = {}
        cache_hits: dict[str, float] = dict.fromkeys(plan.subsystem_ids, 0.0)
        cache_refs: dict[str, float] = dict(cache_hits)

        for volume_id, load in loads.items():
            entry = plan.volumes.get(volume_id)
            if entry is None:
                if volume_id in topo:
                    topo.subsystem_of_volume(volume_id)  # raises: not a volume
                continue
            subsystem, pool, volume_disks = entry
            disks = [d for d in volume_disks if not d.failed]
            if not disks:
                continue
            hit = min(
                subsystem.read_cache_hit
                + subsystem.sequential_prefetch_bonus * load.sequential_fraction,
                0.98,
            )
            miss_read = load.read_iops * (1.0 - hit)
            backend_write = (
                load.write_iops
                * (1.0 - subsystem.write_cache_absorption)
                * pool.write_penalty
            )
            volume_miss[volume_id] = (miss_read, backend_write)
            cache_refs[subsystem.component_id] += load.read_iops
            cache_hits[subsystem.component_id] += load.read_iops * hit
            for disk in disks:
                disk_read_iops[disk.component_id] += miss_read / len(disks)
                disk_write_iops[disk.component_id] += backend_write / len(disks)

        # 1b. RAID rebuilds load every disk of the affected pool: peers are
        # read to reconstruct the rebuilding member.
        rebuilding_pools = {
            topo.get(disk_id).pool_id for disk_id in self._rebuild_slowdown
        }
        rebuild_extra: dict[str, float] = {}
        for pool_id in rebuilding_pools:
            if pool_id not in topo:
                continue
            for disk in topo.disks_of_pool(pool_id):
                rebuild_extra[disk.component_id] = REBUILD_PEER_IOPS

        # 2. Per-disk utilisation and latency.
        disk_latency: dict[str, float] = {}
        for disk in plan.disks:
            did = disk.component_id
            capacity = disk.max_iops * self._rebuild_slowdown.get(did, 1.0)
            iops = disk_read_iops[did] + disk_write_iops[did] + rebuild_extra.get(did, 0.0)
            utilisation = min(iops / capacity, MAX_UTILISATION) if capacity > 0 else MAX_UTILISATION
            latency = disk.service_time_ms / max(1.0 - utilisation, 1.0 - MAX_UTILISATION)
            disk_latency[did] = latency
            values[(did, "iops")] = float(iops)
            values[(did, "utilisation")] = float(utilisation)
            values[(did, "latency")] = float(latency)
            values[(did, "rebuilding")] = 1.0 if did in self._rebuild_slowdown else 0.0

        # 3. Volume metrics (front-end + back-end) and response times.
        # A degraded switch adds transit time to every volume response (the
        # paper's testbed has a single fabric; all I/O crosses it).
        fabric_extra_ms = sum(
            extra for extra, _frames in self._switch_degradation.values()
        )
        for vid, (subsystem, _pool, volume_disks) in plan.volumes.items():
            load = loads.get(vid, _IDLE)
            disks = [d for d in volume_disks if not d.failed]
            if disks:
                avg_disk_latency = sum(disk_latency[d.component_id] for d in disks) / len(disks)
            else:
                avg_disk_latency = 50.0  # all spindles dead: saturated fallback
            hit = min(
                subsystem.read_cache_hit
                + subsystem.sequential_prefetch_bonus * load.sequential_fraction,
                0.98,
            )
            read_time = (
                FABRIC_LATENCY_MS
                + fabric_extra_ms
                + hit * subsystem.cache_latency_ms
                + (1.0 - hit) * avg_disk_latency
            )
            write_time = (
                FABRIC_LATENCY_MS
                + fabric_extra_ms
                + subsystem.write_cache_absorption * subsystem.cache_latency_ms
                + (1.0 - subsystem.write_cache_absorption) * avg_disk_latency
            )
            values[(vid, "readIO")] = float(sum(disk_read_iops[d.component_id] for d in disks))
            values[(vid, "writeIO")] = float(sum(disk_write_iops[d.component_id] for d in disks))
            values[(vid, "readTime")] = float(read_time)
            values[(vid, "writeTime")] = float(write_time)
            values[(vid, "frontendReadIO")] = float(load.read_iops)
            values[(vid, "frontendWriteIO")] = float(load.write_iops)
            values[(vid, "bytesRead")] = float(load.read_iops * load.read_kb * 1024.0)
            values[(vid, "bytesWritten")] = float(load.write_iops * load.write_kb * 1024.0)
            values[(vid, "seqReadRequests")] = float(load.read_iops * load.sequential_fraction)
            values[(vid, "seqWriteRequests")] = float(load.write_iops * load.sequential_fraction)
            values[(vid, "totalIOs")] = float(load.total_iops)

        # 4. Pool roll-ups.
        for pid, disks in plan.pools:
            values[(pid, "totalIOs")] = float(sum(values[(d.component_id, "iops")] for d in disks))
            values[(pid, "avgLatency")] = float(
                sum(disk_latency[d.component_id] for d in disks) / len(disks)
            )
            values[(pid, "maxUtilisation")] = float(
                max(values[(d.component_id, "utilisation")] for d in disks)
            )

        # 5. Subsystem + fabric roll-ups.
        total_bytes = sum(
            values[(vid, "bytesRead")] + values[(vid, "bytesWritten")] for vid in plan.volumes
        )
        sample.total_bytes = total_bytes
        total_iops = float(sum(l.total_iops for l in loads.values()))
        physical_reads = float(sum(miss for miss, _ in volume_miss.values()))
        physical_writes = float(sum(w for _, w in volume_miss.values()))
        for sid in plan.subsystem_ids:
            refs = cache_refs.get(sid, 0.0)
            values[(sid, "totalIOs")] = total_iops
            values[(sid, "cacheHitRate")] = float(
                cache_hits.get(sid, 0.0) / refs if refs else 0.0
            )
            values[(sid, "physicalStorageReadOps")] = physical_reads
            values[(sid, "physicalStorageWriteOps")] = physical_writes

        switch_bytes = float(total_bytes / max(len(plan.switch_ids), 1))
        for swid in plan.switch_ids:
            _extra, frames = self._switch_degradation.get(swid, (0.0, 0.0))
            values[(swid, "bytesTransmitted")] = switch_bytes
            values[(swid, "bytesReceived")] = switch_bytes
            values[(swid, "errorFrames")] = float(frames)
            values[(swid, "linkFailures")] = 0.0

        port_bytes = float(total_bytes)
        for port_id in plan.port_ids:
            values[(port_id, "bytesTransferred")] = port_bytes

        return sample

    # -- conveniences ------------------------------------------------------
    def quiesced_sample(self) -> SanPerfSample:
        """Metrics under zero load (baseline latencies)."""
        return self.simulate({})

    def volume_latency_under(
        self, loads: Mapping[str, VolumeLoad], volume_id: str
    ) -> tuple[float, float]:
        """(read, write) response time of one volume under the offered loads."""
        sample = self.simulate(loads)
        return sample.volume_read_latency(volume_id), sample.volume_write_latency(volume_id)


def scaled(load: VolumeLoad, factor: float) -> VolumeLoad:
    """A copy of ``load`` with IOPS multiplied by ``factor``."""
    if factor < 0:
        raise ValueError("factor must be non-negative")
    return replace(load, read_iops=load.read_iops * factor, write_iops=load.write_iops * factor)
