"""Differential test: the planned ``IoSimulator.simulate`` against the unplanned one.

:func:`oracle_simulate` is a frozen copy of ``simulate`` from before the
simulator kept a :class:`~repro.san.iomodel.TopologyPlan`: it re-derives every
topology index on every call and writes through ``SanPerfSample.set``.  The
planned simulator must emit the same keys in the same order with the same
float bits, and the same ``total_bytes``, whatever happens to the topology
between ticks: structural edits must invalidate the plan, and attribute
edits (a failed disk, a rebuild, a degraded switch) must be read live.
"""

from __future__ import annotations

import random

import pytest

from repro.lab.scenarios import all_table1_scenarios
from repro.san.builder import build_testbed
from repro.san.components import Disk, FcPort, Hba, Volume
from repro.san.iomodel import (
    FABRIC_LATENCY_MS,
    MAX_UTILISATION,
    REBUILD_PEER_IOPS,
    IoSimulator,
    SanPerfSample,
    VolumeLoad,
)
from repro.san.topology import TopologyError


def oracle_simulate(sim: IoSimulator, loads) -> SanPerfSample:
    """``IoSimulator.simulate`` as it was before the topology plan, frozen."""
    topo = sim.topology
    rebuild_slowdown = sim._rebuild_slowdown
    switch_degradation = sim._switch_degradation
    sample = SanPerfSample()

    disk_read_iops = {d.component_id: 0.0 for d in topo.disks}
    disk_write_iops = dict(disk_read_iops)
    volume_miss = {}
    cache_hits = {s.component_id: 0.0 for s in topo.subsystems}
    cache_refs = dict(cache_hits)

    for volume_id, load in loads.items():
        if volume_id not in topo:
            continue
        subsystem = topo.subsystem_of_volume(volume_id)
        pool = topo.pool_of_volume(volume_id)
        disks = [d for d in topo.disks_of_volume(volume_id) if not d.failed]
        if not disks:
            continue
        hit = min(
            subsystem.read_cache_hit
            + subsystem.sequential_prefetch_bonus * load.sequential_fraction,
            0.98,
        )
        miss_read = load.read_iops * (1.0 - hit)
        backend_write = (
            load.write_iops * (1.0 - subsystem.write_cache_absorption) * pool.write_penalty
        )
        volume_miss[volume_id] = (miss_read, backend_write)
        cache_refs[subsystem.component_id] += load.read_iops
        cache_hits[subsystem.component_id] += load.read_iops * hit
        for disk in disks:
            disk_read_iops[disk.component_id] += miss_read / len(disks)
            disk_write_iops[disk.component_id] += backend_write / len(disks)

    rebuilding_pools = {topo.get(disk_id).pool_id for disk_id in rebuild_slowdown}
    rebuild_extra = {}
    for pool_id in rebuilding_pools:
        if pool_id not in topo:
            continue
        for disk in topo.disks_of_pool(pool_id):
            rebuild_extra[disk.component_id] = REBUILD_PEER_IOPS

    disk_latency = {}
    for disk in topo.disks:
        did = disk.component_id
        capacity = disk.max_iops * rebuild_slowdown.get(did, 1.0)
        iops = disk_read_iops[did] + disk_write_iops[did] + rebuild_extra.get(did, 0.0)
        utilisation = min(iops / capacity, MAX_UTILISATION) if capacity > 0 else MAX_UTILISATION
        latency = disk.service_time_ms / max(1.0 - utilisation, 1.0 - MAX_UTILISATION)
        disk_latency[did] = latency
        sample.set(did, "iops", iops)
        sample.set(did, "utilisation", utilisation)
        sample.set(did, "latency", latency)
        sample.set(did, "rebuilding", 1.0 if did in rebuild_slowdown else 0.0)

    fabric_extra_ms = sum(extra for extra, _frames in switch_degradation.values())
    for volume in topo.volumes:
        vid = volume.component_id
        load = loads.get(vid, VolumeLoad())
        subsystem = topo.subsystem_of_volume(vid)
        disks = [d for d in topo.disks_of_volume(vid) if not d.failed]
        if disks:
            avg_disk_latency = sum(disk_latency[d.component_id] for d in disks) / len(disks)
        else:
            avg_disk_latency = 50.0
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
        backend_read = sum(disk_read_iops[d.component_id] for d in disks)
        backend_write = sum(disk_write_iops[d.component_id] for d in disks)
        sample.set(vid, "readIO", backend_read)
        sample.set(vid, "writeIO", backend_write)
        sample.set(vid, "readTime", read_time)
        sample.set(vid, "writeTime", write_time)
        sample.set(vid, "frontendReadIO", load.read_iops)
        sample.set(vid, "frontendWriteIO", load.write_iops)
        sample.set(vid, "bytesRead", load.read_iops * load.read_kb * 1024.0)
        sample.set(vid, "bytesWritten", load.write_iops * load.write_kb * 1024.0)
        sample.set(vid, "seqReadRequests", load.read_iops * load.sequential_fraction)
        sample.set(vid, "seqWriteRequests", load.write_iops * load.sequential_fraction)
        sample.set(vid, "totalIOs", load.total_iops)

    for pool in topo.pools:
        disks = topo.disks_of_pool(pool.component_id)
        if not disks:
            continue
        pid = pool.component_id
        sample.set(pid, "totalIOs", sum(sample.get(d.component_id, "iops") for d in disks))
        sample.set(pid, "avgLatency", sum(disk_latency[d.component_id] for d in disks) / len(disks))
        sample.set(
            pid, "maxUtilisation", max(sample.get(d.component_id, "utilisation") for d in disks)
        )

    total_bytes = sum(
        sample.get(v.component_id, "bytesRead") + sample.get(v.component_id, "bytesWritten")
        for v in topo.volumes
    )
    for subsystem in topo.subsystems:
        sid = subsystem.component_id
        refs = cache_refs.get(sid, 0.0)
        sample.set(sid, "totalIOs", sum(l.total_iops for l in loads.values()))
        sample.set(sid, "cacheHitRate", cache_hits.get(sid, 0.0) / refs if refs else 0.0)
        sample.set(sid, "physicalStorageReadOps", sum(miss for miss, _ in volume_miss.values()))
        sample.set(sid, "physicalStorageWriteOps", sum(w for _, w in volume_miss.values()))

    for switch in topo.switches:
        swid = switch.component_id
        _extra, frames = switch_degradation.get(swid, (0.0, 0.0))
        sample.set(swid, "bytesTransmitted", total_bytes / max(len(topo.switches), 1))
        sample.set(swid, "bytesReceived", total_bytes / max(len(topo.switches), 1))
        sample.set(swid, "errorFrames", frames)
        sample.set(swid, "linkFailures", 0.0)

    for component in topo:
        if isinstance(component, (Hba, FcPort)):
            sample.set(component.component_id, "bytesTransferred", total_bytes)

    return sample


def oracle_total_bytes(sim: IoSimulator, sample: SanPerfSample) -> float:
    """The fabric total the environment re-summed from a sample every tick."""
    return sum(
        sample.get(v.component_id, "bytesRead") + sample.get(v.component_id, "bytesWritten")
        for v in sim.topology.volumes
    )


def bits(sample: SanPerfSample) -> list[tuple[tuple[str, str], str]]:
    """Keys in order with each value's exact bits (``-0.0`` and ``0.0`` differ)."""
    out = []
    for key, value in sample.values.items():
        assert type(value) is float, (key, value)
        out.append((key, value.hex()))
    return out


def assert_matches_oracle(sim: IoSimulator, loads) -> SanPerfSample:
    expected = oracle_simulate(sim, loads)
    got = sim.simulate(loads)
    assert bits(got) == bits(expected)
    assert list(got.values.items()) == list(expected.values.items())
    assert got.total_bytes == oracle_total_bytes(sim, expected)
    return got


def mixed_loads(volume_ids, rng: random.Random) -> dict[str, VolumeLoad]:
    """Random loads on a random subset of volumes, ints and floats mixed."""
    loads = {}
    for vid in volume_ids:
        roll = rng.random()
        if roll < 0.2:
            continue
        if roll < 0.35:
            loads[vid] = VolumeLoad(read_iops=rng.randint(0, 400), write_iops=rng.randint(0, 90))
            continue
        loads[vid] = VolumeLoad(
            read_iops=rng.uniform(0.0, 900.0),
            write_iops=rng.uniform(0.0, 300.0),
            read_kb=rng.choice((4.0, 8.0, 64.0, 256.0)),
            write_kb=rng.choice((4.0, 8.0, 32.0)),
            sequential_fraction=rng.random(),
        )
    return loads


@pytest.fixture
def sim():
    return IoSimulator(build_testbed().topology)


VOLUMES = ("V1", "V2", "V3", "V4")


@pytest.mark.parametrize(
    "scenario", all_table1_scenarios(hours=1.0), ids=lambda s: s.info.name
)
def test_table1_testbeds_under_mixed_loads(scenario):
    env = scenario.build()
    sim = env.iosim
    rng = random.Random(scenario.info.name)
    volume_ids = [v.component_id for v in sim.topology.volumes]
    assert_matches_oracle(sim, {})
    for _ in range(60):
        assert_matches_oracle(sim, mixed_loads(volume_ids, rng))


def test_table1_environment_ticks_match_oracle():
    """Every tick of a run with the V' fault: the plan survives the mid-run add."""
    scenario = next(
        s for s in all_table1_scenarios(hours=3.0) if s.info.name == "san-misconfiguration"
    )
    env = scenario.build()
    compared = []
    original = env.iosim.simulate

    def checked(loads):
        expected = oracle_simulate(env.iosim, loads)
        got = original(loads)
        assert bits(got) == bits(expected)
        assert got.total_bytes == oracle_total_bytes(env.iosim, expected)
        compared.append(len(got.values))
        return got

    env.iosim.simulate = checked
    env.run(scenario.duration_s)
    assert len(compared) >= 180
    assert len(set(compared)) == 2  # before and after V' appeared


def test_volume_added_and_connected_mid_run(sim):
    rng = random.Random(1)
    assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    before = sim.plan
    topo = sim.topology
    topo.add(Volume(component_id="Vprime", name="Vprime", pool_id="P2"))
    # Added but not yet connected: already a volume of its pool's disks.
    assert_matches_oracle(sim, {"Vprime": VolumeLoad(write_iops=150.0), "V2": VolumeLoad(40.0)})
    topo.connect("P2", "Vprime")
    after = sim.plan
    assert after is not before and "Vprime" in after.volume_ids
    for _ in range(10):
        loads = mixed_loads(VOLUMES + ("Vprime",), rng)
        got = assert_matches_oracle(sim, loads)
        assert ("Vprime", "writeIO") in got.values


def test_explicit_volume_disk_edges(sim):
    topo = sim.topology
    rng = random.Random(2)
    topo.connect("V3", "d9")
    topo.connect("V3", "d10")
    assert sim.plan.volumes["V3"][2] == tuple(topo.get(d) for d in ("d9", "d10"))
    for _ in range(10):
        assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    topo.disconnect("V3", "d9")
    for _ in range(5):
        assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))


def test_failed_disk_read_live_without_replanning(sim):
    rng = random.Random(3)
    loads = mixed_loads(VOLUMES, rng)
    plan = sim.plan
    disk = sim.topology.get("d2")
    assert isinstance(disk, Disk)
    disk.failed = True
    assert_matches_oracle(sim, loads)
    assert sim.plan is plan
    for did in ("d1", "d2", "d3", "d4"):
        sim.topology.get(did).failed = True
    all_dead = assert_matches_oracle(sim, loads)
    assert all_dead.get("V1", "readIO") == 0.0
    for did in ("d1", "d2", "d3", "d4"):
        sim.topology.get(did).failed = False
    assert_matches_oracle(sim, loads)
    assert sim.plan is plan


def test_attribute_edits_read_live(sim):
    rng = random.Random(4)
    loads = mixed_loads(VOLUMES, rng)
    plan = sim.plan
    sim.topology.get("d7").max_iops = 60.0
    sim.topology.get("ds6000").read_cache_hit = 0.6
    sim.topology.get("P2").raid_level = "RAID10"
    assert_matches_oracle(sim, loads)
    assert sim.plan is plan


def test_rebuild_start_and_finish(sim):
    rng = random.Random(5)
    sim.start_rebuild("d6", capacity_factor=0.4)
    for _ in range(5):
        got = assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
        assert got.get("d6", "rebuilding") == 1.0
    sim.finish_rebuild("d6")
    got = assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    assert got.get("d6", "rebuilding") == 0.0


def test_switch_degrade_and_restore(sim):
    rng = random.Random(6)
    sim.degrade_switch("fcsw-core", extra_latency_ms=2.5, error_frames=40.0)
    got = assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    assert got.get("fcsw-core", "errorFrames") == 40.0
    sim.restore_switch("fcsw-core")
    got = assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    assert got.get("fcsw-core", "errorFrames") == 0.0


def test_disconnect_and_remove_invalidate_plan(sim):
    rng = random.Random(7)
    topo = sim.topology
    assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    plan = sim.plan
    topo.disconnect("P2", "d10")  # d10 leaves P2's stripe
    assert sim.plan is not plan
    assert topo.get("d10") not in sim.plan.volumes["V2"][2]
    assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    plan = sim.plan
    topo.disconnect("P2", "d10")  # no such edge any more: nothing changes
    assert sim.plan is plan
    topo.remove("V4")
    assert "V4" not in sim.plan.volume_ids
    got = assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))
    assert ("V4", "readTime") not in got.values
    topo.remove("fcsw-edge")
    assert sim.plan.switch_ids == ("fcsw-core",)
    assert_matches_oracle(sim, mixed_loads(VOLUMES, rng))


def test_pool_without_disks_skipped(sim):
    topo = sim.topology
    for did in ("d1", "d2", "d3", "d4"):
        topo.disconnect("P1", did)
    got = assert_matches_oracle(sim, {"V1": VolumeLoad(read_iops=100.0)})
    assert ("P1", "totalIOs") not in got.values


def test_unknown_volume_load_skipped(sim):
    loads = {"nope": VolumeLoad(read_iops=100.0), "V1": VolumeLoad(read_iops=20.0)}
    got = assert_matches_oracle(sim, loads)
    assert not any(cid == "nope" for cid, _metric in got.values)


def test_non_volume_load_raises_same_error(sim):
    loads = {"V1": VolumeLoad(read_iops=20.0), "d1": VolumeLoad(read_iops=5.0)}
    with pytest.raises(TopologyError) as expected:
        oracle_simulate(sim, loads)
    with pytest.raises(TopologyError) as got:
        sim.simulate(loads)
    assert str(got.value) == str(expected.value)


def test_total_bytes_without_volumes():
    topo = build_testbed().topology
    for vid in VOLUMES:
        topo.remove(vid)
    sim = IoSimulator(topo)
    got = assert_matches_oracle(sim, {})
    assert got.total_bytes == 0
