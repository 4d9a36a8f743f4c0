"""Tests for event log, config store, run store and collector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.executor import Executor
from repro.db.plans import canonical_q2_plan
from repro.monitor.collector import Collector, MonitoringStores
from repro.monitor.configstore import ConfigStore, flatten
from repro.monitor.events import EventLog, EventRecord
from repro.monitor.runstore import RunStore
from repro.san.events import SanEvent, SanEventKind
from repro.san.iomodel import IoSimulator, VolumeLoad


class TestEventLog:
    def test_add_and_sort(self):
        log = EventLog()
        log.add(EventRecord(time=10, kind="dml_batch", component_id="t", layer="db"))
        log.add(EventRecord(time=5, kind="dml_batch", component_id="t", layer="db"))
        assert [e.time for e in log.events] == [5, 10]

    def test_san_event_conversion(self):
        log = EventLog()
        record = log.add_san_event(
            SanEvent(3.0, SanEventKind.VOLUME_CREATED, "Vx", {"pool": "P1"})
        )
        assert record.layer == "san"
        assert record.kind == "volume_created"
        assert record.details["pool"] == "P1"

    def test_db_event_kind_validation(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.add_db_event(0.0, "made_up_kind", "x")

    def test_window_query(self):
        log = EventLog()
        for t in (1.0, 5.0, 9.0):
            log.add_db_event(t, "dml_batch", "t")
        assert len(log.in_window(2.0, 8.0)) == 1

    def test_kind_and_component_query(self):
        log = EventLog()
        log.add_db_event(0.0, "index_dropped", "ix_a")
        log.add_db_event(1.0, "dml_batch", "t")
        assert len(log.of_kind("index_dropped")) == 1
        assert len(log.for_component("ix_a")) == 1
        assert len(log.before(0.5)) == 1


class TestConfigStore:
    def test_flatten_nested(self):
        flat = flatten({"a": {"b": 1, "c": [2, 3]}})
        assert flat == {"a.b": 1, "a.c[0]": 2, "a.c[1]": 3}

    def test_diff_detects_change(self):
        store = ConfigStore()
        store.take_snapshot(0.0, "db", {"x": 1, "y": 2})
        store.take_snapshot(10.0, "db", {"x": 1, "y": 3, "z": 4})
        changes = store.diff("db", 0.0, 10.0)
        paths = {c.path: c.kind for c in changes}
        assert paths == {"y": "modified", "z": "added"}

    def test_diff_detects_removal(self):
        store = ConfigStore()
        store.take_snapshot(0.0, "db", {"x": 1})
        store.take_snapshot(10.0, "db", {})
        [change] = store.diff("db", 0.0, 10.0)
        assert change.kind == "removed"
        assert "removed" in change.describe()

    def test_snapshot_at_picks_latest_before(self):
        store = ConfigStore()
        store.take_snapshot(0.0, "db", {"x": 1})
        store.take_snapshot(20.0, "db", {"x": 2})
        assert store.snapshot_at("db", 10.0) == {"x": 1}
        assert store.snapshot_at("db", 25.0) == {"x": 2}
        assert store.snapshot_at("db", -5.0) is None

    def test_changes_between_all_scopes(self):
        store = ConfigStore()
        store.take_snapshot(0.0, "a", {"k": 1})
        store.take_snapshot(0.0, "b", {"k": 1})
        store.take_snapshot(10.0, "a", {"k": 2})
        changes = store.changes_between(0.0, 10.0)
        assert len(changes) == 1 and changes[0].scope == "a"


def make_run(catalog, run_id="r1", start=0.0, duration_scale=1.0):
    executor = Executor(catalog, noise_sigma=0.0)
    return executor.execute(
        canonical_q2_plan(),
        start,
        {"V1": 4.0 * duration_scale, "V2": 4.0 * duration_scale},
        run_id=run_id,
        query_name="q",
        rng=np.random.default_rng(0),
    )


class TestRunStore:
    def test_add_get(self, catalog):
        store = RunStore()
        run = make_run(catalog)
        store.add(run)
        assert store.get("r1") is run
        assert len(store) == 1

    def test_duplicate_rejected(self, catalog):
        store = RunStore()
        store.add(make_run(catalog))
        with pytest.raises(ValueError):
            store.add(make_run(catalog))

    def test_runs_sorted_by_start(self, catalog):
        store = RunStore()
        store.add(make_run(catalog, "b", start=100.0))
        store.add(make_run(catalog, "a", start=0.0))
        assert [r.run_id for r in store.runs("q")] == ["a", "b"]

    def test_label_by_duration(self, catalog):
        store = RunStore()
        store.add(make_run(catalog, "fast", start=0.0))
        store.add(make_run(catalog, "slow", start=100.0, duration_scale=10.0))
        threshold = store.get("fast").duration * 1.5
        good, bad = store.label_by_duration("q", threshold)
        assert (good, bad) == (1, 1)
        assert store.get("slow").satisfactory is False

    def test_label_by_window(self, catalog):
        store = RunStore()
        store.add(make_run(catalog, "early", start=0.0))
        store.add(make_run(catalog, "late", start=1000.0))
        store.label_by_window("q", 500.0, 2000.0)
        assert store.get("early").satisfactory is True
        assert store.get("late").satisfactory is False

    def test_mark_direct(self, catalog):
        store = RunStore()
        store.add(make_run(catalog))
        store.mark("r1", satisfactory=False)
        assert store.unsatisfactory_runs("q") == [store.get("r1")]

    def test_unknown_run(self):
        with pytest.raises(KeyError):
            RunStore().get("nope")


class TestCollector:
    def test_san_collection(self, testbed):
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        sample = IoSimulator(testbed.topology).simulate({"V1": VolumeLoad(read_iops=50)})
        collector.collect_san(0.0, sample)
        assert ("V1", "readTime") in stores.metrics.keys()

    def test_query_run_collection(self, catalog):
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        run = make_run(catalog)
        collector.collect_query_run(run)
        assert len(stores.runs) == 1
        assert ("db", "blocksRead") in stores.metrics.keys()

    def test_server_metrics_cover_figure4(self, testbed):
        stores = MonitoringStores()
        Collector(stores=stores).collect_server(0.0, "srv-db", cpu_pct=50.0)
        recorded = stores.metrics.metrics_for("srv-db")
        assert {"cpuUsagePct", "physicalMemoryUsagePct", "threads"} <= recorded

    def test_network_metrics_cover_figure4(self):
        stores = MonitoringStores()
        Collector(stores=stores).collect_network(0.0, "sw", bytes_moved=1e6)
        recorded = stores.metrics.metrics_for("sw")
        assert {"bytesTransmitted", "errorFrames", "crcErrors"} <= recorded


class TestCollectorTap:
    """The streaming tap: observers see every append without polling."""

    def test_metric_tap_sees_every_san_append(self, testbed):
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        seen = []
        collector.add_metric_tap(lambda row: seen.extend((cid, m) for _t, cid, m, _v in row))
        sample = IoSimulator(testbed.topology).simulate({"V1": VolumeLoad(read_iops=50)})
        collector.collect_san(0.0, sample)
        assert len(seen) == len(stores.metrics)
        assert ("V1", "readTime") in seen

    def test_run_tap_sees_recorded_runs(self, catalog):
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        seen = []
        collector.add_run_tap(seen.append)
        run = make_run(catalog)
        collector.collect_query_run(run)
        assert seen == [run]

    def test_tap_fires_on_singles_and_heartbeats(self):
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        seen = []
        collector.add_metric_tap(lambda row: seen.extend(m for _t, _cid, m, _v in row))
        collector.collect_db_tick(0.0, locks_held=3.0)
        collector.collect_server(0.0, "srv-db", cpu_pct=10.0)
        assert "locksHeld" in seen and "cpuUsagePct" in seen

    def test_remove_tap(self):
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        seen = []
        tap = collector.add_metric_tap(lambda row: seen.extend(m for _t, _cid, m, _v in row))
        collector.collect_db_tick(0.0, locks_held=1.0)
        collector.remove_tap(tap)
        collector.collect_db_tick(60.0, locks_held=1.0)
        assert len(seen) == 1

    def test_untapped_collector_unchanged(self, testbed):
        """No observers: the collector behaves exactly like the seed's."""
        stores = MonitoringStores()
        collector = Collector(stores=stores)
        sample = IoSimulator(testbed.topology).simulate({"V1": VolumeLoad(read_iops=50)})
        collector.collect_san(0.0, sample)
        assert len(stores.metrics) == len(sample.values)
