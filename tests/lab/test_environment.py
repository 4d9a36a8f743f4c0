"""Tests for the environment orchestration and fault injector."""

from __future__ import annotations

import pytest

from repro.db.plans import canonical_q2_plan
from repro.db.tpch import build_tpch_catalog
from repro.lab.environment import Environment
from repro.lab.faults import FaultInjector
from repro.lab.workloads import QueryJob
from repro.san.builder import build_testbed


def small_env(seed=1, **kw) -> Environment:
    env = Environment(
        testbed=build_testbed(),
        catalog=build_tpch_catalog(),
        seed=seed,
        **kw,
    )
    env.add_job(
        QueryJob(
            name="q2-report",
            period_s=1800.0,
            first_run_s=600.0,
            pinned_plan=canonical_q2_plan(),
        )
    )
    return env


HOURS_2 = 2 * 3600.0


class TestRunLoop:
    def test_runs_recorded_on_schedule(self):
        env = small_env()
        bundle = env.run(HOURS_2)
        runs = bundle.stores.runs.runs("q2-report")
        assert len(runs) == 4  # 600, 2400, 4200, 6000
        assert [r.start_time for r in runs] == [600.0, 2400.0, 4200.0, 6000.0]

    def test_metrics_collected_every_tick(self):
        env = small_env()
        bundle = env.run(HOURS_2)
        series = bundle.stores.metrics.series("V1", "readTime")
        assert len(series) == pytest.approx(HOURS_2 / 300.0, abs=2)

    def test_config_snapshot_taken_at_start(self):
        env = small_env()
        bundle = env.run(HOURS_2)
        assert bundle.stores.config.snapshot_at("db_catalog", 1.0) is not None
        assert bundle.stores.config.snapshot_at("san", 1.0) is not None

    def test_deterministic_given_seed(self):
        a = small_env(seed=5).run(HOURS_2)
        b = small_env(seed=5).run(HOURS_2)
        da = [r.duration for r in a.stores.runs.runs("q2-report")]
        db = [r.duration for r in b.stores.runs.runs("q2-report")]
        assert da == db

    def test_seed_changes_outcomes(self):
        a = small_env(seed=5).run(HOURS_2)
        b = small_env(seed=6).run(HOURS_2)
        da = [r.duration for r in a.stores.runs.runs("q2-report")]
        db = [r.duration for r in b.stores.runs.runs("q2-report")]
        assert da != db

    def test_bundle_exposes_query_specs(self):
        bundle = small_env().run(HOURS_2)
        assert bundle.query_names == ["q2-report"]
        assert bundle.query_specs["q2-report"] is None  # pinned plan job

    def test_server_metrics_present(self):
        bundle = small_env().run(HOURS_2)
        assert ("srv-db", "cpuUsagePct") in bundle.stores.metrics.keys()


class TestFaults:
    def test_san_misconfiguration_mutates_topology_and_logs(self):
        env = small_env()
        FaultInjector(env).san_misconfiguration(at=1800.0)
        bundle = env.run(HOURS_2)
        assert "Vprime" in bundle.topology
        kinds = {e.kind for e in bundle.stores.events.events}
        assert {"volume_created", "zone_changed", "lun_mapped"} <= kinds
        # config snapshot refreshed after the change
        assert bundle.stores.config.diff("san", 0.0, 1900.0)

    def test_misconfiguration_slows_query(self):
        env = small_env()
        FaultInjector(env).san_misconfiguration(at=3600.0)
        bundle = env.run(HOURS_2)
        runs = bundle.stores.runs.runs("q2-report")
        before = [r.duration for r in runs if r.start_time < 3600.0]
        after = [r.duration for r in runs if r.start_time > 3600.0]
        assert min(after) > 1.5 * max(before)

    def test_degradation_trigger_event_emitted(self):
        env = small_env()
        FaultInjector(env).san_misconfiguration(at=1800.0)
        bundle = env.run(HOURS_2)
        assert bundle.stores.events.of_kind("volume_perf_degraded")

    def test_data_property_change(self):
        env = small_env()
        FaultInjector(env).data_property_change(at=3600.0, table="partsupp", multiplier=1.5)
        bundle = env.run(HOURS_2)
        runs = bundle.stores.runs.runs("q2-report")
        before = [r for r in runs if r.start_time < 3600.0][-1]
        after = [r for r in runs if r.start_time > 3600.0][-1]
        assert after.record_counts()["O4"] == pytest.approx(
            1.5 * before.record_counts()["O4"], rel=0.01
        )
        assert bundle.stores.events.of_kind("dml_batch")

    def test_data_change_with_stats_update_changes_catalog(self):
        env = small_env()
        FaultInjector(env).data_property_change(
            at=1800.0, table="partsupp", multiplier=2.0, update_stats=True
        )
        bundle = env.run(HOURS_2)
        assert bundle.catalog.table("partsupp").row_count == 1_600_000
        assert bundle.stores.events.of_kind("stats_updated")

    def test_lock_contention_adds_wait(self):
        env = small_env()
        FaultInjector(env).lock_contention(
            at=3600.0, table="supplier", mean_wait_s=2.0, until=HOURS_2
        )
        bundle = env.run(HOURS_2)
        runs = bundle.stores.runs.runs("q2-report")
        after = [r for r in runs if r.start_time > 3600.0]
        assert any(r.db_metrics["lockWaitTime"] > 0 for r in after)

    def test_raid_rebuild_start_and_finish(self):
        env = small_env()
        FaultInjector(env).raid_rebuild(at=600.0, disk_id="d1", duration_s=1200.0)
        bundle = env.run(HOURS_2)
        kinds = [e.kind for e in bundle.stores.events.events]
        assert "raid_rebuild_started" in kinds and "raid_rebuild_finished" in kinds
        assert env.iosim.rebuilding_disks == set()

    def test_drop_index_logged_and_applied(self):
        env = small_env()
        FaultInjector(env).drop_index(at=600.0, index_name="ix_partsupp_suppkey")
        bundle = env.run(HOURS_2)
        assert not bundle.catalog.has_index("ix_partsupp_suppkey")
        assert bundle.stores.events.of_kind("index_dropped")

    def test_config_change_applied(self):
        env = small_env()
        FaultInjector(env).change_db_config(at=600.0, random_page_cost=40.0)
        bundle = env.run(HOURS_2)
        assert bundle.db_config.random_page_cost == 40.0
        assert bundle.initial_config.random_page_cost == 4.0


class TestAdvanceClock:
    """Incremental advance(): continuous clock, bounded tick overshoot."""

    def _env(self):
        from repro.db.plans import canonical_q2_plan
        from repro.db.tpch import build_tpch_catalog
        from repro.lab.environment import Environment
        from repro.lab.workloads import QueryJob
        from repro.san.builder import build_testbed

        env = Environment(testbed=build_testbed(), catalog=build_tpch_catalog())
        env.add_job(
            QueryJob(
                name="q", period_s=1800.0, first_run_s=600.0,
                pinned_plan=canonical_q2_plan(),
            )
        )
        return env

    def test_fractional_chunks_do_not_compound_drift(self):
        env = self._env()
        for _ in range(86):
            env.advance(42.0)
        # 86 * 42 = 3612 requested; overshoot bounded by one tick.
        assert 3612.0 <= env.clock <= 3612.0 + env.tick_s

    def test_restarting_the_clock_is_rejected(self):
        env = self._env()
        env.run(3600.0)
        with pytest.raises(ValueError):
            env.run(3600.0, start_s=10800.0)

    def test_continuing_at_current_clock_is_allowed(self):
        env = self._env()
        env.run(3600.0)
        env.run(3600.0, start_s=3600.0)  # seed-style two-phase run
        assert env.clock == 7200.0

    def test_advance_chunks_yields_at_boundaries_and_matches_one_shot(self):
        """The cooperative generator: same timeline as a single advance,
        control returned after every (clamped) chunk."""
        chunked = self._env()
        clocks = list(chunked.advance_chunks(3900.0, 1800.0))
        assert clocks == [1800.0, 3600.0, 3900.0]  # final chunk clamped
        one_shot = self._env()
        one_shot.advance(3900.0)
        runs_a = [(r.run_id, r.duration) for r in chunked.stores.runs.runs()]
        runs_b = [(r.run_id, r.duration) for r in one_shot.stores.runs.runs()]
        assert runs_a == runs_b and chunked.clock == one_shot.clock
        with pytest.raises(ValueError):
            list(self._env().advance_chunks(100.0, 0.0))

    def test_advance_is_serialised_across_threads(self):
        """Re-entrancy guard: concurrent advance() calls queue on the
        per-environment lock instead of interleaving simulation ticks."""
        import threading

        env = self._env()
        errors = []

        def worker():
            try:
                for _ in range(5):
                    env.advance(600.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 4 workers x 5 chunks x 600 s, every tick simulated exactly once
        assert env.clock == 4 * 5 * 600.0


class TestQueryWindows:
    """Finished query runs leave the per-tick load and CPU scans."""

    def test_windows_bounded_by_runs_in_flight_over_seven_days(self):
        env = small_env()
        longest = 0
        for _ in range(7 * 4):
            env.advance(6 * 3600.0)
            last_tick = env.clock - env.tick_s
            windows = env._active_query_windows
            in_flight = [
                r for r in env.stores.runs.runs("q2-report") if r.end_time > last_tick
            ]
            assert len(windows) <= len(in_flight)
            assert all(stop > last_tick for _start, stop, _loads, _cpu in windows)
            longest = max(longest, len(windows))
        assert len(env.stores.runs.runs("q2-report")) == 7 * 48
        assert longest <= 2

    #: SHA-256 over ``repr`` of every raw observation of each Table-1
    #: scenario at 24 h, recorded before finished windows were dropped.
    RAW_24H = {
        "san-misconfiguration": "89d96aa9c888a33079447561c2622f326f2be585d38821ea04f045de0591e2fc",
        "two-external-workloads": "2551973a73d1ca627f04d48fb0611591c1be9a6ceb895549a5c64e8ae497017d",
        "data-property-change": "ac2d5a21ab532c15abd35034eac73311bed0ae29750fcc5eb1e39a6197aae1a9",
        "concurrent-db-san": "19e31e893afde8d35d41bcf7e213877d41046b464d6acf80493d7d9c61625c59",
        "lock-contention": "68cab298b69fa4d8892e6834654a6f0dc0c6362d8a742460361b243564e8c32d",
    }

    def test_24h_raw_observations_unchanged(self):
        import hashlib

        from repro.lab.scenarios import all_table1_scenarios

        digests = {}
        for scenario in all_table1_scenarios(hours=24.0):
            env = scenario.build()
            env.run(scenario.duration_s)
            digest = hashlib.sha256()
            for observation in env.stores.metrics.raw_observations():
                digest.update(repr(observation).encode())
            digests[scenario.info.name] = digest.hexdigest()
        assert digests == self.RAW_24H
