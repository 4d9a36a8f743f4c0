"""Online detector behaviour on synthetic step/ramp/noise series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.executor import OperatorRuntime, QueryRun
from repro.db.plans import OpType, PlanOperator
from repro.monitor.timeseries import MetricRow

SCAN = OpType.SEQ_SCAN
from repro.stream import (
    CusumDetector,
    DetectorBank,
    EwmaDriftDetector,
    ResponseTimeSloDetector,
    ThresholdSloDetector,
    default_detector_factory,
)


def feed(detector, values, t0: float = 0.0, dt: float = 60.0):
    """Feed a series; returns (sample_index, detection) pairs."""
    out = []
    for i, value in enumerate(values):
        detection = detector.update(t0 + i * dt, float(value))
        if detection is not None:
            out.append((i, detection))
    return out


def noise(n: int, mean: float = 10.0, sigma: float = 0.5, seed: int = 1):
    return np.random.default_rng(seed).normal(mean, sigma, size=n)


# ---------------------------------------------------------------------------
# ThresholdSloDetector
# ---------------------------------------------------------------------------
class TestThresholdSlo:
    def test_fires_after_min_consecutive(self):
        det = ThresholdSloDetector(limit=10.0, min_consecutive=3)
        hits = feed(det, [5, 11, 12, 13, 14])
        assert [i for i, _ in hits] == [3]
        assert hits[0][1].magnitude == pytest.approx(13 / 10)

    def test_single_spike_debounced(self):
        det = ThresholdSloDetector(limit=10.0, min_consecutive=2)
        assert feed(det, [5, 20, 5, 20, 5, 20]) == []

    def test_fires_once_per_excursion(self):
        det = ThresholdSloDetector(limit=10.0, min_consecutive=1)
        hits = feed(det, [20, 20, 20, 5, 20, 20])
        assert [i for i, _ in hits] == [0, 4]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ThresholdSloDetector(limit=0.0)
        with pytest.raises(ValueError):
            ThresholdSloDetector(limit=1.0, min_consecutive=0)


# ---------------------------------------------------------------------------
# EwmaDriftDetector
# ---------------------------------------------------------------------------
class TestEwmaDrift:
    def test_detects_step_immediately(self):
        det = EwmaDriftDetector()
        series = np.concatenate([noise(60), noise(40, mean=20.0, seed=2)])
        hits = feed(det, series)
        assert hits, "step never detected"
        first = hits[0][0]
        assert 60 <= first <= 62, f"detection latency too high: {first}"

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_false_positive_on_pure_noise(self, seed):
        det = EwmaDriftDetector()
        assert feed(det, noise(1000, seed=seed)) == []

    def test_detects_slow_ramp_late(self):
        """A ramp is partially tracked by the EWMA, so detection comes after
        the ramp has run away from the slowly-adapting baseline."""
        det = EwmaDriftDetector(alpha=0.02)
        ramp = 10.0 + np.maximum(0, np.arange(300) - 60) * 0.1
        series = ramp + noise(300, mean=0.0, sigma=0.25)
        hits = feed(det, series)
        assert hits and hits[0][0] > 60

    def test_min_consecutive_debounces_single_tick_spike(self):
        det = EwmaDriftDetector(min_consecutive=2)
        series = list(noise(60))
        series[45] = 100.0  # one-tick spike (a query run), then back to normal
        assert feed(det, series) == []

    def test_min_consecutive_fires_on_sustained_excursion(self):
        det = EwmaDriftDetector(min_consecutive=3)
        series = np.concatenate([noise(60), noise(10, mean=20.0, seed=2)])
        hits = feed(det, series)
        assert [i for i, _ in hits] == [62]  # third anomalous sample

    def test_fires_once_per_excursion(self):
        det = EwmaDriftDetector()
        series = np.concatenate([noise(60), noise(60, mean=25.0, seed=3)])
        hits = feed(det, series)
        assert len(hits) == 1

    def test_sustained_shift_not_absorbed(self):
        """The degraded level must keep looking anomalous (no re-learning)."""
        det = EwmaDriftDetector()
        feed(det, np.concatenate([noise(60), noise(120, mean=25.0, seed=4)]))
        # After 120 degraded samples a *recovery* back to the old baseline
        # must not itself look anomalous upward.
        late = det.update(10_000.0, 10.0)
        assert late is None or late.details["z"] < 0


# ---------------------------------------------------------------------------
# CusumDetector
# ---------------------------------------------------------------------------
class TestCusum:
    def test_detects_small_persistent_shift(self):
        """A 2-sigma mean shift — too small for the EWMA's 5-sigma gate —
        accumulates and fires within a couple of dozen samples."""
        det = CusumDetector()
        series = np.concatenate([noise(60), noise(40, mean=11.0, seed=5)])
        hits = feed(det, series)
        assert hits, "small shift never detected"
        assert 60 <= hits[0][0] <= 85

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 6])
    def test_no_false_positive_on_pure_noise(self, seed):
        """CUSUM has a finite average run length by construction, so this
        asserts over spans well inside the no-shift ARL, not forever."""
        det = CusumDetector()
        assert feed(det, noise(400, seed=seed)) == []

    def test_statistic_resets_after_firing(self):
        det = CusumDetector(warmup=10)
        for i, value in enumerate(noise(10, seed=7)):
            assert det.update(i * 60.0, float(value)) is None
        hit = None
        i = 10
        while hit is None:
            hit = det.update(i * 60.0, 14.0)
            i += 1
        assert det.s_pos == 0.0 and det.s_neg == 0.0

    def test_detects_two_separate_shifts(self):
        det = CusumDetector()
        series = np.concatenate(
            [noise(40, seed=8), noise(12, mean=13.0, seed=9),
             noise(40, seed=10), noise(12, mean=13.0, seed=11)]
        )
        hits = [i for i, _ in feed(det, series)]
        assert any(40 <= i < 52 for i in hits), hits
        assert any(92 <= i < 104 for i in hits), hits
        assert not any(52 <= i < 92 for i in hits), hits

    def test_detects_downward_shift(self):
        det = CusumDetector()
        series = np.concatenate([noise(40, seed=12), noise(30, mean=7.0, seed=13)])
        hits = feed(det, series)
        assert hits and hits[0][1].details["direction"] == "down"


# ---------------------------------------------------------------------------
# ResponseTimeSloDetector (the administrator replacement)
# ---------------------------------------------------------------------------
def make_run(run_id: str, start: float, duration: float, query: str = "q") -> QueryRun:
    plan = PlanOperator(op_id="O1", op_type=SCAN, table="t")
    runtime = OperatorRuntime(
        op_id="O1", op_type=SCAN, table="t", volume_id="V1",
        start=start, stop=start + duration, actual_rows=1.0, est_rows=1.0,
        self_time=duration, inclusive_time=duration,
    )
    return QueryRun(
        run_id=run_id, query_name=query, plan=plan, start_time=start,
        operators={"O1": runtime},
    )


class TestResponseTimeSlo:
    def test_marks_baseline_satisfactory_and_breaches_unsatisfactory(self):
        det = ResponseTimeSloDetector(factor=1.5, baseline_runs=3)
        runs = [make_run(f"r{i}", i * 100.0, 10.0) for i in range(3)]
        runs += [make_run("bad", 300.0, 30.0), make_run("ok", 400.0, 11.0)]
        detections = [det.observe_run(r) for r in runs]
        assert [r.satisfactory for r in runs] == [True, True, True, False, True]
        assert detections[:3] == [None, None, None]
        assert detections[3] is not None and detections[3].kind == "slo"
        assert detections[4] is None

    def test_detection_carries_run_identity(self):
        det = ResponseTimeSloDetector(factor=1.2, baseline_runs=2)
        for i in range(2):
            det.observe_run(make_run(f"r{i}", i * 100.0, 10.0))
        detection = det.observe_run(make_run("slow", 200.0, 25.0))
        assert detection.target == "run:q"
        assert detection.details["run_id"] == "slow"
        assert detection.magnitude == pytest.approx(25.0 / 12.0)

    def test_ignores_other_queries(self):
        det = ResponseTimeSloDetector(factor=1.2, baseline_runs=1, query_name="mine")
        other = make_run("x", 0.0, 99.0, query="other")
        assert det.observe_run(other) is None
        assert other.satisfactory is None

    def test_healthy_runs_refine_baseline(self):
        det = ResponseTimeSloDetector(factor=1.5, baseline_runs=2)
        det.observe_run(make_run("a", 0.0, 10.0))
        det.observe_run(make_run("b", 100.0, 10.0))
        det.observe_run(make_run("c", 200.0, 12.0))  # healthy, absorbed
        assert det.baseline_duration == pytest.approx((10 + 10 + 12) / 3)

    def test_series_update_unsupported(self):
        with pytest.raises(NotImplementedError):
            ResponseTimeSloDetector().update(0.0, 1.0)


# ---------------------------------------------------------------------------
# DetectorBank
# ---------------------------------------------------------------------------
class TestDetectorBank:
    def test_routes_and_materialises_lazily(self):
        bank = DetectorBank(factory=default_detector_factory(warmup=5))
        for i in range(30):
            bank.observe(i * 60.0, "V1", "readTime", 10.0)
            bank.observe(i * 60.0, "V1", "cpuUsagePct", 50.0)  # ignored
        assert set(bank.detectors) == {("V1", "readTime")}
        assert bank.detectors[("V1", "readTime")].target == "V1/readTime"

    def test_detects_per_series(self):
        bank = DetectorBank(
            factory=default_detector_factory(warmup=5, min_consecutive=1)
        )
        hits = []
        for i in range(40):
            v1 = 10.0 if i < 20 else 50.0
            for cid, value in (("V1", v1), ("V2", 10.0)):
                d = bank.observe(i * 60.0, cid, "readTime", value + 0.01 * (i % 3))
                if d is not None:
                    hits.append(d)
        assert {d.target for d in hits} == {"V1/readTime"}

    def test_new_component_mid_stream(self):
        """A volume created mid-simulation gets its own detector."""
        bank = DetectorBank(factory=default_detector_factory(warmup=3))
        for i in range(10):
            bank.observe(i * 60.0, "V1", "readTime", 10.0)
        bank.observe(600.0, "Vprime", "readTime", 5.0)
        assert ("Vprime", "readTime") in bank.detectors


class TestObserveRow:
    """``observe_row`` is per-observation ``observe`` with layouts cached."""

    @staticmethod
    def factory():
        return default_detector_factory(
            metrics=("readTime", "writeIO", "utilisation", "cpuUsagePct", "locksHeld"),
            k_sigma=3.0,
            warmup=10,
            min_consecutive=1,
            emit_recovery=True,
        )

    @pytest.fixture(scope="class")
    def stream(self):
        """Every row of a 24 h run in which volume V' appears at 12 h."""
        from repro.lab.scenarios import all_table1_scenarios

        scenario = next(
            s for s in all_table1_scenarios(hours=24.0) if s.info.name == "san-misconfiguration"
        )
        env = scenario.build()
        rows = []
        env.collector.add_metric_tap(rows.append)
        env.run(scenario.duration_s)
        return rows

    def test_same_detections_in_same_order_as_observe(self, stream):
        by_obs = DetectorBank(factory=self.factory())
        by_row = DetectorBank(factory=self.factory())
        expected, got = [], []
        reloads = {len(stream) // 3, 2 * len(stream) // 3}
        for index, row in enumerate(stream):
            if index in reloads:
                # A resumed checkpoint: fresh detector objects, cache cleared.
                by_obs.load_state(by_obs.state_dict())
                by_row.load_state(by_row.state_dict())
            for observation in row:
                detection = by_obs.observe(*observation)
                if detection is not None:
                    expected.append(detection)
            got.extend(by_row.observe_row(row))

        assert len(expected) > 50
        assert got == expected
        assert [d.details for d in got] == [d.details for d in expected]
        assert by_row.state_dict() == by_obs.state_dict()
        assert list(by_row.detectors) == list(by_obs.detectors)
        assert ("Vprime", "readTime") in by_row.detectors
        san_layouts = {row.keys for row in stream if ("V1", "readTime") in row.keys}
        assert len(san_layouts) == 2  # before and after V' appeared

    def test_new_detectors_created_through_observe(self, stream):
        bank = DetectorBank(factory=self.factory())
        calls = []
        observe = bank.observe
        bank.observe = lambda *obs: calls.append(obs[1:3]) or observe(*obs)
        for row in stream:
            bank.observe_row(row)
        layouts = {row.keys for row in stream}
        # Once per observation of each layout's first row, never again.
        assert len(calls) == sum(len(keys) for keys in layouts)
        assert set(bank.detectors) <= set(calls)

    def test_load_state_clears_layout_cache(self):
        bank = DetectorBank(factory=default_detector_factory(warmup=3, min_consecutive=1))
        keys = (("V1", "readTime"), ("V1", "readIO"))
        for i in range(5):
            bank.observe_row(MetricRow(i * 60.0, keys, (10.0, 1.0)))
        stale = bank.detectors[("V1", "readTime")]
        bank.load_state(bank.state_dict())
        fresh = bank.detectors[("V1", "readTime")]
        assert fresh is not stale
        before = fresh.state_dict()
        bank.observe_row(MetricRow(300.0, keys, (10.5, 1.0)))
        assert fresh.state_dict() != before
        assert stale.state_dict() == before
