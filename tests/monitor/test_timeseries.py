"""Tests for the noisy, bucketed metric store — the paper's monitoring blur."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.timeseries import MetricStore, Sample


def make_store(**kw) -> MetricStore:
    defaults = dict(interval_s=300.0, noise_sigma=0.0, seed=0)
    defaults.update(kw)
    return MetricStore(**defaults)


class TestBucketing:
    def test_bucket_mean(self):
        store = make_store()
        for t, v in [(0, 10.0), (60, 20.0), (120, 30.0)]:
            store.record(t, "c", "m", v)
        series = store.series("c", "m")
        assert len(series) == 1
        assert series[0].value == pytest.approx(20.0)
        assert series[0].time == pytest.approx(150.0)  # bucket midpoint

    def test_buckets_split_on_interval(self):
        store = make_store()
        store.record(10, "c", "m", 1.0)
        store.record(310, "c", "m", 3.0)
        series = store.series("c", "m")
        assert [s.value for s in series] == [1.0, 3.0]

    def test_burst_averaged_away(self):
        """A 1-tick burst inside a 5-tick bucket shrinks by the duty cycle —
        the monitoring inaccuracy of Section 1.1."""
        store = make_store()
        for i in range(5):
            store.record(i * 60.0, "c", "m", 100.0 if i == 2 else 0.0)
        assert store.series("c", "m")[0].value == pytest.approx(20.0)

    def test_empty_series(self):
        assert make_store().series("c", "m") == []

    def test_len_counts_raw(self):
        store = make_store()
        store.record(0, "a", "m", 1.0)
        store.record(1, "a", "m", 1.0)
        assert len(store) == 2


class TestNoise:
    def test_noise_deterministic_per_seed(self):
        a, b = make_store(noise_sigma=0.1), make_store(noise_sigma=0.1)
        for store in (a, b):
            store.record(0, "c", "m", 10.0)
        assert a.series("c", "m")[0].value == b.series("c", "m")[0].value

    def test_noise_differs_across_seeds(self):
        a = make_store(noise_sigma=0.1, seed=1)
        b = make_store(noise_sigma=0.1, seed=2)
        for store in (a, b):
            store.record(0, "c", "m", 10.0)
        assert a.series("c", "m")[0].value != b.series("c", "m")[0].value

    def test_noise_never_negative(self):
        store = make_store(noise_sigma=3.0)  # absurd sigma, clamped at zero
        store.record(0, "c", "m", 10.0)
        assert store.series("c", "m")[0].value >= 0.0

    def test_zero_sigma_exact(self):
        store = make_store(noise_sigma=0.0)
        store.record(0, "c", "m", 42.0)
        assert store.series("c", "m")[0].value == 42.0

    def test_cache_invalidated_on_record(self):
        store = make_store()
        store.record(0, "c", "m", 10.0)
        assert store.series("c", "m")[0].value == 10.0
        store.record(60, "c", "m", 30.0)
        assert store.series("c", "m")[0].value == pytest.approx(20.0)


class TestWindows:
    def test_values_between(self):
        store = make_store()
        for t in range(0, 1200, 60):
            store.record(t, "c", "m", float(t))
        values = store.values_between("c", "m", 0, 600)
        assert len(values) == 2  # buckets with midpoints 150, 450

    def test_window_mean_narrow_window_uses_overlap(self):
        """A window narrower than a bucket still resolves (with blur)."""
        store = make_store()
        store.record(0, "c", "m", 10.0)
        store.record(60, "c", "m", 10.0)
        assert store.window_mean("c", "m", 10.0, 20.0) == pytest.approx(10.0)

    def test_window_mean_none_when_empty(self):
        assert make_store().window_mean("c", "m", 0, 100) is None


class TestValidation:
    def test_bad_interval(self):
        with pytest.raises(ValueError):
            MetricStore(interval_s=0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            MetricStore(noise_sigma=-0.1)

    def test_introspection(self):
        store = make_store()
        store.record(0, "V1", "readTime", 1.0)
        store.record(0, "V1", "writeTime", 1.0)
        assert store.components() == {"V1"}
        assert store.metrics_for("V1") == {"readTime", "writeTime"}
        assert store.keys() == [("V1", "readTime"), ("V1", "writeTime")]


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10_000),
                st.floats(min_value=0, max_value=1e6),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_series_sorted_and_within_range(self, points):
        store = make_store()
        for t, v in points:
            store.record(t, "c", "m", v)
        series = store.series("c", "m")
        times = [s.time for s in series]
        assert times == sorted(times)
        lo = min(v for _, v in points)
        hi = max(v for _, v in points)
        for sample in series:
            assert lo - 1e-6 <= sample.value <= hi + 1e-6


class TestAppendMany:
    def test_batch_equals_singles(self):
        a, b = make_store(), make_store()
        observations = [
            (float(t), "V1", "readTime", float(v))
            for t, v in enumerate([5.0, 6.0, 7.0, 8.0])
        ]
        for obs in observations:
            a.record(*obs)
        assert b.append_many(observations) == 4
        assert a.series("V1", "readTime") == b.series("V1", "readTime")

    def test_invalidates_series_cache(self):
        store = make_store()
        store.record(0.0, "V1", "readTime", 10.0)
        before = store.series("V1", "readTime")
        store.append_many([(600.0, "V1", "readTime", 20.0)])
        after = store.series("V1", "readTime")
        assert len(after) == len(before) + 1

    def test_concurrent_appends_and_reads(self):
        """Streaming writers + diagnosing readers must not lose samples or
        serve stale cached series (the observer-tap append path shares the
        store lock with batch reads)."""
        import threading

        store = make_store()
        n_writers, per_writer = 4, 200
        errors = []

        def writer(wid: int) -> None:
            for i in range(per_writer):
                store.append_many(
                    [(float(wid * per_writer + i), "V1", "readTime", 1.0)]
                )

        def reader() -> None:
            try:
                for _ in range(200):
                    series = store.series("V1", "readTime")
                    times = [s.time for s in series]
                    if times != sorted(times):
                        errors.append("unsorted series")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == n_writers * per_writer
        # Final read must see every write (no stale cache left behind).
        assert sum(
            1 for _ in store.series("V1", "readTime")
        ) == len({int(t // 300.0) for t in range(n_writers * per_writer)})


class TestIntrospectionUnderAppends:
    def test_introspection_races_new_key_appends(self):
        """keys()/len()/components()/metrics_for() iterate the series map
        under the store lock: appends that create new keys from other pool
        threads must never make them raise ``dictionary changed size``."""
        import sys
        import threading

        from repro.runtime import WorkerPool

        store = make_store()
        stop = threading.Event()
        per_writer = 1500

        def writer(wid: int) -> None:
            for i in range(per_writer):
                store.record(float(i), f"C{wid}-{i}", "m", 1.0)

        def reader() -> int:
            rounds = 0
            while not stop.is_set():
                store.keys()
                len(store)
                store.components()
                store.metrics_for("C0-1")
                rounds += 1
            return rounds

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with WorkerPool(max_workers=4) as pool:
                readers = [pool.submit(reader) for _ in range(2)]
                writers = [pool.submit(writer, w) for w in range(2)]
                try:
                    for future in writers:
                        future.result(timeout=60)
                finally:
                    stop.set()
                assert all(future.result(timeout=60) > 0 for future in readers)
        finally:
            sys.setswitchinterval(interval)
        assert len(store.keys()) == 2 * per_writer
        assert len(store) == 2 * per_writer
