"""Runtime sanitizer: lock-order graph, task scopes, guarded-field checks.

Deliberate violations are planted inside :func:`sanitize.recording` scopes,
so the process-wide registry (asserted clean after every test when the CI
sanitizer job runs with ``REPRO_SANITIZE=1``) never sees them.
"""

from __future__ import annotations

import threading

import pytest

from repro.devtools import sanitize
from repro.devtools.sanitize import TrackedLock, task_scope, track_lock
from repro.monitor.timeseries import MetricStore
from repro.runtime.pools import WorkerPool
from repro.storage.backend import MemoryBackend


@pytest.fixture
def enabled():
    """Force the sanitizer on for one test, restoring the prior state after."""
    previous = sanitize._forced
    sanitize.enable()
    yield
    sanitize._forced = previous


@pytest.fixture
def disabled():
    previous = sanitize._forced
    sanitize.disable()
    yield
    sanitize._forced = previous


# ---------------------------------------------------------------------------
# enablement + pass-through
# ---------------------------------------------------------------------------


class TestEnablement:
    def test_env_flag(self, monkeypatch, disabled):
        sanitize._forced = None
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.is_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.is_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.is_enabled()

    def test_track_lock_passthrough_when_disabled(self, disabled):
        inner = threading.Lock()
        assert track_lock(inner, "x") is inner

    def test_track_lock_wraps_when_enabled(self, enabled):
        wrapped = track_lock(threading.Lock(), "x")
        assert isinstance(wrapped, TrackedLock)
        # Idempotent: wrapping a TrackedLock returns it unchanged.
        assert track_lock(wrapped, "x") is wrapped

    def test_instrument_noop_when_disabled(self, disabled):
        store = MetricStore()
        assert type(store) is MetricStore
        assert isinstance(store._cache_lock, type(threading.Lock()))


# ---------------------------------------------------------------------------
# lock-order graph
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_inversion_reported(self):
        with sanitize.recording() as seen:
            a = TrackedLock(threading.Lock(), "A")
            b = TrackedLock(threading.Lock(), "B")
            with a:
                with b:
                    pass
            with b:
                with a:  # opposite order: deadlock under the right schedule
                    pass
        kinds = [v.kind for v in seen]
        assert kinds == ["lock-order"]
        assert "'A'" in seen[0].message and "'B'" in seen[0].message

    def test_consistent_order_clean(self):
        with sanitize.recording() as seen:
            a = TrackedLock(threading.Lock(), "A")
            b = TrackedLock(threading.Lock(), "B")
            for _ in range(3):
                with a:
                    with b:
                        pass
        assert seen == []

    def test_reentrant_same_name_clean(self):
        with sanitize.recording() as seen:
            lock = TrackedLock(threading.RLock(), "R")
            with lock:
                with lock:
                    pass
        assert seen == []
        assert sanitize.held_locks() == ()

    def test_held_locks_tracks_nesting(self):
        with sanitize.recording():
            a = TrackedLock(threading.Lock(), "A")
            b = TrackedLock(threading.Lock(), "B")
            with a:
                assert sanitize.held_locks() == ("A",)
                with b:
                    assert sanitize.held_locks() == ("A", "B")
                assert sanitize.held_locks() == ("A",)
            assert sanitize.held_locks() == ()


# ---------------------------------------------------------------------------
# task scopes
# ---------------------------------------------------------------------------


class TestTaskScope:
    def test_violations_attributed_to_task(self):
        with sanitize.recording() as seen:
            a = TrackedLock(threading.Lock(), "A")
            b = TrackedLock(threading.Lock(), "B")
            with a, b:
                pass
            with task_scope("diagnose:Q2"):
                with b, a:
                    pass
        assert [v.kind for v in seen] == ["lock-order"]
        assert seen[0].task == "diagnose:Q2"

    def test_leaked_lock_reported(self):
        with sanitize.recording() as seen:
            lock = TrackedLock(threading.Lock(), "L")
            with task_scope("leaky"):
                lock.acquire()
            lock.release()  # clean up thread-local state for later tests
        assert [v.kind for v in seen] == ["lock-leak"]
        assert "L" in seen[0].message

    def test_pool_tasks_run_in_scope(self, enabled):
        with WorkerPool(max_workers=2) as pool:
            assert pool.submit(sanitize.current_task).result() is not None
        assert sanitize.current_task() is None

    def test_pool_tasks_unscoped_when_disabled(self, disabled):
        with WorkerPool(max_workers=2) as pool:
            assert pool.submit(sanitize.current_task).result() is None


# ---------------------------------------------------------------------------
# guarded-field instrumentation
# ---------------------------------------------------------------------------


class TestInstrumentGuarded:
    def test_unguarded_rebind_flagged(self, enabled):
        with sanitize.recording() as seen:
            store = MetricStore()
            store._raw = {}  # rebinding a guarded field without the lock
        assert [v.kind for v in seen] == ["unguarded-mutation"]
        assert "MetricStore._raw" in seen[0].message

    def test_rebind_under_lock_clean(self, enabled):
        with sanitize.recording() as seen:
            store = MetricStore()
            with store._cache_lock:
                store._raw = {}
        assert seen == []

    def test_unannotated_fields_unchecked(self, enabled):
        with sanitize.recording() as seen:
            store = MetricStore()
            store.seed = 7  # not a guarded field
        assert seen == []

    def test_normal_store_usage_clean(self, enabled):
        with sanitize.recording() as seen:
            store = MetricStore(interval_s=60.0, noise_sigma=0.0)
            store.record(30.0, "V1", "readTime", 4.0)
            store.append_many([(90.0, "V1", "readTime", 6.0)])
            assert [s.value for s in store.series("V1", "readTime")] == [4.0, 6.0]
        assert seen == []

    def test_memory_backend_clean_under_instrumentation(self, enabled):
        with sanitize.recording() as seen:
            backend = MemoryBackend()
            assert type(backend).__name__ == "SanitizedMemoryBackend"
            backend.append("metrics", {"t": 1.0, "k": "a"})
            assert list(backend.scan("metrics")) == [{"t": 1.0, "k": "a"}]
        assert seen == []

    def test_concurrent_ingest_and_read_clean(self, enabled):
        # The real contention pattern: collector appends racing series()
        # cache fills across pool threads.
        with sanitize.recording() as seen:
            store = MetricStore(interval_s=60.0)
            with WorkerPool(max_workers=4) as pool:
                writes = [
                    pool.submit(store.record, float(i), "V1", "readTime", 1.0)
                    for i in range(50)
                ]
                reads = [
                    pool.submit(store.series, "V1", "readTime") for _ in range(50)
                ]
                for future in writes + reads:
                    future.result()
        assert seen == []


# ---------------------------------------------------------------------------
# registry surface
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_recording_isolates_global_registry(self):
        baseline = len(sanitize.violations())
        with sanitize.recording() as seen:
            a = TrackedLock(threading.Lock(), "A")
            b = TrackedLock(threading.Lock(), "B")
            with a, b:
                pass
            with b, a:
                pass
            assert len(seen) == 1
        assert len(sanitize.violations()) == baseline

    def test_violation_render_mentions_kind_and_task(self):
        violation = sanitize.SanitizerViolation(
            kind="lock-order", message="m", task="t", location="f.py:1"
        )
        assert violation.render() == "lock-order [task t]: m (f.py:1)"
