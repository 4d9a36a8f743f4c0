"""Differential oracle: the columnar MetricStore against the v0.10 algorithm.

:class:`OracleStore` is a frozen copy of the pre-columnar bucketing, which
rebuilt a series from every raw push on each read.  The columnar store must
give the same floats bit for bit (``==``, never approx) for ``series``,
``values_between`` and ``window_mean``: on the five Table-1 scenarios at the
full 24 h, on every environment of the ``shared-pool-saturation`` fabric with
reads interleaved between chunks, and on the edge cases of the memo (late
pushes into closed buckets, replay, zero noise, odd intervals).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.correlate.fabric import fabric_shared_pool_saturation
from repro.lab.scenarios import all_table1_scenarios
from repro.monitor.timeseries import MetricStore
from repro.storage import MemoryBackend

HOURS = 24.0
CHUNK_S = 1800.0


def _oracle_noise(seed: int, key: tuple[str, str], bucket: int, sigma: float) -> float:
    if sigma <= 0.0:
        return 1.0
    digest = hashlib.blake2b(
        f"{seed}|{key[0]}|{key[1]}|{bucket}".encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return float(max(rng.normal(loc=1.0, scale=sigma), 0.0))


class OracleStore:
    """The v0.10 ``series``/``values_between``/``window_mean``, frozen."""

    def __init__(self, interval_s: float, noise_sigma: float, seed: int) -> None:
        self.interval_s = interval_s
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.raw: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self.cache: dict[tuple[str, str], list[tuple[float, float]]] = {}
        #: Noise draws memoised per oracle only to keep the suite fast.
        self.noises: dict[tuple[tuple[str, str], int], float] = {}

    def record(self, time: float, component_id: str, metric: str, value: float) -> None:
        key = (component_id, metric)
        self.raw.setdefault(key, []).append((time, float(value)))
        self.cache.pop(key, None)

    def series(self, component_id: str, metric: str) -> list[tuple[float, float]]:
        key = (component_id, metric)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        raw = self.raw.get(key, [])
        if not raw:
            return []
        buckets: dict[int, list[float]] = {}
        for time, value in raw:
            buckets.setdefault(int(time // self.interval_s), []).append(value)
        out = []
        for bucket in sorted(buckets):
            mean = float(np.mean(buckets[bucket]))
            noise = self.noises.get((key, bucket))
            if noise is None:
                noise = self.noises[(key, bucket)] = _oracle_noise(
                    self.seed, key, bucket, self.noise_sigma
                )
            midpoint = (bucket + 0.5) * self.interval_s
            out.append((midpoint, mean * noise))
        self.cache[key] = out
        return out

    def values_between(self, component_id, metric, start, end) -> list[float]:
        return [v for t, v in self.series(component_id, metric) if start <= t <= end]

    def window_mean(self, component_id, metric, start, end) -> float | None:
        values = self.values_between(component_id, metric, start, end)
        if not values:
            padded = self.values_between(
                component_id,
                metric,
                start - self.interval_s / 2.0,
                end + self.interval_s / 2.0,
            )
            if not padded:
                return None
            return float(np.mean(padded))
        return float(np.mean(values))


def oracle_for(store: MetricStore) -> OracleStore:
    return OracleStore(store.interval_s, store.noise_sigma, store.seed)


def assert_series_equal(store: MetricStore, oracle: OracleStore, keys) -> None:
    for key in keys:
        got = [(s.time, s.value) for s in store.series(*key)]
        assert got == oracle.series(*key), key


def assert_windows_equal(store: MetricStore, oracle: OracleStore, keys, windows) -> None:
    for key in keys:
        for start, end in windows:
            assert store.values_between(*key, start, end) == oracle.values_between(
                *key, start, end
            ), (key, start, end)
            assert store.window_mean(*key, start, end) == oracle.window_mean(
                *key, start, end
            ), (key, start, end)


def probe_windows(horizon_s: float, interval_s: float) -> list[tuple[float, float]]:
    """Wide, narrow, edge-aligned, inverted and out-of-range windows."""
    windows = [(0.0, horizon_s), (-1e9, 1e9), (horizon_s + 1e4, horizon_s + 2e4)]
    for frac in (0.1, 0.37, 0.5, 0.83):
        t = frac * horizon_s
        windows += [
            (t, t + 10.0),  # narrower than a bucket: the padded fallback
            (t, t + 3600.0),
            (t + 3600.0, t),  # inverted
        ]
    mid = (int(0.5 * horizon_s // interval_s) + 0.5) * interval_s
    windows += [(mid, mid), (mid - interval_s, mid), (mid, mid + 2 * interval_s)]
    return windows


def run_windows(runs, every: int) -> list[tuple[float, float]]:
    return [(r.start_time, r.end_time) for r in runs[::every]]


# ---------------------------------------------------------------------------
# real workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario",
    all_table1_scenarios(hours=HOURS),
    ids=lambda s: s.info.name,
)
def test_table1_scenario_bit_identical(scenario):
    env = scenario.build()
    store = env.stores.metrics
    oracle = oracle_for(store)
    env.collector.add_metric_tap(lambda row: [oracle.record(*obs) for obs in row])
    env.run(scenario.duration_s)

    assert len(store) == sum(len(raw) for raw in oracle.raw.values())
    assert store.keys() == sorted(oracle.raw)
    assert [
        (t, cid, metric, v) for t, cid, metric, v in store.raw_observations()
    ] == [
        (t, cid, metric, v)
        for (cid, metric) in sorted(oracle.raw)
        for t, v in oracle.raw[(cid, metric)]
    ]
    keys = store.keys()
    assert_series_equal(store, oracle, keys)
    windows = probe_windows(scenario.duration_s, store.interval_s)
    windows += run_windows(env.stores.runs.runs(), every=5)
    assert_windows_equal(store, oracle, keys, windows)


FABRIC = fabric_shared_pool_saturation(hours=HOURS)


@pytest.mark.parametrize("name", sorted(FABRIC.members))
def test_shared_pool_fabric_interleaved_reads_bit_identical(name):
    scenario = FABRIC.members[name]
    env = scenario.build()
    store = env.stores.metrics
    oracle = oracle_for(store)
    env.collector.add_metric_tap(lambda row: [oracle.record(*obs) for obs in row])
    clock = 0.0
    chunk = 0
    while clock < scenario.duration_s:
        clock = env.advance(CHUNK_S)
        keys = store.keys()
        # A rotating subset each chunk keeps the oracle's full rebuilds
        # affordable; every key is read again at the end.
        subset = keys[chunk % 29 :: 29]
        assert_series_equal(store, oracle, subset)
        assert_windows_equal(
            store, oracle, subset, [(clock - 2 * CHUNK_S, clock), (clock - 10.0, clock)]
        )
        chunk += 1
    keys = store.keys()
    assert_series_equal(store, oracle, keys)
    windows = probe_windows(scenario.duration_s, store.interval_s)
    windows += run_windows(env.stores.runs.runs(), every=9)
    assert_windows_equal(store, oracle, keys, windows)


# ---------------------------------------------------------------------------
# edge cases of the closed-bucket memo
# ---------------------------------------------------------------------------


def paired(**kw) -> tuple[MetricStore, OracleStore]:
    store = MetricStore(**kw)
    return store, oracle_for(store)


def push(store: MetricStore, oracle: OracleStore, t: float, key, value: float) -> None:
    store.record(t, *key, value)
    oracle.record(t, *key, value)


KEY = ("V1", "readTime")
WINDOWS = [(0.0, 5000.0), (100.0, 110.0), (900.0, 1500.0), (450.0, 450.0), (3000.0, 1.0)]


def test_late_sample_in_closed_bucket_drops_memo():
    store, oracle = paired(interval_s=300.0, noise_sigma=0.1, seed=3)
    for i in range(20):
        push(store, oracle, i * 60.0, KEY, float(i))
    assert_series_equal(store, oracle, [KEY])  # memo now closed up to bucket 3
    push(store, oracle, 130.0, KEY, 1000.0)  # lands in closed bucket 0
    assert_series_equal(store, oracle, [KEY])
    push(store, oracle, 2000.0, KEY, 5.0)  # opens bucket 6, skipping bucket 5
    push(store, oracle, 1550.0, KEY, 7.0)  # fills the skipped, closed bucket 5
    assert_series_equal(store, oracle, [KEY])
    assert_windows_equal(store, oracle, [KEY], WINDOWS)


def test_late_sample_into_open_bucket_keeps_insertion_order():
    store, oracle = paired(interval_s=300.0, noise_sigma=0.05)
    for t, v in [(0.0, 0.1), (400.0, 1e16), (310.0, 1.0), (350.0, -1e16)]:
        push(store, oracle, t, KEY, v)
        assert_series_equal(store, oracle, [KEY])


def test_reads_interleaved_with_appends():
    rng = random.Random(7)
    store, oracle = paired(interval_s=300.0, noise_sigma=0.05, seed=11)
    keys = [("V1", "readTime"), ("V2", "readTime"), ("P1", "writeIO")]
    t = 0.0
    for step in range(600):
        t += rng.choice((0.0, 17.0, 60.0, 60.0, 60.0, 333.0))
        # Mostly in order, with the occasional late push up to 40 min back.
        when = t - rng.uniform(0, 2400.0) if rng.random() < 0.05 else t
        key = rng.choice(keys)
        push(store, oracle, max(when, 0.0), key, rng.uniform(0.0, 100.0))
        if step % 3 == 0:
            read = rng.choice(keys)
            assert_series_equal(store, oracle, [read])
            start = rng.uniform(0.0, t)
            assert_windows_equal(
                store, oracle, [read], [(start, start + rng.uniform(0.0, 1800.0))]
            )
    assert_series_equal(store, oracle, keys)
    assert_windows_equal(store, oracle, keys, probe_windows(t, store.interval_s))


def test_replay_from_backend_bit_identical():
    backend = MemoryBackend()
    live, oracle = paired(interval_s=300.0, noise_sigma=0.05, seed=5)
    live.backend = backend
    rng = random.Random(3)
    for i in range(400):
        key = ("V1", "readTime") if i % 2 else ("D1", "busyPct")
        when = i * 30.0 - (900.0 if i % 37 == 0 and i else 0.0)
        push(live, oracle, when, key, rng.uniform(0.0, 50.0))
        if i % 50 == 0:
            live.series(*key)  # warm the live memo part-way through
    reopened = MetricStore(
        interval_s=300.0, noise_sigma=0.05, seed=5, backend=backend
    )
    assert reopened.replay_from_backend() == 400
    keys = sorted(oracle.raw)
    for store in (live, reopened):
        assert_series_equal(store, oracle, keys)
        assert_windows_equal(store, oracle, keys, WINDOWS)
    assert list(reopened.raw_observations()) == list(live.raw_observations())


def test_zero_noise_sigma_bit_identical():
    store, oracle = paired(interval_s=300.0, noise_sigma=0.0)
    for i in range(50):
        push(store, oracle, i * 60.0, KEY, 0.1 * i + 1e-9)
        if i % 4 == 0:
            assert_series_equal(store, oracle, [KEY])
    assert_windows_equal(store, oracle, [KEY], WINDOWS)


@pytest.mark.parametrize("interval_s", [210.0, 77.7, 1000.0 / 3.0])
def test_interval_not_a_tick_multiple(interval_s):
    store, oracle = paired(interval_s=interval_s, noise_sigma=0.05, seed=2)
    for i in range(120):
        push(store, oracle, i * 60.0, KEY, float(i % 13))
        if i % 5 == 0:
            assert_series_equal(store, oracle, [KEY])
            assert_windows_equal(
                store, oracle, [KEY], [(i * 30.0, i * 60.0), (i * 60.0, i * 60.0 + 1.0)]
            )
    assert_windows_equal(store, oracle, [KEY], probe_windows(120 * 60.0, interval_s))
