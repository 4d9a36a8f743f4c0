"""Time-series metric store with interval sampling and measurement noise.

The paper's second challenge (Section 1.1) is *inaccuracy in monitoring
data*: production monitors sample at 5-minute (or coarser) intervals, so
instantaneous spikes get averaged away, and values carry noise.  This store
reproduces both distortions:

* raw per-tick values pushed by the collector are **averaged per sampling
  bucket** (default 300 s), so a 60-second burst inside a bucket shrinks by
  the duty cycle before DIADS ever sees it;
* each emitted sample receives deterministic multiplicative Gaussian noise
  (seeded per series and bucket, so reruns are reproducible).

DIADS only ever reads the bucketed, noisy view — never the raw values — just
like the real tool only sees what IBM TPC recorded.

Storage is columnar: each ``(component_id, metric)`` series keeps its raw
pushes in two ``array('d')`` columns plus a memo of its bucketed view.  A
bucket is *closed* once a push lands in a later bucket; closed buckets are
computed once and never again, unless a late push lands in one (an
out-of-order append), which drops that series' memo and rebuilds it in full.
Reads therefore only compute what arrived since the last read, and the view
is bit-identical to bucketing all raw pushes from scratch.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..storage.keyspaces import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["Sample", "MetricRow", "MetricStore"]


@dataclass(frozen=True, slots=True)
class Sample:
    """One monitored observation."""

    time: float
    value: float


class MetricRow:
    """One emitter's observations at one time, in a fixed key layout.

    ``keys`` is a tuple of ``(component_id, metric)`` that the emitter reuses
    from tick to tick, so consumers can resolve a layout once and then read
    ``values`` by position.  Iterating a row yields the usual
    ``(time, component_id, metric, value)`` observations in key order.
    """

    __slots__ = ("time", "keys", "values")

    def __init__(
        self, time: float, keys: tuple[tuple[str, str], ...], values: Sequence[float]
    ) -> None:
        if len(keys) != len(values):
            raise ValueError(f"{len(keys)} keys but {len(values)} values")
        self.time = time
        self.keys = keys
        self.values = values

    def __iter__(self) -> Iterator[tuple[float, str, str, float]]:
        time = self.time
        for (component_id, metric), value in zip(self.keys, self.values):
            yield time, component_id, metric, value

    def __len__(self) -> int:
        return len(self.keys)


def _bucket_noise(seed: int, key: tuple[str, str], bucket: int, sigma: float) -> float:
    """Deterministic multiplicative noise for one series bucket."""
    if sigma <= 0.0:
        return 1.0
    digest = hashlib.blake2b(
        f"{seed}|{key[0]}|{key[1]}|{bucket}".encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return float(max(rng.normal(loc=1.0, scale=sigma), 0.0))


def _journal_record(time: float, component_id: str, metric: str, value: float) -> dict:
    return {"t": time, "k": f"{component_id}/{metric}", "c": component_id, "m": metric, "v": value}


class _Column:
    """One series: its raw pushes and the memo of its bucketed view.

    The memo holds one entry per bucket of ``times[:filled]``, in bucket
    order: bucket id, midpoint, noise factor and emitted value (bucket mean
    times noise).  Every entry but the last is a closed bucket; the last is
    the open bucket, whose raw values so far are kept in ``open_values``.
    Only the owning :class:`MetricStore` touches a column, under its lock.
    """

    __slots__ = (
        "times", "values", "filled", "buckets", "mids", "noises", "vals", "open_values"
    )

    def __init__(self) -> None:
        # guarded-by: _cache_lock
        self.times = array("d")
        # guarded-by: _cache_lock
        self.values = array("d")
        # guarded-by: _cache_lock
        self.filled = 0  # len(times) when the memo was last brought up to date
        # guarded-by: _cache_lock
        self.buckets = array("q")
        # guarded-by: _cache_lock
        self.mids = array("d")
        # guarded-by: _cache_lock
        self.noises = array("d")
        # guarded-by: _cache_lock
        self.vals = array("d")
        # guarded-by: _cache_lock
        self.open_values: list[float] = []

    def __eq__(self, other: object) -> bool:
        """Equal raw pushes; keeps ``MetricStore`` dataclass equality by value."""
        if not isinstance(other, _Column):
            return NotImplemented
        return self.times == other.times and self.values == other.values


@dataclass
class MetricStore:
    """Bucketing, noising metric store keyed by (component_id, metric)."""

    interval_s: float = 300.0
    noise_sigma: float = 0.05
    seed: int = 0
    # guarded-by: _cache_lock
    _raw: dict[tuple[str, str], _Column] = field(default_factory=dict, repr=False)
    #: Row layout -> the columns of its keys, by position (see append_many).
    # guarded-by: _cache_lock
    _layouts: dict[tuple[tuple[str, str], ...], list[_Column]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Guards the columns *and* their memos: concurrent diagnoses
    #: (diagnose_many) read the store from worker threads while a read
    #: brings a memo up to date, and streaming supervisors append from other
    #: worker threads.  Without a locked append, a push could land while a
    #: read is folding the same column and leave a stale memo behind.
    _cache_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Optional :class:`repro.storage.StorageBackend` the store journals raw
    #: observations through (duck-typed so the monitor layer stays import-
    #: cycle free).  None keeps the historical fully-in-memory behaviour.
    backend: "StorageBackend | None" = field(default=None, compare=False)
    keyspace: str = METRICS
    _replaying: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        from ..devtools.sanitize import instrument_guarded

        instrument_guarded(self)  # no-op unless REPRO_SANITIZE=1

    # -- ingestion -------------------------------------------------------
    def record(self, time: float, component_id: str, metric: str, value: float) -> None:
        """Push one raw observation (called by the collector each tick).

        Delegates to :meth:`append_many`, so single-sample appends go through
        the exact same locked/journalled path as batches — there is no side
        door that could skip the backend journal.
        """
        self.append_many(((time, component_id, metric, value),))

    def append_many(
        self, observations: MetricRow | Iterable[tuple[float, str, str, float]]
    ) -> int:
        """Batch-push a :class:`MetricRow` or ``(time, component_id, metric,
        value)`` observations.

        The single ingestion code path: takes the store lock once for the
        whole batch (per-tick collector writes of tens of series stay cheap
        while remaining safe against concurrent :meth:`series` reads),
        journals each observation through the backend, and returns how many
        were appended.  Appends only extend the raw columns; the bucketed
        view catches up on the next read.  A row's layout is resolved to its
        columns once and cached, so later rows of that layout append by
        position without a lookup per observation.
        """
        appended = 0
        journal: list[dict] | None = (
            [] if self.backend is not None and not self._replaying else None
        )
        with self._cache_lock:
            if type(observations) is MetricRow:
                columns = self._layouts.get(observations.keys)
                if columns is None:
                    columns = []
                    for key in observations.keys:
                        column = self._raw.get(key)
                        if column is None:
                            column = self._raw[key] = _Column()
                        columns.append(column)
                    self._layouts[observations.keys] = columns
                time = observations.time
                for column, value in zip(columns, observations.values):
                    column.times.append(time)
                    column.values.append(value)
                appended = len(observations)
                if journal is not None:
                    journal.extend(
                        _journal_record(time, component_id, metric, float(value))
                        for time, component_id, metric, value in observations
                    )
            else:
                raw = self._raw
                for time, component_id, metric, value in observations:
                    value = float(value)
                    column = raw.get((component_id, metric))
                    if column is None:
                        column = raw[(component_id, metric)] = _Column()
                    column.times.append(time)
                    column.values.append(value)
                    if journal is not None:
                        journal.append(_journal_record(time, component_id, metric, value))
                    appended += 1
            if journal:
                self.backend.append_many(self.keyspace, journal)
        return appended

    # -- persistence -----------------------------------------------------
    def replay_from_backend(self) -> int:
        """Rebuild the raw series from the backend journal (on open).

        Records are re-applied through the normal ingestion path with
        journalling suppressed, so a replayed store is indistinguishable
        from one that recorded the observations live.
        """
        if self.backend is None:
            return 0
        self._replaying = True
        try:
            return self.append_many(
                (rec["t"], rec["c"], rec["m"], rec["v"])
                for rec in self.backend.scan(self.keyspace)
            )
        finally:
            self._replaying = False

    def raw_observations(self) -> Iterator[tuple[float, str, str, float]]:
        """Every raw push as ``(time, component_id, metric, value)``.

        Series in sorted key order, pushes in insertion order.  The columns
        are copied under the store lock when iteration starts, so the
        iterator is a consistent snapshot even while appends continue.
        """
        with self._cache_lock:
            snapshot = [
                (key, self._raw[key].times[:], self._raw[key].values[:])
                for key in sorted(self._raw)
            ]
        for (component_id, metric), times, values in snapshot:
            for time, value in zip(times, values):
                yield time, component_id, metric, value

    # -- monitored view ----------------------------------------------------
    def _fill(self, key: tuple[str, str]) -> _Column | None:
        """Bring one column's memo up to date; the store lock must be held.

        Only pushes after ``filled`` are bucketed, merged into the open
        bucket's values.  A push into a closed bucket drops the memo and
        buckets every raw push again.  Noise factors already drawn are
        reused either way, so each ``(key, bucket)`` draws its noise once.
        """
        column = self._raw.get(key)
        if column is None or column.filled == len(column.times):
            return column
        interval = self.interval_s
        memos = (column.buckets, column.mids, column.noises, column.vals)
        groups: dict[int, list[float]] = {}
        noises: dict[int, float] = {}
        if column.buckets:
            frontier = column.buckets[-1]
            start = column.filled
            fresh = [
                (int(time // interval), value)
                for time, value in zip(column.times[start:], column.values[start:])
            ]
            if min(bucket for bucket, _ in fresh) < frontier:
                # A late push landed in a closed bucket: drop the memo.
                noises = dict(zip(column.buckets, column.noises))
                for memo in memos:
                    del memo[:]
            else:  # reopen only the open bucket
                noises[frontier] = column.noises[-1]
                for memo in memos:
                    memo.pop()
                groups[frontier] = column.open_values
                for bucket, value in fresh:
                    groups.setdefault(bucket, []).append(value)
        if not groups:
            for time, value in zip(column.times, column.values):
                groups.setdefault(int(time // interval), []).append(value)
        for bucket in sorted(groups):
            noise = noises.get(bucket)
            if noise is None:
                noise = _bucket_noise(self.seed, key, bucket, self.noise_sigma)
            column.buckets.append(bucket)
            column.mids.append((bucket + 0.5) * interval)
            column.noises.append(noise)
            column.vals.append(float(np.mean(groups[bucket])) * noise)
        column.open_values = groups[bucket]
        column.filled = len(column.times)
        return column

    def series(self, component_id: str, metric: str) -> list[Sample]:
        """The bucketed, noisy series DIADS consumes.

        Each sample's time is the bucket midpoint; its value is the bucket
        mean of the raw pushes times the bucket's noise factor.
        """
        with self._cache_lock:
            column = self._fill((component_id, metric))
            if column is None:
                return []
            return [Sample(time, value) for time, value in zip(column.mids, column.vals)]

    def _window(self, key: tuple[str, str], start: float, end: float) -> array:
        """Values of the buckets whose midpoint falls in [start, end]."""
        with self._cache_lock:
            column = self._fill(key)
            # Bisect would treat a NaN bound as open; a scan matches nothing.
            if column is None or not start <= end:
                return array("d")
            lo = bisect_left(column.mids, start)
            return column.vals[lo:bisect_right(column.mids, end, lo)]

    def values_between(
        self, component_id: str, metric: str, start: float, end: float
    ) -> list[float]:
        """Sample values whose bucket midpoint falls in [start, end]."""
        return self._window((component_id, metric), start, end).tolist()

    def window_mean(
        self, component_id: str, metric: str, start: float, end: float
    ) -> float | None:
        """Mean monitored value over a window; None when nothing sampled.

        When the window is narrower than a sampling bucket, the overlapping
        bucket's value is used — exactly the blur the paper warns about.
        """
        key = (component_id, metric)
        values = self._window(key, start, end)
        if not values:
            half = self.interval_s / 2.0
            values = self._window(key, start - half, end + half)
            if not values:
                return None
        return float(np.mean(values))

    # -- introspection -------------------------------------------------------
    def components(self) -> set[str]:
        with self._cache_lock:
            return {cid for cid, _ in self._raw}

    def metrics_for(self, component_id: str) -> set[str]:
        with self._cache_lock:
            return {metric for cid, metric in self._raw if cid == component_id}

    def keys(self) -> list[tuple[str, str]]:
        with self._cache_lock:
            return sorted(self._raw)

    def __len__(self) -> int:
        with self._cache_lock:
            return sum(len(column.times) for column in self._raw.values())
