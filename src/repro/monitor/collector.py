"""Collector: pulls simulator state into the monitoring stores each tick.

Plays the role of IBM TotalStorage Productivity Center in Figure 5: it
records SAN component metrics, server metrics and database metrics into the
(noisy, bucketed) metric store, events into the event log, and configuration
snapshots into the config store.  DIADS reads *only* these stores.

Every metric write is one :class:`~repro.monitor.timeseries.MetricRow`: one
emitter's observations at one time, under a key layout the collector reuses
from tick to tick (memoised per component and metric set).

The collector also carries an optional **streaming tap**: observer callbacks
invoked once per appended row (and once per recorded query run).  Online
detectors (:mod:`repro.stream`) subscribe to the tap so they see every
sample the moment it lands, without polling the stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..db.executor import QueryRun
from ..san.iomodel import SanPerfSample
from .configstore import ConfigStore
from .events import EventLog
from .runstore import RunStore
from .timeseries import MetricRow, MetricStore

__all__ = ["MonitoringStores", "Collector", "MetricTap", "RunTap"]

#: Pseudo-component id under which database-level metrics are recorded.
DB_COMPONENT = "db"

#: The metrics of one server row, in row order.
SERVER_METRICS = (
    "cpuUsagePct",
    "cpuUsageMhz",
    "physicalMemoryUsagePct",
    "heapMemoryUsageKb",
    "kernelMemoryKb",
    "memorySwappedKb",
    "reservedMemoryCapacityKb",
    "processes",
    "threads",
    "handles",
)

#: The metrics of one switch row, in row order.
NETWORK_METRICS = (
    "bytesTransmitted",
    "bytesReceived",
    "packetsTransmitted",
    "packetsReceived",
    "lipCount",
    "nosCount",
    "errorFrames",
    "dumpedFrames",
    "linkFailures",
    "crcErrors",
    "addressErrors",
)

#: Observer over raw metric appends: fn(row), once per appended row.
MetricTap = Callable[[MetricRow], None]

#: Observer over recorded query runs: fn(run).
RunTap = Callable[[QueryRun], None]


@dataclass
class MonitoringStores:
    """The bundle of stores DIADS diagnoses from."""

    metrics: MetricStore = field(default_factory=MetricStore)
    events: EventLog = field(default_factory=EventLog)
    config: ConfigStore = field(default_factory=ConfigStore)
    runs: RunStore = field(default_factory=RunStore)


@dataclass
class Collector:
    """Writes simulator outputs into the monitoring stores."""

    stores: MonitoringStores
    _metric_taps: list[MetricTap] = field(default_factory=list, repr=False)
    _run_taps: list[RunTap] = field(default_factory=list, repr=False)
    #: (component_id, metrics) -> the row layout of those keys, reused so
    #: the store and the taps resolve each layout once.
    _layouts: dict[tuple[str, tuple[str, ...]], tuple[tuple[str, str], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The layout of the last SAN sample, reused while its keys are unchanged.
    _san_keys: tuple[tuple[str, str], ...] = field(default=(), repr=False, compare=False)

    # -- streaming tap -----------------------------------------------------
    def add_metric_tap(self, tap: MetricTap) -> MetricTap:
        """Subscribe to every raw metric append; returns the tap for removal."""
        self._metric_taps.append(tap)
        return tap

    def add_run_tap(self, tap: RunTap) -> RunTap:
        """Subscribe to every recorded query run; returns the tap for removal."""
        self._run_taps.append(tap)
        return tap

    def remove_tap(self, tap: MetricTap | RunTap) -> None:
        if tap in self._metric_taps:
            self._metric_taps.remove(tap)
        if tap in self._run_taps:
            self._run_taps.remove(tap)

    def _keys(self, component_id: str, metrics: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
        """The row layout of ``metrics`` on one component, built once."""
        keys = self._layouts.get((component_id, metrics))
        if keys is None:
            keys = self._layouts[(component_id, metrics)] = tuple(
                (component_id, metric) for metric in metrics
            )
        return keys

    def _emit(self, row: MetricRow) -> None:
        """One locked store append, then the observer fan-out."""
        self.stores.metrics.append_many(row)
        for tap in self._metric_taps:
            tap(row)

    # -- SAN -------------------------------------------------------------
    def collect_san(self, time: float, sample: SanPerfSample) -> None:
        keys = tuple(sample.values)
        if keys != self._san_keys:
            self._san_keys = keys
        self._emit(MetricRow(time, self._san_keys, list(sample.values.values())))

    # -- server ------------------------------------------------------------
    def collect_server(
        self,
        time: float,
        server_id: str,
        cpu_pct: float,
        memory_pct: float = 35.0,
        processes: float = 180.0,
    ) -> None:
        self._emit(
            MetricRow(
                time,
                self._keys(server_id, SERVER_METRICS),
                (
                    cpu_pct,
                    cpu_pct * 24.0,
                    memory_pct,
                    memory_pct * 1024.0,
                    65536.0,
                    0.0,
                    8.0 * 1024.0 * 1024.0,
                    processes,
                    processes * 4.0,
                    processes * 30.0,
                ),
            )
        )

    # -- network ----------------------------------------------------------
    def collect_network(self, time: float, switch_id: str, bytes_moved: float) -> None:
        packets = bytes_moved / 2048.0
        self._emit(
            MetricRow(
                time,
                self._keys(switch_id, NETWORK_METRICS),
                (bytes_moved, bytes_moved, packets, packets, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            )
        )

    # -- database -----------------------------------------------------------
    def collect_query_run(self, run: QueryRun) -> None:
        """Record a finished run: the run itself + its DB metrics as series."""
        self.stores.runs.add(run)
        time = run.end_time
        self._emit(
            MetricRow(
                time,
                self._keys(DB_COMPONENT, tuple(run.db_metrics)),
                list(run.db_metrics.values()),
            )
        )
        label_before = run.satisfactory
        for tap in self._run_taps:
            tap(run)
        # A tap that labelled the run (the response-time SLO detector writes
        # run.satisfactory directly) bypassed RunStore.mark(); re-issue the
        # label through the store so it reaches the durability journal — the
        # run record itself was journalled at add() time, before the label.
        if run.satisfactory is not label_before and run.satisfactory is not None:
            self.stores.runs.mark(run.run_id, run.satisfactory)

    def collect_db_tick(self, time: float, locks_held: float) -> None:
        """Between-runs database heartbeat metrics."""
        self._emit(MetricRow(time, self._keys(DB_COMPONENT, ("locksHeld",)), (locks_held,)))

    # -- config + events -------------------------------------------------------
    def snapshot_config(self, time: float, scope: str, snapshot: dict) -> None:
        self.stores.config.take_snapshot(time, scope, snapshot)
