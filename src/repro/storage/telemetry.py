"""The unified telemetry-store facade over a pluggable backend.

:class:`TelemetryStore` is the single entry point to the monitoring data
layer: the metric, run, config-snapshot, and event stores re-founded on one
:class:`~repro.storage.backend.StorageBackend`.  It subclasses
:class:`~repro.monitor.collector.MonitoringStores`, so every existing call
site (``stores.metrics``, ``stores.runs``, collectors, diagnosis modules)
works unchanged — the facade adds construction, durability, and lifecycle:

* ``TelemetryStore.in_memory()`` — all four stores journalling through one
  :class:`~repro.storage.backend.MemoryBackend` (zero-copy appends); today's
  behaviour plus a scannable journal;
* ``TelemetryStore.open(state_dir)`` — a crash-safe
  :class:`~repro.storage.jsonl.JsonlBackend` under ``state_dir``; existing
  segment files are replayed on open, so metrics, runs (with labels),
  config snapshots, and events all survive process restarts;
* ``flush()`` / ``close()`` / context-manager support;
* any third-party object satisfying the backend protocol can be passed via
  ``TelemetryStore.with_backend(backend)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..monitor.collector import MonitoringStores
from ..monitor.configstore import ConfigStore
from ..monitor.events import EventLog
from ..monitor.runstore import RunStore
from ..monitor.timeseries import MetricStore
from .backend import MemoryBackend
from .jsonl import JsonlBackend

if TYPE_CHECKING:  # pragma: no cover
    from .backend import StorageBackend

__all__ = ["TelemetryStore"]


@dataclass
class TelemetryStore(MonitoringStores):
    """Backend-pluggable bundle of the four monitoring stores.

    Constructed bare (``TelemetryStore()``), it is exactly a
    :class:`MonitoringStores`: four in-memory stores, no journal.  Use the
    classmethods to wire a backend through every store.
    """

    backend: "StorageBackend | None" = field(default=None, compare=False)

    # -- construction ----------------------------------------------------
    @classmethod
    def with_backend(
        cls,
        backend: "StorageBackend",
        *,
        interval_s: float = 300.0,
        noise_sigma: float = 0.05,
        seed: int = 0,
        replay: bool = True,
    ) -> "TelemetryStore":
        """All four stores journalling through ``backend``.

        When ``replay`` is true and the backend is durable, existing journal
        records are re-applied so the store resumes where it left off.
        """
        store = cls(
            metrics=MetricStore(
                interval_s=interval_s,
                noise_sigma=noise_sigma,
                seed=seed,
                backend=backend,
            ),
            events=EventLog(backend=backend),
            config=ConfigStore(backend=backend),
            runs=RunStore(backend=backend),
            backend=backend,
        )
        if replay and getattr(backend, "durable", False):
            store.replay()
        return store

    @classmethod
    def in_memory(
        cls,
        *,
        interval_s: float = 300.0,
        noise_sigma: float = 0.05,
        seed: int = 0,
    ) -> "TelemetryStore":
        """A :class:`MemoryBackend`-backed store (zero-copy fast path)."""
        return cls.with_backend(
            MemoryBackend(),
            interval_s=interval_s,
            noise_sigma=noise_sigma,
            seed=seed,
            replay=False,
        )

    @classmethod
    def open(
        cls,
        state_dir: str | os.PathLike,
        *,
        backend: str = "jsonl",
        interval_s: float = 300.0,
        noise_sigma: float = 0.05,
        seed: int = 0,
        fsync: bool = False,
    ) -> "TelemetryStore":
        """Open (or create) a durable store under ``state_dir``.

        ``backend`` selects the durable implementation: ``"jsonl"`` (the
        default append-only segment files) or ``"sqlite"`` (one indexed
        database file — keyed scans stop reading whole segments).  Existing
        records are replayed either way, so a reopened store returns the
        exact same ``series()`` / ``runs()`` / ``events()`` / config diffs
        as the store that wrote them.
        """
        if backend == "jsonl":
            impl = JsonlBackend(state_dir, fsync=fsync)
        elif backend == "sqlite":
            from .sqlite import SqliteBackend

            impl = SqliteBackend(Path(state_dir) / "telemetry.db", fsync=fsync)
        else:
            raise ValueError(
                f"unknown backend {backend!r} (expected 'jsonl' or 'sqlite')"
            )
        return cls.with_backend(
            impl,
            interval_s=interval_s,
            noise_sigma=noise_sigma,
            seed=seed,
            replay=True,
        )

    # -- lifecycle -------------------------------------------------------
    def replay(self) -> dict[str, int]:
        """Re-apply every journalled record; per-store applied counts."""
        return {
            "metrics": self.metrics.replay_from_backend(),
            "runs": self.runs.replay_from_backend(),
            "config": self.config.replay_from_backend(),
            "events": self.events.replay_from_backend(),
        }

    def flush(self) -> None:
        if self.backend is not None:
            self.backend.flush()

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bulk copy -------------------------------------------------------
    def absorb(self, other: MonitoringStores) -> None:
        """Copy every record of ``other`` into this (journalling) store.

        Used by ``DiagnosisBundle.save()`` to persist a bundle whose stores
        were never backend-wired.  Runs are copied with their *current*
        labels (the label is part of the journalled run record), so a
        labelled bundle round-trips labelled.
        """
        self.metrics.append_many(other.metrics.raw_observations())
        for run in other.runs.runs():
            self.runs.add(run)
        for scope, when, flat in other.config.snapshots():
            self.config._insert_flat(when, scope, dict(flat))
        for event in other.events.events:
            self.events.add(event)
