"""Row ingestion keeps the journal contract of per-observation ingestion.

The collector writes every tick as :class:`MetricRow` objects; a store fed
those rows must journal exactly the bytes a store fed the same observations
one tuple at a time journals, and replay to the same raw series.
"""

from __future__ import annotations

import pytest

from repro.lab.scenarios import all_table1_scenarios
from repro.monitor.timeseries import MetricRow, MetricStore
from repro.storage import JsonlBackend
from repro.storage.keyspaces import METRICS

HOURS = 6.0


def journalled(root) -> MetricStore:
    return MetricStore(interval_s=300.0, noise_sigma=0.05, seed=3, backend=JsonlBackend(root))


def segment_bytes(store: MetricStore) -> bytes:
    store.backend.close()
    return (store.backend.root / f"{METRICS}.jsonl").read_bytes()


@pytest.fixture(scope="module")
def rows():
    """Every row the collector emitted over a 6 h two-workload run."""
    scenario = next(
        s for s in all_table1_scenarios(hours=HOURS) if s.info.name == "two-external-workloads"
    )
    env = scenario.build()
    seen: list[MetricRow] = []
    env.collector.add_metric_tap(seen.append)
    env.run(scenario.duration_s)
    return env.stores.metrics, seen


def test_rows_and_tuples_journal_identical_bytes(rows, tmp_path):
    live, seen = rows
    by_row = journalled(tmp_path / "rows")
    by_tuple = journalled(tmp_path / "tuples")
    for row in seen:
        assert by_row.append_many(row) == len(row)
        for observation in row:
            by_tuple.record(*observation)
    assert list(by_row.raw_observations()) == list(live.raw_observations())
    assert list(by_tuple.raw_observations()) == list(live.raw_observations())
    journal = segment_bytes(by_row)
    assert journal == segment_bytes(by_tuple)
    assert journal.count(b"\n") == len(live)


def test_replay_of_row_journal_matches_live_store(rows, tmp_path):
    live, seen = rows
    writer = journalled(tmp_path / "rows")
    for row in seen:
        writer.append_many(row)
    writer.backend.close()
    replayed = journalled(tmp_path / "rows")
    assert replayed.replay_from_backend() == len(live)
    assert list(replayed.raw_observations()) == list(live.raw_observations())
    for key in live.keys()[::7]:
        assert replayed.series(*key) == writer.series(*key)
    # Replay journals nothing: the segment still holds one record per push.
    assert segment_bytes(replayed).count(b"\n") == len(live)


def test_row_values_journal_as_floats(tmp_path):
    """An int value journals as ``50.0``, as the tuple path's ``float()`` does."""
    keys = (("srv", "cpuUsagePct"), ("srv", "threads"), ("srv", "cpuUsagePct"))
    by_row = journalled(tmp_path / "rows")
    by_tuple = journalled(tmp_path / "tuples")
    for t, values in ((0.0, (50, 720.0, 51)), (60.0, (49.5, 700, 48))):
        row = MetricRow(t, keys, values)
        by_row.append_many(row)
        by_tuple.append_many(list(row))
    assert by_row.series("srv", "cpuUsagePct") == by_tuple.series("srv", "cpuUsagePct")
    assert segment_bytes(by_row) == segment_bytes(by_tuple)


def test_row_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        MetricRow(0.0, (("a", "m"), ("b", "m")), (1.0,))


def test_row_iterates_as_observations():
    row = MetricRow(5.0, (("a", "m"), ("b", "n")), [1.0, 2.0])
    assert list(row) == [(5.0, "a", "m", 1.0), (5.0, "b", "n", 2.0)]
    assert len(row) == 2
