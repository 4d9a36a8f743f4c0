"""One pass of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per pass with ``PYTHONPATH=src`` from the
root of a checkout.  The pass builds its inputs from ``--seed``, runs the
workload through the package's public entry points, checks the outputs and
prints one JSON object as its last line of standard output.  Wall times are
``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, shared by every
process), so the parent can subtract its own spawn instant from
``first_tick`` to get the set-up time including interpreter start.

``--trace`` installs the span wrappers of :mod:`tracing` before anything is
built; untraced passes import nothing from that module.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HOURS = 24.0
CHUNK_S = 1800.0
#: ``repro watch`` defaults for the correlator and the incident cooldown.
CORRELATION_WINDOW_S = 3600.0
MIN_MEMBERS = 3
COOLDOWN_S = 7200.0

FLEETS = {
    "fleet-shared-pool": "shared-pool-saturation",
    "fleet-independent": "coincidental-independent-faults",
}
WORKLOADS = ("table1-offline", *FLEETS)


class NoTracer:
    """What a timed pass uses in place of :class:`tracing.Tracer`."""

    def scope(self, name: str):
        return contextlib.nullcontext()

    def name_environments(self, envs: dict) -> None:
        pass


def offset_seed(factory, seed: int) -> int:
    """The factory's default seed shifted by the workload seed."""
    return inspect.signature(factory).parameters["seed"].default + seed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(rows: list[dict]) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def run_offline(seed: int, tracer, setup_only: bool) -> dict:
    """The five Table-1 scenarios, each simulated then diagnosed here."""
    from repro.cli import SCENARIOS
    from repro.core.evaluation import evaluate_report
    from repro.core.pipeline import default_pipeline
    from repro.lab.scenarios import all_table1_scenarios

    names = [s.info.name for s in all_table1_scenarios(hours=HOURS)]
    scenarios = [
        SCENARIOS[name](hours=HOURS, seed=offset_seed(SCENARIOS[name], seed))
        for name in names
    ]
    pipeline = default_pipeline()
    first_tick, first_cpu = time.perf_counter(), time.process_time()
    if setup_only:
        return {"first_tick": first_tick}

    diagnoses, verdicts, errors = [], [], []
    for scenario in scenarios:
        try:
            with tracer.scope(scenario.info.name):
                bundle = scenario.run()
                t0 = time.perf_counter()
                report = pipeline.diagnose(bundle)
                diagnoses.append(time.perf_counter() - t0)
            evaluation = evaluate_report(bundle, report)
            verdicts.append(
                {
                    "scenario": evaluation.scenario_name,
                    "top_cause": evaluation.top_cause,
                    "ok": evaluation.identified,
                }
            )
        except Exception as exc:  # noqa: BLE001 — counted as a failed operation
            errors.append(f"{scenario.info.name}: {exc!r}")
    end = time.perf_counter()
    wrong = sum(1 for v in verdicts if not v["ok"])
    return {
        "first_tick": first_tick,
        "wall_s": end - first_tick,
        "cpu_s": time.process_time() - first_cpu,
        "env_hours": HOURS * len(scenarios),
        "attempted": len(scenarios),
        "failed": wrong + len(errors),
        "errors": errors,
        "verdicts": verdicts,
        "diagnosis_s": diagnoses,
    }


def run_fleet(fabric_name: str, seed: int, tracer, setup_only: bool, tmp_root: Path) -> dict:
    """One 24 h fleet under ``FleetSupervisor.run`` with a fresh state dir."""
    from repro.cli import FLEET_SCENARIOS
    from repro.correlate import FleetIncidentStore
    from repro.runtime import WorkerPool
    from repro.stream import FleetSupervisor
    from repro.stream.eventlog import FleetEventLog
    from repro.stream.incidents import IncidentStore

    nproc = os.cpu_count() or 1
    factory = FLEET_SCENARIOS[fabric_name]
    fabric = factory(hours=HOURS, seed=offset_seed(factory, seed))
    tmp_root.mkdir(parents=True, exist_ok=True)
    state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=tmp_root))
    pool = WorkerPool(max_workers=nproc)
    stores = (
        IncidentStore.open(state_dir),
        FleetEventLog.open(state_dir),
        FleetIncidentStore.open(state_dir),
    )
    incident_store, event_log, fleet_store = stores
    try:
        correlator = fabric.correlator(
            window_s=CORRELATION_WINDOW_S, min_members=MIN_MEMBERS, store=fleet_store
        )
        supervisor = FleetSupervisor(
            chunk_s=CHUNK_S,
            max_workers=nproc,
            cooldown_s=COOLDOWN_S,
            state_dir=state_dir,
            pool=pool,
            correlator=correlator,
            incident_store=incident_store,
            event_log=event_log,
            checkpoint_meta={"fleet": fabric_name, "hours": HOURS, "seed": seed},
        )
        fabric.watch_all(supervisor)
        tracer.name_environments(
            {name: w.env for name, w in supervisor.watched.items()}
        )
        events: list[tuple[float, dict]] = []

        def on_event(event: dict) -> None:
            events.append((time.perf_counter(), event))

        first_tick, first_cpu = time.perf_counter(), time.process_time()
        if setup_only:
            return {"first_tick": first_tick}
        errors: list[str] = []
        try:
            supervisor.run(HOURS * 3600.0, on_event=on_event)
        except Exception as exc:  # noqa: BLE001 — counted as a failed operation
            errors.append(repr(exc))
        end = time.perf_counter()
        cpu_s = time.process_time() - first_cpu
        for store in stores:
            store.close()
        result = {
            "first_tick": first_tick,
            "wall_s": end - first_tick,
            "cpu_s": cpu_s,
            "env_hours": HOURS * len(supervisor.watched),
            "errors": errors,
            "pool": supervisor.pool_stats(),
            "state_bytes": sum(
                p.stat().st_size for p in state_dir.rglob("*") if p.is_file()
            ),
        }
        result.update(fleet_events(first_tick, events))
        result.update(fleet_outcome(fabric, supervisor, correlator))
        # Every fabric injects faults: a pass that opens no incident missed
        # them all, which counts as one failed operation.
        missed = result["incidents_opened"] == 0
        result["attempted"] = max(result["incidents_opened"], 1)
        result["failed"] = (
            result["wrong"]
            + missed
            + len(errors)
            + result["checkpoint_errors"]
            + result["pool"]["failed"]
        )
        return result
    finally:
        for store in stores:
            store.close()
        pool.shutdown()
        shutil.rmtree(state_dir, ignore_errors=True)


def fleet_events(first_tick: float, events: list[tuple[float, dict]]) -> dict:
    """Latencies and counts seen from the event stream, benchmark-side."""
    last_advance: dict[str, float] = {}
    chunk_s: list[float] = []
    opened: dict[str, float] = {}
    answer_s: list[float] = []
    started: dict[str, float] = {}
    report_latency_s: list[float] = []
    progress: dict[str, float] = {}
    skew_max = 0.0
    counts = dict.fromkeys(
        ("incident_opened", "incident_resolved", "diagnosis_started", "checkpoint", "checkpoint_error"),
        0,
    )
    short_circuited = 0
    for t, event in events:
        kind = event["type"]
        if kind in counts:
            counts[kind] += 1
        if kind == "advanced":
            env = event["env"]
            chunk_s.append(t - last_advance.get(env, first_tick))
            last_advance[env] = t
            progress[env] = event["advanced_s"]
            skew_max = max(skew_max, max(progress.values()) - event["fleet_advanced_s"])
        elif kind == "incident_opened":
            opened[event["incident_id"]] = t
        elif kind == "diagnosis_started":
            for incident_id in event["incident_ids"]:
                started[incident_id] = t
        elif kind == "incident_resolved":
            incident_id = event["incident_id"]
            if incident_id in opened:
                answer_s.append(t - opened.pop(incident_id))
            if incident_id in started:
                report_latency_s.append(t - started.pop(incident_id))
            short_circuited += bool(event.get("fleet"))
    return {
        "chunk_s": chunk_s,
        "chunk_wall_sum_s": sum(chunk_s),
        "answer_s": answer_s,
        "report_latency_s": report_latency_s,
        "still_open": len(opened),
        "skew_max_s": skew_max,
        "incidents_opened": counts["incident_opened"],
        "incidents_resolved": counts["incident_resolved"],
        "local_diagnoses": counts["diagnosis_started"],
        "short_circuited": short_circuited,
        "checkpoints": counts["checkpoint"],
        "checkpoint_errors": counts["checkpoint_error"],
    }


def fleet_outcome(fabric, supervisor, correlator) -> dict:
    """Grade the fleet's answers and digest its simulated-time history.

    Every locally diagnosed incident is graded the way
    ``WatchedEnvironment.status()`` grades a member's latest one: through
    ``evaluate_report``, verified when the top cause is an injected one.
    """
    from repro.core.evaluation import evaluate_report
    from repro.lab.scenarios import ScenarioBundle

    local = []
    for watched in supervisor.watched.values():
        bundle = ScenarioBundle(
            info=watched.info, bundle=watched.env.bundle(), query_name=watched.query_name
        )
        for incident in watched.manager.incidents:
            if incident.report is not None:
                evaluation = evaluate_report(bundle, incident.report)
                local.append(
                    {
                        "incident": incident.incident_id,
                        "top_cause": evaluation.top_cause,
                        "ok": evaluation.top_cause in evaluation.ground_truth,
                    }
                )
    injected = {fault.component_id for fault in fabric.faults}
    fleet_rows = correlator.to_dict()
    misplaced = [r["fleet_id"] for r in fleet_rows if r["component_id"] not in injected]
    incidents = supervisor.incidents()
    history = [
        {
            **{k: v for k, v in incident.to_dict().items() if k != "report"},
            "top_cause": incident.top_cause_id,
        }
        for incident in incidents
    ]
    fleet_history = [{k: v for k, v in r.items() if k != "report"} for r in fleet_rows]
    return {
        "suppressed": sum(w.manager.suppressed for w in supervisor.watched.values()),
        "fleet_incidents": len(fleet_rows),
        "grouped_members": sum(len(r["members"]) for r in fleet_rows),
        "verdicts": local,
        "misplaced_fleet_incidents": misplaced,
        "wrong": sum(1 for v in local if not v["ok"]) + len(misplaced),
        "incident_digest": digest(history),
        "fleet_digest": digest(fleet_history),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True, help="parent of the state dirs")
    parser.add_argument("--spans", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        tracer = NoTracer()

    if args.workload == "table1-offline":
        result = run_offline(args.seed, tracer, args.setup_only)
    else:
        result = run_fleet(
            FLEETS[args.workload], args.seed, tracer, args.setup_only, Path(args.tmp)
        )
    result["peak_rss_mb"] = peak_rss_mb()
    if args.trace and not args.setup_only:
        result["layers"] = tracer.layer_metrics(result)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
