"""Worker-process side of the process-backed fleet (procpool tasks).

Every function here is a procpool *task*: resolved by dotted name inside the
worker (``"repro.stream.worker:advance_env"``), taking one JSON payload and
returning one JSON document.  Nothing else crosses the process boundary — no
pickled simulators, no live detector objects.

The contract with :mod:`repro.stream.remote` (the parent-side proxies):

* Every payload carries the environment's **hydration spec** — the scenario
  registry name plus build parameters (``hours``, ``seed``, fleet member) and
  detector configuration.  Environments are deterministic, so any worker can
  rebuild one from its spec; sticky affinity means in practice each is built
  exactly once, in the one worker that owns it, and then advanced in place.
* ``advance_env`` advances the cached environment one chunk and returns the
  compact delta the supervisor needs: drained detections (``to_dict`` form),
  the clock, the run count, diagnosability, and the detector state dicts the
  checkpoint snapshots.
* ``diagnose_env`` runs the full diagnosis pipeline *in the worker* against
  the live bundle and returns ``report_to_dict`` output — the same dict the
  thread-mode report serialises to, which is what keeps incident histories
  byte-for-byte identical across backends.
* ``bundle_env`` exports the whole bundle (fleet drill-down needs cross-
  member evidence in the parent); ``load_detectors`` restores checkpointed
  detector state after a resume fast-forward.
"""

from __future__ import annotations

from typing import Any

from ..lab.scenarios import Scenario, ScenarioBundle
from ..monitor.timeseries import MetricRow
from ..obs import metrics as obs_metrics
from ..obs import worker as obs_worker
from .detectors import (
    Detection,
    DetectorBank,
    ResponseTimeSloDetector,
    default_detector_factory,
)

__all__ = [
    "advance_env",
    "diagnose_env",
    "bundle_env",
    "load_detectors",
    "reset_worker_state",
]

#: watch name → hydrated environment, per worker process.  Sticky affinity
#: guarantees a given name only ever lands in one worker, so this cache is
#: the "hydrated once, advanced in place" half of the handoff design.
_ENVS: dict[str, "_WorkerEnv"] = {}

#: (fleet name, hours, seed) → built SharedFabric: members of one fabric
#: routed to the same worker share the single deterministic build.
_FABRICS: dict[tuple, Any] = {}

#: One pipeline per worker process (module registry warm across tasks).
_PIPELINE = None


def _scenario_for(spec: dict) -> Scenario:
    """Rebuild the named scenario from the CLI registries.

    The spec uses the same identity keys the checkpoint meta records
    (scenario/fleet name, hours, seed), so a spec that resumes cleanly in
    thread mode hydrates the identical simulation here.
    """
    from ..cli import FLEET_SCENARIOS, SCENARIOS  # lazy: cli imports stream

    kwargs: dict[str, Any] = {"hours": float(spec["hours"])}
    if spec.get("seed") is not None:
        kwargs["seed"] = int(spec["seed"])
    fleet = spec.get("fleet")
    if fleet:
        key = (fleet, kwargs["hours"], kwargs.get("seed"))
        fabric = _FABRICS.get(key)
        if fabric is None:
            fabric = FLEET_SCENARIOS[fleet](**kwargs)
            _FABRICS[key] = fabric
        return fabric.members[spec["env"]]
    return SCENARIOS[spec["scenario"]](**kwargs)


class _WorkerEnv:
    """One hydrated environment + its streaming detectors (no manager).

    The incident manager — and everything downstream of it (correlator,
    checkpoints, event log) — stays in the parent; this is only the
    CPU-heavy half: the simulator and the per-sample detector state.
    Mirrors :class:`repro.stream.supervisor.WatchedEnvironment`'s tap wiring
    exactly, so detections fire in the identical order.
    """

    def __init__(self, spec: dict) -> None:
        scenario = _scenario_for(spec)
        self.info = scenario.info
        self.query_name = spec.get("query_name") or scenario.query_name
        self.env = scenario.build()
        recovery = bool(spec.get("recovery", False))
        self.bank = DetectorBank(
            factory=default_detector_factory(emit_recovery=recovery)
        )
        self.run_detector = ResponseTimeSloDetector(
            factor=float(spec.get("slo_factor", 1.3)),
            baseline_runs=int(spec.get("baseline_runs", 4)),
            query_name=self.query_name,
            emit_recovery=recovery,
        )
        self._pending: list[Detection] = []
        self.env.collector.add_metric_tap(self._on_row)
        self.env.collector.add_run_tap(self._on_run)

    def _on_row(self, row: MetricRow) -> None:
        self._pending.extend(self.bank.observe_row(row))

    def _on_run(self, run) -> None:
        detection = self.run_detector.observe_run(run)
        if detection is not None:
            self._pending.append(detection)

    def advance(self, chunk_s: float) -> list[Detection]:
        self.env.advance(chunk_s)
        drained, self._pending = self._pending, []
        return drained

    def diagnosable(self) -> bool:
        runs = self.env.stores.runs
        return bool(
            runs.satisfactory_runs(self.query_name)
            and runs.unsatisfactory_runs(self.query_name)
        )


def _hydrated(spec: dict) -> _WorkerEnv:
    name = spec["name"]
    worker_env = _ENVS.get(name)
    if worker_env is None:
        # Buffered worker span: hydration is the one expensive cold-start
        # step, worth seeing on the parent's merged timeline.
        with obs_worker.worker_span("worker.hydrate", env=name):
            worker_env = _WorkerEnv(spec)
        obs_metrics.inc("env.hydrations")
        _ENVS[name] = worker_env
    return worker_env


def _pipeline():
    global _PIPELINE
    if _PIPELINE is None:
        from ..core.pipeline import default_pipeline

        _PIPELINE = default_pipeline()
    return _PIPELINE


# -- tasks ------------------------------------------------------------------


def advance_env(payload: dict) -> dict:
    """Advance one chunk; return the compact supervision delta."""
    worker_env = _hydrated(payload["spec"])
    with obs_worker.worker_span(
        "worker.advance",
        env=payload["spec"]["name"],
        sim_t=worker_env.env.clock,
        chunk_s=float(payload["chunk_s"]),
    ), obs_metrics.timed("env.advance_s"):
        detections = worker_env.advance(float(payload["chunk_s"]))
    obs_metrics.inc("env.chunks")
    if detections:
        obs_metrics.inc("env.detections", len(detections))
    return {
        "detections": [d.to_dict() for d in detections],
        "clock": worker_env.env.clock,
        "runs": len(worker_env.env.stores.runs.runs(worker_env.query_name)),
        "diagnosable": worker_env.diagnosable(),
        "bank": worker_env.bank.state_dict(),
        "run_detector": worker_env.run_detector.state_dict(),
    }


def diagnose_env(payload: dict) -> dict:
    """Run the diagnosis pipeline against the live worker-side bundle.

    Returns the ``report_to_dict`` form (what ``Incident.to_dict`` emits for
    a live report), plus the scenario-ground-truth grading when available —
    :func:`repro.core.evaluation.evaluate_report` only reads the report and
    the scenario info, so grading here equals grading in the parent.
    """
    from ..core.evaluation import evaluate_report
    from ..core.serialize import report_to_dict

    worker_env = _hydrated(payload["spec"])
    with obs_worker.worker_span(
        "worker.diagnose", env=payload["spec"]["name"], sim_t=worker_env.env.clock
    ), obs_metrics.timed("env.diagnose_s"):
        report = _pipeline().diagnose(worker_env.env.bundle(), worker_env.query_name)
    obs_metrics.inc("env.diagnoses")
    out: dict = {"report": report_to_dict(report)}
    info = worker_env.info
    if info is not None and info.ground_truth:
        evaluation = evaluate_report(
            ScenarioBundle(
                info=info,
                bundle=worker_env.env.bundle(),
                query_name=worker_env.query_name,
            ),
            report,
        )
        out["evaluation"] = {
            "verified": evaluation.top_cause in evaluation.ground_truth,
            "identified": evaluation.identified,
        }
    return out


def bundle_env(payload: dict) -> dict:
    """Export the full diagnosis bundle (fleet drill-down evidence)."""
    worker_env = _hydrated(payload["spec"])
    with obs_worker.worker_span(
        "worker.bundle", env=payload["spec"]["name"], sim_t=worker_env.env.clock
    ), obs_metrics.timed("env.bundle_s"):
        return worker_env.env.bundle().to_payload()


def load_detectors(payload: dict) -> dict:
    """Restore checkpointed detector state after a resume fast-forward."""
    worker_env = _hydrated(payload["spec"])
    worker_env.bank.load_state(payload["bank"])
    worker_env.run_detector.load_state(payload["run_detector"])
    return {"clock": worker_env.env.clock}


def reset_worker_state(payload: dict) -> dict:
    """Drop every cached environment/fabric (tests reuse worker processes)."""
    count = len(_ENVS)
    _ENVS.clear()
    _FABRICS.clear()
    return {"cleared": count}
