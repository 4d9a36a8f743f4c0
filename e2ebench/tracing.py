"""Span wrappers for the benchmark's traced pass.

Installed only in a traced pass: each wrapper replaces a public method on its
class and records one span per call, with wall time from
``time.perf_counter`` and CPU time from ``time.thread_time``.  Wall minus CPU
is time the call waited (the interpreter lock, a lock, a queue).  Parents come
from a thread-local stack of open spans; every span carries a scope id, the
environment or scenario it belongs to.  Hot tiny calls get a count only.
Spans stay in memory and are written out when the pass ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time

#: (span name, module path, class name, method names).  A method called from
#: another method of the same span name (``values_between`` → ``series``) is
#: folded into the outer span.
SPANS = (
    ("lab.advance", "repro.lab.environment", "Environment", ("advance",)),
    ("san.simulate", "repro.san.iomodel", "IoSimulator", ("simulate",)),
    ("db.execute", "repro.db.executor", "Executor", ("execute",)),
    ("monitor.append", "repro.monitor.timeseries", "MetricStore", ("append_many",)),
    (
        "monitor.series",
        "repro.monitor.timeseries",
        "MetricStore",
        ("series", "values_between", "window_mean"),
    ),
    ("core.diagnose", "repro.core.pipeline", "DiagnosisPipeline", ("diagnose",)),
    ("correlate.observe", "repro.correlate.engine", "CorrelationEngine", ("observe",)),
    ("storage.write", "repro.stream.incidents", "IncidentStore", ("record", "flush")),
    ("storage.write", "repro.stream.eventlog", "FleetEventLog", ("append", "flush")),
    ("storage.write", "repro.correlate.engine", "FleetIncidentStore", ("record", "flush")),
)
COUNTS = (("stream.detect", "repro.stream.detectors", "DetectorBank", "observe"),)
MODULES = ("PD", "CO", "CR", "DA", "SD", "IA")
TIMED = (
    "lab.advance",
    "san.simulate",
    "db.execute",
    "monitor.append",
    "monitor.series",
    "core.diagnose",
    *(f"core.{m}" for m in MODULES),
    "correlate.observe",
    "storage.write",
)


class Tracer:
    """Class-level span wrappers plus the in-memory span list."""

    def __init__(self) -> None:
        #: (id, parent id, name, scope, start, end, cpu_s, self_cpu_s, extra)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}
        self._scopes: dict[int, str] = {}

    # -- scope ids -----------------------------------------------------
    @contextlib.contextmanager
    def scope(self, name: str):
        """Name the scope of spans opened on this thread without a parent."""
        previous = getattr(self._local, "scope", None)
        self._local.scope = name
        try:
            yield
        finally:
            self._local.scope = previous

    def name_environments(self, envs: dict) -> None:
        """Environment (and its stores) → member name, for fleet spans."""
        for name, env in envs.items():
            self._scopes[id(env)] = name
            self._scopes[id(env.stores)] = name

    def _scope_of(self, obj, args) -> str | None:
        scope = self._scopes.get(id(obj))
        if scope is None and args:
            scope = self._scopes.get(id(getattr(args[0], "stores", None)))
        return scope

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for name, module, cls_name, methods in SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                setattr(cls, method, self._timed(name, getattr(cls, method)))
        for name, module, cls_name, method in COUNTS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, method, self._counted(name, getattr(cls, method)))

        from repro.core.pipeline import default_pipeline

        for module in default_pipeline().modules().values():
            cls = type(module)
            cls.run = self._timed(f"core.{module.name}", cls.run)

    def _counted(self, name: str, func):
        counter = self._counters[name] = itertools.count()
        bump = counter.__next__

        def wrapper(*args, **kwargs):
            bump()
            return func(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, func):
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        clock, cpu_clock = time.perf_counter, time.thread_time

        def wrapper(obj, *args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == name:
                return func(obj, *args, **kwargs)
            scope = tracer._scope_of(obj, args) or (
                parent[2] if parent is not None else getattr(local, "scope", None)
            )
            # [id, name, scope, child cpu]
            frame = [next(ids), name, scope or "fleet", 0.0]
            stack.append(frame)
            start, cpu0 = clock(), cpu_clock()
            try:
                result = func(obj, *args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu0
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[3] += cpu
            extra = None
            if name == "monitor.append":
                extra = result
            elif name == "core.diagnose":
                extra = len(result.skipped)
            spans.append(
                (
                    frame[0],
                    parent[0] if parent is not None else None,
                    name,
                    frame[2],
                    start,
                    end,
                    cpu,
                    cpu - frame[3],
                    extra,
                )
            )
            return result

        return wrapper

    # -- results -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        # ``repr(count(n))`` is ``"count(n)"``: the calls made so far.
        return {name: int(repr(c)[6:-1]) for name, c in self._counters.items()}

    def layer_metrics(self, result: dict) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed as in ``BENCHMARK.json``."""
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = 0
            out[f"{name}.wall_s"] = 0.0
            out[f"{name}.cpu_s"] = 0.0
        advance_self_cpu = 0.0
        rows = skipped = 0
        for _sid, _parent, name, _scope, start, end, cpu, self_cpu, extra in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.wall_s"] += end - start
            out[f"{name}.cpu_s"] += cpu
            if name == "lab.advance":
                advance_self_cpu += self_cpu
            elif name == "monitor.append":
                rows += extra
            elif name == "core.diagnose":
                skipped += extra
        out["lab.advance.self_cpu_s"] = advance_self_cpu
        out["monitor.append.rows"] = rows
        out["core.skipped"] = skipped
        out["stream.detect.calls"] = self.counts().get("stream.detect", 0)

        fleet = "chunk_s" in result
        out["stream.incidents.opened"] = result.get("incidents_opened", 0)
        out["stream.incidents.resolved"] = result.get("incidents_resolved", 0)
        out["stream.incidents.suppressed"] = result.get("suppressed", 0)
        out["correlate.fleet_incidents"] = result.get("fleet_incidents", 0)
        out["correlate.short_circuited"] = result.get("short_circuited", 0)
        grouped = result.get("grouped_members", 0)
        out["correlate.short_circuit_ratio"] = (
            result.get("short_circuited", 0) / grouped if grouped else 0.0
        )
        out["runtime.iteration_wait_s"] = (
            result["chunk_wall_sum_s"] - out["lab.advance.wall_s"] if fleet else 0.0
        )
        out["runtime.advance_wait_s"] = out["lab.advance.wall_s"] - out["lab.advance.cpu_s"]
        out["runtime.skew_s.max"] = result.get("skew_max_s", 0.0)
        pool = result.get("pool", {})
        out["runtime.pool.completed"] = pool.get("completed", 0)
        out["runtime.pool.failed"] = pool.get("failed", 0)
        out["storage.checkpoints"] = result.get("checkpoints", 0)
        out["storage.state_bytes"] = result.get("state_bytes", 0)
        return out

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "scope", "start", "end", "cpu_s", "self_cpu_s", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": self.counts()}) + "\n")
