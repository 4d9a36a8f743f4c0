"""Real-workload benchmark: Table-1 offline diagnosis and two 24 h fleets.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload table1-offline --seed 1 --seconds 55 --trace 0

Each pass of the workload runs in a fresh interpreter (``workload.py``), so
set-up time includes interpreter start and imports, peak RSS is the pass's
own, and no process-wide pool or metrics registry carries over.  Passes
repeat until the next one would end after ``--seconds``.  With ``--trace 0``
the passes are timed and the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` one pass without wrappers sets
the base, the following passes are traced, and the result carries the
per-layer metrics and the tracing overhead.  Everything else a run records
(every pass, its verdicts and fleet digests) goes to
``.e2ebench_out/<workload>-seed<seed>-trace<0|1>.json``.

The workload seed offsets every scenario's and fabric's default seed.
Development seed: 1.  A performance claim must also hold on the holdout seed
1000, which is not used while a change is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Set-up-only interpreters started per timed run, besides one per pass.
SETUP_PROBES = 6
#: Whole-run limit: a pass is killed once the run is this old.
RUN_LIMIT_S = 170.0
TMP_DIR = ".e2ebench_tmp"
OUT_DIR = ".e2ebench_out"
#: Switches the program reads from the environment; all are left unset.
CLEARED_ENV = ("REPRO_PROFILE", "REPRO_SANITIZE", "REPRO_POOL", "REPRO_OBS")


class PassFailed(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    # Set iteration order feeds float reductions in the diagnosis; pin it so
    # passes of one seed are comparable.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args, root: Path, started: float, *, trace=False, setup_only=False, spans=None) -> dict:
    """One fresh interpreter; its JSON result with ``setup_s`` added."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--tmp", str(root / TMP_DIR),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_LIMIT_S - (spawned - started)),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_tick"] - spawned
    return result


def run_passes(args, root: Path, started: float, *, trace: bool, spans=None) -> list[dict]:
    """Passes until the next would end after ``--seconds`` (at least one)."""
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        passes.append(
            run_pass(args, root, started, trace=trace, spans=spans if not passes else None)
        )
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) > args.seconds:
            return passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(p: dict) -> float:
    return p["env_hours"] / p["wall_s"]


def samples(passes: list[dict], key: str) -> list[float]:
    return [v for p in passes for v in p.get(key, ())]


def end_to_end(passes: list[dict], setups: list[float], fleet: bool) -> dict:
    """Every end-to-end figure: (value, unit, sample count)."""
    answer_key = "answer_s" if fleet else "diagnosis_s"
    answers = samples(passes, answer_key)
    attempted = sum(p["attempted"] for p in passes)
    out = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "env_hours_per_s": (
            statistics.median(throughput(p) for p in passes), "env-h/s", len(passes)
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
        "answer_s.p50": (quantile(answers, 50), "s", len(answers)),
        "failed_share": (sum(p["failed"] for p in passes) / attempted, "ratio", attempted),
    }
    if fleet:
        chunks = samples(passes, "chunk_s")
        reports = samples(passes, "report_latency_s")
        out["chunk_s.p50"] = (quantile(chunks, 50), "s", len(chunks))
        out["chunk_s.p95"] = (quantile(chunks, 95), "s", len(chunks))
        out["incident_answer_s.p50"] = out["answer_s.p50"]
        out["report_latency_s.p50"] = (quantile(reports, 50), "s", len(reports))
        out["incidents_still_open"] = (sum(p["still_open"] for p in passes), "count", len(passes))
    else:
        out["diagnosis_s.p50"] = out["answer_s.p50"]
    return out


def digests(passes: list[dict]) -> dict:
    pairs = [(p["incident_digest"], p["fleet_digest"]) for p in passes if "incident_digest" in p]
    return {
        "runs": [
            {
                "incident_digest": p["incident_digest"],
                "fleet_digest": p["fleet_digest"],
                "incidents_opened": p["incidents_opened"],
                "local_diagnoses": p["local_diagnoses"],
                "fleet_incidents": p["fleet_incidents"],
            }
            for p in passes
            if "incident_digest" in p
        ],
        "distinct": len(set(pairs)),
    }


def layer_metrics(traced: list[dict], base: dict) -> dict[str, float]:
    """Per-metric median over the traced passes, plus the tracing overhead."""
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_ratio"] = statistics.median(throughput(p) for p in traced) / throughput(base)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {root / 'src'}: run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    started = time.perf_counter()
    fleet = args.workload != "table1-offline"
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes: list[dict] = []
    report: dict = {}
    error = None
    try:
        if args.trace:
            base = run_pass(args, root, started)
            traced = run_passes(
                args, root, started, trace=True, spans=out_dir / f"{stem}-spans.jsonl"
            )
            passes = [base, *traced]
            metrics = layer_metrics(traced, base)
            record_digests = digests(passes)
            metrics["digest.runs"] = len(record_digests["runs"])
            metrics["digest.distinct"] = record_digests["distinct"]
            units = {m["name"]: m["unit"] for m in wanted}
            report = {
                name: (value, units.get(name, ""), len(traced))
                for name, value in metrics.items()
            }
        else:
            setups = [
                run_pass(args, root, started, setup_only=True)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            passes = run_passes(args, root, started, trace=False)
            setups += [p["setup_s"] for p in passes]
            report = end_to_end(passes, setups, fleet)
    except (PassFailed, json.JSONDecodeError, KeyError, IndexError) as exc:
        error = str(exc) or repr(exc)
    finally:
        shutil.rmtree(root / TMP_DIR, ignore_errors=True)

    attempted = sum(p.get("attempted", 0) for p in passes) + (1 if error else 0)
    failed = sum(p.get("failed", 0) for p in passes) + (1 if error else 0)
    correct = error is None and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "metrics": report,
        "digests": digests(passes),
        "passes": passes,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(
        f"workload {args.workload}  seed {args.seed}  nproc {record['nproc']}  "
        f"python {record['python']}"
    )
    for name, (value, unit, n) in report.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<8} n={n}")
    for run in record["digests"]["runs"]:
        print(
            f"  digest {run['incident_digest']}/{run['fleet_digest']}  "
            f"opened {run['incidents_opened']}  local diagnoses {run['local_diagnoses']}  "
            f"fleet incidents {run['fleet_incidents']}"
        )
    if fleet:
        print(
            f"  distinct digests: {record['digests']['distinct']} of "
            f"{len(record['digests']['runs'])} passes"
        )
    if error:
        print(f"  error: {error}")
    result_metrics = {
        m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
        for m in wanted
        if m["name"] in report
    }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
