#!/usr/bin/env python3
"""Run one benchmark workload of ffzeta and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold jobs of the workload one after another (a closed loop with one
caller), each in a fresh single-threaded child process, until S seconds
have passed; at least one job runs.  With --trace 1 untraced and traced
jobs alternate, at least one of each, and the metrics are the per-layer
ones; with --trace 0 they are the end-to-end ones.  Each task's latency
is taken as its median over the run's jobs; job_s sums those medians
over the tasks and task_p50_ms is their median.  setup_s and peak_rss_mb
are medians over the jobs.

Every task output is hashed and compared with ``digests.json``; the first
job also runs every task's oracle, which also vouches for the outputs
whose digest cannot be recorded in advance.  A task fails if it raises or
if either check fails.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Exit status 0 when a result was printed, 1 when a job could not run,
2 when the checkout has no ffzeta sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer  # imports nothing from ffzeta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"
WORKLOADS = ("zeta-batch", "at-tower", "orders-hunt", "extfield-hunt")
JOB_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("task_p50_ms", "ms"), ("peak_rss_mb", "MB"))


class JobError(RuntimeError):
    """A child process ended without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FFZETA_CACHE_DIR", None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, *, size="full", trace=False, check=False, corrupt=False,
          known_failing=False, spans=None) -> dict:
    """Run one job in a fresh child and return its report, with setup_s
    measured from the spawn to the child's first task being ready."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)),
           "--check", str(int(check)), "--corrupt", str(int(corrupt)),
           "--known-failing", str(int(known_failing)), "--workdir", str(WORKDIR)]
    if spans:
        cmd += ["--spans", str(spans)]
    WORKDIR.mkdir(exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"{workload}: job exceeded {JOB_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise JobError(f"{workload}: job exited with status {proc.returncode}\n{tail}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_monotonic"] - spawned
    return report


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_digest(job) -> str:
    """sha256 over a job's task digests in task order."""
    return hashlib.sha256("\n".join(r.get("digest", "") for r in job["tasks"]).encode()).hexdigest()


def tally(jobs, reference):
    """Count attempted and failed tasks over all jobs.  A task's output must
    match its recorded digest; one without a record must pass its oracle
    in the first job and match that job's digest afterwards."""
    attempted, failures, vouched = 0, [], {}
    for j, job in enumerate(jobs):
        for row in job["tasks"]:
            attempted += 1
            key = row["key"]
            if "error" in row:
                failures.append(f"job {j} {key}: raised {row['error']}")
                continue
            if row.get("oracle") is False:
                failures.append(f"job {j} {key}: oracle mismatch")
                continue
            want = reference.get(key) if row["pooled"] else None
            if want is None:
                if row.get("oracle"):
                    vouched.setdefault(key, row["digest"])
                want = vouched.get(key)
            if want is None:
                failures.append(f"job {j} {key}: no recorded digest and no oracle run")
            elif row["digest"] != want:
                failures.append(f"job {j} {key}: digest {row['digest'][:12]} != {want[:12]}")
    return attempted, failures


def task_medians(jobs) -> dict:
    """Each task's latency as the median over the jobs.  The host's speed
    drifts by tens of percent over seconds; a per-task median drops the
    tasks a slow spell hit in a minority of the jobs."""
    latencies = {}
    for job in jobs:
        for row in job["tasks"]:
            latencies.setdefault(row["key"], []).append(row["latency_s"])
    return {key: statistics.median(v) for key, v in latencies.items()}


def run(workload, seed, seconds, trace, size="full", corrupt=False) -> dict:
    """Run jobs until `seconds` have passed; return the result with its
    failure list and the environment the children reported."""
    recorded = load_digests()
    plain, traced = [], []
    spans = WORKDIR / f"spans-{workload}-{seed}.json"
    start = time.monotonic()
    while True:
        want_trace = bool(trace) and len(traced) < len(plain)
        first = not plain
        job = spawn(workload, seed, size=size, trace=want_trace, check=first,
                    corrupt=corrupt and first, spans=spans if want_trace else None)
        (traced if want_trace else plain).append(job)
        if time.monotonic() - start >= seconds and (traced or not trace):
            break
    attempted, failures = tally(plain + traced, recorded["tasks"])
    failed = len(failures)
    # the task order of the default seed is part of its recorded digest
    want = recorded["workloads"].get(workload)
    if size == "full" and seed == recorded["default_seed"] and want:
        got = workload_digest(plain[0])
        if got != want:
            failures.append(f"workload digest {got[:12]} != recorded {want[:12]}")

    med = statistics.median
    if trace:
        per_layer = {}
        names = traced[0]["per_layer"].keys()
        for name in names:
            per_layer[name] = med([job["per_layer"][name] for job in traced])
        per_layer["trace.overhead_ratio"] = (
            sum(task_medians(traced).values()) / sum(task_medians(plain).values()))
        units = {n: u for n, u, _ in tracer.metric_specs()}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in per_layer.items()}
    else:
        latency = task_medians(plain)
        values = {
            "job_s": sum(latency.values()),
            "setup_s": med([job["setup_s"] for job in plain]),
            "task_p50_ms": 1000.0 * med(latency.values()),
            "peak_rss_mb": med([job["peak_rss_mb"] for job in plain]),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "jobs": {"untraced": len(plain), "traced": len(traced)},
        "env": plain[0]["env"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ffzeta" / "__init__.py").is_file():
        print(f"no ffzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except JobError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    jobs = result["jobs"]
    print(f"{args.workload} seed {args.seed}: {jobs['untraced']} untraced and "
          f"{jobs['traced']} traced jobs, backend {result['env']['backend']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {result['failed']}/{result['attempted']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
