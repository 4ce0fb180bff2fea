"""One job of one workload in a fresh process: set up, run every task in a
closed loop with one caller, then check and report.

Prints one JSON object on stdout.  Timing covers the tasks only; digests,
oracles and the span dump come after the last task returns.  Started by
run.py with ``<checkout>/src`` on PYTHONPATH; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np
from ffzeta import backend, cache

import tracer as tracing
import workloads


def _corrupt(value):
    """Change the first digit found in a canonical value, in place."""
    if isinstance(value, dict):
        return any(_corrupt(value[k]) for k in sorted(value))
    if isinstance(value, list):
        if value and all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            value[0] += 1
            return True
        return any(_corrupt(x) for x in value)
    return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--corrupt", type=int, default=0)
    ap.add_argument("--known-failing", type=int, default=0)
    ap.add_argument("--spans", default="")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="job-", dir=args.workdir)
    try:
        store = cache.JsonCache(os.path.join(tmp, "cache"))
        expected = []
        if args.known_failing:
            pairs = workloads.known_failing_tasks(args.workload)
            tasks, expected = [t for t, _ in pairs], [e for _, e in pairs]
        else:
            wl = workloads.build(args.workload, args.seed, args.size, store)
            tasks = wl.tasks
            if wl.uses_cache:
                cache.set_active(store)
        tracer = None
        run_fns = [t.run for t in tasks]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            run_fns = [tracer.wrap("task", fn) for fn in run_fns]
        ready = time.monotonic()

        outputs, errors, latencies = [], {}, []
        clock = time.perf_counter
        for i, fn in enumerate(run_fns):
            start = clock()
            try:
                outputs.append(fn())
            except Exception as exc:  # noqa: BLE001 - a failed task is a result
                outputs.append(None)
                errors[i] = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cache.set_active(None)
        per_layer = None
        if tracer is not None:
            per_layer = tracer.metrics()
            if args.spans:
                tracer.dump(args.spans)

        results = []
        corrupted = not args.corrupt
        for i, (task, out) in enumerate(zip(tasks, outputs)):
            row = {"key": task.key, "pooled": task.pooled, "latency_s": latencies[i]}
            if i in errors:
                row["error"] = errors[i]
                results.append(row)
                continue
            canon = task.canon(out)
            if not corrupted:
                corrupted = _corrupt(canon)
            row["digest"] = workloads.digest(canon)
            if args.check:
                try:
                    row["oracle"] = bool(task.check(canon))
                except Exception as exc:  # noqa: BLE001 - a broken output fails its oracle
                    row["oracle"] = False
                    row["oracle_error"] = f"{type(exc).__name__}: {exc}"
            results.append(row)

        report = {
            "ready_monotonic": ready,
            "peak_rss_mb": peak_rss_mb,
            "tasks": results,
            "env": {
                "backend": backend.ACTIVE_BACKEND,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
        }
        for row, name in zip(results, expected):
            row["expected_error"] = name
        if per_layer is not None:
            report["per_layer"] = per_layer
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
