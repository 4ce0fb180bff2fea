#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current ffzeta sources.

    python3 perfbench/record_digests.py

Runs every pooled task of every full-size workload once, requires its
oracle to pass, and records the sha256 of its canonical output.  Then
runs each workload on the default seed in a fresh process and records
the digest over its task digests.  Rerun only when a change is meant to
alter reported digits, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

DEFAULT_SEED = 0


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from ffzeta import cache

    import workloads

    tasks = {}
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        store = cache.JsonCache(tmp)
        cache.set_active(store)
        for name in run.WORKLOADS:
            for task in workloads.pool(name, store):
                canon = task.canon(task.run())
                if not task.check(canon):
                    print(f"oracle fails on {task.key}; nothing written", file=sys.stderr)
                    return 1
                tasks[task.key] = workloads.digest(canon)
            print(f"{name}: {len(tasks)} task digests so far", flush=True)
        cache.set_active(None)
    per_workload = {}
    for name in run.WORKLOADS:
        job = run.spawn(name, DEFAULT_SEED, check=True)
        attempted, failures = run.tally([job], tasks)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        per_workload[name] = run.workload_digest(job)
    out = {"default_seed": DEFAULT_SEED, "workloads": per_workload,
           "tasks": dict(sorted(tasks.items()))}
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(tasks)} task digests and {len(per_workload)} workload digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
