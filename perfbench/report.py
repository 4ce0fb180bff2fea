#!/usr/bin/env python3
"""Run every workload of the benchmark and write a stamped result set.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--out FILE]
    python3 perfbench/report.py --compare OLD.json NEW.json

For each workload, one at a time: an untraced run (end-to-end metrics),
a traced run (per-layer metrics and trace.overhead_ratio), and any
known-failing task on its own (see workloads.KNOWN_FAILING).  Prints every
metric with its unit and fail_ratio with its base, and writes the result
set, stamped with git revision, Python and numpy versions, ffzeta's
backend, the usable CPU count and the CPU model, to FILE (default
.perfbench_out/results-<rev>.json).

--compare prints each end-to-end metric of two result sets against the
bounds in BENCHMARK.json; it refuses sets measured on different backends.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def _git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(env: dict) -> dict:
    return {
        "git_rev": _git_rev(),
        "python": env["python"],
        "numpy": env["numpy"],
        "backend": env["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _probe(name, seed):
    """Run a workload's known-failing tasks on their own.  Returns
    (attempted, failure lines, notes)."""
    rows = run.spawn(name, seed, known_failing=True)["tasks"]
    failures, notes = [], []
    for row in rows:
        err = row.get("error", "")
        if err:
            known = "known failure" if err.startswith(row["expected_error"]) else "unexpected error"
            failures.append(f"{known} {row['key']}: {err}")
        else:
            notes.append(f"known-failing task {row['key']} now passes; "
                         "take it off workloads.KNOWN_FAILING")
    return len(rows), failures, notes


def report(seed, seconds, out_path) -> int:
    results = {}
    env = None
    for name in run.WORKLOADS:
        plain = run.run(name, seed, seconds, 0)
        traced = run.run(name, seed, seconds, 1)
        env = env or plain["env"]
        if plain["env"]["backend"] != env["backend"]:
            print(f"{name}: backend changed mid-report", file=sys.stderr)
            return 1
        probed, probe_failures, notes = _probe(name, seed)
        attempted = plain["attempted"] + traced["attempted"] + probed
        failed = plain["failed"] + traced["failed"] + len(probe_failures)
        failures = plain["failures"] + traced["failures"] + probe_failures
        print(f"== {name} (seed {seed}; {plain['jobs']['untraced']} untraced jobs, "
              f"{traced['jobs']['traced']} traced)")
        for metric, m in plain["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"  fail_ratio = {failed}/{attempted}")
        for line in failures:
            print(f"    {line}")
        for line in notes:
            print(f"    {line}")
        layers = traced["metrics"]
        top = sorted(((m["value"], k) for k, m in layers.items()
                      if k.endswith(".self_s") and k.count(".") > 1), reverse=True)[:3]
        print("  largest self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        print(f"  trace.overhead_ratio = {layers['trace.overhead_ratio']['value']:.3f}")
        results[name] = {
            "end_to_end": plain["metrics"],
            "per_layer": layers,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
        }
    out = {"stamp": stamp(env), "seed": seed, "seconds": seconds, "workloads": results}
    out_path = out_path or run.WORKDIR / f"results-{out['stamp']['git_rev']}.json"
    run.WORKDIR.mkdir(exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {out_path}")
    return 0


def compare(old_path, new_path) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    if old["stamp"]["backend"] != new["stamp"]["backend"]:
        print(f"refusing to compare: backend {old['stamp']['backend']} vs "
              f"{new['stamp']['backend']}", file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    print(f"{old['stamp']['git_rev']} -> {new['stamp']['git_rev']} "
          f"(backend {new['stamp']['backend']}; lower is better)")
    for name, res in new["workloads"].items():
        for metric, m in res["end_to_end"].items():
            before = old["workloads"][name]["end_to_end"][metric]["value"]
            change = m["value"] / before - 1.0
            verdict = "worse than bound" if change > bounds[metric] else "ok"
            print(f"  {name} {metric}: {before:.6g} -> {m['value']:.6g} {m['unit']} "
                  f"({change:+.1%}, bound {bounds[metric]:.0%}) {verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        return report(args.seed, args.seconds, args.out)
    except run.JobError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
