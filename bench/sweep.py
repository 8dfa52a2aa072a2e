#!/usr/bin/env python3
"""Run timed benchmark runs over seeds 1..runs, one process at a time, and
summarise each metric by its median, quartiles and spread.

    python3 bench/sweep.py                          # every workload, one run
    python3 bench/sweep.py --workloads check_skew --runs 5
    python3 bench/sweep.py --runs 10 --sets 2 --out bench/baseline.json

The spread is (Q3 - Q1) / median over the runs of a set, with quartiles from
``statistics.quantiles(values, n=4)``; it is compared with the metric's bound
from ``BENCHMARK.json``.  With two or more sets, which run one after the
other over every workload, each end-to-end metric's median in the last set
is also compared with the first set's: the change in the worse direction,
as a share of the first median, must stay within the bound.  Exits 1 if any
run reported a failure or a median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarise(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def run_set(spec: dict, workloads: list[str], runs: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {}
    for workload in workloads:
        results = [run_once(workload, seed) for seed in range(1, runs + 1)]
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "correct": failed == 0 and all(r["correct"] for r, _ in results),
            "metrics": {},
            "extras": {},
        }
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r, _ in results])
            stats.update(unit=units[name], bound=bounds[name])
            entry["metrics"][name] = stats
            spread = stats.get("spread")
            spread_text = "-" if spread is None else f"{spread:.4f}"
            flag = "" if spread is None or spread < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"{workload:17s} {name:24s} {stats['median']:14.6g} {units[name]:5s} "
                  f"spread {spread_text} bound {bounds[name]}{flag}", flush=True)
        for name, first in results[0][1]["extras"].items():
            stats = summarise([d["extras"][name]["value"] for _, d in results])
            stats.update(unit=first["unit"])
            entry["extras"][name] = stats
            print(f"{workload:17s} {name:24s} {stats['median']:14.6g} {first['unit']:5s} (extra)", flush=True)
        print(f"{workload:17s} {'failed_ratio':24s} {failed}/{attempted}", flush=True)
        env = results[0][1]
        entry.update(python=env["python"], nproc=env["nproc"], git_sha=env["git_sha"])
        out[workload] = entry
    return out


def median_changes(spec: dict, first: dict, last: dict) -> tuple[dict, bool]:
    """Per workload and end-to-end metric: the last set's median against the
    first's, as a signed share of the first (positive is worse)."""
    changes, ok = {}, True
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        for workload in first:
            a = first[workload]["metrics"][name]["median"]
            b = last[workload]["metrics"][name]["median"]
            worse = sign * (b - a) / a
            within = worse <= metric["bound"]
            ok = ok and within
            changes.setdefault(workload, {})[name] = {"worse_by": worse, "bound": metric["bound"], "within": within}
            print(f"{workload:17s} {name:24s} last median worse by {worse:+.4f} (bound {metric['bound']})"
                  + ("" if within else "  OUT OF BOUND"), flush=True)
    return changes, ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and set, seeds 1..runs")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, one after the other")
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)

    sets = []
    for i in range(args.sets):
        print(f"set {i + 1} of {args.sets}", flush=True)
        sets.append(run_set(spec, args.workloads, args.runs))
    ok = all(entry["correct"] for s in sets for entry in s.values())
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(range(1, args.runs + 1)), "sets": sets}
    if len(sets) > 1:
        summary["median_changes"], within = median_changes(spec, sets[0], sets[-1])
        ok = ok and within
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
