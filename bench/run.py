#!/usr/bin/env python3
"""tabinv benchmark: one workload, timed or traced, in one process.

    python3 bench/run.py --workload check_skew --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Metric names and units come from ``BENCHMARK.json``.  The last
stdout line is the result object; the line before it is a ``detail`` object
with the environment, failures and the metrics that exist on one workload
only.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = BENCH / "out"
SETUP_PROBES = 9  # at least

from hostspeed import NOMINAL_CHUNK_S  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

# Times a cold import of the library plus the workload's first warm-up call
# in a fresh interpreter, then three reference chunks for the host's speed.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, {bench!r})
import hostspeed, statistics, workloads
sys.path.insert(0, {src!r})
start = time.perf_counter()
import tabinv, tabinv.cli
workloads.WORKLOADS[{name!r}].warmup(tabinv)
setup = time.perf_counter() - start
print(setup, statistics.median(hostspeed.reference_chunk() for _ in range(3)))
"""


def probe_setup(name: str) -> float:
    """One set-up time, in nominal seconds."""
    code = SETUP_PROBE.format(bench=str(BENCH), src=str(SRC), name=name)
    done = subprocess.run(
        [sys.executable, "-I", "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup, chunk = map(float, done.stdout.split()[-2:])
    return setup * NOMINAL_CHUNK_S / chunk


def import_library():
    sys.path.insert(0, str(SRC))
    import tabinv
    import tabinv.cli  # noqa: F401

    if Path(tabinv.__file__).resolve().parent != SRC / "tabinv":
        raise ImportError(f"tabinv imported from {tabinv.__file__}, not from {SRC}")
    return tabinv


def git_sha() -> str:
    """HEAD's commit, or "unknown" outside a git checkout.  The ceiling keeps
    git from reporting a repository that merely contains this checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def timed_run(workload, name: str, seconds: float) -> tuple[Record, dict, dict]:
    """Repeat the workload's unit until `seconds` have passed.  One set-up
    probe runs before each unit, so the probes sample the whole run.  The
    host clock samples while the units run."""
    rec = Record()
    setup = []
    deadline = perf_counter() + seconds
    while True:
        setup.append(probe_setup(name))
        with rec.clock.sampling():
            workload.unit(rec)
        if perf_counter() >= deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(name))
    metrics, extras = workload.end_to_end(rec)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extras["host_speed"] = {"value": rec.clock.speed, "unit": "x"}
    return rec, metrics, {"extras": extras, "setup_s_each": setup, "reference_chunks": rec.clock.chunks}


def traced_run(workload, name: str, seed: int) -> tuple[Record, dict, dict]:
    untraced = Record()
    start = perf_counter()
    workload.trace_unit(untraced)
    untraced_s = perf_counter() - start
    rec = Record()
    tracer = Tracer()
    start = perf_counter()
    workload.trace_unit(rec, tracer)
    traced_s = perf_counter() - start
    rec.attempted += untraced.attempted
    rec.failures += untraced.failures
    layers = tracer.layer_metrics(workload.distinct)
    layers["trace.overhead_s"] = traced_s - untraced_s
    spans = SPANS / f"spans_{name}_{seed}.csv.gz"
    tracer.write_spans(spans)
    detail = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }
    return rec, layers, detail


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".us_per_call", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time of a timed run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: traced per-layer run")
    args = parser.parse_args(argv)

    if not (SRC / "tabinv" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'tabinv'} not found", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload_cls = WORKLOADS[args.workload]
    api = import_library()
    workload_cls.warmup(api)
    workload = workload_cls(api, args.seed)
    if args.trace:
        rec, values, detail = traced_run(workload, args.workload, args.seed)
    else:
        rec, values, detail = timed_run(workload, args.workload, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(rec.failures)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        git_sha=git_sha(),
        failed_ratio=failed / rec.attempted,
        failures=rec.failures,
    )
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        shown = {name: (value, _layer_unit(name)) for name, value in detail["layers"].items()}
    else:
        shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
        shown.update((name, (m["value"], m["unit"])) for name, m in detail["extras"].items())
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {failed}/{rec.attempted}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": rec.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
