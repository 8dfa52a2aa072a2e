"""The benchmark workloads.

A workload is built from the imported ``tabinv`` package (``api``) and the
seed.  ``warmup`` is the first call that set-up time includes, ``unit`` one
unit of measured work, and ``trace_unit`` the fixed work of a traced run,
done once untraced and once traced so that the two wall times give the
tracing overhead.  ``end_to_end`` turns a timed run's record into the
end-to-end metrics and the workload's extras, the metrics that only this
workload has, each as ``{"value", "unit"}``.  Times in the end-to-end metrics
are nominal seconds (see ``hostspeed.py``).  The harness only calls the
library through ``api`` attributes at call time, so a tracer's patches apply
to it too.
"""

from __future__ import annotations

import contextlib
import io
import re
import statistics
import traceback
from collections import defaultdict
from time import perf_counter

import oracles
import samplers
from hostspeed import HostClock
from tracing import traced


class Record:
    """Requests attempted, the wall time of each by kind, and every failure.
    A request's time leaves out the reference chunks that ran inside it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.clock = HostClock()

    def attempt(self, kind: str, request, sampled: bool = True) -> None:
        """Time one request; it returns its list of check failures.  An
        exception is a failure too, reported with its traceback.  Unless
        `sampled`, the host clock pauses for it."""
        self.attempted += 1
        spent = self.clock.spent
        start = perf_counter()
        with contextlib.nullcontext() if sampled else self.clock.paused():
            try:
                problems = request()
            except Exception:
                problems = [traceback.format_exc()]
        self.seconds[kind].append(perf_counter() - start - (self.clock.spent - spent))
        if problems:
            self.failures.append(f"{kind}: " + "; ".join(problems))

    def nominal(self, kind: str) -> list[float]:
        """The request times of one kind in nominal seconds."""
        return [s * self.clock.speed for s in self.seconds[kind]]


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it,
    in milliseconds, with that percentile and the sample count."""
    ms = sorted(s * 1e3 for s in seconds)
    n = len(ms)
    out = {"latency_p50_ms": extra(statistics.median(ms), "ms"), "latency_samples": extra(n, "count")}
    if n >= 11:
        out["latency_tail_ms"] = extra(ms[n - 11], "ms")
        out["latency_tail_percentile"] = extra(100.0 * (n - 10) / n, "%")
    return out


def extra(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class EnumerateScan:
    """maj distribution of the straight shape 5,4,3,2, serially and with two
    worker processes."""

    SHAPE = (5, 4, 3, 2)
    TABLEAUX = oracles.hook_count(SHAPE)

    def __init__(self, api, seed: int) -> None:
        self.api = api
        self.shape = api.Shape(self.SHAPE)
        self.maj_poly = oracles.q_hook_maj(self.SHAPE)
        self.distinct = self.TABLEAUX

    @staticmethod
    def warmup(api) -> None:
        api.distribution(api.Shape((3, 2)), "maj")

    def _problems(self, poly) -> list[str]:
        problems = []
        if poly.total != self.TABLEAUX:
            problems.append(f"count {poly.total} != hook-length count {self.TABLEAUX}")
        if poly.coefficients != self.maj_poly:
            problems.append(f"maj polynomial {poly.coefficients} != q-hook formula {self.maj_poly}")
        return problems

    def unit(self, rec: Record, tracer=None) -> None:
        polys = {}

        def serial():
            polys["serial"] = self.api.distribution(self.shape, "maj")
            return self._problems(polys["serial"])

        def parallel():
            poly = self.api.distribution(self.shape, "maj", workers=2)
            problems = self._problems(poly)
            if poly != polys.get("serial"):
                problems.append("workers=2 polynomial differs from the serial one")
            return problems

        with traced(tracer):
            rec.attempt("serial", serial)
        # Worker processes keep their own spans, so the parallel half is
        # traced at the distribution call only.  The workers use every core,
        # so no reference chunk runs beside them.
        with traced(tracer, ["enumeration.distribution"]):
            rec.attempt("parallel", parallel, sampled=False)

    trace_unit = unit

    def end_to_end(self, rec: Record) -> tuple[dict, dict]:
        serial, parallel = rec.seconds["serial"], rec.seconds["parallel"]
        metrics = {"tableaux_per_s": self.TABLEAUX * len(serial) / sum(rec.nominal("serial"))}
        extras = {"par2_speedup": extra((sum(serial) / len(serial)) / (sum(parallel) / len(parallel)), "x")}
        return metrics, extras


class CheckSkew:
    """`tabinv enumerate --shape 5,4,3/1 --stat maj,inv,comaj,cinv --check`,
    in process, with its output parsed and checked."""

    SHAPE = "5,4,3/1"
    ARGV = ["enumerate", "--shape", SHAPE, "--stat", "maj,inv,comaj,cinv", "--check"]
    POLY = re.compile(r"^shape=(\S+) stat=(\w+) poly=\[([\d,]*)\]$")

    def __init__(self, api, seed: int) -> None:
        self.api = api
        self.distinct = api.count_syt(api.parse_shape(self.SHAPE))

    @staticmethod
    def warmup(api) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            api.cli.main(["enumerate", "--shape", "3,2/1", "--stat", "maj,inv,comaj,cinv", "--check"])

    def _problems(self, code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}, stderr {err!r}"]
        lines = out.splitlines()
        problems = []
        if not lines or lines[0] != f"shape={self.SHAPE} count={self.distinct}":
            problems.append(f"count line {lines[:1]} does not report count_syt={self.distinct}")
        polys = {}
        for line in lines[1:]:
            m = self.POLY.match(line)
            if m:
                polys[m.group(2)] = [int(c) for c in m.group(3).split(",") if c]
        if sorted(polys) != ["cinv", "comaj", "inv", "maj"]:
            problems.append(f"expected four polynomials, got {sorted(polys)}")
        for stat, coeffs in polys.items():
            if sum(coeffs) != self.distinct:
                problems.append(f"{stat} polynomial total {sum(coeffs)} != count_syt {self.distinct}")
        if polys.get("inv") != polys.get("maj"):
            problems.append("inv and maj polynomials differ")
        if polys.get("cinv") != polys.get("comaj"):
            problems.append("cinv and comaj polynomials differ")
        checks = [line for line in lines if line.startswith("check ")]
        if not checks or any(not line.endswith(" pass") for line in checks):
            problems.append(f"class checks not all passing: {checks}")
        if not lines or lines[-1] != "check=pass":
            problems.append(f"last line {lines[-1:]} is not check=pass")
        return problems

    def unit(self, rec: Record) -> None:
        def request():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.api.cli.main(list(self.ARGV))
            return self._problems(code, out.getvalue(), err.getvalue())

        rec.attempt("cli", request)

    def trace_unit(self, rec: Record, tracer=None) -> None:
        with traced(tracer):
            self.unit(rec)

    def end_to_end(self, rec: Record) -> tuple[dict, dict]:
        calls = rec.nominal("cli")
        return {"tableaux_per_s": self.distinct * len(calls) / sum(calls)}, {}


class BijectionRandom:
    """A seeded stream of large random tableaux through psi, phi and the NE
    map, and of permutations through the three-route bridge; one unit is
    one block of `samplers.request_blocks`."""

    def __init__(self, api, seed: int) -> None:
        self.api = api
        self.seed = seed
        self.blocks = samplers.request_blocks(seed)
        self.distinct = 0

    @staticmethod
    def warmup(api) -> None:
        t = api.make_tableau(api.Shape((3, 2), (1,)), [[None, 1, 3], [2, 4]])
        api.phi(api.psi(t))
        api.inv_statistic(t)
        api.cinv_statistic(t)
        api.comaj(api.comaj_map(t))
        api.bridge_check((3, 1, 2, 4))

    def _request(self, req) -> list[str]:
        api = self.api
        if req[0] == "perm":
            report = api.bridge_check(req[1])
            return [] if report.ok else [f"bridge routes differ: {report}"]
        _, outer, inner, rows = req
        t = api.make_tableau(api.Shape(outer, inner), rows)
        s = api.psi(t)
        problems = []
        if api.phi(s) != t:
            problems.append("phi(psi(t)) != t")
        if api.inv_statistic(t) != api.maj(s):
            problems.append("inv(t) != maj(psi(t))")
        if api.cinv_statistic(t) != api.comaj(api.comaj_map(t)):
            problems.append("cinv(t) != comaj(comaj_map(t))")
        if problems:
            problems.append(f"input shape={outer}/{inner} rows={rows}")
        return problems

    def _run(self, rec: Record, block: list[tuple], tracer=None) -> None:
        for i, req in enumerate(block):
            if tracer:
                tracer.request = i
            rec.attempt(req[0], lambda: self._request(req))

    def unit(self, rec: Record) -> None:
        self._run(rec, next(self.blocks))

    def trace_unit(self, rec: Record, tracer=None) -> None:
        block = next(samplers.request_blocks(self.seed))
        self.distinct = len(block)
        with traced(tracer):
            self._run(rec, block, tracer)

    def end_to_end(self, rec: Record) -> tuple[dict, dict]:
        every = rec.nominal("tableau") + rec.nominal("perm")
        return {"tableaux_per_s": len(every) / sum(every)}, latency_summary(every)


WORKLOADS = {
    "enumerate_scan": EnumerateScan,
    "check_skew": CheckSkew,
    "bijection_random": BijectionRandom,
}
