"""Span tracer that wraps tabinv's public functions from outside the package.

`Tracer.install` replaces each traced function in every ``tabinv`` module
namespace that holds it, in ``enumeration.STATISTICS`` and, for methods, on
``Tableau``.  Spans stay in memory until `write_spans`.  Layer names are
``<module>.<function>``, the names the per-layer metrics use.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS: dict[str, tuple[str, ...]] = {
    "model": ("validate_filling", "make_tableau", "Tableau.replace", "Tableau.positions", "rotate_complement"),
    "stats": ("maj", "comaj"),
    "inversion": (
        "inversion_path",
        "forward_blocks",
        "psi_k",
        "phi_k",
        "inversion_path_set",
        "inversion_pairs",
        "cinv_statistic",
        "comaj_map",
        "ne_inversion_path",
        "ne_blocks",
    ),
    "enumeration": ("enumerate_syt", "count_syt", "distribution", "equidistribution_report"),
    "foata": ("bridge_check", "foata", "perm_phi_direct"),
    "cli": ("main",),
}
TRACED = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
# A generator: one span per yielded tableau.
GENERATOR = "enumeration.enumerate_syt"
# One call of each of these is one pivot step of a cycling map (SW forward,
# SW inverse, NE forward).
PIVOT_STEPS = ("inversion.psi_k", "inversion.phi_k", "inversion.ne_blocks")


class Tracer:
    def __init__(self) -> None:
        # (span id, name, parent span id or -1, request id, start ns, end ns)
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.yielded = 0
        self.inversion_validations = 0
        self.inversion_builds = 0
        self.request = 0
        self._stack: list[list] = []  # [span id, name, parent, child ns, start ns]
        self._started = 0
        self._inversion_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _open(self, name: str) -> None:
        if name.startswith("inversion."):
            self._inversion_depth += 1
        elif name == "model.validate_filling" and self._inversion_depth:
            self.inversion_validations += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._started += 1
        self._stack.append([self._started, name, parent, 0, perf_counter_ns()])

    def _close(self, counted: bool = True) -> None:
        end = perf_counter_ns()
        span_id, name, parent, child_ns, start = self._stack.pop()
        if name.startswith("inversion."):
            self._inversion_depth -= 1
        duration = end - start
        if counted:
            self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, parent, self.request, start, end))

    def _wrap(self, name: str, fn):
        tracer = self
        if name == GENERATOR:

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(counted=False)
                        return
                    except BaseException:
                        tracer._close()
                        raise
                    tracer._close()
                    tracer.yielded += 1
                    yield item

        else:

            def wrapper(*args, **kwargs):
                tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()

        return functools.update_wrapper(wrapper, fn)

    # --- patching ---------------------------------------------------------

    def install(self, names=TRACED) -> None:
        """Wrap the named functions wherever the loaded tabinv modules refer
        to them; count Tableau constructions inside the inversion layer."""
        modules = [m for key, m in list(sys.modules.items()) if key == "tabinv" or key.startswith("tabinv.")]
        tableau_cls = sys.modules["tabinv.model"].Tableau
        for name in names:
            module_name, _, attr = name.partition(".")
            if attr.startswith("Tableau."):
                method = attr.split(".", 1)[1]
                self._set(tableau_cls, method, self._wrap(name, vars(tableau_cls)[method]))
                continue
            original = getattr(sys.modules[f"tabinv.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
            statistics = sys.modules["tabinv.enumeration"].STATISTICS
            for key, value in list(statistics.items()):
                if value is original:
                    self._set(statistics, key, wrapper)
        post_init = vars(tableau_cls)["__post_init__"]

        def counting_post_init(tableau):
            if self._inversion_depth:
                self.inversion_builds += 1
            post_init(tableau)

        self._set(tableau_cls, "__post_init__", counting_post_init)

    def _set(self, target, key: str, value) -> None:
        self._undo.append((target, key, target[key] if isinstance(target, dict) else vars(target)[key]))
        _assign(target, key, value)

    def uninstall(self) -> None:
        while self._undo:
            _assign(*self._undo.pop())

    # --- reports ----------------------------------------------------------

    def layer_metrics(self, distinct: int) -> dict[str, float]:
        """Calls, total and self seconds and microseconds per call of every
        traced function (all 0 for one that did not run); the three work
        ratios.

        `distinct` is the number of distinct tableaux the traced work was
        about; it is the base of generated_per_distinct.
        """
        out: dict[str, float] = {}
        for name in TRACED:
            calls = self.calls[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = self.total_ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.us_per_call"] = self.total_ns[name] / calls / 1e3 if calls else 0.0
        pivots = sum(self.calls[name] for name in PIVOT_STEPS)
        out["enumeration.generated_per_distinct"] = self.yielded / distinct if distinct else 0.0
        out["inversion.validations_per_pivot"] = self.inversion_validations / pivots if pivots else 0.0
        out["model.tableaux_built_per_pivot"] = self.inversion_builds / pivots if pivots else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped CSV: id,name,parent,request,start_ns,end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,parent,request,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(map(str, span)) + "\n")


def _assign(target, key: str, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


@contextlib.contextmanager
def traced(tracer: Tracer | None, names=TRACED):
    """Install `tracer` on `names` for the block; no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install(names)
    try:
        yield
    finally:
        tracer.uninstall()
