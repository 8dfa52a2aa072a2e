"""The benchmark's traced layer names must name code that exists.

`bench/tracing.py` wraps each name in `TRACED`, so deleting or renaming one
breaks a traced benchmark run (`bench/run.py --trace 1`); this test makes
that a test failure instead."""

import importlib
import importlib.util
from pathlib import Path

from tabinv.model import Tableau

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    missing = []
    for name in names:
        module, _, attr = name.partition(".")
        if attr.startswith("Tableau."):
            found = attr.split(".", 1)[1] in vars(Tableau)
        else:
            found = hasattr(importlib.import_module(f"tabinv.{module}"), attr)
        if not found:
            missing.append(name)
    assert missing == []
