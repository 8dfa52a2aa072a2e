"""Shared fixtures, CLI golden-case definitions, and the acceptance
criteria summary hook."""

from __future__ import annotations

import re
from pathlib import Path

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"
GOLDEN = TESTS_DIR / "golden"

# (golden file name, CLI argv) — byte-stable outputs over a fixed fixture set
CLI_CASES: list[tuple[str, list[str]]] = [
    (
        "stats_straight_2x2.txt",
        ["stats", "--input", str(FIXTURES / "straight_2x2.txt"), "--paths", "--pairs"],
    ),
    (
        "stats_skew_22_1.json",
        [
            "stats",
            "--input",
            str(FIXTURES / "skew_22_1.txt"),
            "--paths",
            "--pairs",
            "--format",
            "json",
        ],
    ),
    (
        "map_trace_straight_2x2.txt",
        ["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--trace"],
    ),
    (
        "map_inverse_straight_2x2.txt",
        ["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--direction", "inverse"],
    ),
    # 3,2,1/2,1: the path of 3 meets a corner whose neighbours are both
    # absent, so these pin the stop rule of the path and of its
    # reconstruction: a path stops at its first absent neighbour, past which
    # every cell is inner, and runs South then West, a tail that decides no
    # content (the paper's abstract, PAPER.md, does not fix it).
    (
        "stats_skew_321_21.txt",
        ["stats", "--input", str(FIXTURES / "skew_321_21.txt"), "--paths"],
    ),
    (
        "map_trace_skew_321_21.txt",
        ["map", "--input", str(FIXTURES / "skew_321_21.txt"), "--trace"],
    ),
    (
        "map_trace_skew_321_21.json",
        ["map", "--input", str(FIXTURES / "skew_321_21.txt"), "--trace", "--format", "json"],
    ),
    (
        "map_trace_inverse_skew_321_21.txt",
        ["map", "--input", str(FIXTURES / "skew_321_21.txt"), "--trace", "--direction", "inverse"],
    ),
    # 3,2/2 with rows ". . 1" / "2 3": the path of 3 meets one absent
    # neighbour, so it prints SW where a corner rule that read absent cells
    # as 0 printed WS.
    (
        "stats_skew_32_2.txt",
        ["stats", "--input", str(FIXTURES / "skew_32_2.txt"), "--paths"],
    ),
    (
        "enumerate_check_skew_22_1.txt",
        ["enumerate", "--shape", "2,2/1", "--check"],
    ),
    (
        "enumerate_check_skew_22_1.json",
        ["enumerate", "--shape", "2,2/1", "--check", "--format", "json"],
    ),
    (
        "enumerate_stats_32.txt",
        ["enumerate", "--shape", "3,2", "--stat", "maj,inv,comaj,cinv"],
    ),
    ("foata_4137562.txt", ["foata", "--perm", "4137562"]),
    ("foata_inverse_7143562.txt", ["foata", "--perm", "7143562", "--inverse"]),
    ("foata_bridge_346251.txt", ["foata", "--perm", "346251", "--bridge"]),
    ("render_skew_22_1.txt", ["render", "--input", str(FIXTURES / "skew_22_1.txt")]),
]


def run_cli_case(argv: list[str], capsys) -> str:
    from tabinv.cli import main

    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"command {argv} exited {code}"
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows: dict[int, tuple[str, bool]] = {}
    for outcome, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in rep.nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            m = re.search(r"test_criterion_(\d+)_(\w+)", rep.nodeid)
            if not m:
                continue
            num = int(m.group(1))
            name = m.group(2).replace("_", " ")
            if num not in rows or not ok:
                rows[num] = (name, ok)
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(rows):
            name, ok = rows[num]
            terminalreporter.write_line(
                f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
            )
