"""Command-line interface behavior and byte-stable golden outputs."""

import ast
import io
import json
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import random_syt
import tabinv
import tabinv.cli as cli
from conftest import CLI_CASES, FIXTURES, GOLDEN, run_cli_case
from tabinv.cli import main
from tabinv.model import (
    Shape,
    Tableau,
    TableauError,
    parse_shape,
    parse_tableau_text,
    tableau_to_json_dict,
    tableau_to_text,
)


def _spelled(argv, style):
    """argv with each option written as `--opt=value` ("eq") or as its
    shortest prefix that no other option of the command starts with
    ("prefix")."""
    options = {o.name: o for o in cli._COMMANDS[argv[0]][2]}
    names = [*options, "--help"]
    out, rest = argv[:1], iter(argv[1:])
    for tok in rest:
        option = options[tok]
        if style == "prefix":
            size = next(k for k in range(3, len(tok) + 1) if [n for n in names if n.startswith(tok[:k])] == [tok])
            out.append(tok[:size])
            if not option.flag:
                out.append(next(rest))
        else:
            out.append(tok if option.flag else f"{tok}={next(rest)}")
    return out


_GOLDEN_CASES = [pytest.param(name, argv, id=name) for name, argv in CLI_CASES]
_GOLDEN_CASES += [
    pytest.param(name, _spelled(argv, style), id=f"{name}-{style}-form")
    for style in ("eq", "prefix")
    for name, argv in CLI_CASES
]


@pytest.mark.parametrize("golden_name,argv", _GOLDEN_CASES)
def test_golden(golden_name, argv, capsys):
    out = run_cli_case(argv, capsys)
    expected = (GOLDEN / golden_name).read_text()
    assert out == expected, f"output drifted for {golden_name}"


@pytest.mark.parametrize(
    "golden_name,argv", [pytest.param(name, argv, id=name) for name, argv in CLI_CASES if name.startswith("stats_")]
)
def test_stats_labels_paths_and_pairs_from_its_positions(golden_name, argv, capsys, monkeypatch):
    # The path set's cells are the tableau's own, so stats labels them from
    # the positions it already has, with no shape-checked Tableau.content.
    def refuse(*args):
        raise AssertionError("Tableau.content called")

    monkeypatch.setattr(Tableau, "content", refuse)
    assert run_cli_case(argv, capsys) == (GOLDEN / golden_name).read_text()


def test_map_trace_renders_no_text_for_json(capsys, monkeypatch):
    # The stages' text lines are built only when text is printed.
    def refuse(*args):
        raise AssertionError("text rendered for --format json")

    monkeypatch.setattr(cli, "tableau_to_text", refuse)
    monkeypatch.setattr(cli, "_fmt_cell", refuse)
    argv = ["map", "--input", str(FIXTURES / "skew_321_21.txt"), "--trace", "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "map_trace_skew_321_21.json").read_text()


def test_stats_json_is_valid_json(capsys):
    main(["stats", "--input", str(FIXTURES / "straight_2x2.txt"), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["inv"] == 4
    assert data["stats"]["maj"] == 2


def test_stats_builds_the_path_set_only_when_it_prints_it(capsys, monkeypatch):
    # Plain `stats` prints inv and code, which need no pair; only --paths
    # and --pairs read the path set.
    def refuse(t):
        raise AssertionError("inversion_path_set called without --paths or --pairs")

    monkeypatch.setattr("tabinv.cli.inversion_path_set", refuse)
    for fmt in ("text", "json"):
        assert main(["stats", "--input", str(FIXTURES / "skew_321_21.txt"), "--format", fmt]) == 0
    assert "inv=" in capsys.readouterr().out


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n3 4\n"))
    assert main(["stats", "--input", "-"]) == 0
    assert "inv=4" in capsys.readouterr().out


def test_map_forward_verifies_statistics(capsys):
    assert main(["map", "--input", str(FIXTURES / "skew_22_1.txt")]) == 0
    out = capsys.readouterr().out
    assert "inv=2 maj=2" in out


def test_enumerate_check_pass_exit_code(capsys):
    assert main(["enumerate", "--shape", "3,2", "--check"]) == 0
    assert "check=pass" in capsys.readouterr().out


def test_enumerate_parallel_matches_serial(capsys):
    assert main(["enumerate", "--shape", "3,3"]) == 0
    serial = capsys.readouterr().out
    assert main(["enumerate", "--shape", "3,3", "--par", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("par", [[], ["--par", "2"]], ids=["serial", "par2"])
def test_enumerate_check_skew_543_1_golden(par, capsys):
    # The bytes the check_skew benchmark workload parses: 2,112 SYT, four
    # statistics and five class checks.
    argv = ["enumerate", "--shape", "5,4,3/1", "--stat", "maj,inv,comaj,cinv", "--check", *par]
    assert run_cli_case(argv, capsys) == (GOLDEN / "enumerate_check_skew_543_1.txt").read_text()


@pytest.mark.parametrize("par", [[], ["--par", "2"]], ids=["serial", "par2"])
def test_enumerate_stats_5432_golden(par, capsys):
    # The shape the enumerate_scan benchmark workload runs: 48,048 SYT, whose
    # maj polynomial is the q-hook formula's.
    out = run_cli_case(["enumerate", "--shape", "5,4,3,2", "--stat", "maj,comaj", *par], capsys)
    assert out == (GOLDEN / "enumerate_stats_5432.txt").read_text()
    poly = re.search(r"^shape=5,4,3,2 stat=maj poly=\[(.*)\]$", out, re.M).group(1)
    assert tuple(map(int, poly.split(","))) == random_syt.q_hook_maj((5, 4, 3, 2))


# Run in a fresh interpreter: after each step, which of the modules that a
# cold start should not pay for have been loaded since before the import,
# plus each command's exit code and the serial and parallel enumerate output.
COLD_START = """
import io, sys
from contextlib import redirect_stdout

sys.path.insert(0, {src!r})
HEAVY = ("concurrent.futures", "multiprocessing", "json", "dataclasses", "inspect", "argparse", "gettext", "locale")
seen = set(sys.modules)
report = {{}}

def loaded(step):
    new = set(sys.modules) - seen
    report[step] = sorted(h for h in HEAVY if any(m == h or m.startswith(h + ".") for m in new))

def run(step, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    report[step + " exit"] = code
    loaded(step)
    return out.getvalue()

import tabinv, tabinv.cli
from tabinv.cli import main
from tabinv.enumeration import _available_cpus
loaded("import")
report["cpus"] = _available_cpus()
run("render", ["render", "--input", {skew!r}])
run("stats", ["stats", "--input", {straight!r}, "--paths", "--pairs"])
run("map", ["map", "--input", {straight!r}, "--trace"])
run("foata", ["foata", "--perm", "346251", "--bridge"])
run("enumerate", ["enumerate", "--shape", "2,2/1", "--check"])
report["serial out"] = run("serial", ["enumerate", "--shape", "3,2"])
run("help", ["enumerate", "--help"])
run("usage", ["enumerate", "--shape", "3,2", "--par", "x"])
run("json", ["stats", "--input", {straight!r}, "--format", "json"])
report["parallel out"] = run("parallel", ["enumerate", "--shape", "3,2", "--par", "2"])
print(repr(report))
"""


def test_cold_start_loads_no_pool_and_no_json():
    code = COLD_START.format(
        src=str(Path(tabinv.__file__).resolve().parent.parent),
        skew=str(FIXTURES / "skew_22_1.txt"),
        straight=str(FIXTURES / "straight_2x2.txt"),
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = ast.literal_eval(done.stdout)
    # Neither the import nor a text-mode command loads any of them: the CLI
    # parses argv without argparse, which would bring gettext and locale.
    assert report["import"] == []
    # Each step lists what has loaded since before the import; help and a
    # usage error run before the json and --par steps, and load nothing either.
    for step in ("render", "stats", "map", "foata", "enumerate", "serial", "help", "usage"):
        assert report[step] == [], f"{step} loaded {report[step]}"
    for step in ("render", "stats", "map", "foata", "enumerate", "serial", "help", "json", "parallel"):
        assert report[step + " exit"] == 0, step
    assert report["usage exit"] == 1
    assert report["json"] == ["json"]
    pool = ["concurrent.futures", "multiprocessing"] if report["cpus"] > 1 else []
    # The pool imports subprocess, which may import locale itself.
    parallel = [m for m in report["parallel"] if not (pool and m == "locale")]
    assert parallel == sorted(["json"] + pool)
    assert report["parallel out"] == report["serial out"]


def test_cold_start_loads_no_typing():
    # Without site (-S) nothing has loaded typing before tabinv's import.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(tabinv.__file__).resolve().parent.parent)!r}); "
        "import tabinv, tabinv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'typing'))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == []


def test_bad_shape_is_a_user_error(capsys):
    assert main(["enumerate", "--shape", "2,3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_a_shape_with_no_cells_is_a_user_error(capsys):
    assert main(["enumerate", "--shape", "3/3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shape '3/3' has no cells\n"


def test_an_unknown_option_before_the_command_is_a_usage_error(capsys):
    assert main(["-x", "render", "--input", str(FIXTURES / "straight_2x2.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: tabinv render ")
    assert error == "tabinv render: error: unrecognized arguments: -x"


def test_bad_tableau_file_is_a_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n3 4\n")
    assert main(["stats", "--input", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_user_error(capsys):
    assert main(["stats", "--input", "/nonexistent/tableau.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_a_file_not_in_utf_8_is_a_user_error(tmp_path, capsys):
    # Decoding is part of reading the user's text: its ValueError is bad input.
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1 2\n3 \xe9\n")
    assert main(["map", "--input", str(latin1), "--trace"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode ") and captured.err.count("\n") == 1


def test_unknown_statistic_is_a_user_error(capsys):
    assert main(["enumerate", "--shape", "2,1", "--stat", "charge"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["render", "--input", "-"], "\u0661 \u0662\n"),
        (["render", "--input", "-"], "+1 2\n"),
        (["render", "--input", "-"], "1_0 2\n"),
        (["render", "--input", "-"], "1 2 3\n4 5\n. 6\n"),
        (["stats", "--input", "-"], ".\n.\n"),
        (["enumerate", "--shape", "+3,\u0662"], ""),
        (["foata", "--perm", "\u0662\u0661\u0663"], ""),
    ],
)
def test_numbers_not_in_ascii_decimal_are_bad_input(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "tableau,message",
    [
        pytest.param("shape: 2,1\n1 2\n", "expected 2 rows, got 1", id="text-too-few-rows"),
        pytest.param("shape: 2\n1 2\n3\n", "expected 1 rows, got 2", id="text-too-many-rows"),
        pytest.param("shape: 2,1\n1\n2\n", "row 1 has 1 entries, expected 2", id="text-row-too-short"),
        pytest.param("shape: 2,1\n1 2 4\n3\n", "row 1 has 3 entries, expected 2", id="text-row-too-long"),
        pytest.param("shape: 2,2\n. 1\n2 3\n", "placeholder/shape mismatch at cell (1,1)", id="text-dot-in-cell"),
        pytest.param("shape: 2,2/1\n1 2\n3 4\n", "placeholder/shape mismatch at cell (1,1)", id="text-inner-content"),
        pytest.param("1 . 2\n3\n", "placeholder/shape mismatch at cell (1,2)", id="text-interior-dot"),
        pytest.param({"shape": [2, 1], "rows": [[1, 2]]}, "expected 2 rows, got 1", id="json-too-few-rows"),
        pytest.param({"shape": [1], "rows": [[1], [2]]}, "expected 1 rows, got 2", id="json-too-many-rows"),
        pytest.param({"shape": [2], "rows": [[1]]}, "row 1 has 1 entries, expected 2", id="json-row-too-short"),
        pytest.param({"shape": [2], "rows": [[1, 2, 3]]}, "row 1 has 3 entries, expected 2", id="json-row-too-long"),
        pytest.param(
            {"shape": [2, 2], "inner": [1], "rows": [[4, 1], [2, 3]]},
            "placeholder/shape mismatch at cell (1,1)",
            id="json-inner-content",
        ),
        pytest.param(
            {"shape": [2, 2], "inner": [1], "rows": [[1], [2, 3]]},
            "row 1 has 1 entries, expected 2",
            id="json-cells-only-row",
        ),
        pytest.param(
            {"shape": [2, 2], "inner": [1], "rows": [[None, None], [2, 3]]},
            "placeholder/shape mismatch at cell (1,2)",
            id="json-null-in-cell",
        ),
    ],
)
def test_malformed_tableau_names_its_first_structural_fault(tableau, message, capsys, monkeypatch):
    """Text rows, and the rows of a JSON dict given to `Tableau`, that do
    not fit their shape raise the message of `Tableau`'s own check, and as
    text input `stats` prints it on one line."""
    with pytest.raises(TableauError) as caught:
        if isinstance(tableau, str):
            parse_tableau_text(tableau)
        else:
            Tableau(Shape(tuple(tableau["shape"]), tuple(tableau.get("inner", ()))), tableau["rows"])
    assert caught.value.violations == [message]
    if isinstance(tableau, str):
        monkeypatch.setattr("sys.stdin", io.StringIO(tableau))
        assert main(["stats", "--input", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# Tokens that tableau text is made of, and near misses of them.
_TOKENS = ["1", "2", "3", "7", "10", "0", "-1", "+1", "1_0", "\u0661", "\u00b2", ".", ".."]
_TOKENS += ["x", "shape:", "3,2", "2,2/1", "/", ","]


@st.composite
def _tableau_text(draw):
    """The text of a random SYT of up to 8 cells, with or without its shape
    line, with up to three tokens replaced, inserted or deleted."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = random_syt.skew_syt(rng, draw(st.integers(1, 8)), draw(st.integers(0, 3)))
    rows = [line.split() for line in tableau_to_text(t).splitlines()[draw(st.integers(0, 1)) :]]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(row):
            row.insert(at, draw(st.sampled_from(_TOKENS)))
        elif edit == "replace":
            row[at] = draw(st.sampled_from(_TOKENS))
        else:
            del row[at]
    return "\n".join(" ".join(row) for row in rows) + "\n"


_TEXT = st.one_of(
    _tableau_text(),
    st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4).map(" ".join), max_size=4).map("\n".join),
    st.text(max_size=30),
)
_COMMANDS = [["stats"], ["stats", "--paths", "--pairs"], ["map", "--trace"], ["map", "--direction", "inverse"]]
_COMMANDS += [["render"]]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=_TEXT, command=st.sampled_from(_COMMANDS), fmt=st.sampled_from(["text", "json"]))
@example(text=".\n.\n", command=["stats"], fmt="text")  # a tableau with no cells
def test_any_text_input_exits_0_or_1_with_one_error_line(text, command, fmt):
    """Text input to stats, map and render succeeds or is bad input, told
    on one line: no exception leaves main, and nothing exits 2 or 3."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], "--input", "-", *command[1:], "--format", fmt])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1, (code, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_foata_inverse_round_trip(capsys):
    assert main(["foata", "--perm", "4137562"]) == 0
    out = capsys.readouterr().out
    assert "output=7143562" in out
    assert main(["foata", "--perm", "7143562", "--inverse"]) == 0
    assert "output=4137562" in capsys.readouterr().out


def test_enumerate_check_makes_one_enumeration_pass(capsys, monkeypatch):
    import tabinv.enumeration as enumeration

    passes = []
    fillings = enumeration._fillings

    def counting(shape, prefix=()):
        passes.append(shape)
        return fillings(shape, prefix)

    monkeypatch.setattr(enumeration, "_fillings", counting)
    assert main(["enumerate", "--shape", "3,2/1", "--stat", "maj,inv,comaj,cinv", "--check"]) == 0
    assert "check=pass" in capsys.readouterr().out
    assert len(passes) == 1


def test_enumerate_without_statistics_does_not_enumerate(capsys, monkeypatch):
    import tabinv.enumeration as enumeration

    def no_pass(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(enumeration, "_fillings", no_pass)
    for stat in ("", ","):
        for par in ("1", "2"):
            assert main(["enumerate", "--shape", "3,2", "--stat", stat, "--par", par]) == 0
            assert capsys.readouterr().out == "shape=3,2 count=5\n"
            assert main(["enumerate", "--shape", "3,2", "--stat", stat, "--par", par, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == {"shape": "3,2", "count": 5, "distributions": []}


@pytest.mark.parametrize("shape", ["520", "4000"])
def test_enumerate_counts_a_shape_past_the_recursion_limit(shape, capsys):
    assert main(["enumerate", "--shape", shape, "--stat", ""]) == 0
    assert capsys.readouterr().out == f"shape={shape} count=1\n"


def test_enumerate_prints_a_repeated_statistic_once(capsys):
    for fmt in ("text", "json"):
        assert main(["enumerate", "--shape", "3,2/1", "--stat", "maj", "--format", fmt]) == 0
        once = capsys.readouterr().out
        assert main(["enumerate", "--shape", "3,2/1", "--stat", "maj, maj,,maj", "--format", fmt]) == 0
        assert capsys.readouterr().out == once
    assert len(json.loads(once)["distributions"]) == 1


@pytest.mark.parametrize("par", ["0", "-1"])
def test_enumerate_rejects_par_below_one(par, capsys):
    # A usage error, as for any malformed option value: the usage line and
    # one error line, from the parser before anything runs.
    assert main(["enumerate", "--shape", "3,2", "--par", par]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: tabinv enumerate ")
    assert error == f"tabinv enumerate: error: --par must be at least 1, written in the digits 0-9 alone: {par!r}"


@pytest.mark.parametrize(
    "direction,trace",
    [("forward", False), ("inverse", False), ("forward", True), ("inverse", True)],
    ids=["forward", "inverse", "forward-trace", "inverse-trace"],
)
def test_map_runs_each_cascade_once(direction, trace, tmp_path, capsys, monkeypatch):
    # Forward, psi and inv read one psi cascade of the input, pivots 7 down
    # to 1.  Inverse, phi runs its cascade, pivots 3 up to 7, and inv is
    # counted on the psi cascade of phi's result, the record that
    # psi(phi(t)) reads.  Untraced, no stage is built; --trace replays the
    # walk that psi or phi kept on the input, so it runs no pivot step of
    # its own.  Each forward pivot is counted as the forward loop
    # (`_cascade`) takes it, each reverse one as `phi_step` runs it.
    from tabinv import inversion

    calls = []
    cascade, phi_step = inversion._cascade, inversion._Grid.phi_step

    def forward(grid, pivots, *args, **kwargs):
        def taken():
            for k in pivots:
                calls.append("psi")
                yield k

        return cascade(grid, taken(), *args, **kwargs)

    def reverse(*args, **kwargs):
        calls.append("phi")
        return phi_step(*args, **kwargs)

    monkeypatch.setattr(inversion, "_cascade", forward)
    monkeypatch.setattr(inversion._Grid, "phi_step", reverse)

    def no_trace(*args, **kwargs):
        raise AssertionError("map_trace called without --trace")

    if not trace:
        monkeypatch.setattr(cli, "map_trace", no_trace)
    path = tmp_path / "t.txt"
    path.write_text("shape: 3,2,2\n1 2 5\n3 4\n6 7\n")
    assert main(["map", "--input", str(path), "--direction", direction] + (["--trace"] if trace else [])) == 0
    capsys.readouterr()
    psi_cascade, phi_cascade = ["psi"] * 7, ["phi"] * 5
    assert calls == (psi_cascade if direction == "forward" else phi_cascade + psi_cascade)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "trace"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_map_gets_its_image_from_psi_or_phi_once(direction, trace, capsys, monkeypatch):
    # The image is psi(t) or phi(t) with or without --trace; the stages
    # only print.  Inverse, psi then runs once more, on phi's image, to
    # check that it gives the input back.
    calls = []
    for name in ("psi", "phi"):
        fn = getattr(cli, name)

        def counting(t, _name=name, _fn=fn):
            result = _fn(t)
            calls.append((_name, t, result))
            return result

        monkeypatch.setattr(cli, name, counting)
    argv = ["map", "--input", str(FIXTURES / "skew_321_21.txt"), "--direction", direction]
    assert main(argv + (["--trace"] if trace else [])) == 0
    capsys.readouterr()
    if direction == "forward":
        assert [name for name, _, _ in calls] == ["psi"]
    else:
        (phi_name, t, image), (psi_name, source, back) = calls
        assert (phi_name, psi_name) == ("phi", "psi")
        assert source is image and back == t


@pytest.fixture
def bad_cycle(monkeypatch):
    """A `_Grid.cycle` that writes a wrong content into the first cell it moves."""
    from tabinv.inversion import _Grid

    cycle = _Grid.cycle

    def bad_cycle(self, blocks, forward=True):
        cycle(self, blocks, forward)
        if blocks:
            i, j = self.pos[blocks[0][0]]
            self.g[i][j] += 1

    monkeypatch.setattr(_Grid, "cycle", bad_cycle)


def test_internal_error_exits_3(capsys, bad_cycle):
    assert main(["map", "--input", str(FIXTURES / "straight_2x2.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: psi_")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "direction,error",
    [
        ("forward", IndexError("list index out of range")),
        ("inverse", IndexError("list index out of range")),
        ("forward", ValueError("internal slip")),
        ("inverse", ValueError("internal slip")),
    ],
    ids=["forward", "inverse", "forward-ValueError", "inverse-ValueError"],
)
def test_any_other_exception_is_an_internal_error(direction, error, capsys, monkeypatch):
    # Not only AlgorithmError: any exception that escapes a command and is
    # not bad input is a bug, exit 3, with one line that names its type.  A
    # ValueError is bad input only when a reader of the user's text raises it.
    def broken(t):
        raise error

    monkeypatch.setattr(cli, "psi" if direction == "forward" else "phi", broken)
    assert main(["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--direction", direction]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(error).__name__}: {error}\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_141_in_silence(capsys, monkeypatch):
    # The status a shell reports for a producer that SIGPIPE ended, with
    # nothing on stderr; the caller's stream objects stay in place.
    closed = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", closed)
    argv = ["stats", "--input", str(FIXTURES / "skew_321_21.txt"), "--pairs"]
    assert main(argv) == 141
    assert sys.stdout is closed
    assert capsys.readouterr().err == ""
    # A small output is flushed inside main too, so the error surfaces there.
    assert main(["render", "--input", str(FIXTURES / "straight_2x2.txt")]) == 141
    assert capsys.readouterr().err == ""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert "pair larger=" in out.getvalue()


def test_a_closed_pipe_descriptor_is_pointed_at_devnull(capsys, monkeypatch):
    # A stdout on a pipe whose read end is closed: main exits 141, and the
    # stream, still in place, now writes to devnull, so the flush at
    # interpreter exit has nothing to fail on.
    import os

    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["render", "--input", str(FIXTURES / "straight_2x2.txt")]) == 141
        assert sys.stdout is stream
        print("more", file=stream, flush=True)
    assert capsys.readouterr().err == ""


CLOSED_PIPE = """
import sys
sys.path.insert(0, {src!r})
from tabinv.cli import main
sys.exit(main())
"""


def test_a_closed_pipe_ends_the_process_with_141_and_no_stderr():
    # `seq 400 | tabinv stats --input - --pairs | head -n 1`: 2.2 MB of
    # pairs, of which the reader takes one line.
    code = CLOSED_PIPE.format(src=str(Path(tabinv.__file__).resolve().parent.parent))
    argv = [sys.executable, "-I", "-c", code, "stats", "--input", "-", "--pairs"]
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdin.write("".join(f"{i}\n" for i in range(1, 401)).encode())
        proc.stdin.close()
        assert proc.stdout.readline() == ("shape=" + ",".join(["1"] * 400) + "\n").encode()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


def test_internal_error_in_enumerate_exits_3(capsys, bad_cycle):
    assert main(["enumerate", "--shape", "3,2", "--stat", "inv,cinv", "--check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: psi_")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate"],
        ["enumerate", "--shape", "3,2", "--par", "abc"],
        ["bogus"],
        ["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--direction", "sideways"],
        ["foata", "--perm", "4137562", "--inverse", "--bridge"],
        # --par reads its value by the digits rule of every number tabinv reads.
        ["enumerate", "--shape", "3,2", "--par", "1_0"],
        ["enumerate", "--shape", "3,2", "--par", "+2"],
        ["enumerate", "--shape", "3,2", "--par", "\u0662"],
        ["enumerate", "--shape"],
        ["stats", "--input", "--paths"],
        ["enumerate", "--shape", "3,2", "--check=yes"],
        ["enumerate", "--s", "3,2"],
        ["enumerate", "--shape", "3,2", "--charge"],
        [],
        # A usage error before --help still counts.
        ["foata", "--perm", "4137562", "--bridge", "--inverse", "--help"],
    ],
    ids=[
        "missing-shape",
        "par-abc",
        "unknown-subcommand",
        "direction-sideways",
        "foata-inverse-bridge",
        "par-underscore",
        "par-sign",
        "par-arabic-indic-digit",
        "missing-value",
        "option-as-value",
        "flag-given-a-value",
        "ambiguous-prefix",
        "unknown-option",
        "empty-argv",
        "error-before-help",
    ],
)
def test_usage_error_is_a_user_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, *rest = captured.err.splitlines()
    assert usage.startswith("usage: tabinv")
    assert len(rest) == 1 and ": error: " in rest[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["enumerate", "--help"],
        ["enumerate", "--stat", "maj", "-h"],
        ["foata", "--he", "--inverse", "--bridge"],
        ["stats", "--bogus", "-hh"],
        ["-h", "bogus"],
        # The name before "=" is read whole before any prefix: -h with "h".
        ["render", "-h=h"],
    ],
)
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:")
    assert captured.err == ""


def test_help_documents_the_command_table(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name, (_, about, _, _) in cli._COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(about)}$", out, re.M), name
    for name, (_, about, options, _) in cli._COMMANDS.items():
        assert main([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: tabinv {name} [-h] ")
        assert about in out
        for o in options:
            line = next(line for line in out.splitlines() if line.startswith(f"  {o.name}"))
            assert o.help in line
            for choice in o.choices:
                assert choice in line


_FORMATS = [
    ["map", "--input", str(FIXTURES / "skew_22_1.txt"), "--format", "json"],
    ["enumerate", "--shape", "3,3", "--par", "2", "--format", "json"],
    ["foata", "--perm", "346251", "--bridge", "--format", "json"],
    ["render", "--input", str(FIXTURES / "skew_22_1.txt"), "--format", "json"],
]


@pytest.mark.parametrize(
    "argv,same_as",
    [(_spelled(argv, style), argv) for argv in _FORMATS for style in ("eq", "prefix")]
    + [
        # options in any order, the last repeat winning
        (
            ["enumerate", "--format", "json", "--stat", "maj", "--shape", "9", "--format=text", "--shape", "3,2"],
            ["enumerate", "--shape", "3,2", "--stat", "maj"],
        ),
        (["enumerate", "--shape", "3,2", "--stat="], ["enumerate", "--shape", "3,2", "--stat", ""]),
        (["foata", "--inverse", "--inverse", "--perm", "7143562"], ["foata", "--perm", "7143562", "--inverse"]),
    ],
)
def test_option_spellings_mean_the_same(argv, same_as, capsys):
    """The golden cases pin each option in the `--opt=value` and prefix
    spellings; these add the options the goldens do not use, and argv in
    other orders."""
    assert _run(argv, capsys) == _run(same_as, capsys)


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _cell(text):
    return None if text == "global" else [int(v) for v in text.strip("()").split(",")]


def _enumerate_record(text):
    """The record that `enumerate` text lines describe, read back."""
    head, *lines = text.splitlines()
    shape, count = re.fullmatch(r"shape=(\S+) count=(\d+)", head).groups()
    record = {"shape": shape, "count": int(count), "distributions": []}
    classes = []
    for line in lines:
        if m := re.fullmatch(r"shape=(\S+) stat=(\S+) poly=(\S+)", line):
            shape, stat, poly = m.groups()
            record["distributions"].append({"shape": shape, "stat": stat, "coefficients": json.loads(poly)})
        elif m := re.fullmatch(r"check (\S+) cell=(\S+) poly=(\S+) vs (\S+) (pass|FAIL)", line):
            stats, cell, poly_a, poly_b, verdict = m.groups()
            classes.append(
                {
                    "stats": stats,
                    "cell": _cell(cell),
                    "poly_a": json.loads(poly_a),
                    "poly_b": json.loads(poly_b),
                    "ok": verdict == "pass",
                }
            )
        else:
            verdict = re.fullmatch(r"check=(pass|FAIL)", line).group(1)
            record["check"] = {"ok": verdict == "pass", "classes": classes}
    return record


@pytest.mark.parametrize("shape", ["2,2/1", "4,3,1/2"])
def test_enumerate_text_and_json_agree(shape, capsys):
    argv = ["enumerate", "--shape", shape, "--stat", "maj,inv,comaj,cinv", "--check"]
    code, text = _run(argv, capsys)
    json_code, out = _run(argv + ["--format", "json"], capsys)
    record = json.loads(out)
    assert code == json_code == 0
    for d in record["distributions"]:
        assert d.pop("count") == record["count"]
    assert _enumerate_record(text) == record
    assert record["check"]["classes"]


@pytest.mark.parametrize("flags", [[], ["--inverse"], ["--bridge"]])
def test_foata_text_and_json_agree(flags, capsys):
    argv = ["foata", "--perm", "4137562"] + flags
    code, text = _run(argv, capsys)
    json_code, out = _run(argv + ["--format", "json"], capsys)
    assert code == json_code == 0
    fields = [dict(f.split("=") for f in line.split()) for line in text.splitlines()]
    if flags == ["--bridge"]:
        record = {k: v for d in fields for k, v in d.items()}
        record["ok"] = record.pop("bridge") == "pass"
    else:
        record = {}
        for d in fields:
            label, perm = next(iter(d.items()))
            record[label] = {"perm": perm, "inv": int(d["inv"]), "maj": int(d["maj"])}
    assert record == json.loads(out)


def test_failed_verification_exits_2(capsys, monkeypatch):
    import tabinv.cli as cli
    from tabinv.foata import BridgeReport, bridge_check

    statistic_values = cli.statistic_values

    def skewed_values(*args, **kwargs):
        values = statistic_values(*args, **kwargs)
        values["inv"][0] += 1
        return values

    def broken_bridge(p):
        report = bridge_check(p)
        return BridgeReport(report.perm, report.tableau_route, report.direct_route, report.direct_route[::-1])

    monkeypatch.setattr(cli, "statistic_values", skewed_values)
    monkeypatch.setattr(cli, "bridge_check", broken_bridge)
    for argv, verdict in (
        (["enumerate", "--shape", "3,2", "--check"], "check=FAIL"),
        (["foata", "--perm", "346251", "--bridge"], "bridge=FAIL"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().out.splitlines()[-1] == verdict
        assert main(argv + ["--format", "json"]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record.get("check", record)["ok"] is False


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_map_mismatch_exits_2(direction, capsys, monkeypatch):
    import tabinv.cli as cli

    inv_statistic = cli.inv_statistic
    monkeypatch.setattr(cli, "inv_statistic", lambda t: inv_statistic(t) + 1)
    argv = ["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--direction", direction]
    assert main(argv) == 2
    captured = capsys.readouterr()
    inv, maj = re.fullmatch(r"inv=(\d+) maj=(\d+)", captured.out.splitlines()[-1]).groups()
    assert int(inv) == int(maj) + 1
    assert captured.err == "error: inv/maj mismatch\n"
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["inv"] == record["maj"] + 1
    assert captured.err == "error: inv/maj mismatch\n"


@pytest.mark.parametrize("inv_off", [False, True], ids=["round-trip", "round-trip-and-inv"])
def test_map_inverse_round_trip_failure_exits_2(inv_off, capsys, monkeypatch):
    # Inverse, map also checks psi(phi(t)) == t.  A psi that returns its
    # argument unchanged breaks it, since phi moves this input; each failed
    # claim is named on the one error line.
    import tabinv.cli as cli

    monkeypatch.setattr(cli, "psi", lambda s: s)
    if inv_off:
        inv_statistic = cli.inv_statistic
        monkeypatch.setattr(cli, "inv_statistic", lambda t: inv_statistic(t) + 1)
    expected = "error: " + "inv/maj mismatch; " * inv_off + "psi(phi(t)) differs from the input\n"
    argv = ["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--direction", "inverse"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:3] == ["1 3", "2 4"]  # phi's image, not the input 1 2 / 3 4
    assert captured.err == expected
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["output"]["rows"] != record["input"]["rows"]
    assert captured.err == expected


def _steps(text):
    return "" if text == "-" else text


def _stats_record(text):
    """The record that `stats --paths --pairs` text lines describe, read
    back, and the cell each path line names, by content."""
    record = {"stats": {}, "paths": [], "pairs": []}
    cells = {}
    for line in text.splitlines():
        if m := re.fullmatch(r"path content=(\d+) cell=(\S+) start=(\S+) steps=(\S+)", line):
            content, cell, start, steps = m.groups()
            record["paths"].append({"start": _cell(start), "steps": _steps(steps), "content": int(content)})
            cells[int(content)] = _cell(cell)
        elif m := re.fullmatch(r"pair larger=(\d+) smaller=(\d+)", line):
            record["pairs"].append([int(v) for v in m.groups()])
        else:
            key, value = line.split("=")
            if key == "shape":
                record["shape"] = value
            else:
                record["stats"][key] = json.loads(value)
    return record, cells


@pytest.mark.parametrize("fixture", ["straight_2x2.txt", "skew_22_1.txt"])
def test_stats_text_and_json_agree(fixture, capsys):
    argv = ["stats", "--input", str(FIXTURES / fixture), "--paths", "--pairs"]
    code, text = _run(argv, capsys)
    json_code, out = _run(argv + ["--format", "json"], capsys)
    assert code == json_code == 0
    record = json.loads(out)
    rows = record.pop("rows")
    read_back, cells = _stats_record(text)
    shape = parse_shape(read_back.pop("shape"))
    assert [list(shape.outer), list(shape.inner)] == [record.pop("shape"), record.pop("inner")]
    assert read_back == record
    assert record["paths"] and record["pairs"]
    for content, (i, j) in cells.items():
        assert rows[i - 1][j - 1] == content


def _tableau_record(text):
    return tableau_to_json_dict(parse_tableau_text(text))


def _map_record(text, direction, fixture):
    """The record that `map --trace` text lines describe, read back; the
    input tableau, which the text does not print, is read from fixture."""
    *stage_chunks, last = text.split("\n\n")
    *output, totals = last.splitlines()
    record = {
        "direction": direction,
        "input": _tableau_record((FIXTURES / fixture).read_text()),
        "output": _tableau_record("\n".join(output)),
    }
    record.update({key: int(value) for key, value in (f.split("=") for f in totals.split())})
    record["stages"] = []
    label = "psi" if direction == "forward" else "phi"
    for chunk in stage_chunks:
        head, blocks, *tableau = chunk.splitlines()
        k, start, steps = re.fullmatch(rf"stage {label} k=(\d+) start=(\S+) steps=(\S+)", head).groups()
        record["stages"].append(
            {
                "k": int(k),
                "path": {"start": _cell(start), "steps": _steps(steps)},
                "blocks": [[_cell(c) for c in re.findall(r"\(\d+,\d+\)", b)] for b in re.findall(r"\[[^]]*\]", blocks)],
                "result": _tableau_record("\n".join(tableau)),
            }
        )
    return record


@pytest.mark.parametrize("fixture", ["straight_2x2.txt", "skew_22_1.txt"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_map_text_and_json_agree(direction, fixture, capsys):
    argv = ["map", "--input", str(FIXTURES / fixture), "--direction", direction, "--trace"]
    code, text = _run(argv, capsys)
    json_code, out = _run(argv + ["--format", "json"], capsys)
    assert code == json_code == 0
    record = json.loads(out)
    assert _map_record(text, direction, fixture) == record
    assert record["stages"]
