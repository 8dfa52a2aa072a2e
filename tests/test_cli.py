"""Command-line interface behavior and byte-stable golden outputs."""

import json

import pytest

from conftest import CLI_CASES, FIXTURES, GOLDEN, run_cli_case
from tabinv.cli import main


@pytest.mark.parametrize("golden_name,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_golden(golden_name, argv, capsys):
    out = run_cli_case(argv, capsys)
    expected = (GOLDEN / golden_name).read_text()
    assert out == expected, f"output drifted for {golden_name}"


def test_stats_json_is_valid_json(capsys):
    main(["stats", "--input", str(FIXTURES / "straight_2x2.txt"), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["inv"] == 4
    assert data["stats"]["maj"] == 2


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


def test_bad_shape_is_a_user_error(capsys):
    assert main(["enumerate", "--shape", "2,3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_tableau_file_is_a_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n3 4\n")
    assert main(["stats", "--input", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_user_error(capsys):
    assert main(["stats", "--input", "/nonexistent/tableau.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_statistic_is_a_user_error(capsys):
    assert main(["enumerate", "--shape", "2,1", "--stat", "charge"]) == 1
    assert "error:" in capsys.readouterr().err


def test_foata_inverse_round_trip(capsys):
    assert main(["foata", "--perm", "4137562"]) == 0
    out = capsys.readouterr().out
    assert "output=7143562" in out
    assert main(["foata", "--perm", "7143562", "--inverse"]) == 0
    assert "output=4137562" in capsys.readouterr().out


def test_enumerate_check_makes_one_enumeration_pass(capsys, monkeypatch):
    import tabinv.enumeration as enumeration

    passes = []
    enumerate_syt = enumeration.enumerate_syt

    def counting(shape):
        passes.append(shape)
        return enumerate_syt(shape)

    monkeypatch.setattr(enumeration, "enumerate_syt", counting)
    assert main(["enumerate", "--shape", "3,2/1", "--stat", "maj,inv,comaj,cinv", "--check"]) == 0
    assert "check=pass" in capsys.readouterr().out
    assert len(passes) == 1


@pytest.mark.parametrize("par", ["0", "-1"])
def test_enumerate_rejects_par_below_one(par, capsys):
    assert main(["enumerate", "--shape", "3,2", "--par", par]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--par must be at least 1" in captured.err


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_map_runs_one_cascade(direction, capsys, monkeypatch):
    from tabinv.inversion import _Grid

    calls = []
    for name in ("__init__", "psi_step", "phi_step"):
        method = getattr(_Grid, name)

        def counting(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(_Grid, name, counting)
    assert main(["map", "--input", str(FIXTURES / "straight_2x2.txt"), "--direction", direction]) == 0
    capsys.readouterr()
    step = "psi_step" if direction == "forward" else "phi_step"
    assert calls == ["__init__", step, step]


def test_internal_error_exits_3(capsys, monkeypatch):
    from tabinv.inversion import _Grid

    rotate = _Grid.rotate

    def bad_rotate(self, blocks, touched):
        rotate(self, blocks, touched)
        if touched:
            (i, j), _ = touched[0]
            self.g[i][j] += 1

    monkeypatch.setattr(_Grid, "rotate", bad_rotate)
    assert main(["map", "--input", str(FIXTURES / "straight_2x2.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: psi_")
    assert len(captured.err.splitlines()) == 1
