"""Argument parsing, report emission, and the exit-code contract."""

from __future__ import annotations

from pathlib import Path

import pytest

from forchmix.cli import RunSpec, main, parse_args

_FAST = ["--mesh", "2,4", "--T", "0.1", "--dt", "0.05"]


def test_defaults() -> None:
    spec = parse_args([])
    assert spec == RunSpec(
        law_text="1:0,1:1",
        mesh_sizes=(4, 8, 16, 32, 64, 128, 256),
        dt="h2",
        dt_cap=1e-2,
        t_final=1.0,
        picard_tol=1e-6,
        picard_max=25,
        fmt="markdown",
        out=None,
    )


def test_parses_law_and_meshes() -> None:
    spec = parse_args(["--law", "1:0,2:1", "--mesh", "4,8"])
    assert spec.law_text == "1:0,2:1"
    assert spec.mesh_sizes == (4, 8)


def test_parses_fixed_dt_and_tolerance() -> None:
    spec = parse_args(["--dt", "0.001", "--tol", "1e-8"])
    assert spec.dt == pytest.approx(0.001)
    assert spec.picard_tol == pytest.approx(1e-8)


def test_parses_remaining_flags() -> None:
    spec = parse_args(
        ["--dt-cap", "0.5", "--T", "2.0", "--max-picard", "9",
         "--format", "csv", "--out", "report.csv"]
    )
    assert spec.dt_cap == 0.5
    assert spec.t_final == 2.0
    assert spec.picard_max == 9
    assert spec.fmt == "csv"
    assert spec.out == "report.csv"


@pytest.mark.parametrize(
    "argv",
    [
        ["--law", "nonsense"],
        ["--law", "1:1,1:2"],  # missing constant term
        ["--mesh", "8,4"],
        ["--mesh", "0,4"],
        ["--mesh", "a,b"],
        ["--dt", "-0.1"],
        ["--dt", "quadratic"],
        ["--dt-cap", "0"],
        ["--tol", "-1"],
        ["--max-picard", "0"],
        ["--format", "json"],
    ],
)
def test_usage_errors_exit_with_code_two(argv: list[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        parse_args(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--T", "inf"],
        ["--T", "nan"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--dt", "nan"],
        ["--dt", "inf"],
        ["--dt-cap", "nan"],
        ["--dt-cap", "inf"],
    ],
)
def test_nonfinite_values_exit_with_code_two(argv: list[str], capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([*_FAST, *argv])
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("law", ["1:0,1:inf", "1:0,nan:1", "1:0,1:nan"])
def test_nonfinite_law_exits_with_code_two(law: str, capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([*_FAST, "--law", law])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "forchmix: error: argument --law: exponents and coefficients must be finite"
    )


@pytest.mark.parametrize(
    "argv", [["--T", "1e308", "--mesh", "2"], ["--T", "1e15", "--dt", "0.01"]]
)
def test_step_count_overflow_exits_with_code_two(argv: list[str], capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "more than 2**53" in err.splitlines()[-1]


def test_main_writes_markdown_to_stdout(capsys) -> None:
    assert main(_FAST) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "| n | err_p | rate | err_s | rate | err_u | rate |"
    assert "rates" in captured.err


def test_main_writes_csv_file_deterministically(tmp_path: Path, capsys) -> None:
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main([*_FAST, "--format", "csv", "--out", str(out_a)]) == 0
    assert main([*_FAST, "--format", "csv", "--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = out_a.read_bytes()
    assert text_a == out_b.read_bytes()
    assert text_a.decode().splitlines()[0] == (
        "n,h,dt,err_p,rate_p,err_s,rate_s,err_u,rate_u,picard_avg"
    )
    assert len(text_a.decode().splitlines()) == 3


def test_main_reports_nonconvergence_with_code_three(capsys) -> None:
    code = main([*_FAST, "--max-picard", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "residual" in captured.err


@pytest.mark.parametrize(
    "error",
    [
        MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000001, 1000001)"),
        ZeroDivisionError("float division by zero"),
    ],
)
def test_unexpected_study_errors_exit_with_code_three(
    error: Exception, monkeypatch, capsys
) -> None:
    def failing_study(*args, **kwargs):
        raise error

    monkeypatch.setattr("forchmix.cli.convergence_study", failing_study)
    code = main(_FAST)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("forchmix: ") and str(error) in lines[0]


def test_main_reports_unwritable_output_with_code_four(tmp_path: Path, capsys) -> None:
    target = tmp_path / "missing" / "report.csv"
    code = main([*_FAST, "--out", str(target)])
    capsys.readouterr()
    assert code == 4
