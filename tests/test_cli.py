"""Argument parsing, report emission, and the exit-code contract."""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frozen_preconditioner import FrozenPreconditionedSolver

import forchmix.mms as mms_module
import forchmix.solver as solver_module
from forchmix import ExpandedMixedSolver, convergence_study, law_from_string, unit_square_mesh
from forchmix.cli import _build_parser, main, parse_args
from forchmix.spaces import build_dofmap

_ROOT = Path(__file__).resolve().parents[1]

_FAST = ["--mesh", "2,4", "--T", "0.1", "--dt", "0.05"]

# Invalid flag values, each invalid by construction.  No float or int
# literal contains any of "#@?%qz", so a token holding one never parses.
_NOT_A_NUMBER = st.builds(
    lambda head, bad, tail: head + bad + tail,
    st.text("0123456789.e-", max_size=3),
    st.text("#@?%qz", min_size=1, max_size=2),
    st.text("0123456789.e-", max_size=3),
)
_NONFINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])
_NEGATIVE = st.floats(min_value=5e-324, max_value=1e308).map(lambda x: repr(-x))
_NOT_POSITIVE = st.one_of(_NOT_A_NUMBER, _NONFINITE, _NEGATIVE, st.sampled_from(["0", "-0.0"]))
_SIZES = st.lists(st.integers(1, 4096), max_size=3)


def _joined(sizes) -> str:
    return ",".join(str(n) for n in sizes)


_BAD_VALUES = {
    "--mesh": st.one_of(
        _NOT_A_NUMBER,
        st.sampled_from(["", ",", "4,,8", "4,8,"]),
        # a non-positive size anywhere in the list
        st.builds(lambda a, n, b: _joined([*a, n, *b]), _SIZES, st.integers(max_value=0), _SIZES),
        # a last size no larger than an earlier one
        _SIZES.filter(bool).flatmap(
            lambda sizes: st.integers(1, max(sizes)).map(lambda n: _joined([*sizes, n]))
        ),
    ),
    # a final time of 1e16 or more is over 2**53 steps of the fixed dt = 0.05
    "--T": st.one_of(
        _NOT_A_NUMBER, _NONFINITE, _NEGATIVE, st.floats(min_value=1e16, max_value=1e308).map(repr)
    ),
    "--tol": _NOT_POSITIVE,
    "--dt": _NOT_POSITIVE,
    # inf is no cap
    "--dt-cap": _NOT_POSITIVE.filter(lambda value: value != "inf"),
    "--law": st.one_of(
        _NOT_A_NUMBER,
        st.builds("1:0,1:{}".format, _NONFINITE),
        st.builds("{}:0".format, st.floats(min_value=0.1, max_value=10)),  # one term
        # no constant term
        st.lists(st.floats(min_value=0.1, max_value=5), min_size=2, max_size=3, unique=True).map(
            lambda exps: ",".join(f"1:{e!r}" for e in exps)
        ),
        st.builds("1:0,{}:1,1:2".format, _NEGATIVE),  # a negative coefficient
        st.sampled_from(["1:0,0:1", "1:0,1:1,2:1", "1:0,,1:1"]),
    ),
}


def test_defaults() -> None:
    args = parse_args([])
    assert args == argparse.Namespace(
        law=law_from_string("1:0,1:1"),
        mesh_sizes=(4, 8, 16, 32, 64),
        dt="h2",
        dt_cap=1e-2,
        t_final=1.0,
        picard_tol=1e-6,
        fmt="markdown",
        out=None,
    )


def test_parses_law_and_meshes() -> None:
    args = parse_args(["--law", "2:1,1:0", "--mesh", "4,8"])
    assert args.law == law_from_string("1:0,2:1")
    assert args.mesh_sizes == (4, 8)


def test_parses_fixed_dt_and_tolerance() -> None:
    args = parse_args(["--dt", "0.001", "--tol", "1e-8"])
    assert args.dt == pytest.approx(0.001)
    assert args.picard_tol == pytest.approx(1e-8)


def test_parses_remaining_flags() -> None:
    args = parse_args(
        ["--dt-cap", "0.5", "--T", "2.0", "--format", "csv", "--out", "report.csv"]
    )
    assert args.dt_cap == 0.5
    assert args.t_final == 2.0
    assert args.fmt == "csv"
    assert args.out == "report.csv"


# each usage error below that convergence_study rejects as well, with the
# study's keyword arguments for the same value
_STUDY_REJECTS = {
    "--mesh 8,4": {"mesh_sizes": [8, 4]},
    "--mesh 0,4": {"mesh_sizes": [0, 4]},
    "--dt -0.1": {"dt": -0.1},
    "--dt quadratic": {"dt": "quadratic"},
    "--dt-cap 0": {"dt_cap": 0.0},
    "--dt-cap nan": {"dt_cap": math.nan},
    "--tol -1": {"picard_tol": -1.0},
    "--mesh 10000000000000": {"mesh_sizes": [10**13]},
}


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
        ["--max-picard", "5"],  # no longer a flag: the Newton cap is the solver's
        ["--format", "json"],
        ["--dt-cap", "nan"],
        ["--mesh", "10000000000000"],  # past build_mesh's int64 keys; no ticks are made
    ],
)
def test_usage_errors_exit_with_code_two(argv: list[str], capsys) -> None:
    """A value the study rejects is reported in the study's own words."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    study = _STUDY_REJECTS.get(" ".join(argv))
    if study is not None:
        with pytest.raises(ValueError) as rejected:
            convergence_study(law_from_string("1:0,1:1"), **{"mesh_sizes": [4], **study})
        assert capsys.readouterr().err.splitlines()[-1] == f"forchmix: error: {rejected.value}"


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
    ],
)
def test_nonfinite_values_exit_with_code_two(argv: list[str], capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([*_FAST, *argv])
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_an_infinite_dt_cap_runs_the_uncapped_study(tmp_path: Path, capsys) -> None:
    """--dt-cap inf is the study's dt_cap=inf, no cap: dt = h^2 on every mesh."""
    out = tmp_path / "uncapped.csv"
    argv = ["--mesh", "2,4", "--T", "0.25", "--dt-cap", "inf", "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    study = convergence_study(law_from_string("1:0,1:1"), [2, 4], t_final=0.25, dt_cap=math.inf)
    assert out.read_text(encoding="utf-8") == study.to_csv()


def test_the_check_validates_the_step_the_finest_row_marches(monkeypatch) -> None:
    """parse_args checks the step of the finest mesh's own h: for n=43
    uncapped, 1/h^2 is 924.4999999999966, so the row marches dt = 1/924,
    where 1/(sqrt(2)/43)^2 is 924.5000000000001 and the check validated 1/925."""
    checked = []
    config = mms_module.SolverConfig

    def spy(dt, *rest):
        checked.append(dt)
        return config(dt, *rest)

    monkeypatch.setattr(mms_module, "SolverConfig", spy)
    parse_args(["--mesh", "43", "--dt-cap", "inf"])
    assert checked == [1.0 / 924]


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


def _study_must_not_run(*args, **kwargs):
    raise AssertionError("convergence_study ran on invalid flags")


@pytest.mark.parametrize("flag", sorted(_BAD_VALUES))
@given(data=st.data())
def test_malformed_flags_exit_with_usage_and_code_two(flag: str, data) -> None:
    value = data.draw(_BAD_VALUES[flag], label="value")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("forchmix.cli.convergence_study", _study_must_not_run)
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
            main([*_FAST, f"{flag}={value}"])
    assert excinfo.value.code == 2
    text = err.getvalue()
    assert "Traceback" not in text
    assert text.startswith("usage: forchmix ")
    assert text.splitlines()[-1].startswith("forchmix: error: ")


class _MarchStarted(Exception):
    """Raised in place of a march: every check of the study passed."""


def _march_started(self, *args):
    raise _MarchStarted


# each mixes arbitrary values, nan and inf included, with ones in range
_STUDY_VALUES = {
    "mesh_sizes": st.lists(st.integers(-2, 24), min_size=1, max_size=4),
    "dt": st.one_of(st.just("h2"), st.floats(), st.floats(1e-4, 1.0)),
    "dt_cap": st.one_of(st.floats(), st.floats(1e-4, 1.0)),
    "t_final": st.one_of(st.floats(), st.floats(0.0, 2.0)),
    "picard_tol": st.one_of(st.floats(), st.floats(1e-12, 1e-2)),
}
_STUDY_FLAGS = {
    "mesh_sizes": "--mesh", "dt": "--dt", "dt_cap": "--dt-cap",
    "t_final": "--T", "picard_tol": "--tol",
}


@given(study=st.fixed_dictionaries(_STUDY_VALUES))
def test_flags_fail_exactly_when_the_study_rejects_them(study: dict) -> None:
    """parse_args exits with code 2 exactly when convergence_study, given the
    same values, raises ValueError before its first march."""
    # str of a float is its repr, which float() reads back exactly
    argv = [
        f"{_STUDY_FLAGS[name]}={_joined(value) if name == 'mesh_sizes' else value}"
        for name, value in study.items()
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExpandedMixedSolver, "run", _march_started)
        try:
            convergence_study(law_from_string("1:0,1:1"), **study)
        except ValueError:
            library_rejects = True
        except _MarchStarted:
            library_rejects = False
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                parse_args(argv)
                cli_rejects = False
            except SystemExit as exc:
                assert exc.code == 2
                cli_rejects = True
    assert cli_rejects == library_rejects


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


# The CSV of `--mesh 4,8,16 --T 0.125`: n, (err_p, rate_p, err_s, rate_s,
# err_u, rate_u) and picard_avg, with None for the first row's missing rates.
# _STUDY_ROWS is the solver's, with CG preconditioned by the factor of the
# Jacobian; _FROZEN_STUDY_ROWS is what it printed while CG was preconditioned
# by the factor of the frozen-K matrix A(1/g), as FrozenPreconditionedSolver
# still is.  The errors differ by at most 1.2e-9 (relative, err_u at n=16).
_STUDY_ROWS = [
    (4, (9.886185926105e-03, None, 3.476920381014e-02, None, 2.562772443026e-02, None), 2.25),
    (8, (5.260127316016e-03, 0.9103, 1.749040568242e-02, 0.9912, 1.275267540627e-02, 1.0069),
     2.0),
    (16, (2.881091118154e-03, 0.8685, 8.811812182326e-03, 0.9891, 6.420614628507e-03, 0.9900),
     1.625),
]
_FROZEN_STUDY_ROWS = [
    (4, (9.886185926105e-03, None, 3.476920381244e-02, None, 2.562772443188e-02, None), 2.4167),
    (8, (5.260127316833e-03, 0.9103, 1.749040569282e-02, 0.9912, 1.275267541534e-02, 1.0069),
     2.0),
    (16, (2.881091115388e-03, 0.8685, 8.811812175185e-03, 0.9891, 6.420614620771e-03, 0.9900),
     1.5625),
]
_STUDY_NAMES = ("err_p", "rate_p", "err_s", "rate_s", "err_u", "rate_u")


def _study_csv(capsys) -> list[dict[str, str]]:
    """The rows of the CSV of `--mesh 4,8,16 --T 0.125`, by column name."""
    assert main(["--mesh", "4,8,16", "--T", "0.125", "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _assert_recorded(rows: list[dict[str, str]], recorded) -> None:
    """n and picard_avg exactly, every printed error and rate to 1e-10
    (relative)."""
    assert [int(row["n"]) for row in rows] == [n for n, _, _ in recorded]
    for row, (_, values, picard_avg) in zip(rows, recorded):
        assert float(row["picard_avg"]) == picard_avg
        for name, want in zip(_STUDY_NAMES, values):
            if want is None:
                assert row[name] == "", name
            else:
                assert float(row[name]) == pytest.approx(want, rel=1e-10), name


def test_study_reproduces_recorded_numbers(capsys) -> None:
    """A refactor that claims the same numbers keeps the study's report: n and
    picard_avg exactly, every printed error and rate to 1e-10 (relative)."""
    _assert_recorded(_study_csv(capsys), _STUDY_ROWS)


def test_study_matches_the_frozen_preconditioner(capsys, monkeypatch) -> None:
    """The factor of the Jacobian changes the path of each step's Newton
    iteration, not its limit: the study agrees with the one preconditioned by
    the factor of A(1/g) to 1e-7 (relative) in every error and to the printed
    4 decimals in every rate.  That oracle reproduces the numbers the study
    printed before the change, as recorded."""
    rows = _study_csv(capsys)
    monkeypatch.setattr(solver_module, "_CG_STALE_BUDGET", math.inf)
    monkeypatch.setattr(mms_module, "ExpandedMixedSolver", FrozenPreconditionedSolver)
    frozen = _study_csv(capsys)
    _assert_recorded(frozen, _FROZEN_STUDY_ROWS)
    for row, want in zip(rows, frozen):
        for name in _STUDY_NAMES:
            if name.startswith("rate"):
                assert row[name] == want[name], name
            else:
                assert float(row[name]) == pytest.approx(float(want[name]), rel=1e-7), name


def test_a_sublinear_law_marches_past_the_decay_underflow(capsys) -> None:
    """With g = 1 + s^0.5, K' is infinite at xi = 0, which every quadrature
    point reaches once exp(-5t) underflows, from t = 150 on; the study still
    runs with no warning, and stderr holds only the summary line."""
    argv = ["--law", "1:0,1:0.5", "--mesh", "2,4", "--T", "200", "--dt", "10", "--format", "csv"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert re.fullmatch(r"forchmix: finest mesh n=4: rates [^\n]*\n", captured.err)


def test_a_velocity_error_below_the_squares_range_reads_positive(capsys) -> None:
    """With g = 1e200 + s, u and its error are about 1e-202, whose squares
    underflow to 0: the norm is taken of the error scaled by its largest
    entry, so err_u reads its size, near 3.245e-202 on n=4, and rate_u is
    finite."""
    argv = ["--law", "1e200:0,1:1", "--mesh", "2,4", "--T", "0.1", "--format", "csv"]
    assert main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert all(0.0 < float(row["err_u"]) < 1e-200 for row in rows)
    assert float(rows[1]["err_u"]) == pytest.approx(3.245e-202, rel=1e-3)
    assert math.isfinite(float(rows[1]["rate_u"]))


def test_main_reports_nonconvergence_with_code_three(capsys, monkeypatch) -> None:
    monkeypatch.setattr(solver_module, "_NEWTON_MAXITER", 1)
    code = main(_FAST)
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


def test_readme_usage_lists_exactly_the_parsers_flags() -> None:
    """README's usage block names every flag the parser takes, -h aside, and
    no other, so a new flag cannot ship undocumented."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    usage = re.search(r"^```\n(.*?)^```", section, flags=re.M | re.S).group(1)
    documented = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", usage))
    options = {option for action in _build_parser()._actions for option in action.option_strings}
    assert documented == options - {"-h", "--help"}


def test_python_m_forchmix_runs_from_a_source_checkout(tmp_path: Path) -> None:
    """python -m forchmix runs the study with only src on the path, and keeps
    the CLI's exit codes."""
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    def forchmix(*argv: str) -> subprocess.CompletedProcess:
        command = [sys.executable, "-m", "forchmix", *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env, cwd=tmp_path)

    done = forchmix("--mesh", "2", "--T", "0.02", "--format", "csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n,h,dt,err_p,rate_p,err_s,rate_s,err_u,rate_u,picard_avg\n")
    assert forchmix("--mesh", "0").returncode == 2


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one core OpenBLAS runs one thread, however many it is asked for")
def test_report_is_the_same_under_one_and_two_blas_threads(tmp_path: Path) -> None:
    """On n=64, whose velocity has more entries than the 10000 above which
    OpenBLAS splits a dot product over its threads, four steps give the same
    CSV bytes from the CLI under OPENBLAS_NUM_THREADS=1 and 2, and the same
    errors to the last bit, which the CSV's 13 digits would hide."""
    assert build_dofmap(unit_square_mesh(64)).n_rt0 > 10000
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    study = (
        "from forchmix import convergence_study, law_from_string; print(repr(convergence_study("
        "law_from_string('1:0,1:1'), [64], dt=1e-2, t_final=4e-2).rows))"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), OPENBLAS_NUM_THREADS=threads)
        report = tmp_path / f"threads-{threads}.csv"
        cli = ["-m", "forchmix", "--mesh", "64", "--dt", "1e-2", "--T", "4e-2", "--format", "csv", "--out", str(report)]
        for argv in (cli, ["-c", study]):
            done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=tmp_path)
            assert done.returncode == 0, done.stderr
        outputs.append((report.read_bytes(), done.stdout))
    assert outputs[0] == outputs[1]
