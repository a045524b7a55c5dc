import json
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import spdmeans.cli as cli
from spdmeans import (ConvergenceError, GenSpec, MeanKind, SolverConfig, SpdMatrix,
                      SpdTuple, gen_tuple, mean)
from spdmeans.cli import (
    InputError,
    MatrixFile,
    build_parser,
    main,
    parse_matrix_text,
    render_matrix_file,
)
from spdmeans.harness import DEFAULT_TOL, DEFAULT_TRIALS


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- serialization -------------------------------------------------------------

def test_json_round_trip_is_exact():
    rng = np.random.default_rng(60)
    mats = [(lambda m: (m + m.T) / 2)(rng.standard_normal((3, 3)))
            for _ in range(2)]
    mf = MatrixFile(dim=3, matrices=mats, labels=["a", "b"])
    text = render_matrix_file(mf, "json")
    back = parse_matrix_text(text, "json")
    assert back.dim == 3
    assert back.labels == ["a", "b"]
    for x, y in zip(mats, back.matrices):
        assert np.array_equal(x, y)


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(61)
    mats = [(lambda m: (m + m.T) / 2)(rng.standard_normal((4, 4)))
            for _ in range(3)]
    text = render_matrix_file(MatrixFile(dim=4, matrices=mats), "csv")
    back = parse_matrix_text(text, "csv")
    assert back.dim == 4
    assert len(back.matrices) == 3
    for x, y in zip(mats, back.matrices):
        assert np.array_equal(x, y)


def test_json_layout_stable():
    mf = MatrixFile(dim=1, matrices=[np.array([[2.0]])])
    assert render_matrix_file(mf, "json") == '{"dim": 1, "matrices": [[[2.0]]]}\n'


def test_render_bytes_match_the_per_element_repr():
    # the rendering of each entry is repr(float(x)): signed zero, subnormals
    # and extreme exponents included, in both formats
    rng = np.random.default_rng(62)
    m = rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-300, 300, (64, 64))
    m[0, :4] = [-0.0, 5e-324, -2.2e-308, 1.7976931348623157e308]
    mats = [m, m.T]
    grids = [[[float(x) for x in row] for row in a] for a in mats]
    json_text = json.dumps({"dim": 64, "matrices": grids}) + "\n"
    csv_lines = ["dim,64"]
    for i, grid in enumerate(grids):
        csv_lines += [""] * (i > 0) + [",".join(map(repr, row)) for row in grid]
    csv_text = "\n".join(csv_lines) + "\n"
    mf = MatrixFile(dim=64, matrices=mats)
    assert render_matrix_file(mf, "json") == json_text
    assert render_matrix_file(mf, "csv") == csv_text


def test_parse_rejects_malformed_input():
    with pytest.raises(InputError):
        parse_matrix_text("not json", "json")
    with pytest.raises(InputError):
        parse_matrix_text('{"matrices": []}', "json")
    with pytest.raises(InputError):
        parse_matrix_text('{"dim": 2, "matrices": [[[1.0, 0.0], [0.0]]]}', "json")
    with pytest.raises(InputError):
        parse_matrix_text('{"dim": 2, "matrices": [[[1.0, 0.5], [0.0, 1.0]]]}',
                          "json")  # asymmetric
    with pytest.raises(InputError):
        parse_matrix_text('{"dim": 3, "matrices": [[[1.0]]]}', "json")
    with pytest.raises(InputError):
        parse_matrix_text("no header\n1.0\n", "csv")
    with pytest.raises(InputError):
        parse_matrix_text("dim,2\n1.0,x\n0.0,1.0\n", "csv")
    with pytest.raises(InputError):
        parse_matrix_text(
            '{"dim": 1, "matrices": [[[1.0]]], "labels": ["a", "b"]}', "json")
    for text, fmt, message in [
        ('{"dim": 0, "matrices": [[[1.0]]]}', "json",
         "dim must be a positive integer, got 0"),
        ('{"dim": true, "matrices": [[[1.0]]]}', "json",
         "dim must be a positive integer, got True"),
        ('{"dim": 1, "matrices": []}', "json", "file contains no matrices"),
        ("dim,x\n1.0\n", "csv", "bad CSV header 'dim,x'"),
        ("dim,1\n1.0\n", "yaml", "unknown format 'yaml'"),
    ]:
        with pytest.raises(InputError) as err:
            parse_matrix_text(text, fmt)
        assert str(err.value) == message
    with pytest.raises(InputError, match="^unknown format 'yaml'$"):
        render_matrix_file(MatrixFile(dim=1, matrices=[np.eye(1)]), "yaml")


# -- defaults ------------------------------------------------------------------

def test_flag_defaults_are_the_librarys():
    # the CLI states none of the library's defaults: the solver's come from
    # SolverConfig, the draws' from GenSpec and the sweep's from the harness
    parser = build_parser()
    args = parser.parse_args(["mean", "--kind", "karcher", "--input", "x"])
    assert (args.tol, args.max_iter) == (SolverConfig().residual_tol,
                                         SolverConfig().max_iter)
    spec = GenSpec(dim=2, k=2, seed=0)
    check = parser.parse_args(["check"])
    gen = parser.parse_args(["gen", "--dim", "2", "--k", "2"])
    for args in (check, gen):
        assert (args.cond, args.structure) == (spec.cond_bound, spec.structure)
        assert args.seed == 42
    assert (check.trials, check.tol) == (DEFAULT_TRIALS, DEFAULT_TOL)


# -- one parser per process ------------------------------------------------------

def test_importing_the_cli_builds_no_parser():
    # count every ArgumentParser made while the module loads, in a fresh process
    code = ("import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **kw):\n"
            "    made.append(1)\n"
            "    init(self, *a, **kw)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import spdmeans.cli\n"
            "assert not made and spdmeans.cli._PARSER is None, made\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    path = tmp_path / "t.json"
    assert main(["gen", "--dim", "2", "--k", "2", "--output", str(path)]) == 0
    for kind in ("arithmetic", "harmonic"):
        assert run(["mean", "--kind", kind, "--input", str(path)], capsys)[0] == 0
    assert len(builds) == 1
    # build_parser itself still makes a new parser per call
    assert build_parser() is not build_parser()


def test_consecutive_main_calls_are_independent(tmp_path, capsys, monkeypatch):
    tols = []

    def recording_mean(kind, t, cfg):
        tols.append(cfg.residual_tol)
        return mean(kind, t, cfg)

    monkeypatch.setattr(cli, "mean", recording_mean)
    path = tmp_path / "t.json"
    assert main(["gen", "--dim", "2", "--k", "3", "--output", str(path)]) == 0
    argv = ["mean", "--kind", "karcher", "--input", str(path)]
    assert run(argv + ["--tol", "1e-6"], capsys)[0] == 0
    assert run(argv, capsys)[0] == 0
    assert tols == [1e-6, SolverConfig.residual_tol]
    # an argparse exit leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["mean", "--input", str(path)])
    assert exc.value.code == 2
    assert "--kind" in capsys.readouterr().err
    assert run(argv, capsys)[0] == 0


# -- gen -----------------------------------------------------------------------

def test_gen_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["gen", "--dim", "3", "--k", "3", "--seed", "123"]
    assert main(base + ["--output", str(out1)]) == 0
    assert main(base + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_matches_library(tmp_path, capsys):
    code, out, _ = run(["gen", "--dim", "2", "--k", "2", "--seed", "5",
                        "--format", "csv"], capsys)
    assert code == 0
    parsed = parse_matrix_text(out, "csv")
    t = gen_tuple(GenSpec(dim=2, k=2, seed=5))
    for got, want in zip(parsed.matrices, t):
        assert np.array_equal(got, want.entries)


def test_gen_structure_flag(tmp_path, capsys):
    code, out, _ = run(["gen", "--dim", "4", "--k", "3", "--seed", "7",
                        "--structure", "commuting"], capsys)
    assert code == 0
    mats = [np.array(m) for m in json.loads(out)["matrices"]]
    comm = mats[0] @ mats[1] - mats[1] @ mats[0]
    assert np.abs(comm).max() <= 1e-12


def test_gen_rejects_bad_spec(capsys):
    code, _, err = run(["gen", "--dim", "0", "--k", "2"], capsys)
    assert code == 2
    assert "dim" in err


# -- mean ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", [k.value for k in MeanKind])
def test_mean_cli_matches_library(tmp_path, capsys, kind):
    path = tmp_path / "t.json"
    assert main(["gen", "--dim", "3", "--k", "3", "--seed", "11",
                 "--output", str(path)]) == 0
    code, out, _ = run(["mean", "--kind", kind, "--input", str(path)], capsys)
    assert code == 0
    got = parse_matrix_text(out, "json").matrices[0]
    t = SpdTuple([SpdMatrix(m) for m in
                  parse_matrix_text(path.read_text(), "json").matrices])
    assert np.array_equal(got, mean(kind, t).entries)


def test_mean_cli_scalar_oracle(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(
        {"dim": 1, "matrices": [[[1.0]], [[2.0]], [[4.0]]]}))
    code, out, _ = run(["mean", "--kind", "inductive", "--input", str(path)],
                       capsys)
    assert code == 0
    val = parse_matrix_text(out, "json").matrices[0][0, 0]
    assert abs(val - 2.0) < 1e-12


def test_mean_cli_csv_output(tmp_path, capsys):
    path = tmp_path / "t.csv"
    assert main(["gen", "--dim", "2", "--k", "2", "--seed", "3",
                 "--format", "csv", "--output", str(path)]) == 0
    out_path = tmp_path / "m.csv"
    assert main(["mean", "--kind", "arithmetic", "--format", "csv",
                 "--input", str(path), "--output", str(out_path)]) == 0
    got = parse_matrix_text(out_path.read_text(), "csv").matrices[0]
    t = gen_tuple(GenSpec(dim=2, k=2, seed=3))
    want = (t[0].entries + t[1].entries) / 2
    assert np.array_equal(got, want)


def test_mean_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run(["mean", "--kind", "inductive",
                        "--input", str(missing)], capsys)
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "matrices": [[[1.0, 0.0], [0.0, -1.0]]]}')
    code, _, err = run(["mean", "--kind", "inductive", "--input", str(bad)],
                       capsys)
    assert code == 2 and "matrix 0" in err

    second = tmp_path / "second.json"
    second.write_text('{"dim": 2, "matrices": [[[2.0, 0.0], [0.0, 1.0]],'
                      ' [[1.0, 0.0], [0.0, -1.0]]]}')
    code, _, err = run(["mean", "--kind", "inductive", "--input", str(second)],
                       capsys)
    assert code == 2 and "matrix 1" in err

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{{{")
    code, _, err = run(["mean", "--kind", "inductive",
                        "--input", str(corrupt)], capsys)
    assert code == 2 and "JSON" in err

    # each input error names its matrix once
    for grids, line in [
        ("[[1.0, NaN], [NaN, 1.0]]", "matrix 1 entries must be finite"),
        ("[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]",
         "matrix 1 must be square, got shape (2, 3)"),
        ("[[1.0, 0.5], [0.0, 1.0]]",
         "matrix 1: asymmetry 5.000e-01 exceeds 1e-12 * max|entry| = 1.000e-12"),
        ("[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]",
         "matrix 1: shape (3, 3) != (2, 2)"),
        ('[[1.0, "x"], ["x", 1.0]]',
         "matrix 1 is not a numeric grid: could not convert string to float: 'x'"),
        # symmetrizing must not overflow a finite entry into "not finite"
        ("[[1e308, 0.0], [0.0, 1.0]]",
         "matrix 1: smallest eigenvalue 1.000000e+00 not above tolerance 1.000e+296"),
    ]:
        path = tmp_path / "input.json"
        path.write_text('{"dim": 2, "matrices": [[[1.0, 0.0], [0.0, 1.0]], '
                        + grids + "]}")
        result = run(["mean", "--kind", "inductive", "--input", str(path)],
                     capsys)
        assert result == (2, "", f"error: {line}\n")


def test_mean_cli_rejects_json_of_the_wrong_structure(tmp_path, capsys):
    # neither a non-list "matrices" nor deep nesting may end in a traceback
    path = tmp_path / "input.json"
    for text, line in [
        ('{"dim": 1, "matrices": 5}', "matrices must be a list, got int"),
        ('{"dim": 1, "matrices": true}', "matrices must be a list, got bool"),
    ]:
        path.write_text(text)
        result = run(["mean", "--kind", "inductive", "--input", str(path)],
                     capsys)
        assert result == (2, "", f"error: {line}\n")
    path.write_text("[" * 100000)
    code, out, err = run(["mean", "--kind", "inductive", "--input", str(path)],
                         capsys)
    assert (code, out) == (2, "") and err.startswith("error: invalid JSON: ")


def test_mean_cli_karcher_convergence_failure(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["gen", "--dim", "3", "--k", "3", "--seed", "11",
                 "--output", str(path)]) == 0
    code, _, err = run(["mean", "--kind", "karcher", "--input", str(path),
                        "--max-iter", "1"], capsys)
    assert code == 3
    assert "converge" in err


def test_mean_cli_rejects_bad_solver_flags(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["gen", "--dim", "2", "--k", "2", "--seed", "1",
                 "--output", str(path)]) == 0
    code, _, err = run(["mean", "--kind", "karcher", "--input", str(path),
                        "--max-iter", "0"], capsys)
    assert code == 2 and "max_iter" in err


def test_mean_cli_rejects_non_finite_tol(tmp_path, capsys):
    # --tol inf would stop the Karcher solver at the arithmetic mean
    path = tmp_path / "t.json"
    assert main(["gen", "--dim", "2", "--k", "2", "--seed", "1",
                 "--output", str(path)]) == 0
    for tol in ("inf", "nan"):
        result = run(["mean", "--kind", "karcher", "--input", str(path),
                      "--tol", tol], capsys)
        assert result == (
            2, "", f"error: residual_tol must be finite and >= 1e-14, got {tol}\n")


# -- check ---------------------------------------------------------------------

LINE = re.compile(
    r"^[a-z_]+(\[[a-z]+\])? trials=\d+ failures=\d+ "
    r"worst_violation=-?\d\.\d{6}e[+-]\d{2,3} witness_seed=(\d+|-)$"
)


def test_check_passes_and_line_format(capsys):
    code, out, _ = run(["check", "--suite", "commuting,two_var", "--dim", "3",
                        "--k", "3", "--trials", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "6 checks, 0 failed"
    for ln in lines[:-1]:
        assert LINE.match(ln), ln


def test_check_failure_exit_code_and_witness(capsys):
    code, out, _ = run(["check", "--suite", "congruence", "--kinds",
                        "inductive", "--trials", "3", "--tol", "1e-18"],
                       capsys)
    assert code == 1
    m = re.search(r"witness_seed=(\d+)", out)
    assert m
    # replaying the witness seed reproduces the same worst violation
    witness = m.group(1)
    worst = re.search(r"worst_violation=(\S+)", out).group(1)
    code2, out2, _ = run(["check", "--suite", "congruence", "--kinds",
                          "inductive", "--trials", "1", "--seed", witness,
                          "--tol", "1e-18"], capsys)
    assert code2 == 1
    assert f"worst_violation={worst}" in out2


def test_check_error_names_the_check_and_the_trial_seed(capsys):
    # trial 10 of seed 1 does not converge; the seed in the message
    # replays it as the one trial of a rerun
    args = ["check", "--suite", "congruence", "--kinds", "karcher",
            "--cond", "1e6", "--dim", "6", "--k", "3"]
    code, out, err = run([*args, "--trials", "20", "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: congruence\[karcher\]: trial seed 3326683750974675155: "
        r"residual \d\.\d{6}e-10 above tolerance 1\.0e-10 after 500 iterations\n",
        err), err
    rerun = run([*args, "--trials", "1", "--seed", "3326683750974675155"], capsys)
    assert rerun == (2, "", err)


def test_check_keeps_the_reports_finished_before_a_raising_trial(capsys):
    # each check's report is printed as it finishes; the run still stops
    # at the raising trial, exits 2 and leaves out the summary line
    code, out, err = run(["check", "--suite", "commuting,congruence",
                          "--kinds", "karcher", "--cond", "1e6", "--dim", "6",
                          "--k", "3", "--trials", "20", "--seed", "1"], capsys)
    assert code == 2
    assert re.fullmatch(r"commuting\[karcher\] trials=20 failures=0 "
                        r"worst_violation=\S+ witness_seed=-\n", out), out
    assert err.startswith(
        "error: congruence[karcher]: trial seed 3326683750974675155: residual ")


def test_check_bad_flags(capsys):
    code, _, err = run(["check", "--suite", "nosuch", "--trials", "2"], capsys)
    assert code == 2 and "unknown check" in err
    # a misspelt name fails before any check runs
    code, out, err = run(["check", "--suite", "two_var,nosuch", "--trials", "2"],
                         capsys)
    assert (code, out) == (2, "") and "unknown check name(s) ['nosuch']" in err
    code, _, err = run(["check", "--suite", "two_var", "--trials", "0"], capsys)
    assert code == 2
    code, _, err = run(["check", "--suite", "two_var", "--trials", "2",
                        "--kinds", "median"], capsys)
    assert code == 2
    code, _, err = run(["check", "--suite", "two_var", "--trials", "2",
                        "--cond", "1e9"], capsys)
    assert code == 2


def test_check_that_selects_no_check_exits_2(capsys):
    # a gate that checked nothing must not pass
    for args in (["--suite", "determinant", "--kinds", "arithmetic"],
                 ["--suite", ","]):
        result = run(["check", *args, "--trials", "2"], capsys)
        assert result == (2, "", "error: --suite and --kinds select no check\n")


def test_check_rejects_nan_infinite_or_negative_tol(capsys):
    # a NaN or infinite tolerance would pass every trial
    for tol in ("nan", "inf", "-1"):
        result = run(["check", "--suite", "two_var", "--trials", "2",
                      "--tol", tol], capsys)
        assert result == (
            2, "", f"error: tol must be finite and >= 0, got {float(tol)!r}\n")


def test_errors_of_every_command_exit_2(tmp_path, capsys, monkeypatch):
    # only `mean` maps non-convergence to 3; from `check` it is an error
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("stuck", np.eye(2), 1.0, 1)

    monkeypatch.setattr("spdmeans.cli.iter_suite", no_convergence)
    code, out, err = run(["check", "--suite", "two_var"], capsys)
    assert (code, out, err) == (2, "", "error: stuck\n")
    code, out, err = run(["gen", "--dim", "2", "--k", "2", "--output",
                          str(tmp_path / "missing" / "t.json")], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_argparse_rejects_unknown_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mean", "--kind", "nope", "--input", "x.json"])
    assert exc.value.code == 2


def test_console_script_installed():
    # The declaration in pyproject.toml is what every installer turns into
    # the `spdmeans` executable, so pin it first.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    ep = EntryPoint(name="spdmeans", value=scripts["spdmeans"],
                    group="console_scripts")
    assert ep.load() is main

    exe = shutil.which("spdmeans")
    if exe is not None:
        cmd = [exe]
    else:
        # Not installed: run the wrapper an installer writes for the entry
        # point, with the argv it would see.
        wrapper = ("import sys; sys.argv[0] = 'spdmeans'; "
                   f"from {ep.module} import {ep.attr}; "
                   f"sys.exit({ep.attr}())")
        cmd = [sys.executable, "-c", wrapper]
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mean" in proc.stdout


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "spdmeans", "gen", "--dim", "2", "--k", "1",
         "--seed", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2


# -- the README's examples -----------------------------------------------------

def test_readme_examples_run_and_print_what_they_show(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.M | re.S)
    # the python blocks run in order, in one namespace
    python = [body for lang, body in blocks if lang == "python"]
    assert len(python) == 2
    namespace = {}
    for body in python:
        exec(compile(body, "README.md", "exec"), namespace)
    capsys.readouterr()
    # each `$ spdmeans ...` line runs in a fresh directory and prints the
    # lines shown under it, where `...` stands for any lines
    monkeypatch.chdir(tmp_path)
    transcript = [body for lang, body in blocks if body.startswith("$ spdmeans ")]
    assert len(transcript) == 1
    sessions = re.split(r"^\$ spdmeans ", transcript[0], flags=re.M)[1:]
    assert len(sessions) == 3
    for session in sessions:
        command, *shown = session.strip("\n").split("\n")
        code = main(command.split())
        out = capsys.readouterr()
        shown = [line for line in shown if line]
        pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        assert (code, out.err) == (0, "")
        assert re.fullmatch(pattern, out.out), (command, out.out)
