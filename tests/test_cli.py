"""Command-line interface: exit codes, JSON shape, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algpot
from algpot.cli import build_parser, main
from algpot.pipeline import (EXIT_ERROR, EXIT_USAGE, OPTION_RANGES, AnalysisOptions, analyze,
                             report_json)

from conftest import TRAP_TEXT

RUN = [sys.executable, "-m", "algpot.cli"]
# the child process imports the same algpot sources as this one
SRC = str(Path(algpot.__file__).resolve().parent.parent)


def run_cli(args, env=(), **kw):
    """Run the command line in a child process; env adds to its environment."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **dict(env)}, **kw)


def test_check_table_exact_match(capsys):
    code = main(["check-table", "--k", "3", "--lambda", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mode"] == "exact"
    assert out["matched"] is True
    assert out["obstruction_if_hypotheses_hold"] is False
    assert any(w["row"] == "case (i)" for w in out["witnesses"])


def test_check_table_negative_lambda(capsys):
    # the equals form keeps argparse from eating the leading minus sign
    code = main(["check-table", "--k=-1", "--lambda=-1/2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["matched"] is False
    assert out["obstruction_if_hypotheses_hold"] is True


def test_check_table_numeric_mode(capsys):
    code = main(["check-table", "--k", "3", "--lambda", "0.123456789",
                 "--numeric"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mode"] == "numeric"
    assert out["matched"] is False
    assert "not a certificate" in out["note"]


def test_check_table_rejects_k_zero(capsys):
    code = main(["check-table", "--k", "0", "--lambda", "1"])
    assert code == 2


def test_ve_rejects_k_zero(capsys):
    # the one degree check runs before build_ve divides by k
    assert main(["ve", "--k", "0", "--lambda", "1"]) == EXIT_USAGE
    assert "degree must be a nonzero integer" in capsys.readouterr().err


def test_ve_reports_exact_fractions(capsys):
    code = main(["ve", "--k", "3", "--lambda", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["coefficients"] == {"a1": "7/6", "a0": "-2/3", "b0": "-1/6"}
    assert out["exponents"]["0"] == ["0", "1/3"]
    assert out["exponents"]["1"] == ["0", "1/2"]
    assert out["fuchs_residual"] == "0"
    assert "monodromy" not in out


def test_ve_monodromy_flag(capsys):
    code = main(["ve", "--k", "3", "--lambda", "1", "--monodromy"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    mono = out["monodromy"]
    assert mono["product_error"] <= 1e-6
    for name in ("0", "1", "inf"):
        assert mono["eigen_errors"][name] <= 1e-6


def test_simulate_cone(cone_file, capsys):
    code = main(["simulate", str(cone_file), "--q0", "0.6,0.8",
                 "--p0", "0.1,-0.2", "--w0", "1.0",
                 "--t0", "0", "--t1", "1", "--samples", "9"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["terminated"] == "completed"
    assert out["energy_drift"] <= 1e-9
    assert len(out["samples"]) == 9


def test_simulate_starts_on_the_variety(cone_file, capsys):
    # w0 = 0.5 is corrected onto the fiber of q0; w0 = 0 (the default) cannot be
    argv = ["simulate", str(cone_file), "--q0", "0.8,0", "--p0", "0,1", "--t1", "1"]
    assert main(argv + ["--w0", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["samples"][0]["w"][0] - 0.8) <= 1e-12
    assert out["max_constraint_residual"] <= 1e-7
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: w0 is off the variety, max |G(q0, w0)| = 0.64")
    assert captured.err.count("\n") == 1


# the benchmark's draw1, from a start that blows up in finite time
DRAW1_TEXT = """\
vars q1 q2
ext w1 : -q1^3 - 2*q2^3 + w1^3
ext w2 : -q2^2 - 2*w1^2 + w2^2
potential -3*q1*q2^2*w2 - 2*q2*w1*w2^2 - w1^3*w2
"""


@pytest.mark.parametrize("text, q0, p0, w0, terminated", [
    (TRAP_TEXT, "0,1", "0,0", "0", "critical_set"),
    (DRAW1_TEXT, "0.4,0.2", "0.1,0.1", "1,1.5", "solver_failed"),
], ids=["critical_set", "solver_failed"])
def test_simulate_prints_a_stopped_trajectory(text, q0, p0, w0, terminated, tmp_path,
                                              capsys):
    # a flow that stops early is printed and exits 0, as a completed one
    # (test_simulate_cone): no traceback when the integrator gives up
    path = tmp_path / "problem.prob"
    path.write_text(text)
    assert main(["simulate", str(path), "--q0", q0, "--p0", p0, "--w0", w0,
                 "--t1", "1"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    out = json.loads(captured.out)
    assert out["terminated"] == terminated
    if terminated == "solver_failed":
        # the last sample is where the integrator stopped, before t1
        assert abs(out["samples"][-1]["t"] - 0.798) <= 1e-3
        assert "Required step size" in out["message"]


@pytest.mark.parametrize("text, q0, p0, w0", [
    ("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n", "0,0", "0.1,-0.2", "0"),
    ("vars q1 q2\npotential 1/q1\n", "0,1", "0.1,0", None),
], ids=["cone-1/w1", "1/q1"])
def test_simulate_from_a_pole_is_an_error(text, q0, p0, w0, tmp_path, capsys):
    # no state at a pole has an energy: one error line, as for a state of
    # the wrong dimension, and no traceback
    path = tmp_path / "pole.prob"
    path.write_text(text)
    argv = ["simulate", str(path), "--q0", q0, "--p0", p0] + (["--w0", w0] if w0 else [])
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: initial point is a pole of the potential")
    assert captured.err.count("\n") == 1


def test_nbody_emit_round_trip(capsys, tmp_path):
    code = main(["nbody", "--n", "3", "--dim", "2"])
    text = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "generated.prob"
    path.write_text(text)
    code = main(["darboux", str(path), "--n-random", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["label"] == str(path)
    assert "accepted" in out and "rejected" in out


def test_darboux_report_carries_the_pipeline_section(trap_file, capsys):
    code = main(["darboux", str(trap_file), "--n-random", "16"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    code = main(["analyze", str(trap_file), "--n-random", "16"])
    section = json.loads(capsys.readouterr().out)["darboux"]
    assert code == 0
    assert section["n_rejected"] > 0
    assert {k: out[k] for k in section} == section
    assert len(out["accepted"]) == section["n_accepted"]
    assert set(out) == set(section) | {"tool", "label", "accepted"}


def test_no_command_takes_critical_tol(trap_file, capsys):
    # the critical-set probe is the one test of criticality in an analysis;
    # no |detJ| threshold is left to set.  Nor can a flag move a threshold
    # that decides the certificate: the acceptance bound, the probe radius
    # and rational reconstruction's budget and denominator are fixed
    heads = {"analyze": ["analyze", str(trap_file)], "darboux": ["darboux", str(trap_file)],
             "nbody": ["nbody", "--n", "3", "--analyze"],
             "check-table": ["check-table", "--k", "3", "--lambda", "1", "--numeric"]}
    for flag, commands in (("--critical-tol", ["analyze", "darboux", "nbody"]),
                           ("--on-variety-tol", ["analyze", "darboux", "nbody"]),
                           ("--sigma-radius", ["analyze", "darboux", "nbody"]),
                           ("--rational-tol", ["analyze", "nbody", "check-table"]),
                           ("--max-denominator", ["analyze", "nbody", "check-table"])):
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                main(heads[command] + [flag, "1000"])
            assert exc.value.code == EXIT_USAGE, (flag, command)
            assert flag in capsys.readouterr().err, (flag, command)


def test_bare_command_line_takes_the_analysis_defaults(cone_file, cone_setup, capsys):
    code = main(["analyze", str(cone_file)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    report, _ = analyze(cone_setup, AnalysisOptions())
    assert out["options"] == json.loads(report_json(report))["options"]
    code = main(["analyze", str(cone_file), "--seed", "3", "--n-random", "4"])
    options = json.loads(capsys.readouterr().out)["options"]
    assert options == {"seed": 3, "n_random": 4}


@pytest.mark.parametrize("command", ["analyze", "darboux"])
def test_tol_is_a_usage_error(command, cone_file, capsys):
    # each tolerance has its own flag; no one flag sets several
    with pytest.raises(SystemExit) as exc:
        main([command, str(cone_file), "--tol", "1e-7"])
    assert exc.value.code == EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


def test_analyze_cone_exit_zero(cone_file, capsys):
    code = main(["analyze", str(cone_file), "--n-random", "12"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["certificate"]["status"] == "no_obstruction"
    assert out["exit_code"] == 0
    assert out["homogeneity"]["degree"] == "3"


def test_nbody_analyze_exit_ten(capsys):
    code = main(["nbody", "--n", "3", "--dim", "2", "--analyze",
                 "--n-random", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 10
    assert out["certificate"]["status"] == "obstruction"
    assert out["certificate"]["witnesses"]


def test_missing_file_is_an_error(capsys):
    code = main(["analyze", "/nonexistent/missing.prob"])
    assert code == EXIT_ERROR


def test_parse_error_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("vars q1\npotential q1 +\n")
    code = main(["analyze", str(bad)])
    assert code == EXIT_ERROR


@pytest.mark.parametrize("masses, why", [("1,1e400,1", "too large"),
                                         ("1e-400,1,1", "too small")])
def test_nbody_masses_a_double_cannot_hold_are_a_usage_error(masses, why, capsys):
    # unchecked, 1e400 overflows in the kernels (a traceback with exit 1, the
    # validation code) and 1e-400 drops the terms that carry m1 without a word
    code = main(["nbody", "--n", "3", "--dim", "2", "--masses", masses, "--analyze"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: the product of masses 1 and 2 is {why} for a double\n"


def test_a_coefficient_a_double_cannot_hold_is_a_problem_file_error(tmp_path, capsys):
    big = tmp_path / "big.prob"
    big.write_text("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 10^400*w1^3\n")
    assert main(["analyze", str(big)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("problem file error: line 3, col 1: "
                            "potential has a coefficient too large for a double\n")


def test_a_constant_detj_without_a_double_is_not_compiled(tmp_path, capsys):
    # detJ is the constant 10^400, which has no double: the Sigma probe
    # decides a constant polynomial by its value, so no kernel compiles it
    big = tmp_path / "big.prob"
    big.write_text("vars q1 q2\next w1 : 10^200*w1 - q1^2\next w2 : 10^200*w2 - q2^2\n"
                   "potential q1^2*w2 + q2^2*w1 + q1*q2*w1\n")
    assert main(["analyze", str(big)]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["ok"]


@pytest.mark.parametrize("argv", [
    ["analyze", "{big}"], ["darboux", "{big}"],
    ["simulate", "{big}", "--q0", "0.5,0.1", "--p0", "0,0", "--w0", "0.51"],
    ["nbody", "--n", "3", "--dim", "2", "--masses", "1,1.7e308,1", "--analyze",
     "--n-random", "4"],
    ["nbody", "--n", "3", "--dim", "2", "--masses", "1,1.7e308,1", "--analyze",
     "--n-random", "0"]])
def test_a_derived_coefficient_a_double_cannot_hold_is_an_error(argv, tmp_path):
    # 10^308 has a double, the first partial's 5*10^308 does not; the mass
    # product 1.7e308 likewise passes, and a Hessian entry's twice it does
    # not.  analyze compiles every kernel it may evaluate before validation,
    # so the refusal does not hang on the starts: with starts the hunt
    # would evaluate gradients first (numpy overflow warnings), and without
    # them it would never compile the Hessians (exit 0)
    big = tmp_path / "big.prob"
    big.write_text("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 10^308*w1^5\n")
    proc = run_cli([a.format(big=big) for a in argv])
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout == ""
    assert proc.stderr == "error: a coefficient is too large for a double\n"


@pytest.mark.parametrize("n_random", ["0", "4"])
def test_darboux_refuses_a_derived_coefficient_before_any_start(n_random, tmp_path, capsys):
    # the second partial's 6*10^308 has no double; as analyze does, the hunt
    # compiles every kernel before its first start, so the refusal does not
    # depend on which kernels the starts reach
    big = tmp_path / "big.prob"
    big.write_text("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 3*10^307*w1^5\n")
    assert main(["darboux", str(big), "--n-random", n_random]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a coefficient is too large for a double\n"


def test_analyze_deterministic_output(cone_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["analyze", str(cone_file), "--n-random", "8",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timings_flag_adds_key(cone_file, capsys):
    code = main(["analyze", str(cone_file), "--n-random", "4", "--timings"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(out["timings"]) == ["darboux", "homogeneity", "spectra", "validate"]


def test_console_entry_point():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert "algpot" in proc.stdout


def test_golden_report_structure(cone_file, trap_file, capsys):
    code = main(["analyze", str(cone_file), "--n-random", "8"])
    cone = json.loads(capsys.readouterr().out)
    assert code == 0
    for key in ("tool", "label", "validation", "homogeneity", "darboux",
                "points", "certificate", "warnings", "exit_code"):
        assert key in cone, key

    code = main(["analyze", str(trap_file), "--n-random", "16"])
    trap = json.loads(capsys.readouterr().out)
    assert code == 0
    assert trap["certificate"]["status"] == "not_applicable"
    assert any("not weighted homogeneous" in w for w in trap["warnings"])
    rejected = trap["darboux"]["rejected"]
    assert any(r.get("in_critical_set") for r in rejected)


# every command that takes the option, and values outside its range
OUT_OF_RANGE = {
    "--seed": (["analyze", "darboux", "nbody"], ["-1"]),
    "--n-random": (["analyze", "darboux", "nbody"], ["-5"]),
}


@pytest.mark.parametrize("option", sorted(OUT_OF_RANGE))
def test_out_of_range_option_is_a_usage_error(option, cone_file, capsys):
    # refused while parsing, before any work: no run under a verdict the
    # option silently changed, no traceback with EXIT_VALIDATION's code
    commands, values = OUT_OF_RANGE[option]
    heads = {"analyze": ["analyze", cone_file], "darboux": ["darboux", cone_file],
             "nbody": ["nbody", "--n", "3", "--analyze"]}
    for command in commands:
        for value in values:
            with pytest.raises(SystemExit) as exc:
                main(heads[command] + [f"{option}={value}"])
            assert exc.value.code == EXIT_USAGE, (command, value)
            assert f"argument {option}: " in capsys.readouterr().err


# a value that its flag cannot parse, as the last argument
MALFORMED = [
    ["check-table", "--k", "3", "--lambda=abc"],
    ["check-table", "--k", "3", "--lambda=nan"],
    ["ve", "--k", "3", "--lambda=1/0"],
    ["nbody", "--n", "3", "--masses=1,x"],
    ["simulate", "CONE", "--p0", "0.1,-0.2", "--q0=0.6,zz"],
    ["simulate", "CONE", "--q0", "0.6,0.8", "--p0=nan,0"],
    ["simulate", "CONE", "--p0", "0.1,-0.2", "--w0", "1", "--q0=0.6+1i,0.8"],
    ["simulate", "CONE", "--q0", "0.6,0.8", "--p0", "0.1,-0.2", "--samples=0"],
    ["simulate", "CONE", "--q0", "0.6,0.8", "--p0", "0.1,-0.2", "--t1=nan"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=[" ".join(a[:1] + a[-1:]) for a in MALFORMED])
def test_malformed_value_is_a_usage_error(argv, cone_file, capsys):
    # refused while parsing, like an out-of-range option: no traceback
    # with EXIT_VALIDATION's code
    option = argv[-1].split("=")[0]
    with pytest.raises(SystemExit) as exc:
        main([cone_file if a == "CONE" else a for a in argv])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {option}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "darboux"])
def test_unusable_seeds_file_is_an_error(command, cone_file, tmp_path, capsys):
    # as with a problem file: EXIT_ERROR and a message, no traceback
    missing = tmp_path / "missing.txt"
    assert main([command, cone_file, "--seeds", str(missing)]) == EXIT_ERROR
    assert "cannot read seeds file" in capsys.readouterr().err
    shape, finite = "not 3 comma-separated numbers", "a number is not finite"
    # the last two rows parse but are not finite, as --q0 refuses them: nan,
    # and a literal that overflows to inf
    for text, line, message in (("0.6,0.8,1.0\nabc,def\n", 2, shape),
                                ("# the cone has N = 3\n0.6,0.8\n", 2, shape),
                                ("nan, 0, 1\n", 1, finite), ("# inf\n1e400, 0, 1\n", 2, finite)):
        bad = tmp_path / "seeds.txt"
        bad.write_text(text)
        assert main([command, cone_file, "--seeds", str(bad)]) == EXIT_ERROR
        assert f"line {line}: {message}" in capsys.readouterr().err


def test_a_far_seed_fails_its_start_without_a_warning(tmp_path):
    # the 1/w1 potential on the cone from a seed whose w1 is 1e154: every
    # residual row passes against the start's infinite bound, and the
    # Hessians that the start's trial computes after them meet an infinite
    # denominator; the start fails, and no RuntimeWarning is printed (one
    # was, and under -W error::RuntimeWarning the command ended in a
    # traceback with exit 1)
    problem, seeds = tmp_path / "pole.prob", tmp_path / "far.txt"
    problem.write_text("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n")
    seeds.write_text("0.5,0.5,1e154\n")
    argv = ["darboux", str(problem), "--seeds", str(seeds), "--n-random", "0"]
    proc = run_cli(argv, env={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["failed_starts"] == 1 and report["n_accepted"] == 0


@pytest.mark.parametrize("argv", [["analyze", "CONE", "--n-random", "2"],
                                  ["check-table", "--k", "3", "--lambda", "1"]])
def test_unwritable_out_is_an_error(argv, cone_file, tmp_path, capsys):
    # as with an unreadable input: EXIT_ERROR and a message naming the path
    out = tmp_path / "missing-dir" / "x.json"
    argv = [str(cone_file) if a == "CONE" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "cannot write output file" in err and str(out) in err


def test_output_is_byte_identical_across_hash_seeds(cone_file):
    # str hashes are salted per process, so a set or dict of names iterated
    # in hash order would change the output from one run to the next
    for argv in (["analyze", cone_file],
                 ["nbody", "--n", "3", "--dim", "2", "--masses", "1,2,3", "--analyze",
                  "--n-random", "4"]):
        first, second = (run_cli(argv, env={"PYTHONHASHSEED": seed}) for seed in ("1", "2"))
        assert first.stderr == second.stderr == "", argv
        assert first.returncode == second.returncode, argv
        assert first.stdout and first.stdout == second.stdout, argv


def test_unwritable_out_exits_without_a_traceback(tmp_path):
    out = tmp_path / "missing-dir" / "x.json"
    proc = run_cli(["check-table", "--k", "3", "--lambda", "1", "--out", str(out)])
    assert proc.returncode == EXIT_ERROR
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr


def _value_flags(command):
    """The flags of a subcommand that take a value."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions if action.nargs != 0
            for flag in action.option_strings}


def test_every_option_flag_is_read_from_option_ranges(cone_setup, capsys):
    options = {"--" + name.replace("_", "-") for name in OPTION_RANGES}
    assert _value_flags("analyze") == options | {"--seeds", "--out"}
    assert _value_flags("nbody") == options | {"--seeds", "--out", "--n", "--dim", "--masses"}
    assert _value_flags("darboux") == options | {"--seeds", "--out"}
    assert _value_flags("check-table") == {"--k", "--lambda", "--out"}
    report, _ = analyze(cone_setup, AnalysisOptions(n_random=0))
    assert set(report["options"]) == set(OPTION_RANGES)
    # the gauge clusters are in each point's spectrum; no option repeats them
    assert "include_gauge" not in vars(AnalysisOptions())
    with pytest.raises(SystemExit) as exc:
        main(["nbody", "--n", "3", "--analyze", "--include-gauge-eigenvalues"])
    assert exc.value.code == EXIT_USAGE
