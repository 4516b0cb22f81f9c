"""Pipeline wiring: the options and their ranges, one calculus per analysis,
one definition of each setting, the version and the exit codes, and a
certificate that the report's own points determine."""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

import algpot
from algpot import darboux, nbody, pipeline
from algpot.admissibility import Certificate, certify
from algpot.calculus import PointCalculus
from algpot.cli import main
from algpot.parsing import parse_problem
from algpot.pipeline import AnalysisOptions, analyze, report_json


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def test_each_setting_has_one_definition():
    # identity, not equality: a re-typed literal is a second definition
    # (constant, its uses) pairs: equal constants would collide as dict keys
    defaults = [
        (darboux.N_RANDOM, "n_random", [darboux.solve_darboux]),
        (darboux.ACCEPT_TOL, "accept_tol", [darboux.solve_darboux]),
    ]
    for constant, name, funcs in defaults:
        for func in funcs:
            assert _default(func, name) is constant, f"{func.__qualname__}({name})"
    options = {f.name: f.default for f in dataclasses.fields(AnalysisOptions)}
    assert options["n_random"] is darboux.N_RANDOM


# a value outside the range of each numeric option
OUT_OF_RANGE = {"seed": -1, "n_random": -5}


def test_out_of_range_option_is_refused():
    # the library refuses what the CLI refuses
    assert sorted(OUT_OF_RANGE) == sorted(pipeline.OPTION_RANGES)
    for name, value in OUT_OF_RANGE.items():
        with pytest.raises(ValueError, match=f"^{name}="):
            AnalysisOptions(**{name: value})


def test_certificate_is_computed_from_the_report_points():
    cfg = nbody.NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    report, _ = analyze(nbody.build(cfg), AnalysisOptions(nbody=cfg, n_random=0))
    decoded = json.loads(report_json(report))
    k = decoded["homogeneity"]["integer_degree"]
    cert = certify(k, decoded["points"])
    assert cert.status == decoded["certificate"]["status"] == "obstruction"
    recomputed = json.loads(report_json({"status": cert.status, "witnesses": cert.witnesses,
                                         "reasons": cert.reasons}))
    assert recomputed == decoded["certificate"]
    assert [(w["point"], w["multiplicity"]) for w in cert.witnesses] == [(0, 1), (0, 1), (1, 2)]

    # a reader who disputes the table rows of the witnesses disputes the proof
    for w in cert.witnesses:
        point = decoded["points"][w["point"]]
        for row in point["verdicts"]:
            if row["table"] is not None and row["table"]["lambda"] == w["eigenvalue"]:
                row["table"]["matched"] = True
    assert certify(k, decoded["points"]).status == "no_obstruction"


def test_spectrum_reports_its_diagonalizability_margin(cone_setup):
    # V = q1^3 + q2^3 + q3^3 has Darboux points q_i in {0, 1/3}, with
    # Hessian diag(6 q_i): each has a repeated eigenvalue, whose rank is decided
    setup = parse_problem("vars q1 q2 q3\npotential q1^3 + q2^3 + q3^3\n")
    options = AnalysisOptions(n_random=8)
    report, _ = analyze(setup, options)
    assert report["points"]
    for point in report["points"]:
        spec = point["spectrum"]
        assert any(c["multiplicity"] > 1 for c in spec["clusters"])
        assert isinstance(spec["diag_margin"], float) and 1.0 < spec["diag_margin"] < 20
    text = report_json(report)
    assert report_json(analyze(setup, options)[0]) == text
    # the cone's spectrum {1, 2} is simple: no rank decision, no margin
    cone, _ = analyze(cone_setup, options)
    assert cone["points"]
    assert all(p["spectrum"]["diag_margin"] is None for p in cone["points"])
    assert "Infinity" not in report_json(cone)


def test_analyze_builds_one_point_calculus(cone_setup, cone_file, monkeypatch, capsys):
    # the entry point builds the calculus and every stage below it takes it
    builds = []
    init = PointCalculus.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointCalculus, "__init__", counting_init)
    analyze(cone_setup, AnalysisOptions(n_random=4))
    assert len(builds) == 1
    commands = [
        ["analyze", cone_file, "--n-random", "4"],
        ["darboux", cone_file, "--n-random", "4"],
        ["simulate", cone_file, "--q0", "0.6,0.8", "--p0", "0.1,-0.2", "--w0", "1.0",
         "--t1", "0.1", "--samples", "3"],
        ["nbody", "--n", "3", "--dim", "2", "--analyze", "--n-random", "0"],
    ]
    for argv in commands:
        builds.clear()
        main(argv)
        assert len(builds) == 1, argv[0]
    capsys.readouterr()


def test_analyze_takes_the_callers_calculus(cone_setup):
    # one calculus passed for every hunt seed, as the scripts pass theirs,
    # gives the bytes of the calculus analyze builds itself, and is the one
    # the analysis evaluates on
    pc = PointCalculus(cone_setup)
    for seed in (0, 1):
        opt = AnalysisOptions(n_random=4, seed=seed)
        (passed, code), (built, want) = analyze(cone_setup, opt, pc=pc), analyze(cone_setup, opt)
        assert report_json(passed) == report_json(built) and code == want
    assert "_point_kernel" in vars(pc)


def test_analyze_refuses_another_setups_calculus(cone_setup, trap_setup):
    # the trap has the cone's n = 2 and s = 1, so the cone's calculus would
    # analyze the cone in the trap's report without the check
    with pytest.raises(ValueError, match="the PointCalculus of 'cone' was passed for 'trap'"):
        analyze(trap_setup, AnalysisOptions(n_random=0), pc=PointCalculus(cone_setup))


def test_setup_that_fails_validation_ends_the_report(tmp_path, capsys):
    # G = (w1 - q1)^2 has dG/dw1 = 2 (w1 - q1) = 0 on the whole variety
    path = tmp_path / "double.prob"
    path.write_text("vars q1\next w1 : (w1 - q1)^2\npotential w1\n")
    assert main(["analyze", str(path)]) == pipeline.EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    message = ("the critical-set probe found a critical point (detJ = 0) within "
               "the probe radius of every sample; setup rejected")
    assert sorted(report) == ["certificate", "exit_code", "label", "options", "problem",
                              "tool", "validation", "warnings"]
    assert report["validation"] == {"ok": False, "primality_assumed": True, "samples_used": 8,
                                    "trials": 8, "message": message}
    assert report["certificate"] == {"status": "not_applicable", "witnesses": [],
                                     "reasons": ["setup failed validation: " + message]}
    assert report["exit_code"] == pipeline.EXIT_VALIDATION
    assert report["warnings"] == []


def test_non_integer_degree_gets_no_table_verdict():
    # the k = 2/3 problem: homogeneous, with Darboux points, but no integer degree
    setup = parse_problem("vars q1 q2\next w1 : w1^3 - q1^2 - 2*q2^2\n"
                          "potential w1 + q1*q2*w1^-2\n")
    report, code = analyze(setup, AnalysisOptions(n_random=8))
    assert code == pipeline.EXIT_OK
    decoded = json.loads(report_json(report))
    assert decoded["homogeneity"] == {"found": True, "base_weight": 3, "fiber_weights": [2],
                                      "value_weight": 2, "degree": "2/3",
                                      "integer_degree": None}
    assert decoded["warnings"] == ["degree is not an integer; admissibility checks are skipped"]
    assert decoded["points"]
    assert all(row["table"] is None for p in decoded["points"] for row in p["verdicts"])
    assert decoded["certificate"] == {"status": "not_applicable", "witnesses": [],
                                      "reasons": ["no admissible integer degree"]}


def test_exit_codes_have_one_definition(cone_setup, monkeypatch):
    # analyze maps the certificate's status to the exit code
    for status in ("obstruction", "no_obstruction", "hypotheses_unverified", "not_applicable"):
        monkeypatch.setattr(pipeline, "certify",
                            lambda k, points, status=status: Certificate(status=status))
        report, code = analyze(cone_setup, AnalysisOptions(n_random=0))
        expected = pipeline.EXIT_OBSTRUCTION if status == "obstruction" else pipeline.EXIT_OK
        assert code == report["exit_code"] == expected
    assert main(["analyze", "/nonexistent/missing.prob"]) == pipeline.EXIT_ERROR
    assert main(["nbody", "--n", "3", "--dim", "1"]) == pipeline.EXIT_USAGE
    codes = (pipeline.EXIT_OK, pipeline.EXIT_VALIDATION, pipeline.EXIT_ERROR,
             pipeline.EXIT_USAGE, pipeline.EXIT_OBSTRUCTION)
    assert len(set(codes)) == len(codes)


def test_version_has_one_definition():
    tomllib = pytest.importorskip("tomllib")
    assert algpot.__version__ == pipeline.TOOL_VERSION
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" in project["project"]["dynamic"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "algpot.pipeline.TOOL_VERSION"
