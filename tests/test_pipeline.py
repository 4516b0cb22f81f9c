"""Pipeline wiring: options reach the stages, one calculus per analysis,
one definition of the version and the exit codes."""

from pathlib import Path

import pytest

import algpot
from algpot import pipeline
from algpot.admissibility import Certificate
from algpot.calculus import PointCalculus, detect_homogeneity, validate
from algpot.cli import main
from algpot.parsing import parse_problem
from algpot.pipeline import AnalysisOptions, analyze

from conftest import CONE_TEXT


def test_on_variety_tol_reaches_the_hunt(cone_setup, monkeypatch):
    seen = []
    solve = pipeline.solve_darboux

    def spy(*args, **kwargs):
        seen.append(kwargs["accept_tol"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_darboux", spy)
    default, _ = analyze(cone_setup, AnalysisOptions(n_random=8))
    strict, _ = analyze(cone_setup, AnalysisOptions(n_random=8, on_variety_tol=1e-30))
    assert seen == [1e-9, 1e-30]
    assert strict["options"]["on_variety_tol"] == 1e-30
    # converged starts stop near 1e-16, not at 1e-30, so most now fail
    assert strict["darboux"]["failed_starts"] > default["darboux"]["failed_starts"]


def test_analyze_builds_one_point_calculus(cone_setup, monkeypatch):
    builds = []
    init = PointCalculus.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointCalculus, "__init__", counting_init)
    analyze(cone_setup, AnalysisOptions(n_random=4))
    assert len(builds) == 1


@pytest.mark.parametrize("text", [CONE_TEXT, "vars q1\next w1 : w1^2\npotential q1^2 + w1\n"])
def test_validate_with_a_shared_calculus_matches_default(text):
    setup = parse_problem(text)
    own = validate(setup, seed=2)
    shared = validate(setup, seed=2, pc=PointCalculus(setup))
    assert own == shared


@pytest.mark.parametrize("text", [CONE_TEXT, "vars q1\next w1 : w1^3 - q1^2\npotential w1 * q1\n"],
                         ids=["cone", "fractional-degree"])
def test_homogeneity_with_a_shared_calculus_matches_default(text):
    setup = parse_problem(text)
    own = detect_homogeneity(setup)
    assert own is not None
    assert detect_homogeneity(setup, pc=PointCalculus(setup)) == own


def test_exit_codes_have_one_definition():
    assert Certificate(status="obstruction").exit_code == pipeline.EXIT_OBSTRUCTION
    for status in ("no_obstruction", "hypotheses_unverified", "not_applicable"):
        assert Certificate(status=status).exit_code == pipeline.EXIT_OK
    assert main(["analyze", "/nonexistent/missing.prob"]) == pipeline.EXIT_ERROR
    assert main(["nbody", "--n", "3", "--dim", "1"]) == pipeline.EXIT_USAGE


def test_version_has_one_definition():
    tomllib = pytest.importorskip("tomllib")
    assert algpot.__version__ == pipeline.TOOL_VERSION
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" in project["project"]["dynamic"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "algpot.pipeline.TOOL_VERSION"
