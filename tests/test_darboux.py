"""Darboux point search: acceptance, rejection reasons, determinism."""

import sys
from pathlib import Path

import numpy as np
import pytest

from algpot.calculus import PointCalculus
from algpot.darboux import _largest, solve_darboux
from algpot.nbody import NBodyConfig, build
from algpot.parsing import parse_problem
from algpot.pipeline import AnalysisOptions, hunt

from residual_reference import unfused_trial

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import corpus  # noqa: E402


def test_cone_circle_points(cone_setup):
    res = solve_darboux(PointCalculus(cone_setup), n_random=24, seed=0)
    assert res.accepted, "cone search found no Darboux points"
    for rep in res.accepted:
        x = np.asarray(rep.point)
        assert not rep.degenerate
        assert rep.grad_residual <= 1e-9
        assert rep.constraint_residual <= 1e-9
        # every Darboux point of w1^3 on the cone sits at height 1/3;
        # the base square is bilinear, not Hermitian, for complex points
        assert abs(x[2] - (1.0 / 3.0)) < 1e-8
        assert abs(np.sum(x[:2] ** 2) - 1.0 / 9.0) < 1e-8
        assert rep.hessian is not None
        assert rep.hessian.shape == (2, 2)


def test_cone_solution_manifold_is_locally_attracting(cone_setup):
    # The solution set is a circle, so points are not isolated; the
    # meaningful invariance is that a small perturbation off the manifold
    # flows back to a nearby solution, not to a far-away one.
    res = solve_darboux(PointCalculus(cone_setup), n_random=8, seed=1)
    base = np.asarray(res.accepted[0].point)
    eps = 1e-4
    rng = np.random.default_rng(7)
    bump = rng.standard_normal(base.shape[0])
    bump *= eps / np.linalg.norm(bump)
    again = solve_darboux(PointCalculus(cone_setup), seeds=[base + bump], n_random=0)
    assert again.accepted
    pulled = np.asarray(again.accepted[0].point)
    assert np.linalg.norm(pulled - (base + bump)) <= 10 * eps


def test_trap_rejections_flag_critical_set(trap_setup):
    res = solve_darboux(PointCalculus(trap_setup), n_random=24, seed=0)
    legit = [r for r in res.accepted
             if abs(np.asarray(r.point)[0] - 0.16) < 1e-6]
    assert legit, "expected the point (4/25, 0, 2/5) to be found"
    x = np.asarray(legit[0].point)
    assert abs(x[1]) < 1e-8
    assert abs(x[2] - 0.4) < 1e-8
    flagged = [r for r in res.rejected if r.sigma_flag]
    assert flagged, "stalled candidates near w=0 should be rejected"
    for rep in flagged:
        assert "critical set" in rep.reason


def test_origin_excluded():
    setup = parse_problem("vars q1\npotential q1^3\n")
    res = solve_darboux(PointCalculus(setup), n_random=16, seed=0)
    assert len(res.accepted) == 1
    assert abs(np.asarray(res.accepted[0].point)[0] - 1.0 / 3.0) < 1e-9
    origin = [r for r in res.rejected if "origin" in r.reason]
    assert origin, "the zero solution must be rejected by name"


def test_degenerate_base_projection():
    # V depends on the fiber alone: gradient equations force q = 0 while
    # the fiber coordinate stays free, producing a degenerate point.
    setup = parse_problem(
        "vars q1\next w1 : w1^2 - q1 - 2\npotential w1^2 + q1^2\n")
    res = solve_darboux(PointCalculus(setup), n_random=16, seed=3)
    degenerate = [r for r in res.accepted if r.degenerate]
    if degenerate:
        for rep in degenerate:
            assert "no spectral verdict" in rep.reason
            assert np.linalg.norm(np.asarray(rep.point)[:1]) < 1e-8


def test_determinism_and_dedup(cone_setup):
    a = solve_darboux(PointCalculus(cone_setup), n_random=24, seed=5)
    b = solve_darboux(PointCalculus(cone_setup), n_random=24, seed=5)
    pa = [tuple(np.asarray(r.point).round(12).tolist()) for r in a.accepted]
    pb = [tuple(np.asarray(r.point).round(12).tolist()) for r in b.accepted]
    assert pa == pb
    # dedup: no two accepted points closer than the dedup radius
    for i in range(len(pa)):
        for j in range(i + 1, len(pa)):
            d = np.linalg.norm(np.asarray(pa[i]) - np.asarray(pa[j]))
            assert d > 1e-6


def test_seed_starts_take_precedence(cone_setup):
    pc = PointCalculus(cone_setup)
    target = np.array([1.0 / 3.0, 0.0, 1.0 / 3.0], dtype=complex)
    res = solve_darboux(pc, seeds=[target], n_random=4, seed=0)
    hit = [r for r in res.accepted if r.start_label == "seed[0]"]
    assert hit, "the explicit seed should be credited for its own solution"
    assert np.linalg.norm(np.asarray(hit[0].point) - target) < 1e-8


def hunts():
    """(calculus, options) of the small corpus and equal-mass 3x2 at hunt seed 0."""
    cases = [(PointCalculus(parse_problem(p.text(), label=p.name)), AnalysisOptions(seed=0))
             for p in corpus()]
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    return cases + [(PointCalculus(build(cfg)), AnalysisOptions(nbody=cfg, seed=0))]


def test_reported_residuals_are_the_reference_rows():
    # each candidate's residuals, accepted or rejected, are the largest of
    # its rows, bit for bit those of the G kernel and the point kernel
    # evaluated apart from the trial kernel that the search reads them from
    entries = 0
    for pc, opt in hunts():
        res = hunt(pc, opt)
        for rep in res.accepted + res.rejected:
            rows, _ = unfused_trial(pc, rep.point.tolist(), np.inf)
            assert rep.grad_residual == _largest(rows[:pc.n])
            assert rep.constraint_residual == _largest(rows[pc.n:])
            entries += 1
    assert entries >= 100  # 65 accepted and 42 rejected


def test_a_candidate_whose_rows_fail_an_infinite_bound_is_a_fault(cone_setup, monkeypatch):
    # every candidate passed a trial at its point, so its rows cannot fail
    # against res = inf; if they do, the search raises rather than report it
    pc = PointCalculus(cone_setup)
    trial = pc.darboux_trial
    calls = []

    def second_call_fails(xs, res):
        calls.append(res)
        return None if len(calls) == 2 else trial(xs, res)

    monkeypatch.setattr(pc, "darboux_trial", second_call_fails)
    with pytest.raises(RuntimeError, match="failed an infinite bound"):
        solve_darboux(pc, seeds=[np.array([1 / 3, 0.0, 1 / 3], dtype=complex)], n_random=0)
    assert calls == [np.inf, np.inf]  # the start converged at once
