"""Darboux point search: acceptance, rejection reasons, determinism."""

import sys
from pathlib import Path

import numpy as np
from algpot import darboux
from algpot.calculus import PointCalculus, _largest
from algpot.darboux import solve_darboux
from algpot.nbody import NBodyConfig, build
from algpot.parsing import parse_problem
from algpot.pipeline import AnalysisOptions, hunt

from residual_reference import hessian, unfused_trial

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


def test_a_seed_near_the_pole_fails_its_start_without_a_warning():
    # the 1/w1 cone from (0.7, 0.7, 1e-160): the gradient's quotient
    # -1/w1^2 overflows before any row is decided, where NumPy's division
    # warned "overflow encountered in scalar divide"; the start fails
    setup = parse_problem("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n")
    res = solve_darboux(PointCalculus(setup), seeds=[np.array([0.7, 0.7, 1e-160], dtype=complex)],
                        n_random=0)
    assert res.failed_starts == 1 and not res.accepted


def hunts():
    """(calculus, options) of the small corpus and equal-mass 3x2 at hunt seed 0."""
    cases = [(PointCalculus(parse_problem(p.text(), label=p.name)), AnalysisOptions(seed=0))
             for p in corpus()]
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    return cases + [(PointCalculus(build(cfg)), AnalysisOptions(nbody=cfg, seed=0))]


def test_reported_residuals_are_the_reference_rows(monkeypatch):
    # no point is evaluated after the search: no trial runs outside
    # _newton (once each candidate's rows and each accepted point's
    # Hessian took one more, 154 on a small-corpus pass and 52 on an
    # nbody-hunt pass), each candidate's residuals, accepted or rejected,
    # are the largest of its rows, bit for bit those of the variety
    # kernel's G and the point kernel evaluated apart from the trial
    # kernel, and each accepted point's Hessian is bit for bit the one
    # that a fresh trial at its point against res = inf gives
    newton, trial = darboux._newton, PointCalculus.darboux_trial
    inside, outside = [False], []

    def counted_newton(*args):
        inside[0] = True
        try:
            return newton(*args)
        finally:
            inside[0] = False

    def counted_trial(pc, xs, res):
        if not inside[0]:
            outside.append(xs)
        return trial(pc, xs, res)

    monkeypatch.setattr(darboux, "_newton", counted_newton)
    monkeypatch.setattr(PointCalculus, "darboux_trial", counted_trial)
    results = [(pc, hunt(pc, opt)) for pc, opt in hunts()]
    monkeypatch.undo()
    assert outside == []
    entries = hessians = 0
    for pc, res in results:
        for rep in res.accepted + res.rejected:
            rows, _ = unfused_trial(pc, rep.point.tolist(), np.inf)
            assert rep.grad_residual == _largest(rows[:pc.n])
            assert rep.constraint_residual == _largest(rows[pc.n:])
            entries += 1
        for rep in res.accepted:
            assert rep.hessian.tobytes() == hessian(pc, rep.point).tobytes()
            hessians += 1
    assert entries >= 100 and hessians >= 60  # 65 accepted and 42 rejected
