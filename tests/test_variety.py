"""Variety numerics: fiber Jacobian, critical sets, validation sampling."""

import numpy as np

from algpot import (AnalysisOptions, PointCalculus, RatExpr, analyze, calculus, parse_problem,
                    validate)
from algpot.expr import Array
from algpot.nbody import NBodyConfig, build

from conftest import on_cone
from residual_reference import jacobian, trial_at


def test_cone_fiber_jacobian_is_2w(cone_setup):
    pc = PointCalculus(cone_setup)
    assert pc.det == RatExpr.const(2) * RatExpr.var("w1")
    x = on_cone(0.3, 0.4)
    J = jacobian(pc, x)[2:, 2:]
    assert J.shape == (1, 1)
    assert J[0, 0] == 2 * x[2]


def test_trap_fiber_jacobian_is_2w(trap_setup):
    assert PointCalculus(trap_setup).det == RatExpr.const(2) * RatExpr.var("w1")


def test_critical_set_membership(trap_setup, cone_setup):
    # the trap's ramification line {w1 = q1 = 0} at q2 = 1
    trap = PointCalculus(trap_setup)
    assert trap.near_sigma(np.array([0.0, 1.0, 0.0]))
    assert not trap.near_sigma(np.array([0.25, 1.0, 0.5]))
    # cone apex
    cone = PointCalculus(cone_setup)
    assert cone.near_sigma(np.array([0.0, 0.0, 0.0]))
    assert not cone.near_sigma(on_cone(0.3, 0.4))


def test_sigma_probe_compiles_its_data_once(monkeypatch, compiled):
    pc = PointCalculus(parse_problem("""
vars q1 q2
ext w1 : w1^2 - q1
potential q2/(q2 + w1)
"""))
    # detJ and the denominator are derived on first read, detJ from the
    # generator partials: read both before the spy, so that it sees only
    # the probes' partials
    det, den = pc.det, pc._den
    diffs = []
    diff = RatExpr.diff
    monkeypatch.setattr(RatExpr, "diff", lambda e, v: diffs.append(e) or diff(e, v))
    x = np.array([1.0, 1.0, 1.0])  # on the variety, clear of detJ = 2 w1 and of q2 + w1
    assert not pc.near_sigma(x)
    # detJ's 3 partials, then the denominator's 3, for the one variety
    # kernel: G, dG and both polynomials with their gradients
    assert diffs == [det] * 3 + [den] * 3
    assert [k for _, k in compiled] == [pc._variety_kernel]
    diffs.clear()
    compiled.clear()
    assert not pc.near_sigma(x)
    assert diffs == [] and compiled == []


def test_constant_critical_polynomial_is_decided_by_its_value():
    # G = q1 does not involve w1, so detJ is the constant 0: critical everywhere
    pc = PointCalculus(parse_problem("vars q1\next w1 : q1\npotential w1\n"))
    assert pc.det.constant_value() == 0
    assert pc.near_sigma(np.array([0.0, 5.0]))
    assert not PointCalculus(parse_problem("vars q1\npotential q1^3\n")).near_sigma(np.array([0.0]))


def test_fiber_solver_recovers_branch(cone_setup):
    pc = PointCalculus(cone_setup)
    q = np.array([0.3, 0.4], dtype=complex)
    w = pc.solve_fiber(q, np.array([0.6], dtype=complex))
    assert w is not None
    assert abs(w[0] - 0.5) < 1e-10


def test_each_fiber_and_probe_iteration_evaluates_the_variety_once(monkeypatch, compiled,
                                                                  cone_setup):
    # one call of the variety kernel gives an iteration G, dG, detJ and its
    # gradient: a fiber solve makes one per Newton step and one more for
    # the G that converged; a probe makes one per Gauss-Newton step and
    # one more where it converges, and calls no other kernel
    pc = PointCalculus(cone_setup)
    variety, calls = pc._variety_kernel, []
    monkeypatch.setitem(vars(pc), "_variety_kernel",
                        lambda x: calls.append(x) or variety(x))
    steps, solves = [], []
    for name, log in (("_forward", steps), ("_lstsq", solves)):
        original = getattr(calculus, name)
        monkeypatch.setattr(calculus, name,
                            lambda *args, f=original, log=log: log.append(args) or f(*args))
    w = pc.solve_fiber(np.array([0.3, 0.4]), np.array([3.0]))
    assert abs(w[0] - 0.5) < 1e-10
    assert len(steps) >= 3 and len(calls) == len(steps) + 1
    calls.clear()
    # off the variety, near the apex, where detJ = 2 w1 vanishes
    assert pc.near_critical_set(np.array([1e-5, 2e-5, 5e-5]))
    assert len(solves) >= 2 and len(calls) == len(solves) + 1
    # the variety kernel is the only kernel the calculus has compiled
    assert [k for _, k in compiled] == [variety]


def test_validation_accepts_honest_setups(cone_setup, trap_setup):
    for setup in (cone_setup, trap_setup):
        rep = validate(PointCalculus(setup), seed=0)
        assert rep.ok
        assert rep.primality_assumed


def test_validation_rejects_identically_critical_setup():
    # detJ = 2w1 vanishes on the whole variety {w1 = 0}
    setup = parse_problem("""
vars q1
ext w1 : w1^2
potential q1^2 + w1
""")
    rep = validate(PointCalculus(setup), seed=0)
    assert not rep.ok
    # same story on a non-radical double line w1 = q1: fiber solves stall
    # near the sheet, so the determinant never clears the probe
    double = parse_problem("""
vars q1
ext w1 : w1^2 - 2*w1*q1 + q1^2
potential w1^3
""")
    rep2 = validate(PointCalculus(double), seed=0)
    assert not rep2.ok


def test_validation_reads_distance_not_the_size_of_detj():
    # the cone with w1 scaled by 1e10: detJ = 2 w1 / 1e20 is about 1e-10 at
    # every sample, but no critical point lies within the probe radius
    rescaled = parse_problem("""
vars q1 q2
ext w1 : w1^2/100000000000000000000 - q1^2 - q2^2
potential w1^3
""")
    rep = validate(PointCalculus(rescaled), seed=0)
    assert rep.ok
    assert rep.samples_used == rep.trials
    assert rep.message == ""


def test_validation_is_deterministic(cone_setup):
    a = validate(PointCalculus(cone_setup), seed=3)
    b = validate(PointCalculus(cone_setup), seed=3)
    assert a == b


def test_setup_without_extensions(plain_setup):
    rep = validate(PointCalculus(plain_setup), seed=0)
    assert rep.ok
    assert not PointCalculus(plain_setup).near_sigma(np.array([0.0, 0.0]))


def test_on_variety_points(cone_setup):
    pc = PointCalculus(cone_setup)
    assert pc.constraint_residual(on_cone(1.2, -0.5)) <= 1e-9
    assert pc.constraint_residual(np.array([1.2, -0.5, 2.0])) > 1e-9


def test_each_generator_partial_is_built_once(monkeypatch, compiled):
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1)))
    generator = {id(g): a for a, g in enumerate(setup.generators)}
    partial = {}  # id of a non-zero derivative -> (generator, variable)
    kept = []  # holds the derivatives so their ids are not reused
    diffed = []
    diff = RatExpr.diff

    def spy_diff(self, var):
        out = diff(self, var)
        if id(self) in generator:
            key = (generator[id(self)], var)
            diffed.append(key)
            if not out.is_zero:
                partial[id(out)] = key
                kept.append(out)
        return out

    monkeypatch.setattr(RatExpr, "diff", spy_diff)
    pc = PointCalculus(setup)
    assert diffed == []  # building derives nothing
    q = np.array([1.0, 0.2, -0.5, 0.9, 0.3, -1.1], dtype=complex)
    x = np.concatenate([q, pc.solve_fiber(q, np.ones(3))])
    # the first evaluation derives them all: 3 generators x 9 variables,
    # 15 of the 27 partials non-zero
    assert len(diffed) == len(set(diffed)) == 27
    assert len(partial) == 15
    trial_at(pc, x.tolist(), np.inf)
    jacobian(pc, x)
    pc.grad(x)
    pc.near_sigma(x)
    pc.potential_value(x)
    pc.det_value(x)
    assert len(diffed) == 27
    assert len(compiled) == 5
    # every kernel the calculus has is compiled (a Jacobian compiles none of
    # its own, and grad the point kernel); each non-zero partial was
    # emitted into exactly the three that evaluate the generator Jacobian:
    # the variety kernel, the point kernel and the trial kernel, which
    # evaluates the point kernel's targets (a substitution target reads
    # earlier values and holds no expression)
    def emitted(kernel):
        return sorted(partial[id(e)] for targets, k in compiled if k is kernel for t in targets
                      for e in ([t] if isinstance(t, RatExpr) else
                                [e for e, _ in t.entries] if isinstance(t, Array) else [])
                      if id(e) in partial)
    point, trial = pc._point_kernel.kernel, pc._trial_kernel.kernel
    variety = pc._variety_kernel
    assert emitted(variety) == emitted(point) == emitted(trial) == sorted(partial.values())
    others = [k for _, k in compiled if k not in (variety, point, trial)]
    assert len(others) == 2 and not any(emitted(k) for k in others)
    # a full analysis builds its own calculus and derives each partial once
    diffed.clear()
    analyze(setup, AnalysisOptions(nbody=NBodyConfig(n=3, dim=2, masses=(1, 1, 1)), n_random=2))
    assert len(diffed) == len(set(diffed)) == 27
