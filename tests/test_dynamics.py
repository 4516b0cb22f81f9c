"""Constrained flow: conservation, critical-set stops, homothetic orbits."""

import numpy as np
import pytest

from algpot import calculus
from algpot.calculus import PointCalculus, detect_homogeneity
from algpot.dynamics import CriticalSetError, ConstrainedSystem, homothetic_orbit, integrate
from algpot.expr import ExprError, RatExpr
from algpot.nbody import NBodyConfig, build, central_config_seeds
from algpot.parsing import AlgebraicSetup, parse_problem
from algpot.pipeline import AnalysisOptions, hunt

from closure_reference import reference_compile
from conftest import CONE_TEXT, DRAW1_TEXT, PLAIN_TEXT, TRAP_TEXT

T_GRID = np.linspace(0.0, 1.0, 41)

CONE_Q0 = np.array([0.6, 0.8])
CONE_P0 = np.array([0.1, -0.2])
CONE_W0 = np.array([1.0])


def test_cone_conservation(cone_setup):
    traj = integrate(cone_setup, CONE_Q0, CONE_P0, CONE_W0, T_GRID)
    assert traj.terminated == "completed"
    assert traj.energy_drift <= 1e-9
    assert traj.max_constraint_residual <= 1e-7


def test_cone_projection_pins_constraint(cone_setup):
    traj = integrate(cone_setup, CONE_Q0, CONE_P0, CONE_W0, T_GRID,
                     project=True)
    assert traj.terminated == "completed"
    assert traj.max_constraint_residual <= 1e-12


def test_time_reversal(cone_setup):
    fwd = integrate(cone_setup, CONE_Q0, CONE_P0, CONE_W0, T_GRID)
    end = fwd.final
    back = integrate(cone_setup, end.q, -np.asarray(end.p), end.w, T_GRID)
    ret = back.final
    assert np.linalg.norm(np.asarray(ret.q) - CONE_Q0) <= 1e-7
    assert np.linalg.norm(np.asarray(ret.p) + CONE_P0) <= 1e-7


def test_a_calculus_of_another_setup_is_refused(cone_setup, trap_setup):
    # the trap has the cone's n = 2 and s = 1, so the cone's calculus would
    # run the cone's flow from the trap's state without this check
    cone_pc = PointCalculus(cone_setup)
    with pytest.raises(ValueError, match="'cone' was passed for 'trap'"):
        integrate(trap_setup, [0.0, 1.0], [0.0, 0.0], [0.0], T_GRID, pc=cone_pc)
    hom = detect_homogeneity(cone_setup)
    c = np.array([1.0 / 3.0, 0.0, 1.0 / 3.0])
    with pytest.raises(ValueError, match="'cone' was passed for 'trap'"):
        homothetic_orbit(trap_setup, hom, c, T_GRID, pc=cone_pc)
    # every 3x2 n-body setup has the label 'nbody n=3 dim=2', so the message
    # says that the labels agree rather than name one label twice
    equal_pc = PointCalculus(build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1))))
    unequal = build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3)))
    same_label = ("the PointCalculus passed for 'nbody n=3 dim=2' was built for a "
                  "different setup with the same label")
    with pytest.raises(ValueError, match=same_label):
        integrate(unequal, np.zeros(6), np.zeros(6), np.zeros(3), T_GRID, pc=equal_pc)
    with pytest.raises(ValueError, match=same_label):
        homothetic_orbit(unequal, detect_homogeneity(equal_pc.setup), np.zeros(9), T_GRID,
                         pc=equal_pc)
    # an equal setup, parsed again, shares the calculus
    again = parse_problem(CONE_TEXT, label="cone")
    traj = integrate(again, CONE_Q0, CONE_P0, CONE_W0, T_GRID[:3], pc=cone_pc)
    assert traj.terminated == "completed"


def test_an_off_variety_start_is_corrected_onto_the_fiber(cone_setup):
    # |G(q0, w0)| = 0.39: the flow starts from w0 = 0.8, on the variety
    traj = integrate(cone_setup, [0.8, 0.0], [0.0, 1.0], [0.5], T_GRID)
    assert traj.terminated == "completed"
    assert abs(traj.samples[0].w[0] - 0.8) <= 1e-12
    assert traj.samples[0].constraint_residual <= 1e-12
    assert traj.max_constraint_residual <= 1e-7


def test_an_uncorrectable_start_is_refused(cone_setup):
    # w0 = 0 sits on the cone's critical set dG/dw = 2 w1 = 0, so Newton
    # cannot move it
    with pytest.raises(ValueError, match=r"max \|G\(q0, w0\)\| = 0\.64"):
        integrate(cone_setup, [0.8, 0.0], [0.0, 1.0], [0.0], T_GRID)


def test_a_start_on_the_variety_is_unchanged(cone_setup):
    # |G| = 2e-14 <= FIBER_TOL: the start is taken bit for bit, not corrected
    w0 = 1.0 + 1e-14
    traj = integrate(cone_setup, CONE_Q0, CONE_P0, [w0], T_GRID[:3])
    assert traj.samples[0].w[0] == w0
    assert list(traj.samples[0].q) == list(CONE_Q0)


def test_the_flow_derives_no_hessian_table(cone_setup):
    pc = PointCalculus(cone_setup)
    integrate(cone_setup, CONE_Q0, CONE_P0, CONE_W0, T_GRID[:5], pc=pc)
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    setup = build(cfg)
    three = PointCalculus(setup)
    c = np.asarray(central_config_seeds(cfg)[0][1])
    homothetic_orbit(setup, detect_homogeneity(setup), c, T_GRID[:5], pc=three)
    for used in (pc, three):
        assert "_vgrad" in vars(used) and "_ggrad" in vars(used)
        assert "_vhess" not in vars(used) and "_ghess" not in vars(used)


def test_start_inside_critical_set(trap_setup):
    traj = integrate(trap_setup, [0.0, 1.0], [0.0, 0.0], [0.0], T_GRID)
    assert traj.terminated == "critical_set"
    assert len(traj.samples) == 1
    assert "initial point" in traj.message
    # the reason is the field's own: J = 2 w1 = 0 there
    assert "dG/dw is singular" in traj.message


def test_flow_stops_at_critical_set(cone_setup):
    # aimed straight at the cone apex, where the fiber Jacobian vanishes
    grid = np.linspace(0.0, 2.0, 81)
    traj = integrate(cone_setup, [0.3, 0.0], [-1.0, 0.0], [0.3], grid)
    assert traj.terminated == "critical_set"
    assert "reached the critical set" in traj.message
    assert "det J changed sign" in traj.message
    assert traj.final.t < 2.0
    assert abs(traj.final.w[0]) < 1e-2


# the cone with w1 scaled up by 1e10: the same flow, with det J = 2 w1 / 1e20
BIG_CONE_TEXT = """\
vars q1 q2
ext w1 : w1^2/10^20 - q1^2 - q2^2
potential w1^3/10^30
"""


def test_the_stop_does_not_depend_on_scale(cone_setup):
    # |det J| = 2e-10 at the start: an absolute |det J| threshold of 1e-8
    # refused this start as critical, though the field is defined there
    unit = integrate(cone_setup, CONE_Q0, CONE_P0, CONE_W0, T_GRID)
    big = integrate(parse_problem(BIG_CONE_TEXT), CONE_Q0, CONE_P0, 1e10 * CONE_W0, T_GRID)
    assert big.terminated == unit.terminated == "completed"
    assert len(big.samples) == len(unit.samples)
    for a, b in zip(unit.samples, big.samples):
        assert np.max(np.abs(a.q - b.q)) <= 1e-9 and np.max(np.abs(a.p - b.p)) <= 1e-9
        assert abs(b.w[0] - 1e10 * a.w[0]) <= 1e-9 * 1e10 * abs(a.w[0])


# equal-mass 3x2, bodies 1 and 2 head on and body 3 far off: r12 = -2 and
# r13 = r23 = -26^(1/2), which Newton reaches from w0's -5.1
HEAD_ON = ([-1.0, 0.0, 1.0, 0.0, 0.0, 5.0], [0.3, 0.0, -0.3, 0.0, 0.0, 0.0],
           [-2.0, -5.1, -5.1])


def test_a_solver_failure_ends_the_trajectory():
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1)))
    traj = integrate(setup, *HEAD_ON, np.linspace(0.0, 5.0, 2))
    assert traj.terminated == "solver_failed"
    assert "Required step size" in traj.message
    # a last sample where the integrator stopped, at the collision
    assert len(traj.samples) == 2
    assert abs(traj.final.t - 1.419) <= 1e-3
    assert abs(traj.final.w[0]) <= 1e-2


@pytest.mark.xfail(strict=True, reason="the flow steps over a collision: r12 touches 0 "
                                       "without a sign change, so det J never changes sign")
def test_a_collision_is_not_passed_through():
    # the head-on start sampled finely: the integrator does not give up, and
    # bodies 1 and 2 pass through each other with energy drift 2.5e-5
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1)))
    traj = integrate(setup, *HEAD_ON, np.linspace(0.0, 5.0, 33))
    assert traj.terminated != "completed" or traj.energy_drift <= 1e-8


def test_homothetic_cone(cone_setup):
    hom = detect_homogeneity(cone_setup)
    assert hom is not None
    c = np.array([1.0 / 3.0, 0.0, 1.0 / 3.0])
    orb = homothetic_orbit(cone_setup, hom, c, T_GRID)
    assert not orb.truncated
    assert abs(orb.expected_hamiltonian - 1.0 / 9.0) < 1e-12
    assert np.max(np.abs(orb.hamiltonian - orb.expected_hamiltonian)) <= 1e-8
    assert orb.eq_residual <= 1e-8
    assert orb.constraint_residual <= 1e-8


def test_homothetic_two_body():
    cfg = NBodyConfig(n=2, dim=2, masses=(1, 1))
    setup = build(cfg)
    hom = detect_homogeneity(setup)
    assert hom is not None
    assert hom.degree == -1
    label, c = central_config_seeds(cfg)[0]
    assert label == "two-body axis"
    orb = homothetic_orbit(setup, hom, np.asarray(c), T_GRID)
    assert np.max(np.abs(orb.hamiltonian - orb.expected_hamiltonian)) <= 1e-8
    assert orb.eq_residual <= 1e-8


def test_homothetic_orbit_refuses_degree_zero():
    # V = q1/q2 is homogeneous of degree 0, which has no standard section,
    # as a degree that is too small has none
    setup = parse_problem("vars q1 q2\npotential q1/q2\n")
    hom = detect_homogeneity(setup)
    assert (hom.d1, hom.weights, hom.d2) == (1, (), 0)
    with pytest.raises(ValueError, match="degree 0"):
        homothetic_orbit(setup, hom, np.array([1.0, 1.0]), T_GRID)


def test_homothetic_collapse_truncates(cone_setup):
    hom = detect_homogeneity(cone_setup)
    c = np.array([1.0 / 3.0, 0.0, 1.0 / 3.0])
    grid = np.linspace(0.0, 20.0, 201)
    orb = homothetic_orbit(cone_setup, hom, c, grid, branch=-1)
    # the inward branch reaches the collapse guard before the grid ends
    assert orb.truncated
    assert orb.times[-1] < grid[-1]


# ---------------------------------------------------------------------------
# the vector field by triangular substitution
# ---------------------------------------------------------------------------

POLE_TEXT = """\
vars q1 q2
ext w1 : w1^2 - q1^2 - q2^2
potential 1/w1
"""

FIELD_SETUPS = {
    "cone": lambda: parse_problem(CONE_TEXT),
    "trap": lambda: parse_problem(TRAP_TEXT),
    "pole": lambda: parse_problem(POLE_TEXT),
    "draw1": lambda: parse_problem(DRAW1_TEXT),
    "nbody-3x2-m123": lambda: build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3))),
    "nbody-4x2": lambda: build(NBodyConfig(n=4, dim=2, masses=(1, 1, 1, 1))),
}


def real_states(pc, count, seed):
    """Real states (q, p, w) on pc's variety: random q and p, w by Newton on
    the fiber from a random real start, which keeps it real."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(50 * count):
        q = rng.uniform(-1.5, 1.5, pc.n)
        w0 = rng.choice([-1.0, 1.0], pc.s) * rng.uniform(0.5, 2.0, pc.s)
        w = pc.solve_fiber(q.astype(complex), w0.astype(complex))
        if w is not None:
            assert not w.imag.any()
            states.append(np.concatenate([q, rng.standard_normal(pc.n), w.real]))
        if len(states) == count:
            return states
    raise AssertionError("too few real variety points")


def reference_field(pc, y):
    """(p, -(d_qV - B^T J^-T d_wV), -J^-1 B p) by NumPy's solve."""
    n = pc.n
    q, p, w = y[:n], y[n:2 * n], y[2 * n:]
    x = np.concatenate([q, w]).astype(complex)
    _, dG = pc._variety_kernel(x)[:2]
    vg = np.array([reference_compile(e, pc.setup.var_names)(x) for e in pc._vgrad])
    J, B = dG[:, n:], dG[:, :n]
    grad = vg[:n] - B.T @ np.linalg.solve(J.T, vg[n:])
    wdot = -np.linalg.solve(J, B @ p)
    return np.concatenate([p, -grad.real, wdot.real])


@pytest.mark.parametrize("name", list(FIELD_SETUPS))
def test_rhs_matches_the_numpy_reference(name):
    pc = PointCalculus(FIELD_SETUPS[name]())
    system = ConstrainedSystem(pc)
    for y in real_states(pc, 12, seed=5):
        got, ref = system.rhs(0.0, y), reference_field(pc, y)
        assert got.shape == ref.shape and got.dtype == float
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rhs_without_extension_variables():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    plain = ConstrainedSystem(PointCalculus(parse_problem(PLAIN_TEXT)))
    assert list(plain.rhs(0.0, y)) == [3.0, 4.0, -2.0, -4.0]
    # a constant potential: no structurally non-zero entry at all
    free = ConstrainedSystem(PointCalculus(parse_problem("vars q1 q2\npotential 1\n")))
    assert list(free.rhs(0.0, y)) == [3.0, 4.0, 0.0, 0.0]


def test_rhs_evaluates_one_kernel_and_solves_nothing(monkeypatch):
    pc = PointCalculus(FIELD_SETUPS["draw1"]())
    system = ConstrainedSystem(pc)
    point = pc._point_kernel
    states = real_states(pc, 4, seed=1)
    calls = []

    def counted(x):
        calls.append(x)
        return point.kernel(x)

    def counted_list(xs):
        calls.append(xs)
        return point.kernel.on_list(xs)

    counted.on_list = counted_list

    def refused(*args, **kwargs):
        raise AssertionError("the flow made a linear solve")

    monkeypatch.setitem(vars(pc), "_point_kernel", point._replace(kernel=counted))
    for name in ("_forward", "_lstsq", "zgelsy"):
        monkeypatch.setattr(calculus, name, refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    for method in ("first_derivatives", "grad", "_dg_blocks", "_variety_kernel"):
        monkeypatch.setattr(pc, method, refused)
    for y in states:
        calls.clear()
        system.rhs(0.0, y)
        assert len(calls) == 1


def test_rhs_refuses_the_critical_set_a_pole_and_a_non_finite_state():
    cone = ConstrainedSystem(PointCalculus(parse_problem(CONE_TEXT)))
    apex = np.array([0.0, 0.0, 0.3, -0.1, 0.0])  # J = 2 w1 = 0
    with pytest.raises(CriticalSetError, match="singular or not finite"):
        cone.rhs(0.0, apex)
    pole = ConstrainedSystem(PointCalculus(parse_problem(POLE_TEXT)))
    with pytest.raises(CriticalSetError, match=r"evaluation at a pole: denominator \(w1"):
        pole.rhs(0.0, apex)
    y = np.array([0.6, 0.8, 0.1, -0.2, 1.0])
    for i, bad in ((0, np.nan), (4, np.inf), (4, np.nan), (2, np.nan), (3, -np.inf)):
        state = y.copy()
        state[i] = bad
        with pytest.raises(CriticalSetError, match="not finite"):
            cone.rhs(0.0, state)


def test_the_flow_kernel_refuses_an_entry_above_the_diagonal_of_J():
    # parse_problem lets a generator use only the names declared before it;
    # built by hand, w1's generator uses w2.  Every numeric path reads J
    # through one checked table, so the flow, the Darboux numerics, the
    # hunt and the critical-set probe refuse the setup alike, on every call
    q1, w1, w2 = RatExpr.var("q1"), RatExpr.var("w1"), RatExpr.var("w2")
    setup = AlgebraicSetup(q_names=("q1",), w_names=("w1", "w2"),
                           generators=(w1 - w2 * q1, w2 * w2 - q1), potential=w1 * w2,
                           label="upper")
    pc = PointCalculus(setup)
    x = np.array([1.0, 1.0, 1.0], dtype=complex)
    refused = "the generator of w1 depends on w2, declared after it"
    for _ in range(2):
        with pytest.raises(ValueError, match=refused):
            pc._point_kernel
        with pytest.raises(ValueError, match=refused):
            pc.first_derivatives(x)
        with pytest.raises(ValueError, match=refused):
            pc.det
        with pytest.raises(ValueError, match=refused):
            pc.solve_fiber(x[:1], x[1:])
        with pytest.raises(ValueError, match=refused):
            hunt(pc, AnalysisOptions(n_random=2))
        with pytest.raises(ValueError, match=refused):
            integrate(setup, [1.0], [0.0], [1.0, 1.0], T_GRID)


def test_the_flow_kernel_refuses_a_coefficient_without_a_double():
    # 10^308 has a double; the first partial's 5*10^308 does not
    big = parse_problem("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 10^308*w1^5\n")
    with pytest.raises(ExprError, match="too large for a double"):
        PointCalculus(big)._point_kernel


def lagrange_state(angle):
    """The equal-mass Lagrange triangle, side 3^(1/3), turning at unit rate."""
    t = angle + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    q = 3.0 ** (1.0 / 3.0) / np.sqrt(3.0) * np.stack([np.cos(t), np.sin(t)], axis=1)
    p = np.stack([-q[:, 1], q[:, 0]], axis=1)
    r = [-np.linalg.norm(q[i] - q[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return q.ravel(), p.ravel(), np.array(r)


def test_a_lagrange_turn_and_a_draw1_flow():
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1)))
    q0, p0, w0 = lagrange_state(0.3)
    turn = integrate(setup, q0, p0, w0, np.linspace(0.0, 2 * np.pi, 9))
    assert turn.terminated == "completed"
    assert turn.energy_drift <= 1e-8 and turn.max_constraint_residual <= 1e-7
    # after one turn the triangle is back where it started
    assert np.max(np.abs(turn.final.q - q0)) <= 1e-6
    draw1 = integrate(parse_problem(DRAW1_TEXT), [0.5, 0.3], [0.0, 0.0], [1.0, 1.5],
                      np.linspace(0.0, 0.5, 11))
    assert draw1.terminated == "completed"
    assert draw1.energy_drift <= 1e-8 and draw1.max_constraint_residual <= 1e-7
