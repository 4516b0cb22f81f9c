"""Constrained flow: conservation, critical-set stops, homothetic orbits."""

import numpy as np
import pytest

from algpot.calculus import PointCalculus, detect_homogeneity
from algpot.dynamics import homothetic_orbit, integrate
from algpot.nbody import NBodyConfig, build, central_config_seeds
from algpot.parsing import parse_problem

from conftest import CONE_TEXT

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


def test_flow_stops_at_critical_set(cone_setup):
    # aimed straight at the cone apex, where the fiber Jacobian vanishes
    grid = np.linspace(0.0, 2.0, 81)
    traj = integrate(cone_setup, [0.3, 0.0], [-1.0, 0.0], [0.3], grid)
    assert traj.terminated == "critical_set"
    assert "reached the critical set" in traj.message
    assert traj.final.t < 2.0
    assert abs(traj.final.w[0]) < 1e-2


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


def test_homothetic_collapse_truncates(cone_setup):
    hom = detect_homogeneity(cone_setup)
    c = np.array([1.0 / 3.0, 0.0, 1.0 / 3.0])
    grid = np.linspace(0.0, 20.0, 201)
    orb = homothetic_orbit(cone_setup, hom, c, grid, branch=-1)
    # the inward branch reaches the collapse guard before the grid ends
    assert orb.truncated
    assert orb.times[-1] < grid[-1]
