"""Gravitational n-body construction, gauge split, central configurations."""

from fractions import Fraction

import numpy as np
import pytest

from algpot.calculus import PointCalculus, detect_homogeneity
from algpot.darboux import solve_darboux
from algpot.nbody import (NBodyConfig, build, central_config_seeds,
                          pinning_conditions, split_gauge_spectrum)


def test_structure_and_names():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    setup = build(cfg)
    assert list(setup.q_names) == ["q1_1", "q1_2", "q2_1", "q2_2", "q3_1", "q3_2"]
    assert list(setup.w_names) == ["r1_2", "r1_3", "r2_3"]
    assert len(setup.generators) == 3
    assert setup.label == "nbody n=3 dim=2"


def test_potential_value_on_negative_sheet():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    setup = build(cfg)
    pc = PointCalculus(setup)
    pos = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    r = np.array([-1.0, -1.0, -np.sqrt(2.0)])
    x = np.concatenate([pos, r]).astype(complex)
    for g in pc.g_values(x):
        assert abs(g) < 1e-12
    v = pc.potential_value(x)
    assert abs(v - (-2.0 - 1.0 / np.sqrt(2.0))) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        build(NBodyConfig(n=3, dim=1, masses=(1, 1, 1)))
    with pytest.raises(ValueError):
        NBodyConfig(n=1, dim=2, masses=(1,))
    with pytest.raises(ValueError):
        NBodyConfig(n=2, dim=2, masses=(1, 1, 1))
    with pytest.raises(ValueError):
        NBodyConfig(n=2, dim=2, masses=(1, 0))


def test_homogeneity_degree_is_minus_one():
    setup = build(NBodyConfig(n=2, dim=2, masses=(2, 3)))
    hom = detect_homogeneity(PointCalculus(setup))
    assert hom is not None
    assert hom.degree == Fraction(-1)


@pytest.mark.parametrize("masses", [(1, 1), (1, 4)])
def test_two_body_seed_is_darboux(masses):
    cfg = NBodyConfig(n=2, dim=2, masses=masses)
    setup = build(cfg)
    pc = PointCalculus(setup)
    (label, point), = central_config_seeds(cfg)
    assert label == "two-body axis"
    assert np.max(np.abs(pc.darboux_residual(np.asarray(point, dtype=complex)))) < 1e-9


def test_three_body_seeds_are_darboux():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    setup = build(cfg)
    pc = PointCalculus(setup)
    seeds = dict(central_config_seeds(cfg))
    assert set(seeds) == {"equilateral", "collinear"}
    for point in seeds.values():
        assert np.max(np.abs(pc.darboux_residual(np.asarray(point, dtype=complex)))) < 1e-9


def test_equilateral_gauge_split():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    setup = build(cfg)
    pc = PointCalculus(setup)
    seeds = central_config_seeds(cfg)
    A = pinning_conditions(cfg, np.asarray(seeds[0][1]))
    res = solve_darboux(pc, seeds=[pt for _, pt in seeds], n_random=0, linear_conditions=A)
    eq = [r for r in res.accepted if r.start_label == "seed[0]"]
    assert eq, "equilateral seed should polish to an accepted point"
    rep = eq[0]
    split = split_gauge_spectrum(cfg, rep.hessian, np.asarray(rep.point))
    assert split.translation_residual <= 1e-8
    assert split.rotation_residual <= 1e-8
    kinds = {(c.gauge, c.rational, c.multiplicity) for c in split.gauge_clusters}
    assert ("translation", Fraction(0), 2) in kinds
    assert ("rotation", Fraction(1), 1) in kinds
    reduced = sorted(c.rational for c in split.reduced.clusters
                     for _ in range(c.multiplicity))
    assert reduced == [Fraction(-2), Fraction(-1, 2), Fraction(-1, 2)]


def test_pinning_conditions_shape():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    (label, point) = central_config_seeds(cfg)[0]
    A = pinning_conditions(cfg, np.asarray(point))
    # two per-axis center rows plus one planar rotation row; A x = 0
    assert A.shape == (3, 9)
    assert np.allclose(A @ np.asarray(point, dtype=complex).real, 0.0,
                       atol=1e-9)


def test_sigma_detects_collisions():
    cfg = NBodyConfig(n=2, dim=2, masses=(1, 1))
    setup = build(cfg)
    (_, point), = central_config_seeds(cfg)
    pc = PointCalculus(setup)
    assert not pc.near_sigma(np.asarray(point, dtype=complex))
    collided = np.zeros(5, dtype=complex)
    assert pc.near_sigma(collided)
