"""Gravitational n-body construction, gauge split, central configurations."""

from fractions import Fraction

import numpy as np
import pytest

from algpot.calculus import PointCalculus, detect_homogeneity
from algpot.darboux import solve_darboux
from algpot.expr import RatExpr
from algpot.nbody import (NBodyConfig, build, central_config_seeds, pinning_conditions, q_name,
                          r_name, split_gauge_spectrum)
from algpot.parsing import AlgebraicSetup

from residual_reference import reference_rows


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
    for g in pc._variety_kernel(x)[0]:
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


@pytest.mark.parametrize("masses, why", [
    (("1", "1e400", "1"), "the product of masses 1 and 2 is too large for a double"),
    (("1e-400", "1", "1"), "the product of masses 1 and 2 is too small for a double"),
    # each mass fits a double; the product of the last two does not
    (("1", "1e200", "1e200"), "the product of masses 2 and 3 is too large for a double"),
])
def test_masses_whose_product_a_double_cannot_hold_are_refused(masses, why):
    # the potential's coefficients are the pairwise products m_i m_j, and the
    # kernels evaluate each as its double: inf, or 0, which drops the term
    with pytest.raises(ValueError, match=why):
        NBodyConfig(n=3, dim=2, masses=tuple(Fraction(m) for m in masses))


def test_homogeneity_degree_is_minus_one():
    setup = build(NBodyConfig(n=2, dim=2, masses=(2, 3)))
    hom = detect_homogeneity(setup)
    assert hom is not None
    assert hom.degree == Fraction(-1)


@pytest.mark.parametrize("masses", [(1, 1), (1, 4)])
def test_two_body_seed_is_darboux(masses):
    cfg = NBodyConfig(n=2, dim=2, masses=masses)
    setup = build(cfg)
    pc = PointCalculus(setup)
    (label, point), = central_config_seeds(cfg)
    assert label == "two-body axis"
    assert np.max(np.abs(reference_rows(pc, point))) < 1e-9


def test_three_body_seeds_are_darboux():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    setup = build(cfg)
    pc = PointCalculus(setup)
    seeds = dict(central_config_seeds(cfg))
    assert set(seeds) == {"equilateral", "collinear"}
    for point in seeds.values():
        assert np.max(np.abs(reference_rows(pc, point))) < 1e-9


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


def arithmetic_build(cfg: NBodyConfig) -> AlgebraicSetup:
    """The reference construction: every form by RatExpr arithmetic."""
    q_names = [q_name(i, a) for i in range(cfg.n) for a in range(cfg.dim)]
    w_names = [r_name(i, j) for i, j in cfg.pairs]
    qv = {name: RatExpr.var(name) for name in q_names}
    generators = []
    for i, j in cfg.pairs:
        sq = RatExpr.var(r_name(i, j)) ** 2
        for a in range(cfg.dim):
            d = qv[q_name(i, a)] - qv[q_name(j, a)]
            sq = sq - d * d
        generators.append(sq)
    potential = RatExpr.const(0)
    for i, j in cfg.pairs:
        mm = cfg.masses[i] * cfg.masses[j]
        potential = potential + RatExpr.const(mm) / RatExpr.var(r_name(i, j))
    return AlgebraicSetup(q_names=tuple(q_names), w_names=tuple(w_names),
                          generators=tuple(generators), potential=potential,
                          label=f"nbody n={cfg.n} dim={cfg.dim}")


def test_build_matches_the_arithmetic_construction():
    # term order matters: the kernels sum each form's terms in dict order,
    # so equal items in equal order give equal kernels, bit for bit
    for n in range(2, 8):
        mass_sets = [(1,) * n, tuple(range(1, n + 1)),
                     tuple(Fraction(1, 3) if k % 2 else Fraction(5, 2) for k in range(n))]
        for dim in (2, 3):
            for masses in mass_sets:
                cfg = NBodyConfig(n=n, dim=dim, masses=masses)
                got, want = build(cfg), arithmetic_build(cfg)
                assert got == want, cfg
                for g, w in zip(got.generators + (got.potential,),
                                want.generators + (want.potential,)):
                    assert list(g.num.items()) == list(w.num.items()), cfg
                    assert list(g.den.items()) == list(w.den.items()), cfg
                    assert all(type(c) is Fraction
                               for c in (*g.num.values(), *g.den.values())), cfg
                pc_got, pc_want = PointCalculus(got), PointCalculus(want)
                for kernel in ("_point_kernel", "_hessian_kernel", "_v_kernel"):
                    got_kernel, want_kernel = getattr(pc_got, kernel), getattr(pc_want, kernel)
                    assert (getattr(got_kernel, "kernel", got_kernel).source
                            == getattr(want_kernel, "kernel", want_kernel).source), (cfg, kernel)


def test_build_does_no_rational_arithmetic(monkeypatch):
    operators = {"__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"}
    calls = []
    for name in operators:
        op = getattr(RatExpr, name)
        monkeypatch.setattr(RatExpr, name,
                            lambda *a, _op=op, _name=name: calls.append(_name) or _op(*a))
    for cfg in (NBodyConfig(n=3, dim=2, masses=(1, 2, 3)),
                NBodyConfig(n=5, dim=3, masses=(Fraction(1, 3),) * 5)):
        build(cfg)
    assert calls == []
    # the spies do see arithmetic
    arithmetic_build(NBodyConfig(n=2, dim=2, masses=(1, 1)))
    assert set(calls) == operators
