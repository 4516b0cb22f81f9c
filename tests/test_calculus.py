"""Implicit derivations on the variety, checked against finite differences
of locally solved branches, plus homogeneity detection."""

from fractions import Fraction

import numpy as np
import pytest

from algpot import PointCalculus, RatExpr, calculus, detect_homogeneity, parse_problem, pipeline
from algpot.nbody import NBodyConfig, build

from conftest import DRAW1_TEXT, on_cone
from residual_reference import hessian, jacobian, reference_rows, trial_values


def branch_value(pc, setup, q, w_seed):
    """Potential value on the branch through w_seed; None off the branch."""
    w = pc.solve_fiber(np.asarray(q, complex), np.asarray(w_seed, complex))
    if w is None:
        return None, None
    x = np.concatenate([np.asarray(q, complex), w])
    return x, w


def random_cone_points(rng, count):
    pts = []
    while len(pts) < count:
        q1, q2 = rng.uniform(0.3, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
        pts.append(on_cone(q1, q2, sign=rng.choice([-1.0, 1.0])))
    return pts


def fd_gradient(setup, pc, x, h=1e-6):
    """Central differences of V along the locally solved branch."""
    n = setup.n
    q = x[:n].real.astype(float)
    w = x[n:]
    grad = np.zeros(n, dtype=complex)
    for k in range(n):
        qp, qm = q.copy(), q.copy()
        qp[k] += h
        qm[k] -= h
        xp, _ = branch_value(pc, setup, qp, w)
        xm, _ = branch_value(pc, setup, qm, w)
        assert xp is not None and xm is not None
        grad[k] = (pc.potential_value(xp) - pc.potential_value(xm)) / (2 * h)
    return grad


def test_gradient_matches_branch_finite_differences(cone_setup):
    pc = PointCalculus(cone_setup)
    rng = np.random.default_rng(7)
    for x in random_cone_points(rng, 20):
        g = pc.grad(x)
        fd = fd_gradient(cone_setup, pc, x)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) <= 1e-6 * scale


def test_gradient_matches_on_trap_branch(trap_setup):
    pc = PointCalculus(trap_setup)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q1 = rng.uniform(0.2, 2.0)
        q2 = rng.uniform(-1.5, 1.5)
        x = np.array([q1, q2, np.sqrt(q1)], dtype=complex)
        g = pc.grad(x)
        fd = fd_gradient(trap_setup, pc, x)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) <= 1e-6 * scale


def test_hessian_matches_gradient_differences(cone_setup):
    pc = PointCalculus(cone_setup)
    rng = np.random.default_rng(13)
    h = 1e-6
    for x in random_cone_points(rng, 10):
        H = hessian(pc, x)
        n = cone_setup.n
        q = x[:n].real.astype(float)
        w = x[n:]
        for k in range(n):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            xp, _ = branch_value(pc, cone_setup, qp, w)
            xm, _ = branch_value(pc, cone_setup, qm, w)
            col = (pc.grad(xp) - pc.grad(xm)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(H))))
            assert np.max(np.abs(H[:, k] - col)) <= 1e-5 * scale


def test_hessian_symmetry(cone_setup, trap_setup):
    rng = np.random.default_rng(17)
    pc = PointCalculus(cone_setup)
    for x in random_cone_points(rng, 10):
        H = hessian(pc, x)
        assert np.max(np.abs(H - H.T)) <= 1e-9 * max(1.0, float(np.max(np.abs(H))))
    pt = PointCalculus(trap_setup)
    for _ in range(10):
        q1 = rng.uniform(0.2, 2.0)
        x = np.array([q1, rng.uniform(-1, 1), np.sqrt(q1)], dtype=complex)
        H = hessian(pt, x)
        assert np.max(np.abs(H - H.T)) <= 1e-9 * max(1.0, float(np.max(np.abs(H))))


def random_trap_points(rng, count):
    return [np.array([q1, rng.uniform(-1.5, 1.5), np.sqrt(q1)], dtype=complex)
            for q1 in rng.uniform(0.2, 2.0, count)]


def test_first_derivative_closed_forms(cone_setup, trap_setup):
    rng = np.random.default_rng(31)
    # d/dq1 of w1^3 on the cone: 3 q1 w1
    pc = PointCalculus(cone_setup)
    for x in random_cone_points(rng, 10):
        q1, _, w1 = x
        expected = 3 * q1 * w1
        assert abs(pc.grad(x)[0] - expected) <= 1e-14 * max(1.0, abs(expected))
    # d/dq2 of w1^5 + q2^2 with w1^2 = q1: the fiber does not move
    pt = PointCalculus(trap_setup)
    for x in random_trap_points(rng, 10):
        assert pt.grad(x)[1] == 2 * x[1]


def test_hessian_closed_forms(trap_setup, plain_setup):
    rng = np.random.default_rng(37)
    pt = PointCalculus(trap_setup)
    for x in random_trap_points(rng, 10):
        H = hessian(pt, x)
        assert H[1, 1] == 2
        assert H[0, 1] == 0
    pp = PointCalculus(plain_setup)
    for x in rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2)):
        H = hessian(pp, x)
        assert H[0, 0] == 2
        assert H[1, 0] == 0


def test_cone_hessian_entries_on_variety(cone_setup):
    pc = PointCalculus(cone_setup)
    rng = np.random.default_rng(29)
    for x in random_cone_points(rng, 6):
        q1, q2, w = x
        H = hessian(pc, x)
        expected = np.array([
            [3 * w + 3 * q1 * q1 / w, 3 * q1 * q2 / w],
            [3 * q1 * q2 / w, 3 * w + 3 * q2 * q2 / w],
        ])
        assert np.max(np.abs(H - expected)) <= 1e-9 * max(1.0, float(np.max(np.abs(H))))


def test_euler_identity_at_darboux_point(cone_setup):
    pc = PointCalculus(cone_setup)
    c = np.array([1 / 3, 0.0, 1 / 3], dtype=complex)
    assert float(np.max(np.abs(reference_rows(pc, c)))) < 1e-14
    H = hessian(pc, c)
    pi = c[:2]
    k = 3
    assert np.max(np.abs(H @ pi - (k - 1) * pi)) <= 1e-8


def test_homogeneity_detection(cone_setup, trap_setup, plain_setup):
    hom = detect_homogeneity(cone_setup)
    assert (hom.d1, tuple(hom.weights), hom.d2) == (1, (1,), 3)
    assert hom.degree == Fraction(3)
    assert hom.integer_degree == 3

    assert detect_homogeneity(trap_setup) is None

    hp = detect_homogeneity(plain_setup)
    assert (hp.d1, hp.d2) == (1, 2)
    assert hp.integer_degree == 2


def test_homogeneity_fractional_degree():
    setup = parse_problem("""
vars q1
ext w1 : w1^3 - q1^2
potential w1 * q1
""")
    hom = detect_homogeneity(setup)
    assert (hom.d1, tuple(hom.weights), hom.d2) == (3, (2,), 5)
    assert hom.degree == Fraction(5, 3)
    assert hom.integer_degree is None


# the cubic x^2 y - y^3/3 over a base that w1^41 covers: weights (41, [2], 123)
LARGE_WEIGHT_TEXT = """
vars q1 q2
ext w1 : w1^41 - q1^2 - q2^2
potential q1^2*q2 - q2^3/3
"""


def test_homogeneity_with_a_large_weight_is_found():
    # scaling a variety point by |a|^41 with |a| up to 1.5 leaves G far from
    # 0 in floating point, so a numeric check of these weights fails
    setup = parse_problem(LARGE_WEIGHT_TEXT)
    assert detect_homogeneity(setup) == calculus.Homogeneity(41, (2,), 123)
    report, code = pipeline.analyze(setup)
    assert code == pipeline.EXIT_OBSTRUCTION
    assert report["certificate"]["status"] == "obstruction"
    hom = report["homogeneity"]
    assert (hom["base_weight"], hom["fiber_weights"], hom["value_weight"],
            hom["integer_degree"]) == (41, [2], 123, 3)


def test_homogeneity_evaluates_nothing(monkeypatch, compiled, cone_setup, plain_setup):
    built = []
    monkeypatch.setattr(calculus.PointCalculus, "__init__",
                        lambda pc, setup: built.append(setup))
    for setup in (cone_setup, plain_setup, build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3))),
                  parse_problem(LARGE_WEIGHT_TEXT)):
        assert detect_homogeneity(setup) is not None
    assert built == [] and compiled == []


def test_homogeneity_canonical_normalization():
    # generator and potential scale with weights (2, 2, 6)/gcd -> (1, 1, 3)
    setup = parse_problem("""
vars q1 q2
ext w1 : w1^2 - q1^2 - q2^2
potential w1^3
""")
    hom = detect_homogeneity(setup)
    from math import gcd
    g = gcd(hom.d1, gcd(abs(hom.d2), *[abs(w) or 1 for w in hom.weights]))
    assert g == 1
    assert hom.d1 > 0


def test_sigma_v_includes_potential_poles():
    pc = PointCalculus(parse_problem("""
vars q1 q2
potential 1/(q1^2 + q2^2)
"""))
    assert pc.near_sigma(np.array([0.0, 0.0]))
    assert not pc.near_sigma(np.array([1.0, 0.0]))
    # an indeterminate 0/0 point counts as inside
    indeterminate = PointCalculus(parse_problem("""
vars q1 q2
potential q1/(q1^2 + q2^2)
"""))
    assert indeterminate.near_sigma(np.array([0.0, 0.0]))
    assert not indeterminate.near_sigma(np.array([1.0, 0.0]))


def test_sigma_v_on_trap_line(trap_setup):
    pc = PointCalculus(trap_setup)
    assert pc.near_sigma(np.array([0.0, 1.0, 0.0]))
    assert not pc.near_sigma(np.array([4 / 25, 0.0, 2 / 5]))


def test_sigma_probe_catches_stalled_candidates(trap_setup):
    pc = PointCalculus(trap_setup)
    stalled = np.array([9e-14, 0.0, 3e-7], dtype=complex)
    # pointwise determinant test is too weak here: |detJ| exceeds 1e-8, a
    # yardstick for "numerically singular"
    assert abs(pc.det_value(stalled)) > 1e-8
    assert pc.near_sigma(stalled)
    legit = np.array([4 / 25, 0.0, 2 / 5], dtype=complex)
    assert not pc.near_sigma(legit)


def test_gradient_raises_on_critical_fiber(trap_setup):
    from algpot import CriticalPointError
    pc = PointCalculus(trap_setup)
    with pytest.raises(CriticalPointError):
        pc.grad(np.array([0.0, 1.0, 0.0], dtype=complex))


def test_kernels_compile_on_first_use_only(monkeypatch, compiled):
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 2, 3))
    setup = build(cfg)
    pc = PointCalculus(setup)
    assert compiled == []  # building generates no code
    rng = np.random.default_rng(3)
    x = rng.standard_normal(pc.N) + 1j * rng.standard_normal(pc.N)
    jacobian(pc, x)
    pc.grad(x)
    kernels = [pc._trial_kernel.kernel, pc._point_kernel.kernel]
    assert [k for _, k in compiled] == kernels
    jacobian(pc, x + 0.1)
    pc.hess(trial_values(pc, x))
    pc.grad(x + 0.1)
    assert len(compiled) == 2
    # a full analyze builds one PointCalculus and compiles each kernel it
    # uses once: two of the five cached ones, the variety kernel (which
    # gives the probes detJ and the potential's denominator) and the
    # Darboux search's trial kernel, which gives its Jacobians and each
    # candidate's Hessian their values; not detJ's, which only the flow's
    # stop events read, nor the potential value's, which only the flow's
    # energy reads, nor the point kernel, whose values the trial kernel
    # gives too
    built = []
    monkeypatch.setattr(pipeline, "PointCalculus",
                        lambda s: built.append(PointCalculus(s)) or built[-1])
    compiled.clear()
    report, _ = pipeline.analyze(setup, pipeline.AnalysisOptions(nbody=cfg, n_random=8))
    assert report["darboux"]["n_accepted"] > 0  # so near_sigma probed both polynomials
    (used,) = built
    held = [getattr(v, "kernel", v) for k, v in vars(used).items() if k.endswith("_kernel")]
    assert len(held) == 2 and used._trial_kernel.kernel in held
    assert "_det_kernel" not in vars(used) and "_v_kernel" not in vars(used)
    assert "_point_kernel" not in vars(used)
    assert sorted(id(k) for _, k in compiled) == sorted(map(id, held))


# the symbolic tables a PointCalculus derives on first use
TABLES = ("_vgrad", "_vhess", "_ggrad", "_ghess", "det", "_den")


def test_building_a_calculus_derives_nothing(monkeypatch):
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3)))
    diffs = []
    diff = RatExpr.diff
    monkeypatch.setattr(RatExpr, "diff", lambda e, v: diffs.append(e) or diff(e, v))
    pc = PointCalculus(setup)
    assert diffs == []
    assert not set(TABLES) & set(vars(pc))


def cofactor_det(M: list) -> RatExpr:
    """Determinant by cofactor expansion along the first row, skipping zero
    entries: how detJ was once derived, for any square J."""
    m = len(M)
    if m == 0:
        return RatExpr.const(1)
    if m == 1:
        return M[0][0]
    acc = None
    sign = 1
    for j in range(m):
        e = M[0][j]
        if e.is_zero:
            sign = -sign
            continue
        term = e * cofactor_det([[row[jj] for jj in range(m) if jj != j] for row in M[1:]])
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    return acc if acc is not None else RatExpr.const(0)


def eager_tables(setup) -> dict:
    """The six tables as the constructor once derived them, in its order."""
    order = setup.var_names
    V = setup.potential
    vgrad = [V.diff(v) for v in order]
    ggrad = [[g.diff(v) for v in order] for g in setup.generators]
    return {"_vgrad": vgrad, "_vhess": calculus._hessian_entries(vgrad, order),
            "_ggrad": ggrad, "_ghess": [calculus._hessian_entries(r, order) for r in ggrad],
            "det": cofactor_det([row[setup.n:] for row in ggrad]),
            "_den": RatExpr(dict(V.den), {(): Fraction(1)})}


def layout(table):
    """The table with each expression as its numerator's and denominator's
    terms in dict order, which sets a kernel's summation order."""
    if isinstance(table, RatExpr):
        return list(table.num.items()), list(table.den.items())
    if isinstance(table, (list, tuple)):
        return [layout(t) for t in table]
    return table


def test_lazy_tables_equal_the_eager_expressions(cone_setup, trap_setup, plain_setup):
    # detJ is the product of J's diagonal: the same expression, term for
    # term, as the cofactor expansion, also where J has an entry below its
    # diagonal (draw1) or a zero diagonal entry (detJ = 0)
    setups = [cone_setup, trap_setup, plain_setup,
              parse_problem("vars q1 q2\next w1 : w1^2 - q1\npotential q2/(q2 + w1)\n"),
              build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3))),
              build(NBodyConfig(n=4, dim=2, masses=(1, 1, 1, 1))), parse_problem(DRAW1_TEXT),
              parse_problem("vars q1 q2\next w1 : q1\next w2 : w2^2 - w1\npotential w2\n")]
    for setup in setups:
        pc = PointCalculus(setup)
        # read in another order than the constructor derived them
        lazy = {name: getattr(pc, name) for name in reversed(TABLES)}
        for name, table in eager_tables(setup).items():
            assert lazy[name] == table, (setup.label, name)
            assert layout(lazy[name]) == layout(table), (setup.label, name)
