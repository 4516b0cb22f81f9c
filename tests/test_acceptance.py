"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; without -s they appear in the captured output of failing tests.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from algpot.calculus import PointCalculus, detect_homogeneity
from algpot.darboux import solve_darboux
from algpot.dynamics import homothetic_orbit, integrate
from algpot.expr import RatExpr
from algpot.admissibility import check_pair
from algpot.nbody import (NBodyConfig, build, central_config_seeds,
                          pinning_conditions)
from algpot.pipeline import AnalysisOptions, analyze, report_json
from algpot.varode import build_ve, monodromy_report

from residual_reference import hessian
from table_reference import SPECIAL_ROWS


@contextmanager
def criterion(num, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {label}")
        raise
    print(f"[criterion {num:2d}] PASS  {label}  ({time.monotonic() - t0:.2f}s)")


# --------------------------------------------------------------- criterion 1

def test_criterion_1_cone_pipeline(cone_setup):
    with criterion(1, "full pipeline on the cone potential"):
        t0 = time.monotonic()
        report, code = analyze(cone_setup, AnalysisOptions(n_random=24))
        elapsed = time.monotonic() - t0

        hom = report["homogeneity"]
        assert hom["found"]
        assert hom["base_weight"] == 1
        assert hom["fiber_weights"] == [1]
        assert hom["value_weight"] == 3
        assert hom["integer_degree"] == 3

        assert report["points"], "no Darboux points found"
        seen_p = set()
        for entry in report["points"]:
            x = np.asarray(entry["point"])
            assert not entry["degenerate"]
            assert abs(x[2] - 1.0 / 3.0) < 1e-8
            assert abs(np.sum(x[:2] ** 2) - 1.0 / 9.0) < 1e-8
            rats = sorted(c["rational"] for c in entry["spectrum"]["clusters"])
            assert rats == [Fraction(1), Fraction(2)]
            for row in entry["verdicts"]:
                table = row["table"]
                assert table["matched"] is True
                for w in table["witnesses"]:
                    if w["row"] == "case (i)":
                        seen_p.add(w["p"])
        assert {1, -1} <= seen_p

        assert report["certificate"]["status"] == "no_obstruction"
        assert code == 0
        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 2

P_RANGE = 10 ** 4
A_BOUND = 200


def brute_admissible_a(k):
    """All a with |a| <= A_BOUND such that a/24 sits in some row of the
    reference table, found by enumerating p in [-P_RANGE, P_RANGE] over
    every applicable row.  Values are scaled by 24 so family arithmetic
    stays in integers."""
    if k in (2, -2):
        return None  # wildcard rows admit every value
    hits = set()
    for p in range(-P_RANGE, P_RANGE + 1):
        a_fam = 12 * p * (p * k + k - 2)
        if -A_BOUND <= a_fam <= A_BOUND:
            hits.add(a_fam)
        num = 12 * (p * k + k - 1) * (p * k + 1)
        if num % k == 0 and -A_BOUND <= num // k <= A_BOUND:
            hits.add(num // k)
    for A, B, C, D in SPECIAL_ROWS.get(k, ()):
        for p in range(-P_RANGE, P_RANGE + 1):
            val = 24 * (A + B * (C + D * p) ** 2)
            if val.denominator == 1 and -A_BOUND <= val <= A_BOUND:
                hits.add(int(val))
    return hits


def test_criterion_2_table_vs_enumeration():
    with criterion(2, "exact table check vs brute-force enumeration"):
        t0 = time.monotonic()
        disagreements = []
        for k in range(-6, 7):
            if k == 0:
                continue
            brute = brute_admissible_a(k)
            for a in range(-A_BOUND, A_BOUND + 1):
                want = True if brute is None else (a in brute)
                got = check_pair(k, Fraction(a, 24)).matched
                if got != want:
                    disagreements.append((k, a, got, want))
        elapsed = time.monotonic() - t0
        assert not disagreements, disagreements[:10]
        assert elapsed < 60.0, f"enumeration took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 3

def test_criterion_3_trivial_eigenvalue_law():
    with criterion(3, "k-1 is admissible for every degree"):
        for k in range(-50, 51):
            if k == 0:
                continue
            verdict = check_pair(k, Fraction(k - 1))
            assert verdict.matched, f"k={k}"
            if k not in (2, -2):
                assert any(w.case == "case (i)" and w.p == 1
                           for w in verdict.witnesses), f"k={k}"


# --------------------------------------------------------------- criterion 4

def test_criterion_4_ramification_guard(trap_setup):
    with criterion(4, "ramified candidates rejected; orbit stops at the "
                      "critical set"):
        res = solve_darboux(PointCalculus(trap_setup), n_random=24, seed=0)
        stalled = [r for r in res.rejected if r.sigma_flag]
        assert stalled, "no candidates were pulled toward w=0"
        for rep in stalled:
            x = np.asarray(rep.point)
            assert abs(x[0]) < 1e-3 and abs(x[2]) < 1e-3

        grid = np.linspace(0.0, 2 * np.pi, 41)
        traj = integrate(trap_setup, [0.0, 1.0], [0.0, 0.0], [0.0], grid)
        assert traj.terminated == "critical_set"
        assert "critical set" in traj.message


# --------------------------------------------------------------- criterion 5

def test_criterion_5_nbody_generator():
    with criterion(5, "n-body generator validation and collision locus"):
        with pytest.raises(ValueError):
            build(NBodyConfig(n=3, dim=1, masses=(1, 1, 1)))

        cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
        setup = build(cfg)
        report, code = analyze(setup, AnalysisOptions(nbody=cfg, n_random=0))
        assert report["validation"]["ok"]

        hom = detect_homogeneity(setup)
        assert hom is not None and hom.degree == Fraction(-1)

        _, seed_point = central_config_seeds(cfg)[0]
        point = np.asarray(seed_point, dtype=complex)
        pc = PointCalculus(setup)
        assert not pc.near_sigma(point)
        tiny = 1e-8  # a yardstick for "numerically zero" of |detJ| and of the pole
        assert abs(pc.det_value(point)) > tiny
        # a vanishing distance is critical (detJ = 8 r12 r13 r23) and a pole
        # of the potential (its denominator is r12 r13 r23)
        pole = RatExpr(dict(setup.potential.den), {(): Fraction(1)}).compile(setup.var_names)
        for j in range(6, 9):
            collided = point.copy()
            collided[j] = 0.0
            assert abs(pc.det_value(collided)) <= tiny, f"r index {j}"
        grazing = point.copy()
        grazing[6] = 1e-9
        assert abs(pole(grazing)) <= tiny


# --------------------------------------------------------------- criterion 6

def test_criterion_6_three_body_obstruction():
    with criterion(6, "equal-mass 3-body certificate with exit code 10"):
        t0 = time.monotonic()
        cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
        setup = build(cfg)
        report, code = analyze(setup, AnalysisOptions(nbody=cfg, n_random=8))
        elapsed = time.monotonic() - t0

        equilateral = [e for e in report["points"] if e["start"] == "seed[0]"]
        assert equilateral, "equilateral seed did not polish"
        entry = equilateral[0]
        failing = []
        for row in entry["verdicts"]:
            table = row["table"]
            if table and table["mode"] == "exact" and not table["matched"]:
                failing.append(table["lambda"])
        assert failing, "no non-gauge eigenvalue fails the k=-1 table"
        assert Fraction(-1, 2) in failing

        assert report["certificate"]["status"] == "obstruction"
        assert report["certificate"]["witnesses"]
        assert code == 10
        assert elapsed < 30.0, f"3-body analysis took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 7

def _branch_value(pc, q, w_guess):
    w = pc.solve_fiber(np.asarray(q, dtype=complex),
                       np.asarray(w_guess, dtype=complex))
    assert w is not None
    x = np.concatenate([np.asarray(q, dtype=complex), w])
    return x, pc.potential_value(x)


def _fd_gradient(pc, x, h=1e-6):
    n = pc.n
    g = np.zeros(n, dtype=complex)
    for i in range(n):
        qp = x[:n].copy(); qp[i] += h
        qm = x[:n].copy(); qm[i] -= h
        _, vp = _branch_value(pc, qp, x[n:])
        _, vm = _branch_value(pc, qm, x[n:])
        g[i] = (vp - vm) / (2 * h)
    return g


def _fd_hessian(pc, x, h=1e-5):
    n = pc.n
    H = np.zeros((n, n), dtype=complex)
    for i in range(n):
        qp = x[:n].copy(); qp[i] += h
        qm = x[:n].copy(); qm[i] -= h
        xp, _ = _branch_value(pc, qp, x[n:])
        xm, _ = _branch_value(pc, qm, x[n:])
        H[:, i] = (pc.grad(xp) - pc.grad(xm)) / (2 * h)
    return H


def _sample_points(setup, rng, count):
    pc = PointCalculus(setup)
    pts = []
    while len(pts) < count:
        q = rng.uniform(0.3, 1.5, size=setup.n) * rng.choice([-1.0, 1.0],
                                                             size=setup.n)
        w = pc.solve_fiber(q.astype(complex),
                           np.ones(setup.s, dtype=complex))
        if w is None:
            continue
        x = np.concatenate([q.astype(complex), w])
        try:
            if pc.near_critical_set(x):
                continue
        except Exception:
            continue
        pts.append(x)
    return pc, pts


def test_criterion_7_calculus_oracles(cone_setup, trap_setup):
    with criterion(7, "derivatives vs finite differences; Euler identity"):
        rng = np.random.default_rng(11)
        for setup in (cone_setup, trap_setup):
            pc, pts = _sample_points(setup, rng, 20)
            for x in pts:
                g = pc.grad(x)
                fd = _fd_gradient(pc, x)
                rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))
                assert rel <= 1e-6
                H = hessian(pc, x)
                fdh = _fd_hessian(pc, x)
                relh = np.max(np.abs(H - fdh)) / max(1.0, np.max(np.abs(H)))
                assert relh <= 1e-6
                assert np.max(np.abs(H - H.T)) <= 1e-9

        res = solve_darboux(PointCalculus(cone_setup), n_random=16, seed=0)
        assert res.accepted
        for rep in res.accepted:
            pi = np.asarray(rep.point)[:2]
            assert np.max(np.abs(rep.hessian @ pi - 2.0 * pi)) <= 1e-8

        cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
        nb = build(cfg)
        pcn = PointCalculus(nb)
        seeds = central_config_seeds(cfg)
        pins = pinning_conditions(cfg, np.asarray(seeds[0][1]))
        resn = solve_darboux(pcn, seeds=[s for _, s in seeds], n_random=0,
                             linear_conditions=pins)
        assert resn.accepted
        for rep in resn.accepted:
            pi = np.asarray(rep.point)[:6]
            assert np.max(np.abs(rep.hessian @ pi + 2.0 * pi)) <= 1e-8


# --------------------------------------------------------------- criterion 8

def test_criterion_8_dynamics_conservation(cone_setup):
    with criterion(8, "conservation, reversal, homothetic residuals"):
        grid = np.linspace(0.0, 1.0, 41)

        cfg = NBodyConfig(n=2, dim=2, masses=(1, 1))
        two_body = build(cfg)
        q2b = np.array([-1.0, 0.0, 1.0, 0.0])
        p2b = np.array([0.0, -0.3, 0.0, 0.3])
        w2b = np.array([-2.0])

        cases = [
            (cone_setup, np.array([0.6, 0.8]), np.array([0.1, -0.2]),
             np.array([1.0])),
            (two_body, q2b, p2b, w2b),
        ]
        for setup, q0, p0, w0 in cases:
            traj = integrate(setup, q0, p0, w0, grid)
            assert traj.terminated == "completed"
            assert traj.energy_drift <= 1e-9
            assert traj.max_constraint_residual <= 1e-7

            proj = integrate(setup, q0, p0, w0, grid, project=True)
            assert proj.max_constraint_residual <= 1e-12

            end = traj.final
            back = integrate(setup, end.q, -np.asarray(end.p), end.w, grid)
            assert np.linalg.norm(np.asarray(back.final.q) - q0) <= 1e-7
            assert np.linalg.norm(np.asarray(back.final.p) + p0) <= 1e-7

        hom_cone = detect_homogeneity(cone_setup)
        orb = homothetic_orbit(cone_setup, hom_cone,
                               np.array([1.0 / 3.0, 0.0, 1.0 / 3.0]), grid)
        assert orb.eq_residual <= 1e-8
        assert np.max(np.abs(orb.hamiltonian - orb.expected_hamiltonian)) <= 1e-8

        hom_2b = detect_homogeneity(two_body)
        _, c2b = central_config_seeds(cfg)[0]
        orb2 = homothetic_orbit(two_body, hom_2b, np.asarray(c2b), grid)
        assert orb2.eq_residual <= 1e-8
        assert np.max(np.abs(orb2.hamiltonian - orb2.expected_hamiltonian)) <= 1e-8


# --------------------------------------------------------------- criterion 9

MONODROMY_PAIRS = [(3, Fraction(1)), (-1, Fraction(0)), (2, Fraction(3))]


def test_criterion_9_variational_equation():
    with criterion(9, "Fuchs relation exact; monodromy matches exponents"):
        for k in range(-12, 13):
            if k == 0:
                continue
            for lam in (Fraction(0), Fraction(1), Fraction(-1, 2),
                        Fraction(7, 8), Fraction(3), Fraction(-9, 40)):
                assert build_ve(k, lam).fuchs_residual() == Fraction(0)

        for k, lam in MONODROMY_PAIRS:
            rep = monodromy_report(build_ve(k, lam))
            assert not rep.skipped
            assert rep.eigen_errors["0"] is not None
            assert rep.eigen_errors["0"] <= 1e-6
            assert rep.eigen_errors["1"] is not None
            assert rep.eigen_errors["1"] <= 1e-6
            m1 = rep.matrices["1"]
            eigs = sorted(np.linalg.eigvals(m1), key=lambda z: z.real)
            assert abs(eigs[0] + 1.0) <= 1e-6
            assert abs(eigs[1] - 1.0) <= 1e-6


# -------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(cone_setup):
    with criterion(10, "byte-identical reports for identical seed/flags"):
        opts = AnalysisOptions(n_random=12, seed=7)
        first, code1 = analyze(cone_setup, opts)
        second, code2 = analyze(cone_setup, opts)
        assert code1 == code2
        assert report_json(first) == report_json(second)

        cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
        setup = build(cfg)
        nopts = AnalysisOptions(nbody=cfg, n_random=4, seed=1)
        r1, c1 = analyze(setup, nopts)
        r2, c2 = analyze(setup, nopts)
        assert c1 == c2
        assert report_json(r1) == report_json(r2)
