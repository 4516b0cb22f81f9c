"""Admissibility by Kimura's theorem: exact and numeric decisions against
the classical table (tests/table_reference.py) and their witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algpot import TableError, certify, check_pair_exact, check_pair_numeric
from algpot.admissibility import SCHWARZ
from algpot.spectrum import RATIONAL_TOL, rationalize
from algpot.varode import build_ve

from table_reference import admissible_values, family_a, family_b, row_values

F = Fraction

P_RANGE = 50
# Every row is a quadratic in p with its vertex at |p| < 1, and at |p| = 51
# each exceeds OFF_ROW_BOUND in modulus (checked below), so enumerating
# |p| <= P_RANGE finds every row value of modulus at most OFF_ROW_BOUND.
OFF_ROW_BOUND = 100
DEGREES = [k for k in range(-50, 51) if k != 0]


def off_row_values(values) -> list:
    """Rationals of modulus at most OFF_ROW_BOUND that mostly miss the rows:
    a/24, a/7, +-p^2/8 and row values moved by 1/1000."""
    vals = {F(a, 24) for a in range(-240, 241)} | {F(a, 7) for a in range(-70, 71)}
    vals |= {F(s * p * p, 8) for p in range(29) for s in (1, -1)}
    vals |= {v + F(1, 1000) for v in values if abs(v) < OFF_ROW_BOUND - 1}
    return sorted(vals)


def reference_numeric(z: complex, values, floats) -> bool:
    """The table's numeric decision: exact on the rational that z
    reconstructs as, else a row value within tol * max(1, |z|)."""
    if values is None:
        return True
    r = rationalize(z)
    if r is not None:
        return r in values
    return bool(np.any(np.abs(floats - z) <= RATIONAL_TOL * max(1.0, abs(z))))


def test_worked_examples():
    v = check_pair_exact(3, F(1))
    assert v.matched and ("case (i)", -1) in {(w.case, w.p) for w in v.witnesses}

    v = check_pair_exact(-3, F(7, 8))
    assert v.matched
    assert ("tetrahedral", 0) in {(w.case, w.p) for w in v.witnesses}

    v = check_pair_exact(-1, F(3))
    assert not v.matched and v.obstruction

    for k in (-7, 4, 9):
        assert check_pair_exact(k, F(0)).matched  # family A, p = 0


def test_wildcard_degrees_match_anything():
    for k in (2, -2):
        for lam in (F(0), F(22, 7), F(-355, 113)):
            v = check_pair_exact(k, lam)
            assert v.matched
            assert any(w.p is None for w in v.witnesses)


def test_small_sweep_agrees_with_enumeration():
    for k in (-3, -1, 1, 3, 5):
        allowed = admissible_values(k, P_RANGE)
        for a in range(-60, 61):
            lam = F(a, 12)
            assert check_pair_exact(k, lam).matched == (lam in allowed), (k, lam)


def test_exact_decision_equals_the_table():
    for k in DEGREES:
        assert all(abs(v) > OFF_ROW_BOUND for p in (-P_RANGE - 1, P_RANGE + 1)
                   for v in row_values(k, p)), k
        values = admissible_values(k, P_RANGE)
        on_rows = sorted(values or {F(p) for p in range(-P_RANGE, P_RANGE + 1)})
        for lam in on_rows + off_row_values(on_rows):
            want = values is None or lam in values
            assert check_pair_exact(k, lam).matched == want, (k, lam)


def test_numeric_decision_equals_the_table():
    scale = RATIONAL_TOL * 0.4
    for k in DEGREES:
        values = admissible_values(k, P_RANGE)
        floats = np.array([complex(v) for v in values or ()])
        near = [complex(v) for v in values or {F(p, 3) for p in range(-30, 31)}
                if abs(v) < OFF_ROW_BOUND - 1]
        zs = [v + scale * max(1.0, abs(v)) * d for v in near for d in (1, -1, 1 + 1j)]
        zs += [v + 3 * RATIONAL_TOL * max(1.0, abs(v)) for v in near]
        zs += [v + 1e-3 * math.sqrt(2) for v in near] + [v + 0.1j for v in near[:5]]
        zs += [math.pi, -math.e * k / 7, math.sqrt(2) * k, 1 + 2j, -3.5 + 1e-12j]
        for z in zs:
            assert check_pair_numeric(k, z).matched == reference_numeric(z, values, floats), (k, z)


def test_witnesses_back_substitute_exactly():
    # each witness's shift and residue give Delta, build_ve's exponent
    # difference at infinity, and its residue completes the triple it names
    for k in (-5, -4, -3, -1, 1, 3, 4, 5):
        for a in range(-40, 41):
            lam = F(a, 24)
            ve = build_ve(k, lam)
            delta = ve.exponents_inf[0] - ve.exponents_inf[1]
            for w in check_pair_exact(k, lam).witnesses:
                assert abs(w.residue + w.p) == abs(delta), (k, lam, w)
                if w.case == "case (i)":
                    assert w.residue == F(1, 2) - F(1, k)
                elif w.case == "dihedral":
                    assert w.residue == F(1, 2)
                else:
                    assert (w.case, *sorted((F(1, abs(k)), w.residue))) in SCHWARZ


@given(st.integers(min_value=-12, max_value=12).filter(lambda k: k != 0),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=120, deadline=None)
def test_family_values_always_admissible(k, p):
    assert check_pair_exact(k, family_a(k, p)).matched
    assert check_pair_exact(k, family_b(k, p)).matched


def test_trivial_eigenvalue_law():
    for k in range(-50, 51):
        if k == 0:
            continue
        v = check_pair_exact(k, F(k - 1))
        assert v.matched
        assert ("case (i)", 1) in {(w.case, w.p) for w in v.witnesses}


def test_degree_minus_four_is_octahedral():
    # Delta = 1/3 + p with 1/|k| = 1/4: the octahedral triple (1/2, 1/4, 1/3),
    # lambda = 9/8 - (1/8)(4/3 + 4p)^2
    for lam, p in ((F(65, 72), 0), (F(-175, 72), 1)):
        v = check_pair_exact(-4, lam)
        assert [(w.case, w.p) for w in v.witnesses] == [("octahedral", p)]
    # 9/8 - (1/4)(4/3 + 4p)^2 at p = 0 and 1: Delta is irrational
    for lam in (F(49, 72), F(-431, 72)):
        assert check_pair_exact(-4, lam).obstruction


def test_three_body_eigenvalue_fails():
    assert not check_pair_exact(-1, F(-1, 2)).matched
    # while the admissible neighbors pass
    assert check_pair_exact(-1, F(0)).matched
    assert check_pair_exact(-1, F(-2)).matched
    assert check_pair_exact(-1, F(1)).matched


def test_numeric_route_reconstructs_rationals():
    v = check_pair_numeric(3, 1.0000000004)
    assert v.mode == "exact" and v.matched


def test_numeric_route_without_reconstruction():
    # an irrational admissible value: family A, k=3, p = sqrt-free choice
    # lambda = p(3p + 1)/2 at non-integer p cannot match; test instead that a
    # numeric non-match never claims an obstruction
    v = check_pair_numeric(3, 0.123456789101112)
    assert v.mode == "numeric"
    assert not v.matched
    assert not v.obstruction
    assert "not a certificate" in v.note


def test_numeric_route_matches_true_values_off_grid():
    # complex eigenvalue exactly on family A for k=5, p=2: lambda = 13
    v = check_pair_numeric(5, 13.0 + 0j)
    assert v.matched


def test_degree_validation():
    with pytest.raises(TableError):
        check_pair_exact(0, F(1))
    with pytest.raises(TableError):
        check_pair_exact(1.5, F(1))  # type: ignore[arg-type]


def test_numeric_route_refuses_a_lambda_that_is_not_finite():
    # neither a nan real part nor a nan imaginary one reconstructs, nor is
    # rounded: each is refused, naming the lambda
    nan, inf = float("nan"), float("inf")
    for lam in (nan, complex(1.0, nan), complex(nan, 0.0), inf, complex(2.0, -inf)):
        with pytest.raises(TableError, match="lambda must be finite"):
            check_pair_numeric(3, lam)
    assert check_pair_numeric(3, complex(1.0, 0.0)).mode == "exact"


def test_point_without_a_hessian_carries_no_verdict():
    # analyze writes spectrum None, and no verdicts, when the Hessian fails
    no_hessian = {"index": 0, "point": [[0.5, 0.0]], "degenerate": False, "spectrum": None}
    cert = certify(-1, [no_hessian])
    assert cert.status == "not_applicable"
    assert cert.witnesses == []
    assert cert.reasons[0] == "point #0: no Hessian at the point, no verdict"


def _exact_point(degenerate=False, diagonalizable=True, uncertain=False, matched=False):
    """A report point, as decoded from JSON, with one exact-mode verdict row."""
    table = {"mode": "exact", "matched": matched, "lambda": "1/2", "witnesses": [], "note": ""}
    return {"index": 0, "point": [[0.5, 0.0]], "degenerate": degenerate,
            "spectrum": {"diagonalizable": diagonalizable, "uncertain": uncertain},
            "verdicts": [{"eigenvalue": [0.5, 0.0], "multiplicity": 1, "table": table}]}


UNVERIFIED = "point #0: eigenvalue (0.5+0j) inadmissible but point hypotheses unverified"


@pytest.mark.parametrize("points, status, reasons", [
    ([], "not_applicable", ["no Darboux points available"]),
    ([_exact_point(degenerate=True)], "not_applicable",
     ["point #0: degenerate (vanishing base projection), no verdict",
      "no eigenvalue was eligible for an admissibility check"]),
    ([_exact_point(diagonalizable=False)], "hypotheses_unverified",
     ["point #0: Hessian not diagonalizable; admissibility test not licensed", UNVERIFIED]),
    ([_exact_point(uncertain=True, matched=True)], "hypotheses_unverified",
     ["point #0: diagonalizability decision within numeric margin"]),
    ([_exact_point(uncertain=True)], "hypotheses_unverified",
     ["point #0: diagonalizability decision within numeric margin", UNVERIFIED]),
], ids=["no-points", "degenerate", "not-diagonalizable", "uncertain", "uncertain-miss"])
def test_certificate_reasons(points, status, reasons):
    # an exact miss certifies only at a clean point; elsewhere it is a reason
    cert = certify(3, points)
    assert (cert.status, cert.witnesses, cert.reasons) == (status, [], reasons)
