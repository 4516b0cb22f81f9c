"""Admissibility table membership: exact checks against brute enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algpot import AdmissibilityTable, TableError, certify, check_pair_exact, check_pair_numeric
from algpot.admissibility import _family_a_value, _family_b_value

F = Fraction


def brute_admissible_set(k: int, table: AdmissibilityTable, p_range: int):
    """Every eigenvalue the table allows for degree k, |p| <= p_range."""
    vals = set()
    for p in range(-p_range, p_range + 1):
        vals.add(_family_a_value(k, p))
        vals.add(_family_b_value(k, p))
        for row in table.special_rows_for(k):
            vals.add(row.special_value(p))
    return vals


def test_worked_examples():
    v = check_pair_exact(3, F(1))
    assert v.matched and ("family A", -1) in {(w.row_id, w.p) for w in v.witnesses}

    v = check_pair_exact(-3, F(7, 8))
    assert v.matched
    assert any(w.row_id.startswith("k=-3") and w.p == 0 for w in v.witnesses)

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
    table = AdmissibilityTable()
    for k in (-3, -1, 1, 3, 5):
        allowed = brute_admissible_set(k, table, 50)
        for a in range(-60, 61):
            lam = F(a, 12)
            assert check_pair_exact(k, lam, table).matched == (lam in allowed), (k, lam)


def test_witnesses_back_substitute_exactly():
    table = AdmissibilityTable()
    for k in (-5, -4, -3, -1, 1, 3, 4, 5):
        for a in range(-40, 41):
            lam = F(a, 24)
            v = check_pair_exact(k, lam, table)
            for w in v.witnesses:
                if w.p is None:
                    continue
                if w.row_id == "family A":
                    assert _family_a_value(k, w.p) == lam
                elif w.row_id == "family B":
                    assert _family_b_value(k, w.p) == lam
                else:
                    row = next(r for r in table.rows if r.row_id == w.row_id)
                    assert row.special_value(w.p) == lam


@given(st.integers(min_value=-12, max_value=12).filter(lambda k: k != 0),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=120, deadline=None)
def test_family_values_always_admissible(k, p):
    assert check_pair_exact(k, _family_a_value(k, p)).matched
    assert check_pair_exact(k, _family_b_value(k, p)).matched


def test_trivial_eigenvalue_law():
    for k in range(-50, 51):
        if k == 0:
            continue
        v = check_pair_exact(k, F(k - 1))
        assert v.matched
        assert ("family A", 1) in {(w.row_id, w.p) for w in v.witnesses}


def test_k4_row_as_printed_and_override():
    # printed row: 9/8 - (1/4)(4/3 + 4p)^2; at p=0 this is 49/72
    default = AdmissibilityTable()
    assert default.check_pair_exact(-4, F(49, 72)).matched
    # mirror-coefficient override: 9/8 - (1/8)(4/3 + 4p)^2; at p=0, 65/72
    override = AdmissibilityTable(k4_coefficient=F(1, 8))
    assert override.check_pair_exact(-4, F(65, 72)).matched
    assert not override.check_pair_exact(-4, F(49, 72)).matched
    assert not default.check_pair_exact(-4, F(65, 72)).matched


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


def test_row_census():
    table = AdmissibilityTable()
    kinds = {}
    for row in table.rows:
        kinds[row.kind] = kinds.get(row.kind, 0) + 1
    assert kinds == {"family_A": 1, "family_B": 1, "wildcard": 2, "special": 14}
    specials = {}
    for row in table.rows:
        if row.kind == "special":
            specials[row.k] = specials.get(row.k, 0) + 1
    assert specials == {-5: 2, -4: 1, -3: 4, 3: 4, 4: 1, 5: 2}


def test_point_without_a_hessian_carries_no_verdict():
    # analyze writes spectrum None, and no verdicts, when the Hessian fails
    no_hessian = {"index": 0, "point": [[0.5, 0.0]], "degenerate": False, "spectrum": None}
    cert = certify(-1, [no_hessian])
    assert cert.status == "not_applicable"
    assert cert.witnesses == []
    assert cert.reasons[0] == "point #0: no Hessian at the point, no verdict"
