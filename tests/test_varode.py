"""Variational equation: exponents, Fuchs relation, numeric monodromy."""

import cmath
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algpot import varode
from algpot.admissibility import check_pair_exact
from algpot.varode import build_ve, monodromy_matrix, monodromy_report

import ve_reference

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import VE_PAIRS  # noqa: E402

MONODROMY_PAIRS = [(3, Fraction(1)), (-1, Fraction(0)), (2, Fraction(3))]


@given(
    k=st.integers(min_value=-30, max_value=30).filter(lambda v: v != 0),
    num=st.integers(min_value=-60, max_value=60),
    den=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=150, deadline=None)
def test_fuchs_relation_is_exact(k, num, den):
    ve = build_ve(k, Fraction(num, den))
    assert ve.fuchs_residual() == Fraction(0)


@given(k=st.integers(min_value=-30, max_value=30).filter(lambda v: v != 0))
@settings(max_examples=60, deadline=None)
def test_local_exponents(k):
    ve = build_ve(k, Fraction(1, 3))
    assert ve.exponents0 == (Fraction(0), Fraction(1, k))
    assert ve.exponents1 == (Fraction(0), Fraction(1, 2))
    # the infinity pair always sums to the trace, rational or not
    total = ve.exponents_inf[0] + ve.exponents_inf[1]
    assert abs(complex(total) - complex(Fraction(k - 2, 2 * k))) < 1e-12


def test_coefficients_match_closed_forms():
    ve = build_ve(3, Fraction(1))
    assert ve.a1 == Fraction(7, 6)
    assert ve.a0 == Fraction(-2, 3)
    assert ve.b0 == Fraction(-1, 6)


def test_build_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_ve(0, Fraction(1))
    with pytest.raises(ValueError):
        build_ve(1.5, Fraction(1))


@pytest.mark.parametrize("k,lam", MONODROMY_PAIRS)
def test_monodromy_eigenvalues(k, lam):
    rep = monodromy_report(build_ve(k, lam))
    assert not rep.skipped
    for name in ("0", "1"):
        assert rep.eigen_errors[name] is not None
        assert rep.eigen_errors[name] <= 1e-6
    assert rep.product_error <= 1e-6


@pytest.mark.parametrize("k,lam", MONODROMY_PAIRS)
def test_z1_monodromy_is_an_involution(k, lam):
    # exponents {0, 1/2} at z = 1 force local eigenvalues {1, -1}
    m1 = monodromy_matrix(build_ve(k, lam), "1")
    eigs = sorted(np.linalg.eigvals(m1), key=lambda z: z.real)
    assert abs(eigs[0] - (-1.0)) < 1e-6
    assert abs(eigs[1] - 1.0) < 1e-6


def test_monodromy_product_is_identity():
    ve = build_ve(3, Fraction(1))
    rep = monodromy_report(ve)
    m0, m1, minf = rep.matrices["0"], rep.matrices["1"], rep.matrices["inf"]
    assert np.linalg.norm(minf @ m1 @ m0 - np.eye(2)) < 1e-6


def test_local_eigenvalue_values_at_zero():
    k = 3
    rep = monodromy_report(build_ve(k, Fraction(1)))
    eigs = np.linalg.eigvals(rep.matrices["0"])
    want = {1.0 + 0j, cmath.exp(2j * cmath.pi / k)}
    for target in want:
        assert min(abs(e - target) for e in eigs) < 1e-6


@pytest.mark.parametrize("k,lam", sorted(set(VE_PAIRS) | set(MONODROMY_PAIRS)))
def test_continuation_matches_the_ode_reference(k, lam):
    ve = build_ve(k, lam)
    for name in ("0", "1", "inf"):
        want = ve_reference.monodromy_matrix(ve, name)
        got = monodromy_matrix(ve, name)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want)), name


@given(
    k=st.sampled_from([3, -1, 2, 5, -3]),
    lam=st.fractions(min_value=-30, max_value=30, max_denominator=12),
    z0=st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False).filter(
        lambda z: min(abs(z), abs(z - 1)) > 0.05),
    r=st.floats(min_value=0.05, max_value=0.99),
    theta=st.floats(min_value=0, max_value=6.3),
    t=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200, deadline=None)
def test_hops_compose(k, lam, z0, r, theta, t):
    # z2 inside the half-radius disc about z0, and z1 on the way to it, so
    # every hop stays within half its own radius
    ve = build_ve(k, lam)
    z2 = z0 + r * 0.5 * min(abs(z0), abs(z0 - 1)) * cmath.exp(1j * theta)
    z1 = z0 + t * (z2 - z0)
    direct = varode._transport(ve, [z0, z2])
    composed = varode._transport(ve, [z0, z1, z2])
    assert np.linalg.norm(composed - direct) <= 1e-13 * np.linalg.norm(direct)


@pytest.mark.parametrize("k,lam", MONODROMY_PAIRS)
def test_loop_around_zero_is_path_independent(k, lam):
    ve = build_ve(k, lam)
    corners = [0.5, 0.5j, -0.5, -0.5j, 0.5]
    square = [0.5]
    for a, b in zip(corners, corners[1:]):
        square += varode._segment(a, b)[1:]
    got = varode._transport(ve, square)
    assert np.abs(got - monodromy_matrix(ve, "0")).max() <= 1e-12


def test_a_hop_past_the_convergence_radius_fails():
    ve = build_ve(3, Fraction(1))
    with pytest.raises(RuntimeError, match="monodromy transport failed"):
        varode._transport(ve, [0.5, 1.2])
    with pytest.raises(RuntimeError, match="monodromy transport failed"):
        varode._transport(ve, [0.5, 0.0])


def test_hops_per_report_are_pinned(monkeypatch):
    # 13 round 0, 13 round 1; round infinity 6 up the lift, 15 round the big
    # circle and 6 back down
    hops = []
    transport = varode._transport

    def counted(ve, vertices):
        hops.append(len(vertices) - 1)
        return transport(ve, vertices)

    monkeypatch.setattr(varode, "_transport", counted)
    monodromy_report(build_ve(3, Fraction(1)))
    assert hops == [13, 13, 27]


def test_near_resonance_at_infinity_is_skipped():
    # exponents at infinity differ by sqrt(lambda) = 1 + 5e-11
    rep = monodromy_report(build_ve(2, Fraction(10**10 + 1, 10**10)))
    assert list(rep.skipped) == ["inf"] and rep.skipped["inf"]
    assert rep.eigen_errors["inf"] is None


def test_exact_integer_difference_is_not_skipped():
    # exponents at infinity are exactly 1/2 and -1/2
    rep = monodromy_report(build_ve(2, Fraction(1)))
    assert rep.skipped == {}
    assert rep.eigen_errors["inf"] <= 1e-6


def projective_monodromy_size(k, lam, max_length=16, cap=300):
    """Elements of the monodromy group modulo +-I reached by words of length
    at most max_length in M0 and M1 scaled to determinant 1, or None past cap.
    Two products are one element when they agree up to sign within 1e-6."""
    mats = monodromy_report(build_ve(k, lam)).matrices
    gens = [m / np.sqrt(np.linalg.det(m)) for m in (mats["0"], mats["1"])]
    elements = [np.eye(2, dtype=complex)]
    frontier = elements
    for _ in range(max_length):
        new = []
        for a in frontier:
            for g in gens:
                b = g @ a
                known = np.array(elements)
                gap = np.minimum(np.abs(known - b).max(axis=(1, 2)),
                                 np.abs(known + b).max(axis=(1, 2)))
                if gap.min() > 1e-6:
                    elements.append(b)
                    new.append(b)
                    if len(elements) > cap:
                        return None
        frontier = new
    return len(elements)


@pytest.mark.parametrize("k, lam, size", [
    (-4, Fraction(65, 72), 24),  # octahedral
    (-4, Fraction(-175, 72), 24),
    (3, Fraction(1, 8), 12),  # tetrahedral
    (5, Fraction(19, 360), 60),  # icosahedral
    (-4, Fraction(49, 72), None),  # Delta irrational
    (-1, Fraction(-1, 2), None),  # the equal-mass three-body eigenvalue
])
def test_finite_monodromy_group_sizes(k, lam, size):
    # the projective monodromy group is finite exactly in the Schwarz cases
    # that the admissibility decision names
    assert projective_monodromy_size(k, lam) == size
    assert check_pair_exact(k, lam).matched == (size is not None)
