"""Eigenvalue clustering, diagonalizability, and rational reconstruction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algpot import eigen, rationalize


def test_rationalize_worked_example():
    assert rationalize(1.0416666667) == Fraction(25, 24)


def test_rationalize_rejects_far_values():
    assert rationalize(np.pi) is None
    assert rationalize(4.790745107824462) is None
    assert rationalize(0.5 + 0.1j) is None


@pytest.mark.xfail(strict=True, reason="known defect: 4.7907451078244625 reconstructs "
                   "as 4300695/897709, inside the tol/q budget")
def test_rationalize_rejects_a_high_denominator_accident():
    # the seed-1 equal-mass 4x2 eigenvalue behind an obstruction certificate
    # (its neighbouring float is rejected); about 1.2% of uniform reals in
    # [-25, 25] pass with denominators above 1000
    assert rationalize(4.7907451078244625) is None


def test_rationalize_accepts_tiny_imaginary_noise():
    assert rationalize(0.5 + 1e-12j) == Fraction(1, 2)


def test_rationalize_refuses_a_nan_or_infinite_part():
    # a nan imaginary part is not below the tolerance: it is not real
    nan, inf = float("nan"), float("inf")
    for z in (complex(1.5, nan), complex(1.5, inf), complex(nan, 0.0), complex(inf, 0.0),
              complex(nan, nan)):
        assert rationalize(z) is None, z
    assert rationalize(complex(1.5, 0.0)) == Fraction(3, 2)


def test_simple_spectrum():
    H = np.diag([2.0, 1.0])
    spec = eigen(H)
    assert [c.rational for c in spec.clusters] == [Fraction(1), Fraction(2)]
    assert spec.diagonalizable
    assert not spec.uncertain


def test_multiplicity_clustering():
    H = np.diag([0.5, 0.5, -2.0])
    spec = eigen(H + 1e-12 * np.eye(3))
    mults = sorted((str(c.rational), c.multiplicity) for c in spec.clusters)
    assert (("-2", 1) in mults) and (("1/2", 2) in mults)
    assert sum(c.multiplicity for c in spec.clusters) == 3


def test_defective_matrix_flagged():
    H = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = eigen(H)
    cluster = spec.clusters[0]
    assert cluster.multiplicity == 2
    assert cluster.geometric_multiplicity == 1
    assert not spec.diagonalizable


def symmetric_matrices(n=4):
    return st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=n * n, max_size=n * n,
    ).map(lambda vals: (lambda A: (A + A.T) / 2)(np.array(vals).reshape(n, n)))


def rotated(H):
    """H conjugated by a fixed random orthogonal matrix."""
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=H.shape))
    return Q @ H @ Q.T


# one eigenvalue at the clustering gap: H may group it with the zeros and
# its rotation not; eigen abstains on both
NEAR_GAP = np.diag([1e-8, 0.0, 0.0, 0.0])


@given(symmetric_matrices())
@example(NEAR_GAP)
@settings(max_examples=40, deadline=None)
def test_orthogonal_similarity_invariance(H):
    a = eigen(H)
    b = eigen(rotated(H))
    # clusterings near the threshold may differ; eigen then abstains
    if a.uncertain or b.uncertain:
        return
    va = sorted((round(c.value.real, 6), c.multiplicity) for c in a.clusters)
    vb = sorted((round(c.value.real, 6), c.multiplicity) for c in b.clusters)
    assert len(va) == len(vb)
    for (x, mx), (y, my) in zip(va, vb):
        assert abs(x - y) < 1e-5
        assert mx == my


def test_near_gap_clustering_is_flagged_uncertain():
    assert eigen(NEAR_GAP).uncertain
    assert eigen(rotated(NEAR_GAP)).uncertain


@given(symmetric_matrices())
@settings(max_examples=40, deadline=None)
def test_symmetric_matrices_always_diagonalizable(H):
    spec = eigen(H)
    # a certain verdict on a real symmetric matrix must be "diagonalizable";
    # near-threshold clusterings may abstain instead
    if not spec.uncertain:
        assert spec.diagonalizable


def test_total_multiplicity_matches_dimension():
    rng = np.random.default_rng(12)
    for _ in range(5):
        A = rng.normal(size=(5, 5))
        spec = eigen(A)
        assert sum(c.multiplicity for c in spec.clusters) == 5
