"""Normal variational equation along a homothetic orbit, and its monodromy.

For a weighted-homogeneous potential of degree k and a Hessian eigenvalue
lambda at a Darboux point, the normal variational equation reduces (after
the classical time-to-z change of variables) to the hypergeometric equation

    z(z-1) X'' + ((3k-2)/(2k) z - (k-1)/k) X' - (lambda/(2k)) X = 0

with regular singular points 0, 1, infinity.  This module builds that
equation exactly (Fraction coefficients), exposes its local exponents and
the Fuchs relation residual, and computes numeric monodromy matrices by
continuing a fundamental system analytically around loops in the punctured
plane, one Taylor series hop at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .admissibility import check_degree, exponent_difference

F = Fraction

# share of its series' radius of convergence that a continuation hop covers
HOP_RATIO = 0.5
# an exponent difference this near an integer, but not one, skips its loop
RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class HypergeomVE:
    """Exact data of the reduced second-order equation.

    Written as z(z-1) X'' + (a1 z + a0) X' + b0 X = 0.
    """

    k: int
    lam: Fraction
    a1: Fraction
    a0: Fraction
    b0: Fraction
    exponents0: tuple
    exponents1: tuple
    exponents_inf: tuple  # exact Fractions when the radicand is a square, else complex

    def fuchs_residual(self) -> Fraction:
        """Sum of all six exponents minus 1; identically zero here.

        The infinity exponents enter through their sum, which is exact
        (coefficient of the indicial polynomial) even when the individual
        exponents are irrational.
        """
        s0 = self.exponents0[0] + self.exponents0[1]
        s1 = self.exponents1[0] + self.exponents1[1]
        # indicial polynomial at infinity: mu^2 - (a1 - 1) mu + b0,
        # so the exponent sum there is a1 - 1
        sinf = self.a1 - 1
        return s0 + s1 + sinf - 1


def build_ve(k: int, lam) -> HypergeomVE:
    check_degree(k)
    lam = F(lam)
    a1 = F(3 * k - 2, 2 * k)
    a0 = F(-(k - 1), k)
    b0 = -lam / (2 * k)
    exps0 = (F(0), F(1, k))
    exps1 = (F(0), F(1, 2))
    # indicial equation at infinity: mu^2 - (a1 - 1) mu + b0 = 0, whose
    # roots differ by the admissibility test's Delta
    tr = a1 - 1  # = (k-2)/(2k)
    delta = exponent_difference(k, lam)
    exps_inf = ((tr + delta) / 2, (tr - delta) / 2)
    return HypergeomVE(k=k, lam=lam, a1=a1, a0=a0, b0=b0,
                       exponents0=exps0, exponents1=exps1,
                       exponents_inf=exps_inf)


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def _transport(ve: HypergeomVE, vertices) -> np.ndarray:
    """Fundamental matrix of (X, X') continued along a polygon from the
    identity at its first vertex, one Taylor series hop per side.

    A hop from z0 to z1 sums the series at z0 of the solutions u and v with
    (X, X') = (1, 0) and (0, 1) there, which diverge unless |z1 - z0| is below
    the distance from z0 to 0 or 1.  With z(z-1) = p0 + p1 t + t^2 and
    a1 z + a0 = q0 + a1 t in t = z - z0, the coefficients obey
    p0 (m+2)(m+1) c_{m+2} = -[(p1 m + q0)(m+1) c_{m+1} + (m(m-1) + a1 m + b0) c_m].
    x sums the terms c_m h^m (h = z1 - z0), d sums m times them (h X'), and
    s is the largest; a series stops at two consecutive terms below eps/100 s.
    """
    a1, a0, b0 = float(ve.a1), float(ve.a0), float(ve.b0)
    tol = np.finfo(float).eps / 100
    (a, b), (c, d) = (1.0, 0.0), (0.0, 1.0)
    for z0, z1 in zip(vertices, vertices[1:]):
        h, z0 = complex(z1 - z0), complex(z0)
        if not abs(h) < min(abs(z0), abs(z0 - 1)):
            raise RuntimeError(f"monodromy transport failed: the series at {z0} diverge at {z1}")
        p0, p1, q0 = z0 * (z0 - 1), 2 * z0 - 1, a1 * z0 + a0
        u0, u1, xu, du, su = 1.0, 0.0, 1.0, 0.0, 1.0
        v0, v1, xv, dv, sv = 0.0, h, h, h, abs(h)
        m = 0
        while max(abs(u0), abs(u1)) > tol * su or max(abs(v0), abs(v1)) > tol * sv:
            den = p0 * (m + 2) * (m + 1)
            alpha = -(p1 * m + q0) * (m + 1) * h / den
            beta = -(m * (m - 1) + a1 * m + b0) * h * h / den
            u0, u1 = u1, alpha * u1 + beta * u0
            v0, v1 = v1, alpha * v1 + beta * v0
            m += 1
            xu, du, su = xu + u1, du + (m + 1) * u1, max(su, abs(u1))
            xv, dv, sv = xv + v1, dv + (m + 1) * v1, max(sv, abs(v1))
        du, dv = du / h, dv / h
        (a, b), (c, d) = (xu * a + xv * c, xu * b + xv * d), (du * a + dv * c, du * b + dv * d)
    return np.array([[a, b], [c, d]], dtype=complex)


def _circle(center: complex, radius: float, phase: float) -> list:
    """Regular polygon inscribed in the circle, counterclockwise from center +
    radius e^{i phase} and back, each side HOP_RATIO of its distance from 0, 1."""
    gap = min(abs(abs(center) - radius), abs(abs(center - 1) - radius))
    n = math.ceil(math.pi / math.asin(HOP_RATIO * gap / (2 * radius)))
    ring = [center + radius * cmath.exp(1j * (phase + 2 * math.pi * j / n)) for j in range(n)]
    return ring + ring[:1]


def _segment(z0: complex, z1: complex) -> list:
    """Vertices from z0 to z1, each side HOP_RATIO of its start's distance from 0, 1."""
    vertices = [z0]
    while vertices[-1] != z1:
        z = vertices[-1]
        step, gap = HOP_RATIO * min(abs(z), abs(z - 1)), abs(z1 - z)
        vertices.append(z1 if gap <= step else z + (z1 - z) * (step / gap))
    return vertices


def monodromy_matrix(ve: HypergeomVE, singularity: str) -> np.ndarray:
    """Monodromy of the fundamental system around one singular point.

    The fundamental matrix is continued along a polygon inscribed in each
    loop, based at z = 1/2: the loop around 0 is the circle of radius 1/2
    centered at 0 starting at 1/2 (phase 0); the loop around 1 is the circle
    of radius 1/2 centered at 1 starting at 1/2 (phase pi).  The loop around
    infinity is the big circle conjugated back to the basepoint through a
    vertical detour that keeps it clear of both finite singularities.
    """
    if singularity == "0":
        return _transport(ve, _circle(0.0, 0.5, 0.0))
    if singularity == "1":
        return _transport(ve, _circle(1.0, 0.5, math.pi))
    if singularity == "inf":
        # up, clockwise round and back down in one continuation: solving with
        # the lift's matrix loses digits to its condition number (about 9,000
        # at k = -1, lambda = -24/5); reversed sides start farther from 0 and 1
        lift = _segment(0.5, 0.5 + 3j)
        return _transport(ve, lift + _circle(0.5, 3.0, math.pi / 2)[::-1][1:] + lift[::-1][1:])
    raise ValueError("singularity must be '0', '1' or 'inf'")


@dataclass
class MonodromyReport:
    k: int
    lam: complex
    matrices: dict = field(default_factory=dict)
    eigen_errors: dict = field(default_factory=dict)  # per singularity, or None if skipped
    product_error: float = float("nan")
    skipped: dict = field(default_factory=dict)  # singularity -> reason


def _pair_error(eigs: np.ndarray, targets) -> float:
    """Best matching of two computed eigenvalues against two targets."""
    (t0, t1), (e0, e1) = (complex(t) for t in targets), eigs
    return min(max(abs(e0 - t0), abs(e1 - t1)), max(abs(e0 - t1), abs(e1 - t0)))


def _resonance_guard(exponents):
    """Return a skip reason when the exponent difference is within
    RESONANCE_TOL of an integer without being exactly one.

    An exactly integer difference is fine for the eigenvalue comparison (the
    two eigenvalues coincide; a possible log term does not change them); a
    nearly integer one makes the pairing ill-conditioned, so it is skipped.
    """
    d = exponents[0] - exponents[1]
    if isinstance(d, Fraction):
        return None  # exact arithmetic: integer or not, no ambiguity
    nearest = round(d.real)
    if abs(d - nearest) < RESONANCE_TOL and d != nearest:
        return "exponent difference is numerically close to an integer"
    return None


def monodromy_report(ve: HypergeomVE) -> MonodromyReport:
    """Continue around all three loops, compare eigenvalues with local exponents,
    and verify the relation M0 M1 Minf = identity up to transport error."""
    rep = MonodromyReport(k=ve.k, lam=complex(ve.lam))
    exponents = {"0": ve.exponents0, "1": ve.exponents1, "inf": ve.exponents_inf}
    rep.matrices = {name: monodromy_matrix(ve, name) for name in exponents}
    for name, exps in exponents.items():
        reason = _resonance_guard(exps)
        if reason is not None:
            rep.skipped[name] = reason
            rep.eigen_errors[name] = None
            continue
        targets = [cmath.exp(2j * math.pi * complex(e)) for e in exps]
        eigs = np.linalg.eigvals(rep.matrices[name])
        rep.eigen_errors[name] = _pair_error(eigs, targets)

    # loop composition around all three singularities is contractible;
    # the order matching these basepoint/orientation conventions was fixed
    # against the numeric transport and is part of the contract
    m0, m1, minf = rep.matrices.values()
    prod = minf @ m1 @ m0
    rep.product_error = float(np.max(np.abs(prod - np.eye(2))))
    return rep
