"""Normal variational equation along a homothetic orbit, and its monodromy.

For a weighted-homogeneous potential of degree k and a Hessian eigenvalue
lambda at a Darboux point, the normal variational equation reduces (after
the classical time-to-z change of variables) to the hypergeometric equation

    z(z-1) X'' + ((3k-2)/(2k) z - (k-1)/k) X' - (lambda/(2k)) X = 0

with regular singular points 0, 1, infinity.  This module builds that
equation exactly (Fraction coefficients), exposes its local exponents and
the Fuchs relation residual, and computes numeric monodromy matrices by
integrating the first-order system around loops in the punctured plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .admissibility import rational_sqrt

F = Fraction

LOOP_RTOL = 1e-13
LOOP_ATOL = 1e-14
LOOP_MAX_STEP = 2 * math.pi / 720


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

    def system_matrix(self, z: complex) -> np.ndarray:
        """First-order companion system Y' = A(z) Y for Y = (X, X')."""
        den = z * (z - 1)
        a1, a0, b0 = float(self.a1), float(self.a0), float(self.b0)
        return np.array([
            [0.0, 1.0],
            [-b0 / den, -(a1 * z + a0) / den],
        ], dtype=complex)


def build_ve(k: int, lam) -> HypergeomVE:
    if not isinstance(k, int) or k == 0:
        raise ValueError("degree must be a nonzero integer")
    lam = F(lam)
    a1 = F(3 * k - 2, 2 * k)
    a0 = F(-(k - 1), k)
    b0 = -lam / (2 * k)
    exps0 = (F(0), F(1, k))
    exps1 = (F(0), F(1, 2))
    # indicial equation at infinity: mu^2 - (a1 - 1) mu + b0 = 0
    tr = a1 - 1  # = (k-2)/(2k)
    disc = tr * tr - 4 * b0
    root = rational_sqrt(disc)
    if root is not None:
        exps_inf = ((tr + root) / 2, (tr - root) / 2)
    else:
        d = cmath.sqrt(complex(disc))
        exps_inf = ((complex(tr) + d) / 2, (complex(tr) - d) / 2)
    return HypergeomVE(k=k, lam=lam, a1=a1, a0=a0, b0=b0,
                       exponents0=exps0, exponents1=exps1,
                       exponents_inf=exps_inf)


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def _integrate_path(ve: HypergeomVE, path, t_span) -> np.ndarray:
    """Transport the 2x2 fundamental matrix along a parametrized path.

    path(t) -> z, path.d(t) -> dz/dt.  The integrator carries the complex
    matrix, flattened, as its complex state.
    """
    z_of_t, dz_of_t = path

    def rhs(t, y):
        return dz_of_t(t) * (ve.system_matrix(z_of_t(t)) @ y.reshape(2, 2)).ravel()

    y0 = np.eye(2, dtype=complex).ravel()
    sol = solve_ivp(rhs, t_span, y0, method="DOP853",
                    rtol=LOOP_RTOL, atol=LOOP_ATOL, max_step=LOOP_MAX_STEP)
    if not sol.success:
        raise RuntimeError(f"monodromy transport failed: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def _circle(center: complex, radius: float, phase: float):
    """Closed counterclockwise loop starting at center + radius e^{i phase}."""
    def z(t):
        return center + radius * cmath.exp(1j * (phase + t))

    def dz(t):
        return 1j * radius * cmath.exp(1j * (phase + t))

    return (z, dz)


def _segment(z0: complex, z1: complex):
    def z(t):
        return z0 + t * (z1 - z0)

    def dz(t):
        return z1 - z0

    return (z, dz)


def monodromy_matrix(ve: HypergeomVE, singularity: str) -> np.ndarray:
    """Monodromy of the fundamental system around one singular point.

    Loops are based at z = 1/2: the loop around 0 is the circle of radius
    1/2 centered at 0 starting at 1/2 (phase 0); the loop around 1 is the
    circle of radius 1/2 centered at 1 starting at 1/2 (phase pi).  The
    matrix around infinity is conjugated back to the same basepoint through
    a vertical detour that keeps the big circle clear of both finite
    singularities.
    """
    two_pi = 2 * math.pi
    if singularity == "0":
        return _integrate_path(ve, _circle(0.0, 0.5, 0.0), (0.0, two_pi))
    if singularity == "1":
        return _integrate_path(ve, _circle(1.0, 0.5, math.pi), (0.0, two_pi))
    if singularity == "inf":
        lift = _integrate_path(ve, _segment(0.5, 0.5 + 3j), (0.0, 1.0))
        # big clockwise circle = inverse of the counterclockwise loop that
        # encloses both finite singularities
        big = _integrate_path(ve, _circle(0.5, 3.0, math.pi / 2), (0.0, two_pi))
        return np.linalg.solve(lift, np.linalg.solve(big, lift))
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
    t0, t1 = complex(targets[0]), complex(targets[1])
    e0, e1 = eigs[0], eigs[1]
    straight = max(abs(e0 - t0), abs(e1 - t1))
    crossed = max(abs(e0 - t1), abs(e1 - t0))
    return min(straight, crossed)


def _resonance_guard(exponents, tol: float = 1e-9):
    """Return a skip reason when the exponent difference is suspiciously
    close to an integer without being exactly one.

    An exactly integer difference is fine for the eigenvalue comparison
    (the two circle eigenvalues coincide; a possible log term does not
    change them); a nearly integer difference makes the eigenvalue pairing
    ill-conditioned, so the check is skipped rather than reported noisily.
    """
    d = exponents[0] - exponents[1]
    if isinstance(d, Fraction):
        return None  # exact arithmetic: integer or not, no ambiguity
    nearest = round(d.real)
    if abs(d - nearest) < tol and d != nearest:
        return "exponent difference is numerically close to an integer"
    return None


def monodromy_report(ve: HypergeomVE) -> MonodromyReport:
    """Integrate all three loops, compare eigenvalues with local exponents,
    and verify the relation M0 M1 Minf = identity up to transport error."""
    rep = MonodromyReport(k=ve.k, lam=complex(ve.lam))
    m0 = monodromy_matrix(ve, "0")
    m1 = monodromy_matrix(ve, "1")
    minf = monodromy_matrix(ve, "inf")
    rep.matrices = {"0": m0, "1": m1, "inf": minf}

    for name, M, exps in (("0", m0, ve.exponents0),
                          ("1", m1, ve.exponents1),
                          ("inf", minf, ve.exponents_inf)):
        reason = _resonance_guard(exps)
        if reason is not None:
            rep.skipped[name] = reason
            rep.eigen_errors[name] = None
            continue
        targets = [cmath.exp(2j * math.pi * complex(e)) for e in exps]
        eigs = np.linalg.eigvals(M)
        rep.eigen_errors[name] = _pair_error(eigs, targets)

    # loop composition around all three singularities is contractible;
    # the order matching these basepoint/orientation conventions was fixed
    # against the numeric transport and is part of the contract
    prod = minf @ m1 @ m0
    rep.product_error = float(np.max(np.abs(prod - np.eye(2))))
    return rep
