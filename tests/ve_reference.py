"""The ODE transport that Taylor-series continuation replaced in
algpot.varode, kept as the reference its monodromy matrices are held to:
DOP853 on the companion system Y' = A(z) Y along the parametrized circles
and segment, the infinity loop conjugated by solving with the lift."""

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

LOOP_RTOL = 1e-13
LOOP_ATOL = 1e-14
LOOP_MAX_STEP = 2 * math.pi / 720


def system_matrix(ve, z: complex) -> np.ndarray:
    """First-order companion system Y' = A(z) Y for Y = (X, X')."""
    den = z * (z - 1)
    a1, a0, b0 = float(ve.a1), float(ve.a0), float(ve.b0)
    return np.array([
        [0.0, 1.0],
        [-b0 / den, -(a1 * z + a0) / den],
    ], dtype=complex)


def integrate_path(ve, path, t_span) -> np.ndarray:
    """Transport the 2x2 fundamental matrix along path = (z(t), dz/dt(t))."""
    z_of_t, dz_of_t = path

    def rhs(t, y):
        return dz_of_t(t) * (system_matrix(ve, z_of_t(t)) @ y.reshape(2, 2)).ravel()

    y0 = np.eye(2, dtype=complex).ravel()
    sol = solve_ivp(rhs, t_span, y0, method="DOP853",
                    rtol=LOOP_RTOL, atol=LOOP_ATOL, max_step=LOOP_MAX_STEP)
    if not sol.success:
        raise RuntimeError(f"monodromy transport failed: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def circle(center: complex, radius: float, phase: float):
    """Closed counterclockwise loop starting at center + radius e^{i phase}."""
    def z(t):
        return center + radius * cmath.exp(1j * (phase + t))

    def dz(t):
        return 1j * radius * cmath.exp(1j * (phase + t))

    return (z, dz)


def segment(z0: complex, z1: complex):
    def z(t):
        return z0 + t * (z1 - z0)

    def dz(t):
        return z1 - z0

    return (z, dz)


def monodromy_matrix(ve, singularity: str) -> np.ndarray:
    """The same loops, basepoint and orientation as algpot.varode."""
    two_pi = 2 * math.pi
    if singularity == "0":
        return integrate_path(ve, circle(0.0, 0.5, 0.0), (0.0, two_pi))
    if singularity == "1":
        return integrate_path(ve, circle(1.0, 0.5, math.pi), (0.0, two_pi))
    if singularity == "inf":
        lift = integrate_path(ve, segment(0.5, 0.5 + 3j), (0.0, 1.0))
        # big clockwise circle = inverse of the counterclockwise loop that
        # encloses both finite singularities
        big = integrate_path(ve, circle(0.5, 3.0, math.pi / 2), (0.0, two_pi))
        return np.linalg.solve(lift, np.linalg.solve(big, lift))
    raise ValueError("singularity must be '0', '1' or 'inf'")
