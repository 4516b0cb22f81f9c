"""Variety-side machinery: generator Jacobian, fibers, validation.

The generators G_1..G_s cut the variety out of C^(n+s); J is the s x s
matrix of their partials with respect to the extension variables only.  Its
determinant is the object everything downstream guards on: points where
detJ vanishes are exactly where the implicit derivations break down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .expr import ONE, RatExpr
from .parsing import AlgebraicSetup

if TYPE_CHECKING:
    from .calculus import PointCalculus

DEFAULT_CRITICAL_TOL = 1e-8


@dataclass(frozen=True)
class JacobianData:
    """Symbolic J = dG/dw (s x s), its determinant, and dG/dq (s x n)."""

    J: tuple
    det: RatExpr
    dGdq: tuple


def det_expr(M: list) -> RatExpr:
    """Determinant by cofactor expansion with zero pruning.

    Exponential in the worst case, but the matrices seen here are tiny or
    sparse (the pairwise-distance Jacobian is diagonal), and zero entries
    short-circuit whole branches.
    """
    m = len(M)
    if m == 0:
        return ONE
    if m == 1:
        return M[0][0]
    acc = None
    sign = 1
    for j in range(m):
        e = M[0][j]
        if e.is_zero:
            sign = -sign
            continue
        minor = [[row[jj] for jj in range(m) if jj != j] for row in M[1:]]
        term = e * det_expr(minor)
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    return acc if acc is not None else RatExpr.const(0)


def jacobian(setup: AlgebraicSetup) -> JacobianData:
    J = tuple(
        tuple(g.diff(w) for w in setup.w_names) for g in setup.generators
    )
    dGdq = tuple(
        tuple(g.diff(q) for q in setup.q_names) for g in setup.generators
    )
    det = det_expr([list(row) for row in J])
    return JacobianData(J=J, det=det, dGdq=dGdq)


def fill(shape, slots, x) -> np.ndarray:
    """Dense complex array from (index, closure) slots; other entries 0j."""
    out = np.zeros(shape, dtype=complex)
    for idx, f in slots:
        out[idx] = f(x)
    return out


def fill_symmetric(size: int, slots, x) -> np.ndarray:
    """Symmetric (size x size) array from (a, b, closure) slots with a <= b,
    each evaluated once and written to both places; other entries 0j."""
    out = np.zeros((size, size), dtype=complex)
    for a, b, f in slots:
        out[a, b] = out[b, a] = f(x)
    return out


def matrix_slots(rows, order) -> list:
    """((i, j), closure) for every non-zero entry of an expression matrix."""
    return [((i, j), e.compile(order))
            for i, row in enumerate(rows) for j, e in enumerate(row)
            if not e.is_zero]


class VarietyNumerics:
    """Compiled evaluators for G, J, detJ and dG/dq at numeric points.

    J and dG/dq keep closures for their non-zero entries only; the zero
    entries are never evaluated and read as exact 0j.
    """

    def __init__(self, setup: AlgebraicSetup, jd: JacobianData | None = None):
        self.setup = setup
        self.jd = jd if jd is not None else jacobian(setup)
        order = setup.var_names
        self._g = [g.compile(order) for g in setup.generators]
        self._j = matrix_slots(self.jd.J, order)
        self._det = self.jd.det.compile(order)
        self._dgdq = matrix_slots(self.jd.dGdq, order)

    def g_values(self, x) -> np.ndarray:
        return np.array([f(x) for f in self._g], dtype=complex)

    def j_matrix(self, x) -> np.ndarray:
        s = self.setup.s
        return fill((s, s), self._j, x)

    def dgdq_matrix(self, x) -> np.ndarray:
        return fill((self.setup.s, self.setup.n), self._dgdq, x)

    def det_value(self, x) -> complex:
        return complex(self._det(x))

    def residual(self, x) -> float:
        if not self._g:
            return 0.0
        return float(np.max(np.abs(self.g_values(x))))

    def solve_fiber(self, q, w0, max_iter: int = 60, tol: float = 1e-12):
        """Newton-solve G(q, w) = 0 for w at fixed q; None when stuck."""
        n, s = self.setup.n, self.setup.s
        q = np.asarray(q, dtype=complex)
        if s == 0:
            return np.array([], dtype=complex)
        w = np.asarray(w0, dtype=complex).copy()
        for _ in range(max_iter):
            x = np.concatenate([q, w])
            gv = self.g_values(x)
            if np.max(np.abs(gv)) <= tol:
                return w
            J = self.j_matrix(x)
            try:
                step = np.linalg.solve(J, gv)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(step)):
                return None
            w = w - step
        x = np.concatenate([q, w])
        if np.max(np.abs(self.g_values(x))) <= tol * 100:
            return w
        return None


@dataclass
class ValidationReport:
    detj_nonzero: bool
    primality_assumed: bool
    samples_used: int
    trials: int
    seed: int
    detj_magnitudes: list = field(default_factory=list)
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.detj_nonzero


def sample_on_variety(setup: AlgebraicSetup, numerics: VarietyNumerics,
                      rng: np.random.Generator, radius: float = 1.5,
                      attempts: int = 12):
    """One random point of S: random complex q, Newton w from random starts."""
    n, s = setup.n, setup.s
    for _ in range(attempts):
        q = radius * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        w0 = radius * (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2)
        w = numerics.solve_fiber(q, w0)
        if w is not None:
            return np.concatenate([q, w])
    return None


def validate(setup: AlgebraicSetup, trials: int = 8, seed: int = 0,
             tol: float = DEFAULT_CRITICAL_TOL,
             pc: PointCalculus | None = None) -> ValidationReport:
    """Sample the variety and check detJ does not vanish identically.

    Primality/codimension of the generating ideal is NOT checked; the report
    says so via primality_assumed.  The test is one-sided: a setup passes as
    soon as one sample has |detJ| > tol.  pc, the setup's PointCalculus,
    supplies the numerics and the critical-set probe; without it one is
    built here.
    """
    if pc is None:
        # The proximity probe lives a layer up; imported lazily to keep the
        # module dependency one-way everywhere else.
        from .calculus import PointCalculus
        pc = PointCalculus(setup)
    vn = pc.numerics
    rng = np.random.default_rng(seed)
    mags = []
    used = 0
    clear = 0
    for _ in range(trials):
        x = sample_on_variety(setup, vn, rng)
        if x is None:
            continue
        used += 1
        mag = abs(vn.det_value(x))
        mags.append(mag)
        # a fiber solve that stalls against a degenerate sheet leaves a
        # sample whose determinant is small but not below tol; the probe
        # measures distance to the critical set instead
        if mag > tol and not pc.near_critical_set(x, radius=1e-4):
            clear += 1
    if used == 0:
        return ValidationReport(
            detj_nonzero=False, primality_assumed=True, samples_used=0,
            trials=trials, seed=seed, detj_magnitudes=[],
            message="could not place any sample on the variety",
        )
    ok = clear > 0
    msg = "" if ok else "detJ vanishes (within tol) on all samples; setup rejected"
    return ValidationReport(
        detj_nonzero=ok, primality_assumed=True, samples_used=used,
        trials=trials, seed=seed, detj_magnitudes=mags, message=msg,
    )
