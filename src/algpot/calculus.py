"""Derivations of functions on the variety with respect to the base coordinates.

A function f(q, w) restricted to the variety is differentiated along q by
correcting the plain partial with the implicit motion of the extension
variables:

    D_k f = d_k f - (d_w f) . J^(-1) . (d_k G)

where J = dG/dw.  PointCalculus evaluates plain partials of V and G, prepared
once symbolically, and does small linear solves per point, which stays cheap
at any number of extension variables.  The tests hold it against finite
differences of a locally solved branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import PoleError, RatExpr
from .parsing import AlgebraicSetup
from .variety import (DEFAULT_CRITICAL_TOL, JacobianData, VarietyNumerics,
                      fill, fill_symmetric, jacobian, sample_on_variety)


class CalculusError(ValueError):
    pass


class CriticalPointError(ArithmeticError):
    """The requested point (numerically) sits on the critical set."""


def _vector_slots(exprs, order) -> list:
    """(index, closure) for every non-zero expression of a vector."""
    return [(i, e.compile(order)) for i, e in enumerate(exprs) if not e.is_zero]


def _hessian_slots(grad, order) -> list:
    """(a, b, closure) for every non-zero d grad[a] / d order[b], a <= b."""
    slots = []
    for a, ga in enumerate(grad):
        if ga.is_zero:
            continue
        for b in range(a, len(order)):
            e = ga.diff(order[b])
            if not e.is_zero:
                slots.append((a, b, e.compile(order)))
    return slots


class PointCalculus:
    """Per-point gradients, Hessians and Newton data for the Darboux system.

    Plain first and second partials of the potential and the generators are
    prepared symbolically once; every point evaluation then reduces to dense
    (s x s) linear solves.  Works for any s, including setups where the
    symbolic quotient forms would be bulky.  Each gradient and Hessian keeps
    one list of closures for its non-zero partials (a Hessian's upper
    triangle only); the zero partials are never evaluated.
    """

    def __init__(self, setup: AlgebraicSetup, jd: JacobianData | None = None):
        self.setup = setup
        self.jd = jd if jd is not None else jacobian(setup)
        self.numerics = VarietyNumerics(setup, self.jd)
        order = setup.var_names
        self.N = len(order)
        self.n = setup.n
        self.s = setup.s

        V = setup.potential
        self._v = V.compile(order)
        vgrad = [V.diff(v) for v in order]
        self._vgrad = _vector_slots(vgrad, order)
        self._vhess = _hessian_slots(vgrad, order)
        self._ggrad = []
        self._ghess = []
        for g in setup.generators:
            ggrad = [g.diff(v) for v in order]
            self._ggrad.append(_vector_slots(ggrad, order))
            self._ghess.append(_hessian_slots(ggrad, order))

        # lazily compiled probe data (critical set / potential poles) and
        # the potential's numerator for the pointwise test
        self._probe_det = None
        self._probe_den = None
        self._num = None

    # -- raw evaluations ------------------------------------------------

    def potential_value(self, x) -> complex:
        return complex(self._v(x))

    def _core(self, x):
        """J, dGdq and W = dw/dq at the point; raises off the good set."""
        x = np.asarray(x, dtype=complex)
        n, s = self.n, self.s
        if s == 0:
            return (np.zeros((0, 0), complex), np.zeros((0, n), complex),
                    np.zeros((0, n), complex))
        J = self.numerics.j_matrix(x)
        B = self.numerics.dgdq_matrix(x)
        try:
            W = np.linalg.solve(J, -B)
        except np.linalg.LinAlgError:
            raise CriticalPointError("dG/dw is singular at the point") from None
        if not np.all(np.isfinite(W)):
            raise CriticalPointError("dG/dw is singular at the point")
        return J, B, W

    def w_derivative(self, x) -> np.ndarray:
        """Numeric s x n matrix of dw_j/dq_k at the point."""
        return self._core(x)[2]

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        _, _, W = self._core(x)
        vg = fill(self.N, self._vgrad, x)
        return vg[: self.n] + W.T @ vg[self.n:]

    def _dg_blocks(self, x):
        """Plain partials of the derivation vector g: dg/dq, dg/dw and W."""
        x = np.asarray(x, dtype=complex)
        n, s, N = self.n, self.s, self.N
        J, B, W = self._core(x)
        vh = fill_symmetric(N, self._vhess, x)
        vg = fill(N, self._vgrad, x)
        gh = [fill_symmetric(N, h, x) for h in self._ghess]

        if s:
            u = np.linalg.solve(J.T, vg[n:])
        else:
            u = np.zeros(0, dtype=complex)

        dg = np.zeros((n, N), dtype=complex)  # dg[k, v] = d g_k / d x_v
        for v in range(N):
            row = vh[v, :n] + W.T @ vh[v, n:]
            if s:
                Pv = np.array([gh[a][v, :n] + gh[a][v, n:] @ W for a in range(s)])
                row = row - Pv.T @ u
            dg[:, v] = row
        return dg[:, :n], dg[:, n:], W, J, B

    def hess(self, x) -> np.ndarray:
        dgdq, dgdw, W, _, _ = self._dg_blocks(x)
        return dgdq + dgdw @ W

    # -- Darboux Newton system -------------------------------------------

    def darboux_residual(self, x) -> np.ndarray:
        """F(x) = (grad V - q, G); zero exactly at Darboux candidates."""
        x = np.asarray(x, dtype=complex)
        g = self.grad(x)
        return np.concatenate([g - x[: self.n], self.numerics.g_values(x)])

    def darboux_system(self, x):
        """(F, plain Jacobian of F) for Newton iterations."""
        x = np.asarray(x, dtype=complex)
        n, s = self.n, self.s
        dgdq, dgdw, W, J, B = self._dg_blocks(x)
        vg = fill(self.N, self._vgrad, x)
        g = vg[:n] + W.T @ vg[n:]
        F = np.concatenate([g - x[:n], self.numerics.g_values(x)])
        Jac = np.zeros((n + s, n + s), dtype=complex)
        Jac[:n, :n] = dgdq - np.eye(n)
        Jac[:n, n:] = dgdw
        Jac[n:, :n] = B
        Jac[n:, n:] = J
        return F, Jac

    # -- proximity probes --------------------------------------------------

    def _probe(self, compiled_f, compiled_fgrad, x, radius, tol=1e-10,
               max_iter=25):
        """Gauss-Newton toward (G = 0, f = 0); True when a solution sits
        within `radius` of x.  Measures distance to a set rather than the
        value of f, which stays meaningful for barely-converged candidates."""
        x0 = np.asarray(x, dtype=complex)
        y = x0.copy()
        s, N = self.s, self.N
        for _ in range(max_iter):
            rows = []
            vals = []
            for a in range(s):
                vals.append(self.numerics._g[a](y))
                rows.append(fill(N, self._ggrad[a], y))
            vals.append(compiled_f(y))
            rows.append(fill(N, compiled_fgrad, y))
            F = np.array(vals, dtype=complex)
            if np.max(np.abs(F)) <= tol:
                return bool(np.linalg.norm(y - x0) <= radius)
            A = np.array(rows, dtype=complex)
            step, *_ = np.linalg.lstsq(A, F, rcond=None)
            if not np.all(np.isfinite(step)):
                return False
            y = y - step
            if np.linalg.norm(y - x0) > 10 * radius + 1.0:
                return False
        return False

    def near_critical_set(self, x, radius: float = 1e-4) -> bool:
        if self._probe_det is None:
            order = self.setup.var_names
            det = self.jd.det
            c = det.constant_value()
            if c is not None:
                self._probe_det = ("const", c)
            else:
                self._probe_det = (
                    det.compile(order),
                    _vector_slots([det.diff(v) for v in order], order),
                )
        if self._probe_det[0] == "const":
            return self._probe_det[1] == 0
        return self._probe(self._probe_det[0], self._probe_det[1], x, radius)

    def _pole_probe(self):
        """(closure, gradient slots) of the potential's denominator."""
        if self._probe_den is None:
            order = self.setup.var_names
            den = RatExpr(dict(self.setup.potential.den), {(): Fraction(1)})
            self._probe_den = (
                den.compile(order),
                _vector_slots([den.diff(v) for v in order], order),
            )
        return self._probe_den

    def near_potential_pole(self, x, radius: float = 1e-4) -> bool:
        if self.setup.potential.is_polynomial:
            return False
        den, den_grad = self._pole_probe()
        return self._probe(den, den_grad, x, radius)

    def near_sigma(self, x, radius: float = 1e-4) -> bool:
        return self.near_critical_set(x, radius) or self.near_potential_pole(x, radius)

    def in_sigma(self, x, tol: float = DEFAULT_CRITICAL_TOL) -> bool:
        """Pointwise membership of the bad set: critical set, or potential
        undefined.

        The potential side tests its denominator against tol scaled by the
        numerator's size, so the verdict does not depend on the overall scale
        of the point; an indeterminate 0/0 point counts as inside.  Unlike
        near_sigma this reads values at x only, which a candidate that stalled
        just off the critical set can pass.
        """
        x = np.asarray(x, dtype=complex)
        if abs(self.numerics.det_value(x)) <= tol:
            return True
        V = self.setup.potential
        if V.is_polynomial:
            return False
        if self._num is None:
            self._num = RatExpr(dict(V.num), {(): Fraction(1)}).compile(
                self.setup.var_names)
        den = self._pole_probe()[0](x)
        return abs(den) <= tol * max(1.0, abs(self._num(x)))


# ---------------------------------------------------------------------------
# weighted homogeneity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Homogeneity:
    """Canonical weighted-homogeneity data: coprime, base weight positive."""

    d1: int
    weights: tuple  # one integer weight per extension variable
    d2: int

    @property
    def degree(self) -> Fraction:
        return Fraction(self.d2, self.d1)

    @property
    def integer_degree(self):
        f = self.degree
        return int(f) if f.denominator == 1 else None


def _weight_vector(mono, q_set, w_index, s):
    qdeg = 0
    wexp = [0] * s
    for name, e in mono:
        if name in q_set:
            qdeg += e
        else:
            wexp[w_index[name]] = e
    return [qdeg] + wexp


def _rational_nullspace(rows, dim):
    """Basis of the exact nullspace of the given rational constraint rows."""
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(dim):
        p = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                p = i
                break
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


# the numeric re-check of a detected weighting
HOMOGENEITY_SAMPLES = 5
HOMOGENEITY_SEED = 1234
HOMOGENEITY_REL_TOL = 1e-9


def detect_homogeneity(setup: AlgebraicSetup, pc: PointCalculus | None = None):
    """Weighted-homogeneity weights, or None when no weighting exists.

    All base coordinates share one weight d1; each extension variable gets
    its own.  The constraints say every polynomial in sight (each generator,
    and numerator/denominator of the potential separately) is isobaric; the
    solution ray is scaled to coprime integers with d1 > 0, the gcd taken
    over (d1, weights, d2).  When a weighting is found the scaling identity
    is re-checked numerically on random variety points before reporting;
    pc, the setup's PointCalculus, supplies the evaluators, and without it
    one is built here.
    """
    n, s = setup.n, setup.s
    q_set = set(setup.q_names)
    w_index = {name: j for j, name in enumerate(setup.w_names)}
    dim = 1 + s

    polys = [g.num_terms() for g in setup.generators]
    vnum = setup.potential.num_terms()
    vden = setup.potential.den_terms()
    if not vnum:
        return None  # zero potential: no meaningful degree
    polys.append(vnum)
    if not setup.potential.is_polynomial:
        polys.append(vden)

    rows = []
    for terms in polys:
        ref = _weight_vector(terms[0][0], q_set, w_index, s)
        for mono, _ in terms[1:]:
            v = _weight_vector(mono, q_set, w_index, s)
            rows.append([a - b for a, b in zip(v, ref)])

    # an extension variable that appears nowhere gets weight 0 by fiat
    used = set()
    for terms in polys:
        for mono, _ in terms:
            for name, _e in mono:
                used.add(name)
    for j, name in enumerate(setup.w_names):
        if name not in used:
            row = [Fraction(0)] * dim
            row[1 + j] = Fraction(1)
            rows.append(row)

    basis = _rational_nullspace(rows, dim)
    cand = [v for v in basis if v[0] != 0]
    if len(basis) != 1 or not cand:
        return None
    v = cand[0]
    if v[0] < 0:
        v = [-a for a in v]

    lcm = 1
    for a in v:
        lcm = lcm * a.denominator // math.gcd(lcm, a.denominator)
    ints = [int(a * lcm) for a in v]

    wts = {name: ints[1 + j] for j, name in enumerate(setup.w_names)}
    wts.update({name: ints[0] for name in setup.q_names})

    def wdeg(mono):
        return sum(wts[name] * e for name, e in mono)

    d2 = wdeg(vnum[0][0]) - wdeg(vden[0][0])
    g = 0
    for a in ints + [d2]:
        g = math.gcd(g, abs(a))
    if g > 1:
        ints = [a // g for a in ints]
        d2 //= g
    hom = Homogeneity(d1=ints[0], weights=tuple(ints[1:]), d2=d2)

    if not _verify_homogeneity(setup, hom, pc or PointCalculus(setup)):
        raise CalculusError("homogeneity verification failed (detected weights are inconsistent)")
    return hom


def _verify_homogeneity(setup, hom, pc: PointCalculus):
    vn = pc.numerics
    rng = np.random.default_rng(HOMOGENEITY_SEED)
    checked = 0
    attempts = 0
    while checked < HOMOGENEITY_SAMPLES and attempts < HOMOGENEITY_SAMPLES * 10:
        attempts += 1
        x = sample_on_variety(setup, vn, rng)
        if x is None:
            continue
        alpha = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        y = x.copy()
        for i in range(setup.n):
            y[i] = x[i] * alpha ** hom.d1
        for j in range(setup.s):
            y[setup.n + j] = x[setup.n + j] * alpha ** hom.weights[j]
        try:
            v0 = pc.potential_value(x)
            v1 = pc.potential_value(y)
        except PoleError:
            continue
        expected = v0 * alpha ** hom.d2
        scale = max(1.0, abs(expected))
        if abs(v1 - expected) > HOMOGENEITY_REL_TOL * scale:
            return False
        if vn.residual(y) > 1e-6:
            return False
        checked += 1
    return checked > 0
