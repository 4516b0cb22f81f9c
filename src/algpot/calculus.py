"""Derivations of functions on the variety with respect to the base coordinates.

A function f(q, w) restricted to the variety is differentiated along q by
correcting the plain partial with the implicit motion of the extension
variables:

    D_k f = d_k f - (d_w f) . J^(-1) . (d_k G)

where J = dG/dw.  The generators G_1..G_s cut the variety out of C^(n+s);
points where detJ vanishes form the critical set, exactly where these
derivations break down.  The numerics use the Lagrangian form of that
derivation.  With B = dG/dq, the adjoint u = J^(-T) d_wV, W = dw/dq =
-J^(-1) B, P = [I; W] and L = Hess V - sum_a u_a Hess G_a, the Hessian of
the Lagrangian V - u.G:

    grad V = d_qV - B^T u,    d(grad V)/dx = P^T L,    Hess V = P^T L P.

One s x s solve for u per point serves the gradient, the Newton Jacobian
and the Hessian, and one kernel gives the first partials (dG, d_qV, d_wV)
it needs.  The calculus keeps nothing per point: a caller that goes on at
a point passes that point's first derivatives, (dG, d_qV, d_wV) and u, to
the next evaluation.  PointCalculus is the one numeric view
of a setup: it evaluates plain partials of V and G, each table derived
symbolically on first use and evaluated by kernels generated on first use,
so building a calculus costs nothing until it evaluates, and does small
linear solves per point, which stays cheap at any number of extension
variables.  It also solves fibers, samples the variety and
probes the distance to the critical set, which is the one test of
criticality: validation and the Darboux hunt ask the probe alone, never
the size of detJ.  The tests hold it against finite differences of a
locally solved branch.  Weighted homogeneity (detect_homogeneity) needs
no numeric view: it is decided exactly from the setup's polynomials.

The per-point numerics keep NumPy's bits at less cost.  Every s x s solve
is one call of LAPACK's zgesv (_fiber_solve): at s <= 10, NumPy's solve
wrapper costs three to four times the LAPACK call.  SciPy's OpenBLAS and
NumPy's are separate builds, so the tests hold the two solves to equal
bits.  A J with an infinite or nan entry is refused as critical: an
infinite entry can leave a finite, meaningless solution.  Every
least-squares solve (the Newton step, the proximity probe's step) is
likewise one call of zgelsd (_lstsq), with NumPy's rcond=None cut-off and
zgelsd's workspace sizes queried once per shape, which saves NumPy's
wrapper, 10 to 20 us a step at N = 9 to 20.  A system with a non-finite entry gets an all-nan
solution without the call, which its callers take as leaving the domain:
NumPy's lstsq raises on a nan entry and does not return on an infinite
one.  The contraction sum_a u_a Hess G_a is np.dot of u as a 1 x s row with
the Hessians as an s x N^2 matrix, the BLAS call NumPy's tensordot makes,
without its bookkeeping; a 1-D matmul sums in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import zgelsd, zgelsd_lwork, zgesv

from .expr import ONE, ZERO, Array, RatExpr, compile_arrays
from .parsing import AlgebraicSetup

# a critical point (or pole) this close to a point makes the point critical
PROBE_RADIUS = 1e-4

# Newton on a fiber G(q, .) = 0
FIBER_MAX_ITER = 60
FIBER_TOL = 1e-12
# a random variety point: spread of the complex draws, fiber solves tried
SAMPLE_RADIUS = 1.5
SAMPLE_ATTEMPTS = 12
# Gauss-Newton of the proximity probes
PROBE_TOL = 1e-10
PROBE_MAX_ITER = 25
# variety samples drawn by validate
VALIDATE_TRIALS = 8
# np.linalg.lstsq's rcond=None is this times max(m, n)
LSTSQ_EPS = np.finfo(float).eps


class CriticalPointError(ArithmeticError):
    """The requested point (numerically) sits on the critical set."""


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


def _hessian_entries(grad, order) -> list:
    """(a, b, d grad[a] / d order[b]) for every non-zero partial, a <= b."""
    entries = []
    for a, ga in enumerate(grad):
        if ga.is_zero:
            continue
        for b in range(a, len(order)):
            e = ga.diff(order[b])
            if not e.is_zero:
                entries.append((a, b, e))
    return entries


def _symmetric(entries, lead=()) -> list:
    """Array entries writing each (a, b, e) at [lead..., a, b] and [lead..., b, a]."""
    return [(e, [lead + (a, b), lead + (b, a)]) for a, b, e in entries]


def _finite(a) -> bool:
    """Every entry of a is finite; on the solves' small arrays this costs
    half of np.isfinite(a).all()."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _nonzero(pairs) -> tuple:
    """The (slot, index) pairs whose slot reads a structurally non-zero value."""
    return tuple((i, k) for i, k in pairs if i)


class FlowKernel(NamedTuple):
    """The constrained flow's one kernel (PointCalculus._flow_kernel) and
    where its values sit.  kernel(x) returns a tuple of complex scalars:
    a zero at slot 0, J's diagonal at slots 1..s, and after them each other
    structurally non-zero entry of J = dG/dw, of B = dG/dq and of the
    potential's gradient.  A slot of 0 reads a structurally zero entry.
    The lists hold (slot, index) pairs of non-zero entries only:

    forward:  per row a of J, in order: (J_aa, B_ak with k, J_ab with b < a)
    backward: per a, last first: (a, J_aa, d_wV_a, J_ba with b > a)
    gradient: per base coordinate k: (d_qV_k, B_ak with a)

    J is lower triangular, so J wdot = -B p is solved by forward
    substitution and J^T u = d_wV by back substitution over these lists
    (dynamics.ConstrainedSystem.rhs)."""

    kernel: Callable
    forward: tuple
    backward: tuple
    gradient: tuple


def _fiber_solve(A, b) -> np.ndarray:
    """A^(-1) b for A = J or J^T by LAPACK's zgesv (see the module
    docstring); raises CriticalPointError where J is singular or not finite,
    or the result is not finite.  A non-finite entry of J leaves one in its
    LU factors, which are checked in place of J: a contiguous array checks
    faster than J's strided view.  A matrix b's solution comes back in
    Fortran order, as zgesv returns it.  At s = 0 the result is empty."""
    if not len(b):
        return np.zeros(np.shape(b), dtype=complex)
    lu, _, out, info = zgesv(A, b)
    if info > 0 or not (_finite(lu) and _finite(out)):
        raise CriticalPointError("dG/dw is singular or not finite at the point")
    return out


@lru_cache(maxsize=64)
def _lstsq_work(m: int, n: int) -> tuple:
    """zgelsd's workspace sizes (work, rwork, iwork) for an m x n system with
    one right-hand side, queried as NumPy queries them."""
    work, rwork, iwork = zgelsd_lwork(m, n, 1)[:3]
    return int(work.real), int(rwork), int(iwork)


def _lstsq(A, b) -> np.ndarray:
    """The least-squares solution of A x = b that np.linalg.lstsq(A, b,
    rcond=None) returns, by one call of LAPACK's zgelsd (see the module
    docstring).  A non-finite A or b gives an all-nan x without a LAPACK
    call; raises LinAlgError, as NumPy does, where the SVD fails."""
    m, n = A.shape
    if not (_finite(A) and _finite(b)):
        return np.full(n, np.nan, dtype=complex)
    rhs = np.zeros((max(m, n), 1), dtype=complex)
    rhs[:m, 0] = b
    x, _, _, info = zgelsd(A, rhs, *_lstsq_work(m, n), cond=LSTSQ_EPS * max(m, n))
    if info:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:n, 0]


class PointCalculus:
    """Per-point gradients, Hessians and Newton data for the Darboux system.

    Plain first and second partials of the potential and the generators,
    detJ and the potential's denominator are derived symbolically on first
    use, each once, by the first kernel or probe that reads them: the
    constructor derives nothing, and a caller that never evaluates a
    Hessian never derives one.  Every point evaluation of the Darboux
    numerics then reduces to dense (s x s) linear solves.  It keeps no
    per-point state: first_derivatives returns a point's (dG, vg, u), its
    one adjoint solve, and grad, _dg_blocks and darboux_system take those
    as `first` from a caller that stays at the point, or compute them from
    x when it is omitted.  Works for any s, including setups where the
    symbolic quotient forms would be bulky.  The partials are evaluated by generated kernels
    (expr.compile_arrays), each compiled on first use and kept: G; dG, the
    s x N matrix whose columns n: are J = dG/dw and whose columns :n are
    dG/dq; dG and the potential's plain gradient, the first derivatives
    every point evaluation (first_derivatives) needs, in one kernel; the
    potential's value; both Hessians, V's (N x N) and the generators'
    (s x N x N), in one kernel; detJ, for the flow's stop events in
    dynamics; the flow's own kernel (FlowKernel): the structurally non-zero
    entries of J, of dG/dq and of the potential's gradient, as scalars,
    with the index lists that solve for the flow's velocity by triangular
    substitution, no LAPACK call; and one per polynomial the proximity
    probe walks toward.  A Hessian's upper-triangle partial is evaluated
    once and written to both places, zero partials are never evaluated and
    constant ones are filled in once, at compile time.  The fiber numerics
    use the G and dG kernels alone, so they never evaluate V and never meet
    its poles.
    """

    def __init__(self, setup: AlgebraicSetup):
        self.setup = setup
        self.N = len(setup.var_names)
        self.n = setup.n
        self.s = setup.s
        self._probes = {}  # polynomial -> (value, gradient) kernel, on first use

    # -- symbolic tables, each derived on first use -----------------------

    @cached_property
    def _vgrad(self) -> list:
        """The potential's plain partials, one per variable."""
        return [self.setup.potential.diff(v) for v in self.setup.var_names]

    @cached_property
    def _vhess(self) -> list:
        return _hessian_entries(self._vgrad, self.setup.var_names)

    @cached_property
    def _ggrad(self) -> list:
        """The generators' plain partials, s rows of N."""
        order = self.setup.var_names
        return [[g.diff(v) for v in order] for g in self.setup.generators]

    @cached_property
    def _ghess(self) -> list:
        return [_hessian_entries(row, self.setup.var_names) for row in self._ggrad]

    @cached_property
    def det(self) -> RatExpr:
        """detJ, J = dG/dw: zero exactly on the critical set."""
        return det_expr([row[self.n:] for row in self._ggrad])

    @cached_property
    def _den(self) -> RatExpr:
        """The potential's denominator, a polynomial: zero at its poles."""
        return RatExpr(dict(self.setup.potential.den), {(): Fraction(1)})

    @cached_property
    def _g_kernel(self):
        return compile_arrays([Array((self.s,), [
            (g, [(a,)]) for a, g in enumerate(self.setup.generators)])], self.setup.var_names)

    def _dg_array(self) -> Array:
        return Array((self.s, self.N), [(e, [(a, v)]) for a, row in enumerate(self._ggrad)
                                        for v, e in enumerate(row)])

    @cached_property
    def _dg_kernel(self):
        return compile_arrays([self._dg_array()], self.setup.var_names)

    @cached_property
    def _v_kernel(self):
        return self.setup.potential.compile(self.setup.var_names)

    @cached_property
    def _first_kernel(self):
        return compile_arrays([self._dg_array(), Array((self.N,), [
            (e, [(v,)]) for v, e in enumerate(self._vgrad)])], self.setup.var_names)

    @cached_property
    def _hessian_kernel(self):
        N = self.N
        return compile_arrays([
            Array((N, N), _symmetric(self._vhess)),
            Array((self.s, N, N), [entry for a, h in enumerate(self._ghess)
                                   for entry in _symmetric(h, (a,))])], self.setup.var_names)

    @cached_property
    def _det_kernel(self):
        return self.det.compile(self.setup.var_names)

    @cached_property
    def _flow_kernel(self) -> FlowKernel:
        """The constrained flow's kernel and the index lists of its
        triangular substitution (see FlowKernel).  Raises ValueError, naming
        the generator, where J has a structural entry above its diagonal,
        which a generator using an extension variable declared after its
        own makes; parse_problem and nbody.build make none."""
        n, s = self.n, self.s
        J = [row[n:] for row in self._ggrad]
        for a, b in ((a, b) for a in range(s) for b in range(a + 1, s)):
            if not J[a][b].is_zero:
                w = self.setup.w_names
                raise ValueError(f"the generator of {w[a]} depends on {w[b]}, declared after "
                                 "it: the flow needs dG/dw lower triangular")
        targets = [ZERO] + [J[a][a] for a in range(s)]

        def slot(e):
            """e's index among the kernel's values; 0 for a zero e."""
            if e.is_zero:
                return 0
            targets.append(e)
            return len(targets) - 1

        below = [[(slot(J[a][b]), b) for b in range(a)] for a in range(s)]
        B = [[(slot(self._ggrad[a][k]), k) for k in range(n)] for a in range(s)]
        dV = [slot(e) for e in self._vgrad]
        above = [_nonzero((below[b][a][0], b) for b in range(a + 1, s)) for a in range(s)]
        forward = tuple((1 + a, _nonzero(B[a]), _nonzero(below[a])) for a in range(s))
        backward = tuple((a, 1 + a, dV[n + a], above[a]) for a in reversed(range(s)))
        gradient = tuple((dV[k], _nonzero((B[a][k][0], a) for a in range(s))) for k in range(n))
        if len(targets) == 1:  # compile_arrays returns a lone target bare, not in a tuple
            targets.append(ZERO)
        return FlowKernel(compile_arrays(targets, self.setup.var_names),
                          forward, backward, gradient)

    # -- raw evaluations ------------------------------------------------

    def potential_value(self, x) -> complex:
        return complex(self._v_kernel(x))

    def g_values(self, x) -> np.ndarray:
        return self._g_kernel(x)

    def det_value(self, x) -> complex:
        return complex(self._det_kernel(x))

    def constraint_residual(self, x) -> float:
        if not self.s:
            return 0.0
        return float(np.max(np.abs(self.g_values(x))))

    def first_derivatives(self, x):
        """(dG, vg, u) at x: the generators' Jacobian, the potential's plain
        gradient and the adjoint u = J^(-T) d_wV; raises CriticalPointError
        off the good set.  Every adjoint of the Darboux numerics is solved
        here; the flow substitutes its own (dynamics).  A caller that goes
        on at x passes the result as `first` to grad, _dg_blocks or
        darboux_system."""
        dG, vg = self._first_kernel(x)
        return dG, vg, _fiber_solve(dG[:, self.n:].T, vg[self.n:])

    def grad(self, x, first=None) -> np.ndarray:
        """grad V = d_qV - B^T u at x."""
        dG, vg, u = first or self.first_derivatives(np.asarray(x, dtype=complex))
        return vg[: self.n] - dG[:, : self.n].T @ u

    def _dg_blocks(self, x, first=None):
        """(dg, W, dG): the n x N plain partials of the derivation vector g,
        W = dw/dq and the generators' Jacobian.  dg = P^T L, with P = [I; W]
        and L the Hessian of the Lagrangian V - u.G."""
        x = np.asarray(x, dtype=complex)
        n, s, N = self.n, self.s, self.N
        dG, _, u = first or self.first_derivatives(x)
        W = _fiber_solve(dG[:, n:], -dG[:, :n])
        vh, gh = self._hessian_kernel(x)
        # sum_a u_a gh[a]: tensordot's own BLAS call, not a 1-D matmul
        L = vh - np.dot(u[None, :], gh.reshape(s, N * N)).reshape(N, N) if s else vh
        return L[:n] + W.T @ L[n:], W, dG

    def hess(self, x) -> np.ndarray:
        """The intrinsic Hessian P^T L P."""
        dg, W, _ = self._dg_blocks(x)
        return dg[:, :self.n] + dg[:, self.n:] @ W

    def solve_fiber(self, q, w0):
        """Newton-solve G(q, w) = 0 for w at fixed q; None when stuck."""
        n, s = self.n, self.s
        q = np.asarray(q, dtype=complex)
        if s == 0:
            return np.array([], dtype=complex)
        w = np.asarray(w0, dtype=complex).copy()
        for _ in range(FIBER_MAX_ITER):
            x = np.concatenate([q, w])
            gv = self.g_values(x)
            if np.max(np.abs(gv)) <= FIBER_TOL:
                return w
            try:
                step = _fiber_solve(self._dg_kernel(x)[:, n:], gv)
            except CriticalPointError:
                return None
            w = w - step
        x = np.concatenate([q, w])
        if np.max(np.abs(self.g_values(x))) <= FIBER_TOL * 100:
            return w
        return None

    # -- Darboux Newton system -------------------------------------------

    def darboux_residual(self, x) -> np.ndarray:
        """F(x) = (grad V - q, G); zero exactly at Darboux candidates."""
        x = np.asarray(x, dtype=complex)
        g = self.grad(x)
        return np.concatenate([g - x[: self.n], self.g_values(x)])

    def darboux_system(self, x, first=None) -> np.ndarray:
        """The plain Jacobian of F = darboux_residual(x) for Newton
        iterations: rows dg - [I 0], then dG.  The residual itself is the
        caller's (darboux._newton keeps each point's rows)."""
        dg, _, dG = self._dg_blocks(x, first)
        Jac = np.concatenate([dg, dG])
        Jac.ravel()[: self.n * (self.N + 1): self.N + 1] -= 1  # the diagonal of dg/dq
        return Jac

    # -- proximity probes --------------------------------------------------

    def _near_zero_set(self, f: RatExpr, x, radius) -> bool:
        """Gauss-Newton toward (G = 0, f = 0) for a polynomial f; True when a
        solution sits within `radius` of x.  Measures distance to a set
        rather than the value of f, which stays meaningful for
        barely-converged candidates.  A constant f is decided by its value."""
        c = f.constant_value()
        if c is not None:
            return c == 0
        if f not in self._probes:
            order = self.setup.var_names
            self._probes[f] = compile_arrays(
                [f, Array((self.N,), [(f.diff(v), [(i,)]) for i, v in enumerate(order)])], order)
        probe = self._probes[f]
        x0 = np.asarray(x, dtype=complex)
        y = x0.copy()
        for _ in range(PROBE_MAX_ITER):
            value, grad = probe(y)
            F = np.append(self.g_values(y), value)
            if np.max(np.abs(F)) <= PROBE_TOL:
                return bool(np.linalg.norm(y - x0) <= radius)
            A = np.vstack([self._dg_kernel(y), grad])
            step = _lstsq(A, F)
            if not np.all(np.isfinite(step)):
                return False
            y = y - step
            if np.linalg.norm(y - x0) > 10 * radius + 1.0:
                return False
        return False

    def near_critical_set(self, x, radius: float = PROBE_RADIUS) -> bool:
        return self._near_zero_set(self.det, x, radius)

    def near_sigma(self, x, radius: float = PROBE_RADIUS) -> bool:
        """The one test for Sigma: a critical point or a pole of the
        potential within `radius` of x."""
        return self.near_critical_set(x, radius) or self._near_zero_set(self._den, x, radius)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    primality_assumed: bool
    samples_used: int
    trials: int
    message: str = ""


def sample_on_variety(pc: PointCalculus, rng: np.random.Generator):
    """One random point of S: random complex q, Newton w from random starts."""
    n, s = pc.n, pc.s
    for _ in range(SAMPLE_ATTEMPTS):
        q = SAMPLE_RADIUS * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        w0 = SAMPLE_RADIUS * (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2)
        w = pc.solve_fiber(q, w0)
        if w is not None:
            return np.concatenate([q, w])
    return None


def validate(pc: PointCalculus, seed: int = 0,
             radius: float = PROBE_RADIUS) -> ValidationReport:
    """Sample pc's variety and check that it is not all critical.

    Primality/codimension of the generating ideal is NOT checked; the report
    says so via primality_assumed.  All VALIDATE_TRIALS samples are drawn,
    each one placed on the variety is probed, and the setup passes when at
    least one is clear: the proximity probe finds no critical point
    (detJ = 0) within radius of it.  A distance decides, not the size of
    detJ, which scales with the variables: a sample whose fiber solve
    stalled near a degenerate sheet is critical although its detJ is not
    small, and a setup whose detJ is small everywhere is not rejected.
    """
    rng = np.random.default_rng(seed)
    used = 0
    clear = 0
    for _ in range(VALIDATE_TRIALS):
        x = sample_on_variety(pc, rng)
        if x is None:
            continue
        used += 1
        if not pc.near_critical_set(x, radius):
            clear += 1
    if used == 0:
        return ValidationReport(ok=False, primality_assumed=True, samples_used=0,
                                trials=VALIDATE_TRIALS,
                                message="could not place any sample on the variety")
    ok = clear > 0
    msg = "" if ok else ("the critical-set probe found a critical point (detJ = 0) within "
                         "the probe radius of every sample; setup rejected")
    return ValidationReport(ok=ok, primality_assumed=True, samples_used=used,
                            trials=VALIDATE_TRIALS, message=msg)


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


def detect_homogeneity(setup: AlgebraicSetup):
    """Weighted-homogeneity weights of the setup, or None when none exists.

    All base coordinates share one weight d1; each extension variable gets
    its own.  The constraints say every polynomial in sight (each generator,
    and numerator/denominator of the potential separately) is isobaric; the
    solution ray is scaled to coprime integers with d1 > 0, the gcd taken
    over (d1, weights, d2).  The constraints are solved over Fractions, so
    V(a.x) = a^d2 V(x) and G_j(a.x) = a^w_j G_j(x) hold as identities of
    the setup's exact polynomials: nothing is evaluated or sampled.
    """
    s = setup.s
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
    return Homogeneity(d1=ints[0], weights=tuple(ints[1:]), d2=d2)
