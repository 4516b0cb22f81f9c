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

J is lower triangular: a generator uses only the extension variables
declared up to its own (PointCalculus._jacobian, which refuses any other
setup), and the n-body generators make J diagonal.  So every solve with J
is triangular substitution and no LAPACK solve is left: one generated
kernel gives a point's first derivatives, the structurally non-zero
entries of dG and of the potential's gradient, then u by back
substitution and grad V, all unrolled into straight-line code
(expr.Substitution); W and the fiber Newton step are forward substitution
(_forward), one vectorised division for the rows without a below-diagonal
entry, which covers all of n-body.  Substitution is backward stable
componentwise (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 8), so it replaces an LU solve; the tests hold it to NumPy's solve
within a relative bound.  A zero diagonal entry of J, a non-finite entry
of J or a non-finite u is refused as critical on every call: an infinite
entry can leave a finite, meaningless u.  The one u per point serves the
gradient, the Newton Jacobian and the Hessian.  A Darboux search trial is
one call of one more kernel (PointCalculus.darboux_trial): G, then the
point kernel's values, each row of G and of grad V - q tested against
the search's current residual as soon as it is computed (expr.RowTest),
so a trial that fails stops at its first failing row, then the Hessians
of V and of G.  It is the one producer of the Darboux residual's rows,
and a point is evaluated there once: the calculus keeps nothing per
point, and the search passes a trial's values to its Jacobian
(darboux_system) and, for the trial that ended a start, to the
candidate's reported residuals and Hessian (hess), none of which calls a
kernel; every other evaluation computes its own.  Outside the search, one
kernel gives G, dG and the values and gradients of Sigma's non-constant
polynomials (detJ, the potential's denominator;
PointCalculus._variety_kernel), one call per fiber Newton step and per
probe step, which constraint_residual reads too; an analysis compiles
these two kernels alone.
PointCalculus is the one numeric view of a setup: it evaluates plain
partials of V and G, each table derived symbolically on first use and
evaluated by kernels generated on first use, so building a calculus costs
nothing until it evaluates.  It also solves
fibers, samples the variety and probes the distance to the critical set,
which is the one test of criticality: validation and the Darboux hunt ask
the probe alone, never the size of detJ.  The tests hold it against finite
differences of a locally solved branch.  Weighted homogeneity
(detect_homogeneity) needs no numeric view: it is decided exactly from the
setup's polynomials.

Every least-squares solve (the Newton step, the proximity probe's step) is
one call of LAPACK's zgelsy (_lstsq), which returns the step -A^+ b itself
for the system A and the residual b: a complete orthogonal factorization
from QR with column pivoting, which gives the minimum-norm least-squares
solution, rank-deficient systems included, and has no iteration that can
fail to converge (LAPACK Users' Guide, section 2.4.2; Higham, Accuracy and
Stability of Numerical Algorithms, ch. 20).  The SVD driver zgelsd that
np.linalg.lstsq calls gives the same solution in exact arithmetic at 1.7
to 1.9 times the cost on the Newton step's systems; the tests hold the two
to each other within roundoff.  The rank cut-off is NumPy's rcond=None,
eps * max(m, n), and zgelsy's workspace size is queried once per shape; a
caller that solves many systems of one shape (a Newton start, a probe's
walk) makes one NewtonSystem for them: A and F with the right-hand side,
the pivots, the cut-off and the workspace size, and, for a Darboux start
(PointCalculus.newton_system), the views through which each Jacobian
writes A, made once, with the pin rows and dG's structural zeros.
A system whose A has a non-finite entry gets an all-nan solution without
the call, which its callers take as leaving the domain.  F is each
caller's to prove finite: every row of the search's F passed rows_below
against a finite residual or inf, which fails an infinite or nan row, and
the probe tests its own F.  The contraction
sum_a u_a Hess G_a is np.dot of u as a 1 x s row with the Hessians as an
s x N^2 matrix, the BLAS call NumPy's tensordot makes, without its
bookkeeping; a 1-D matmul sums in another order.
"""

from __future__ import annotations

import math
from cmath import isfinite
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import zgelsy, zgelsy_lwork

from .expr import ONE, ZERO, Array, RatExpr, RowTest, Substitution, compile_arrays
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


SINGULAR = "dG/dw is singular or not finite at the point"


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
    """Array entries writing each (a, b, e) at [lead..., a, b] and, off the
    diagonal, at [lead..., b, a]."""
    return [(e, [lead + (a, b)] if a == b else [lead + (a, b), lead + (b, a)])
            for a, b, e in entries]


def _largest(rows) -> float:
    """The largest of NumPy's complex absolutes |rows|, 0 for no rows; nan
    when an entry is nan.  It gives the constraint residual, the value
    that the fiber solve's and the proximity probe's convergence tests
    read, and the Darboux search's residual, of an accepted trial's rows.
    Every row decision
    (expr.rows_below) is NumPy's: the two absolutes differ in the last bit
    of a large share of complex values, so mixing them would move trials
    that tie.  The ufunc's own reduce skips ndarray.max's Python wrapper, a
    third of the test's cost on these few rows."""
    return float(np.maximum.reduce(np.abs(rows), initial=0.0))


def _finite(a) -> bool:
    """Every entry of a is finite; on the solves' small arrays this costs
    half of np.isfinite(a).all()."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _nonzero(pairs) -> tuple:
    """The (slot, index) pairs whose slot reads a structurally non-zero value."""
    return tuple((i, k) for i, k in pairs if i)


class PointKernel(NamedTuple):
    """A point's first derivatives from one kernel (PointCalculus._point_kernel)
    and where its values sit.  on_list(xs), on a list of
    Python complex, returns a tuple of complex scalars: a zero at
    slot 0, each structurally non-zero partial of the potential, the
    structurally non-zero entries of B = dG/dq and of J = dG/dw (J's
    diagonal first, then its entries below the diagonal), the adjoint
    u = J^(-T) d_wV by back substitution, last entry first, and
    grad V = d_qV - B^T u.  Slices and index lists locate them:

    grad:      grad V
    u:         u in order (a reversed slice)
    dG:        the entries of B and J, written at dg_index of the flat
               s x N matrix dG
    checked:   J's entries and u, finite wherever the point is good
    forward:   per row a of J, in order: (J_aa, B_ak with k, J_ab with b < a)
    targets:   the target list the kernel is compiled from, which the
               trial kernel (PointCalculus._trial_kernel) holds after G's

    PointCalculus._point_layout is the same tuple with kernel None: the
    trial kernel and a Jacobian read only the layout, so only the flow and
    grad compile the kernel itself.

    J is lower triangular (PointCalculus._jacobian), so u is back
    substitution unrolled by expr.compile_arrays into the kernel, and the
    flow solves J wdot = -B p by forward substitution over `forward`
    (dynamics.ConstrainedSystem.rhs).  The generators' values are not
    here: the flow never reads them, and the trial kernel computes them
    with these targets (PointCalculus.darboux_trial).
    Every caller holds the point as a list of complex and calls on_list:
    the flow's right-hand side and grad each convert an array once."""

    kernel: Callable
    grad: slice
    u: slice
    dG: slice
    dg_index: np.ndarray
    checked: slice
    forward: tuple
    targets: list

    def on_list(self, xs) -> tuple:
        """self.kernel.on_list(xs) with the kernel's one refusal: where J has
        a zero diagonal entry (its division raises) or an entry at checked,
        J's and u's, is not finite (an infinite one can leave a finite,
        meaningless u), CriticalPointError, on every call.  A pole raises
        PoleError."""
        try:
            values = self.kernel.on_list(xs)
            if all(map(isfinite, values[self.checked])):
                return values
        except ZeroDivisionError:
            pass
        raise CriticalPointError(SINGULAR)


class TrialKernel(NamedTuple):
    """A Darboux search trial's kernel (PointCalculus._trial_kernel) and
    where its values sit.  kernel.on_list(xs, res) tests each row of G
    and then each row of grad V - q against res (expr.RowTest), computing
    before each test only the values of G and of the point kernel
    (PointKernel) that it reads and that are not yet computed, and returns
    the index in rows of the first that fails; the values that no row
    reads come after the last test, the Hessians last, so a trial that
    fails evaluates no Hessian.  kernel.row_tests holds, by the same
    index, the kernel's test of each row alone, which scans the search's
    halvings x + 2^-k step from a given k on and returns the first at
    which the row passes (expr.RowTest), or None where the test would save
    too little of the kernel's code; the row the kernel decides first, G's
    first (grad V's without generators), never has one
    (expr.compile_arrays).  PointCalculus.darboux_trial calls
    kernel.on_list itself and refuses J as PointKernel.on_list does.  The
    values sit at:

    rows:      the m = n + s residual rows (grad V - q, G), in order
    first:     the point kernel's values, as PointKernel indexes them, then
               V's Hessian (N x N) and the generators' (s x N x N)
    checked:   J's entries and u, as PointKernel.checked"""

    kernel: Callable
    rows: slice
    first: slice
    checked: slice


def _forward(J, diagonal, b, coupled) -> np.ndarray:
    """J^(-1) b for a lower-triangular J by forward substitution: b is
    divided by J's diagonal entries at once (diagonal, shaped to divide b:
    a column for a matrix b), which solves each row without a
    below-diagonal entry (all of n-body's), then each row of `coupled`,
    (a, (c, ...)) with J_ac its below-diagonal entries, is recomputed in
    order.  The caller has refused a zero diagonal entry."""
    out = b / diagonal
    for a, cols in coupled:
        acc = b[a]
        for c in cols:
            acc = acc - J[a, c] * out[c]
        out[a] = acc / J[a, a]
    return out


@lru_cache(maxsize=64)
def _lstsq_work(m: int, n: int) -> int:
    """zgelsy's workspace size for an m x n system with one right-hand side."""
    return int(zgelsy_lwork(m, n, 1, LSTSQ_EPS * max(m, n))[0].real)


class NewtonSystem(NamedTuple):
    """One Gauss-Newton system A x = -F, with A rows x N, and what writes and
    solves it, made once for every solve of one caller: darboux._newton's
    for a start, the Sigma probe's for its walk, hess's for a candidate.
    A and F come first, then what _lstsq passes zgelsy: the right-hand
    side, max(rows, N) x 1, whose leading `rows` entries `column` views (the
    rows below it stay zero), the column pivots, the rank cut-off and the
    workspace size.  A Darboux system (PointCalculus.newton_system) also
    holds the views of A through which a Jacobian writes it (_dg_blocks,
    darboux_system), each made with it, and None in every other:

    jacobian:    A's leading m = n + s rows, which darboux_system returns
    dg:          the Jacobian's rows :n
    dG_flat:     its rows n:, dG, flattened, written at the point layout's
                 dg_index
    B, J:        dG's columns :n (dG/dq) and n: (dG/dw)
    J_diagonal:  J's diagonal as an s x 1 column
    diagonal:    the diagonal of dg's columns :n, dg/dq

    A's rows below m, a search's pin rows, and dG's structural zeros are
    written when the system is made and never again."""

    A: np.ndarray
    F: np.ndarray
    rhs: np.ndarray
    column: np.ndarray
    pivots: np.ndarray
    cond: float
    lwork: int
    jacobian: np.ndarray | None = None
    dg: np.ndarray | None = None
    dG_flat: np.ndarray | None = None
    B: np.ndarray | None = None
    J: np.ndarray | None = None
    J_diagonal: np.ndarray | None = None
    diagonal: np.ndarray | None = None


def lstsq_system(rows: int, N: int) -> NewtonSystem:
    """A fresh rows x N system for _lstsq, A zero and F unwritten, without
    Jacobian views."""
    rhs = np.zeros((max(rows, N), 1), dtype=complex)
    return NewtonSystem(np.zeros((rows, N), dtype=complex), np.empty(rows, dtype=complex), rhs,
                        rhs[:rows, 0], np.zeros(N, dtype=np.int32), LSTSQ_EPS * max(rows, N),
                        _lstsq_work(rows, N))


def _lstsq(system: NewtonSystem) -> np.ndarray:
    """The Newton step -A^+ F of the system: the minimum-norm least-squares
    solution of A x = -F, by one call of LAPACK's zgelsy, with the rank
    cut-off of np.linalg.lstsq(A, -F, rcond=None) (see the module
    docstring).  -F, by np.negative, is written into the system's column.
    The column pivots are zeroed before every call, so every column is free
    to move: the driver writes its permutation back into that array, and a
    stale one would fix the columns it names.  A non-finite A gives an
    all-nan x without a LAPACK call; F is the caller's to keep finite.
    Raises LinAlgError where zgelsy reports an error."""
    A = system.A
    if not _finite(A):
        return np.full(A.shape[1], np.nan, dtype=complex)
    np.negative(system.F, out=system.column)
    system.pivots.fill(0)
    _, x, _, _, info = zgelsy(A, system.rhs, system.pivots, system.cond, system.lwork)
    if info:
        raise np.linalg.LinAlgError(f"zgelsy failed (info {info})")
    return x[:A.shape[1], 0]


class PointCalculus:
    """Per-point gradients, Hessians and Newton data for the Darboux system.

    Plain first and second partials of the potential and the generators,
    J = dG/dw (checked lower triangular), detJ and the potential's
    denominator are derived symbolically on first use, each once, by the
    first kernel that reads them: the constructor derives nothing,
    and a caller that never evaluates a Hessian never derives one.  It
    keeps no per-point state: grad evaluates the point kernel
    (PointKernel), its one adjoint and one gradient; darboux_trial returns
    the same values with both Hessians, which _dg_blocks, darboux_system
    and hess take as `first`, with no kernel call of their own: the search
    passes what its trial gave, for a Jacobian and for a candidate's
    Hessian alike.
    The partials are evaluated by generated kernels (expr.compile_arrays),
    each compiled on first use and kept: the variety kernel, G, dG (the
    s x N matrix whose columns n: are J and whose columns :n are
    B = dG/dq) and the values S and gradients dS of Sigma's non-constant
    polynomials, four arrays from one call, which the fiber solve, the
    proximity probe and constraint_residual read; the point kernel, the
    structurally non-zero entries of dG and of the potential's gradient as
    scalars, with u and grad V unrolled after them by triangular
    substitution, which the Darboux numerics and the flow
    (dynamics) both read; the trial kernel, G and the point kernel's
    targets with the Darboux residual's rows tested as they are computed,
    then both Hessians, V's (N x N) and the generators' (s x N x N), one
    call per search trial and the one producer of those rows
    (darboux_trial, TrialKernel); the potential's value; and detJ, for the
    flow's stop events in dynamics.  pipeline.analyze compiles the variety
    and trial kernels before it evaluates anything
    (compile_analysis_kernels).  A Hessian's upper-triangle partial is
    evaluated once and written to both places, a diagonal one to its one
    place (_symmetric), zero partials are never evaluated and constant
    ones are filled in once, at compile time.  The
    fiber numerics use the variety kernel alone, so they never evaluate V
    and never meet its poles.
    """

    def __init__(self, setup: AlgebraicSetup):
        self.setup = setup
        self.N = len(setup.var_names)
        self.n = setup.n
        self.s = setup.s

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
    def _jacobian(self) -> tuple:
        """J = dG/dw as s rows of expressions, lower triangular: a generator
        uses only the extension variables declared up to its own, as every
        setup that parse_problem and nbody.build make does.  Raises
        ValueError, naming the generator, where J has a structural entry
        above its diagonal, which an AlgebraicSetup built otherwise can
        hold.  detJ, the point kernel and every forward substitution read J
        through here, so each refuses such a setup."""
        n, s = self.n, self.s
        J = tuple(tuple(row[n:]) for row in self._ggrad)
        for a, b in ((a, b) for a in range(s) for b in range(a + 1, s)):
            if not J[a][b].is_zero:
                w = self.setup.w_names
                raise ValueError(f"the generator of {w[a]} depends on {w[b]}, declared after "
                                 "it: the numerics need dG/dw lower triangular")
        return J

    @cached_property
    def _coupled(self) -> tuple:
        """(a, (c, ...)) for each row a of J with structural entries J_ac
        below its diagonal, in order: the rows that forward substitution
        cannot solve by one division (_forward)."""
        J = self._jacobian
        rows = ((a, tuple(c for c in range(a) if not J[a][c].is_zero)) for a in range(self.s))
        return tuple((a, cols) for a, cols in rows if cols)

    @cached_property
    def det(self) -> RatExpr:
        """detJ, J = dG/dw: zero exactly on the critical set.  J is lower
        triangular, so detJ is the product of its diagonal, taken
        right-nested, J_00 (J_11 (...)), the expression that cofactor
        expansion along the first row gives."""
        diagonal = [row[a] for a, row in enumerate(self._jacobian)]
        if not diagonal:
            return ONE
        det = diagonal[-1]
        for e in reversed(diagonal[:-1]):
            det = e * det
        return det

    @cached_property
    def _den(self) -> RatExpr:
        """The potential's denominator, a polynomial: zero at its poles."""
        return RatExpr(dict(self.setup.potential.den), {(): Fraction(1)})

    @cached_property
    def _variety_kernel(self):
        """The one kernel of the variety and Sigma at a point: (G, dG, S,
        dS), fresh arrays of s, s x N, k and k x N complex.  dG's columns
        n: are J and its columns :n B = dG/dq; S and dS are the values and
        gradients of Sigma's k <= 2 non-constant polynomials, detJ then the
        potential's denominator (a constant one is decided by its value and
        never compiled).  The fiber solve, the proximity probe and
        constraint_residual read it."""
        order = self.setup.var_names
        sigma = [f for f in (self.det, self._den) if f.constant_value() is None]
        return compile_arrays([
            Array((self.s,), [(g, [(a,)]) for a, g in enumerate(self.setup.generators)]),
            Array((self.s, self.N), [(e, [(a, v)]) for a, row in enumerate(self._ggrad)
                                     for v, e in enumerate(row)]),
            Array((len(sigma),), [(f, [(k,)]) for k, f in enumerate(sigma)]),
            Array((len(sigma), self.N), [(f.diff(v), [(k, i)]) for k, f in enumerate(sigma)
                                         for i, v in enumerate(order)])], order)

    @cached_property
    def _v_kernel(self):
        return self.setup.potential.compile(self.setup.var_names)

    @cached_property
    def _det_kernel(self):
        return self.det.compile(self.setup.var_names)

    @cached_property
    def _point_layout(self) -> PointKernel:
        """The point kernel's targets and the slices and index lists that
        read its values (see PointKernel), with no kernel compiled (None):
        the trial kernel compiles the same targets, and a Jacobian
        (_dg_blocks) reads only the layout."""
        n, s, N = self.n, self.s, self.N
        J = self._jacobian
        targets = [ZERO]

        def slot(e):
            """e's index among the kernel's values; 0 for a zero e."""
            if e.is_zero:
                return 0
            targets.append(e)
            return len(targets) - 1

        dV = [slot(e) for e in self._vgrad]
        b0 = len(targets)
        B = [[(slot(self._ggrad[a][k]), k) for k in range(n)] for a in range(s)]
        j0 = len(targets)
        targets += [J[a][a] for a in range(s)]
        below = [[(slot(J[a][b]), b) for b in range(a)] for a in range(s)]
        u0 = len(targets)
        u = {}  # a -> the index of u_a
        for a in reversed(range(s)):
            above = ((below[b][a][0], u[b]) for b in range(a + 1, s))
            u[a] = len(targets)
            targets.append(Substitution(dV[n + a], _nonzero(above), j0 + a))
        grad0 = len(targets)
        targets += [Substitution(dV[k], _nonzero((B[a][k][0], u[a]) for a in range(s)))
                    for k in range(n)]
        places = [a * N + k for a in range(s) for i, k in B[a] if i]
        places += [a * N + n + a for a in range(s)]
        places += [a * N + n + b for a in range(s) for i, b in below[a] if i]
        return PointKernel(
            None, grad=slice(grad0, grad0 + n), u=slice(u0 + s - 1, u0 - 1, -1),
            dG=slice(b0, u0), dg_index=np.array(places, dtype=np.intp),
            checked=slice(j0, grad0),
            forward=tuple((j0 + a, _nonzero(B[a]), _nonzero(below[a])) for a in range(s)),
            targets=targets)

    @cached_property
    def _point_kernel(self) -> PointKernel:
        """The one kernel of a point's first derivatives (PointKernel),
        compiled on first use: the flow and grad evaluate it, while an
        analysis reads the same values from the trial kernel."""
        layout = self._point_layout
        return layout._replace(kernel=compile_arrays(layout.targets, self.setup.var_names))

    @cached_property
    def _trial_kernel(self) -> TrialKernel:
        """The one kernel of a Darboux search trial (TrialKernel): the s
        generators, then the point kernel's targets, each Substitution
        reading the same outputs s places later, then both Hessians, V's
        and the generators', then a RowTest per residual row, grad V - q
        (the gradient's output minus q_k) and G.  compile_arrays emits it
        in demand order: the generators come first, so G's rows are
        decided before the point kernel's first line, each gradient row
        after only the quotients, adjoint entries and entries of
        B = dG/dq that it reads, and the Hessians, which no row reads,
        after the last decision."""
        s, N = self.s, self.N
        point = self._point_layout
        targets = list(self.setup.generators)
        targets += [t.shifted(s) if isinstance(t, Substitution) else t for t in point.targets]
        targets += [Array((N, N), _symmetric(self._vhess)),
                    Array((s, N, N), [entry for a, h in enumerate(self._ghess)
                                      for entry in _symmetric(h, (a,))])]
        r0 = len(targets)
        targets += [RowTest(s + i, k) for k, i in enumerate(range(point.grad.start,
                                                                   point.grad.stop))]
        targets += [RowTest(a) for a in range(s)]
        return TrialKernel(compile_arrays(targets, self.setup.var_names), rows=slice(r0, None),
                           first=slice(s, r0),
                           checked=slice(s + point.checked.start, s + point.checked.stop))

    def compile_analysis_kernels(self):
        """Compiles the two kernels that an analysis may evaluate: the
        variety kernel (G, dG and Sigma's polynomials with their gradients,
        which the fiber solves and the proximity probes read) and the
        Darboux search's trial kernel, which gives every Jacobian and
        Hessian its values and holds every coefficient of the point kernel.
        pipeline.analyze calls it before it evaluates anything, so a
        derived coefficient that has no double (expr.compile_arrays raises
        ExprError) is refused for the problem, whichever evaluation would
        first have read it; every other caller keeps the calculus lazy."""
        for name in ("_variety_kernel", "_trial_kernel"):
            getattr(self, name)

    # -- raw evaluations ------------------------------------------------

    def potential_value(self, x) -> complex:
        return complex(self._v_kernel(x))

    def det_value(self, x) -> complex:
        return complex(self._det_kernel(x))

    def constraint_residual(self, x) -> float:
        """The largest |G| at x (_largest), 0 without generators."""
        return _largest(self._variety_kernel(x)[0])

    def darboux_trial(self, xs, res: float):
        """A Darboux search trial at xs, a list of Python complex in
        variable order, against the current residual res: the index of the
        first row of F = (grad V - q, G) whose NumPy absolute is not below
        res, in the order the trial kernel (TrialKernel) decides them, else
        (rows, first), the residual rows F, zero exactly at Darboux
        candidates, and the point's values (TrialKernel.first): the point
        kernel's values, then the Hessians.  One call of the trial kernel,
        which stops at the first row that fails (expr.rows_below), having
        computed only what the rows up to it read; against res = inf every
        finite row passes.  J's entries and u are checked only when every
        row has passed, here, as PointKernel.on_list checks them; raises
        CriticalPointError and PoleError as grad does, but only where the
        kernel reaches the pole or J's zero diagonal entry: a row that
        fails first returns its index.  The search's one trial entry
        (darboux._trial), and the one producer of the rows and of every
        Hessian that the search reports."""
        trial = self._trial_kernel
        try:
            values = trial.kernel.on_list(xs, res)
        except ZeroDivisionError:
            raise CriticalPointError(SINGULAR) from None
        if not isinstance(values, tuple):
            return values
        if not all(map(isfinite, values[trial.checked])):
            raise CriticalPointError(SINGULAR)
        return values[trial.rows], values[trial.first]

    @property
    def row_tests(self) -> tuple:
        """The trial kernel's own test of each row (TrialKernel), by the
        index of the row that darboux_trial returns: test(xs, steps, k,
        res) is the first halving from k on at which the row passes."""
        return self._trial_kernel.kernel.row_tests

    def grad(self, x) -> np.ndarray:
        """grad V = d_qV - B^T u at x, from one call of the point kernel
        (PointKernel.on_list).  Raises CriticalPointError off the good set
        and PoleError at a pole of the potential."""
        point = self._point_kernel
        return np.array(point.on_list(np.asarray(x, dtype=complex).tolist())[point.grad],
                        dtype=complex)

    def newton_system(self, pins=None) -> NewtonSystem:
        """A Darboux Newton system (NewtonSystem) with its Jacobian views:
        the Jacobian's m = n + s rows, zero until a Jacobian is written,
        then the rows of pins (None for none), written here."""
        n, s, N = self.n, self.s, self.N
        m = n + s
        system = lstsq_system(m + (0 if pins is None else len(pins)), N)
        A = system.A
        if pins is not None:
            A[m:] = pins
        flat, dG = A.reshape(-1), A[n:m]
        return system._replace(jacobian=A[:m], dg=A[:n], dG_flat=dG.reshape(-1), B=dG[:, :n],
                               J=dG[:, n:], J_diagonal=flat[n * N + n:m * N:N + 1, None],
                               diagonal=flat[:n * (N + 1):N + 1])

    def _dg_blocks(self, first, system: NewtonSystem):
        """(dg, W): the n x N plain partials of the derivation vector g and
        W = dw/dq = -J^(-1) B by forward substitution, from a trial's
        values `first` (darboux_trial), its first derivatives and, last,
        its two Hessians, with no kernel call.  dg = P^T L, with P = [I; W]
        and L the Hessian of the Lagrangian V - u.G.  The generators'
        Jacobian dG and then dg are written through the views of a Darboux
        system (newton_system), dG's entries at dg_index, whose structural
        zeros the system holds, and dg is returned as its view.  The trial
        refused a zero diagonal entry and a non-finite entry of J, so W
        needs no check of its own."""
        n, s, N = self.n, self.s, self.N
        point = self._point_layout
        system.dG_flat[point.dg_index] = first[point.dG]
        W = _forward(system.J, system.J_diagonal, -system.B, self._coupled)
        vh, gh = first[-2:]
        # sum_a u_a gh[a]: tensordot's own BLAS call, not a 1-D matmul
        if s:
            u = np.array(first[point.u], dtype=complex)
            L = vh - np.dot(u[None, :], gh.reshape(s, N * N)).reshape(N, N)
        else:
            L = vh
        return np.add(L[:n], W.T @ L[n:], out=system.dg), W

    def hess(self, first) -> np.ndarray:
        """The intrinsic Hessian P^T L P from a trial's values `first`
        (darboux_trial), with no kernel call, in a system of its own: the
        search passes what the trial that ended a start gave at its
        candidate (darboux._newton)."""
        dg, W = self._dg_blocks(first, self.newton_system())
        return dg[:, :self.n] + dg[:, self.n:] @ W

    def solve_fiber(self, q, w0):
        """Newton-solve G(q, w) = 0 for w at fixed q; None when stuck: where
        J has a zero diagonal entry or a non-finite entry, or the step by
        forward substitution is not finite."""
        n, s = self.n, self.s
        q = np.asarray(q, dtype=complex)
        if s == 0:
            return np.array([], dtype=complex)
        coupled = self._coupled
        w = np.asarray(w0, dtype=complex).copy()
        for _ in range(FIBER_MAX_ITER):
            G, dG, _, _ = self._variety_kernel(np.concatenate([q, w]))
            if _largest(G) <= FIBER_TOL:
                return w
            J = dG[:, n:]
            diagonal = J.diagonal()
            if not (diagonal.all() and _finite(J)):
                return None
            step = _forward(J, diagonal, G, coupled)
            if not _finite(step):
                return None
            w = w - step
        if self.constraint_residual(np.concatenate([q, w])) <= FIBER_TOL * 100:
            return w
        return None

    # -- Darboux Newton system -------------------------------------------

    def darboux_system(self, first, system: NewtonSystem) -> np.ndarray:
        """The plain Jacobian of the Darboux residual F = (grad V - q, G)
        (darboux_trial) for Newton iterations, from a trial's values
        `first` (_dg_blocks), with no kernel call: rows dg - [I 0], then
        dG, written through the views of a Darboux system (newton_system)
        into its leading rows, system.jacobian, which is returned.
        darboux._newton passes what its accepted trial gave and the system
        of its start, so the Jacobian is built where the step reads it.
        The residual itself is the caller's (darboux._newton keeps each
        point's rows)."""
        self._dg_blocks(first, system)
        np.subtract(system.diagonal, 1, out=system.diagonal)  # dg/dq's diagonal
        return system.jacobian

    # -- proximity probes --------------------------------------------------

    def _near_zero_set(self, f: RatExpr, x) -> bool:
        """Gauss-Newton toward (G = 0, f = 0) for f, detJ or the potential's
        denominator; True when a solution sits within PROBE_RADIUS of x.
        Measures distance to a set rather than the value of f, which stays
        meaningful for barely-converged candidates.  Each step reads G, dG
        and f's row of S and dS, detJ's first and the denominator's last,
        from one call of the variety kernel, and writes them into the one
        system of the probe (lstsq_system), G with S[row] as F and dG
        with dS[row] as A.  A step whose F is not finite ends the probe
        (False), as a non-finite A does through _lstsq, which checks only
        A.  A constant f is decided by its value."""
        c = f.constant_value()
        if c is not None:
            return c == 0
        row = -1 if f is self._den else 0
        x0 = np.asarray(x, dtype=complex)
        y = x0.copy()
        system = lstsq_system(self.s + 1, self.N)
        A, F = system.A, system.F
        for _ in range(PROBE_MAX_ITER):
            G, dG, S, dS = self._variety_kernel(y)
            F[:-1], F[-1] = G, S[row]
            if _largest(F) <= PROBE_TOL:
                return bool(np.linalg.norm(y - x0) <= PROBE_RADIUS)
            if not _finite(F):
                return False
            A[:-1], A[-1] = dG, dS[row]
            step = _lstsq(system)
            if not _finite(step):
                return False
            y = y + step
            if np.linalg.norm(y - x0) > 10 * PROBE_RADIUS + 1.0:
                return False
        return False

    def near_critical_set(self, x) -> bool:
        return self._near_zero_set(self.det, x)

    def near_sigma(self, x) -> bool:
        """The one test for Sigma: a critical point or a pole of the
        potential within PROBE_RADIUS of x."""
        return self.near_critical_set(x) or self._near_zero_set(self._den, x)


def check_calculus(pc: PointCalculus, setup: AlgebraicSetup):
    """ValueError when pc was built for another setup: the one rule of every
    entry point that takes a caller's calculus (pipeline.analyze,
    dynamics.integrate, dynamics.homothetic_orbit).  Two setups may share a
    label (every 3x2 n-body problem has one), and the message says so
    rather than name it twice."""
    if pc.setup == setup:
        return
    if pc.setup.label == setup.label:
        raise ValueError(f"the PointCalculus passed for {setup.label!r} was built for a "
                         "different setup with the same label")
    raise ValueError(f"the PointCalculus of {pc.setup.label!r} was passed for {setup.label!r}")


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


def validate(pc: PointCalculus, seed: int = 0) -> ValidationReport:
    """Sample pc's variety and check that it is not all critical.

    Primality/codimension of the generating ideal is NOT checked; the report
    says so via primality_assumed.  All VALIDATE_TRIALS samples are drawn,
    each one placed on the variety is probed, and the setup passes when at
    least one is clear: the proximity probe finds no critical point
    (detJ = 0) within PROBE_RADIUS of it.  A distance decides, not the size of
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
        if not pc.near_critical_set(x):
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
