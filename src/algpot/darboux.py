"""Darboux points: solutions of grad V = q on the variety, classified.

A Darboux point is a joint zero of the variety equations G = 0 and the
normalization grad V(q, w) = q (intrinsic gradient), excluding the origin
and anything inside the critical set of the potential.  Solutions can come
in positive-dimensional families, so the Newton iteration uses least-squares
steps and candidates are deduplicated rather than assumed isolated.  The
residual rows grad V - q and G come from one place, the calculus's trial
kernel (PointCalculus.darboux_trial): each Newton trial reads them against
the current residual, and each candidate's reported residuals against an
infinite one.

Rejection is conservative: a candidate is discarded when a short Newton
probe finds an actual critical point within a small radius, not merely when
the fiber determinant is small at the candidate itself.  That distinction
matters for spurious roots that stall close to, but not on, the singular
locus.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass, field

import numpy as np

from .calculus import CriticalPointError, PointCalculus, _largest, _lstsq, lstsq_buffers
from .expr import HALVINGS, SCALES, PoleError, rows_below

ORIGIN_TOL = 1e-8
BASE_PROJECTION_TOL = 1e-8
CONV_TOL = 1e-12  # Newton stops once the residual is this small
MAX_ITER = 200  # Newton steps per start
DEDUP_TOL = 1e-6  # candidates closer than this (relative) are one point
START_RADIUS = 2.0  # random starts are uniform in this box, per component
N_RANDOM = 24  # random starts per hunt
ACCEPT_TOL = 1e-9  # a start ending with a larger residual failed
# an iterate with an entry above 1e8 diverged: every NumPy absolute below this
DIVERGED = float(np.nextafter(1e8, np.inf))


@dataclass
class DarbouxReport:
    point: np.ndarray
    grad_residual: float
    constraint_residual: float
    reason: str = ""
    degenerate: bool = False  # accepted, but base projection vanishes
    sigma_flag: bool = False
    hessian: np.ndarray | None = None  # every accepted point's; None when rejected
    start_label: str = ""


@dataclass
class DarbouxResult:
    accepted: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    failed_starts: int = 0


def _trial(pc: PointCalculus, x, xs, pins, res: float, F, Jac):
    """x's largest residual entry (calculus._largest), a float, when it is
    below res; else the index of the row of F that failed in the trial
    kernel, or None where no row is named: a pin row fails or the point is
    refused.  The trial runs on Python complex: xs is x as a list, and one
    call of the trial kernel (PointCalculus.darboux_trial) decides each
    row of G and of grad V - q against res after computing only the values
    it reads, stopping at the first that fails.  Only a trial whose kernel
    rows pass computes its pin rows pins @ x, which NumPy computes, and
    decides them (expr.rows_below).  The order of the decisions cannot
    change the outcome: a row that fails, a pole (PoleError) and a refused
    J (CriticalPointError) each reject the trial, and only the kernel call
    raises.  Only a trial whose every row passes writes its rows to F,
    takes its residual from them and writes its Jacobian to Jac[:m]
    (darboux_system's out) from the first derivatives and Hessians the
    kernel gave; a trial that fails leaves F and Jac[:m] whole.  A point
    off the domain (singular fiber, potential pole) fails."""
    m = pc.n + pc.s
    try:
        out = pc.darboux_trial(xs, res)
    except (CriticalPointError, PoleError):
        return None
    if not isinstance(out, tuple):
        return out
    rows, first = out
    if pins is not None:
        lin = pins @ x
        if not rows_below(lin.tolist(), res):
            return None
        F[m:] = lin
    F[:m] = rows
    r = _largest(F)
    pc.darboux_system(first, Jac[:m])
    return r


def _newton(pc: PointCalculus, x0: np.ndarray, pins, conv_tol: float, max_iter: int):
    """Damped Gauss-Newton for the Darboux system plus homogeneous linear
    conditions pins @ x = 0 (pins None for none).

    A line-search trial is accepted when the largest entry of its residual
    F = (grad V - q, G, pins @ x) is below the current one or at most
    conv_tol; while the search runs the current residual exceeds conv_tol,
    so that is the largest entry of |F| below the current residual
    (_trial).  The start point is a trial against res = inf.  The trial
    at the halving k is the point x + 2^-k step (expr.SCALES), k < 30
    (expr.HALVINGS).  A trial is one call of the trial kernel, which
    decides the rows of G and of grad V - q as it computes them; the pin
    rows are decided last.
    The trial point, built only for a trial that reaches the kernel, and
    its pin rows are NumPy's; every other value of a trial is a Python
    complex, and only an accepted trial fills F, and keeps its list as
    the iterate's, which the row tests read.
    Trials are rejected before that call while the row that rejected the
    last rejected trial of this start fails again: the search keeps that
    row's test (PointCalculus.row_tests), from one step to the next, and
    runs it first.  The test scans the halvings from the current one and
    returns the first at which its row passes, computing only the
    coordinates that row reads, as Python's x[i] + 2^-k step[i] on the
    iterate's and the step's lists, and the row by the kernel's own
    operations.  Those coordinates equal NumPy's trial point's, and keep
    its bits but for the sign of a zero where 2^-k step[i] underflows
    (NumPy's product may be fused), which moves no absolute; so a test
    rejects only where the kernel would (a row that fails, a pole, a zero
    divisor and an overflowing abs each reject) and moves no trial, and
    the halving it returns goes to the kernel.  A row without a test, a
    pin row and a refused point leave no test to run.
    Only the start point and an accepted trial build a Jacobian, from the
    values of its one kernel call, in place in the leading rows of an
    array that holds the pin rows from the start, and each step is one
    least-squares solve with it on buffers
    that last the whole start (calculus._lstsq), which writes -F; the step
    is checked finite on its list, which the row tests read.  Every
    decision and iterate is still bit for bit that of a search that builds
    the full system at every trial.  The start point is refused where an
    entry is not finite, so no iterate holds a nan, and an iterate with an
    entry above 1e8 diverged, decided on its list as NumPy's absolute
    (expr.rows_below).

    Returns the final iterate and residual, or None when the start point
    is off the domain or not finite, or the iteration diverged.
    """
    m = pc.n + pc.s
    x = np.asarray(x0, dtype=complex).copy()
    xs = x.tolist()
    if not all(map(isfinite, xs)):
        return None
    F = np.empty(m + (0 if pins is None else len(pins)), dtype=complex)
    Jac = np.empty((len(F), pc.N), dtype=complex)
    if pins is not None:
        Jac[m:] = pins
    buffers = lstsq_buffers(len(F), pc.N)
    res = _trial(pc, x, xs, pins, np.inf, F, Jac)
    if not isinstance(res, float):
        return None
    row_tests, test = pc.row_tests, None
    for _ in range(max_iter):
        if res <= conv_tol:
            return x, res
        step = _lstsq(Jac, F, buffers)
        steps = step.tolist()
        if not all(map(isfinite, steps)):
            return None
        k = 0
        while k < HALVINGS:
            if test is not None:
                k = test(xs, steps, k, res)
                if k == HALVINGS:
                    break
            x_try = x + SCALES[k] * step
            xs_try = x_try.tolist()
            r = _trial(pc, x_try, xs_try, pins, res, F, Jac)
            if isinstance(r, float):
                break
            test = None if r is None else row_tests[r]
            k += 1
        if k == HALVINGS:
            break
        x, xs, res = x_try, xs_try, r
        if not rows_below(xs, DIVERGED):
            return None
    return x, res


def solve_darboux(pc: PointCalculus,
                  seeds=(),
                  n_random: int = N_RANDOM,
                  seed: int = 0,
                  accept_tol: float = ACCEPT_TOL,
                  linear_conditions=None) -> DarbouxResult:
    """Hunt for Darboux points of pc's setup from seeds plus random starts.

    linear_conditions, when given, is a matrix A of extra homogeneous
    linear equations A x = 0 appended to the system; gauge symmetries (e.g.
    the translations and rotations of a particle system) are pinned this way.
    """
    N = pc.N
    rng = np.random.default_rng(seed)

    pins = None if linear_conditions is None else np.asarray(linear_conditions, dtype=complex)

    starts = [(np.asarray(s, dtype=complex), f"seed[{i}]")
              for i, s in enumerate(seeds)]
    for i in range(n_random):
        re = rng.uniform(-START_RADIUS, START_RADIUS, N)
        im = rng.uniform(-START_RADIUS, START_RADIUS, N)
        if i % 2 == 0:
            im = np.zeros(N)  # real starts find the real points first
        starts.append((re + 1j * im, f"random[{i}]"))

    candidates = []
    failed = 0
    for x0, label in starts:
        out = _newton(pc, x0, pins, CONV_TOL, MAX_ITER)
        if out is None:
            failed += 1
            continue
        x, res = out
        if res > accept_tol:
            failed += 1
            continue
        candidates.append((x, label))

    # first-seen dedup; seeds were queued before random starts on purpose
    distinct = []
    for x, label in candidates:
        norm = max(1.0, _largest(x))
        if any(_largest(x - y) <= DEDUP_TOL * norm for y, _ in distinct):
            continue
        distinct.append((x, label))

    result = DarbouxResult(failed_starts=failed)
    n = pc.n
    for x, label in distinct:
        # every candidate passed a trial at x, and against an infinite
        # residual every finite row passes
        out = pc.darboux_trial(x.tolist(), np.inf)
        if not isinstance(out, tuple):
            raise RuntimeError(f"the residual rows of candidate {label} failed an infinite bound")
        rows, _ = out
        grad_res, con_res = _largest(rows[:n]), _largest(rows[n:])
        if pc.near_sigma(x):
            result.rejected.append(DarbouxReport(
                point=x, grad_residual=grad_res, constraint_residual=con_res,
                sigma_flag=True, start_label=label,
                reason="within the critical set of the potential "
                       "(probe found a singular point nearby)"))
            continue
        if _largest(x) < ORIGIN_TOL:
            result.rejected.append(DarbouxReport(
                point=x, grad_residual=grad_res, constraint_residual=con_res,
                start_label=label,
                reason="the origin is excluded by definition"))
            continue
        degenerate = _largest(x[:n]) < BASE_PROJECTION_TOL
        result.accepted.append(DarbouxReport(
            point=x, grad_residual=grad_res, constraint_residual=con_res,
            degenerate=degenerate, hessian=pc.hess(x),
            start_label=label,
            reason="base projection vanishes; no spectral verdict" if degenerate else ""))

    def sort_key(rep):
        return tuple((round(float(v.real), 9), round(float(v.imag), 9))
                     for v in rep.point)

    result.accepted.sort(key=sort_key)
    result.rejected.sort(key=sort_key)
    return result
