"""Darboux points: solutions of grad V = q on the variety, classified.

A Darboux point is a joint zero of the variety equations G = 0 and the
normalization grad V(q, w) = q (intrinsic gradient), excluding the origin
and anything inside the critical set of the potential.  Solutions can come
in positive-dimensional families, so the Newton iteration uses least-squares
steps and candidates are deduplicated rather than assumed isolated.  The
residual rows grad V - q and G come from one place, the calculus's trial
kernel (PointCalculus.darboux_trial): each Newton trial reads them against
the current residual, and a candidate's reported residuals and Hessian
are those of the trial that ended its start, so no point is evaluated
after the search.

Rejection is conservative: a candidate is discarded when a short Newton
probe finds an actual critical point within a small radius, not merely when
the fiber determinant is small at the candidate itself.  That distinction
matters for spurious roots that stall close to, but not on, the singular
locus.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .calculus import CriticalPointError, NewtonSystem, PointCalculus, _largest, _lstsq
from .expr import HALVINGS, SCALES, PoleError, rows_below

ORIGIN_TOL = 1e-8
BASE_PROJECTION_TOL = 1e-8
CONV_TOL = 1e-12  # Newton stops once the residual is this small
MAX_ITER = 200  # Newton steps per start
DEDUP_TOL = 1e-6  # candidates closer than this (relative) are one point
START_RADIUS = 2.0  # random starts are uniform in this box, per component
N_RANDOM = 24  # random starts per hunt
ACCEPT_TOL = 1e-9  # a start ending with a larger residual failed
# an iterate with an entry above 1e8 diverged: every absolute at most 1e8 is
# below this (expr.rows_below)
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


def _trial(pc: PointCalculus, x, xs, pins, res: float, system: NewtonSystem):
    """(r, first) when every row of x's residual F is below res, r the
    largest of their Python absolutes, with the trial's values `first`
    (darboux_trial); else the index of the row of F that failed in the
    trial kernel, or None where no row is named: a pin row fails or the
    point is refused.  The trial runs on Python complex: xs is x as a list,
    and one call of the trial kernel (PointCalculus.darboux_trial) decides
    each row of G and of grad V - q against res after computing only the
    values it reads, stopping at the first that fails.  Only a trial whose
    kernel rows pass computes its pin rows pins @ x, which NumPy computes,
    and decides them (expr.rows_below).  Every row is decided by Python's
    abs(v) < res, and r is the largest of the same absolutes, so the next
    trial's rows are compared with the absolute that they are decided by.
    The order of the decisions cannot change the outcome: a row that fails,
    a pole (PoleError) and a refused J (CriticalPointError) each reject the
    trial, and only the kernel call raises.  Only a trial whose every row
    passes writes its rows to the start's system (PointCalculus.newton_system)
    as F and writes its Jacobian through the system's views
    (darboux_system) from the first derivatives and Hessians the kernel
    gave; a trial that fails leaves F and the Jacobian whole.  Each row
    written to F passed rows_below, which fails an infinite or nan row, so
    F is finite.  A point off the domain (singular fiber, potential pole)
    fails."""
    try:
        out = pc.darboux_trial(xs, res)
    except (CriticalPointError, PoleError):
        return None
    if not isinstance(out, tuple):
        return out
    rows, first = out
    if pins is not None:
        lin = (pins @ x).tolist()
        if not rows_below(lin, res):
            return None
        rows += tuple(lin)
    system.F[:] = rows
    pc.darboux_system(first, system)
    return max(map(abs, rows)), first


def _newton(pc: PointCalculus, x0: np.ndarray, pins, conv_tol: float, max_iter: int):
    """Damped Gauss-Newton for the Darboux system plus homogeneous linear
    conditions pins @ x = 0 (pins None for none).

    A line-search trial is accepted when the largest entry of its residual
    F = (grad V - q, G, pins @ x) is below the current one or at most
    conv_tol; while the search runs the current residual exceeds conv_tol,
    so that is every row's Python absolute below the current residual, and
    the residual is the largest of those absolutes (_trial).  The start
    point is a trial against res = inf.  The trial at the halving k is the
    point x + 2^-k step (expr.SCALES), k < 30 (expr.HALVINGS).  A trial is one call of the trial kernel, which
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
    The start makes one Newton system (PointCalculus.newton_system), which
    holds F, the Jacobian with the pin rows below it, the least-squares
    buffers and the views through which a Jacobian writes.  Only the start
    point and an accepted trial build a Jacobian, from the values of its
    one kernel call, through those views, and each step is one
    least-squares solve of the system (calculus._lstsq), which writes -F
    and checks only the Jacobian finite, F being finite by construction
    (_trial); the step is checked finite on its list, which the row tests
    read.  Every decision and iterate is still bit for bit that of a
    search that builds the full system at every trial.  The start point is
    refused where an entry is not finite, so no iterate holds a nan, and
    an iterate with an entry above 1e8 diverged, decided on its list by
    the rows' rule (expr.rows_below).

    Returns (x, res, rows, first): the final iterate and residual, then
    the residual rows (grad V - q, G) and the values `first` that the
    trial at exactly x gave (the start point's or the last accepted one's;
    the rows are F's leading m, which only such a trial writes), from
    which solve_darboux reports the candidate without evaluating it again.
    Returns None when the start point is off the domain or not finite, or
    the iteration diverged.
    """
    m = pc.n + pc.s
    x = np.asarray(x0, dtype=complex).copy()
    xs = x.tolist()
    if not all(map(isfinite, xs)):
        return None
    system = pc.newton_system(pins)
    start = _trial(pc, x, xs, pins, np.inf, system)
    if not isinstance(start, tuple):
        return None
    res, first = start
    row_tests, test = pc.row_tests, None
    for _ in range(max_iter):
        if res <= conv_tol:
            return x, res, system.F[:m], first
        step = _lstsq(system)
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
            r = _trial(pc, x_try, xs_try, pins, res, system)
            if isinstance(r, tuple):
                break
            test = None if r is None else row_tests[r]
            k += 1
        if k == HALVINGS:
            break
        x, xs, (res, first) = x_try, xs_try, r
        if not rows_below(xs, DIVERGED):
            return None
    return x, res, system.F[:m], first


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

    # first-seen dedup; seeds were queued before random starts on purpose
    distinct = []
    failed = 0
    for x0, label in starts:
        out = _newton(pc, x0, pins, CONV_TOL, MAX_ITER)
        if out is None or out[1] > accept_tol:
            failed += 1
            continue
        x = out[0]
        norm = max(1.0, _largest(x))
        if not any(_largest(x - kept[0]) <= DEDUP_TOL * norm for kept, _ in distinct):
            distinct.append((out, label))

    result = DarbouxResult(failed_starts=failed)
    n = pc.n
    for (x, _, rows, first), label in distinct:
        # the rows and values of the trial that ended the start, at x
        report = partial(DarbouxReport, point=x, grad_residual=_largest(rows[:n]),
                         constraint_residual=_largest(rows[n:]), start_label=label)
        if pc.near_sigma(x):
            result.rejected.append(report(
                sigma_flag=True, reason="within the critical set of the potential "
                                        "(probe found a singular point nearby)"))
        elif _largest(x) < ORIGIN_TOL:
            result.rejected.append(report(reason="the origin is excluded by definition"))
        else:
            degenerate = _largest(x[:n]) < BASE_PROJECTION_TOL
            result.accepted.append(report(
                degenerate=degenerate, hessian=pc.hess(first),
                reason="base projection vanishes; no spectral verdict" if degenerate else ""))

    def sort_key(rep):
        return tuple((round(float(v.real), 9), round(float(v.imag), 9))
                     for v in rep.point)

    result.accepted.sort(key=sort_key)
    result.rejected.sort(key=sort_key)
    return result
