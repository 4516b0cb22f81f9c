"""Darboux points: solutions of grad V = q on the variety, classified.

A Darboux point is a joint zero of the variety equations G = 0 and the
normalization grad V(q, w) = q (intrinsic gradient), excluding the origin
and anything inside the critical set of the potential.  Solutions can come
in positive-dimensional families, so the Newton iteration uses least-squares
steps and candidates are deduplicated rather than assumed isolated.  The
residual rows grad V - q and G come from one place, the calculus's trial
kernel (PointCalculus.darboux_trial): each line search is one call of it,
which scans the halvings of the Newton step against the current residual
and returns the first whose rows pass, and a candidate's reported
residuals and Hessian are those of the trial that ended its start, so no
point is evaluated after the search.

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

from .calculus import NewtonSystem, PointCalculus, _largest, _lstsq
from .expr import HALVINGS, SCALES, STAY, rows_below

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


def _accepted(pc: PointCalculus, x, out, pins, res: float, system: NewtonSystem):
    """(r, first) for the trial point x, NumPy's array, whose kernel rows
    and values out = (rows, first) the trial kernel accepted against res
    (PointCalculus.darboux_trial), when its pin rows pins @ x, which NumPy
    computes, pass too (expr.rows_below); else None.  r is the largest
    Python absolute of all its rows, the absolute that decides them, so
    the next trial's rows are compared with the absolute that they are
    decided by.  The accepted trial writes its rows to the start's system
    (PointCalculus.newton_system) as F and its Jacobian through the
    system's views (darboux_system) from the first derivatives and
    Hessians the kernel gave; a trial whose pin rows fail leaves F and the
    Jacobian whole.  Each row written to F passed rows_below, which fails
    an infinite or nan row, so F is finite."""
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
    the residual is the largest of those absolutes (_accepted).  The trial
    at the halving k is the point x + 2^-k step (expr.SCALES), k < 30
    (expr.HALVINGS).  The halvings are scanned inside the trial kernel
    (PointCalculus.darboux_trial): one call decides the rows of G and of
    grad V - q at each halving from k on, computing each coordinate it
    reads as Python's x[i] + 2^-k step[i] on the iterate's and the step's
    lists, and goes on to the next halving without leaving the kernel
    where a row without a test of its own fails or the point is refused
    (a pole, a zero divisor, an overflowing abs, a J or u not finite).  It
    returns where a row that has its own test fails, or with the rows and
    values of the first halving whose rows all pass; only then does the
    search build NumPy's trial point x + 2^-k step, whose pin rows are
    decided last and which becomes the next iterate.  Those coordinates
    equal NumPy's trial point's, and keep its bits but for the sign of a
    zero where 2^-k step[i] underflows (NumPy's product may be fused).
    The start point is the trial against res = inf at its one halving of
    a step that stays (expr.STAY), which reads its own coordinates bit for
    bit.  Every other value of a trial is a Python complex, and only an
    accepted trial fills F.
    Before each call the search runs the own test (PointCalculus.row_tests)
    of the row that rejected the last rejected trial of this start, and
    keeps it from one step to the next; a trial rejected inside the
    kernel, or at a pin row, leaves none.  The test scans the halvings from
    the current one and returns the first at which its row passes,
    computing only the coordinates that row reads, as the kernel does, and
    the row by the kernel's own operations, so it rejects only where the
    kernel would and moves no trial; the halving it returns goes to the
    kernel.
    The start makes one Newton system (PointCalculus.newton_system), which
    holds F, the Jacobian with the pin rows below it, the least-squares
    buffers and the views through which a Jacobian writes.  Only the start
    point and an accepted trial build a Jacobian, from the values of its
    kernel call, through those views, and each step is one least-squares
    solve of the system (calculus._lstsq), which writes -F and checks only
    the Jacobian finite, F being finite by construction (_accepted); the
    step is checked finite on its list, which the scans read.  Every
    decision and iterate is still bit for bit that of a search that
    builds the full system at every trial.  The start point is refused
    where an entry is not finite, so no iterate holds a nan, and an
    iterate with an entry above 1e8 diverged, decided on its list by the
    rows' rule (expr.rows_below).

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
    _, out = pc.darboux_trial(xs, [STAY] * len(xs), HALVINGS - 1, np.inf)
    start = _accepted(pc, x, out, pins, np.inf, system) if isinstance(out, tuple) else None
    if start is None:
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
        k, r = 0, None
        while k < HALVINGS:
            if test is not None:
                k = test(xs, steps, k, res)
            entry = k
            k, out = pc.darboux_trial(xs, steps, k, res)
            if out is None:
                break
            if isinstance(out, int):
                test = row_tests[out]
            else:
                x_try = x + SCALES[k] * step
                r = _accepted(pc, x_try, out, pins, res, system)
                if r is None or k > entry:  # rejected at a pin row or inside the scan
                    test = None
                if r is not None:
                    break
            k += 1
        if r is None:
            break
        x, xs, (res, first) = x_try, x_try.tolist(), r
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
