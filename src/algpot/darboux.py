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

from dataclasses import dataclass, field

import numpy as np

from .calculus import CriticalPointError, PointCalculus, _lstsq
from .expr import PoleError, rows_below

ORIGIN_TOL = 1e-8
BASE_PROJECTION_TOL = 1e-8
CONV_TOL = 1e-12  # Newton stops once the residual is this small
MAX_ITER = 200  # Newton steps per start
DEDUP_TOL = 1e-6  # candidates closer than this (relative) are one point
START_RADIUS = 2.0  # random starts are uniform in this box, per component
N_RANDOM = 24  # random starts per hunt
ACCEPT_TOL = 1e-9  # a start ending with a larger residual failed


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


def _largest(rows) -> float:
    """The largest of NumPy's complex absolutes |rows|, 0 for no rows; nan
    when an entry is nan.  The search's residual is this one absolute of an
    accepted trial's rows, and every row decision (expr.rows_below) is
    NumPy's: the two absolutes differ in the last bit of a large share of
    complex values, so mixing them would move trials that tie.  The ufunc's
    own reduce skips ndarray.max's Python wrapper, a third of the test's
    cost on these few rows."""
    return float(np.maximum.reduce(np.abs(rows), initial=0.0))


def _trial(pc: PointCalculus, x, pins, res: float, F, Jac):
    """x's largest residual entry (_largest) when it is below res, else
    None.  The trial runs on Python complex: x becomes a list once, and one
    call of the trial kernel (PointCalculus.darboux_trial) computes G and
    the point's first derivatives and decides each row of G and of
    grad V - q against res as it computes it, stopping at the first that
    fails.  Only a trial whose kernel rows pass computes its pin rows
    pins @ x, which NumPy computes, and decides them (expr.rows_below).
    The order of the decisions cannot change the outcome: a row that
    fails, a pole (PoleError) and a refused J (CriticalPointError) each
    reject the trial, and nothing else in a trial raises.  Only a trial
    whose every row passes writes its rows to F, takes its residual from
    them and writes its Jacobian to Jac[:m] (darboux_system's out), from
    the first derivatives the trial kernel gave; a trial that fails leaves
    F whole, and one whose Jacobian raises may leave F and Jac[:m] partly
    written, which no step reads before an accepted trial writes them
    whole.  A point off the domain (singular fiber, potential pole) fails."""
    m = pc.n + pc.s
    try:
        out = pc.darboux_trial(x.tolist(), res)
        if out is None:
            return None
        rows, first = out
        if pins is not None:
            lin = pins @ x
            if not rows_below(lin.tolist(), res):
                return None
            F[m:] = lin
        F[:m] = rows
        r = _largest(F)
        pc.darboux_system(x, first, Jac[:m])
    except (CriticalPointError, PoleError):
        return None
    return r


def _newton(pc: PointCalculus, x0: np.ndarray, pins, conv_tol: float, max_iter: int):
    """Damped Gauss-Newton for the Darboux system plus homogeneous linear
    conditions pins @ x = 0 (pins None for none).

    A line-search trial is accepted when the largest entry of its residual
    F = (grad V - q, G, pins @ x) is below the current one or at most
    conv_tol; while the search runs the current residual exceeds conv_tol,
    so that is the largest entry of |F| below the current residual
    (_trial).  The start point is a trial against res = inf.  A trial is
    one call of the trial kernel, which decides the rows of G and of
    grad V - q as it computes them; the pin rows are decided last.  The
    trial point x + scale * step and its pin rows are NumPy's; every other
    value of a trial is a Python complex, and only an accepted trial fills
    F.
    Only the start point and an accepted trial build a Jacobian, in place
    in the leading rows of an array that holds the pin rows from the
    start, and each step is one least-squares solve with it
    (calculus._lstsq); every decision and iterate is still bit for bit that
    of a search that builds the full system at every trial.

    Returns the final iterate and residual, or None when the start point
    is off the domain or not finite, or the iteration diverged.
    """
    m = pc.n + pc.s
    x = np.asarray(x0, dtype=complex).copy()
    F = np.empty(m + (0 if pins is None else len(pins)), dtype=complex)
    Jac = np.empty((len(F), pc.N), dtype=complex)
    if pins is not None:
        Jac[m:] = pins
    res = _trial(pc, x, pins, np.inf, F, Jac)
    if res is None:
        return None
    for _ in range(max_iter):
        if res <= conv_tol:
            return x, res
        step = _lstsq(Jac, -F)
        if not np.isfinite(step).all():
            return None
        scale = 1.0
        for _halving in range(30):
            x_try = x + scale * step
            scale *= 0.5
            r = _trial(pc, x_try, pins, res, F, Jac)
            if r is not None:
                x, res = x_try, r
                break
        else:
            break
        if np.abs(x).max() > 1e8:
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
        norm = max(1.0, float(np.max(np.abs(x))))
        if any(np.max(np.abs(x - y)) <= DEDUP_TOL * norm for y, _ in distinct):
            continue
        distinct.append((x, label))

    result = DarbouxResult(failed_starts=failed)
    n = pc.n
    for x, label in distinct:
        # every candidate passed a trial at x, and against an infinite
        # residual every finite row passes
        out = pc.darboux_trial(x.tolist(), np.inf)
        if out is None:
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
        if float(np.max(np.abs(x))) < ORIGIN_TOL:
            result.rejected.append(DarbouxReport(
                point=x, grad_residual=grad_res, constraint_residual=con_res,
                start_label=label,
                reason="the origin is excluded by definition"))
            continue
        degenerate = float(np.max(np.abs(x[:n]))) < BASE_PROJECTION_TOL if n else True
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
