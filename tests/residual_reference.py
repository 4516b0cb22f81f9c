"""The Darboux residual's rows by separate steps: the reference that the
package's one producer of them, the trial kernel
(PointCalculus.darboux_trial), is held to.  The variety kernel gives G,
the point kernel gives grad V, and grad V - q is Python's subtraction;
each group of rows is decided by NumPy's absolute, so no reference here
reads the trial kernel or its row tests; jacobian, the Jacobian that the
search builds, and hessian, the Hessian that it reports, read a trial's
values, as the search does."""

import numpy as np

from algpot import calculus
from algpot.calculus import CriticalPointError
from algpot.expr import PoleError


def unfused_trial(pc, xs, res):
    """A trial as separate steps: the variety kernel's G, its rows decided
    by NumPy's absolute, then the point kernel and grad V - q, decided
    likewise; None where a row fails or the point is refused, else
    (rows, first)."""
    try:
        g = pc._variety_kernel(xs)[0]
        if not calculus._largest(g) < res:
            return None
        point = pc._point_kernel
        first = point.on_list(xs)
        rows = [v - q for v, q in zip(first[point.grad], xs)]
        if not calculus._largest(np.array(rows, dtype=complex)) < res:
            return None
    except (CriticalPointError, PoleError):
        return None
    return rows + g.tolist(), first


def reference_rows(pc, x):
    """The residual rows (grad V - q, G) at the array x as an array, from
    the unfused steps; None where a row is not finite or the point is
    refused."""
    trial = unfused_trial(pc, np.asarray(x, dtype=complex).tolist(), np.inf)
    return None if trial is None else np.array(trial[0], dtype=complex)


def trial_values(pc, x):
    """The values `first` of a trial at x against res = inf
    (darboux_trial), which a Jacobian reads: the point's first derivatives
    and its Hessians.  Raises where the trial does."""
    return pc.darboux_trial(np.asarray(x, dtype=complex).tolist(), np.inf)[1]


def jacobian(pc, x):
    """darboux_system at x, from a trial's values (trial_values), in a
    fresh array."""
    return pc.darboux_system(trial_values(pc, x), np.empty((pc.n + pc.s, pc.N), dtype=complex))


def hessian(pc, x):
    """hess at x, from a trial's values (trial_values)."""
    return pc.hess(trial_values(pc, x))


def point_values(pc, x) -> tuple:
    """The point kernel's values at x (PointKernel.on_list), which grad reads."""
    return pc._point_kernel.on_list(np.asarray(x, dtype=complex).tolist())
