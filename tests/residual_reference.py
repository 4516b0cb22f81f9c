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
    Newton system of its own."""
    return pc.darboux_system(trial_values(pc, x), pc.newton_system())


def fresh_jacobian(pc, first):
    """The Jacobian that darboux_system writes through a Newton system's
    views, from a trial's values `first`, by the same operations in the
    same order on freshly allocated arrays: dG zeroed and its entries
    scattered, W = -J^(-1) B by forward substitution, L = Hess V -
    u.Hess G, dg = L[:n] + W^T L[n:] and the -1 on dg/dq's diagonal."""
    n, s, N = pc.n, pc.s, pc.N
    point = pc._point_layout
    out = np.zeros((n + s, N), dtype=complex)
    dg, dG = out[:n], out[n:]
    dG.reshape(-1)[point.dg_index] = first[point.dG]
    J = dG[:, n:]
    W = calculus._forward(J, J.diagonal()[:, None], -dG[:, :n], pc._coupled)
    vh, gh = first[-2:]
    if s:
        u = np.array(first[point.u], dtype=complex)
        L = vh - np.dot(u[None, :], gh.reshape(s, N * N)).reshape(N, N)
    else:
        L = vh
    np.add(L[:n], W.T @ L[n:], out=dg)
    out.reshape(-1)[:n * (N + 1):N + 1] -= 1
    return out


def hessian(pc, x):
    """hess at x, from a trial's values (trial_values)."""
    return pc.hess(trial_values(pc, x))


def point_values(pc, x) -> tuple:
    """The point kernel's values at x (PointKernel.on_list), which grad reads."""
    return pc._point_kernel.on_list(np.asarray(x, dtype=complex).tolist())
