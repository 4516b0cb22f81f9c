"""Constrained Hamiltonian dynamics on the variety, plus homothetic orbits.

The phase space is (q, p) with the fiber variables w carried along as a
redundant coordinate pinned to the variety by G(q, w) = 0.  The equations
of motion use the variety-intrinsic gradient, so the fiber block J = dG/dw
must stay invertible along the trajectory.  The flow stops only where its
field is undefined: it refuses a start at which the field cannot be
evaluated, stops when det J changes sign, and ends when the integrator
gives up.  No |det J| threshold is involved, so the stop does not depend
on the scale of the variables.

J is lower triangular in declared order: a generator uses only the
extension variables declared up to its own (parse_problem), and the
n-body generators make J diagonal.  The vector field therefore needs no
linear solve.  It reads the point kernel (PointCalculus._point_kernel),
the one adjoint and gradient of the package: the structurally non-zero
entries of J, of B = dG/dq and of the potential's gradient, then u from
J^T u = d_wV by back substitution and grad V = d_qV - B^T u, unrolled
into the kernel.  J wdot = -B p needs p, so it is forward substitution
here, in Python floats over an index list fixed once per setup.  The
kernel refuses a setup whose J has an entry above its diagonal, and a
state where J has a zero or non-finite entry or u is not finite.  For a
real state its complex arithmetic has zero imaginary parts throughout,
so the field has the bits of the same sums in floats; they run in
another order than LAPACK's, so trajectories differ from a solve-based
field in their last bits.

Homothetic orbits exist through any Darboux point of a weighted-homogeneous
potential: all coordinates scale by powers of one scalar profile phi(t),
which solves a one-dimensional ODE.  They are produced here in closed form
up to that scalar integration, together with a residual measuring how well
the scaled curve satisfies the full equations of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy.integrate import solve_ivp

from .calculus import CriticalPointError, Homogeneity, PointCalculus, check_calculus
from .expr import PoleError
from .parsing import AlgebraicSetup

# rtol and atol of every DOP853 integration: trajectories and homothetic profiles
ODE_TOL = 1e-12


class CriticalSetError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrajectoryState:
    t: float
    q: np.ndarray
    p: np.ndarray
    w: np.ndarray
    energy: float
    constraint_residual: float


@dataclass
class Trajectory:
    samples: list
    # "completed", "critical_set" (the start is where the field is undefined,
    # or det J changed sign) or "solver_failed" (the integrator gave up)
    terminated: str
    message: str = ""
    energy_drift: float = 0.0
    max_constraint_residual: float = 0.0

    @property
    def final(self) -> TrajectoryState:
        return self.samples[-1]


def _real(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.size and np.max(np.abs(arr.imag)) > 1e-12 * max(1.0, np.max(np.abs(arr.real))):
        raise ValueError("real dynamics requires a real phase point")
    return arr.real.astype(float)


class ConstrainedSystem:
    """The vector field and bookkeeping quantities at real states of pc's setup."""

    def __init__(self, pc: PointCalculus):
        self.pc = pc
        self.n = pc.n
        self.s = pc.s

    def split(self, y: np.ndarray):
        n, s = self.n, self.s
        return y[:n], y[n:2 * n], y[2 * n:2 * n + s]

    def join(self, q, p, w) -> np.ndarray:
        return np.concatenate([np.asarray(q, float), np.asarray(p, float),
                               np.asarray(w, float)])

    def point(self, y: np.ndarray) -> np.ndarray:
        """The complex variety point (q, w) of the state y."""
        q, _, w = self.split(y)
        return np.concatenate([q, w]).astype(complex)

    def energy(self, y: np.ndarray) -> float:
        p = self.split(y)[1]
        return float(0.5 * np.dot(p, p) + self.pc.potential_value(self.point(y)).real)

    def constraint_residual(self, y: np.ndarray) -> float:
        return self.pc.constraint_residual(self.point(y))

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """(p, -grad V, wdot) at the state y: grad V from the point kernel,
        wdot from J wdot = -B p by forward substitution over its values.
        Raises CriticalSetError at a pole of the potential, where the point
        kernel refuses the state (a zero or non-finite entry of J, or a
        non-finite u), or where the field is not finite.  The point (q, w)
        is made a list of complex once, here, and the kernel evaluates on
        it (PointKernel.on_list)."""
        point = self.pc._point_kernel
        n = self.n
        state = y.tolist()
        p = state[n:2 * n]
        try:
            v = point.on_list(np.asarray(state[:n] + state[2 * n:], dtype=complex).tolist())
        except (PoleError, CriticalPointError) as exc:
            raise CriticalSetError(str(exc)) from exc
        wdot = []
        for d, row, below in point.forward:
            acc = 0.0
            for i, k in row:
                acc -= v[i].real * p[k]
            for i, b in below:
                acc -= v[i].real * wdot[b]
            wdot.append(acc / v[d].real)
        field = p + [-g.real for g in v[point.grad]] + wdot
        if not all(map(isfinite, field)):
            raise CriticalSetError("the vector field is not finite at the point")
        return np.array(field)

    def project_fiber(self, y: np.ndarray) -> np.ndarray:
        """Newton-correct w back onto G(q, .) = 0, keeping q and p fixed."""
        q, p, w = self.split(y)
        if not self.s:
            return y
        corrected = self.pc.solve_fiber(q.astype(complex), w.astype(complex))
        if corrected is None:
            return y
        return self.join(q, p, corrected.real)


def integrate(setup: AlgebraicSetup, q0, p0, w0, t_grid,
              pc: PointCalculus | None = None,
              project: bool = False) -> Trajectory:
    """Integrate the constrained flow, sampling at the times in t_grid.

    pc, when given, must be setup's PointCalculus; without it one is built
    here.  The flow starts on the variety: w0 is Newton-corrected onto the
    fiber of q0 (pc.solve_fiber, which returns a w0 already on it
    untouched), and ValueError, naming max |G(q0, w0)|, is raised when the
    correction fails.  Raises CriticalSetError, before any sample, if the
    initial point is a pole of the potential, where no state has an energy.
    The flow stops only where its field is undefined:
      - "critical_set" with one sample when the field cannot be evaluated at
        the start (a zero or non-finite diagonal entry of J, or a non-finite
        field);
      - "critical_set" when det J changes sign, or the field becomes
        undefined, mid-flight.  J is lower triangular, so det J changes sign
        exactly when one of its diagonal entries does;
      - "solver_failed" when the integrator gives up, with a last sample
        where it stopped and its message.
    """
    pc = pc or PointCalculus(setup)
    check_calculus(pc, setup)
    sys = ConstrainedSystem(pc)
    t_grid = np.asarray(t_grid, dtype=float)
    q0, p0, w0 = _real(q0), _real(p0), _real(w0)
    w = pc.solve_fiber(q0.astype(complex), w0.astype(complex))
    if w is None:
        off = pc.constraint_residual(np.concatenate([q0, w0]).astype(complex))
        raise ValueError(f"w0 is off the variety, max |G(q0, w0)| = {off:.3g}, and Newton "
                         "could not correct it onto the fiber of q0")
    y = sys.join(q0, p0, w.real)
    try:
        pc.potential_value(sys.point(y))
    except PoleError as exc:
        raise CriticalSetError(f"initial point is a pole of the potential ({exc}); "
                               "the flow is undefined here") from exc

    def sample(t, yv):
        return TrajectoryState(t=float(t), q=yv[:sys.n].copy(),
                               p=yv[sys.n:2 * sys.n].copy(),
                               w=yv[2 * sys.n:].copy(),
                               energy=sys.energy(yv),
                               constraint_residual=sys.constraint_residual(yv))

    samples = [sample(t_grid[0], y)]
    try:
        sys.rhs(t_grid[0], y)
    except CriticalSetError as exc:
        return Trajectory(samples=samples, terminated="critical_set",
                          message=f"initial point lies in the critical set ({exc}); "
                                  "the intrinsic vector field is undefined here",
                          max_constraint_residual=samples[0].constraint_residual)

    def det_sign_event(t, yv):
        return sys.pc.det_value(sys.point(yv)).real

    det_sign_event.terminal = True

    terminated = "completed"
    message = ""
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        try:
            sol = solve_ivp(sys.rhs, (t0, t1), y, method="DOP853",
                            rtol=ODE_TOL, atol=ODE_TOL, events=det_sign_event)
        except CriticalSetError as exc:
            terminated = "critical_set"
            message = str(exc)
            break
        if sol.status == -1:
            terminated = "solver_failed"
            samples.append(sample(sol.t[-1], sol.y[:, -1]))
            message = f"the integrator gave up at t={sol.t[-1]:.6g}: {sol.message}"
            break
        if sol.status == 1:
            terminated = "critical_set"
            t_stop = float(sol.t_events[0][0])
            samples.append(sample(t_stop, sol.y_events[0][0]))
            message = (f"trajectory reached the critical set at t={t_stop:.6g}; "
                       "stopping (det J changed sign)")
            break
        y = sol.y[:, -1]
        if project:
            y = sys.project_fiber(y)
        samples.append(sample(t1, y))

    e0 = samples[0].energy
    drift = max(abs(st.energy - e0) for st in samples)
    cmax = max(st.constraint_residual for st in samples)
    return Trajectory(samples=samples, terminated=terminated, message=message,
                      energy_drift=drift, max_constraint_residual=cmax)


# ---------------------------------------------------------------------------
# homothetic orbits
# ---------------------------------------------------------------------------

@dataclass
class HomotheticOrbit:
    times: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    states: list  # (q, p, w) complex arrays per sample
    hamiltonian: np.ndarray  # complex H(t) values
    expected_hamiltonian: complex  # k * V(c)
    eq_residual: float  # worst violation of the momentum equation
    constraint_residual: float
    truncated: bool  # phi reached the collapse threshold before the end


def homothetic_orbit(setup: AlgebraicSetup, hom: Homogeneity, c,
                     t_grid, branch: int = +1,
                     pc: PointCalculus | None = None) -> HomotheticOrbit:
    """Scale the Darboux point c through the one-dimensional profile phi.

    The profile solves  phi'' = -phi**(d2-2*d1+1)/d1 - (d1-1)*phi'**2/phi,
    equivalently u'' = -u**(k-1) for u = phi**d1, normalized so that
    u(0)**k = 1/2 and the scalar energy u'**2/2 + u**k/k equals 1.  The
    Hamiltonian along the orbit is then constant and equals degree * V(c).
    A degree 0 or one too small has no such section (ValueError).  pc,
    when given, must be setup's PointCalculus; without it one is built here.
    """
    pc = pc or PointCalculus(setup)
    check_calculus(pc, setup)
    d1, d2 = hom.d1, hom.d2
    kj = hom.weights
    c = np.asarray(c, dtype=complex)
    n, s = pc.n, pc.s
    cq, cw = c[:n], c[n:]

    if d2 == 0:
        raise ValueError("degree 0 has no standard section: u(0)**k = 1/2 has no solution")
    phi0 = 0.5 ** (1.0 / float(d2))
    rad = 2.0 * (1.0 - float(d1) / float(d2) / 2.0)
    if rad < 0:
        raise ValueError("degree too small for the standard section: u(0)**k/k exceeds 1")
    phidot0 = branch * math.sqrt(rad) * phi0 ** (1 - d1) / d1

    gamma = float(d2 - 2 * d1 + 1)

    def rhs(t, y):
        phi, dphi = y
        return [dphi, -phi ** gamma / d1 - (d1 - 1) * dphi * dphi / phi]

    def collapse(t, y):
        return y[0] - 1e-6

    collapse.terminal = True
    collapse.direction = -1

    t_grid = np.asarray(t_grid, dtype=float)
    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), [phi0, phidot0],
                    method="DOP853", rtol=ODE_TOL, atol=ODE_TOL,
                    t_eval=t_grid, events=collapse)
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"profile integration failed: {sol.message}")
    truncated = sol.status == 1
    times = sol.t
    phi = sol.y[0]
    dphi = sol.y[1]

    d1f = float(d1)
    states = []
    H = np.empty(len(times), dtype=complex)
    eq_res = 0.0
    con_res = 0.0
    wexp = np.array([float(k) for k in kj])
    for i, (ph, dp) in enumerate(zip(phi, dphi)):
        q = ph ** d1f * cq
        w = (ph ** wexp) * cw if s else np.zeros(0, dtype=complex)
        p = d1f * dp * ph ** (d1f - 1) * cq
        x = np.concatenate([q, w])
        states.append((q, p, w))
        v = pc.potential_value(x)
        H[i] = 0.5 * np.sum(p * p) + v
        ddp = -ph ** gamma / d1f - (d1f - 1) * dp * dp / ph
        pdot = (d1f * (d1f - 1) * ph ** (d1f - 2) * dp * dp
                + d1f * ph ** (d1f - 1) * ddp) * cq
        grad = pc.grad(x)
        eq_res = max(eq_res, float(np.max(np.abs(pdot + grad))) if n else 0.0)
        con_res = max(con_res, pc.constraint_residual(x))

    vc = pc.potential_value(c)
    expected = complex(hom.degree) * vc
    return HomotheticOrbit(times=times, phi=phi, phi_dot=dphi, states=states,
                           hamiltonian=H, expected_hamiltonian=expected,
                           eq_residual=eq_res, constraint_residual=con_res,
                           truncated=truncated)
