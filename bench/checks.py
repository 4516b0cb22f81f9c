"""Correctness checks on algpot's outputs.

Residuals are recomputed with the benchmark's own geometry (``problems``),
never with algpot's evaluators.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

POINT_TOL = 1e-7  # scaled Darboux and constraint residual of an accepted point
EIGEN_TOL = 1e-6  # the k-1 eigenvalue, relative to max(1, |k-1|)
MONODROMY_TOL = 1e-6  # product M_inf M_1 M_0 - I and each eigenvalue match
ENERGY_TOL = 1e-8  # relative energy drift of a trajectory or homothetic orbit
COLLISION_TOL = 1e-6


def analysis(problem, report: dict, code: int, reference: dict | None) -> list:
    """Check one analyze() report against the problem's own geometry."""
    errors = []
    status = report["certificate"]["status"]
    if report.get("exit_code") != code or (code == 10) != (status == "obstruction"):
        errors.append(f"exit code {code} does not match status {status}")
    if not report["validation"]["ok"]:
        return errors + ["setup failed validation"]
    points = report["points"]
    if report["darboux"]["n_accepted"] != len(points):
        errors.append("n_accepted differs from the number of reported points")

    for entry in points:
        x = np.asarray(entry["point"], dtype=complex)
        res = problem.darboux_residual(x)
        con = problem.constraint_residual(x) / max(1.0, float(np.max(np.abs(x))))
        if not (res <= POINT_TOL and con <= POINT_TOL):
            errors.append(f"point #{entry['index']}: residual {res:.2e}, "
                          f"constraint {con:.2e}")
        if hasattr(problem, "min_distance") and problem.min_distance(x) < COLLISION_TOL:
            errors.append(f"point #{entry['index']}: collision")

    hom = report["homogeneity"]
    if problem.degree is None:
        if hom["found"]:
            errors.append("homogeneity found on a non-homogeneous problem")
    elif not hom["found"] or Fraction(hom["degree"]) != problem.degree:
        errors.append(f"degree {hom.get('degree')} instead of {problem.degree}")
    else:
        errors += radial_eigenvalue(points, problem.degree)

    if reference is not None:
        got = {"status": status, "accepted": len(points)}
        if got != reference:
            errors.append(f"recall gate: got {got}, reference {reference}")
    return errors


def radial_eigenvalue(points, degree: Fraction) -> list:
    """Euler: at a Darboux point c of a degree-k potential, H c = (k-1) c."""
    errors = []
    target = float(degree) - 1.0
    tol = EIGEN_TOL * max(1.0, abs(target))
    for entry in points:
        if entry["degenerate"] or entry["spectrum"] is None:
            continue
        values = [complex(c["value"]) for c in entry["spectrum"]["clusters"]]
        if not any(abs(v - target) <= tol for v in values):
            errors.append(f"point #{entry['index']}: no eigenvalue k-1 = {target:g}")
    return errors


def cone_answer(report: dict) -> list:
    """The worked example: no obstruction, spectrum {1, 2} at every point."""
    errors = []
    if report["certificate"]["status"] != "no_obstruction":
        errors.append("cone: certificate is not no_obstruction")
    if not report["points"]:
        errors.append("cone: no Darboux points")
    for entry in report["points"]:
        spec = entry["spectrum"]
        rats = sorted(str(c["rational"]) for c in spec["clusters"]) if spec else None
        if rats != ["1", "2"]:
            errors.append(f"cone: point #{entry['index']} spectrum {rats}")
    return errors


def three_body_answer(report: dict) -> list:
    if report["certificate"]["status"] != "obstruction":
        return ["equal-mass 3-body: certificate is not obstruction"]
    return []


def monodromy(ve, rep) -> list:
    errors = []
    if ve.fuchs_residual() != 0:
        errors.append(f"VE({ve.k}, {ve.lam}): Fuchs residual {ve.fuchs_residual()}")
    if not rep.product_error <= MONODROMY_TOL:
        errors.append(f"VE({ve.k}, {ve.lam}): product error {rep.product_error:.2e}")
    for name, err in rep.eigen_errors.items():
        if err is not None and not err <= MONODROMY_TOL:
            errors.append(f"VE({ve.k}, {ve.lam}): loop {name} eigenvalue error {err:.2e}")
    return errors


def _energy(problem, q, p, w) -> complex:
    x = np.concatenate([q, w]).astype(complex)
    return 0.5 * complex(np.sum(np.asarray(p, dtype=complex) ** 2)) + problem.potential(x)


def trajectory(problem, traj, t_end: float) -> list:
    """Completed to t_end, energy conserved and the state on the variety."""
    errors = []
    if traj.terminated != "completed" or abs(traj.final.t - t_end) > 1e-9:
        errors.append(f"{problem.name}: trajectory stopped early ({traj.terminated})")
    e0 = _energy(problem, traj.samples[0].q, traj.samples[0].p, traj.samples[0].w)
    scale = max(1.0, abs(e0))
    for st in traj.samples:
        drift = abs(_energy(problem, st.q, st.p, st.w) - e0) / scale
        con = problem.constraint_residual(np.concatenate([st.q, st.w]))
        if not (drift <= ENERGY_TOL and con <= POINT_TOL):
            errors.append(f"{problem.name}: t={st.t:g} energy drift {drift:.2e}, "
                          f"constraint {con:.2e}")
            break
    return errors


def homothetic(problem, c, orbit, degree: Fraction, energy_const: float) -> list:
    """H(t) = k V(c) e along the orbit, with V evaluated independently."""
    errors = []
    expected = float(degree) * problem.potential(c) * energy_const
    scale = max(1.0, abs(expected))
    if not orbit.states:
        return [f"{problem.name}: empty homothetic orbit"]
    for q, p, w in orbit.states:
        err = abs(_energy(problem, q, p, w) - expected) / scale
        if not err <= ENERGY_TOL:
            errors.append(f"{problem.name}: homothetic energy error {err:.2e}")
            break
    return errors
