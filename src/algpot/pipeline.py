"""End-to-end analysis: validate, detect homogeneity, hunt Darboux points,
take spectra, test table admissibility, and assemble a certificate.

The report is a plain dict designed to serialize deterministically: given
the same problem, seed, and options, two runs produce byte-identical JSON.
Complex numbers render as [re, im] pairs, exact rationals as "p/q" strings,
and timings are omitted unless explicitly requested, since they would break
the determinism contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import (DEFAULT_CRITICAL_TOL, PROBE_RADIUS, CalculusError,
                       PointCalculus, detect_homogeneity, validate)
from .darboux import ACCEPT_TOL, N_RANDOM, DarbouxResult, solve_darboux
from .admissibility import certify, check_pair_exact, check_pair_numeric
from .nbody import NBodyConfig, central_config_seeds, pinning_conditions, split_gauge_spectrum
from .parsing import AlgebraicSetup
from .spectrum import MAX_DENOMINATOR, RATIONAL_TOL, eigen

TOOL_NAME = "algpot"
TOOL_VERSION = "0.1.0"  # the package version; pyproject.toml reads it from here

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ERROR = 3  # unreadable or malformed input
EXIT_USAGE = 2
EXIT_OBSTRUCTION = 10

# The range of each numeric analysis option, as (test, what it must be).
# AnalysisOptions refuses a value outside it; the CLI parses its flags
# against the same entries.
NONNEGATIVE_INT = (lambda v: v >= 0, "an integer >= 0")
POSITIVE_INT = (lambda v: v >= 1, "an integer >= 1")
POSITIVE_FINITE = (lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
OPTION_RANGES = {
    "seed": NONNEGATIVE_INT,
    "n_random": NONNEGATIVE_INT,
    "on_variety_tol": POSITIVE_FINITE,
    "critical_tol": POSITIVE_FINITE,
    "rational_tol": POSITIVE_FINITE,
    "max_denominator": POSITIVE_INT,
    "sigma_radius": POSITIVE_FINITE,
}


@dataclass
class AnalysisOptions:
    seed: int = 0
    n_random: int = N_RANDOM
    seeds: tuple = ()
    on_variety_tol: float = ACCEPT_TOL
    critical_tol: float = DEFAULT_CRITICAL_TOL
    rational_tol: float = RATIONAL_TOL
    max_denominator: int = MAX_DENOMINATOR
    sigma_radius: float = PROBE_RADIUS
    include_gauge: bool = False
    timings: bool = False
    nbody: NBodyConfig | None = None

    def __post_init__(self):
        for name, (ok, what) in OPTION_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name}={value!r} is out of range: must be {what}")


def _encode(obj):
    """Make a report tree JSON-ready with stable, lossless conventions."""
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def report_json(report: dict) -> str:
    return json.dumps(_encode(report), sort_keys=True, indent=2) + "\n"


def _point_is_real(x: np.ndarray, tol: float = 1e-9) -> bool:
    scale = max(1.0, float(np.max(np.abs(x))))
    return float(np.max(np.abs(x.imag))) <= tol * scale


def darboux_section(dres: DarbouxResult) -> dict:
    """The report's summary of a Darboux hunt: counts and rejected points."""
    return {
        "n_accepted": len(dres.accepted),
        "n_rejected": len(dres.rejected),
        "failed_starts": dres.failed_starts,
        "rejected": [{
            "point": rep.point,
            "grad_residual": rep.grad_residual,
            "constraint_residual": rep.constraint_residual,
            "reason": rep.reason,
            "in_critical_set": rep.sigma_flag,
        } for rep in dres.rejected],
    }


def analyze(setup: AlgebraicSetup, options: AnalysisOptions | None = None):
    """Run the full pipeline; returns (report dict, exit code)."""
    opt = options or AnalysisOptions()
    timings = {}
    clock = None
    if opt.timings:
        import time
        clock = time.perf_counter

    def tick(name, t0):
        if clock is not None:
            timings[name] = clock() - t0

    report = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "label": setup.label,
        "problem": {
            "q": list(setup.q_names),
            "w": list(setup.w_names),
            "generators": [str(g) for g in setup.generators],
            "potential": str(setup.potential),
        },
        "options": {
            "seed": opt.seed,
            "n_random": opt.n_random,
            "on_variety_tol": opt.on_variety_tol,
            "critical_tol": opt.critical_tol,
            "rational_tol": opt.rational_tol,
            "max_denominator": opt.max_denominator,
            "sigma_radius": opt.sigma_radius,
        },
        "warnings": [],
    }

    t0 = clock() if clock else None
    pc = PointCalculus(setup)
    tick("setup", t0)

    t0 = clock() if clock else None
    val = validate(setup, seed=opt.seed, tol=opt.critical_tol,
                   radius=opt.sigma_radius, pc=pc)
    tick("validate", t0)
    report["validation"] = {
        "ok": val.ok,
        "detj_nonzero": val.detj_nonzero,
        "primality_assumed": val.primality_assumed,
        "samples_used": val.samples_used,
        "trials": val.trials,
        "message": val.message,
    }
    if not val.ok:
        report["certificate"] = {"status": "not_applicable",
                                 "witnesses": [],
                                 "reasons": ["setup failed validation: " + val.message]}
        report["exit_code"] = EXIT_VALIDATION
        if opt.timings:
            report["timings"] = timings
        return report, EXIT_VALIDATION

    t0 = clock() if clock else None
    hom = None
    hom_warning = ""
    try:
        hom = detect_homogeneity(setup, pc=pc)
    except CalculusError as exc:
        hom_warning = f"homogeneity detection inconsistent: {exc}"
    tick("homogeneity", t0)
    if hom is None:
        if not hom_warning:
            hom_warning = ("potential is not weighted homogeneous; "
                           "admissibility checks are skipped")
        report["warnings"].append(hom_warning)
        report["homogeneity"] = {"found": False}
        k = None
    else:
        k = hom.integer_degree
        report["homogeneity"] = {
            "found": True,
            "base_weight": hom.d1,
            "fiber_weights": list(hom.weights),
            "value_weight": hom.d2,
            "degree": hom.degree,
            "integer_degree": k,
        }
        if k is None:
            report["warnings"].append(
                "degree is not an integer; admissibility checks are skipped")

    seeds = list(opt.seeds)
    linear_conditions = None
    if opt.nbody is not None:
        known = central_config_seeds(opt.nbody)
        seeds = [s for _, s in known] + seeds
        base = seeds[0] if seeds else np.zeros(pc.N)
        linear_conditions = pinning_conditions(opt.nbody, np.asarray(base))

    t0 = clock() if clock else None
    dres = solve_darboux(setup, seeds=seeds, n_random=opt.n_random,
                         seed=opt.seed, accept_tol=opt.on_variety_tol,
                         sigma_radius=opt.sigma_radius,
                         pc=pc, linear_conditions=linear_conditions)
    tick("darboux", t0)

    report["darboux"] = darboux_section(dres)

    t0 = clock() if clock else None
    points_out = []
    for idx, rep in enumerate(dres.accepted):
        entry = {
            "index": idx,
            "point": rep.point,
            "grad_residual": rep.grad_residual,
            "constraint_residual": rep.constraint_residual,
            "degenerate": rep.degenerate,
            "start": rep.start_label,
        }
        if rep.hessian is None:
            entry["spectrum"] = None
            points_out.append(entry)
            continue

        gauge_clusters = []
        if opt.nbody is not None and _point_is_real(rep.point):
            split = split_gauge_spectrum(opt.nbody, rep.hessian, rep.point,
                                         tol=opt.rational_tol,
                                         max_den=opt.max_denominator)
            spec = split.reduced
            gauge_clusters = split.gauge_clusters
            entry["gauge"] = {
                "translation_residual": split.translation_residual,
                "rotation_residual": split.rotation_residual,
            }
        else:
            if opt.nbody is not None:
                report["warnings"].append(
                    f"point #{idx}: not real, gauge split skipped")
            spec = eigen(rep.hessian, tol=opt.rational_tol,
                         max_den=opt.max_denominator)

        def cluster_dict(cl):
            return {
                "value": cl.value,
                "multiplicity": cl.multiplicity,
                "geometric_multiplicity": cl.geometric_multiplicity,
                "diagonalizable": cl.diagonalizable,
                "rational": cl.rational,
                "gauge": cl.gauge,
            }

        entry["spectrum"] = {
            "clusters": [cluster_dict(c) for c in gauge_clusters + list(spec.clusters)],
            "diagonalizable": spec.diagonalizable,
            "uncertain": spec.uncertain,
            # inf when no rank decision was made, which JSON cannot carry
            "diag_margin": None if math.isinf(spec.diag_margin) else spec.diag_margin,
        }

        verdict_rows = [{"eigenvalue": cl.value, "multiplicity": cl.multiplicity,
                         "gauge": cl.gauge, "table": None}
                        for cl in gauge_clusters if opt.include_gauge]
        for cl in spec.clusters:
            vrow = {"eigenvalue": cl.value, "multiplicity": cl.multiplicity,
                    "gauge": "", "table": None}
            if k is not None and not rep.degenerate:
                if cl.rational is not None:
                    verdict = check_pair_exact(k, cl.rational)
                else:
                    verdict = check_pair_numeric(k, cl.value, tol=opt.rational_tol,
                                                 max_den=opt.max_denominator)
                vrow["table"] = {
                    "mode": verdict.mode,
                    "matched": verdict.matched,
                    "lambda": verdict.lam,
                    "witnesses": [{"row": w.case, "p": w.p}
                                  for w in verdict.witnesses],
                    "note": verdict.note,
                }
            verdict_rows.append(vrow)

        entry["verdicts"] = verdict_rows
        points_out.append(entry)
    tick("spectra", t0)

    report["points"] = points_out
    cert = certify(k, points_out)
    report["certificate"] = {
        "status": cert.status,
        "witnesses": cert.witnesses,
        "reasons": cert.reasons,
    }
    code = EXIT_OBSTRUCTION if cert.status == "obstruction" else EXIT_OK
    report["exit_code"] = code
    if opt.timings:
        report["timings"] = timings
    return report, code
