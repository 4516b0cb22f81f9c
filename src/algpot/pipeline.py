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
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .calculus import PointCalculus, check_calculus, detect_homogeneity, validate
from .darboux import N_RANDOM, DarbouxReport, DarbouxResult, solve_darboux
from .admissibility import Certificate, TableVerdict, certify, check_pair
from .nbody import NBodyConfig, central_config_seeds, pinning_conditions, split_gauge_spectrum
from .parsing import AlgebraicSetup
from .spectrum import eigen

TOOL_NAME = "algpot"
TOOL_VERSION = "0.1.0"  # the package version; pyproject.toml reads it from here

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ERROR = 3  # unreadable or malformed input
EXIT_USAGE = 2
EXIT_OBSTRUCTION = 10

# The kinds of numeric option, as (type, what a value must be, its test).
NONNEGATIVE_INT = (int, "an integer >= 0", lambda v: v >= 0)
POSITIVE_INT = (int, "an integer >= 1", lambda v: v >= 1)
# Each numeric analysis option, as (kind, what it sets).  AnalysisOptions
# refuses a value outside its kind's range, the report echoes each under
# `options`, and the CLI makes each a flag of the same name with dashes,
# parsed as its kind, with AnalysisOptions' default.  The thresholds that
# decide a verdict are not options: darboux.ACCEPT_TOL, calculus.PROBE_RADIUS,
# spectrum.RATIONAL_TOL and spectrum.MAX_DENOMINATOR are fixed, so a
# certificate depends only on the problem, the seeds and n_random.
OPTION_RANGES = {
    "seed": (NONNEGATIVE_INT, "RNG seed for sampling and starts"),
    "n_random": (NONNEGATIVE_INT, "number of random Newton starts"),
}


@dataclass
class AnalysisOptions:
    seed: int = 0
    n_random: int = N_RANDOM
    seeds: tuple = ()
    timings: bool = False
    nbody: NBodyConfig | None = None

    def __post_init__(self):
        for name, ((_, what, ok), _) in OPTION_RANGES.items():
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


def report_head(setup: AlgebraicSetup) -> dict:
    """The entries that open a report on a problem: the tool and the label."""
    return {"tool": {"name": TOOL_NAME, "version": TOOL_VERSION}, "label": setup.label}


def _candidate_entry(rep: DarbouxReport, **entries) -> dict:
    """The report's entry for a Darboux candidate: the point, its residuals
    and `entries`."""
    return {"point": rep.point, "grad_residual": rep.grad_residual,
            "constraint_residual": rep.constraint_residual, **entries}


def accepted_entry(rep: DarbouxReport) -> dict:
    """The report's entry for an accepted Darboux point."""
    return _candidate_entry(rep, degenerate=rep.degenerate, start=rep.start_label)


def darboux_section(dres: DarbouxResult) -> dict:
    """The report's summary of a Darboux hunt: counts and rejected points."""
    return {
        "n_accepted": len(dres.accepted),
        "n_rejected": len(dres.rejected),
        "failed_starts": dres.failed_starts,
        "rejected": [_candidate_entry(rep, reason=rep.reason, in_critical_set=rep.sigma_flag)
                     for rep in dres.rejected],
    }


def table_entry(verdict: TableVerdict) -> dict:
    """The report's entry for a table verdict; each witness names its Kimura
    case under `row` and its integer shift under `p`."""
    return {
        "mode": verdict.mode,
        "matched": verdict.matched,
        "lambda": verdict.lam,
        "witnesses": [{"row": w.case, "p": w.p} for w in verdict.witnesses],
        "note": verdict.note,
    }


def hunt(pc: PointCalculus, opt: AnalysisOptions) -> DarbouxResult:
    """Hunt Darboux points of pc's setup as opt says: from opt.seeds and
    opt.n_random random starts, and for an n-body problem from its known
    central configurations first, under its pinning conditions."""
    seeds = list(opt.seeds)
    linear_conditions = None
    if opt.nbody is not None:
        known = central_config_seeds(opt.nbody)
        seeds = [s for _, s in known] + seeds
        base = seeds[0] if seeds else np.zeros(pc.N)
        linear_conditions = pinning_conditions(opt.nbody, np.asarray(base))
    return solve_darboux(pc, seeds=seeds, n_random=opt.n_random,
                         seed=opt.seed, linear_conditions=linear_conditions)


def _close(report: dict, cert: Certificate, code: int, timings: dict | None):
    """Finish a report with its certificate, exit code and any timings."""
    report["certificate"] = asdict(cert)
    report["exit_code"] = code
    if timings is not None:
        report["timings"] = timings
    return report, code


def analyze(setup: AlgebraicSetup, options: AnalysisOptions | None = None,
            pc: PointCalculus | None = None):
    """Run the full pipeline; returns (report dict, exit code).  pc, when
    given, must be setup's PointCalculus (check_calculus), and a caller that
    analyzes one setup many times passes one; without it one is built
    here.  The calculus keeps no per-point state, so the report is the
    same either way."""
    pc = pc or PointCalculus(setup)
    check_calculus(pc, setup)
    opt = options or AnalysisOptions()
    timings = {}  # seconds per stage, in the report only under opt.timings

    report = {
        **report_head(setup),
        "problem": {
            "q": list(setup.q_names),
            "w": list(setup.w_names),
            "generators": [str(g) for g in setup.generators],
            "potential": str(setup.potential),
        },
        "options": {name: getattr(opt, name) for name in OPTION_RANGES},
        "warnings": [],
    }

    # the calculus makes its symbolic tables and kernels on first use.
    # Every kernel the analysis may evaluate is compiled here, before any
    # stage evaluates, so a coefficient without a double is one refusal per
    # problem (ExprError), not one that the hunt's starts decide; the
    # compilation is timed in validate
    t0 = time.perf_counter()
    pc.compile_analysis_kernels()
    val = validate(pc, seed=opt.seed)
    timings["validate"] = time.perf_counter() - t0
    report["validation"] = {
        "ok": val.ok,
        "primality_assumed": val.primality_assumed,
        "samples_used": val.samples_used,
        "trials": val.trials,
        "message": val.message,
    }
    if not val.ok:
        cert = Certificate(status="not_applicable",
                           reasons=["setup failed validation: " + val.message])
        return _close(report, cert, EXIT_VALIDATION, timings if opt.timings else None)

    t0 = time.perf_counter()
    hom = detect_homogeneity(setup)
    timings["homogeneity"] = time.perf_counter() - t0
    if hom is None:
        report["warnings"].append("potential is not weighted homogeneous; "
                                  "admissibility checks are skipped")
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

    t0 = time.perf_counter()
    dres = hunt(pc, opt)
    timings["darboux"] = time.perf_counter() - t0

    report["darboux"] = darboux_section(dres)

    t0 = time.perf_counter()
    points_out = []
    for idx, rep in enumerate(dres.accepted):
        entry = {"index": idx, **accepted_entry(rep)}
        gauge_clusters = []
        if opt.nbody is not None and _point_is_real(rep.point):
            split = split_gauge_spectrum(opt.nbody, rep.hessian, rep.point)
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
            spec = eigen(rep.hessian)

        entry["spectrum"] = {
            "clusters": [asdict(c) for c in gauge_clusters + list(spec.clusters)],
            "diagonalizable": spec.diagonalizable,
            "uncertain": spec.uncertain,
            # inf when no rank decision was made, which JSON cannot carry
            "diag_margin": None if math.isinf(spec.diag_margin) else spec.diag_margin,
        }

        verdict_rows = []
        for cl in spec.clusters:
            vrow = {"eigenvalue": cl.value, "multiplicity": cl.multiplicity, "table": None}
            if k is not None and not rep.degenerate:
                lam = cl.value if cl.rational is None else cl.rational
                vrow["table"] = table_entry(check_pair(k, lam))
            verdict_rows.append(vrow)

        entry["verdicts"] = verdict_rows
        points_out.append(entry)
    timings["spectra"] = time.perf_counter() - t0

    report["points"] = points_out
    cert = certify(k, points_out)
    return _close(report, cert, EXIT_OBSTRUCTION if cert.status == "obstruction" else EXIT_OK,
                  timings if opt.timings else None)
