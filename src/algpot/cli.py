"""Command-line front end.

Subcommands:
  analyze      full pipeline on a problem file, JSON report, exit 10 on a
               certified obstruction
  darboux      Darboux point hunt only
  check-table  admissibility of one degree/eigenvalue pair by Kimura's
               theorem, with the case and integer shift of each witness
  ve           variational equation data (exponents, Fuchs residual,
               optional monodromy)
  simulate     constrained trajectory integration
  nbody        emit (and optionally analyze) an n-body problem
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from .calculus import DEFAULT_CRITICAL_TOL
from .darboux import solve_darboux
from .dynamics import integrate
from .admissibility import TableError, check_pair_exact, check_pair_numeric
from .nbody import NBodyConfig, build as build_nbody
from .parsing import ParseError, load_problem
from .pipeline import (EXIT_ERROR, EXIT_USAGE, OPTION_RANGES, TOOL_NAME, TOOL_VERSION,
                       AnalysisOptions, analyze, darboux_section, report_json)
from .varode import build_ve, monodromy_report

_DEFAULTS = AnalysisOptions()


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def _parse_lambda(text: str):
    """Exact Fraction when the literal allows it, complex otherwise."""
    try:
        return Fraction(text)
    except ValueError:
        return _parse_complex(text)


def _parse_vector(text: str) -> np.ndarray:
    items = [t for t in text.replace(";", ",").split(",") if t.strip()]
    return np.array([_parse_complex(t) for t in items])


def _read_seeds(path: str):
    seeds = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                seeds.append(_parse_vector(line))
    return seeds


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return load_problem(path)
    except ParseError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    except OSError as exc:
        print(f"cannot read problem file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _bounded(convert, option):
    """An argparse type: convert(text), a usage error unless it lies in the
    range of the AnalysisOptions field `option`."""
    ok, what = OPTION_RANGES[option]

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be {what}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is out of range: must be {what}")
        return value
    return parse


def _add_common_solver_args(p):
    p.add_argument("--seed", type=_bounded(int, "seed"), default=_DEFAULTS.seed,
                   help="RNG seed for sampling and starts")
    p.add_argument("--n-random", type=_bounded(int, "n_random"), default=_DEFAULTS.n_random,
                   help="number of random Newton starts")
    p.add_argument("--seeds", metavar="FILE", help="file of start vectors, one comma-separated row per line")
    p.add_argument("--on-variety-tol", type=_bounded(float, "on_variety_tol"),
                   default=_DEFAULTS.on_variety_tol)
    p.add_argument("--sigma-radius", type=_bounded(float, "sigma_radius"),
                   default=_DEFAULTS.sigma_radius,
                   help="probe radius for both validation and the hunt: a sample "
                        "or candidate with a critical point this close is critical")
    p.add_argument("--out", metavar="FILE", help="write the JSON report here instead of stdout")


def _add_table_args(p):
    p.add_argument("--rational-tol", type=_bounded(float, "rational_tol"),
                   default=_DEFAULTS.rational_tol)
    p.add_argument("--max-denominator", type=_bounded(int, "max_denominator"),
                   default=_DEFAULTS.max_denominator)


def _add_analysis_args(p):
    """Everything a full analysis reads: solver, validation and table."""
    _add_common_solver_args(p)
    p.add_argument("--critical-tol", type=_bounded(float, "critical_tol"),
                   default=_DEFAULTS.critical_tol,
                   help="|detJ| at or below which a validation sample counts as critical")
    _add_table_args(p)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")


def _options_from(args, nbody=None) -> AnalysisOptions:
    seeds = tuple(_read_seeds(args.seeds)) if args.seeds else ()
    return AnalysisOptions(
        seed=args.seed,
        n_random=args.n_random,
        seeds=seeds,
        on_variety_tol=args.on_variety_tol,
        critical_tol=args.critical_tol,
        rational_tol=args.rational_tol,
        max_denominator=args.max_denominator,
        sigma_radius=args.sigma_radius,
        include_gauge=getattr(args, "include_gauge_eigenvalues", _DEFAULTS.include_gauge),
        timings=args.timings,
        nbody=nbody,
    )


def cmd_analyze(args) -> int:
    setup = _load(args.problem)
    report, code = analyze(setup, _options_from(args))
    _emit(report_json(report), args.out)
    return code


def cmd_darboux(args) -> int:
    setup = _load(args.problem)
    seeds = _read_seeds(args.seeds) if args.seeds else ()
    res = solve_darboux(setup, seeds=seeds, n_random=args.n_random,
                        seed=args.seed, sigma_radius=args.sigma_radius,
                        accept_tol=args.on_variety_tol)
    report = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "label": setup.label,
        **darboux_section(res),
        "accepted": [{
            "point": rep.point, "grad_residual": rep.grad_residual,
            "constraint_residual": rep.constraint_residual,
            "degenerate": rep.degenerate, "start": rep.start_label,
        } for rep in res.accepted],
    }
    _emit(report_json(report), args.out)
    return 0


def cmd_check_table(args) -> int:
    lam = _parse_lambda(args.lam)
    try:
        if isinstance(lam, Fraction) and not args.numeric:
            verdict = check_pair_exact(args.k, lam)
        else:
            verdict = check_pair_numeric(args.k, complex(lam), tol=args.rational_tol,
                                         max_den=args.max_denominator)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "k": verdict.k,
        "lambda": verdict.lam,
        "mode": verdict.mode,
        "matched": verdict.matched,
        "obstruction_if_hypotheses_hold": verdict.obstruction,
        "witnesses": [{"row": w.case, "p": w.p} for w in verdict.witnesses],
        "note": verdict.note,
    }
    _emit(report_json(report), args.out)
    return 0


def cmd_ve(args) -> int:
    lam = _parse_lambda(args.lam)
    if not isinstance(lam, Fraction):
        print("error: the variational equation needs an exact rational eigenvalue",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        ve = build_ve(args.k, lam)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "k": ve.k,
        "lambda": ve.lam,
        "coefficients": {"a1": ve.a1, "a0": ve.a0, "b0": ve.b0},
        "exponents": {
            "0": list(ve.exponents0),
            "1": list(ve.exponents1),
            "inf": [complex(e) if not isinstance(e, Fraction) else e
                    for e in ve.exponents_inf],
        },
        "fuchs_residual": ve.fuchs_residual(),
    }
    if args.monodromy:
        mrep = monodromy_report(ve)
        report["monodromy"] = {
            "eigen_errors": mrep.eigen_errors,
            "product_error": mrep.product_error,
            "skipped": mrep.skipped,
        }
    _emit(report_json(report), args.out)
    return 0


def cmd_simulate(args) -> int:
    setup = _load(args.problem)
    q0 = _parse_vector(args.q0)
    p0 = _parse_vector(args.p0)
    w0 = _parse_vector(args.w0) if args.w0 else np.zeros(setup.s)
    if len(q0) != setup.n or len(p0) != setup.n or len(w0) != setup.s:
        print("error: state dimensions do not match the problem", file=sys.stderr)
        return EXIT_USAGE
    t_grid = np.linspace(args.t0, args.t1, args.samples)
    traj = integrate(setup, q0, p0, w0, t_grid,
                     sigma_tol=args.sigma_tol, project=args.project)
    report = {
        "label": setup.label,
        "terminated": traj.terminated,
        "message": traj.message,
        "energy_drift": traj.energy_drift,
        "max_constraint_residual": traj.max_constraint_residual,
        "samples": [{
            "t": st.t, "q": st.q, "p": st.p, "w": st.w,
            "energy": st.energy,
            "constraint_residual": st.constraint_residual,
        } for st in traj.samples],
    }
    _emit(report_json(report), args.out)
    return 0


def cmd_nbody(args) -> int:
    masses = [Fraction(m) for m in args.masses.split(",")] if args.masses \
        else [Fraction(1)] * args.n
    try:
        cfg = NBodyConfig(n=args.n, dim=args.dim, masses=tuple(masses))
        setup = build_nbody(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.analyze:
        report, code = analyze(setup, _options_from(args, nbody=cfg))
        _emit(report_json(report), args.out)
        return code
    if args.json:
        _emit(report_json({"label": setup.label,
                           "problem_text": setup.to_problem_text()}), args.out)
    else:
        _emit(setup.to_problem_text(), args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="algpot",
        description="non-integrability obstructions for algebraic potentials")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on a problem file")
    p.add_argument("problem")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("darboux", help="hunt Darboux points only")
    p.add_argument("problem")
    _add_common_solver_args(p)
    p.set_defaults(func=cmd_darboux)

    p = sub.add_parser(
        "check-table",
        help="admissibility of one (degree, eigenvalue) pair by Kimura's theorem",
        description="Decide whether the variational equation of (k, lambda) can have an "
                    "abelian Galois group: its exponent differences 1/k, 1/2 and Delta "
                    "must fall in a Kimura case.  Each witness names the case (dihedral, "
                    "case (i), tetrahedral, octahedral, icosahedral) and the integer "
                    "shift p with +-Delta = residue + p.")
    p.add_argument("--k", type=int, required=True, help="integer degree")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="eigenvalue: exact like 7/8, or numeric like 1.25 or 1+0.5i")
    p.add_argument("--numeric", action="store_true",
                   help="force the numeric route even for exact input")
    _add_table_args(p)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_check_table)

    p = sub.add_parser("ve", help="variational equation exponents and monodromy")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--monodromy", action="store_true",
                   help="continue solutions around the loops and report eigenvalue errors")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_ve)

    p = sub.add_parser("simulate", help="integrate the constrained flow")
    p.add_argument("problem")
    p.add_argument("--q0", required=True, help="comma-separated initial positions")
    p.add_argument("--p0", required=True, help="comma-separated initial momenta")
    p.add_argument("--w0", help="comma-separated initial fiber values (default zeros)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--sigma-tol", type=float, default=DEFAULT_CRITICAL_TOL,
                   help="|detJ| at or below which the flow stops at the critical set")
    p.add_argument("--project", action="store_true",
                   help="Newton-correct the fiber variables at each sample time")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("nbody", help="emit or analyze an n-body problem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--masses", help="comma-separated masses (default all 1)")
    p.add_argument("--analyze", action="store_true",
                   help="run the full pipeline instead of printing the problem")
    p.add_argument("--include-gauge-eigenvalues", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="wrap the emitted problem text in a JSON object")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_nbody)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # loader failures; keep the int contract
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
