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
import cmath
import dataclasses
import math
import sys
from fractions import Fraction
from typing import NoReturn

import numpy as np

from .calculus import PointCalculus
from .dynamics import CriticalSetError, integrate
from .expr import ExprError
from .admissibility import TableError, check_pair_exact, check_pair_numeric
from .nbody import NBodyConfig, build as build_nbody
from .parsing import ParseError, load_problem
from .pipeline import (EXIT_ERROR, EXIT_OK, EXIT_USAGE, OPTION_RANGES, POSITIVE_INT,
                       TOOL_VERSION, AnalysisOptions, accepted_entry, analyze,
                       darboux_section, hunt, report_head, report_json, table_entry)
from .varode import build_ve, monodromy_report

_DEFAULTS = AnalysisOptions()


def _flag_type(parse, what, ok=None):
    """An argparse type: parse(text), a usage error saying what the value
    must be when parse fails or, given ok, when ok(value) is false."""
    def convert(text):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be {what}") from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is out of range: must be {what}")
        return value
    return convert


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


def _all_finite(vector) -> bool:
    """The one finiteness test of a vector read from the command line or a seeds file."""
    return bool(np.isfinite(vector).all())


LAMBDA = _flag_type(_parse_lambda, "a rational like 7/8 or a finite number like 1.25 or 1+0.5i",
                    cmath.isfinite)
TIME = _flag_type(float, "a finite number", math.isfinite)
VECTOR = _flag_type(_parse_vector, "comma-separated finite real numbers",
                    lambda vector: _all_finite(vector) and not vector.imag.any())
MASSES = _flag_type(lambda text: tuple(Fraction(m) for m in text.split(",")),
                    "comma-separated rationals")


def _input_error(message: str) -> NoReturn:
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_ERROR)


def _read_seeds(path: str, dim: int) -> tuple:
    """The start vectors in a seeds file, one per line; EXIT_ERROR when the
    file cannot be read or a line is not a vector of dim finite numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.split("#", 1)[0].strip() for line in fh]
    except (OSError, UnicodeError) as exc:
        _input_error(f"cannot read seeds file: {exc}")
    seeds = []
    for number, row in enumerate(rows, 1):
        if not row:
            continue
        try:
            seed = _parse_vector(row)
        except ValueError:
            seed = ()
        if len(seed) != dim:
            _input_error(f"seeds file error: {path}: line {number}: "
                         f"not {dim} comma-separated numbers")
        if not _all_finite(seed):
            _input_error(f"seeds file error: {path}: line {number}: a number is not finite")
        seeds.append(seed)
    return tuple(seeds)


def _emit(text: str, out: str | None):
    """Write a command's output to the file out, or to standard output;
    EXIT_ERROR, naming the path, when the file cannot be written."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _input_error(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return load_problem(path)
    except ParseError as exc:
        _input_error(f"problem file error: {exc}")
    except OSError as exc:
        _input_error(f"cannot read problem file: {exc}")


def _add_hunt_args(p):
    """One flag per option of OPTION_RANGES, with AnalysisOptions' default,
    then seeds and out."""
    for name, (kind, what_it_sets) in OPTION_RANGES.items():
        p.add_argument("--" + name.replace("_", "-"), type=_flag_type(*kind),
                       default=getattr(_DEFAULTS, name), help=what_it_sets)
    p.add_argument("--seeds", metavar="FILE", help="file of start vectors, one comma-separated row per line")
    p.add_argument("--out", metavar="FILE", help="write the JSON report here instead of stdout")


def _add_analysis_args(p):
    """Everything a full analysis reads: every option, seeds and timings."""
    _add_hunt_args(p)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")


def _options_from(args, setup, nbody=None) -> AnalysisOptions:
    """The AnalysisOptions that a command's flags set; each option that the
    command has no flag for keeps its default."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(AnalysisOptions)
             if f.name in vars(args)}
    given["seeds"] = _read_seeds(args.seeds, len(setup.var_names)) if args.seeds else ()
    return AnalysisOptions(**given, nbody=nbody)


def cmd_analyze(args) -> int:
    setup = _load(args.problem)
    report, code = analyze(setup, _options_from(args, setup))
    _emit(report_json(report), args.out)
    return code


def cmd_darboux(args) -> int:
    setup = _load(args.problem)
    pc = PointCalculus(setup)
    # as in analyze: a coefficient without a double is refused before any
    # start, not by whichever kernels the starts reach
    pc.compile_analysis_kernels()
    res = hunt(pc, _options_from(args, setup))
    report = {
        **report_head(setup),
        **darboux_section(res),
        "accepted": [accepted_entry(rep) for rep in res.accepted],
    }
    _emit(report_json(report), args.out)
    return EXIT_OK


def cmd_check_table(args) -> int:
    try:
        if isinstance(args.lam, Fraction) and not args.numeric:
            verdict = check_pair_exact(args.k, args.lam)
        else:
            verdict = check_pair_numeric(args.k, complex(args.lam))
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {"k": verdict.k, "obstruction_if_hypotheses_hold": verdict.obstruction,
              **table_entry(verdict)}
    _emit(report_json(report), args.out)
    return EXIT_OK


def cmd_ve(args) -> int:
    if not isinstance(args.lam, Fraction):
        print("error: the variational equation needs an exact rational eigenvalue",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        ve = build_ve(args.k, args.lam)
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
    return EXIT_OK


def cmd_simulate(args) -> int:
    setup = _load(args.problem)
    q0, p0 = args.q0, args.p0
    w0 = np.zeros(setup.s) if args.w0 is None else args.w0
    if len(q0) != setup.n or len(p0) != setup.n or len(w0) != setup.s:
        print("error: state dimensions do not match the problem", file=sys.stderr)
        return EXIT_USAGE
    t_grid = np.linspace(args.t0, args.t1, args.samples)
    try:
        traj = integrate(setup, q0, p0, w0, t_grid, project=args.project)
    except ExprError:
        raise  # not a usage error: main reports it with EXIT_ERROR
    except (CriticalSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(report_json({"label": setup.label, **dataclasses.asdict(traj)}), args.out)
    return EXIT_OK


def cmd_nbody(args) -> int:
    masses = args.masses or (Fraction(1),) * args.n
    try:
        cfg = NBodyConfig(n=args.n, dim=args.dim, masses=masses)
        setup = build_nbody(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.analyze:
        report, code = analyze(setup, _options_from(args, setup, nbody=cfg))
        _emit(report_json(report), args.out)
        return code
    if args.json:
        _emit(report_json({"label": setup.label,
                           "problem_text": setup.to_problem_text()}), args.out)
    else:
        _emit(setup.to_problem_text(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    _add_hunt_args(p)
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
    p.add_argument("--lambda", dest="lam", type=LAMBDA, required=True,
                   help="eigenvalue: exact like 7/8, or numeric like 1.25 or 1+0.5i")
    p.add_argument("--numeric", action="store_true",
                   help="decide from the eigenvalue's float value: exact input is read "
                        "as a number, and the verdict is exact when that number "
                        "reconstructs as a rational")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_check_table)

    p = sub.add_parser("ve", help="variational equation exponents and monodromy")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=LAMBDA, required=True)
    p.add_argument("--monodromy", action="store_true",
                   help="continue solutions around the loops and report eigenvalue errors")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_ve)

    p = sub.add_parser("simulate", help="integrate the constrained flow")
    p.add_argument("problem")
    p.add_argument("--q0", type=VECTOR, required=True, help="comma-separated initial positions")
    p.add_argument("--p0", type=VECTOR, required=True, help="comma-separated initial momenta")
    p.add_argument("--w0", type=VECTOR, help="comma-separated initial fiber values (default zeros)")
    p.add_argument("--t0", type=TIME, default=0.0)
    p.add_argument("--t1", type=TIME, default=1.0)
    p.add_argument("--samples", type=_flag_type(*POSITIVE_INT), default=33)
    p.add_argument("--project", action="store_true",
                   help="Newton-correct the fiber variables at each sample time")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("nbody", help="emit or analyze an n-body problem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--masses", type=MASSES, help="comma-separated masses (default all 1)")
    p.add_argument("--analyze", action="store_true",
                   help="run the full pipeline instead of printing the problem")
    p.add_argument("--json", action="store_true",
                   help="wrap the emitted problem text in a JSON object")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_nbody)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprError as exc:  # a coefficient of a derived partial has no double
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:  # loader failures; keep the int contract
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
