"""The Darboux Newton hot path does only the work whose result is used.

The line search runs each trial on Python complex values, as one call of
the trial kernel (PointCalculus.darboux_trial): it decides each row of G
and then of grad V - q against the current residual after computing only
the values that row reads (G, the quotients, the adjoint and grad V), in
demand order, stopping at the first that fails, by Python's abs(v) < res
(expr.rows_below; a property test draws values and residuals within 8 ulp
of each other, and another holds the fused kernel to the variety kernel's
G and the point kernel decided row by row), and names the row that failed;
an accepted trial's residual is the largest of the same absolutes.
Before that call the search runs the row's own test
(PointCalculus.row_tests) of the row that rejected its last rejected
trial, which scans the halvings and rejects only where the unfused steps do, decides its row as they do,
without a warning (a property test on the same points), and reads each
coordinate as NumPy's trial point has it, but for the sign of a zero (a
property test over the whole exponent range).  The trial kernel is the
package's one producer of the residual's rows, so the reference rows here
are those unfused steps (residual_reference), which never read it.  The
pin rows are decided last; a trial whose every row passes hands its first
derivatives and Hessians on to its Jacobian, which calls no kernel, writes
its rows as the residual, and only accepted steps build a Jacobian; the
traced tests follow the row tests and the entry points darboux_trial and
darboux_system, and count the evaluations of the trial kernel and the
point kernel.  Gradients and
Hessians evaluate only their non-zero partials; the calculus keeps no
per-point state, so a trial's first derivatives and the point kernel's
give the same bits.  Each is held here, bit for bit, against the
straightforward form it replaces, and the Lagrangian assembly against the
per-variable one within roundoff.
J = dG/dw is lower triangular, so the adjoint u = J^-T d_wV, grad V,
W = -J^-1 B and the fiber Newton step come from triangular substitution;
they are held to NumPy's solve within a relative bound, and the refusals
of a singular or non-finite J are held on every call.  Successive
Jacobians are written through the views of one Newton system, as a start
writes them, bit for bit the same operations on freshly allocated arrays.
The one least-squares solve, LAPACK's pivoted-QR zgelsy called directly,
is held to NumPy's SVD lstsq within roundoff: a residual no larger, a norm
no larger (the minimum-norm solution) and the same solution relative to
its norm, within the least-squares perturbation bound; on a system reused
after a solve that permuted columns it gives a fresh solve's bits.  It
checks only the matrix finite: every solve of the search gets a finite
residual, and the Sigma probe refuses a non-finite one itself.
"""

import functools
import re
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algpot import calculus, darboux, expr
from algpot.calculus import (CriticalPointError, PointCalculus, PointKernel, _forward, _lstsq,
                             lstsq_system)
from algpot.darboux import CONV_TOL, _newton
from algpot.dynamics import ConstrainedSystem, CriticalSetError
from algpot.expr import HALVINGS, SCALES, ZERO, PoleError, RowTest, compile_arrays, rows_below
from algpot.nbody import NBodyConfig, build, central_config_seeds, pinning_conditions
from algpot.parsing import parse_problem
from algpot.pipeline import AnalysisOptions, hunt

from closure_reference import reference_compile
from conftest import CONE_TEXT, DRAW1_TEXT, PLAIN_TEXT, TRAP_TEXT, float_parts
from residual_reference import (fresh_jacobian, hessian, jacobian, point_values, reference_rows,
                                trial_values, unfused_trial)

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import problems as bench_problems  # noqa: E402
from workloads import corpus  # noqa: E402

LINEAR_TEXT = """\
vars q1 q2
ext w1 : w1 - q1 - 2*q2
potential q1 - 3*w1
"""


def full_system(pc, xv, pins):
    """(F, Jacobian) of the Darboux system plus the pin rows pins @ x = 0,
    the rows from the unfused steps; None where a row is not finite or the
    point is refused."""
    F = reference_rows(pc, xv)
    if F is None:
        return None
    Jac = jacobian(pc, xv)
    if pins is not None:
        F = np.concatenate([F, pins @ xv])
        Jac = np.vstack([Jac, pins])
    return F, Jac


def largest(rows) -> float:
    """The largest Python absolute of rows (absolute), 0 for none: the
    search's residual, of the one absolute that decides its rows."""
    return max(map(absolute, np.asarray(rows).tolist()), default=0.0)


def newton_full_system(pc, x0, pins, conv_tol, max_iter):
    """Backtracking that builds the full system at every trial, its rows
    and residual by Python's absolute (largest).

    Returns (result, accepted steps); result is what _newton returns.
    """
    x = np.asarray(x0, dtype=complex).copy()
    accepted = 0

    def system(xv):
        return full_system(pc, xv, pins)

    try:
        start = system(x)
    except (CriticalPointError, PoleError):
        return None, accepted
    if start is None:
        return None, accepted
    F, Jac = start
    res = largest(F)
    for _ in range(max_iter):
        if res <= conv_tol:
            return (x, res), accepted
        step = fresh_lstsq(Jac, F)
        if not np.all(np.isfinite(step)):
            return None, accepted
        scale = 1.0
        improved = False
        for _halving in range(30):
            x_try = x + scale * step
            try:
                trial = system(x_try)
            except (CriticalPointError, PoleError):
                trial = None
            if trial is None:
                scale *= 0.5
                continue
            F_try, Jac_try = trial
            r_try = largest(F_try)
            if r_try < res or r_try <= conv_tol:
                x, F, Jac, res = x_try, F_try, Jac_try, r_try
                accepted += 1
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
        if largest(x) > 1e8:
            return None, accepted
    return ((x, res) if res < np.inf else None), accepted


def solve_with(system, A, b):
    """_lstsq's step -A^+ b, with A and b written into the system."""
    system.A[:], system.F[:] = A, b
    return _lstsq(system)


def fresh_lstsq(A, b):
    """_lstsq's step -A^+ b, on a system made for this one solve."""
    return solve_with(lstsq_system(*A.shape), A, b)


def random_starts(N, count, seed, radius=2.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        re = rng.uniform(-radius, radius, N)
        im = rng.uniform(-radius, radius, N) if i % 2 else np.zeros(N)
        out.append(re + 1j * im)
    return out


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a[0].tobytes() == b[0].tobytes() and a[1] == b[1]


@pytest.fixture(scope="module")
def three_body():
    cfg = NBodyConfig(n=3, dim=2, masses=(1, 1, 1))
    pc = PointCalculus(build(cfg))
    seeds = [s for _, s in central_config_seeds(cfg)]
    return cfg, pc, seeds


def cone_cases():
    pc = PointCalculus(parse_problem(CONE_TEXT))
    return [(pc, x0, None, 200, CONV_TOL) for x0 in random_starts(3, 8, seed=5)]


def three_body_cases(cfg, pc, seeds, pinned):
    pins = None
    if pinned:
        pins = np.asarray(pinning_conditions(cfg, np.asarray(seeds[0])), dtype=complex)
    rng = np.random.default_rng(11)
    # near a central configuration the search converges; from random
    # starts it mostly stalls, which a short max_iter samples cheaply
    near = [s + 0.05 * rng.standard_normal(pc.N) for s in seeds]
    cases = [(pc, x0, pins, 200, CONV_TOL) for x0 in near]
    cases += [(pc, x0, pins, 40, CONV_TOL) for x0 in random_starts(pc.N, 6, seed=3)]
    # asked for a zero residual, a converging search stalls at roundoff:
    # trials too short to move the point tie the current residual exactly
    cases += [(pc, x0, pins, 200, 0.0) for x0 in near[:2]]
    return cases


def hunt_cases(cfg, pc):
    """The equal-mass 3x2 hunt's own starts at hunt seed 0, as pipeline.hunt
    makes them: its seeds and random starts, its pins and MAX_ITER."""
    cases = []

    def record(pc_, x0, pins, conv_tol, max_iter):
        cases.append((pc_, x0, pins, max_iter, conv_tol))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(darboux, "_newton", record)
        hunt(pc, AnalysisOptions(nbody=cfg, seed=0))
    return cases


@pytest.mark.parametrize("pinned", [False, True])
def test_newton_matches_full_system_search(three_body, pinned):
    cfg, pc, seeds = three_body
    cases = three_body_cases(cfg, pc, seeds, pinned)
    if pinned:
        hunt_starts = hunt_cases(cfg, pc)
        assert len(hunt_starts) == 26 and all(c[3] == darboux.MAX_ITER for c in hunt_starts)
        cases += hunt_starts
    else:
        cases += cone_cases()
    converged = 0
    for pc_, x0, pins, max_iter, conv_tol in cases:
        expected, _ = newton_full_system(pc_, x0, pins, conv_tol, max_iter)
        got = _newton(pc_, x0, pins, conv_tol, max_iter)
        assert same_bits(got, expected)
        converged += got is not None and got[1] <= CONV_TOL
    assert converged >= 2  # the comparison covers converged starts too


def test_row_test_compares_numpys_absolute_with_the_residual():
    # _largest is NumPy's absolute, which carries a nan through to the
    # fiber solve's and the probe's tests, the reports and the dedup
    rows = np.array([0.5, 3 + 4j, -1j])
    assert calculus._largest(rows) == 5.0
    assert np.isnan(calculus._largest(np.array([0.5, np.nan, 1.0])))
    assert calculus._largest(np.array([0.5, complex(0, -np.inf)])) == np.inf
    assert calculus._largest(np.zeros(0, dtype=complex)) == 0.0
    # a search row is decided by Python's abs, the absolute that the
    # search's residual is made of: where Python's abs and NumPy's
    # absolute differ in the last bit (one value each way), a row whose
    # Python absolute equals res fails, in rows_below and in a kernel, the
    # next float up passes, and NumPy's absolute as res is decided by
    # Python's
    for v in (0.42654310306871945 + 0.9179862439359936j,
              0.5478467492858172 - 0.9208531449445188j):
        assert abs(v) != np.abs(v)
        assert rows_below([0.1, v], abs(v)) is False
        assert NEGATED_ROW.on_list([v], abs(v)) == 0
        assert rows_below([0.1, v], np.nextafter(abs(v), np.inf)) is True
        assert isinstance(NEGATED_ROW.on_list([v], np.nextafter(abs(v), np.inf)), tuple)
        assert rows_below([v], np.abs(v)) is bool(abs(v) < np.abs(v))
    assert rows_below([], 0.0) is True  # no rows
    assert rows_below([0.5, complex(np.nan, 0.0)], np.inf) is False
    # Python's abs overflows, also where NumPy's absolute is the largest double
    assert rows_below([complex(1.5e308, 1.5e308)], np.inf) is False
    assert rows_below([complex(np.finfo(float).max, 2.0 ** 998)], np.inf) is False


def absolute(v) -> float:
    """Python's abs of v as a complex, inf where it overflows: a row passes
    exactly where this is below res (expr.rows_below)."""
    try:
        return abs(complex(v))
    except OverflowError:
        return np.inf


def moved(value, ulps):
    """value moved by ulps units in the last place (nan stays nan)."""
    with np.errstate(over="ignore"):  # the largest double moved up is inf
        for _ in range(abs(ulps)):
            value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return float(value)


# one row, 0 - v, whose absolute is v's: the row test as a kernel emits it
NEGATED_ROW = compile_arrays([ZERO, RowTest(0, 0)], ("v",))


def shifted_bound(reference, shift):
    """reference moved by shift ulps, or 0 or inf."""
    return {"zero": 0.0, "inf": np.inf}[shift] if isinstance(shift, str) else (
        moved(reference, shift))


SHIFTS = st.one_of(st.integers(-8, 8), st.sampled_from(["zero", "inf"]))


@settings(max_examples=400, deadline=None)
@given(float_parts(), float_parts(), SHIFTS)
def test_row_decision_is_numpys_absolute(re_part, im_part, shift):
    # rows_below decides a row by Python's abs(v) < res, ties included, and
    # fails a nan and an abs that overflows; a kernel's row test decides
    # alike
    v = complex(re_part, im_part)
    reference = absolute(v)
    res = shifted_bound(reference, shift)
    passes = bool(reference < res)
    assert rows_below([v], res) is passes
    assert rows_below([0.0, v], res) is (passes and 0.0 < res)
    assert isinstance(NEGATED_ROW.on_list([v], res), tuple) is passes


def component_bits(v: complex) -> tuple:
    return struct.pack("<d", v.real), struct.pack("<d", v.imag)


@settings(max_examples=2000, deadline=None)
@given(float_parts(), float_parts(), float_parts(), float_parts(), st.integers(0, HALVINGS - 1))
def test_a_row_tests_coordinate_is_the_trial_points(xr, xi, sr, si, k):
    # a row test reads the coordinate of the halving k's point as Python's
    # x + SCALES[k] * step on one coordinate, where the search's trial
    # point is NumPy's x + SCALES[k] * step: for a finite x and step they
    # are equal, and bit for bit but for the sign of a zero component
    # where the step's component is not zero and its product with 2^-k
    # underflows to zero.  Python's complex product follows the textbook
    # formula, (s re - 0 im, s im + 0 re) for s = SCALES[k]; NumPy's loop
    # may fuse a multiply and an add (an FMA), which rounds s re - 0 im
    # once: the same value, s re being exact or correctly rounded, with
    # the zero's sign of the unrounded product.  A row's decision reads
    # absolutes, which no sign of a zero moves.  NumPy reads a float scale
    # as the complex one; Python's float * complex does too on CPython
    # 3.10 to 3.13, while 3.14 multiplies each component alone
    assume(all(np.isfinite([xr, xi, sr, si])))
    x, step, scale = complex(xr, xi), complex(sr, si), SCALES[k]
    got = x + scale * step
    with np.errstate(over="ignore"):  # the sum may overflow, in both
        numpys = (np.array([x]) + scale * np.array([step])).tolist()[0]
        floats = (np.array([x]) + 2.0 ** -k * np.array([step])).tolist()[0]
    assert component_bits(floats) == component_bits(numpys)
    assert got == numpys
    for g, e, c in zip(component_bits(got), component_bits(numpys), (sr, si)):
        assert g == e or (c != 0.0 and 2.0 ** -k * c == 0.0)
    if sys.version_info < (3, 14):
        assert component_bits(x + 2.0 ** -k * step) == component_bits(got)


# the trial kernel of each against its variety kernel's G and point kernel, decided
# row by row: the 1/w1 potential has a pole where J = 2 w1 vanishes,
# draw1's J has an entry below its diagonal, plain has no generator
TRIAL_SETUPS = {"cone": CONE_TEXT, "trap": TRAP_TEXT, "plain": PLAIN_TEXT,
                "pole": "vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n",
                "draw1": DRAW1_TEXT, "nbody3x2": NBodyConfig(n=3, dim=2, masses=(1, 1, 1)),
                "nbody5x2": NBodyConfig(n=5, dim=2, masses=(1, 1, 1, 1, 1))}

# entries that leave the finite, normal range of a double
SPECIAL_ENTRIES = [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, -np.inf),
                   1e200, complex(-1e300, 1e300), 1e154, 5e-324, complex(1e-310, -2e-320)]


# the setups that the warning sweep reads: the trial setups, and a
# potential with a large power, q1^120, which overflows at 1e154
SWEPT_SETUPS = {**TRIAL_SETUPS, "power120": "vars q1 q2\npotential q1^120 + q2^2\n"}


@functools.lru_cache(maxsize=None)
def trial_calculus(name):
    spec = SWEPT_SETUPS[name]
    return PointCalculus(build(spec) if isinstance(spec, NBodyConfig) else parse_problem(spec))


def trial_point(pc, rng, kind):
    """A point of pc's space: complex, real, on the variety, with special
    entries, or with an extension variable at 0, where J has a zero
    diagonal entry (and the 1/w1 potential and the n-body one a pole)."""
    n, N = pc.n, pc.N
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N) * (kind != "real")
    x *= 10.0 ** rng.integers(-2, 3)
    if kind == "variety" and pc.s:
        w = pc.solve_fiber(x[:n], x[n:])
        if w is not None:
            x[n:] = w
    elif kind == "special":
        for i in rng.choice(N, size=rng.integers(1, 3), replace=False):
            x[i] = SPECIAL_ENTRIES[rng.integers(len(SPECIAL_ENTRIES))]
    elif kind == "zero" and pc.s:
        x[n + rng.integers(pc.s)] = 0.0
    return x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TRIAL_SETUPS)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["complex", "real", "variety", "special", "zero"]),
       st.integers(0, 10 ** 6), SHIFTS)
@example(name="nbody3x2", seed=269, kind="special", row=0, shift="inf")
def test_trial_kernel_decides_as_the_unfused_steps(name, seed, kind, row, shift):
    # res sits within 8 ulp of one row's Python absolute, or is 0 or inf:
    # the trial kernel rejects exactly where the unfused steps do, and
    # otherwise returns their rows and first derivatives bit for bit,
    # before its two Hessians
    pc = trial_calculus(name)
    x = trial_point(pc, np.random.default_rng(seed), kind)
    xs = x.tolist()
    absolutes = [absolute(v) for v in pc._variety_kernel(xs)[0]]
    full = unfused_trial(pc, xs, np.inf)
    if full is not None:
        absolutes = [absolute(v) for v in full[0]]
    reference = absolutes[row % len(absolutes)] if len(absolutes) else 1.0
    res = shifted_bound(reference, shift)
    expected = unfused_trial(pc, xs, res)
    try:
        got = pc.darboux_trial(xs, res)
    except (CriticalPointError, PoleError):
        got = None
    if isinstance(got, int):  # the row the kernel failed does fail
        assert full is None or not absolutes[got] < res
        got = None
    assert (got is None) == (expected is None)
    if got is not None:
        assert bits(np.array(got[0], dtype=complex)) == bits(np.array(expected[0], dtype=complex))
        assert len(got[1]) == len(expected[1]) + 2
        assert bits(np.array(got[1][:-2], dtype=complex)) == \
            bits(np.array(expected[1], dtype=complex))


def special_points(pc, entries):
    """Each of entries at each coordinate of four fixed points of pc's space."""
    rng = np.random.default_rng(0)
    for _ in range(4):
        base = rng.standard_normal(pc.N) + 1j * rng.standard_normal(pc.N)
        for i in range(pc.N):
            for entry in entries:
                x = base.copy()
                x[i] = entry
                yield x


def entry_points(pc) -> dict:
    """Every evaluation entry point of pc, by name, as f(xs) on a list of
    Python complex: a trial against res = inf and against res = 1.0, each
    row's own test (pc.row_tests) at the last halving with no step against
    both bounds, grad, the potential's and detJ's values and the
    constraint residual."""
    points = {"darboux_trial": [lambda xs, res=res: pc.darboux_trial(xs, res)
                                for res in (np.inf, 1.0)],
              "row tests": [lambda xs, test=test, res=res: test(xs, [0j] * pc.N, HALVINGS - 1, res)
                            for test in pc.row_tests if test is not None for res in (np.inf, 1.0)]}
    for name in ("grad", "potential_value", "det_value", "constraint_residual"):
        points[name] = [getattr(pc, name)]
    return points


def calls_that_warn(entries) -> tuple:
    """(calls, warned): every entry point (entry_points) at each special
    point (special_points) of every SWEPT_SETUPS entry, each of which
    refuses the point (CriticalPointError, PoleError) or returns; calls
    counts the calls by entry point, and warned lists (entry point, setup,
    point, warning) for each call that warns."""
    calls, warned = dict.fromkeys(entry_points(trial_calculus("cone")), 0), []
    for name in sorted(SWEPT_SETUPS):
        pc = trial_calculus(name)
        points = entry_points(pc)
        for x in special_points(pc, entries):
            xs = x.tolist()
            for point, functions in points.items():
                for f in functions:
                    calls[point] += 1
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            f(xs)
                        except (CriticalPointError, PoleError):
                            pass
                        except RuntimeWarning as warning:
                            warned.append((point, name, x, str(warning)))
    return calls, warned


def test_no_evaluation_at_a_special_point_warns():
    # each of SPECIAL_ENTRIES, 1e120 and 1e-160 at each coordinate of four
    # fixed points, for every setup and every entry point: none warns.  An
    # infinite entry meets inf - inf in a denominator's sum and inf / inf
    # in a quotient, 1e-160 for a distance or w1 makes a finite quotient
    # such as -1/w1^2 overflow, a row test runs where the kernel would
    # have stopped at an earlier row, and q1^120 overflows at 1e154
    calls, warned = calls_that_warn(SPECIAL_ENTRIES + [1e120, 1e-160])
    assert calls == {"darboux_trial": 4416, "row tests": 36768, "grad": 2208,
                     "potential_value": 2208, "det_value": 2208, "constraint_residual": 2208}
    assert warned == []


def test_a_trial_whose_quotient_overflows_does_not_warn():
    # the pole problem's 1/w1 at w1 = 1e-160: its gradient's quotient
    # -1/w1^2 overflows before a row is decided, where NumPy's division
    # warned "overflow encountered in scalar divide"; Python's quotient
    # gives the infinity without a warning, and the row rejects the trial
    pc = trial_calculus("pole")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isinstance(pc.darboux_trial([0.7 + 0j, 0.7 + 0j, 1e-160 + 0j], 1.0), int)


def unfused_rows(pc, xs) -> list:
    """The residual rows (grad V - q, G) at xs, each from the unfused steps
    (the variety kernel's G, and the point kernel minus q), or None where its kernel
    refuses the point."""
    g = pc._variety_kernel(xs)[0].tolist()
    point = pc._point_kernel
    try:
        first = point.on_list(xs)
    except (CriticalPointError, PoleError):
        return [None] * pc.n + g
    return [v - q for v, q in zip(first[point.grad], xs)] + g


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TRIAL_SETUPS)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["complex", "real", "variety", "special", "zero"]),
       st.integers(0, 10 ** 6), SHIFTS)
def test_each_row_test_decides_its_row_as_the_unfused_steps(name, seed, kind, row, shift):
    # res sits within 8 ulp of one row's Python absolute, or is 0 or inf:
    # each row's own test (PointCalculus.row_tests) rejects only where the
    # unfused steps reject the trial, decides its row by Python's absolute
    # of the unfused row, and warns about nothing, also where an earlier row
    # is not finite, at a pole and where J has a zero diagonal entry; the
    # row that the kernel decides first, G's first or else grad V's, has no
    # test
    pc = trial_calculus(name)
    tests = pc.row_tests
    assert len(tests) == pc.n + pc.s and tests[pc.n if pc.s else 0] is None
    x = trial_point(pc, np.random.default_rng(seed), kind)
    xs = x.tolist()
    rows = unfused_rows(pc, xs)
    absolutes = [None if v is None else absolute(v) for v in rows]
    known = [a for a in absolutes if a is not None]
    res = shifted_bound(known[row % len(known)] if known else 1.0, shift)
    rejected = unfused_trial(pc, xs, res) is None
    still = [0j] * pc.N  # every halving tries xs itself
    for j, test in enumerate(tests):
        if test is None:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = test(xs, still, 0, res)
        assert first in (0, HALVINGS)
        passed = first == 0
        assert passed or rejected
        if absolutes[j] is not None:
            assert passed is bool(absolutes[j] < res)


def line_numbers(source, pattern) -> list:
    """The indices of source's lines that match pattern."""
    return [i for i, line in enumerate(source.splitlines()) if re.match(pattern, line)]


def test_each_trial_row_is_decided_after_only_the_values_it_reads():
    # equal-mass 5x2: G's ten rows are decided before the first quotient's
    # denominator, and the first gradient row, q1_1's, after only the four
    # denominators r1j^2 of the quotients dV/dr1j that it reads; the
    # Hessian's ten denominators r_ij^3 come after the last decision
    pc = trial_calculus("nbody5x2")
    source = pc._trial_kernel.kernel.source
    source = source[:source.index("def kernel(")]  # on_list, not the rows' own tests
    lines = source.splitlines()
    tests = line_numbers(source, r"\s+if not abs\(")
    denominators = line_numbers(source, r"\s+d\d+ = ")
    decided = [d for d in denominators if d < tests[-1]]
    assert len(tests) == pc.n + pc.s and len(decided) == pc.s == 10
    assert tests[pc.s - 1] < denominators[0]
    names = pc.setup.var_names
    assert [lines[d].split()[-1] for d in denominators[pc.s:]] == [
        f"x{names.index(name)}_3" for name in names[pc.n:]]
    first_row = lines[tests[pc.s] - 2].split()  # the line before the decision's try
    assert first_row[0] == f"v{pc._trial_kernel.rows.start}" and first_row[-1] == "x0"
    assert [lines[d].split()[-1] for d in denominators if d < tests[pc.s]] == [
        f"x{names.index(f'r1_{j}')}_2" for j in range(2, 6)]


def test_row_tests_are_selected_by_the_code_up_to_each_decision():
    # a row has a test where its code is at most half of the trial kernel's
    # up to that row's decision: on equal-mass 3x2, 4x2 and 5x2, 4, 10 and
    # 17 of 9, 14 and 20 rows, whatever the kernel computes after its last
    # decision (the Hessians); the 1/w pole problem's rows have none
    expected = {3: [2, 3, 4, 5], 4: [2, 3, 4, 5, 6, 7, 10, 11, 12, 13],
                5: [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19]}
    for n, rows in expected.items():
        tests = PointCalculus(build(NBodyConfig(n=n, dim=2, masses=(1,) * n))).row_tests
        assert len(tests) == {3: 9, 4: 14, 5: 20}[n]
        assert [j for j, test in enumerate(tests) if test is not None] == rows
    assert trial_calculus("pole").row_tests == (None, None, None)


def test_kernels_without_row_tests_compute_in_target_order():
    # only a kernel with row tests is emitted in demand order: every other
    # kernel of the benchmark's setups computes its outputs in target order;
    # the trial kernel computes its two Hessians, which no row reads, after
    # its last decision, V's first
    setups = [parse_problem(p.text(), label=p.name) for p in corpus()]
    setups += [build(NBodyConfig(n=p.nbodies, dim=p.dim, masses=p.masses))
               for p in bench_problems.NBODY_PROBLEMS]
    checked = 0
    for setup in setups:
        pc = PointCalculus(setup)
        pc.compile_analysis_kernels()
        sources = [pc._variety_kernel.source, pc._point_kernel.kernel.source,
                   pc._v_kernel.source, pc._det_kernel.source]
        for source in sources:
            assert "abs(" not in source
            order = [int(k) for k in re.findall(r"^ +v(\d+) = ", source, re.M)]
            assert order == sorted(order), setup.label
            checked += len(order)
        source = pc._trial_kernel.kernel.source
        source = source[:source.index("def kernel(")]
        k = pc._trial_kernel.rows.start - 2  # V's Hessian, then the generators'
        hessians = line_numbers(source, rf" +a({k}|{k + 1}) = ")
        decisions = line_numbers(source, r" +if not abs\(")
        assert len(hessians) == 2 and decisions[-1] < hessians[0] < hessians[1], setup.label
    assert checked


TRACED = ("darboux_system", "darboux_trial")


def traced_newton(pc, x0, pins, conv_tol, max_iter):
    """(calls, result): _newton's own calls of the TRACED methods and of the
    trial kernel's row tests, in order, as [name, point, value], with each
    least-squares step as ["lstsq", matrix, residual]; a row test
    scans halvings, and each halving it decides is one entry named
    "row_test", at that halving's point x + 2^-k step as NumPy computes
    it, with the value (row, whether it passed); darboux_system takes no
    point, only the values of the trial traced right before it, whose
    point is its entry's; a call made inside another traced call is not
    the search's own, and a call that raises keeps the value None.  result
    is what _newton returns."""
    calls, depth = [], [0]

    def lstsq(system):
        calls.append(["lstsq", system.A.copy(), system.F.copy()])
        return _lstsq(system)

    def traced(name, method):
        def call(*args):
            if depth[0] == 0:
                if name == "darboux_system":
                    # the values that the last trial returned, the object itself
                    assert calls[-1][0] == "darboux_trial" and args[0] is calls[-1][2][1]
                    x = calls[-1][1]
                else:
                    x = np.array(args[0])
                calls.append([name, x, None])
            depth[0] += 1
            try:
                value = method(*args)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                # darboux_system's value is the search's own array, which
                # later Jacobians overwrite
                calls[-1][2] = value.copy() if name == "darboux_system" else value
            return value
        return call

    def traced_test(row, test):
        def call(xs, steps, k, res):
            first = test(xs, steps, k, res)
            for j in range(k, min(first + 1, HALVINGS)):
                point = np.array(xs) + SCALES[j] * np.array(steps)
                calls.append(["row_test", point, (row, j == first)])
            return first
        return None if test is None else call

    trial = pc._trial_kernel
    kernel = functools.partial(trial.kernel)
    kernel.on_list = trial.kernel.on_list
    kernel.row_tests = tuple(traced_test(row, test) for row, test in enumerate(pc.row_tests))
    vars(pc)["_trial_kernel"] = trial._replace(kernel=kernel)
    for name in TRACED:
        setattr(pc, name, traced(name, getattr(pc, name)))
    darboux._lstsq = lstsq
    try:
        result = _newton(pc, x0, pins, conv_tol, max_iter)
    finally:
        darboux._lstsq = _lstsq
        for name in TRACED:
            delattr(pc, name)
        vars(pc)["_trial_kernel"] = trial
    return calls, result


def counted(method, log):
    """method, appending the arguments of each call to log."""
    def call(*args):
        log.append(args)
        return method(*args)
    return call


def counted_kernel(kernel, log):
    """A generated kernel whose two entry points, the array call and
    on_list, append the arguments of each call to log; its row tests are
    the kernel's own."""
    call = counted(kernel, log)
    call.on_list = counted(kernel.on_list, log)
    call.row_tests = kernel.row_tests
    return call


def follows(calls, k, name, x) -> bool:
    """calls[k + 1] is a call of name at the point x."""
    return k + 1 < len(calls) and calls[k + 1][0] == name and bits(calls[k + 1][1]) == bits(x)


def test_jacobian_only_at_start_and_accepted_steps(three_body):
    # every trial first runs the own test of the row that rejected the
    # start's last rejected trial (PointCalculus.row_tests), where that row
    # has one; a test that fails rejects the trial, where that row's NumPy
    # absolute is not below the residual, and one that passes hands the
    # trial on; the trial is then one call of the trial kernel, which
    # decides the rows of G and then those of grad V - q and names the
    # row that failed; one whose G rows already fail the acceptance test
    # is rejected there, the point kernel is never evaluated on its own,
    # and only a trial whose gradient rows and pin rows pass too builds its
    # Jacobian, right after, at the same point, from the first derivatives
    # and Hessians the trial returned, with no kernel call of its own; the
    # Jacobian is built at the start and accepted steps; every step solves
    # with that point's residual, the unfused steps' rows plus the pin
    # rows, bit for bit, and the search returns its largest entry
    cfg, pc, seeds = three_body
    g_rejected = tied = grad_rejected = solved = tested = 0
    for pc_, x0, pins, max_iter, conv_tol in (three_body_cases(cfg, pc, seeds, True)
                                              + cone_cases()):
        _, accepted = newton_full_system(pc_, x0, pins, conv_tol, max_iter)
        point, trial, evaluations, trials = pc_._point_kernel, pc_._trial_kernel, [], []
        vars(pc_)["_point_kernel"] = point._replace(kernel=counted_kernel(point.kernel,
                                                                           evaluations))
        vars(pc_)["_trial_kernel"] = trial._replace(kernel=counted_kernel(trial.kernel, trials))
        try:
            calls, result = traced_newton(pc_, x0, pins, conv_tol, max_iter)
        finally:
            vars(pc_)["_point_kernel"], vars(pc_)["_trial_kernel"] = point, trial
        names = [name for name, _, _ in calls]
        assert names.count("darboux_system") == 1 + accepted
        # the Jacobian takes the trial's first derivatives and Hessians and
        # never evaluates them again: one trial kernel call per trial
        assert evaluations == [] and len(trials) == names.count("darboux_trial")
        # the start point's rows are computed as a trial's, then its Jacobian
        assert names[:2] == ["darboux_trial", "darboux_system"]
        assert len({bits(x) for _, x, _ in calls[:2]}) == 1
        res = point = failed = None
        for k, (name, x, value) in enumerate(calls):
            if name == "lstsq":
                assert bits(x) == bits(Jac) and bits(value) == bits(F)
                solved += 1
                continue
            lin = np.zeros(0) if pins is None else pins @ x
            if name == "darboux_system":
                assert calls[k - 1][0] == "darboux_trial" and bits(calls[k - 1][1]) == bits(x)
                F, Jac = full_system(pc_, x, pins)
                assert bits(value) == bits(Jac[:len(value)])
                res, point = largest(F), x
                continue
            if name == "row_test":
                # the test of the row that rejected the last rejected trial
                row, passed = value
                assert row == failed
                if passed:
                    assert follows(calls, k, "darboux_trial", x)
                    continue
                assert not follows(calls, k, "darboux_trial", x)
                rows = reference_rows(pc_, x)
                assert rows is None or not rows_below([complex(rows[row])], res)
                tested += 1
            elif isinstance(value, tuple):  # the point's rows, first derivatives, Hessians
                assert bits(np.array(value[0])) == bits(reference_rows(pc_, x))
                assert bits(np.array(value[1][:-2])) == bits(np.array(point_values(pc_, x)))
            if k == 0:
                continue
            if name == "darboux_trial":
                if calls[k - 1][0] != "row_test":  # the trial starts here
                    assert failed is None or trial.kernel.row_tests[failed] is None
                if isinstance(value, int):
                    failed = value
                elif not follows(calls, k, "darboux_system", x):
                    failed = None  # a pin row failed, or the point was refused
            # a trial: its G rows, then its gradient rows, then its pin rows
            rejected = name == "row_test" or isinstance(value, int)
            g = pc_._variety_kernel(x)[0].tolist()
            if not rows_below(g, res):
                assert rejected and (name == "row_test" or value >= pc_.n)
                g_rejected += 1
                tied += largest(g) == res
                continue
            g = (pc_.grad(x) - x[:pc_.n]).tolist()
            grad_rejected += not rows_below(g, res)
            assert (not rejected) == rows_below(g, res)
            passes = rows_below(g, res) and rows_below(lin.tolist(), res)
            assert passes == follows(calls, k, "darboux_system", x)
        if result is not None:
            assert bits(result[0]) == bits(point) and result[1] == res
    # 54 trials are rejected by their G rows, 29 of them tying the current
    # residual, where a <= in place of < would compute the gradient
    assert g_rejected > 50 and tied > 25
    assert grad_rejected > 0 and solved > 100 and tested > 0
    # the equal-mass 3x2 hunt at hunt seed 0: of the trials that its starts
    # reject at a row that has a test, the row tests reject at least 90%
    by_test = at_tested = 0
    for pc_, x0, pins, max_iter, conv_tol in hunt_cases(cfg, pc):
        calls, _ = traced_newton(pc_, x0, pins, conv_tol, max_iter)
        for name, x, value in calls[1:]:
            if name == "row_test":
                by_test += not value[1]
                at_tested += not value[1]
            elif name == "darboux_trial" and isinstance(value, int):
                at_tested += pc_.row_tests[value] is not None
    assert by_test >= 0.9 * at_tested > 0


def test_a_jacobian_that_raises_rejects_its_trial(three_body, monkeypatch):
    # a trial whose rows pass but whose Jacobian's values raise (a pole of a
    # Hessian entry, which the trial kernel computes after its rows), or
    # whose trial kernel raises (J singular or not finite), is rejected, and
    # the search goes on halving from the current point, as the full-system
    # search does; here the evaluation raises at the first accepted point,
    # once in each search: the search meets it in the trial kernel, and
    # the full-system search in the point kernel, which its own evaluation
    # of the same rows reads.  The Jacobian itself calls no kernel
    # (test_a_jacobian_calls_no_kernel), so it has nothing to raise
    cfg, pc, seeds = three_body
    methods = ((PointCalculus, "darboux_trial"), (PointKernel, "on_list"))
    originals = {(owner, method): getattr(owner, method) for owner, method in methods}
    raised = []
    for pc_, x0, pins, max_iter, conv_tol in three_body_cases(cfg, pc, seeds, True)[:4]:
        calls, _ = traced_newton(pc_, x0, pins, conv_tol, max_iter)
        at = [x for name, x, _ in calls if name == "darboux_system"][1]

        for (owner, method), original in originals.items():
            def raising(self, x, *rest, at=at, original=original):
                if bits(x) == bits(at):
                    raised.append(at)
                    raise CriticalPointError("raised at the first accepted point")
                return original(self, x, *rest)

            monkeypatch.setattr(owner, method, raising)
        expected, _ = newton_full_system(pc_, x0, pins, conv_tol, max_iter)
        got = _newton(pc_, x0, pins, conv_tol, max_iter)
        for (owner, method), original in originals.items():
            monkeypatch.setattr(owner, method, original)
        assert same_bits(got, expected)
    assert len(raised) == 8  # once in each search, four starts


# ---------------------------------------------------------------------------
# live partials against a dense per-entry evaluation
# ---------------------------------------------------------------------------

def dense(rows, shape, order, x):
    out = np.zeros(shape, dtype=complex)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[i, j] = reference_compile(e, order)(x)
    return out


def dense_hessian(f, order, x):
    """Every entry evaluated, from the a <= b partial as the calculus takes it."""
    grad = [f.diff(v) for v in order]
    N = len(order)
    return dense([[grad[min(a, b)].diff(order[max(a, b)]) for b in range(N)]
                  for a in range(N)], (N, N), order, x)


def dense_partials(setup, x):
    """J, dG/dq, V's gradient and Hessian, the generators' Hessians and
    values, every entry evaluated on its own."""
    order = setup.var_names
    n, s, N = setup.n, setup.s, len(order)
    G = setup.generators
    J = dense([[g.diff(w) for w in setup.w_names] for g in G], (s, s), order, x)
    B = dense([[g.diff(q) for q in setup.q_names] for g in G], (s, n), order, x)
    V = setup.potential
    vg = dense([[V.diff(v) for v in order]], (1, N), order, x)[0]
    vh = dense_hessian(V, order, x)
    gh = np.array([dense_hessian(g, order, x) for g in G]).reshape(s, N, N)
    gvals = np.array([reference_compile(gg, order)(x) for gg in G], dtype=complex)
    return J, B, vg, vh, gh, gvals


def dense_system(setup, x):
    """darboux_system and hess in Lagrangian form, from dense grids of every
    partial: u = J^-T d_wV, L = Hess V - u.Hess G, dg = P^T L, P = [I; W]."""
    n, s = setup.n, setup.s
    J, B, vg, vh, gh, gvals = dense_partials(setup, x)
    W = np.linalg.solve(J, -B)
    u = np.linalg.solve(J.T, vg[n:])
    L = vh - np.tensordot(u, gh, axes=1) if s else vh
    dg = L[:n] + W.T @ L[n:]
    g = vg[:n] - B.T @ u
    F = np.concatenate([g - x[:n], gvals])
    Jac = np.zeros((n + s, n + s), dtype=complex)
    Jac[:n, :n] = dg[:, :n] - np.eye(n)
    Jac[:n, n:] = dg[:, n:]
    Jac[n:, :n] = B
    Jac[n:, n:] = J
    return J, B, g, F, Jac, dg[:, :n] + dg[:, n:] @ W


def loop_reference(setup, x):
    """(grad, hess, Jacobian) from the per-variable assembly the Lagrangian
    form replaced: W = dw/dq, grad = d_qV + W^T d_wV, and for each variable
    v the correction Pv[a] = Hess G_a[v, :n] + Hess G_a[v, n:] W."""
    n, s, N = setup.n, setup.s, setup.n + setup.s
    J, B, vg, vh, gh, _ = dense_partials(setup, x)
    W = np.linalg.solve(J, -B)
    u = np.linalg.solve(J.T, vg[n:])
    dg = np.zeros((n, N), dtype=complex)
    for v in range(N):
        row = vh[v, :n] + W.T @ vh[v, n:]
        if s:
            Pv = np.array([gh[a][v, :n] + gh[a][v, n:] @ W for a in range(s)])
            row = row - Pv.T @ u
        dg[:, v] = row
    Jac = np.zeros((n + s, n + s), dtype=complex)
    Jac[:n, :n] = dg[:, :n] - np.eye(n)
    Jac[:n, n:] = dg[:, n:]
    Jac[n:, :n] = B
    Jac[n:, n:] = J
    return vg[:n] + W.T @ vg[n:], dg[:, :n] + dg[:, n:] @ W, Jac


def close_to(live, ref, rel=1e-12):
    return float(np.max(np.abs(live - ref), initial=0.0)) <= rel * max(1.0, np.linalg.norm(ref))


def bits(a):
    return np.asarray(a).tobytes()


def sample_points(setup, count, seed):
    pts = [np.asarray(x, dtype=complex)
           for x in random_starts(setup.n + setup.s, count, seed)]
    return pts + [np.zeros(setup.n + setup.s, dtype=complex)]


SETUP_TEXTS = [CONE_TEXT, TRAP_TEXT, PLAIN_TEXT, LINEAR_TEXT, "nbody"]


def setup_of(text):
    if text == "nbody":
        return build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3)))
    return parse_problem(text)


@pytest.mark.parametrize("text", SETUP_TEXTS)
def test_live_partials_match_dense_evaluation(text):
    setup = setup_of(text)
    pc = PointCalculus(setup)
    compared = 0
    for x in sample_points(setup, 6, seed=2):
        try:
            J, B, g, F, Jac, H = dense_system(setup, x)
        except (np.linalg.LinAlgError, PoleError):
            continue  # off the good set (the origin of the cone, say)
        if not np.all(np.isfinite(np.linalg.solve(J, -B))):
            continue
        # the kernels' values bit for bit; what triangular substitution
        # computes (u, W and all that reads them) within roundoff of the
        # LU solves of NumPy's solve
        n = setup.n
        Jac_live = jacobian(pc, x)
        assert bits(Jac_live[n:, n:]) == bits(J) and bits(Jac_live[n:, :n]) == bits(B)
        F_live = np.array(pc.darboux_trial(x.tolist(), np.inf)[0], dtype=complex)
        assert bits(F_live[n:]) == bits(F[n:])
        assert close_to(pc.grad(x), g) and close_to(F_live, F) and close_to(Jac_live, Jac)
        assert close_to(hessian(pc, x), H)
        g_ref, H_ref, Jac_ref = loop_reference(setup, x)
        assert close_to(pc.grad(x), g_ref)
        assert close_to(hessian(pc, x), H_ref)
        assert close_to(Jac_live, Jac_ref)
        compared += 1
    assert compared >= 5


def test_slot_lists_hold_only_live_partials():
    # the n-body Hessians are sparse: 3x2 has 3 live potential partials of
    # 45 upper-triangle slots; each distance generator has seven, all of
    # them constant, so they sit in the template of the trial kernel's array
    # and the generated code computes only the potential's three
    pc = PointCalculus(build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1))))
    assert len(pc._vhess) == 3
    assert [len(h) for h in pc._ghess] == [7, 7, 7]
    assert all(e.constant_value() is not None for h in pc._ghess for _, _, e in h)
    assert all(e.constant_value() is None for _, _, e in pc._vhess)
    k = pc._trial_kernel.rows.start - 2  # V's Hessian, then the generators'
    source = pc._trial_kernel.kernel.source
    source = source[:source.index("def kernel(")]
    # one statement per live entry, writing both places of an off-diagonal
    # pair and a diagonal place once; the three live partials are the
    # diagonal second derivatives in the distances r_ij
    stores = re.findall(rf"^    ((?:a{k}\[\d+, \d+\] = )+)", source, re.M)
    places = [[tuple(map(int, m)) for m in re.findall(r"\[(\d+), (\d+)\]", line)]
              for line in stores]
    assert places == [[(a, b)] if a == b else [(a, b), (b, a)] for a, b, _ in pc._vhess]
    assert all(a == b for a, b, _ in pc._vhess)
    assert f"a{k + 1}[" not in source
    x = np.asarray(random_starts(pc.N, 1, seed=3)[0], dtype=complex)
    vh, gh = trial_values(pc, x)[-2:]
    live = {(a, b) for a, b, _ in pc._vhess} | {(b, a) for a, b, _ in pc._vhess}
    assert {tuple(i) for i in np.argwhere(vh != 0)} == live
    for a, h in enumerate(pc._ghess):
        expected = np.zeros((pc.N, pc.N), dtype=complex)
        for i, j, e in h:
            expected[i, j] = expected[j, i] = complex(e.constant_value())
        assert bits(gh[a]) == bits(expected)
    lin = PointCalculus(parse_problem(LINEAR_TEXT))
    assert lin._vhess == [] and lin._ghess == [[]]
    k, source = lin._trial_kernel.rows.start - 2, lin._trial_kernel.kernel.source
    assert f"a{k}[" not in source and f"a{k + 1}[" not in source
    x = np.array([0.3, -1.1, 0.0], dtype=complex)
    x[2] = x[0] + 2 * x[1]
    Jac = jacobian(lin, x)
    assert np.array_equal(Jac[:2, :2], -np.eye(2))
    plain = PointCalculus(parse_problem(PLAIN_TEXT))
    dG = jacobian(plain, np.zeros(2))[2:]
    assert dG[:, 2:].shape == (0, 0) and dG.shape == (0, 2)


# ---------------------------------------------------------------------------
# first derivatives passed or solved
# ---------------------------------------------------------------------------

def point_results(pc, x):
    """Everything the calculus computes at x, as bytes: the gradient, the
    Jacobian and the Hessian from a trial's values, the point kernel's
    values, and the search trial's rows, first derivatives and Hessians
    against res = inf."""
    rows, first = pc.darboux_trial(x.tolist(), np.inf)
    return [bits(r) for r in (pc.grad(x), jacobian(pc, x), hessian(pc, x),
                              *point_values(pc, x), np.array(rows), *first)]


def test_a_calculus_answers_every_point_as_a_fresh_one():
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3)))
    pc = PointCalculus(setup)
    a, b = sample_points(setup, 2, seed=4)[:2]
    size = len(point_values(pc, a))
    for x in (a, b, a):
        results = point_results(pc, x)
        assert results == point_results(PointCalculus(setup), x)
        # the trial's first derivatives, before its two Hessians, are the
        # point kernel's values
        assert results[3:3 + size] == results[-size - 2:-2]
    # the same array changed in place after a call is a new point
    x = a.copy()
    pc.grad(x)
    x[0] += 0.25
    assert bits(pc.grad(x)) == bits(PointCalculus(setup).grad(x))
    assert point_results(pc, x) == point_results(PointCalculus(setup), x)


@pytest.mark.parametrize("name", ["cone", "draw1", "nbody3x2"])
def test_a_jacobian_written_into_the_callers_rows_matches_a_fresh_one(name):
    # successive Jacobians through one Newton system (newton_system), as a
    # search writes them, each fill every entry that a Jacobian writes, dg's
    # rows and dG's entries at dg_index, poisoned before each call, with the
    # bits of the same operations on freshly allocated arrays
    # (fresh_jacobian) and of a fresh calculus's Jacobian, and leave the pin
    # rows and dG's structural zeros as the system was made; draw1's J has
    # an entry below its diagonal, which the substitution's loop reads
    if name == "nbody3x2":
        setup = build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1)))
    else:
        setup = parse_problem(CONE_TEXT if name == "cone" else DRAW1_TEXT)
    pc = PointCalculus(setup)
    m, N = setup.n + setup.s, len(setup.var_names)
    rng = np.random.default_rng(2)
    pins = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
    system = pc.newton_system(pins)
    index = pc._point_layout.dg_index
    structural = np.ones(setup.s * N, dtype=bool)
    structural[index] = False
    assert bool(structural.any()) is (name != "cone")  # the cone's dG has none
    poison = complex(np.nan, np.inf)
    compared = 0
    for x in sample_points(setup, 6, seed=9):
        try:
            first = trial_values(pc, x)
        except (CriticalPointError, PoleError):
            continue
        system.dg[:] = poison
        system.dG_flat[index] = poison
        got = pc.darboux_system(first, system)
        assert got is system.jacobian and got.base is system.A
        assert bits(got) == bits(fresh_jacobian(pc, first))
        assert bits(got) == bits(jacobian(PointCalculus(setup), x))
        assert bits(system.A[m:]) == bits(pins)
        assert bits(system.dG_flat[structural]) == bits(np.zeros(structural.sum(), dtype=complex))
        compared += 1
    assert compared >= 5


@pytest.mark.parametrize("name", ["cone", "draw1", "nbody3x2"])
def test_a_jacobian_calls_no_kernel(name, monkeypatch):
    # darboux_system, _dg_blocks and hess read a trial's values alone,
    # first derivatives and Hessians: given them, a Jacobian and a Hessian
    # call no compiled kernel of the calculus, through either entry point
    calls = []
    emit = expr.compile_arrays
    monkeypatch.setattr(calculus, "compile_arrays",
                        lambda targets, order: counted_kernel(emit(targets, order), calls))
    monkeypatch.setattr(expr, "compile_arrays", calculus.compile_arrays)
    if name == "nbody3x2":
        setup = build(NBodyConfig(n=3, dim=2, masses=(1, 1, 1)))
    else:
        setup = parse_problem(CONE_TEXT if name == "cone" else DRAW1_TEXT)
    pc = PointCalculus(setup)
    for kernel in ("_variety_kernel", "_point_kernel", "_trial_kernel", "_v_kernel", "_det_kernel"):
        getattr(pc, kernel)  # every kernel compiled, each counted
    out = pc.newton_system()
    compared = 0
    for x in sample_points(setup, 6, seed=9):
        try:
            first = trial_values(pc, x)
        except (CriticalPointError, PoleError):
            continue
        calls.clear()
        pc.darboux_system(first, out)
        pc._dg_blocks(first, out)
        pc.hess(first)
        assert calls == []
        compared += 1
    assert compared >= 5


def test_singular_fiber_raises_on_every_call(trap_setup):
    pc = PointCalculus(trap_setup)
    good = np.array([0.25, 1.0, 0.5], dtype=complex)
    singular = np.array([0.0, 1.0, 0.0], dtype=complex)
    def trial(x):
        return pc.darboux_trial(x.tolist(), np.inf)

    def values(x):
        return point_values(pc, x)

    for method in (values, pc.grad, trial):
        pc.grad(good)
        for _ in range(3):
            with pytest.raises(CriticalPointError):
                method(singular)
        assert point_results(pc, good) == point_results(PointCalculus(trap_setup), good)


# ---------------------------------------------------------------------------
# triangular substitution
# ---------------------------------------------------------------------------

# u, grad V and W against NumPy's LU solve, and each within this bound
# relative to the reference's norm (at least 1): substitution is backward
# stable componentwise, and these J are well conditioned
SOLVE_REL = 1e-12

SOLVE_SETUPS = {"cone": CONE_TEXT, "trap": TRAP_TEXT, "nbody": "nbody", "draw1": DRAW1_TEXT,
                "linear": LINEAR_TEXT, "plain": PLAIN_TEXT}


@pytest.mark.parametrize("name", list(SOLVE_SETUPS))
def test_substitution_matches_numpy_solve(name):
    setup = setup_of(SOLVE_SETUPS[name])
    pc = PointCalculus(setup)
    n, order = setup.n, setup.var_names
    # draw1's dG2/dw1 = -4 w1 is the one structural entry below J's
    # diagonal here, so its rows take the substitution's loop
    assert pc._coupled == (((1, (0,)),) if name == "draw1" else ())
    point = pc._point_kernel
    compared = 0
    for x in sample_points(setup, 12, seed=7):
        G, dG = pc._variety_kernel(x)[:2]
        J, B = dG[:, n:], dG[:, :n]
        try:
            vg = np.array([reference_compile(e, order)(x) for e in pc._vgrad], dtype=complex)
            u_ref, W_ref = np.linalg.solve(J.T, vg[n:]), np.linalg.solve(J, -B)
            step_ref = np.linalg.solve(J, G)
        except (np.linalg.LinAlgError, PoleError):
            continue  # a singular J or a pole, held below
        first = trial_values(pc, x)
        u = np.array(first[point.u], dtype=complex)
        W = pc._dg_blocks(first, pc.newton_system())[1]
        step = _forward(J, J.diagonal(), G, pc._coupled)
        assert u.shape == u_ref.shape and close_to(u, u_ref, SOLVE_REL)
        assert close_to(pc.grad(x), vg[:n] - B.T @ u_ref, SOLVE_REL)
        assert W.shape == W_ref.shape and close_to(W, W_ref, SOLVE_REL)
        assert step.shape == step_ref.shape and close_to(step, step_ref, SOLVE_REL)
        compared += 1
    assert compared >= 10


BELOW_TEXT = """\
vars q1
ext w1 : w1 - q1
ext w2 : w2 - w1^3
potential w2
"""

# (setup, point): J = dG/dw singular or not finite at the point
REFUSED = {
    "trap-zero": (TRAP_TEXT, [0.5, 1.0, 0.0]),  # J = 2 w1 = 0
    "draw1-zero": (DRAW1_TEXT, [0.3, 0.4, 0.7, 0.0]),  # J_22 = 2 w2 = 0
    "draw1-nan": (DRAW1_TEXT, [0.3, 0.4, np.nan, 1.5]),  # nan on the diagonal
    "draw1-inf": (DRAW1_TEXT, [0.3, 0.4, 0.7, np.inf]),  # inf on the diagonal
    "below-inf": (BELOW_TEXT, [1.0, 1e200, 1.0]),  # J_21 = -3 w1^2 = -inf
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_a_singular_or_non_finite_fiber_is_refused_every_time(case):
    text, point = REFUSED[case]
    setup = parse_problem(text)
    pc = PointCalculus(setup)
    x = np.array(point, dtype=complex)
    for _ in range(3):
        for method in (point_values, PointCalculus.grad):
            with pytest.raises(CriticalPointError, match="singular or not finite"):
                method(pc, x)
        # a trial refuses the point too, or fails first at a row that is
        # not finite, so no Hessian is computed there
        try:
            row = pc.darboux_trial(x.tolist(), np.inf)
        except CriticalPointError as exc:
            assert "singular or not finite" in str(exc)
        else:
            G = pc._variety_kernel(x)[0]
            assert isinstance(row, int) and row >= setup.n and not np.isfinite(G[row - setup.n])
        assert pc.solve_fiber(x[:setup.n], x[setup.n:]) is None
        state = np.concatenate([x[:setup.n].real, np.zeros(setup.n), x[setup.n:].real])
        with pytest.raises(CriticalSetError, match="singular or not finite"):
            ConstrainedSystem(pc).rhs(0.0, state)


def faked(values):
    """A kernel whose entry points return values at every point."""
    def kernel(*args):
        return values

    kernel.on_list = kernel
    return kernel


def test_an_infinite_entry_of_J_is_refused_where_u_is_finite():
    # an infinite diagonal entry can leave a finite, meaningless u (1/inf =
    # 0), so the kernel's check reads J's entries as well as u; a search
    # trial's check reads the same entries of the trial kernel, once its
    # rows have passed
    pc = PointCalculus(parse_problem(DRAW1_TEXT))
    point, trial = pc._point_kernel, pc._trial_kernel
    x = np.array([0.3, 0.4, 0.7, 1.5], dtype=complex)
    good, good_trial = point.kernel(x), trial.kernel(x, np.inf)
    assert good_trial[trial.first][:-2] == good
    for slot in range(point.checked.start, point.checked.stop):
        for bad in (complex(np.inf, 0), complex(0, -np.inf), complex(np.nan, 0)):
            values = good[:slot] + (bad,) + good[slot + 1:]
            vars(pc)["_point_kernel"] = point._replace(kernel=faked(values))
            shift = trial.checked.start - point.checked.start
            values = good_trial[:shift + slot] + (bad,) + good_trial[shift + slot + 1:]
            vars(pc)["_trial_kernel"] = trial._replace(kernel=faked(values))
            for _ in range(2):
                with pytest.raises(CriticalPointError, match="singular or not finite"):
                    point_values(pc, x)
                with pytest.raises(CriticalPointError, match="singular or not finite"):
                    pc.darboux_trial(x.tolist(), np.inf)
    vars(pc)["_point_kernel"], vars(pc)["_trial_kernel"] = point, trial
    assert point_values(pc, x) == good
    assert pc.darboux_trial(x.tolist(), np.inf)[1][:-2] == good


def test_no_extension_variables_give_empty_solves():
    pc = PointCalculus(parse_problem(PLAIN_TEXT))
    x = np.array([0.5, -1.0], dtype=complex)
    first = trial_values(pc, x)
    assert first[pc._point_kernel.u] == () and first[pc._point_kernel.checked] == ()
    system = pc.newton_system()
    dg, W = pc._dg_blocks(first, system)
    assert W.shape == (0, 2) and system.A[2:].shape == (0, 2) and dg.shape == (2, 2)
    J = np.zeros((0, 0), dtype=complex)
    u = _forward(J, J.diagonal(), np.zeros(0, dtype=complex), ())
    W = _forward(J, J.diagonal()[:, None], np.zeros((0, 3)) + 0j, ())
    assert u.shape == (0,) and W.shape == (0, 3)
    assert u.dtype == W.dtype == complex


# ---------------------------------------------------------------------------
# the one least-squares solve
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def calculus_of(text):
    return PointCalculus(setup_of(text))


def least_squares_systems(pc, text, x, pinned, rng):
    """(A, b) of every least-squares solve the package makes at x: the
    Newton step, with pinning rows when pinned (the n-body's own rows, drawn
    ones elsewhere), and the proximity probe's step toward each zero set."""
    systems = []
    try:
        system = full_system(pc, x, None)
    except (CriticalPointError, PoleError):
        system = None
    if system is not None:
        F, Jac = system
        if pinned:
            if text == "nbody":
                pins = pinning_conditions(NBodyConfig(n=3, dim=2, masses=(1, 2, 3)), x)
            else:
                pins = rng.standard_normal((2, pc.N))
            pins = np.asarray(pins, dtype=complex)
            F = np.concatenate([F, pins @ x])
            Jac = np.vstack([Jac, pins])
        systems.append((Jac, -F))
    G, dG, S, dS = pc._variety_kernel(x)
    for k in range(len(S)):
        systems.append((np.vstack([dG, dS[k]]), np.append(G, S[k])))
    return systems


# _lstsq (zgelsy, pivoted QR) against np.linalg.lstsq (zgelsd, the SVD):
# both are backward stable, so each lies within the least-squares
# perturbation bound of the exact minimum-norm solution, and this multiple
# of eps * kappa * (1 + kappa * |r| / (|A| |x|)) bounds their difference
# (Higham, Accuracy and Stability of Numerical Algorithms, thm. 20.1); it
# read at most 20 over 15,000 draws of the systems below.  The residuals
# differ by at most this multiple of eps * (|A| |x| + |b|), measured at
# most 2.
LSTSQ_FORWARD_ULPS = 100
LSTSQ_RESIDUAL_ULPS = 16


def norm(v) -> float:
    """The 2-norm of v, scaled by its largest entry so that no square
    overflows (the 1e-300 system below has a solution near 1e300)."""
    top = float(np.abs(v).max(initial=0.0))
    return top * float(np.linalg.norm(v / top)) if top else 0.0


def assert_matches_numpy(A, b):
    """_lstsq(A, -b) is a least-squares solution of A x = b no worse than
    NumPy's beyond roundoff, of no larger norm (the minimum-norm one), and
    agrees with NumPy's relative to its norm within the perturbation bound,
    kappa taken over the rank NumPy's rcond=None gives."""
    x = fresh_lstsq(A, -b)
    ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert x.shape == ref.shape == (A.shape[1],) and x.dtype == complex
    eps = np.finfo(float).eps
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.count_nonzero(sv > eps * max(A.shape) * sv.max(initial=0.0)))
    kappa = sv[0] / sv[rank - 1] if rank else 1.0
    size = sv[0] * norm(ref) if rank else 0.0
    r, r_ref = norm(A @ x - b), norm(A @ ref - b)
    assert r <= r_ref + LSTSQ_RESIDUAL_ULPS * eps * (size + norm(b))
    forward = LSTSQ_FORWARD_ULPS * eps * kappa * (1 + (kappa * r_ref / size if size else 0.0))
    assert norm(x) <= norm(ref) * (1 + forward)
    assert norm(x - ref) <= forward * norm(ref)


@given(st.sampled_from(SETUP_TEXTS), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_lstsq_matches_numpy_within_roundoff(text, seed, pinned, radius):
    pc = calculus_of(text)
    rng = np.random.default_rng(seed)
    x = radius * (rng.standard_normal(pc.N) + 1j * rng.standard_normal(pc.N) * (seed % 2))
    for A, b in least_squares_systems(pc, text, x, pinned, rng):
        if np.isfinite(A).all() and np.isfinite(b).all():
            assert_matches_numpy(A, b)


def test_lstsq_matches_numpy_on_degenerate_shapes():
    # zero, rank 1 (square and wide), 1 x 1, a zero-padded identity, tall
    # and scaled by 1e-300: the rank cut-off and zgelsy's own scaling of
    # tiny matrices give NumPy's solution on each
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    matrices = [np.zeros((3, 3), dtype=complex), np.outer(u, v), np.outer(u, v)[:2],
                np.ones((1, 1), dtype=complex), np.eye(4, 2, dtype=complex),
                rng.standard_normal((7, 4)) + 0j, 1e-300 * rng.standard_normal((4, 4)) + 0j]
    for A in matrices:
        for b in (np.zeros(len(A), dtype=complex), rng.standard_normal(len(A)) + 1j):
            assert_matches_numpy(A, b)
            if not b.any():
                assert not fresh_lstsq(A, -b).any()


def test_lstsq_gives_nan_on_non_finite_input_without_lapack(monkeypatch):
    # NumPy's lstsq raises LinAlgError on a nan entry and did not return
    # within 10 s on this 4 x 3 matrix with an infinite one
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    b = rng.standard_normal(4) + 0j
    A_nan = A.copy()
    A_nan[1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(A_nan, b, rcond=None)

    # only A is checked: the right-hand side is each caller's to keep
    # finite (test_every_search_solve_has_a_finite_residual and
    # test_a_probe_with_a_non_finite_residual_is_refused_before_lapack)
    monkeypatch.setattr(calculus, "zgelsy", no_lapack)
    for bad in (np.inf, -np.inf, complex(0, np.inf), np.nan, complex(1, np.nan)):
        A_bad = A.copy()
        A_bad[1, 0] = bad
        x = fresh_lstsq(A_bad, b)
        assert x.shape == (3,) and np.isnan(x).all()


def test_every_search_solve_has_a_finite_residual(three_body, monkeypatch):
    # _lstsq checks only A, for the search's F is finite by construction:
    # each of its rows passed rows_below against a finite residual or inf,
    # which fails an infinite or nan row.  Every least-squares solve of the
    # search, over the full-system comparison's starts, pinned and not, the
    # equal-mass 3x2 hunt's starts and the small corpus's hunts at hunt
    # seed 0, gets a finite F
    cfg, pc, seeds = three_body
    cases = three_body_cases(cfg, pc, seeds, False) + three_body_cases(cfg, pc, seeds, True)
    cases += cone_cases() + hunt_cases(cfg, pc)
    finite = []

    def lstsq(system):
        finite.append(bool(np.isfinite(system.F).all()))
        return _lstsq(system)

    monkeypatch.setattr(darboux, "_lstsq", lstsq)
    for pc_, x0, pins, max_iter, conv_tol in cases:
        _newton(pc_, x0, pins, conv_tol, max_iter)
    for problem in corpus():
        hunt(PointCalculus(parse_problem(problem.text(), label=problem.name)),
             AnalysisOptions(seed=0))
    assert len(finite) > 1000 and all(finite)


def test_an_accepted_trials_residual_is_the_largest_python_absolute(three_body, monkeypatch):
    # the search decides each row by Python's abs(v) < res, so the residual
    # of an accepted trial, which the next trial's rows are compared with,
    # is the largest Python absolute of the rows it wrote to F, pin rows
    # included; NumPy's absolute differs from it in the last bit on some of
    # the trials here
    cfg, pc, seeds = three_body
    original, accepted = darboux._trial, []

    def trial(pc_, x, xs, pins, res, system):
        out = original(pc_, x, xs, pins, res, system)
        if isinstance(out, tuple):
            accepted.append((out[0], system.F.tolist()))
        return out

    monkeypatch.setattr(darboux, "_trial", trial)
    for pc_, x0, pins, max_iter, conv_tol in (three_body_cases(cfg, pc, seeds, True)
                                              + hunt_cases(cfg, pc)):
        _newton(pc_, x0, pins, conv_tol, max_iter)
    assert len(accepted) > 500
    assert all(r == max(map(abs, rows)) for r, rows in accepted)
    assert any(r != calculus._largest(np.array(rows)) for r, rows in accepted)


def no_lapack(*args, **kwargs):
    raise AssertionError("zgelsy called on a non-finite system")


def test_a_probe_with_a_non_finite_residual_is_refused_before_lapack(monkeypatch):
    # _lstsq checks only A, so the Sigma probe tests its own F: a step whose
    # G or polynomial value is not finite, its gradients finite, ends the
    # probe with False, the verdict an all-nan step gave it, and makes no
    # LAPACK call; the 1/w1 potential's Sigma has two polynomials, detJ
    # (the probe's row 0) and the denominator w1 (its last row)
    pc = PointCalculus(parse_problem("vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n"))
    x = np.array([0.6, 0.8, 1.0], dtype=complex)
    G, dG, S, dS = pc._variety_kernel(x)
    assert len(S) == 2 and np.isfinite(dG).all() and np.isfinite(dS).all()
    assert not pc.near_sigma(x)  # the probes walk this point on finite values
    monkeypatch.setattr(calculus, "zgelsy", no_lapack)
    probes = (pc.near_critical_set, functools.partial(pc._near_zero_set, pc._den))
    for row, probe in zip((0, 1), probes):
        for bad in (np.inf, np.nan, complex(0, -np.inf)):
            for entry in ("G", "S"):
                G_bad, S_bad = G.copy(), S.copy()
                if entry == "G":
                    G_bad[0] = bad
                else:
                    S_bad[row] = bad
                monkeypatch.setitem(vars(pc), "_variety_kernel",
                                    lambda y, v=(G_bad, dG, S_bad, dS): v)
                assert probe(x) is False


def test_lstsq_buffers_reused_after_a_permuting_solve_free_every_column():
    # zgelsy writes the column permutation of its pivoted QR back into the
    # pivots _lstsq passes it, and a non-zero pivot on entry fixes its
    # column in front, unpivoted; so a search that keeps its system for a
    # whole start zeroes the pivots before every solve.  A1's solve
    # permutes its columns (their norms grow tenfold from one to the next)
    # and leaves every pivot non-zero; A2's first column is zero, which a
    # stale pivot array would keep in front, where the rank estimate of
    # the unpivoted R stops at its zero first entry and gives x = 0; with
    # the pivots zeroed the solve on the reused system has the bits of a
    # fresh one, nonzero, for either sign of the residual, and negating the
    # residual negates the step, but for the sign of a zero
    rng = np.random.default_rng(17)
    m, n = 7, 4
    A1 = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * 10.0 ** np.arange(n)
    A2 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    A2[:, 0] = 0.0
    b1, b2 = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
    for b in (b2, -b2):
        system = lstsq_system(m, n)
        solve_with(system, A1, b1)
        assert system.pivots.all() and system.pivots.tolist() != list(range(1, n + 1))
        got = solve_with(system, A2, b)
        fresh = fresh_lstsq(A2, b)
        assert bits(got) == bits(fresh) and got[1:].all()
        assert (fresh_lstsq(A2, -b) == -fresh).all()
