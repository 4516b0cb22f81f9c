"""The generated kernels of PointCalculus against the per-expression closure
evaluator they replaced: equal bits on every output, the same PoleError
where the closures raise one.  Both compute in Python complex arithmetic,
the kernels by straight-line code shared between outputs and the closures
one expression at a time, so the kernels' order of operations and power
rule are held on signed zeros, infinities, nans and subnormals too."""

import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algpot.calculus import PointCalculus
from algpot.expr import (HALVINGS, STAY, ZERO, PoleError, RatExpr, RowTest, Substitution,
                         compile_arrays)
from algpot.nbody import NBodyConfig, build
from algpot.parsing import parse_problem

from closure_reference import reference_compile
from conftest import CONE_TEXT, TRAP_TEXT
from residual_reference import trial_at

SETUPS = {
    "cone": lambda: parse_problem(CONE_TEXT),
    "trap": lambda: parse_problem(TRAP_TEXT),
    "cone-1/w1": lambda: parse_problem(
        "vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n"),
    "quotient": lambda: parse_problem(
        "vars q1 q2\next w1 : w1^2 - q1\n"
        "potential (q1*q2^2 - 3/7*w1^3 + 2)/(q1^2 + q2^2 - 5/3*w1*q2)\n"),
    "nbody-3x2-123": lambda: build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3))),
}


def points(N, seed=5):
    """Random complex and real points, points with -0.0 parts, the origin."""
    rng = np.random.default_rng(seed)
    out = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(4)]
    out += [rng.standard_normal(N) + 0j for _ in range(3)]
    for x in (out[0].copy(), out[4].copy()):
        x[::2] = complex(-0.0, -0.0)
        x[1] = complex(x[1].real, -0.0)
        out.append(x)
    out.append(np.full(N, complex(-0.0, 0.0)))
    out.append(np.zeros(N, dtype=complex))
    return out


def outcome(f, x):
    """The bits of f(x), or the message of the PoleError it raises."""
    try:
        return "value", np.asarray(f(x), dtype=complex).tobytes()
    except PoleError as exc:
        return "pole", str(exc)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def reference_array(shape, entries, order):
    """Closure-filled array: entries [(expr, [index, ...])] evaluated in
    order, as the slot loops did; every other element 0j."""
    closures = [(reference_compile(e, order), places) for e, places in entries]

    def f(x):
        out = np.zeros(shape, dtype=complex)
        for c, places in closures:
            value = c(x)
            for p in places:
                out[p] = value
        return out
    return f


def hessian_entries(f, order, lead=()):
    """Every upper-triangle second partial in row-major order, written to
    both places: the order in which the calculus has always evaluated them."""
    grad = [f.diff(v) for v in order]
    return [(grad[a].diff(order[b]), [lead + (a, b), lead + (b, a)])
            for a in range(len(order)) for b in range(a, len(order))]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_kernels_match_the_closure_evaluator_bit_for_bit(name, compiled):
    setup = SETUPS[name]()
    pc = PointCalculus(setup)
    order = setup.var_names
    N, s = len(order), setup.s
    V, G = setup.potential, setup.generators

    ref_g = reference_array((s,), [(g, [(a,)]) for a, g in enumerate(G)], order)
    ref_dg = reference_array((s, N), [(g.diff(v), [(a, j)]) for a, g in enumerate(G)
                                      for j, v in enumerate(order)], order)
    ref_vh = reference_array((N, N), hessian_entries(V, order), order)
    ref_gh = reference_array((s, N, N), [e for a, g in enumerate(G)
                                         for e in hessian_entries(g, order, (a,))], order)
    ref_v = reference_compile(V, order)
    ref_det = reference_compile(pc.det, order)
    sigma = [f for f in (pc.det, pc._den) if f.constant_value() is None]
    ref_s = reference_array((len(sigma),), [(f, [(i,)]) for i, f in enumerate(sigma)], order)
    ref_ds = reference_array((len(sigma), N), [(f.diff(v), [(i, j)]) for i, f in enumerate(sigma)
                                               for j, v in enumerate(order)], order)

    # the point kernel's expression values (the potential's partials, the
    # entries of dG), at every point: its target list compiled again with
    # no division in its substitutions, so a zero diagonal entry of J (the
    # -0.0 points, the origins) raises nothing, and the expression lines
    # run as emitted; the substitutions are held to NumPy's solve elsewhere
    point = pc._point_kernel.kernel  # compiles it
    (point_targets,) = [t for t, k in compiled if k is point]
    undivided = compile_arrays([t._replace(divisor=None) if isinstance(t, Substitution)
                                else t for t in point_targets], order)
    ref_point = [(k, reference_compile(t, order)) for k, t in enumerate(point_targets)
                 if isinstance(t, RatExpr)]
    assert len(ref_point) > s

    # the trial kernel's two Hessians, at every point: its target list
    # compiled again likewise, in target order, without its row tests, so
    # the closures evaluated in that order meet the same first pole, a
    # quotient of the point kernel's before the Hessians' own
    trial = pc._trial_kernel
    (trial_targets,) = [t for t, k in compiled if k is trial.kernel]
    undivided_trial = compile_arrays(
        [t._replace(divisor=None) if isinstance(t, Substitution) else t
         for t in trial_targets if not isinstance(t, RowTest)], order)
    ref_trial = [reference_compile(t, order) for t in trial_targets if isinstance(t, RatExpr)]

    def ref_hessians(y):
        for f in ref_trial:
            f(y)
        return flat((ref_vh(y), ref_gh(y)))

    seen, whole = set(), 0
    for x in points(N):
        # G, dG, and Sigma's non-constant polynomials with their gradients
        assert outcome(lambda y: flat(pc._variety_kernel(y)), x) == \
            outcome(lambda y: flat((ref_g(y), ref_dg(y), ref_s(y), ref_ds(y))), x)
        assert outcome(lambda y: [undivided(y)[k] for k, _ in ref_point], x) == \
            outcome(lambda y: [f(y) for _, f in ref_point], x)
        hessians = outcome(lambda y: flat(undivided_trial(y)[-2:]), x)
        assert hessians == outcome(ref_hessians, x)
        # the trial kernel's scan at the point itself gives those bits
        # wherever it returns values, and skips the point where the
        # closures meet a pole, as at a zero diagonal entry of J
        got = trial_at(pc, x.tolist(), np.inf)
        if isinstance(got, tuple):
            assert hessians == outcome(lambda y: flat(got[1][-2:]), x)
            whole += 1
        elif hessians[0] == "pole":
            assert got is None
        assert outcome(pc.potential_value, x) == outcome(lambda y: complex(ref_v(y)), x)
        assert outcome(pc.det_value, x) == outcome(lambda y: complex(ref_det(y)), x)
        seen.add(outcome(pc.potential_value, x)[0])
    assert whole == 7  # the points without a pole or a zero diagonal entry of J
    if name in ("cone-1/w1", "quotient"):
        assert seen == {"value", "pole"}  # the origin is a pole
    # a factor of exponent 1 is its load: no kernel raises to the power 1,
    # and the bits above, -0.0 points included, are the closures' x ** 1
    sources = [kernel.source for _, kernel in compiled]
    assert len(sources) == 5  # variety, point, trial (with the Hessians), potential, detJ
    assert not any(re.search(r"\*\* 1\b", source) for source in sources)
    assert any(re.search(r" \* x\d+\b(?!_)", source) for source in sources)


def test_denominators_are_shared_only_in_the_same_term_order():
    # equal denominators whose terms are stored in another order sum in
    # another order, so each quotient keeps its own
    x, y, z = (((name, 1),) for name in "xyz")
    one = Fraction(1)
    forward = RatExpr({x: one}, {x: one, y: Fraction(1, 3), z: Fraction(-7, 5), (): one})
    backward = RatExpr({x: one}, {(): one, z: Fraction(-7, 5), y: Fraction(1, 3), x: one})
    assert forward == backward and list(forward.den) != list(backward.den)
    order = ("x", "y", "z")
    kernel = compile_arrays([forward, backward], order)
    assert kernel.source.count("raise PoleError") == 2
    rng = np.random.default_rng(11)
    for x in rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3)):
        a, b = kernel(x)
        assert outcome(lambda _: a, x) == outcome(reference_compile(forward, order), x)
        assert outcome(lambda _: b, x) == outcome(reference_compile(backward, order), x)


# ---------------------------------------------------------------------------
# the kernels' Python-complex arithmetic at special values
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 1.0, -1.5, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
           2.2250738585072014e-308, 1e308, -1e-300, 1e300, 0.75]


def parts():
    return st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))


def complexes():
    return st.builds(complex, parts(), parts())


def same(a, b):
    """Equal bits, signs of zeros included, where any nan matches any nan:
    the sign a nan comes out with follows the operand order the C compiler
    chose."""
    a, b = complex(a), complex(b)
    return all((math.isnan(u) and math.isnan(v))
               or (u == v and math.copysign(1.0, u) == math.copysign(1.0, v))
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


X, Y = RatExpr.var("x"), RatExpr.var("y")

# constant numerators of the quotient sites: one whose quotients stay in
# range, and one whose quotients overflow
CONSTANTS = (3, 10 ** 308)


def quotient_sites() -> dict:
    """Every place compile_arrays divides, each computing x / y and c / y
    for each of CONSTANTS: a kernel without row tests, a kernel with row
    tests before its last decision (quotients its rows read, as the trial
    kernel's gradient) and after it (quotients no row reads, as the trial
    kernel's Hessians), and each row's own test.  Each site maps to f(a, b),
    the list of its quotients at x = a, y = b, or None at a pole.  The
    kernels with row tests have abs replaced by a spy that passes every
    row, so that a row that fails stops none of them: a row test's
    quotient is the value the spy is handed."""
    quotients = [X / Y] + [RatExpr.const(c) / Y for c in CONSTANTS]
    rows = [RowTest(k) for k in range(len(quotients))]
    order = ("x", "y")
    plain = compile_arrays(quotients, order)
    before = compile_arrays(quotients + rows, order)
    after = compile_arrays([ZERO, RowTest(0)] + quotients, order)
    # a long first row, so that each quotient's row has a test of its own
    tested = compile_arrays([X ** 7 * Y ** 5] + quotients
                            + [RowTest(k) for k in range(len(quotients) + 1)], order)
    assert tested.row_tests[0] is None and None not in tested.row_tests[1:]
    seen = []

    def spy(v):
        """0.0 for abs(v), below every res > 0, keeping v."""
        seen.append(v)
        return 0.0

    for kernel in (before, tested):
        kernel.on_list.__globals__["abs"] = spy  # the row tests' namespace too

    def values(kernel, point, *res, at=slice(None)):
        """The kernel's values at the point, or None at a pole: a kernel
        with row tests, given res, scans the point itself (a step that
        stays), and skips it at a pole."""
        xs = np.array(point, dtype=complex).tolist()
        if res:
            _, out = kernel.on_list(xs, [STAY] * len(xs), HALVINGS - 1, *res)
            return None if out is None else list(out[at])
        try:
            return list(kernel.on_list(xs)[at])
        except PoleError:
            return None

    def row_tests(a, b):
        seen.clear()
        for test in tested.row_tests[1:]:  # the last halving, with no step
            assert test([a, b], [0j, 0j], HALVINGS - 1, 1.0) in (HALVINGS - 1, HALVINGS)
        return seen[:] or None  # a pole goes on to the next halving

    return {"plain": lambda a, b: values(plain, [a, b]),
            "before the last decision": lambda a, b: values(before, [a, b], 1.0, at=slice(3)),
            "after the last decision": lambda a, b: values(after, [a, b], np.inf, at=slice(2, None)),
            "row test": row_tests}


QUOTIENT_SITES = quotient_sites()

# operands at the edges of the double range: 1.5e308 (1 + i) and 1e-310
# overflow or underflow a scaled division, and 1.7803788330245468e+308 /
# 0.9903685999006193 is the largest double by Python's division, where a
# product with the reciprocal overflows
EDGE_NUMERATORS = [1e308, complex(1.5e308, -1.5e308), 1.7803788330245468e+308, 0.75 - 0.5j, 0j]
EDGE_DENOMINATORS = [complex(1.5e308, 1.5e308), 1e-310, 5e-324, complex(1e-310, -2e-320),
                     0.9903685999006193, 1.5e308, -0.5 + 2j, 0j]


def reference_quotients(a, b):
    """x / y and c / y for each of CONSTANTS by the closure reference, or
    None at a pole."""
    try:
        return [reference_compile(q, ("x", "y"))([a, b])
                for q in [X / Y] + [RatExpr.const(c) / Y for c in CONSTANTS]]
    except PoleError:
        return None


@given(st.one_of(complexes(), st.sampled_from(EDGE_NUMERATORS)),
       st.one_of(complexes(), st.sampled_from(EDGE_DENOMINATORS)))
@example(1.7803788330245468e+308 + 0j, 0.9903685999006193 + 0j)
@settings(max_examples=400, deadline=None)
def test_every_quotient_site_has_the_closure_references_bits_and_no_warning(a, b):
    # every site's quotients are the closure reference's, Python's n / d
    # of the sums onto 0j, bit for bit, and none warns
    expected = reference_quotients(a, b)
    for site, f in QUOTIENT_SITES.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(a, b)
        assert (got is None) == (expected is None), (site, a, b)
        if got is not None:
            assert all(same(g, e) for g, e in zip(got, expected)), (site, a, b, got, expected)
    if (a, b) == (1.7803788330245468e+308, 0.9903685999006193):
        assert expected[0] == np.finfo(float).max


def evaluated(f, point):
    """("value", f(point)), or ("pole", None) where f raises PoleError."""
    try:
        return "value", f(point)
    except PoleError:
        return "pole", None


# bases of a large power: finite ones, 1e10, whose 120th power overflows,
# and every pair of the special parts above
POWER_BASES = [0.75 - 0.5j, 1.0001 + 0j, -1.5 + 0.25j, 1e10 + 0j, -1e10 + 0j,
               complex(1e10, 1e10), complex(0.0, -1e10)]
POWER_BASES += [complex(a, b) for a in SPECIAL for b in SPECIAL]


@given(st.one_of(complexes(), st.sampled_from(POWER_BASES)), complexes(),
       st.integers(2, 255), st.integers(1, 99))
@settings(max_examples=300, deadline=None)
def test_kernel_powers_and_quotients_match_the_closure_reference(x, y, e, f):
    # x ** e by the binary method for every e >= 2, sums, products and
    # quotients: the closure reference's bits, without a warning
    point = np.array([x, y], dtype=complex)
    for t in (X ** e, 3 * X ** e * Y - Y ** f, (X ** e + 2) / (Y ** f - X), Y / X ** e):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kind, got = evaluated(t.compile(("x", "y")), point)
        ref_kind, expected = evaluated(reference_compile(t, ("x", "y")), point)
        assert kind == ref_kind and (kind == "pole" or same(got, expected)), (str(t), x, y)


def test_a_large_power_is_the_binary_method_without_a_warning():
    # q1^120 is the product of the repeated squares x^8, x^16, x^32, x^64
    # that 120's bits select, at every base of POWER_BASES the closure
    # reference's bits, and warns about nothing where it overflows
    kernel = (X ** 120 + Y ** 2).compile(("x", "y"))
    assert "x0_120 = (1+0j) * x0_s3 * x0_s4 * x0_s5 * x0_s6" in kernel.source
    assert "**" not in kernel.source
    reference = reference_compile(X ** 120 + Y ** 2, ("x", "y"))
    overflowed = 0
    for x in POWER_BASES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kernel(np.array([x, 0.5]))
        assert same(value, reference([x, 0.5])), x
        overflowed += cmath.isfinite(x) and not cmath.isfinite(value)
    assert overflowed > 10


def test_no_kernel_reaches_numpy_arithmetic():
    # a kernel computes in Python complex alone: neither its source nor its
    # namespace names NumPy's division, power or scalars, or a finiteness
    # pre-test; NumPy makes only its input list and its arrays
    gone = ("divide", "numpy_power", "pycomplex", "zero")
    kernels = [compile_arrays([X / Y, RatExpr.const(2) / Y, X ** 120 * Y, RowTest(0), RowTest(1)],
                              ("x", "y"))]
    for name in sorted(SETUPS):
        pc = PointCalculus(SETUPS[name]())
        pc.compile_analysis_kernels()
        kernels += [pc._variety_kernel, pc._trial_kernel.kernel, pc._point_kernel.kernel,
                    pc._v_kernel, pc._det_kernel]
    assert any(test is not None for kernel in kernels for test in kernel.row_tests)
    for kernel in kernels:
        # the row tests share the kernel's namespace
        assert not set(re.findall(r"\w+", kernel.source)) & set(gone)
        assert not kernel.on_list.__globals__.keys() & set(gone)
        # the one test of finiteness, of J's entries and u after the rows
        # of the trial kernel's scan, is cmath's on Python complex
        assert kernel.on_list.__globals__["isfinite"] is cmath.isfinite
        assert all("all(map(isfinite, (" in line for line in kernel.source.splitlines()
                   if "isfinite" in line)
