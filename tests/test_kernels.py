"""The generated kernels of PointCalculus against the per-expression closure
evaluator they replaced: equal bits on every output, the same PoleError
where the closures raise one.  The kernels compute in Python complex and the
closures in NumPy scalars, so the arithmetic itself is held to NumPy's on
signed zeros, infinities, nans and subnormals too."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algpot.calculus import PointCalculus
from algpot.expr import (HALVINGS, ZERO, PoleError, RatExpr, RowTest, Substitution,
                         _numpy_power, compile_arrays)
from algpot.nbody import NBodyConfig, build
from algpot.parsing import parse_problem

from closure_reference import reference_compile
from conftest import CONE_TEXT, TRAP_TEXT

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
        # the trial kernel itself gives those bits wherever its rows pass,
        # and raises PoleError where the closures do
        try:
            got = trial.kernel(x, np.inf)
        except ZeroDivisionError:  # a zero diagonal entry of J
            got = None
        except PoleError:
            assert hessians[0] == "pole"
            got = None
        if isinstance(got, tuple):
            assert hessians == outcome(lambda y: flat(got[trial.first][-2:]), x)
            whole += 1
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
# the kernels' Python-complex arithmetic against NumPy's scalars
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
    chose, in NumPy as in Python."""
    a, b = complex(a), complex(b)
    return all((math.isnan(u) and math.isnan(v))
               or (u == v and math.copysign(1.0, u) == math.copysign(1.0, v))
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


X, Y = RatExpr.var("x"), RatExpr.var("y")
QUOTIENT = (X / Y).compile(("x", "y"))


@given(complexes(), complexes())
@settings(max_examples=400, deadline=None)
def test_sums_products_and_quotients_have_numpy_bits(a, b):
    A, B, one = np.complex128(a), np.complex128(b), np.complex128(1)
    with np.errstate(all="ignore"):
        assert same(a + b, A + B)
        assert same(a * b, A * B)
        if b != 0:  # the kernel's terms are 1 * x and 1 * y
            assert same(QUOTIENT(np.array([a, b])), (0j + one * A) / (0j + one * B))


# constant numerators of the quotient sites: one whose quotients stay in
# range, and one whose quotients overflow
CONSTANTS = (3, 10 ** 308)


def quotient_sites() -> dict:
    """Every place compile_arrays divides, each computing x / y and c / y
    for each of CONSTANTS: a kernel without row tests, a kernel with row
    tests before its last decision (quotients its rows read, as the trial
    kernel's gradient) and after it (quotients no row reads, as the trial
    kernel's Hessians), and each row's own test.  Each site maps to f(a, b),
    the list of its quotients at x = a, y = b, or None at a pole.  A row
    test's quotient is the value it hands rows_below, which a row reaches
    for every value against res = 0."""
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

    def spy(rows, res):
        """rows_below, passing every row: the value it is handed is kept."""
        seen.append(rows[0])
        return True

    for kernel in (before, tested):
        kernel.on_list.__globals__["rows_below"] = spy

    def values(kernel, *args, at=slice(None)):
        try:
            return list(kernel(np.array(args[0]), *args[1:])[at])
        except PoleError:
            return None

    def row_tests(a, b):
        seen.clear()
        for test in tested.row_tests[1:]:  # the last halving, with no step
            assert test([a, b], [0j, 0j], HALVINGS - 1, 0.0) in (HALVINGS - 1, HALVINGS)
        return seen[:] or None  # a pole goes on to the next halving

    return {"plain": lambda a, b: values(plain, [a, b]),
            "before the last decision": lambda a, b: values(before, [a, b], 0.0, at=slice(3)),
            "after the last decision": lambda a, b: values(after, [a, b], np.inf, at=slice(2, None)),
            "row test": row_tests}


QUOTIENT_SITES = quotient_sites()


def numpy_quotients(a, b):
    """NumPy's x / y and c / y for each of CONSTANTS, each operand summed
    onto 0j as a kernel sums it, or None where y's sum is zero."""
    one = np.complex128(1)
    with np.errstate(all="ignore"):
        d = 0j + one * np.complex128(b)
        numerators = [0j + one * np.complex128(a)] + [np.complex128(c) for c in CONSTANTS]
        return None if d == 0 else [n / d for n in numerators]


def check_quotient_sites(a, b):
    # every site's quotients are NumPy's, bit for bit, and none warns
    expected = numpy_quotients(a, b)
    for site, f in QUOTIENT_SITES.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(a, b)
        assert (got is None) == (expected is None), (site, a, b)
        if got is not None:
            assert all(same(g, e) for g, e in zip(got, expected)), (site, a, b, got, expected)


@given(complexes(), complexes())
@settings(max_examples=400, deadline=None)
def test_every_quotient_site_has_numpy_bits_and_no_warning(a, b):
    check_quotient_sites(a, b)


# operands where NumPy's division raises a flag: 1.5e308 (1 + i) overflows
# NumPy's br + bi * (bi / br), 1e-310 and below its reciprocal scale;
# NumPy's 1.7803788330245468e+308 / 0.9903685999006193 multiplies by the
# reciprocal and overflows, where Python's division gives the largest double
EDGE_NUMERATORS = [1e308, complex(1.5e308, -1.5e308), 1.7803788330245468e+308, 0.75 - 0.5j, 0j]
EDGE_DENOMINATORS = [complex(1.5e308, 1.5e308), 1e-310, 5e-324, complex(1e-310, -2e-320),
                     0.9903685999006193, 1.5e308, -0.5 + 2j, 0j]


def test_quotient_sites_at_the_edges_of_numpys_division():
    assert complex(1.7803788330245468e+308) / 0.9903685999006193 == np.finfo(float).max
    for a in EDGE_NUMERATORS:
        for b in EDGE_DENOMINATORS:
            check_quotient_sites(a, b)


def test_quotients_are_numpys_division_where_pythons_differs():
    # Python divides by the denominator rather than by NumPy's reciprocal
    # scale, so a kernel's quotient must be NumPy's division
    rng = np.random.default_rng(0)
    draws = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    differ = sum(complex(a) / complex(b) != a / b for a, b in draws)
    assert differ > 400
    assert all(same(QUOTIENT(point), point[0] / point[1]) for point in draws)


def evaluated(f, point):
    """("value", f(point)), or ("pole", None) where f raises PoleError."""
    try:
        with np.errstate(all="ignore"):
            return "value", f(point)
    except PoleError:
        return "pole", None


@given(complexes(), complexes(), st.integers(2, 120), st.integers(1, 99))
@settings(max_examples=300, deadline=None)
def test_kernel_powers_and_quotients_match_numpy_scalars(x, y, e, f):
    # x ** e through NumPy's binary method for e < 100 and NumPy's own power
    # beyond; at a zero base the two differ only in signs that the sum onto
    # 0j clears
    point = np.array([x, y], dtype=complex)
    for t in (X ** e, 3 * X ** e * Y - Y ** f, (X ** e + 2) / (Y ** f - X), Y / X ** e):
        kind, got = evaluated(t.compile(("x", "y")), point)
        ref_kind, expected = evaluated(reference_compile(t, ("x", "y")), point)
        assert kind == ref_kind and (kind == "pole" or same(got, expected)), (str(t), x, y)


# bases of a power e >= 100: finite ones, 1e10, whose 120th power
# overflows, and every pair of the special parts above
POWER_BASES = [0.75 - 0.5j, 1.0001 + 0j, -1.5 + 0.25j, 1e10 + 0j, -1e10 + 0j,
               complex(1e10, 1e10), complex(0.0, -1e10)]
POWER_BASES += [complex(a, b) for a in SPECIAL for b in SPECIAL]


def word_bits(v: complex) -> bytes:
    """The bits of both components of v, the signs and payloads of nans
    included."""
    return np.array([v], dtype=complex).tobytes()


@pytest.mark.parametrize("e", [100, 120, 255])
def test_a_power_left_to_numpy_has_its_bits_and_no_warning(e):
    # a power e >= 100 is NumPy's cdouble(x) ** e (expr._numpy_power), bit
    # for bit, without the warning NumPy raises where it overflows (1e10 **
    # 120) or meets an infinity or a nan; a kernel that reads one computes
    # it there and evaluates as the closure reference does, warning about
    # nothing
    kernel = (X ** e + Y ** 2).compile(("x", "y"))
    assert f"numpy_power(x0, {e})" in kernel.source
    reference = reference_compile(X ** e + Y ** 2, ("x", "y"))
    overflowed = 0
    for x in POWER_BASES:
        with np.errstate(all="ignore"):
            expected = np.complex128(x) ** e
            closure = reference(np.array([x, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _numpy_power(x, e)
            value = kernel(np.array([x, 0.5]))
        assert type(got) is complex and word_bits(got) == word_bits(expected), (x, e)
        assert same(value, closure), (x, e)
        overflowed += bool(np.isfinite(x)) and not np.isfinite(expected)
    assert overflowed > 10
