"""Exact rational expression arithmetic: algebraic laws and evaluation."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algpot import ExprError, PoleError, RatExpr
from algpot.expr import (_PONE, HALVINGS, SCALES, Array, RowTest, Substitution, _padd, _pdiff,
                         _pmul, _pneg, compile_arrays)
from algpot.parsing import parse_expression

X = RatExpr.var("x")
Y = RatExpr.var("y")
EPS = sys.float_info.epsilon


def value(e, env):
    """e at the point env (name -> value), through RatExpr.compile."""
    names = sorted(env)
    return e.compile(names)([env[n] for n in names])


def poly_value(p, env, absolute=False):
    """The polynomial p at env, summed monomial by monomial; with absolute,
    the sum of its terms' absolute values."""
    acc = 0j
    for mono, c in p.items():
        v = abs(c) if absolute else complex(c)
        for name, exp in mono:
            z = complex(env[name])
            v *= (abs(z) if absolute else z) ** exp
        acc += v
    return acc


def oracle(e, env):
    """e at env, summed monomial by monomial from the normal form: an
    evaluator independent of RatExpr.compile."""
    den = poly_value(e.den, env)
    if den == 0:
        raise PoleError(str(e))
    return poly_value(e.num, env) / den


def rounding_scale(e, env, v):
    """The size of the rounding error in e's value v at env, in units of
    eps: the numerator's terms in absolute value, plus |v| times the
    denominator's, over |denominator|.  Terms that cancel to a small value
    keep their own rounding."""
    num = poly_value(e.num, env, absolute=True)
    den = poly_value(e.den, env, absolute=True)
    return abs((num + abs(v) * den) / poly_value(e.den, env))


def small_fractions():
    return st.builds(Fraction,
                     st.integers(min_value=-8, max_value=8),
                     st.integers(min_value=1, max_value=6))


@st.composite
def expressions(draw, depth=3):
    """Random small expressions over x and y with rational constants."""
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return RatExpr.const(draw(small_fractions()))
        return X if choice == 1 else Y
    op = draw(st.integers(0, 4))
    a = draw(expressions(depth=depth - 1))
    if op == 4:
        return a ** draw(st.integers(min_value=0, max_value=3))
    b = draw(expressions(depth=depth - 1))
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a / b if not b.is_zero else a


@st.composite
def eval_points(draw):
    def coord():
        re = draw(st.integers(-5, 5))
        im = draw(st.integers(-5, 5))
        return complex(re, im) + 0.5  # offset away from easy poles
    return {"x": coord(), "y": coord()}


@given(expressions(), expressions(), eval_points())
@settings(max_examples=60, deadline=None)
def test_ring_ops_match_complex_arithmetic(a, b, env):
    try:
        va, vb = value(a, env), value(b, env)
    except PoleError:
        return
    scale = max(1.0, abs(va), abs(vb))
    assert abs(value(a + b, env) - (va + vb)) <= 1e-9 * scale
    assert abs(value(a - b, env) - (va - vb)) <= 1e-9 * scale
    assert abs(value(a * b, env) - va * vb) <= 1e-9 * scale * scale


@given(expressions())
@settings(max_examples=60, deadline=None)
def test_str_round_trips_through_parser(a):
    text = str(a)
    back = parse_expression(text)
    assert back == a


@given(expressions(), eval_points())
@example(a=parse_expression("-8*y^6 + 8*x^3*y^3 - 24*x^2*y^4 + 24*x*y^5"),
         env={"x": 5.5 + 2j, "y": 5.5 + 2j})
@settings(max_examples=60, deadline=None)
def test_diff_matches_finite_difference(a, env):
    h = 1e-6
    try:
        base = value(a, env)
    except PoleError:
        return
    d = a.diff("x")
    env_p = dict(env, x=env["x"] + h)
    env_m = dict(env, x=env["x"] - h)
    try:
        fd = (value(a, env_p) - value(a, env_m)) / (2 * h)
        dv = value(d, env)
    except PoleError:
        return
    # the central difference is off by O(h^2) in the derivative and by its
    # two values' rounding over h, which the terms set, not the value: at
    # the example, a and its x-derivative are 0, the terms are about 1e6
    # and the difference is off by 1.2e-4
    rounding = EPS * rounding_scale(a, env, base) / h
    assert abs(dv - fd) <= 1e-4 * max(1.0, abs(dv)) + 4 * rounding


def quotient_rule(e, var):
    """The derivative through the full quotient rule, for any variable."""
    dn = _pdiff(e.num, var)
    if e.is_polynomial:
        return RatExpr(dn, dict(_PONE))
    dd = _pdiff(e.den, var)
    return RatExpr(_padd(_pmul(dn, e.den), _pneg(_pmul(e.num, dd))), _pmul(e.den, e.den))


@given(expressions())
@settings(max_examples=60, deadline=None)
def test_diff_matches_the_full_quotient_rule(a):
    # "z" never occurs, so diff returns the zero expression at once
    for var in ("x", "y", "z"):
        d, full = a.diff(var), quotient_rule(a, var)
        assert (d.num, d.den) == (full.num, full.den)
    assert a.diff("z").is_zero and a.diff("z").is_polynomial


def test_diff_by_an_absent_variable_is_the_zero_normal_form():
    for e in (X ** 3 * Y - 2, (X * Y + 1) / (X ** 2 + 3 * Y)):
        assert e.diff("z") == quotient_rule(e, "z") == RatExpr.const(0)
        assert e.diff("z").den == {(): 1}


@given(expressions())
@settings(max_examples=40, deadline=None)
def test_subtraction_of_self_is_zero(a):
    assert (a - a).is_zero


def test_pole_error_carries_denominator():
    e = (X * Y) / (X * X + Y * Y)
    with pytest.raises(PoleError):
        value(e, {"x": 0.0, "y": 0.0})


@pytest.mark.parametrize("c, why", [(Fraction(10) ** 400, "too large"),
                                    (Fraction(1, 10 ** 400), "too small")])
def test_a_coefficient_a_double_cannot_hold_is_refused(c, why):
    # too large has no double; too small would round to 0 and drop its term
    for target in (RatExpr.const(c) * X, Array((1,), [(RatExpr.const(c), [(0,)])])):
        with pytest.raises(ExprError, match=f"a coefficient is {why} for a double"):
            compile_arrays([target], ["x"])


def test_integer_power_semantics():
    e = (X + RatExpr.const(1)) ** 3
    assert value(e, {"x": 2.0}) == 27.0
    inv = X ** -2
    assert value(inv, {"x": 2.0}) == pytest.approx(0.25)
    with pytest.raises(PoleError):
        value(inv, {"x": 0.0})


def test_compile_agrees_with_eval():
    e = (X ** 3 - Y) / (X + RatExpr.const(2))
    f = e.compile(("x", "y"))
    env = {"x": 1.5 + 0.5j, "y": -2.0}
    assert abs(f([env["x"], env["y"]]) - oracle(e, env)) < 1e-12


def test_normal_form_cancels_shared_monomials():
    # (x^2 y) / (x y^2) reduces to x / y
    e = (X * X * Y) / (X * Y * Y)
    assert e == X / Y


def test_division_by_zero_expression():
    with pytest.raises(Exception):
        X / (Y - Y)


def test_a_substitution_is_a_step_of_triangular_substitution():
    # (x*y - 3 * 2/x) / (x + y): the quotient it reads is Python's 2 / x,
    # and the step is Python's complex arithmetic throughout
    three, quotient = RatExpr.const(3), RatExpr.const(2) / X
    targets = [X * Y, three, quotient, X + Y, Substitution(0, ((1, 2),), 3),
               Substitution(4, ((1, 1), (0, 2)))]
    kernel = compile_arrays(targets, ["x", "y"])
    x, y = 1.5 - 0.25j, -0.75 + 2j
    values = kernel([x, y])
    assert all(type(v) is complex for v in values)
    assert values[2] == 2 / x
    step = (values[0] - values[1] * values[2]) / values[3]
    assert values[4] == step and values[5] == step - 9 - values[0] * values[2]
    # a zero divisor raises, where NumPy's division would give an infinity
    with pytest.raises(ZeroDivisionError):
        kernel([x, -x])
    # a step reads earlier scalars only
    for bad in ([X, Substitution(1)], [X, Substitution(0, ((0, 1),))],
                [Array((1,), [(X, [(0,)])]), Substitution(0)], [Substitution(0)]):
        with pytest.raises(ExprError, match="not an earlier scalar"):
            compile_arrays(bad, ["x"])


def test_a_row_test_stops_the_kernel_at_the_first_row_that_fails():
    # rows x*y/(x + 1) (Python's quotient) and (x + y) - y, each
    # tested right after the output it reads; a failing row returns its
    # index among the row tests, here 1 for x*y and 0 for (x + y) - y,
    # before the later outputs, so the pole of 1/(x - 1) is not reached
    quotient = X * Y / (X + RatExpr.const(1))
    targets = [quotient, X + Y, RatExpr.const(1) / (X - RatExpr.const(1)), RowTest(1, 1),
               RowTest(0)]
    kernel = compile_arrays(targets, ["x", "y"])
    x, y = 0.5 + 0.25j, -2.0 + 1j
    values = kernel([x, y], 10.0)
    assert all(type(v) is complex for v in values[3:])
    assert values[3] == (x + y) - y and values[4] == values[0]
    assert values[0] == x * y / (x + 1)
    assert kernel.on_list([x, y], 10.0) == values
    # the bound is strict: a row equal to it fails, and so does a nan
    assert kernel([x, y], float(np.abs(values[0]))) == 1
    assert kernel([complex(np.nan, 0.0), y], np.inf) == 1
    with pytest.raises(PoleError):
        kernel([1.0, y], np.inf)
    assert kernel([1.0, y], 0.5) == 1  # x*y/(x+1) = -1 + 0.5j fails first
    # the row (x + y) - y = x: where Python's abs of it overflows, the row
    # fails and is named, against an infinite bound too, also at the
    # largest double, whose NumPy absolute is finite
    huge = complex(1.5e308, 1.5e308)
    edge = complex(np.finfo(float).max, 2.0 ** 998)
    for v in (huge, edge):
        with pytest.raises(OverflowError):
            abs(v)
        assert kernel([v, 0.0], np.inf) == 0
    assert np.abs(edge) == np.finfo(float).max
    for bad in ([X, RowTest(1)], [Array((1,), [(X, [(0,)])]), RowTest(0)],
                [X, RowTest(0), RowTest(1)]):
        with pytest.raises(ExprError, match="not an earlier scalar"):
            compile_arrays(bad, ["x"])
    with pytest.raises(ExprError, match="out of range"):
        compile_arrays([X, RowTest(0, 1)], ["x"])


def test_a_rows_own_test_computes_only_what_the_row_reads():
    # the kernel decides the quotient's row first, so that row has no test
    # of its own; the row (x + y) - y has one, since its code is under half
    # of the kernel's up to its decision, and it reads neither the
    # quotient nor 1/(x - 1): it passes at both poles, where the kernel
    # raises, and otherwise decides as the kernel.  A test takes the point,
    # a step and a first halving k, and returns the first halving from k
    # on whose point x + 2^-k step passes, or HALVINGS; with a zero step
    # every halving is the point itself
    cubes = X ** 3 * Y ** 3
    targets = [cubes / (X + RatExpr.const(1)), X + Y, RatExpr.const(1) / (X - RatExpr.const(1)),
               RowTest(1, 1), RowTest(0)]
    kernel = compile_arrays(targets, ["x", "y"])
    test = kernel.row_tests[0]
    assert kernel.row_tests[1] is None and test is not None
    y, still = -0.5 + 0.25j, [0j, 0j]
    for x in (1.0, -1.0):
        with pytest.raises(PoleError):
            kernel([x, y], 10.0)
        assert test([x, y], still, 0, 10.0) == 0 and test([x, y], still, 7, 10.0) == 7
    assert test([3.0, y], still, 0, 3.0) == HALVINGS and kernel([3.0, y], 3.0) == 0
    assert test([0.5, y], still, 0, 10.0) == 0 and isinstance(kernel([0.5, y], 10.0), tuple)
    # the row is x, here 3 - 8 * 2^-k at the halving k: -5, -1, 1, 2, 2.5,
    # ...; |x| < 1.5 holds at k = 1 and 2 only, and the test returns the
    # first such halving from k on
    step = [-8.0 + 0j, 0j]
    passing = [k for k in range(HALVINGS) if abs((3.0 + SCALES[k] * step[0]).real) < 1.5]
    assert passing == [1, 2]
    assert [test([3.0, y], step, k, 1.5) for k in range(4)] == [1, 1, 2, HALVINGS]
    # a row whose Python abs overflows fails, as in the kernel, even
    # against an infinite bound where NumPy's absolute is the largest double
    assert test([complex(1.5e308, 1.5e308), 0.0], still, 0, np.inf) == HALVINGS
    edge = complex(np.finfo(float).max, 2.0 ** 998)
    assert np.abs(edge) == np.finfo(float).max
    assert test([edge, y], still, 0, np.inf) == HALVINGS
    # a test has the kernel's code for its row, its quotients by the
    # kernel's one rule, and a zero denominator goes on to the next
    # halving; a kernel without row tests keeps an empty row_tests
    assert "def row_test0(x, step, k, res):" in kernel.source
    assert "row_test1" not in kernel.source
    pole = compile_arrays([cubes, RatExpr.const(2) / Y, Substitution(1), RowTest(0), RowTest(2)],
                          ["x", "y"])
    assert pole.row_tests[0] is None and pole.row_tests[1] is not None
    assert "v1 = c1 / d0" in pole.source.split("def row_test1")[1]
    assert "if d0 == 0: continue" in pole.source
    assert pole.row_tests[1]([1.0, 0.0], still, 0, 10.0) == HALVINGS
    # y = -1 + 2^-k: the zero denominator at k = 0 goes on to k = 1, where
    # |2 / y| = 4, and |2 / y| = 8/3 < 3 at k = 2
    assert pole.row_tests[1]([1.0, -1.0], [0j, 1.0 + 0j], 0, 3.0) == 2
    assert compile_arrays([X, Y], ["x", "y"]).row_tests == ()
    # a test with more than half the kernel's code up to its row's
    # decision is not emitted: the row 2/y is decided after six lines of
    # values, four of which its test would have
    assert compile_arrays([X * Y, RatExpr.const(2) / Y, RowTest(0), RowTest(1)],
                          ["x", "y"]).row_tests == (None, None)


def test_a_failing_row_stops_the_kernel_before_any_output_it_does_not_read():
    # the row (x + y) - y does not read 1/(x - 1), so its test runs before
    # that output's line: at the pole x = 1 a row that fails returns None,
    # and only a row that passes goes on to the pole
    targets = [RatExpr.const(1) / (X - RatExpr.const(1)), X + Y, RowTest(1, 1)]
    kernel = compile_arrays(targets, ["x", "y"])
    y = -2.0 + 1j
    assert kernel([1.0, y], 0.5) == 0
    assert kernel.on_list([1.0, y], 0.5) == 0
    with pytest.raises(PoleError):
        kernel([1.0, y], 10.0)
    # at a regular point the outputs keep the bits of the same targets
    # compiled without the row test
    plain = compile_arrays(targets[:2], ["x", "y"])
    x = 0.5 + 0.25j
    values = kernel([x, y], 10.0)
    assert np.array(values[:2]).tobytes() == np.array(plain([x, y])).tobytes()
    assert values[2] == (x + y) - y
