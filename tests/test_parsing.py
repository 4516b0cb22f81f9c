"""Problem file grammar: declarations, generators, and error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algpot import ParseError, RatExpr, ZeroDenominatorError, parse_problem
from algpot.parsing import parse_expression


def test_cone_problem_shape(cone_setup):
    assert cone_setup.q_names == ("q1", "q2")
    assert cone_setup.w_names == ("w1",)
    assert cone_setup.n == 2 and cone_setup.s == 1
    g = cone_setup.generators[0]
    assert g.compile(cone_setup.var_names)([3.0, 4.0, 5.0]) == 0


def test_pythagorean_point_on_generator(cone_setup):
    val = cone_setup.generators[0].compile(cone_setup.var_names)([3, 4, 5])
    assert val == 0


def test_potential_may_be_rational():
    setup = parse_problem("""
vars q1 q2
potential (q1*q2)/(q1^2 + q2^2)
""")
    from algpot import PoleError
    with pytest.raises(PoleError):
        setup.potential.compile(setup.var_names)([0.0, 0.0])


def test_generator_must_be_polynomial():
    with pytest.raises(ParseError):
        parse_problem("""
vars q1
ext w1 : w1^2 - 1/q1
potential w1
""")


def test_generator_may_use_earlier_extensions():
    setup = parse_problem("""
vars q1
ext w1 : w1^2 - q1
ext w2 : w2^2 - w1
potential w2
""")
    assert setup.s == 2


def test_generator_may_not_use_later_extensions():
    with pytest.raises(ParseError):
        parse_problem("""
vars q1
ext w1 : w1^2 - w2
ext w2 : w2^2 - q1
potential w1
""")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_problem("vars q1 q1\npotential q1\n")
    with pytest.raises(ParseError):
        parse_problem("vars q1\next q1 : q1^2\npotential q1\n")


def test_keyword_names_rejected():
    with pytest.raises(ParseError):
        parse_problem("vars potential\npotential potential\n")


def test_unknown_name_in_potential():
    with pytest.raises(ParseError):
        parse_problem("vars q1\npotential q2\n")


def test_missing_potential():
    with pytest.raises(ParseError):
        parse_problem("vars q1\n")


def test_ext_after_potential_rejected():
    with pytest.raises(ParseError):
        parse_problem("vars q1\npotential q1\next w1 : w1^2 - q1\n")


def test_division_by_zero_literal():
    with pytest.raises(ParseError):
        parse_expression("1/0")


CONE_HEAD = "vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\n"


@pytest.mark.parametrize("text, message", [
    (CONE_HEAD + "potential 10^400*w1^3\n",
     "line 3, col 1: potential has a coefficient too large for a double"),
    (CONE_HEAD + "potential w1^3/10^400\n",
     "line 3, col 1: potential has a coefficient too small for a double"),
    # a denominator coefficient: the normal form's denominator is monic
    (CONE_HEAD + "potential 1/(w1^2 + 10^(-400))\n",
     "line 3, col 1: potential has a coefficient too small for a double"),
    ("vars q1\next w1 : w1^2 - 10^400*q1\npotential w1\n",
     "line 2, col 1: generator for 'w1' has a coefficient too large for a double"),
])
def test_coefficients_a_double_cannot_hold_are_refused(text, message):
    # the kernels evaluate every coefficient as its double: inf, or 0,
    # which would drop its term
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert str(exc.value) == message


def test_parse_error_reports_position():
    try:
        parse_problem("vars q1\npotential q1 + + 2\n")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected a parse error")


def test_comments_and_blank_lines_ignored():
    setup = parse_problem("""
# a comment
vars q1   # trailing comment

potential q1^2
""")
    assert setup.n == 1


def test_problem_text_round_trip(cone_setup):
    text = cone_setup.to_problem_text()
    again = parse_problem(text, label=cone_setup.label)
    assert again.q_names == cone_setup.q_names
    assert again.w_names == cone_setup.w_names
    assert again.generators == cone_setup.generators
    assert again.potential == cone_setup.potential


def test_exponent_forms():
    e = parse_expression("q1^(-2)", allowed_names={"q1"})
    assert e.compile(["q1"])([2.0]) == pytest.approx(0.25)
    e2 = parse_expression("q1^2^3", allowed_names={"q1"})
    # chained powers associate to the left: (q1^2)^3
    assert e2.compile(["q1"])([2.0]) == 64.0


def test_a_monomial_raised_to_a_large_power_parses_at_once():
    # the exponents scale: no 10^8 multiplications
    e = parse_expression("q1^100000000")
    assert e.num == {(("q1", 100000000),): 1} and e.den == {(): 1}
    assert parse_expression("(2*q1/(3*q2))^-3") == parse_expression("27*q2^3/(8*q1^3)")


@pytest.mark.parametrize("text, message", [
    # a superscript is a digit but not a decimal one: int() raised ValueError
    ("vars q1\npotential q1^\u00b2\n", "line 2, col 4: unexpected character '\u00b2'"),
    ("vars q1\npotential \u00b2\n", "line 2, col 1: unexpected character '\u00b2'"),
    # past the recursion limit, which raised RecursionError
    ("vars q1\npotential " + "(" * 1200 + "q1" + ")" * 1200 + "\n",
     "line 2, col 1: expression nested too deeply"),
    ("vars q1\npotential " + "-" * 1200 + "q1\n", "line 2, col 1: expression nested too deeply"),
    # an ext line without a name, which raised IndexError
    ("vars q1\next : w1^2 - q1\npotential q1\n", "line 2, col 1: invalid variable name ''"),
])
def test_malformed_input_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert str(exc.value) == message


# A random expression tree, its text and its value: each node renders in
# parentheses where its context needs them (a binary right operand one level
# up, left associativity), and anywhere else at random; separators and
# comments go between tokens.  Levels: 0 sum, 1 product, 2 negation,
# 3 power, 4 atom.
_OPS = {"+": (0, RatExpr.__add__), "-": (0, RatExpr.__sub__),
        "*": (1, RatExpr.__mul__), "/": (1, RatExpr.__truediv__)}


@st.composite
def _trees(draw, depth=3):
    """(tokens, level, value), value None where evaluation divides by zero."""
    kind = draw(st.sampled_from(["atom"] * 2 + ["bin"] * 3 + ["neg", "pow"])) if depth else "atom"
    if kind == "atom":
        if draw(st.booleans()):
            n = draw(st.integers(0, 12) | st.integers(0, 10 ** 30))
            return [str(n)], 4, RatExpr.const(n)
        name = draw(st.sampled_from(["x", "y", "q1", "_w", "\u03bb"]))
        return [name], 4, RatExpr.var(name)
    if kind == "neg":
        toks, value = _operand(draw, depth, 2)
        return ["-"] + toks, 2, None if value is None else -value
    if kind == "pow":
        toks, value = _operand(draw, depth, 3)
        e = draw(st.integers(0, 2))
        sign = draw(st.sampled_from([1, -1]))
        exp = [str(e)] if sign > 0 else ["-", str(e)]
        if draw(st.booleans()):
            exp = ["("] + exp + [")"]
        if value is not None and value.is_zero and sign * e < 0:
            value = None
        return toks + ["^"] + exp, 3, None if value is None else value ** (sign * e)
    op = draw(st.sampled_from(sorted(_OPS)))
    level, apply = _OPS[op]
    left, a = _operand(draw, depth, level)
    right, b = _operand(draw, depth, level + 1)
    value = None if a is None or b is None or op == "/" and b.is_zero else apply(a, b)
    return left + [op] + right, level, value


def _operand(draw, depth, needs):
    toks, level, value = draw(_trees(depth - 1))
    if level < needs or draw(st.integers(0, 5)) == 0:
        toks = ["("] + toks + [")"]
    return toks, value


@given(_trees(), st.data())
@settings(max_examples=300, deadline=None)
def test_parsed_text_is_the_trees_value(tree, data):
    toks, _, value = tree
    seps = st.sampled_from(["", "", " ", "\t", "\n", "  # a comment (\n"])
    text = "".join(t + data.draw(seps) for t in toks)
    if value is None:
        with pytest.raises((ParseError, ZeroDenominatorError)):
            parse_expression(text)
        return
    got = parse_expression(text)
    assert list(got.num.items()) == list(value.num.items())
    assert list(got.den.items()) == list(value.den.items())
