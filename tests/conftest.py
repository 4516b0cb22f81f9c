import numpy as np
import pytest
from hypothesis import strategies as st

from algpot import calculus, expr, parse_problem

CONE_TEXT = """\
vars q1 q2
ext w1 : w1^2 - q1^2 - q2^2
potential w1^3
"""

TRAP_TEXT = """\
vars q1 q2
ext w1 : w1^2 - q1
potential w1^5 + q2^2
"""

PLAIN_TEXT = """\
vars q1 q2
potential q1^2 + q2^2
"""

# the benchmark's draw1: w2's generator uses w1, so J has an entry below
# its diagonal
DRAW1_TEXT = """\
vars q1 q2
ext w1 : -q1^3 - 2*q2^3 + w1^3
ext w2 : -q2^2 - 2*w1^2 + w2^2
potential -3*q1*q2^2*w2 - 2*q2*w1*w2^2 - w1^3*w2
"""


@pytest.fixture(scope="session")
def cone_setup():
    return parse_problem(CONE_TEXT, label="cone")


@pytest.fixture(scope="session")
def trap_setup():
    return parse_problem(TRAP_TEXT, label="trap")


@pytest.fixture(scope="session")
def plain_setup():
    return parse_problem(PLAIN_TEXT, label="plain")


@pytest.fixture()
def compiled(monkeypatch):
    """(targets, kernel) for each kernel compiled while the test runs, by
    PointCalculus or by RatExpr.compile."""
    kernels = []
    emit = expr.compile_arrays

    def spy(targets, order, finite=()):
        kernels.append((targets, emit(targets, order, finite)))
        return kernels[-1][1]

    monkeypatch.setattr(expr, "compile_arrays", spy)
    monkeypatch.setattr(calculus, "compile_arrays", spy)
    return kernels


@pytest.fixture()
def cone_file(tmp_path):
    path = tmp_path / "cone.prob"
    path.write_text(CONE_TEXT)
    return str(path)


@pytest.fixture()
def trap_file(tmp_path):
    path = tmp_path / "trap.prob"
    path.write_text(TRAP_TEXT)
    return str(path)


def on_cone(q1, q2, sign=1.0):
    """A point of the cone variety over (q1, q2)."""
    return np.array([q1, q2, sign * np.sqrt(complex(q1 * q1 + q2 * q2))],
                    dtype=complex)


def _ldexp(m: float, e: int) -> float:
    """m * 2^e, an infinity where that overflows (|m| = 1, e = 1024)."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(m, e))


def float_parts():
    """Floats over the whole exponent range: signed zeros, subnormals,
    infinities and nan, and every binary exponent drawn alike."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, np.inf, -np.inf, np.nan])
    spread = st.builds(_ldexp, st.floats(-1.0, 1.0), st.integers(-1075, 1024))
    return st.one_of(special, spread, st.floats())
