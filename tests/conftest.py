import numpy as np
import pytest

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

    def spy(targets, order):
        kernels.append((targets, emit(targets, order)))
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
