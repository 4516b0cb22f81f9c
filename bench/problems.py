"""The benchmark's problems, generated from the workload seed.

Every problem carries its own geometry (generators, potential, Darboux
residual, energy) written with the NumPy code in ``polys``; the checks in
``checks`` use that geometry instead of algpot's evaluators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from polys import Evaluator, RationalFunction, diff, poly_text


@dataclass
class PolyProblem:
    """V = num/den on {G_j(q, w) = 0}, each G_j a polynomial in q and w."""

    name: str
    n: int
    s: int
    generators: list  # one polynomial dict per extension variable
    num: dict
    den: dict = field(default_factory=dict)
    degree: Fraction | None = None  # weighted degree k by construction

    def __post_init__(self):
        if not self.den:
            self.den = {(0,) * (self.n + self.s): 1}
        N = self.n + self.s
        self.q_names = tuple(f"q{i + 1}" for i in range(self.n))
        self.w_names = tuple(f"w{j + 1}" for j in range(self.s))
        self._V = RationalFunction(self.num, self.den, N)
        self._G = [Evaluator(g, N) for g in self.generators]
        self._dG = [[Evaluator(diff(g, v), N) for v in range(N)]
                    for g in self.generators]

    @property
    def names(self) -> tuple:
        return self.q_names + self.w_names

    def text(self) -> str:
        lines = ["vars " + " ".join(self.q_names)]
        for name, g in zip(self.w_names, self.generators):
            lines.append(f"ext {name} : {poly_text(g, self.names)}")
        num = poly_text(self.num, self.names)
        if len(self.den) == 1 and sum(next(iter(self.den))) == 0:
            lines.append(f"potential {num}")
        else:
            lines.append(f"potential ({num})/({poly_text(self.den, self.names)})")
        return "\n".join(lines) + "\n"

    # -- independent geometry -------------------------------------------

    def potential(self, x) -> complex:
        return self._V.value(x)

    def constraint_residual(self, x) -> float:
        if not self.s:
            return 0.0
        return max(abs(g(x)) for g in self._G)

    def darboux_residual(self, x) -> float:
        """max |grad_q V - q| on the variety, scaled by the point's size."""
        x = np.asarray(x, dtype=complex)
        n, s = self.n, self.s
        dV = self._V.gradient(x)
        g = dV[:n]
        if s:
            D = np.array([[f(x) for f in row] for row in self._dG], dtype=complex)
            W = np.linalg.solve(D[:, n:], -D[:, :n])
            g = g + W.T @ dV[n:]
        scale = max(1.0, float(np.max(np.abs(x))))
        return float(np.max(np.abs(g - x[:n]))) / scale


def cone() -> PolyProblem:
    """w^2 = q1^2 + q2^2, V = w^3: a circle of Darboux points, spectrum {1, 2}."""
    return PolyProblem("cone", 2, 1, [{(0, 0, 2): 1, (2, 0, 0): -1, (0, 2, 0): -1}],
                       {(0, 0, 3): 1}, degree=Fraction(3))


def trap() -> PolyProblem:
    """w^2 = q1, V = w^5 + q2^2: not homogeneous; candidates stall at w = 0."""
    return PolyProblem("trap", 2, 1, [{(0, 0, 2): 1, (1, 0, 0): -1}],
                       {(0, 0, 5): 1, (0, 2, 0): 1})


def pole() -> PolyProblem:
    """w^2 = q1^2 + q2^2, V = 1/w: a rational potential of degree -1."""
    return PolyProblem("pole", 2, 1, [{(0, 0, 2): 1, (2, 0, 0): -1, (0, 2, 0): -1}],
                       {(0, 0, 0): 1}, den={(0, 0, 1): 1}, degree=Fraction(-1))


def _weighted_monomials(weights, total):
    """Every exponent tuple whose weighted degree is exactly `total`."""
    ranges = [range(total // w + 1) for w in weights]
    return [e for e in itertools.product(*ranges)
            if sum(a * w for a, w in zip(e, weights)) == total]


def draw_homogeneous(rng: np.random.Generator, name: str) -> PolyProblem:
    """A random weighted-homogeneous algebraic potential, n <= 3, s <= 2.

    All variables have weight 1: w1 solves w1^2 = a quadratic form or
    w1^3 = a cubic form in q, an optional w2 solves w2^2 = a w1^2 + b q_i^2,
    and the potential is a polynomial of degree 3 or 4 with a term in w.
    Positive forms keep the fibers well conditioned, so most random starts
    converge and the hunt's cost stays close from one draw to the next.
    """
    n = int(rng.integers(2, 4))
    s = int(rng.integers(1, 3))
    N = n + s
    coef = lambda: int(rng.integers(1, 4))  # noqa: E731

    def unit(i, e):
        out = [0] * N
        out[i] = e
        return tuple(out)

    m = int(rng.integers(2, 4))
    gens = [{unit(n, m): 1, **{unit(i, m): -coef() for i in range(n)}}]
    if s == 2:
        i = int(rng.integers(n))
        gens.append({unit(n + 1, 2): 1, unit(n, 2): -coef(), unit(i, 2): -coef()})

    k = int(rng.integers(3, 5))
    monos = _weighted_monomials([1] * N, k)
    with_w = [e for e in monos if any(e[n:])]
    picks = [with_w[int(rng.integers(len(with_w)))]]
    for _ in range(int(rng.integers(0, 3))):
        picks.append(monos[int(rng.integers(len(monos)))])
    num = {}
    for e in picks:
        num[e] = num.get(e, 0) + coef() * int(rng.choice([-1, 1]))
    num = {e: c for e, c in num.items() if c}
    if not any(any(e[n:]) for e in num):
        num[picks[0]] = coef()
    return PolyProblem(name, n, s, gens, num, degree=Fraction(k))


# ---------------------------------------------------------------------------
# n-body
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NBodyProblem:
    """Planar gravitational n-body, V = sum m_i m_j / r_ij, r_ij^2 = |q_i - q_j|^2."""

    name: str
    masses: tuple
    dim: int = 2
    degree: Fraction = Fraction(-1)

    @property
    def nbodies(self) -> int:
        return len(self.masses)

    @property
    def pairs(self):
        n = self.nbodies
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def _split(self, x):
        x = np.asarray(x, dtype=complex)
        nq = self.nbodies * self.dim
        return x[:nq].reshape(self.nbodies, self.dim), x[nq:]

    def _distances(self, q, r_given):
        """r_ij from the positions, on the sheet nearest the given r_ij."""
        out = []
        for (i, j), rg in zip(self.pairs, r_given):
            d = q[i] - q[j]
            r = np.sqrt(complex(np.sum(d * d)))
            out.append(r if abs(r - rg) <= abs(r + rg) else -r)
        return np.array(out, dtype=complex)

    def cc_residual(self, x) -> tuple:
        """(residual of grad U(q) = q, worst |r_ij - r_ij(positions)|).

        The gradient uses the distances recomputed from the positions, so
        a point whose distance block is off the variety fails both parts.
        """
        q, r_given = self._split(x)
        r = self._distances(q, r_given)
        grad = np.zeros_like(q)
        for (i, j), rij in zip(self.pairs, r):
            f = self.masses[i] * self.masses[j] * (q[i] - q[j]) / rij ** 3
            grad[i] -= f
            grad[j] += f
        scale = max(1.0, float(np.max(np.abs(q))))
        res = float(np.max(np.abs(grad - q))) / scale
        mismatch = float(np.max(np.abs(r - r_given))) / scale
        return res, mismatch

    def min_distance(self, x) -> float:
        q, r_given = self._split(x)
        return float(np.min(np.abs(self._distances(q, r_given))))

    def potential(self, x) -> complex:
        _, r = self._split(x)
        return complex(sum(self.masses[i] * self.masses[j] / rij
                           for (i, j), rij in zip(self.pairs, r)))

    def constraint_residual(self, x) -> float:
        q, r = self._split(x)
        return max(abs(rij * rij - np.sum((q[i] - q[j]) ** 2))
                   for (i, j), rij in zip(self.pairs, r))

    def darboux_residual(self, x) -> float:
        return max(self.cc_residual(x))


NBODY_PROBLEMS = (
    NBodyProblem("nbody-3x2", (1, 1, 1)),
    NBodyProblem("nbody-3x2-m123", (1, 2, 3)),
    NBodyProblem("nbody-4x2", (1, 1, 1, 1)),
    NBodyProblem("nbody-5x2", (1, 1, 1, 1, 1)),
)


def lagrange_triangle(angle: float) -> np.ndarray:
    """Unit-mass equilateral central configuration, negative-sheet distances."""
    side = 3.0 ** (1.0 / 3.0)
    R = side / np.sqrt(3.0)
    q = np.array([[R * np.cos(angle + t), R * np.sin(angle + t)]
                  for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)])
    r = [-np.linalg.norm(q[i] - q[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return np.concatenate([q.ravel(), r]).astype(complex)


def euler_line(angle: float) -> np.ndarray:
    """Unit-mass collinear central configuration, negative-sheet distances."""
    x = (5.0 / 4.0) ** (1.0 / 3.0)
    u = np.array([np.cos(angle), np.sin(angle)])
    q = np.array([-x * u, 0 * u, x * u])
    r = [-np.linalg.norm(q[i] - q[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return np.concatenate([q.ravel(), r]).astype(complex)


def cone_point(angle: float) -> np.ndarray:
    """A Darboux point of the cone: |q| = w = 1/3."""
    return np.array([np.cos(angle) / 3, np.sin(angle) / 3, 1 / 3], dtype=complex)
