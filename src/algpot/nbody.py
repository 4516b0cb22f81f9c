"""Generator for planar and spatial n-body problems as algebraic setups.

The gravitational potential sum(m_i m_j / r_ij) is algebraic over the
position coordinates once each mutual distance r_ij is adjoined with the
relation r_ij^2 = |q_i - q_j|^2.  Masses enter only through the potential;
the kinetic form is the identity, so every setup describes
H = |p|^2/2 + U(q).  With equal masses that is the n-body problem after a
rescaling of time; with unequal masses it is not, because the n-body
kinetic form weighs each body by its mass, and absorbing the masses into
the units of the coordinates would rescale the distance relations too.  Each
pairwise product m_i m_j is a coefficient of the potential and must have a
finite, non-zero double.  build writes the generators and the potential in
their normal forms directly, term by term, with no RatExpr arithmetic.

Real central configurations live on the branch where every r_ij evaluates
to minus the Euclidean distance: with the plus branch the potential's
critical points sit at complex positions instead.  Seed constructors below
therefore populate the distance variables on that negative sheet.

Gauge structure: the potential is translation and rotation invariant, so
the Hessian at any Darboux point carries d zero eigenvalues (translations)
and up to d(d-1)/2 eigenvalues equal to one (rotations, those not fixing
the configuration).  These must be split off before degree/eigenvalue
admissibility is judged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .expr import RatExpr, outside_double
from .parsing import AlgebraicSetup
from .spectrum import EigenCluster, Spectrum, eigen

F = Fraction
_ONE, _TWO, _MINUS_ONE = F(1), F(2), F(-1)


@dataclass(frozen=True)
class NBodyConfig:
    n: int
    dim: int
    masses: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two bodies")
        if len(self.masses) != self.n:
            raise ValueError("one mass per body")
        masses = tuple(F(m) for m in self.masses)
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        for i, j in self.pairs:
            why = outside_double(masses[i] * masses[j])
            if why:
                raise ValueError(f"the product of masses {i + 1} and {j + 1} is {why}")
        object.__setattr__(self, "masses", masses)

    @property
    def pairs(self):
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]

    def equal_masses(self) -> bool:
        return len(set(self.masses)) == 1


def q_name(i: int, a: int) -> str:
    return f"q{i + 1}_{a + 1}"


def r_name(i: int, j: int) -> str:
    return f"r{i + 1}_{j + 1}"


def build(cfg: NBodyConfig) -> AlgebraicSetup:
    """Emit the algebraic setup; refuses collinear worlds.

    With dim = 1 the squared-distance relations make every hyperplane
    q_i = q_j a component of the critical set that disconnects the
    configuration space, and no rotation gauge exists to compare against;
    the construction is specified for dim >= 2 only.

    Every form is written out in its normal form, with no RatExpr
    arithmetic.  The generator of pair (i, j) is

        r_ij^2 - sum_a (q_i,a^2 - 2 q_i,a q_j,a + q_j,a^2),

    its terms in that order, axis by axis.  The potential
    sum m_i m_j / r_ij stands over the common denominator prod_l r_l, with
    one numerator term m_i m_j prod_{l != ij} r_l per pair, in pair order.
    These are the normal forms, term order included, that summing and
    multiplying the RatExpr pieces would produce; the generated kernels sum
    the terms in this order, so it fixes every bit of every value.
    """
    if cfg.dim < 2:
        raise ValueError("n-body construction requires dim >= 2")
    q_names = [q_name(i, a) for i in range(cfg.n) for a in range(cfg.dim)]
    w_names = [r_name(i, j) for i, j in cfg.pairs]

    generators = []
    for (i, j), r in zip(cfg.pairs, w_names):
        num = {((r, 2),): _ONE}
        for a in range(cfg.dim):
            qi, qj = q_name(i, a), q_name(j, a)
            num[((qi, 2),)] = _MINUS_ONE
            # a monomial lists its variables by name: q10_1 comes before q2_1
            num[tuple(sorted(((qi, 1), (qj, 1))))] = _TWO
            num[((qj, 2),)] = _MINUS_ONE
        generators.append(RatExpr(num, {(): _ONE}))

    all_r = tuple(sorted((r, 1) for r in w_names))
    num = {tuple(f for f in all_r if f[0] != r): cfg.masses[i] * cfg.masses[j]
           for (i, j), r in zip(cfg.pairs, w_names)}
    potential = RatExpr(num, {all_r: _ONE})

    label = f"nbody n={cfg.n} dim={cfg.dim}"
    return AlgebraicSetup(q_names=tuple(q_names), w_names=tuple(w_names),
                          generators=tuple(generators), potential=potential,
                          label=label)


# ---------------------------------------------------------------------------
# central configuration seeds
# ---------------------------------------------------------------------------

def _with_distances(cfg: NBodyConfig, positions: np.ndarray) -> np.ndarray:
    """Pack positions (n x dim) with negative-sheet distance values."""
    q = positions.reshape(-1).astype(complex)
    r = np.array([-np.linalg.norm(positions[i] - positions[j])
                  for i, j in cfg.pairs], dtype=complex)
    return np.concatenate([q, r])


def central_config_seeds(cfg: NBodyConfig):
    """Known closed-form central configurations, as labeled seed vectors.

    Two bodies: the mutual-attraction equilibrium at separation
    2 (m1 m2 / 4)^(1/3).  Three equal masses: the equilateral triangle with
    side (3 m^2)^(1/3) and the collinear arrangement with outer offset
    (5 m^2 / 4)^(1/3).  Every seed has its center of coordinates (unweighted)
    at the origin, matching the constraint the Darboux equations impose.
    """
    seeds = []
    if cfg.n == 2:
        m1, m2 = cfg.masses
        a = float(m1 * m2 / 4) ** (1.0 / 3.0)
        pos = np.zeros((2, cfg.dim))
        pos[0, 0] = -a
        pos[1, 0] = a
        seeds.append(("two-body axis", _with_distances(cfg, pos)))
    if cfg.n == 3 and cfg.equal_masses():
        m = float(cfg.masses[0])
        side = (3.0 * m * m) ** (1.0 / 3.0)
        R = side / np.sqrt(3.0)
        pos = np.zeros((3, cfg.dim))
        for i, ang in enumerate((np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                                 np.pi / 2 + 4 * np.pi / 3)):
            pos[i, 0] = R * np.cos(ang)
            pos[i, 1] = R * np.sin(ang)
        seeds.append(("equilateral", _with_distances(cfg, pos)))
        x = (5.0 * m * m / 4.0) ** (1.0 / 3.0)
        pos = np.zeros((3, cfg.dim))
        pos[0, 0] = -x
        pos[2, 0] = x
        seeds.append(("collinear", _with_distances(cfg, pos)))
    return seeds


# ---------------------------------------------------------------------------
# gauge directions and the split spectrum
# ---------------------------------------------------------------------------

def translation_vectors(cfg: NBodyConfig) -> np.ndarray:
    """Unit translation directions, one per axis; shape (n*dim, dim)."""
    nq = cfg.n * cfg.dim
    T = np.zeros((nq, cfg.dim))
    for a in range(cfg.dim):
        for i in range(cfg.n):
            T[i * cfg.dim + a, a] = 1.0
    return T / np.sqrt(cfg.n)


def rotation_vectors(cfg: NBodyConfig, positions: np.ndarray) -> np.ndarray:
    """Infinitesimal rotations applied to the given configuration.

    positions: (n, dim) real (or the real part of a near-real point).
    Returns an (n*dim, k) matrix of the nonzero generator directions,
    unnormalized; columns for rotations that fix the configuration (zero
    vectors) are dropped.
    """
    cols = []
    for a in range(cfg.dim):
        for b in range(a + 1, cfg.dim):
            v = np.zeros(cfg.n * cfg.dim)
            for i in range(cfg.n):
                v[i * cfg.dim + a] = -positions[i, b]
                v[i * cfg.dim + b] = positions[i, a]
            if np.linalg.norm(v) > 1e-12:
                cols.append(v / np.linalg.norm(v))
    if not cols:
        return np.zeros((cfg.n * cfg.dim, 0))
    return np.stack(cols, axis=1)


def gauge_matrix(cfg: NBodyConfig, point: np.ndarray) -> tuple:
    """(translations, rotations) bases at the q-part of a full point."""
    nq = cfg.n * cfg.dim
    positions = np.asarray(point[:nq], dtype=complex).real.reshape(cfg.n, cfg.dim)
    return translation_vectors(cfg), rotation_vectors(cfg, positions)


@dataclass
class GaugeSplit:
    gauge_clusters: list  # EigenCluster entries labeled translation/rotation
    reduced: Spectrum  # spectrum on the gauge-orthogonal complement
    translation_residual: float
    rotation_residual: float


def split_gauge_spectrum(cfg: NBodyConfig, H: np.ndarray, point: np.ndarray) -> GaugeSplit:
    """Separate the symmetry eigenvalues from the physical ones.

    Translations are verified against eigenvalue 0 and rotations against
    eigenvalue 1; the remaining spectrum is computed on the orthogonal
    complement of the gauge space, where the (symmetric, real) Hessian
    restricts cleanly.
    """
    T, R = gauge_matrix(cfg, point)
    Hr = np.asarray(H, dtype=complex).real
    t_res = float(np.max(np.abs(Hr @ T))) if T.size else 0.0
    r_res = float(np.max(np.abs(Hr @ R - R))) if R.size else 0.0

    gauge_clusters = []
    if T.size:
        gauge_clusters.append(EigenCluster(
            value=0j, multiplicity=T.shape[1], geometric_multiplicity=T.shape[1],
            diagonalizable=True, rational=F(0), gauge="translation"))
    if R.size:
        gauge_clusters.append(EigenCluster(
            value=1 + 0j, multiplicity=R.shape[1], geometric_multiplicity=R.shape[1],
            diagonalizable=True, rational=F(1), gauge="rotation"))

    G = np.hstack([T, R]) if R.size else T
    C = scipy.linalg.null_space(G.T)
    reduced = eigen(C.T @ Hr @ C)
    return GaugeSplit(gauge_clusters=gauge_clusters, reduced=reduced,
                      translation_residual=t_res, rotation_residual=r_res)


def pinning_conditions(cfg: NBodyConfig, base_point: np.ndarray) -> np.ndarray:
    """Linear rows killing the translation and rotation degeneracies.

    Center pinning uses the unweighted coordinate sum per axis, which is the
    combination the Darboux equations themselves annihilate; rotations are
    fixed by requiring orthogonality to the rotation orbits through the seed.
    Returns A over the full variable vector (positions then distances); the
    conditions are A x = 0.
    """
    nq = cfg.n * cfg.dim
    N = nq + len(cfg.pairs)
    rows = []
    for a in range(cfg.dim):
        row = np.zeros(N)
        for i in range(cfg.n):
            row[i * cfg.dim + a] = 1.0
        rows.append(row)
    positions = np.asarray(base_point[:nq], dtype=complex).real.reshape(cfg.n, cfg.dim)
    R = rotation_vectors(cfg, positions)
    for kcol in range(R.shape[1]):
        row = np.zeros(N)
        row[:nq] = R[:, kcol]
        rows.append(row)
    return np.stack(rows, axis=0)
