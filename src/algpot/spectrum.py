"""Hessian spectra: clustering, diagonalizability, rational reconstruction.

Complex symmetric matrices need not be diagonalizable, and the admissibility
check downstream is only licensed for diagonalizable Hessians, so the verdict
here is explicit about its numeric margins: geometric multiplicities come
from singular values of H - lambda*I measured against RATIONAL_TOL*max(1, ||H||),
and any singular value within a factor 10 of that threshold (or any two
clusters separated by less than 10 times it) marks the whole answer as
uncertain.  The thresholds are module constants, not parameters, because
each one can change a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# rationalize's error budget (eigen also clusters and decides ranks with it,
# relative to max(1, |H|)), and the largest denominator it reconstructs
RATIONAL_TOL = 1e-8
MAX_DENOMINATOR = 10 ** 6


def rationalize(x):
    """Nearest fraction with denominator at most MAX_DENOMINATOR, or None.

    Continued-fraction reconstruction via Fraction.limit_denominator; the
    result must sit within RATIONAL_TOL of the input, and the imaginary
    part (if any) must be below RATIONAL_TOL as well.

    A plain error-below-tol check is vacuous for large denominator bounds:
    convergents of any real land within ~1/(q*MAX_DENOMINATOR) of it, so pi
    itself would "reconstruct" and could later be mistaken for an exact
    eigenvalue.  The error budget therefore shrinks with the denominator of
    the candidate: accept only when |x - p/q| <= RATIONAL_TOL / q.
    Genuine small-denominator spectra pass with room to spare while
    high-denominator accidents are thrown out.
    """
    z = complex(x)
    if abs(z.imag) > RATIONAL_TOL:
        return None
    if not math.isfinite(z.real):
        return None
    f = Fraction(z.real).limit_denominator(MAX_DENOMINATOR)
    if abs(float(f) - z.real) > RATIONAL_TOL / f.denominator:
        return None
    return f


@dataclass
class EigenCluster:
    value: complex
    multiplicity: int
    geometric_multiplicity: int
    diagonalizable: bool
    rational: Fraction | None
    gauge: str = ""  # "", "translation" or "rotation"


@dataclass
class Spectrum:
    clusters: list
    diagonalizable: bool
    uncertain: bool
    diag_margin: float  # min |log10(sigma/threshold)| over all rank decisions


def _cluster(values, gap):
    """Greedy union of eigenvalues closer than gap; deterministic order."""
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    groups = []
    for i in order:
        placed = False
        for g in groups:
            if any(abs(values[i] - values[j]) <= gap for j in g):
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return groups


def eigen(H) -> Spectrum:
    """Spectrum of a (generally complex symmetric) matrix with multiplicity."""
    H = np.asarray(H, dtype=complex)
    m = H.shape[0]
    if m == 0:
        return Spectrum(clusters=[], diagonalizable=True, uncertain=False,
                        diag_margin=math.inf)
    scale = max(1.0, float(np.linalg.norm(H, 2)))
    thresh = RATIONAL_TOL * scale
    vals = np.linalg.eigvals(H)
    groups = _cluster(list(vals), thresh)

    clusters = []
    margin = math.inf
    uncertain = False
    diag_all = True
    for g in groups:
        rep = complex(np.mean([vals[i] for i in g]))
        mult = len(g)
        if mult == 1:
            geo = 1
            diag = True
        else:
            sing = np.linalg.svd(H - rep * np.eye(m), compute_uv=False)
            geo = int(np.sum(sing <= thresh))
            for sv in sing:
                if sv <= 0:
                    continue
                r = abs(math.log10(sv / thresh))
                margin = min(margin, r)
                if r < 1.0:
                    uncertain = True
            if geo == 0:
                geo = 1
                uncertain = True
            geo = min(geo, mult)
            diag = geo == mult
        diag_all = diag_all and diag
        clusters.append(EigenCluster(
            value=rep, multiplicity=mult, geometric_multiplicity=geo,
            diagonalizable=diag, rational=rationalize(rep),
        ))

    # clusters separated by barely more than the clustering gap are suspect
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            d = abs(clusters[i].value - clusters[j].value)
            if d < 10 * RATIONAL_TOL * scale:
                uncertain = True

    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return Spectrum(clusters=clusters, diagonalizable=diag_all,
                    uncertain=uncertain, diag_margin=margin)
