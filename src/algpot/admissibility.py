"""Admissibility of a degree/eigenvalue pair, from Kimura's theorem, and
obstruction certificates.

For a weighted-homogeneous potential of integer degree k and a Hessian
eigenvalue lambda at a Darboux point, the normal variational equation along
the homothetic orbit reduces to the hypergeometric equation that
varode.build_ve builds.  Its exponent differences are 1/k at 0, 1/2 at 1 and

    Delta = sqrt((k - 2)^2 + 8 k lambda) / (2|k|)    at infinity.

Meromorphic integrability makes the identity component of the equation's
differential Galois group abelian (Morales-Ruiz & Ramis, Methods Appl. Anal.
8, 2001), so solvable, and Kimura's theorem (Funkcial. Ekvac. 12, 1969)
decides solvability from the triple (1/k, 1/2, Delta) up to signs and
integer shifts.  The pair is admissible when one of these holds, for an
integer p, the witness's shift:

  dihedral     k = 2 or -2 (then 1/k = +-1/2), any lambda;
  dihedral     +-Delta = 1/2 + p: lambda = (pk + k - 1)(pk + 1)/(2k);
  case (i)     +-Delta = 1/2 - 1/k + p, so that some +-1/k +- 1/2 +- Delta is
               an odd integer: lambda = p(pk + k - 2)/2;
  tetrahedral, octahedral, icosahedral
               +-Delta = r + p, where (1/2, 1/|k|, r) is a Schwarz-list
               triple, which needs |k| in {3, 4, 5}.

Every other Schwarz triple lacks 1/2, which the point 1 always supplies, and
with 1/2 in a triple the even-sum rule on its shifts is void.  Case (i) and
the rational dihedral case are families A and B of the classical table, k =
+-2 its any-lambda rows, and the Schwarz cases its special rows.  The exact
check decides membership over the rationals; the numeric check rounds each
candidate shift and back-substitutes.  Only the exact route can certify an
obstruction; a numeric miss is reported but proves nothing.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .spectrum import RATIONAL_TOL, rationalize

F = Fraction

# Kimura's case (ii) with a finite group: the Schwarz-list triples (1/2, a, b)
SCHWARZ = (
    ("tetrahedral", F(1, 3), F(1, 3)),
    ("octahedral", F(1, 3), F(1, 4)),
    ("icosahedral", F(1, 3), F(1, 5)),
    ("icosahedral", F(1, 5), F(2, 5)),
    ("icosahedral", F(1, 3), F(2, 5)),
)


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class Witness:
    case: str  # the Kimura case that admits the pair
    p: int | None  # +-Delta = residue + p; None when k = +-2 admits every lambda
    residue: Fraction | None = None


@dataclass
class TableVerdict:
    k: int
    lam: object  # Fraction (exact mode) or complex (numeric mode)
    matched: bool
    mode: str  # "exact" | "numeric"
    witnesses: list = field(default_factory=list)
    obstruction: bool = False
    note: str = ""


def rational_sqrt(r: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if r < 0:
        return None
    pn, pd = isqrt(r.numerator), isqrt(r.denominator)
    if pn * pn != r.numerator or pd * pd != r.denominator:
        return None
    return F(pn, pd)


def exponent_difference(k: int, lam):
    """Delta, the exponent difference at infinity of the VE of (k, lambda).

    An exact Fraction when lambda is rational and Delta^2 a rational square,
    a complex number otherwise (lambda complex, Delta irrational or imaginary).
    """
    if isinstance(lam, complex):
        return cmath.sqrt(((k - 2) ** 2 + 8 * k * lam) / (4 * k * k))
    square = ((k - 2) ** 2 + 8 * k * F(lam)) / (4 * k * k)
    root = rational_sqrt(square)
    return cmath.sqrt(complex(square)) if root is None else root


def _eigenvalue(k: int, delta: Fraction) -> Fraction:
    """The lambda whose exponent difference at infinity is +-delta."""
    return (4 * k * k * delta * delta - (k - 2) ** 2) / (8 * k)


def _cases(k: int):
    """(case, residue) for each way +-Delta = residue + p admits the pair."""
    cases = [("case (i)", F(1, 2) - F(1, k)), ("dihedral", F(1, 2))]
    a = F(1, abs(k))
    cases += [(name, c if a == b else b) for name, b, c in SCHWARZ if a in (b, c)]
    return cases


def check_degree(k) -> None:
    """Refuse a degree that the variational equation cannot take."""
    if not isinstance(k, int) or k == 0:
        raise TableError("degree must be a nonzero integer")


def check_pair_exact(k: int, lam) -> TableVerdict:
    """Decide (k, lambda) over the rationals; a miss is an obstruction."""
    check_degree(k)
    lam = F(lam)
    witnesses = [Witness("dihedral", None)] if k in (2, -2) else []
    delta = exponent_difference(k, lam)
    if isinstance(delta, Fraction):
        for case, residue in _cases(k):
            for p in sorted({delta - residue, -delta - residue}):
                if p.denominator == 1:
                    witnesses.append(Witness(case, int(p), residue))
    matched = bool(witnesses)
    return TableVerdict(k=k, lam=lam, matched=matched, mode="exact",
                        witnesses=witnesses, obstruction=not matched)


def check_pair_numeric(k: int, lam) -> TableVerdict:
    """Decide a float or complex eigenvalue: exactly when spectrum.rationalize
    reconstructs it as a rational, else by rounding each candidate shift and
    accepting the lambda it gives within RATIONAL_TOL * max(1, |lambda|)."""
    check_degree(k)
    z = complex(lam)
    r = rationalize(z)
    if r is not None:
        v = check_pair_exact(k, r)
        v.note = f"lambda reconstructed as {r}"
        return v

    witnesses = [Witness("dihedral", None)] if k in (2, -2) else []
    delta = exponent_difference(k, z)
    scale = max(1.0, abs(z))
    for case, residue in _cases(k):
        for sgn in (1, -1):
            guess = round((sgn * delta - complex(residue)).real)
            for p in (guess - 1, guess, guess + 1):
                if abs(complex(_eigenvalue(k, residue + p)) - z) <= RATIONAL_TOL * scale:
                    w = Witness(case, p, residue)
                    if w not in witnesses:
                        witnesses.append(w)
                    break
    matched = bool(witnesses)
    note = "" if matched else "numeric mode: a miss is not a certificate"
    return TableVerdict(k=k, lam=z, matched=matched, mode="numeric",
                        witnesses=witnesses, obstruction=False, note=note)


# ---------------------------------------------------------------------------
# certificate assembly
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    status: str  # obstruction | no_obstruction | hypotheses_unverified | not_applicable
    witnesses: list = field(default_factory=list)  # dicts: point index, eigenvalue, k
    reasons: list = field(default_factory=list)


def _complex(value) -> complex:
    """A report eigenvalue as a complex: as built, or JSON-decoded [re, im]."""
    return complex(*value) if isinstance(value, list) else complex(value)


def certify(k, points) -> Certificate:
    """Combine the report's per-point verdicts into one certificate.

    points: the report's `points` entries, as analyze builds them or as
    decoded from its JSON, so a reader can recompute the certificate from
    the report alone.  A point without a spectrum (no Hessian) or with a
    vanishing base projection carries no verdict.  A single exact-mode miss
    at a clean point certifies the obstruction; any unresolved hypothesis
    elsewhere only matters when nothing was certified.
    """
    if k is None:
        return Certificate(status="not_applicable",
                           reasons=["no admissible integer degree"])
    points = list(points)
    if not points:
        return Certificate(status="not_applicable",
                           reasons=["no Darboux points available"])

    witnesses = []
    reasons = []
    checked_any = False
    for point in points:
        idx = point["index"]
        spec = point["spectrum"]
        if point["degenerate"]:
            reasons.append(f"point #{idx}: degenerate (vanishing base projection), no verdict")
            continue
        if spec is None:
            reasons.append(f"point #{idx}: no Hessian at the point, no verdict")
            continue
        clean = spec["diagonalizable"] and not spec["uncertain"]
        if not spec["diagonalizable"]:
            reasons.append(f"point #{idx}: Hessian not diagonalizable; admissibility test not licensed")
        elif spec["uncertain"]:
            reasons.append(f"point #{idx}: diagonalizability decision within numeric margin")
        for row in point["verdicts"]:
            verdict = row["table"]
            if verdict is None:
                continue
            checked_any = True
            lam = _complex(row["eigenvalue"])
            if verdict["mode"] != "exact":
                if not verdict["matched"]:
                    reasons.append(
                        f"point #{idx}: eigenvalue {lam} not rationally reconstructed; numeric miss is not a certificate")
                continue
            if not verdict["matched"] and clean:
                witnesses.append({
                    "point": idx,
                    "eigenvalue": verdict["lambda"],
                    "multiplicity": row["multiplicity"],
                    "k": k,
                })
            elif not verdict["matched"]:
                reasons.append(
                    f"point #{idx}: eigenvalue {lam} inadmissible but point hypotheses unverified")

    if witnesses:
        return Certificate(status="obstruction", witnesses=witnesses, reasons=reasons)
    if not checked_any:
        reasons.append("no eigenvalue was eligible for an admissibility check")
        return Certificate(status="not_applicable", reasons=reasons)
    if reasons:
        return Certificate(status="hypotheses_unverified", reasons=reasons)
    return Certificate(status="no_obstruction", reasons=[])
