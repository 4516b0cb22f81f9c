"""The degree/eigenvalue admissibility table and obstruction certificates.

For a weighted-homogeneous potential of integer degree k and a Hessian
eigenvalue lambda at a Darboux point, meromorphic integrability forces the
pair (k, lambda) into a finite family of admissible shapes, the classical
admissibility table for hypergeometric normal variational equations.  The
exact check decides membership over the rationals with integer-root tests;
the numeric check solves each family for the integer parameter numerically,
rounds, and back-substitutes.  Only the exact route can certify an
obstruction; a numeric miss is reported but proves nothing.

Membership shapes, one row per allowed lambda-family:

  family A (any nonzero integer k):  lambda = p(pk + k - 2)/2
  family B (any nonzero integer k):  lambda = (pk + k - 1)(pk + 1)/(2k)
  k = 2 or k = -2:                   any lambda
  special rows for k in {-5,-4,-3,3,4,5}: lambda = A + B(C + Dp)^2

with p ranging over the integers.  The shipped k = -4 row uses B = -1/4 as
printed in the classical table (K4_COEFFICIENT); the mirrored k = +4 row
suggests -1/8, and the table object accepts an override for callers who want
the mirror value.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .spectrum import MAX_DENOMINATOR, RATIONAL_TOL, rationalize

F = Fraction
K4_COEFFICIENT = F(1, 4)  # B = -K4_COEFFICIENT in the k = -4 row


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class TableRow:
    row_id: str
    kind: str  # family_A | family_B | wildcard | special
    k: int | None = None  # None: applies to every nonzero integer degree
    A: Fraction = F(0)
    B: Fraction = F(0)
    C: Fraction = F(0)
    D: Fraction = F(0)

    def special_value(self, p: int) -> Fraction:
        return self.A + self.B * (self.C + self.D * p) ** 2


@dataclass(frozen=True)
class Witness:
    row_id: str
    p: int | None  # None for the any-lambda rows


@dataclass
class TableVerdict:
    k: int
    lam: object  # Fraction (exact mode) or complex (numeric mode)
    matched: bool
    mode: str  # "exact" | "numeric"
    witnesses: list = field(default_factory=list)
    obstruction: bool = False
    note: str = ""


def _family_a_value(k: int, p: int) -> Fraction:
    return F(p * (p * k + k - 2), 2)


def _family_b_value(k: int, p: int) -> Fraction:
    return F((p * k + k - 1) * (p * k + 1), 2 * k)


class AdmissibilityTable:
    """The admissibility table; rows are data, checks are methods."""

    def __init__(self, k4_coefficient: Fraction = K4_COEFFICIENT):
        self.k4_coefficient = F(k4_coefficient)
        rows = [
            TableRow("family A", "family_A"),
            TableRow("family B", "family_B"),
            TableRow("k=2 any", "wildcard", k=2),
            TableRow("k=-2 any", "wildcard", k=-2),
            TableRow("k=-5 #1", "special", k=-5, A=F(49, 40), B=F(-1, 40), C=F(10, 3), D=F(10)),
            TableRow("k=-5 #2", "special", k=-5, A=F(49, 40), B=F(-1, 40), C=F(4), D=F(10)),
            TableRow("k=-4 #1", "special", k=-4, A=F(9, 8), B=-self.k4_coefficient, C=F(4, 3), D=F(4)),
            TableRow("k=-3 #1", "special", k=-3, A=F(25, 24), B=F(-1, 24), C=F(2), D=F(6)),
            TableRow("k=-3 #2", "special", k=-3, A=F(25, 24), B=F(-1, 24), C=F(3, 2), D=F(6)),
            TableRow("k=-3 #3", "special", k=-3, A=F(25, 24), B=F(-1, 24), C=F(6, 5), D=F(6)),
            TableRow("k=-3 #4", "special", k=-3, A=F(25, 24), B=F(-1, 24), C=F(12, 5), D=F(6)),
            TableRow("k=3 #1", "special", k=3, A=F(-1, 24), B=F(1, 24), C=F(2), D=F(6)),
            TableRow("k=3 #2", "special", k=3, A=F(-1, 24), B=F(1, 24), C=F(3, 2), D=F(6)),
            TableRow("k=3 #3", "special", k=3, A=F(-1, 24), B=F(1, 24), C=F(6, 5), D=F(6)),
            TableRow("k=3 #4", "special", k=3, A=F(-1, 24), B=F(1, 24), C=F(12, 5), D=F(6)),
            TableRow("k=4 #1", "special", k=4, A=F(-1, 8), B=F(1, 8), C=F(4, 3), D=F(4)),
            TableRow("k=5 #1", "special", k=5, A=F(-9, 40), B=F(1, 40), C=F(10, 3), D=F(10)),
            TableRow("k=5 #2", "special", k=5, A=F(-9, 40), B=F(1, 40), C=F(4), D=F(10)),
        ]
        self.rows = tuple(rows)

    def special_rows_for(self, k: int):
        return [r for r in self.rows if r.kind == "special" and r.k == k]

    # -- exact route ----------------------------------------------------

    def check_pair_exact(self, k: int, lam) -> TableVerdict:
        if not isinstance(k, int) or k == 0:
            raise TableError("degree must be a nonzero integer")
        lam = F(lam)
        witnesses = []

        if k in (2, -2):
            witnesses.append(Witness(f"k={k} any", None))

        nu, de = lam.numerator, lam.denominator
        # family A: k p^2 + (k-2) p - 2 lam = 0
        for p in _integer_quadratic_roots(k * de, (k - 2) * de, -2 * nu):
            if _family_a_value(k, p) == lam:  # no false witnesses, ever
                witnesses.append(Witness("family A", p))
        # family B: k^2 p^2 + k^2 p + (k - 1 - 2 k lam) = 0
        for p in _integer_quadratic_roots(k * k * de, k * k * de, (k - 1) * de - 2 * k * nu):
            if _family_b_value(k, p) == lam:
                witnesses.append(Witness("family B", p))

        for row in self.special_rows_for(k):
            r = (lam - row.A) / row.B
            if r < 0:
                continue
            x = rational_sqrt(r)
            if x is None:
                continue
            for signed in (x, -x):
                p = (signed - row.C) / row.D
                if p.denominator == 1:
                    p = int(p)
                    if row.special_value(p) == lam:
                        witnesses.append(Witness(row.row_id, p))

        matched = bool(witnesses)
        return TableVerdict(k=k, lam=lam, matched=matched, mode="exact",
                            witnesses=witnesses, obstruction=not matched)

    # -- numeric route ----------------------------------------------------

    def check_pair_numeric(self, k: int, lam, tol: float = RATIONAL_TOL,
                           max_den: int = MAX_DENOMINATOR) -> TableVerdict:
        if not isinstance(k, int) or k == 0:
            raise TableError("degree must be a nonzero integer")
        z = complex(lam)
        r = rationalize(z, tol, max_den)
        if r is not None:
            v = self.check_pair_exact(k, r)
            v.note = f"lambda reconstructed as {r}"
            return v

        witnesses = []
        if k in (2, -2):
            witnesses.append(Witness(f"k={k} any", None))

        scale = max(1.0, abs(z))

        def try_p(builder, row_id, p_complex):
            for dp in (-1, 0, 1):
                p = round(p_complex.real) + dp
                if abs(complex(builder(p)) - z) <= tol * scale:
                    witnesses.append(Witness(row_id, p))
                    return

        disc = cmath.sqrt(complex(k - 2) ** 2 + 8 * k * z)
        for sgn in (1, -1):
            try_p(lambda p: _family_a_value(k, p), "family A",
                  (-(k - 2) + sgn * disc) / (2 * k))
            try_p(lambda p: _family_b_value(k, p), "family B",
                  (-k + sgn * disc) / (2 * k))
        for row in self.special_rows_for(k):
            x = cmath.sqrt((z - complex(row.A)) / complex(row.B))
            for sgn in (1, -1):
                try_p(row.special_value, row.row_id,
                      (sgn * x - complex(row.C)) / complex(row.D))

        # dedupe keeping first occurrences
        seen = set()
        uniq = []
        for w in witnesses:
            key = (w.row_id, w.p)
            if key not in seen:
                seen.add(key)
                uniq.append(w)
        matched = bool(uniq)
        note = "" if matched else "numeric mode: a miss is not a certificate"
        return TableVerdict(k=k, lam=z, matched=matched, mode="numeric",
                            witnesses=uniq, obstruction=False, note=note)


def _integer_quadratic_roots(a: int, b: int, c: int):
    """Integer roots of a x^2 + b x + c with integer coefficients, a != 0."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    roots = []
    for sgn in (1, -1):
        num = -b + sgn * r
        if num % (2 * a) == 0:
            roots.append(num // (2 * a))
    return sorted(set(roots))


def rational_sqrt(r: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if r < 0:
        return None
    pn, pd = isqrt(r.numerator), isqrt(r.denominator)
    if pn * pn != r.numerator or pd * pd != r.denominator:
        return None
    return F(pn, pd)


DEFAULT_TABLE = AdmissibilityTable()


def check_pair_exact(k: int, lam, table: AdmissibilityTable | None = None) -> TableVerdict:
    return (table or DEFAULT_TABLE).check_pair_exact(k, lam)


def check_pair_numeric(k: int, lam, tol: float = RATIONAL_TOL, max_den: int = MAX_DENOMINATOR,
                       table: AdmissibilityTable | None = None) -> TableVerdict:
    return (table or DEFAULT_TABLE).check_pair_numeric(k, lam, tol, max_den)


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
            if row["gauge"] or verdict is None:
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
