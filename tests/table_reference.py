"""The classical admissibility table that the derivation from Kimura's
theorem replaced in algpot.admissibility, kept as the reference its
decision is held to.

For a nonzero integer degree k the table admits lambda when, for an
integer p, lambda is on family A, p(pk + k - 2)/2, or family B,
(pk + k - 1)(pk + 1)/(2k); every lambda when k = 2 or -2; and lambda =
A + B(C + Dp)^2 on one of the special rows below.  The degree -4 row
takes B = -1/8, the mirror of the degree 4 row.  With the -1/4 that the
row once carried, the exponent difference at infinity is irrational, and
its value 49/72 has an infinite monodromy group.
"""

from fractions import Fraction

F = Fraction

# degree k -> (A, B, C, D) of each special row, in the printed order
SPECIAL_ROWS = {
    -5: ((F(49, 40), F(-1, 40), F(10, 3), F(10)), (F(49, 40), F(-1, 40), F(4), F(10))),
    -4: ((F(9, 8), F(-1, 8), F(4, 3), F(4)),),
    -3: ((F(25, 24), F(-1, 24), F(2), F(6)), (F(25, 24), F(-1, 24), F(3, 2), F(6)),
         (F(25, 24), F(-1, 24), F(6, 5), F(6)), (F(25, 24), F(-1, 24), F(12, 5), F(6))),
    3: ((F(-1, 24), F(1, 24), F(2), F(6)), (F(-1, 24), F(1, 24), F(3, 2), F(6)),
        (F(-1, 24), F(1, 24), F(6, 5), F(6)), (F(-1, 24), F(1, 24), F(12, 5), F(6))),
    4: ((F(-1, 8), F(1, 8), F(4, 3), F(4)),),
    5: ((F(-9, 40), F(1, 40), F(10, 3), F(10)), (F(-9, 40), F(1, 40), F(4), F(10))),
}


def family_a(k: int, p: int) -> Fraction:
    return F(p * (p * k + k - 2), 2)


def family_b(k: int, p: int) -> Fraction:
    return F((p * k + k - 1) * (p * k + 1), 2 * k)


def row_values(k: int, p: int) -> list:
    """The value of every row of degree k at the integer p."""
    values = [family_a(k, p), family_b(k, p)]
    values += [A + B * (C + D * p) ** 2 for A, B, C, D in SPECIAL_ROWS.get(k, ())]
    return values


def admissible_values(k: int, p_range: int):
    """Every eigenvalue the table admits for degree k with |p| <= p_range,
    or None at k = 2 and -2, where it admits every eigenvalue."""
    if k in (2, -2):
        return None
    return {v for p in range(-p_range, p_range + 1) for v in row_values(k, p)}
