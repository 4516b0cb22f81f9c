"""Sparse polynomials with integer coefficients, kept apart from algpot.

The benchmark writes its generated problems from these objects and checks
algpot's answers with them, so a wrong evaluator inside algpot cannot also
hide its own mistake.  A polynomial is a dict mapping an exponent tuple (one
entry per variable, in a fixed order) to a nonzero integer coefficient.
"""

from __future__ import annotations

import numpy as np


def monomial_text(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_text(poly: dict, names) -> str:
    """Problem-file text of the polynomial, terms in a stable order."""
    out = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        mono = monomial_text(exps, names)
        mag = abs(c)
        if not mono:
            term = str(mag)
        elif mag == 1:
            term = mono
        else:
            term = f"{mag}*{mono}"
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out) if out else "0"


def diff(poly: dict, i: int) -> dict:
    out = {}
    for exps, c in poly.items():
        e = exps[i]
        if e:
            d = list(exps)
            d[i] = e - 1
            out[tuple(d)] = c * e
    return out


class Evaluator:
    """Vectorised evaluation of one polynomial at a complex point."""

    def __init__(self, poly: dict, nvars: int):
        if poly:
            self.exps = np.array(sorted(poly), dtype=np.int64).reshape(-1, nvars)
            self.coef = np.array([poly[tuple(e)] for e in self.exps], dtype=complex)
        else:
            self.exps = np.zeros((0, nvars), dtype=np.int64)
            self.coef = np.zeros(0, dtype=complex)

    def __call__(self, x) -> complex:
        if not self.coef.size:
            return 0j
        x = np.asarray(x, dtype=complex)
        return complex(self.coef @ np.prod(x[None, :] ** self.exps, axis=1))


class RationalFunction:
    """num/den with every first partial, for gradients on the variety."""

    def __init__(self, num: dict, den: dict, nvars: int):
        self.num = Evaluator(num, nvars)
        self.den = Evaluator(den, nvars)
        self.dnum = [Evaluator(diff(num, i), nvars) for i in range(nvars)]
        self.dden = [Evaluator(diff(den, i), nvars) for i in range(nvars)]

    def value(self, x) -> complex:
        return self.num(x) / self.den(x)

    def gradient(self, x) -> np.ndarray:
        nv, dv = self.num(x), self.den(x)
        return np.array([(a(x) * dv - nv * b(x)) / (dv * dv)
                         for a, b in zip(self.dnum, self.dden)], dtype=complex)
