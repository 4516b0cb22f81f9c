"""The per-expression closure evaluator that the generated kernels replaced,
kept as the reference they are held to bit for bit: Python complex
arithmetic on a list of Python complex, with the kernels' power rule."""

from algpot.expr import ExprError, PoleError, _poly_str


def power(x: complex, e: int) -> complex:
    """x ** e by the kernels' rule: x itself for e = 1, x * x for e = 2,
    x * (x * x) for e = 3, and for larger e a product from 1+0j of the
    repeated squares x, x^2, x^4, ... that e's bits select."""
    if e < 4:
        return (x, x * x, x * (x * x))[e - 1]
    product, square = 1 + 0j, x
    for k in range(e.bit_length()):
        if k:
            square = square * square
        if e >> k & 1:
            product = product * square
    return product


def reference_compile(e, var_order):
    """Closure evaluating the RatExpr e at an indexable of values in
    var_order, read as a list of Python complex: terms summed in dict order
    onto 0j, each its coefficient times each factor's power in monomial
    order, the denominator first, PoleError with its printed form when it
    is zero, then Python's quotient."""
    idx = {n: i for i, n in enumerate(var_order)}
    missing = e.variables() - set(var_order)
    if missing:
        raise ExprError(f"unbound variables {sorted(missing)}")

    def terms(p):
        return [(complex(c), tuple((idx[n], k) for n, k in m)) for m, c in p.items()]

    def total(terms, x):
        acc = 0j
        for c, mono in terms:
            v = c
            for i, k in mono:
                v *= power(x[i], k)
            acc += v
        return acc

    nterms = terms(e.num)
    if e.is_polynomial:
        return lambda x: total(nterms, [complex(v) for v in x])
    dterms, den_text = terms(e.den), _poly_str(e.den)

    def f_rat(x):
        x = [complex(v) for v in x]
        dv = total(dterms, x)
        if dv == 0:
            raise PoleError(den_text)
        return total(nterms, x) / dv
    return f_rat
