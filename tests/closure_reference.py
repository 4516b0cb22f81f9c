"""The per-expression closure evaluator that the generated kernels replaced,
kept as the reference they are held to bit for bit."""

from algpot.expr import ExprError, PoleError, _poly_str


def reference_compile(e, var_order):
    """Closure evaluating the RatExpr e at an indexable of values in
    var_order: terms summed in dict order onto 0j, the denominator first,
    PoleError with its printed form when it is zero."""
    idx = {n: i for i, n in enumerate(var_order)}
    missing = e.variables() - set(var_order)
    if missing:
        raise ExprError(f"unbound variables {sorted(missing)}")
    nterms = [(complex(c), tuple((idx[n], p) for n, p in m)) for m, c in e.num.items()]
    if e.is_polynomial:
        def f_poly(x):
            acc = 0j
            for c, mono in nterms:
                v = c
                for i, p in mono:
                    v *= x[i] ** p
                acc += v
            return acc
        return f_poly
    dterms = [(complex(c), tuple((idx[n], p) for n, p in m)) for m, c in e.den.items()]
    den_text = _poly_str(e.den)

    def f_rat(x):
        dv = 0j
        for c, mono in dterms:
            v = c
            for i, p in mono:
                v *= x[i] ** p
            dv += v
        if dv == 0:
            raise PoleError(den_text)
        nv = 0j
        for c, mono in nterms:
            v = c
            for i, p in mono:
                v *= x[i] ** p
            nv += v
        return nv / dv
    return f_rat
