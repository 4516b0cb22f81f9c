"""Exact rational-function expressions in named variables.

Every expression is held in a quotient normal form num/den: both sides are
multivariate polynomials with Fraction coefficients, stored as
{monomial: coefficient} dicts.  Normalization flattens sums and products,
collects identical monomials, cancels common *monomial* factors between
numerator and denominator, folds constant denominators and scales the
denominator so its leading coefficient is 1.  No polynomial GCD beyond the
monomial cancellation is attempted, so quotients are not reduced to lowest
terms in general; structural equality compares the normal forms.

Numeric evaluation has one implementation, compile_arrays: it generates and
execs one straight-line function for a list of scalar and array outputs,
doing for each value the complex arithmetic its normal form spells out,
in a fixed order, so that every value is reproducible bit for bit.  A
scalar output can also be a Substitution, one step of triangular
substitution over earlier outputs, so a linear solve with a triangular
matrix unrolls into the same function, or a RowTest, an earlier output
tested against a bound after only the values it reads are computed
(rows_below is the one definition of that test).  A function with row
tests scans the Darboux line search's halvings itself, and the same code
generation also emits, per row, a test of that row alone.
RatExpr.compile is its one-output case.
"""

from __future__ import annotations

from cmath import isfinite
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

# A monomial is a tuple of (variable name, exponent) pairs, sorted by name,
# exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple
Poly = dict

_ONE_MONO: Monomial = ()


class ExprError(ValueError):
    """Malformed expression operation (bad exponent, unbound variable, ...)."""


class ZeroDenominatorError(ExprError):
    """Raised when a construction would produce a literal zero denominator."""


class PoleError(ArithmeticError):
    """Evaluation hit a numerically zero denominator.

    Carries the printed form of the vanishing denominator so reports can say
    which subexpression blew up.
    """

    def __init__(self, denominator_text: str):
        super().__init__(f"evaluation at a pole: denominator ({denominator_text}) is zero")
        self.denominator_text = denominator_text


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_sort_key(m: Monomial):
    # graded order: total degree first, then the name/exponent tuple itself.
    return (_mono_degree(m), m)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


def _mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b entrywise, or None when b does not divide a."""
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        have = d.get(name, 0) - e
        if have < 0:
            return None
        if have:
            d[name] = have
        else:
            d.pop(name, None)
    return tuple(sorted(d.items()))


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ppow(a: Poly, e: int) -> Poly:
    """a^e for e >= 1: a single term's exponents scale and its coefficient
    is raised at once (the zero polynomial stays zero); a longer polynomial
    is multiplied out e times."""
    if len(a) <= 1:
        return {tuple((n, k * e) for n, k in m): Fraction(c) ** e for m, c in a.items()}
    out = dict(_PONE)
    for _ in range(e):
        out = _pmul(out, a)
    return out


def _pscale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: k * c for m, k in a.items()}


def _pconst(c) -> Poly:
    c = Fraction(c)
    return {_ONE_MONO: c} if c else {}


_PONE = _pconst(1)


def _leading(a: Poly) -> Monomial:
    return max(a, key=_mono_sort_key)


def _pdiff(a: Poly, var: str) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        d = dict(m)
        e = d.get(var, 0)
        if not e:
            continue
        if e == 1:
            d.pop(var)
        else:
            d[var] = e - 1
        mm = tuple(sorted(d.items()))
        s = out.get(mm, 0) + c * e
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def _pdiv_exact(f: Poly, g: Poly) -> Poly | None:
    """Quotient f/g when g divides f exactly, else None.

    Plain multivariate long division against a single divisor; succeeds only
    when the remainder is zero (which is all the normal form ever needs: the
    denominators met in practice are powers of one detJ-like polynomial).
    """
    if not g:
        return None
    if not f:
        return {}
    lg = _leading(g)
    cg = g[lg]
    rem = dict(f)
    quo: Poly = {}
    while rem:
        lm = _leading(rem)
        t = _mono_div(lm, lg)
        if t is None:
            return None
        c = rem[lm] / cg
        quo[t] = quo.get(t, 0) + c
        for m, k in g.items():
            mm = _mono_mul(m, t)
            s = rem.get(mm, 0) - k * c
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return quo


def _common_monomial(polys: Iterable[Poly]) -> Monomial:
    """Entrywise-min monomial dividing every monomial of every poly."""
    acc: dict | None = None
    for p in polys:
        for m in p:
            d = dict(m)
            if acc is None:
                acc = d
            else:
                for name in list(acc):
                    e = d.get(name, 0)
                    if e < acc[name]:
                        if e:
                            acc[name] = e
                        else:
                            del acc[name]
            if not acc:
                return _ONE_MONO
    return tuple(sorted(acc.items())) if acc else _ONE_MONO


def _poly_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=_mono_sort_key, reverse=True):
        c = p[m]
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
        neg = c < 0
        a = -c if neg else c
        if not m:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def outside_double(c: Fraction) -> str | None:
    """Why the non-zero coefficient c cannot be evaluated, or None when it
    can.  compile_arrays evaluates every coefficient as its double: c too
    large has none (float raises OverflowError), and c too small rounds to
    0, which would silently drop its term."""
    try:
        if float(c) != 0.0:
            return None
    except OverflowError:
        return "too large for a double"
    return "too small for a double"


def _as_complex(c: Fraction) -> complex:
    """The coefficient c as a complex double; ExprError, with outside_double's
    reason, for a non-zero c that has none.  A coefficient that parsing
    accepted can still leave double range in a derived partial."""
    why = c and outside_double(c)
    if why:
        raise ExprError(f"a coefficient is {why}")
    return complex(c)


class RatExpr:
    """Immutable rational expression in normal form."""

    __slots__ = ("num", "den", "_key")

    def __init__(self, num: Poly, den: Poly):
        # normalize in place; callers may hand in any poly pair
        if not den:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        if not num:
            den = dict(_PONE)
        else:
            g = _common_monomial((num, den))
            if g:
                num = {_mono_div(m, g): c for m, c in num.items()}
                den = {_mono_div(m, g): c for m, c in den.items()}
        if len(den) == 1 and _ONE_MONO in den:
            c = den[_ONE_MONO]
            if c != 1:
                num = _pscale(num, Fraction(1) / c)
                den = dict(_PONE)
        else:
            lc = den[_leading(den)]
            if lc != 1:
                inv = Fraction(1) / lc
                num = _pscale(num, inv)
                den = _pscale(den, inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(
            self,
            "_key",
            (tuple(sorted(num.items())), tuple(sorted(den.items()))),
        )

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RatExpr is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "RatExpr":
        return RatExpr(_pconst(Fraction(c)), dict(_PONE))

    @staticmethod
    def var(name: str) -> "RatExpr":
        return RatExpr({((name, 1),): Fraction(1)}, dict(_PONE))

    # -- structure ----------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.den == _PONE

    @property
    def is_zero(self) -> bool:
        return not self.num

    def constant_value(self) -> Fraction | None:
        """The Fraction value when the expression is a constant, else None."""
        if not self.num:
            return Fraction(0)
        if self.is_polynomial and len(self.num) == 1 and _ONE_MONO in self.num:
            return self.num[_ONE_MONO]
        return None

    def variables(self) -> set:
        out = set()
        for p in (self.num, self.den):
            for m in p:
                for name, _ in m:
                    out.add(name)
        return out

    def num_terms(self) -> list:
        return sorted(self.num.items())

    def den_terms(self) -> list:
        return sorted(self.den.items())

    # -- algebra ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return RatExpr.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.den == o.den:
            return RatExpr(_padd(self.num, o.num), dict(self.den))
        # shared-factor shortcut keeps detJ-power denominators from ballooning
        q = _pdiv_exact(o.den, self.den)
        if q is not None:
            return RatExpr(_padd(_pmul(self.num, q), o.num), dict(o.den))
        q = _pdiv_exact(self.den, o.den)
        if q is not None:
            return RatExpr(_padd(self.num, _pmul(o.num, q)), dict(self.den))
        return RatExpr(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatExpr(_pneg(self.num), dict(self.den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatExpr(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            raise ZeroDenominatorError("division by the zero expression")
        return RatExpr(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ExprError("exponent must be an integer literal")
        if e == 0:
            return RatExpr.const(1)
        base = self
        if e < 0:
            if not self.num:
                raise ZeroDenominatorError("zero raised to a negative power")
            base = RatExpr(dict(self.den), dict(self.num))
            e = -e
        return RatExpr(_ppow(base.num, e), _ppow(base.den, e))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatExpr.const(other)
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "RatExpr":
        """Plain partial derivative with respect to the named variable; the
        zero expression, at once, when the variable does not occur."""
        if var not in self.variables():
            return ZERO
        dn = _pdiff(self.num, var)
        if self.is_polynomial:
            return RatExpr(dn, dict(_PONE))
        dd = _pdiff(self.den, var)
        n = _padd(_pmul(dn, self.den), _pneg(_pmul(self.num, dd)))
        return RatExpr(n, _pmul(self.den, self.den))

    # -- evaluation ---------------------------------------------------

    def compile(self, var_order: Sequence[str]) -> Callable:
        """Evaluator bound to a fixed variable ordering: the one-output case
        of compile_arrays.

        Returns a callable taking an indexable of complex values (same order
        as var_order) and returning a complex number.  Raises PoleError on a
        zero denominator.
        """
        return compile_arrays([self], var_order)

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_polynomial:
            return _poly_str(self.num)
        ns = _poly_str(self.num)
        if len(self.num) > 1:
            ns = f"({ns})"
        return f"{ns}/({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RatExpr({self})"


ONE = RatExpr.const(1)
ZERO = RatExpr.const(0)


class Array(NamedTuple):
    """An array output of compile_arrays: its shape and its (expression,
    indices) entries in evaluation order.  An entry's value is written at
    every index listed with it; every other element is 0j."""

    shape: tuple
    entries: Sequence


class Substitution(NamedTuple):
    """A scalar output of compile_arrays computed from earlier scalar
    outputs, each named by its index in the target list: value minus the
    products a * b, subtracted left to right, all over divisor, or not
    divided when divisor is None.  One step of triangular substitution."""

    value: int
    products: tuple = ()
    divisor: int | None = None

    def operands(self) -> list:
        return [self.value, *(i for pair in self.products for i in pair)] + (
            [] if self.divisor is None else [self.divisor])

    def shifted(self, by: int) -> "Substitution":
        """The same step on outputs `by` places later in the target list."""
        return Substitution(self.value + by, tuple((a + by, b + by) for a, b in self.products),
                            None if self.divisor is None else self.divisor + by)


class RowTest(NamedTuple):
    """A scalar output of compile_arrays that is tested as it is computed:
    the earlier scalar output `value` (named by its index in the target
    list), minus the input variable `minus` (its index in var_order, by
    Python's -) when one is given.  A kernel with row tests is a scan of
    the Darboux line search's halvings, each point x + SCALES[k] * step
    from a given k on, called as on_list(x, step, k, res): at each it
    decides its rows in the order of the outputs they read, computing
    before each only what it reads (compile_arrays), and goes on to the
    next halving where a row whose absolute is not below res (rows_below)
    has no test of its own, or where the kernel cannot compute its values.
    It returns (k, j) where a row j, counting the RowTests in target
    order, that has a test fails, and (k, values) where every row passes.
    kernel.row_tests holds, by the same index, the test of each row alone,
    or None (compile_arrays): it scans the same halvings and returns the
    first k at which its row passes, or HALVINGS."""

    value: int
    minus: int | None = None


# the Darboux line search tries x + SCALES[k] * step for k < HALVINGS, which
# a kernel with row tests and each row test scan; each scale is 2^-k as a
# complex, as NumPy casts a float scale to multiply a complex array, so that
# Python's product of two complex is the same formula on every version
# (Python 3.14 multiplies a float and a complex component by component)
HALVINGS = 30
SCALES = tuple(complex(2.0 ** -k) for k in range(HALVINGS))


class _Stay:
    """A step component that keeps its coordinate, with no arithmetic:
    scale * STAY is STAY and x + STAY is x itself.  A scan whose steps are
    all STAY reads the point's own coordinates bit for bit, where a zero
    step would not: -0.0 + 0.0 is 0.0, and no complex product gives a
    zero with both parts -0.0."""

    __slots__ = ()

    def __rmul__(self, scale):
        return self

    def __radd__(self, coordinate):
        return coordinate


STAY = _Stay()


def rows_below(rows, res: float) -> bool:
    """Whether abs(v) < res for every v in rows, Python complex values,
    stopping at the first row that fails: the one row decision of the
    Darboux search, which a RowTest makes inside its kernel and the search
    makes on its pin rows and its divergence test.  A nan fails, and so
    does a row whose Python abs overflows (OverflowError)."""
    try:
        return all(abs(v) < res for v in rows)
    except OverflowError:
        return False


def compile_arrays(targets: Sequence, var_order: Sequence[str], finite: Sequence = ()) -> Callable:
    """The package's one evaluator: a straight-line function computing every
    target at a point.

    A target is a RatExpr, whose value is returned as a complex scalar, a
    Substitution or a RowTest, likewise, or an Array, returned as a fresh
    complex ndarray.  The function takes an indexable of values in
    var_order and returns the targets' values as a tuple (an empty one for no targets),
    or the value itself when there is a single target.  The same function
    on a list of Python complex that it reads as given, with no conversion,
    is kept on it as `on_list`: a caller that holds x.tolist() already
    evaluates there.  Without row tests, targets and entries are evaluated
    in the order given, and the first vanishing denominator that the
    kernel reaches raises PoleError with its printed form; a kernel with
    row tests is a scan of the line search's halvings, in demand order
    (see RowTest below), on lists only: it is its own on_list.  A non-zero
    coefficient outside double range raises ExprError at compile time.

    A kernel without row tests reads its input as complex and passes it to
    on_list as a list of Python complex; a kernel computes in Python complex
    arithmetic from then on, every operand complex, the coefficients
    included.  Each value comes from the same operations in the same order
    whatever the target: the normal form's terms, in dict order, summed
    left to right onto 0j, each term its complex coefficient times
    x[i] ** e for each factor in monomial order.  A factor of exponent 1 is
    the load x[i] itself, and a power e >= 2 is the binary method: x * x
    for e = 2, x * (x * x) for e = 3, and for larger e a product from 1+0j
    of the repeated squares x, x^2, x^4, ... that e's bits select.  A
    quotient computes its denominator d first, summed onto 0j, tests it
    for a pole (d == 0) and is then Python's n / d, n the numerator's sum,
    or its coefficient for a constant numerator.  A complex sum, product or
    quotient neither raises nor warns: an overflow gives an infinity, and
    an infinity or a nan in an operand gives an infinity or a nan.  Loads,
    powers and equal denominators are computed once and shared, which
    changes no value.  A constant entry is written into its array's
    template at compile time.

    A Substitution's division raises ZeroDivisionError on a zero divisor,
    outside a scan.
    A Substitution that reads an Array or a later target raises ExprError
    at compile time.

    A RowTest's value is the output it names, minus its input variable by
    Python's subtraction when it has one.  A kernel with row tests is a
    scan of the Darboux line search's halvings: it is called as
    on_list(x, step, k, res), x a point and step a step, lists of Python
    complex, and tries the halvings k, k + 1, ... below HALVINGS in turn,
    at each reading each coordinate that it computes with as
    x[i] + SCALES[k] * step[i], by Python's complex arithmetic, at first
    use: the coordinate of NumPy's
    x + SCALES[k] * step, bit for bit but for the sign of a zero where the
    product underflows (NumPy's may be fused), which changes no absolute.
    A step of STAY, the one halving k = HALVINGS - 1, reads x itself.  The
    scan is emitted in demand order: its tests run in the order of the
    outputs they read, and before each test it computes only the outputs
    that it reads and that are not yet computed, followed through the
    operands of each Substitution; then the outputs named in `finite`, and
    after them the outputs that no test reads.  Loads, powers and
    denominators are still emitted at first use.  Every value comes from
    the same operations on the same inputs as in target order, so it
    keeps its bits.  A row passes exactly where abs(v) < res, rows_below's
    decision: a nan fails.  The scan goes on to the next halving, without
    returning, where a row that has no test of its own (below) fails,
    where it meets a zero denominator or a zero Substitution divisor,
    where an abs overflows (OverflowError, which nothing else in the
    kernel raises), also a row's with a test, and where an output in
    `finite` is not finite (cmath.isfinite), checked after every row has
    passed.  It returns (k, j) at the first halving where a row j that has
    a test fails, counting the RowTests in target order; (k, values) at
    the first halving where every row passes and every output in `finite`
    is finite, the targets' values as a tuple in target order; and
    (HALVINGS, None) where no halving is left.  So a halving is skipped
    only where a row fails or the kernel cannot return its values, and
    nothing raises.  A RowTest that reads anything but an earlier RatExpr
    or Substitution, or subtracts a variable out of range, and a `finite`
    entry that names anything but a RatExpr or a Substitution, or given
    to a kernel without row tests, raise ExprError at compile time.

    The same code generation emits the row tests, kernel.row_tests, one
    entry per RowTest by the index the scan returns, each exec'd on its
    own, so that the compiler never holds the syntax of the whole source:
    row_test(xs, steps, k, res), on a point xs and a step, lists as
    on_list reads them, scans the same halvings and returns the first at
    which the row passes, by the scan's decision, or HALVINGS where none
    does.  At each it computes only the outputs that row reads, by the
    scan's operations in the scan's order, from the same coordinates.
    Its arithmetic raises and warns about nothing, so a test can run
    where the scan would have stopped at an earlier row.  A zero
    denominator, a zero Substitution divisor and an overflowing abs,
    which the scan would meet there too, fail that halving.  So a test
    skips a halving only where the scan skips it or returns at a row.
    A row has a test only where the test has at most half the lines that
    the kernel computes up to that row's decision, so that a test that
    passes costs little next to the kernel call that follows; the first
    row the kernel decides never has one (None).  A kernel without row
    tests keeps an empty row_tests.
    The generated source, every function, names variables by index only and
    is kept on the kernel as `source`, the row tests last.
    """
    idx = {name: i for i, name in enumerate(var_order)}
    exprs = [t for t in targets if isinstance(t, RatExpr)]
    exprs += [e for t in targets if isinstance(t, Array) for e, _ in t.entries]
    missing = set().union(*(e.variables() for e in exprs)) - set(idx)
    if missing:
        raise ExprError(f"unbound variables {sorted(missing)}")
    tests = {}  # the index of a scalar output -> the RowTests that read it
    for k, t in enumerate(targets):
        operands = t.operands() if isinstance(t, Substitution) else (
            [t.value] if isinstance(t, RowTest) else [])
        for i in operands:
            if not (0 <= i < k and isinstance(targets[i], (RatExpr, Substitution))):
                raise ExprError(f"target {k} reads {i}, not an earlier scalar")
        if isinstance(t, RowTest):
            if t.minus is not None and not 0 <= t.minus < len(var_order):
                raise ExprError(f"row test {k} subtracts variable {t.minus}, out of range")
            tests.setdefault(t.value, []).append(k)
    if finite and not tests:
        raise ExprError("a finite check needs row tests")
    for i in finite:
        if not (0 <= i < len(targets) and isinstance(targets[i], (RatExpr, Substitution))):
            raise ExprError(f"the finite check reads {i}, not a scalar")

    namespace = {"PoleError": PoleError, "asarray": np.asarray, "scales": SCALES,
                 "isfinite": isfinite}
    coefficients = {}

    def coefficient(c):
        key = c.numerator, c.denominator  # hashed far faster than the Fraction
        if key not in coefficients:
            coefficients[key] = f"c{len(coefficients)}"
            namespace[coefficients[key]] = _as_complex(c)
        return coefficients[key]

    def emitter(lines, scan=False):
        """place(k), which emits into lines the lines of output k after those
        of every output it reads, each output, load, power and denominator
        once, at first use; a RowTest's line is its subtraction, if any.
        In a scan, as in a row test, a variable's load is its coordinate at
        the halving k, x[i] + h * step[i] with h = SCALES[k], and a zero
        denominator goes on to the next halving."""
        loaded, powers, squares, denominators, placed = set(), {}, {}, {}, set()

        def power(i, e):
            if e == 1:
                if i not in loaded:
                    loaded.add(i)
                    if scan:
                        lines.append(f"x{i} = x[{i}] + h * step[{i}]")
                    else:
                        lines.append(f"x{i} = x[{i}]")
                return f"x{i}"
            if (i, e) not in powers:
                if e == 2:
                    value = f"{power(i, 1)} * {power(i, 1)}"
                elif e == 3:
                    value = f"{power(i, 1)} * {power(i, 2)}"
                else:
                    value = " * ".join(["(1+0j)"] + [square(i, k) for k in range(e.bit_length())
                                                     if e >> k & 1])
                powers[i, e] = f"x{i}_{e}"
                lines.append(f"x{i}_{e} = {value}")
            return powers[i, e]

        def square(i, k):
            """The name of x[i] squared k times over, as the binary method
            squares; x[i] ** 2 is its first square."""
            if k < 2:
                return power(i, 1 + k)
            if (i, k) not in squares:
                squares[i, k] = f"x{i}_s{k}"
                lines.append(f"x{i}_s{k} = {square(i, k - 1)} * {square(i, k - 1)}")
            return squares[i, k]

        def poly(p, start="0j"):
            terms = [" * ".join([coefficient(c)] + [power(idx[name], e) for name, e in m])
                     for m, c in p.items()]
            return " + ".join([start] + terms)

        def value(e):
            if e.is_polynomial:
                return poly(e.num)
            key = tuple(e.den.items())  # equal terms in equal order sum to equal bits
            if key not in denominators:
                d = denominators[key] = f"d{len(denominators)}"
                lines.append(f"{d} = {poly(e.den)}")
                if scan:
                    lines.append(f"if {d} == 0: continue")
                else:
                    namespace[f"{d}_text"] = _poly_str(e.den)
                    lines.append(f"if {d} == 0: raise PoleError({d}_text)")
            n = coefficient(e.num[()]) if set(e.num) == {()} else f"({poly(e.num)})"
            return f"{n} / {denominators[key]}"

        def place(k):
            if k in placed:
                return
            placed.add(k)
            t = targets[k]
            if isinstance(t, RowTest):
                place(t.value)
                if t.minus is not None:
                    lines.append(f"v{k} = v{t.value} - {power(t.minus, 1)}")
                return
            if isinstance(t, Substitution):
                for i in t.operands():
                    place(i)
                step = " - ".join([f"v{t.value}"] + [f"v{a} * v{b}" for a, b in t.products])
                if t.divisor is not None:
                    step = f"({step}) / v{t.divisor}"
                lines.append(f"v{k} = {step}")
                return
            if isinstance(t, RatExpr):
                lines.append(f"v{k} = {value(t)}")
                return
            template = np.zeros(t.shape, dtype=complex)
            namespace[f"t{k}"] = template
            lines.append(f"a{k} = t{k}.copy()")
            for e, places in t.entries:
                c = e.constant_value()
                if c is not None:
                    for p in places:
                        template[p] = 0j + _as_complex(c)
                    continue
                slots = " = ".join(f"a{k}[{', '.join(map(str, p))}]" for p in places)
                lines.append(f"{slots} = {value(e)}")

        return place

    def row(k):
        """The name of RowTest k's value."""
        return f"v{targets[k].value}" if targets[k].minus is None else f"v{k}"

    def row_test(k, j, limit):
        """The source of RowTest k's own test, row_test{j}, or "" where its
        row would take more than half of limit lines."""
        body = []
        emitter(body, True)(k)
        if 2 * len(body) > limit:
            return ""
        lines = [f"for k in range(k, {HALVINGS}):", "    h = scales[k]", "    try:"]
        lines += [f"        {line}" for line in body + [f"if abs({row(k)}) < res: return k"]]
        lines += ["    except (OverflowError, ZeroDivisionError):", "        pass",
                  f"return {HALVINGS}"]
        return f"def row_test{j}(x, step, k, res):\n" + "".join(f"    {line}\n" for line in lines)

    lines, functions = [], []
    place = emitter(lines, bool(tests))
    outputs = [row(k) if isinstance(t, RowTest) else f"a{k}" if isinstance(t, Array)
               else f"v{k}" for k, t in enumerate(targets)]
    rows = {k: j for j, k in enumerate(k for k, t in enumerate(targets) if isinstance(t, RowTest))}
    decided = 0  # the lines of the decisions before the next
    # each test runs after only the outputs it reads, in the order of the
    # outputs it reads; what no test reads comes after the last
    for i in sorted(tests):
        for k in tests[i]:
            place(k)
            functions.append(row_test(k, rows[k], len(lines) - decided))
            # a row that has its own test returns to the caller where it fails
            failed = f"return k, {rows[k]}" if functions[-1] else "continue"
            lines.append(f"if not abs({row(k)}) < res: {failed}")
            decided += 1
    for i in finite:
        place(i)
    if finite:
        checked = "".join(f"v{i}, " for i in finite)
        lines.append(f"if not all(map(isfinite, ({checked}))): continue")
    for k in range(len(targets)):
        place(k)
    result = outputs[0] if len(outputs) == 1 else "(" + "".join(f"{o}, " for o in outputs) + ")"
    if tests:
        source = (f"def on_list(x, step, k, res):\n"
                  f"    for k in range(k, {HALVINGS}):\n        h = scales[k]\n        try:\n"
                  + "".join(f"            {line}\n" for line in lines)
                  + f"            return k, {result}\n"
                  + "        except (OverflowError, ZeroDivisionError):\n            pass\n"
                  + f"    return {HALVINGS}, None\n")
    else:
        source = "def on_list(x):\n" + "".join(f"    {line}\n" for line in lines)
        source += f"    return {result}\n"
        source += "def kernel(x):\n    return on_list(asarray(x, complex).tolist())\n"
    # one exec per row test: the compiler holds the syntax tree of all it
    # is given at once, and a trial kernel's tests are most of its source
    for text in [source] + functions:
        exec(text, namespace)
    source += "".join(functions)
    kernel = namespace["on_list" if tests else "kernel"]
    kernel.on_list = namespace["on_list"]
    kernel.row_tests = tuple(namespace.get(f"row_test{j}") for j in rows.values())
    kernel.source = source
    return kernel
