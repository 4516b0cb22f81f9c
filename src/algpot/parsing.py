"""Problem-file and expression parsing.

Problem files are line oriented:

    # comment
    vars q1 q2
    ext w1 : w1^2 - q1^2 - q2^2
    potential w1^3

One ``vars`` line declares the base coordinates, each ``ext`` line declares
one extension variable together with the polynomial generator that cuts it
out (the generator may use the base coordinates and every extension variable
declared up to and including this line), and one final ``potential`` line
gives the potential as a rational expression in everything declared.

Expression grammar (whitespace insensitive, ``#`` starts a comment):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*
    exponent := INT | '-' INT | '(' '-'? INT ')'
    atom     := INT | NAME | '(' expr ')'

Integer literals combined with '/' give exact rationals; '^' accepts only
(possibly negative) integer literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import RatExpr, outside_double

_KEYWORDS = {"vars", "ext", "potential"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # INT NAME OP EOF
    text: str
    line: int
    col: int


def _tokenize(text: str, first_line: int = 1) -> list:
    toks = []
    line, col = first_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^():":
            toks.append(Token("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _ExprParser:
    def __init__(self, tokens, allowed_names):
        self.toks = tokens
        self.pos = 0
        self.allowed = allowed_names

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "OP" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def parse(self) -> RatExpr:
        e = self.expr()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
        return e

    def expr(self) -> RatExpr:
        e = self.term()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if t.text == "+" else e - rhs
            else:
                return e

    def term(self) -> RatExpr:
        e = self.unary()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "*/":
                self.next()
                rhs = self.unary()
                if t.text == "*":
                    e = e * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", t.line, t.col)
                    e = e / rhs
            else:
                return e

    def unary(self) -> RatExpr:
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> RatExpr:
        e = self.atom()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "^":
                self.next()
                e = e ** self.exponent()
            else:
                return e

    def exponent(self) -> int:
        t = self.peek()
        neg = False
        parens = False
        if t.kind == "OP" and t.text == "(":
            self.next()
            parens = True
            t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.next()
            neg = True
            t = self.peek()
        if t.kind != "INT":
            raise ParseError("exponent must be an integer literal", t.line, t.col)
        self.next()
        e = int(t.text)
        if parens:
            self.expect_op(")")
        return -e if neg else e

    def atom(self) -> RatExpr:
        t = self.next()
        if t.kind == "INT":
            return RatExpr.const(Fraction(int(t.text)))
        if t.kind == "NAME":
            if self.allowed is not None and t.text not in self.allowed:
                raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
            return RatExpr.var(t.text)
        if t.kind == "OP" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(
            f"expected a number, variable or '(', found {t.text or 'end of input'!r}",
            t.line,
            t.col,
        )


def parse_expression(text: str, allowed_names=None, first_line: int = 1) -> RatExpr:
    """Parse a single expression; allowed_names=None skips the scope check."""
    toks = _tokenize(text, first_line)
    return _ExprParser(toks, allowed_names).parse()


@dataclass(frozen=True)
class AlgebraicSetup:
    """A potential on an algebraic variety, as read from a problem file."""

    q_names: tuple
    w_names: tuple
    generators: tuple  # one polynomial RatExpr per extension variable
    potential: RatExpr
    label: str = ""

    @property
    def n(self) -> int:
        return len(self.q_names)

    @property
    def s(self) -> int:
        return len(self.w_names)

    @property
    def var_names(self) -> tuple:
        return self.q_names + self.w_names

    def to_problem_text(self) -> str:
        lines = ["vars " + " ".join(self.q_names)]
        for name, g in zip(self.w_names, self.generators):
            lines.append(f"ext {name} : {g}")
        lines.append(f"potential {self.potential}")
        return "\n".join(lines) + "\n"


def _check_name(name: str, seen: set, line_no: int):
    if not (name[0].isalpha() or name[0] == "_") or not all(
        c.isalnum() or c == "_" for c in name
    ):
        raise ParseError(f"invalid variable name {name!r}", line_no, 1)
    if name in _KEYWORDS:
        raise ParseError(f"variable name {name!r} is a keyword", line_no, 1)
    if name in seen:
        raise ParseError(f"duplicate variable name {name!r}", line_no, 1)


def _check_coefficients(e: RatExpr, what: str, line_no: int):
    """Refuse a coefficient that evaluation cannot hold in a double."""
    for c in (*e.num.values(), *e.den.values()):
        why = outside_double(c)
        if why:
            raise ParseError(f"{what} has a coefficient {why}", line_no, 1)


def parse_problem(text: str, label: str = "") -> AlgebraicSetup:
    q_names: list = []
    w_names: list = []
    generators: list = []
    potential = None
    seen: set = set()
    saw_vars = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head, _, rest = stripped.partition(" ")
        if head == "vars":
            if saw_vars:
                raise ParseError("duplicate vars line", line_no, 1)
            saw_vars = True
            names = rest.split()
            if not names:
                raise ParseError("vars line declares no variables", line_no, 1)
            for name in names:
                _check_name(name, seen, line_no)
                seen.add(name)
                q_names.append(name)
        elif head == "ext":
            if not saw_vars:
                raise ParseError("ext before vars", line_no, 1)
            if potential is not None:
                raise ParseError("ext after potential", line_no, 1)
            name_part, colon, expr_part = rest.partition(":")
            if not colon:
                raise ParseError("ext line needs 'ext <name> : <polynomial>'", line_no, 1)
            name = name_part.strip()
            _check_name(name, seen, line_no)
            seen.add(name)
            w_names.append(name)
            g = parse_expression(expr_part, allowed_names=seen, first_line=line_no)
            if not g.is_polynomial:
                raise ParseError(
                    f"generator for {name!r} contains a quotient", line_no, 1
                )
            if g.is_zero:
                raise ParseError(f"generator for {name!r} is identically zero", line_no, 1)
            _check_coefficients(g, f"generator for {name!r}", line_no)
            generators.append(g)
        elif head == "potential":
            if not saw_vars:
                raise ParseError("potential before vars", line_no, 1)
            if potential is not None:
                raise ParseError("duplicate potential line", line_no, 1)
            potential = parse_expression(rest, allowed_names=seen, first_line=line_no)
            _check_coefficients(potential, "potential", line_no)
        else:
            raise ParseError(f"unknown statement {head!r}", line_no, 1)

    last = text.count("\n") + 1
    if not saw_vars:
        raise ParseError("missing vars line", last, 1)
    if potential is None:
        raise ParseError("missing potential line", last, 1)
    return AlgebraicSetup(
        q_names=tuple(q_names),
        w_names=tuple(w_names),
        generators=tuple(generators),
        potential=potential,
        label=label,
    )


def load_problem(path) -> AlgebraicSetup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), label=str(path))
