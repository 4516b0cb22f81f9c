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

Expression grammar (``#`` starts a comment that runs to the end of its line):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | atom ('^' exponent)*
    exponent := INT | '-' INT | '(' '-'? INT ')'
    atom     := INT | NAME | '(' expr ')'

Integer literals combined with '/' give exact rationals; '^' accepts only
(possibly negative) integer literals, and chained powers associate to the
left.

Tokens are read by one regular expression (``_TOKEN``):

- INT is a run of decimal digits (``\\d``: any Unicode decimal digit);
- NAME is a letter or ``_`` followed by word characters (``_`` and what
  ``str.isalnum`` admits), and the names that ``vars`` and ``ext`` declare
  follow the same rule;
- the operators are ``+ - * / ^ ( ) :``;
- spaces, tabs and carriage returns separate tokens, and newlines count lines.

Any other character, a digit that is not decimal such as a superscript
among them, is an ``unexpected character``.  Malformed input raises
ParseError, input nested deeper than Python's recursion limit included; a
zero raised to a negative power raises ZeroDenominatorError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


# The alternatives are tried in order, so a word that starts with a decimal
# digit reads as an integer and then a word.
_TOKEN = re.compile(
    r"[ \t\r]+|#.*|(?P<NL>\n)|(?P<INT>\d+)|(?P<NAME>\w+)|(?P<OP>[-+*/^():])|(?P<BAD>.)")


def _is_name(word: str) -> bool:
    """A letter or '_' followed by word characters ('_' or str.isalnum)."""
    return (word[:1].isalpha() or word[:1] == "_") and word.replace("_", "a").isalnum()


def _tokenize(text: str, first_line: int = 1) -> list:
    toks = []
    line, line_start = first_line, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind:
            word, col = m.group(), m.start() - line_start + 1
            if kind == "BAD" or kind == "NAME" and not _is_name(word):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            toks.append(Token(kind, word, line, col))
    # a comment that ends the input leaves the end where the comment starts
    toks.append(Token("EOF", "", line, len(text[line_start:].partition("#")[0]) + 1))
    return toks


class _ExprParser:
    def __init__(self, tokens, allowed_names):
        self.toks = tokens
        self.pos = 0
        self.allowed = allowed_names

    def take(self, ops: str):
        """The next token, consumed, when it is one of the operators ops."""
        t = self.toks[self.pos]
        if t.kind == "OP" and t.text in ops:
            self.pos += 1
            return t
        return None

    def error(self, message: str) -> ParseError:
        """message at the next token; {found} in it reads that token."""
        t = self.toks[self.pos]
        return ParseError(message.format(found=repr(t.text or "end of input")), t.line, t.col)

    def expect(self, op: str):
        if not self.take(op):
            raise self.error(f"expected {op!r}, found {{found}}")

    def parse(self) -> RatExpr:
        e = self.expr()
        if self.toks[self.pos].kind != "EOF":
            raise self.error("unexpected trailing input {found}")
        return e

    def expr(self) -> RatExpr:
        e = self.term()
        while t := self.take("+-"):
            rhs = self.term()
            e = e + rhs if t.text == "+" else e - rhs
        return e

    def term(self) -> RatExpr:
        e = self.unary()
        while t := self.take("*/"):
            rhs = self.unary()
            if t.text == "*":
                e = e * rhs
            elif rhs.is_zero:
                raise ParseError("division by zero", t.line, t.col)
            else:
                e = e / rhs
        return e

    def unary(self) -> RatExpr:
        if self.take("-"):
            return -self.unary()
        e = self.atom()
        while self.take("^"):
            e = e ** self.exponent()
        return e

    def exponent(self) -> int:
        parens = self.take("(")
        sign = -1 if self.take("-") else 1
        t = self.toks[self.pos]
        if t.kind != "INT":
            raise self.error("exponent must be an integer literal")
        self.pos += 1
        if parens:
            self.expect(")")
        return sign * int(t.text)

    def atom(self) -> RatExpr:
        if self.take("("):
            e = self.expr()
            self.expect(")")
            return e
        t = self.toks[self.pos]
        if t.kind == "INT":
            self.pos += 1
            return RatExpr.const(int(t.text))
        if t.kind != "NAME":
            raise self.error("expected a number, variable or '(', found {found}")
        if self.allowed is not None and t.text not in self.allowed:
            raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        self.pos += 1
        return RatExpr.var(t.text)


def parse_expression(text: str, allowed_names=None, first_line: int = 1) -> RatExpr:
    """Parse a single expression; allowed_names=None skips the scope check."""
    try:
        return _ExprParser(_tokenize(text, first_line), allowed_names).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", first_line, 1) from None


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
    if not _is_name(name):
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
