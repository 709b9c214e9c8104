"""The printed statement is the checked integral.

``catmot list`` prints each entry's ``statement``.  A small parser reads it
back (standard library only) and evaluates its prefactor times integrand,
which must agree with ``prefactor_float(n) * at(n)(x)`` at interior points;
its domain must be the entry's, and its ``(n >= k)`` suffix its n_min.

Grammar: sums, products written with ``*``, ``/`` or by juxtaposition
(``2n``, ``(n+1) pi``, ``2 cos(pi x)``), ``^`` binding tighter than any
product, unary minus, the constants ``pi`` and ``inf``, the functions
``sqrt``, ``cos`` and ``sin``, and two-argument functions defined after the
integral as ``, phi(m,x) = ...``.
"""

import math
import operator
import re

import pytest

from catmot.catalog import Family, list_representations
from x_form import x_form

_TOKEN = re.compile(r"\s*(\d+|[a-z]+|[-+*/^(),])")
_FUNCTIONS = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin}
_CONSTANTS = {"pi": math.pi, "inf": math.inf}


def _binary(op, left, right):
    return lambda v: op(left(v), right(v))


def _tokens(text):
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        assert match, f"cannot read {text[pos:]!r}"
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent to a function of the variables (a dict)."""

    def __init__(self, text, defined):
        self.tokens, self.pos, self.defined = _tokens(text), 0, defined

    def parse(self):
        node = self.sum()
        assert self.pos == len(self.tokens), f"trailing {self.tokens[self.pos:]}"
        return node

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        token = self.peek()
        assert expected is None or token == expected, (token, expected)
        self.pos += 1
        return token

    def sum(self):
        node = self.product()
        while self.peek() in ("+", "-"):
            op = operator.add if self.take() == "+" else operator.sub
            node = _binary(op, node, self.product())
        return node

    def product(self):
        node = self.power()
        while True:
            token = self.peek()
            if token in ("*", "/"):
                self.take()
            elif token is None or token in "+-),":
                return node
            # "*" or juxtaposition multiplies
            op = operator.truediv if token == "/" else operator.mul
            node = _binary(op, node, self.power())

    def power(self):
        if self.peek() == "-":
            self.take()
            operand = self.power()
            return lambda v: -operand(v)
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        return _binary(operator.pow, base, self.atom())

    def atom(self):
        token = self.take()
        if token == "(":
            node = self.sum()
            self.take(")")
            return node
        if token.isdigit():
            return lambda v: float(token)
        if token in _CONSTANTS:
            return lambda v: _CONSTANTS[token]
        if token in _FUNCTIONS or token in self.defined:
            self.take("(")
            args = [self.sum()]
            while self.peek() == ",":
                self.take()
                args.append(self.sum())
            self.take(")")
            fn = _FUNCTIONS.get(token) or self.defined[token]
            return lambda v: fn(*(a(v) for a in args))
        assert token.isalpha() and len(token) == 1, f"unknown name {token!r}"
        return lambda v: v[token]


def _definition(text, defined):
    """``name(a,b) = body`` as a function of two arguments."""
    head, body = text.split(" = ")
    name, first, second = re.fullmatch(r"([a-z]+)\((\w),(\w)\)", head).groups()
    node = _Parser(body, defined).parse()
    return name, lambda a, b: node({first: a, second: b})


_STATEMENT = re.compile(
    r"([CM])\(n\) = (.*?)\s*int_\{(.+?)\}\^\{(.+?)\} (.+) dx((?:, .+)?)(?:\s+\(n >= (\d+)\))?"
)


def parse_statement(statement):
    """(family letter, n_min, domain, f(n, x)) of a printed statement."""
    family, prefactor, lo, hi, integrand, definitions, n_min = _STATEMENT.fullmatch(
        statement).groups()
    defined = {}
    for text in filter(None, definitions.split(", ")):
        name, fn = _definition(text, defined)
        defined[name] = fn
    domain = tuple(_Parser(bound, defined).parse()({}) for bound in (lo, hi))
    scale = _Parser(prefactor, defined).parse() if prefactor else (lambda v: 1.0)
    body = _Parser(integrand, defined).parse()
    return family, int(n_min or 0), domain, lambda n, x: scale({"n": n}) * body({"n": n, "x": x})


def _interior_points(domain, count=24):
    lo, hi = domain
    mids = [(k + 0.5) / count for k in range(count)]
    if math.isinf(hi):
        return [u / (1.0 - u) for u in mids]
    return [lo + (hi - lo) * u for u in mids]


# the statement's closed form of mot.13b cancels near x = 0, where the
# catalog's polynomial kernel does not
_AGREEMENT = {"mot.13b": 1e-11}


@pytest.mark.parametrize("rep", list_representations(), ids=lambda rep: rep.id)
def test_printed_statement_is_the_checked_integral(rep):
    family, n_min, domain, stated = parse_statement(rep.statement)
    assert {"C": Family.CATALAN, "M": Family.MOTZKIN}[family] is rep.family
    assert n_min == rep.n_min
    assert domain == rep.domain
    bound = _AGREEMENT.get(rep.id, 1e-14)
    for n in range(rep.n_min, 9):
        checked, scale = x_form(rep, n), rep.prefactor_float(n)
        for x in _interior_points(domain):
            want = scale * checked(x)
            assert abs(stated(n, x) - want) <= bound * abs(want), (n, x)


def test_parser_reads_implicit_products_and_powers():
    _, _, _, f = parse_statement("C(n) = 2^(2n+1)/((2n+1) pi) int_{0}^{1} 2x^(n+1) 3 sin(x)^2 dx")
    n, x = 3, 0.4
    want = 2.0 ** 7 / (7 * math.pi) * 2.0 * x**4 * 3.0 * math.sin(x) ** 2
    assert f(n, x) == pytest.approx(want, rel=1e-15)
