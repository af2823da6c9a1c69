"""Parser and evaluator for the scalar expressions that define metrics,
product structures, and immersions.

Grammar (standard precedence, tightest first)::

    power:  ^            right-associative, exponents are numeric literals
    unary:  -
    term:   * /          left-associative
    sum:    + -          left-associative

Parentheses override.  Function calls are ``sin``, ``cos``, ``exp``,
``sqrt``.  There is no implicit multiplication: ``2u1`` is a syntax error.
Variables follow the convention ``u1..un`` for submanifold parameters and
``x1..xN`` for ambient coordinates; unknown names are only rejected when an
expression is evaluated against an environment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from . import jets

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprAst",
    "ParseError",
    "UnknownVariable",
    "parse",
    "pretty",
    "variables",
    "evaluate",
    "diff",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ParseError(ValueError):
    """Syntax error with the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariable(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Neg, BinOp, Call]


_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", len(self.src))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect_op(self, symbol: str):
        kind, text, offset = self._peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", offset)
        self.pos += 1

    def parse(self) -> ExprAst:
        node = self.sum()
        kind, text, offset = self._peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", offset)
        return node

    def sum(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self.pos += 1
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> ExprAst:
        node = self.unary()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self.pos += 1
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> ExprAst:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self.pos += 1
            return BinOp("^", base, Num(self.exponent()))
        return base

    def exponent(self) -> float:
        """Exponents are (possibly signed) numeric literals; chains fold right."""
        kind, text, offset = self._peek()
        negate = False
        if kind == "op" and text == "-":
            negate = True
            self.pos += 1
            kind, text, offset = self._peek()
        if kind != "num":
            raise ParseError("exponent must be a numeric literal", offset)
        self.pos += 1
        value = float(text)
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self.pos += 1
            value = value ** self.exponent()
        return -value if negate else value

    def atom(self) -> ExprAst:
        kind, text, offset = self._next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nkind, ntext, _ = self._peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", offset)
                self.pos += 1
                arg = self.sum()
                self._expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.sum()
            self._expect_op(")")
            return node
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", offset)


def parse(src: str) -> ExprAst:
    return _Parser(src).parse()


def variables(node: ExprAst) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, Call):
        return variables(node.arg)
    return variables(node.lhs) | variables(node.rhs)


_P_SUM, _P_TERM, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _pp(node: ExprAst, context: int) -> str:
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_pp(node.arg, _P_SUM)})"
    if isinstance(node, Neg):
        text = f"-{_pp(node.arg, _P_POW)}"
        return f"({text})" if context > _P_NEG else text
    if node.op == "^":
        return f"{_pp(node.lhs, _P_ATOM)}^{_fmt_num(node.rhs.value)}"
    if node.op in "+-":
        text = f"{_pp(node.lhs, _P_SUM)} {node.op} {_pp(node.rhs, _P_SUM + 1)}"
        return f"({text})" if context > _P_SUM else text
    text = f"{_pp(node.lhs, _P_TERM)} {node.op} {_pp(node.rhs, _P_TERM + 1)}"
    return f"({text})" if context > _P_TERM else text


def pretty(node: ExprAst) -> str:
    """Canonical source form; re-parsing yields a structurally equal tree."""
    return _pp(node, _P_SUM)


def _power(base, exponent: float):
    if isinstance(base, jets.Jet):
        return base ** exponent
    if not float(exponent).is_integer():
        jets.check_domain(np.less(base, 0.0), base, "fractional power of a negative base {}")
    if exponent < 0.0:
        jets.check_domain(np.equal(base, 0.0), base, "zero base with negative exponent",
                          jets.DivisionByZero)
    return base ** exponent


def _divide(lhs, rhs):
    if not isinstance(rhs, jets.Jet):
        jets.check_domain(np.equal(rhs, 0.0), rhs, "division by zero", jets.DivisionByZero)
    return lhs / rhs


_CALLS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "sqrt": jets.sqrt}


def evaluate(node: ExprAst, env: Mapping[str, object]):
    """Evaluate over an environment of floats, float arrays and/or jets.

    Arrays and jets evaluate a batch of points at once; a domain error
    (:class:`prodgeo.jets.DomainError`) locates the first offending point.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownVariable(node.name) from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Call):
        return _CALLS[node.fn](evaluate(node.arg, env))
    lhs = evaluate(node.lhs, env)
    if node.op == "^":
        return _power(lhs, node.rhs.value)
    rhs = evaluate(node.rhs, env)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    return _divide(lhs, rhs)


# ---- symbolic differentiation ---------------------------------------------


def _is_num(node: ExprAst, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(a: ExprAst) -> ExprAst:
    if isinstance(a, Num):
        return Num(-a.value if a.value else 0.0)
    return a.arg if isinstance(a, Neg) else Neg(a)


def _sum(op: str, a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_num(b, 0):
        return a
    if _is_num(a, 0):
        return b if op == "+" else _neg(b)
    return BinOp(op, a, b)


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_num(a, 0) or _is_num(b, 0):
        return Num(0.0)
    return b if _is_num(a, 1) else a if _is_num(b, 1) else BinOp("*", a, b)


def _div(a: ExprAst, b: ExprAst) -> ExprAst:
    return a if _is_num(a, 0) else BinOp("/", a, b)


def diff(node: ExprAst, var: str) -> ExprAst:
    """Partial derivative with respect to the variable ``var``, as an expression.

    Zeros and units are folded as the tree is built, so the derivative of an
    expression without ``var`` is ``Num(0)`` and a flat block costs nothing
    to evaluate.
    """
    if isinstance(node, (Num, Var)):
        return Num(1.0 if node == Var(var) else 0.0)
    if isinstance(node, Neg):
        return _neg(diff(node.arg, var))
    if isinstance(node, Call):
        d, arg = diff(node.arg, var), node.arg
        if node.fn == "sqrt":
            return _div(d, BinOp("*", Num(2.0), node))
        outer = {"sin": Call("cos", arg), "cos": Neg(Call("sin", arg)), "exp": node}
        return _mul(outer[node.fn], d)
    da, db = diff(node.lhs, var), diff(node.rhs, var)
    if node.op == "^":
        q = node.rhs.value
        power = Num(1.0) if q == 1 else node.lhs if q == 2 else BinOp("^", node.lhs, Num(q - 1))
        return _mul(_mul(Num(q), power), da)
    if node.op in "+-":
        return _sum(node.op, da, db)
    if node.op == "*":
        return _sum("+", _mul(da, node.rhs), _mul(node.lhs, db))
    return _sum("-", _div(da, node.rhs), _div(_mul(node.lhs, db), BinOp("^", node.rhs, Num(2.0))))
