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
expression is evaluated against an environment.  A numeric literal must be
finite: one that overflows a float is a :class:`ParseError`.

A :class:`Plan` compiles several tables of expressions (nested tuples of
nodes) into one straight-line program with a step per structurally distinct
subtree, so a ``sin(u1)`` repeated across entries and tables is computed
once per environment.  :func:`evaluate` evaluates a single tree.
"""

from __future__ import annotations

import math
import operator
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
    "Plan",
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
        value = self._number()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self.pos += 1
            try:
                value = value ** self.exponent()
            except (OverflowError, ZeroDivisionError):
                raise ParseError("exponent is not a finite number", offset) from None
        return -value if negate else value

    def _number(self) -> float:
        """The numeric literal at the cursor, which must be a finite float."""
        _, text, offset = self._next()
        value = float(text)
        if math.isinf(value):
            raise ParseError(f"numeric literal {text!r} overflows", offset)
        return value

    def atom(self) -> ExprAst:
        kind, text, offset = self._peek()
        if kind == "num":
            return Num(self._number())
        self.pos += 1
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
    """The expression tree of ``src``."""
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


# each node's operation: a function by name, "neg", or a binary operator by symbol
_CALLS = {
    "sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "sqrt": jets.sqrt,
    "neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "^": _power,
}


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
    if isinstance(node, (Neg, Call)):
        return _CALLS[node.fn if isinstance(node, Call) else "neg"](evaluate(node.arg, env))
    return _CALLS[node.op](evaluate(node.lhs, env), evaluate(node.rhs, env))


class Plan:
    """Several tables (nested tuples of nodes) as one straight-line program.

    Each structurally distinct subtree is one step, keyed by its operation,
    its literal (a zero keeps its sign) and its operand step numbers, so it
    is computed once per call.  ``plan(env)`` returns each table as a fresh
    float array or jet (:func:`prodgeo.jets.array`) whose leading axes are
    the points' and trailing axes the table's nesting.
    """

    def __init__(self, tables):
        self.steps: list[tuple] = []
        index: dict = {}  # step key -> step number
        self.layouts = [_compile(table, index, self.steps) for table in tables]

    def __call__(self, env: Mapping[str, object]) -> list:
        values = _fill(self.steps, env)
        return [jets.array(_gather(layout, values)) for layout in self.layouts]


def _compile(entry, index: dict, steps: list):
    """The step number of a node (a nested tuple of them for a table),
    adding the steps it needs to ``steps`` and their keys to ``index``."""
    if isinstance(entry, tuple):
        return tuple(_compile(e, index, steps) for e in entry)
    if isinstance(entry, Num):
        key = ("num", entry.value, math.copysign(1.0, entry.value))
    elif isinstance(entry, Var):
        key = ("var", entry.name)
    elif isinstance(entry, (Neg, Call)):
        key = (entry.fn if isinstance(entry, Call) else "neg", _compile(entry.arg, index, steps))
    else:
        key = (entry.op, _compile(entry.lhs, index, steps), _compile(entry.rhs, index, steps))
    step = index.get(key)
    if step is None:
        step = index[key] = len(steps)
        steps.append(key)
    return step


def _fill(steps: list, env: Mapping[str, object]) -> list:
    """The value of every step, in order."""
    values = []
    for step in steps:
        op = step[0]
        if op == "num":
            value = step[1]
        elif op == "var":
            try:
                value = env[step[1]]
            except KeyError:
                raise UnknownVariable(step[1]) from None
        elif len(step) == 2:
            value = _CALLS[op](values[step[1]])
        else:
            value = _CALLS[op](values[step[1]], values[step[2]])
        values.append(value)
    return values


def _gather(layout, values: list):
    """A nested tuple of step numbers as the nested list of their values."""
    if isinstance(layout, tuple):
        return [_gather(entry, values) for entry in layout]
    return values[layout]


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
    to evaluate.  The derivative reuses the subtrees of ``node``.
    """
    if isinstance(node, (Num, Var)):
        return Num(1.0 if node == Var(var) else 0.0)
    if isinstance(node, Neg):
        return _neg(diff(node.arg, var))
    if isinstance(node, Call):
        d, arg = diff(node.arg, var), node.arg
        if node.fn == "sqrt":
            return _div(d, BinOp("*", Num(2.0), node))
        if node.fn == "sin":
            outer = Call("cos", arg)
        elif node.fn == "cos":
            outer = Neg(Call("sin", arg))
        else:
            outer = node
        return _mul(outer, d)
    da, db = diff(node.lhs, var), diff(node.rhs, var)
    if node.op == "^":
        q = node.rhs.value
        power = Num(1.0) if q == 1 else node.lhs if q == 2 else BinOp("^", node.lhs, Num(q - 1))
        return _mul(_mul(Num(q), power), da)
    if node.op in "+-":
        return _sum(node.op, da, db)
    if node.op == "*":
        return _sum("+", _mul(da, node.rhs), _mul(node.lhs, db))
    square = BinOp("^", node.rhs, Num(2.0))
    return _sum("-", _div(da, node.rhs), _div(_mul(node.lhs, db), square))
