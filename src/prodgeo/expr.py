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

Expression interning: :func:`parse`, :func:`intern` and :func:`diff` take an
optional intern table, a dict the caller keeps while it builds related
expressions (an :class:`~prodgeo.subgeom.Immersion` or an ambient space keeps
one while it is constructed), and then build one node per distinct subtree,
so a repeated ``sin(u1)`` is one object.
:func:`evaluate_tables` evaluates several tables of such nodes in one
memoized pass, which computes each shared node once per environment.
"""

from __future__ import annotations

import math
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
    "make",
    "intern",
    "parse",
    "pretty",
    "variables",
    "evaluate",
    "evaluate_tables",
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


def make(nodes: dict | None, cls, *fields) -> ExprAst:
    """``cls(*fields)``, or the node of the same structure already in ``nodes``.

    ``nodes`` is an intern table; ``None`` builds a fresh node.  Children are
    keyed by identity, so they should come from the same table; a zero keeps
    its sign.
    """
    if nodes is None:
        return cls(*fields)
    if cls is BinOp:
        key = (BinOp, fields[0], id(fields[1]), id(fields[2]))
    elif cls is Num:
        key = (Num, fields[0], math.copysign(1.0, fields[0]))
    elif cls is Var:
        key = (Var, fields[0])
    else:  # Neg and Call: the child comes last
        key = (cls,) + fields[:-1] + (id(fields[-1]),)
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = cls(*fields)
    return node


def intern(node: ExprAst, nodes: dict) -> ExprAst:
    """The node of ``node``'s structure in the intern table ``nodes``, added if missing."""
    if isinstance(node, Num):
        return make(nodes, Num, node.value)
    if isinstance(node, Var):
        return make(nodes, Var, node.name)
    if isinstance(node, Neg):
        return make(nodes, Neg, intern(node.arg, nodes))
    if isinstance(node, Call):
        return make(nodes, Call, node.fn, intern(node.arg, nodes))
    return make(nodes, BinOp, node.op, intern(node.lhs, nodes), intern(node.rhs, nodes))


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
    def __init__(self, src: str, nodes: dict | None):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nodes = nodes  # the intern table, or None

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
                node = make(self.nodes, BinOp, text, node, self.term())
            else:
                return node

    def term(self) -> ExprAst:
        node = self.unary()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self.pos += 1
                node = make(self.nodes, BinOp, text, node, self.unary())
            else:
                return node

    def unary(self) -> ExprAst:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self.pos += 1
            return make(self.nodes, Neg, self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self.pos += 1
            return make(self.nodes, BinOp, "^", base, make(self.nodes, Num, self.exponent()))
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
            return make(self.nodes, Num, self._number())
        self.pos += 1
        if kind == "name":
            nkind, ntext, _ = self._peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", offset)
                self.pos += 1
                arg = self.sum()
                self._expect_op(")")
                return make(self.nodes, Call, text, arg)
            return make(self.nodes, Var, text)
        if kind == "op" and text == "(":
            node = self.sum()
            self._expect_op(")")
            return node
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", offset)


def parse(src: str, nodes: dict | None = None) -> ExprAst:
    """The expression tree of ``src``, built through the intern table ``nodes`` if given."""
    return _Parser(src, nodes).parse()


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


class _Memo(dict):
    """An environment that also holds, by node id, the value of every node
    evaluated under it; its nodes must outlive it."""


_MISSING = object()


def evaluate(node: ExprAst, env: Mapping[str, object]):
    """Evaluate over an environment of floats, float arrays and/or jets.

    Arrays and jets evaluate a batch of points at once; a domain error
    (:class:`prodgeo.jets.DomainError`) locates the first offending point.
    Under the environment of :func:`evaluate_tables` every inner node is
    evaluated once.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownVariable(node.name) from None
    memo = env if type(env) is _Memo else None
    if memo is not None:
        value = memo.get(id(node), _MISSING)
        if value is not _MISSING:
            return value
    if isinstance(node, Neg):
        value = -evaluate(node.arg, env)
    elif isinstance(node, Call):
        value = _CALLS[node.fn](evaluate(node.arg, env))
    elif node.op == "^":
        value = _power(evaluate(node.lhs, env), node.rhs.value)
    else:
        lhs, rhs = evaluate(node.lhs, env), evaluate(node.rhs, env)
        if node.op == "+":
            value = lhs + rhs
        elif node.op == "-":
            value = lhs - rhs
        elif node.op == "*":
            value = lhs * rhs
        else:
            value = _divide(lhs, rhs)
    if memo is not None:
        memo[id(node)] = value
    return value


def evaluate_tables(tables, env: Mapping[str, object]) -> list:
    """Several tables (nested tuples of nodes) under one environment, in one pass.

    The pass is memoized, so a node shared by several entries or tables is
    computed once.  Each table comes back as one fresh float array or jet
    (:func:`prodgeo.jets.array`), so no two tables or callers share storage.
    """
    memo = _Memo(env)
    return [jets.array(_entries(table, memo)) for table in tables]


def _entries(table, memo: _Memo):
    """A nested tuple of nodes as the nested list of their values."""
    if isinstance(table, tuple):
        return [_entries(entry, memo) for entry in table]
    return evaluate(table, memo)


# ---- symbolic differentiation ---------------------------------------------


def _is_num(node: ExprAst, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(a: ExprAst, nodes) -> ExprAst:
    if isinstance(a, Num):
        return make(nodes, Num, -a.value if a.value else 0.0)
    return a.arg if isinstance(a, Neg) else make(nodes, Neg, a)


def _sum(op: str, a: ExprAst, b: ExprAst, nodes) -> ExprAst:
    if _is_num(b, 0):
        return a
    if _is_num(a, 0):
        return b if op == "+" else _neg(b, nodes)
    return make(nodes, BinOp, op, a, b)


def _mul(a: ExprAst, b: ExprAst, nodes) -> ExprAst:
    if _is_num(a, 0) or _is_num(b, 0):
        return make(nodes, Num, 0.0)
    return b if _is_num(a, 1) else a if _is_num(b, 1) else make(nodes, BinOp, "*", a, b)


def _div(a: ExprAst, b: ExprAst, nodes) -> ExprAst:
    return a if _is_num(a, 0) else make(nodes, BinOp, "/", a, b)


def diff(node: ExprAst, var: str, nodes: dict | None = None) -> ExprAst:
    """Partial derivative with respect to the variable ``var``, as an expression.

    Zeros and units are folded as the tree is built, so the derivative of an
    expression without ``var`` is ``Num(0)`` and a flat block costs nothing
    to evaluate.  With an intern table ``nodes`` (the one ``node`` was built
    in) the derivative shares its subtrees with ``node``.
    """
    if isinstance(node, (Num, Var)):
        return make(nodes, Num, 1.0 if node == Var(var) else 0.0)
    if isinstance(node, Neg):
        return _neg(diff(node.arg, var, nodes), nodes)
    if isinstance(node, Call):
        d, arg = diff(node.arg, var, nodes), node.arg
        if node.fn == "sqrt":
            return _div(d, make(nodes, BinOp, "*", make(nodes, Num, 2.0), node), nodes)
        if node.fn == "sin":
            outer = make(nodes, Call, "cos", arg)
        elif node.fn == "cos":
            outer = make(nodes, Neg, make(nodes, Call, "sin", arg))
        else:
            outer = node
        return _mul(outer, d, nodes)
    da, db = diff(node.lhs, var, nodes), diff(node.rhs, var, nodes)
    if node.op == "^":
        q = node.rhs.value
        power = (
            make(nodes, Num, 1.0) if q == 1 else node.lhs if q == 2
            else make(nodes, BinOp, "^", node.lhs, make(nodes, Num, q - 1))
        )
        return _mul(_mul(make(nodes, Num, q), power, nodes), da, nodes)
    if node.op in "+-":
        return _sum(node.op, da, db, nodes)
    if node.op == "*":
        return _sum("+", _mul(da, node.rhs, nodes), _mul(node.lhs, db, nodes), nodes)
    square = make(nodes, BinOp, "^", node.rhs, make(nodes, Num, 2.0))
    return _sum(
        "-", _div(da, node.rhs, nodes), _div(_mul(node.lhs, db, nodes), square, nodes), nodes
    )
