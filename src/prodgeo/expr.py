"""Parser and evaluator for the scalar expressions that define metrics,
product structures, and immersions.

Grammar (standard precedence, tightest first)::

    power:  ^            right-associative, exponents are numeric literals
    unary:  -
    * /                  left-associative
    + -                  left-associative

Parentheses override.  Function calls are ``sin``, ``cos``, ``exp``,
``sqrt``.  There is no implicit multiplication: ``2u1`` is a syntax error.
Variables follow the convention ``u1..un`` for submanifold parameters and
``x1..xN`` for ambient coordinates; unknown names are only rejected when an
expression is evaluated against an environment.  A numeric literal must be
finite: one that overflows a float is a :class:`ParseError`, and so is an
expression nested deeper than :data:`MAX_DEPTH` levels.

One scan of one regular expression gives the token texts and no offsets;
a token's offset is found by scanning again, only to raise a
:class:`ParseError`, and a character that starts no token raises before
any other error.  One precedence-climbing loop builds every
left-associative operator, and one operand rule reads the leading minus
signs, then a number, name, call or group, then its exponent chain.  A
:class:`Plan` compiles several tables of expressions (nested tuples of
nodes) into one straight-line program with a step per structurally
distinct subtree, so a ``sin(u1)`` repeated across entries and tables is
computed once per environment; a table is kept as its shape and the flat
list of its step numbers.  :func:`evaluate` evaluates a single tree.  The
tree's nodes, :class:`Num`, :class:`Var`, :class:`Neg`, :class:`BinOp` and
:class:`Call`, are frozen dataclasses that keep their fields in slots.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import FrozenInstanceError, dataclass
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


# Each node keeps its fields in slots, and its ``__init__`` writes them
# through the slots' descriptors (bound once below), which costs less than
# half the frozen dataclass's own ``__init__``.  Repr, equality and hashing
# are the dataclass's, and assigning or deleting any attribute raises
# ``FrozenInstanceError`` (:func:`_frozen`).


@dataclass(frozen=True, slots=True)
class Num:
    """A numeric literal."""

    value: float

    def __init__(self, value: float):
        _set_num_value(self, value)


@dataclass(frozen=True, slots=True)
class Var:
    """A variable, by name."""

    name: str

    def __init__(self, name: str):
        _set_var_name(self, name)


@dataclass(frozen=True, slots=True)
class Neg:
    """A minus sign applied to ``arg``."""

    arg: "ExprAst"

    def __init__(self, arg: "ExprAst"):
        _set_neg_arg(self, arg)


@dataclass(frozen=True, slots=True)
class BinOp:
    """``lhs op rhs`` for ``op`` one of ``+ - * / ^``; the exponent of ``^`` is a :class:`Num`."""

    op: str
    lhs: "ExprAst"
    rhs: "ExprAst"

    def __init__(self, op: str, lhs: "ExprAst", rhs: "ExprAst"):
        _set_binop_op(self, op)
        _set_binop_lhs(self, lhs)
        _set_binop_rhs(self, rhs)


@dataclass(frozen=True, slots=True)
class Call:
    """The function ``fn``, one of :data:`FUNCTIONS`, applied to ``arg``."""

    fn: str
    arg: "ExprAst"

    def __init__(self, fn: str, arg: "ExprAst"):
        _set_call_fn(self, fn)
        _set_call_arg(self, arg)


_set_num_value, _set_var_name, _set_neg_arg = Num.value.__set__, Var.name.__set__, Neg.arg.__set__
_set_binop_op, _set_binop_lhs, _set_binop_rhs = BinOp.op.__set__, BinOp.lhs.__set__, BinOp.rhs.__set__
_set_call_fn, _set_call_arg = Call.fn.__set__, Call.arg.__set__


def _frozen(self, name: str, *value):
    """Assigning or deleting any attribute of a node fails as on a frozen
    dataclass; the dataclass's own methods raise ``TypeError`` for a name
    that is not a field once the class is slotted."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


for _node in (Num, Var, Neg, BinOp, Call):
    _node.__setattr__ = _node.__delattr__ = _frozen

ExprAst = Union[Num, Var, Neg, BinOp, Call]


# how deeply an expression may nest; each operator, call, minus sign, group
# and exponent-chain link is a level, and recursive walks stay well inside
# the interpreter's recursion limit
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"

# a token after whitespace: number, name, operator or parenthesis, or a bad character
_TOKEN = re.compile(
    r"\s*((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|[-+*/^()]|\S)"
)
# a character that starts no token; the only other bad token is a lone "."
_BAD = re.compile(r"[^\s0-9A-Za-z_.+\-*/^()]")
_NUMERIC = frozenset("0123456789.")  # the first characters of a number

_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}  # how tightly each left-associative operator binds


class _Reader:
    """Precedence climbing over the token texts, which end with ``""``.

    A rule returns its subtree and the subtree's depth; ``nest`` counts the
    levels the cursor is in.  Token offsets are only found to raise.
    """

    __slots__ = ("src", "tokens", "pos", "nest")

    def __init__(self, src: str):
        self.src = src
        self.tokens = tokens = _TOKEN.findall(src)
        if "." in tokens or _BAD.search(src):
            for match in _TOKEN.finditer(src):
                text = match.group(1)
                if text == "." or _BAD.match(text):
                    raise ParseError(f"unexpected character {text!r}", match.start(1))
        tokens.append("")
        self.pos = self.nest = 0

    def error(self, message: str, index: int) -> ParseError:
        """A :class:`ParseError` at token ``index``; the end is at ``len(src)``."""
        offsets = [match.start(1) for match in _TOKEN.finditer(self.src)] + [len(self.src)]
        return ParseError(message, offsets[index])

    def parse(self) -> ExprAst:
        node, _ = self.binary(1)
        if self.tokens[self.pos]:
            raise self.error(f"unexpected token {self.tokens[self.pos]!r}", self.pos)
        return node

    def binary(self, floor: int) -> tuple[ExprAst, int]:
        """Operands joined by the operators binding at least ``floor``, left to right."""
        node, depth = self.operand()
        tokens = self.tokens
        while (strength := _BINDING.get(op := tokens[self.pos], 0)) >= floor:
            self.pos += 1
            rhs, rhs_depth = self.binary(strength + 1)
            node, depth = BinOp(op, node, rhs), max(depth, rhs_depth) + 1
        if depth > MAX_DEPTH:  # reported at the last token read
            raise self.error(_TOO_DEEP, self.pos - 1)
        return node, depth

    def operand(self) -> tuple[ExprAst, int]:
        """Minus signs, then a number, name, call or group, then an exponent chain."""
        tokens, outer = self.tokens, self.nest
        pos = start = self.pos
        while tokens[pos] == "-":
            pos += 1
        signs = pos - start
        nest = outer + signs  # each minus sign is a level
        if nest > MAX_DEPTH:
            raise self.error(_TOO_DEEP, start + MAX_DEPTH - outer)
        text = tokens[pos]
        pos += 1
        if text[:1] in _NUMERIC:
            node, depth = Num(self.number(pos - 1)), 1
        elif text.isidentifier() and tokens[pos] != "(":
            node, depth = Var(text), 1
        else:
            call = text.isidentifier()
            if call and text not in FUNCTIONS:
                raise self.error(f"unknown function {text!r}", pos - 1)
            if not call and text != "(":
                raise self.error(f"expected a value, found {text!r}" if text else "unexpected end of input", pos - 1)
            if nest == MAX_DEPTH:
                raise self.error(_TOO_DEEP, pos - 1)
            self.pos, self.nest = pos + call, nest + 1
            node, depth = self.binary(1)
            pos = self.pos
            if tokens[pos] != ")":
                raise self.error("expected ')'", pos)
            pos += 1
            node, depth = (Call(text, node) if call else node), depth + 1
        if tokens[pos] == "^":
            node, depth = BinOp("^", node, Num(self.exponent(pos + 1, nest))), depth + 1
        else:
            self.pos = pos
        self.nest = outer
        for _ in range(signs):
            node = Neg(node)
        return node, depth + signs

    def exponent(self, pos: int, nest: int) -> float:
        """The exponent chain from token ``pos``, folded right: a literal with an
        optional minus sign, then ``^`` and the next link, one level further in."""
        tokens = self.tokens
        negate = tokens[pos] == "-"
        pos += negate
        if tokens[pos][:1] not in _NUMERIC:
            raise self.error("exponent must be a numeric literal", pos)
        value = self.number(pos)
        self.pos = pos + 1
        if tokens[pos + 1] == "^":
            if nest == MAX_DEPTH:
                raise self.error(_TOO_DEEP, pos)
            try:
                value = value ** self.exponent(pos + 2, nest + 1)
            except (OverflowError, ZeroDivisionError):
                raise self.error("exponent is not a finite number", pos) from None
        return -value if negate else value

    def number(self, index: int) -> float:
        """The numeric literal at token ``index``, which must be a finite float."""
        text = self.tokens[index]
        value = float(text)
        if value == math.inf:
            raise self.error(f"numeric literal {text!r} overflows", index)
        return value


def parse(src: str) -> ExprAst:
    """The expression tree of ``src``."""
    return _Reader(src).parse()


_NO_VARIABLES: frozenset[str] = frozenset()


def variables(node: ExprAst) -> frozenset[str]:
    """The names of the variables in ``node``; one shared empty set for a number."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Num):
        return _NO_VARIABLES
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
        text = _fmt_num(node.value)
        return f"({text})" if text[0] == "-" and context > _P_NEG else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_pp(node.arg, _P_SUM)})"
    if isinstance(node, Neg):
        text = f"-{_pp(node.arg, _P_POW)}"
        return f"({text})" if context > _P_NEG else text
    if node.op == "^":
        text = f"{_pp(node.lhs, _P_ATOM)}^{_fmt_num(node.rhs.value)}"
        return f"({text})" if context > _P_POW else text
    if node.op in "+-":
        text = f"{_pp(node.lhs, _P_SUM)} {node.op} {_pp(node.rhs, _P_SUM + 1)}"
        return f"({text})" if context > _P_SUM else text
    text = f"{_pp(node.lhs, _P_TERM)} {node.op} {_pp(node.rhs, _P_TERM + 1)}"
    return f"({text})" if context > _P_TERM else text


def pretty(node: ExprAst) -> str:
    """Canonical source form; re-parsing yields a structurally equal tree."""
    return _pp(node, _P_SUM)


def _value(x):
    """A jet's value or the float itself: floats and jets fail alike."""
    return x.coeffs[..., 0] if isinstance(x, jets.Jet) else x


def _power(base, exponent: float):
    value = _value(base)
    # Jet.__pow__ checks a jet's base; a float base may be zero, as in 0^0.5
    if not (float(exponent).is_integer() or isinstance(base, jets.Jet)):
        jets.check_domain(np.less(value, 0.0), value, "fractional power of a negative base {}")
    if exponent < 0.0:
        jets.check_domain(np.equal(value, 0.0), value, "zero base with negative exponent",
                          jets.DivisionByZero)
    return base ** exponent


def _divide(lhs, rhs):
    value = _value(rhs)
    jets.check_domain(np.equal(value, 0.0), value, "division by zero", jets.DivisionByZero)
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
    is computed once per call.  A table is kept as its shape, the flat list
    of its entries' step numbers and, folded, its literal entries (a number
    or a negated one): a read-only float array.  ``plan(env)`` returns each
    table with the variables' leading shape (the points' axes) first and, if
    they are jets, as a jet of their one algebra: the folded array broadcast
    if it is all literals, else a copy of it with the other entries written
    in by one store.  Jets of two algebras are a ``ValueError``.
    """

    def __init__(self, tables):
        self.steps: list[tuple] = []
        index = {}  # step key -> step number
        self.layouts = [_layout(table, index, self.steps) for table in tables]
        literals = {}  # entry step -> value, for a number or a negated one
        for step in {step for _, flat in self.layouts for step in flat}:
            op, arg = self.steps[step][:2]
            if op == "num" or op == "neg" and self.steps[arg][0] == "num":
                literals[step] = arg if op == "num" else -self.steps[arg][1]
        self._tables = []  # (the literals in the table's shape, positions computed, their steps)
        for shape, flat in self.layouts:
            where = [i for i, step in enumerate(flat) if step not in literals]
            constant = np.array([literals.get(step, 0.0) for step in flat]).reshape(shape)
            constant.flags.writeable = False
            self._tables.append((constant, where, [flat[i] for i in where]))

    def __call__(self, env: Mapping[str, object]) -> list:
        algebras = {v.alg for v in env.values() if isinstance(v, jets.Jet)}
        if len(algebras) > 1:
            raise ValueError("jets of different seed sets or orders")
        alg = algebras.pop() if algebras else None
        shapes = {v.coeffs.shape[:-1] if isinstance(v, jets.Jet) else np.shape(v) for v in env.values()}
        lead = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        values = _fill(self.steps, env)
        return [_assemble(constant, where, [values[s] for s in computed], lead, alg)
                for constant, where, computed in self._tables]


def _assemble(constant: np.ndarray, where: list, leaves: list, lead: tuple, alg):
    """A table of leading shape ``lead`` from its literals and the values of
    its computed entries: a jet in the algebra ``alg``, or floats if it is None."""
    if not leaves:
        table = np.broadcast_to(constant, lead + constant.shape)
        return table if alg is None else jets._constant(alg, table)
    if alg is not None:
        leaves = [e.coeffs if isinstance(e, jets.Jet) else jets._constant(alg, e).coeffs for e in leaves]
    full = lead if alg is None else lead + (alg.size,)
    leaves = [e if np.shape(e) == full else np.broadcast_to(e, full) for e in leaves]
    # entries first, coefficients last (a float is its value) for the one store
    computed = np.array(leaves)[..., None] if alg is None else np.array(leaves)
    out, k = np.zeros((constant.size,) + computed.shape[1:]), len(lead)
    out[..., 0], out[where] = constant.reshape((-1,) + (1,) * k), computed
    out = np.ascontiguousarray(out.transpose(*range(1, k + 1), 0, k + 1))
    out = out.reshape(lead + constant.shape + computed.shape[-1:])
    return out[..., 0] if alg is None else jets.Jet(alg, out)


def _layout(table, index: dict, steps: list) -> tuple:
    """The shape of a table (a node, or nested tuples of them) and the flat
    list of its entries' step numbers."""
    if type(table) is not tuple:
        return (), [_compile(table, index, steps)]
    if table and type(table[0]) is tuple:
        parts = [_layout(row, index, steps) for row in table]
        if len({shape for shape, _ in parts}) > 1:
            raise ValueError("the rows of a table differ in shape")
        return (len(parts),) + parts[0][0], [step for _, flat in parts for step in flat]
    return (len(table),), [_compile(node, index, steps) for node in table]


def _compile(entry, index: dict, steps: list) -> int:
    """The step number of a node, adding the steps it needs to ``steps`` and
    their keys to ``index``."""
    kind = type(entry)  # by frequency in long sums of products
    if kind is BinOp:
        key = (entry.op, _compile(entry.lhs, index, steps), _compile(entry.rhs, index, steps))
    elif kind is Num:
        key = ("num", entry.value, math.copysign(1.0, entry.value))
    elif kind is Var:
        key = ("var", entry.name)
    elif kind is Call:
        key = (entry.fn, _compile(entry.arg, index, steps))
    elif kind is Neg:
        key = ("neg", _compile(entry.arg, index, steps))
    else:
        raise TypeError(f"{entry!r} is not an expression or a table of them")
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
