"""Truncated multivariate Taylor arithmetic on arrays (jets).

A :class:`Jet` carries the value and all partial derivatives, up to a fixed
total order, of a scalar or of an array of scalars with respect to a fixed
set of seed directions.  The coefficients sit on the last axis of
``coeffs``; any leading shape is allowed, so a vector field along a
submanifold is one jet of shape ``(N,)``, assembled from a table of
expressions by :class:`prodgeo.expr.Plan`, and the fields of P points carry
one more leading axis, ``(P, N)``.  Arithmetic broadcasts the way numpy
does, and two jets meet only in one algebra, the same seed directions and
order (else a ``ValueError``).  Every derivative read off (:attr:`Jet.value`,
:meth:`Jet.gradient`, :meth:`Jet.hessian`) is exact to roundoff, not a
difference approximation.

Coefficients use the Taylor normalization: the entry stored for the
multi-index ``alpha`` is ``(d^alpha f) / alpha!``.  A product gathers the
coefficient pairs whose degrees fit the carried order and scatters their
products with one matrix multiplication through the cached table of
:meth:`_Algebra.mul_table`, and the Hessian's index table sits on the
algebra too.  An elementary function is Horner's scheme in the derivative
part, whose innermost step is a scalar multiple; a float operand scales or
shifts the coefficients directly.

Gathers keep the coefficient axis innermost and C-ordered.  A gather is
``ndarray.take`` along the last axis, which returns a C-ordered array;
indexing ``c[..., idx]`` would put the gathered axis outermost in memory,
and the product after it would then run its inner loop across a stride of
the whole array.  Products also return C-ordered coefficient arrays, so the
next gather reads contiguous rows.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Jet", "InsufficientJetOrder", "DomainError", "DivisionByZero", "check_domain",
    "seed_point", "sin", "cos", "exp", "sqrt",
]

_Number = (int, float, np.integer, np.floating)
_CONST = (int, float, np.integer, np.floating, np.ndarray)


class InsufficientJetOrder(ValueError):
    """A jet does not carry enough derivative orders for the requested operation."""


class DomainError(ValueError):
    """An operation left its domain at some entry of its operand.

    ``index`` locates the first offending entry among the operand's leading
    axes, so a caller that evaluated a batch of sample points can name the
    point (:meth:`at`).
    """

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index

    def at(self, name: str, points) -> "DomainError":
        """This error naming ``name = points[index]`` for ``points`` of shape
        ``(..., k)``, or every ``name`` if its operand did not vary with them."""
        points = np.asarray(points)
        if len(self.index) != points.ndim - 1:
            return type(self)(f"{self} at every {name}", self.index)
        where = tuple(float(v) for v in points[self.index])
        return type(self)(f"{self} at {name} = {where}", self.index)


class DivisionByZero(DomainError, ZeroDivisionError):
    """Division by zero, or a zero base raised to a negative power."""


def check_domain(bad, values, message: str, error=DomainError) -> None:
    """Raise ``error`` at the first entry where ``bad`` holds.

    ``message`` is formatted with the offending entry of ``values``.
    """
    bad = np.asarray(bad)
    if bad.any():
        index = np.unravel_index(np.argmax(bad), bad.shape)
        raise error(message.format(float(np.asarray(values)[index])), index)


class _Algebra:
    """Multiplication and Hessian tables for one (nvars, order) pair.

    Exponent tuples are enumerated by total degree, so the coefficient
    layout of a lower order is a prefix of every higher order over the same
    variables; truncation is a slice.
    """

    __slots__ = ("nvars", "order", "exps", "index", "size", "_mul", "_hess")

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        # by total degree, then with the first variable's exponent highest
        exps = [e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order]
        self.exps = tuple(sorted(exps, key=lambda e: (sum(e), [-x for x in e])))
        self.index = {e: i for i, e in enumerate(self.exps)}
        self.size = len(self.exps)
        self._mul = None
        self._hess = None

    def mul_table(self):
        """``(ia, ib, scatter)``: the coefficient pairs of a product whose
        degrees fit the order, and the 0/1 matrix adding each pair's product
        into its output coefficient."""
        if self._mul is None:
            exps = np.array(self.exps)
            degree = exps.sum(axis=1)
            ia, ib = np.nonzero(degree[:, None] + degree[None, :] <= self.order)
            scatter = np.zeros((len(ia), self.size))
            scatter[np.arange(len(ia)), [self.index[tuple(e)] for e in exps[ia] + exps[ib]]] = 1.0
            self._mul = (ia, ib, scatter)
        return self._mul

    def hessian_table(self):
        """``(index, scale)``: each pair's coefficient and its factor (2 if pure)."""
        if self._hess is None:
            unit = np.eye(self.nvars, dtype=int)
            index = np.array([[self.index[tuple(a + b)] for b in unit] for a in unit])
            self._hess = (index, 1.0 + np.eye(self.nvars))
        return self._hess


@lru_cache(maxsize=None)
def _algebra(nvars: int, order: int) -> _Algebra:
    if nvars < 1:
        raise ValueError("a jet needs at least one seed direction")
    if order < 0:
        raise ValueError("jet order must be non-negative")
    return _Algebra(nvars, order)


class Jet:
    """Values plus exact derivatives of an array of scalars, up to a fixed total order."""

    __slots__ = ("alg", "coeffs")
    __array_ufunc__ = None  # numpy operands defer to the jet's operators

    def __init__(self, alg: _Algebra, coeffs: np.ndarray):
        self.alg = alg
        self.coeffs = coeffs

    # ---- introspection -------------------------------------------------

    @property
    def order(self) -> int:
        return self.alg.order

    @property
    def nvars(self) -> int:
        return self.alg.nvars

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    @property
    def value(self):
        """The value: a float for a scalar jet, an array for an array jet."""
        v = self.coeffs[..., 0]
        return float(v) if v.ndim == 0 else v.copy()

    def gradient(self) -> np.ndarray:
        """First partial derivatives along every seed direction (last axis)."""
        if self.order < 1:
            raise InsufficientJetOrder("order-0 jet has no first derivatives")
        return self.coeffs[..., 1 : 1 + self.nvars].copy()

    def hessian(self) -> np.ndarray:
        """Second partial derivatives along every pair of seed directions (last
        two axes): a mixed one is its coefficient, a pure one twice it."""
        if self.order < 2:
            raise InsufficientJetOrder("a jet below order 2 has no second derivatives")
        index, scale = self.alg.hessian_table()
        return self.coeffs.take(index, axis=-1) * scale

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise InsufficientJetOrder(f"cannot raise jet order from {self.order} to {order}")
        if order == self.order:
            return self
        alg = _algebra(self.nvars, order)
        return Jet(alg, self.coeffs[..., : alg.size].copy())

    def __repr__(self) -> str:
        return f"Jet(order={self.order}, nvars={self.nvars}, shape={self.shape})"

    # ---- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        """(algebra, own coefficients, the other's coefficients), or None."""
        if isinstance(other, Jet):
            if other.alg is not self.alg:
                raise ValueError("jets of different seed sets or orders")
            return self.alg, self.coeffs, other.coeffs
        if isinstance(other, _CONST):
            return self.alg, self.coeffs, _constant(self.alg, other).coeffs
        return None

    def __add__(self, other):
        if isinstance(other, float):  # what adding a constant jet computes
            out = self.coeffs + 0.0
            out[..., 0] = self.coeffs[..., 0] + other
            return Jet(self.alg, out)
        c = self._coerce(other)
        return NotImplemented if c is None else Jet(c[0], c[1] + c[2])

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        return NotImplemented if c is None else Jet(c[0], c[1] - c[2])

    def __rsub__(self, other):
        c = self._coerce(other)
        return NotImplemented if c is None else Jet(c[0], c[2] - c[1])

    def __mul__(self, other):
        if isinstance(other, float):
            return Jet(self.alg, self.coeffs * other)
        if isinstance(other, Jet):
            if other.alg is not self.alg:
                raise ValueError("jets of different seed sets or orders")
            ia, ib, scatter = self.alg.mul_table()
            return Jet(self.alg, (self.coeffs.take(ia, axis=-1) * other.coeffs.take(ib, axis=-1)) @ scatter)
        if isinstance(other, _CONST):
            return Jet(self.alg, self.coeffs * np.asarray(other, dtype=float)[..., None])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, _CONST):
            return self * (1.0 / np.asarray(other, dtype=float))
        return NotImplemented

    def __rtruediv__(self, other):
        return self._reciprocal() * other if isinstance(other, _CONST) else NotImplemented

    def __neg__(self):
        return Jet(self.alg, -self.coeffs)

    def __pow__(self, power):
        if not isinstance(power, _Number):
            return NotImplemented
        q = float(power)
        if q.is_integer():
            k = int(q)
            base = self if k >= 0 else self._reciprocal()
            k = abs(k)
            result = _constant(self.alg, 1.0)
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        if (2.0 * q).is_integer():
            v = self.coeffs[..., 0]
            check_domain(v <= 0.0, v, "half-integer power needs a positive base value, got {}")
            ders, c = [], 1.0
            for k in range(self.order + 1):
                ders.append(c * v ** (q - k))
                c *= q - k
            return _analytic(self, ders)
        raise ValueError("only integer and half-integer exponents are supported")

    def _reciprocal(self) -> "Jet":
        v = self.coeffs[..., 0]
        check_domain(v == 0.0, v, "division by a jet with zero value", DivisionByZero)
        ders = [(-1.0) ** k * math.factorial(k) / v ** (k + 1) for k in range(self.order + 1)]
        return _analytic(self, ders)


def _constant(alg: _Algebra, value) -> Jet:
    v = np.asarray(value, dtype=float)
    c = np.zeros(v.shape + (alg.size,))
    c[..., 0] = v
    return Jet(alg, c)


def _analytic(j: Jet, derivatives: Sequence) -> Jet:
    """Compose a scalar analytic function with a jet, element by element.

    ``derivatives[k]`` is the k-th derivative of the function at the values
    of ``j``.  Uses a Horner scheme in the derivative part ``z`` of ``j``
    (coefficient 0 is ``v - v``: zero, or NaN where ``v`` is not finite):
    the innermost step ``z * c_K`` is a scalar multiple, each later one a product.
    """
    if j.order == 0:
        return _constant(j.alg, derivatives[0])
    zero_part = Jet(j.alg, j.coeffs.copy())
    zero_part.coeffs[..., 0] -= j.coeffs[..., 0]
    ck = [d / math.factorial(k) if k > 1 else d for k, d in enumerate(derivatives)]
    result = Jet(j.alg, zero_part.coeffs * np.asarray(ck[-1])[..., None])
    result.coeffs[..., 0] += ck[-2]
    for k in range(j.order - 2, -1, -1):
        result = result * zero_part
        result.coeffs[..., 0] += ck[k]
    return result


# ---- construction ------------------------------------------------------


def seed_point(values, order: int) -> list[Jet]:
    """Seed one jet per coordinate, each along its own direction.

    ``values`` has shape ``(..., n)``: one point, or a batch of points whose
    leading shape every seeded jet carries.
    """
    values = np.asarray(values, dtype=float)
    if order < 1:
        raise InsufficientJetOrder("seeding a variable requires order >= 1")
    alg = _algebra(values.shape[-1], order)
    seeds = []
    for i in range(alg.nvars):
        j = _constant(alg, values[..., i])
        j.coeffs[..., 1 + i] = 1.0
        seeds.append(j)
    return seeds


# ---- elementary functions (work on floats, float arrays and jets) --------


def _trig(x: Jet, shift: int) -> Jet:
    """sin (shift 0) or cos (shift 1): the derivatives cycle through four values."""
    v = x.coeffs[..., 0]
    s, c = np.sin(v), np.cos(v)
    cycle = (s, c, -s, -c)
    return _analytic(x, [cycle[(k + shift) % 4] for k in range(x.order + 1)])


def sin(x):
    return _trig(x, 0) if isinstance(x, Jet) else np.sin(x)


def cos(x):
    return _trig(x, 1) if isinstance(x, Jet) else np.cos(x)


def exp(x):
    if isinstance(x, Jet):
        return _analytic(x, [np.exp(x.coeffs[..., 0])] * (x.order + 1))
    return np.exp(x)


def sqrt(x):
    v = x.coeffs[..., 0] if isinstance(x, Jet) else x
    check_domain(np.less(v, 0.0), v, "sqrt needs a non-negative value, got {}")
    if isinstance(x, Jet):  # its derivatives also need a value off zero
        check_domain(v == 0.0, v, "sqrt needs a positive jet value, got {}")
        return x ** 0.5
    return np.sqrt(x)
