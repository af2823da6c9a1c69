"""Truncated multivariate Taylor arithmetic on arrays (jets).

A :class:`Jet` carries the value and all partial derivatives, up to a fixed
total order, of a scalar or of an array of scalars with respect to a fixed
set of seed directions.  The coefficients sit on the last axis of
``coeffs``; any leading shape is allowed, so a vector field along a
submanifold is one jet of shape ``(N,)`` and a metric one of shape
``(N, N)``; the fields of P sample points at once carry one more leading
axis, ``(P, N)`` and ``(P, N, N)``.  Jets index and iterate over their
leading axes like the nested lists they stand for (``g[i][j]`` is a scalar
jet, ``g[..., i, j]`` the same entry at every point), and arithmetic
broadcasts over those axes the way numpy does.  Every derivative downstream
code reads off is exact up to machine roundoff rather than a difference
approximation.

Coefficients use the Taylor normalization: the entry stored for the
multi-index ``alpha`` is ``(d^alpha f) / alpha!``.  A product gathers the
coefficient pairs whose degrees fit the carried order and scatters their
products with one matrix multiplication through the cached table of
:meth:`_Algebra.mul_table`.  :func:`einsum` contracts field axes the same
way, so a metric contraction over all components is one numpy call, and the
Hessian's index table sits on the algebra too.  An elementary function is
Horner's scheme in the derivative part, whose innermost step is a scalar
multiple; a float operand scales or shifts the coefficients directly.

Gathers and contractions keep the coefficient axis innermost and C-ordered.
A gather is ``ndarray.take`` along the last axis, which returns a C-ordered
array; indexing ``c[..., idx]`` would put the gathered axis outermost in
memory, and the contraction after it would then run its inner loop across
a stride of the whole array.  Products, contractions and derivatives also
return C-ordered coefficient arrays, so the next gather reads contiguous
rows.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Jet", "InsufficientJetOrder", "DomainError", "DivisionByZero", "check_domain",
    "seed_point", "array", "stack", "partial", "einsum", "sin", "cos", "exp", "sqrt",
]

_Number = (int, float, np.integer, np.floating)
_CONST = (int, float, np.integer, np.floating, np.ndarray)
_COEFF_AXIS = "Z"  # einsum letter of the coefficient axis; specs may not use it


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
        ``(..., k)``; unchanged if it did not occur at one of those points."""
        points = np.asarray(points)
        if len(self.index) != points.ndim - 1:
            return self
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
    """Multiplication and derivative tables for one (nvars, order) pair.

    Exponent tuples are enumerated by total degree, so the coefficient
    layout of a lower order is a prefix of every higher order over the same
    variables; truncation is a slice.
    """

    __slots__ = ("nvars", "order", "exps", "index", "size", "_mul", "_diff", "_hess")

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        # by total degree, then with the first variable's exponent highest
        exps = [e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order]
        self.exps = tuple(sorted(exps, key=lambda e: (sum(e), [-x for x in e])))
        self.index = {e: i for i, e in enumerate(self.exps)}
        self.size = len(self.exps)
        self._mul = None
        self._diff: dict[int, tuple] = {}
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

    def diff_table(self, var: int):
        """``(src, fac)``: coefficient k of the derivative is ``c[src[k]] * fac[k]``."""
        if var not in self._diff:
            small = np.array(_algebra(self.nvars, self.order - 1).exps)
            lifted = small + np.eye(self.nvars, dtype=int)[var]
            src = np.array([self.index[tuple(e)] for e in lifted])
            self._diff[var] = (src, lifted[:, var].astype(float))
        return self._diff[var]

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

    def coefficient(self, exponents: Sequence[int]):
        key = tuple(exponents)
        if key not in self.alg.index:
            raise InsufficientJetOrder(f"multi-index {key} is not carried at order {self.order}")
        c = self.coeffs[..., self.alg.index[key]]
        return float(c) if c.ndim == 0 else c.copy()

    def derivative(self, exponents: Sequence[int]):
        return self.coefficient(exponents) * math.prod(math.factorial(e) for e in exponents)

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

    def swapaxes(self, a: int, b: int) -> "Jet":
        """Swap two leading axes; negative axes count from the last leading axis."""
        a, b = (x - 1 if x < 0 else x for x in (a, b))
        return Jet(self.alg, self.coeffs.swapaxes(a, b))

    def __getitem__(self, index) -> "Jet":
        """Index the leading axes; with an ``...`` the index ends at the last one."""
        index = index if isinstance(index, tuple) else (index,)
        if any(i is Ellipsis for i in index):
            index += (slice(None),)
        elif not self.shape:
            raise TypeError("a scalar jet cannot be indexed")
        return Jet(self.alg, self.coeffs[index])

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("a scalar jet has no length")
        return self.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self) -> str:
        return f"Jet(order={self.order}, nvars={self.nvars}, shape={self.shape})"

    # ---- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        """(algebra, own coefficients, the other's coefficients), or None."""
        if isinstance(other, Jet):
            if other.alg is self.alg:
                return self.alg, self.coeffs, other.coeffs
            a, b = _align(self, other)
            return a.alg, a.coeffs, b.coeffs
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
            a, b = _align(self, other)
            ia, ib, scatter = a.alg.mul_table()
            return Jet(a.alg, (a.coeffs.take(ia, axis=-1) * b.coeffs.take(ib, axis=-1)) @ scatter)
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

    def __pos__(self):
        return self

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


def _align(a: Jet, b: Jet) -> tuple[Jet, Jet]:
    if a.alg is b.alg:
        return a, b
    if a.alg.nvars != b.alg.nvars:
        raise ValueError("jets carry different seed sets")
    m = min(a.order, b.order)
    return a.truncate(m), b.truncate(m)


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


def _nesting(entries) -> tuple[tuple[int, ...], list]:
    """The shape of a regular nested list and its leaves in row-major order."""
    if not isinstance(entries, (list, tuple)):
        return (), [entries]
    parts = [_nesting(e) for e in entries]
    if len({shape for shape, _ in parts}) > 1:
        raise ValueError("nested entries are not regular")
    inner = parts[0][0] if parts else ()
    return (len(parts),) + inner, [leaf for _, leaves in parts for leaf in leaves]


def array(entries):
    """The leaves of a nested list, stacked by :func:`stack` to its shape."""
    return stack(*_nesting(entries))


def stack(shape: tuple[int, ...], leaves: list):
    """The flat ``leaves`` (jets, numbers and float arrays, row-major) as one
    table of trailing ``shape``.

    The leaves broadcast to their common shape, which leads.  A table of
    scalar expressions evaluated at a batch of points is so one field of
    leading shape ``(P, ...)``, whatever entries are constant.  The result
    carries the lowest order among the jets; without any jet it is a float
    array.
    """
    outer = np.broadcast_shapes(*(e.shape if isinstance(e, Jet) else np.shape(e) for e in leaves))
    found = [e for e in leaves if isinstance(e, Jet)]
    if not found:
        out = np.empty(outer + (len(leaves),))
        for i, e in enumerate(leaves):
            out[..., i] = e
        return out.reshape(outer + shape)
    if len({j.nvars for j in found}) > 1:
        raise ValueError("jets carry different seed sets")
    alg = _algebra(found[0].nvars, min(j.order for j in found))
    # a number fills coefficient 0 of its zero row
    out = np.zeros(outer + (len(leaves), alg.size))
    for i, e in enumerate(leaves):
        if isinstance(e, Jet):
            out[..., i, :] = e.coeffs[..., : alg.size]
        else:
            out[..., i, 0] = e
    return Jet(alg, out.reshape(outer + shape + (alg.size,)))


def partial(j: Jet, var: int) -> Jet:
    """Partial derivative along one seed direction; drops one order."""
    if j.order < 1:
        raise InsufficientJetOrder("cannot differentiate an order-0 jet")
    if not 0 <= var < j.nvars:
        raise ValueError(f"direction {var} invalid for {j.nvars} seed directions")
    src, fac = j.alg.diff_table(var)
    return Jet(_algebra(j.nvars, j.order - 1), j.coeffs.take(src, axis=-1) * fac)


def einsum(spec: str, a, b):
    """``np.einsum(spec, a, b)`` over the field axes, for jets or float arrays.

    ``spec`` names the leading axes only and must give the output explicitly
    (``"ij,j->i"``).  Two jets contract through the multiplication table in
    one call.  A float array against a jet (or a float array) is one matmul
    over one axis ``c``: with the other operand's axes ``P c S`` the output
    must be ``P A S``, ``A`` the float's other axes; ``S`` empty is ``a @ coeffs``.
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    if isinstance(a, Jet) and isinstance(b, Jet):
        z = _COEFF_AXIS
        a, b = _align(a, b)
        ia, ib, scatter = a.alg.mul_table()
        pa, pb = a.coeffs.take(ia, axis=-1), b.coeffs.take(ib, axis=-1)
        pairs = np.einsum(f"{sa}{z},{sb}{z}->{out}{z}", pa, pb)
        return Jet(a.alg, pairs @ scatter)
    if isinstance(a, Jet):  # the float operand first
        (a, sa), (b, sb) = (b, sb), (a, sa)
    sa, sb, out = (x.replace("...", "") for x in (sa, sb, out))
    shared = set(sa) & set(sb)
    k = sb.index(shared.pop()) if len(shared) == 1 else -1  # the contracted axis in b
    if k < 0 or out != sb[:k] + sa.replace(sb[k], "") + sb[k + 1 :]:
        raise ValueError(f"{spec!r} is not a single-axis matrix product")
    a = np.asarray(a, dtype=float)
    if sa[-1] != sb[k]:  # the contracted axis last
        a = np.moveaxis(a, sa.index(sb[k]) - len(sa), -1)
    inner = a.shape[a.ndim - len(sa) : -1]
    a = a.reshape(a.shape[: a.ndim - len(sa)] + (1,) * k + (math.prod(inner), a.shape[-1]))
    coeffs = b.coeffs if isinstance(b, Jet) else np.asarray(b, dtype=float)[..., None]
    cut = coeffs.ndim - len(sb) + k  # the axes up to the contracted one
    tail = coeffs.shape[cut:]
    # in C order: a permuted operand would otherwise lay the product out like itself
    product = np.matmul(a, coeffs.reshape(coeffs.shape[:cut] + (math.prod(tail),)), order="C")
    product = product.reshape(product.shape[:-2] + inner + tail)
    return Jet(b.alg, product) if isinstance(b, Jet) else product[..., 0]


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
