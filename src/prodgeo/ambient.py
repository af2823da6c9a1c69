"""Ambient almost-product Riemannian spaces.

Models a chart of the ambient manifold by component expressions: a metric
``g_ij(x)`` and a (1,1) structure tensor ``F^i_j(x)`` with ``F^2 = I`` and
``g(FX, FY) = g(X, Y)``.  Provides the canonical block constructor (constant
``F = diag(+1.., -1..)`` over a block metric, which is parallel by
construction), the metric derivatives as expressions, Christoffel symbols
over floats or jets, covariant differentiation along curves, and pointwise
validation that a hand-written space really is locally
product: the validator measures ``F^2 - I``, the metric compatibility
defect, and ``(nabla_X F) Y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import expr as ex
from . import jets

__all__ = [
    "AmbientSpace",
    "AmbientValidationReport",
    "SingularMetric",
    "BlockVariableLeak",
    "ambient_vars",
    "flat_block",
    "product_of",
    "christoffel",
    "levi_civita",
    "positive_definite",
    "ambient_cov_derivative",
    "validate_ambient",
]


class SingularMetric(ValueError):
    """Metric is singular or not positive definite at the evaluation point."""


class BlockVariableLeak(ValueError):
    """A product block references the other block's coordinates."""


def ambient_vars(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def _as_expr(entry) -> ex.ExprAst:
    if isinstance(entry, str):
        return ex.parse(entry)
    return entry


def _as_matrix(rows, dim: int, what: str) -> tuple[tuple[ex.ExprAst, ...], ...]:
    parsed = tuple(tuple(_as_expr(e) for e in row) for row in rows)
    if len(parsed) != dim or any(len(row) != dim for row in parsed):
        raise ValueError(f"{what} must be a {dim}x{dim} matrix of expressions")
    return parsed


def _evaluate(rows, env):
    if isinstance(rows, tuple):
        return [_evaluate(row, env) for row in rows]
    return ex.evaluate(rows, env)


@dataclass(frozen=True)
class AmbientSpace:
    """Chart dimension plus metric and structure component expressions.

    ``metric_diff[l][i][j]`` and ``structure_diff[l][i][j]`` hold the
    partial derivatives of ``g_ij`` and ``F^i_j`` along ``x(l+1)``, zero
    folded, so a flat block contributes plain ``Num(0)`` entries.
    """

    dim: int
    metric: tuple[tuple[ex.ExprAst, ...], ...]
    structure: tuple[tuple[ex.ExprAst, ...], ...]
    product_split: tuple[int, int] | None = field(default=None)
    metric_diff: tuple = field(init=False, repr=False, compare=False)
    structure_diff: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "metric", _as_matrix(self.metric, self.dim, "metric"))
        object.__setattr__(
            self, "structure", _as_matrix(self.structure, self.dim, "structure")
        )
        allowed = set(ambient_vars(self.dim))
        for name, matrix in (("metric", self.metric), ("structure", self.structure)):
            used = frozenset().union(*(ex.variables(e) for row in matrix for e in row))
            if not used <= allowed:
                raise ex.UnknownVariable(sorted(used - allowed)[0])
            d = tuple(tuple(tuple(ex.diff(e, x) for e in row) for row in matrix)
                      for x in ambient_vars(self.dim))
            object.__setattr__(self, f"{name}_diff", d)
        for i in range(self.dim):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise ValueError("metric component matrix must be symmetric")

    @cached_property
    def _constants(self) -> dict[str, np.ndarray]:
        """The expression tables that do not depend on x, evaluated once."""
        constants = {}
        for name in ("metric", "structure", "metric_diff", "structure_diff"):
            try:
                constants[name] = np.array(_evaluate(getattr(self, name), {}), dtype=float)
            except ex.UnknownVariable:
                pass
        return constants

    def _table(self, name: str, x):
        """An expression table at the points ``x``.

        ``x`` has shape ``(..., dim)`` (floats or a jet) or is a list of
        coordinates.  The result is a jet or float array with the points'
        leading shape; a constant table is a float array of the table's own
        shape, which broadcasts over any points.
        """
        if isinstance(x, (list, tuple)):
            x = jets.array(list(x))
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected a point with {self.dim} coordinates")
        if name in self._constants:
            return self._constants[name].copy()
        env = {name: x[..., i] for i, name in enumerate(ambient_vars(self.dim))}
        return jets.array(_evaluate(getattr(self, name), env))

    def metric_at(self, x) -> np.ndarray:
        return self._table("metric", np.asarray(x, dtype=float))

    def structure_at(self, x) -> np.ndarray:
        return self._table("structure", np.asarray(x, dtype=float))

    def metric_jets(self, x):
        return self._table("metric", x)

    def structure_jets(self, x):
        return self._table("structure", x)

    def metric_derivatives(self, x):
        """``dg[l, i, j] = d g_ij / d x^l`` at ``x`` (floats or jets)."""
        return self._table("metric_diff", x)


def flat_block(dim: int) -> tuple[tuple[ex.ExprAst, ...], ...]:
    """Identity metric block."""
    return tuple(
        tuple(ex.Num(1.0 if i == j else 0.0) for j in range(dim)) for i in range(dim)
    )


def product_of(block_a, p: int, block_b, q: int) -> AmbientSpace:
    """Canonical locally product space: block metric, constant F = diag(+1*p, -1*q).

    ``block_a``/``block_b`` are metric expression matrices, or the string
    ``"flat"``.  Block A may reference only ``x1..xp``, block B only
    ``x(p+1)..x(p+q)``; the constant structure tensor is then parallel by
    construction.
    """
    if p < 1 or q < 1:
        raise ValueError("both product blocks need positive dimension")
    dim = p + q
    a_rows = flat_block(p) if isinstance(block_a, str) and block_a == "flat" else _as_matrix(block_a, p, "block A")
    b_rows = flat_block(q) if isinstance(block_b, str) and block_b == "flat" else _as_matrix(block_b, q, "block B")

    a_vars = set(ambient_vars(dim)[:p])
    b_vars = set(ambient_vars(dim)[p:])
    for rows, allowed, name in ((a_rows, a_vars, "block A"), (b_rows, b_vars, "block B")):
        used = frozenset().union(*(ex.variables(e) for row in rows for e in row))
        if not used <= allowed:
            leak = sorted(used - allowed)[0]
            raise BlockVariableLeak(f"{name} references coordinate {leak!r}")

    zero = ex.Num(0.0)
    metric = tuple(
        tuple(
            a_rows[i][j]
            if i < p and j < p
            else b_rows[i - p][j - p]
            if i >= p and j >= p
            else zero
            for j in range(dim)
        )
        for i in range(dim)
    )
    one, minus_one = ex.Num(1.0), ex.Neg(ex.Num(1.0))
    structure = tuple(
        tuple(
            (one if i < p else minus_one) if i == j else zero for j in range(dim)
        )
        for i in range(dim)
    )
    return AmbientSpace(dim, metric, structure, product_split=(p, q))


@lru_cache(maxsize=None)
def _leading_blocks(dim: int) -> np.ndarray:
    """Masks of the leading principal submatrices, stacked: (dim, dim, dim)."""
    k = np.arange(dim)
    inside = k[None, :] <= k[:, None]  # row j: the first j + 1 indices
    return inside[:, :, None] & inside[:, None, :]


def positive_definite(g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Mask over the leading axes of ``g`` (shape ``(..., N, N)``): finite
    with every LDL^T pivot above ``tol``.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading principal
    minor, so the test needs no factorization that could fail part way
    through a batch; with ``tol >= 0`` every pivot above it keeps the next
    divisor positive.
    """
    ok = np.isfinite(g).all(axis=(-2, -1))
    identity = np.eye(g.shape[-1])
    g = np.where(ok[..., None, None], g, identity)
    minors = np.linalg.det(np.where(_leading_blocks(g.shape[-1]), g[..., None, :, :], identity))
    pivots_ok = (minors[..., 0] > tol) & np.all(minors[..., 1:] > tol * minors[..., :-1], axis=-1)
    return ok & pivots_ok


def _assert_positive_definite(g: np.ndarray, tol: float = 1e-10):
    if not positive_definite(g, tol):
        if not np.isfinite(g).all():
            raise SingularMetric("metric is not finite at the sample point")
        raise SingularMetric("metric is not positive definite at the sample point")


def levi_civita(ginv, dg):
    """Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk), floats or jets.

    ``ginv`` is the inverse metric and ``dg[..., l, i, j] = d g_ij / d x^l``,
    both with any leading point axes; the result is symmetric in the lower
    indices.
    """
    swapped = dg.swapaxes(-3, -2)  # d_j g_lk at [l, j, k]
    lowered = swapped + swapped.swapaxes(-2, -1) - dg
    return 0.5 * jets.einsum("...il,...ljk->...ijk", ginv, lowered)


def christoffel(space: AmbientSpace, x: Sequence[float]) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma^i_{jk} at a point."""
    x = [float(v) for v in x]
    g0 = space.metric_at(x)
    _assert_positive_definite(g0)
    return levi_civita(np.linalg.inv(g0), space.metric_derivatives(x))


def ambient_cov_derivative(
    space: AmbientSpace,
    x0: Sequence[float],
    v: Sequence[jets.Jet],
    velocity: Sequence[float],
) -> np.ndarray:
    """Covariant derivative of a vector field given along a curve.

    ``v`` holds the field components as jets whose first seed direction is
    the curve parameter; ``velocity`` is the curve velocity at the base
    point ``x0``.
    """
    field = jets.array(list(v))
    dv = field.gradient()[:, 0]  # raises InsufficientJetOrder at order 0
    xdot = np.asarray(velocity, dtype=float)
    return dv + np.einsum("ijk,j,k->i", christoffel(space, x0), xdot, field.value)


@dataclass(frozen=True)
class AmbientValidationReport:
    max_f_squared_residual: float
    max_compat_residual: float
    max_parallel_residual: float
    positive_definite: bool
    f_is_identity: bool
    passed: bool
    tol: float = 1e-8
    residuals_finite: bool = True


def validate_ambient(
    space: AmbientSpace, samples: Sequence[Sequence[float]]
) -> AmbientValidationReport:
    """Measure the locally-product defects at sample points.

    Reports the largest residuals of ``F^2 - I``, metric compatibility and
    ``(nabla_X F) Y`` over the samples and the coordinate directions X, Y.
    The expression tables are evaluated for all samples at once.  Failures
    are reported, not thrown.  A non-finite metric is not positive definite;
    a sample whose residuals are not finite (from a non-finite metric,
    structure or derivative, or an overflow) fails the report and stays out
    of its residuals.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        x = x.reshape(0, space.dim)
    shape = (len(x), space.dim, space.dim)
    identity = np.eye(space.dim)
    residuals = np.zeros((len(x), 3))  # F^2 - I, compatibility, (nabla_X F) Y
    # overflow and NaN are detected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            g = np.broadcast_to(space.metric_at(x), shape)
            f = np.broadcast_to(space.structure_at(x), shape)
        except jets.DomainError as err:
            raise err.at("x", x) from None
        definite = positive_definite(g, 1e-10)
        ft = f.swapaxes(-2, -1)
        residuals[:, 0] = np.max(np.abs(f @ f - identity), axis=(-2, -1))
        residuals[:, 1] = np.max(np.abs(ft @ g @ f - g), axis=(-2, -1))
        if definite.any():
            # the derivative tables only where the metric is positive definite
            xd, gd, fd = x[definite], g[definite], f[definite][:, None]
            try:
                dg = space.metric_derivatives(xd)
                df = space._table("structure_diff", xd)
            except jets.DomainError as err:
                raise err.at("x", xd) from None
            # gl[p, l, i, k] = Gamma^i_lk; nabla_l F = d_l F + Gamma_l F - F Gamma_l
            gl = levi_civita(np.linalg.inv(gd), dg).swapaxes(-3, -2)
            nabla_f = df + gl @ fd - fd @ gl
            # |(nabla_X F) Y|_g^2 for coordinate X = e_l and Y = e_k
            sq = np.einsum("plik,pij,pljk->plk", nabla_f, gd, nabla_f)
            residuals[definite, 2] = np.sqrt(np.maximum(np.max(sq, axis=(-2, -1)), 0.0))
        finite = np.isfinite(residuals).all(axis=1)
        f_finite = f[finite]
        worst = residuals[finite].max(axis=0, initial=0.0)
        max_minus_identity = np.max(np.abs(f_finite - identity), initial=0.0)
        max_plus_identity = np.max(np.abs(f_finite + identity), initial=0.0)

    f_flag = max_minus_identity <= 1e-12 or max_plus_identity <= 1e-12
    passed = bool(definite.all() and finite.all() and float(np.max(worst)) <= 1e-8)
    return AmbientValidationReport(
        max_f_squared_residual=float(worst[0]),
        max_compat_residual=float(worst[1]),
        max_parallel_residual=float(worst[2]),
        positive_definite=bool(definite.all()),
        f_is_identity=bool(f_flag),
        passed=passed,
        residuals_finite=bool(finite.all()),
    )
