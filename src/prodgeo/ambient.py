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
from functools import cached_property
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

    def _env(self, x) -> dict[str, object]:
        if len(x) != self.dim:
            raise ValueError(f"expected a point with {self.dim} coordinates")
        return {name: value for name, value in zip(ambient_vars(self.dim), x)}

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
        """An expression table at x (floats or jets): a jet, or a float array if constant."""
        env = self._env(list(x))
        if name in self._constants:
            return self._constants[name].copy()
        return jets.array(_evaluate(getattr(self, name), env))

    def metric_at(self, x: Sequence[float]) -> np.ndarray:
        return self._table("metric", [float(v) for v in x])

    def structure_at(self, x: Sequence[float]) -> np.ndarray:
        return self._table("structure", [float(v) for v in x])

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


def _assert_positive_definite(g: np.ndarray, tol: float = 1e-10):
    if not np.isfinite(g).all():
        raise SingularMetric("metric is not finite at the sample point")
    # the LDL^T pivots of g are diag(L)^2 for its Cholesky factor L
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or np.min(np.diag(chol)) ** 2 <= tol:
        raise SingularMetric("metric is not positive definite at the sample point")


def levi_civita(ginv, dg):
    """Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk), floats or jets.

    ``ginv`` is the inverse metric and ``dg[l, i, j] = d g_ij / d x^l``; the
    result is symmetric in the lower indices.
    """
    lowered = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * jets.einsum("il,ljk->ijk", ginv, lowered)


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


def validate_ambient(
    space: AmbientSpace, samples: Sequence[Sequence[float]]
) -> AmbientValidationReport:
    """Measure the locally-product defects at sample points.

    Reports the largest residuals of ``F^2 - I``, metric compatibility and
    ``(nabla_X F) Y`` over the samples and the coordinate directions X, Y.
    Failures are reported, not thrown.  A non-finite metric is not positive
    definite; a sample whose residuals are not finite (from a non-finite
    metric, structure or derivative, or an overflow) fails the report and
    stays out of its residuals.
    """
    identity = np.eye(space.dim)
    worst = np.zeros(3)  # F^2 - I, compatibility, (nabla_X F) Y
    pd_ok = finite = True
    max_minus_identity = max_plus_identity = 0.0

    for point in samples:
        x0 = [float(v) for v in point]
        g0 = space.metric_at(x0)
        f0 = space.structure_at(x0)
        try:
            _assert_positive_definite(g0)
            point_pd = True
        except SingularMetric:
            pd_ok = point_pd = False
        # overflow and NaN are detected below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = [
                np.max(np.abs(f0 @ f0 - identity)), np.max(np.abs(f0.T @ g0 @ f0 - g0)), 0.0
            ]
            if point_pd:
                # gl[l, i, k] = Gamma^i_lk; nabla_l F = d_l F + Gamma_l F - F Gamma_l
                gamma = levi_civita(np.linalg.inv(g0), space.metric_derivatives(x0))
                gl = gamma.transpose(1, 0, 2)
                nabla_f = space._table("structure_diff", x0) + gl @ f0 - f0 @ gl
                # |(nabla_X F) Y|_g^2 for coordinate X = e_l and Y = e_k
                sq = np.max(np.einsum("lik,ij,ljk->lk", nabla_f, g0, nabla_f))
                residuals[2] = np.sqrt(max(sq, 0.0))
        if not np.isfinite(residuals).all():
            finite = False
            continue
        worst = np.maximum(worst, residuals)
        max_minus_identity = max(max_minus_identity, float(np.max(np.abs(f0 - identity))))
        max_plus_identity = max(max_plus_identity, float(np.max(np.abs(f0 + identity))))

    f_flag = max_minus_identity <= 1e-12 or max_plus_identity <= 1e-12
    passed = pd_ok and finite and float(np.max(worst)) <= 1e-8
    return AmbientValidationReport(
        max_f_squared_residual=float(worst[0]),
        max_compat_residual=float(worst[1]),
        max_parallel_residual=float(worst[2]),
        positive_definite=pd_ok,
        f_is_identity=f_flag,
        passed=passed,
    )
