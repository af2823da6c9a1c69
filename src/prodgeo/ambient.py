"""Ambient almost-product Riemannian spaces.

Models a chart of the ambient manifold by component expressions: a metric
``g_ij(x)`` and a (1,1) structure tensor ``F^i_j(x)`` with ``F^2 = I`` and
``g(FX, FY) = g(X, Y)``.  Provides the canonical block constructor (constant
``F = diag(+1.., -1..)`` over a block metric, which is parallel by
construction), Christoffel symbols, covariant differentiation along curves,
and pointwise validation that a hand-written space really is locally
product: the validator measures ``F^2 - I``, the metric compatibility
defect, and ``(nabla_X F) Y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class AmbientSpace:
    """Chart dimension plus metric and structure component expressions."""

    dim: int
    metric: tuple[tuple[ex.ExprAst, ...], ...]
    structure: tuple[tuple[ex.ExprAst, ...], ...]
    product_split: tuple[int, int] | None = field(default=None)

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
        for i in range(self.dim):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise ValueError("metric component matrix must be symmetric")

    def _env(self, x) -> dict[str, object]:
        if len(x) != self.dim:
            raise ValueError(f"expected a point with {self.dim} coordinates")
        return {name: value for name, value in zip(ambient_vars(self.dim), x)}

    def metric_at(self, x: Sequence[float]) -> np.ndarray:
        env = self._env([float(v) for v in x])
        return np.array([[ex.evaluate(e, env) for e in row] for row in self.metric])

    def structure_at(self, x: Sequence[float]) -> np.ndarray:
        env = self._env([float(v) for v in x])
        return np.array([[ex.evaluate(e, env) for e in row] for row in self.structure])

    def metric_jets(self, x: Sequence[jets.Jet]):
        env = self._env(list(x))
        return [[ex.evaluate(e, env) for e in row] for row in self.metric]

    def structure_jets(self, x: Sequence[jets.Jet]):
        env = self._env(list(x))
        return [[ex.evaluate(e, env) for e in row] for row in self.structure]


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
    # the LDL^T pivots of g are diag(L)^2 for its Cholesky factor L
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or np.min(np.diag(chol)) ** 2 <= tol:
        raise SingularMetric("metric is not positive definite at the sample point")


def christoffel(space: AmbientSpace, x: Sequence[float]) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma^i_{jk} at a point.

    Metric derivatives are taken by jets; symmetric in the lower indices.
    """
    n = space.dim
    seeds = jets.seed_point([float(v) for v in x], order=1)
    gj = [[jets.as_jet(entry, 1, n) for entry in row] for row in space.metric_jets(seeds)]
    g0 = np.array([[entry.value for entry in row] for row in gj])
    _assert_positive_definite(g0)
    # dg[l, i, j] = d g_ij / d x^l
    dg = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            dg[:, i, j] = gj[i][j].gradient()
    ginv = np.linalg.inv(g0)
    # Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk)
    gamma = 0.5 * (
        np.einsum("il,jlk->ijk", ginv, dg)
        + np.einsum("il,klj->ijk", ginv, dg)
        - np.einsum("il,ljk->ijk", ginv, dg)
    )
    return gamma


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
    if any(j.order < 1 for j in v):
        raise jets.InsufficientJetOrder(
            "covariant differentiation requires order >= 1 along the curve"
        )
    gamma = christoffel(space, x0)
    v0 = np.array([j.value for j in v])
    dv = np.array([j.gradient()[0] for j in v])
    xdot = np.asarray(velocity, dtype=float)
    return dv + np.einsum("ijk,j,k->i", gamma, xdot, v0)


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
    space: AmbientSpace,
    samples: Sequence[Sequence[float]],
    directions: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
) -> AmbientValidationReport:
    """Measure the locally-product defects at sample points.

    Reports the largest residuals of ``F^2 - I``, metric compatibility and
    ``(nabla_X F) Y`` over the samples.  Failures are reported, not thrown.
    """
    n = space.dim
    if directions is None:
        directions = np.eye(n)
    directions = np.asarray(directions, dtype=float)

    r_f2 = r_compat = r_parallel = 0.0
    pd_ok = True
    max_minus_identity = 0.0
    max_plus_identity = 0.0
    identity = np.eye(n)

    for point in samples:
        x0 = np.asarray(point, dtype=float)
        g0 = space.metric_at(x0)
        f0 = space.structure_at(x0)
        r_f2 = max(r_f2, float(np.max(np.abs(f0 @ f0 - identity))))
        r_compat = max(r_compat, float(np.max(np.abs(f0.T @ g0 @ f0 - g0))))
        max_minus_identity = max(max_minus_identity, float(np.max(np.abs(f0 - identity))))
        max_plus_identity = max(max_plus_identity, float(np.max(np.abs(f0 + identity))))
        try:
            _assert_positive_definite(g0)
            gamma = christoffel(space, x0)
        except SingularMetric:
            pd_ok = False
            continue
        for d in directions:
            curve = [
                jets.lift_constant(x0[j], 1) + d[j] * jets.seed_variable(0.0, 0, 1)
                for j in range(n)
            ]
            ft = [[jets.as_jet(entry, 1, 1) for entry in row] for row in space.structure_jets(curve)]
            df = np.array([[entry.gradient()[0] for entry in row] for row in ft])
            gamma_d = np.einsum("ijk,j->ik", gamma, d)
            for k in range(n):
                y = identity[k]
                # (nabla_X F)Y = nabla_X (FY) - F (nabla_X Y) for constant Y
                residual = df @ y + gamma_d @ (f0 @ y) - f0 @ (gamma_d @ y)
                r_parallel = max(r_parallel, float(np.sqrt(residual @ g0 @ residual)))

    f_flag = max_minus_identity <= 1e-12 or max_plus_identity <= 1e-12
    passed = pd_ok and max(r_f2, r_compat, r_parallel) <= tol
    return AmbientValidationReport(
        max_f_squared_residual=r_f2,
        max_compat_residual=r_compat,
        max_parallel_residual=r_parallel,
        positive_definite=pd_ok,
        f_is_identity=f_flag,
        passed=passed,
        tol=tol,
    )
