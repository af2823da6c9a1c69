"""Ambient almost-product Riemannian spaces.

Models a chart of the ambient manifold by component expressions: a metric
``g_ij(x)`` and a (1,1) structure tensor ``F^i_j(x)`` with ``F^2 = I`` and
``g(FX, FY) = g(X, Y)``.  Provides the canonical block constructor (constant
``F = diag(+1.., -1..)`` over a block metric, which is parallel by
construction), the metric derivatives as expressions, the Levi-Civita
connection of a metric table (float arrays with any point axes), and
pointwise validation that a hand-written space really is locally product:
the validator measures ``F^2 - I``, the metric compatibility defect, and
``(nabla_X F) Y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import expr as ex
from . import jets

__all__ = [
    "AmbientSpace",
    "AmbientValidationFailure",
    "AmbientValidationReport",
    "SingularMetric",
    "BlockVariableLeak",
    "ambient_vars",
    "flat_block",
    "product_of",
    "levi_civita",
    "validate_ambient",
]


class SingularMetric(ValueError):
    """Metric is singular, not symmetric or not positive definite at the evaluation point."""


class BlockVariableLeak(ValueError):
    """A product block references the other block's coordinates."""


def ambient_vars(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def _as_matrix(rows, dim: int, what: str):
    """A ``dim x dim`` tuple of expressions from strings or nodes."""
    parsed = tuple(tuple(ex.parse(e) if isinstance(e, str) else e for e in row) for row in rows)
    if len(parsed) != dim or any(len(row) != dim for row in parsed):
        raise ValueError(f"{what} must be a {dim}x{dim} matrix of expressions")
    return parsed


def _differ(a: ex.ExprAst, b: ex.ExprAst, dim: int) -> bool:
    """Whether two expressions differ in value, relative to 1e-12, at one of a
    few fixed probe points of the chart (points where either is undefined or
    not finite are skipped)."""
    plan = ex.Plan([(a, b)])
    for probe in ((0.37, 0.11), (0.61, 0.07)):
        env = {x: probe[0] + probe[1] * i for i, x in enumerate(ambient_vars(dim))}
        try:
            with np.errstate(all="ignore"):
                va, vb = plan(env)[0].tolist()
        except jets.DomainError:
            continue
        if np.isfinite(va) and np.isfinite(vb) and abs(va - vb) > 1e-12 * max(abs(va), abs(vb)):
            return True
    return False


@dataclass(frozen=True)
class AmbientSpace:
    """Chart dimension plus metric and structure component expressions.

    ``metric_diff[l][i][j]`` and ``structure_diff[l][i][j]`` hold the
    partial derivatives of ``g_ij`` and ``F^i_j`` along ``x(l+1)``, zero
    folded, so a flat block contributes plain ``Num(0)`` entries; an entry
    is only differentiated along the variables it contains (a matrix without
    any gets rows of one shared ``Num(0)``).  The space is ``flat`` when
    every entry of ``metric_diff`` folds to a constant zero; a derivative
    that does not fold, such as that of ``x1 - x1``, counts as curved, and
    its Christoffel symbols are computed (and vanish).

    The four tables are compiled into one :class:`~prodgeo.expr.Plan` at
    construction, which computes their shared subtrees once per call and
    folds their literal entries once.  The space is ``constant`` when no
    metric or structure entry holds a variable (a zero derivative is not
    enough: ``sqrt(x1) * 0`` fails where ``x1 < 0``).
    """

    dim: int
    metric: tuple[tuple[ex.ExprAst, ...], ...]
    structure: tuple[tuple[ex.ExprAst, ...], ...]
    product_split: tuple[int, int] | None = field(default=None)
    metric_diff: tuple = field(init=False, repr=False, compare=False)
    structure_diff: tuple = field(init=False, repr=False, compare=False)
    flat: bool = field(init=False, repr=False, compare=False)
    constant: bool = field(init=False, repr=False, compare=False)
    _plan: ex.Plan = field(init=False, repr=False, compare=False)
    _at: list = field(init=False, repr=False, compare=False, default_factory=list)
    _views: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        zero = ex.Num(0.0)
        object.__setattr__(self, "metric", _as_matrix(self.metric, self.dim, "metric"))
        object.__setattr__(self, "structure", _as_matrix(self.structure, self.dim, "structure"))
        allowed = set(ambient_vars(self.dim))
        zeros = (((zero,) * self.dim,) * self.dim,) * self.dim  # one object, so ``constant`` can test for it
        for name, matrix in (("metric", self.metric), ("structure", self.structure)):
            used = tuple(tuple(ex.variables(e) for e in row) for row in matrix)
            free = frozenset().union(*(v for row in used for v in row))
            if not free <= allowed:
                raise ex.UnknownVariable(sorted(free - allowed)[0])
            if free:
                d = tuple(
                    tuple(
                        tuple(ex.diff(e, x) if x in v else zero for e, v in zip(row, vrow))
                        for row, vrow in zip(matrix, used)
                    )
                    for x in ambient_vars(self.dim)
                )
            else:
                d = zeros
            object.__setattr__(self, f"{name}_diff", d)
        object.__setattr__(self, "flat", all(e is zero or e == zero for d in self.metric_diff for row in d for e in row))
        object.__setattr__(self, "constant", self.metric_diff is zeros and self.structure_diff is zeros)
        for i in range(self.dim):
            for j in range(i):
                a, b = self.metric[i][j], self.metric[j][i]
                if a != b and _differ(a, b, self.dim):
                    raise ValueError("metric component matrix must be symmetric")
        tables = [self.metric, self.structure, self.metric_diff, self.structure_diff]
        object.__setattr__(self, "_plan", ex.Plan(tables))

    def tables(self, x) -> list:
        """The tables g, F, dg and dF at the points ``x``.

        ``x`` is converted to a float array of shape ``(..., dim)``.  Each
        table comes from the plan with the points' leading shape, ``(...,
        dim, dim)`` or, for a derivative table, ``(..., dim, dim, dim)``: a
        float array, or, for a table of literals alone, a read-only view of
        its folded literals broadcast over the points.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected a point with {self.dim} coordinates")
        return self._plan({v: x[..., i] for i, v in enumerate(ambient_vars(self.dim))})

    def at(self, x) -> tuple:
        """At the points ``x`` (P, dim): tables g, F, dg, dF; the pivots of the
        Cholesky factorization of g (see :func:`_cholesky`); masks where g is
        finite, dg is, and F and dF are; Christoffel symbols (``None`` if
        flat); the Cholesky factor of g (of I where g is not positive
        definite); the :func:`validate_ambient` report of the same pivots,
        which never raises here.  A ``constant`` space computes them once, at
        one point, and returns read-only views of them broadcast over the
        points (a space used once gains nothing).  It keeps the views of the
        last point count, one entry, and returns them again while the next
        call has the same count; errors are never kept."""
        x = np.asarray(x, dtype=float)
        if not (self.constant and x.size and x.shape[1:] == (self.dim,)):  # else as if varying
            return _evaluate_at(self, x)
        if not self._at:
            self._at.append(_evaluate_at(self, np.zeros((1, self.dim))))
        views = self._views.get(len(x))
        if views is None:
            views = tuple(np.broadcast_to(v, x.shape[:-1] + v.shape[1:]) if isinstance(v, np.ndarray)
                          else v for v in self._at[0])
            self._views.clear()
            self._views[len(x)] = views
        return views


def flat_block(dim: int) -> tuple[tuple[ex.ExprAst, ...], ...]:
    """Identity metric block."""
    return tuple(
        tuple(ex.Num(1.0 if i == j else 0.0) for j in range(dim)) for i in range(dim)
    )


def product_of(block_a, p: int, block_b, q: int) -> AmbientSpace:
    """Canonical locally product space: block metric, constant F = diag(+1*p, -1*q).

    ``block_a``/``block_b`` are metric expression matrices, or the string
    ``"flat"``.  Block A may not reference the coordinates of block B,
    ``x(p+1)..x(p+q)``, nor block B those of block A, ``x1..xp``; the
    constant structure tensor is then parallel by construction.  Any other
    name is left to :class:`AmbientSpace`, where it is an unbound variable.
    """
    if p < 1 or q < 1:
        raise ValueError("both product blocks need positive dimension")
    dim = p + q
    a_rows = flat_block(p) if isinstance(block_a, str) and block_a == "flat" else _as_matrix(block_a, p, "block A")
    b_rows = flat_block(q) if isinstance(block_b, str) and block_b == "flat" else _as_matrix(block_b, q, "block B")

    a_vars = set(ambient_vars(dim)[:p])
    b_vars = set(ambient_vars(dim)[p:])
    for rows, other, name in ((a_rows, b_vars, "block A"), (b_rows, a_vars, "block B")):
        leaks = other & frozenset().union(*(ex.variables(e) for row in rows for e in row))
        if leaks:
            raise BlockVariableLeak(f"{name} references coordinate {sorted(leaks)[0]!r}")

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


def levi_civita(ginv, dg):
    """Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk) of float arrays.

    ``ginv`` is the inverse metric and ``dg[..., l, i, j] = d g_ij / d x^l``,
    both with any leading point axes; the result is symmetric in the lower
    indices.
    """
    swapped = dg.swapaxes(-3, -2)  # d_j g_lk at [l, j, k]
    lowered = swapped + swapped.swapaxes(-2, -1) - dg
    n = lowered.shape[-1]
    product = ginv @ lowered.reshape(lowered.shape[:-3] + (n, n * n))
    return 0.5 * product.reshape(product.shape[:-1] + (n, n))


def _finite(a: np.ndarray) -> np.ndarray:
    """Whether every entry of each point's row of ``a`` is finite."""
    return np.isfinite(a).reshape(len(a), -1).all(axis=-1)


def _cholesky(g: np.ndarray) -> tuple:
    """The Cholesky factor ``L`` (g = L L^T) of the metrics ``g``, shape
    ``(..., N, N)``, and their LDL^T pivots ``d_k = L_kk^2``, shape ``(..., N)``,
    by N column steps over every point at once.

    The pivots are NaN where ``g`` is not finite or not symmetric to 1e-12
    relative to its largest entry.  A pivot that is not positive stops that
    point's updates: its later pivots are NaN and its factor is the identity.
    So a mask such as ``(d > 0).all(-1)`` is true exactly where ``L`` is the
    factor of ``g``.
    """
    n = g.shape[-1]
    finite = np.isfinite(g).all(axis=(-2, -1))
    a = np.where(finite[..., None, None], g, 0.0)  # the Schur complement, updated in place
    scale = np.max(np.abs(a), axis=(-2, -1))
    alive = finite & (np.max(np.abs(a - a.swapaxes(-2, -1)), axis=(-2, -1)) <= 1e-12 * scale)
    factor, pivots = np.zeros_like(a), np.empty(g.shape[:-1])
    for k in range(n):
        pivots[..., k] = np.where(alive, a[..., k, k], np.nan)
        alive = alive & (pivots[..., k] > 0.0)
        root = np.sqrt(np.where(alive, pivots[..., k], 1.0))
        column = np.where(alive[..., None], a[..., k + 1:, k] / root[..., None], 0.0)
        factor[..., k, k], factor[..., k + 1:, k] = root, column
        a[..., k + 1:, k + 1:] -= column[..., :, None] * column[..., None, :]
    return np.where(alive[..., None, None], factor, np.eye(n)), pivots


def _evaluate_at(space: AmbientSpace, x: np.ndarray) -> tuple:
    """:meth:`AmbientSpace.at` at every point; the masks find overflow and NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        g, f, dg, df = space.tables(x)
        chol, pivots = _cholesky(g)
        definite = (pivots > 0.0).all(axis=-1)
        gamma = None
        if not space.flat:
            gamma = levi_civita(np.linalg.inv(np.where(definite[..., None, None], g, np.eye(space.dim))), dg)
    report = validate_ambient(g, f, df, gamma, pivots)  # first: it rejects an empty batch
    return (g, f, dg, df, pivots, _finite(g), _finite(dg), _finite(f) & _finite(df), gamma, chol,
            report)


@dataclass(frozen=True)
class AmbientValidationReport:
    """A report prints every field but ``residuals_finite`` and ``symmetric``."""

    tol: ClassVar[float] = 1e-8  # the largest residual that passes
    max_f_squared_residual: float
    max_compat_residual: float
    max_parallel_residual: float
    positive_definite: bool
    f_is_identity: bool
    passed: bool
    residuals_finite: bool = True
    symmetric: bool = True


class AmbientValidationFailure(ValueError):
    """The ambient space fails the locally-product checks at the samples."""

    def __init__(self, report: AmbientValidationReport):
        self.report = report
        worst = max(
            report.max_f_squared_residual,
            report.max_compat_residual,
            report.max_parallel_residual,
        )
        reasons = []
        if not report.symmetric:
            reasons.append("metric not symmetric")
        elif not report.positive_definite:
            reasons.append("metric not positive definite")
        if not report.residuals_finite:
            reasons.append("non-finite residuals")
        super().__init__(
            "ambient validation failed"
            + (f" ({', '.join(reasons)})" if reasons else "")
            + ": F^2-I residual "
            f"{report.max_f_squared_residual:.3e}, compatibility residual "
            f"{report.max_compat_residual:.3e}, parallelism residual "
            f"{report.max_parallel_residual:.3e} (worst {worst:.3e}, "
            f"tolerance {report.tol:.1e})"
        )


def validate_ambient(g, f, df, gamma, pivots) -> AmbientValidationReport:
    """Measure the locally-product defects at a batch of points.

    ``g``, ``f`` and ``df`` are the metric, structure and structure
    derivative tables' values at the points, shapes ``(P, N, N)`` and
    ``(P, N, N, N)`` as :meth:`AmbientSpace.tables` returns them, ``gamma``
    the Christoffel symbols of :func:`levi_civita` at every point, or
    ``None`` where the space is flat, and ``pivots`` the LDL^T pivots of
    ``g``'s Cholesky factorization, shape ``(P, N)``, which the report
    thresholds at 1e-10 (NaN where ``g`` is not finite or not symmetric; a
    finite ``g`` whose first pivot is NaN is reported as not symmetric).
    Reports the largest residuals of ``F^2 - I``, metric compatibility and
    ``(nabla_X F) Y`` over the points and the coordinate directions X, Y,
    the last only where the metric is positive definite.  All of it is
    float algebra on the tables' values.  Without a connection and with a
    zero structure-derivative table (a flat product, or any constant
    structure over a constant metric), nabla F vanishes and the parallelism
    residual is 0.0.  Failures are reported, not thrown.  A non-finite
    metric is not positive definite; a point whose residuals are not finite
    (from a non-finite metric, structure or derivative, or an overflow)
    fails the report and stays out of its residuals.
    """
    if len(g) == 0:
        raise ValueError("ambient validation needs at least one sample point")
    identity = np.eye(g.shape[-1])
    # overflow and NaN are detected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.zeros((len(g), 3))  # F^2 - I, compatibility, (nabla_X F) Y
        definite = (pivots > 1e-10).all(axis=-1)
        ft = f.swapaxes(-2, -1)
        residuals[:, 0] = np.max(np.abs(f @ f - identity), axis=(-2, -1))
        residuals[:, 1] = np.max(np.abs(ft @ g @ f - g), axis=(-2, -1))
        # without a connection and with d F zero, nabla F vanishes: its
        # residual stays 0.0
        if definite.any() and (gamma is not None or df.any()):
            # gl[p, l, i, k] = Gamma^i_lk; nabla_l F = d_l F + Gamma_l F - F Gamma_l
            gd, fd, nabla_f = g[definite], f[definite][:, None], df[definite]
            if gamma is not None:
                gl = gamma[definite].swapaxes(-3, -2)
                nabla_f = nabla_f + gl @ fd - fd @ gl
            # |(nabla_X F) Y|_g^2 for coordinate X = e_l and Y = e_k
            sq = (nabla_f * (gd[:, None] @ nabla_f)).sum(axis=-2)
            residuals[definite, 2] = np.sqrt(np.maximum(np.max(sq, axis=(-2, -1)), 0.0))
        finite = np.isfinite(residuals).all(axis=1)
        f_finite = f[finite]
        worst = residuals[finite].max(axis=0, initial=0.0)
        max_minus_identity = np.max(np.abs(f_finite - identity), initial=0.0)
        max_plus_identity = np.max(np.abs(f_finite + identity), initial=0.0)

    f_flag = max_minus_identity <= 1e-12 or max_plus_identity <= 1e-12
    passed = bool(definite.all() and finite.all() and float(np.max(worst)) <= AmbientValidationReport.tol)
    return AmbientValidationReport(
        max_f_squared_residual=float(worst[0]),
        max_compat_residual=float(worst[1]),
        max_parallel_residual=float(worst[2]),
        positive_definite=bool(definite.all()),
        f_is_identity=bool(f_flag),
        passed=passed,
        residuals_finite=bool(finite.all()),
        symmetric=not (_finite(g) & np.isnan(pivots[:, 0])).any(),
    )
