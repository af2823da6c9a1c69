"""Pointwise geometry of an immersed submanifold, for all sample points at once.

Builds orthonormal tangent/normal frames (one complete QR of the Jacobian
whitened by the metric's Cholesky factor), the induced metric, the second
fundamental form and shape operators, the mean curvature vector, the
tangential/normal split of the ambient product structure (the phi, omega,
B, C matrices), and the invariant / anti-invariant / semi-invariant /
generic classifier.

The immersion is a jet of order 2 seeded in the n submanifold parameters
only, at every entry point, and the one jet of the build: every other value,
the ambient tables and their derivatives included, is float algebra on its
Taylor coefficients at the sample points.  The derivatives the connection
calculus of :mod:`prodgeo.calculus` needs are read off the build's arrays
(the frame Hessian, the tables' derivatives), so a classification and a
verification build the same geometry.
After the frames, the orthonormal frame is the one basis of the base-point
vectors and of the directions: h, H, phi/omega/B/C and the lemma tensors are
frame components along frame vectors, so g is the identity on them and a
norm is Euclidean.  Every array carries a
leading axis over the sample points, so one build makes the same numpy calls
for a whole document as for one point; :func:`point_geometry` reads row 0 of
a one-point batch.  Contractions are stacked matrix products (``@``), one
call for all points and rows.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import jets
from .ambient import AmbientSpace, AmbientValidationFailure, SingularMetric, _finite

__all__ = [
    "DegenerateImmersion",
    "Immersion",
    "PointGeometry",
    "ClassificationResult",
    "param_vars",
    "point_geometry",
    "classify",
    "classify_point",
    "aggregate_classification",
]


class DegenerateImmersion(ValueError):
    """The immersion is not finite or rank-deficient, or its induced metric not finite, at a point."""


def param_vars(n: int) -> tuple[str, ...]:
    return tuple(f"u{a + 1}" for a in range(n))


@dataclass(frozen=True)
class Immersion:
    """Parametric immersion: N component expressions over u1..un.

    The components are compiled into one :class:`~prodgeo.expr.Plan` at
    construction, so a subexpression repeated across them (``sin(u1)`` in
    several components) is evaluated once per environment; its variable
    steps, one per distinct name, are checked against u1..un.
    """

    n: int
    components: tuple[ex.ExprAst, ...]
    samples: tuple[tuple[float, ...], ...] = ()
    label: str = ""
    _plan: ex.Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        components = tuple(ex.parse(c) if isinstance(c, str) else c for c in self.components)
        object.__setattr__(self, "components", components)
        if self.n < 1:
            raise ValueError("parametric dimension must be at least 1")
        if len(components) <= self.n:
            raise ValueError(
                "a proper submanifold needs more ambient than parametric dimensions"
            )
        plan = ex.Plan([components])
        allowed = set(param_vars(self.n))
        unknown = [step[1] for step in plan.steps if step[0] == "var" and step[1] not in allowed]
        if unknown:
            raise ex.UnknownVariable(min(unknown))
        # as float tuples, each checked to be n finite coordinates
        samples = _points(self.samples, self.n).tolist() if len(self.samples) else ()
        object.__setattr__(self, "samples", tuple(map(tuple, samples)))
        object.__setattr__(self, "_plan", plan)

    @property
    def ambient_dim(self) -> int:
        return len(self.components)


@dataclass
class PointGeometry:
    """Per-point bundle of frames and first/second-order invariants.

    ``h`` stores the second fundamental form components h^a_{ab} in the
    orthonormal frames; its slice ``h[a]`` is also the matrix of the shape
    operator A_{xi_a}, by the duality g(A_xi X, Y) = g(h(X,Y), xi).
    ``phi``, ``omega``, ``Bm``, ``Cm`` are the tangential/normal parts of
    the product structure on tangent and normal vectors.
    """

    u: tuple[float, ...]
    x: np.ndarray
    tangent_on: np.ndarray
    normal_on: np.ndarray
    induced_metric: np.ndarray
    ambient_metric: np.ndarray
    h: np.ndarray
    H: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    Bm: np.ndarray
    Cm: np.ndarray
    H_norm: float
    pu_gap: float


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (one matrix per point)."""
    return a.swapaxes(-1, -2)


def _check_tolerance(name: str, value) -> float:
    """``value`` as a float; a tolerance that is not a positive finite real
    number, a bool included, is a ``ValueError``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _points(samples, n: int) -> np.ndarray:
    """Sample points as a ``(P, n)`` array; at least one is needed, each a
    sequence of n real numbers, and all finite."""
    if len(samples) == 0:
        raise ValueError("classification needs at least one sample point")
    try:
        u = np.asarray(samples)
    except ValueError:  # ragged; the loop below names the sample
        u = None
    if u is not None and u.dtype == float and u.shape == (len(samples), n) and np.isfinite(u).all():
        return u
    for s in samples:
        try:
            coords = np.asarray(s)
        except ValueError:  # ragged below the sample, such as ((0.1,), 0.2)
            coords = None
        if coords is None or coords.shape != (n,):
            raise ValueError(f"sample {s} does not have {n} coordinates")
        # None, a string or a complex number is not a coordinate; a Fraction is
        if coords.dtype.kind not in "biuf" and not all(isinstance(c, numbers.Real) for c in s):
            raise ValueError(f"sample {s} has a coordinate that is not a real number")
    u = np.asarray(samples, dtype=float)
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample point {tuple(u[np.argmin(finite)].tolist())} is not finite")
    return u


class _JetGeometry:
    """All pointwise data of an immersion at its sample points, as floats.

    ``u`` is a batch of points, shape ``(P, n)``, and every array carries
    that leading point axis; the tangent columns are in parameter order.
    Seed layout: one seed direction per submanifold parameter ``u1..un`` and
    no other.  The immersion ``f`` is a jet of order 2 and the only jet: the
    metric ``g0``, the structure ``F0`` and their derivative tables ``dg0``
    and ``dF0`` (``[..., l, i, j]`` along ``x(l+1)``), with the point axis
    like every other array, come from :meth:`~prodgeo.ambient.AmbientSpace.at`
    at the images ``x0``, with the table masks of the checks below.

    From the Taylor coefficients of ``f`` and the tables the construction
    computes the Jacobian ``J0``, the induced metric ``G0``, the frames
    ``E0``/``Xi0`` by one complete QR of the whitened Jacobian with their
    lowered rows ``GE0`` (g(e_s, .), tangent rows first), the tangent
    projector ``P_tan0`` and, from the QR's triangle, the change of basis
    ``R`` (T_b = R[a, b] e_a).  The chart enters only there: every direction
    after it is a tangent frame vector, so the frame Hessian ``S0`` (the
    second derivatives of ``f`` along e_a and e_b), Gamma(e_a, .) as
    ``GammaE0``, ``h_on0`` (g(h(e_a, e_b), xi_s) at [a, b, s]), ``Hn0`` and the
    blocks ``phi0``, ``omega0``, ``B0``, ``C0`` of F are frame components,
    and g is the identity on them; ``H0`` is H as a vector.
    :func:`~prodgeo.calculus.lemma_tensors` takes the derivatives of the
    projectors from the same arrays, and only the two lemma residuals read
    ``R``, to report coordinate directions.

    ``flat`` is the space's: where its metric derivatives fold to zeros,
    ``GammaE0`` is ``None`` and no Christoffel term is contracted.
    The build checks its samples itself (:func:`_points`).  The checks that
    differ between points (a finite immersion and finite tables, positive
    definiteness, a finite induced metric, the Jacobian rank) are one
    ordered list of masks over the points, each with its error: the first
    point that fails any raises the first check it fails.  Before any can
    raise, ``AmbientSpace.at`` gives the tables' validation report as
    ``ambient_report`` (once per constant space, for all its documents);
    with ``strict`` a failed report raises as soon as ``at`` returns, and
    where the structure or its derivative is not finite it raises without
    ``strict`` too, since there is nothing to verify.  The positive
    definiteness check and the Cholesky factor that whitens the Jacobian
    come from the same pivots, so a metric the check passes is factored.
    Every error names this document's own point.
    """

    def __init__(self, immersion: Immersion, space: AmbientSpace, u, strict: bool = False):
        if immersion.ambient_dim != space.dim:
            raise ValueError(
                f"immersion maps into dimension {immersion.ambient_dim}, "
                f"ambient space has dimension {space.dim}"
            )
        n, N = immersion.n, space.dim
        self.n, self.N, self.m = n, N, N - n
        self.u = _points(u, n)
        npts = len(self.u)
        self.points = [tuple(row) for row in self.u.tolist()]

        uenv = dict(zip(param_vars(n), jets.seed_point(self.u, 2)))
        # overflow and NaN are found by the checks below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                self.f = immersion._plan(uenv)[0]
            except jets.DomainError as err:
                raise err.at("u", self.u) from None
        self.x0 = self.f.value
        try:
            (self.g0, self.F0, self.dg0, self.dF0, definite, g_finite, dg_finite, f_finite,
             gamma0, chol, self.ambient_report) = space.at(self.x0)
        except jets.DomainError as err:
            raise err.at("x", self.x0) from None
        if strict and not self.ambient_report.passed:
            raise AmbientValidationFailure(self.ambient_report)
        self.flat = space.flat

        # the Jacobian J0[..., i, a] = d f^i / d u^a, read off the immersion's
        # Taylor coefficients; the tangent vectors T_a are its columns
        self.J0 = self.f.gradient()
        immersed = _finite(self.f.coeffs)
        # the Jacobian whitened by the metric's Cholesky factor, g = chol chol^T
        white = _t(chol) @ np.where(immersed[..., None, None], self.J0, 0.0)
        smallest = np.linalg.svd(white, compute_uv=False).min(axis=-1)
        # induced metric G_ab = g(T_a, T_b), which overflows for a finite but huge J
        with np.errstate(over="ignore", invalid="ignore"):
            self.G0 = _t(white) @ white

        # the per-point checks in reporting order, (passes, error, message):
        # the first point that fails any raises the first row it fails
        checks = (
            (immersed, DegenerateImmersion,
             "immersion is not finite at u = {u} (its value or a derivative overflows)"),
            (g_finite, SingularMetric,
             "ambient metric is not finite along the immersion at u = {u}, x = {x}"),
            (dg_finite, SingularMetric,
             "ambient metric derivative is not finite along the immersion at u = {u}, x = {x}"),
            (f_finite, AmbientValidationFailure, self.ambient_report),
            (definite, SingularMetric,
             "ambient metric is not positive definite along the immersion at u = {u}, x = {x}"),
            (_finite(self.G0), DegenerateImmersion, "induced metric is not finite at u = {u}"),
            (~(smallest <= 1e-8), DegenerateImmersion,
             "Jacobian rank < {n} at u = {u} (smallest singular value {smallest:.3e})"),
        )
        passed = np.logical_and.reduce([row[0] for row in checks])
        if not passed.all():
            p = np.argmin(passed)
            _, error, message = next(row for row in checks if not row[0][p])
            if isinstance(message, str):
                message = message.format(u=tuple(self.u[p].tolist()), x=tuple(self.x0[p].tolist()),
                                         n=n, smallest=smallest[p])
            raise error(message)

        # orthonormal frames under the ambient metric from one complete QR,
        # white = q r: the first n columns of q, signed so that diag(r) > 0, are
        # the Gram-Schmidt frame of the tangent columns in parameter order, the
        # rest complete it; e_s = chol^-T q_s and g(e_s, .) = chol q_s.  The
        # signed upper triangle of r is R (T_b = R[..., :, b]^a e_a, as J = E R)
        # and its inverse P the tangent frame in the chart (e_a = P[..., :, a]^c T_c)
        q, r = np.linalg.qr(white, mode="complete")
        sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
        q[..., :n] *= sign[..., None, :]
        self.R = r[..., :n, :] * sign[..., :, None]
        P = np.linalg.inv(self.R)
        E0 = _t(np.linalg.solve(_t(chol), q))
        self.GE0 = _t(chol @ q)
        self.E0, self.Xi0 = E0[..., :n, :], E0[..., n:, :]
        # tangent projector at the base points: P^i_j v^j = sum_a g(v, e_a) e_a^i
        self.P_tan0 = _t(self.E0) @ self.GE0[..., :n, :]

        # unless the connection vanishes, Gamma(e_a, .) at the base points with
        # the direction first: GammaE0[..., a, k, i] = Gamma^i_jk e_a^j
        self.GammaE0 = None
        if not self.flat:
            gamma0 = np.moveaxis(gamma0, -3, -1).reshape(npts, N, N * N)  # [j, k, i]
            self.GammaE0 = (self.E0 @ gamma0).reshape(npts, n, N, N)

        # the frame Hessian S0[..., a, b, :] = P^c_a P^d_b d_c d_d f, the second
        # derivative along the frame vectors, and the second fundamental form in
        # normal components, h_on0[..., a, b, s] = g(S0[a, b] + Gamma(e_a, e_b), xi_s)
        self.S0 = second = np.moveaxis(_t(P)[:, None] @ self.f.hessian() @ P[:, None], 1, -1)
        if not self.flat:
            second = second + self.E0[..., None, :, :] @ self.GammaE0
        self.h_on0 = second @ _t(self.GE0[..., n:, :])[:, None]
        self.hcomp0 = np.moveaxis(self.h_on0, -1, 1)

        # mean curvature H = (1/n) sum_a h(e_a, e_a), in normal components and as a vector
        self.Hn0 = np.diagonal(self.h_on0, axis1=1, axis2=2).mean(axis=-1)
        self.Hsq = (self.Hn0 * self.Hn0).sum(axis=-1)
        self.H0 = (self.Hn0[:, None] @ self.Xi0)[:, 0]

        # phi/omega (F on the tangent frame) and B/C (F on the normal frame):
        # the blocks of g(F e_s, e_r), tangent rows and columns first
        m = self.GE0 @ self.F0 @ _t(E0)
        self.phi0, self.omega0 = m[..., :n, :n], m[..., n:, :n]
        self.B0, self.C0 = m[..., :n, n:], m[..., n:, n:]
        # max_{a,b} | g(h(e_a, e_b), H) - delta_ab |H|^2 |
        h_dot_h = (self.h_on0 @ self.Hn0[:, None, :, None])[..., 0]
        self.pu_gap = np.abs(h_dot_h - self.Hsq[:, None, None] * np.eye(n)).max(axis=(-2, -1))
        # what the classes are defined by; each caller thresholds them with its tolerance
        self.H_norm = np.sqrt(self.Hsq)
        self.phi_norm, self.omega_norm, self.omega_phi_norm = (
            np.linalg.norm(m, axis=(-2, -1))
            for m in (self.phi0, self.omega0, self.omega0 @ self.phi0)
        )
        self.phi_singular = np.linalg.svd(self.phi0, compute_uv=False)


# ---- public per-point operations ----------------------------------------


def point_geometry(immersion: Immersion, space: AmbientSpace, u: Sequence[float]) -> PointGeometry:
    """Full per-point bundle (frames, h, H, phi/omega/B/C) at one parameter
    point: row 0 of the geometry of a one-point batch."""
    geo = _JetGeometry(immersion, space, [u])
    return PointGeometry(
        u=geo.points[0],
        x=geo.x0[0],
        tangent_on=geo.E0[0],
        normal_on=geo.Xi0[0],
        induced_metric=geo.G0[0],
        ambient_metric=geo.g0[0].copy(),  # a constant metric is a read-only view
        h=geo.hcomp0[0],
        H=geo.H0[0],
        phi=geo.phi0[0],
        omega=geo.omega0[0],
        Bm=geo.B0[0],
        Cm=geo.C0[0],
        H_norm=float(geo.H_norm[0]),
        pu_gap=float(geo.pu_gap[0]),
    )


# ---- classification -------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    """The four-way verdicts under their report names, then the columns."""

    classification: str
    dim_d: int | None
    dim_d_perp: int | None
    minimal: bool
    pseudo_umbilical: bool
    insufficient_samples: bool
    points: dict  # the columns of :func:`classify_point`


def _rank(singular: np.ndarray, tol: float):
    """Numerical rank from singular values, with the documented sqrt(tol) threshold."""
    return np.sum(singular > np.sqrt(tol), axis=-1)


def _semi_invariant(omega_phi_vanishes: bool, ranks) -> bool:
    """Semi-invariance is global: omega.phi vanishes and rank(phi) is constant."""
    return omega_phi_vanishes and len(set(ranks)) == 1


def classify_point(geo: _JetGeometry, tol: float = 1e-8) -> dict:
    """The geometry's class measures at every point, thresholded at ``tol``:
    the report's column tree of a point, ``"u"``, ``"norms"``, ``"rank_phi"``
    and ``"flags"``, with a column over the points at each leaf."""
    tol = _check_tolerance("tol", tol)
    return {
        "u": geo.points,
        "norms": {"mean_curvature_sq": geo.Hsq.tolist(), "phi": geo.phi_norm.tolist(),
                  "omega": geo.omega_norm.tolist(), "omega_phi": geo.omega_phi_norm.tolist()},
        "rank_phi": _rank(geo.phi_singular, tol).tolist(),
        "flags": {"minimal": (geo.H_norm <= tol).tolist(),
                  "pseudo_umbilical": (geo.pu_gap <= tol).tolist()},
    }


def aggregate_classification(columns: dict, n: int, tol: float) -> ClassificationResult:
    """Fold the columns of :func:`classify_point` into the four-way verdict;
    the submanifold is minimal, or pseudo-umbilical, where every point is."""
    tol = _check_tolerance("tol", tol)
    if not columns["u"]:
        raise ValueError("classification needs at least one sample point")
    norms, ranks, flags = columns["norms"], columns["rank_phi"], columns["flags"]
    invariant = max(norms["omega"]) <= tol
    anti = max(norms["phi"]) <= tol
    semi = _semi_invariant(max(norms["omega_phi"]) <= tol, ranks)
    if invariant:
        verdict = "invariant"
    elif anti:
        verdict = "anti-invariant"
    elif semi:
        verdict = "proper semi-invariant"
    else:
        verdict = "generic"
    dim_d = ranks[0] if verdict != "generic" else None
    return ClassificationResult(
        classification=verdict,
        dim_d=dim_d,
        dim_d_perp=n - dim_d if dim_d is not None else None,
        minimal=all(flags["minimal"]),
        pseudo_umbilical=all(flags["pseudo_umbilical"]),
        insufficient_samples=len(columns["u"]) < 2,
        points=columns,
    )


def classify(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
) -> ClassificationResult:
    """Four-way classification aggregated over the sample points.

    invariant: omega vanishes everywhere; anti-invariant: phi vanishes;
    semi-invariant: omega.phi vanishes and rank(phi) is constant across the
    samples; generic otherwise.  ``tol`` is a positive finite number.
    """
    if samples is None:
        samples = immersion.samples
    geo = _JetGeometry(immersion, space, samples)
    return aggregate_classification(classify_point(geo, tol), immersion.n, tol)
