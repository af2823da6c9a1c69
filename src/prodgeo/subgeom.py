"""Pointwise geometry of an immersed submanifold, for all sample points at once.

Builds orthonormal tangent/normal frames, the induced metric, the second
fundamental form and shape operators, the mean curvature vector, the
tangential/normal split of the ambient product structure (the phi, omega,
B, C matrices), and the invariant / anti-invariant / semi-invariant /
generic classifier.

Everything is computed from jets seeded in the n submanifold parameters
only, so each quantity is available not just as a value but as a germ
carrying its own parameter derivatives; the connection calculus of
:mod:`prodgeo.calculus` differentiates those germs directly, inside
:func:`prodgeo.verify.verify`.
Vector, matrix and frame fields are array jets whose leading axis runs over
the sample points, so one build is a few hundred numpy contractions for a
whole document; a single point is the same code with no point axis, and
:func:`point_geometry` reads its values.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import expr as ex
from . import jets
from .ambient import AmbientSpace, SingularMetric, levi_civita, positive_definite

__all__ = [
    "DegenerateImmersion",
    "Immersion",
    "PointGeometry",
    "PointRecords",
    "PointClassification",
    "ClassificationPoints",
    "ClassificationResult",
    "param_vars",
    "point_geometry",
    "is_minimal",
    "is_pseudo_umbilical",
    "pseudo_umbilical_gap",
    "classify",
    "classify_point",
    "aggregate_classification",
]


class DegenerateImmersion(ValueError):
    """The immersion is rank-deficient (or frame completion failed) at a point."""


def param_vars(n: int) -> tuple[str, ...]:
    return tuple(f"u{a + 1}" for a in range(n))


@dataclass(frozen=True)
class Immersion:
    """Parametric immersion: N component expressions over u1..un.

    The components are compiled into one :class:`~prodgeo.expr.Plan` at
    construction, so a subexpression repeated across them (``sin(u1)`` in
    several components) is evaluated once per environment.
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
        allowed = set(param_vars(self.n))
        used = frozenset().union(*(ex.variables(c) for c in components))
        if not used <= allowed:
            raise ex.UnknownVariable(sorted(used - allowed)[0])
        samples = tuple(tuple(float(v) for v in s) for s in self.samples)
        object.__setattr__(self, "samples", samples)
        for s in samples:
            if len(s) != self.n:
                raise ValueError(f"sample {s} does not have {self.n} coordinates")
        if samples:
            _points(samples, self.n)  # rejects a non-finite sample
        object.__setattr__(self, "_plan", ex.Plan([components]))

    @property
    def ambient_dim(self) -> int:
        return len(self.components)

    def image(self, u) -> np.ndarray:
        """Ambient coordinates of the points with parameters ``u``, shape ``(..., n)``."""
        u = np.asarray(u, dtype=float)
        if u.size == 0:
            u = u.reshape(0, self.n)
        env = {name: u[..., a] for a, name in enumerate(param_vars(self.n))}
        try:
            # a non-finite image fails ambient validation or the geometry build
            with np.errstate(over="ignore", invalid="ignore"):
                x = self._plan(env)[0]
        except jets.DomainError as err:
            raise err.at("u", u) from None
        # a constant map has no point axes of its own
        return np.broadcast_to(x, u.shape[:-1] + x.shape).copy() if x.ndim < u.ndim else x


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


def _values(field) -> np.ndarray:
    """Values of a jet field; a constant field is already a float array."""
    return field.value if isinstance(field, jets.Jet) else field


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (one matrix per point)."""
    return a.swapaxes(-1, -2)


def _split_structure(f0, g0, tangent_on, normal_on):
    """phi/omega (F on the tangent frame) and B/C (F on the normal frame)."""
    fe = tangent_on @ _t(f0)
    fxi = normal_on @ _t(f0)
    return (
        _t(fe @ g0 @ _t(tangent_on)),
        _t(fe @ g0 @ _t(normal_on)),
        _t(fxi @ g0 @ _t(tangent_on)),
        _t(fxi @ g0 @ _t(normal_on)),
    )


def _umbilicity_gap(h, normal_on, g0, H):
    """max_{a,b} | g(h(e_a, e_b), H) - delta_ab |H|^2 |, h in frame components."""
    h_xi = np.einsum("...mi,...ij,...j->...m", normal_on, g0, H)
    h_dot_h = np.einsum("...mab,...m->...ab", h, h_xi)
    hsq = np.einsum("...i,...ij,...j->...", H, g0, H)
    return np.max(np.abs(h_dot_h - hsq[..., None, None] * np.eye(h.shape[-1])), axis=(-2, -1))


def _points(samples, n: int) -> np.ndarray:
    """Sample points as a ``(P, n)`` array; at least one is needed, and all finite."""
    if len(samples) == 0:
        raise ValueError("classification needs at least one sample point")
    u = np.reshape(np.asarray(samples, dtype=float), (len(samples), n))
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample point {tuple(u[np.argmin(finite)].tolist())} is not finite")
    return u


class _JetGeometry:
    """All pointwise data of an immersion at its sample points, carried as jets.

    ``u`` is one point (shape ``(n,)``) or a batch of points (``(P, n)``);
    every field then carries that leading point shape.  Seed layout: one
    seed direction per submanifold parameter ``u1..un`` and no other; the
    ambient metric derivatives are the space's symbolic ``metric_diff``
    evaluated along the immersion, by one plan with the metric and
    structure.  Each field carries the order its readers need, for the
    requested order ``p``: the immersion ``f`` carries ``p`` and the
    coordinate tangent fields ``T`` (shape ``(..., n, N)``) ``p - 1``.  The
    metric ``gf`` ``(..., N, N)`` and structure ``Ff`` along the immersion,
    the Gram-Schmidt input, the frames ``e_field`` ``(..., n, N)`` and
    ``xi_field`` ``(..., m, N)``, the lowered tangent frame ``gE`` and the
    induced metric ``G_field`` carry ``max(p - 2, 1)``: every reader
    differentiates them at most once.  The Christoffel symbols ``gamma_f``
    ``(..., N, N, N)``, the second fundamental form ``h_field``
    ``(..., n, n, N)``, ``H_field`` ``(..., N)`` and ``Ginv_field`` carry
    ``p - 2``.  A metric, structure or connection that is constant along the
    immersion stays a float array without point axes.  Two cases are read
    off those evaluated tables: a metric-derivative table that is a constant
    zero array sets ``flat``, and then ``gamma_f`` and ``GammaT0`` are
    ``None`` and no Christoffel term is contracted; a constant identity
    metric sets ``unit_metric``, and :meth:`lower` returns its argument.
    Decisions that differ between points (the Jacobian rank, positive
    definiteness, the normal frame completion) are masks over the points;
    a failing check names the first failing point.
    """

    def __init__(
        self,
        immersion: Immersion,
        space: AmbientSpace,
        u,
        order: int = 3,
        column_order: str = "forward",
    ):
        if immersion.ambient_dim != space.dim:
            raise ValueError(
                f"immersion maps into dimension {immersion.ambient_dim}, "
                f"ambient space has dimension {space.dim}"
            )
        if order < 2:
            raise jets.InsufficientJetOrder("point geometry needs jet order >= 2")
        n, N = immersion.n, space.dim
        self.n, self.N, self.m = n, N, N - n
        self.u = np.array(u, dtype=float)
        self.lead = self.u.ndim - 1  # 0 for one point, 1 for a batch
        shape = self.u.shape[:-1]
        self.points = [tuple(row) for row in self.u.reshape(-1, n).tolist()]

        self.uenv = dict(zip(param_vars(n), jets.seed_point(self.u, order)))
        low = max(order - 2, 1)  # the order of every field read at most once differentiated
        try:
            # overflow and NaN are found by the masks below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                self.f = immersion._plan(self.uenv)[0]
                if not isinstance(self.f, jets.Jet):  # a constant map, lifted at every point
                    self.f = jets.array([0.0 * self.uenv["u1"] + c for c in self.f])
                # ambient metric, structure and metric derivatives along the immersion
                self.gf, self.Ff, dg = space.tables(
                    ("metric", "structure", "metric_diff"), self.f.truncate(low)
                )
                if isinstance(dg, jets.Jet):
                    dg = dg.truncate(order - 2)
        except jets.DomainError as err:
            raise err.at("u", self.u) from None
        self.x0 = self.f.value

        # coordinate tangent fields T[..., a, :] = df/du^a
        jacobian = jets.array([jets.partial(self.f, a) for a in range(n)])
        self.J0 = jacobian.value
        self.T = jacobian.swapaxes(-1, -2)
        self.g0, self.F0 = _values(self.gf), _values(self.Ff)

        # the image, J and the higher derivatives of the immersion
        immersed = np.isfinite(self.f.coeffs).all(axis=(-2, -1))
        finite = np.broadcast_to(np.isfinite(self.g0).all(axis=(-2, -1)), shape)
        definite = np.broadcast_to(positive_definite(self.g0, tol=0.0), shape)
        chol = np.linalg.cholesky(np.where(definite[..., None, None], self.g0, np.eye(N)))
        jac = np.where(immersed[..., None, None], self.J0, 0.0)
        smallest = np.linalg.svd(_t(chol) @ jac, compute_uv=False).min(axis=-1)
        bad = ~immersed | ~definite | (smallest <= 1e-8)
        if bad.any():
            p = np.unravel_index(np.argmax(bad), shape)
            if not immersed[p]:
                raise DegenerateImmersion(
                    f"immersion is not finite at u = {tuple(self.u[p].tolist())} "
                    "(its value or a derivative overflows)"
                )
            if not finite[p]:
                raise SingularMetric("ambient metric is not finite along the immersion")
            if not definite[p]:
                raise SingularMetric(
                    "ambient metric is not positive definite along the immersion"
                )
            raise DegenerateImmersion(
                f"Jacobian rank < {n} at u = {tuple(self.u[p].tolist())} "
                f"(smallest singular value {smallest[p]:.3e})"
            )

        # Christoffel symbols along the immersion and Gamma(T_a, .) at the
        # base points, unless the connection vanishes
        self.flat = isinstance(dg, np.ndarray) and not dg.any()
        self.gamma_f = self.GammaT0 = None
        if not self.flat:
            self.gamma_f = levi_civita(jets.inverse(self.gf), dg)
            self.GammaT0 = np.einsum("...ijk,...ja->...ika", _values(self.gamma_f), self.J0)
        self.unit_metric = isinstance(self.gf, np.ndarray) and np.array_equal(self.gf, np.eye(N))

        # orthonormal frames (modified Gram-Schmidt under the ambient metric):
        # the tangent columns, then coordinate axes until the frame is full.
        # Slot s of ``frames`` holds the s-th frame vector once filled and
        # zero before, so orthogonalizing against an empty slot is an exact
        # no-op; ``filled`` counts the slots of each point.  ``lowered`` holds
        # g(e_s, .) beside each slot, so no frame vector is lowered twice.
        columns = list(range(n))
        if column_order == "reversed":
            columns.reverse()
        elif column_order != "forward":
            raise ValueError("column_order must be 'forward' or 'reversed'")
        tangents = self.T.truncate(low)
        frames = lowered = jets.Jet(tangents.alg, np.zeros(shape + (N, N, tangents.alg.size)))
        filled = np.zeros(shape, dtype=int)
        for k, vec in enumerate([tangents[..., c, :] for c in columns] + list(np.eye(N))):
            if k >= n and (filled == N).all():
                break
            w = vec
            for slot in range(int(filled.max())):
                ip = jets.einsum("...i,...i->...", w, lowered[..., slot, :])
                w = w - ip[..., None] * frames[..., slot, :]
            w_lowered = self.lower(w)
            nrm2 = jets.einsum("...i,...i->...", w, w_lowered)
            if k < n:
                if (nrm2.coeffs[..., 0] <= 0.0).any():
                    raise DegenerateImmersion("tangent frame collapsed during orthonormalization")
                accept = np.ones(shape, dtype=bool)
            else:
                accept = (nrm2.coeffs[..., 0] >= 1e-8 ** 2) & (filled < N)
            # a rejected candidate gets a unit norm, then a zero weight
            scale = ((nrm2 + np.where(accept, 0.0, 1.0)) ** -0.5)[..., None]
            weight = ((np.arange(N) == filled[..., None]) & accept[..., None])[..., None]
            frames = frames + (w * scale)[..., None, :] * weight
            lowered = lowered + (w_lowered * scale)[..., None, :] * weight
            filled = filled + accept
        if (filled != N).any():
            raise DegenerateImmersion("could not complete the normal frame")
        self.e_field, self.xi_field = frames[..., :n, :], frames[..., n:, :]
        self.gE = lowered[..., :n, :]
        self.E0, self.Xi0 = self.e_field.value, self.xi_field.value
        # tangent projector at the base points: P^i_j v^j = sum_a g(v, e_a) e_a^i
        self.P_tan0 = np.einsum("...ai,...aj->...ij", self.E0, self.gE.value)

        # induced metric and its inverse
        self.G_field = jets.einsum("...ai,...bi->...ab", tangents, self.lower(tangents))
        self.G0 = self.G_field.value
        self.G0inv = np.linalg.inv(self.G0)
        self.Ginv_field = jets.inverse(self.G_field.truncate(order - 2))

        # coordinate-frame second fundamental form: the normal part of
        # d_b T_a + Gamma(T_a, T_b), an (..., n, n, N) field
        dT = jets.array([jets.partial(self.T, b) for b in range(n)]).swapaxes(-1, -2)
        if not self.flat:
            gamma_t = jets.einsum("...ijk,...bk->...bij", self.gamma_f, self.T)
            dT = dT + jets.einsum("...aj,...bij->...abi", self.T, gamma_t)
        self.h_field = self.normal_part_field(dT)
        self.hc0 = self.h_field.value

        # mean curvature field H = (1/n) G^{ab} h_ab
        self.H_field = jets.einsum("...ab,...abi->...i", self.Ginv_field, self.h_field) * (1.0 / n)
        self.H0 = self.H_field.value
        self.Hsq = np.einsum("...i,...ij,...j->...", self.H0, self.g0, self.H0)

        # coordinate components of tangent vectors, v^a = G^ab g(T_b, v), and
        # the frame decomposition of the tangent frame in them
        self.to_params = self.G0inv @ _t(self.J0) @ self.g0
        self.P = self.to_params @ _t(self.E0)  # e_a = P[..., :, a]^c T_c
        self.h_on0 = np.einsum("...ca,...db,...cdi->...abi", self.P, self.P, self.hc0)
        self.hcomp0 = np.einsum("...abi,...ij,...mj->...mab", self.h_on0, self.g0, self.Xi0)

        self.phi0, self.omega0, self.B0, self.C0 = _split_structure(
            self.F0, self.g0, self.E0, self.Xi0
        )
        self.pu_gap = _umbilicity_gap(self.hcomp0, self.Xi0, self.g0, self.H0)
        # what the classes are defined by; each caller thresholds them with its tolerance
        self.H_norm = np.sqrt(np.maximum(self.Hsq, 0.0))
        self.phi_norm, self.omega_norm, self.omega_phi_norm = (
            np.linalg.norm(m, axis=(-2, -1))
            for m in (self.phi0, self.omega0, self.omega0 @ self.phi0)
        )
        self.phi_singular = np.linalg.svd(self.phi0, compute_uv=False)

    def per_point(self, values) -> list:
        """A per-point array (or a value shared by all points) as a list over the points."""
        return np.broadcast_to(values, self.u.shape[:-1]).reshape(-1).tolist()

    # ---- jet-field helpers ----------------------------------------------
    # Fields are jets (or float arrays) shaped (points..., batch..., N): the
    # point axes of the geometry, then any axes that batch several fields
    # (one row per field), then the ambient component.  Geometry fields get
    # unit axes for the batch axes (_fit); constant fields broadcast as they are.

    def _fit(self, field, axes: int, vec):
        """``field`` (``axes`` trailing non-point axes) broadcastable against
        the point and batch axes of ``vec``, a vector or vector field."""
        extra = len(vec.shape) - 1 - self.lead
        if extra <= 0 or len(field.shape) == axes:
            return field
        return field[(Ellipsis,) + (None,) * extra + (slice(None),) * axes]

    def lower(self, vec):
        """g(vec, .) as components: g_ij vec^j (``vec`` itself for a unit metric)."""
        if self.unit_metric:
            return vec
        return jets.einsum("...ij,...j->...i", self._fit(self.gf, 2, vec), vec)

    def apply_F_field(self, vec):
        return jets.einsum("...ij,...j->...i", self._fit(self.Ff, 2, vec), vec)

    def tangent_part_field(self, vec):
        coefficients = jets.einsum("...i,...ai->...a", vec, self._fit(self.gE, 2, vec))
        return jets.einsum("...a,...ai->...i", coefficients, self._fit(self.e_field, 2, vec))

    def normal_part_field(self, vec):
        return vec - self.tangent_part_field(vec)

    # ---- directional derivatives at the base points ----------------------
    # A direction is a constant (n,) or one per point (points..., n).

    def dirderiv(self, vec, direction) -> np.ndarray:
        """Derivative of a jet field along a parameter direction."""
        d = self._fit(np.asarray(direction, dtype=float), 1, vec)
        return np.einsum("...ia,...a->...i", vec.gradient(), d)

    def cov_deriv(self, vec, direction) -> np.ndarray:
        """Ambient covariant derivative of a field along a parameter direction."""
        if self.flat:
            return self.dirderiv(vec, direction)
        d = self._fit(np.asarray(direction, dtype=float), 1, vec)
        return self.dirderiv(vec, direction) + np.einsum(
            "...ika,...a,...k->...i", self._fit(self.GammaT0, 3, vec), d, vec.value
        )

    def project_tangent(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self._fit(self.P_tan0, 2, v), v)

    def project_normal(self, v: np.ndarray) -> np.ndarray:
        return v - self.project_tangent(v)

    def nabla_tan(self, vec, direction) -> np.ndarray:
        return self.project_tangent(self.cov_deriv(vec, direction))

    def nabla_perp(self, vec, direction) -> np.ndarray:
        return self.project_normal(self.cov_deriv(vec, direction))

    # ---- base-point tensor algebra ---------------------------------------
    # Vectors are (points..., batch..., N) arrays; parameter-space vectors
    # (points..., batch..., n), or a constant (n,).

    def norm_g(self, v: np.ndarray) -> np.ndarray:
        sq = np.einsum("...i,...ij,...j->...", v, self._fit(self.g0, 2, v), v)
        return np.sqrt(np.maximum(sq, 0.0))

    def f_tangent_part(self, v: np.ndarray) -> np.ndarray:
        """phi on tangent vectors, B on normal vectors."""
        return self.project_tangent(np.einsum("...ij,...j->...i", self._fit(self.F0, 2, v), v))

    def f_normal_part(self, v: np.ndarray) -> np.ndarray:
        """omega on tangent vectors, C on normal vectors."""
        return self.project_normal(np.einsum("...ij,...j->...i", self._fit(self.F0, 2, v), v))

    def param_components(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("...ai,...i->...a", self._fit(self.to_params, 2, v), v)

    def h_bilinear(self, x_params: np.ndarray, w: np.ndarray) -> np.ndarray:
        """h(X, W) for X in parameter components and W a tangent vector."""
        return self.h_params(x_params, self.param_components(w))

    def h_params(self, x_params: np.ndarray, y_params: np.ndarray) -> np.ndarray:
        x_params = self._fit(np.asarray(x_params, dtype=float), 1, y_params)
        return np.einsum(
            "...a,...b,...abi->...i", x_params, y_params, self._fit(self.hc0, 3, y_params)
        )

    def shape_operator(self, x_params: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """A_xi X via g(A_xi X, e_b) = g(h(X, e_b), xi)."""
        h_xb = np.einsum("...a,...cb,...aci->...bi", x_params, self.P, self.hc0)
        h_xb_lowered = np.einsum("...bi,...ij->...bj", h_xb, self.g0)
        coefficients = np.einsum("...bj,...j->...b", self._fit(h_xb_lowered, 2, xi), xi)
        return np.einsum("...b,...bi->...i", coefficients, self._fit(self.E0, 2, xi))


# ---- public per-point operations ----------------------------------------


def point_geometry(immersion: Immersion, space: AmbientSpace, u: Sequence[float]) -> PointGeometry:
    """Full per-point bundle (frames, h, H, phi/omega/B/C) at one parameter point."""
    geo = _JetGeometry(immersion, space, u, order=2)
    return PointGeometry(
        u=geo.points[0],
        x=geo.x0.copy(),
        tangent_on=geo.E0.copy(),
        normal_on=geo.Xi0.copy(),
        induced_metric=geo.G0.copy(),
        ambient_metric=geo.g0.copy(),
        h=geo.hcomp0.copy(),
        H=geo.H0.copy(),
        phi=geo.phi0.copy(),
        omega=geo.omega0.copy(),
        Bm=geo.B0.copy(),
        Cm=geo.C0.copy(),
    )


def is_minimal(pg: PointGeometry, tol: float = 1e-8) -> bool:
    h_norm = float(np.sqrt(max(pg.H @ pg.ambient_metric @ pg.H, 0.0)))
    return h_norm <= tol


def pseudo_umbilical_gap(pg: PointGeometry) -> float:
    """max_{a,b} | g(h(e_a, e_b), H) - delta_ab |H|^2 |."""
    return float(_umbilicity_gap(pg.h, pg.normal_on, pg.ambient_metric, pg.H))


def is_pseudo_umbilical(pg: PointGeometry, tol: float = 1e-8) -> bool:
    return pseudo_umbilical_gap(pg) <= tol


# ---- classification -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointRecords(Sequence):
    """A per-point result kept as ``columns``, which map each field (``"u"``
    first) to its values over the points, and read as a tuple of records,
    built on first read: ``(u, value, ...)`` tuples here, a record type in
    subclasses.  A list or tuple of the same records compares equal."""

    columns: dict

    def rows(self) -> tuple:
        return tuple(zip(*self.columns.values()))

    @cached_property
    def _rows(self) -> tuple:
        return self.rows()

    def __getitem__(self, index):
        return self._rows[index]

    def __len__(self) -> int:
        return len(self.columns["u"])

    def __eq__(self, other) -> bool:
        if isinstance(other, (PointRecords, tuple, list)):
            return self._rows == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)


@dataclass(frozen=True)
class PointClassification:
    u: tuple[float, ...]
    phi_norm: float
    omega_norm: float
    omega_phi_norm: float
    rank_phi: int
    minimal: bool
    pseudo_umbilical: bool
    mean_curvature_sq: float


class ClassificationPoints(PointRecords):
    """Columns named and ordered like the fields of :class:`PointClassification`."""

    def rows(self) -> tuple:
        return tuple(map(PointClassification, *self.columns.values()))


@dataclass(frozen=True)
class ClassificationResult:
    classification: str
    points: ClassificationPoints
    dim_d: int | None
    dim_d_perp: int | None
    insufficient_samples: bool
    tol: float


def _rank(singular: np.ndarray, tol: float):
    """Numerical rank from singular values, with the documented sqrt(tol) threshold."""
    return np.sum(singular > np.sqrt(tol), axis=-1)


def _semi_invariant(omega_phi_vanishes: bool, ranks) -> bool:
    """Semi-invariance is global: omega.phi vanishes and rank(phi) is constant."""
    return omega_phi_vanishes and len(set(ranks)) == 1


def classify_point(geo: _JetGeometry, tol: float = 1e-8) -> ClassificationPoints:
    """The geometry's class measures at every point, thresholded at ``tol``."""
    columns = (geo.phi_norm, geo.omega_norm, geo.omega_phi_norm, _rank(geo.phi_singular, tol),
               geo.H_norm <= tol, geo.pu_gap <= tol, geo.Hsq)
    names = [f.name for f in fields(PointClassification)]
    return ClassificationPoints(dict(zip(names, [geo.points, *map(geo.per_point, columns)])))


def aggregate_classification(
    points: ClassificationPoints, n: int, tol: float
) -> ClassificationResult:
    """Fold per-point data into the four-way verdict."""
    if not points:
        raise ValueError("classification needs at least one sample point")
    columns = points.columns
    invariant = max(columns["omega_norm"]) <= tol
    anti = max(columns["phi_norm"]) <= tol
    omega_phi = max(columns["omega_phi_norm"]) <= tol
    ranks = columns["rank_phi"]
    semi = _semi_invariant(omega_phi, ranks)
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
        points=points,
        dim_d=dim_d,
        dim_d_perp=n - dim_d if dim_d is not None else None,
        insufficient_samples=len(points) < 2,
        tol=tol,
    )


def classify(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
    column_order: str = "forward",
) -> ClassificationResult:
    """Four-way classification aggregated over the sample points.

    invariant: omega vanishes everywhere; anti-invariant: phi vanishes;
    semi-invariant: omega.phi vanishes and rank(phi) is constant across the
    samples; generic otherwise.
    """
    if samples is None:
        samples = immersion.samples
    geo = _JetGeometry(
        immersion, space, _points(samples, immersion.n), order=2, column_order=column_order
    )
    return aggregate_classification(classify_point(geo, tol), immersion.n, tol)
