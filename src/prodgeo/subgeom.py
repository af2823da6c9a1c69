"""Pointwise geometry of an immersed submanifold, for all sample points at once.

Builds orthonormal tangent/normal frames, the induced metric, the second
fundamental form and shape operators, the mean curvature vector, the
tangential/normal split of the ambient product structure (the phi, omega,
B, C matrices), and the invariant / anti-invariant / semi-invariant /
generic classifier.

The immersion is a jet of order 2 seeded in the n submanifold parameters
only, at every entry point.  The base-point values are float algebra on its
Taylor coefficients; the fields the connection calculus of
:mod:`prodgeo.calculus` differentiates are first-order jets, germs carrying
their own parameter derivatives, built on first read, so a classification
never builds them.
Vector, matrix and frame fields are array jets whose leading axis runs over
the sample points, so one build makes the same numpy calls for a whole
document as for one point; :func:`point_geometry` reads row 0 of a one-point
batch.  Contractions of float arrays are stacked matrix products (``@``),
one call for all points and rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from . import jets
from .ambient import (
    AmbientSpace,
    AmbientValidationFailure,
    SingularMetric,
    leading_minors,
    levi_civita,
    positive_definite,
    validate_ambient,
)

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


def _values(field) -> np.ndarray:
    """Values of a jet field; a constant field is already a float array."""
    return field.value if isinstance(field, jets.Jet) else field


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (one matrix per point)."""
    return a.swapaxes(-1, -2)


def _split_structure(f0, g0, frame, n: int):
    """phi/omega (F on the tangent frame) and B/C (F on the normal frame): the
    blocks of g(F e_s, e_r) over the ``frame`` rows, tangent rows first."""
    m = _t(frame @ _t(f0) @ g0 @ _t(frame))
    return m[..., :n, :n], m[..., n:, :n], m[..., :n, n:], m[..., n:, n:]


def _umbilicity_gap(h, normal_on, g0, H):
    """max_{a,b} | g(h(e_a, e_b), H) - delta_ab |H|^2 |, h in frame components."""
    g_h = (g0 @ H[..., None])[..., 0]
    h_xi = (normal_on @ g_h[..., None])[..., None]
    h_dot_h = (h * h_xi).sum(axis=-3)
    hsq = (H * g_h).sum(axis=-1)
    return np.max(np.abs(h_dot_h - hsq[..., None, None] * np.eye(h.shape[-1])), axis=(-2, -1))


@lru_cache(maxsize=None)
def _half_lower(size: int) -> np.ndarray:
    """Phi of the frame jets as a mask: the strictly lower triangle and half
    the diagonal of a ``(size, size)`` matrix, with a unit seed axis."""
    return (np.tril(np.ones((size, size)), -1) + 0.5 * np.eye(size))[..., None]


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
    """All pointwise data of an immersion at its sample points: values as
    floats, derivatives as jets built on first read.

    ``u`` is a batch of points, shape ``(P, n)``, and every field carries
    that leading point axis; the tangent columns are in parameter order.
    Seed layout: one seed direction per submanifold parameter ``u1..un`` and
    no other.  The immersion ``f`` is a jet of order 2; the metric ``gf``
    and structure ``Ff`` along it are the space's tables, evaluated on ``f``
    at order 1 by one plan with the metric derivatives.  A table that is
    constant along the immersion is a float array without a point axis.

    The rule: every base-point value is float algebra, and every derivative
    jet is built on first read.  The construction computes the values only,
    from the Taylor coefficients of ``f`` and the tables' values: the
    Jacobian ``J0`` and the coordinate Hessian (a mixed second derivative
    is its coefficient, ``d_a d_a f`` twice it), Gamma(T_a, .) as
    ``GammaT0``, the frames ``E0``/``Xi0`` by modified Gram-Schmidt with
    column pivoting, the induced metric ``G0`` and its inverse, ``hc0``
    (the normal part of the Hessian plus Gamma(T_a, T_b)), ``H0``, and
    everything the classifier, the lemmas and T2-T4 read at the base
    points.  A classification stops there.  The jets are cached properties
    of order 1, all that their reader,
    :func:`~prodgeo.calculus.lemma_tensors`, differentiates: ``T``
    (``(P, n, N)``), and the frames ``e_field`` and ``xi_field`` with the
    lowered tangent frame ``gE``, solved in closed form from ``E g E^T = I``
    and the lower triangular change of basis.

    Two cases are read off the evaluated tables: a metric-derivative table
    that is a constant zero array sets ``flat``, and then ``GammaT0`` is
    ``None`` and no Christoffel term is contracted; a constant identity
    metric sets ``unit_metric``, and :meth:`lower0` returns its argument.
    Decisions that differ between points (the Jacobian rank, positive
    definiteness, a finite induced metric, the normal frame completion) are
    masks over the points; a failing check names the first failing point.
    Before any can raise, :func:`~prodgeo.ambient.validate_ambient` reads
    ``x0``, the tables' values, the Christoffel symbols and the metric's
    leading minors into ``ambient_report``; with ``strict`` a failed report
    raises.
    """

    def __init__(self, immersion: Immersion, space: AmbientSpace, u, strict: bool = False):
        if immersion.ambient_dim != space.dim:
            raise ValueError(
                f"immersion maps into dimension {immersion.ambient_dim}, "
                f"ambient space has dimension {space.dim}"
            )
        n, N = immersion.n, space.dim
        self.n, self.N, self.m = n, N, N - n
        self.u = np.array(u, dtype=float)
        if self.u.ndim != 2 or self.u.shape[1] != n:
            raise ValueError(f"sample points must have shape (P, {n}), not {self.u.shape}")
        npts = len(self.u)
        self.points = [tuple(row) for row in self.u.tolist()]

        self.uenv = dict(zip(param_vars(n), jets.seed_point(self.u, 2)))
        # overflow and NaN are found by the masks below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                self.f = immersion._plan(self.uenv)[0]
            except jets.DomainError as err:
                raise err.at("u", self.u) from None
            if not isinstance(self.f, jets.Jet):  # a constant map, lifted at every point
                self.f = jets.array([0.0 * self.uenv["u1"] + c for c in self.f])
            self.x0 = self.f.value
            try:
                # ambient metric, structure and metric derivatives along the immersion
                self.gf, self.Ff, dg = space.tables(
                    ("metric", "structure", "metric_diff"), self.f.truncate(1)
                )
            except jets.DomainError as err:
                raise err.at("x", self.x0) from None
            self.g0, self.F0 = _values(self.gf), _values(self.Ff)
            # the metric, the identity where it is not positive definite, so that
            # no inverse or factorization meets a singular matrix; and the
            # Christoffel symbols at the images unless the connection vanishes;
            # the validation thresholds the same minors at its own tolerance
            minors = leading_minors(self.g0)
            definite = np.broadcast_to(positive_definite(minors, tol=0.0), (npts,))
            safe_g0 = np.where(definite[..., None, None], self.g0, np.eye(N))
            self.flat = isinstance(dg, np.ndarray) and not dg.any()
            gamma0 = None if self.flat else levi_civita(np.linalg.inv(safe_g0), _values(dg))
        self.ambient_report = validate_ambient(space, self.x0, self.g0, self.F0, gamma0, minors)
        if strict and not self.ambient_report.passed:
            raise AmbientValidationFailure(self.ambient_report)

        # the Jacobian J0[..., i, a] = d f^i / d u^a, read off the immersion's
        # Taylor coefficients; the tangent vectors T_a are its columns
        self.J0 = self.f.gradient()
        T0 = _t(self.J0)

        # the image, J and the higher derivatives of the immersion
        immersed = np.isfinite(self.f.coeffs).all(axis=(-2, -1))
        finite = np.broadcast_to(np.isfinite(self.g0).all(axis=(-2, -1)), (npts,))
        chol = np.linalg.cholesky(safe_g0)
        jac = np.where(immersed[..., None, None], self.J0, 0.0)
        smallest = np.linalg.svd(_t(chol) @ jac, compute_uv=False).min(axis=-1)
        self.unit_metric = isinstance(self.gf, np.ndarray) and np.array_equal(self.gf, np.eye(N))
        # induced metric G_ab = g(T_a, T_b), which overflows for a finite but huge J
        with np.errstate(over="ignore", invalid="ignore"):
            self.G0 = T0 @ _t(self.lower0(T0))
        induced = np.isfinite(self.G0).all(axis=(-2, -1))
        bad = ~immersed | ~definite | ~induced | (smallest <= 1e-8)
        if bad.any():
            p = np.argmax(bad)
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
            if not induced[p]:
                raise DegenerateImmersion(
                    f"induced metric is not finite at u = {tuple(self.u[p].tolist())}"
                )
            raise DegenerateImmersion(
                f"Jacobian rank < {n} at u = {tuple(self.u[p].tolist())} "
                f"(smallest singular value {smallest[p]:.3e})"
            )

        # unless the connection vanishes, Gamma(T_a, .) at the base points with
        # the direction first: GammaT0[..., a, k, i] = Gamma^i_jk T_a^j
        self.GammaT0 = None
        if not self.flat:
            gamma0 = np.moveaxis(gamma0, -3, -1).reshape(npts, N, N * N)  # [j, k, i]
            self.GammaT0 = (T0 @ gamma0).reshape(npts, n, N, N)

        # orthonormal frames under the ambient metric by modified Gram-Schmidt
        # on the base-point floats: the tangent columns, then in each normal
        # slot the coordinate axis whose residual is longest (column pivoting;
        # under a unit metric it is at least 1/sqrt(N)).  ``W`` holds every
        # candidate's residual, orthogonalized against each slot as it fills;
        # a slot's candidates are orthogonalized once more against all filled
        # slots.  Slot s of ``E0`` holds the s-th frame vector once filled and
        # zero before, ``GE0`` g(e_s, .) beside it and ``V0`` its candidate.
        axes = np.eye(N)
        E0, GE0, self.V0 = (np.zeros((npts, N, N)) for _ in range(3))
        self.V0[:, :n] = T0
        W = np.concatenate([T0, np.broadcast_to(axes, (npts, N, N))], axis=-2)
        each = np.arange(npts)
        for slot in range(N):
            w = W[:, slot : slot + 1] if slot < n else W[:, n:]
            w = w - (w @ _t(GE0)) @ E0
            w_lowered = self.lower0(w)
            nrm2 = (w * w_lowered).sum(axis=-1)
            best = nrm2.argmax(axis=-1)
            nrm2 = nrm2[each, best]
            if slot < n and (nrm2 <= 0.0).any():
                raise DegenerateImmersion("tangent frame collapsed during orthonormalization")
            if slot >= n and (nrm2 < 1e-8 ** 2).any():
                raise DegenerateImmersion("could not complete the normal frame")
            picked = np.stack([w, w_lowered])[:, each, best]
            E0[:, slot], GE0[:, slot] = picked * (1.0 / np.sqrt(nrm2))[:, None]
            if slot >= n:
                self.V0[:, slot] = axes[best]
            W = W - (W @ GE0[:, slot, :, None]) * E0[:, slot, None, :]
        self.frame0, self.lowered_frame0 = E0, GE0
        self.E0, self.Xi0 = E0[..., :n, :], E0[..., n:, :]
        # tangent projector at the base points: P^i_j v^j = sum_a g(v, e_a) e_a^i
        self.P_tan0 = _t(self.E0) @ GE0[..., :n, :]

        self.G0inv = np.linalg.inv(self.G0)

        # coordinate-frame second fundamental form hc0[..., a, b, :]: the normal
        # part of d_a d_b f + Gamma(T_a, T_b)
        second = np.moveaxis(self.f.hessian(), 1, -1)  # (P, n, n, N)
        if not self.flat:
            second = second + T0[..., None, :, :] @ self.GammaT0
        self.hc0 = self.project_normal(second)

        # mean curvature H = (1/n) G^{ab} h_ab
        hc_rows = self.hc0.reshape(npts, n * n, N)
        self.H0 = (self.G0inv.reshape(npts, 1, n * n) @ hc_rows)[:, 0] * (1.0 / n)
        self.Hsq = (self.H0 * self.lower0(self.H0)).sum(axis=-1)

        # coordinate components of tangent vectors, v^a = G^ab g(T_b, v), and
        # the frame decomposition of the tangent frame in them
        self.to_params = self.G0inv @ _t(self.J0) @ self.g0
        self.P = self.to_params @ _t(self.E0)  # e_a = P[..., :, a]^c T_c
        # h(d_c, e_b) at [c, b], h(e_a, e_b) at [a, b] and its normal components
        self.h_ce0 = _t(self.P)[..., None, :, :] @ self.hc0
        h_on0 = (_t(self.P) @ self.h_ce0.reshape(npts, n, n * N)).reshape(npts, n * n, N)
        self.h_on0 = h_on0.reshape(npts, n, n, N)
        self.hcomp0 = (GE0[..., n:, :] @ _t(h_on0)).reshape(npts, self.m, n, n)

        self.phi0, self.omega0, self.B0, self.C0 = _split_structure(self.F0, self.g0, E0, n)
        self.pu_gap = _umbilicity_gap(self.hcomp0, self.Xi0, self.g0, self.H0)
        # what the classes are defined by; each caller thresholds them with its tolerance
        self.H_norm = np.sqrt(np.maximum(self.Hsq, 0.0))
        self.phi_norm, self.omega_norm, self.omega_phi_norm = (
            np.linalg.norm(m, axis=(-2, -1))
            for m in (self.phi0, self.omega0, self.omega0 @ self.phi0)
        )
        self.phi_singular = np.linalg.svd(self.phi0, compute_uv=False)

    # ---- derivative jets, built on first read ---------------------------

    @cached_property
    def T(self):
        """The coordinate tangent fields ``T[..., a, :] = df/du^a``, ``(P, n, N)``."""
        jacobian = jets.array([jets.partial(self.f, a) for a in range(self.n)])
        return jacobian.swapaxes(-1, -2)

    @cached_property
    def _frame_jets(self):
        """The frames, tangent rows first, and g(e_a, .) of the tangent ones,
        as first-order jets around the base-point frames.

        E = K V with K lower triangular and E g E^T = I give dE = A - Phi(X) E0,
        where A = L0^-1 dV, L0 = V0 (g0 E0)^T, X = Y + Y^T + E0 dg E0^T with
        Y = A (g0 E0)^T, and Phi keeps the strictly lower triangle and half the
        diagonal.  Only the tangent rows of V vary; the axes are constant.
        Each contraction is a stacked matmul: [..., r, s, z] holds entry
        (r, s) of the derivative along seed z.
        """
        n, N, npts = self.n, self.N, len(self.u)
        E0, GE0 = self.frame0, self.lowered_frame0
        tangents = self.T
        dV = np.zeros((npts, N, N, n))
        dV[:, :n] = tangents.coeffs[..., 1:]
        A = np.linalg.solve(self.V0 @ _t(GE0), dV.reshape(npts, N, N * n))
        A = A.reshape(npts, N, N, n)
        Y = GE0[..., None, :, :] @ A
        X = Y + Y.swapaxes(-3, -2)
        dg = self.gf.coeffs[..., 1:] if isinstance(self.gf, jets.Jet) else None
        if dg is not None:
            dg_e = (E0[..., None, :, :] @ dg).reshape(npts, N, N * n)  # [i, s, z]
            X = X + (E0 @ dg_e).reshape(npts, N, N, n)
        dE = A - _t(E0)[..., None, :, :] @ (X * _half_lower(N))
        dGE = dE[..., :n, :, :]
        if not self.unit_metric:
            dGE = _t(self.g0)[..., None, :, :] @ dGE
        if dg is not None:
            dg_rows = dg.reshape(npts, N, N * n)
            dGE = dGE + (E0[..., :n, :] @ dg_rows).reshape(npts, n, N, n)
        frames = jets.Jet(tangents.alg, np.concatenate([E0[..., None], dE], axis=-1))
        lowered = jets.Jet(tangents.alg, np.concatenate([GE0[..., :n, :, None], dGE], axis=-1))
        return frames, lowered

    @cached_property
    def e_field(self):
        """The orthonormal tangent frame, ``(P, n, N)``."""
        return self._frame_jets[0][..., : self.n, :]

    @cached_property
    def xi_field(self):
        """The orthonormal normal frame, ``(P, m, N)``."""
        return self._frame_jets[0][..., self.n :, :]

    @cached_property
    def gE(self):
        """g(e_a, .) of the tangent frame, ``(P, n, N)``."""
        return self._frame_jets[1]

    # ---- jet-field helpers ----------------------------------------------
    # Fields are jets (or float arrays) shaped (P, batch..., N): the point
    # axis of the geometry, then any axes that batch several fields (one row
    # per field), then the ambient component.  Geometry fields get unit axes
    # for the batch axes (_fit); constant fields broadcast as they are, and
    # a constant matrix against a jet field is one matmul.

    def _fit(self, field, axes: int, vec):
        """``field`` (``axes`` trailing non-point axes) broadcastable against
        the point and batch axes of ``vec``, a vector or vector field."""
        extra = len(vec.shape) - 2
        if extra <= 0 or len(field.shape) == axes:
            return field
        return field[(Ellipsis,) + (None,) * extra + (slice(None),) * axes]

    def apply_F_field(self, vec):
        return jets.einsum("...ij,...j->...i", self._fit(self.Ff, 2, vec), vec)

    def tangent_part_field(self, vec):
        coefficients = jets.einsum("...i,...ai->...a", vec, self._fit(self.gE, 2, vec))
        return jets.einsum("...a,...ai->...i", coefficients, self._fit(self.e_field, 2, vec))

    def normal_part_field(self, vec):
        return vec - self.tangent_part_field(vec)

    def nabla(self, vec) -> np.ndarray:
        """Ambient covariant derivative of a jet field along every coordinate
        direction: ``(P, n, batch..., N)``, row a along d_a.  That is the jet
        gradient, with the direction axis moved next to the points, plus
        Gamma(T_a, vec) for all a in one matmul."""
        grad = vec.coeffs[..., 1 : 1 + self.n]
        grad = grad.transpose((0, grad.ndim - 1) + tuple(range(1, grad.ndim - 1)))
        if self.flat:
            return grad
        value = vec.coeffs[..., 0]
        rows = value.reshape(len(value), 1, -1, self.N)
        return grad + (rows @ self.GammaT0).reshape(grad.shape)

    # ---- base-point tensor algebra ---------------------------------------
    # Vectors are (P, batch..., N) arrays, parameter-space vectors
    # (P, batch..., n); a batch axis may be the direction axis of
    # :meth:`nabla`.  A per-point matrix acts on the rows of every point in
    # one stacked matmul, a constant one (no point axis) on all rows at once.
    # h_params and shape_operator take one batch axis and return it behind
    # the direction axis, (P, n, batch, N).

    def _apply(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``m v`` for every vector ``v`` of ``(P, batch..., K)``, with ``m``
        ``(P, J, K)`` or a constant ``(J, K)``."""
        if m.ndim == 2:
            return v @ _t(m)
        rows = v.reshape(len(v), -1, v.shape[-1])
        return (rows @ _t(m)).reshape(v.shape[:-1] + m.shape[-2:-1])

    def lower0(self, v: np.ndarray) -> np.ndarray:
        """g(v, .) at the base points (``v`` itself for a unit metric)."""
        return v if self.unit_metric else self._apply(self.g0, v)

    def project_tangent(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.P_tan0, v)

    def project_normal(self, v: np.ndarray) -> np.ndarray:
        return v - self.project_tangent(v)

    def norm_g(self, v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum((v * self.lower0(v)).sum(axis=-1), 0.0))

    def f_tangent_part(self, v: np.ndarray) -> np.ndarray:
        """phi on tangent vectors, B on normal vectors."""
        return self.project_tangent(self._apply(self.F0, v))

    def f_normal_part(self, v: np.ndarray) -> np.ndarray:
        """omega on tangent vectors, C on normal vectors."""
        return self.project_normal(self._apply(self.F0, v))

    def param_components(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.to_params, v)

    def h_params(self, y_params: np.ndarray) -> np.ndarray:
        """h(d_a, Y) for every coordinate direction a and row Y of ``y_params``."""
        return y_params[..., None, :, :] @ self.hc0

    def shape_operator(self, xi: np.ndarray) -> np.ndarray:
        """A_xi d_a for every coordinate direction a and normal vector xi, a
        row of ``xi``, via g(A_xi X, e_b) = g(h(X, e_b), xi)."""
        coefficients = self.lower0(xi)[..., None, :, :] @ _t(self.h_ce0)
        return coefficients @ self.E0[..., None, :, :]


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
        ambient_metric=geo.g0 if geo.g0.ndim == 2 else geo.g0[0],  # constant: no point axis
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
    classification: str
    points: dict  # the columns of :func:`classify_point`
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


def classify_point(geo: _JetGeometry, tol: float = 1e-8) -> dict:
    """The geometry's class measures at every point, thresholded at ``tol``:
    a column over the points per name, ``"u"`` first."""
    names = ("phi_norm", "omega_norm", "omega_phi_norm", "rank_phi", "minimal",
             "pseudo_umbilical", "mean_curvature_sq")
    columns = (geo.phi_norm, geo.omega_norm, geo.omega_phi_norm, _rank(geo.phi_singular, tol),
               geo.H_norm <= tol, geo.pu_gap <= tol, geo.Hsq)
    return {"u": geo.points, **{name: c.tolist() for name, c in zip(names, columns)}}


def aggregate_classification(columns: dict, n: int, tol: float) -> ClassificationResult:
    """Fold the columns of :func:`classify_point` into the four-way verdict."""
    if not columns["u"]:
        raise ValueError("classification needs at least one sample point")
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
        points=columns,
        dim_d=dim_d,
        dim_d_perp=n - dim_d if dim_d is not None else None,
        insufficient_samples=len(columns["u"]) < 2,
        tol=tol,
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
    samples; generic otherwise.
    """
    if samples is None:
        samples = immersion.samples
    geo = _JetGeometry(immersion, space, _points(samples, immersion.n))
    return aggregate_classification(classify_point(geo, tol), immersion.n, tol)
