"""Per-point geometry of an immersed submanifold.

Builds orthonormal tangent/normal frames, the induced metric, the second
fundamental form and shape operators, the mean curvature vector, the
tangential/normal split of the ambient product structure (the phi, omega,
B, C matrices), and the invariant / anti-invariant / semi-invariant /
generic classifier.

Everything is computed from jets seeded in the n submanifold parameters
only, so each quantity is available not just as a value but as a germ
carrying its own parameter derivatives; the connection and identity
machinery in :mod:`prodgeo.calculus` differentiates those germs directly.
Vector, matrix and frame fields are array jets, so the build is a few
hundred numpy contractions rather than thousands of scalar jet products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from . import jets
from .ambient import AmbientSpace, SingularMetric, levi_civita

__all__ = [
    "DegenerateImmersion",
    "Immersion",
    "PointGeometry",
    "PointClassification",
    "ClassificationResult",
    "param_vars",
    "frames_at",
    "second_fundamental_form",
    "f_decompose",
    "point_geometry",
    "is_minimal",
    "is_pseudo_umbilical",
    "pseudo_umbilical_gap",
    "classify",
    "classify_point",
    "aggregate_classification",
    "rank_of",
]


class DegenerateImmersion(ValueError):
    """The immersion is rank-deficient (or frame completion failed) at a point."""


def param_vars(n: int) -> tuple[str, ...]:
    return tuple(f"u{a + 1}" for a in range(n))


@dataclass(frozen=True)
class Immersion:
    """Parametric immersion: N component expressions over u1..un."""

    n: int
    components: tuple[ex.ExprAst, ...]
    samples: tuple[tuple[float, ...], ...] = ()
    label: str = ""

    def __post_init__(self):
        components = tuple(
            ex.parse(c) if isinstance(c, str) else c for c in self.components
        )
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

    @property
    def ambient_dim(self) -> int:
        return len(self.components)

    def image(self, u: Sequence[float]) -> list[float]:
        """Ambient coordinates of the point with parameters ``u``."""
        env = dict(zip(param_vars(self.n), u))
        return [ex.evaluate(c, env) for c in self.components]


@dataclass
class PointGeometry:
    """Per-point bundle of frames and first/second-order invariants.

    ``h`` stores the second fundamental form components h^a_{ab} in the
    orthonormal frames; ``A`` the shape operator matrices (equal to the
    ``h`` slices by the duality g(A_xi X, Y) = g(h(X,Y), xi)); ``phi``,
    ``omega``, ``Bm``, ``Cm`` the tangential/normal parts of the product
    structure on tangent and normal vectors.
    """

    u: tuple[float, ...]
    x: np.ndarray
    tangent_on: np.ndarray
    normal_on: np.ndarray
    induced_metric: np.ndarray
    ambient_metric: np.ndarray
    h: np.ndarray
    A: np.ndarray
    H: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    Bm: np.ndarray
    Cm: np.ndarray


def _values(field) -> np.ndarray:
    """Values of a jet field; a constant field is already a float array."""
    return field.value if isinstance(field, jets.Jet) else field


def _split_structure(f0, g0, tangent_on, normal_on):
    """phi/omega (F on the tangent frame) and B/C (F on the normal frame)."""
    fe = tangent_on @ f0.T
    fxi = normal_on @ f0.T
    return (
        (fe @ g0 @ tangent_on.T).T,
        (fe @ g0 @ normal_on.T).T,
        (fxi @ g0 @ tangent_on.T).T,
        (fxi @ g0 @ normal_on.T).T,
    )


def _umbilicity_gap(h, normal_on, g0, H) -> float:
    """max_{a,b} | g(h(e_a, e_b), H) - delta_ab |H|^2 |, h in frame components."""
    h_xi = normal_on @ g0 @ H
    h_dot_h = np.einsum("mab,m->ab", h, h_xi)
    hsq = float(H @ g0 @ H)
    return float(np.max(np.abs(h_dot_h - hsq * np.eye(h.shape[1]))))


class _JetGeometry:
    """All per-point data of one immersion sample, carried as jets.

    Seed layout: one seed direction per submanifold parameter ``u1..un`` and
    no other; the ambient metric derivatives are the space's symbolic
    ``metric_diff`` evaluated along the immersion.  The immersion ``f``
    carries the requested order ``p``; the coordinate tangent fields ``T``
    (shape ``(n, N)``), the metric ``gf`` ``(N, N)`` and structure ``Ff``
    along the immersion, the frames ``e_field`` ``(n, N)`` and ``xi_field``
    ``(m, N)`` and the induced metric carry ``p - 1``; the Christoffel
    symbols ``gamma_f`` ``(N, N, N)``, the second fundamental form
    ``h_field`` ``(n, n, N)`` and ``H_field`` ``(N,)`` carry ``p - 2``.  A
    metric, structure or connection that is constant along the immersion
    stays a float array.
    """

    def __init__(
        self,
        immersion: Immersion,
        space: AmbientSpace,
        u: Sequence[float],
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
        self.u = tuple(float(v) for v in u)

        self.uenv = dict(zip(param_vars(n), jets.seed_point(self.u, order)))
        self.f = jets.array(
            [jets.as_jet(ex.evaluate(c, self.uenv), order, n) for c in immersion.components]
        )
        self.x0 = self.f.value

        # coordinate tangent fields T[a] = df/du^a; ambient metric and
        # structure along the immersion
        self.T = jets.array([jets.partial(self.f, a) for a in range(n)])
        self.J0 = self.T.value.T
        along = list(self.f.truncate(order - 1))
        self.gf = space.metric_jets(along)
        self.Ff = space.structure_jets(along)
        self.g0, self.F0 = _values(self.gf), _values(self.Ff)

        if not np.isfinite(self.g0).all():
            raise SingularMetric("ambient metric is not finite along the immersion")
        try:
            chol = np.linalg.cholesky(self.g0)
        except np.linalg.LinAlgError:
            raise SingularMetric(
                "ambient metric is not positive definite along the immersion"
            ) from None
        singular_values = np.linalg.svd(chol.T @ self.J0, compute_uv=False)
        if singular_values.min() <= 1e-8:
            raise DegenerateImmersion(
                f"Jacobian rank < {n} at u = {self.u} "
                f"(smallest singular value {singular_values.min():.3e})"
            )

        # Christoffel symbols along the immersion
        dg = space.metric_derivatives(list(self.f.truncate(order - 2)))
        self.gamma_f = levi_civita(jets.inverse(self.gf), dg)
        self.Gamma0 = _values(self.gamma_f)

        # orthonormal frames (Gram-Schmidt under the ambient metric)
        columns = list(range(n))
        if column_order == "reversed":
            columns.reverse()
        elif column_order != "forward":
            raise ValueError("column_order must be 'forward' or 'reversed'")
        frames = []
        for c in columns:
            frames.append(self._orthonormalize(self.T[c], frames))
        for axis in np.eye(N):
            if len(frames) == N:
                break
            frame = self._orthonormalize(axis, frames, skip_below=1e-8)
            if frame is not None:
                frames.append(frame)
        if len(frames) != N:
            raise DegenerateImmersion("could not complete the normal frame")
        self.e_field, self.xi_field = jets.array(frames[:n]), jets.array(frames[n:])
        self.gE = self.lower(self.e_field)
        self.E0, self.Xi0 = self.e_field.value, self.xi_field.value

        # induced metric and its inverse
        self.G_field = jets.einsum("ai,bi->ab", self.T, self.lower(self.T))
        self.G0 = self.G_field.value
        self.G0inv = np.linalg.inv(self.G0)
        self.Ginv_field = jets.inverse(self.G_field.truncate(order - 2))

        # coordinate-frame second fundamental form: the normal part of
        # d_b T_a + Gamma(T_a, T_b), an (n, n, N) field
        dT = jets.array([jets.partial(self.T, b) for b in range(n)]).transpose(1, 0, 2)
        gamma_t = jets.einsum("ijk,bk->bij", self.gamma_f, self.T)
        self.h_field = self.normal_part_field(dT + jets.einsum("aj,bij->abi", self.T, gamma_t))
        self.hc0 = self.h_field.value

        # mean curvature field H = (1/n) G^{ab} h_ab
        self.H_field = jets.einsum("ab,abi->i", self.Ginv_field, self.h_field) * (1.0 / n)
        self.H0 = self.H_field.value
        self.Hsq = float(self.H0 @ self.g0 @ self.H0)

        # frame decomposition of the tangent frame in coordinate components
        self.P = self.G0inv @ (self.J0.T @ self.g0 @ self.E0.T)  # e_a = P[:,a]^c T_c
        self.h_on0 = np.einsum("ca,db,cdi->abi", self.P, self.P, self.hc0)
        self.hcomp0 = np.einsum("abi,ij,mj->mab", self.h_on0, self.g0, self.Xi0)

        self.phi0, self.omega0, self.B0, self.C0 = _split_structure(
            self.F0, self.g0, self.E0, self.Xi0
        )
        self.pu_gap = _umbilicity_gap(self.hcomp0, self.Xi0, self.g0, self.H0)

    # ---- jet-field helpers ----------------------------------------------
    # Fields are jets (or float arrays) whose last field axis is the ambient
    # component; leading axes batch several fields at once.

    def lower(self, vec):
        """g(vec, .) as components: g_ij vec^j."""
        return jets.einsum("ij,...j->...i", self.gf, vec)

    def ip_field(self, v, w):
        return jets.einsum("...i,...i->...", v, self.lower(w))

    def _orthonormalize(self, vec, against, skip_below: float | None = None):
        w = vec
        for e in against:
            w = w - self.ip_field(w, e) * e
        nrm2 = self.ip_field(w, w)
        if skip_below is not None:
            if nrm2.value < skip_below ** 2:
                return None
        elif nrm2.value <= 0.0:
            raise DegenerateImmersion("tangent frame collapsed during orthonormalization")
        return w * nrm2 ** -0.5

    def apply_F_field(self, vec):
        return jets.einsum("ij,...j->...i", self.Ff, vec)

    def tangent_part_field(self, vec):
        coefficients = jets.einsum("...i,ai->...a", vec, self.gE)
        return jets.einsum("...a,ai->...i", coefficients, self.e_field)

    def normal_part_field(self, vec):
        return vec - self.tangent_part_field(vec)

    def coordinate_field(self, coefficients):
        """Tangent field sum_b c_b(u) T_b with constant or expression coefficients.

        A float array of coefficients may carry leading axes (one field per
        row); a list may mix numbers and expressions in ``u1..un``.
        """
        if not isinstance(coefficients, np.ndarray):
            parsed = [ex.parse(c) if isinstance(c, str) else c for c in coefficients]
            coefficients = jets.array(
                [ex.evaluate(c, self.uenv) if isinstance(c, ex.ExprAst) else c for c in parsed]
            )
        return jets.einsum("...b,bi->...i", coefficients, self.T)

    # ---- directional derivatives at the base point -----------------------

    def dirderiv(self, vec, direction) -> np.ndarray:
        """Derivative of a jet field along a parameter direction."""
        return vec.gradient() @ np.asarray(direction, dtype=float)

    def cov_deriv(self, vec, direction) -> np.ndarray:
        """Ambient covariant derivative of a field along a parameter direction."""
        xdot = self.J0 @ np.asarray(direction, dtype=float)
        return self.dirderiv(vec, direction) + np.einsum(
            "ijk,j,...k->...i", self.Gamma0, xdot, vec.value
        )

    def project_tangent(self, v: np.ndarray) -> np.ndarray:
        return (v @ self.g0 @ self.E0.T) @ self.E0

    def project_normal(self, v: np.ndarray) -> np.ndarray:
        return v - self.project_tangent(v)

    def nabla_tan(self, vec, direction) -> np.ndarray:
        return self.project_tangent(self.cov_deriv(vec, direction))

    def nabla_perp(self, vec, direction) -> np.ndarray:
        return self.project_normal(self.cov_deriv(vec, direction))

    # ---- base-point tensor algebra ---------------------------------------
    # f_tangent_part and f_normal_part accept a batch of vectors (leading
    # axes); the other helpers take one vector.

    def norm_g(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ self.g0 @ v, 0.0)))

    def f_tangent_part(self, v: np.ndarray) -> np.ndarray:
        """phi on tangent vectors, B on normal vectors."""
        return self.project_tangent(v @ self.F0.T)

    def f_normal_part(self, v: np.ndarray) -> np.ndarray:
        """omega on tangent vectors, C on normal vectors."""
        return self.project_normal(v @ self.F0.T)

    def param_components(self, v: np.ndarray) -> np.ndarray:
        return self.G0inv @ (self.J0.T @ self.g0 @ v)

    def h_bilinear(self, x_params: np.ndarray, w: np.ndarray) -> np.ndarray:
        """h(X, W) for X in parameter components and W a tangent vector."""
        return np.einsum("a,b,abi->i", x_params, self.param_components(w), self.hc0)

    def h_params(self, x_params: np.ndarray, y_params: np.ndarray) -> np.ndarray:
        return np.einsum("a,b,abi->i", x_params, y_params, self.hc0)

    def shape_operator(self, x_params: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """A_xi X via g(A_xi X, e_b) = g(h(X, e_b), xi)."""
        h_xb = np.einsum("a,cb,aci->bi", x_params, self.P, self.hc0)
        return (h_xb @ self.g0 @ xi) @ self.E0


# ---- public per-point operations ----------------------------------------


def frames_at(immersion: Immersion, space: AmbientSpace, u: Sequence[float]) -> PointGeometry:
    """Orthonormal frames and induced metric at one parameter point."""
    return point_geometry(immersion, space, u)


def second_fundamental_form(
    immersion: Immersion, space: AmbientSpace, u: Sequence[float]
) -> PointGeometry:
    """Frames plus h, the shape matrices and the mean curvature vector."""
    return point_geometry(immersion, space, u)


def f_decompose(pg: PointGeometry, space: AmbientSpace):
    """Split F over the frames: phi/omega on tangents, B/C on normals."""
    pg.phi, pg.omega, pg.Bm, pg.Cm = _split_structure(
        space.structure_at(pg.x), pg.ambient_metric, pg.tangent_on, pg.normal_on
    )
    return pg.phi, pg.omega, pg.Bm, pg.Cm


def point_geometry(
    immersion: Immersion,
    space: AmbientSpace,
    u: Sequence[float],
    order: int = 2,
    column_order: str = "forward",
) -> PointGeometry:
    """Full per-point bundle (frames, h, A, H, phi/omega/B/C)."""
    geo = _JetGeometry(immersion, space, u, order=order, column_order=column_order)
    return PointGeometry(
        u=geo.u,
        x=geo.x0.copy(),
        tangent_on=geo.E0.copy(),
        normal_on=geo.Xi0.copy(),
        induced_metric=geo.G0.copy(),
        ambient_metric=geo.g0.copy(),
        h=geo.hcomp0.copy(),
        A=geo.hcomp0.copy(),
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
    return _umbilicity_gap(pg.h, pg.normal_on, pg.ambient_metric, pg.H)


def is_pseudo_umbilical(pg: PointGeometry, tol: float = 1e-8) -> bool:
    return pseudo_umbilical_gap(pg) <= tol


# ---- classification -------------------------------------------------------


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


@dataclass(frozen=True)
class ClassificationResult:
    classification: str
    points: tuple[PointClassification, ...]
    dim_d: int | None
    dim_d_perp: int | None
    insufficient_samples: bool
    tol: float


def rank_of(matrix: np.ndarray, tol: float) -> int:
    """Numerical rank with the documented sqrt(tol) singular-value threshold."""
    if matrix.size == 0:
        return 0
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(singular > np.sqrt(tol)))


def classify_point(geo: _JetGeometry, tol: float = 1e-8) -> PointClassification:
    """Norms, rank and flags of one already-built point geometry."""
    return PointClassification(
        u=geo.u,
        phi_norm=float(np.linalg.norm(geo.phi0)),
        omega_norm=float(np.linalg.norm(geo.omega0)),
        omega_phi_norm=float(np.linalg.norm(geo.omega0 @ geo.phi0)),
        rank_phi=rank_of(geo.phi0, tol),
        minimal=geo.norm_g(geo.H0) <= tol,
        pseudo_umbilical=geo.pu_gap <= tol,
        mean_curvature_sq=geo.Hsq,
    )


def aggregate_classification(
    points: Sequence[PointClassification], n: int, tol: float
) -> ClassificationResult:
    """Fold per-point data into the four-way verdict."""
    if not points:
        raise ValueError("classification needs at least one sample point")
    invariant = max(p.omega_norm for p in points) <= tol
    anti = max(p.phi_norm for p in points) <= tol
    ranks = {p.rank_phi for p in points}
    semi = max(p.omega_phi_norm for p in points) <= tol and len(ranks) == 1
    if invariant:
        verdict = "invariant"
    elif anti:
        verdict = "anti-invariant"
    elif semi:
        verdict = "proper semi-invariant"
    else:
        verdict = "generic"
    dim_d = points[0].rank_phi if verdict != "generic" else None
    return ClassificationResult(
        classification=verdict,
        points=tuple(points),
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
    points = [
        classify_point(
            _JetGeometry(immersion, space, u, order=2, column_order=column_order), tol
        )
        for u in samples
    ]
    return aggregate_classification(points, immersion.n, tol)
