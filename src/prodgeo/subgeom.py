"""Per-point geometry of an immersed submanifold.

Builds orthonormal tangent/normal frames, the induced metric, the second
fundamental form and shape operators, the mean curvature vector, the
tangential/normal split of the ambient product structure (the phi, omega,
B, C matrices), and the invariant / anti-invariant / semi-invariant /
generic classifier.

Everything is computed from jets seeded in the submanifold parameters, so
each quantity is available not just as a value but as a germ carrying its
own parameter derivatives; the connection and identity machinery in
:mod:`prodgeo.calculus` differentiates those germs directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from . import jets
from .ambient import AmbientSpace, SingularMetric

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


def _values(vec: Sequence[jets.Jet]) -> np.ndarray:
    return np.array([j.value for j in vec])


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


def _jet_matrix_inverse(matrix):
    """Gauss-Jordan inverse of a square matrix with jet entries."""
    n = len(matrix)
    sample = matrix[0][0]
    order, nvars = sample.order, sample.nvars
    a = [list(row) for row in matrix]
    inv = [
        [jets.lift_constant(1.0 if i == j else 0.0, order, nvars) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[pivot][col].value) < 1e-250:
            raise SingularMetric("jet matrix inversion hit a zero pivot")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = 1.0 / a[col][col]
        a[col] = [entry * scale for entry in a[col]]
        inv[col] = [entry * scale for entry in inv[col]]
        for row in range(n):
            if row == col:
                continue
            factor = a[row][col]
            if not np.any(factor.coeffs):
                continue
            a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
            inv[row] = [x - factor * y for x, y in zip(inv[row], inv[col])]
    return inv


class _JetGeometry:
    """All per-point data of one immersion sample, carried as jets.

    Seed layout: directions ``0..n-1`` are the submanifold parameters,
    directions ``n..n+N-1`` are offsets in the ambient coordinates used only
    to read off ambient partial derivatives of the metric along the
    immersion (they are zeroed everywhere else).
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
        V = n + N
        self.immersion, self.space = immersion, space
        self.n, self.N, self.m = n, N, N - n
        self.order = order
        self.u = tuple(float(v) for v in u)

        self.uenv = {
            name: jets.seed_variable(self.u[a], a, order, V)
            for a, name in enumerate(param_vars(n))
        }
        self.f = [
            jets.as_jet(ex.evaluate(c, self.uenv), order, V)
            for c in immersion.components
        ]
        self.x0 = _values(self.f)

        # coordinate tangent fields T[a] = df/du^a
        self.T = [[jets.partial(self.f[i], a) for i in range(N)] for a in range(n)]
        self.J0 = np.array([[self.T[a][i].value for a in range(n)] for i in range(N)])

        # ambient metric and structure along the immersion; the metric is
        # also evaluated with ambient offsets so its x-derivatives are
        # available for the Christoffel symbols
        xdirs = tuple(range(n, V))
        eps_args = [
            self.f[j] + jets.seed_variable(0.0, n + j, order, V) for j in range(N)
        ]
        g_eps = [
            [jets.as_jet(entry, order, V) for entry in row]
            for row in space.metric_jets(eps_args)
        ]
        self.gf = [[entry.drop_directions(xdirs) for entry in row] for row in g_eps]
        dg = [
            [
                [jets.partial(g_eps[i][j], n + l).drop_directions(xdirs) for j in range(N)]
                for i in range(N)
            ]
            for l in range(N)
        ]
        self.Ff = [
            [jets.as_jet(entry, order, V) for entry in row]
            for row in space.structure_jets(self.f)
        ]
        self.g0 = np.array([[e.value for e in row] for row in self.gf])
        self.F0 = np.array([[e.value for e in row] for row in self.Ff])

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

        # Christoffel symbols along the immersion, as jets in u
        ginv_f = _jet_matrix_inverse(self.gf)
        self.gamma_f = [[[None] * N for _ in range(N)] for _ in range(N)]
        for j in range(N):
            for k in range(j + 1):
                column = []
                for l in range(N):
                    column.append(dg[j][l][k] + dg[k][l][j] - dg[l][j][k])
                for i in range(N):
                    total = ginv_f[i][0] * column[0]
                    for l in range(1, N):
                        total = total + ginv_f[i][l] * column[l]
                    half = 0.5 * total
                    self.gamma_f[i][j][k] = half
                    self.gamma_f[i][k][j] = half
        self.Gamma0 = np.array(
            [[[self.gamma_f[i][j][k].value for k in range(N)] for j in range(N)] for i in range(N)]
        )

        # orthonormal frames (Gram-Schmidt under the ambient metric)
        columns = list(range(n))
        if column_order == "reversed":
            columns.reverse()
        elif column_order != "forward":
            raise ValueError("column_order must be 'forward' or 'reversed'")
        self.e_field = []
        for c in columns:
            self.e_field.append(self._orthonormalize(self.T[c], self.e_field))
        self.xi_field = []
        for i in range(N):
            if len(self.xi_field) == self.m:
                break
            candidate = [
                jets.lift_constant(1.0 if i == j else 0.0, order, V) for j in range(N)
            ]
            frame = self._orthonormalize(
                candidate, self.e_field + self.xi_field, skip_below=1e-8
            )
            if frame is not None:
                self.xi_field.append(frame)
        if len(self.xi_field) != self.m:
            raise DegenerateImmersion("could not complete the normal frame")
        self.E0 = np.array([_values(e) for e in self.e_field])
        self.Xi0 = np.array([_values(xi) for xi in self.xi_field])

        # induced metric and its inverse, as jets
        self.G_field = [
            [self.ip_field(self.T[a], self.T[b]) for b in range(n)] for a in range(n)
        ]
        self.G0 = np.array([[e.value for e in row] for row in self.G_field])
        self.G0inv = np.linalg.inv(self.G0)
        self.Ginv_field = _jet_matrix_inverse(self.G_field)

        # coordinate-frame second fundamental form, as normal-valued fields
        self.h_field = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1):
                raw = []
                for i in range(N):
                    total = jets.partial(self.T[a][i], b)
                    for j in range(N):
                        inner = self.gamma_f[i][j][0] * self.T[b][0]
                        for k in range(1, N):
                            inner = inner + self.gamma_f[i][j][k] * self.T[b][k]
                        total = total + self.T[a][j] * inner
                    raw.append(total)
                vec = self.normal_part_field(raw)
                self.h_field[a][b] = vec
                self.h_field[b][a] = vec
        self.hc0 = np.array(
            [[_values(self.h_field[a][b]) for b in range(n)] for a in range(n)]
        )

        # mean curvature field H = (1/n) G^{ab} h_ab
        hf = [None] * N
        for a in range(n):
            for b in range(n):
                for i in range(N):
                    term = self.Ginv_field[a][b] * self.h_field[a][b][i]
                    hf[i] = term if hf[i] is None else hf[i] + term
        self.H_field = [entry * (1.0 / n) for entry in hf]
        self.H0 = _values(self.H_field)
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

    def ip_field(self, v, w) -> jets.Jet:
        total = None
        for i in range(self.N):
            for j in range(self.N):
                term = self.gf[i][j] * v[i] * w[j]
                total = term if total is None else total + term
        return total

    def _orthonormalize(self, vec, against, skip_below: float | None = None):
        w = list(vec)
        for e in against:
            c = self.ip_field(w, e)
            w = [wi - c * ei for wi, ei in zip(w, e)]
        nrm2 = self.ip_field(w, w)
        if nrm2.value <= 0.0 or (
            skip_below is not None and nrm2.value < skip_below ** 2
        ):
            if skip_below is not None:
                return None
            raise DegenerateImmersion("tangent frame collapsed during orthonormalization")
        inv_norm = 1.0 / jets.sqrt(nrm2)
        return [wi * inv_norm for wi in w]

    def apply_F_field(self, vec):
        out = []
        for i in range(self.N):
            total = self.Ff[i][0] * vec[0]
            for j in range(1, self.N):
                total = total + self.Ff[i][j] * vec[j]
            out.append(total)
        return out

    def tangent_part_field(self, vec):
        out = [None] * self.N
        for e in self.e_field:
            c = self.ip_field(vec, e)
            for i in range(self.N):
                term = c * e[i]
                out[i] = term if out[i] is None else out[i] + term
        return out

    def normal_part_field(self, vec):
        tang = self.tangent_part_field(vec)
        return [v - t for v, t in zip(vec, tang)]

    def coordinate_field(self, coefficients):
        """Tangent field sum_b c_b(u) T_b with constant or expression coefficients."""
        coeffs = []
        for c in coefficients:
            if isinstance(c, str):
                c = ex.parse(c)
            if isinstance(c, (ex.Num, ex.Var, ex.Neg, ex.BinOp, ex.Call)):
                value = ex.evaluate(c, self.uenv)
            else:
                value = c
            coeffs.append(jets.as_jet(value, self.order, self.n + self.N))
        out = []
        for i in range(self.N):
            total = coeffs[0] * self.T[0][i]
            for b in range(1, self.n):
                total = total + coeffs[b] * self.T[b][i]
            out.append(total)
        return out

    # ---- directional derivatives at the base point -----------------------

    def dirderiv(self, vec, direction) -> np.ndarray:
        """Derivative of a jet field along a parameter direction."""
        x = np.asarray(direction, dtype=float)
        out = np.empty(self.N)
        for i in range(self.N):
            out[i] = float(vec[i].gradient()[: self.n] @ x)
        return out

    def cov_deriv(self, vec, direction) -> np.ndarray:
        """Ambient covariant derivative of a field along a parameter direction."""
        xdot = self.J0 @ np.asarray(direction, dtype=float)
        v0 = _values(vec)
        return self.dirderiv(vec, direction) + np.einsum(
            "ijk,j,k->i", self.Gamma0, xdot, v0
        )

    def project_tangent(self, v: np.ndarray) -> np.ndarray:
        return self.E0.T @ (self.E0 @ self.g0 @ v)

    def project_normal(self, v: np.ndarray) -> np.ndarray:
        return v - self.project_tangent(v)

    def nabla_tan(self, vec, direction) -> np.ndarray:
        return self.project_tangent(self.cov_deriv(vec, direction))

    def nabla_perp(self, vec, direction) -> np.ndarray:
        return self.project_normal(self.cov_deriv(vec, direction))

    # ---- base-point tensor algebra ---------------------------------------

    def norm_g(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ self.g0 @ v, 0.0)))

    def f_tangent_part(self, v: np.ndarray) -> np.ndarray:
        """phi on tangent vectors, B on normal vectors."""
        return self.project_tangent(self.F0 @ v)

    def f_normal_part(self, v: np.ndarray) -> np.ndarray:
        """omega on tangent vectors, C on normal vectors."""
        return self.project_normal(self.F0 @ v)

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
