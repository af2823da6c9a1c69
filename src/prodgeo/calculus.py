"""The derived connection calculus and the two lemma identities.

The product structure F splits along the tangent projector
P_T = J G^-1 J^T g and the normal projector P_N = I - P_T into
phi = P_T F P_T, omega = P_N F P_T, B = P_T F P_N and C = P_N F P_N.  The
covariant derivatives of omega and C follow from those of P_T and F,

    (nabla_X omega) Y = P_N [(D_X F) Y - (D_X P_T) F Y + F (D_X P_T) Y]
    (nabla_X C) xi    = P_N [(D_X F) xi - (D_X P_T) F xi - F (D_X P_T) xi]

for tangent Y and normal xi, where D_a M = d_a M + [Gamma_a, M] is the
ambient covariant derivative of an operator field along the immersion and
(Gamma_a)^i_k = Gamma^i_jk T_a^j.  The derivative of the projector is
closed form in the Jacobian, the coordinate Hessian and d_a g (Absil,
Mahony and Trumpf, "An extrinsic look at the Riemannian Hessian", GSI 2013),

    d_a P_T = P_N (d_a J) Q + J G^-1 ((d_a J)^T g + J^T d_a g) P_N,

with Q = G^-1 J^T g, and the tables' derivatives along the immersion are
d_a M = (d_l M) J^l_a.  Every array is float algebra on the geometry
build's values.  Every submanifold of a locally product Riemannian space
satisfies the two identities

    (nabla_X omega) Y + h(X, phi Y) = C h(X, Y)
    (nabla_X C) xi = - omega A_xi X - h(X, B xi)

:func:`lemma_tensors` evaluates both tensors once per document, along all
coordinate directions together, with H one more normal column of the
product for (nabla C) H, since nabla C is tensorial.  It returns their
components in the orthonormal normal frame, g([...], xi_s), which need no
P_N: g(P_N v, xi_s) = g(v, xi_s).  The lemma residuals and the T2-T4
statements of :mod:`prodgeo.theorems` read its arrays with the build's
frame components of h, H, phi, omega, B and C, where g is the identity, and
:func:`prodgeo.verify.verify` reports the worst residual of each identity
over samples and coordinate directions.  A corrupted ambient space (one
with nabla F != 0) breaks them by an O(1) margin, which is the engine's
negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subgeom import _JetGeometry

__all__ = ["LemmaReport", "lemma_tensors"]


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    max_residual: float
    per_point: dict  # the columns "u" and "residual"
    passed: bool
    tol: float


def _along(geo: _JetGeometry, table: np.ndarray) -> np.ndarray:
    """d_a M = (d_l M) J^l_a for every coordinate direction, ``(P, n, N, N)``,
    from a derivative table ``[..., l, i, j]`` at the images (a constant one
    without the point axis)."""
    npts, n, N = len(geo.u), geo.n, geo.N
    rows = np.broadcast_to(table, (npts, N, N, N)).reshape(npts, N, N * N)
    return (geo.J0.swapaxes(-1, -2) @ rows).reshape(npts, n, N, N)


def _lift(m: np.ndarray) -> np.ndarray:
    """A per-point matrix with a unit direction axis; a constant one as it is."""
    return m if m.ndim == 2 else m[:, None]


def _operator_derivatives(geo: _JetGeometry) -> tuple[np.ndarray, np.ndarray]:
    """``D_a P_T`` and ``D_a F`` at every point along every coordinate
    direction a, ``(P, n, N, N)`` each."""
    J, g, f = geo.J0, _lift(geo.g0), _lift(geo.F0)
    p_tan = geo.P_tan0[:, None]
    p_nor = np.eye(geo.N) - p_tan
    d_j = geo.hessian.swapaxes(-1, -2)  # [a]: d_a J
    lowered = d_j.swapaxes(-1, -2) @ g + J.swapaxes(-1, -2)[:, None] @ _along(geo, geo.dg0)
    d_tan = p_nor @ d_j @ geo.to_params[:, None] + (J @ geo.G0inv)[:, None] @ lowered @ p_nor
    d_f = _along(geo, geo.dF0)
    if not geo.flat:
        gamma = geo.GammaT0.swapaxes(-1, -2)  # [a]: Gamma_a
        d_tan = d_tan + gamma @ p_tan - p_tan @ gamma
        d_f = d_f + gamma @ f - f @ gamma
    return d_tan, d_f


def lemma_tensors(geo: _JetGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The two derived tensors at every point, along the coordinate directions,
    in the components of the normal frame.

    ``(nabla_{d_a} omega) T_b`` has shape ``(..., n, n, m)``; ``(nabla_{d_a} C) xi``,
    with xi over the normal frame vectors and then H, ``(..., n, m + 1, m)``.  Both
    are tensorial, so a frame direction is a contraction of these.
    """
    d_tan, d_f = _operator_derivatives(geo)
    f = _lift(geo.F0)
    # the tangent columns T_b, then the normal frame columns xi_s and H: the
    # two formulas differ in the sign of their last term
    cols = np.concatenate([geo.J0, geo.Xi0.swapaxes(-1, -2), geo.H0[..., None]], axis=-1)[:, None]
    sign = np.where(np.arange(geo.N + 1) < geo.n, 1.0, -1.0)
    moved = d_f @ cols - d_tan @ (f @ cols) + (f @ (d_tan @ cols)) * sign
    rows = (geo.GE0[:, None, geo.n :] @ moved).swapaxes(-1, -2)
    return rows[..., : geo.n, :], rows[..., geo.n :, :]


def _lemma1_point(geo: _JetGeometry, nabla_omega_t: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions X and coordinate fields Y."""
    phi_y = (geo.P @ geo.phi0 @ geo.R).swapaxes(-1, -2)  # row b: phi T_b in parameter components
    h_x_phi_y = phi_y[:, None] @ geo.hn0  # [a, b]: h(T_a, phi T_b)
    residual = nabla_omega_t + h_x_phi_y - geo.hn0 @ geo.C0.swapaxes(-1, -2)[:, None]
    return np.linalg.norm(residual, axis=-1).max(axis=(-2, -1))


def _lemma2_point(geo: _JetGeometry, nabla_c_xi: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions and every
    normal frame field plus H."""
    xis = np.concatenate([np.broadcast_to(np.eye(geo.m), geo.C0.shape), geo.Hn0[:, None]], axis=-2)
    b_xi = xis @ (geo.P @ geo.B0).swapaxes(-1, -2)  # row: B xi in parameter components
    a_xi = xis[:, None] @ geo.h_ce0.swapaxes(-1, -2)  # [a, row]: A_xi T_a on the tangent frame
    rhs = -a_xi @ geo.omega0.swapaxes(-1, -2)[:, None] - b_xi[:, None] @ geo.hn0
    return np.linalg.norm(nabla_c_xi - rhs, axis=-1).max(axis=(-2, -1))
