"""The derived connection calculus and the two lemma identities.

The product structure F splits along the tangent projector
P_T = J G^-1 J^T g and the normal projector P_N = I - P_T into
phi = P_T F P_T, omega = P_N F P_T, B = P_T F P_N and C = P_N F P_N.  The
covariant derivatives of omega and C follow from those of P_T and F,

    (nabla_X omega) Y = P_N [(D_X F) Y - (D_X P_T) F Y + F (D_X P_T) Y]
    (nabla_X C) xi    = P_N [(D_X F) xi - (D_X P_T) F xi - F (D_X P_T) xi]

for tangent Y and normal xi, where D_a M = d_a M + [Gamma_a, M] is the
ambient covariant derivative of an operator field along the tangent frame
vector e_a and (Gamma_a)^i_k = Gamma^i_jk e_a^j.  The derivative of the
projector is closed form (Absil, Mahony and Trumpf, "An extrinsic look at
the Riemannian Hessian", GSI 2013); as J = E R on the tangent frame E and
G^-1 = P P^T with P = R^-1, along e_a it is

    d_a P_T = P_N S_a E^T g + E (S_a^T g + E^T d_a g) P_N,

where the columns of S_a are the frame Hessian S[a, b] and the tables'
derivatives are d_a M = (d_l M) e_a^l.  Every array is float algebra on the
geometry build's values.  Every submanifold of a locally product
Riemannian space satisfies the two identities

    (nabla_X omega) Y + h(X, phi Y) = C h(X, Y)
    (nabla_X C) xi = - omega A_xi X - h(X, B xi)

:func:`lemma_tensors` evaluates both tensors once per document, along all
tangent frame vectors together, with H one more normal column of the
product for (nabla C) H, since nabla C is tensorial.  It returns their
components in the orthonormal normal frame, g([...], xi_s), which need no
P_N: g(P_N v, xi_s) = g(v, xi_s).  The lemma residuals and the T2-T4
statements of :mod:`prodgeo.theorems` read its arrays with the build's
frame components of h, H, phi, omega, B and C, where g is the identity.
The lemma residuals are contracted once with R (T_b = R[a, b] e_a); a
point's residual is the worst over coordinate directions, and over the
coordinate fields Y for lemma 1 and the normal frame fields and H for
lemma 2.  ``LemmaReport.residuals`` keeps them, and ``max_residual`` the
worst; :func:`prodgeo.verify.verify` returns the two reports as
``outcome.lemmas``, keyed ``"lemma1"`` and ``"lemma2"``.  A corrupted
ambient space (one with nabla F != 0) breaks them by an O(1) margin, which
is the engine's negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subgeom import _JetGeometry, _norm

__all__ = ["LemmaReport", "lemma_tensors"]


@dataclass(frozen=True)
class LemmaReport:
    """A lemma's verdicts under their report names, then its column."""

    max_residual: float
    passed: bool
    residuals: list  # the lemma's column: its residual at every point


def _along(geo: _JetGeometry, table: np.ndarray) -> np.ndarray:
    """D_{e_a} M = (d_l M) e_a^l for every tangent frame vector, ``(P, n, N, N)``,
    from a derivative table ``[p, l, i, j]`` at the images."""
    npts, n, N = len(geo.u), geo.n, geo.N
    return (geo.E0 @ table.reshape(npts, N, N * N)).reshape(npts, n, N, N)


def _operator_derivatives(geo: _JetGeometry) -> tuple[np.ndarray, np.ndarray]:
    """``D_{e_a} P_T`` and ``D_{e_a} F`` at every point along every tangent
    frame vector e_a, ``(P, n, N, N)`` each."""
    g, f = geo.g0[:, None], geo.F0[:, None]
    p_tan = geo.P_tan0[:, None]
    p_nor = np.eye(geo.N) - p_tan
    lowered = geo.S0 @ g + geo.E0[:, None] @ _along(geo, geo.dg0)  # [a]: S_a^T g + E^T d_a g
    d_tan = (p_nor @ geo.S0.swapaxes(-1, -2) @ geo.GE0[:, None, : geo.n]
             + geo.E0.swapaxes(-1, -2)[:, None] @ lowered @ p_nor)
    d_f = _along(geo, geo.dF0)
    if not geo.flat:
        gamma = geo.GammaE0.swapaxes(-1, -2)  # [a]: Gamma_a
        d_tan = d_tan + gamma @ p_tan - p_tan @ gamma
        d_f = d_f + gamma @ f - f @ gamma
    return d_tan, d_f


def lemma_tensors(geo: _JetGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The two derived tensors at every point, along the tangent frame
    vectors, in the components of the normal frame.

    g((nabla_{e_a} omega) e_b, xi_s) has shape ``(..., n, n, m)``;
    g((nabla_{e_a} C) xi, xi_s), with xi over the normal frame vectors and
    then H, ``(..., n, m + 1, m)``.
    """
    d_tan, d_f = _operator_derivatives(geo)
    f = geo.F0[:, None]
    # the tangent frame columns e_b, then the normal frame columns xi_s and H:
    # the two formulas differ in the sign of their last term
    cols = np.concatenate([geo.E0, geo.Xi0, geo.H0[:, None]], axis=-2).swapaxes(-1, -2)[:, None]
    sign = np.where(np.arange(geo.N + 1) < geo.n, 1.0, -1.0)
    moved = d_f @ cols - d_tan @ (f @ cols) + (f @ (d_tan @ cols)) * sign
    rows = (geo.GE0[:, None, geo.n :] @ moved).swapaxes(-1, -2)
    return rows[..., : geo.n, :], rows[..., geo.n :, :]


def _lemma1_point(geo: _JetGeometry, nabla_omega: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions X and coordinate fields Y."""
    phi_h = geo.phi0.swapaxes(-1, -2)[:, None] @ geo.h_on0  # [a, b]: h(e_a, phi e_b)
    frame = nabla_omega + phi_h - geo.h_on0 @ geo.C0.swapaxes(-1, -2)[:, None]
    # T_c = R[a, c] e_a in both slots; the worst entry needs no slot order
    r_t = geo.R.swapaxes(-1, -2)[:, None]
    residual = r_t @ (r_t @ frame).swapaxes(1, 2)
    return _norm(residual).max(axis=(-2, -1))


def _lemma2_point(geo: _JetGeometry, nabla_c_xi: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions and every
    normal frame field plus H."""
    xis = np.concatenate([np.broadcast_to(np.eye(geo.m), geo.C0.shape), geo.Hn0[:, None]], axis=-2)
    a_xi = xis[:, None] @ geo.h_on0.swapaxes(-1, -2)  # [a, row]: A_xi e_a on the tangent frame
    b_xi = xis @ geo.B0.swapaxes(-1, -2)  # row: B xi on the tangent frame
    frame = nabla_c_xi + a_xi @ geo.omega0.swapaxes(-1, -2)[:, None] + b_xi[:, None] @ geo.h_on0
    residual = geo.R.swapaxes(-1, -2)[:, None] @ frame.swapaxes(1, 2)  # T_c = R[a, c] e_a
    return _norm(residual).max(axis=(-2, -1))
