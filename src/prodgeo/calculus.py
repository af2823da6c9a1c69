"""The derived connection calculus and the two lemma identities.

The tangential connection is the tangent part of the ambient covariant
derivative, the normal connection its normal part (Gauss and Weingarten
splits of ``_JetGeometry.nabla``, which differentiates along every
coordinate direction at once).  On top of those sit the covariant
derivatives of the product-structure projections,

    (nabla_X omega) Y = nabla^perp_X (omega Y) - omega (nabla_X Y)
    (nabla_X C) xi    = nabla^perp_X (C xi)    - C (nabla^perp_X xi)

and the two identities every submanifold of a locally product Riemannian
space satisfies:

    (nabla_X omega) Y + h(X, phi Y) = C h(X, Y)
    (nabla_X C) xi = - omega A_xi X - h(X, B xi)

:func:`lemma_tensors` differentiates the first-order jets of the coordinate
tangent fields and the normal frame once per document, for both tensors
along all coordinate directions together, and takes (nabla C) H as the
contraction of the normal frame columns with the components of H; the
lemma residuals and the T2-T4 statements of :mod:`prodgeo.theorems` read
its arrays, and :func:`prodgeo.verify.verify` reports the worst residual
of each identity over samples and coordinate directions.  A corrupted
ambient space (one with nabla F != 0) breaks them by an O(1) margin, which
is the engine's negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subgeom import PointRecords, _JetGeometry

__all__ = ["LemmaReport", "lemma_tensors"]


# Both derivatives below take a batch of fields (batch axes between the point
# axes and the ambient component) and return them along every coordinate
# direction, (points..., n, batch..., N); each field is differentiated once.


def _nabla_omega(geo: _JetGeometry, y_field) -> np.ndarray:
    omega_y = geo.normal_part_field(geo.apply_F_field(y_field))
    nabla_tan_y = geo.project_tangent(geo.nabla(y_field))
    return geo.project_normal(geo.nabla(omega_y)) - geo.f_normal_part(nabla_tan_y)


def _nabla_C(geo: _JetGeometry, xi_field) -> np.ndarray:
    c_xi = geo.normal_part_field(geo.apply_F_field(xi_field))
    nabla_perp_xi = geo.project_normal(geo.nabla(xi_field))
    return geo.project_normal(geo.nabla(c_xi)) - geo.f_normal_part(nabla_perp_xi)


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    max_residual: float
    per_point: PointRecords  # columns "u" and "residual"; records (u, residual)
    passed: bool
    tol: float


def lemma_tensors(geo: _JetGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The two derived tensors at every point, along the coordinate directions.

    ``(nabla_{d_a} omega) T_b`` has shape ``(..., n, n, N)``; ``(nabla_{d_a} C) xi``,
    with xi over the normal frame fields and then H, ``(..., n, m + 1, N)``.  Both
    are tensorial, so a frame direction or field is a contraction of these: the
    H column is ``sum_s g(xi_s, H) (nabla C) xi_s`` at each point.
    """
    nabla_c_xi = _nabla_C(geo, geo.xi_field)
    h_components = geo.lowered_frame0[..., None, geo.n :, :] @ geo.H0[..., None, :, None]
    nabla_c_h = h_components.swapaxes(-1, -2) @ nabla_c_xi
    return _nabla_omega(geo, geo.T), np.concatenate([nabla_c_xi, nabla_c_h], axis=-2)


def _lemma1_point(geo: _JetGeometry, nabla_omega_t: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions X and coordinate fields Y."""
    phi_y = geo.param_components(geo.f_tangent_part(geo.J0.swapaxes(-1, -2)))  # row b: phi T_b
    h_x_phi_y = geo.h_params(phi_y)  # [a, b]: h(T_a, phi T_b)
    residual = nabla_omega_t + h_x_phi_y - geo.f_normal_part(geo.hc0)
    return geo.norm_g(residual).max(axis=(-2, -1))


def _lemma2_point(geo: _JetGeometry, nabla_c_xi: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions and every
    normal frame field plus H."""
    xi0s = np.concatenate([geo.Xi0, geo.H0[..., None, :]], axis=-2)
    b_xi = geo.param_components(geo.f_tangent_part(xi0s))
    rhs = -geo.f_normal_part(geo.shape_operator(xi0s)) - geo.h_params(b_xi)
    return geo.norm_g(nabla_c_xi - rhs).max(axis=(-2, -1))
