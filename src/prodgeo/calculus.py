"""The derived connection calculus and the two lemma identities.

The tangential connection is the tangent part of the ambient covariant
derivative, the normal connection its normal part (Gauss and Weingarten
splits; ``_JetGeometry.nabla_tan`` and ``nabla_perp``).  On top of those
sit the covariant derivatives of the product-structure projections,

    (nabla_X omega) Y = nabla^perp_X (omega Y) - omega (nabla_X Y)
    (nabla_X C) xi    = nabla^perp_X (C xi)    - C (nabla^perp_X xi)

and the two identities every submanifold of a locally product Riemannian
space satisfies:

    (nabla_X omega) Y + h(X, phi Y) = C h(X, Y)
    (nabla_X C) xi = - omega A_xi X - h(X, B xi)

:func:`lemma_tensors` differentiates the jets once per document for both
tensors along every coordinate direction; the lemma residuals here and the
T2-T4 statements of :mod:`prodgeo.theorems` read its arrays, and
:func:`prodgeo.verify.verify` reports the worst residual of each identity
over samples and coordinate directions.  A corrupted ambient space (one
with nabla F != 0) breaks them by an O(1) margin, which is the engine's
negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .subgeom import PointRecords, _JetGeometry

__all__ = ["LemmaReport", "lemma_tensors"]


# Both derivatives below accept a batch of fields (batch axes between the
# point axes and the ambient component) and a sequence of directions; they
# return, per direction, one ambient vector per field and point.  The field
# omega Y or C xi is built once for all directions.


def _nabla_omega(geo: _JetGeometry, directions, y_field) -> list[np.ndarray]:
    omega_y = geo.normal_part_field(geo.apply_F_field(y_field))
    return [
        geo.nabla_perp(omega_y, d) - geo.f_normal_part(geo.nabla_tan(y_field, d))
        for d in directions
    ]


def _nabla_C(geo: _JetGeometry, directions, xi_field) -> list[np.ndarray]:
    c_xi = geo.normal_part_field(geo.apply_F_field(xi_field))
    return [
        geo.nabla_perp(c_xi, d) - geo.f_normal_part(geo.nabla_perp(xi_field, d))
        for d in directions
    ]


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
    are tensorial, so a frame direction or field is a contraction of these.
    """
    directions = np.eye(geo.n)
    xi_fields = jets.array(
        [geo.xi_field[..., a, :] for a in range(geo.m)] + [geo.H_field]
    ).swapaxes(-1, -2)
    return (
        np.stack(_nabla_omega(geo, directions, geo.T), axis=-3),
        np.stack(_nabla_C(geo, directions, xi_fields), axis=-3),
    )


def _lemma1_point(geo: _JetGeometry, nabla_omega_t: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions X and coordinate fields Y."""
    phi_y = geo.param_components(geo.f_tangent_part(geo.J0.swapaxes(-1, -2)))  # row b: phi T_b
    h_x_phi_y = np.einsum("...bd,...adi->...abi", phi_y, geo.hc0)  # [a, b]: h(T_a, phi T_b)
    residual = nabla_omega_t + h_x_phi_y - geo.f_normal_part(geo.hc0)
    return geo.norm_g(residual).max(axis=(-2, -1))


def _lemma2_point(geo: _JetGeometry, nabla_c_xi: np.ndarray) -> np.ndarray:
    """Worst residual at every point over coordinate directions and every
    normal frame field plus H."""
    worst = 0.0
    xi0s = np.concatenate([geo.Xi0, geo.H0[..., None, :]], axis=-2)
    b_xi = geo.f_tangent_part(xi0s)
    for a, x in enumerate(np.eye(geo.n)):
        rhs = -geo.f_normal_part(geo.shape_operator(x, xi0s)) - geo.h_bilinear(x, b_xi)
        worst = np.maximum(worst, geo.norm_g(nabla_c_xi[..., a, :, :] - rhs).max(axis=-1))
    return worst
