"""Connections induced on the submanifold and the derived identity suites.

The tangential connection is the tangent part of the ambient covariant
derivative, the normal connection its normal part (Gauss and Weingarten
splits).  On top of those sit the covariant derivatives of the
product-structure projections,

    (nabla_X omega) Y = nabla^perp_X (omega Y) - omega (nabla_X Y)
    (nabla_X C) xi    = nabla^perp_X (C xi)    - C (nabla^perp_X xi)

and the two identities every submanifold of a locally product Riemannian
space satisfies:

    (nabla_X omega) Y + h(X, phi Y) = C h(X, Y)
    (nabla_X C) xi = - omega A_xi X - h(X, B xi)

``check_lemma1`` / ``check_lemma2`` measure the worst residual of these
identities over samples and frame directions (through
:func:`prodgeo.verify.verify`); a corrupted ambient space
(one with nabla F != 0) breaks them by an O(1) margin, which is the
engine's negative control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets
from .ambient import AmbientSpace
from .subgeom import Immersion, _JetGeometry

__all__ = [
    "DirectionalContext",
    "LemmaReport",
    "tangential_connection",
    "normal_connection",
    "nabla_omega",
    "nabla_C",
    "check_lemma1",
    "check_lemma2",
    "check_lemmas",
]


@dataclass(frozen=True)
class DirectionalContext:
    """Base point and parameter-space direction for one derivative."""

    base: tuple[float, ...]
    direction: tuple[float, ...]
    order: int = 1

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))
        object.__setattr__(self, "direction", tuple(float(v) for v in self.direction))
        if len(self.base) != len(self.direction):
            raise ValueError("base point and direction have different dimensions")
        if not any(self.direction):
            raise ValueError("direction must be nonzero")
        if self.order < 1:
            raise jets.InsufficientJetOrder("directional derivatives need order >= 1")


def _geometry(immersion: Immersion, space: AmbientSpace, base) -> _JetGeometry:
    return _JetGeometry(immersion, space, base, order=3)


def _tangent_field(geo: _JetGeometry, y):
    """Resolve a tangent-field spec: coordinate index or parameter components."""
    if isinstance(y, (int, np.integer)):
        if not 0 <= int(y) < geo.n:
            raise ValueError(f"coordinate index {y} out of range")
        return geo.T[int(y)]
    return geo.coordinate_field(list(y))


def _normal_field(geo: _JetGeometry, xi):
    """Resolve a normal-field spec: frame index, 'H', or frame coefficients."""
    if isinstance(xi, str):
        if xi != "H":
            raise ValueError("normal field must be a frame index, 'H', or coefficients")
        return geo.H_field
    if isinstance(xi, (int, np.integer)):
        if not 0 <= int(xi) < geo.m:
            raise ValueError(f"normal frame index {xi} out of range")
        return geo.xi_field[int(xi)]
    coefficients = np.array([float(c) for c in xi])
    if len(coefficients) != geo.m:
        raise ValueError(f"expected {geo.m} normal frame coefficients")
    return jets.einsum("a,ai->i", coefficients, geo.xi_field)


def tangential_connection(
    immersion: Immersion, space: AmbientSpace, ctx: DirectionalContext, y
) -> np.ndarray:
    """nabla_X Y: tangent part of the ambient covariant derivative."""
    geo = _geometry(immersion, space, ctx.base)
    return geo.nabla_tan(_tangent_field(geo, y), ctx.direction)


def normal_connection(
    immersion: Immersion, space: AmbientSpace, ctx: DirectionalContext, xi
) -> np.ndarray:
    """nabla^perp_X xi: normal part of the ambient covariant derivative."""
    geo = _geometry(immersion, space, ctx.base)
    return geo.nabla_perp(_normal_field(geo, xi), ctx.direction)


# Both derivatives below accept a batch of fields (leading axes before the
# ambient component) and return one ambient vector per field.


def _nabla_omega(geo: _JetGeometry, direction, y_field) -> np.ndarray:
    omega_y = geo.normal_part_field(geo.apply_F_field(y_field))
    d_perp = geo.nabla_perp(omega_y, direction)
    nab_y = geo.nabla_tan(y_field, direction)
    return d_perp - geo.f_normal_part(nab_y)


def _nabla_C(geo: _JetGeometry, direction, xi_field) -> np.ndarray:
    c_xi = geo.normal_part_field(geo.apply_F_field(xi_field))
    d_perp = geo.nabla_perp(c_xi, direction)
    nab_xi = geo.nabla_perp(xi_field, direction)
    return d_perp - geo.f_normal_part(nab_xi)


def nabla_omega(
    immersion: Immersion, space: AmbientSpace, ctx: DirectionalContext, y
) -> np.ndarray:
    """(nabla_X omega) Y as an ambient (normal) vector."""
    geo = _geometry(immersion, space, ctx.base)
    return _nabla_omega(geo, ctx.direction, _tangent_field(geo, y))


def nabla_C(
    immersion: Immersion, space: AmbientSpace, ctx: DirectionalContext, xi
) -> np.ndarray:
    """(nabla_X C) xi as an ambient (normal) vector."""
    geo = _geometry(immersion, space, ctx.base)
    return _nabla_C(geo, ctx.direction, _normal_field(geo, xi))


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    max_residual: float
    per_point: tuple[tuple[tuple[float, ...], float], ...]
    passed: bool
    tol: float


def _lemma1_point(geo: _JetGeometry) -> float:
    """Worst residual over coordinate directions X and coordinate fields Y."""
    worst = 0.0
    for x in np.eye(geo.n):
        lhs_all = _nabla_omega(geo, x, geo.T)  # one row per coordinate field
        for b, lhs in enumerate(lhs_all):
            phi_y = geo.f_tangent_part(geo.J0[:, b])
            h_x_phiy = geo.h_bilinear(x, phi_y)
            y_params = np.eye(geo.n)[b]
            c_h = geo.f_normal_part(geo.h_params(x, y_params))
            worst = max(worst, geo.norm_g(lhs + h_x_phiy - c_h))
    return worst


def _lemma2_point(geo: _JetGeometry) -> float:
    """Worst residual over coordinate directions and every normal frame field plus H."""
    worst = 0.0
    xi_fields = jets.array([*geo.xi_field, geo.H_field])
    xi0s = xi_fields.value
    for x in np.eye(geo.n):
        for lhs, xi0 in zip(_nabla_C(geo, x, xi_fields), xi0s):
            b_xi = geo.f_tangent_part(xi0)
            rhs = -geo.f_normal_part(geo.shape_operator(x, xi0)) - geo.h_bilinear(x, b_xi)
            worst = max(worst, geo.norm_g(lhs - rhs))
    return worst


def check_lemma1(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
) -> LemmaReport:
    """Residuals of (nabla_X omega) Y + h(X, phi Y) - C h(X, Y) over samples."""
    return check_lemmas(immersion, space, samples, tol)[0]


def check_lemma2(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
) -> LemmaReport:
    """Residuals of (nabla_X C) xi + omega A_xi X + h(X, B xi) over samples.

    xi ranges over every normal frame field and the mean curvature field.
    """
    return check_lemmas(immersion, space, samples, tol)[1]


def check_lemmas(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
) -> tuple[LemmaReport, LemmaReport]:
    """Both lemma suites sharing one geometry build per sample."""
    from .verify import Tolerances, verify

    outcome = verify(space, immersion, samples, Tolerances(identity_tol=tol), theorems=False)
    return outcome.lemma1, outcome.lemma2
