"""Pointwise evaluation of the three characterization statements.

Each statement couples an identity in the derived connection calculus to a
disjunction of geometric branches, for pseudo-umbilical submanifolds:

* T2: (nabla_X C) H = -h(X, BH)          <->  minimal or invariant
* T3: g((nabla_X omega) Y, H) = g(Y, A_CH X)  <->  minimal or anti-invariant
* T4: g((nabla_{phi X} C) H, CH) = -g(h(phi X, BH), CH)
       <->  minimal, or semi-invariant, or omega phi X perpendicular to CH

For every statement the residual of the identity equals a closed
"obstruction" built from the mean curvature and the structure projections
(T2: |H|^2 |omega X|; T3: |H|^2 |g(X, phi Y)|; T4: |H|^2 |g(omega phi X,
CH)|), and the chain that produces the obstruction is itself checked as the
"proof residual".  Each is float algebra on the coordinate-direction
tensors of :func:`prodgeo.calculus.lemma_tensors`.  Directions range over
the orthonormal tangent frame that the geometry completes from the
coordinate tangents in parameter order, and each reported column is a
maximum over that frame: of g-norms over the vectors e_a for T2, of
absolute values over the pairs (e_a, e_b) for T3 and over the vectors
phi e_a for T4.  A column is so a number of that frame, not of the
submanifold alone, and it is not frame-covariant: renaming the parameters
u1 <-> u2 gives another frame, and moves T3's obstruction on random trig
surfaces by up to 76% of the smaller value.  Only whether a column is
zero is the same in every frame.

At points that are not pseudo-umbilical the identity is still evaluated (a
useful negative control) but the proof residual is skipped and flagged.
:func:`prodgeo.verify.verify` returns the verdicts as ``outcome.theorems``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .subgeom import PointRecords, _JetGeometry, _rank, _semi_invariant

__all__ = ["TheoremPointRecord", "TheoremPoints", "TheoremVerdict"]


@dataclass(frozen=True)
class TheoremPointRecord:
    u: tuple[float, ...]
    pseudo_umbilical: bool
    identity_residual: float
    obstruction: float
    proof_residual: float | None
    branches: Mapping[str, bool]
    identity_holds: bool
    disjunction_pointwise: bool


class TheoremPoints(PointRecords):
    """Columns named and ordered like the fields of :class:`TheoremPointRecord`;
    ``"branches"`` maps each branch of the disjunction to its column."""

    def rows(self) -> tuple:
        flags = self.columns["branches"]
        branches = [dict(zip(flags, values)) for values in zip(*flags.values())]
        return tuple(map(TheoremPointRecord, *dict(self.columns, branches=branches).values()))


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    points: TheoremPoints
    identity_holds_everywhere: bool
    disjunction_global: bool
    disjunction_pointwise_everywhere: bool
    biconditional_consistent: bool
    proof_points_skipped: int
    tol: float


class _PointData:
    """Quantities the three statements share, at every sample point; the
    tensors are those of :func:`prodgeo.calculus.lemma_tensors`."""

    def __init__(self, geo: _JetGeometry, tol: float, nabla_omega_t, nabla_c_xi):
        self.geo = geo
        self.nabla_omega_t = nabla_omega_t
        self.nabla_c_h = nabla_c_xi[..., :, -1, :]  # row c: (nabla_{d_c} C) H
        self.pseudo_umbilical = geo.pu_gap <= tol
        self.minimal = geo.H_norm <= tol
        self.invariant = geo.omega_norm <= tol
        self.anti_invariant = geo.phi_norm <= tol
        self.omega_phi_zero = geo.omega_phi_norm <= tol
        self.rank_phi = _rank(geo.phi_singular, tol)
        self.CH0 = geo.f_normal_part(geo.H0)
        self.g_h, self.g_ch = geo.lower0(geo.H0), geo.lower0(self.CH0)
        bh_params = geo.param_components(geo.f_tangent_part(geo.H0))
        self.h_bh = geo.h_params(bh_params[..., None, :])[..., 0, :]  # row c: h(d_c, BH)

    def along(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(nabla_X C) H and h(X, BH) for every row X of ``x``, in parameter components."""
        return x @ self.nabla_c_h, x @ self.h_bh


def _columns(data: _PointData, tol: float, identity, obstruction, proof, branches) -> TheoremPoints:
    """The statement's columns from its per-point arrays; the branches are
    the statement's disjunction, and the proof residual is kept only where
    the point is pseudo-umbilical."""
    pu = data.pseudo_umbilical.tolist()
    return TheoremPoints({
        "u": data.geo.points,
        "pseudo_umbilical": pu,
        "identity_residual": identity.tolist(),
        "obstruction": obstruction.tolist(),
        "proof_residual": [p if ok else None for p, ok in zip(proof.tolist(), pu)],
        "branches": {name: flags.tolist() for name, flags in branches.items()},
        "identity_holds": (identity <= tol).tolist(),
        "disjunction_pointwise": reduce(np.logical_or, branches.values()).tolist(),
    })


def _t2_point(data: _PointData, tol: float) -> TheoremPoints:
    geo = data.geo
    d_ch, h_term = data.along(geo.P.swapaxes(-1, -2))  # row a: X = e_a
    omega_x = geo.f_normal_part(geo.E0)
    hsq = geo.Hsq[..., None]
    identity = geo.norm_g(d_ch + h_term).max(axis=-1)
    obstruction = (hsq * geo.norm_g(omega_x)).max(axis=-1)
    proof = geo.norm_g(d_ch + hsq[..., None] * omega_x + h_term).max(axis=-1)
    branches = {"minimal": data.minimal, "invariant": data.invariant}
    return _columns(data, tol, identity, obstruction, proof, branches)


def _t3_point(data: _PointData, tol: float) -> TheoremPoints:
    geo = data.geo
    # g((nabla_{e_a} omega) e_b, H) = P[c, a] P[d, b] g((nabla_{d_c} omega) T_d, H)
    p = geo.P
    lhs = p.swapaxes(-1, -2) @ (data.nabla_omega_t @ data.g_h[..., None, :, None])[..., 0] @ p
    rhs = (geo.h_on0 @ data.g_ch[..., None, :, None])[..., 0]
    hsq = geo.Hsq[..., None, None]
    identity = np.abs(lhs - rhs).max(axis=(-2, -1))
    obstruction = (hsq * np.abs(geo.phi0)).max(axis=(-2, -1))
    proof = np.abs(lhs + hsq * geo.phi0 - rhs).max(axis=(-2, -1))
    branches = {"minimal": data.minimal, "anti_invariant": data.anti_invariant}
    return _columns(data, tol, identity, obstruction, proof, branches)


def _t4_point(data: _PointData, tol: float) -> TheoremPoints:
    geo = data.geo
    phi_x = geo.f_tangent_part(geo.E0)  # row a: X = phi e_a
    d_ch, h_x = data.along(geo.param_components(phi_x))
    lhs, h_term, o_term = (
        (v @ data.g_ch[..., :, None])[..., 0] for v in (d_ch, h_x, geo.f_normal_part(phi_x))
    )
    hsq = geo.Hsq[..., None]
    identity = np.abs(lhs + h_term).max(axis=-1)
    obstruction = (hsq * np.abs(o_term)).max(axis=-1)
    proof = np.abs(lhs + hsq * o_term + h_term).max(axis=-1)
    branches = {
        "minimal": data.minimal,
        "semi_invariant": data.omega_phi_zero,
        "perpendicular": (np.abs(o_term) <= tol).all(axis=-1),
    }
    return _columns(data, tol, identity, obstruction, proof, branches)


def _verdict(theorem: str, points: TheoremPoints, ranks, tol: float) -> TheoremVerdict:
    columns = points.columns
    identity_everywhere = all(columns["identity_holds"])
    global_branches = {name: all(flags) for name, flags in columns["branches"].items()}
    if theorem == "t4":
        semi = global_branches["semi_invariant"]
        global_branches["semi_invariant"] = _semi_invariant(semi, ranks)
    disjunction_global = any(global_branches.values())
    return TheoremVerdict(
        theorem=theorem,
        points=points,
        identity_holds_everywhere=identity_everywhere,
        disjunction_global=disjunction_global,
        disjunction_pointwise_everywhere=all(columns["disjunction_pointwise"]),
        biconditional_consistent=identity_everywhere == disjunction_global,
        proof_points_skipped=columns["proof_residual"].count(None),
        tol=tol,
    )
