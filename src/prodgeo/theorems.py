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
"proof residual".  Directions range over the orthonormal tangent frame, so
every reported scalar is frame-covariant.

At points that are not pseudo-umbilical the identity is still evaluated (a
useful negative control) but the proof residual is skipped and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ambient import AmbientSpace
from .calculus import _nabla_omega
from .subgeom import Immersion, _JetGeometry, rank_of

__all__ = [
    "NotPseudoUmbilical",
    "TheoremPointRecord",
    "TheoremVerdict",
    "theorem2_check",
    "theorem3_check",
    "theorem4_check",
    "check_theorems",
]


class NotPseudoUmbilical(ValueError):
    """Strict mode: a sample point violates the pseudo-umbilical hypothesis."""


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


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    points: tuple[TheoremPointRecord, ...]
    identity_holds_everywhere: bool
    disjunction_global: bool
    disjunction_pointwise_everywhere: bool
    biconditional_consistent: bool
    proof_points_skipped: int
    tol: float


def _dot(geo: _JetGeometry, v: np.ndarray, w: np.ndarray) -> float:
    return float(v @ geo.g0 @ w)


class _PointData:
    """Shared per-sample quantities for the three statements."""

    def __init__(self, geo: _JetGeometry, tol: float):
        self.geo = geo
        self.pseudo_umbilical = geo.pu_gap <= tol
        self.minimal = geo.norm_g(geo.H0) <= tol
        self.invariant = float(np.linalg.norm(geo.omega0)) <= tol
        self.anti_invariant = float(np.linalg.norm(geo.phi0)) <= tol
        self.omega_phi_zero = float(np.linalg.norm(geo.omega0 @ geo.phi0)) <= tol
        self.rank_phi = rank_of(geo.phi0, tol)
        self.CH_field = geo.normal_part_field(geo.apply_F_field(geo.H_field))
        self.CH0 = geo.f_normal_part(geo.H0)
        self.BH0 = geo.f_tangent_part(geo.H0)

    def nabla_C_of_H(self, direction: np.ndarray) -> np.ndarray:
        geo = self.geo
        d_perp = geo.nabla_perp(self.CH_field, direction)
        return d_perp - geo.f_normal_part(geo.nabla_perp(geo.H_field, direction))


def _record(
    data: _PointData, tol: float, identity, obstruction, proof, branches
) -> TheoremPointRecord:
    """One point's record; the branches are the statement's disjunction."""
    return TheoremPointRecord(
        u=data.geo.u,
        pseudo_umbilical=data.pseudo_umbilical,
        identity_residual=identity,
        obstruction=obstruction,
        proof_residual=proof if data.pseudo_umbilical else None,
        branches=branches,
        identity_holds=identity <= tol,
        disjunction_pointwise=any(branches.values()),
    )


def _t2_point(data: _PointData, tol: float) -> TheoremPointRecord:
    geo = data.geo
    identity = obstruction = proof = 0.0
    for a in range(geo.n):
        xp = geo.P[:, a]
        d_ch = data.nabla_C_of_H(xp)
        h_term = geo.h_bilinear(xp, data.BH0)
        omega_x = geo.f_normal_part(geo.E0[a])
        identity = max(identity, geo.norm_g(d_ch + h_term))
        obstruction = max(obstruction, geo.Hsq * geo.norm_g(omega_x))
        proof = max(proof, geo.norm_g(d_ch + geo.Hsq * omega_x + h_term))
    branches = {"minimal": data.minimal, "invariant": data.invariant}
    return _record(data, tol, identity, obstruction, proof, branches)


def _t3_point(data: _PointData, tol: float) -> TheoremPointRecord:
    geo = data.geo
    identity = obstruction = proof = 0.0
    y_fields = geo.coordinate_field(geo.P.T)  # row b: the frame field P[:, b]^c T_c
    for a in range(geo.n):
        xp = geo.P[:, a]
        nabla_omega_y = _nabla_omega(geo, xp, y_fields)
        for b in range(geo.n):
            lhs = _dot(geo, nabla_omega_y[b], geo.H0)
            rhs = _dot(geo, geo.h_on0[a][b], data.CH0)
            identity = max(identity, abs(lhs - rhs))
            obstruction = max(obstruction, geo.Hsq * abs(geo.phi0[a, b]))
            proof = max(proof, abs(lhs + geo.Hsq * geo.phi0[a, b] - rhs))
    branches = {"minimal": data.minimal, "anti_invariant": data.anti_invariant}
    return _record(data, tol, identity, obstruction, proof, branches)


def _t4_point(data: _PointData, tol: float) -> TheoremPointRecord:
    geo = data.geo
    identity = obstruction = proof = 0.0
    perpendicular = True
    for a in range(geo.n):
        phi_x = geo.f_tangent_part(geo.E0[a])
        pp = geo.param_components(phi_x)
        lhs = _dot(geo, data.nabla_C_of_H(pp), data.CH0)
        h_term = _dot(geo, geo.h_bilinear(pp, data.BH0), data.CH0)
        o_term = _dot(geo, geo.f_normal_part(phi_x), data.CH0)
        identity = max(identity, abs(lhs + h_term))
        obstruction = max(obstruction, geo.Hsq * abs(o_term))
        proof = max(proof, abs(lhs + geo.Hsq * o_term + h_term))
        perpendicular = perpendicular and abs(o_term) <= tol
    branches = {
        "minimal": data.minimal,
        "semi_invariant": data.omega_phi_zero,
        "perpendicular": perpendicular,
    }
    return _record(data, tol, identity, obstruction, proof, branches)


def _verdict(theorem: str, records, ranks, tol: float) -> TheoremVerdict:
    identity_everywhere = all(r.identity_holds for r in records)
    branch_names = records[0].branches.keys()
    global_branches = {
        name: all(r.branches[name] for r in records) for name in branch_names
    }
    if theorem == "t4":
        # semi-invariance is a global notion: constant rank is part of it
        global_branches["semi_invariant"] = (
            global_branches["semi_invariant"] and len(set(ranks)) == 1
        )
    disjunction_global = any(global_branches.values())
    pointwise_everywhere = all(r.disjunction_pointwise for r in records)
    return TheoremVerdict(
        theorem=theorem,
        points=tuple(records),
        identity_holds_everywhere=identity_everywhere,
        disjunction_global=disjunction_global,
        disjunction_pointwise_everywhere=pointwise_everywhere,
        biconditional_consistent=identity_everywhere == disjunction_global,
        proof_points_skipped=sum(1 for r in records if r.proof_residual is None),
        tol=tol,
    )


def theorem2_check(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
    strict: bool = False,
) -> TheoremVerdict:
    """(nabla_X C) H = -h(X, BH)  vs  minimal-or-invariant."""
    return check_theorems(immersion, space, samples, tol, strict)["t2"]


def theorem3_check(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
    strict: bool = False,
) -> TheoremVerdict:
    """g((nabla_X omega) Y, H) = g(Y, A_CH X)  vs  minimal-or-anti-invariant."""
    return check_theorems(immersion, space, samples, tol, strict)["t3"]


def theorem4_check(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
    strict: bool = False,
) -> TheoremVerdict:
    """g((nabla_{phi X} C) H, CH) = -g(h(phi X, BH), CH)  vs  the three branches."""
    return check_theorems(immersion, space, samples, tol, strict)["t4"]


def check_theorems(
    immersion: Immersion,
    space: AmbientSpace,
    samples: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-8,
    strict: bool = False,
) -> dict[str, TheoremVerdict]:
    """All three statements, sharing one geometry build per sample.

    ``strict`` raises :class:`NotPseudoUmbilical` if a sample point violates
    the pseudo-umbilical hypothesis of the statements.
    """
    from .verify import Tolerances, verify

    verdicts = verify(space, immersion, samples, Tolerances(identity_tol=tol), lemmas=False).theorems
    if strict:
        for record in verdicts["t2"].points:
            if not record.pseudo_umbilical:
                raise NotPseudoUmbilical(f"point u = {record.u} is not pseudo-umbilical")
    return verdicts
