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
"proof residual".  Each is float algebra on the tensors of
:func:`prodgeo.calculus.lemma_tensors` and the build's h, H, phi, omega, B
and C, all orthonormal-frame components along the tangent frame vectors,
which the geometry completes from the coordinate tangents in parameter
order; no statement reads the chart.  Each reported column is a
maximum over that frame: of g-norms over the vectors e_a for T2, of
absolute values over the pairs (e_a, e_b) for T3 and over the vectors
phi e_a for T4.  A column is so a number of that frame, not of the
submanifold alone, and it is not frame-covariant: renaming the parameters
u1 <-> u2 gives another frame, and moves T3's obstruction on random trig
surfaces by up to 76% of the smaller value.  Only whether a column is
zero is the same in every frame.

At points that are not pseudo-umbilical at the identity tolerance the
identity is still evaluated (a useful negative control) but the proof
residual is skipped: its entry in the ``proof`` column is ``None``.  The
verdicts are read off the columns, and :func:`prodgeo.verify.verify`
returns them as ``outcome.theorems``, keyed ``"t2"`` to ``"t4"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subgeom import _JetGeometry, _rank, _semi_invariant

__all__ = ["TheoremVerdict"]


@dataclass(frozen=True)
class TheoremVerdict:
    """A statement's verdicts under their report names, then its columns."""

    identity_holds_everywhere: bool
    disjunction_global: bool
    disjunction_pointwise: bool
    biconditional_consistent: bool
    proof_points_skipped: int
    points: dict  # the columns "identity", "obstruction", "proof" and "branches"


class _PointData:
    """Quantities the three statements share, at every sample point; the
    tensors are those of :func:`prodgeo.calculus.lemma_tensors`."""

    def __init__(self, geo: _JetGeometry, tol: float, nabla_omega, nabla_c_xi):
        self.geo = geo
        self.tol = tol
        self.nabla_omega = nabla_omega
        self.nabla_c_h = nabla_c_xi[..., :, -1, :]  # row a: (nabla_{e_a} C) H
        self.pseudo_umbilical = geo.pu_gap <= tol
        self.minimal = geo.H_norm <= tol
        self.invariant = geo.omega_norm <= tol
        self.anti_invariant = geo.phi_norm <= tol
        self.omega_phi_zero = geo.omega_phi_norm <= tol
        self.rank_phi = _rank(geo.phi_singular, tol)
        # CH in normal components, and BH on the tangent frame
        self.ch = (geo.Hn0[:, None] @ geo.C0.swapaxes(-1, -2))[:, 0]
        bh = geo.Hn0[:, None] @ geo.B0.swapaxes(-1, -2)
        self.h_bh = (bh[:, None] @ geo.h_on0)[..., 0, :]  # row a: h(e_a, BH)


def _columns(data: _PointData, identity, obstruction, proof, branches) -> dict:
    """The statement's columns from its per-point arrays; ``"branches"`` maps
    each branch of the statement's disjunction to its column, and the proof
    residual is ``None`` where the point is not pseudo-umbilical."""
    proof = [p if ok else None for p, ok in zip(proof.tolist(), data.pseudo_umbilical.tolist())]
    return {
        "identity": identity.tolist(),
        "obstruction": obstruction.tolist(),
        "proof": proof,
        "branches": {name: flags.tolist() for name, flags in branches.items()},
    }


def _t2_point(data: _PointData) -> dict:
    geo = data.geo
    d_ch, h_term = data.nabla_c_h, data.h_bh  # row a: X = e_a
    omega_x = geo.omega0.swapaxes(-1, -2)  # row a: omega e_a
    hsq = geo.Hsq[..., None]
    identity = np.linalg.norm(d_ch + h_term, axis=-1).max(axis=-1)
    obstruction = (hsq * np.linalg.norm(omega_x, axis=-1)).max(axis=-1)
    proof = np.linalg.norm(d_ch + hsq[..., None] * omega_x + h_term, axis=-1).max(axis=-1)
    branches = {"minimal": data.minimal, "invariant": data.invariant}
    return _columns(data, identity, obstruction, proof, branches)


def _t3_point(data: _PointData) -> dict:
    geo = data.geo
    lhs = (data.nabla_omega @ geo.Hn0[..., None, :, None])[..., 0]  # g((nabla_{e_a} omega) e_b, H)
    rhs = (geo.h_on0 @ data.ch[..., None, :, None])[..., 0]
    hsq = geo.Hsq[..., None, None]
    identity = np.abs(lhs - rhs).max(axis=(-2, -1))
    obstruction = (hsq * np.abs(geo.phi0)).max(axis=(-2, -1))
    proof = np.abs(lhs + hsq * geo.phi0 - rhs).max(axis=(-2, -1))
    branches = {"minimal": data.minimal, "anti_invariant": data.anti_invariant}
    return _columns(data, identity, obstruction, proof, branches)


def _t4_point(data: _PointData) -> dict:
    geo = data.geo
    phi_x = geo.phi0.swapaxes(-1, -2)  # row a: X = phi e_a
    d_ch, h_x = phi_x @ data.nabla_c_h, phi_x @ data.h_bh
    omega_phi_x = (geo.omega0 @ geo.phi0).swapaxes(-1, -2)  # row a: omega phi e_a
    lhs, h_term, o_term = ((v @ data.ch[..., :, None])[..., 0] for v in (d_ch, h_x, omega_phi_x))
    hsq = geo.Hsq[..., None]
    identity = np.abs(lhs + h_term).max(axis=-1)
    obstruction = (hsq * np.abs(o_term)).max(axis=-1)
    proof = np.abs(lhs + hsq * o_term + h_term).max(axis=-1)
    branches = {
        "minimal": data.minimal,
        "semi_invariant": data.omega_phi_zero,
        "perpendicular": (np.abs(o_term) <= data.tol).all(axis=-1),
    }
    return _columns(data, identity, obstruction, proof, branches)


def _verdict(theorem: str, columns: dict, ranks, tol: float) -> TheoremVerdict:
    """The statement's verdicts, read off its columns: the identity holds
    where its residual is at most ``tol``, and the disjunction where some
    branch holds."""
    identity_everywhere = all(r <= tol for r in columns["identity"])
    branches = columns["branches"]
    global_branches = {name: all(flags) for name, flags in branches.items()}
    if theorem == "t4":
        semi = global_branches["semi_invariant"]
        global_branches["semi_invariant"] = _semi_invariant(semi, ranks)
    disjunction_global = any(global_branches.values())
    return TheoremVerdict(
        identity_holds_everywhere=identity_everywhere,
        disjunction_global=disjunction_global,
        disjunction_pointwise=all(map(any, zip(*branches.values()))),
        biconditional_consistent=identity_everywhere == disjunction_global,
        proof_points_skipped=columns["proof"].count(None),
        points=columns,
    )
