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
"proof residual".  One kernel, :func:`_statement`, forms the three
columns of every statement from its terms; the branches are the predicates
of :func:`prodgeo.subgeom._predicates`, folded to the submanifold by
:func:`prodgeo.subgeom._everywhere`.  Each column is float algebra on the
tensors of :func:`prodgeo.calculus.lemma_tensors` and the build's h, H,
phi, omega, B and C, all orthonormal-frame components along the tangent
frame vectors, which the geometry completes from the coordinate tangents
in parameter order; no statement reads the chart.  Each column is a
maximum over that frame: of g-norms over the vectors e_a for T2, of
absolute values over the pairs (e_a, e_b) for T3 and over the vectors
phi e_a for T4.  A column is so a number of that frame, not of the
submanifold alone, and it is not frame-covariant: renaming the parameters
u1 <-> u2 gives another frame, and moves T3's obstruction on random trig
surfaces by up to 76% of the smaller value.  Only whether a column is
zero is the same in every frame.

The branches, and so the points where the proof applies, are decided at
the classification tolerance, once per document with the class flags; the
identities are held to the identity tolerance.  At points that are not
pseudo-umbilical the identity is still evaluated (a useful negative
control) but the proof residual is skipped: its entry in the ``proof``
column is ``None``.  The
verdicts are read off the columns, and :func:`prodgeo.verify.verify`
returns them as ``outcome.theorems``, keyed ``"t2"`` to ``"t4"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subgeom import _everywhere, _JetGeometry, _norm

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
    tensors are those of :func:`prodgeo.calculus.lemma_tensors`, and
    ``flags`` the build's :func:`~prodgeo.subgeom._predicates` at the
    classification tolerance ``tol``."""

    def __init__(self, geo: _JetGeometry, tol: float, flags: dict, nabla_omega, nabla_c_xi):
        self.geo = geo
        self.tol = tol
        self.flags = flags
        self.nabla_omega = nabla_omega
        self.nabla_c_h = nabla_c_xi[..., :, -1, :]  # row a: (nabla_{e_a} C) H
        # CH in normal components, and BH on the tangent frame
        self.ch = (geo.Hn0[:, None] @ geo.C0.swapaxes(-1, -2))[:, 0]
        bh = geo.Hn0[:, None] @ geo.B0.swapaxes(-1, -2)
        self.h_bh = (bh[:, None] @ geo.h_on0)[..., 0, :]  # row a: h(e_a, BH)


def _statement(data: _PointData, lhs, h_term, o_term, size, branches: dict) -> dict:
    """A statement's columns from its terms over the frame, the identity
    ``lhs + h_term = 0`` and its obstruction ``o_term``, each measured by
    ``size``: the identity residual is the worst ``size(lhs + h_term)``, the
    obstruction the worst |H|^2 ``size(o_term)`` and the proof residual the
    worst ``size(lhs + |H|^2 o_term + h_term)``, ``None`` where the point is
    not pseudo-umbilical; ``"branches"`` maps each branch of the statement's
    disjunction to its column."""

    def worst(values):  # the largest over the frame, at every point
        return values.reshape(len(values), -1).max(axis=-1).tolist()

    def scaled(values):  # |H|^2 values, point by point
        return data.geo.Hsq.reshape((-1,) + (1,) * (values.ndim - 1)) * values

    proof = zip(worst(size(lhs + scaled(o_term) + h_term)), data.flags["pseudo_umbilical"])
    return {
        "identity": worst(size(lhs + h_term)),
        "obstruction": worst(scaled(size(o_term))),
        "proof": [p if ok else None for p, ok in proof],
        "branches": {name: flags.tolist() for name, flags in branches.items()},
    }


def _t2_point(data: _PointData) -> dict:
    omega_x = data.geo.omega0.swapaxes(-1, -2)  # row a: omega e_a, with X = e_a
    branches = {name: data.flags[name] for name in ("minimal", "invariant")}
    return _statement(data, data.nabla_c_h, data.h_bh, omega_x, _norm, branches)


def _t3_point(data: _PointData) -> dict:
    geo = data.geo
    lhs = (data.nabla_omega @ geo.Hn0[..., None, :, None])[..., 0]  # g((nabla_{e_a} omega) e_b, H)
    rhs = (geo.h_on0 @ data.ch[..., None, :, None])[..., 0]
    branches = {name: data.flags[name] for name in ("minimal", "anti_invariant")}
    return _statement(data, lhs, -rhs, geo.phi0, np.abs, branches)


def _t4_point(data: _PointData) -> dict:
    geo, flags = data.geo, data.flags
    phi_x = geo.phi0.swapaxes(-1, -2)  # row a: X = phi e_a
    d_ch, h_x = phi_x @ data.nabla_c_h, phi_x @ data.h_bh
    omega_phi_x = (geo.omega0 @ geo.phi0).swapaxes(-1, -2)  # row a: omega phi e_a
    lhs, h_term, o_term = ((v @ data.ch[..., :, None])[..., 0] for v in (d_ch, h_x, omega_phi_x))
    branches = {
        "minimal": flags["minimal"],
        "semi_invariant": flags["semi_invariant"],
        "perpendicular": (np.abs(o_term) <= data.tol).all(axis=-1),
    }
    return _statement(data, lhs, h_term, o_term, np.abs, branches)


def _verdict(columns: dict, ranks, tol: float) -> TheoremVerdict:
    """The statement's verdicts, read off its columns: the identity holds
    where its residual is at most ``tol``, and the disjunction where some
    branch holds, globally where :func:`~prodgeo.subgeom._everywhere` does."""
    identity_everywhere = all(r <= tol for r in columns["identity"])
    branches = columns["branches"]
    disjunction_global = any(_everywhere(name, branches, ranks) for name in branches)
    return TheoremVerdict(
        identity_holds_everywhere=identity_everywhere,
        disjunction_global=disjunction_global,
        disjunction_pointwise=all(map(any, zip(*branches.values()))),
        biconditional_consistent=identity_everywhere == disjunction_global,
        proof_points_skipped=columns["proof"].count(None),
        points=columns,
    )
