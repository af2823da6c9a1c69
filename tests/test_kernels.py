"""The connection calculus and the T2-T4 columns against einsum references.

The library evaluates nabla omega, nabla C, the two lemma residuals and the
T2-T4 columns as stacked matrix products, with every coordinate direction
at once.  The references below are the same quantities written as
``np.einsum`` contractions, one coordinate direction per pass, the way the
library computed them before; both read the same geometry.  The reference
differentiates the mean curvature field of the ``mean_curvature`` test
module, where the library contracts the normal frame columns.  Each library
array must lie within 1e-12 of the reference array's largest entry, or of
the size of the terms it is summed from where that is larger (at least 1):
a residual of a true identity, or a tensor that vanishes, is roundoff in
those terms.
"""

import numpy as np
import pytest

from prodgeo import calculus, jets
from prodgeo.ambient import levi_civita, product_of
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.subgeom import Immersion, _JetGeometry
from prodgeo.theorems import _PointData, _t2_point, _t3_point, _t4_point

from controls import corrupted_lemma_case
from grids import seed_one_grids
from mean_curvature import mean_curvature_field

TOL = 1e-8


def _cases():
    cases = [(label, catalog_get(label).space, catalog_get(label).immersion)
             for label in catalog_list()]
    cases.append(("corrupted",) + corrupted_lemma_case())
    cases += [(imm.label, space, imm) for space, imm in seed_one_grids()]
    cases += [(f"fuzz-{seed}", flat_product(2, 2), random_trig_immersion(seed, 16))
              for seed in range(6)]
    # a curved metric that is not diagonal along the normals, which no case
    # above has: there a missing lowering or a transposed Christoffel shows
    tilted = product_of([["2", "0.5"], ["0.5", "1 + x1^2"]], 2, [["1 + x3^2"]], 1)
    surface = Immersion(2, ("u1", "0.3 * u1 + sin(u2)", "u2 + 0.2 * u1 * u2"),
                        samples=((0.1, 0.2), (0.7, -0.4), (-0.5, 1.1), (1.2, 0.6)))
    cases.append(("tilted-metric", tilted, surface))
    return cases


CASES = _cases()


# ---- the einsum references ---------------------------------------------------


def _fit(geo, field, axes, vec):
    extra = len(vec.shape) - 2  # behind the point axis and the component
    if extra <= 0 or len(field.shape) == axes:
        return field
    return field[(Ellipsis,) + (None,) * extra + (slice(None),) * axes]


def _project_tangent(geo, v):
    return np.einsum("...ij,...j->...i", _fit(geo, geo.P_tan0, 2, v), v)


def _project_normal(geo, v):
    return v - _project_tangent(geo, v)


def _norm_g(geo, v):
    sq = np.einsum("...i,...ij,...j->...", v, _fit(geo, geo.g0, 2, v), v)
    return np.sqrt(np.maximum(sq, 0.0))


def _f_tangent_part(geo, v):
    return _project_tangent(geo, np.einsum("...ij,...j->...i", _fit(geo, geo.F0, 2, v), v))


def _f_normal_part(geo, v):
    return _project_normal(geo, np.einsum("...ij,...j->...i", _fit(geo, geo.F0, 2, v), v))


def _param_components(geo, v):
    return np.einsum("...ai,...i->...a", _fit(geo, geo.to_params, 2, v), v)


def _h_params(geo, x_params, y_params):
    x_params = _fit(geo, np.asarray(x_params, dtype=float), 1, y_params)
    return np.einsum(
        "...a,...b,...abi->...i", x_params, y_params, _fit(geo, geo.hc0, 3, y_params)
    )


def _shape_operator(geo, x_params, xi):
    h_xb = np.einsum("...a,...cb,...aci->...bi", x_params, geo.P, geo.hc0)
    h_xb_lowered = np.einsum("...bi,...ij->...bj", h_xb, geo.g0)
    coefficients = np.einsum("...bj,...j->...b", _fit(geo, h_xb_lowered, 2, xi), xi)
    return np.einsum("...b,...bi->...i", coefficients, _fit(geo, geo.E0, 2, xi))


def _christoffel(geo, space):
    """The Christoffel symbols at the images, ``None`` for a flat geometry."""
    if geo.flat:
        return None
    (dg,) = space.tables(("metric_diff",), geo.x0)
    return levi_civita(np.linalg.inv(geo.g0), dg)


def _cov_deriv(geo, gamma, vec, direction):
    d = _fit(geo, np.asarray(direction, dtype=float), 1, vec)
    derivative = np.einsum("...ia,...a->...i", vec.gradient(), d)
    if gamma is None:
        return derivative
    gamma_t = np.einsum("...ijk,...ja->...ika", gamma, geo.J0)
    return derivative + np.einsum(
        "...ika,...a,...k->...i", _fit(geo, gamma_t, 3, vec), d, vec.value
    )


def _nabla_tan(geo, gamma, vec, direction):
    return _project_tangent(geo, _cov_deriv(geo, gamma, vec, direction))


def _nabla_perp(geo, gamma, vec, direction):
    return _project_normal(geo, _cov_deriv(geo, gamma, vec, direction))


def _reference_tensors(geo, space, h_field):
    gamma = _christoffel(geo, space)
    xi_fields = jets.array(
        [geo.xi_field[..., a, :] for a in range(geo.m)] + [h_field]
    ).swapaxes(-1, -2)
    omega_y = geo.normal_part_field(geo.apply_F_field(geo.T))
    c_xi = geo.normal_part_field(geo.apply_F_field(xi_fields))
    nabla_omega, nabla_c = [], []
    for d in np.eye(geo.n):
        nabla_omega.append(_nabla_perp(geo, gamma, omega_y, d)
                           - _f_normal_part(geo, _nabla_tan(geo, gamma, geo.T, d)))
        nabla_c.append(_nabla_perp(geo, gamma, c_xi, d)
                       - _f_normal_part(geo, _nabla_perp(geo, gamma, xi_fields, d)))
    return np.stack(nabla_omega, axis=-3), np.stack(nabla_c, axis=-3)


def _reference_lemma1(geo, nabla_omega_t):
    phi_y = _param_components(geo, _f_tangent_part(geo, geo.J0.swapaxes(-1, -2)))
    h_x_phi_y = np.einsum("...bd,...adi->...abi", phi_y, geo.hc0)
    residual = nabla_omega_t + h_x_phi_y - _f_normal_part(geo, geo.hc0)
    return _norm_g(geo, residual).max(axis=(-2, -1))


def _reference_lemma2(geo, nabla_c_xi):
    worst = 0.0
    xi0s = np.concatenate([geo.Xi0, geo.H0[..., None, :]], axis=-2)
    b_xi = _f_tangent_part(geo, xi0s)
    for a, x in enumerate(np.eye(geo.n)):
        rhs = (-_f_normal_part(geo, _shape_operator(geo, x, xi0s))
               - _h_params(geo, x, _param_components(geo, b_xi)))
        worst = np.maximum(worst, _norm_g(geo, nabla_c_xi[..., a, :, :] - rhs).max(axis=-1))
    return worst


def _reference_theorems(geo, nabla_omega_t, nabla_c_xi):
    """{statement: (identity, obstruction, proof)} at every point."""
    nabla_c_h = nabla_c_xi[..., :, -1, :]
    ch0 = _f_normal_part(geo, geo.H0)
    bh_params = _param_components(geo, _f_tangent_part(geo, geo.H0))

    def along(x):
        d_ch = np.einsum("...ac,...ci->...ai", x, nabla_c_h)
        h_term = np.einsum("...ac,...d,...cdi->...ai", x, bh_params, geo.hc0)
        return d_ch, h_term

    out = {}
    d_ch, h_term = along(geo.P.swapaxes(-1, -2))
    omega_x = _f_normal_part(geo, geo.E0)
    hsq = geo.Hsq[..., None]
    out["t2"] = (
        _norm_g(geo, d_ch + h_term).max(axis=-1),
        (hsq * _norm_g(geo, omega_x)).max(axis=-1),
        _norm_g(geo, d_ch + hsq[..., None] * omega_x + h_term).max(axis=-1),
    )
    nabla_omega_e = np.einsum("...ca,...db,...cdi->...abi", geo.P, geo.P, nabla_omega_t)
    lhs = np.einsum("...abi,...ij,...j->...ab", nabla_omega_e, geo.g0, geo.H0)
    rhs = np.einsum("...abi,...ij,...j->...ab", geo.h_on0, geo.g0, ch0)
    hsq = geo.Hsq[..., None, None]
    out["t3"] = (
        np.abs(lhs - rhs).max(axis=(-2, -1)),
        (hsq * np.abs(geo.phi0)).max(axis=(-2, -1)),
        np.abs(lhs + hsq * geo.phi0 - rhs).max(axis=(-2, -1)),
    )
    phi_x = _f_tangent_part(geo, geo.E0)
    d_ch, h_x = along(_param_components(geo, phi_x))
    lhs, h_term, o_term = (
        np.einsum("...ai,...ij,...j->...a", v, geo.g0, ch0)
        for v in (d_ch, h_x, _f_normal_part(geo, phi_x))
    )
    hsq = geo.Hsq[..., None]
    out["t4"] = (
        np.abs(lhs + h_term).max(axis=-1),
        (hsq * np.abs(o_term)).max(axis=-1),
        np.abs(lhs + hsq * o_term + h_term).max(axis=-1),
    )
    return out


# ---- comparisons ----------------------------------------------------------------


def _close(got, want, scale, where):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, where
    if not want.size:
        return
    bound = 1e-12 * max(np.abs(want).max(), scale)
    assert np.abs(got - want).max() <= bound, (where, np.abs(got - want).max(), bound)


@pytest.mark.parametrize("label, space, imm", CASES, ids=[case[0] for case in CASES])
def test_kernels_match_the_einsum_references(label, space, imm):
    geo = _JetGeometry(imm, space, np.array(imm.samples))
    nabla_omega_t, nabla_c_xi = calculus.lemma_tensors(geo)
    ref_omega, ref_c = _reference_tensors(
        geo, space, mean_curvature_field(imm, space, np.array(imm.samples)))
    # every array here is a sum of terms of this size, and some of them
    # (the tensors of an invariant surface, the lemma residuals) are roundoff
    terms = max(np.abs(geo.nabla(geo.T)).max(), np.abs(geo.hc0).max(), geo.Hsq.max(), 1.0)
    _close(nabla_omega_t, ref_omega, terms, (label, "nabla omega"))
    _close(nabla_c_xi, ref_c, terms, (label, "nabla C"))
    _close(calculus._lemma1_point(geo, nabla_omega_t), _reference_lemma1(geo, ref_omega),
           terms, (label, "lemma1"))
    _close(calculus._lemma2_point(geo, nabla_c_xi), _reference_lemma2(geo, ref_c),
           terms, (label, "lemma2"))
    data = _PointData(geo, TOL, nabla_omega_t, nabla_c_xi)
    references = _reference_theorems(geo, ref_omega, ref_c)
    for key, statement in (("t2", _t2_point), ("t3", _t3_point), ("t4", _t4_point)):
        columns = statement(data, TOL)
        identity, obstruction, proof = references[key]
        scale = terms * max(geo.Hsq.max(), 1.0)
        _close(columns["identity_residual"], identity, scale, (label, key, "identity"))
        _close(columns["obstruction"], obstruction, scale, (label, key, "obstruction"))
        kept = [p is not None for p in columns["proof_residual"]]
        _close([p for p in columns["proof_residual"] if p is not None],
               np.reshape(proof, -1)[kept], scale, (label, key, "proof"))


def test_all_directions_derivative_is_the_per_direction_one():
    # nabla(field)[..., a, :] is the derivative along d_a, and a direction
    # that differs between points is a contraction of those rows
    for label, space, imm in CASES:
        geo = _JetGeometry(imm, space, np.array(imm.samples))
        gamma = _christoffel(geo, space)
        directions = geo.P[..., :, 0]  # e_1 in coordinate components, per point
        h_field = mean_curvature_field(imm, space, np.array(imm.samples))
        for field in (geo.T, geo.xi_field, h_field):
            rows = geo.nabla(field)
            scale = np.abs(rows).max()
            for a, d in enumerate(np.eye(geo.n)):
                _close(rows[:, a], _cov_deriv(geo, gamma, field, d), scale, (label, a))
            _close(np.einsum("pa,pa...->p...", directions, rows),
                   _cov_deriv(geo, gamma, field, directions), scale, (label, "e_1"))
