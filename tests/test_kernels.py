"""The connection calculus and the T2-T4 columns against einsum references.

The library evaluates nabla omega and nabla C from the derivatives of the
tangent projector and of F as operator arrays, and the two lemma residuals
and the T2-T4 columns as stacked matrix products, along every tangent
frame vector at once.  The references below differentiate fields instead,
one coordinate direction per pass, as ``np.einsum`` contractions of first-order
jets they build themselves: the tangent fields by ``jets.partial`` of an
order-2 seed, the metric and F from the space's tables along the immersion,
the normal fields xi_s = P_N(u) Xi0[s] with P_N = I - T G^-1 T^T g, and the
mean curvature field of the ``mean_curvature`` test module, where the
library applies the operator product to H0 as one more normal column.
The library's tensors, h and H are components in the orthonormal normal
frame along the tangent frame vectors e_a; the tensors are compared as
vectors through ``Xi0`` after the build's ``R`` (T_c = R[a, c] e_a) takes
their directions and fields to coordinate ones.  The references read
h(d_a, d_b) from ``h_on0`` the same way, take the frame vectors as
e_a = P[c, a] T_c with P = R^-1, and otherwise work on coordinate vectors
with the metric.  Both read the same base-point
geometry.  Each library array must lie
within 1e-12 of the reference array's largest entry, or of the size of the
terms it is summed from where that is larger (at least 1): a residual of a
true identity, or a tensor that vanishes, is roundoff in those terms.
"""

import numpy as np
import pytest

from prodgeo import calculus, jets
from prodgeo.ambient import AmbientSpace, levi_civita, product_of
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.subgeom import Immersion, _JetGeometry, param_vars
from prodgeo.theorems import _PointData, _t2_point, _t3_point, _t4_point

from controls import corrupted_lemma_case
from grids import seed_one_grids
from mean_curvature import inverse, mean_curvature_field
from oracle import fd_derivative

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
    # codimension 2 in a space that is not locally product: the lemma
    # residuals are O(1) there, so a transposed or missing change of basis
    # between frame and coordinate directions shows
    rotating = AmbientSpace(4, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                            [["cos(x1)", "sin(x1)", "0", "0"], ["sin(x1)", "-cos(x1)", "0", "0"],
                             ["0", "0", "1", "0"], ["0", "0", "0", "-1"]])
    sheet = Immersion(2, ("cos(u1) + 0.2 * u2", "sin(u1)", "0.5 * u1 + u2",
                          "0.3 * sin(2 * u1) * u2"),
                      samples=((0.5, 0.1), (1.2, -0.3), (2.0, 0.7)))
    cases.append(("rotating-structure", rotating, sheet))
    return cases


CASES = _cases()


# ---- the einsum references ---------------------------------------------------


def _fit(geo, field, axes, vec):
    extra = len(vec.shape) - 2  # behind the point axis and the component
    if extra <= 0:
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


def _to_params(geo):
    """G^-1 J^T g, the parameter components of a tangent vector."""
    return np.linalg.solve(geo.G0, geo.J0.swapaxes(-1, -2) @ geo.g0)


def _param_components(geo, v):
    return np.einsum("...ai,...i->...a", _fit(geo, _to_params(geo), 2, v), v)


def _frame_in_params(geo):
    """P = R^-1: e_a = P[c, a] T_c."""
    return np.linalg.inv(geo.R)


def _coordinate(geo, rows):
    """The library's rows along the tangent frame vectors as rows along the
    coordinate directions, by T_c = R[a, c] e_a."""
    return np.einsum("pac,pa...->pc...", geo.R, rows)


def _hc(geo):
    """The coordinate-frame second fundamental form as vectors, h(d_a, d_b) at [a, b]."""
    return np.einsum("...ac,...bd,...abs,...si->...cdi", geo.R, geo.R, geo.h_on0, geo.Xi0)


def _h_params(geo, x_params, y_params):
    x_params = _fit(geo, np.asarray(x_params, dtype=float), 1, y_params)
    return np.einsum(
        "...a,...b,...abi->...i", x_params, y_params, _fit(geo, _hc(geo), 3, y_params)
    )


def _shape_operator(geo, x_params, xi):
    h_xb = np.einsum("...a,...cb,...aci->...bi", x_params, _frame_in_params(geo), _hc(geo))
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


def _reference_fields(geo, space, imm):
    """The tangent fields T, the normal fields xi_s = P_N Xi0[s], and the
    normal part and F of a field, all as order-1 jets of this module's own."""
    f = imm._plan(dict(zip(param_vars(imm.n), jets.seed_point(geo.u, 2))))[0]
    tangents = jets.array([jets.partial(f, a) for a in range(imm.n)]).swapaxes(-1, -2)
    g, structure = space.tables(("metric", "structure"), f.truncate(1))
    lowered = jets.einsum("...ij,...aj->...ai", g, tangents)  # g(T_a, .)
    ginv = inverse(jets.einsum("...ai,...bi->...ab", tangents, lowered))

    def normal_part(v):
        along = jets.einsum("...sa,...ab->...sb", jets.einsum("...ai,...si->...sa", lowered, v), ginv)
        return v - jets.einsum("...sb,...bi->...si", along, tangents)

    def apply_f(v):
        return jets.einsum("...ij,...sj->...si", structure, v)

    frame = jets.Jet(tangents.alg, geo.Xi0[..., None] * (np.arange(tangents.alg.size) == 0))
    return tangents, normal_part(frame), normal_part, apply_f


def _reference_tensors(geo, space, imm, h_field):
    """nabla omega, nabla C and the covariant derivatives of the tangent fields."""
    gamma = _christoffel(geo, space)
    tangents, frame, normal_part, apply_f = _reference_fields(geo, space, imm)
    xi_fields = jets.array(
        [frame[..., a, :] for a in range(geo.m)] + [h_field]
    ).swapaxes(-1, -2)
    omega_y = normal_part(apply_f(tangents))
    c_xi = normal_part(apply_f(xi_fields))
    nabla_omega, nabla_c, nabla_t = [], [], []
    for d in np.eye(geo.n):
        nabla_omega.append(_nabla_perp(geo, gamma, omega_y, d)
                           - _f_normal_part(geo, _nabla_tan(geo, gamma, tangents, d)))
        nabla_c.append(_nabla_perp(geo, gamma, c_xi, d)
                       - _f_normal_part(geo, _nabla_perp(geo, gamma, xi_fields, d)))
        nabla_t.append(_cov_deriv(geo, gamma, tangents, d))
    return (np.stack(nabla_omega, axis=-3), np.stack(nabla_c, axis=-3),
            np.stack(nabla_t, axis=-3))


def _reference_lemma1(geo, nabla_omega_t):
    phi_y = _param_components(geo, _f_tangent_part(geo, geo.J0.swapaxes(-1, -2)))
    h_x_phi_y = np.einsum("...bd,...adi->...abi", phi_y, _hc(geo))
    residual = nabla_omega_t + h_x_phi_y - _f_normal_part(geo, _hc(geo))
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
        h_term = np.einsum("...ac,...d,...cdi->...ai", x, bh_params, _hc(geo))
        return d_ch, h_term

    out = {}
    p = _frame_in_params(geo)
    d_ch, h_term = along(p.swapaxes(-1, -2))
    omega_x = _f_normal_part(geo, geo.E0)
    hsq = geo.Hsq[..., None]
    out["t2"] = (
        _norm_g(geo, d_ch + h_term).max(axis=-1),
        (hsq * _norm_g(geo, omega_x)).max(axis=-1),
        _norm_g(geo, d_ch + hsq[..., None] * omega_x + h_term).max(axis=-1),
    )
    nabla_omega_e = np.einsum("...ca,...db,...cdi->...abi", p, p, nabla_omega_t)
    lhs = np.einsum("...abi,...ij,...j->...ab", nabla_omega_e, geo.g0, geo.H0)
    h_on = np.einsum("...abs,...si->...abi", geo.h_on0, geo.Xi0)
    rhs = np.einsum("...abi,...ij,...j->...ab", h_on, geo.g0, ch0)
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
    nabla_omega, nabla_c_xi = calculus.lemma_tensors(geo)
    ref_omega, ref_c, ref_t = _reference_tensors(
        geo, space, imm, mean_curvature_field(imm, space, np.array(imm.samples)))
    # every array here is a sum of terms of this size, and some of them
    # (the tensors of an invariant surface, the lemma residuals) are roundoff
    terms = max(np.abs(ref_t).max(), np.abs(_hc(geo)).max(), geo.Hsq.max(), 1.0)
    # the library's tensors are normal-frame components along frame vectors:
    # vectors through Xi0, on coordinate directions and fields through R
    assert nabla_omega.shape[-1] == nabla_c_xi.shape[-1] == geo.m, label
    xi0 = geo.Xi0[:, None]
    nabla_omega_t = _coordinate(geo, _coordinate(geo, nabla_omega).swapaxes(1, 2)).swapaxes(1, 2)
    _close(nabla_omega_t @ xi0, ref_omega, terms, (label, "nabla omega"))
    _close(_coordinate(geo, nabla_c_xi) @ xi0, ref_c, terms, (label, "nabla C"))
    _close(calculus._lemma1_point(geo, nabla_omega), _reference_lemma1(geo, ref_omega),
           terms, (label, "lemma1"))
    _close(calculus._lemma2_point(geo, nabla_c_xi), _reference_lemma2(geo, ref_c),
           terms, (label, "lemma2"))
    data = _PointData(geo, TOL, nabla_omega, nabla_c_xi)
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


def _operators(space, imm, u):
    """The build's P_tan0, g0 and F0 at the one point ``u``, stacked."""
    geo = _JetGeometry(imm, space, [u])
    return np.stack([m[0] for m in (geo.P_tan0, geo.g0, geo.F0)])


FD_CASES = [case for case in CASES if not case[0].startswith(("grid-", "fuzz-"))]


@pytest.mark.parametrize("label, space, imm", FD_CASES, ids=[case[0] for case in FD_CASES])
def test_operator_derivatives_match_the_oracle(label, space, imm):
    # d_a P_T = D_a P_T - [Gamma_a, P_T], d_a g by the chain rule and
    # d_a F = D_a F - [Gamma_a, F] along the frame vectors, taken to the
    # coordinate directions by R, against central differences of the
    # build's own values at u +- h e_a
    geo = _JetGeometry(imm, space, np.array(imm.samples))
    d_tan, d_f = calculus._operator_derivatives(geo)
    if not geo.flat:
        gamma, p_tan, f = geo.GammaE0.swapaxes(-1, -2), geo.P_tan0[:, None], geo.F0[:, None]
        d_tan = d_tan - (gamma @ p_tan - p_tan @ gamma)
        d_f = d_f - (gamma @ f - f @ gamma)
    frame_rows = np.stack([d_tan, calculus._along(geo, geo.dg0), d_f], axis=2)  # [p, a, operator]
    got = _coordinate(geo, frame_rows)
    for p, u in enumerate(np.array(imm.samples)):
        for a, step in enumerate(np.eye(imm.n)):
            want = fd_derivative(lambda t: _operators(space, imm, u + t * step), 0.0)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got[p, a] - want).max() <= 1e-7 * scale, (label, p, a)
