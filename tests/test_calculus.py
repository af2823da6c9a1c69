"""Induced connections, nabla-omega / nabla-C, and the lemma suites.

The directional derivatives are read off the geometry of a one-point
batch: the ambient covariant derivative along every coordinate
direction (``_JetGeometry.nabla``), whose tangent and normal parts are the
induced connections, and nabla omega / nabla C through the batched
``calculus._nabla_omega`` / ``_nabla_C`` that ``verify`` runs.  Each returns
one row per coordinate direction behind the point axis; a test contracts the
rows with its direction and keeps the point axis.  The fields are built here
from the geometry's frames, and the mean curvature field by the reference
of the ``mean_curvature`` test module.
"""

import collections
import math

import numpy as np
import pytest

from prodgeo import calculus, jets
from prodgeo.ambient import product_of
from prodgeo.catalog import catalog_get, catalog_list, random_trig_immersion, flat_product
from prodgeo.subgeom import Immersion, _JetGeometry, point_geometry
from prodgeo.verify import verify

from controls import corrupted_lemma_case
from mean_curvature import mean_curvature_field
from oracle import fd_derivative

FLAT11 = product_of("flat", 1, "flat", 1)
FLAT21 = product_of("flat", 2, "flat", 1)
FLAT22 = product_of("flat", 2, "flat", 2)


def _coordinate_field(geo, coefficients):
    """The tangent field sum_b c_b T_b with constant coefficients."""
    return jets.einsum("b,...bi->...i", np.asarray(coefficients, float), geo.T)


def _normal_field(geo, coefficients):
    """The normal field sum_a c_a xi_a with constant coefficients."""
    return jets.einsum("a,...ai->...i", np.asarray(coefficients, float), geo.xi_field)


def _geometry(immersion, space, u):
    """The geometry of the one-point batch ``[u]``."""
    return _JetGeometry(immersion, space, [u])


def _along(derivatives, direction):
    """Rows along the coordinate directions, ``(1, n, ...)``, contracted with ``direction``."""
    return np.tensordot(np.asarray(direction, float), derivatives, axes=(0, 1))


def _cov(geo, field, direction):
    """The ambient covariant derivative of ``field`` along ``direction``."""
    return _along(geo.nabla(field), direction)


def _nabla_tan(geo, field, direction):
    return geo.project_tangent(_cov(geo, field, direction))


def _nabla_perp(geo, field, direction):
    return geo.project_normal(_cov(geo, field, direction))


def _h(geo, x, y_params):
    """h(X, Y) for X and Y in parameter components."""
    return _along(geo.h_params(np.reshape(y_params, (1, 1, -1))), x)[:, 0]


def _shape_operator(geo, x, xi):
    return _along(geo.shape_operator(np.reshape(xi, (1, 1, -1))), x)[:, 0]


def _pairing(geo, a, b):
    """g(a, b) for two jet vector fields, as a jet of shape ``(1,)``."""
    pairing = None
    for i in range(geo.N):
        for j in range(geo.N):
            term = geo.gf[..., i, j] * a[..., i] * b[..., j]
            pairing = term if pairing is None else pairing + term
    return pairing


def test_tangential_connection_plane_vanishes():
    imm = Immersion(2, ("u1", "u2", "0"))
    geo = _geometry(imm, FLAT21, (0.2, -0.3))
    assert np.max(np.abs(_nabla_tan(geo, geo.T[..., 0, :], (1.0, 0.0)))) <= 1e-14


def test_tangential_connection_circle_purely_normal():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    geo = _geometry(imm, FLAT11, (0.8,))
    assert np.max(np.abs(_nabla_tan(geo, geo.T[..., 0, :], (1.0,)))) <= 1e-13


def test_tangential_connection_sphere_matches_christoffels():
    # longitude derivative on the unit sphere: nabla_{d2} d2 = -sin u1 cos u1 d1
    imm = Immersion(2, ("sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"))
    u = (math.pi / 4, 0.9)
    geo = _geometry(imm, FLAT21, u)
    out = _nabla_tan(geo, geo.T[..., 1, :], (0.0, 1.0))
    expected = -math.sin(u[0]) * math.cos(u[0]) * geo.J0[:, :, 0]
    assert np.max(np.abs(out - expected)) <= 1e-8


def test_normal_connection_plane_and_circle():
    plane = Immersion(2, ("u1", "u2", "0"))
    geo = _geometry(plane, FLAT21, (0.1, 0.4))
    assert np.max(np.abs(_nabla_perp(geo, geo.xi_field[..., 0, :], (1.0, -2.0)))) <= 1e-14
    circle = Immersion(1, ("cos(u1)", "sin(u1)"))
    geo = _geometry(circle, FLAT11, (0.5,))
    assert np.max(np.abs(_nabla_perp(geo, geo.xi_field[..., 0, :], (1.0,)))) <= 1e-13


def test_weingarten_cross_check_on_circle():
    # A_xi e = -tangential part of nabla-bar_e xi; with h(e,e) = -nu the
    # shape operator along the outward normal is -identity
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    u = (0.5,)
    geo = _geometry(imm, FLAT11, u)
    full = _cov(geo, geo.xi_field[:, 0], [1.0])
    a_e = -geo.project_tangent(full)
    h_ee_dot_xi = float(geo.hcomp0[0, 0, 0, 0])  # = -1 for the outward frame
    expected = h_ee_dot_xi * geo.E0[:, 0]
    assert abs(abs(h_ee_dot_xi) - 1.0) <= 1e-12
    assert np.max(np.abs(a_e - expected)) <= 1e-12
    assert np.max(np.abs(geo.project_normal(full))) <= 1e-12


def test_nabla_omega_invariant_and_anti_invariant_vanish():
    torus = catalog_get("square-torus-aligned")
    geo = _geometry(torus.immersion, torus.space, (0.5, 1.1))
    for a in range(2):
        for b in range(2):
            direction = [1.0 if i == a else 0.0 for i in range(2)]
            out = _along(calculus._nabla_omega(geo, geo.T[..., b, :]), direction)
            assert np.max(np.abs(out)) <= 1e-12
    diag = Immersion(1, ("u1", "u1"))
    geo = _geometry(diag, FLAT11, (0.4,))
    out = _along(calculus._nabla_omega(geo, geo.T[..., 0, :]), (1.0,))
    assert np.max(np.abs(out)) <= 1e-14


def test_nabla_omega_circle_closed_form():
    # (nabla_e omega) e = -2 cos(2u) nu, checked against the identity with C h
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    for u in (0.0, math.pi / 8, 0.9):
        geo = _geometry(imm, FLAT11, (u,))
        out = _along(calculus._nabla_omega(geo, geo.T[..., 0, :]), (1.0,))
        sign = math.copysign(1.0, geo.Xi0[0, 0] @ [math.cos(u), math.sin(u)])
        expected = -2.0 * math.cos(2 * u) * sign * geo.Xi0[:, 0]
        assert np.max(np.abs(out - expected)) <= 1e-9
        rhs = geo.f_normal_part(_h(geo, np.array([1.0]), np.array([1.0])))
        phi_t = geo.param_components(geo.f_tangent_part(geo.J0[:, :, 0]))
        rhs = rhs - _h(geo, np.array([1.0]), phi_t)
        assert np.max(np.abs(out - rhs)) <= 1e-9


def test_nabla_C_flat_plane_vanishes():
    plane = Immersion(2, ("u1", "u2", "0"))
    geo = _geometry(plane, FLAT21, (0.3, 0.1))
    for xi in (geo.xi_field[..., 0, :], mean_curvature_field(plane, FLAT21, [(0.3, 0.1)])):
        assert np.max(np.abs(_along(calculus._nabla_C(geo, xi), (1.0, 1.0)))) <= 1e-13


def test_nabla_C_circle_matches_oracle():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    u0 = 0.7

    def c_of_nu(t):
        # normal component of F xi at parameter u0 + t, in the moving frame
        pg = point_geometry(imm, FLAT11, (u0 + t,))
        return float(pg.Cm[0, 0])

    geo = _geometry(imm, FLAT11, (u0,))
    out = _along(calculus._nabla_C(geo, geo.xi_field[..., 0, :]), (1.0,))
    # (nabla C) xi dotted with xi equals d/dt C - C * d... both normal bundles
    # are rank one, so compare the xi component against the derivative of the
    # scalar C(u) (the connection of a rank-one bundle has no extra term).
    jet_value = float(out[0] @ geo.g0 @ geo.Xi0[0, 0])
    oracle = fd_derivative(c_of_nu, 0.0)
    assert abs(jet_value - oracle) <= 1e-6


def test_nabla_C_torus_mean_curvature_field():
    torus = catalog_get("square-torus-aligned")
    geo = _geometry(torus.immersion, torus.space, (0.5, 1.1))
    h_field = mean_curvature_field(torus.immersion, torus.space, [(0.5, 1.1)])
    for a in range(2):
        direction = [1.0 if i == a else 0.0 for i in range(2)]
        out = _along(calculus._nabla_C(geo, h_field), direction)
        # rhs of the second identity with xi = H: -omega A_H X - h(X, BH)
        x = np.asarray(direction, float)
        rhs = -geo.f_normal_part(_shape_operator(geo, x, geo.H0))
        rhs = rhs - _h(geo, x, geo.param_components(geo.f_tangent_part(geo.H0)))
        assert np.max(np.abs(out)) <= 1e-9
        assert np.max(np.abs(out - rhs)) <= 1e-9


def test_lemma_checks_pass_on_all_catalog_scenarios():
    for label in catalog_list():
        scn = catalog_get(label)
        outcome = verify(scn.space, scn.immersion, theorems=False)
        r1, r2 = outcome.lemma1, outcome.lemma2
        assert r1.passed and r1.max_residual <= 1e-9, (label, r1.max_residual)
        assert r2.passed and r2.max_residual <= 1e-9, (label, r2.max_residual)


def test_lemma_checks_fail_on_corrupted_ambient():
    space, imm = corrupted_lemma_case()
    outcome = verify(space, imm, theorems=False)
    r1, r2 = outcome.lemma1, outcome.lemma2
    assert not r1.passed and r1.max_residual > 1e-3
    assert not r2.passed and r2.max_residual > 1e-3


def test_lemma_checks_pass_on_random_immersions():
    for seed in range(5):
        imm = random_trig_immersion(seed)
        outcome = verify(flat_product(2, 2), imm, theorems=False)
        r1, r2 = outcome.lemma1, outcome.lemma2
        assert r1.passed, (seed, r1.max_residual)
        assert r2.passed, (seed, r2.max_residual)


def test_nabla_omega_is_tensorial_in_y():
    scn = catalog_get("sphere")
    u0 = (0.7, 0.3)
    geo = _geometry(scn.immersion, scn.space, u0)

    def nabla_omega(y_field):
        return _along(calculus._nabla_omega(geo, y_field), (1.0, 0.5))

    # scaling Y by the scalar field f(u) = u1 multiplies the value by f(u0)
    plain = nabla_omega(_coordinate_field(geo, (0.0, 1.0)))
    scaled = nabla_omega(geo.T[..., 1, :] * geo.uenv["u1"][:, None])
    assert np.max(np.abs(scaled - u0[0] * plain)) <= 1e-8
    # additivity in Y
    y0 = nabla_omega(_coordinate_field(geo, (1.0, 0.0)))
    y1 = nabla_omega(_coordinate_field(geo, (0.0, 1.0)))
    both = nabla_omega(_coordinate_field(geo, (1.0, 1.0)))
    assert np.max(np.abs(both - (y0 + y1))) <= 1e-9


def test_nabla_omega_is_linear_in_x():
    scn = catalog_get("sphere")
    u0 = (0.7, 0.3)
    geo = _geometry(scn.immersion, scn.space, u0)
    directions = [(1.0, 0.0), (0.0, 1.0), (2.0, -3.0)]
    rows = calculus._nabla_omega(geo, geo.T[..., 1, :])
    xa, xb, xc = (_along(rows, d) for d in directions)
    assert np.max(np.abs(xc - (2.0 * xa - 3.0 * xb))) <= 1e-9


@pytest.mark.parametrize("xi", ["H", 0])
def test_nabla_C_is_linear_in_x(xi):
    # the theorems contract the coordinate-direction values to frame directions
    scn = catalog_get("sphere")
    u0 = (0.7, 0.3)
    geo = _geometry(scn.immersion, scn.space, u0)
    if xi == "H":
        field = mean_curvature_field(scn.immersion, scn.space, [u0])
    else:
        field = geo.xi_field[..., xi, :]
    directions = [(1.0, 0.0), (0.0, 1.0), (2.0, -3.0)]
    rows = calculus._nabla_C(geo, field)
    xa, xb, xc = (_along(rows, d) for d in directions)
    assert np.max(np.abs(xa)) > 1e-3
    assert np.max(np.abs(xc - (2.0 * xa - 3.0 * xb))) <= 1e-9


def test_nabla_C_is_additive_in_xi():
    scn = catalog_get("square-torus-rotated")
    geo = _geometry(scn.immersion, scn.space, scn.samples[0])

    def nabla_C(xi_field):
        return _along(calculus._nabla_C(geo, xi_field), (1.0, 0.5))

    xi0, xi1 = (nabla_C(geo.xi_field[..., a, :]) for a in range(2))
    assert np.max(np.abs(xi0)) > 1e-3
    assert np.max(np.abs(nabla_C(_normal_field(geo, (1.0, 0.0))) - xi0)) <= 1e-12
    both = nabla_C(_normal_field(geo, (2.0, -1.0)))
    assert np.max(np.abs(both - (2.0 * xi0 - xi1))) <= 1e-9


@pytest.mark.parametrize("lemmas, theorems", [(True, True), (True, False), (False, True)])
def test_verify_derives_each_tensor_once(lemmas, theorems, monkeypatch):
    calls = collections.Counter()
    for name in ("_nabla_omega", "_nabla_C"):
        original = getattr(calculus, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(calculus, name, counted)
    scn = catalog_get("square-torus-rotated")
    verify(scn.space, scn.immersion, lemmas=lemmas, theorems=theorems)
    assert calls == {"_nabla_omega": 1, "_nabla_C": 1}
    verify(scn.space, scn.immersion, lemmas=False, theorems=False)
    assert calls == {"_nabla_omega": 1, "_nabla_C": 1}


def test_gauss_and_weingarten_reassembly():
    for label in ("sphere", "square-torus-rotated", "curved-block"):
        scn = catalog_get(label)
        for u in scn.samples:
            geo = _geometry(scn.immersion, scn.space, u)
            for a in range(geo.n):
                x = np.eye(geo.n)[a]
                for b in range(geo.n):
                    full = _cov(geo, geo.T[:, b], x)
                    split = _nabla_tan(geo, geo.T[:, b], x) + _h(geo, x, np.eye(geo.n)[b])
                    assert np.max(np.abs(full - split)) <= 1e-10
                for alpha in range(geo.m):
                    xi0 = geo.Xi0[:, alpha]
                    full = _cov(geo, geo.xi_field[:, alpha], x)
                    split = -_shape_operator(geo, x, xi0) + _nabla_perp(geo, 
                        geo.xi_field[:, alpha], x
                    )
                    assert np.max(np.abs(full - split)) <= 1e-10


def test_normal_connection_is_metric_compatible():
    scn = catalog_get("square-torus-rotated")
    rng = np.random.default_rng(2)
    for u in scn.samples:
        geo = _geometry(scn.immersion, scn.space, u)
        h_field = mean_curvature_field(scn.immersion, scn.space, [u])
        x = rng.uniform(-1, 1, geo.n)
        # d/dt g(H, xi_alpha) = g(nabla-perp H, xi) + g(H, nabla-perp xi)
        for alpha in range(geo.m):
            pairing = _pairing(geo, h_field, geo.xi_field[:, alpha])
            lhs = float(pairing.gradient()[0, : geo.n] @ x)
            rhs = _nabla_perp(geo, h_field, x)[0] @ geo.g0 @ geo.Xi0[0, alpha]
            rhs += geo.H0[0] @ geo.g0 @ _nabla_perp(geo, geo.xi_field[:, alpha], x)[0]
            assert abs(lhs - rhs) <= 1e-8


def test_directional_derivative_matches_oracle_on_rect_torus():
    scn = catalog_get("rect-torus")
    u0 = np.array([0.5, 1.1])
    x = np.array([0.7, -0.4])

    def h_sq(t):
        pg = point_geometry(scn.immersion, scn.space, u0 + t * x)
        return float(pg.H @ pg.ambient_metric @ pg.H)

    geo = _geometry(scn.immersion, scn.space, u0)
    h_field = mean_curvature_field(scn.immersion, scn.space, [u0])
    pairing = _pairing(geo, h_field, h_field)
    jet_value = float(pairing.gradient()[0, : geo.n] @ x)
    oracle = fd_derivative(h_sq, 0.0)
    assert abs(jet_value - oracle) <= 1e-5


def test_jet_directional_derivatives_match_oracle_on_all_scenarios():
    # oracle-limited tolerance: 1e-5 absolute on d/dt |H(u0 + tX)|^2
    from prodgeo.catalog import catalog_list

    rng = np.random.default_rng(31)
    for label in catalog_list():
        scn = catalog_get(label)
        u0 = np.asarray(scn.samples[0], float)
        x = rng.uniform(-1, 1, scn.immersion.n)

        def h_sq(t):
            pg = point_geometry(scn.immersion, scn.space, u0 + t * x)
            return float(pg.H @ pg.ambient_metric @ pg.H)

        geo = _geometry(scn.immersion, scn.space, u0)
        h_field = mean_curvature_field(scn.immersion, scn.space, [u0])
        pairing = _pairing(geo, h_field, h_field)
        jet_value = float(pairing.gradient()[0, : geo.n] @ x)
        assert abs(jet_value - fd_derivative(h_sq, 0.0)) <= 1e-5, label
