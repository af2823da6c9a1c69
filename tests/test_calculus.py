"""Induced connections, nabla-omega / nabla-C, and the lemma suites.

The derivatives are read off the geometry of a one-point batch: the
tangential connection from the immersion's coordinate Hessian, the covariant
derivatives D_a P_T and D_a F of the tangent projector and of F from
``calculus._operator_derivatives``, and nabla omega / nabla C from
``calculus.lemma_tensors``, which ``verify`` runs.  The library returns one
row per tangent frame vector e_a behind the point axis; the tests contract
those rows with the build's ``R`` (T_c = R[a, c] e_a) to one row per
coordinate direction, and then with their direction, keeping the point
axis.  The library's tensors and h are normal-frame components; the tests
read them as vectors through ``Xi0`` and build their references on
coordinate vectors from the build's ``P_tan0``, ``F0``, ``G0`` and
``h_on0``.  The mean curvature field the oracle tests differentiate is the
reference of the ``mean_curvature`` test module, paired by the metric table
along the immersion.
"""

import collections
import math

import numpy as np
import pytest

from prodgeo import calculus
from prodgeo.ambient import AmbientSpace, product_of
from prodgeo.catalog import catalog_get, catalog_list, random_trig_immersion, flat_product
from prodgeo.subgeom import Immersion, _JetGeometry, point_geometry
from prodgeo.verify import verify

from controls import corrupted_lemma_case
from mean_curvature import mean_curvature_field
from oracle import fd_derivative
import taylor

FLAT11 = product_of("flat", 1, "flat", 1)
FLAT21 = product_of("flat", 2, "flat", 1)
FLAT22 = product_of("flat", 2, "flat", 2)


def _geometry(immersion, space, u):
    """The geometry of the one-point batch ``[u]``."""
    return _JetGeometry(immersion, space, [u])


def _along(derivatives, direction):
    """Rows along the coordinate directions, ``(1, n, ...)``, contracted with ``direction``."""
    return np.tensordot(np.asarray(direction, float), derivatives, axes=(0, 1))


def _coordinate(geo, rows):
    """Rows along the tangent frame vectors as rows along the coordinate
    directions, by T_c = R[a, c] e_a."""
    return np.einsum("pac,pa...->pc...", geo.R, rows)


def _derivatives(geo):
    """D_a P_T and D_a F along the coordinate directions."""
    return tuple(_coordinate(geo, d) for d in calculus._operator_derivatives(geo))


def _tangent(geo, v):
    """The tangent part of the vectors ``v``, by the build's projector ``P_tan0``."""
    return np.einsum("pij,p...j->p...i", geo.P_tan0, v)


def _normal(geo, v):
    return v - _tangent(geo, v)


def _f(geo, v):
    return np.einsum("pij,p...j->p...i", geo.F0, v)


def _params(geo, v):
    """Parameter components of the tangent vectors ``v``, G^-1 J^T g v."""
    to_params = np.linalg.solve(geo.G0, geo.J0.swapaxes(-1, -2) @ geo.g0)
    return np.einsum("pai,p...i->p...a", to_params, v)


def _hc(geo):
    """h(d_a, d_b) as vectors at [a, b], from the frame components ``h_on0``."""
    return _coordinate(geo, _coordinate(geo, geo.h_on0 @ geo.Xi0[:, None]).swapaxes(1, 2))


def _lemma_tensors(geo):
    """The tensors of ``calculus.lemma_tensors`` as vectors along the
    coordinate directions, nabla omega on the coordinate fields T_b."""
    nabla_omega, nabla_c_xi = calculus.lemma_tensors(geo)
    nabla_omega = _coordinate(geo, nabla_omega.swapaxes(1, 2)).swapaxes(1, 2)
    return tuple(_coordinate(geo, t) @ geo.Xi0[:, None] for t in (nabla_omega, nabla_c_xi))


def _nabla_tan(geo, b, direction):
    """nabla_X T_b: the tangent part of d_X T_b + Gamma(X, T_b), from the
    coordinate Hessian of the immersion's jet."""
    second = np.moveaxis(geo.f.hessian(), 1, -1)[:, :, b]  # row a: d_a T_b
    if not geo.flat:
        gamma_t = _coordinate(geo, geo.GammaE0)  # [a]: Gamma(T_a, .)
        second = second + (geo.J0[:, None, None, :, b] @ gamma_t)[:, :, 0]
    return _tangent(geo, _along(second, direction))


def _apply(rows, v):
    """Each row operator of ``rows`` (``(1, n, N, N)``) applied to the vectors ``v``."""
    return (rows @ np.asarray(v)[..., None])[..., 0]


def _nabla_c(geo, xi):
    """(nabla_{d_a} C) xi for one normal vector xi, by the operator formula
    applied to xi itself: P_N [(D F) xi - (D P_T) F xi - F (D P_T) xi]."""
    d_tan, d_f = _derivatives(geo)
    f = geo.F0[:, None]
    moved = _apply(d_f, xi) - _apply(d_tan, _apply(f, xi)) - _apply(f, _apply(d_tan, xi))
    return _normal(geo, moved)


def _h(geo, x, y_params):
    """h(X, Y) for X and Y in parameter components."""
    return np.einsum("a,b,pabi->pi", np.asarray(x, float), np.reshape(y_params, -1), _hc(geo))


def _shape_operator(geo, x, xi):
    """A_xi X = sum_b g(h(X, e_b), xi) e_b, with h(d_c, e_b) from ``h_on0``."""
    h_ce = _coordinate(geo, geo.h_on0)
    h_xb = np.einsum("c,pcbs,psi->pbi", np.asarray(x, float), h_ce, geo.Xi0)
    coefficients = np.einsum("pbi,pij,pj->pb", h_xb, geo.g0, xi)
    return np.einsum("pb,pbi->pi", coefficients, geo.E0)


def _pairing(space, geo, a, b):
    """g(a, b) for two jet vector fields, by the metric table along the
    immersion, as a jet of shape ``(1,)``."""
    (metric,) = taylor.tables_at(space, ("metric",), geo.f.truncate(1))
    pairing = None
    for i in range(geo.N):
        for j in range(geo.N):
            term = taylor.entry(metric, ..., i, j) * taylor.entry(a, ..., i) * taylor.entry(b, ..., j)
            pairing = term if pairing is None else pairing + term
    return pairing


def test_tangential_connection_plane_vanishes():
    imm = Immersion(2, ("u1", "u2", "0"))
    geo = _geometry(imm, FLAT21, (0.2, -0.3))
    assert np.max(np.abs(_nabla_tan(geo, 0, (1.0, 0.0)))) <= 1e-14


def test_tangential_connection_circle_purely_normal():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    geo = _geometry(imm, FLAT11, (0.8,))
    assert np.max(np.abs(_nabla_tan(geo, 0, (1.0,)))) <= 1e-13


def test_tangential_connection_sphere_matches_christoffels():
    # longitude derivative on the unit sphere: nabla_{d2} d2 = -sin u1 cos u1 d1
    imm = Immersion(2, ("sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"))
    u = (math.pi / 4, 0.9)
    geo = _geometry(imm, FLAT21, u)
    out = _nabla_tan(geo, 1, (0.0, 1.0))
    expected = -math.sin(u[0]) * math.cos(u[0]) * geo.J0[:, :, 0]
    assert np.max(np.abs(out - expected)) <= 1e-8


def test_weingarten_cross_check_on_circle():
    # A_xi e = P_T (D_e P_T) xi, the tangent part of -nabla-bar_e xi; with
    # h(e,e) = -nu the shape operator along the outward normal is -identity
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    u = (0.5,)
    geo = _geometry(imm, FLAT11, u)
    d_tan, _ = _derivatives(geo)
    moved = _along(_apply(d_tan, geo.Xi0[:, None, 0]), [1.0])
    a_e = _tangent(geo, moved)
    h_ee_dot_xi = float(geo.hcomp0[0, 0, 0, 0])  # = -1 for the outward frame
    expected = h_ee_dot_xi * geo.E0[:, 0]
    assert abs(abs(h_ee_dot_xi) - 1.0) <= 1e-12
    assert np.max(np.abs(a_e - expected)) <= 1e-12
    assert np.max(np.abs(_normal(geo, moved))) <= 1e-12


def test_nabla_omega_invariant_and_anti_invariant_vanish():
    torus = catalog_get("square-torus-aligned")
    geo = _geometry(torus.immersion, torus.space, (0.5, 1.1))
    nabla_omega_t, _ = _lemma_tensors(geo)
    for a in range(2):
        for b in range(2):
            direction = [1.0 if i == a else 0.0 for i in range(2)]
            out = _along(nabla_omega_t[:, :, b], direction)
            assert np.max(np.abs(out)) <= 1e-12
    diag = Immersion(1, ("u1", "u1"))
    geo = _geometry(diag, FLAT11, (0.4,))
    out = _along(_lemma_tensors(geo)[0][:, :, 0], (1.0,))
    assert np.max(np.abs(out)) <= 1e-14


def test_nabla_omega_circle_closed_form():
    # (nabla_e omega) e = -2 cos(2u) nu, checked against the identity with C h
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    for u in (0.0, math.pi / 8, 0.9):
        geo = _geometry(imm, FLAT11, (u,))
        out = _along(_lemma_tensors(geo)[0][:, :, 0], (1.0,))
        sign = math.copysign(1.0, geo.Xi0[0, 0] @ [math.cos(u), math.sin(u)])
        expected = -2.0 * math.cos(2 * u) * sign * geo.Xi0[:, 0]
        assert np.max(np.abs(out - expected)) <= 1e-9
        rhs = _normal(geo, _f(geo, _h(geo, np.array([1.0]), np.array([1.0]))))
        phi_t = _params(geo, _tangent(geo, _f(geo, geo.J0[:, :, 0])))
        rhs = rhs - _h(geo, np.array([1.0]), phi_t)
        assert np.max(np.abs(out - rhs)) <= 1e-9


def test_nabla_C_flat_plane_vanishes():
    # the normal frame column and the H column
    plane = Immersion(2, ("u1", "u2", "0"))
    geo = _geometry(plane, FLAT21, (0.3, 0.1))
    nabla_c_xi = _lemma_tensors(geo)[1]
    for xi in (0, -1):
        assert np.max(np.abs(_along(nabla_c_xi[:, :, xi], (1.0, 1.0)))) <= 1e-13


def test_nabla_C_circle_matches_oracle():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    u0 = 0.7

    def c_of_nu(t):
        # normal component of F xi at parameter u0 + t, in the moving frame
        pg = point_geometry(imm, FLAT11, (u0 + t,))
        return float(pg.Cm[0, 0])

    geo = _geometry(imm, FLAT11, (u0,))
    out = _along(_lemma_tensors(geo)[1][:, :, 0], (1.0,))
    # (nabla C) xi dotted with xi equals d/dt C - C * d... both normal bundles
    # are rank one, so compare the xi component against the derivative of the
    # scalar C(u) (the connection of a rank-one bundle has no extra term).
    jet_value = float(out[0] @ geo.g0[0] @ geo.Xi0[0, 0])
    oracle = fd_derivative(c_of_nu, 0.0)
    assert abs(jet_value - oracle) <= 1e-6


def test_nabla_C_torus_mean_curvature_field():
    torus = catalog_get("square-torus-aligned")
    geo = _geometry(torus.immersion, torus.space, (0.5, 1.1))
    nabla_c_h = _lemma_tensors(geo)[1][:, :, -1]
    for a in range(2):
        direction = [1.0 if i == a else 0.0 for i in range(2)]
        out = _along(nabla_c_h, direction)
        # rhs of the second identity with xi = H: -omega A_H X - h(X, BH)
        x = np.asarray(direction, float)
        rhs = -_normal(geo, _f(geo, _shape_operator(geo, x, geo.H0)))
        rhs = rhs - _h(geo, x, _params(geo, _tangent(geo, _f(geo, geo.H0))))
        assert np.max(np.abs(out)) <= 1e-9
        assert np.max(np.abs(out - rhs)) <= 1e-9


def test_lemma_checks_pass_on_all_catalog_scenarios():
    for label in catalog_list():
        scn = catalog_get(label)
        outcome = verify(scn.space, scn.immersion, theorems=False)
        r1, r2 = outcome.lemmas.values()
        assert r1.passed and r1.max_residual <= 1e-9, (label, r1.max_residual)
        assert r2.passed and r2.max_residual <= 1e-9, (label, r2.max_residual)


def test_lemma_checks_fail_on_corrupted_ambient():
    space, imm = corrupted_lemma_case()
    outcome = verify(space, imm, theorems=False)
    r1, r2 = outcome.lemmas.values()
    assert not r1.passed and r1.max_residual > 1e-3
    assert not r2.passed and r2.max_residual > 1e-3


def test_lemma_checks_hold_the_worst_residual_to_tol():
    # a reflection of R^2 turning slowly along x1: F is not parallel, and
    # along the curve (u1, 0.3 u1^2) at u = 0.2 and 0.9 the worst residuals
    # are 4.9e-8 for lemma 1 and 4.2e-8 for lemma 2, above tol = 1e-8 and
    # below 10 tol, so neither lemma passes
    space = AmbientSpace(2, [["1", "0"], ["0", "1"]],
                         [["cos(5e-8 * x1)", "sin(5e-8 * x1)"],
                          ["sin(5e-8 * x1)", "-cos(5e-8 * x1)"]])
    curve = Immersion(1, ("u1", "0.3 * u1^2"))
    outcome = verify(space, curve, [(0.2,), (0.9,)], theorems=False, strict=False)
    for key, report in outcome.lemmas.items():
        assert 1e-8 < report.max_residual < 1e-7 and not report.passed, key


def test_lemma_checks_pass_on_random_immersions():
    for seed in range(5):
        imm = random_trig_immersion(seed)
        outcome = verify(flat_product(2, 2), imm, theorems=False)
        r1, r2 = outcome.lemmas.values()
        assert r1.passed, (seed, r1.max_residual)
        assert r2.passed, (seed, r2.max_residual)
    # the fuzz seed with the largest lemma roundoff (|H|^2 near 1e6 at one of
    # its 16 points), bounded as the catalog is
    outcome = verify(flat_product(2, 2), random_trig_immersion(440307, 16), theorems=False)
    for key, report in outcome.lemmas.items():
        assert report.passed and report.max_residual <= 1e-9, (key, report.max_residual)


def test_nabla_omega_is_tensorial_in_y():
    # (nabla_X omega) Y = P_N [(D F) Y - (D P_T) F Y + F (D P_T) Y] applied to
    # Y itself is the contraction of the coordinate rows with Y's components
    scn = catalog_get("sphere")
    u0 = (0.7, 0.3)
    geo = _geometry(scn.immersion, scn.space, u0)
    d_tan, d_f = _derivatives(geo)
    f = geo.F0[:, None]
    rows = _lemma_tensors(geo)[0]
    for coefficients in ((0.0, 1.0), (1.0, 1.0), (u0[0], -2.0)):
        y = (geo.J0 @ np.asarray(coefficients))[:, None]  # (1, 1, N)
        direct = _normal(
            geo, _apply(d_f, y) - _apply(d_tan, _apply(f, y)) + _apply(f, _apply(d_tan, y)))
        contracted = np.tensordot(rows, np.asarray(coefficients), axes=(2, 0))
        assert np.max(np.abs(direct - contracted)) <= 1e-9


def test_nabla_omega_is_linear_in_x():
    scn = catalog_get("sphere")
    u0 = (0.7, 0.3)
    geo = _geometry(scn.immersion, scn.space, u0)
    directions = [(1.0, 0.0), (0.0, 1.0), (2.0, -3.0)]
    rows = _lemma_tensors(geo)[0][:, :, 1]
    xa, xb, xc = (_along(rows, d) for d in directions)
    assert np.max(np.abs(xc - (2.0 * xa - 3.0 * xb))) <= 1e-9


@pytest.mark.parametrize("xi", ["H", 0])
def test_nabla_C_is_linear_in_x(xi):
    # the theorems contract the coordinate-direction values to frame directions
    scn = catalog_get("sphere")
    u0 = (0.7, 0.3)
    geo = _geometry(scn.immersion, scn.space, u0)
    directions = [(1.0, 0.0), (0.0, 1.0), (2.0, -3.0)]
    rows = _lemma_tensors(geo)[1][:, :, -1 if xi == "H" else xi]
    xa, xb, xc = (_along(rows, d) for d in directions)
    assert np.max(np.abs(xa)) > 1e-3
    assert np.max(np.abs(xc - (2.0 * xa - 3.0 * xb))) <= 1e-9


def test_nabla_C_is_additive_in_xi():
    # the operator formula applied to a combination of the normal frame
    # vectors, and to H, is the same combination of the library's rows
    scn = catalog_get("square-torus-rotated")
    geo = _geometry(scn.immersion, scn.space, scn.samples[0])
    rows = _lemma_tensors(geo)[1]
    xi0, xi1 = rows[:, :, 0], rows[:, :, 1]
    assert np.max(np.abs(xi0)) > 1e-3
    assert np.max(np.abs(_nabla_c(geo, geo.Xi0[:, None, 0]) - xi0)) <= 1e-12
    both = _nabla_c(geo, 2.0 * geo.Xi0[:, None, 0] - geo.Xi0[:, None, 1])
    assert np.max(np.abs(both - (2.0 * xi0 - xi1))) <= 1e-9
    assert np.max(np.abs(_nabla_c(geo, geo.H0[:, None]) - rows[:, :, -1])) <= 1e-9


@pytest.mark.parametrize("lemmas, theorems", [(True, True), (True, False), (False, True)])
def test_verify_derives_each_tensor_once(lemmas, theorems, monkeypatch):
    calls = collections.Counter()
    original = calculus._operator_derivatives

    def counted(*args):
        calls["derivatives"] += 1
        return original(*args)

    monkeypatch.setattr(calculus, "_operator_derivatives", counted)
    scn = catalog_get("square-torus-rotated")
    verify(scn.space, scn.immersion, lemmas=lemmas, theorems=theorems)
    assert calls == {"derivatives": 1}
    verify(scn.space, scn.immersion, lemmas=False, theorems=False)
    assert calls == {"derivatives": 1}


def test_gauss_and_weingarten_reassembly():
    # in operator form on every catalog sample: (D_a P_T) T_b = h(T_a, T_b)
    # (Gauss), and P_T (D_a P_T) xi = A_xi d_a (Weingarten)
    for label in catalog_list():
        scn = catalog_get(label)
        for u in scn.samples:
            geo = _geometry(scn.immersion, scn.space, u)
            d_tan, _ = _derivatives(geo)
            gauss = (d_tan @ geo.J0[:, None]).swapaxes(-1, -2)  # [a, b]
            assert np.max(np.abs(gauss - _hc(geo))) <= 1e-10, label
            for alpha in range(geo.m):
                xi0 = geo.Xi0[:, alpha]
                for a in range(geo.n):
                    x = np.eye(geo.n)[a]
                    weingarten = _tangent(geo, _along(_apply(d_tan, xi0[:, None]), x))
                    assert np.max(np.abs(weingarten - _shape_operator(geo, x, xi0))) <= 1e-10, label


def test_directional_derivative_matches_oracle_on_rect_torus():
    scn = catalog_get("rect-torus")
    u0 = np.array([0.5, 1.1])
    x = np.array([0.7, -0.4])

    def h_sq(t):
        pg = point_geometry(scn.immersion, scn.space, u0 + t * x)
        return float(pg.H @ pg.ambient_metric @ pg.H)

    geo = _geometry(scn.immersion, scn.space, u0)
    h_field = mean_curvature_field(scn.immersion, scn.space, [u0])
    pairing = _pairing(scn.space, geo, h_field, h_field)
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
        pairing = _pairing(scn.space, geo, h_field, h_field)
        jet_value = float(pairing.gradient()[0, : geo.n] @ x)
        assert abs(jet_value - fd_derivative(h_sq, 0.0)) <= 1e-5, label
